#include "core/fleet/fleet_gen.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strformat.h"

namespace portus::core::fleet {

namespace {

// Model size per priority class, cut into kTensorsPerModel equal tensors.
constexpr Bytes kHighModelBytes = 128_MiB;
constexpr Bytes kNormalModelBytes = 32_MiB;
constexpr Bytes kBatchModelBytes = 8_MiB;
constexpr int kTensorsPerModel = 8;

Duration percentile(std::vector<Duration>& sorted, double p) {
  if (sorted.empty()) return Duration{0};
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

FleetGen::FleetGen(net::Cluster& cluster, net::Node& client_node, QpRendezvous& rendezvous,
                   std::vector<std::string> endpoints, FleetConfig config)
    : cluster_{cluster},
      node_{client_node},
      rendezvous_{rendezvous},
      endpoints_{std::move(endpoints)},
      config_{std::move(config)} {
  PORTUS_CHECK_ARG(config_.tenants >= 1, "fleet needs at least one tenant");
  PORTUS_CHECK_ARG(!endpoints_.empty(), "fleet needs at least one daemon endpoint");
}

sim::Process FleetGen::drive(TenantJob& job, std::uint64_t seed) {
  Rng rng{seed};
  auto& client = *job.client;
  try {
    co_await client.connect();
    co_await client.register_model(*job.model);
    const Duration period = job.cls == PriorityClass::kHigh    ? config_.high_period
                            : job.cls == PriorityClass::kBatch ? config_.batch_period
                                                               : config_.normal_period;
    for (int k = 0; k < config_.checkpoints_per_tenant; ++k) {
      // Poisson cadence: exponential think time between checkpoint triggers.
      const double u = rng.uniform_real(0.0, 1.0);
      const double think = -to_seconds(period) * std::log1p(-u);
      const Duration gap = from_seconds(think);
      co_await cluster_.engine().sleep(gap);
      const Time t0 = cluster_.engine().now();
      co_await client.checkpoint(*job.model, static_cast<std::uint64_t>(k) + 1);
      job.latencies.push_back(cluster_.engine().now() - t0);
    }
    if (config_.finish_jobs) co_await client.finish(*job.model);
  } catch (const Error& e) {
    job.failed = true;
    PLOG_INFO("fleet", "tenant {} gave up: {}", job.index, e.what());
  }
}

sim::SubTask<FleetReport> FleetGen::run() {
  jobs_.clear();
  Rng mix_rng{config_.seed};
  const auto gpus = static_cast<int>(node_.gpu_count());

  for (int i = 0; i < config_.tenants; ++i) {
    auto job = std::make_unique<TenantJob>();
    job->index = i;
    const double draw = mix_rng.uniform_real(0.0, 1.0);
    Bytes model_bytes;
    if (draw < config_.high_fraction) {
      job->cls = PriorityClass::kHigh;
      model_bytes = kHighModelBytes;
    } else if (draw < config_.high_fraction + config_.batch_fraction) {
      job->cls = PriorityClass::kBatch;
      model_bytes = kBatchModelBytes;
    } else {
      job->cls = PriorityClass::kNormal;
      model_bytes = kNormalModelBytes;
    }

    auto& gpu = node_.gpu(i % gpus);
    job->model = std::make_unique<dnn::Model>(strf("{}/t{:04}", config_.name_prefix, i), gpu);
    const Bytes per_tensor = model_bytes / kTensorsPerModel;
    for (int t = 0; t < kTensorsPerModel; ++t) {
      job->model->add_tensor(
          dnn::TensorMeta{.name = strf("w{}", t),
                          .dtype = dnn::DType::kF32,
                          .shape = {static_cast<std::int64_t>(per_tensor / 4)}},
          /*phantom=*/true);
    }

    job->client = std::make_unique<PortusClient>(
        cluster_, node_, gpu, rendezvous_, endpoints_[i % endpoints_.size()]);
    job->client->set_tenant(PortusClient::TenantSpec{
        .id = strf("{}-{:04}", config_.name_prefix, i),
        .priority = static_cast<std::uint8_t>(job->cls),
        .requested_capacity = 0,
        .requested_rate = 0});
    auto retry = config_.retry;
    retry.jitter_seed = config_.seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
    job->client->set_retry_policy(retry);
    jobs_.push_back(std::move(job));
  }

  const Time t0 = cluster_.engine().now();
  std::vector<sim::Process> procs;
  procs.reserve(jobs_.size());
  for (auto& job : jobs_) {
    procs.push_back(cluster_.engine().spawn(
        drive(*job, config_.seed ^ (0xD1B54A32D192ED03ull * (job->index + 1)))));
  }
  for (auto& p : procs) co_await p.join();

  FleetReport report;
  report.makespan = cluster_.engine().now() - t0;
  std::vector<Duration> per_class[kPriorityClasses];
  for (const auto& job : jobs_) {
    const int cls = static_cast<int>(job->cls);
    ++report.by_class[cls].tenants;
    report.by_class[cls].checkpoints += job->latencies.size();
    report.checkpoints += job->latencies.size();
    report.bytes += job->model->total_bytes() * job->latencies.size();
    per_class[cls].insert(per_class[cls].end(), job->latencies.begin(), job->latencies.end());
    if (job->failed) ++report.failures;
    const auto& cs = job->client->stats();
    report.retries += cs.retries;
    report.backpressure += cs.backpressure;
    report.reconnects += cs.reconnects;
    report.timeouts += cs.timeouts;
  }
  for (int c = 0; c < kPriorityClasses; ++c) {
    auto& lat = per_class[c];
    std::sort(lat.begin(), lat.end());
    report.by_class[c].p50 = percentile(lat, 0.50);
    report.by_class[c].p99 = percentile(lat, 0.99);
    report.by_class[c].max = lat.empty() ? Duration{0} : lat.back();
  }
  co_return report;
}

}  // namespace portus::core::fleet
