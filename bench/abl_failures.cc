// Ablation — end-to-end fault tolerance under the failure rates that
// motivate the paper (SS I: "a failure usually occurs every 10 minutes"
// [Oobleck/Bamboo]; >60% of failed jobs fail within an hour [Check-N-Run]).
//
// Train VGG19 for 2 simulated hours with exponentially distributed failures
// (MTBF 10 min). On a failure the job restarts (fixed relaunch cost), the
// model restores from the newest durable checkpoint, and iterations since
// that checkpoint are lost. Portus checkpoints every iteration
// (asynchronous); CheckFreq runs at its tuned interval against BeeGFS-PMEM.
// The metric is useful iterations retained per wall-clock hour. Gate: Portus
// keeps more useful work than CheckFreq, for VGG19 and for GPT-22.4B.
#include <cmath>

#include "bench_common.h"
#include "common/rng.h"

using namespace portus;
using namespace std::chrono_literals;

namespace {

constexpr Duration kBudget = 2h;
constexpr Duration kMtbf = 10min;
constexpr Duration kRelaunchCost = 30s;  // scheduler requeue + process start

struct Outcome {
  std::uint64_t useful_iterations = 0;
  int failures = 0;
  Duration restore_time_total{0};
  std::uint64_t lost_iterations = 0;
};

// One uninterrupted training segment; returns (iterations run, durable
// restore point, restore cost paid at the next failure — for Portus that
// includes re-registering the relaunched job's tensors).
struct Segment {
  std::uint64_t trained = 0;
  std::uint64_t durable = 0;
  Duration restore{0};
};

Segment run_segment_portus(Duration length) {
  const auto& spec = dnn::ModelZoo::spec("vgg19_bn");
  bench::PortusJob job{spec};
  core::PortusHook hook{job.client, job.model, 1, core::PortusHook::Mode::kAsync};
  dnn::TrainingStats stats;
  job.world.engine.spawn([](bench::PortusJob& j, core::PortusHook& h,
                            dnn::TrainingConfig config, dnn::TrainingStats& st) -> sim::Process {
    co_await j.client.connect();
    co_await j.client.register_model(j.model);
    co_await j.world.engine
        .spawn(dnn::train(j.world.engine, j.gpu, &j.model, config, 1'000'000, h, st))
        .join();
  }(job, hook, dnn::TrainingConfig::from_spec(spec), stats));
  job.world.engine.run_until(Time{0} + length);

  Segment seg;
  seg.trained = stats.iterations_done;
  seg.durable = hook.stats().last_committed_iteration;

  // Restart cost for the next incarnation, measured on a fresh testbed: a
  // relaunched client must re-register its tensors before it can restore
  // the checkpoint the previous incarnation left behind.
  bench::PortusJob before{spec};
  core::PortusClient after{*before.world.cluster, before.world.volta(), before.gpu,
                           before.world.rendezvous};
  before.world.run([](bench::PortusJob& prev, core::PortusClient& next,
                      Duration& out) -> sim::Process {
    co_await prev.client.connect();
    co_await prev.client.register_model(prev.model);
    co_await prev.client.checkpoint(prev.model, 1);
    co_await next.connect();
    const Time t0 = prev.world.engine.now();
    co_await next.register_model(prev.model);
    co_await next.restore(prev.model);
    out = prev.world.engine.now() - t0;
  }(before, after, seg.restore));
  return seg;
}

Segment run_segment_checkfreq(Duration length) {
  const auto& spec = dnn::ModelZoo::spec("vgg19_bn");
  bench::World world;
  auto& node = world.volta();
  auto& gpu = node.gpu(0);
  auto model = dnn::ModelZoo::create_from_spec(gpu, spec, {.force_phantom = true});
  storage::BeeGfsMount mount{*world.cluster, node, *world.beegfs_server, "mnt0"};

  // CheckFreq tunes its own interval from profiled costs.
  const auto cfg = dnn::TrainingConfig::from_spec(spec);
  const auto ckpt_cost = 900ms;  // measured torch.save cost for VGG19 (fig11)
  const auto interval = baselines::CheckFreqHook::tune_interval(cfg.iteration_time, ckpt_cost);
  baselines::CheckFreqHook hook{node, gpu, model, mount, interval, "/cf/vgg"};
  dnn::TrainingStats stats;

  world.engine.spawn([](bench::World& w, gpu::GpuDevice& g, dnn::Model& m,
                        baselines::CheckFreqHook& h, dnn::TrainingConfig config,
                        dnn::TrainingStats& st) -> sim::Process {
    co_await w.engine
        .spawn(dnn::train(w.engine, g, &m, config, 1'000'000, h, st))
        .join();
  }(world, gpu, model, hook, cfg, stats));
  world.engine.run_until(Time{0} + length);

  // The restart restores the newest persist with GDS from BeeGFS (fig12's path).
  return Segment{.trained = stats.iterations_done,
                 .durable = hook.last_persisted_iteration(),
                 .restore = bench::time_torch(spec, bench::Fs::kBeegfs).restore};
}

template <typename SegmentFn>
Outcome run_with_failures(SegmentFn&& segment, std::uint64_t seed) {
  Rng rng{seed};
  Outcome out;
  Duration clock{0};
  while (clock < kBudget) {
    // Exponential time-to-failure, clamped into the remaining budget.
    const double u = rng.uniform_real(1e-9, 1.0);
    Duration ttf = from_seconds(-to_seconds(kMtbf) * std::log(u));
    const bool fails = clock + ttf < kBudget;
    if (!fails) ttf = kBudget - clock;

    const Segment seg = segment(ttf);
    out.useful_iterations += fails ? seg.durable : seg.trained;
    if (fails) {
      ++out.failures;
      out.lost_iterations += seg.trained - seg.durable;
      out.restore_time_total += seg.restore + kRelaunchCost;
      clock += ttf + seg.restore + kRelaunchCost;
    } else {
      clock += ttf;
    }
  }
  return out;
}

}  // namespace

// Closed-form expected useful throughput for a model too large to simulate
// for hours of virtual time: with failure rate lambda, checkpoint interval I
// (iterations), per-iteration time t, per-checkpoint stall s, mean loss of
// I/2 iterations plus any in-flight persist, and per-failure downtime D:
//   cycle        = I*t + s
//   progress     = I / cycle                       [iters per second]
//   loss_per_f   = (I/2)*t + persist_lag + D       [seconds equivalent]
//   useful rate  = progress * max(0, 1 - lambda*loss_per_f)
struct Analytic {
  double interval;
  double iter_s;
  double stall_s;        // blocking checkpoint stall per interval
  double persist_lag_s;  // durable point lags trigger by this much
  double downtime_s;     // restore + relaunch
};

double useful_rate(const Analytic& a, double lambda) {
  const double cycle = a.interval * a.iter_s + a.stall_s;
  const double progress = a.interval / cycle;
  const double loss = (a.interval / 2.0) * a.iter_s + a.persist_lag_s + a.downtime_s;
  return progress * std::max(0.0, 1.0 - lambda * loss);
}

int main() {
  bench::print_header(
      "Ablation: fault tolerance under 10-minute MTBF",
      "motivation SS I: frequent failures demand finer-grained checkpoints + fast restore");
  bench::Report report{"abl_failures"};
  report.param("mtbf_ns", kMtbf);
  report.param("relaunch_ns", kRelaunchCost);

  const auto portus = run_with_failures([](Duration d) { return run_segment_portus(d); }, 7);
  const auto checkfreq =
      run_with_failures([](Duration d) { return run_segment_checkfreq(d); }, 7);
  auto& vgg = report.table("vgg19",
                           {{"system", bench::kText}, {"failures"}, {"useful_iterations"},
                            {"lost_iterations"}, {"restore_restart_ns", bench::kNs}},
                           "VGG19, single GPU, 2 h simulated with failure injection");
  for (const auto& [name, o] : {std::pair<const char*, const Outcome&>{"Portus", portus},
                                {"CheckFreq", checkfreq}}) {
    vgg.add({name, o.failures, o.useful_iterations, o.lost_iterations, o.restore_time_total});
  }

  const double lambda = 1.0 / to_seconds(kMtbf);
  // Measured: Portus dump 14.3 s (overlapped => stall ~0, durable point lags
  // one pull), restore 7.5 s; CheckFreq persist 113 s (its tuner caps the
  // interval at persist/iter so triggers are not throttled), snapshot stall
  // ~0.5 s, GDS restore from BeeGFS ~50 s for 89.6 GB.
  const Analytic gpt_portus{.interval = 20, .iter_s = 1.73, .stall_s = 0.0,
                            .persist_lag_s = 14.3, .downtime_s = 7.5 + 30.0};
  const Analytic gpt_checkfreq{.interval = 66, .iter_s = 1.73, .stall_s = 0.5,
                               .persist_lag_s = 113.0, .downtime_s = 50.0 + 30.0};
  const double rp = useful_rate(gpt_portus, lambda);
  const double rc = useful_rate(gpt_checkfreq, lambda);
  report
      .table("gpt",
             {{"system", bench::kText}, {"useful_iterations_per_hour", bench::kReal, 0},
              {"share_of_failure_free_pct", bench::kReal, 1, "%"}},
             "GPT-22.4B, 16 ranks (closed-form from measured fig14/fig15 costs)")
      .add({"Portus", rp * 3600, 100.0 * rp * gpt_portus.iter_s})
      .add({"CheckFreq", rc * 3600, 100.0 * rc * gpt_checkfreq.iter_s});

  // Small models checkpoint fast enough either way, so VGG19's gap comes from
  // restore speed and the tuned interval's lost work. At GPT scale
  // CheckFreq's ~2-minute persist means every failure wipes out minutes of
  // work and its restore costs nearly a minute; Portus's restore point is
  // never more than one pull (~14 s) behind.
  const double vgg_x = static_cast<double>(portus.useful_iterations) /
                       static_cast<double>(checkfreq.useful_iterations);
  report
      .table("advantage", {{"workload", bench::kText}, {"useful_work_x", bench::kReal, 2, "x"}})
      .add({"VGG19", vgg_x})
      .add({"GPT-22.4B", rp / rc});
  report.require(vgg_x > 1, "Portus keeps less useful VGG19 work than CheckFreq");
  report.require(rp > rc, "Portus keeps less useful GPT-22.4B work than CheckFreq");
  return report.finish();
}
