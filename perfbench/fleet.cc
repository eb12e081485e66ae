// fleet: a multi-tenant checkpoint service. Four tenancy-enabled daemons on
// sharded_testbed(4), configured like bench/fleet_sweep.cc's FleetRig, and
// hundreds of phantom-payload jobs on one client node.
//
// Every job slot follows an open-loop schedule: its op i is due at
// phase + i * period (period by priority class). Ops are mostly full
// checkpoints, plus incrementals and occasional restores (a job restart);
// latency counts from the due time, and how late an op was issued behind
// its due time (because the slot's previous op was still running) is
// reported. Jobs finish after a seeded number of ops and a new job
// registers in their place. Repacker::repack_online sweeps every daemon
// throughout. The offered load is about 70% of the pool throughput a
// saturating calibration run sustains (kPoolCapacityBps).
#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/strformat.h"
#include "core/daemon/repacker.h"
#include "fleet.h"
#include "layers.h"

namespace portus::perfbench {

namespace {

constexpr int kDaemons = 4;
constexpr int kTensorsPerModel = 8;

struct ClassSpec {
  core::PriorityClass cls;
  double share;      // of the job slots
  Bytes model_bytes;
  Duration period;   // open-loop checkpoint cadence
};

// The FleetConfig priority mix and model sizes, with open-loop periods.
const ClassSpec kClasses[] = {
    {core::PriorityClass::kHigh, 0.2, 128_MiB, Duration{2'000'000'000}},
    {core::PriorityClass::kNormal, 0.5, 32_MiB, Duration{800'000'000}},
    {core::PriorityClass::kBatch, 0.3, 8_MiB, Duration{250'000'000}},
};

// Op mix per scheduled op; the rest are full checkpoints.
constexpr double kIncrementalShare = 0.25;
constexpr double kRestoreShare = 0.05;
constexpr double kDueJitter = 0.5;  // of a period, on every due time
// Ops a job runs before it finishes and a new job takes its slot.
constexpr int kMinJobOps = 6;
constexpr int kMaxJobOps = 14;
// Pause between online-repack sweeps of one daemon (background cadence).
constexpr Duration kRepackInterval{1'000'000'000};
// Capacity bisection range (slots) and resolution.
constexpr int kCapacitySearchLow = 32;
constexpr int kCapacitySearchHigh = 512;
constexpr int kCapacityResolution = 8;

struct FleetRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  core::QpRendezvous rendezvous;
  std::unique_ptr<sim::Tracer> tracer;
  std::vector<std::unique_ptr<core::PortusDaemon>> daemons;
  std::vector<std::string> endpoints;

  explicit FleetRig(bool traced) {
    cluster = net::Cluster::sharded_testbed(eng, kDaemons);
    if (traced) tracer = std::make_unique<sim::Tracer>(eng);
    for (int i = 0; i < kDaemons; ++i) {
      core::PortusDaemon::Config cfg;
      cfg.workers = 8;
      cfg.model_table_capacity = 512;
      cfg.shards = 8;
      cfg.alloc_refill_bytes = 256_KiB;
      cfg.endpoint = strf("portusd{}", i);
      cfg.pipeline_window = 4;
      cfg.chunk_bytes = 4_MiB;
      cfg.tenancy = true;
      cfg.admission_inflight = 1;
      cfg.admission_queue_depth = 64;
      cfg.tracer = tracer.get();
      daemons.push_back(std::make_unique<core::PortusDaemon>(
          *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
      daemons.back()->start();
      endpoints.push_back(cfg.endpoint);
    }
  }
  ~FleetRig() { eng.shutdown(); }

  net::Node& client_node() { return cluster->node("client-volta"); }
};

// One job: a phantom model and its client, alive until it finishes.
struct Job {
  std::unique_ptr<dnn::Model> model;
  std::unique_ptr<core::PortusClient> client;
  std::uint64_t last_epoch = 0;
};

struct Slot {
  int index = 0;
  const ClassSpec* cls = nullptr;
  Duration period{0};  // the class period times FleetShape::period_scale
  std::string endpoint;
  gpu::GpuDevice* gpu = nullptr;
  std::vector<std::unique_ptr<Job>> jobs;  // every job this slot ran (stats stay readable)
  std::unique_ptr<OpenLoopSchedule> schedule;
  Rng rng{0};
  int ops_left = 0;
  int generation = 0;
};

struct Fleet {
  Fleet(FleetRig& rig_, RoundResult& r_) : rig{rig_}, r{r_}, repack(rig_.daemons.size()) {}

  FleetRig& rig;
  RoundResult& r;
  Time horizon{};
  bool stop = false;
  std::uint64_t next_op = 0;
  std::vector<core::Repacker::Report> repack;  // per daemon, summed over passes
};

std::unique_ptr<Job> make_job(FleetRig& rig, Slot& s) {
  auto job = std::make_unique<Job>();
  const auto name = strf("fleet/s{:03}/g{}", s.index, s.generation);
  job->model = std::make_unique<dnn::Model>(name, *s.gpu);
  // Seeded model size (the class size +-10%: tenants of one class run
  // different models) and layer split (weights in [0.2, 2.0), as the model
  // zoo draws them), whole f32 elements.
  const auto model_bytes = static_cast<Bytes>(static_cast<double>(s.cls->model_bytes) *
                                              s.rng.uniform_real(0.9, 1.1));
  double w[kTensorsPerModel];
  double wsum = 0.0;
  for (auto& x : w) wsum += (x = s.rng.uniform_real(0.2, 2.0));
  Bytes assigned = 0;
  for (int t = 0; t < kTensorsPerModel; ++t) {
    Bytes size = t + 1 == kTensorsPerModel
                     ? model_bytes - assigned
                     : static_cast<Bytes>(static_cast<double>(model_bytes) * w[t] / wsum);
    size &= ~Bytes{3};
    assigned += size;
    job->model->add_tensor(
        dnn::TensorMeta{.name = strf("w{}", t),
                        .dtype = dnn::DType::kF32,
                        .shape = {static_cast<std::int64_t>(size / 4)}},
        /*phantom=*/true);
  }
  job->client = std::make_unique<core::PortusClient>(*rig.cluster, rig.client_node(), *s.gpu,
                                                     rig.rendezvous, s.endpoint);
  job->client->set_tenant(core::PortusClient::TenantSpec{
      .id = strf("tenant-{:03}", s.index),
      .priority = static_cast<std::uint8_t>(s.cls->cls),
      .requested_capacity = 0,
      .requested_rate = 0});
  // fleet_sweep's retry budget: outlasts a saturation transient.
  job->client->set_retry_policy(core::PortusClient::RetryPolicy{
      .max_retries = 30,
      .base_backoff = Duration{500'000},
      .max_backoff = Duration{400'000'000},
      .retry_timeouts = false,
      .jitter_seed = s.rng.next_u64()});
  s.ops_left = static_cast<int>(s.rng.uniform(kMinJobOps, kMaxJobOps));
  ++s.generation;
  return job;
}

sim::SubTask<> register_job(Fleet& f, Slot& s, Job& job) {
  auto& eng = f.rig.eng;
  auto sp = span(f.rig.tracer.get(), "register#" + std::to_string(++f.next_op),
                 strf("fleet/slot{:03}", s.index));
  ++f.r.attempted;
  try {
    co_await job.client->connect();
    const Time t0 = eng.now();
    co_await job.client->register_model(*job.model);
    f.r.register_ms.push_back(to_seconds(eng.now() - t0) * 1e3);
  } catch (const Error& e) {
    ++f.r.failed;
    f.r.fail(strf("{}: register failed: {}", job.model->name(), e.what()));
  }
}

// Initial registration of every slot's first job (set-up).
sim::Process setup_slot(Fleet& f, Slot& s) {
  s.jobs.push_back(make_job(f.rig, s));
  co_await register_job(f, s, *s.jobs.back());
}

sim::Process drive_slot(Fleet& f, Slot& s) {
  auto& eng = f.rig.eng;
  const auto track = strf("fleet/slot{:03}", s.index);
  for (std::uint64_t i = 0;; ++i) {
    const Time due = s.schedule->due(i);
    if (due >= f.horizon) break;
    if (eng.now() < due) co_await eng.sleep(due - eng.now());
    if (s.ops_left == 0) {
      // Job done: FINISH_JOB (repacker hint), then a new job takes the slot.
      auto& old = *s.jobs.back();
      try {
        co_await old.client->finish(*old.model);
      } catch (const Error&) {
      }
      s.jobs.push_back(make_job(f.rig, s));
      co_await register_job(f, s, *s.jobs.back());
    }
    auto& job = *s.jobs.back();
    const double draw = s.rng.uniform_real(0.0, 1.0);
    const bool restore = draw < kRestoreShare && job.last_epoch > 0;
    const bool incremental = !restore && draw < kRestoreShare + kIncrementalShare &&
                             job.last_epoch > 0;
    std::vector<std::uint32_t> dirty;
    if (incremental) {
      dirty.push_back(static_cast<std::uint32_t>(s.rng.uniform(0, kTensorsPerModel - 1)));
    }
    const Time issued = eng.now();
    auto sp = span(f.rig.tracer.get(),
                   strf("{}#{}", restore ? "restore" : incremental ? "incr" : "ckpt", ++f.next_op),
                   track);
    ++f.r.attempted;
    try {
      std::uint64_t epoch = 0;
      if (restore) {
        epoch = co_await job.client->restore(*job.model);
        if (epoch != job.last_epoch) f.r.fail(job.model->name() + ": restore served a stale epoch");
      } else if (incremental) {
        epoch = co_await job.client->checkpoint_incremental(*job.model, i + 1, dirty);
      } else {
        epoch = co_await job.client->checkpoint(*job.model, i + 1);
      }
      const Time done = eng.now();
      const double ms = to_seconds(s.schedule->record(i, issued, done)) * 1e3;
      if (restore) {
        f.r.restore_ms.push_back(ms);
      } else {
        if (epoch <= job.last_epoch) f.r.fail(job.model->name() + ": epoch did not advance");
        job.last_epoch = epoch;
        ++f.r.ontime_of;
        if (s.schedule->on_time(i, done)) ++f.r.ontime;
        const Bytes bytes =
            incremental ? job.model->tensor(dirty.front()).byte_size() : job.model->total_bytes();
        f.r.layers.add("user.bytes", static_cast<double>(bytes));
        f.r.op_bytes += static_cast<double>(bytes);
        if (incremental) {
          f.r.incr_ms.push_back(ms);
        } else {
          f.r.ckpt_ms.push_back(ms);
          f.r.ckpt_bytes += static_cast<double>(bytes);
          f.r.ckpt_latency_s += ms / 1e3;
          if (s.cls->cls == core::PriorityClass::kHigh) f.r.high_ckpt_ms.push_back(ms);
        }
      }
      f.r.layers.add("ops.datapath", 1);
    } catch (const Error&) {
      // Failed after all retries: counts against failed_share and as late.
      ++f.r.failed;
      if (!restore) ++f.r.ontime_of;
    }
    --s.ops_left;
  }
}

sim::Process repack_loop(Fleet& f, core::PortusDaemon& d, core::Repacker::Report& total) {
  core::Repacker repacker{d};
  while (!f.stop) {
    const auto rep = co_await repacker.repack_online();
    total.freed_outdated += rep.freed_outdated;
    total.freed_crashed += rep.freed_crashed;
    total.passes += rep.passes;
    total.paused_time += rep.paused_time;
    co_await f.rig.eng.sleep(kRepackInterval);
  }
}

sim::Process run_measured(Fleet& f, std::vector<std::unique_ptr<Slot>>& slots) {
  std::vector<sim::Process> maint;
  for (std::size_t i = 0; i < f.rig.daemons.size(); ++i) {
    maint.push_back(f.rig.eng.spawn(repack_loop(f, *f.rig.daemons[i], f.repack[i])));
  }
  std::vector<sim::Process> procs;
  for (auto& s : slots) procs.push_back(f.rig.eng.spawn(drive_slot(f, *s)));
  for (auto& p : procs) co_await p.join();
  f.stop = true;
  for (auto& p : maint) co_await p.join();
}

double offered_bytes_per_sec(const std::vector<std::unique_ptr<Slot>>& slots) {
  double bps = 0.0;
  for (const auto& s : slots) {
    const double full_share = 1.0 - kIncrementalShare - kRestoreShare;
    const double bytes = static_cast<double>(s->cls->model_bytes) *
                         (full_share + kIncrementalShare / kTensorsPerModel +
                          kRestoreShare);
    bps += bytes / to_seconds(s->period);
  }
  return bps;
}

}  // namespace

RoundResult run_fleet_round(const RoundSpec& spec) {
  return run_fleet(spec, FleetShape{});
}

RoundResult run_fleet(const RoundSpec& spec, const FleetShape& shape) {
  RoundResult r;
  const double h0 = cpu_seconds();
  FleetRig rig{spec.traced};
  Fleet f{rig, r};
  Rng rng{spec.seed};

  // Slots: class by the 20/50/30 mix (exact shares), one daemon and GPU
  // each, round-robin. Classes are dealt in daemon-sized groups so every
  // daemon carries the same mix; the seed shuffles within a group.
  std::vector<const ClassSpec*> classes;
  for (const auto& c : kClasses) {
    const auto n = static_cast<int>(std::lround(c.share * shape.slots));
    for (int i = 0; i < n; ++i) classes.push_back(&c);
  }
  classes.resize(static_cast<std::size_t>(shape.slots), &kClasses[1]);
  for (std::size_t g = 0; g < classes.size(); g += kDaemons) {
    const auto end = std::min(classes.size(), g + kDaemons);
    std::shuffle(classes.begin() + static_cast<std::ptrdiff_t>(g),
                 classes.begin() + static_cast<std::ptrdiff_t>(end), rng.engine());
  }
  auto& node = rig.client_node();
  std::vector<std::unique_ptr<Slot>> slots;
  for (int i = 0; i < shape.slots; ++i) {
    auto s = std::make_unique<Slot>();
    s->index = i;
    s->cls = classes[static_cast<std::size_t>(i)];
    s->period = std::chrono::duration_cast<Duration>(s->cls->period * shape.period_scale);
    s->endpoint = rig.endpoints[static_cast<std::size_t>(i) % rig.endpoints.size()];
    s->gpu = &node.gpu(static_cast<std::size_t>(i) % node.gpu_count());
    s->rng = Rng{rng.next_u64()};
    slots.push_back(std::move(s));
  }
  r.offered_load = offered_bytes_per_sec(slots) / kPoolCapacityBps;

  std::vector<core::PortusDaemon*> daemons;
  for (auto& d : rig.daemons) daemons.push_back(d.get());
  std::vector<gpu::GpuDevice*> gpus;
  for (std::size_t g = 0; g < node.gpu_count(); ++g) gpus.push_back(&node.gpu(g));
  auto view = rig_view(rig.eng, *rig.cluster, daemons, gpus);
  // Per-layer deltas cover the set-up registrations too.
  const auto before = spec.traced ? snapshot(view) : LayerCounters{};

  // Set-up: testbed + every slot's first job registered.
  {
    std::vector<sim::Process> procs;
    for (auto& s : slots) procs.push_back(rig.eng.spawn(setup_slot(f, *s)));
    rig.eng.run();
    for (auto& p : procs) p.check();
  }
  const double h1 = cpu_seconds();
  r.setup_s = h1 - h0;

  // Measured phase: open-loop schedules from now.
  const Time t0 = rig.eng.now();
  for (auto& s : slots) {
    const auto period = s->period;
    const auto phase = Duration{static_cast<Duration::rep>(
        s->rng.uniform_real(0.0, 1.0) * static_cast<double>(period.count()))};
    s->schedule = std::make_unique<OpenLoopSchedule>(t0 + phase, period, kDueJitter,
                                                     s->rng.next_u64());
  }
  f.horizon = t0 + shape.horizon;
  run_to_idle(rig.eng, run_measured(f, slots));
  r.host_s = cpu_seconds() - h1;
  r.makespan_s = to_seconds(rig.eng.now() - t0);
  for (auto& s : slots) {
    r.lateness_ms_total += to_seconds(s->schedule->lateness_total()) * 1e3;
    r.lateness_ms_max = std::max(r.lateness_ms_max, to_seconds(s->schedule->lateness_max()) * 1e3);
    r.late_ops += s->schedule->late_ops();
  }
  if (spec.traced) {
    for (auto& s : slots) {
      for (auto& j : s->jobs) view.clients.push_back(j->client.get());
    }
    for (const auto& rep : f.repack) {
      r.layers.add("repack.freed_bytes", static_cast<double>(rep.freed_outdated + rep.freed_crashed));
      r.layers.add("repack.passes", rep.passes);
      r.layers.add("repack.paused_ns", static_cast<double>(rep.paused_time.count()));
    }
    account_phase(r, view, before, to_seconds(rig.eng.now()), r.host_s, r.attempted);
    if (!spec.trace_path.empty()) {
      std::ofstream out{spec.trace_path, std::ios::trunc};
      rig.tracer->write_chrome_json(out);
    }
  }
  for (auto& d : rig.daemons) gate_daemon(r, *d);
  return r;
}

int fleet_capacity(std::uint64_t seed) {
  const auto passes = [&](int slots) {
    const auto r = run_fleet(untraced(seed),
                             FleetShape{.slots = slots, .horizon = Duration{2'000'000'000}});
    return r.failed == 0 && r.gate_failures.empty() &&
           static_cast<double>(r.ontime) >= 0.99 * static_cast<double>(r.ontime_of);
  };
  int lo = kCapacitySearchLow;   // assumed to pass; checked below
  int hi = kCapacitySearchHigh;  // assumed to fail
  if (!passes(lo)) return 0;
  while (hi - lo > kCapacityResolution) {
    const int mid = (lo + hi) / 2;
    (passes(mid) ? lo : hi) = mid;
  }
  return lo;
}

double fleet_calibrate(std::uint64_t seed) {
  const auto r = run_fleet(untraced(seed),
                           FleetShape{.slots = 160, .horizon = Duration{1'000'000'000},
                                      .period_scale = 0.02});
  return r.op_bytes / r.makespan_s;
}

}  // namespace portus::perfbench
