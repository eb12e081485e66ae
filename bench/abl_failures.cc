// Ablation — end-to-end fault tolerance under the failure rates that
// motivate the paper (SS I: "a failure usually occurs every 10 minutes"
// [Oobleck/Bamboo]; >60% of failed jobs fail within an hour [Check-N-Run]).
//
// Train VGG19 for 2 simulated hours with exponentially distributed failures
// (MTBF 10 min). On a failure the job restarts (fixed relaunch cost), the
// model restores from the newest durable checkpoint, and iterations since
// that checkpoint are lost. Portus checkpoints every iteration
// (asynchronous); CheckFreq runs at its tuned interval against BeeGFS-PMEM.
// The metric is useful iterations retained per wall-clock hour.
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
  bench::World world;
  auto& node = world.volta();
  auto& gpu = node.gpu(0);
  dnn::ModelZoo::Options opt;
  opt.force_phantom = true;
  auto model = dnn::ModelZoo::create(gpu, "vgg19_bn", opt);
  core::PortusClient client{*world.cluster, node, gpu, world.rendezvous};
  core::PortusHook hook{client, model, 1, core::PortusHook::Mode::kAsync};
  dnn::TrainingStats stats;
  const auto cfg = dnn::TrainingConfig::from_spec(dnn::ModelZoo::spec("vgg19_bn"));

  world.engine.spawn([](bench::World& w, gpu::GpuDevice& g, core::PortusClient& c,
                        dnn::Model& m, core::PortusHook& h, dnn::TrainingConfig config,
                        dnn::TrainingStats& st) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await w.engine
        .spawn(dnn::train(w.engine, g, &m, config, 1'000'000, h, st))
        .join();
  }(world, gpu, client, model, hook, cfg, stats));
  world.engine.run_until(Time{0} + length);

  Segment seg;
  seg.trained = stats.iterations_done;
  seg.durable = hook.stats().last_committed_iteration;

  // Restart cost for the next incarnation, measured on a fresh testbed: a
  // relaunched client must re-register its tensors before it can restore
  // the checkpoint the previous incarnation left behind.
  {
    bench::World w2;
    auto& gpu2 = w2.volta().gpu(0);
    auto model2 = dnn::ModelZoo::create(gpu2, "vgg19_bn", opt);
    core::PortusClient before{*w2.cluster, w2.volta(), gpu2, w2.rendezvous};
    core::PortusClient after{*w2.cluster, w2.volta(), gpu2, w2.rendezvous};
    Duration restart{0};
    w2.run([](sim::Engine& eng, core::PortusClient& prev, core::PortusClient& next,
              dnn::Model& m, Duration& out) -> sim::Process {
      co_await prev.connect();
      co_await prev.register_model(m);
      co_await prev.checkpoint(m, 1);
      co_await next.connect();
      const Time t0 = eng.now();
      co_await next.register_model(m);
      co_await next.restore(m);
      out = eng.now() - t0;
    }(w2.engine, before, after, model2, restart));
    seg.restore = restart;
  }
  return seg;
}

Segment run_segment_checkfreq(Duration length) {
  bench::World world;
  auto& node = world.volta();
  auto& gpu = node.gpu(0);
  dnn::ModelZoo::Options opt;
  opt.force_phantom = true;
  auto model = dnn::ModelZoo::create(gpu, "vgg19_bn", opt);
  storage::BeeGfsMount mount{*world.cluster, node, *world.beegfs_server, "mnt0"};

  // CheckFreq tunes its own interval from profiled costs.
  const auto cfg = dnn::TrainingConfig::from_spec(dnn::ModelZoo::spec("vgg19_bn"));
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

  Segment seg;
  seg.trained = stats.iterations_done;
  seg.durable = hook.last_persisted_iteration();

  {  // GDS restore from BeeGFS (fig12 path)
    bench::World w2;
    auto model2 = dnn::ModelZoo::create(w2.volta().gpu(0), "vgg19_bn", opt);
    storage::BeeGfsMount m2{*w2.cluster, w2.volta(), *w2.beegfs_server, "mnt0"};
    baselines::TorchSaveCheckpointer ckpt{w2.volta(), w2.volta().gpu(0), m2};
    Duration restore{0};
    w2.run([](baselines::TorchSaveCheckpointer& c, dnn::Model& m,
              Duration& out) -> sim::Process {
      co_await c.checkpoint(m, "/x.ptck");
      out = (co_await c.restore(m, "/x.ptck", /*gpu_direct=*/true)).total;
    }(ckpt, model2, restore));
    seg.restore = restore;
  }
  return seg;
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

  std::cout << "--- VGG19, single GPU, 2 h simulated with failure injection ---\n";
  const auto portus = run_with_failures([](Duration d) { return run_segment_portus(d); }, 7);
  const auto checkfreq =
      run_with_failures([](Duration d) { return run_segment_checkfreq(d); }, 7);

  std::cout << strf("{:<12}{:>10}{:>16}{:>14}{:>18}\n", "system", "failures",
                    "useful iters", "lost iters", "restore+restart");
  const auto row = [](const char* name, const Outcome& o) {
    std::cout << strf("{:<12}{:>10}{:>16}{:>14}{:>18}\n", name, o.failures,
                      o.useful_iterations, o.lost_iterations,
                      format_duration(o.restore_time_total));
  };
  row("Portus", portus);
  row("CheckFreq", checkfreq);
  std::cout << strf(
      "useful-work advantage: {:.2f}x — small models checkpoint fast enough either\n"
      "way; the gap comes from restore speed and the tuned interval's lost work.\n\n",
      static_cast<double>(portus.useful_iterations) /
          static_cast<double>(checkfreq.useful_iterations));

  std::cout << "--- GPT-22.4B, 16 ranks (closed-form from measured fig14/fig15 costs) ---\n";
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
  std::cout << strf("{:<12}{:>22}{:>22}\n", "system", "useful iters/hour",
                    "share of failure-free");
  std::cout << strf("{:<12}{:>22.0f}{:>21.1f}%\n", "Portus", rp * 3600,
                    100.0 * rp * gpt_portus.iter_s);
  std::cout << strf("{:<12}{:>22.0f}{:>21.1f}%\n", "CheckFreq", rc * 3600,
                    100.0 * rc * gpt_checkfreq.iter_s);
  std::cout << strf(
      "useful-work advantage: {:.2f}x — at this scale CheckFreq's ~2-minute persist\n"
      "means every 10-minute failure wipes out several minutes of work and its\n"
      "restore costs nearly a minute; Portus's restore point is never more than one\n"
      "pull (~14 s) behind.\n",
      rp / rc);
  return 0;
}
