// Fig. 9 — Training-timeline comparison of four checkpointing policies on
// a single-GPU model (VGG19), checkpointing every iteration:
//
//   (a) PyTorch built-in : synchronous torch.save at each boundary
//   (b) CheckFreq        : pinned snapshot overlapped with F/B, async persist
//   (c) Portus sync      : daemon pull blocks the boundary
//   (d) Portus async     : daemon pull overlapped; stall only before U
//
// The figure's message: both Portus variants beat the baselines outright,
// and async reduces the residual stall to nearly zero. Gates: wall time
// Portus async < Portus sync < CheckFreq < PyTorch, and no async stall.
#include "bench_common.h"

using namespace portus;
using namespace std::chrono_literals;

namespace {

constexpr std::uint64_t kIterations = 20;
const dnn::TrainingConfig kConfig{.iteration_time = 180ms, .update_fraction = 0.08,
                                  .busy_fraction = 1.0, .mutate_weights = false};

// torch.save at every iteration boundary, fully synchronous.
class TorchSaveHook final : public dnn::CheckpointHook {
 public:
  TorchSaveHook(net::Node& node, gpu::GpuDevice& gpu, dnn::Model& model,
                storage::CheckpointStorage& fs)
      : ckpt_{node, gpu, fs}, model_{model} {}
  sim::SubTask<> on_iteration_end(std::uint64_t iter) override {
    co_await ckpt_.checkpoint(model_, strf("/pytorch/ckpt.iter{}", iter));
  }
  sim::SubTask<> before_update(std::uint64_t) override { co_return; }

 private:
  baselines::TorchSaveCheckpointer ckpt_;
  dnn::Model& model_;
};

// Trains kIterations under `hook`, then drains a hook that persists in the
// background. A Portus job connects and registers `portus` first.
template <typename Hook>
sim::Process train(bench::World& w, gpu::GpuDevice& gpu, dnn::Model& model, Hook& hook,
                   dnn::TrainingStats& stats, core::PortusClient* portus = nullptr) {
  if (portus != nullptr) {
    co_await portus->connect();
    co_await portus->register_model(model);
  }
  co_await w.engine.spawn(dnn::train(w.engine, gpu, &model, kConfig, kIterations, hook, stats))
      .join();
  if constexpr (requires { hook.drain(); }) co_await hook.drain();
}

dnn::TrainingStats run_baseline(bool checkfreq) {
  bench::World world;
  auto& node = world.volta();
  auto& gpu = node.gpu(0);
  auto model = dnn::ModelZoo::create(gpu, "vgg19_bn", {.force_phantom = true});
  storage::BeeGfsMount mount{*world.cluster, node, *world.beegfs_server, "mnt0"};
  dnn::TrainingStats stats;
  if (checkfreq) {
    baselines::CheckFreqHook hook{node, gpu, model, mount, 1, "/cf/ckpt"};
    world.run(train(world, gpu, model, hook, stats));
  } else {
    TorchSaveHook hook{node, gpu, model, mount};
    world.run(train(world, gpu, model, hook, stats));
  }
  return stats;
}

dnn::TrainingStats run_portus(core::PortusHook::Mode mode) {
  bench::PortusJob job{dnn::ModelZoo::spec("vgg19_bn")};
  core::PortusHook hook{job.client, job.model, 1, mode};
  dnn::TrainingStats stats;
  job.world.run(train(job.world, job.gpu, job.model, hook, stats, &job.client));
  return stats;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 9: training timeline, 4 checkpoint policies (VGG19, ckpt every iteration)",
      "Portus sync/async both beat PyTorch and CheckFreq; async stall ~0");
  bench::Report report{"fig09_timeline"};
  const Duration compute = kConfig.iteration_time * kIterations;
  report.param("iterations", kIterations);
  report.param("compute_ns", compute);

  const std::pair<const char*, dnn::TrainingStats> runs[] = {
      {"pytorch", run_baseline(false)},
      {"checkfreq", run_baseline(true)},
      {"portus-sync", run_portus(core::PortusHook::Mode::kSync)},
      {"portus-async", run_portus(core::PortusHook::Mode::kAsync)},
  };
  auto& policies = report.table(
      "policies", {{"policy", bench::kText}, {"wall_ns", bench::kNs}, {"stall_ns", bench::kNs},
                   {"overhead_pct", bench::kReal, 1, "%"}, {"vs_pytorch", bench::kReal, 2, "x"}});
  for (std::size_t i = 0; i < std::size(runs); ++i) {
    const auto& [policy, stats] = runs[i];
    policies.add({policy, stats.wall(), stats.checkpoint_stall,
                  100.0 * (bench::ratio(stats.wall(), compute) - 1.0),
                  bench::ratio(runs[0].second.wall(), stats.wall())});
    if (i > 0) {
      report.require(stats.wall() < runs[i - 1].second.wall(),
                     strf("{} is not faster than {}", policy, runs[i - 1].first));
    }
  }
  report.require(runs[3].second.checkpoint_stall == Duration{0}, "Portus async stalls");
  return report.finish();
}
