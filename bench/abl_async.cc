// Ablation — synchronous vs asynchronous Portus checkpointing (SS III-E).
//
// Async mode decouples the daemon's pull from the training loop: the pull
// overlaps the next iteration's forward/backward and only the residual (if
// the pull outlives F+B) stalls the update. This quantifies the stall per
// checkpoint for both modes across models whose pull time is below or above
// one iteration's F/B window. Gates: async never stalls more than sync, and
// hides the whole pull when it fits in F/B.
#include "bench_common.h"

using namespace portus;

namespace {

constexpr std::uint64_t kIterations = 30;

// Mean stall per iteration in `mode`, and the last pull's time.
std::pair<Duration, Duration> run(const dnn::ModelSpec& spec, core::PortusHook::Mode mode) {
  bench::PortusJob job{spec};
  core::PortusHook hook{job.client, job.model, 1, mode};
  const dnn::TrainingConfig cfg{.iteration_time = spec.iteration_time,
                                .update_fraction = spec.update_fraction,
                                .busy_fraction = 1.0,
                                .mutate_weights = false};
  dnn::TrainingStats stats;
  job.world.run([](bench::PortusJob& j, core::PortusHook& h, dnn::TrainingConfig config,
                   dnn::TrainingStats& st) -> sim::Process {
    co_await j.client.connect();
    co_await j.client.register_model(j.model);
    co_await j.world.engine
        .spawn(dnn::train(j.world.engine, j.gpu, &j.model, config, kIterations, h, st))
        .join();
    co_await h.drain();
  }(job, hook, cfg, stats));
  return {stats.checkpoint_stall / kIterations, job.client.stats().last_checkpoint};
}

}  // namespace

int main() {
  bench::print_header("Ablation: Portus sync vs async checkpointing (ckpt every iteration)",
                      "Fig. 9(c)/(d): async hides the pull behind F/B");
  bench::Report report{"abl_async"};
  report.param("iterations", kIterations);
  auto& models = report.table(
      "models", {{"model", bench::kText}, {"pull_ns", bench::kNs}, {"iter_fb_ns", bench::kNs},
                 {"sync_stall_ns", bench::kNs}, {"async_stall_ns", bench::kNs},
                 {"hidden_pct", bench::kReal, 0, "%"}},
      "hidden = share of the sync stall eliminated by overlapping the pull with the next "
      "iteration's forward/backward");

  for (const auto* name : {"resnet50", "swin_b", "vgg19_bn", "vit_l_32", "bert"}) {
    const auto& spec = dnn::ModelZoo::spec(name);
    const auto [sync_stall, pull] = run(spec, core::PortusHook::Mode::kSync);
    const auto async_stall = run(spec, core::PortusHook::Mode::kAsync).first;
    const auto fb = std::chrono::duration_cast<Duration>(spec.iteration_time *
                                                         (1.0 - spec.update_fraction));
    const double hidden =
        100.0 * (1.0 - to_seconds(async_stall) / std::max(1e-12, to_seconds(sync_stall)));
    models.add({name, pull, fb, sync_stall, async_stall, hidden});
    report.require(async_stall <= sync_stall, strf("{}: async stalls more than sync", name));
    report.require(pull >= fb || async_stall == Duration{0},
                   strf("{}: async stalls although the pull fits in F/B", name));
  }
  return report.finish();
}
