// Fig. 15 — Overall training time of GPT-22.4B with fine-grained
// checkpointing: Portus vs CheckFreq, 16 ranks, checkpoint every 20
// iterations (the "finer-grained policy" the paper motivates; CheckFreq's
// ~2-minute 16-way BeeGFS persist throttles every trigger).
//
// Paper: Portus improves training throughput by 2.6x and would sustain
// 14,400 more iterations than CheckFreq over 24 hours. Gates (no band until
// the overlapped mode is made consistent): both Portus modes outrun
// CheckFreq, the overlapped one at least as fast as the blocking one.
#include "gpt_policies.h"

using namespace portus;

namespace {

constexpr std::uint64_t kIterations = 200;
constexpr std::uint64_t kInterval = 20;

dnn::TrainingStats run_portus(bench::PortusGptHook::Mode mode) {
  bench::World world{/*daemon_workers=*/16};
  auto ranks = bench::make_gpt_ranks(world, dnn::ModelZoo::spec("gpt-22.4b"),
                                     /*portus=*/true, /*beegfs=*/false);
  bench::PortusGptHook hook{world, ranks, kInterval, mode};
  dnn::TrainingStats out;
  world.run([](bench::World& w, std::vector<bench::GptRank>& rs,
               bench::PortusGptHook& h, dnn::TrainingStats& st) -> sim::Process {
    co_await w.engine.spawn(bench::register_all(rs)).join();
    const auto cfg = dnn::TrainingConfig::from_spec(dnn::ModelZoo::spec("gpt-22.4b"));
    co_await w.engine
        .spawn(dnn::train(w.engine, *rs[0].gpu, nullptr, cfg, kIterations, h, st))
        .join();
    co_await h.drain();
  }(world, ranks, hook, out));
  return out;
}

dnn::TrainingStats run_checkfreq() {
  bench::World world;
  auto ranks = bench::make_gpt_ranks(world, dnn::ModelZoo::spec("gpt-22.4b"),
                                     /*portus=*/false, /*beegfs=*/true);
  bench::CheckFreqGptHook hook{world, ranks, kInterval};
  dnn::TrainingStats out;
  world.run([](bench::World& w, std::vector<bench::GptRank>& rs,
               bench::CheckFreqGptHook& h, dnn::TrainingStats& st) -> sim::Process {
    const auto cfg = dnn::TrainingConfig::from_spec(dnn::ModelZoo::spec("gpt-22.4b"));
    co_await w.engine
        .spawn(dnn::train(w.engine, *rs[0].gpu, nullptr, cfg, kIterations, h, st))
        .join();
    co_await h.drain();
  }(world, ranks, hook, out));
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 15: GPT-22.4B end-to-end training time, Portus vs CheckFreq",
      "Portus sustains 2.6x the training throughput; +14,400 iterations per 24 h");
  bench::Report report{"fig15_gpt_training"};
  const auto iter = dnn::ModelZoo::spec("gpt-22.4b").iteration_time;
  report.param("iterations", kIterations);
  report.param("iteration_ns", iter);
  report.param("checkpoint_every", kInterval);
  report.param("paper_gain", 2.6);
  report.param("paper_extra_iterations_per_day", 14400);

  const auto portus = run_portus(bench::PortusGptHook::Mode::kOverlapped);
  const auto portus_blocking = run_portus(bench::PortusGptHook::Mode::kBlocking);
  const auto checkfreq = run_checkfreq();
  const Duration compute = iter * kIterations;
  const auto per_second = [](const dnn::TrainingStats& s) {
    return static_cast<double>(kIterations) / to_seconds(s.wall());
  };

  auto& systems = report.table(
      "systems", {{"system", bench::kText}, {"wall_ns", bench::kNs},
                  {"ckpt_stall_ns", bench::kNs}, {"iters_per_hour", bench::kReal, 0},
                  {"overhead_pct", bench::kReal, 1, "%"}});
  for (const auto& [name, s] :
       {std::pair<const char*, const dnn::TrainingStats&>{"Portus", portus},
        {"Portus-block", portus_blocking},
        {"CheckFreq", checkfreq}}) {
    systems.add({name, s.wall(), s.checkpoint_stall, per_second(s) * 3600.0,
                 100.0 * (bench::ratio(s.wall(), compute) - 1.0)});
  }

  // Deviation D2: the overlapped and blocking pulls bracket the paper's gain.
  const double gain = bench::ratio(checkfreq.wall(), portus.wall());
  const double blocking_gain = bench::ratio(checkfreq.wall(), portus_blocking.wall());
  const double extra_per_day = (per_second(portus) - per_second(checkfreq)) * 24 * 3600;
  report
      .table("summary", {{"gain_overlapped", bench::kReal, 2, "x"},
                         {"gain_blocking", bench::kReal, 2, "x"},
                         {"extra_iterations_per_day", bench::kReal, 0}})
      .add({gain, blocking_gain, extra_per_day});
  report.require(blocking_gain > 1, "blocking Portus does not outrun CheckFreq");
  report.require(gain >= blocking_gain, "the overlapped pull is slower than the blocking one");
  return report.finish();
}
