// Fig. 16 — GPU utilization over a 500-second window while training
// GPT-22.4B with fine-grained checkpointing: Portus vs CheckFreq.
//
// Paper: Portus sustains 76.4% average utilization; CheckFreq stays below
// 43% because training stalls on its slow persists. The printed series is
// per-10-second buckets of rank-0's SM occupancy. Gate (no band until the
// overlapped mode is made consistent): Portus keeps the GPU busier.
#include "gpt_policies.h"

using namespace portus;
using namespace std::chrono_literals;

namespace {

constexpr Duration kWindow = 500s;
constexpr std::uint64_t kInterval = 20;

std::vector<double> run_policy(bool portus, double& average) {
  bench::World world{/*daemon_workers=*/16};
  auto ranks = bench::make_gpt_ranks(world, dnn::ModelZoo::spec("gpt-22.4b"),
                                     /*portus=*/portus, /*beegfs=*/!portus);
  const auto cfg = dnn::TrainingConfig::from_spec(dnn::ModelZoo::spec("gpt-22.4b"));
  dnn::TrainingStats stats;

  std::unique_ptr<bench::PortusGptHook> portus_hook;
  std::unique_ptr<bench::CheckFreqGptHook> cf_hook;
  dnn::CheckpointHook* hook = nullptr;
  if (portus) {
    portus_hook = std::make_unique<bench::PortusGptHook>(world, ranks, kInterval);
    hook = portus_hook.get();
  } else {
    cf_hook = std::make_unique<bench::CheckFreqGptHook>(world, ranks, kInterval);
    hook = cf_hook.get();
  }

  auto trainer = world.engine.spawn(
      [](bench::World& w, std::vector<bench::GptRank>& rs, dnn::TrainingConfig config,
         dnn::CheckpointHook& h, dnn::TrainingStats& st, bool is_portus) -> sim::Process {
        if (is_portus) co_await w.engine.spawn(bench::register_all(rs)).join();
        co_await w.engine
            .spawn(dnn::train(w.engine, *rs[0].gpu, nullptr, config, 100'000, h, st))
            .join();
      }(world, ranks, cfg, *hook, stats, portus));

  // Skip the first checkpoint cycle (warm-up), then observe 500 s.
  world.engine.run_until(Time{0} + 60s);
  const Time window_start = world.engine.now();
  world.engine.run_until(window_start + kWindow);
  (void)trainer;

  auto& gpu = *ranks[0].gpu;
  std::vector<double> buckets;
  for (Time t = window_start; t < window_start + kWindow; t += 10s) {
    buckets.push_back(gpu.utilization(t, t + 10s));
  }
  average = gpu.utilization(window_start, window_start + kWindow);
  return buckets;
}

}  // namespace

int main() {
  bench::print_header("Fig. 16: GPU utilization during GPT-22.4B training (500 s trace)",
                      "Portus averages 76.4%; CheckFreq stays below 43%");
  bench::Report report{"fig16_gpu_util"};
  report.param("paper_portus_pct", 76.4);
  report.param("paper_checkfreq_below_pct", 43.0);

  double portus_avg = 0, cf_avg = 0;
  const auto portus_series = run_policy(true, portus_avg);
  const auto cf_series = run_policy(false, cf_avg);

  auto& series = report.table("series", {{"t_s"}, {"portus_pct", bench::kReal, 0, "%"},
                                         {"checkfreq_pct", bench::kReal, 0, "%"}},
                              "rank 0's SM occupancy per 10 s bucket");
  for (std::size_t i = 0; i < portus_series.size(); ++i) {
    series.add({i * 10, 100 * portus_series[i], 100 * cf_series[i]});
  }
  report
      .table("average", {{"portus_pct", bench::kReal, 1, "%"},
                         {"checkfreq_pct", bench::kReal, 1, "%"}})
      .add({100 * portus_avg, 100 * cf_avg});
  report.require(portus_avg > cf_avg, "Portus keeps the GPU less busy than CheckFreq");
  return report.finish();
}
