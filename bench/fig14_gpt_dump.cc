// Fig. 14 — Time to dump one checkpoint of a Megatron GPT model (16 A40/V100
// GPUs, TP=8 x PP=2, all ranks concurrent) via Portus vs torch.save() to the
// shared BeeGFS storage, as the model scales from 1.5B to 22.4B parameters.
//
// Paper: at 22.4B (89.6 GB) torch.save takes >120 s while Portus takes ~15 s
// (8.18x average speedup). The torch.save collapse comes from per-rank
// serialization plus the fsdax write-concurrency degradation under 16
// concurrent writers. Gates: Portus faster than torch.save at every size,
// the mean speed-up within 10% of the paper's, and the Portus dump and the
// torch.save dump at 22.4B each within 10% of the paper's. --smoke runs the
// two smallest sizes (a few seconds, under ctest's `paper` label) and gates
// the ordering and the mean speed-up, which those sizes meet too.
#include <cstring>

#include "bench_common.h"

using namespace portus;
using namespace std::chrono_literals;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::print_header("Fig. 14: GPT checkpoint dump time, Portus vs torch.save+BeeGFS",
                      ">120 s vs ~15 s at 22.4B (89.6 GB); avg 8.18x speedup");
  bench::Report report{"fig14_gpt_dump", "fig14_gpt_dump", smoke};
  report.param("paper_mean_speedup", 8.18);
  report.param("paper_torch_save_22b_ns", Duration{120s});
  report.param("paper_portus_22b_ns", Duration{15s});
  auto& models = report.table(
      "models", {{"model", bench::kText}, {"size_bytes", bench::kBytes},
                 {"portus_ns", bench::kNs}, {"torch_save_ns", bench::kNs},
                 {"speedup", bench::kReal, 2, "x"}});

  const std::vector<std::string> scales =
      smoke ? std::vector<std::string>{"gpt-1.5b", "gpt-4b"}
            : std::vector<std::string>{"gpt-1.5b", "gpt-4b", "gpt-8.3b", "gpt-10b", "gpt-22.4b"};
  double sum_speedup = 0;
  Duration portus_time{0}, torch_time{0};
  for (const auto& name : scales) {
    const auto& spec = dnn::ModelZoo::spec(name);
    {
      bench::World world{/*daemon_workers=*/16};
      auto ranks = bench::make_gpt_ranks(world, spec, /*portus=*/true, /*beegfs=*/false);
      world.run([](bench::World& w, std::vector<bench::GptRank>& rs,
                   Duration& out) -> sim::Process {
        co_await w.engine.spawn(bench::register_all(rs)).join();
        out = co_await bench::checkpoint_all(w.engine, rs, 1);
      }(world, ranks, portus_time));
    }
    {
      bench::World world;
      auto ranks = bench::make_gpt_ranks(world, spec, /*portus=*/false, /*beegfs=*/true);
      world.run([](bench::World& w, std::vector<bench::GptRank>& rs,
                   Duration& out) -> sim::Process {
        out = co_await bench::torch_save_all(w.engine, rs, 1);
      }(world, ranks, torch_time));
    }
    const double speedup = bench::ratio(torch_time, portus_time);
    sum_speedup += speedup;
    models.add({name, spec.checkpoint_bytes, portus_time, torch_time, speedup});
    report.require(portus_time < torch_time, name + ": Portus is not faster than torch.save");
  }
  const double mean = sum_speedup / static_cast<double>(scales.size());
  report.table("summary", {{"mean_speedup", bench::kReal, 2, "x"}}).add({mean});
  report.require_band("mean speed-up", mean, 8.18, 0.1 * 8.18);
  if (!smoke) {  // the last row is GPT-22.4B, the paper's anchor
    report.require_band("Portus at 22.4B (s)", to_seconds(portus_time), 15, 1.5);
    report.require_band("torch.save at 22.4B (s)", to_seconds(torch_time), 120, 12);
  }
  return report.finish();
}
