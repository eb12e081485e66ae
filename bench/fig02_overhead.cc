// Fig. 2 — Motivation: the share of total training time consumed by
// checkpointing under existing frameworks (torch.save to BeeGFS-PMEM), at
// the checkpoint frequencies CheckFreq would pick (1/83 iterations for VIT,
// 1/100 for the GPT models).
//
// Paper: checkpointing weighs at least 24.9% of total time (VIT) and up to
// 41% (GPT-22.4B). Gates: each share within 5 points of the paper's bar, and
// the share grows with the model.
#include "bench_common.h"

using namespace portus;

namespace {

Duration gpt_checkpoint_time(const std::string& name) {
  bench::World world;
  auto ranks = bench::make_gpt_ranks(world, dnn::ModelZoo::spec(name), /*portus=*/false,
                                     /*beegfs=*/true);
  Duration out{0};
  world.run([](bench::World& w, std::vector<bench::GptRank>& rs, Duration& t) -> sim::Process {
    t = co_await bench::torch_save_all(w.engine, rs, 1);
  }(world, ranks, out));
  return out;
}

}  // namespace

int main() {
  bench::print_header("Fig. 2: checkpoint share of training time (traditional path)",
                      "VIT >= 24.9%, GPT-22.4B up to 41% at CheckFreq frequencies");
  bench::Report report{"fig02_overhead"};

  struct Row {
    const char* model;
    std::uint64_t interval;
    Duration ckpt;
    double paper_pct;
  };
  const Row rows[] = {
      {"vit_l_32", 83,
       bench::time_torch(dnn::ModelZoo::spec("vit_l_32"), bench::Fs::kBeegfs).checkpoint.total,
       24.9},
      {"gpt-10b", 100, gpt_checkpoint_time("gpt-10b"), 33.0},  // mid bar of Fig. 2
      {"gpt-22.4b", 100, gpt_checkpoint_time("gpt-22.4b"), 41.0},
  };

  auto& models = report.table(
      "models", {{"model", bench::kText}, {"ckpt_every"}, {"iter_ns", bench::kNs},
                 {"ckpt_ns", bench::kNs}, {"measured_pct", bench::kReal, 1, "%"},
                 {"paper_pct", bench::kReal, 1, "%"}});
  double previous = 0;
  for (const auto& row : rows) {
    const auto iter = dnn::ModelZoo::spec(row.model).iteration_time;
    const double compute = to_seconds(iter) * static_cast<double>(row.interval);
    const double share = 100.0 * to_seconds(row.ckpt) / (compute + to_seconds(row.ckpt));
    models.add({row.model, row.interval, iter, row.ckpt, share, row.paper_pct});
    report.require_band(std::string{row.model} + " checkpoint share (%)", share, row.paper_pct,
                        5.0);
    report.require(share > previous, std::string{row.model} + " share does not grow");
    previous = share;
  }
  return report.finish();
}
