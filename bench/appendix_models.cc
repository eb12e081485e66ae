// Appendix — the paper evaluates 76 DNN training jobs and reports the full
// per-model results in its appendix ("Evaluation results of all the models
// are presented in the Appendix"). This regenerates the appendix table for
// every model in the zoo: checkpoint and restore time under Portus vs the
// BeeGFS-PMEM baseline, with per-model speedups. Gate: Portus checkpoints
// and restores every model faster than BeeGFS-PMEM.
#include <algorithm>

#include "bench_common.h"

using namespace portus;

int main() {
  bench::print_header("Appendix: per-model checkpoint/restore, full zoo vs BeeGFS-PMEM",
                      "paper appendix reports all 76 jobs; Table II names marked");
  bench::Report report{"appendix_models"};
  const auto table2 = dnn::ModelZoo::table2_names();
  auto& models = report.table(
      "models", {{"model", bench::kText}, {"table2", bench::kFlag}, {"size_bytes", bench::kBytes},
                 {"portus_ckpt_ns", bench::kNs}, {"beegfs_ckpt_ns", bench::kNs},
                 {"ckpt_x", bench::kReal, 2, "x"}, {"portus_restore_ns", bench::kNs},
                 {"beegfs_restore_ns", bench::kNs}, {"restore_x", bench::kReal, 2, "x"}});
  double ckpt_sum = 0, restore_sum = 0;
  std::uint64_t n = 0;
  for (const auto& spec : dnn::ModelZoo::all()) {
    if (spec.checkpoint_bytes > 2_GB) continue;  // GPT family: see fig14
    const auto portus = bench::time_portus(spec);
    const auto beegfs = bench::time_torch(spec, bench::Fs::kBeegfs);
    const double ckpt_x = bench::ratio(beegfs.checkpoint.total, portus.checkpoint);
    const double restore_x = bench::ratio(beegfs.restore, portus.restore);
    models.add({spec.name, std::find(table2.begin(), table2.end(), spec.name) != table2.end(),
                spec.checkpoint_bytes, portus.checkpoint, beegfs.checkpoint.total, ckpt_x,
                portus.restore, beegfs.restore, restore_x});
    ckpt_sum += ckpt_x;
    restore_sum += restore_x;
    ++n;
    report.require(ckpt_x > 1 && restore_x > 1,
                   spec.name + ": Portus is not faster than BeeGFS-PMEM");
  }
  report
      .table("summary", {{"models"}, {"mean_ckpt_x", bench::kReal, 2, "x"},
                         {"mean_restore_x", bench::kReal, 2, "x"}})
      .add({n, ckpt_sum / static_cast<double>(n), restore_sum / static_cast<double>(n)});
  return report.finish();
}
