// Fig. 11 — Checkpointing time of the seven Table II models under three
// storage systems: Portus (devdax PMEM, zero-copy), BeeGFS-PMEM (shared FS
// over fsdax), and ext4-NVMe (local SSD).
//
// Paper: Portus is 8.49x faster than BeeGFS-PMEM and 8.18x faster than
// ext4-NVMe on average; ResNet50 peaks at 9.23x (BeeGFS metadata overhead
// dominates small files). Gates: the BeeGFS-PMEM mean within 10% of 8.49x,
// its maximum on resnet50, and (deviation D1 puts the ext4-NVMe mean
// elsewhere) Portus faster than ext4-NVMe on every model.
#include "bench_common.h"

using namespace portus;

int main() {
  bench::print_header("Fig. 11: checkpointing time per model x storage system",
                      "Portus avg 8.49x faster than BeeGFS-PMEM, 8.18x than ext4-NVMe; "
                      "ResNet50 up to 9.23x");
  bench::Report report{"fig11_checkpoint"};
  report.param("paper_mean_vs_beegfs", 8.49);
  report.param("paper_mean_vs_nvme", 8.18);
  report.param("paper_max_vs_beegfs", 9.23);
  report.param("paper_max_model", "resnet50");
  auto& models = report.table(
      "models", {{"model", bench::kText}, {"portus_ns", bench::kNs}, {"beegfs_ns", bench::kNs},
                 {"nvme_ns", bench::kNs}, {"vs_beegfs", bench::kReal, 2, "x"},
                 {"vs_nvme", bench::kReal, 2, "x"}});

  double sum_beegfs = 0, sum_nvme = 0, max_beegfs = 0;
  std::string max_model;
  const auto names = dnn::ModelZoo::table2_names();
  for (const auto& name : names) {
    const auto& spec = dnn::ModelZoo::spec(name);
    const auto portus = bench::time_portus(spec).checkpoint;
    const auto beegfs = bench::time_torch(spec, bench::Fs::kBeegfs).checkpoint.total;
    const auto nvme = bench::time_torch(spec, bench::Fs::kNvme).checkpoint.total;
    const double vs_beegfs = bench::ratio(beegfs, portus);
    const double vs_nvme = bench::ratio(nvme, portus);
    models.add({name, portus, beegfs, nvme, vs_beegfs, vs_nvme});
    sum_beegfs += vs_beegfs;
    sum_nvme += vs_nvme;
    if (vs_beegfs > max_beegfs) {
      max_beegfs = vs_beegfs;
      max_model = name;
    }
    report.require(vs_nvme > 1, name + ": Portus is not faster than ext4-NVMe");
  }

  const auto n = static_cast<double>(names.size());
  report
      .table("summary", {{"mean_vs_beegfs", bench::kReal, 2, "x"},
                         {"mean_vs_nvme", bench::kReal, 2, "x"},
                         {"max_vs_beegfs", bench::kReal, 2, "x"},
                         {"max_model", bench::kText}})
      .add({sum_beegfs / n, sum_nvme / n, max_beegfs, max_model});
  report.require_band("mean speed-up over BeeGFS-PMEM", sum_beegfs / n, 8.49, 0.1 * 8.49);
  report.require(max_model == "resnet50",
                 "the largest speed-up over BeeGFS-PMEM is on " + max_model + ", not resnet50");
  return report.finish();
}
