// Fig. 13 — Breakdown analysis of BERT checkpointing time across the three
// systems (ext4-NVMe, BeeGFS-PMEM, Portus).
//
// Paper's observations this reproduces:
//   * serialization + cuMemcpy is a constant cost contributing 46.5% of
//     ext4-NVMe's total and 57.2% of BeeGFS-PMEM's;
//   * ext4-NVMe spends 53.7% of its time in kernel crossings to the block
//     device;
//   * Portus is dominated purely by (one-sided) RDMA transmission, with no
//     serialization or memcpy stage at all.
// Gates: BeeGFS-PMEM's serialize+cuMemcpy share within 3 points of 57.2%;
// ext4-NVMe slowest, then BeeGFS-PMEM, then Portus (deviation D1 moves the
// ext4-NVMe shares); Portus's one-sided transport cheaper than BeeGFS's
// two-sided one.
#include "bench_common.h"

using namespace portus;

int main() {
  bench::print_header(
      "Fig. 13: BERT checkpointing time breakdown across systems",
      "serialize+cuMemcpy = 46.5% of ext4-NVMe, 57.2% of BeeGFS-PMEM; block I/O = 53.7% "
      "of ext4-NVMe; Portus ~ pure one-sided RDMA");
  bench::Report report{"fig13_breakdown"};
  const auto& bert = dnn::ModelZoo::spec("bert");
  const auto nvme = bench::time_torch(bert, bench::Fs::kNvme).checkpoint;
  const auto beegfs_run = bench::time_torch(bert, bench::Fs::kBeegfs);
  const auto& beegfs = beegfs_run.checkpoint;
  const auto beegfs_transport = beegfs.fs_write - beegfs_run.dax;
  const auto portus = bench::time_portus(bert);

  // Portus has no copy or serialize stage, and its one-sided transport is
  // the whole checkpoint; registration is a one-time cost off that path.
  const Duration none{0};
  report
      .table("systems",
             {{"system", bench::kText}, {"total_ns", bench::kNs}, {"cumemcpy_ns", bench::kNs},
              {"serialize_ns", bench::kNs}, {"transport_ns", bench::kNs},
              {"device_io_ns", bench::kNs}, {"register_ns", bench::kNs}},
             "0ns = no such stage")
      .add({"ext4-NVMe", nvme.total, nvme.dtoh, nvme.serialize, none, nvme.fs_write, none})
      .add({"BeeGFS-PMEM", beegfs.total, beegfs.dtoh, beegfs.serialize, beegfs_transport,
            beegfs_run.dax, none})
      .add({"Portus", portus.checkpoint, none, none, portus.checkpoint, none,
            portus.register_time});

  const auto pct = [](Duration part, Duration whole) { return 100.0 * bench::ratio(part, whole); };
  const double beegfs_copy = pct(beegfs.dtoh + beegfs.serialize, beegfs.total);
  report
      .table("shares", {{"share", bench::kText}, {"measured_pct", bench::kReal, 1, "%"},
                        {"paper_pct", bench::kReal, 1, "%"}})
      .add({"ext4-NVMe serialize+cuMemcpy", pct(nvme.dtoh + nvme.serialize, nvme.total), 46.5})
      .add({"BeeGFS-PMEM serialize+cuMemcpy", beegfs_copy, 57.2})
      .add({"ext4-NVMe block device", pct(nvme.fs_write, nvme.total), 53.7});
  report.require_band("BeeGFS-PMEM serialize+cuMemcpy share (%)", beegfs_copy, 57.2, 3.0);
  report.require(nvme.total > beegfs.total && beegfs.total > portus.checkpoint,
                 "the systems are not ordered ext4-NVMe > BeeGFS-PMEM > Portus");
  report.require(portus.checkpoint < beegfs_transport,
                 "one-sided RDMA is not cheaper than BeeGFS's two-sided transport");
  return report.finish();
}
