// Table I — breakdown of the *traditional* checkpointing path (BERT via
// torch.save to BeeGFS-PMEM): GPU->main-memory copy, serialization, RDMA
// transmission, and the server-side DAX write.
//
// Paper: GPU->MM 15.5% | serialization 41.7% | RDMA 30.0% | DAX 12.8%.
// Gate: each share within 3 points of the paper's.
#include "bench_common.h"

using namespace portus;

int main() {
  bench::print_header("Table I: traditional checkpointing overhead breakdown (BERT)",
                      "GPU->MM 15.5% | serialize 41.7% | RDMA 30.0% | DAX write 12.8%; the "
                      "~1.9-2.0 s total is the calibration anchor (DESIGN.md SS7)");
  bench::Report report{"tab01_breakdown"};
  const auto t = bench::time_torch(dnn::ModelZoo::spec("bert"), bench::Fs::kBeegfs);
  // The fs_write stage splits into RDMA transport (client->daemon RPCs) and
  // the daemon's DAX writes, which the mount instruments.
  const auto& c = t.checkpoint;
  struct Line {
    const char* op;
    Duration measured;
    double paper_pct;
  };
  const Line lines[] = {
      {"GPU to Main Memory", c.dtoh, 15.5},
      {"Serialization", c.serialize, 41.7},
      {"Transmission (RDMA)", c.fs_write - t.dax, 30.0},
      {"Server DAX write", t.dax, 12.8},
  };
  auto& stages = report.table("stages", {{"operation", bench::kText}, {"time_ns", bench::kNs},
                                         {"measured_pct", bench::kReal, 1, "%"},
                                         {"paper_pct", bench::kReal, 1, "%"}});
  for (const auto& line : lines) {
    const double pct = 100.0 * bench::ratio(line.measured, c.total);
    stages.add({line.op, line.measured, pct, line.paper_pct});
    report.require_band(std::string{line.op} + " share (%)", pct, line.paper_pct, 3.0);
  }
  stages.add({"total", c.total, 100.0, 100.0});
  return report.finish();
}
