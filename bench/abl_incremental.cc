// Ablation — incremental checkpointing (Check-N-Run-style extension).
//
// Recommendation-style training touches only a fraction of the parameters
// per step (embedding rows for the seen batch). The incremental extension
// pulls only the dirty tensors over RDMA and copies the untouched ones
// PMEM-locally from the previous version — trading NIC time (bounded by the
// GPU's 5.8 GB/s BAR read) for DIMM-local bandwidth.
//
// This sweeps the dirty fraction for BERT and reports checkpoint time vs
// the full pull. Clean tensors are copied DIMM-locally from the previous
// DONE slot, bounded by Optane write bandwidth instead of the 5.8 GB/s GPU
// BAR; the larger win is that the NIC and the GPU stay free for other
// tenants. Crash consistency is unchanged: copies land in the write slot
// before the DONE flag flips. Gate: each sparser checkpoint is faster than
// the denser one before it.
#include "bench_common.h"

using namespace portus;

namespace {

Duration measure(double dirty_fraction) {
  bench::PortusJob job{dnn::ModelZoo::spec("bert")};

  // Dirty set: every k-th tensor, by count (sizes are layout-random, so the
  // dirty-byte share tracks the fraction closely).
  std::vector<std::uint32_t> dirty;
  const auto n = static_cast<std::uint32_t>(job.model.layer_count());
  const auto want = static_cast<std::uint32_t>(dirty_fraction * n + 0.5);
  for (std::uint32_t i = 0; i < n && dirty.size() < want; i += std::max(1u, n / want)) {
    dirty.push_back(i);
  }

  Duration out{0};
  job.world.run([](bench::PortusJob& j, std::vector<std::uint32_t> d,
                   Duration& t) -> sim::Process {
    co_await j.client.connect();
    co_await j.client.register_model(j.model);
    co_await j.client.checkpoint(j.model, 1);  // base version (full pull)
    const Time t0 = j.world.engine.now();
    co_await j.client.checkpoint_incremental(j.model, 2, std::move(d));
    t = j.world.engine.now() - t0;
  }(job, std::move(dirty), out));
  return out;
}

}  // namespace

int main() {
  bench::print_header("Ablation: incremental checkpointing (dirty-fraction sweep, BERT)",
                      "extension in the spirit of Check-N-Run [15]; no paper numbers");
  bench::Report report{"abl_incremental"};
  auto& fractions = report.table("fractions", {{"dirty_pct", bench::kReal, 0, "%"},
                                               {"ckpt_ns", bench::kNs},
                                               {"vs_full", bench::kReal, 2, "x"}});
  Duration full{0}, previous{0};
  for (const double f : {1.0, 0.5, 0.2, 0.05, 0.01}) {
    const auto t = measure(f);
    if (f == 1.0) full = t;
    fractions.add({100 * f, t, bench::ratio(full, t)});
    report.require(f == 1.0 || t < previous,
                   strf("{:.0f}% dirty is not faster than the denser step", 100 * f));
    previous = t;
  }
  return report.finish();
}
