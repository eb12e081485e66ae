// Ablation — small-tensor extent coalescing sweep (SS III-D datapath
// companion).
//
// DNN checkpoints are op-bound, not byte-bound: a GPT-style model carries
// thousands of sub-4-KiB biases, norms and embedding rows, and the classic
// datapath pays one WQE + one completion for each. This sweep drives a
// small-tensor-dominated model through coalesce_threshold x max_sges
// configurations and reports checkpoint, incremental and restore times plus
// the WR counts each op posted. The threshold=0 row is the stock
// single-SGE datapath and is the baseline. Emits BENCH_extent.json and
// fails (exit 1) unless the widest configuration reaches >= 2x checkpoint
// throughput and >= 5x WR-count reduction without regressing restore.
//
// --smoke runs a tiny configuration (fewer blocks, baseline + widest row
// only) for the perf-smoke CI label; virtual time keeps it deterministic,
// so the acceptance gates stay on.
#include <cstring>

#include "bench_common.h"

using namespace portus;

namespace {

struct Row {
  Bytes threshold = 0;
  int max_sges = 1;
  Duration ckpt{0};
  Duration incr{0};
  Duration restore{0};
  std::uint64_t ckpt_wrs = 0;
  std::uint64_t incr_wrs = 0;
  std::uint64_t restore_wrs = 0;
  std::uint64_t extents_coalesced = 0;
  double sges_per_wr = 0.0;
};

// GPT-bits: per block a 2 KiB qkv sliver, a 1 KiB projection and four
// 256 B bias/norm vectors, plus one chunked 128 KiB embedding. Small
// tensors dominate the op count; the embedding keeps the byte-bound chunk
// path honest in every row.
dnn::Model make_gpt_bits(gpu::GpuDevice& gpu, int blocks) {
  dnn::Model m{"gpt-bits", gpu};
  for (int b = 0; b < blocks; ++b) {
    const auto tag = std::to_string(b);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".qkv", .shape = {512}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".proj", .shape = {256}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".ln1.w", .shape = {64}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".ln1.b", .shape = {64}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".ln2.w", .shape = {64}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".ln2.b", .shape = {64}}, false);
  }
  m.add_tensor(dnn::TensorMeta{.name = "embed",
                               .shape = {2 * static_cast<std::int64_t>(blocks), 256}},
               false);
  m.randomize_weights(0xB10C5);
  return m;
}

Row measure(int blocks, Bytes threshold, int max_sges) {
  Row row{.threshold = threshold, .max_sges = max_sges};
  bench::World world{core::PortusDaemon::Config{.pipeline_window = 8,
                                                .chunk_bytes = 4_KiB,
                                                .coalesce_threshold = threshold,
                                                .max_sges = max_sges}};
  auto& gpu = world.volta().gpu(0);
  auto model = make_gpt_bits(gpu, blocks);
  core::PortusClient client{*world.cluster, world.volta(), gpu, world.rendezvous};
  world.run([](sim::Engine& eng, core::PortusClient& c, dnn::Model& m,
               core::PortusDaemon& d, Row& out) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);

    std::uint64_t wr0 = d.stats().wrs_posted;
    Time t0 = eng.now();
    co_await c.checkpoint(m, 1);
    out.ckpt = eng.now() - t0;
    out.ckpt_wrs = d.stats().wrs_posted - wr0;

    // Incremental: every 8th tensor dirty — dirty runs re-pull as gather
    // extents, the clean majority rides as dense PMEM-local copies.
    std::vector<std::uint32_t> dirty;
    for (std::uint32_t t = 0; t < m.layer_count(); t += 8) dirty.push_back(t);
    m.mutate_weights(2);
    wr0 = d.stats().wrs_posted;
    t0 = eng.now();
    co_await c.checkpoint_incremental(m, 2, std::move(dirty));
    out.incr = eng.now() - t0;
    out.incr_wrs = d.stats().wrs_posted - wr0;

    m.mutate_weights(7);
    wr0 = d.stats().wrs_posted;
    t0 = eng.now();
    co_await c.restore(m);
    out.restore = eng.now() - t0;
    out.restore_wrs = d.stats().wrs_posted - wr0;

    const auto& s = d.stats();
    out.extents_coalesced = s.extents_coalesced;
    out.sges_per_wr = s.wrs_posted > 0 ? static_cast<double>(s.sges_posted) /
                                             static_cast<double>(s.wrs_posted)
                                       : 0.0;
  }(world.engine, client, model, *world.daemon, row));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // Smoke trims the configuration grid, not the model: doorbell chaining
  // speeds the single-SGE baseline most, so a too-small model understates
  // the coalescing win and trips the 2x gate spuriously.
  const int blocks = 96;
  bench::print_header(
      "Extent coalescing sweep: coalesce_threshold x max_sges",
      "single-SGE baseline at threshold=0; the widest row must reach >= 2x "
      "checkpoint throughput and >= 5x fewer WRs on a small-tensor model");

  std::vector<Row> rows;
  rows.push_back(measure(blocks, 0, 1));  // stock single-SGE datapath
  if (!smoke) {
    for (const Bytes threshold : {1_KiB, 4_KiB}) {
      for (const int sges : {4, 16}) rows.push_back(measure(blocks, threshold, sges));
    }
  } else {
    rows.push_back(measure(blocks, 4_KiB, 16));
  }
  const Row& base = rows.front();
  const Row& best = rows.back();

  bench::Report report{"extent_sweep", "extent", smoke};
  report.param("model", "gpt-bits");
  report.param("blocks", blocks);
  auto& table = report.table(
      "rows", {{"coalesce_threshold", bench::kBytes}, {"max_sges"},
               {"checkpoint_ns", bench::kNs}, {"incremental_ns", bench::kNs},
               {"restore_ns", bench::kNs}, {"ckpt_wrs"}, {"incr_wrs"}, {"restore_wrs"},
               {"extents_coalesced"}, {"sges_per_wr", bench::kReal},
               {"ckpt_speedup_vs_off", bench::kReal, 2, "x"},
               {"ckpt_wr_reduction", bench::kReal, 2, "x"}});
  for (const auto& row : rows) {
    table.add({row.threshold, row.max_sges, row.ckpt, row.incr, row.restore, row.ckpt_wrs,
               row.incr_wrs, row.restore_wrs, row.extents_coalesced, row.sges_per_wr,
               bench::ratio(base.ckpt, row.ckpt),
               row.ckpt_wrs > 0 ? static_cast<double>(base.ckpt_wrs) /
                                      static_cast<double>(row.ckpt_wrs)
                                : 0.0});
  }

  const double speedup = bench::ratio(base.ckpt, best.ckpt);
  const double wr_cut =
      static_cast<double>(base.ckpt_wrs) / static_cast<double>(best.ckpt_wrs);
  report.require(speedup >= 2.0,
                 strf("widest row reaches only {:.2f}x checkpoint speedup (bar: 2x)", speedup));
  report.require(wr_cut >= 5.0, strf("widest row cuts WRs only {:.2f}x (bar: 5x)", wr_cut));
  report.require(best.extents_coalesced != 0, "widest row never coalesced an extent");
  for (const auto& row : rows) {
    report.require(to_seconds(row.restore) <= to_seconds(base.restore) * 1.05,
                   strf("threshold={} sges={} regresses restore", row.threshold, row.max_sges));
    report.require(to_seconds(row.incr) <= to_seconds(base.incr) * 1.05,
                   strf("threshold={} sges={} regresses incremental", row.threshold,
                        row.max_sges));
  }
  return report.finish();
}
