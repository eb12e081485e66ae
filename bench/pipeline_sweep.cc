// Ablation — pipelined datapath sweep (fig. 11 companion).
//
// Sweeps the daemon's pipeline_window over {1, 2, 4, 8, 16} for a
// ResNet-50-class job on its one QP, with tensor chunking enabled on every
// pipelined row. window=1 runs the stock serial configuration and is the
// baseline. Emits BENCH_pipeline.json and fails (exit 1) if the
// pipelined datapath regresses the serial path or a deep window (>= 8)
// does not reach a 2x checkpoint speedup.
#include <cstring>

#include "bench_common.h"

using namespace portus;

namespace {

struct Row {
  int window = 1;
  Bytes chunk = 0;
  Duration ckpt{0};
  Duration restore{0};
};

Row measure(int window, Bytes chunk) {
  Row row{.window = window, .chunk = chunk};
  bench::World world{
      core::PortusDaemon::Config{.pipeline_window = window, .chunk_bytes = chunk}};
  auto& gpu = world.volta().gpu(0);
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;  // ResNet-50-class tensor count at container-friendly size
  auto model = dnn::ModelZoo::create(gpu, "resnet50", opt);
  core::PortusClient client{*world.cluster, world.volta(), gpu, world.rendezvous};
  world.run([](sim::Engine& eng, core::PortusClient& c, dnn::Model& m,
               Row& out) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    Time t0 = eng.now();
    co_await c.checkpoint(m, 1);
    out.ckpt = eng.now() - t0;
    m.mutate_weights(7);
    t0 = eng.now();
    co_await c.restore(m);
    out.restore = eng.now() - t0;
  }(world.engine, client, model, row));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: baseline + one deep window only, for the perf-smoke CI label.
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::print_header("Pipeline sweep: checkpoint/restore vs pipeline_window",
                      "serial baseline at window=1; chunked rows must not regress "
                      "and window>=8 must reach >=2x on checkpoint");

  constexpr Bytes kChunk = 8_KiB;
  std::vector<Row> rows;
  rows.push_back(measure(1, 0));  // stock serial datapath
  if (smoke) {
    rows.push_back(measure(8, kChunk));
  } else {
    for (const int w : {2, 4, 8, 16}) rows.push_back(measure(w, kChunk));
  }
  const Row& serial = rows.front();

  bench::Report report{"pipeline_sweep", "pipeline", smoke};
  report.param("model", "resnet50");
  report.param("scale", 0.02);
  auto& table = report.table(
      "rows", {{"window"}, {"chunk_bytes", bench::kBytes}, {"checkpoint_ns", bench::kNs},
               {"restore_ns", bench::kNs}, {"ckpt_speedup_vs_serial", bench::kReal, 2, "x"}});
  for (const auto& row : rows) {
    const double speedup = bench::ratio(serial.ckpt, row.ckpt);
    table.add({row.window, row.chunk, row.ckpt, row.restore, speedup});
    report.require(to_seconds(row.ckpt) <= to_seconds(serial.ckpt) * 1.05,
                   strf("window={} regresses checkpoint vs the serial baseline", row.window));
    report.require(to_seconds(row.restore) <= to_seconds(serial.restore) * 1.05,
                   strf("window={} regresses restore vs the serial baseline", row.window));
    report.require(row.window < 8 || speedup >= 2.0,
                   strf("window={} checkpoint speedup below the 2x acceptance bar", row.window));
  }
  return report.finish();
}
