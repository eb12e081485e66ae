// Recovery latency: daemon restart plus a full fsck sweep vs image
// population.
//
// The paper's availability argument is that a crashed Portus daemon is back
// in service as soon as it re-reads the three-level index — no payload copy,
// no log replay. This bench registers n model instances (each its own
// ModelTable entry, MIndex record, and double-mapped slot pair), commits one
// epoch each, then measures on the host clock:
//
//   recover_ms  — PortusDaemon::recover(): ModelTable scan + allocator
//                 rebuild + session teardown. Metadata-proportional.
//   fsck_ms     — portusctl fsck verify pass: walks every MIndex record and
//                 re-CRCs every committed tensor payload. Payload-
//                 proportional — the price of a full integrity audit, paid
//                 only on demand, never on the restart path.
//
// Emits BENCH_recovery.json. Fails (exit 1) if a recover() ever costs more
// than a generous 250 ms bound (it must stay metadata-cheap even at 48
// models) or if fsck misses that the store is clean.
#include <chrono>
#include <numeric>

#include "bench_common.h"
#include "core/daemon/fsck.h"

using namespace portus;

namespace {

struct Row {
  int models = 0;
  Bytes image_bytes = 0;   // allocator bump: everything laid out on PMEM
  double recover_ms = 0;
  double fsck_ms = 0;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

Row measure(int n_models) {
  Row row{.models = n_models};
  sim::Engine eng;
  auto cluster = net::Cluster::paper_testbed(eng);
  core::QpRendezvous rendezvous;
  auto daemon = std::make_unique<core::PortusDaemon>(*cluster, cluster->node("server"),
                                                     rendezvous);
  daemon->start();

  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "alexnet", opt);
  core::PortusClient client{*cluster, volta, volta.gpu(0), rendezvous};

  // Each instance registers the full tensor set under its own name — n
  // independent ModelTable entries backed by one set of GPU buffers.
  auto proc = eng.spawn([](core::PortusClient& c, dnn::Model& m, int n) -> sim::Process {
    co_await c.connect();
    for (int i = 0; i < n; ++i) {
      core::PortusClient::ShardBinding binding;
      binding.reg_name = strf("alexnet#{}", i);
      binding.tensor_indices.resize(m.tensors().size());
      std::iota(binding.tensor_indices.begin(), binding.tensor_indices.end(), 0u);
      co_await c.register_shard(m, std::move(binding));
      const auto epoch = co_await c.checkpoint_named(strf("alexnet#{}", i), 1);
      if (epoch != 1) throw Error("unexpected epoch in recovery bench");
    }
  }(client, model, n_models));
  eng.run();
  proc.check();
  row.image_bytes = daemon->allocator().bump();

  const auto t0 = std::chrono::steady_clock::now();
  daemon->recover();
  row.recover_ms = ms_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  const auto report = core::Fsck{*daemon}.run(/*repair=*/false);
  row.fsck_ms = ms_since(t1);
  if (!report.clean() || report.models_scanned != n_models) {
    throw Error(strf("fsck after clean shutdown: {} models scanned, clean={}",
                     report.models_scanned, report.clean()));
  }

  eng.shutdown();
  return row;
}

}  // namespace

int main() {
  bench::print_header("recovery: restart + fsck latency vs PMEM image population",
                      "restart re-reads the index only (Sec. 4.4); integrity "
                      "audit (fsck) re-CRCs payloads and is off the restart path");

  std::vector<Row> rows;
  for (const int n : {4, 16, 48}) rows.push_back(measure(n));

  bench::Report report{"recovery_time", "recovery", /*smoke=*/false};
  report.param("model", "alexnet");
  report.param("scale", 0.01);
  auto& table = report.table("rows", {{"models"}, {"image_bytes", bench::kBytes},
                                      {"recover_ms", bench::kReal}, {"fsck_ms", bench::kReal}});
  for (const auto& row : rows) {
    table.add({row.models, row.image_bytes, row.recover_ms, row.fsck_ms});
    report.require(row.recover_ms <= 250.0,
                   strf("recover() took {} ms at {} models — restart must stay "
                        "metadata-cheap",
                        row.recover_ms, row.models));
  }
  return report.finish();
}
