// Ablation — one-sided vs two-sided RDMA for checkpoint transport (SS V-D).
//
// The paper attributes part of Portus's win over BeeGFS-PMEM to its
// one-sided GPU-RDMA reads versus BeeGFS's two-sided RPCoRDMA. This
// ablation isolates exactly that: move one BERT checkpoint's bytes
// (1282 MiB) from client GPU memory to server PMEM
//   (a) as sequential one-sided READs (one per tensor, Portus-style), and
//   (b) as 1 MiB request/response RPCs over SEND/RECV (BeeGFS-style,
//       including per-chunk server handler dispatch).
// Gate: the one-sided transport is the faster.
#include "bench_common.h"

using namespace portus;

int main() {
  bench::print_header("Ablation: one-sided RDMA READ vs two-sided RPCoRDMA (BERT bytes)",
                      "SS V-D: 'GPU-RDMA ... is a time-efficient one-sided protocol while "
                      "BeeGFS-PMEM uses a more time-consuming two-sided protocol'");
  bench::Report report{"abl_onesided"};
  const auto& spec = dnn::ModelZoo::spec("bert");

  // (a) one-sided: a real Portus checkpoint, minus registration.
  const Duration one_sided = bench::time_portus(spec).checkpoint;

  // (b) two-sided: the same byte count as chunked RPCs into the fsdax path.
  Duration two_sided{0};
  {
    bench::World world;
    storage::BeeGfsMount mount{*world.cluster, world.volta(), *world.beegfs_server, "mnt0"};
    world.run([](sim::Engine& eng, storage::BeeGfsMount& m, Bytes n,
                 Duration& out) -> sim::Process {
      const Time t0 = eng.now();
      co_await m.write_file("/abl/bert.raw", n, nullptr);
      out = eng.now() - t0;
    }(world.engine, mount, spec.checkpoint_bytes, two_sided));
  }

  const auto gbps = [&](Duration d) {
    return static_cast<double>(spec.checkpoint_bytes) / to_seconds(d) / 1e9;
  };
  report
      .table("transports", {{"transport", bench::kText}, {"time_ns", bench::kNs},
                            {"effective_bw", bench::kReal, 2, "GB/s"}})
      .add({"one-sided READ (Portus)", one_sided, gbps(one_sided)})
      .add({"two-sided RPCoRDMA (BeeGFS-style)", two_sided, gbps(two_sided)});
  const double advantage = bench::ratio(two_sided, one_sided);
  report.table("summary", {{"one_sided_advantage", bench::kReal, 2, "x"}}).add({advantage});
  report.require(advantage > 1, "one-sided READs are not faster than two-sided RPCs");
  return report.finish();
}
