// Ablation — double-mapping checkpoint slots vs a fresh file per checkpoint
// (SS III-D2).
//
// The conventional crash-consistency recipe ("write a new file, then swap")
// would force Portus to allocate PMEM, register a new RDMA memory region,
// and re-establish connection state on *every* checkpoint. The double
// mapping pays those costs once at registration and afterwards only flips a
// 24-byte flag per checkpoint.
//
// Costs of the fresh-file alternative charged here (per checkpoint):
//   * PMEM allocation + AllocTable/MIndex metadata writes (real, measured)
//   * MR registration of the new TensorData region: 180 us + 0.9 us/MiB
//     (same pinning model as PeerMem)
//   * RDMA CM re-connect handshake: 2.5 ms
// Gate: on every model a checkpoint into a reused slot costs no more than
// the first checkpoint after registration.
#include "bench_common.h"

using namespace portus;
using namespace std::chrono_literals;

namespace {
constexpr Duration kMrBase = 180us;
constexpr auto kMrPerMiB = 900ns;
constexpr Duration kCmConnect = 2500us;
constexpr int kCheckpoints = 10;
}  // namespace

int main() {
  bench::print_header(
      "Ablation: double-mapping slots vs fresh-allocate-per-checkpoint",
      "SS III-D2: 'not efficient ... each time it needs to allocate space on PMEM "
      "and initializes a new RDMA connection'");
  bench::Report report{"abl_double_mapping"};
  report.param("checkpoints", kCheckpoints);
  report.param("mr_base_ns", kMrBase);
  report.param("mr_per_mib_ns", Duration{kMrPerMiB});
  report.param("cm_connect_ns", kCmConnect);
  auto& models = report.table(
      "models", {{"model", bench::kText}, {"first_ns", bench::kNs}, {"reuse_ns", bench::kNs},
                 {"fresh_ns", bench::kNs}, {"extra_per_ckpt_ns", bench::kNs},
                 {"pmem_growth_bytes", bench::kBytes}},
      "extra/ckpt = MR pinning + RDMA CM reconnect; pmem growth = garbage pending repack "
      "after the checkpoints vs a constant 2 slots");

  for (const auto* name : {"resnet50", "vgg19_bn", "bert"}) {
    bench::PortusJob job{dnn::ModelZoo::spec(name)};
    Duration first{0}, reuse_avg{0};
    job.world.run([](bench::PortusJob& j, Duration& warm_up, Duration& out) -> sim::Process {
      co_await j.client.connect();
      co_await j.client.register_model(j.model);
      Time t0 = j.world.engine.now();
      co_await j.client.checkpoint(j.model, 0);  // warm-up: both slots provisioned
      warm_up = j.world.engine.now() - t0;
      t0 = j.world.engine.now();
      for (int i = 1; i <= kCheckpoints; ++i) {
        co_await j.client.checkpoint(j.model, static_cast<std::uint64_t>(i));
      }
      out = (j.world.engine.now() - t0) / kCheckpoints;
    }(job, first, reuse_avg));

    // Fresh-file alternative: same data movement + per-checkpoint setup.
    const double mib = static_cast<double>(job.model.total_bytes()) / static_cast<double>(1_MiB);
    const auto setup = kMrBase +
                       Duration{static_cast<Duration::rep>(mib * kMrPerMiB.count())} +
                       kCmConnect;
    // Until garbage collection runs, every checkpoint leaks one slot's worth
    // of PMEM instead of alternating between two fixed slots.
    const auto growth = job.model.total_bytes() * (kCheckpoints - 2);
    models.add({name, first, reuse_avg, reuse_avg + setup, setup, growth});
    report.require(reuse_avg <= first,
                   std::string{name} + ": a checkpoint into a reused slot costs more than the "
                                       "first one");
  }
  return report.finish();
}
