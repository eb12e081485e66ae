// NUMA-aware allocator + datapath sweep (ISSUE 10 tentpole grounding).
//
// Part 1 — p99 alloc latency vs tenant count. T tenants churn the REAL
// sharded allocator (numa_nodes = 2, size-class free lists, adaptive
// refill) at a fleet-style checkpoint cadence: each tenant allocs/frees a
// few slot-grade extents every ~20 ms with jittered phase, and every op is
// charged its measured CPU + entry-persist cost under the arena's
// serialization domain (same cost model as hotpath_sweep). Because shards
// split both the free lists and the node bump cursors, per-op latency must
// not degrade as the fleet grows: the gate is p99(T) <= 1.2x the 1-tenant
// baseline all the way to T = 1000.
//
// Part 2 — socket-aware vs socket-blind checkpoint throughput. The same
// 2-socket server (pmem_numa_nodes = 2: doubled aggregate DIMM bandwidth,
// per-socket shares, cross-socket tax) serves W concurrent tenants twice:
// once with the allocator partitioned per node (daemon numa_nodes = 2, so
// every session's slots land on its home socket) and once socket-blind
// (numa_nodes = 1: the bump cursor fills socket 0 first while half the
// sessions are homed on socket 1). Remote chunks pay the modeled
// cross-socket cost — a supplemental (1/remote_bw_factor - 1) tax flow on
// the DIMM channel — so the blind layout burns channel capacity the aware
// one keeps. Gate: aware aggregate GB/s >= 1.3x blind.
//
// Emits BENCH_numa.json. --smoke shrinks the ladder and fleet for the
// perf-smoke CI label; virtual time keeps both gates deterministic.
#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

#include "bench_common.h"
#include "sim/sync.h"

using namespace portus;

namespace {

// Measured-cost model for one AllocTable operation (see hotpath_sweep):
// bookkeeping + one persisted 24 B entry, and the heavier global
// bump-cursor + reservation persist on a refill.
constexpr Duration kAllocCpu = std::chrono::nanoseconds{900};
constexpr Duration kFreeCpu = std::chrono::nanoseconds{600};
constexpr Duration kRefillCpu = std::chrono::nanoseconds{1500};
constexpr Duration kCadence = std::chrono::milliseconds{20};

// ---------------------------------------------------------------------------
// Part 1: p99 alloc latency ladder.

struct LatencyRow {
  int tenants = 0;
  std::uint64_t ops = 0;
  Duration p50{0};
  Duration p99{0};
  std::uint64_t refills = 0;
  std::uint64_t cross_steals = 0;
};

struct AllocRig {
  sim::Engine eng;
  pmem::PmemDevice device{"pmem", 512_MiB, 0x1000,
                          pmem::PmemPerfModel::optane_numa(2)};
  core::PmemAllocator::Config config;
  core::PmemAllocator alloc;
  std::vector<std::unique_ptr<sim::SimMutex>> arena_mu;
  sim::SimMutex bump_mu{eng};

  explicit AllocRig(std::uint32_t shards)
      : config{.table_offset = 4_KiB,
               .table_capacity = 32768,
               .data_offset = 1_MiB,
               .data_end = 512_MiB,
               .shards = shards,
               .refill_bytes = 4_MiB,
               .numa_nodes = 2},
        alloc{device, config} {
    for (std::uint32_t s = 0; s < shards; ++s) {
      arena_mu.push_back(std::make_unique<sim::SimMutex>(eng));
    }
    // Prime every shard's reservation (first-refill cost is a fixed startup
    // artifact, not steady-state latency; tenants arrive against a warm
    // daemon in the fleet workload this models).
    for (std::uint32_t s = 0; s < shards; ++s) {
      alloc.free(alloc.alloc_on(s, 256));
    }
  }
  ~AllocRig() { eng.shutdown(); }
};

// Slot-grade extents spanning all three size classes.
constexpr Bytes kSizes[4] = {256, 1_KiB, 4_KiB, 16_KiB};

// xorshift-grade jitter; deterministic per tenant.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  return x;
}

sim::Process fleet_tenant(AllocRig& rig, int tenant, int rounds,
                          std::vector<Duration>* latencies) {
  const std::uint32_t shard =
      static_cast<std::uint32_t>(tenant) % rig.alloc.shard_count();
  std::uint64_t rng = mix(0xF1EE7 + static_cast<std::uint64_t>(tenant));
  // Spread tenant phases across the cadence so the fleet never starts in
  // lockstep (real jobs don't checkpoint on one global clock edge).
  co_await rig.eng.sleep(Duration{static_cast<Duration::rep>(
      rng % static_cast<std::uint64_t>(kCadence.count()))});

  std::deque<Bytes> held;
  for (int r = 0; r < rounds; ++r) {
    rng = mix(rng);
    // +/- 25% jitter around the cadence.
    const auto base = static_cast<std::uint64_t>(kCadence.count());
    co_await rig.eng.sleep(Duration{static_cast<Duration::rep>(
        base * 3 / 4 + rng % (base / 2))});

    const Time t0 = rig.eng.now();
    {
      auto guard = co_await rig.arena_mu[shard]->lock();
      const std::uint64_t refills_before = rig.alloc.shard_stats()[shard].refills;
      held.push_back(rig.alloc.alloc_on(shard, kSizes[(tenant + r) % 4]));
      co_await rig.eng.sleep(kAllocCpu);
      if (rig.alloc.shard_stats()[shard].refills != refills_before) {
        auto bump_guard = co_await rig.bump_mu.lock();
        co_await rig.eng.sleep(kRefillCpu);
      }
    }
    latencies->push_back(rig.eng.now() - t0);

    if (held.size() > 8) {
      auto guard = co_await rig.arena_mu[shard]->lock();
      rig.alloc.free(held.front());
      held.pop_front();
      co_await rig.eng.sleep(kFreeCpu);
    }
  }
}

LatencyRow measure_latency(int tenants, int rounds) {
  AllocRig rig{/*shards=*/16};
  std::vector<Duration> latencies;
  rig.eng.spawn([](AllocRig& r, int t, int rounds,
                   std::vector<Duration>& lat) -> sim::Process {
    std::vector<sim::Process> procs;
    procs.reserve(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) {
      procs.push_back(r.eng.spawn(fleet_tenant(r, i, rounds, &lat)));
    }
    for (auto& p : procs) co_await p.join();
  }(rig, tenants, rounds, latencies));
  rig.eng.run();

  LatencyRow row{.tenants = tenants, .ops = latencies.size()};
  std::sort(latencies.begin(), latencies.end());
  row.p50 = latencies[latencies.size() / 2];
  row.p99 = latencies[latencies.size() * 99 / 100];
  for (const auto& sh : rig.alloc.shard_stats()) {
    row.refills += sh.refills;
    row.cross_steals += sh.cross_steals;
  }
  // The churn must leave a recoverable, fsck-grade image.
  const Bytes live = rig.alloc.live_bytes();
  rig.alloc.recover();
  PORTUS_CHECK(rig.alloc.live_bytes() == live,
               "fleet churn lost live extents across recover()");
  return row;
}

// ---------------------------------------------------------------------------
// Part 2: socket-aware vs socket-blind checkpoint throughput.

struct CkptRow {
  int tenants = 0;
  bool aware = false;
  Duration elapsed{0};
  Bytes bytes = 0;
  double gbps = 0.0;
  std::uint64_t remote_chunks = 0;
  Bytes tax_bytes = 0;
};

// The paper testbed with a 2-socket AEP server: doubled aggregate DIMM
// bandwidth, per-socket channel shares, cross-socket tax (net/node.cc).
struct NumaWorld {
  sim::Engine engine;
  std::unique_ptr<net::Cluster> cluster;
  core::QpRendezvous rendezvous;
  std::unique_ptr<core::PortusDaemon> daemon;

  explicit NumaWorld(core::PortusDaemon::Config config) {
    cluster = net::Cluster::Builder{}
                  .add_node(net::NodeSpec{.name = "client-volta",
                                          .gpu_count = 4,
                                          .gpu_kind = gpu::GpuKind::kV100,
                                          .nic = rdma::NicSpec::connectx5_100g()})
                  .add_node(net::NodeSpec{.name = "client-ampere",
                                          .gpu_count = 8,
                                          .gpu_kind = gpu::GpuKind::kA40,
                                          .nic = rdma::NicSpec::connectx6_100g()})
                  .add_node(net::NodeSpec{.name = "server",
                                          .dram = 192_GiB,
                                          .pmem_devdax = 768_GiB,
                                          .pmem_numa_nodes = 2,
                                          .nic = rdma::NicSpec::connectx5_100g()})
                  .build(engine);
    daemon = std::make_unique<core::PortusDaemon>(*cluster, cluster->node("server"),
                                                  rendezvous, std::move(config));
    daemon->start();
  }
  ~NumaWorld() { engine.shutdown(); }

  net::Node& volta() { return cluster->node("client-volta"); }
  net::Node& ampere() { return cluster->node("client-ampere"); }
};

// Mid-size phantom tensors: big enough that the devdax write channel (not
// per-op overhead) bounds the aggregate, small enough that W tenants fit.
dnn::Model make_ckpt_model(gpu::GpuDevice& gpu, const std::string& name,
                           int tensors, Bytes tensor_bytes) {
  dnn::Model m{name, gpu};
  for (int t = 0; t < tensors; ++t) {
    m.add_tensor(dnn::TensorMeta{.name = "w" + std::to_string(t),
                                 .shape = {static_cast<std::int64_t>(
                                     tensor_bytes / 4)}},
                 /*phantom=*/true);
  }
  return m;
}

CkptRow measure_ckpt(int tenants, bool aware, int tensors, Bytes tensor_bytes,
                     int iterations) {
  CkptRow row{.tenants = tenants, .aware = aware};
  NumaWorld world{core::PortusDaemon::Config{
      .workers = std::max(8, tenants),
      .shards = static_cast<std::uint32_t>(std::max(8, tenants)),
      .alloc_refill_bytes = 1_MiB,
      .numa_nodes = aware ? 2u : 1u,
      .pipeline_window = 4,
      .chunk_bytes = 1_MiB}};

  struct Tenant {
    std::unique_ptr<dnn::Model> model;
    std::unique_ptr<core::PortusClient> client;
  };
  std::vector<Tenant> ts;
  for (int w = 0; w < tenants; ++w) {
    const int g = w % 12;
    net::Node& node = g < 4 ? world.volta() : world.ampere();
    auto& gpu = node.gpu(static_cast<std::size_t>(g < 4 ? g : g - 4));
    Tenant t;
    t.model = std::make_unique<dnn::Model>(make_ckpt_model(
        gpu, "tenant" + std::to_string(w), tensors, tensor_bytes));
    t.client = std::make_unique<core::PortusClient>(*world.cluster, node, gpu,
                                                    world.rendezvous);
    ts.push_back(std::move(t));
  }

  auto proc = world.engine.spawn(
      [](sim::Engine& eng, std::vector<Tenant>& ts, int iters,
         CkptRow& out) -> sim::Process {
        for (auto& t : ts) {
          co_await t.client->connect();
          co_await t.client->register_model(*t.model);
        }
        const Time t0 = eng.now();
        std::vector<sim::Process> procs;
        procs.reserve(ts.size());
        for (auto& t : ts) {
          procs.push_back(eng.spawn([](Tenant& tn, int n) -> sim::Process {
            for (int it = 1; it <= n; ++it) {
              co_await tn.client->checkpoint(*tn.model,
                                             static_cast<std::uint64_t>(it));
            }
          }(t, iters)));
        }
        for (auto& p : procs) co_await p.join();
        out.elapsed = eng.now() - t0;
      }(world.engine, ts, iterations, row));
  world.engine.run();
  proc.check();

  for (const auto& t : ts) {
    row.bytes += t.model->total_bytes() * static_cast<Bytes>(iterations);
  }
  row.gbps = static_cast<double>(row.bytes) / to_seconds(row.elapsed) / 1e9;
  row.remote_chunks = world.daemon->stats().numa_remote_chunks;
  row.tax_bytes = world.daemon->stats().numa_tax_bytes;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::vector<int> ladder =
      smoke ? std::vector<int>{1, 64} : std::vector<int>{1, 10, 100, 1000};
  const int ckpt_tenants = 8;  // fewer tenants leave the DIMM channel slack
  const int ckpt_tensors = smoke ? 8 : 16;
  const Bytes ckpt_tensor_bytes = smoke ? 2_MiB : 4_MiB;
  const int ckpt_iters = smoke ? 2 : 3;

  bench::print_header(
      "NUMA sweep: socket-pinned shards, size classes, adaptive refill",
      "p99 alloc latency must stay <= 1.2x the 1-tenant baseline to 1000 "
      "tenants, and socket-aware placement must lift aggregate checkpoint "
      "GB/s >= 1.3x over socket-blind on a 2-socket server");

  bench::Report report{"numa_sweep", "numa", smoke};

  // --- Part 1: alloc latency ladder ---
  std::vector<LatencyRow> lat_rows;
  auto& lat_table = report.table("latency_rows", {{"tenants"}, {"ops"}, {"p50_ns", bench::kNs},
                                                  {"p99_ns", bench::kNs}, {"refills"},
                                                  {"cross_steals"}});
  for (const int t : ladder) {
    const int rounds = std::max(smoke ? 8 : 16, (smoke ? 128 : 512) / t);
    const auto row = measure_latency(t, rounds);
    lat_table.add({row.tenants, row.ops, row.p50, row.p99, row.refills, row.cross_steals});
    lat_rows.push_back(row);
  }

  // --- Part 2: socket-aware vs blind ---
  const auto blind =
      measure_ckpt(ckpt_tenants, false, ckpt_tensors, ckpt_tensor_bytes, ckpt_iters);
  const auto aware =
      measure_ckpt(ckpt_tenants, true, ckpt_tensors, ckpt_tensor_bytes, ckpt_iters);
  auto& ckpt_table = report.table(
      "ckpt_rows", {{"tenants"}, {"layout", bench::kText}, {"elapsed_ns", bench::kNs},
                    {"gbps", bench::kReal, 3}, {"remote_chunks"}, {"tax_bytes", bench::kBytes},
                    {"speedup", bench::kReal, 2, "x"}});
  for (const auto& row : {blind, aware}) {
    ckpt_table.add({row.tenants, row.aware ? "aware" : "blind", row.elapsed, row.gbps,
                    row.remote_chunks, row.tax_bytes, row.gbps / blind.gbps});
  }

  // --- Acceptance gates ---
  const double base_p99 = static_cast<double>(lat_rows.front().p99.count());
  for (const auto& r : lat_rows) {
    const double ratio = static_cast<double>(r.p99.count()) / base_p99;
    report.require(ratio <= 1.2, strf("p99 alloc latency at {} tenants is {:.2f}x the "
                                      "1-tenant baseline (bar: 1.2x)",
                                      r.tenants, ratio));
  }
  const double speedup = aware.gbps / blind.gbps;
  report.require(speedup >= 1.3, strf("socket-aware placement reaches only {:.2f}x blind "
                                      "GB/s (bar: 1.3x)",
                                      speedup));
  report.require(aware.remote_chunks < blind.remote_chunks,
                 strf("aware layout left {} remote chunks (blind: {})", aware.remote_chunks,
                      blind.remote_chunks));
  return report.finish();
}
