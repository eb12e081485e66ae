// Daemon hot-path raw-speed sweep: sharded PMEM allocator + doorbell
// batching vs worker count (ISSUE 6 tentpole grounding).
//
// Part 1 — allocator ops/sec. The DRAM-side allocator calls are
// instantaneous in virtual time, so the sweep charges each op its measured
// CPU + persist cost (clwb/sfence on the AllocTable entry, bookkeeping)
// under the arena's serialization domain: a single-arena allocator funnels
// every worker through one lock/cache line, per-worker shards let arenas
// proceed in parallel and only touch the global bump cursor on a
// reservation refill. W simulated workers churn alloc/free against the
// REAL allocator (so disjointness, reuse and recover() are exercised, not
// just modeled) and the elapsed virtual time yields ops/sec.
//
// Part 2 — checkpoint throughput. W concurrent tenants checkpoint
// small-tensor models through one daemon, single-SGE and unchunked so the
// datapath is op-bound (the doorbell's worst case). The seed configuration
// (single arena, per-extent doorbells) is the baseline; the hot-path
// configuration (per-worker shards, chained doorbell batching) must reach
// >= 1.5x aggregate GB/s at 8+ workers.
//
// Emits BENCH_hotpath.json; exits 1 unless sharded allocator ops/sec at 16
// workers reaches >= 10x the 1-worker rate, checkpoint throughput gains
// >= 1.5x at 8 and 16 workers, and batched bursts ring ~1 doorbell per
// lane per admission window.
//
// --smoke runs worker counts {1, 8} with a lighter churn for the
// perf-smoke CI label; virtual time keeps the gates deterministic, so they
// stay on.
#include <cstring>
#include <deque>
#include <vector>

#include "bench_common.h"
#include "sim/sync.h"

using namespace portus;

namespace {

// Measured-cost model for one AllocTable operation: bookkeeping plus one
// persisted 24 B entry (clwb + sfence on Optane, ~1 us end to end), and
// the heavier global bump-cursor + reservation persist on a refill.
constexpr Duration kAllocCpu = std::chrono::nanoseconds{900};
constexpr Duration kFreeCpu = std::chrono::nanoseconds{600};
constexpr Duration kRefillCpu = std::chrono::nanoseconds{1500};

struct AllocRow {
  int workers = 0;
  std::uint32_t shards = 0;
  std::uint64_t ops = 0;
  double ops_per_sec = 0.0;
  std::uint64_t refills = 0;
  std::uint64_t steals = 0;
};

struct AllocRig {
  sim::Engine eng;
  pmem::PmemDevice device{"pmem", 256_MiB, 0x1000};
  core::PmemAllocator::Config config;
  core::PmemAllocator alloc;
  std::vector<std::unique_ptr<sim::SimMutex>> arena_mu;
  sim::SimMutex bump_mu{eng};

  AllocRig(std::uint32_t shards, Bytes refill)
      : config{.table_offset = 4_KiB,
               .table_capacity = 32768,
               .data_offset = 1_MiB,
               .data_end = 256_MiB,
               .shards = shards,
               .refill_bytes = refill},
        alloc{device, config} {
    for (std::uint32_t s = 0; s < shards; ++s) {
      arena_mu.push_back(std::make_unique<sim::SimMutex>(eng));
    }
  }
  ~AllocRig() { eng.shutdown(); }
};

sim::Process churn_worker(AllocRig& rig, int worker, int ops, std::uint64_t* done) {
  const std::uint32_t shard = static_cast<std::uint32_t>(worker) %
                              rig.alloc.shard_count();
  // Three size classes per worker keep the free list hot (reuse is the
  // paper's steady state: slots come and go at the same granularities).
  constexpr Bytes kSizes[3] = {256, 1_KiB, 4_KiB};
  std::deque<Bytes> held;
  for (int i = 0; i < ops; ++i) {
    {
      auto guard = co_await rig.arena_mu[shard]->lock();
      const std::uint64_t refills_before = rig.alloc.shard_stats()[shard].refills;
      held.push_back(rig.alloc.alloc_on(shard, kSizes[(worker + i) % 3]));
      co_await rig.eng.sleep(kAllocCpu);
      if (rig.alloc.shard_stats()[shard].refills != refills_before) {
        auto bump_guard = co_await rig.bump_mu.lock();
        co_await rig.eng.sleep(kRefillCpu);
      }
      ++*done;
    }
    if (held.size() > 24) {
      auto guard = co_await rig.arena_mu[shard]->lock();
      rig.alloc.free(held.front());
      held.pop_front();
      co_await rig.eng.sleep(kFreeCpu);
      ++*done;
    }
  }
}

AllocRow measure_alloc(int workers, std::uint32_t shards, int ops_per_worker) {
  AllocRig rig{shards, /*refill=*/512_KiB};
  std::uint64_t ops = 0;
  rig.eng.spawn([](AllocRig& r, int w, int per, std::uint64_t& total) -> sim::Process {
    std::vector<sim::Process> procs;
    procs.reserve(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) {
      procs.push_back(r.eng.spawn(churn_worker(r, i, per, &total)));
    }
    for (auto& p : procs) co_await p.join();
  }(rig, workers, ops_per_worker, ops));
  rig.eng.run();

  AllocRow row{.workers = workers, .shards = shards, .ops = ops};
  row.ops_per_sec = static_cast<double>(ops) / to_seconds(rig.eng.now() - Time{});
  for (const auto& sh : rig.alloc.shard_stats()) {
    row.refills += sh.refills;
    row.steals += sh.steals;
  }
  // The churn must leave a recoverable image: remount and compare.
  const Bytes live = rig.alloc.live_bytes();
  rig.alloc.recover();
  PORTUS_CHECK(rig.alloc.live_bytes() == live,
               "allocator churn image lost live extents across recover()");
  return row;
}

// ---------------------------------------------------------------------------
// Part 2: op-bound checkpoint throughput, W concurrent tenants.

struct CkptRow {
  int workers = 0;
  bool hotpath = false;  // shards=W + batched doorbells vs seed config
  Duration elapsed{0};
  Bytes bytes = 0;
  double gbps = 0.0;
  double doorbells_per_window = 0.0;
  double wrs_per_doorbell = 0.0;
};

// Tiny-tensor stack (64 B bias/norm-grade vectors only): every byte rides
// a minimal WR, so per-WR setup (where the doorbell lives) dominates the
// datapath, and aggregate byte demand stays far below the PMEM write
// ceiling even at 16 concurrent tenants — the sweep measures doorbells,
// not DIMM bandwidth.
dnn::Model make_small_stack(gpu::GpuDevice& gpu, const std::string& name, int blocks) {
  dnn::Model m{name, gpu};
  for (int b = 0; b < blocks; ++b) {
    const auto tag = std::to_string(b);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".g", .shape = {16}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".b", .shape = {16}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".m", .shape = {16}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".v", .shape = {16}}, false);
  }
  m.randomize_weights(0x40777 + blocks);
  return m;
}

CkptRow measure_ckpt(int workers, bool hotpath, int blocks, int iterations) {
  CkptRow row{.workers = workers, .hotpath = hotpath};
  bench::World world{core::PortusDaemon::Config{
      .workers = std::max(8, workers),
      .shards = hotpath ? static_cast<std::uint32_t>(workers) : 1,
      .alloc_refill_bytes = hotpath ? 256_KiB : 0,
      // Window 4: deep enough that chained WQEs hide the doorbell, shallow
      // enough that 16 tenants' bursts do not pile >100 concurrent writers
      // onto the devdax channel (whose Optane degradation model would turn
      // the op-bound sweep byte-bound).
      .pipeline_window = 4,
      .chunk_bytes = 0,
      .coalesce_threshold = 0,  // single-SGE: keep the sweep op-bound
      .max_sges = 1,
      .batch_doorbells = hotpath}};

  struct Tenant {
    std::unique_ptr<dnn::Model> model;
    std::unique_ptr<core::PortusClient> client;
  };
  std::vector<Tenant> tenants;
  for (int w = 0; w < workers; ++w) {
    // 12 GPUs across the two client nodes (4x V100 + 8x A40); extra
    // tenants share a GPU, which only sharpens the op-bound contention.
    const int g = w % 12;
    net::Node& node = g < 4 ? world.volta() : world.ampere();
    auto& gpu = node.gpu(g < 4 ? g : g - 4);
    Tenant t;
    t.model = std::make_unique<dnn::Model>(
        make_small_stack(gpu, "tenant" + std::to_string(w), blocks));
    t.client = std::make_unique<core::PortusClient>(*world.cluster, node, gpu,
                                                    world.rendezvous);
    tenants.push_back(std::move(t));
  }

  world.run([](sim::Engine& eng, std::vector<Tenant>& ts, int iters,
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
          co_await tn.client->checkpoint(*tn.model, static_cast<std::uint64_t>(it));
        }
      }(t, iters)));
    }
    for (auto& p : procs) co_await p.join();
    out.elapsed = eng.now() - t0;
  }(world.engine, tenants, iterations, row));

  for (const auto& t : tenants) {
    row.bytes += t.model->total_bytes() * static_cast<Bytes>(iterations);
  }
  row.gbps = static_cast<double>(row.bytes) / to_seconds(row.elapsed) / 1e9;
  row.doorbells_per_window = world.daemon->stats().doorbells_per_window();
  row.wrs_per_doorbell = world.daemon->stats().wrs_per_doorbell();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};
  const int alloc_ops = smoke ? 400 : 1500;
  const int ckpt_blocks = smoke ? 192 : 256;
  const int ckpt_iters = smoke ? 2 : 3;

  bench::print_header(
      "Daemon hot-path sweep: sharded allocator + doorbell batching vs workers",
      "single arena / per-extent doorbells is the seed baseline; per-worker "
      "arenas must scale alloc ops/sec >= 10x at 16 workers and batched "
      "doorbells must lift op-bound checkpoint GB/s >= 1.5x at 8+ workers");

  bench::Report report{"hotpath_sweep", "hotpath", smoke};

  // --- Part 1: allocator ---
  std::vector<AllocRow> alloc_rows;
  auto& alloc_table = report.table("alloc_rows", {{"workers"}, {"shards"}, {"ops"},
                                                  {"ops_per_sec", bench::kReal, 0},
                                                  {"refills"}, {"steals"}});
  for (const int w : worker_counts) {
    for (const std::uint32_t shards :
         {std::uint32_t{1}, static_cast<std::uint32_t>(w)}) {
      if (shards == 1 && w == 1 && !alloc_rows.empty()) continue;  // dup row
      const auto row = measure_alloc(w, shards, alloc_ops);
      alloc_table.add(
          {row.workers, row.shards, row.ops, row.ops_per_sec, row.refills, row.steals});
      alloc_rows.push_back(row);
      if (w == 1) break;  // shards=1 == shards=w at one worker
    }
  }

  // --- Part 2: checkpoint ---
  std::vector<CkptRow> ckpt_rows;
  auto& ckpt_table = report.table(
      "ckpt_rows", {{"workers"}, {"config", bench::kText}, {"elapsed_ns", bench::kNs},
                    {"gbps", bench::kReal, 3}, {"doorbells_per_window", bench::kReal},
                    {"wrs_per_doorbell", bench::kReal}, {"speedup", bench::kReal, 2, "x"}});
  for (const int w : worker_counts) {
    const auto base = measure_ckpt(w, /*hotpath=*/false, ckpt_blocks, ckpt_iters);
    const auto hot = measure_ckpt(w, /*hotpath=*/true, ckpt_blocks, ckpt_iters);
    for (const auto& row : {base, hot}) {
      ckpt_table.add({row.workers, row.hotpath ? "hotpath" : "seed", row.elapsed, row.gbps,
                      row.doorbells_per_window, row.wrs_per_doorbell, row.gbps / base.gbps});
    }
    ckpt_rows.push_back(base);
    ckpt_rows.push_back(hot);
  }

  // --- Acceptance gates ---
  // The first row is one worker on one arena, the last the top count sharded.
  const int top = worker_counts.back();
  const double scaling = alloc_rows.back().ops_per_sec / alloc_rows.front().ops_per_sec;
  const double bar = smoke ? 6.0 : 10.0;  // 8 workers in smoke, 16 in full
  report.require(scaling >= bar, strf("sharded allocator scales only {:.2f}x at {} workers "
                                      "(bar: {:.0f}x)",
                                      scaling, top, bar));
  for (std::size_t i = 0; i + 1 < ckpt_rows.size(); i += 2) {
    const auto& base = ckpt_rows[i];
    const auto& hot = ckpt_rows[i + 1];
    if (base.workers < 8) continue;
    const double speedup = hot.gbps / base.gbps;
    report.require(speedup >= 1.5, strf("hotpath config reaches only {:.2f}x GB/s at {} "
                                        "workers (bar: 1.5x)",
                                        speedup, base.workers));
    // One chained post per admission burst.
    report.require(hot.doorbells_per_window <= 1.5,
                   strf("{} workers ring {:.2f} doorbells per window (bar: ~1)",
                        base.workers, hot.doorbells_per_window));
  }
  return report.finish();
}
