// Crashpoint torture harness (sim/crashpoint.h): enumerate every persist
// boundary of real daemon workloads, reconstruct the post-power-cut image
// at each one, and prove recovery invariants hold at all of them:
//
//   * recover() succeeds on every image;
//   * every surviving DONE slot carries a valid payload-CRC block for its
//     exact epoch, its TensorData matches the block bit-for-bit, and the
//     aggregate equals the golden CRC of the model state that produced the
//     epoch (end-to-end: GPU bytes -> RDMA -> PMEM -> crash -> recovery);
//   * an epoch the client saw acknowledged before the boundary is never
//     lost (newest DONE epoch >= the acked floor);
//   * ACTIVE (crash-leftover) slots and torn records demote cleanly under
//   	 fsck, orphaned/leaked extents are reclaimed, and a second fsck pass
//     finds nothing — the repaired image is immediately serviceable;
//   * the allocator heap never overlaps and, after repair, tracks every
//     byte below the bump pointer.
#include "sim/crashpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/crc32.h"
#include "common/strformat.h"
#include "core/client.h"
#include "core/cluster/cluster_client.h"
#include "core/daemon/daemon.h"
#include "core/daemon/fsck.h"
#include "core/daemon/repacker.h"
#include "dnn/model.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"

namespace portus {
namespace {

using namespace std::chrono_literals;

constexpr Bytes kDevdax = 64_MiB;

// One acknowledged checkpoint: the device persist counter observed when the
// ack reached the client, and the epoch it committed. Any crash point whose
// completed-fence count is >= seq must still expose an epoch >= this one.
struct Ack {
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
};

struct Recording {
  std::vector<sim::CrashPoint> points;
  std::map<std::uint64_t, std::uint32_t> golden;  // epoch -> aggregate CRC
  std::vector<Ack> acks;
};

std::uint64_t acked_floor(const std::vector<Ack>& acks, const sim::CrashPoint& p) {
  // At a before-phase boundary the fence has not run: only seq-1 completed.
  const std::uint64_t completed = p.after_persist ? p.persist_seq : p.persist_seq - 1;
  std::uint64_t floor = 0;
  for (const auto& a : acks) {
    if (a.seq <= completed) floor = std::max(floor, a.epoch);
  }
  return floor;
}

std::uint32_t crc_of_crcs(const std::vector<std::uint32_t>& crcs) {
  Crc32 agg;
  for (const auto c : crcs) agg.update(&c, sizeof c);
  return agg.value();
}

// Reconstruct the image at `p` on a fresh single-node world, recover a
// daemon over it, and check every invariant. `golden` maps every epoch the
// workload ever attempted to the aggregate CRC of the exact model state
// that was checkpointed as that epoch.
// `cfg` must match the recording daemon's allocator geometry: a daemon
// constructed over a foreign-geometry image writes a fresh AllocTable
// header, which would wipe the very sharded table the walk is probing.
void verify_point(const Recording& rec, const sim::CrashPoint& p,
                  const core::PortusDaemon::Config& cfg = {}) {
  SCOPED_TRACE(::testing::Message() << "crash point #" << p.ordinal << " (fence "
                                    << p.persist_seq << ", "
                                    << (p.after_persist ? "after" : "before") << ")");
  sim::Engine eng;
  // The verification device must share the recording device's topology: a
  // NUMA-partitioned allocator refuses a mismatched socket count.
  const auto numa_nodes = std::max<std::uint32_t>(1, cfg.numa_nodes);
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "server", .pmem_devdax = kDevdax,
                              .pmem_numa_nodes = numa_nodes})
                   .build(eng);
  core::QpRendezvous rendezvous;
  core::PortusDaemon daemon{*world, world->node("server"), rendezvous, cfg};
  auto& device = world->node("server").devdax().device();
  sim::CrashpointRecorder::materialize(p, device, /*seed=*/0xC0FFEEull + p.ordinal);

  ASSERT_NO_THROW(daemon.recover());

  // The extended AllocTable header is written before the recorded workload
  // starts and never rewritten, so it must be durable — and carry the exact
  // partition geometry — at every boundary.
  const auto scrub = daemon.allocator().scrub_table();
  EXPECT_TRUE(scrub.header_valid) << "sharded AllocTable header lost";
  EXPECT_EQ(scrub.numa_nodes, numa_nodes) << "partition count does not round-trip";

  std::uint64_t max_done_epoch = 0;
  for (const auto& name : daemon.model_table().names()) {
    std::optional<core::MIndex> index;
    try {
      index.emplace(daemon.load_index(name));
    } catch (const Error&) {
      continue;  // torn record from a mid-registration cut; fsck handles it
    }
    for (int i = 0; i < 2; ++i) {
      const auto& slot = index->slot(i);
      if (slot.state != core::SlotState::kDone || index->phantom()) continue;
      // Persist ordering ACTIVE -> data -> CRC block -> DONE means a DONE
      // slot is a durability *proof*: block present, epoch exact, payload
      // bit-identical to the model state that committed this epoch.
      const auto block = index->payload_crcs(i);
      ASSERT_TRUE(block.has_value()) << "DONE slot without a payload-CRC block";
      EXPECT_EQ(block->epoch, slot.epoch) << "stale payload-CRC block on a DONE slot";
      const auto& tensors = index->tensors();
      ASSERT_EQ(block->crcs.size(), tensors.size());
      for (std::size_t t = 0; t < tensors.size(); ++t) {
        EXPECT_EQ(device.crc(slot.data_offset + tensors[t].offset_in_slot, tensors[t].size),
                  block->crcs[t])
            << "tensor " << t << " of " << name << " not bit-exact";
      }
      const auto want = rec.golden.find(slot.epoch);
      ASSERT_NE(want, rec.golden.end()) << "DONE slot with an epoch never committed";
      EXPECT_EQ(crc_of_crcs(block->crcs), want->second)
          << "epoch " << slot.epoch << " does not restore the checkpointed state";
      max_done_epoch = std::max(max_done_epoch, slot.epoch);
    }
  }

  // Durability floor: a checkpoint acknowledged before this boundary must
  // survive the cut (possibly superseded by a newer epoch, never lost).
  EXPECT_GE(max_done_epoch, acked_floor(rec.acks, p)) << "acked checkpoint lost";

  // Allocator heap: LIVE extents never overlap, at any boundary.
  const auto check_no_overlap = [&] {
    auto extents = daemon.allocator().extents();
    std::sort(extents.begin(), extents.end(),
              [](const auto& a, const auto& b) { return a.offset < b.offset; });
    Bytes prev_end = 0;
    for (const auto& e : extents) {
      if (e.state != core::AllocState::kLive) continue;
      EXPECT_GE(e.offset, prev_end) << "overlapping LIVE extents";
      prev_end = e.offset + e.size;
    }
  };
  check_no_overlap();

  // fsck repair: demote crash leftovers, sweep leaks. Nothing a power cut
  // leaves behind may look like payload corruption — persisted data is
  // ADR-safe, so every DONE slot must pass the scrub.
  auto report = core::Fsck{daemon}.run(/*repair=*/true);
  EXPECT_EQ(report.corrupt_demoted, 0) << "a power cut must never corrupt a DONE slot";
  EXPECT_EQ(report.corrupt_tensors, 0);
  EXPECT_EQ(report.overlap_violations, 0);
  EXPECT_EQ(report.numa_nodes, numa_nodes);

  // The repaired image: newest committed epoch intact, every heap byte
  // below the bump tracked again, and a second pass finds nothing at all.
  // Phantom indices stay out of the epoch comparison, mirroring the
  // pre-repair loop: their epochs never enter the golden map.
  std::uint64_t max_after = 0;
  for (const auto& name : daemon.model_table().names()) {
    const auto index = daemon.load_index(name);  // all records load post-repair
    for (int i = 0; i < 2; ++i) {
      if (index.slot(i).state == core::SlotState::kDone && !index.phantom()) {
        max_after = std::max(max_after, index.slot(i).epoch);
      }
      EXPECT_NE(index.slot(i).state, core::SlotState::kActive) << "ACTIVE survived fsck";
    }
  }
  EXPECT_EQ(max_after, max_done_epoch) << "fsck demoted a valid DONE slot";
  Bytes tracked = 0;
  for (const auto& e : daemon.allocator().extents()) tracked += e.size;
  // consumed_bytes() sums every node partition's bump consumption; on a
  // flat heap it equals the classic bump() - kHeapOffset.
  EXPECT_EQ(tracked, daemon.allocator().consumed_bytes())
      << "heap bytes leaked after repair";
  check_no_overlap();

  const auto second = core::Fsck{daemon}.run(/*repair=*/true);
  EXPECT_TRUE(second.clean()) << "second fsck pass still found issues";
  EXPECT_EQ(second.gaps_adopted, 0u);

  eng.shutdown();
}

// --- workload 1: full + incremental checkpoints ------------------------------

Recording record_checkpoint_workload() {
  Recording rec;
  sim::Engine eng;
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "client", .gpu_count = 1})
                   .add_node({.name = "server", .pmem_devdax = kDevdax})
                   .build(eng);
  core::QpRendezvous rendezvous;
  core::PortusDaemon::Config cfg;
  cfg.chunk_bytes = 64_KiB;
  cfg.pipeline_window = 8;
  core::PortusDaemon daemon{*world, world->node("server"), rendezvous, cfg};
  daemon.start();
  auto& device = daemon.device();

  auto& client_node = world->node("client");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(client_node.gpu(0), "alexnet", opt);
  core::PortusClient client{*world, client_node, client_node.gpu(0), rendezvous};

  sim::CrashpointRecorder recorder{device};
  eng.spawn([](core::PortusClient& c, dnn::Model& m, pmem::PmemDevice& dev,
               Recording& out) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    for (std::uint64_t k = 1; k <= 3; ++k) {
      m.mutate_weights(k);
      const auto golden = m.weights_crc();
      const auto epoch = co_await c.checkpoint(m, k);
      out.golden[epoch] = golden;
      out.acks.push_back(Ack{dev.persist_seq(), epoch});
      // End-to-end integrity: the CRC the daemon computed over what landed
      // on PMEM equals the CRC of the GPU weights that were sent.
      if (c.stats().last_payload_crc != golden) throw Error("payload CRC mismatch");
    }
    // Incremental round: nothing mutated, so the daemon RDMA-pulls the two
    // dirty tensors and PMEM-copies the rest — payload stays bit-identical.
    const auto golden = m.weights_crc();
    std::vector<std::uint32_t> dirty{0, 1};
    const auto epoch = co_await c.checkpoint_incremental(m, 4, std::move(dirty));
    out.golden[epoch] = golden;
    out.acks.push_back(Ack{dev.persist_seq(), epoch});
    if (c.stats().last_payload_crc != golden) throw Error("incremental CRC mismatch");
  }(client, model, device, rec));
  eng.run();
  recorder.detach();
  rec.points = recorder.points();
  eng.shutdown();
  return rec;
}

TEST(CrashpointTest, EveryCheckpointBoundarySurvivesPowerCut) {
  const auto rec = record_checkpoint_workload();
  // Acceptance: the harness must enumerate a dense set of crash points —
  // at least 100 distinct persist boundaries in this workload alone.
  std::set<std::uint64_t> fences;
  for (const auto& p : rec.points) fences.insert(p.persist_seq);
  EXPECT_GE(fences.size(), 100u) << "persist-point recorder missed boundaries";
  ASSERT_EQ(rec.golden.size(), 4u);

  for (const auto& p : rec.points) {
    verify_point(rec, p);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// --- workload 2: coalesced small-tensor datapath ------------------------------

// Extent coalescing (core/daemon/extent.h) merges runs of small tensors
// into multi-SGE gather WRs and splits per-tensor CRCs back out of landed
// extents. Walking every persist boundary of a coalesced checkpoint proves
// the split CRC blocks remain a durability proof: verify_point checks each
// DONE slot's payload bit-for-bit against its block, per tensor.
Recording record_coalesced_workload() {
  Recording rec;
  sim::Engine eng;
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "client", .gpu_count = 1})
                   .add_node({.name = "server", .pmem_devdax = kDevdax})
                   .build(eng);
  core::QpRendezvous rendezvous;
  core::PortusDaemon::Config cfg;
  cfg.chunk_bytes = 4_KiB;
  cfg.pipeline_window = 8;
  cfg.coalesce_threshold = 2_KiB;
  cfg.max_sges = 8;
  core::PortusDaemon daemon{*world, world->node("server"), rendezvous, cfg};
  daemon.start();
  auto& device = daemon.device();

  // Small-tensor-dominated: 6 blocks of (2 KiB, 1 KiB, 256 B, 256 B) plus
  // one chunked 32 KiB embedding — most WRs are gather extents.
  auto& client_node = world->node("client");
  dnn::Model model{"gpt-bits", client_node.gpu(0)};
  for (int b = 0; b < 6; ++b) {
    const auto tag = std::to_string(b);
    model.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".w", .shape = {512}}, false);
    model.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".proj", .shape = {256}}, false);
    model.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".bias", .shape = {64}}, false);
    model.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".norm", .shape = {64}}, false);
  }
  model.add_tensor(dnn::TensorMeta{.name = "embed", .shape = {32, 256}}, false);
  model.randomize_weights(0xC0A1E5CE);
  core::PortusClient client{*world, client_node, client_node.gpu(0), rendezvous};

  sim::CrashpointRecorder recorder{device};
  eng.spawn([](core::PortusClient& c, dnn::Model& m, pmem::PmemDevice& dev,
               Recording& out, core::PortusDaemon& d) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    for (std::uint64_t k = 1; k <= 2; ++k) {
      m.mutate_weights(k);
      const auto golden = m.weights_crc();
      const auto epoch = co_await c.checkpoint(m, k);
      out.golden[epoch] = golden;
      out.acks.push_back(Ack{dev.persist_seq(), epoch});
      if (c.stats().last_payload_crc != golden) throw Error("payload CRC mismatch");
    }
    // Incremental over a coalesced layout: one dirty pair fuses into a
    // gather extent, the clean remainder rides as dense local copies.
    const auto golden = m.weights_crc();
    std::vector<std::uint32_t> dirty{1, 2};
    const auto epoch = co_await c.checkpoint_incremental(m, 3, std::move(dirty));
    out.golden[epoch] = golden;
    out.acks.push_back(Ack{dev.persist_seq(), epoch});
    if (c.stats().last_payload_crc != golden) throw Error("incremental CRC mismatch");
    if (d.stats().extents_coalesced == 0) throw Error("workload never coalesced");
  }(client, model, device, rec, daemon));
  eng.run();
  recorder.detach();
  rec.points = recorder.points();
  eng.shutdown();
  return rec;
}

TEST(CrashpointTest, CoalescedCheckpointBoundariesSurvivePowerCut) {
  const auto rec = record_coalesced_workload();
  EXPECT_GE(rec.points.size(), 40u);
  ASSERT_EQ(rec.golden.size(), 3u);

  for (const auto& p : rec.points) {
    verify_point(rec, p);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// --- workload 3: sharded allocator, mid-refill power cuts ---------------------

// The sharded allocator persists per-shard AllocTable regions and touches
// the global bump pointer only on reservation refills. A power cut can land
// between the bump advance, the old reservation tail's FREE publication and
// the first entry persisted out of the new reservation — every such fence
// must leave an image where recover() validates the sharded header, no LIVE
// extents overlap, and fsck repair re-adopts any abandoned reservation tail
// as a heap gap (verify_point's post-repair accounting proves that every
// byte below the bump pointer is tracked again).
core::PortusDaemon::Config sharded_cfg() {
  core::PortusDaemon::Config cfg;
  cfg.chunk_bytes = 16_KiB;
  cfg.pipeline_window = 8;
  cfg.shards = 4;
  // Small on purpose: slot-layout allocations overrun one reservation, so
  // the recorded run crosses the refill path many times.
  cfg.alloc_refill_bytes = 32_KiB;
  return cfg;
}

Recording record_sharded_refill_workload() {
  Recording rec;
  sim::Engine eng;
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "client", .gpu_count = 1})
                   .add_node({.name = "server", .pmem_devdax = kDevdax})
                   .build(eng);
  core::QpRendezvous rendezvous;
  core::PortusDaemon daemon{*world, world->node("server"), rendezvous, sharded_cfg()};
  daemon.start();
  auto& device = daemon.device();

  // Small-tensor blocks plus a chunked embedding: the double-buffered slots
  // and CRC blocks churn allocs and frees across the arenas.
  auto& client_node = world->node("client");
  dnn::Model model{"gpt-bits", client_node.gpu(0)};
  for (int b = 0; b < 6; ++b) {
    const auto tag = std::to_string(b);
    model.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".w", .shape = {512}}, false);
    model.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".proj", .shape = {256}}, false);
    model.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".bias", .shape = {64}}, false);
  }
  model.add_tensor(dnn::TensorMeta{.name = "embed", .shape = {32, 256}}, false);
  model.randomize_weights(0x54A6D);
  core::PortusClient client{*world, client_node, client_node.gpu(0), rendezvous};

  sim::CrashpointRecorder recorder{device};
  eng.spawn([](core::PortusClient& c, dnn::Model& m, pmem::PmemDevice& dev,
               Recording& out, core::PortusDaemon& d) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    for (std::uint64_t k = 1; k <= 4; ++k) {
      m.mutate_weights(k);
      const auto golden = m.weights_crc();
      const auto epoch = co_await c.checkpoint(m, k);
      out.golden[epoch] = golden;
      out.acks.push_back(Ack{dev.persist_seq(), epoch});
      if (c.stats().last_payload_crc != golden) throw Error("payload CRC mismatch");
    }
    // The walk is only meaningful if the recorded fences actually straddle
    // reservation refills.
    std::uint64_t refills = 0;
    for (const auto& sh : d.allocator().shard_stats()) refills += sh.refills;
    if (refills == 0) throw Error("refill path never exercised");
  }(client, model, device, rec, daemon));
  eng.run();
  recorder.detach();
  rec.points = recorder.points();
  eng.shutdown();
  return rec;
}

TEST(CrashpointTest, MidRefillBoundariesLeaveShardTablesFsckClean) {
  const auto rec = record_sharded_refill_workload();
  EXPECT_GE(rec.points.size(), 40u);
  ASSERT_EQ(rec.golden.size(), 4u);

  for (const auto& p : rec.points) {
    verify_point(rec, p, sharded_cfg());
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// --- workload 4: cluster-era shard registration ------------------------------

// Both shards of a two-shard alexnet, each with a replica count of 2 and
// the model's bytes as its job, registered on one daemon and checkpointed.
constexpr std::uint32_t kShardReplicas = 2;

Recording record_shard_workload(Bytes& job_bytes) {
  Recording rec;
  sim::Engine eng;
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "client", .gpu_count = 1})
                   .add_node({.name = "server", .pmem_devdax = kDevdax})
                   .build(eng);
  core::QpRendezvous rendezvous;
  core::PortusDaemon daemon{*world, world->node("server"), rendezvous};
  daemon.start();
  auto& device = daemon.device();

  auto& client_node = world->node("client");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(client_node.gpu(0), "alexnet", opt);

  job_bytes = model.total_bytes();
  const auto n = model.tensors().size();
  std::vector<std::uint32_t> front, back;
  for (std::uint32_t t = 0; t < n; ++t) (t < n / 2 ? front : back).push_back(t);

  core::PortusClient client{*world, client_node, client_node.gpu(0), rendezvous};
  sim::CrashpointRecorder recorder{device};
  eng.spawn([](core::PortusClient& c, dnn::Model& m, pmem::PmemDevice& dev, Recording& out,
               Bytes job, std::vector<std::uint32_t> s0,
               std::vector<std::uint32_t> s1) -> sim::Process {
    co_await c.connect();
    const auto bind = [&](std::uint32_t shard, std::vector<std::uint32_t> idx) {
      core::PortusClient::ShardBinding b;
      b.reg_name = m.name() + "#s" + std::to_string(shard);
      b.tensor_indices = std::move(idx);
      b.shard_id = shard;
      b.shard_count = 2;
      b.replica_count = kShardReplicas;
      b.job_bytes = job;
      return b;
    };
    co_await c.register_shard(m, bind(0, s0));
    co_await c.register_shard(m, bind(1, s1));
    for (const auto shard : {0, 1}) {
      const auto name = m.name() + "#s" + std::to_string(shard);
      const auto epoch = co_await c.checkpoint_named(name, 1);
      out.golden[epoch] = c.stats().last_payload_crc;
      out.acks.push_back(Ack{dev.persist_seq(), epoch});
    }
  }(client, model, device, rec, job_bytes, front, back));
  eng.run();
  recorder.detach();
  rec.points = recorder.points();
  eng.shutdown();
  return rec;
}

TEST(CrashpointTest, ShardRegistrationBoundariesSurvivePowerCut) {
  Bytes job_bytes = 0;
  const auto rec = record_shard_workload(job_bytes);
  EXPECT_GE(rec.points.size(), 40u);

  for (const auto& p : rec.points) {
    SCOPED_TRACE(::testing::Message() << "crash point #" << p.ordinal);
    sim::Engine eng;
    auto world = net::Cluster::Builder{}
                     .add_node({.name = "server", .pmem_devdax = kDevdax})
                     .build(eng);
    core::QpRendezvous rendezvous;
    core::PortusDaemon daemon{*world, world->node("server"), rendezvous};
    sim::CrashpointRecorder::materialize(p, world->node("server").devdax().device(),
                                         /*seed=*/0xBADC0DEull + p.ordinal);
    ASSERT_NO_THROW(daemon.recover());

    // Every shard record that survived the cut must carry the shard count,
    // replica count and job bytes it registered with: what the elastic
    // migrator re-homes a copy by, read from the image alone, at any
    // boundary.
    for (const auto& name : daemon.model_table().names()) {
      std::optional<core::MIndex> index;
      try {
        index.emplace(daemon.load_index(name));
      } catch (const Error&) {
        continue;  // torn mid-registration record
      }
      ASSERT_TRUE(index->sharded());
      EXPECT_EQ(index->shard_count(), 2u);
      EXPECT_EQ(index->replica_count(), kShardReplicas);
      EXPECT_EQ(index->job_bytes(), job_bytes);
    }

    auto report = core::Fsck{daemon}.run(/*repair=*/true);
    EXPECT_EQ(report.corrupt_demoted, 0);
    EXPECT_EQ(report.overlap_violations, 0);
    EXPECT_TRUE(core::Fsck{daemon}.run(/*repair=*/true).clean());
    eng.shutdown();
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// --- workload 5: online repack under admitted live traffic --------------------

// The online repacker frees reclaimed slots, rewrites AllocTable entries
// and compacts the bump inside bounded admission-pause windows, while a
// live tenant keeps checkpointing between windows. A power cut can land
// mid-relocation — between a slot clear, its extent's FREE publication and
// the compacted bump persist. Every such boundary must leave an image
// where the finished job's *latest* committed epoch and every live-job ack
// survive, and fsck finds nothing worse than the expected torn leftovers.
core::PortusDaemon::Config online_repack_cfg() {
  core::PortusDaemon::Config cfg;
  cfg.chunk_bytes = 16_KiB;
  cfg.pipeline_window = 4;
  cfg.shards = 4;
  cfg.alloc_refill_bytes = 64_KiB;
  cfg.tenancy = true;
  cfg.admission_inflight = 1;
  return cfg;
}

Recording record_online_repack_workload() {
  Recording rec;
  sim::Engine eng;
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "client", .gpu_count = 1})
                   .add_node({.name = "server", .pmem_devdax = kDevdax})
                   .build(eng);
  core::QpRendezvous rendezvous;
  core::PortusDaemon daemon{*world, world->node("server"), rendezvous,
                            online_repack_cfg()};
  daemon.start();
  auto& device = daemon.device();

  auto& client_node = world->node("client");
  dnn::Model garbage{"finished-job", client_node.gpu(0)};
  for (int b = 0; b < 4; ++b) {
    const auto tag = std::to_string(b);
    garbage.add_tensor(dnn::TensorMeta{.name = "fc" + tag + ".w", .shape = {48, 64}}, false);
    garbage.add_tensor(dnn::TensorMeta{.name = "fc" + tag + ".b", .shape = {64}}, false);
  }
  garbage.randomize_weights(0x6A5BA6Eull);
  // The live tenant is phantom: its slots churn the allocator and the
  // admission path without adding payload epochs to the golden map (the
  // walk's CRC checks are keyed by epoch alone).
  dnn::Model live{"live", client_node.gpu(0)};
  live.add_tensor(dnn::TensorMeta{.name = "w", .shape = {1 << 16}}, /*phantom=*/true);

  core::PortusClient client{*world, client_node, client_node.gpu(0), rendezvous};
  client.set_retry_policy(core::PortusClient::RetryPolicy{.max_retries = 20});

  sim::CrashpointRecorder recorder{device};
  eng.spawn([](sim::Engine& eng, core::PortusClient& c, dnn::Model& garbage,
               dnn::Model& live, pmem::PmemDevice& dev, Recording& out,
               core::PortusDaemon& d) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(garbage);
    for (std::uint64_t k = 1; k <= 2; ++k) {
      garbage.mutate_weights(k);
      const auto golden = garbage.weights_crc();
      const auto epoch = co_await c.checkpoint(garbage, k);
      out.golden[epoch] = golden;
      out.acks.push_back(Ack{dev.persist_seq(), epoch});
    }
    co_await c.finish(garbage);  // epoch 1 becomes reclaimable garbage

    co_await c.register_model(live);
    core::Repacker::Report report;
    auto maint = eng.spawn([](core::PortusDaemon& d,
                              core::Repacker::Report& out) -> sim::Process {
      core::Repacker repacker{d};
      out = co_await repacker.repack_online(1);
    }(d, report));
    for (std::uint64_t k = 1; k <= 4; ++k) {
      co_await c.checkpoint(live, k);
    }
    co_await maint.join();
    if (report.freed_outdated == 0) throw Error("repack reclaimed no garbage");
  }(eng, client, garbage, live, device, rec, daemon));
  eng.run();
  recorder.detach();
  rec.points = recorder.points();
  eng.shutdown();
  return rec;
}

TEST(CrashpointTest, MidRelocationBoundariesLeaveImageFsckClean) {
  const auto rec = record_online_repack_workload();
  EXPECT_GE(rec.points.size(), 40u);
  ASSERT_EQ(rec.golden.size(), 2u);

  for (const auto& p : rec.points) {
    verify_point(rec, p, online_repack_cfg());
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// --- workload 6: NUMA partitions, size-class refills, cross-node steal --------

// The NUMA-partitioned allocator persists the same AllocTable entries as
// the flat one, but its fences now cover per-node bump arenas, size-class
// segregated free lists, adaptive refill chunk switches (each publishes the
// abandoned reservation tail — the mid-refill fence) and cross-node steal
// claims. The workload drives the daemon's allocator directly so every one
// of those paths runs a deterministic number of times, and the walk proves
// that at any boundary the image recovers, the extended header still
// carries the 2-node geometry, and fsck leaves nothing behind.
core::PortusDaemon::Config numa_cfg() {
  core::PortusDaemon::Config cfg;
  cfg.shards = 4;
  cfg.numa_nodes = 2;
  cfg.alloc_refill_bytes = 32_KiB;
  return cfg;
}

Recording record_numa_alloc_workload() {
  Recording rec;
  sim::Engine eng;
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "server", .pmem_devdax = kDevdax,
                              .pmem_numa_nodes = 2})
                   .build(eng);
  core::QpRendezvous rendezvous;
  core::PortusDaemon daemon{*world, world->node("server"), rendezvous, numa_cfg()};
  auto& device = daemon.device();
  auto& alloc = daemon.allocator();

  sim::CrashpointRecorder recorder{device};

  // Phase 1 — size-class churn on every socket-pinned shard: small and
  // medium requests drain 32 KiB reservations (adaptive refills), one large
  // request per shard outgrows its chunk entirely. A third of the extents
  // are freed into the class-segregated lists and a follow-up small alloc
  // per shard claims a class-mate back.
  std::vector<Bytes> scratch;
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (int i = 0; i < 6; ++i) {
      scratch.push_back(alloc.alloc_on(s, 1_KiB));
      scratch.push_back(alloc.alloc_on(s, 24_KiB));
    }
    scratch.push_back(alloc.alloc_on(s, 300_KiB));
  }
  for (std::size_t i = 0; i < scratch.size(); i += 3) alloc.free(scratch[i]);
  for (std::uint32_t s = 0; s < 4; ++s) (void)alloc.alloc_on(s, 1_KiB);

  // Phase 2 — park a donor extent on a node-1 shard's free list, drain both
  // node partitions to their last byte (two exact-fit allocs), then force a
  // node-0 request that only the donor can satisfy: with every bump dry and
  // no same-node candidate, the claim crosses the socket.
  const auto donor = alloc.alloc_on(3, 512_KiB);
  alloc.free(donor);
  for (std::uint32_t n = 0; n < 2; ++n) {
    const auto [base, end] = alloc.node_partition(n);
    (void)base;
    const Bytes left = end - alloc.node_bump(n);
    if (left > 0) (void)alloc.alloc_on(n == 0 ? 0 : 3, left);
  }
  const auto stolen = alloc.alloc_on(0, 384_KiB);
  EXPECT_EQ(stolen, donor) << "cross-node steal did not claim the donor";
  EXPECT_EQ(device.node_of(stolen), 1u);
  alloc.free(stolen);  // a post-steal fence for the walk to cover

  // The recording is only meaningful if the paths it claims to cover ran.
  std::uint64_t refills = 0, reuse = 0, cross = 0, remote = 0;
  Bytes chunk_max = 0;
  for (const auto& sh : alloc.shard_stats()) {
    refills += sh.refills;
    reuse += sh.reuse_hits;
    cross += sh.cross_steals;
    remote += sh.remote_refills;
    chunk_max = std::max(chunk_max, sh.refill_chunk);
  }
  EXPECT_GT(refills, 8u) << "size-class refill path never exercised";
  EXPECT_GT(reuse, 0u) << "segregated free lists never claimed";
  EXPECT_EQ(cross, 1u) << "cross-node steal never exercised";
  EXPECT_EQ(remote, 0u) << "drains must stay node-local";
  EXPECT_GT(chunk_max, 32_KiB) << "adaptive refill never scaled a chunk";

  recorder.detach();
  rec.points = recorder.points();
  eng.shutdown();
  return rec;
}

TEST(CrashpointTest, NumaRefillAndCrossStealBoundariesSurvivePowerCut) {
  const auto rec = record_numa_alloc_workload();
  EXPECT_GE(rec.points.size(), 60u);
  ASSERT_TRUE(rec.golden.empty());  // pure allocator churn: no epochs

  for (const auto& p : rec.points) {
    verify_point(rec, p, numa_cfg());
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// --- workload 7: one replica forward -----------------------------------------

// A forward lands the version the shard's puller committed on a replica,
// PMEM to PMEM over a daemon-to-daemon QP, under the checkpoint's commit
// discipline with the puller's epoch carried: ACTIVE -> chunked READs
// flushed as they land -> CRC check and block -> DONE. The client's
// forwards are armed: the replica waits at the puller and begins the
// moment the puller's answer arrives. Power fails at every persist fence
// of one forward on the replica. verify_point then proves each cut image
// recovers fsck-clean with its previous DONE version (or the forwarded
// one, once DONE) bit-exact; the source only answers a slot query and is
// never written.
struct ForwardRecording {
  Recording rec;
  std::uint64_t source_fences = 0;  // source persists once the forward began
  bool source_clean = false;
  Duration commit_to_first_fence{0};  // puller's commit -> replica's ACTIVE
};

ForwardRecording record_forward_workload() {
  ForwardRecording out;
  sim::Engine eng;
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "client", .gpu_count = 1})
                   .add_node({.name = "pmem0", .pmem_devdax = kDevdax})
                   .add_node({.name = "pmem1", .pmem_devdax = kDevdax})
                   .build(eng);
  core::QpRendezvous rendezvous;
  std::vector<std::unique_ptr<core::PortusDaemon>> daemons;
  core::cluster::ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.shard_count = 1;
  ccfg.op_timeout = 50ms;
  for (int i = 0; i < 2; ++i) {
    core::PortusDaemon::Config cfg;
    cfg.endpoint = strf("portusd{}", i);
    cfg.chunk_bytes = 32_KiB;  // many data fences per forward
    ccfg.endpoints.push_back(cfg.endpoint);
    daemons.push_back(std::make_unique<core::PortusDaemon>(
        *world, world->node(strf("pmem{}", i)), rendezvous, cfg));
    daemons.back()->start();
  }
  auto& client_node = world->node("client");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(client_node.gpu(0), "alexnet", opt);
  core::cluster::ClusterClient client{*world, client_node, client_node.gpu(0), rendezvous,
                                      ccfg};

  std::optional<sim::CrashpointRecorder> recorder;
  std::uint64_t source_seq = 0;
  eng.spawn([](sim::Engine& eng, core::cluster::ClusterClient& c, dnn::Model& m,
               std::vector<std::unique_ptr<core::PortusDaemon>>& ds,
               std::optional<sim::CrashpointRecorder>& rec, std::uint64_t& src_seq,
               Duration& gap, Recording& out) -> sim::Process {
    co_await c.register_model(m);
    auto& source = *ds[c.plan().shard_daemons[0].at(0)];
    auto& replica = *ds[c.plan().shard_daemons[0].at(1)];
    for (std::uint64_t k = 1; k <= 2; ++k) {
      m.mutate_weights(k);
      const auto golden = m.weights_crc();  // one shard: the whole model
      if (k == 2) {
        // Record the replica through round 2 (its forward is the only
        // writer there), and note the source's fence count as the forward
        // begins: it must not move.
        rec.emplace(replica.device());
        const auto start = replica.device().persist_seq();
        eng.spawn([](sim::Engine& e, pmem::PmemDevice& r, pmem::PmemDevice& s,
                     std::uint64_t from, std::uint64_t& seen) -> sim::Process {
          while (r.persist_seq() == from) co_await e.sleep(1us);
          seen = s.persist_seq();
        }(eng, replica.device(), source.device(), start, src_seq));
        // The source's commit, then the replica's first fence after it.
        eng.spawn([](sim::Engine& e, core::PortusDaemon& s, pmem::PmemDevice& r,
                     std::uint64_t from, Duration& out) -> sim::Process {
          while (s.stats().checkpoints < 2) co_await e.sleep(1us);
          const Time commit = e.now();
          while (r.persist_seq() == from) co_await e.sleep(1us);
          out = e.now() - commit;
        }(eng, source, replica.device(), start, gap));
      }
      const auto ck = co_await c.checkpoint(k);
      out.golden[ck.epoch] = golden;
      out.acks.push_back(Ack{replica.device().persist_seq(), ck.epoch});
    }
    if (replica.stats().forwards != 2 || replica.stats().checkpoints != 0) {
      throw Error("the replica did not land both versions by forward");
    }
  }(eng, client, model, daemons, recorder, source_seq, out.commit_to_first_fence, out.rec));
  eng.run();
  recorder->detach();
  out.rec.points = recorder->points();

  auto& source = *daemons[client.plan().shard_daemons[0].at(0)];
  out.source_fences = source.device().persist_seq() - source_seq;
  out.source_clean = core::Fsck{source}.run(/*repair=*/false).clean();
  eng.shutdown();
  return out;
}

TEST(CrashpointTest, ForwardBoundariesLeaveTheReplicaFsckClean) {
  const auto out = record_forward_workload();
  EXPECT_EQ(out.source_fences, 0u) << "the forward wrote the source";
  EXPECT_TRUE(out.source_clean);
  // Armed: one control hop (the puller's answer) between its commit and
  // the replica's first fence, not DONE -> FORWARD -> SLOT_QUERY -> reply.
  EXPECT_LT(out.commit_to_first_fence, 2 * net::TcpSocket::kLatency);
  ASSERT_EQ(out.rec.golden.size(), 2u);
  EXPECT_GE(out.rec.points.size(), 40u) << "the forward recorded too few persist fences";

  for (const auto& p : out.rec.points) {
    verify_point(out.rec, p);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// --- FaultMode::kPowerCut through the injector, in a live cluster ------------

TEST(CrashpointTest, ClusterSurvivesInjectedPowerCut) {
  sim::Engine eng;
  auto cluster = net::Cluster::sharded_testbed(eng, 3);
  core::QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  std::vector<std::unique_ptr<core::PortusDaemon>> daemons;
  core::cluster::ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.op_timeout = 50ms;
  for (int i = 0; i < 3; ++i) {
    core::PortusDaemon::Config cfg;
    cfg.endpoint = strf("portusd{}", i);
    cfg.faults = &faults;
    ccfg.endpoints.push_back(cfg.endpoint);
    daemons.push_back(std::make_unique<core::PortusDaemon>(
        *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
    daemons.back()->start();
  }

  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.05;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  core::cluster::ClusterClient client{*cluster, volta, volta.gpu(0), rendezvous, ccfg};

  bool done = false;
  auto proc = eng.spawn([](sim::FaultInjector& faults,
                           core::cluster::ClusterClient& c, dnn::Model& m,
                           bool& ok) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);

    // Power fails on one ring member in the middle of the next round: its
    // unpersisted lines are lost/torn, its sockets drop. Replication (R=2)
    // must carry the round and the restore regardless.
    m.mutate_weights(2);
    faults.kill_after("portusd1", 200us, sim::FaultMode::kPowerCut);
    const auto ck = co_await c.checkpoint(2);
    if (ck.epoch != 2) throw Error("checkpoint 2 did not commit");
    const auto golden = m.weights_crc();

    m.mutate_weights(99);  // diverge, then pull epoch 2 back
    const auto rr = co_await c.restore();
    if (rr.epoch != 2) throw Error("restore served the wrong epoch");
    if (m.weights_crc() != golden) throw Error("restore not bit-exact");
    ok = true;
  }(faults, client, model, done));
  eng.run();
  proc.check();
  ASSERT_TRUE(done);
  EXPECT_TRUE(faults.killed("portusd1"));
  EXPECT_GE(daemons[1]->device().crash_count(), 1u);

  // The powered-off daemon restarts over whatever its device holds now:
  // recovery + fsck must leave a clean, serviceable image.
  daemons[1]->recover();
  auto report = core::Fsck{*daemons[1]}.run(/*repair=*/true);
  EXPECT_EQ(report.corrupt_demoted, 0);
  EXPECT_EQ(report.overlap_violations, 0);
  EXPECT_TRUE(core::Fsck{*daemons[1]}.run(/*repair=*/true).clean());
  eng.shutdown();
}

}  // namespace
}  // namespace portus
