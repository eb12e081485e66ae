// Extent planner (core/daemon/extent.h): fusion-rule unit coverage over
// hand-built span lists, layout interaction with MIndex packed slots and
// chunk_spans, and end-to-end proofs that the coalesced multi-SGE datapath
// round-trips bytes, keeps per-tensor CRCs a durability proof, and matches
// the classic datapath when disabled.
#include "core/daemon/extent.h"

#include <gtest/gtest.h>

#include "core/client.h"
#include "core/daemon/daemon.h"
#include "core/daemon/fsck.h"
#include "core/portusctl.h"
#include "common/rng.h"
#include "core/cluster/placement.h"
#include "dnn/model.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"

namespace portus::core {
namespace {

// --- planner unit tests ------------------------------------------------------

// A PMEM-dense row of whole tensors: tensor i starts exactly where i-1 ends.
std::vector<IndexedTensor> dense_tensors(const std::vector<Bytes>& sizes) {
  std::vector<IndexedTensor> ts;
  Bytes cursor = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ts.push_back(IndexedTensor{.name = "t" + std::to_string(i),
                               .dtype = dnn::DType::kU8,
                               .shape = {static_cast<std::int64_t>(sizes[i])},
                               .size = sizes[i],
                               .offset_in_slot = cursor});
    cursor += sizes[i];
  }
  return ts;
}

std::vector<ChunkSpan> whole_spans(const std::vector<IndexedTensor>& ts) {
  std::vector<ChunkSpan> spans;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    spans.push_back(ChunkSpan{.tensor = i,
                              .offset = 0,
                              .offset_in_slot = ts[i].offset_in_slot,
                              .len = ts[i].size});
  }
  return spans;
}

void expect_identity(const std::vector<Extent>& extents,
                     const std::vector<ChunkSpan>& spans) {
  ASSERT_EQ(extents.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& e = extents[i];
    ASSERT_EQ(e.members.size(), 1u) << "extent " << i;
    EXPECT_FALSE(e.coalesced());
    EXPECT_EQ(e.members[0].tensor, spans[i].tensor);
    EXPECT_EQ(e.members[0].offset, spans[i].offset);
    EXPECT_EQ(e.members[0].offset_in_slot, spans[i].offset_in_slot);
    EXPECT_EQ(e.members[0].len, spans[i].len);
    EXPECT_EQ(e.offset_in_slot, spans[i].offset_in_slot);
    EXPECT_EQ(e.len, spans[i].len);
  }
}

TEST(ExtentPlanTest, ThresholdZeroIsBitForBitIdentity) {
  const auto ts = dense_tensors({100, 200, 300, 64});
  const auto spans = whole_spans(ts);
  expect_identity(plan_extents(spans, ts, ExtentConfig{.coalesce_threshold = 0,
                                                       .max_sges = 16}),
                  spans);
  // max_sges == 1 disables coalescing just the same.
  expect_identity(plan_extents(spans, ts, ExtentConfig{.coalesce_threshold = 4_KiB,
                                                       .max_sges = 1}),
                  spans);
}

TEST(ExtentPlanTest, FusesDenseRunsUpToMaxSges) {
  const auto ts = dense_tensors(std::vector<Bytes>(10, 256));
  const auto spans = whole_spans(ts);
  const auto extents =
      plan_extents(spans, ts, ExtentConfig{.coalesce_threshold = 4_KiB, .max_sges = 4});
  ASSERT_EQ(extents.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(extents[0].members.size(), 4u);
  EXPECT_EQ(extents[1].members.size(), 4u);
  EXPECT_EQ(extents[2].members.size(), 2u);
  Bytes cursor = 0;
  std::size_t next_tensor = 0;
  for (const auto& e : extents) {
    EXPECT_EQ(e.offset_in_slot, cursor);
    Bytes sum = 0;
    for (const auto& m : e.members) {
      EXPECT_EQ(m.tensor, next_tensor++) << "planner must never reorder spans";
      sum += m.len;
    }
    EXPECT_EQ(e.len, sum);
    cursor += e.len;
  }
}

TEST(ExtentPlanTest, TensorExactlyAtThresholdFusesOneOverDoesNot) {
  const auto ts = dense_tensors({4_KiB, 4_KiB, 4_KiB + 1, 4_KiB});
  const auto spans = whole_spans(ts);
  const auto extents =
      plan_extents(spans, ts, ExtentConfig{.coalesce_threshold = 4_KiB, .max_sges = 8});
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0].members.size(), 2u) << "<= threshold must fuse";
  EXPECT_EQ(extents[1].members.size(), 1u) << "one byte over must stay standalone";
  EXPECT_EQ(extents[1].len, 4_KiB + 1);
  EXPECT_EQ(extents[2].members.size(), 1u);
  EXPECT_FALSE(extents[2].coalesced());
}

TEST(ExtentPlanTest, PmemGapBreaksRun) {
  // t1 ends at 300; t2 was padded (e.g. a dtype-alignment hole) to 304.
  auto ts = dense_tensors({200, 100, 100});
  ts[2].offset_in_slot = 304;
  auto spans = whole_spans(ts);
  const auto extents =
      plan_extents(spans, ts, ExtentConfig{.coalesce_threshold = 4_KiB, .max_sges = 8});
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0].members.size(), 2u);
  EXPECT_EQ(extents[0].len, 300u);
  EXPECT_EQ(extents[1].members.size(), 1u);
  EXPECT_EQ(extents[1].offset_in_slot, 304u);
}

TEST(ExtentPlanTest, PartialSpansOfChunkedTensorsStayStandalone) {
  // One 8 KiB tensor chunked into 2 KiB spans: each span is PMEM-dense with
  // the previous one, but none is a whole tensor, so nothing fuses.
  const auto ts = dense_tensors({8_KiB});
  std::vector<ChunkSpan> spans;
  for (Bytes off = 0; off < 8_KiB; off += 2_KiB) {
    spans.push_back(ChunkSpan{.tensor = 0, .offset = off, .offset_in_slot = off,
                              .len = 2_KiB});
  }
  const auto extents =
      plan_extents(spans, ts, ExtentConfig{.coalesce_threshold = 16_KiB, .max_sges = 8});
  expect_identity(extents, spans);
}

TEST(ExtentPlanTest, ZeroLengthTensorDoesNotInterruptDenseRun) {
  // t1 is a 0-dim optimizer scalar with zero bytes: it must become its own
  // empty extent while its neighbors still fuse across it.
  const auto ts = dense_tensors({256, 0, 256});
  const auto spans = whole_spans(ts);
  ASSERT_EQ(spans[1].len, 0u);
  const auto extents =
      plan_extents(spans, ts, ExtentConfig{.coalesce_threshold = 4_KiB, .max_sges = 8});
  ASSERT_EQ(extents.size(), 2u);
  // The empty extent is emitted at its position; the open run flushes later.
  EXPECT_EQ(extents[0].len, 0u);
  EXPECT_EQ(extents[0].members.size(), 1u);
  EXPECT_EQ(extents[0].members[0].tensor, 1u);
  EXPECT_EQ(extents[1].members.size(), 2u) << "neighbors of a 0-B tensor stay dense";
  EXPECT_EQ(extents[1].members[0].tensor, 0u);
  EXPECT_EQ(extents[1].members[1].tensor, 2u);
  EXPECT_EQ(extents[1].len, 512u);
}

TEST(ExtentPlanTest, TransferClassBoundarySplitsRun) {
  const auto ts = dense_tensors({256, 256, 256, 256});
  const auto spans = whole_spans(ts);
  const std::vector<bool> dirty{true, true, false, false};
  const auto extents = plan_extents(
      spans, ts, ExtentConfig{.coalesce_threshold = 4_KiB, .max_sges = 8}, dirty);
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0].members.size(), 2u);
  EXPECT_EQ(extents[1].members.size(), 2u);
  EXPECT_EQ(extents[1].members[0].tensor, 2u)
      << "a dirty RDMA read must never fuse with a clean local copy";
}

TEST(ExtentPlanTest, DenseRunClosesAtTheByteBudgetWithSgesToSpare) {
  // Ten 3 KiB tensors under the threshold: eight fill the 24 KiB budget
  // exactly with half the gather list unused, and the ninth opens a run.
  const auto ts = dense_tensors(std::vector<Bytes>(10, 3_KiB));
  const auto spans = whole_spans(ts);
  const auto extents =
      plan_extents(spans, ts, ExtentConfig{.coalesce_threshold = 4_KiB, .max_sges = 16});
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0].members.size(), 8u);
  EXPECT_EQ(extents[0].len, 24_KiB);
  EXPECT_EQ(extents[1].members.size(), 2u);
  EXPECT_EQ(extents[1].members[0].tensor, 8u);
  EXPECT_EQ(extents[1].offset_in_slot, 24_KiB);
}

TEST(ExtentPlanTest, TensorOverTheBudgetStaysStandaloneUnderAHigherThreshold) {
  // A 64 KiB threshold admits every tensor here, but no run may pass the
  // 24 KiB budget: the one just over it goes alone and splits its
  // neighbors' runs, and one exactly at it fills a run by itself.
  const auto ts = dense_tensors({1_KiB, 1_KiB, 24_KiB + 4, 1_KiB, 1_KiB, 24_KiB});
  const auto spans = whole_spans(ts);
  const auto extents =
      plan_extents(spans, ts, ExtentConfig{.coalesce_threshold = 64_KiB, .max_sges = 16});
  ASSERT_EQ(extents.size(), 4u);
  EXPECT_EQ(extents[0].members.size(), 2u);
  EXPECT_EQ(extents[1].members.size(), 1u);
  EXPECT_EQ(extents[1].len, 24_KiB + 4);
  EXPECT_EQ(extents[2].members.size(), 2u);
  EXPECT_EQ(extents[3].members.size(), 1u);
  EXPECT_EQ(extents[3].len, 24_KiB);
}

// --- MIndex layout interaction ----------------------------------------------

struct IndexFixture {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  PmemAllocator alloc{device, PmemAllocator::Config{.table_offset = 4_KiB,
                                                    .table_capacity = 128,
                                                    .data_offset = 1_MiB,
                                                    .data_end = 64_MiB}};
};

TEST(ExtentPlanTest, PackedLayoutMakesSmallRunsDenseAndDtypePadBreaksThem) {
  IndexFixture f;
  RegisterModelMsg m;
  m.model_name = "mixed";
  // f32 400 B, f16 6 B, f32 200 B: the f16 tensor ends at 406, so the next
  // f32 tensor pads to 408 — a 2-byte hole the planner must refuse to cross.
  m.tensors.push_back(TensorDesc{.name = "w0", .dtype = dnn::DType::kF32,
                                 .shape = {100}, .size = 400});
  m.tensors.push_back(TensorDesc{.name = "norm", .dtype = dnn::DType::kF16,
                                 .shape = {3}, .size = 6});
  m.tensors.push_back(TensorDesc{.name = "w1", .dtype = dnn::DType::kF32,
                                 .shape = {50}, .size = 200});
  const auto idx = MIndex::create(f.device, f.alloc, m, /*pack_threshold=*/4_KiB);
  EXPECT_EQ(idx.tensors()[0].offset_in_slot, 0u);
  EXPECT_EQ(idx.tensors()[1].offset_in_slot, 400u);
  EXPECT_EQ(idx.tensors()[2].offset_in_slot, 408u) << "f32 must pad 406 -> 408";

  const auto extents = plan_extents(idx.chunk_spans(0), idx.tensors(),
                                    ExtentConfig{.coalesce_threshold = 4_KiB,
                                                 .max_sges = 8});
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0].members.size(), 2u);
  EXPECT_EQ(extents[1].members.size(), 1u);
}

TEST(ExtentPlanTest, ChunkSpansOfLargeTensorsInterleaveWithFusedRuns) {
  IndexFixture f;
  RegisterModelMsg m;
  m.model_name = "mixed-sizes";
  const Bytes sizes[] = {512, 512, 16_KiB, 512, 512};
  for (std::size_t i = 0; i < 5; ++i) {
    m.tensors.push_back(TensorDesc{.name = "t" + std::to_string(i),
                                   .dtype = dnn::DType::kU8,
                                   .shape = {static_cast<std::int64_t>(sizes[i])},
                                   .size = sizes[i]});
  }
  const auto idx = MIndex::create(f.device, f.alloc, m, /*pack_threshold=*/4_KiB);
  const auto spans = idx.chunk_spans(4_KiB);  // the 16 KiB tensor -> 4 spans
  ASSERT_EQ(spans.size(), 2u + 4u + 2u);
  const auto extents = plan_extents(spans, idx.tensors(),
                                    ExtentConfig{.coalesce_threshold = 4_KiB,
                                                 .max_sges = 8});
  ASSERT_EQ(extents.size(), 1u + 4u + 1u);
  EXPECT_EQ(extents[0].members.size(), 2u);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(extents[static_cast<std::size_t>(i)].members.size(), 1u)
        << "chunk " << i << " of the large tensor must stay standalone";
  }
  EXPECT_EQ(extents[5].members.size(), 2u);
  // Identity check: with coalescing off the same spans pass through 1:1.
  expect_identity(plan_extents(spans, idx.tensors(),
                               ExtentConfig{.coalesce_threshold = 0, .max_sges = 8}),
                  spans);
}

TEST(ExtentPlanTest, ZeroLengthTensorsGetExactlyOneEmptySpan) {
  IndexFixture f;
  RegisterModelMsg m;
  m.model_name = "scalars";
  m.tensors.push_back(TensorDesc{.name = "a", .shape = {64}, .size = 256});
  m.tensors.push_back(TensorDesc{.name = "step", .shape = {0}, .size = 0});
  m.tensors.push_back(TensorDesc{.name = "b", .shape = {64}, .size = 256});
  const auto idx = MIndex::create(f.device, f.alloc, m, /*pack_threshold=*/4_KiB);
  for (const Bytes chunk : {Bytes{0}, Bytes{128}, 4_KiB}) {
    const auto spans = idx.chunk_spans(chunk);
    std::size_t empty = 0;
    for (const auto& s : spans) {
      if (s.tensor == 1) {
        ++empty;
        EXPECT_EQ(s.len, 0u);
        EXPECT_EQ(s.offset, 0u);
      }
    }
    EXPECT_EQ(empty, 1u) << "chunk_bytes " << chunk
                         << ": a 0-B tensor must emit exactly one empty span";
  }
}

// Zoo and fleet stay put under the default threshold: their smallest
// tensors are far above both 4 KiB and the byte budget, so MIndex::create
// packs nothing new and the planner fuses nothing new. Each entry is the
// slot size, every tensor's offset, then each extent's offset, length and
// member count.
std::vector<Bytes> layout_and_plan(const std::vector<TensorDesc>& tensors, Bytes threshold,
                                   Bytes chunk_bytes) {
  pmem::PmemDevice device{"pmem", 4_GiB, 0x1000};
  PmemAllocator alloc{device, PmemAllocator::Config{.table_offset = 4_KiB,
                                                    .table_capacity = 128,
                                                    .data_offset = 1_MiB,
                                                    .data_end = 4_GiB}};
  RegisterModelMsg reg;
  reg.model_name = "guard";
  reg.tensors = tensors;
  const auto idx = MIndex::create(device, alloc, reg, threshold);
  std::vector<Bytes> out{idx.slot_size()};
  for (const auto& t : idx.tensors()) out.push_back(t.offset_in_slot);
  const ExtentConfig shape{.coalesce_threshold = threshold,
                           .max_sges = PortusDaemon::Config{}.max_sges};
  for (const auto& e : plan_extents(idx.chunk_spans(chunk_bytes), idx.tensors(), shape)) {
    out.insert(out.end(), {e.offset_in_slot, e.len, e.members.size()});
  }
  return out;
}

void expect_default_keeps_layout(const std::vector<TensorDesc>& tensors,
                                 Bytes chunk_bytes) {
  const Bytes threshold = PortusDaemon::Config{}.coalesce_threshold;
  EXPECT_EQ(layout_and_plan(tensors, threshold, chunk_bytes),
            layout_and_plan(tensors, 4_KiB, chunk_bytes));
}

TEST(ExtentLayoutGuardTest, ZooModelsKeepTheirLayoutAndPlanAtTheDefaultThreshold) {
  sim::Engine eng;
  auto cluster = net::Cluster::paper_testbed(eng);
  auto& gpu = cluster->node("client-volta").gpu(0);
  // The canonical split and two seeded ones, named as the zoo workload
  // names its instances.
  for (const auto& name : dnn::ModelZoo::table2_names()) {
    for (const char* split : {"", "~1b873593", "~cc9e2d51"}) {
      SCOPED_TRACE(name + split);
      auto spec = dnn::ModelZoo::spec(name);
      spec.name += split;
      const auto model = dnn::ModelZoo::create_from_spec(
          gpu, spec, dnn::ModelZoo::Options{.force_phantom = true});
      std::vector<TensorDesc> tensors;
      for (const auto& t : model.tensors()) {
        tensors.push_back(TensorDesc{.name = t.name(), .dtype = t.meta().dtype,
                                     .shape = t.meta().shape, .size = t.byte_size()});
      }
      expect_default_keeps_layout(tensors, PortusDaemon::Config{}.chunk_bytes);
    }
  }
}

TEST(ExtentLayoutGuardTest, FleetClassModelsKeepTheirLayoutAndPlanAtTheDefaultThreshold) {
  // Fleet's job models: 8 f32 tensors, the class size +-10%, each tensor's
  // share drawn from [0.2, 2.0), on daemons chunking at 4 MiB.
  Rng rng{0xF1EE7};
  for (const Bytes class_bytes : {8_MiB, 32_MiB, 128_MiB}) {
    for (int draw = 0; draw < 3; ++draw) {
      const auto model_bytes =
          static_cast<Bytes>(static_cast<double>(class_bytes) * rng.uniform_real(0.9, 1.1));
      double w[8];
      double wsum = 0.0;
      for (auto& x : w) wsum += (x = rng.uniform_real(0.2, 2.0));
      std::vector<TensorDesc> tensors;
      Bytes assigned = 0;
      for (int t = 0; t < 8; ++t) {
        Bytes size = t + 1 == 8 ? model_bytes - assigned
                                : static_cast<Bytes>(static_cast<double>(model_bytes) *
                                                     w[t] / wsum);
        size &= ~Bytes{3};
        assigned += size;
        tensors.push_back(TensorDesc{.name = "w" + std::to_string(t),
                                     .dtype = dnn::DType::kF32,
                                     .shape = {static_cast<std::int64_t>(size / 4)},
                                     .size = size});
      }
      SCOPED_TRACE(model_bytes);
      expect_default_keeps_layout(tensors, 4_MiB);
    }
  }
}

// --- transfer planner (plan_transfer) ----------------------------------------

TEST(TransferPlanTest, ChunkListsForFullIncrementalAndRestore) {
  IndexFixture f;
  RegisterModelMsg m;
  m.model_name = "planned";
  const Bytes sizes[] = {512, 512, 16_KiB, 512, 512};
  for (std::uint32_t i = 0; i < 5; ++i) {
    m.tensors.push_back(TensorDesc{.name = "t" + std::to_string(i),
                                   .dtype = dnn::DType::kU8,
                                   .shape = {static_cast<std::int64_t>(sizes[i])},
                                   .size = sizes[i],
                                   .gpu_addr = 0x100000ull * (i + 1),
                                   .rkey = 100 + i});
  }
  const auto idx = MIndex::create(f.device, f.alloc, m, /*pack_threshold=*/4_KiB);
  const auto& ts = idx.tensors();
  const Bytes slot = idx.slot(0).data_offset;
  const Bytes prev = idx.slot(1).data_offset;
  const rdma::MemoryRegion mr{.lkey = 7, .addr = 0xA0000000ull};
  const ExtentConfig shape{.coalesce_threshold = 4_KiB, .max_sges = 8};
  using Kind = TransferChunk::Kind;

  // Full checkpoint: [t0 t1] gather, t2 in four 4 KiB chunks, [t3 t4].
  const auto full = plan_transfer(idx, m.tensors, shape, 4_KiB, Kind::kRead, slot, mr);
  ASSERT_EQ(full.size(), 6u);
  for (std::size_t k = 0; k < full.size(); ++k) {
    const auto& c = full[k];
    const Bytes in_slot = c.local_addr - mr.addr;
    EXPECT_EQ(c.kind, Kind::kRead) << k;
    EXPECT_TRUE(c.persist_after) << k;
    EXPECT_TRUE(c.collect_crc) << k;
    EXPECT_EQ(c.persist_offset, slot + in_slot) << k;
    EXPECT_EQ(c.lkey, 7u);
    EXPECT_EQ(c.rkey, m.tensors[c.tensor_index].rkey);
    EXPECT_EQ(c.remote_addr, m.tensors[c.tensor_index].gpu_addr + c.tensor_offset);
  }
  ASSERT_EQ(full[0].members.size(), 2u);
  EXPECT_EQ(full[0].len, 1024u);
  EXPECT_EQ(full[0].members[1].tensor_index, 1u);
  EXPECT_EQ(full[0].members[1].rkey, 101u);
  EXPECT_EQ(full[0].members[1].remote_addr, m.tensors[1].gpu_addr);
  for (std::size_t k = 1; k <= 4; ++k) {
    EXPECT_EQ(full[k].tensor_index, 2u);
    EXPECT_EQ(full[k].tensor_offset, (k - 1) * 4_KiB);
    EXPECT_EQ(full[k].local_addr, mr.addr + ts[2].offset_in_slot + (k - 1) * 4_KiB);
    EXPECT_TRUE(full[k].members.empty()) << "a partial span is never a gather";
  }
  ASSERT_EQ(full[5].members.size(), 2u);
  EXPECT_EQ(full[5].tensor_index, 3u);

  // Incremental, t0 and t2 dirty: the dirty t0 splits from its clean
  // neighbor, clean extents become local copies from the previous slot
  // (still flushed and CRC'd), and the clean [t3 t4] run keeps its members
  // for the per-tensor CRC split.
  const std::vector<bool> dirty{true, false, true, false, false};
  const auto incr =
      plan_transfer(idx, m.tensors, shape, 4_KiB, Kind::kRead, slot, mr, dirty, prev);
  ASSERT_EQ(incr.size(), 7u);
  EXPECT_EQ(incr[0].kind, Kind::kRead);
  EXPECT_EQ(incr[0].tensor_index, 0u);
  EXPECT_TRUE(incr[0].members.empty());
  EXPECT_EQ(incr[1].kind, Kind::kLocalCopy);
  EXPECT_EQ(incr[1].dst_offset, slot + ts[1].offset_in_slot);
  EXPECT_EQ(incr[1].src_offset, prev + ts[1].offset_in_slot);
  for (std::size_t k = 2; k <= 5; ++k) EXPECT_EQ(incr[k].kind, Kind::kRead) << k;
  EXPECT_EQ(incr[6].kind, Kind::kLocalCopy);
  EXPECT_EQ(incr[6].dst_offset, slot + ts[3].offset_in_slot);
  EXPECT_EQ(incr[6].src_offset, prev + ts[3].offset_in_slot);
  ASSERT_EQ(incr[6].members.size(), 2u);
  EXPECT_EQ(incr[6].members[1].tensor_index, 4u);
  for (const auto& c : incr) {
    EXPECT_TRUE(c.persist_after);
    EXPECT_TRUE(c.collect_crc);
  }

  // Restore: the full checkpoint's extents pushed back out as WRITEs, with
  // no persists and no CRCs.
  const auto restore = plan_transfer(idx, m.tensors, shape, 4_KiB, Kind::kWrite, slot, mr);
  ASSERT_EQ(restore.size(), full.size());
  for (std::size_t k = 0; k < restore.size(); ++k) {
    EXPECT_EQ(restore[k].kind, Kind::kWrite) << k;
    EXPECT_FALSE(restore[k].persist_after) << k;
    EXPECT_FALSE(restore[k].collect_crc) << k;
    EXPECT_EQ(restore[k].local_addr, full[k].local_addr) << k;
    EXPECT_EQ(restore[k].remote_addr, full[k].remote_addr) << k;
    EXPECT_EQ(restore[k].members.size(), full[k].members.size()) << k;
  }

  EXPECT_THROW(plan_transfer(idx, m.tensors, shape, 4_KiB, Kind::kWrite, slot, mr, dirty),
               InvalidArgument);
  EXPECT_THROW(plan_transfer(idx, m.tensors, shape, 4_KiB, Kind::kLocalCopy, slot, mr),
               InvalidArgument);
}

// --- end-to-end through the daemon ------------------------------------------

struct Rig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon;

  explicit Rig(PortusDaemon::Config config = {}) {
    daemon = std::make_unique<PortusDaemon>(*cluster, cluster->node("server"),
                                            rendezvous, config);
    daemon->start();
  }
  ~Rig() { eng.shutdown(); }
};

// A GPT-ish small-tensor mix: per block a 2 KiB weight sliver, a 1 KiB
// projection and two 256 B bias/norm vectors, plus one chunked 64 KiB
// embedding at the end. Dominated by op count, not bytes — the coalescing
// target workload.
dnn::Model make_small_tensor_model(gpu::GpuDevice& gpu, std::size_t blocks) {
  dnn::Model m{"gpt-bits", gpu};
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto tag = std::to_string(b);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".w", .shape = {512}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".proj", .shape = {256}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".bias", .shape = {64}}, false);
    m.add_tensor(dnn::TensorMeta{.name = "blk" + tag + ".norm", .shape = {64}}, false);
  }
  m.add_tensor(dnn::TensorMeta{.name = "embed", .shape = {64, 256}}, false);
  m.randomize_weights(0xB10C5);
  return m;
}

void paint_tensor(dnn::Model& m, std::size_t i, std::byte value) {
  auto& buf = m.tensor(i).buffer();
  buf.segment().fill(buf.offset(), buf.size(), value);
}

TEST(ExtentE2ETest, CoalescedCheckpointRestoreRoundTrips) {
  Rig r{PortusDaemon::Config{.pipeline_window = 8, .chunk_bytes = 4_KiB}};
  auto& gpu = r.cluster->node("client-volta").gpu(0);
  auto model = make_small_tensor_model(gpu, 8);
  PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous};

  bool ok = false;
  r.eng.spawn([](Rig& rig, PortusClient& c, dnn::Model& m, bool& done) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    EXPECT_EQ(c.stats().negotiated_max_sges, 16u)
        << "min(client NIC 30, daemon config 16)";

    co_await c.checkpoint(m, 1);
    const auto& s = rig.daemon->stats();
    EXPECT_GT(s.extents_coalesced, 0u);
    EXPECT_GT(s.sges_posted, s.wrs_posted) << "gather lists must be in play";
    EXPECT_LT(s.wrs_posted, m.layer_count())
        << "coalescing must post fewer WRs than tensors";
    EXPECT_GT(s.bytes_per_wr(), 0.0);

    // Incremental: dirty small tensors re-pull coalesced, clean ones ride
    // the pipeline as dense local copies.
    paint_tensor(m, 1, std::byte{0xB1});
    paint_tensor(m, 2, std::byte{0xB2});  // adjacent pair -> one dirty extent
    paint_tensor(m, 9, std::byte{0xB9});
    const auto golden = m.weights_crc();
    std::vector<std::uint32_t> dirty{1, 2, 9};
    co_await c.checkpoint_incremental(m, 2, std::move(dirty));

    m.mutate_weights(777);
    const auto epoch = co_await c.restore(m);
    EXPECT_EQ(epoch, 2u);
    EXPECT_EQ(m.weights_crc(), golden)
        << "multi-SGE gather/scatter must reassemble the exact bytes";
    done = true;
  }(r, client, model, ok));
  r.eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

TEST(ExtentE2ETest, ThresholdZeroMatchesCoalescedPerTensorCrcs) {
  // Two worlds, same model content: coalescing on vs off must persist the
  // exact same per-tensor payload CRCs (the layout differs — packed vs
  // 256-B-aligned — but every tensor's bytes are identical).
  const auto run_world = [](Bytes threshold) {
    Rig r{PortusDaemon::Config{.pipeline_window = 4, .chunk_bytes = 4_KiB,
                               .coalesce_threshold = threshold}};
    auto& gpu = r.cluster->node("client-volta").gpu(0);
    auto model = make_small_tensor_model(gpu, 6);
    PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous};
    r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
    }(client, model));
    r.eng.run();
    EXPECT_EQ(r.eng.failed_process_count(), 0);

    const auto idx = r.daemon->load_index("gpt-bits");
    const auto slot = idx.latest_done_slot();
    EXPECT_TRUE(slot.has_value());
    auto crcs = idx.payload_crcs(*slot);
    EXPECT_TRUE(crcs.has_value());
    if (threshold == 0) {
      EXPECT_EQ(r.daemon->stats().extents_coalesced, 0u)
          << "threshold 0 must run the classic single-SGE datapath";
      EXPECT_EQ(r.daemon->stats().sges_posted, r.daemon->stats().wrs_posted);
    } else {
      EXPECT_GT(r.daemon->stats().extents_coalesced, 0u);
    }
    return crcs->crcs;
  };

  const auto coalesced = run_world(4_KiB);
  const auto classic = run_world(0);
  EXPECT_EQ(coalesced, classic)
      << "per-tensor durability proof must be independent of extent planning";
}

// Elastic's resnet50 (scale 0.005, real payloads, 0.6-6 KB tensors) cut
// into 8 byte-balanced shards as the cluster client cuts it, shard 0 on one
// daemon: the default threshold fuses what 4 KiB leaves standalone, lands
// the per-tensor CRCs of the uncoalesced datapath, and restores bit-exact.
TEST(ExtentE2ETest, ElasticShardPostsFewerWrsAtTheDefaultThreshold) {
  struct Outcome {
    std::uint64_t wrs = 0;
    std::vector<std::uint32_t> crcs;
    bool bit_exact = false;
  };
  const auto run_world = [](Bytes threshold) {
    Rig r{PortusDaemon::Config{.coalesce_threshold = threshold}};
    auto& volta = r.cluster->node("client-volta");
    auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50",
                                       dnn::ModelZoo::Options{.scale = 0.005, .force_real = true});
    std::vector<Bytes> sizes;
    for (const auto& t : model.tensors()) sizes.push_back(t.byte_size());
    const std::uint32_t active[] = {0, 1};
    const auto plan = cluster::Placement::compute_over(model.name(), sizes, 8, 2, active, 1);
    PortusClient::ShardBinding binding;
    binding.reg_name = cluster::shard_key(model.name(), 0);
    binding.tensor_indices = plan.shard_tensors[0];
    binding.shard_count = 8;
    PortusClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous};

    Outcome out;
    r.eng.spawn([](PortusDaemon& d, PortusClient& c, dnn::Model& m,
                   PortusClient::ShardBinding b, Outcome& o) -> sim::Process {
      const auto key = b.reg_name;
      const auto members = b.tensor_indices;
      const auto tensor_crcs = [&] {
        std::vector<std::uint32_t> crcs;
        for (const auto i : members) {
          const auto& buf = m.tensor(i).buffer();
          crcs.push_back(buf.segment().crc(buf.offset(), m.tensor(i).byte_size()));
        }
        return crcs;
      };
      co_await c.connect();
      co_await c.register_shard(m, std::move(b));
      const auto golden = tensor_crcs();
      const auto wrs0 = d.stats().wrs_posted;
      co_await c.checkpoint_named(key, 1);
      o.wrs = d.stats().wrs_posted - wrs0;
      m.mutate_weights(99);
      co_await c.restore_named(key);
      o.bit_exact = tensor_crcs() == golden;
    }(*r.daemon, client, model, binding, out));
    r.eng.run();
    EXPECT_EQ(r.eng.failed_process_count(), 0);
    EXPECT_EQ(r.daemon->stats().failed_ops, 0u);
    const auto idx = r.daemon->load_index(binding.reg_name);
    const auto slot = idx.latest_done_slot();
    EXPECT_TRUE(slot.has_value());
    if (slot.has_value()) out.crcs = idx.payload_crcs(*slot)->crcs;
    return out;
  };

  const auto fused = run_world(PortusDaemon::Config{}.coalesce_threshold);
  const auto at_4k = run_world(4_KiB);
  const auto classic = run_world(0);
  EXPECT_LT(fused.wrs, at_4k.wrs);
  EXPECT_LT(at_4k.wrs, classic.wrs);
  EXPECT_FALSE(fused.crcs.empty());
  EXPECT_EQ(fused.crcs, classic.crcs)
      << "per-tensor durability proof must be independent of extent planning";
  EXPECT_TRUE(fused.bit_exact);
  EXPECT_TRUE(at_4k.bit_exact);
}

TEST(ExtentE2ETest, FsckIsCleanOnCoalescedImages) {
  Rig r{PortusDaemon::Config{.pipeline_window = 8, .chunk_bytes = 4_KiB}};
  auto& gpu = r.cluster->node("client-volta").gpu(0);
  auto model = make_small_tensor_model(gpu, 8);
  PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous};
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    for (std::uint64_t k = 1; k <= 2; ++k) {
      m.mutate_weights(k);
      co_await c.checkpoint(m, k);
    }
  }(client, model));
  r.eng.run();
  ASSERT_EQ(r.eng.failed_process_count(), 0);
  ASSERT_GT(r.daemon->stats().extents_coalesced, 0u);

  const auto report = Fsck{*r.daemon}.run(/*repair=*/false);
  EXPECT_TRUE(report.clean()) << "a coalesced image must scrub clean";
  EXPECT_EQ(report.corrupt_tensors, 0);
}

TEST(ExtentE2ETest, CoalescingCountersSurfaceThroughPortusctl) {
  Rig r{PortusDaemon::Config{.pipeline_window = 4, .chunk_bytes = 4_KiB}};
  auto& gpu = r.cluster->node("client-volta").gpu(0);
  auto model = make_small_tensor_model(gpu, 4);
  PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous};
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
  }(client, model));
  r.eng.run();
  ASSERT_EQ(r.eng.failed_process_count(), 0);

  Portusctl ctl{*r.daemon};
  const auto text = ctl.render_stats();
  EXPECT_NE(text.find("rdma wrs posted"), std::string::npos);
  EXPECT_NE(text.find("extents coalesced"), std::string::npos);
  EXPECT_NE(text.find("mean sges per wr"), std::string::npos);
  EXPECT_NE(text.find("bytes per wr"), std::string::npos);
  const auto& s = r.daemon->stats();
  EXPECT_GE(s.sges_posted, s.wrs_posted);
  EXPECT_LE(s.extents_coalesced, s.wrs_posted + s.chunks_posted);
}

}  // namespace
}  // namespace portus::core
