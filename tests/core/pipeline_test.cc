// Pipelined datapath engine: window=1 serial equivalence, chunk-boundary
// edge cases, crash consistency mid-pipeline, stripe/window end-to-end
// correctness, the worker pool's shortest-remaining-transfer-first order,
// and the client-side failure-recovery guard.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/daemon/daemon.h"
#include "core/daemon/pipeline.h"
#include "core/portusctl.h"
#include "dnn/model_zoo.h"
#include "mem/address_space.h"
#include "net/cluster.h"
#include "rdma/fabric.h"

namespace portus::core {
namespace {

using namespace std::chrono_literals;

// --- chunk_spans -------------------------------------------------------------

struct IndexFixture {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  PmemAllocator alloc{device, PmemAllocator::Config{.table_offset = 4_KiB,
                                                    .table_capacity = 128,
                                                    .data_offset = 1_MiB,
                                                    .data_end = 64_MiB}};
  RegisterModelMsg reg = [] {
    RegisterModelMsg m;
    m.model_name = "chunky";
    const Bytes sizes[] = {100, 1024, 1030, 4096};
    for (std::size_t i = 0; i < 4; ++i) {
      m.tensors.push_back(TensorDesc{.name = "t" + std::to_string(i), .size = sizes[i]});
    }
    return m;
  }();
};

TEST(ChunkSpansTest, ZeroChunkBytesYieldsOneSpanPerTensor) {
  IndexFixture f;
  const auto idx = MIndex::create(f.device, f.alloc, f.reg);
  const auto spans = idx.chunk_spans(0);
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].tensor, i);
    EXPECT_EQ(spans[i].offset, 0u);
    EXPECT_EQ(spans[i].len, idx.tensors()[i].size);
    EXPECT_EQ(spans[i].offset_in_slot, idx.tensors()[i].offset_in_slot);
  }
}

TEST(ChunkSpansTest, SplitsTensorsAtChunkBoundaries) {
  IndexFixture f;
  const auto idx = MIndex::create(f.device, f.alloc, f.reg);
  const auto spans = idx.chunk_spans(1024);
  // 100 (< chunk): 1 span; 1024 (exact): 1; 1030 (one over): 1024 + 6;
  // 4096 (multiple): 4 x 1024.
  ASSERT_EQ(spans.size(), 1u + 1u + 2u + 4u);
  EXPECT_EQ(spans[0].len, 100u);
  EXPECT_EQ(spans[1].len, 1024u);
  EXPECT_EQ(spans[2].len, 1024u);
  EXPECT_EQ(spans[3].len, 6u);
  EXPECT_EQ(spans[3].offset, 1024u);
  EXPECT_EQ(spans[3].offset_in_slot, idx.tensors()[2].offset_in_slot + 1024);
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(spans[i].tensor, 3u);
    EXPECT_EQ(spans[i].len, 1024u);
    EXPECT_EQ(spans[i].offset, (i - 4) * 1024);
  }
  // Full coverage, in layout order, no overlap.
  Bytes covered = 0;
  for (const auto& s : spans) covered += s.len;
  EXPECT_EQ(covered, 100u + 1024u + 1030u + 4096u);
}

// --- wire-level serial equivalence ------------------------------------------

// Two NICs + DRAM segments wired through one fabric, with `lanes` QP pairs
// all delivering into one server-side CQ — the shape a daemon session has.
struct WireRig {
  static constexpr Bytes kRegion = 16_MiB;

  sim::Engine eng;
  mem::AddressSpace as;
  rdma::Fabric fabric{eng};
  rdma::RdmaNic client_nic{eng, "client/nic"};
  rdma::RdmaNic server_nic{eng, "server/nic"};
  std::shared_ptr<mem::MemorySegment> src =
      as.create_segment("client/dram", mem::MemoryKind::kDram, kRegion);
  std::shared_ptr<mem::MemorySegment> dst =
      as.create_segment("server/dram", mem::MemoryKind::kDram, kRegion);
  rdma::ProtectionDomain& cpd = client_nic.alloc_pd("cpd");
  rdma::ProtectionDomain& spd = server_nic.alloc_pd("spd");
  rdma::CompletionQueue client_cq{eng};
  rdma::CompletionQueue server_cq{eng};
  const rdma::MemoryRegion* src_mr = nullptr;
  const rdma::MemoryRegion* dst_mr = nullptr;
  std::vector<rdma::QueuePair*> server_qps;

  // Back-to-back 256-aligned "tensors", mirroring MIndex slot layout.
  std::vector<Bytes> sizes{8_KiB, 300, 64_KiB, 256_KiB + 512, 128_KiB};
  std::vector<Bytes> offsets;

  WireRig(int lanes, int depth) {
    src_mr = &cpd.register_region(rdma::RegionDesc{
        .segment = src.get(), .addr = src->base_addr(), .length = kRegion});
    dst_mr = &spd.register_region(rdma::RegionDesc{
        .segment = dst.get(), .addr = dst->base_addr(), .length = kRegion});
    for (int i = 0; i < lanes; ++i) {
      auto& sqp = fabric.create_qp(server_nic, spd, server_cq, depth);
      auto& cqp = fabric.create_qp(client_nic, cpd, client_cq);
      fabric.connect(sqp, cqp);
      server_qps.push_back(&sqp);
    }
    Bytes cursor = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      offsets.push_back(cursor);
      src->fill(cursor, sizes[i], std::byte{static_cast<unsigned char>(0xC0 + i)});
      cursor += (sizes[i] + 255) & ~Bytes{255};
    }
  }

  std::vector<TransferChunk> pull_chunks() const {
    std::vector<TransferChunk> chunks;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      chunks.push_back(TransferChunk{.kind = TransferChunk::Kind::kRead,
                                     .tensor_index = i,
                                     .len = sizes[i],
                                     .lkey = dst_mr->lkey,
                                     .local_addr = dst_mr->addr + offsets[i],
                                     .rkey = src_mr->rkey,
                                     .remote_addr = src_mr->addr + offsets[i]});
    }
    return chunks;
  }

  void expect_bytes_arrived() const {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(dst->crc(offsets[i], sizes[i]), src->crc(offsets[i], sizes[i]))
          << "tensor " << i << " corrupted in flight";
    }
  }
};

Duration run_serial_pulls(WireRig& rig) {
  rig.eng.spawn([](WireRig& r) -> sim::Process {
    for (std::size_t i = 0; i < r.sizes.size(); ++i) {
      const auto wc = co_await r.server_qps[0]->read_sync(
          r.dst_mr->lkey, r.dst_mr->addr + r.offsets[i], r.sizes[i], r.src_mr->rkey,
          r.src_mr->addr + r.offsets[i]);
      EXPECT_EQ(wc.status, rdma::WcStatus::kSuccess);
    }
  }(rig));
  rig.eng.run();
  return rig.eng.now();
}

Duration run_pipelined_pulls(WireRig& rig, int window, PipelinedTransfer::Stats* out) {
  rig.eng.spawn([](WireRig& r, int w, PipelinedTransfer::Stats* stats) -> sim::Process {
    PipelinedTransfer pipe{r.eng, r.server_qps, r.server_cq,
                           PipelinedTransfer::Config{.window = w}};
    auto chunks = r.pull_chunks();
    co_await pipe.run(std::move(chunks));
    if (stats != nullptr) *stats = pipe.stats();
  }(rig, window, out));
  rig.eng.run();
  return rig.eng.now();
}

TEST(PipelineTest, WindowOneMatchesSerialPathExactly) {
  WireRig serial_rig{1, 1};
  const Duration serial = run_serial_pulls(serial_rig);
  serial_rig.expect_bytes_arrived();

  WireRig pipe_rig{1, 1};
  PipelinedTransfer::Stats stats;
  const Duration pipelined = run_pipelined_pulls(pipe_rig, 1, &stats);
  pipe_rig.expect_bytes_arrived();

  EXPECT_EQ(serial.count(), pipelined.count())
      << "window=1 must reproduce the serial datapath timing bit-for-bit";
  EXPECT_EQ(stats.chunks_posted, pipe_rig.sizes.size());
  EXPECT_EQ(stats.peak_window, 1);
}

TEST(PipelineTest, WindowedStripedPullsOverlapAndStayByteIdentical) {
  WireRig serial_rig{1, 1};
  const Duration serial = run_serial_pulls(serial_rig);

  WireRig pipe_rig{2, 8};
  PipelinedTransfer::Stats stats;
  const Duration pipelined = run_pipelined_pulls(pipe_rig, 8, &stats);
  pipe_rig.expect_bytes_arrived();

  EXPECT_LT(pipelined.count(), serial.count())
      << "a deep window over two stripes must beat the serial path";
  EXPECT_GT(stats.peak_window, 1);
  EXPECT_LE(stats.peak_window, 2 * 8);
  EXPECT_GT(stats.mean_window(), 1.0);
}

TEST(PipelineTest, FailedChunkDrainsWindowThenThrows) {
  WireRig rig{1, 4};
  bool threw = false;
  rig.eng.spawn([](WireRig& r, bool& out) -> sim::Process {
    PipelinedTransfer pipe{r.eng, r.server_qps, r.server_cq,
                           PipelinedTransfer::Config{.window = 4}};
    auto chunks = r.pull_chunks();
    chunks[2].rkey = 0xDEAD;  // poison one chunk mid-list
    try {
      co_await pipe.run(std::move(chunks));
    } catch (const Error&) {
      out = true;
    }
  }(rig, threw));
  rig.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(rig.eng.failed_process_count(), 0)
      << "the failure must surface in run(), not as an orphaned process";
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

void paint_tensor(dnn::Model& m, std::size_t i, std::byte value) {
  auto& buf = m.tensor(i).buffer();
  buf.segment().fill(buf.offset(), buf.size(), value);
}

TEST(PipelineTest, ChunkedStripedCheckpointRestoreRoundTrips) {
  Rig r{PortusDaemon::Config{.pipeline_window = 4, .chunk_bytes = 4_KiB, .stripes = 2}};
  auto& gpu = r.cluster->node("client-volta").gpu(0);
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(gpu, "resnet50", opt);
  PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                      "portusd", /*stripes=*/2};

  bool ok = false;
  r.eng.spawn([](Rig& rig, PortusClient& c, dnn::Model& m, bool& done) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    EXPECT_EQ(c.stats().negotiated_stripes, 2u);

    co_await c.checkpoint(m, 1);
    const auto crc_epoch1 = m.weights_crc();

    // Incremental round: local copies must interleave into the pipeline.
    paint_tensor(m, 0, std::byte{0xA0});
    paint_tensor(m, 7, std::byte{0xA7});
    const auto crc_epoch2 = m.weights_crc();
    std::vector<std::uint32_t> dirty{0, 7};
    co_await c.checkpoint_incremental(m, 2, std::move(dirty));

    m.mutate_weights(999);
    const auto epoch = co_await c.restore(m);
    EXPECT_EQ(epoch, 2u);
    EXPECT_EQ(m.weights_crc(), crc_epoch2)
        << "chunked+striped pull/copy/push must reassemble the exact state";
    EXPECT_NE(crc_epoch1, crc_epoch2);

    const auto& s = rig.daemon->stats();
    EXPECT_GT(s.chunks_posted, 3 * m.layer_count())
        << "4 KiB chunks over ~13 KiB tensors must split";
    EXPECT_GT(s.local_chunks, 0u) << "clean tensors ride the pipeline as local copies";
    EXPECT_GT(s.peak_window, 1);
    EXPECT_LE(s.peak_window, 2 * 4);
    EXPECT_GT(s.mean_window(), 0.0);
    done = true;
  }(r, client, model, ok));
  r.eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

TEST(PipelineTest, PipelinedCheckpointBeatsSerialEndToEnd) {
  const auto run_world = [](PortusDaemon::Config config, int stripes) {
    Rig r{std::move(config)};
    auto& gpu = r.cluster->node("client-volta").gpu(0);
    dnn::ModelZoo::Options opt;
    opt.scale = 0.02;
    auto model = dnn::ModelZoo::create(gpu, "resnet50", opt);
    PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                        "portusd", stripes};
    r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
    }(client, model));
    r.eng.run();
    EXPECT_EQ(r.eng.failed_process_count(), 0);
    return client.stats().last_checkpoint;
  };

  const Duration serial = run_world(PortusDaemon::Config{}, 1);
  const Duration pipelined = run_world(
      PortusDaemon::Config{.pipeline_window = 8, .chunk_bytes = 64_KiB, .stripes = 2}, 2);
  EXPECT_LT(to_seconds(pipelined), to_seconds(serial) * 0.6)
      << "windowed+striped datapath must clearly beat the serial loop "
      << "(serial " << serial.count() << " ns, pipelined " << pipelined.count() << " ns)";
}

TEST(PipelineTest, CrashMidPipelineNeverLeavesTornDoneSlot) {
  for (const double fraction : {0.3, 0.5, 0.7}) {
    Rig r{PortusDaemon::Config{.pipeline_window = 8, .chunk_bytes = 2_KiB, .stripes = 2}};
    auto& gpu = r.cluster->node("client-volta").gpu(0);
    dnn::ModelZoo::Options opt;
    opt.scale = 0.02;
    auto model = dnn::ModelZoo::create(gpu, "resnet50", opt);
    PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                        "portusd", /*stripes=*/2};

    // Epoch 1 completes cleanly.
    r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
    }(client, model));
    r.eng.run();
    ASSERT_EQ(r.eng.failed_process_count(), 0);
    const Duration full_op = client.stats().last_checkpoint;

    // Power fails partway through epoch 2, with a full transfer window in
    // flight and per-chunk persists racing the pulls.
    model.mutate_weights(2);
    bool finished = false;
    r.eng.spawn([](PortusClient& c, dnn::Model& m, bool& done) -> sim::Process {
      try {
        co_await c.checkpoint(m, 2);
      } catch (const Error&) {
        // teardown mid-op
      }
      done = true;
    }(client, model, finished));
    const auto cut = r.eng.now() + Duration{static_cast<Duration::rep>(
                                       static_cast<double>(full_op.count()) * fraction)};
    r.eng.run_until(cut);
    ASSERT_FALSE(finished) << "fraction " << fraction << " must land mid-checkpoint";
    r.daemon->device().simulate_crash();

    // Recovery: whatever survives, a DONE slot must be fully persisted and
    // the interrupted slot must not be restorable.
    const auto idx = r.daemon->load_index("resnet50");
    const auto done_slot = idx.latest_done_slot();
    ASSERT_TRUE(done_slot.has_value()) << "epoch 1 must remain restorable";
    EXPECT_EQ(idx.slot(*done_slot).epoch, 1u)
        << "the interrupted epoch-2 slot must never surface as DONE";
    for (int s = 0; s < 2; ++s) {
      if (idx.slot(s).state == SlotState::kDone) {
        EXPECT_TRUE(
            r.daemon->device().is_persisted(idx.slot(s).data_offset, idx.slot_size()))
            << "slot " << s << " is DONE but holds unpersisted bytes";
      } else {
        EXPECT_NE(idx.slot(s).state, SlotState::kDone);
      }
    }
  }
}

TEST(PipelineTest, StatsSurfaceThroughPortusctl) {
  Rig r{PortusDaemon::Config{.pipeline_window = 4, .chunk_bytes = 8_KiB, .stripes = 2}};
  auto& gpu = r.cluster->node("client-volta").gpu(0);
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(gpu, "alexnet", opt);
  PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                      "portusd", /*stripes=*/2};
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
    m.mutate_weights(5);
    co_await c.restore(m);
  }(client, model));
  r.eng.run();
  ASSERT_EQ(r.eng.failed_process_count(), 0);

  Portusctl ctl{*r.daemon};
  const auto text = ctl.render_stats();
  EXPECT_NE(text.find("peak window occupancy"), std::string::npos);
  EXPECT_NE(text.find("chunks posted"), std::string::npos);
  EXPECT_NE(text.find("queue delay"), std::string::npos);
  EXPECT_NE(text.find("worker yields"), std::string::npos);
  EXPECT_NE(text.find("worker wait"), std::string::npos);
  EXPECT_NE(text.find("restore holds"), std::string::npos);
  EXPECT_NE(text.find("restore hold "), std::string::npos);
  const auto& s = r.daemon->stats();
  EXPECT_GT(s.chunks_posted, 0u);
  EXPECT_EQ(s.chunks_posted, s.rdma_chunks + s.local_chunks);
  EXPECT_GE(s.queue_delay_max, s.mean_queue_delay());
}

// --- worker pool: shortest remaining transfer first --------------------------

// A one-worker daemon serving a large model (vgg19_bn) and a small one
// (resnet50) through a client each, both registered and at epoch 1.
struct PoolRig {
  Rig r{PortusDaemon::Config{.workers = 1}};
  net::Node& volta = r.cluster->node("client-volta");
  dnn::Model big = make(volta.gpu(0), "vgg19_bn");
  dnn::Model small = make(volta.gpu(1), "resnet50");
  PortusClient big_client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  PortusClient small_client{*r.cluster, volta, volta.gpu(1), r.rendezvous};
  rdma::CompletionQueue probe_cq{r.eng};
  rdma::ProtectionDomain* big_pd = nullptr;  // what the big client registered in

  // When the small op starts, counted from the large one's start: well
  // inside the large one's transfer.
  static constexpr Duration kSmallArrives = 300us;

  static dnn::Model make(gpu::GpuDevice& gpu, const std::string& name) {
    dnn::ModelZoo::Options opt;
    opt.scale = 0.02;
    return dnn::ModelZoo::create(gpu, name, opt);
  }

  PoolRig() {
    // The big client publishes the token after this probe's.
    auto& probe_pd = volta.nic().alloc_pd("probe");
    const auto probe = r.rendezvous.publish(r.cluster->fabric().create_qp(
        volta.nic(), probe_pd, probe_cq));
    auto proc = r.eng.spawn([](PoolRig& p) -> sim::Process {
      for (auto* c : {&p.big_client, &p.small_client}) co_await c->connect();
      co_await p.big_client.register_model(p.big);
      co_await p.small_client.register_model(p.small);
      co_await p.big_client.checkpoint(p.big, 1);
      co_await p.small_client.checkpoint(p.small, 1);
    }(*this));
    r.eng.run();
    proc.check();
    big_pd = &r.rendezvous.resolve(probe + 1).pd();
  }

  // Revoke every region the big client registered, as when its process
  // dies: the daemon's next WR to it fails.
  void revoke_big() {
    for (std::uint32_t key = 0; big_pd->region_count() > 0; ++key) {
      if (big_pd->find_by_lkey(key) != nullptr) big_pd->deregister(key);
    }
  }
};

sim::Process as_process(sim::SubTask<> task) { co_await task; }

// A restore that starts `delay` from now and records when it ended, or in
// `failed` that it failed.
sim::SubTask<> timed_restore(sim::Engine& eng, PortusClient& c, dnn::Model& m, Duration delay,
                             std::optional<Time>& done, bool& failed) {
  co_await eng.sleep(delay);
  try {
    co_await c.restore(m);
  } catch (const Error&) {
    failed = true;
  }
  done = eng.now();
}

// The head-of-line stall a lone restore of the large (or small) model adds
// to the daemon's queue delay.
Duration lone_restore_queue_delay(bool big) {
  PoolRig p;
  const auto before = p.r.daemon->stats().queue_delay_total;
  std::optional<Time> done;
  bool failed = false;
  p.r.eng.spawn(as_process(timed_restore(p.r.eng, big ? p.big_client : p.small_client,
                                         big ? p.big : p.small, 0us, done, failed)));
  p.r.eng.run();
  EXPECT_FALSE(failed);
  return p.r.daemon->stats().queue_delay_total - before;
}

TEST(WorkerPoolTest, SmallRestoreArrivingMidwayOvertakesTheLargeOne) {
  PoolRig p;
  const auto queue_delay_before = p.r.daemon->stats().queue_delay_total;
  const auto big_want = p.big.weights_crc();
  const auto small_want = p.small.weights_crc();
  p.big.mutate_weights(91);
  p.small.mutate_weights(92);
  std::optional<Time> big_done, small_done;
  bool big_failed = false, small_failed = false;
  p.r.eng.spawn(
      as_process(timed_restore(p.r.eng, p.big_client, p.big, 0us, big_done, big_failed)));
  p.r.eng.spawn(as_process(timed_restore(p.r.eng, p.small_client, p.small,
                                         PoolRig::kSmallArrives, small_done, small_failed)));
  p.r.eng.run();
  ASSERT_TRUE(big_done && small_done);
  EXPECT_FALSE(big_failed || small_failed);
  EXPECT_LT(*small_done, *big_done) << "the small restore waited out the large one";
  EXPECT_EQ(p.big.weights_crc(), big_want);
  EXPECT_EQ(p.small.weights_crc(), small_want);
  const auto& s = p.r.daemon->stats();
  EXPECT_GE(s.worker_yields, 1u);
  EXPECT_GT(s.worker_wait_seconds, 0.0);
  EXPECT_EQ(p.r.daemon->idle_workers(), 1);
  EXPECT_EQ(p.r.eng.failed_process_count(), 0);
  // The large restore's wait for its lent worker is no head-of-line stall.
  EXPECT_EQ((s.queue_delay_total - queue_delay_before).count(),
            (lone_restore_queue_delay(true) + lone_restore_queue_delay(false)).count());
}

sim::Process timed_checkpoint(sim::Engine& eng, PortusClient& c, dnn::Model& m, Duration delay,
                              std::optional<Time>& done) {
  co_await eng.sleep(delay);
  EXPECT_EQ(co_await c.checkpoint(m, 2), 2u);
  done = eng.now();
}

TEST(WorkerPoolTest, SmallCheckpointArrivingMidwayOvertakesTheLargeOne) {
  PoolRig p;
  p.big.mutate_weights(2);
  p.small.mutate_weights(2);
  std::optional<Time> big_done, small_done;
  p.r.eng.spawn(timed_checkpoint(p.r.eng, p.big_client, p.big, 0us, big_done));
  p.r.eng.spawn(
      timed_checkpoint(p.r.eng, p.small_client, p.small, PoolRig::kSmallArrives, small_done));
  p.r.eng.run();
  ASSERT_TRUE(big_done && small_done);
  EXPECT_LT(*small_done, *big_done) << "the small checkpoint waited out the large one";
  for (const auto* m : {&p.big, &p.small}) {
    SCOPED_TRACE(m->name());
    const MIndex* index = p.r.daemon->find_live_index(m->name());
    ASSERT_NE(index, nullptr);
    const auto slot = index->latest_done_slot();
    ASSERT_TRUE(slot.has_value());
    EXPECT_EQ(index->slot(*slot).epoch, 2u);
    EXPECT_TRUE(index->check_payload(*slot, MIndex::Scrub::kAll).ok())
        << "the DONE slot's CRC block does not vouch for its bytes";
  }
  EXPECT_GE(p.r.daemon->stats().worker_yields, 1u);
  EXPECT_EQ(p.r.daemon->idle_workers(), 1);
  EXPECT_EQ(p.r.eng.failed_process_count(), 0);
}

// The large restore lends its worker to the small one, and its client dies
// while it waits: its next WR fails, and the worker goes back to the pool.
TEST(WorkerPoolTest, TransferFailingAfterAHandOverReturnsItsWorker) {
  PoolRig p;
  const auto small_want = p.small.weights_crc();
  p.small.mutate_weights(92);
  std::optional<Time> big_done, small_done;
  bool big_failed = false, small_failed = false;
  p.r.eng.spawn(
      as_process(timed_restore(p.r.eng, p.big_client, p.big, 0us, big_done, big_failed)));
  p.r.eng.spawn([](PoolRig& rig, std::optional<Time>& done, std::optional<Time>& big,
                   bool& failed) -> sim::Process {
    co_await timed_restore(rig.r.eng, rig.small_client, rig.small, PoolRig::kSmallArrives,
                           done, failed);
    EXPECT_FALSE(big.has_value()) << "the large restore ended before the small one";
    rig.revoke_big();
  }(p, small_done, big_done, small_failed));
  p.r.eng.run();
  EXPECT_TRUE(big_failed);
  EXPECT_FALSE(small_failed);
  EXPECT_EQ(p.small.weights_crc(), small_want);
  const auto& s = p.r.daemon->stats();
  EXPECT_GE(s.worker_yields, 1u);
  EXPECT_EQ(s.failed_ops, 1u);
  EXPECT_EQ(p.r.daemon->idle_workers(), 1) << "the failed restore kept or invented a worker";
  EXPECT_EQ(p.r.eng.failed_process_count(), 0);
}

// --- client-side failure guard (roundtrip RAII) ------------------------------

TEST(PipelineTest, FailedRoundtripDoesNotWedgeClient) {
  Rig r;
  // A "daemon" that accepts, reads one request, and dies without replying.
  r.cluster->listen("deadd");
  r.eng.spawn([](Rig& rig) -> sim::Process {
    auto socket = co_await rig.cluster->endpoint("deadd").accept();
    co_await socket->recv();
    socket->close();
  }(r));

  auto& gpu = r.cluster->node("client-volta").gpu(0);
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(gpu, "alexnet", opt);
  PortusClient client{*r.cluster, r.cluster->node("client-volta"), gpu, r.rendezvous,
                      "deadd"};

  bool ok = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m, bool& done) -> sim::Process {
    co_await c.connect();
    bool threw = false;
    try {
      co_await c.checkpoint(m, 1);
    } catch (const Disconnected&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    // The op slot must be free again: a second attempt fails on the dead
    // socket, not on the "one op at a time" guard.
    try {
      co_await c.checkpoint(m, 2);
    } catch (const Error& e) {
      EXPECT_EQ(std::string{e.what()}.find("one control-plane"), std::string::npos)
          << "a failed roundtrip wedged op_in_flight_";
    }
    done = true;
  }(client, model, ok));
  r.eng.run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace portus::core
