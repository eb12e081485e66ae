// Client registration: PortusClient pins one PeerMem region and registers
// one RDMA MR per run of adjacent GPU allocations in a binding, and every
// TensorDesc of a run carries the run's rkey. Most cases register against
// a stand-in daemon that acks and keeps the packet, so they can read the
// exact addresses and rkeys the client published and probe them with
// one-sided verbs; the round-trip and re-registration cases run a real
// PortusDaemon.
#include <gtest/gtest.h>

#include "common/strformat.h"
#include "core/client.h"
#include "core/daemon/daemon.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"

namespace portus::core {
namespace {

constexpr const char* kStandIn = "stand-in";

struct Rig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  net::Node& client_node = cluster->node("client-volta");
  net::Node& server_node = cluster->node("server");
  gpu::GpuDevice& gpu = client_node.gpu(0);
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon;
  PortusClient client;

  // What the stand-in daemon received and answered.
  RegisterModelMsg sent;
  Bytes sent_bytes = 0;
  Bytes ack_bytes = 0;
  std::shared_ptr<net::TcpSocket> session;  // held open so the ack lands

  explicit Rig(bool real_daemon = false, PortusDaemon::Config daemon_config = {})
      : client{*cluster, client_node, gpu, rendezvous, real_daemon ? "portusd" : kStandIn} {
    if (real_daemon) {
      daemon = std::make_unique<PortusDaemon>(*cluster, server_node, rendezvous, daemon_config);
      daemon->start();
      return;
    }
    cluster->listen(kStandIn);
    eng.spawn([](Rig& r) -> sim::Process {
      auto& listener = r.cluster->endpoint(kStandIn);
      r.session = co_await listener.accept();
      const auto wire = co_await r.session->recv();
      r.sent_bytes = wire.size();
      r.sent = decode_register_model(wire);
      RegisterAckMsg ack;
      ack.ok = true;
      auto ack_wire = encode(ack);
      r.ack_bytes = ack_wire.size();
      r.session->send(std::move(ack_wire));
    }(*this));
  }
  ~Rig() { eng.shutdown(); }  // destroy coroutines before daemon/cluster

  // Register `ids` of `model` as shard "<model>#s0"; no ids = the whole
  // model through register_model().
  void register_tensors(dnn::Model& model, std::vector<std::uint32_t> ids = {}) {
    auto proc = eng.spawn([](PortusClient& c, dnn::Model& m,
                             std::vector<std::uint32_t> idx) -> sim::Process {
      co_await c.connect();
      if (idx.empty()) {
        co_await c.register_model(m);
        co_return;
      }
      PortusClient::ShardBinding binding;
      binding.reg_name = m.name() + "#s0";
      binding.tensor_indices = std::move(idx);
      co_await c.register_shard(m, std::move(binding));
    }(client, model, std::move(ids)));
    eng.run();
    proc.check();
  }

  // The client-side MR behind `rkey`, found through the protection domain
  // of the datapath QP the client offered.
  const rdma::MemoryRegion& region(std::uint32_t rkey) {
    const auto* mr = rendezvous.resolve(sent.qp_tokens.at(0)).pd().find_by_rkey(rkey);
    PORTUS_CHECK(mr != nullptr, "no client MR with that rkey");
    return *mr;
  }
};

dnn::TensorMeta f32(std::string name, Bytes bytes) {
  return dnn::TensorMeta{.name = std::move(name),
                         .dtype = dnn::DType::kF32,
                         .shape = {static_cast<std::int64_t>(bytes / 4)}};
}

// Four real tensors back to back. Tensors 0, 1 and 3 leave an allocator
// pad behind them (1000 -> 1024, 3000 -> 3072, 700 -> 1024 bytes).
dnn::Model four_tensor_model(gpu::GpuDevice& gpu) {
  dnn::Model m{"four", gpu};
  const Bytes sizes[] = {1000, 3000, 2048, 700};
  for (std::size_t i = 0; i < 4; ++i) m.add_tensor(f32(strf("four.t{}", i), sizes[i]), false);
  m.randomize_weights(7);
  return m;
}

// What PeerMem charges to pin `bytes` (gpu/peer_mem.cc).
Duration pin_time(Bytes bytes) {
  const double mib = static_cast<double>(bytes) / static_cast<double>(1_MiB);
  return gpu::PeerMem::kBaseLatency +
         Duration{static_cast<Duration::rep>(mib * gpu::PeerMem::kPerMiB.count())};
}

// One control-channel message of `bytes` (net/tcp.cc).
Duration tcp_time(Bytes bytes) {
  return net::TcpSocket::kLatency +
         from_seconds(static_cast<double>(bytes) / net::TcpSocket::kBytesPerSec);
}

TEST(ClientRegistrationTest, TableIIModelPinsOneRegion) {
  for (const auto& name : dnn::ModelZoo::table2_names()) {
    SCOPED_TRACE(name);
    Rig r;
    dnn::ModelZoo::Options opt;
    opt.force_phantom = true;
    auto model = dnn::ModelZoo::create(r.gpu, name, opt);
    r.register_tensors(model);
    EXPECT_EQ(r.client.stats().regions_registered, 1u);

    const auto& tensors = model.tensors();
    ASSERT_EQ(r.sent.tensors.size(), tensors.size());
    for (std::size_t i = 0; i < tensors.size(); ++i) {
      EXPECT_EQ(r.sent.tensors[i].gpu_addr, tensors[i].buffer().global_addr());
      EXPECT_EQ(r.sent.tensors[i].size, tensors[i].byte_size());
      EXPECT_EQ(r.sent.tensors[i].rkey, r.sent.tensors[0].rkey);
    }
    const auto& mr = r.region(r.sent.tensors[0].rkey);
    const auto& last = tensors.back().buffer();
    EXPECT_EQ(mr.addr, tensors.front().buffer().global_addr());
    EXPECT_EQ(mr.addr + mr.length, last.global_addr() + last.size());
    EXPECT_TRUE(mr.phantom);
    // One pin of the whole span plus the control roundtrip, nothing else.
    EXPECT_EQ(r.client.stats().registration_time,
              pin_time(mr.length) + tcp_time(r.sent_bytes) + tcp_time(r.ack_bytes));
  }
}

// A client that is not connected yet dials its daemon while its run pins,
// so its first registration costs the pin plus one round trip: the dial
// hides under the pin.
TEST(ClientRegistrationTest, UnconnectedClientDialsWhileItPins) {
  Rig r;
  auto model = four_tensor_model(r.gpu);
  auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);  // no connect()
  }(r.client, model));
  r.eng.run();
  proc.check();
  EXPECT_TRUE(r.client.connected());
  EXPECT_EQ(r.client.stats().regions_registered, 1u);
  const auto& mr = r.region(r.sent.tensors[0].rkey);
  ASSERT_GT(pin_time(mr.length), 2 * net::TcpSocket::kLatency);
  EXPECT_EQ(r.client.stats().registration_time,
            pin_time(mr.length) + tcp_time(r.sent_bytes) + tcp_time(r.ack_bytes));
}

TEST(ClientRegistrationTest, ShardBindingSplitsAtTheSkippedTensor) {
  Rig r;
  auto model = four_tensor_model(r.gpu);
  r.register_tensors(model, {0, 1, 3});
  EXPECT_EQ(r.client.stats().regions_registered, 2u);

  // TensorDescs stay in binding order, each with its own address and size.
  const auto& d = r.sent.tensors;
  const std::uint32_t ids[] = {0, 1, 3};
  ASSERT_EQ(d.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(d[k].name, model.tensor(ids[k]).name());
    EXPECT_EQ(d[k].gpu_addr, model.tensor(ids[k]).buffer().global_addr());
    EXPECT_EQ(d[k].size, model.tensor(ids[k]).byte_size());
  }
  EXPECT_EQ(d[0].rkey, d[1].rkey);
  EXPECT_NE(d[1].rkey, d[2].rkey);

  // Each MR spans [first tensor start, last tensor start + last size).
  const auto& front = r.region(d[0].rkey);
  EXPECT_EQ(front.addr, d[0].gpu_addr);
  EXPECT_EQ(front.addr + front.length, d[1].gpu_addr + d[1].size);
  const auto& back = r.region(d[2].rkey);
  EXPECT_EQ(back.addr, d[2].gpu_addr);
  EXPECT_EQ(back.length, d[2].size);
}

// Post one one-sided op from `qp` into the client's memory.
sim::SubTask<rdma::WcStatus> probe(rdma::QueuePair& qp, const rdma::MemoryRegion& local,
                                   bool write, std::uint32_t rkey, std::uint64_t addr,
                                   Bytes len) {
  rdma::WorkCompletion wc;
  if (write) {
    wc = co_await qp.write_sync(local.lkey, local.addr, len, rkey, addr);
  } else {
    wc = co_await qp.read_sync(local.lkey, local.addr, len, rkey, addr);
  }
  co_return wc.status;
}

TEST(ClientRegistrationTest, NoRegionCoversTheSkippedTensor) {
  Rig r;
  auto model = four_tensor_model(r.gpu);
  r.register_tensors(model, {0, 1, 3});
  const auto& skipped = model.tensor(2).buffer();
  const std::uint64_t lo = skipped.global_addr();
  const std::uint64_t hi = lo + gpu::GpuDevice::footprint(skipped.size());
  for (const auto& d : r.sent.tensors) {
    const auto& mr = r.region(d.rkey);
    EXPECT_TRUE(mr.addr + mr.length <= lo || mr.addr >= hi) << d.name << "'s MR reaches tensor 2";
  }

  // One-sided verbs from the storage node, posted the way the daemon does.
  auto& pd = r.server_node.nic().alloc_pd("probe-pd");
  rdma::CompletionQueue cq{r.eng};
  auto& qp = r.cluster->fabric().create_qp(r.server_node.nic(), pd, cq);
  r.cluster->fabric().connect(qp, r.rendezvous.resolve(r.sent.qp_tokens.at(0)));
  const auto& local = pd.register_region(r.server_node.dram_region(0, 64_KiB));

  struct Op {
    bool write;
    std::uint32_t rkey;
    std::uint64_t addr;
    Bytes len;
    rdma::WcStatus want;
  };
  const auto run_rkey = r.sent.tensors[0].rkey;   // tensors {0, 1}
  const auto tail_rkey = r.sent.tensors[2].rkey;  // tensor {3}
  const auto t1_end = r.sent.tensors[1].gpu_addr + r.sent.tensors[1].size;
  const Bytes len = skipped.size();
  const auto ok = rdma::WcStatus::kSuccess;
  const auto denied = rdma::WcStatus::kRemoteAccessError;
  const std::vector<Op> ops = {
      {false, run_rkey, r.sent.tensors[0].gpu_addr, t1_end - r.sent.tensors[0].gpu_addr, ok},
      {false, run_rkey, lo, 1, denied},
      {false, run_rkey, lo + len - 1, 1, denied},
      {true, run_rkey, lo, len, denied},
      {false, tail_rkey, lo, 1, denied},
      {true, tail_rkey, lo + len - 1, 1, denied},
      // The pad after a run's last tensor is not part of the run either.
      {false, run_rkey, t1_end, 1, denied},
  };
  const auto before = skipped.crc();
  std::vector<rdma::WcStatus> got;
  auto proc = r.eng.spawn([](rdma::QueuePair& q, const rdma::MemoryRegion& buf,
                             std::vector<Op> todo,
                             std::vector<rdma::WcStatus>& out) -> sim::Process {
    for (const auto& op : todo) {
      const auto status = co_await probe(q, buf, op.write, op.rkey, op.addr, op.len);
      out.push_back(status);
    }
  }(qp, local, ops, got));
  r.eng.run();
  proc.check();
  ASSERT_EQ(got.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) EXPECT_EQ(got[i], ops[i].want) << "op " << i;
  EXPECT_EQ(skipped.crc(), before);
}

TEST(ClientRegistrationTest, ShardRoundTripIsBitExactAndLeavesTheSkippedTensor) {
  Rig r{/*real_daemon=*/true};
  auto model = four_tensor_model(r.gpu);
  r.register_tensors(model, {0, 1, 3});
  EXPECT_EQ(r.client.stats().regions_registered, 2u);

  const std::uint32_t ids[] = {0, 1, 3};
  std::vector<std::uint32_t> saved;
  for (const auto i : ids) saved.push_back(model.tensor(i).buffer().crc());
  const auto skipped_before = model.tensor(2).buffer().crc();

  std::uint32_t skipped_clobbered = 0;
  auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& m,
                             std::uint32_t& clobbered) -> sim::Process {
    const std::string name = m.name() + "#s0";
    co_await c.checkpoint_named(name, 1);
    m.mutate_weights(9);  // every tensor diverges, tensor 2 included
    clobbered = m.tensor(2).buffer().crc();
    co_await c.restore_named(name);
  }(r.client, model, skipped_clobbered));
  r.eng.run();
  proc.check();

  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(model.tensor(ids[k]).buffer().crc(), saved[k]) << "tensor " << ids[k];
  }
  EXPECT_NE(skipped_clobbered, skipped_before);
  EXPECT_EQ(model.tensor(2).buffer().crc(), skipped_clobbered)
      << "restore wrote into a tensor the shard does not bind";
  EXPECT_EQ(r.daemon->stats().failed_ops, 0u);
}

// A known model re-registers only with the layout its index stores. Here
// tensors 0 and 1 swap sizes: reusing the stored slot would restore the
// stored 8 KiB tensor 0 over the first 4 KiB of tensor 1, which sits
// inside the same run-wide MR.
TEST(ClientRegistrationTest, ReRegistrationWithAnotherLayoutIsRefused) {
  Rig r{/*real_daemon=*/true};
  const auto model = [](gpu::GpuDevice& gpu, std::initializer_list<Bytes> sizes) {
    dnn::Model m{"m", gpu};
    for (const auto bytes : sizes) {
      m.add_tensor(f32(strf("m.t{}", m.tensors().size()), bytes), false);
    }
    return m;
  };
  auto stored = model(r.gpu, {8_KiB, 4_KiB, 4_KiB});
  stored.randomize_weights(1);
  r.register_tensors(stored);
  const auto stored_crc = stored.weights_crc();
  auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.checkpoint(m, 1);
  }(r.client, stored));
  r.eng.run();
  proc.check();

  // A relaunch on another GPU with a different layout under the same name.
  auto& gpu1 = r.client_node.gpu(1);
  auto relaunched = model(gpu1, {4_KiB, 8_KiB, 4_KiB});
  relaunched.randomize_weights(2);
  const auto relaunched_crc = relaunched.weights_crc();
  PortusClient other{*r.cluster, r.client_node, gpu1, r.rendezvous, "portusd"};
  std::string error;
  auto reg = r.eng.spawn([](PortusClient& c, dnn::Model& m, std::string& out) -> sim::Process {
    co_await c.connect();
    try {
      co_await c.register_model(m);
    } catch (const Error& e) {
      out = e.what();
    }
  }(other, relaunched, error));
  r.eng.run();
  reg.check();
  EXPECT_NE(error.find("tensor 0"), std::string::npos) << error;
  EXPECT_NE(error.find("m.t0"), std::string::npos) << error;
  EXPECT_EQ(r.daemon->stats().failed_ops, 1u);
  EXPECT_EQ(relaunched.weights_crc(), relaunched_crc);

  // The stored image and the original session are untouched.
  stored.mutate_weights(3);
  auto restore = r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.restore(m);
  }(r.client, stored));
  r.eng.run();
  restore.check();
  EXPECT_EQ(stored.weights_crc(), stored_crc);
}

// Registers `model` with the real daemon through a fresh client; returns
// the refusal the client surfaced, empty when the registration landed.
std::string register_refusal(Rig& r, dnn::Model& model) {
  PortusClient client{*r.cluster, r.client_node, r.gpu, r.rendezvous, "portusd"};
  std::string error;
  auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& m, std::string& out) -> sim::Process {
    co_await c.connect();
    try {
      co_await c.register_model(m);
    } catch (const Error& e) {
      out = e.what();
    }
  }(client, model, error));
  r.eng.run();
  proc.check();
  return error;
}

TEST(ClientRegistrationTest, RefusedNameLeavesNoPmemBehind) {
  Rig r{/*real_daemon=*/true};
  dnn::Model model{std::string(60, 'n'), r.gpu};  // a ModelTable entry holds 47 chars
  model.add_tensor(f32("w", 1_MiB), /*phantom=*/true);
  const Bytes live = r.daemon->allocator().live_bytes();
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const auto error = register_refusal(r, model);
    EXPECT_NE(error.find("1..47 chars"), std::string::npos) << error;
    EXPECT_EQ(r.daemon->allocator().live_bytes(), live) << "attempt " << attempt;
  }
  EXPECT_EQ(r.daemon->model_table().size(), 0u);
  EXPECT_EQ(r.daemon->stats().failed_ops, 3u);
}

TEST(ClientRegistrationTest, FullModelTableLeavesNoPmemBehind) {
  PortusDaemon::Config cfg;
  cfg.model_table_capacity = 1;
  Rig r{/*real_daemon=*/true, cfg};
  dnn::Model first{"first", r.gpu};
  first.add_tensor(f32("w", 1_MiB), /*phantom=*/true);
  dnn::Model second{"second", r.gpu};
  second.add_tensor(f32("w", 1_MiB), /*phantom=*/true);
  EXPECT_EQ(register_refusal(r, first), "");
  const Bytes live = r.daemon->allocator().live_bytes();

  // The second model's index is laid out before the table turns it away.
  const auto error = register_refusal(r, second);
  EXPECT_NE(error.find("ModelTable full"), std::string::npos) << error;
  EXPECT_EQ(r.daemon->allocator().live_bytes(), live);
  EXPECT_EQ(r.daemon->model_table().names(), std::vector<std::string>{"first"});
  EXPECT_EQ(r.daemon->stats().failed_ops, 1u);
}

TEST(ClientRegistrationTest, PhantomFlagChangeSplitsARun) {
  Rig r;
  dnn::Model model{"mixed", r.gpu};
  for (int i = 0; i < 4; ++i) model.add_tensor(f32(strf("mixed.t{}", i), 1024), i >= 2);
  r.register_tensors(model);
  EXPECT_EQ(r.client.stats().regions_registered, 2u);
  const auto& d = r.sent.tensors;
  EXPECT_EQ(d[0].rkey, d[1].rkey);
  EXPECT_EQ(d[2].rkey, d[3].rkey);
  EXPECT_NE(d[1].rkey, d[2].rkey);
  EXPECT_FALSE(r.region(d[0].rkey).phantom);
  EXPECT_TRUE(r.region(d[2].rkey).phantom);
}

TEST(ClientRegistrationTest, ForeignAllocationSplitsARun) {
  Rig r;
  dnn::Model model{"gap", r.gpu};
  model.add_tensor(f32("gap.t0", 1024), false);
  const auto foreign = r.gpu.alloc(4096);  // not the model's
  model.add_tensor(f32("gap.t1", 1024), false);
  model.add_tensor(f32("gap.t2", 1024), false);
  r.register_tensors(model);
  EXPECT_EQ(r.client.stats().regions_registered, 2u);
  const auto& d = r.sent.tensors;
  EXPECT_NE(d[0].rkey, d[1].rkey);
  EXPECT_EQ(d[1].rkey, d[2].rkey);
  const auto& head = r.region(d[0].rkey);
  const auto& tail = r.region(d[1].rkey);
  EXPECT_LE(head.addr + head.length, foreign.global_addr());
  EXPECT_GE(tail.addr, foreign.global_addr() + foreign.size());
}

TEST(ClientRegistrationTest, OtherGpuSegmentSplitsARun) {
  Rig r;
  dnn::Model model{"split", r.gpu};
  model.add_tensor(f32("split.t0", 1024), false);
  // Two adjacent buffers on another GPU, the first at the very offset where
  // tensor 0's allocation ends on its own GPU.
  auto& other = r.client_node.gpu(1);
  ASSERT_GE(r.gpu.allocated(), other.allocated());
  other.alloc(r.gpu.allocated() - other.allocated());
  model.tensors().emplace_back(f32("split.t1", 1024), other.alloc(1024));
  model.tensors().emplace_back(f32("split.t2", 1024), other.alloc(1024));
  ASSERT_EQ(model.tensor(1).buffer().offset(),
            model.tensor(0).buffer().offset() + gpu::GpuDevice::footprint(1024));
  r.register_tensors(model);
  EXPECT_EQ(r.client.stats().regions_registered, 2u);
  const auto& d = r.sent.tensors;
  EXPECT_NE(d[0].rkey, d[1].rkey);
  EXPECT_EQ(d[1].rkey, d[2].rkey);
}

}  // namespace
}  // namespace portus::core
