#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>

#include "common/rng.h"
#include "common/strformat.h"
#include "mem/address_space.h"
#include "rdma/fabric.h"
#include "rdma/rpc.h"
#include "sim/process.h"

namespace portus::rdma {
namespace {

using namespace std::chrono_literals;

// Two nodes' worth of NICs + DRAM segments, wired through one fabric.
struct Rig {
  sim::Engine eng;
  mem::AddressSpace as;
  Fabric fabric{eng};
  RdmaNic client_nic{eng, "client/nic"};
  RdmaNic server_nic{eng, "server/nic"};
  std::shared_ptr<mem::MemorySegment> client_mem =
      as.create_segment("client/dram", mem::MemoryKind::kDram, 64_MiB);
  std::shared_ptr<mem::MemorySegment> server_mem =
      as.create_segment("server/dram", mem::MemoryKind::kDram, 64_MiB);
  ProtectionDomain& client_pd = client_nic.alloc_pd("client-pd");
  ProtectionDomain& server_pd = server_nic.alloc_pd("server-pd");
  CompletionQueue client_cq{eng};
  CompletionQueue server_cq{eng};
  QueuePair& client_qp = fabric.create_qp(client_nic, client_pd, client_cq);
  QueuePair& server_qp = fabric.create_qp(server_nic, server_pd, server_cq);

  const MemoryRegion* client_mr = nullptr;
  const MemoryRegion* server_mr = nullptr;
  const MemoryRegion* client_phantom = nullptr;  // 1 GiB, timing-only
  const MemoryRegion* server_phantom = nullptr;

  Rig() {
    client_mr = &client_pd.register_region(RegionDesc{
        .segment = client_mem.get(), .addr = client_mem->base_addr(), .length = 64_MiB});
    server_mr = &server_pd.register_region(RegionDesc{
        .segment = server_mem.get(), .addr = server_mem->base_addr(), .length = 64_MiB});
    client_phantom = &client_pd.register_region(RegionDesc{
        .segment = nullptr, .addr = 0x7000'0000'0000ull, .length = 1_GiB, .phantom = true});
    server_phantom = &server_pd.register_region(RegionDesc{
        .segment = nullptr, .addr = 0x7100'0000'0000ull, .length = 1_GiB, .phantom = true});
    fabric.connect(client_qp, server_qp);
  }
};

TEST(ProtectionDomainTest, KeysAreUniqueAndResolvable) {
  Rig r;
  EXPECT_NE(r.client_mr->lkey, r.client_mr->rkey);
  EXPECT_EQ(r.client_pd.find_by_rkey(r.client_mr->rkey), r.client_mr);
  EXPECT_EQ(r.client_pd.find_by_lkey(r.client_mr->lkey), r.client_mr);
  EXPECT_EQ(r.client_pd.find_by_rkey(0xdead), nullptr);
}

TEST(ProtectionDomainTest, DeregisterInvalidatesKeys) {
  Rig r;
  const auto lkey = r.client_mr->lkey;
  const auto rkey = r.client_mr->rkey;
  r.client_pd.deregister(lkey);
  EXPECT_EQ(r.client_pd.find_by_lkey(lkey), nullptr);
  EXPECT_EQ(r.client_pd.find_by_rkey(rkey), nullptr);
  EXPECT_THROW(r.client_pd.deregister(lkey), InvalidArgument);
}

TEST(ProtectionDomainTest, RegionValidation) {
  Rig r;
  EXPECT_THROW(r.client_pd.register_region(RegionDesc{.segment = r.client_mem.get(),
                                                      .addr = r.client_mem->base_addr(),
                                                      .length = 0}),
               InvalidArgument);
  EXPECT_THROW(r.client_pd.register_region(RegionDesc{.segment = r.client_mem.get(),
                                                      .addr = r.client_mem->base_addr() + 1,
                                                      .length = 64_MiB}),
               InvalidArgument);
  EXPECT_THROW(r.client_pd.register_region(RegionDesc{.segment = nullptr, .length = 10}),
               InvalidArgument);
}

sim::Process do_read(Rig& r, Bytes len, Bytes local_off, Bytes remote_off, WcStatus& status,
                     std::uint32_t rkey_override = 0) {
  const auto wc = co_await r.server_qp.read_sync(
      r.server_mr->lkey, r.server_mr->addr + local_off, len,
      rkey_override != 0 ? rkey_override : r.client_mr->rkey, r.client_mr->addr + remote_off);
  status = wc.status;
}

TEST(RdmaReadTest, OneSidedReadMovesBytes) {
  Rig r;
  std::vector<std::byte> data(1_MiB);
  Rng{1}.fill(data);
  r.client_mem->write(1000, data);

  WcStatus status{};
  r.eng.spawn(do_read(r, data.size(), 5000, 1000, status));
  r.eng.run();
  EXPECT_EQ(status, WcStatus::kSuccess);
  EXPECT_EQ(r.server_mem->read(5000, data.size()), data);
  EXPECT_EQ(r.fabric.bytes_moved(), 1_MiB);
}

TEST(RdmaReadTest, TimingMatchesPerQpCap) {
  Rig r;
  WcStatus status{};
  r.eng.spawn([](Rig& rig, WcStatus& st) -> sim::Process {
    const auto wc = co_await rig.server_qp.read_sync(rig.server_phantom->lkey,
                                                     rig.server_phantom->addr, 830_MB,
                                                     rig.client_phantom->rkey,
                                                     rig.client_phantom->addr);
    st = wc.status;
  }(r, status));
  const Time end = r.eng.run();
  EXPECT_EQ(status, WcStatus::kSuccess);
  // 830 MB at the 8.3 GB/s single-QP cap ~= 100 ms.
  EXPECT_NEAR(to_seconds(end), 0.100, 0.002);
}

TEST(RdmaReadTest, BadRkeyCompletesWithRemoteAccessError) {
  Rig r;
  WcStatus status{};
  r.eng.spawn(do_read(r, 100, 0, 0, status, /*rkey_override=*/0xBEEF));
  r.eng.run();
  EXPECT_EQ(status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(r.fabric.bytes_moved(), 0u);
}

TEST(RdmaReadTest, OutOfBoundsRemoteAccessFails) {
  Rig r;
  WcStatus status{};
  r.eng.spawn(do_read(r, 2_MiB, 0, 63_MiB, status));
  r.eng.run();
  EXPECT_EQ(status, WcStatus::kRemoteAccessError);
}

TEST(RdmaReadTest, MissingRemoteReadPermissionFails) {
  Rig r;
  const auto& locked = r.client_pd.register_region(
      RegionDesc{.segment = r.client_mem.get(), .addr = r.client_mem->base_addr(),
                 .length = 1_MiB, .access = kLocalRead | kLocalWrite});
  WcStatus status{};
  r.eng.spawn(do_read(r, 100, 0, 0, status, locked.rkey));
  r.eng.run();
  EXPECT_EQ(status, WcStatus::kRemoteAccessError);
}

sim::Process do_write(Rig& r, Bytes len, WcStatus& status) {
  const auto wc = co_await r.server_qp.write_sync(r.server_mr->lkey, r.server_mr->addr, len,
                                                  r.client_mr->rkey, r.client_mr->addr);
  status = wc.status;
}

TEST(RdmaWriteTest, OneSidedWriteMovesBytes) {
  Rig r;
  std::vector<std::byte> data(300'000);
  Rng{2}.fill(data);
  r.server_mem->write(0, data);

  WcStatus status{};
  r.eng.spawn(do_write(r, data.size(), status));
  r.eng.run();
  EXPECT_EQ(status, WcStatus::kSuccess);
  EXPECT_EQ(r.client_mem->read(0, data.size()), data);
}

TEST(RdmaOrderingTest, CompletionsArriveInPostOrder) {
  Rig r;
  std::vector<std::uint64_t> completed;
  // Post a large then a small read; RC ordering demands the large one
  // completes first even though the small one alone would be faster.
  r.client_qp.post_recv(RecvWr{});  // unused; keeps symmetry
  r.server_qp.post(WorkRequest{.opcode = WcOpcode::kRead, .wr_id = 1,
                               .lkey = r.server_mr->lkey, .local_addr = r.server_mr->addr,
                               .length = 10_MiB, .rkey = r.client_mr->rkey,
                               .remote_addr = r.client_mr->addr});
  r.server_qp.post(WorkRequest{.opcode = WcOpcode::kRead, .wr_id = 2,
                               .lkey = r.server_mr->lkey, .local_addr = r.server_mr->addr,
                               .length = 4_KiB, .rkey = r.client_mr->rkey,
                               .remote_addr = r.client_mr->addr});
  r.eng.spawn([](Rig& rig, std::vector<std::uint64_t>& out) -> sim::Process {
    out.push_back((co_await rig.server_cq.wait()).wr_id);
    out.push_back((co_await rig.server_cq.wait()).wr_id);
  }(r, completed));
  r.eng.run();
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{1, 2}));
}

TEST(RdmaSendTest, TwoSidedDeliveryIntoPostedReceive) {
  Rig r;
  std::vector<std::byte> payload(123'456);
  Rng{3}.fill(payload);
  r.client_mem->write(0, payload);

  r.server_qp.post_recv(RecvWr{.wr_id = 77, .lkey = r.server_mr->lkey,
                               .addr = r.server_mr->addr, .length = 1_MiB});
  WcStatus send_status{};
  Bytes recv_len = 0;
  r.eng.spawn([](Rig& rig, WcStatus& st, Bytes& n, Bytes payload_size) -> sim::Process {
    const auto wc =
        co_await rig.client_qp.send_sync(rig.client_mr->lkey, rig.client_mr->addr, payload_size);
    st = wc.status;
    const auto rwc = co_await rig.server_cq.wait();
    EXPECT_EQ(rwc.opcode, WcOpcode::kRecv);
    EXPECT_EQ(rwc.wr_id, 77u);
    n = rwc.byte_len;
  }(r, send_status, recv_len, payload.size()));
  r.eng.run();
  EXPECT_EQ(send_status, WcStatus::kSuccess);
  EXPECT_EQ(recv_len, payload.size());
  EXPECT_EQ(r.server_mem->read(0, payload.size()), payload);
}

TEST(RdmaSendTest, SendWaitsForPostedReceive) {
  Rig r;
  // No receive posted yet; SEND must block (RNR) until one appears at t=1ms.
  Time send_done{};
  r.eng.spawn([](Rig& rig, Time& done) -> sim::Process {
    co_await rig.client_qp.send_sync(rig.client_mr->lkey, rig.client_mr->addr, 100);
    done = rig.eng.now();
  }(r, send_done));
  r.eng.schedule(1ms, [&] {
    r.server_qp.post_recv(RecvWr{.wr_id = 1, .lkey = r.server_mr->lkey,
                                 .addr = r.server_mr->addr, .length = 1_MiB});
  });
  r.eng.run();
  EXPECT_GE(send_done, Time{1ms});
}

TEST(RdmaPhantomTest, PhantomRegionMovesTimeNotBytes) {
  Rig r;
  const auto& phantom = r.client_pd.register_region(RegionDesc{
      .segment = nullptr, .addr = 0x7000'0000'0000ull, .length = 1_GiB, .phantom = true});
  WcStatus status{};
  r.eng.spawn([](Rig& rig, const MemoryRegion& mr, WcStatus& st) -> sim::Process {
    const auto wc = co_await rig.server_qp.read_sync(rig.server_phantom->lkey,
                                                     rig.server_phantom->addr, 830_MB,
                                                     mr.rkey, mr.addr);
    st = wc.status;
  }(r, phantom, status));
  const Time end = r.eng.run();
  EXPECT_EQ(status, WcStatus::kSuccess);
  EXPECT_EQ(r.fabric.bytes_moved(), 0u);
  EXPECT_NEAR(to_seconds(end), 0.100, 0.002) << "phantom transfers still take wire time";
}

// Contention: N concurrent QPs reading through the same server NIC share its
// link capacity (12 GB/s), not N x the per-WR cap.
class RdmaContentionTest : public ::testing::TestWithParam<int> {};

TEST_P(RdmaContentionTest, ConcurrentReadsShareServerLink) {
  const int n = GetParam();
  sim::Engine eng;
  mem::AddressSpace as;
  Fabric fabric{eng};
  RdmaNic server_nic{eng, "server/nic"};
  auto& server_pd = server_nic.alloc_pd("server-pd");
  const auto& server_mr = server_pd.register_region(RegionDesc{
      .segment = nullptr, .addr = 0x7200'0000'0000ull, .length = 1_GiB, .phantom = true});

  std::vector<std::unique_ptr<RdmaNic>> client_nics;
  std::vector<std::unique_ptr<CompletionQueue>> cqs;
  std::vector<sim::Process> procs;
  const Bytes per_flow = 600_MB;
  for (int i = 0; i < n; ++i) {
    client_nics.push_back(std::make_unique<RdmaNic>(eng, "client/nic"));
    auto& pd = client_nics.back()->alloc_pd("pd");
    const auto& phantom = pd.register_region(RegionDesc{
        .segment = nullptr, .addr = 0x7000'0000'0000ull, .length = 1_GiB, .phantom = true});
    cqs.push_back(std::make_unique<CompletionQueue>(eng));
    cqs.push_back(std::make_unique<CompletionQueue>(eng));
    auto& server_qp = fabric.create_qp(server_nic, server_pd, *cqs[cqs.size() - 2]);
    auto& client_qp = fabric.create_qp(*client_nics.back(), pd, *cqs.back());
    fabric.connect(server_qp, client_qp);
    procs.push_back(eng.spawn(
        [](QueuePair& qp, const MemoryRegion& local, const MemoryRegion& remote,
           Bytes len) -> sim::Process {
          const auto wc = co_await qp.read_sync(local.lkey, local.addr, len, remote.rkey,
                                                remote.addr);
          EXPECT_EQ(wc.status, WcStatus::kSuccess);
        }(server_qp, server_mr, phantom, per_flow)));
  }
  const Time end = eng.run();
  const double expected = static_cast<double>(per_flow) * n / 12.0e9;  // server link bound
  if (n >= 2) {
    EXPECT_NEAR(to_seconds(end), expected, expected * 0.05);
  } else {
    EXPECT_NEAR(to_seconds(end), static_cast<double>(per_flow) / 8.3e9, 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Flows, RdmaContentionTest, ::testing::Values(1, 2, 4, 8, 16));

// A server NIC that pulls 600 MB from one client (READ: into the server)
// and pushes 600 MB to another (WRITE: out of the server). Returns when
// each op finished; an op not posted reads 0.
struct DuplexEnds {
  Time read{0};
  Time write{0};
};

DuplexEnds run_duplex(bool post_read, bool post_write) {
  sim::Engine eng;
  Fabric fabric{eng};
  RdmaNic server_nic{eng, "server/nic"};
  auto& server_pd = server_nic.alloc_pd("server-pd");
  const auto& server_mr = server_pd.register_region(RegionDesc{
      .segment = nullptr, .addr = 0x7200'0000'0000ull, .length = 1_GiB, .phantom = true});
  std::vector<std::unique_ptr<RdmaNic>> client_nics;
  std::vector<std::unique_ptr<CompletionQueue>> cqs;
  std::vector<QueuePair*> server_qps;
  std::vector<const MemoryRegion*> client_mrs;
  for (int i = 0; i < 2; ++i) {
    client_nics.push_back(std::make_unique<RdmaNic>(eng, strf("client{}/nic", i)));
    auto& pd = client_nics.back()->alloc_pd("pd");
    client_mrs.push_back(&pd.register_region(RegionDesc{
        .segment = nullptr, .addr = 0x7000'0000'0000ull, .length = 1_GiB, .phantom = true}));
    cqs.push_back(std::make_unique<CompletionQueue>(eng));
    cqs.push_back(std::make_unique<CompletionQueue>(eng));
    server_qps.push_back(&fabric.create_qp(server_nic, server_pd, *cqs[cqs.size() - 2]));
    fabric.connect(*server_qps.back(), fabric.create_qp(*client_nics.back(), pd, *cqs.back()));
  }
  DuplexEnds ends;
  if (post_read) {
    eng.spawn([](sim::Engine& e, QueuePair& qp, const MemoryRegion& local,
                 const MemoryRegion& remote, Time& end) -> sim::Process {
      const auto wc = co_await qp.read_sync(local.lkey, local.addr, 600_MB, remote.rkey,
                                            remote.addr);
      EXPECT_EQ(wc.status, WcStatus::kSuccess);
      end = e.now();
    }(eng, *server_qps[0], server_mr, *client_mrs[0], ends.read));
  }
  if (post_write) {
    eng.spawn([](sim::Engine& e, QueuePair& qp, const MemoryRegion& local,
                 const MemoryRegion& remote, Time& end) -> sim::Process {
      const auto wc = co_await qp.write_sync(local.lkey, local.addr, 600_MB, remote.rkey,
                                             remote.addr);
      EXPECT_EQ(wc.status, WcStatus::kSuccess);
      end = e.now();
    }(eng, *server_qps[1], server_mr, *client_mrs[1], ends.write));
  }
  eng.run();
  return ends;
}

// The port is full duplex: a READ into a NIC and a WRITE out of it, posted
// together, each run at its lone per-WR rate, where same-direction flows
// (above) share one direction's 12 GB/s.
TEST(RdmaDuplexTest, ReadInAndWriteOutDoNotShareTheServerLink) {
  const auto read_alone = run_duplex(true, false).read;
  const auto write_alone = run_duplex(false, true).write;
  EXPECT_NEAR(to_seconds(read_alone), 600e6 / 8.3e9, 0.0005);
  EXPECT_NEAR(to_seconds(write_alone), 600e6 / 8.3e9, 0.0005);
  const auto both = run_duplex(true, true);
  EXPECT_EQ(both.read, read_alone);
  EXPECT_EQ(both.write, write_alone);
}

// RPC round trip with a handler that reverses the payload.
// Three NICs, each with a phantom region behind its own device channel,
// and every NIC reading from both others at once with a mix of sizes: many
// flows start on shared channels in the same instant. `slot_of[i]` picks
// which of three fixed storage slots NIC i (and its device channel) is
// built in, so the scenario is the same while the channels' addresses sort
// in another order. Returns the engine's event count.
std::uint64_t run_three_nic_reads(const std::array<std::size_t, 3>& slot_of) {
  sim::Engine eng;
  Fabric fabric{eng};
  std::array<std::optional<RdmaNic>, 3> nic_slots;
  std::array<std::optional<sim::BandwidthChannel>, 3> device_slots;
  std::array<RdmaNic*, 3> nics{};
  std::array<ProtectionDomain*, 3> pds{};
  std::array<const MemoryRegion*, 3> regions{};
  std::vector<std::unique_ptr<CompletionQueue>> cqs;
  for (std::size_t i = 0; i < 3; ++i) {
    nics[i] = &nic_slots[slot_of[i]].emplace(eng, strf("nic{}", i));
    auto& device = device_slots[slot_of[i]].emplace(eng, Bandwidth::gb_per_sec(6.0 + i),
                                                     strf("dev{}", i));
    pds[i] = &nics[i]->alloc_pd(strf("pd{}", i));
    regions[i] = &pds[i]->register_region(
        RegionDesc{.segment = nullptr,
                   .addr = 0x7000'0000'0000ull + (i << 40),
                   .length = 1_GiB,
                   .phantom = true,
                   .device_channel_read = &device,
                   .device_channel_write = &device});
  }
  std::uint64_t wr_id = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = a + 1; b < 3; ++b) {
      cqs.push_back(std::make_unique<CompletionQueue>(eng));
      auto& qa = fabric.create_qp(*nics[a], *pds[a], *cqs.back(), 4);
      cqs.push_back(std::make_unique<CompletionQueue>(eng));
      auto& qb = fabric.create_qp(*nics[b], *pds[b], *cqs.back(), 4);
      fabric.connect(qa, qb);
      for (auto [qp, local, remote] : {std::tuple{&qa, a, b}, std::tuple{&qb, b, a}}) {
        for (const Bytes len : {Bytes{3_MiB}, Bytes{700_KiB}, Bytes{5_MiB}}) {
          WorkRequest wr;
          wr.wr_id = ++wr_id;
          wr.lkey = regions[local]->lkey;
          wr.local_addr = regions[local]->addr;
          wr.length = len;
          wr.rkey = regions[remote]->rkey;
          wr.remote_addr = regions[remote]->addr;
          qp->post(wr);
        }
      }
    }
  }
  eng.run();
  return eng.events_processed();
}

// The fabric starts one flow per channel of a transfer's path. It must start
// them in path order: in pointer order, where the channels happen to sit
// in memory decides which flow a channel serves first, and the DES event
// count moves with heap layout.
TEST(FabricTest, EventCountDoesNotDependOnWhereChannelsLive) {
  std::array<std::size_t, 3> slots{0, 1, 2};
  const auto first = run_three_nic_reads(slots);
  EXPECT_GT(first, 0u);
  while (std::next_permutation(slots.begin(), slots.end())) {
    EXPECT_EQ(run_three_nic_reads(slots), first)
        << "slots " << slots[0] << slots[1] << slots[2];
  }
}

TEST(RpcTest, CallRoundTrip) {
  sim::Engine eng;
  mem::AddressSpace as;
  Fabric fabric{eng};
  RdmaNic client_nic{eng, "c/nic"}, server_nic{eng, "s/nic"};

  RpcChannel chan{fabric, as, client_nic, server_nic, "rpc0",
                  [&eng](std::uint16_t op, std::vector<std::byte> req)
                      -> sim::SubTask<RpcReply> {
                    EXPECT_EQ(op, 42);
                    co_await eng.sleep(std::chrono::microseconds{50});
                    std::reverse(req.begin(), req.end());
                    co_return RpcReply{std::move(req), 0};
                  }};

  std::vector<std::byte> payload(1000);
  Rng{9}.fill(payload);
  std::vector<std::byte> expected{payload.rbegin(), payload.rend()};

  std::vector<std::byte> got;
  eng.spawn([](RpcChannel& c, std::vector<std::byte> p, std::vector<std::byte>& out)
                -> sim::Process { out = co_await c.call(42, std::move(p)); }(chan, payload, got));
  eng.run();
  EXPECT_EQ(got, expected);
  EXPECT_EQ(chan.calls_completed(), 1u);
  EXPECT_EQ(eng.failed_process_count(), 0);
}

TEST(RpcTest, SequentialCallsReuseChannel) {
  sim::Engine eng;
  mem::AddressSpace as;
  Fabric fabric{eng};
  RdmaNic client_nic{eng, "c/nic"}, server_nic{eng, "s/nic"};
  int handled = 0;
  RpcChannel chan{fabric, as, client_nic, server_nic, "rpc0",
                  [&handled](std::uint16_t, std::vector<std::byte> req)
                      -> sim::SubTask<RpcReply> {
                    ++handled;
                    co_return RpcReply{std::move(req), 0};
                  }};
  eng.spawn([](RpcChannel& c) -> sim::Process {
    for (int i = 0; i < 10; ++i) {
      auto resp = co_await c.call(1, std::vector<std::byte>(64));
      EXPECT_EQ(resp.size(), 64u);
    }
  }(chan));
  eng.run();
  EXPECT_EQ(handled, 10);
  EXPECT_EQ(chan.calls_completed(), 10u);
}

}  // namespace
}  // namespace portus::rdma
