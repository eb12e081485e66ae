// Robustness and adversarial-input tests: torn persistent state, protocol
// fuzzing, misuse of the client API, and hook cadence edge cases.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/async_coordinator.h"
#include "core/client.h"
#include "core/daemon/allocator.h"
#include "core/daemon/daemon.h"
#include "dnn/model_zoo.h"
#include "dnn/training.h"
#include "net/cluster.h"

namespace portus::core {
namespace {

using namespace std::chrono_literals;

// --- allocator under torn AllocTable entries --------------------------------

TEST(RobustnessTest, AllocatorRecoverySkipsTornEntriesAndSweepReclaims) {
  pmem::PmemDevice device{"pmem", 64_MiB, 0x1000};
  const PmemAllocator::Config config{.table_offset = 4_KiB,
                                     .table_capacity = 128,
                                     .data_offset = 1_MiB,
                                     .data_end = 64_MiB};
  Bytes b = 0;
  {
    PmemAllocator alloc{device, config};
    alloc.alloc(100_KiB);
    b = alloc.alloc(200_KiB);
    alloc.alloc(50_KiB);
    // Scramble the middle entry as a torn write would leave it (entry slots
    // start after the sharded-table header).
    device.write(config.table_offset + PmemAllocator::kHeaderSize + PmemAllocator::kEntrySize,
                 std::vector<std::byte>(8));
    device.persist_all();
  }
  PmemAllocator recovered{device, config};
  recovered.recover();
  // Entries 0 and 2 survive; the torn entry 1 is dropped, so its extent is
  // a hole *between* live extents — below the bump pointer, unreachable by
  // compact(), leaked by recover() alone.
  EXPECT_EQ(recovered.live_bytes(), 150_KiB);
  EXPECT_EQ(recovered.free_listed_bytes(), 0u);

  // The repacker's gap sweep must adopt exactly the dropped extent back.
  EXPECT_EQ(recovered.sweep_gaps(), 200_KiB);
  EXPECT_EQ(recovered.free_listed_bytes(), 200_KiB);

  // First-fit reuse then hands the reclaimed hole out again...
  EXPECT_EQ(recovered.alloc(200_KiB), b);
  // ...and nothing the allocator tracks ever overlaps.
  auto extents = recovered.extents();
  std::sort(extents.begin(), extents.end(),
            [](const auto& x, const auto& y) { return x.offset < y.offset; });
  Bytes prev_end = 0;
  for (const auto& e : extents) {
    EXPECT_GE(e.offset, prev_end) << "extents must not overlap";
    prev_end = e.offset + e.size;
  }
}

// --- protocol fuzz -----------------------------------------------------------

TEST(RobustnessTest, ProtocolDecodersNeverCrashOnGarbage) {
  Rng rng{2024};
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> junk(rng.uniform(0, 300));
    rng.fill(junk);
    // Each decoder must either parse or throw a typed error — never UB.
    const auto probe = [&](auto&& decode) {
      try {
        decode(junk);
      } catch (const Error&) {
        // expected for garbage
      }
    };
    probe([](auto b) { return decode_register_model(b); });
    probe([](auto b) { return decode_register_ack(b); });
    probe([](auto b) { return decode_checkpoint_req(b); });
    probe([](auto b) { return decode_checkpoint_done(b); });
    probe([](auto b) { return decode_restore_req(b); });
    probe([](auto b) { return decode_restore_done(b); });
    probe([](auto b) { return decode_finish_job(b); });
    probe([](auto b) { return decode_forward_req(b); });
    probe([](auto b) { return decode_slot_query(b); });
    probe([](auto b) { return decode_slot_reply(b); });
  }
}

// Random garbage rarely gets past the magic/length checks; mutating *valid*
// cluster-era encodings probes the deep field parsing (shard identities,
// tensor lists, round ids) where a crash would hide.
TEST(RobustnessTest, ClusterDecodersSurviveMutationFuzz) {
  RegisterModelMsg reg;
  reg.model_name = "resnet50#s0r0";
  reg.qp_tokens = {1};
  reg.shard_id = 0;
  reg.shard_count = 2;
  reg.replica = 0;
  reg.replica_count = 2;
  reg.job_bytes = 3072;
  reg.tensors.push_back(TensorDesc{.name = "conv1", .shape = {16, 16}, .size = 1024});
  const auto reg_wire = encode(reg);

  RegisterAckMsg ack;
  ack.ok = true;
  const auto ack_wire = encode(ack);

  // An armed round (v8): the pull and its forward's messages, one round id.
  CheckpointReqMsg pull;
  pull.model_name = "resnet50#s0";
  pull.iteration = 9;
  pull.round = 0xA11CE5;
  const auto pull_wire = encode(pull);
  ForwardReqMsg forward;
  forward.model_name = "resnet50#s0";
  forward.source = "portusd1";
  forward.budget_ns = 50'000'000;
  forward.round = 0xA11CE5;
  const auto forward_wire = encode(forward);
  SlotQueryMsg query;
  query.model_name = "resnet50#s0";
  query.qp_token = 0xCAFE0001;
  query.round = 0xA11CE5;
  const auto query_wire = encode(query);

  Rng rng{77};
  const auto mutate = [&](std::vector<std::byte> wire) {
    const auto flips = rng.uniform(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      auto& byte = wire[rng.uniform(0, wire.size() - 1)];
      byte ^= static_cast<std::byte>(1u << rng.uniform(0, 7));
    }
    return wire;
  };
  const auto probe = [](auto&& decode, const std::vector<std::byte>& wire) {
    try {
      decode(wire);
    } catch (const Error&) {
      // a typed error is the only acceptable failure mode
    }
  };
  for (int round = 0; round < 2000; ++round) {
    probe([](auto b) { return decode_register_model(b); }, mutate(reg_wire));
    probe([](auto b) { return decode_register_ack(b); }, mutate(ack_wire));
    probe([](auto b) { return decode_checkpoint_req(b); }, mutate(pull_wire));
    probe([](auto b) { return decode_forward_req(b); }, mutate(forward_wire));
    probe([](auto b) { return decode_slot_query(b); }, mutate(query_wire));
  }

  // The unmutated encodings still round-trip after all that.
  const auto reg_back = decode_register_model(reg_wire);
  EXPECT_TRUE(reg_back.sharded());
  EXPECT_EQ(reg_back.job_bytes, 3072u);
  EXPECT_EQ(decode_checkpoint_req(pull_wire).round, 0xA11CE5u);
  EXPECT_EQ(decode_forward_req(forward_wire).round, 0xA11CE5u);
  EXPECT_EQ(decode_slot_query(query_wire).round, 0xA11CE5u);
}

TEST(RobustnessTest, TruncatedValidMessagesThrow) {
  RegisterModelMsg msg;
  msg.model_name = "bert";
  msg.qp_tokens = {1};
  msg.tensors.push_back(TensorDesc{.name = "t", .shape = {4, 4}, .size = 64});
  const auto wire = encode(msg);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    std::span<const std::byte> truncated{wire.data(), cut};
    EXPECT_THROW((void)decode_register_model(truncated), Error) << "cut at " << cut;
  }

  ForwardReqMsg armed_forward;
  armed_forward.model_name = "bert#s0";
  armed_forward.source = "portusd1";
  armed_forward.round = 0xA11CE5;
  const auto forward = encode(armed_forward);
  SlotQueryMsg armed_query;
  armed_query.model_name = "bert#s0";
  armed_query.epoch = 3;
  armed_query.round = 0xA11CE5;
  const auto query = encode(armed_query);
  CheckpointReqMsg armed_pull;
  armed_pull.model_name = "bert#s0";
  armed_pull.dirty_indices = {0, 2};
  armed_pull.round = 0xA11CE5;
  const auto pull = encode(armed_pull);
  SlotReplyMsg reply;
  reply.model_name = "bert#s0";
  reply.ok = true;
  reply.crcs = {1, 2, 3};
  const auto answer = encode(reply);
  // An armed request cut just before its round id is the unarmed request
  // (v8 appends the id only when non-zero); every other cut throws.
  const auto probe_armed = [](const std::vector<std::byte>& wire, auto&& decode) {
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
      if (cut == wire.size() - sizeof(std::uint64_t)) {
        EXPECT_EQ(decode(std::span<const std::byte>{wire.data(), cut}).round, 0u);
        continue;
      }
      EXPECT_THROW((void)decode(std::span<const std::byte>{wire.data(), cut}), Error)
          << "cut at " << cut;
    }
  };
  probe_armed(forward, [](auto b) { return decode_forward_req(b); });
  probe_armed(query, [](auto b) { return decode_slot_query(b); });
  probe_armed(pull, [](auto b) { return decode_checkpoint_req(b); });
  for (std::size_t cut = 1; cut < answer.size(); ++cut) {
    EXPECT_THROW((void)decode_slot_reply({answer.data(), cut}), Error) << "cut at " << cut;
  }
}

// --- client misuse ------------------------------------------------------------

struct Rig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon =
      std::make_unique<PortusDaemon>(*cluster, cluster->node("server"), rendezvous);
  Rig() { daemon->start(); }
  ~Rig() { eng.shutdown(); }
};

TEST(RobustnessTest, ConcurrentOpsOnOneClientAreRejected) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.05;
  auto model = dnn::ModelZoo::create(node.gpu(0), "vgg19_bn", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};

  bool second_rejected = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);  // long-ish op
  }(client, model));
  r.eng.spawn([](sim::Engine& eng, PortusClient& c, dnn::Model& m, bool& rejected)
                  -> sim::Process {
    co_await eng.sleep(3ms);  // while registration/checkpoint is in flight
    try {
      co_await c.checkpoint(m, 2);
    } catch (const Error&) {
      rejected = true;
    }
  }(r.eng, client, model, second_rejected));
  r.eng.run();
  EXPECT_TRUE(second_rejected)
      << "one control-plane operation per client at a time is the contract";
}

// A request the daemon cannot decode is refused in its own reply type and
// the session keeps serving the socket; a message of no known type is hung
// up on at once, so a client never waits out its watchdog for either.
TEST(RobustnessTest, UndecodableRequestIsRefusedAndTheSessionServesOn) {
  Rig r;
  bool done = false;
  r.eng.spawn([](Rig& rig, bool& ok) -> sim::Process {
    auto socket = co_await rig.cluster->endpoint("portusd").connect();
    const auto truncated = [](std::vector<std::byte> wire) {
      wire.resize(wire.size() - 4);
      return wire;
    };
    CheckpointReqMsg ck_req;
    ck_req.model_name = "bert";
    ck_req.iteration = 1;
    RestoreReqMsg rs_req;
    rs_req.model_name = "bert";
    rs_req.required_epoch = 1;
    RegisterModelMsg reg;
    reg.model_name = "bert";
    reg.qp_tokens = {1};
    reg.tensors.push_back(TensorDesc{.name = "t", .shape = {4, 4}, .size = 64});

    socket->send(truncated(encode(ck_req)));
    const auto ck_wire = co_await socket->recv();
    const auto ck_done = decode_checkpoint_done(ck_wire);
    EXPECT_FALSE(ck_done.ok);
    EXPECT_NE(ck_done.error.find("undecodable request"), std::string::npos) << ck_done.error;

    socket->send(truncated(encode(rs_req)));
    const auto rs_wire = co_await socket->recv();
    EXPECT_FALSE(decode_restore_done(rs_wire).ok);

    socket->send(truncated(encode(reg)));
    const auto reg_wire = co_await socket->recv();
    EXPECT_FALSE(decode_register_ack(reg_wire).ok);

    // Protocol v7's requests: a forward is refused in a CheckpointDone, a
    // slot query in a SlotReply.
    ForwardReqMsg fw_req;
    fw_req.model_name = "bert";
    fw_req.source = "portusd";
    fw_req.source_epoch = 1;
    socket->send(truncated(encode(fw_req)));
    const auto fw_wire = co_await socket->recv();
    const auto fw_done = decode_checkpoint_done(fw_wire);
    EXPECT_FALSE(fw_done.ok);
    EXPECT_NE(fw_done.error.find("undecodable request"), std::string::npos) << fw_done.error;

    SlotQueryMsg query;
    query.model_name = "bert";
    query.epoch = 1;
    socket->send(truncated(encode(query)));
    const auto query_wire = co_await socket->recv();
    const auto refused = decode_slot_reply(query_wire);
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.error.find("undecodable request"), std::string::npos) << refused.error;

    // A well-formed query for a key this daemon does not hold is answered,
    // not hung up on.
    socket->send(encode(query));
    const auto unknown_wire = co_await socket->recv();
    const auto unknown = decode_slot_reply(unknown_wire);
    EXPECT_FALSE(unknown.ok);
    EXPECT_NE(unknown.error.find("bert"), std::string::npos) << unknown.error;

    // The same socket still answers a well-formed request.
    socket->send(encode(ck_req));
    const auto valid_wire = co_await socket->recv();
    const auto valid_done = decode_checkpoint_done(valid_wire);
    EXPECT_FALSE(valid_done.ok);
    EXPECT_NE(valid_done.error.find("unregistered"), std::string::npos) << valid_done.error;

    // No known type: the daemon hangs up within a round trip.
    const Time sent = rig.eng.now();
    socket->send(std::vector<std::byte>{std::byte{0xEE}});
    bool hung_up = false;
    try {
      co_await socket->recv();
    } catch (const Disconnected&) {
      hung_up = true;
    }
    EXPECT_TRUE(hung_up);
    EXPECT_LT(rig.eng.now() - sent, Duration{std::chrono::milliseconds{1}});

    // A finish notice has no reply field to refuse it in: one that does not
    // decode is hung up on too.
    auto second = co_await rig.cluster->endpoint("portusd").connect();
    second->send(truncated(encode(FinishJobMsg{.model_name = "bert"})));
    hung_up = false;
    try {
      co_await second->recv();
    } catch (const Disconnected&) {
      hung_up = true;
    }
    EXPECT_TRUE(hung_up);
    ok = true;
  }(r, done));
  r.eng.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
  // Five undecodable requests, one unregistered model, one unknown type,
  // one undecodable finish notice. A slot query the daemon answers ok=false
  // is no failed op: no client op ran.
  EXPECT_EQ(r.daemon->stats().failed_ops, 8u);
}

// A registration offers the daemon its one datapath QP. The decoder refuses
// any other count as Corruption, so the daemon refuses such a registration
// before it lays anything out; the same registration with one token
// registers.
TEST(RobustnessTest, RegistrationOffersExactlyOneQp) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  auto& pd = node.nic().alloc_pd("raw-pd");
  rdma::CompletionQueue cq{r.eng};
  std::vector<std::uint64_t> tokens;
  for (int i = 0; i < 2; ++i) {
    tokens.push_back(r.rendezvous.publish(r.cluster->fabric().create_qp(node.nic(), pd, cq)));
  }
  RegisterModelMsg reg;
  reg.model_name = "bert";
  reg.tensors.push_back(TensorDesc{.name = "t", .shape = {4, 4}, .size = 64});
  for (const std::size_t offered : {0u, 2u}) {
    reg.qp_tokens.assign(tokens.begin(), tokens.begin() + offered);
    EXPECT_THROW((void)decode_register_model(encode(reg)), Corruption) << offered << " tokens";
  }

  bool done = false;
  r.eng.spawn([](Rig& rig, RegisterModelMsg msg, std::vector<std::uint64_t> offer,
                 bool& ok) -> sim::Process {
    auto socket = co_await rig.cluster->endpoint("portusd").connect();
    for (const std::size_t offered : {0u, 2u, 1u}) {
      msg.qp_tokens.assign(offer.begin(), offer.begin() + offered);
      auto wire = encode(msg);
      socket->send(std::move(wire));
      const auto reply = co_await socket->recv();
      const auto ack = decode_register_ack(reply);
      EXPECT_EQ(ack.ok, offered == 1) << offered << " tokens: " << ack.error;
    }
    ok = true;
  }(r, reg, tokens, done));
  r.eng.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
  EXPECT_EQ(r.daemon->stats().registrations, 1u);
  EXPECT_EQ(r.daemon->stats().failed_ops, 2u);
  EXPECT_NE(r.daemon->find_live_index("bert"), nullptr);
}

// Type 9 once named an ERROR message that nothing ever sent or handled; a
// message of that type is hung up on like any other unknown one.
TEST(RobustnessTest, RetiredErrorTypeIsHungUpOn) {
  Rig r;
  bool hung_up = false;
  r.eng.spawn([](Rig& rig, bool& out) -> sim::Process {
    auto socket = co_await rig.cluster->endpoint("portusd").connect();
    socket->send(std::vector<std::byte>{std::byte{9}});
    try {
      co_await socket->recv();
    } catch (const Disconnected&) {
      out = true;
    }
  }(r, hung_up));
  r.eng.run();
  EXPECT_TRUE(hung_up);
  EXPECT_EQ(r.daemon->stats().failed_ops, 1u);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

TEST(RobustnessTest, CheckpointOfUnregisteredModelFails) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(node.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};
  bool threw = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m, bool& t) -> sim::Process {
    co_await c.connect();
    try {
      co_await c.checkpoint(m, 1);  // never registered
    } catch (const Error&) {
      t = true;
    }
  }(client, model, threw));
  r.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(r.daemon->stats().failed_ops, 1u);
}

// A registration dials by itself; every other op needs the session a
// connect() or a registration opened.
TEST(RobustnessTest, OperationsBeforeConnectFail) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(node.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};
  const auto expect_throws = [&](sim::Process op) {
    auto p = r.eng.spawn(std::move(op));
    r.eng.run();
    EXPECT_THROW(p.check(), Error);
  };
  expect_throws([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.checkpoint(m, 1);  // no connect()
  }(client, model));
  expect_throws([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.restore(m);
  }(client, model));
  expect_throws([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.finish(m);
  }(client, model));
  EXPECT_FALSE(client.connected());
}

// --- hook cadence -------------------------------------------------------------

TEST(RobustnessTest, PortusHookHonorsInterval) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(node.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};
  PortusHook hook{client, model, /*interval=*/3, PortusHook::Mode::kSync};
  dnn::TrainingStats stats;
  const dnn::TrainingConfig cfg{.iteration_time = 10ms, .update_fraction = 0.1,
                                .busy_fraction = 1.0, .mutate_weights = false};
  r.eng.spawn([](Rig& rig, net::Node& n, PortusClient& c, dnn::Model& m, PortusHook& h,
                 dnn::TrainingConfig config, dnn::TrainingStats& st) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await rig.eng.spawn(dnn::train(rig.eng, n.gpu(0), &m, config, 10, h, st)).join();
    co_await h.drain();
  }(r, node, client, model, hook, cfg, stats));
  r.eng.run();
  EXPECT_EQ(hook.stats().triggered, 3u);  // iterations 3, 6, 9
  EXPECT_EQ(hook.stats().completed, 3u);
  EXPECT_EQ(hook.stats().last_committed_iteration, 9u);
  EXPECT_EQ(r.daemon->stats().checkpoints, 3u);
}

TEST(RobustnessTest, HookIntervalZeroRejected) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(node.gpu(0), "alexnet", opt);
  PortusClient client{*r.cluster, node, node.gpu(0), r.rendezvous};
  EXPECT_THROW((PortusHook{client, model, 0, PortusHook::Mode::kSync}), InvalidArgument);
}

// --- control-plane endpoint ----------------------------------------------------

TEST(RobustnessTest, ManyClientsConnectConcurrently) {
  Rig r;
  auto& node = r.cluster->node("client-volta");
  constexpr int kClients = 12;
  std::vector<std::unique_ptr<PortusClient>> clients;
  std::vector<dnn::Model> models;
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  for (int i = 0; i < kClients; ++i) {
    models.push_back(dnn::ModelZoo::create(
        node.gpu(static_cast<std::size_t>(i) % node.gpu_count()),
        dnn::ModelZoo::all()[static_cast<std::size_t>(i)].name, opt));
    clients.push_back(std::make_unique<PortusClient>(
        *r.cluster, node, node.gpu(static_cast<std::size_t>(i) % node.gpu_count()),
        r.rendezvous));
  }
  for (int i = 0; i < kClients; ++i) {
    r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
    }(*clients[static_cast<std::size_t>(i)], models[static_cast<std::size_t>(i)]));
  }
  r.eng.run();
  EXPECT_EQ(r.daemon->stats().registrations, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(r.daemon->stats().checkpoints, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

}  // namespace
}  // namespace portus::core
