// Elastic Portus-Cluster (ISSUE 9): membership epochs, online shard
// migration, drain/decommission, permanent-failure repair, and the
// client-side re-resolution loop — including the headline crashpoint walk
// over a live migration's persist fences.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/strformat.h"
#include "core/cluster/cluster_client.h"
#include "core/cluster/cluster_ctl.h"
#include "core/cluster/migration.h"
#include "core/daemon/daemon.h"
#include "core/daemon/fsck.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"
#include "net/tcp.h"
#include "sim/crashpoint.h"
#include "sim/fault.h"

namespace portus::core::cluster {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// The elastic rig: N daemons on their own storage nodes, the first
// `founding` of them sealed into the initial membership; the rest start
// idle and may join later.

struct ElasticRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  ElasticCluster elastic;
  std::vector<std::unique_ptr<PortusDaemon>> daemons;

  ElasticRig(int nodes, int founding) : elastic{eng} {
    cluster = net::Cluster::sharded_testbed(eng, nodes);
    for (int i = 0; i < nodes; ++i) {
      PortusDaemon::Config cfg;
      cfg.endpoint = ep(i);
      cfg.faults = &faults;
      daemons.push_back(std::make_unique<PortusDaemon>(
          *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
      daemons.back()->start();
    }
    for (int i = 0; i < founding; ++i) elastic.add_member(ep(i), *daemons[i]);
    elastic.seal();
  }
  ~ElasticRig() { eng.shutdown(); }

  static std::string ep(int i) { return strf("portusd{}", i); }

  ClusterClient::Config client_config(std::uint32_t replicas, std::uint32_t shards) {
    ClusterClient::Config cfg;
    cfg.replicas = replicas;
    cfg.shard_count = shards;
    cfg.membership = &elastic;
    cfg.op_timeout = 50ms;
    return cfg;
  }

  dnn::Model make_model(double scale = 0.02) {
    dnn::ModelZoo::Options opt;
    opt.scale = scale;
    return dnn::ModelZoo::create(cluster->node("client-volta").gpu(0), "resnet50", opt);
  }
};

// ---------------------------------------------------------------------------
// join(): the new member receives its share of existing copies, the epoch
// bumps, every live daemon serves the new epoch, and subsequent ops
// re-resolve transparently.

TEST(ElasticTest, JoinMigratesCopiesAndBumpsEpoch) {
  ElasticRig r{3, 2};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 4)};
  bool ok = false;
  std::uint32_t want = 0;
  r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
                 bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    co_await c.checkpoint(2);

    const std::string joiner = ElasticRig::ep(2);
    co_await rig.elastic.join(joiner, *rig.daemons[2]);

    // The resized ring keeps taking checkpoints: the first op sees the
    // bump on the membership source, re-resolves, and commits epoch 3.
    m.mutate_weights(3);
    const auto ck = co_await c.checkpoint(3);
    EXPECT_EQ(ck.epoch, 3u);
    EXPECT_FALSE(ck.degraded);
    crc = m.weights_crc();

    m.mutate_weights(99);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 3u);
    EXPECT_FALSE(rr.degraded);
    done = true;
  }(r, client, model, want, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_EQ(r.eng.failed_process_count(), 0);

  // seal() = epoch 1, the join barrier = epoch 2, pushed to every member
  // including the joiner.
  EXPECT_EQ(r.elastic.membership().epoch, 2u);
  EXPECT_EQ(r.elastic.membership().active_positions().size(), 3u);
  for (auto& d : r.daemons) EXPECT_EQ(d->membership_epoch(), 2u);

  // The joiner physically holds migrated copies at the source's epochs.
  const auto& st = r.elastic.stats();
  EXPECT_GT(st.copies_moved, 0u);
  EXPECT_GT(st.bytes_streamed, 0u);
  EXPECT_EQ(st.models_migrated, 1u);
  EXPECT_GE(st.barriers, 1u);
  EXPECT_FALSE(r.daemons[2]->model_table().names().empty());
  for (const auto& name : r.daemons[2]->model_table().names()) {
    const MIndex* idx = r.daemons[2]->find_live_index(name);
    ASSERT_NE(idx, nullptr);
    const auto done_slot = idx->latest_done_slot();
    ASSERT_TRUE(done_slot.has_value());
    EXPECT_GE(idx->slot(*done_slot).epoch, 2u);
  }
  EXPECT_GE(client.stats().epoch_reresolutions, 1u);
}

// A resize installs its epoch on the membership source and on every daemon
// in one step, so the client follows it before its next round: the first
// checkpoint after a join bounces off no daemon and sleeps no backoff. It
// costs an ordinary round plus the moved copies' registration.
TEST(ElasticTest, FirstCheckpointAfterAJoinFollowsTheBumpWithoutABounce) {
  ElasticRig r{3, 2};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(2, 8)};
  Duration registration{0};
  Duration first{0};
  Duration ordinary{0};
  auto proc = r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m, Duration& reg,
                             Duration& after_join, Duration& round) -> sim::Process {
    auto& eng = rig.eng;
    Time t0 = eng.now();
    co_await c.register_model(m);
    reg = eng.now() - t0;
    co_await c.checkpoint(1);
    co_await rig.elastic.join(ElasticRig::ep(2), *rig.daemons[2]);
    for (const std::uint64_t it : {2, 3}) {
      m.mutate_weights(it);
      t0 = eng.now();
      const auto ck = co_await c.checkpoint(it);
      (it == 2 ? after_join : round) = eng.now() - t0;
      EXPECT_EQ(ck.epoch, it);
      EXPECT_FALSE(ck.degraded);
    }
  }(r, client, model, registration, first, ordinary));
  r.eng.run();
  proc.check();
  for (auto& d : r.daemons) EXPECT_EQ(d->stats().epoch_rejects, 0u) << d->config().endpoint;
  EXPECT_EQ(client.stats().epoch_reresolutions, 1u);
  EXPECT_EQ(client.membership_epoch(), r.elastic.membership().epoch);
  EXPECT_LT(first, ordinary + registration + 2 * net::TcpSocket::kLatency)
      << "the first round after the join waited out more than its registrations";
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// A membership source that fixes the client's epoch: whatever a daemon
// says, the source has nothing newer to show.
struct FixedMembership final : MembershipSource {
  Membership m;
  const Membership& membership() const override { return m; }
};

// A daemon that bounces the client while the source still shows the
// client's epoch is ahead of the source. The client then backs off before
// each retry instead of replaying its round at once: a daemon 5 ms ahead
// costs a few backed-off retries, where replaying at once would spend all
// 8 within those 5 ms and fail the op.
TEST(ElasticTest, DaemonAheadOfTheSourceKeepsTheBackoff) {
  ElasticRig r{2, 2};
  FixedMembership source;
  source.m = r.elastic.membership();
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();
  auto cfg = r.client_config(2, 4);
  cfg.membership = &source;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};
  constexpr Duration kAhead = 5ms;
  Duration took{0};
  auto proc = r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m,
                             Duration& round) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    // portusd0 runs one epoch ahead of the source for a while.
    auto& d0 = *rig.daemons[0];
    const auto epoch = d0.membership_epoch();
    d0.set_membership_epoch(epoch + 1);
    auto back = rig.eng.spawn([](sim::Engine& eng, PortusDaemon& d,
                                 std::uint64_t e) -> sim::Process {
      co_await eng.sleep(kAhead);
      d.set_membership_epoch(e);
    }(rig.eng, d0, epoch));
    m.mutate_weights(2);
    const Time t0 = rig.eng.now();
    const auto ck = co_await c.checkpoint(2);
    round = rig.eng.now() - t0;
    EXPECT_GE(ck.epoch, 2u) << "a voided round's pulls still commit where they landed";
    co_await back.join();
  }(r, client, model, took));
  r.eng.run();
  proc.check();
  EXPECT_GE(took, kAhead);
  EXPECT_GT(r.daemons[0]->stats().epoch_rejects, 0u);
  EXPECT_GE(client.stats().epoch_reresolutions, 1u);
  EXPECT_LE(client.stats().epoch_reresolutions, 5u) << "the client replayed without waiting";
  EXPECT_EQ(client.membership_epoch(), source.m.epoch);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// ---------------------------------------------------------------------------
// A migration is a forward the controller asks for: every copy a join moves
// lands on the joiner through its forward handler, over the fabric, under
// the source's block and at the source's epoch.

TEST(ElasticTest, JoinLandsEveryCopyThroughTheForwardPath) {
  ElasticRig r{3, 2};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 4)};
  auto proc = r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    co_await c.checkpoint(2);
    const std::string joiner = ElasticRig::ep(2);
    co_await rig.elastic.join(joiner, *rig.daemons[2]);
  }(r, client, model));
  r.eng.run();
  proc.check();

  const auto& st = r.elastic.stats();
  const auto& joined = r.daemons[2]->stats();
  ASSERT_GT(st.copies_moved, 0u);
  EXPECT_EQ(joined.registrations + joined.checkpoints, 0u) << "a client op reached the joiner";
  EXPECT_EQ(joined.forwards, st.copies_moved);
  EXPECT_GE(joined.rdma_bytes, st.bytes_streamed) << "a copy moved outside the fabric";
  EXPECT_EQ(joined.failed_ops, 0u);
  for (const auto& key : r.daemons[2]->model_table().names()) {
    const MIndex idx = r.daemons[2]->load_index(key);
    const auto slot = idx.latest_done_slot();
    ASSERT_TRUE(slot.has_value()) << key;
    EXPECT_EQ(idx.slot(*slot).epoch, 2u) << key;
    EXPECT_TRUE(idx.check_payload(*slot, MIndex::Scrub::kAll).ok()) << key;
  }
  EXPECT_TRUE(Fsck{*r.daemons[2]}.run(/*repair=*/false).clean());
}

// A source no client has re-registered with since its restart still feeds a
// join: it answers the joiner's slot queries from its stored index.

TEST(ElasticTest, JoinTakesCopiesFromASourceWithNoClientSession) {
  sim::Engine eng;
  auto cluster = net::Cluster::sharded_testbed(eng, 2);
  QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  const auto make_daemon = [&](int i) {
    PortusDaemon::Config cfg;
    cfg.endpoint = ElasticRig::ep(i);
    cfg.faults = &faults;
    return std::make_unique<PortusDaemon>(*cluster, cluster->node(strf("pmem{}", i)),
                                          rendezvous, cfg);
  };
  std::vector<std::unique_ptr<PortusDaemon>> daemons;
  daemons.push_back(make_daemon(0));
  daemons.push_back(make_daemon(1));
  for (auto& d : daemons) d->start();

  // A static one-member ring: every shard's only copy lands on portusd0.
  ClusterClient::Config ccfg;
  ccfg.endpoints = {ElasticRig::ep(0)};
  ccfg.replicas = 2;
  ccfg.shard_count = 4;
  ccfg.op_timeout = 50ms;
  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  ClusterClient client{*cluster, volta, volta.gpu(0), rendezvous, ccfg};
  auto load = eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);
    for (std::uint64_t k = 1; k <= 2; ++k) {
      m.mutate_weights(k);
      co_await c.checkpoint(k);
    }
  }(client, model));
  eng.run();
  load.check();

  // Restart portusd0 over its intact PMEM; no client comes back to it.
  faults.kill_now(ElasticRig::ep(0));
  eng.run();
  daemons[0].reset();
  daemons[0] = make_daemon(0);
  daemons[0]->recover();
  daemons[0]->start();
  auto& source = *daemons[0];
  auto& joiner = *daemons[1];

  ElasticCluster elastic{eng};
  elastic.add_member(ElasticRig::ep(0), source);
  elastic.seal();
  auto join = eng.spawn([](ElasticCluster& ec, PortusDaemon& d) -> sim::Process {
    const std::string endpoint = ElasticRig::ep(1);
    co_await ec.join(endpoint, d);
  }(elastic, joiner));
  eng.run();
  join.check();

  ASSERT_GT(elastic.stats().copies_moved, 0u);
  EXPECT_EQ(joiner.stats().forwards, elastic.stats().copies_moved);
  EXPECT_EQ(joiner.stats().failed_ops, 0u);
  EXPECT_EQ(source.stats().registrations, 0u);
  for (const auto& key : joiner.model_table().names()) {
    EXPECT_EQ(source.find_live_index(key), nullptr) << key;
    const MIndex held = source.load_index(key);
    const MIndex landed = joiner.load_index(key);
    const auto held_slot = held.latest_done_slot();
    const auto slot = landed.latest_done_slot();
    ASSERT_TRUE(held_slot.has_value()) << key;
    ASSERT_TRUE(slot.has_value()) << key << " did not land DONE";
    EXPECT_EQ(landed.slot(*slot).epoch, held.slot(*held_slot).epoch) << key;
    EXPECT_EQ(landed.payload_crcs(*slot)->crcs, held.payload_crcs(*held_slot)->crcs) << key;
    EXPECT_TRUE(landed.check_payload(*slot, MIndex::Scrub::kAll).ok()) << key;
  }
  EXPECT_TRUE(Fsck{joiner}.run(/*repair=*/false).clean());
  EXPECT_TRUE(Fsck{source}.run(/*repair=*/false).clean());
  EXPECT_EQ(eng.failed_process_count(), 0);
  eng.shutdown();
}

// ---------------------------------------------------------------------------
// Migration certifies what it ships: a source copy whose bytes no longer
// match its payload-CRC block is never blessed DONE on the destination.

TEST(ElasticTest, JoinRefusesToCertifyACorruptSourceCopy) {
  ElasticRig r{2, 1};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 4)};

  std::string bad_key;
  r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m,
                 std::string& bad) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    // Bit rot on the only copy of one shard, after its DONE flip.
    auto& src = *rig.daemons[0];
    bad = src.model_table().names().front();
    const MIndex* idx = src.find_live_index(bad);
    const auto done_slot = idx->latest_done_slot();
    const Bytes at = idx->slot(*done_slot).data_offset + idx->tensors()[0].offset_in_slot;
    auto b = src.device().read(at, 1);
    b[0] ^= std::byte{0x40};
    src.device().write(at, b);
    src.device().persist(at, 1);

    const std::string joiner = ElasticRig::ep(1);
    co_await rig.elastic.join(joiner, *rig.daemons[1]);
  }(r, client, model, bad_key));
  r.eng.run();
  ASSERT_EQ(r.eng.failed_process_count(), 0);
  ASSERT_FALSE(bad_key.empty());

  // The pre-copy pass and the one settle pass each try the copy once.
  auto& joiner = *r.daemons[1];
  EXPECT_EQ(joiner.stats().integrity_rejects, 2u);
  EXPECT_GT(r.elastic.stats().copies_moved, 0u) << "the intact shards still migrate";
  const auto names = joiner.model_table().names();
  ASSERT_NE(std::find(names.begin(), names.end(), bad_key), names.end());
  EXPECT_FALSE(joiner.load_index(bad_key).latest_done_slot().has_value())
      << "a copy that fails its CRC check must not become DONE";

  // The abandoned copy looks exactly like a crash mid-stream: an ACTIVE
  // leftover fsck demotes, never a corrupt DONE slot.
  const auto report = Fsck{joiner}.run(/*repair=*/true);
  EXPECT_EQ(report.corrupt_demoted, 0);
  EXPECT_EQ(report.corrupt_tensors, 0);
  EXPECT_EQ(report.active_demoted, 1);
  EXPECT_TRUE(Fsck{joiner}.run(/*repair=*/false).clean());
}

// ---------------------------------------------------------------------------
// A destination ModelTable that refuses a migrated key strands no PMEM: the
// index migration created for it goes back to the joiner's heap, and the
// join fails before any epoch bump.

TEST(ElasticTest, JoinIntoAFullModelTableLeaksNoPmem) {
  ElasticRig r{2, 1};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 4)};

  // Fill the joiner's table with entries that hold no heap bytes (and no
  // shard keys, so the migrator never reads them).
  auto& joiner = *r.daemons[1];
  const auto capacity = joiner.config().model_table_capacity;
  for (std::uint32_t i = 0; i < capacity; ++i) {
    joiner.model_table().insert(strf("filler{}", i), PortusDaemon::kHeapOffset);
  }
  const Bytes live_before = joiner.allocator().live_bytes();

  bool threw = false;
  auto proc = r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m,
                             bool& refused) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    try {
      co_await rig.elastic.join(ElasticRig::ep(1), *rig.daemons[1]);
    } catch (const ResourceExhausted&) {
      refused = true;  // ModelTable full
    }
  }(r, client, model, threw));
  r.eng.run();
  proc.check();
  EXPECT_TRUE(threw);
  EXPECT_EQ(r.elastic.membership().epoch, 1u);
  EXPECT_EQ(joiner.model_table().size(), capacity);
  EXPECT_EQ(joiner.allocator().live_bytes(), live_before);
}

// ---------------------------------------------------------------------------
// Headline acceptance: a 1 -> 4 -> 2 resize under continuous checkpoint
// load produces ZERO failed client ops, and the final restore is bit-exact.

TEST(ElasticTest, ResizeOneToFourToTwoUnderLoadZeroFailedOps) {
  ElasticRig r{4, 1};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 8)};
  bool stop = false;
  bool loader_done = false, resize_done = false;
  std::uint64_t ops = 0, last_epoch = 0;
  std::uint32_t last_crc = 0;

  // The loader: checkpoint rounds back to back until the resize sequence
  // finishes. Any failed op throws out of the coroutine and trips
  // failed_process_count below.
  r.eng.spawn([](ClusterClient& c, dnn::Model& m, bool& stop_flag, std::uint64_t& n,
                 std::uint64_t& epoch, std::uint32_t& crc, bool& done) -> sim::Process {
    co_await c.register_model(m);
    std::uint64_t k = 0;
    while (!stop_flag) {
      m.mutate_weights(++k);
      const auto golden = m.weights_crc();
      const auto ck = co_await c.checkpoint(k);
      ++n;
      epoch = ck.epoch;
      crc = golden;
    }
    done = true;
  }(client, model, stop, ops, last_epoch, last_crc, loader_done));

  // The resize sequence: grow 1 -> 4, then shrink 4 -> 2 (drain +
  // decommission two members), with the loader live throughout. Each step
  // waits for the loader to land at least one more checkpoint, so every
  // membership epoch sees live traffic (that is the point of the test).
  r.eng.spawn([](ElasticRig& rig, const std::uint64_t& committed, bool& stop_flag,
                 bool& done) -> sim::Process {
    const auto traffic = [&](std::uint64_t floor) -> sim::SubTask<> {
      while (committed <= floor) co_await rig.eng.sleep(100us);
    };
    co_await traffic(0);
    for (int i = 1; i <= 3; ++i) {
      const std::string joiner = ElasticRig::ep(i);
      co_await rig.elastic.join(joiner, *rig.daemons[i]);
      co_await traffic(committed);
    }
    for (int i = 0; i <= 1; ++i) {
      const std::string leaver = ElasticRig::ep(i);
      co_await rig.elastic.drain(leaver);
      co_await traffic(committed);
      rig.elastic.decommission(leaver);
      co_await traffic(committed);
    }
    stop_flag = true;
    done = true;
  }(r, ops, stop, resize_done));

  r.eng.run();
  ASSERT_TRUE(loader_done);
  ASSERT_TRUE(resize_done);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
  ASSERT_GT(ops, 0u);

  // Zero failed ops: every round the loader issued committed, and the
  // resizes cost only re-resolutions (never a lane death — nothing
  // crashed, members only moved states).
  EXPECT_EQ(client.stats().checkpoints, ops);
  EXPECT_EQ(client.stats().lane_failures, 0u);
  EXPECT_GE(client.stats().epoch_reresolutions, 3u);

  // seal + 3 joins + 2 drains + 2 decommissions = epoch 8, 2 actives left.
  EXPECT_EQ(r.elastic.membership().epoch, 8u);
  EXPECT_EQ(r.elastic.membership().active_positions().size(), 2u);
  EXPECT_GT(r.elastic.stats().copies_moved, 0u);

  // The last acked round restores bit-exact from the shrunken ring.
  bool restored = false;
  r.eng.spawn([](ClusterClient& c, dnn::Model& m, std::uint64_t epoch,
                 bool& done) -> sim::Process {
    m.mutate_weights(424242);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, epoch);
    done = true;
  }(client, model, last_epoch, restored));
  r.eng.run();
  ASSERT_TRUE(restored);
  EXPECT_EQ(model.weights_crc(), last_crc);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// ---------------------------------------------------------------------------
// drain + decommission: the leaving member's copies are re-homed before it
// goes DOWN; restores keep working; cluster-status shows the lifecycle.

TEST(ElasticTest, DrainThenDecommissionKeepsDataReachable) {
  ElasticRig r{3, 3};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 6)};
  bool ok = false;
  std::uint32_t want = 0;
  r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
                 bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    co_await c.checkpoint(2);
    crc = m.weights_crc();

    const std::string leaver = ElasticRig::ep(0);
    co_await rig.elastic.drain(leaver);
    EXPECT_EQ(rig.elastic.membership().find(leaver)->state, MemberState::kDraining);
    rig.elastic.decommission(leaver);
    EXPECT_EQ(rig.elastic.membership().find(leaver)->state, MemberState::kDown);

    m.mutate_weights(77);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_FALSE(rr.degraded);
    done = true;
  }(r, client, model, want, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_EQ(r.eng.failed_process_count(), 0);

  // seal = epoch 1, drain = epoch 2, decommission = epoch 3. The
  // decommissioned member is never contacted again: it keeps serving the
  // drain-era epoch while the survivors moved on.
  EXPECT_EQ(r.elastic.membership().epoch, 3u);
  EXPECT_EQ(r.daemons[0]->membership_epoch(), 2u);
  EXPECT_EQ(r.daemons[1]->membership_epoch(), 3u);
  EXPECT_EQ(r.daemons[2]->membership_epoch(), 3u);

  // Every shard is fully replicated on the two survivors at epoch 2.
  for (int i : {1, 2}) {
    std::uint64_t newest = 0;
    for (const auto& name : r.daemons[i]->model_table().names()) {
      const MIndex* idx = r.daemons[i]->find_live_index(name);
      ASSERT_NE(idx, nullptr);
      const auto done_slot = idx->latest_done_slot();
      ASSERT_TRUE(done_slot.has_value());
      newest = std::max(newest, idx->slot(*done_slot).epoch);
    }
    EXPECT_EQ(newest, 2u);
  }

  // cluster-status: EPOCH + MSTATE columns and the membership footer.
  std::vector<PortusDaemon*> ptrs;
  for (auto& d : r.daemons) ptrs.push_back(d.get());
  const auto status =
      ClusterCtl::render_status(ptrs, &client, &r.elastic.membership());
  EXPECT_NE(status.find("MSTATE"), std::string::npos);
  EXPECT_NE(status.find("DOWN"), std::string::npos);
  EXPECT_NE(status.find("membership: epoch 3, 3 members (2 active)"),
            std::string::npos);
  EXPECT_NE(status.find("epoch re-resolves"), std::string::npos);
}

// A round that passed the epoch gate before a drain's switch commits on the
// old placement after it, several ms later for a 98 MB model. The drain
// waits the round out before its one settle pass, so the epoch the round
// acked on the draining member reaches the survivor before decommission.
TEST(ElasticTest, CheckpointInFlightAcrossADrainStaysReachable) {
  ElasticRig r{2, 2};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model(1.0);
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(1, 2)};
  std::uint32_t want = 0;
  Time committed{0};
  Time drained{0};
  auto proc = r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
                             Time& committed_at, Time& drained_at) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    auto drain = rig.eng.spawn([](ElasticRig& rg, Time& at) -> sim::Process {
      co_await rg.elastic.drain(ElasticRig::ep(0));
      at = rg.eng.now();
    }(rig, drained_at));
    co_await rig.eng.sleep(4500us);
    m.mutate_weights(2);
    crc = m.weights_crc();
    const auto ck = co_await c.checkpoint(2);
    EXPECT_EQ(ck.epoch, 2u);
    committed_at = rig.eng.now();
    co_await drain.join();
    rig.elastic.decommission(ElasticRig::ep(0));

    m.mutate_weights(99);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
  }(r, client, model, want, committed, drained));
  r.eng.run();
  proc.check();
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_GT(drained, committed) << "the drain returned before the round it overlapped committed";
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// The newest DONE epoch `d` holds of `key` (0: none).
std::uint64_t newest_epoch(PortusDaemon& d, const std::string& key) {
  if (!d.model_table().lookup(key).has_value()) return 0;
  std::optional<MIndex> held;
  const MIndex& idx = d.index_of(key, held);
  const auto slot = idx.latest_done_slot();
  return slot.has_value() ? idx.slot(*slot).epoch : 0;
}

// How long a join of portusd2 takes while a round is in flight whose puller
// portusd0 hangs, so portusd1's armed forwards wait for an answer that never
// comes; optionally portusd1 hangs too, `hang_replica_after` into the join.
// `current`: when the join returns, every copy on the joiner is at least as
// new as portusd1's copy of its shard.
struct HungPullerJoin {
  Duration took{0};
  bool current = true;
};

HungPullerJoin join_behind_a_hung_puller(std::optional<Duration> hang_replica_after) {
  ElasticRig r{3, 2};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(2, 4)};
  HungPullerJoin out;
  auto proc = r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m,
                             std::optional<Duration> hang_after,
                             HungPullerJoin& result) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    rig.faults.kill_now(ElasticRig::ep(0), sim::FaultMode::kHang);
    auto round = rig.eng.spawn([](ClusterClient& cc, dnn::Model& mm) -> sim::Process {
      mm.mutate_weights(2);
      try {
        co_await cc.checkpoint(2);
      } catch (const Error&) {
        // the hung member's lanes time out; the join is what is measured
      }
    }(c, m));
    co_await rig.eng.sleep(100us);  // the round's requests are at the daemons
    const Time t0 = rig.eng.now();
    if (hang_after.has_value()) {
      rig.faults.kill_after(ElasticRig::ep(1), *hang_after, sim::FaultMode::kHang);
    }
    co_await rig.elastic.join(ElasticRig::ep(2), *rig.daemons[2]);
    result.took = rig.eng.now() - t0;
    auto& joiner = *rig.daemons[2];
    for (const auto& key : joiner.model_table().names()) {
      if (newest_epoch(*rig.daemons[1], key) > newest_epoch(joiner, key)) result.current = false;
    }
    co_await round.join();
  }(r, client, model, hang_replica_after, out));
  r.eng.run();
  proc.check();
  return out;
}

// The settle waits for exactly the retired epoch's ops: an epoch-0 op (a
// standalone client) never holds a resize back; an old-epoch forward whose
// puller hangs holds it until the forward's budget (the client's 50 ms
// op_timeout) and no longer, after which the join streams and returns; and
// a member killed while the controller waits on it stops counting at once.
TEST(ElasticTest, SettleWaitsOutOnlyTheRetiredEpoch) {
  {
    ElasticRig r{3, 2};
    auto& volta = r.cluster->node("client-volta");
    auto sharded = r.make_model();
    ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(2, 4)};
    auto big = dnn::ModelZoo::create(volta.gpu(0), "vgg19_bn", {.force_phantom = true});
    PortusClient plain{*r.cluster, volta, volta.gpu(0), r.rendezvous, ElasticRig::ep(0)};
    Time joined{0};
    Time plain_done{0};
    auto proc = r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m, PortusClient& p,
                               dnn::Model& b, Time& joined_at, Time& plain_at) -> sim::Process {
      co_await c.register_model(m);
      co_await c.checkpoint(1);
      co_await p.register_model(b);
      auto pull = rig.eng.spawn([](sim::Engine& eng, PortusClient& pc, dnn::Model& bm,
                                   Time& at) -> sim::Process {
        co_await pc.checkpoint(bm, 1);
        at = eng.now();
      }(rig.eng, p, b, plain_at));
      co_await rig.elastic.join(ElasticRig::ep(2), *rig.daemons[2]);
      joined_at = rig.eng.now();
      co_await pull.join();
    }(r, client, sharded, plain, big, joined, plain_done));
    r.eng.run();
    proc.check();
    EXPECT_GT(r.elastic.stats().copies_moved, 0u);
    EXPECT_LT(joined, plain_done) << "a standalone client's checkpoint held the join back";
    EXPECT_EQ(r.eng.failed_process_count(), 0);
  }

  constexpr Duration kBudget = 50ms;  // ElasticRig::client_config's op_timeout
  const auto held = join_behind_a_hung_puller(std::nullopt);
  EXPECT_GE(held.took, kBudget - 1ms) << "the join did not wait for the old epoch's forward";
  EXPECT_LT(held.took, kBudget + 5ms) << "the forward held the join past its budget";
  EXPECT_TRUE(held.current) << "the join returned without its settle pass";

  const auto killed = join_behind_a_hung_puller(10ms);
  EXPECT_GE(killed.took, 10ms);
  EXPECT_LT(killed.took, 11ms) << "the join kept waiting on a killed member";
}

// ---------------------------------------------------------------------------
// Permanent failure: a crashed member is declared DOWN and its copies are
// re-replicated from the survivors — redundancy is restored, not just
// routed around.

TEST(ElasticTest, RepairReplicatesAfterPermanentFailure) {
  ElasticRig r{3, 3};
  auto& volta = r.cluster->node("client-volta");
  auto model = r.make_model();

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous,
                       r.client_config(2, 6)};
  bool ok = false;
  std::uint32_t want = 0;
  r.eng.spawn([](ElasticRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
                 bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    co_await c.checkpoint(2);
    crc = m.weights_crc();

    rig.faults.kill_now("portusd1");  // unrecoverable crash-stop
    const std::string failed = ElasticRig::ep(1);
    co_await rig.elastic.repair(failed);
    EXPECT_EQ(rig.elastic.membership().find(failed)->state, MemberState::kDown);

    // Post-repair the two survivors hold every shard twice; the restore
    // runs entirely on primaries of the new placement.
    m.mutate_weights(99);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_FALSE(rr.degraded);
    done = true;
  }(r, client, model, want, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
  EXPECT_GT(r.elastic.stats().repaired_copies, 0u);

  // Redundancy check: both survivors hold all 6 shards at epoch 2.
  for (int i : {0, 2}) {
    std::size_t copies = 0;
    for (const auto& name : r.daemons[i]->model_table().names()) {
      const MIndex* idx = r.daemons[i]->find_live_index(name);
      ASSERT_NE(idx, nullptr);
      const auto done_slot = idx->latest_done_slot();
      ASSERT_TRUE(done_slot.has_value());
      EXPECT_EQ(idx->slot(*done_slot).epoch, 2u) << name;
      ++copies;
    }
    EXPECT_EQ(copies, 6u) << "survivor " << i << " missing re-replicated shards";
  }
}

// ---------------------------------------------------------------------------
// Satellite: total replica loss. With R=1 and the only holder dead, the
// restore must fail with a clean error — no hang (the finite op_timeout
// watchdog), no partial success. Restarting the daemon over its intact
// PMEM then revives the lane and the next restore succeeds.

TEST(ElasticTest, TotalReplicaLossCleanErrorThenRevival) {
  sim::Engine eng;
  auto cluster = net::Cluster::sharded_testbed(eng, 2);
  QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  std::vector<std::unique_ptr<PortusDaemon>> daemons;
  ClusterClient::Config ccfg;
  ccfg.replicas = 1;  // every shard has exactly one home
  ccfg.op_timeout = 50ms;
  for (int i = 0; i < 2; ++i) {
    PortusDaemon::Config cfg;
    cfg.endpoint = strf("portusd{}", i);
    cfg.faults = &faults;
    ccfg.endpoints.push_back(cfg.endpoint);
    daemons.push_back(std::make_unique<PortusDaemon>(
        *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
    daemons.back()->start();
  }

  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  ClusterClient client{*cluster, volta, volta.gpu(0), rendezvous, ccfg};

  bool done = false;
  bool threw_cleanly = false;
  std::uint32_t want = 0;
  eng.spawn([](sim::Engine& eng, net::Cluster& world, sim::FaultInjector& faults,
               std::vector<std::unique_ptr<PortusDaemon>>& ds, QpRendezvous& rdv,
               ClusterClient& c, dnn::Model& m, std::uint32_t& crc, bool& threw,
               bool& ok) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    crc = m.weights_crc();

    faults.kill_now("portusd0");
    m.mutate_weights(5);
    try {
      co_await c.restore();
    } catch (const Error&) {
      threw = true;  // clean failure: shards on portusd0 have no copy left
    }

    // Revive: a fresh daemon process over the same (intact) PMEM device and
    // endpoint. Destroy the dead one first — its destructor deregisters the
    // fault target and releases the listener name.
    ds[0].reset();
    PortusDaemon::Config cfg;
    cfg.endpoint = "portusd0";
    cfg.faults = &faults;
    ds[0] = std::make_unique<PortusDaemon>(world, world.node("pmem0"), rdv, cfg);
    ds[0]->recover();
    ds[0]->start();
    co_await eng.sleep(10us);

    co_await c.refresh_placement();  // revives the down lane, re-registers
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 1u);
    ok = true;
  }(eng, *cluster, faults, daemons, rendezvous, client, model, want, threw_cleanly,
    done));
  eng.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(threw_cleanly) << "restore with every replica down must throw";
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_GE(client.stats().lane_failures, 1u);
  EXPECT_GE(client.stats().lane_revivals, 1u);
  EXPECT_EQ(eng.failed_process_count(), 0);
  eng.shutdown();
}

// ---------------------------------------------------------------------------
// Headline crash walk: power cut at EVERY persist fence of a live shard
// migration. The destination image must be fsck-clean at every boundary
// (DONE slots are durability proofs, torn streams demote, never corrupt),
// and the source — which migration never mutates — retains every acked
// epoch throughout, so acked checkpoints are recoverable from one side or
// the other at any cut.

constexpr Bytes kWalkDevdax = 64_MiB;

struct MigrationRecording {
  std::vector<sim::CrashPoint> points;
  std::uint64_t acked_epoch = 0;
};

MigrationRecording record_migration_workload() {
  MigrationRecording rec;
  sim::Engine eng;
  auto world = net::Cluster::Builder{}
                   .add_node({.name = "client", .gpu_count = 1})
                   .add_node({.name = "src", .pmem_devdax = kWalkDevdax})
                   .add_node({.name = "dst", .pmem_devdax = kWalkDevdax})
                   .build(eng);
  QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  ElasticCluster elastic{eng};

  std::vector<std::unique_ptr<PortusDaemon>> daemons;
  for (const auto* node : {"src", "dst"}) {
    PortusDaemon::Config cfg;
    cfg.endpoint = strf("portusd{}", daemons.size());
    cfg.faults = &faults;
    cfg.chunk_bytes = 32_KiB;  // many data fences per migrated copy
    daemons.push_back(std::make_unique<PortusDaemon>(*world, world->node(node),
                                                     rendezvous, cfg));
    daemons.back()->start();
  }
  elastic.add_member("portusd0", *daemons[0]);
  elastic.seal();

  auto& client_node = world->node("client");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.01;
  auto model = dnn::ModelZoo::create(client_node.gpu(0), "alexnet", opt);
  ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.shard_count = 4;
  ccfg.membership = &elastic;
  ccfg.op_timeout = 50ms;
  ClusterClient client{*world, client_node, client_node.gpu(0), rendezvous, ccfg};

  // Record only the DESTINATION device: the walk probes the half-written
  // migration target. The source never sees a write during the stream.
  sim::CrashpointRecorder recorder{world->node("dst").devdax().device()};
  eng.spawn([](ElasticCluster& ec, PortusDaemon& joiner, ClusterClient& c,
               dnn::Model& m, MigrationRecording& out) -> sim::Process {
    co_await c.register_model(m);
    for (std::uint64_t k = 1; k <= 2; ++k) {
      m.mutate_weights(k);
      const auto ck = co_await c.checkpoint(k);
      out.acked_epoch = ck.epoch;
    }
    const std::string joiner_ep = "portusd1";
    co_await ec.join(joiner_ep, joiner);
  }(elastic, *daemons[1], client, model, rec));
  eng.run();
  recorder.detach();
  rec.points = recorder.points();

  // The source side of the claim, checked once (it is boundary-invariant:
  // migration only READS the source): every shard copy still serves the
  // acked epoch, and the image scrubs clean.
  EXPECT_GT(elastic.stats().copies_moved, 0u);
  for (const auto& name : daemons[0]->model_table().names()) {
    const MIndex* idx = daemons[0]->find_live_index(name);
    EXPECT_NE(idx, nullptr);
    if (idx == nullptr) continue;
    const auto done_slot = idx->latest_done_slot();
    EXPECT_TRUE(done_slot.has_value());
    if (!done_slot.has_value()) continue;
    EXPECT_EQ(idx->slot(*done_slot).epoch, rec.acked_epoch) << name;
  }
  auto src_report = Fsck{*daemons[0]}.run(/*repair=*/false);
  EXPECT_TRUE(src_report.clean()) << "migration dirtied the source image";

  eng.shutdown();
  return rec;
}

TEST(ElasticTest, MigrationCrashWalkLeavesBothSidesFsckClean) {
  const auto rec = record_migration_workload();
  ASSERT_EQ(rec.acked_epoch, 2u);
  EXPECT_GE(rec.points.size(), 100u) << "migration recorded too few persist fences";

  for (const auto& p : rec.points) {
    SCOPED_TRACE(::testing::Message() << "crash point #" << p.ordinal << " (fence "
                                      << p.persist_seq << ", "
                                      << (p.after_persist ? "after" : "before") << ")");
    sim::Engine eng;
    auto world = net::Cluster::Builder{}
                     .add_node({.name = "dst", .pmem_devdax = kWalkDevdax})
                     .build(eng);
    QpRendezvous rendezvous;
    PortusDaemon daemon{*world, world->node("dst"), rendezvous};
    auto& device = world->node("dst").devdax().device();
    sim::CrashpointRecorder::materialize(p, device, /*seed=*/0xC0FFEEull + p.ordinal);

    ASSERT_NO_THROW(daemon.recover());

    // Any DONE slot the cut left behind is a durability proof: CRC block
    // present at the exact epoch, payload bit-identical, and the epoch is
    // one the source actually committed (migration carries source epochs,
    // it never invents them).
    for (const auto& name : daemon.model_table().names()) {
      std::optional<MIndex> index;
      try {
        index.emplace(daemon.load_index(name));
      } catch (const Error&) {
        continue;  // torn mid-registration record; fsck demotes it below
      }
      for (int i = 0; i < 2; ++i) {
        const auto& slot = index->slot(i);
        if (slot.state != SlotState::kDone || index->phantom()) continue;
        const auto block = index->payload_crcs(i);
        ASSERT_TRUE(block.has_value()) << "DONE slot without payload-CRC block";
        EXPECT_EQ(block->epoch, slot.epoch);
        const auto& tensors = index->tensors();
        ASSERT_EQ(block->crcs.size(), tensors.size());
        for (std::size_t t = 0; t < tensors.size(); ++t) {
          EXPECT_EQ(device.crc(slot.data_offset + tensors[t].offset_in_slot,
                               tensors[t].size),
                    block->crcs[t])
              << "migrated tensor " << t << " of " << name << " not bit-exact";
        }
        EXPECT_GE(slot.epoch, 1u);
        EXPECT_LE(slot.epoch, rec.acked_epoch) << "epoch the source never committed";
      }
    }

    // fsck: a cut mid-stream may leave ACTIVE leftovers and torn records —
    // never payload corruption. A second pass finds nothing.
    auto report = Fsck{daemon}.run(/*repair=*/true);
    EXPECT_EQ(report.corrupt_demoted, 0) << "power cut corrupted a DONE slot";
    EXPECT_EQ(report.corrupt_tensors, 0);
    EXPECT_EQ(report.overlap_violations, 0);
    EXPECT_TRUE(Fsck{daemon}.run(/*repair=*/true).clean());

    eng.shutdown();
    if (::testing::Test::HasFatalFailure()) break;
  }
}

}  // namespace
}  // namespace portus::core::cluster
