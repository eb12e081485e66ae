// Portus-Cluster: sharded multi-daemon placement, replication, degraded
// restore, and shard registration and protocol version coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "common/strformat.h"
#include "core/cluster/cluster_client.h"
#include "core/cluster/cluster_ctl.h"
#include "core/cluster/migration.h"
#include "core/cluster/placement.h"
#include "core/daemon/daemon.h"
#include "core/daemon/fsck.h"
#include "core/daemon/repacker.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"
#include "net/tcp.h"
#include "sim/fault.h"
#include "sim/trace.h"

namespace portus::core::cluster {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Placement policy (pure function; acceptance criterion c's foundation).

// A static ring of `n` daemons: one shard per daemon, every position active.
Placement::Plan place_on_ring(const std::string& model, const std::vector<Bytes>& sizes,
                              std::uint32_t n, std::uint32_t replicas) {
  std::vector<std::uint32_t> all(n);
  for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
  return Placement::compute_over(model, sizes, n, n, all, replicas);
}

TEST(PlacementTest, DeterministicAcrossProcesses) {
  const std::vector<Bytes> sizes{96_MiB, 1_MiB, 40_MiB, 40_MiB, 8_MiB, 3_MiB, 200_KiB};
  const auto a = place_on_ring("gpt-tiny", sizes, 4, 2);
  const auto b = place_on_ring("gpt-tiny", sizes, 4, 2);
  EXPECT_EQ(a.shard_tensors, b.shard_tensors);
  EXPECT_EQ(a.shard_daemons, b.shard_daemons);
  EXPECT_EQ(a.shard_bytes, b.shard_bytes);

  // The homes alone follow from the name, shard count and replica count.
  const std::vector<std::uint32_t> all{0, 1, 2, 3};
  EXPECT_EQ(Placement::shard_homes("gpt-tiny", 4, all, 2), a.shard_daemons);
}

TEST(PlacementTest, EveryTensorPlacedOnceAndReplicasDistinct) {
  const std::vector<Bytes> sizes{10_MiB, 20_MiB, 30_MiB, 5_MiB, 5_MiB};
  const auto plan = place_on_ring("m", sizes, 3, 2);
  std::size_t placed = 0;
  for (const auto& shard : plan.shard_tensors) placed += shard.size();
  EXPECT_EQ(placed, sizes.size());
  for (const auto& ring : plan.shard_daemons) {
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_NE(ring[0], ring[1]);  // two copies never share a daemon
  }
}

TEST(PlacementTest, EqualTensorsSplitTwoPerShard) {
  // 8 equal tensors over 4 shards must land exactly 2 per shard, in order.
  const std::vector<Bytes> sizes(8, 16_MiB);
  const auto plan = place_on_ring("balanced", sizes, 4, 1);
  for (const auto& bytes : plan.shard_bytes) EXPECT_EQ(bytes, 32_MiB);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(plan.shard_tensors[s], (std::vector<std::uint32_t>{2 * s, 2 * s + 1}));
  }
}

// Cut `sizes` into `k` shards (on a one-member ring, so k may exceed it)
// and check the contract: the shards, in shard order, are consecutive
// ascending ranges that tile the model, and each holds at most ceil(T/k)
// plus the largest tensor.
Placement::Plan expect_quantile_cut(const std::vector<Bytes>& sizes, std::uint32_t k) {
  SCOPED_TRACE(strf("{} tensors over {} shards", sizes.size(), k));
  const std::vector<std::uint32_t> active{0};
  const auto plan = Placement::compute_over("m", sizes, k, 1, active, 1);
  EXPECT_EQ(plan.shard_tensors.size(), k);

  unsigned __int128 total = 0;
  Bytes largest = 0;
  for (const auto b : sizes) {
    total += b;
    largest = std::max(largest, b);
  }
  const unsigned __int128 bound = (total + k - 1) / k + largest;
  std::uint32_t next = 0;
  for (std::uint32_t s = 0; s < k; ++s) {
    Bytes bytes = 0;
    for (const auto t : plan.shard_tensors[s]) {
      EXPECT_EQ(t, next) << "shard " << s << " is not the next contiguous range";
      bytes += sizes[t];
      ++next;
    }
    EXPECT_EQ(plan.shard_bytes[s], bytes);
    EXPECT_TRUE(bytes <= bound) << "shard " << s << " holds " << bytes << " B";
  }
  EXPECT_EQ(next, sizes.size());
  return plan;
}

TEST(PlacementTest, QuantileCutIsContiguousAndBounded) {
  Rng rng{0x5eed};
  std::vector<std::vector<Bytes>> models = {
      {96_MiB, 1_MiB, 40_MiB, 40_MiB, 8_MiB, 3_MiB, 200_KiB},
      {0, 0, 4_KiB, 0, 8_KiB, 0, 0, 4_KiB, 0},  // zero-size tensors anywhere
      {1_MiB, 2_MiB, 3_MiB},                     // fewer tensors than most k
      {Bytes{1} << 62, Bytes{1} << 62, Bytes{1} << 62},  // k * T overflows u64
  };
  for (int i = 0; i < 16; ++i) {
    std::vector<Bytes> sizes(rng.uniform(1, 300));
    for (auto& b : sizes) b = rng.bernoulli(0.1) ? 0 : rng.uniform(1, 64_MiB);
    models.push_back(std::move(sizes));
  }
  for (const auto& sizes : models) {
    for (const std::uint32_t k : {1u, 2u, 3u, 7u, 8u, 16u, 64u}) expect_quantile_cut(sizes, k);
  }
}

TEST(PlacementTest, QuantileCutEdgeCases) {
  // One shard holds the whole model.
  const std::vector<Bytes> model{3_MiB, 0, 5_MiB};
  EXPECT_EQ(expect_quantile_cut(model, 1).shard_bytes[0], 8_MiB);

  // A tensor wider than a share leaves a shard empty, and so does having
  // more shards than tensors: each tensor lands where its midpoint falls.
  const auto wide = expect_quantile_cut({10_MiB, 1_MiB, 1_MiB}, 4);
  EXPECT_EQ(wide.shard_tensors,
            (std::vector<std::vector<std::uint32_t>>{{}, {0}, {}, {1, 2}}));
  const auto sparse = expect_quantile_cut({1_MiB, 1_MiB}, 5);
  EXPECT_EQ(sparse.shard_tensors,
            (std::vector<std::vector<std::uint32_t>>{{}, {0}, {}, {1}, {}}));

  // An all-zero model is cut by index: 5 tensors over 4 shards.
  const auto zeros = expect_quantile_cut(std::vector<Bytes>(5, 0), 4);
  EXPECT_EQ(zeros.shard_tensors,
            (std::vector<std::vector<std::uint32_t>>{{0}, {1}, {2, 3}, {4}}));
}

TEST(PlacementTest, ShardKeyParsesBackToItsModelAndShard) {
  const auto parsed = parse_shard_key(shard_key("a#sb", 3));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, "a#sb");
  EXPECT_EQ(parsed->second, 3u);
  EXPECT_EQ(parse_shard_key("resnet50"), std::nullopt);
  EXPECT_EQ(parse_shard_key("x#sy"), std::nullopt);
}

TEST(PlacementTest, ReplicasClampedToRingSize) {
  const std::vector<Bytes> sizes{1_MiB, 2_MiB};
  const auto plan = place_on_ring("m", sizes, 2, 5);
  EXPECT_EQ(plan.replicas, 2u);
  for (const auto& ring : plan.shard_daemons) EXPECT_EQ(ring.size(), 2u);
}

// ---------------------------------------------------------------------------
// The cluster rig: N daemons on their own storage nodes, fault-injectable.

struct ClusterRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  sim::Tracer tracer{eng};  // every daemon's spans, one track per daemon
  std::vector<std::unique_ptr<PortusDaemon>> daemons;
  std::vector<std::string> endpoints;

  PortusDaemon::Config base;  // what every daemon's config starts from

  explicit ClusterRig(int n, PortusDaemon::Config base_config = {}) : base{base_config} {
    cluster = net::Cluster::sharded_testbed(eng, n);
    for (int i = 0; i < n; ++i) {
      endpoints.push_back(strf("portusd{}", i));
      daemons.push_back(std::make_unique<PortusDaemon>(
          *cluster, cluster->node(strf("pmem{}", i)), rendezvous, daemon_config(i)));
      daemons.back()->start();
    }
  }
  ~ClusterRig() { eng.shutdown(); }

  PortusDaemon::Config daemon_config(int i) {
    PortusDaemon::Config cfg = base;
    cfg.endpoint = endpoints[static_cast<std::size_t>(i)];
    cfg.faults = &faults;
    cfg.tracer = &tracer;
    return cfg;
  }

  ClusterClient::Config client_config(std::uint32_t replicas) {
    ClusterClient::Config cfg;
    cfg.endpoints = endpoints;
    cfg.replicas = replicas;
    cfg.op_timeout = 50ms;
    return cfg;
  }
};

// Call `visit(track, name, begin, end)` for every span whose name starts
// with `prefix`, with [begin, end) in virtual ns, read back from the
// tracer's Chrome JSON (which prints us to the ns; whole ns keep
// back-to-back spans from overlapping by a rounding error).
template <typename Visit>
void for_each_span(const sim::Tracer& tracer, const std::string& prefix, Visit visit) {
  std::ostringstream json;
  tracer.write_chrome_json(json);
  const std::regex track_name{R"re("tid":(\d+),"args":\{"name":"([^"]*)"\})re"};
  const std::regex span{
      R"re("name":"([^"]*)","ph":"X","pid":1,"tid":(\d+),"ts":([0-9.]+),"dur":([0-9.]+))re"};
  std::map<std::string, std::string> track_of_tid;
  std::istringstream lines{json.str()};
  for (std::string line; std::getline(lines, line);) {
    std::smatch m;
    if (std::regex_search(line, m, track_name)) {
      track_of_tid[m[1]] = m[2];
    } else if (std::regex_search(line, m, span) && m[1].str().starts_with(prefix)) {
      const std::int64_t begin = std::llround(std::stod(m[3]) * 1e3);
      visit(track_of_tid.at(m[2]), m[1].str(), begin, begin + std::llround(std::stod(m[4]) * 1e3));
    }
  }
}

// The spans whose name starts with `prefix`, per trace track.
using TrackSpans = std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>>;
TrackSpans spans_by_track(const sim::Tracer& tracer, const std::string& prefix) {
  TrackSpans out;
  for_each_span(tracer, prefix,
                [&](const std::string& track, const std::string&, std::int64_t begin,
                    std::int64_t end) { out[track].emplace_back(begin, end); });
  return out;
}

// The most of `spans` open at once; one that ends where another begins
// does not overlap it.
int peak_open(const std::vector<std::pair<std::int64_t, std::int64_t>>& spans) {
  std::vector<std::pair<std::int64_t, int>> edges;
  for (const auto& [begin, end] : spans) {
    edges.emplace_back(begin, 1);
    edges.emplace_back(end, -1);
  }
  std::sort(edges.begin(), edges.end());  // at one instant, ends sort first
  int open = 0;
  int peak = 0;
  for (const auto& [at, step] : edges) {
    open += step;
    peak = std::max(peak, open);
  }
  return peak;
}

// Acceptance (a): shard + replicate a multi-tensor model across 3 daemons
// with R=2; every daemon holds its copies; restore is bit-exact.
TEST(ClusterTest, ShardReplicateRestoreBitExact) {
  ClusterRig r{3};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  const auto crc0 = model.weights_crc();

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(2)};
  bool ok = false;
  r.eng.spawn([](ClusterClient& c, dnn::Model& m, bool& done) -> sim::Process {
    co_await c.register_model(m);
    const auto ck = co_await c.checkpoint(1);
    EXPECT_EQ(ck.epoch, 1u);
    EXPECT_FALSE(ck.degraded);
    m.mutate_weights(13);  // diverge post-checkpoint
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 1u);
    EXPECT_FALSE(rr.degraded);
    EXPECT_EQ(rr.rerouted_shards, 0u);
    done = true;
  }(client, model, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), crc0);
  EXPECT_EQ(r.eng.failed_process_count(), 0);

  // R=2 over 3 daemons: 2 copies per shard, spread across the ring; each
  // shard-scoped registration carries its shard identity and the model's
  // bytes into the MIndex.
  std::size_t copies = 0;
  for (auto& d : r.daemons) {
    for (const auto& name : d->model_table().names()) {
      const MIndex* idx = d->find_live_index(name);
      ASSERT_NE(idx, nullptr);
      EXPECT_TRUE(idx->sharded());
      EXPECT_EQ(idx->shard_count(), 3u);
      EXPECT_EQ(idx->replica_count(), 2u);
      EXPECT_EQ(idx->job_bytes(), model.total_bytes());
      ++copies;
    }
    EXPECT_GT(d->stats().shard_registrations, 0u);
  }
  EXPECT_EQ(copies, client.plan().shard_tensors.size() * 2);
}

// Acceptance (b): kill one daemon mid-run through the sim fault hook; the
// client completes a degraded restore from the surviving replicas.
TEST(ClusterTest, DegradedRestoreAfterDaemonCrash) {
  ClusterRig r{3};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(2)};
  bool ok = false;
  std::uint32_t crc2 = 0;
  r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& want,
                 bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    co_await c.checkpoint(2);
    want = m.weights_crc();

    rig.faults.kill_now("portusd1");  // crash-stop one ring member

    m.mutate_weights(777);  // diverge; epoch 2 must come back from replicas
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_TRUE(rr.degraded);
    EXPECT_GT(rr.rerouted_shards, 0u);
    done = true;
  }(r, client, model, crc2, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), crc2);
  EXPECT_TRUE(r.daemons[1]->killed());
  EXPECT_GE(client.stats().degraded_restores, 1u);
  EXPECT_GE(client.stats().lane_failures, 1u);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// A crash *between* checkpoints: the next checkpoint itself degrades (the
// dead lane's copies stop advancing) but still commits on every shard, and
// the restore of that epoch re-routes around the hole.
TEST(ClusterTest, DegradedCheckpointThenRestore) {
  ClusterRig r{4};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(2)};
  bool ok = false;
  std::uint32_t want = 0;
  r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
                 bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    rig.faults.kill_now("portusd2");
    m.mutate_weights(2);
    const auto ck = co_await c.checkpoint(2);
    EXPECT_EQ(ck.epoch, 2u);
    EXPECT_TRUE(ck.degraded);
    crc = m.weights_crc();
    m.mutate_weights(3);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
    done = true;
  }(r, client, model, want, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_GE(client.stats().degraded_checkpoints, 1u);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// Gray failure: the daemon hangs instead of crashing. Only the client-side
// op timeout detects it; the restore then degrades exactly like a crash.
TEST(ClusterTest, HungDaemonDetectedByTimeout) {
  ClusterRig r{3};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(2)};
  bool ok = false;
  std::uint32_t want = 0;
  r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
                 bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    crc = m.weights_crc();
    rig.faults.kill_now("portusd0", sim::FaultMode::kHang);
    m.mutate_weights(9);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 1u);
    EXPECT_TRUE(rr.degraded);
    done = true;
  }(r, client, model, want, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(model.weights_crc(), want);
  EXPECT_GE(client.stats().lane_failures, 1u);
  // The hang was detected by the watchdog, not by a socket error.
  std::uint64_t timeouts = 0;
  for (std::size_t i = 0; i < client.lane_count(); ++i) {
    timeouts += client.lane_client(i).stats().timeouts;
  }
  EXPECT_GE(timeouts, 1u);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// Acceptance (c): a brand-new process (fresh ClusterClient, no state) with
// the same ring config recomputes the identical placement and restores the
// checkpoint bit-exactly, with no metadata service in between.
TEST(ClusterTest, PlacementSurvivesProcessRestart) {
  ClusterRig r{3};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  Placement::Plan plan1;
  std::uint32_t crc = 0;
  {
    ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(2)};
    bool ok = false;
    r.eng.spawn([](ClusterClient& c, dnn::Model& m, bool& done) -> sim::Process {
      co_await c.register_model(m);
      co_await c.checkpoint(1);
      done = true;
    }(client, model, ok));
    r.eng.run();
    ASSERT_TRUE(ok);
    plan1 = client.plan();
    crc = model.weights_crc();
  }

  // "Restart": a new incarnation with fresh (wrong) weights re-registers —
  // same shard keys land on the same daemons — and pulls epoch 1 back.
  opt.weight_seed = 4242;
  auto model2 = dnn::ModelZoo::create(volta.gpu(1), "resnet50", opt);
  ASSERT_NE(model2.weights_crc(), crc);
  ClusterClient client2{*r.cluster, volta, volta.gpu(1), r.rendezvous, r.client_config(2)};
  bool ok = false;
  r.eng.spawn([](ClusterClient& c, dnn::Model& m, bool& done) -> sim::Process {
    co_await c.register_model(m);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 1u);
    EXPECT_FALSE(rr.degraded);
    done = true;
  }(client2, model2, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(client2.plan().shard_tensors, plan1.shard_tensors);
  EXPECT_EQ(client2.plan().shard_daemons, plan1.shard_daemons);
  EXPECT_EQ(model2.weights_crc(), crc);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// A job pins each shard span once: the 16 copies of 8 shards register 8
// regions, the second copy of each shard reusing its first's MR, and the
// copies a join moves register on their new daemons without another.
TEST(ClusterTest, EachShardSpanIsPinnedOncePerJob) {
  ClusterRig r{4};
  ElasticCluster elastic{r.eng};
  for (int i = 0; i < 3; ++i) elastic.add_member(r.endpoints[i], *r.daemons[i]);
  elastic.seal();
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  ClusterClient::Config cfg;
  cfg.replicas = 2;
  cfg.shard_count = 8;
  cfg.membership = &elastic;
  cfg.op_timeout = 50ms;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};
  const auto regions = [&client] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < client.lane_count(); ++i) {
      n += client.lane_client(i).stats().regions_registered;
    }
    return n;
  };
  // (ring position, shard) of every copy the plan places.
  const auto copies = [](const Placement::Plan& plan) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> out;
    for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
      if (plan.shard_tensors[s].empty()) continue;
      for (const auto pos : plan.shard_daemons[s]) out.emplace(pos, s);
    }
    return out;
  };

  auto proc = r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
  }(client, model));
  r.eng.run();
  proc.check();
  const auto before = copies(client.plan());
  EXPECT_EQ(before.size(), 16u);
  EXPECT_EQ(regions(), 8u);
  EXPECT_EQ(client.stats().pins, 8u);
  EXPECT_EQ(client.stats().pins_reused, 8u);

  // The first checkpoint after the join sees the bump on the membership
  // source, re-resolves, and registers the copies that moved, each through
  // its shard's MR.
  auto resize = r.eng.spawn([](ElasticCluster& e, PortusDaemon& joiner, ClusterClient& c,
                               dnn::Model& m) -> sim::Process {
    co_await e.join("portusd3", joiner);
    m.mutate_weights(2);
    co_await c.checkpoint(2);
  }(elastic, *r.daemons[3], client, model));
  r.eng.run();
  resize.check();
  std::size_t moved = 0;
  for (const auto& copy : copies(client.plan())) moved += before.count(copy) == 0 ? 1 : 0;
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(elastic.stats().copies_moved, moved);
  EXPECT_EQ(regions(), 8u);
  EXPECT_EQ(client.stats().pins, 8u);
  EXPECT_EQ(client.stats().pins_reused, 8u + moved);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// A copy a join moves registers on its new daemon through the MR its shard
// span already has: the new channel dials and sends its packet, and pins
// nothing. So the first checkpoint after the join is longer than the next
// one only by that dial and round trip, well under one PeerMem pin.
TEST(ClusterTest, FirstCheckpointAfterAJoinMakesNoPin) {
  ClusterRig r{3};
  ElasticCluster elastic{r.eng};
  elastic.add_member(r.endpoints[0], *r.daemons[0]);
  elastic.add_member(r.endpoints[1], *r.daemons[1]);
  elastic.seal();
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  ClusterClient::Config cfg;
  cfg.replicas = 2;
  cfg.shard_count = 8;
  cfg.membership = &elastic;
  cfg.op_timeout = 50ms;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};

  std::size_t channels_before = 0;
  Duration first_after{0};
  Duration second_after{0};
  auto proc = r.eng.spawn([](sim::Engine& eng, ElasticCluster& e, PortusDaemon& joiner,
                             ClusterClient& c, dnn::Model& m, std::size_t& channels,
                             Duration& first, Duration& second) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    channels = c.lane_count();
    co_await e.join("portusd2", joiner);
    m.mutate_weights(2);
    Time t0 = eng.now();
    co_await c.checkpoint(2);
    first = eng.now() - t0;
    m.mutate_weights(3);
    t0 = eng.now();
    co_await c.checkpoint(3);
    second = eng.now() - t0;
  }(r.eng, elastic, *r.daemons[2], client, model, channels_before, first_after,
                                           second_after));
  r.eng.run();
  proc.check();

  ASSERT_GT(client.lane_count(), channels_before) << "the join moved no copy";
  EXPECT_EQ(client.stats().pins, 8u);
  Duration slowest{0};
  for (std::size_t i = channels_before; i < client.lane_count(); ++i) {
    const auto& st = client.lane_client(i).stats();
    EXPECT_EQ(st.regions_registered, 0u) << "channel " << i;
    EXPECT_LT(st.registration_time, gpu::PeerMem::kBaseLatency) << "channel " << i;
    slowest = std::max(slowest, st.registration_time);
  }
  EXPECT_EQ(first_after - second_after, slowest);
  EXPECT_LT(first_after - second_after, gpu::PeerMem::kBaseLatency);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// Daemons that share one tracer each get their own track, named by
// endpoint, so a trace shows how many ops each daemon runs at once.
TEST(ClusterTest, DaemonsSharingATracerGetOneTrackEach) {
  ClusterRig r{2};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(1)};
  auto proc = r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    co_await c.restore();
  }(client, model));
  r.eng.run();
  proc.check();
  for (const char* op : {"checkpoint ", "restore "}) {
    const auto tracks = spans_by_track(r.tracer, op);
    ASSERT_EQ(tracks.size(), 2u) << op;
    EXPECT_EQ(tracks.begin()->first, "portusd0");
    EXPECT_EQ(tracks.rbegin()->first, "portusd1");
    for (const auto& [track, spans] : tracks) EXPECT_EQ(spans.size(), 1u) << track;
  }
}

// Every shard copy has its own control channel, so a daemon runs the
// copies of one op side by side instead of one after another. R=2 and 8
// shards on two daemons put 8 copies on each: 4 it pulls from the GPU and
// 4 forwarded from the other daemon's pulls.
TEST(ClusterTest, ShardCopiesOfOneOpRunConcurrently) {
  ClusterRig r{2};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  auto cfg = r.client_config(2);
  cfg.shard_count = 8;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};

  Duration register_time{0};
  auto proc = r.eng.spawn([](sim::Engine& eng, ClusterClient& c, dnn::Model& m,
                             Duration& took) -> sim::Process {
    const Time t0 = eng.now();
    co_await c.register_model(m);
    took = eng.now() - t0;
    const auto ck = co_await c.checkpoint(1);
    EXPECT_FALSE(ck.degraded);
  }(r.eng, client, model, register_time));
  r.eng.run();
  proc.check();
  for (auto& d : r.daemons) EXPECT_EQ(d->model_table().names().size(), 8u);
  EXPECT_EQ(client.lane_count(), 16u);

  // One checkpoint round: each daemon's pulls overlap, and so do its
  // forwards.
  for (const char* op : {"checkpoint ", "forward "}) {
    const auto tracks = spans_by_track(r.tracer, op);
    ASSERT_EQ(tracks.size(), 2u) << op;
    for (const auto& [track, spans] : tracks) {
      EXPECT_EQ(spans.size(), 4u) << op << track;
      EXPECT_GE(peak_open(spans), 2) << op << track << " ran its copies one after another";
    }
  }

  // Registration costs about its slowest copy, not the sum of a daemon's.
  Duration slowest{0};
  for (std::size_t i = 0; i < client.lane_count(); ++i) {
    slowest = std::max(slowest, client.lane_client(i).stats().registration_time);
  }
  EXPECT_LT(register_time, 2 * slowest);
}

// ---------------------------------------------------------------------------
// Replica forwarding: each shard is pulled from the GPU once, by its first
// live copy; the other copies land that version PMEM to PMEM.

// Run `then` once `ready()` holds, checking every virtual microsecond (for
// at most 100 ms, so a condition that never comes cannot wedge the run).
template <typename Ready, typename Then>
sim::Process when(sim::Engine& eng, Ready ready, Then then) {
  for (int tick = 0; tick < 100'000; ++tick) {
    if (ready()) {
      then();
      co_return;
    }
    co_await eng.sleep(1us);
  }
}

// The newest DONE slot of `key` on `d`: its epoch and payload-CRC block.
std::pair<std::uint64_t, std::vector<std::uint32_t>> newest_done(PortusDaemon& d,
                                                                  const std::string& key) {
  const MIndex* idx = d.find_live_index(key);
  if (idx == nullptr) return {};
  const auto slot = idx->latest_done_slot();
  if (!slot.has_value()) return {};
  const auto block = idx->payload_crcs(*slot);
  return {idx->slot(*slot).epoch, block.has_value() ? block->crcs : std::vector<std::uint32_t>{}};
}

// R=2 on 3 daemons with 8 shards: one round moves the model across the
// client's link once, and every copy ends at its puller's version.
TEST(ClusterTest, EachCheckpointByteCrossesTheClientNicOnce) {
  ClusterRig r{3};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  auto cfg = r.client_config(2);
  cfg.shard_count = 8;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};

  Bytes nic_bytes = 0;
  std::uint64_t epoch = 0;
  auto proc = r.eng.spawn([](ClusterClient& c, dnn::Model& m, rdma::RdmaNic& nic,
                             Bytes& moved, std::uint64_t& committed) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    const Bytes before = nic.link().bytes_finished();
    const auto ck = co_await c.checkpoint(2);
    moved = nic.link().bytes_finished() - before;
    committed = ck.epoch;
    EXPECT_FALSE(ck.degraded);
  }(client, model, volta.nic(), nic_bytes, epoch));
  r.eng.run();
  proc.check();
  EXPECT_EQ(epoch, 2u);

  // One GPU pull per shard: the model's bytes cross the client NIC once
  // (twice when every copy pulls).
  const Bytes model_bytes = model.total_bytes();
  EXPECT_GE(nic_bytes, model_bytes);
  EXPECT_LT(static_cast<double>(nic_bytes), 1.25 * static_cast<double>(model_bytes))
      << "a replica pulled from the GPU";

  // Every copy holds the round's epoch under its puller's CRC block: the
  // puller is the shard's first copy in placement order.
  std::uint64_t forwards = 0;
  for (auto& d : r.daemons) forwards += d->stats().forwards;
  std::uint32_t shards = 0;
  for (std::uint32_t s = 0; s < client.plan().shard_count; ++s) {
    if (client.plan().shard_tensors[s].empty()) continue;
    ++shards;
    const auto key = shard_key("resnet50", s);
    const auto& ring = client.plan().shard_daemons[s];
    ASSERT_EQ(ring.size(), 2u);
    const auto puller = newest_done(*r.daemons[ring[0]], key);
    EXPECT_EQ(puller.first, epoch) << key;
    EXPECT_FALSE(puller.second.empty()) << key;
    const auto replica = newest_done(*r.daemons[ring[1]], key);
    EXPECT_EQ(replica.first, epoch) << key;
    EXPECT_EQ(replica.second, puller.second) << key << " replica holds another version";
  }
  EXPECT_EQ(forwards, 2u * shards) << "one forward per shard per round";
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// A phantom model moves time but no bytes on every path, forwards included:
// the replica reads the source slot through a phantom region, so its PMEM
// materializes no payload pages.
TEST(ClusterTest, PhantomForwardMaterializesNoPayload) {
  ClusterRig r{2};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.force_phantom = true;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  ASSERT_TRUE(model.phantom());
  auto cfg = r.client_config(2);
  cfg.shard_count = 1;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};
  auto proc = r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);
    const auto ck = co_await c.checkpoint(1);
    EXPECT_EQ(ck.epoch, 1u);
    EXPECT_FALSE(ck.degraded);
  }(client, model));
  r.eng.run();
  proc.check();
  auto& replica = *r.daemons[client.plan().shard_daemons[0].at(1)];
  EXPECT_EQ(replica.stats().forwards, 1u);
  EXPECT_LT(replica.device().materialized_bytes(), model.total_bytes() / 16)
      << "the forward copied phantom payload bytes";
}

// A two-daemon ring holding one shard twice: `puller` pulls it from the GPU
// and `replica` lands the puller's version.
struct ForwardRig {
  ClusterRig r;
  net::Node& volta = r.cluster->node("client-volta");
  dnn::Model model;
  ClusterClient client;
  std::string key = shard_key("resnet50", 0);
  std::size_t puller = 0;
  std::size_t replica = 0;

  static dnn::Model make_model(net::Node& node) {
    dnn::ModelZoo::Options opt;
    opt.scale = 0.02;
    return dnn::ModelZoo::create(node.gpu(0), "resnet50", opt);
  }
  static ClusterClient::Config config(ClusterRig& rig) {
    auto cfg = rig.client_config(2);
    cfg.shard_count = 1;
    return cfg;
  }

  explicit ForwardRig(PortusDaemon::Config base = {})
      : r{2, base},
        model{make_model(volta)},
        client{*r.cluster, volta, volta.gpu(0), r.rendezvous, config(r)} {
    // Register and land epoch 1 on both copies, the replica by forward.
    auto proc = r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
      co_await c.register_model(m);
      co_await c.checkpoint(1);
    }(client, model));
    r.eng.run();
    proc.check();
    puller = client.plan().shard_daemons[0].at(0);
    replica = client.plan().shard_daemons[0].at(1);
  }

  PortusDaemon& daemon(std::size_t i) { return *r.daemons[i]; }
  std::uint64_t timeouts() {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < client.lane_count(); ++i) {
      n += client.lane_client(i).stats().timeouts;
    }
    return n;
  }
};

// The source answers a slot query with the DONE slot of exactly the epoch
// asked for, and refuses any other epoch.
TEST(ClusterTest, SlotQueryAnswersOnlyADoneEpoch) {
  ForwardRig f;
  auto& source = f.daemon(f.puller);
  auto proc = f.r.eng.spawn([](ForwardRig& rig, PortusDaemon& src) -> sim::Process {
    auto socket = co_await rig.r.cluster->endpoint(src.config().endpoint).connect();
    for (const std::uint64_t epoch : {1, 7}) {
      SlotQueryMsg query;
      query.model_name = rig.key;
      query.epoch = epoch;
      socket->send(encode(query));
      const auto wire = co_await socket->recv();
      const auto reply = decode_slot_reply(wire);
      const MIndex* idx = src.find_live_index(rig.key);
      if (epoch == 1) {
        EXPECT_TRUE(reply.ok) << reply.error;
        EXPECT_EQ(reply.slot_size, idx->slot_size());
        EXPECT_EQ(reply.layout_crc, idx->layout_crc());
        EXPECT_EQ(reply.crcs, newest_done(src, rig.key).second);
      } else {
        EXPECT_FALSE(reply.ok);
        EXPECT_NE(reply.error.find("epoch 7"), std::string::npos) << reply.error;
      }
    }
  }(f, source));
  f.r.eng.run();
  proc.check();
  EXPECT_EQ(source.stats().failed_ops, 0u);
}

// The source crashes mid-pull, while the replica's armed forward waits on
// it: the forward is refused at once, naming the source, and the replica
// pulls from the GPU instead. The round commits on the replica with the
// source's lane down, no watchdog fires, and the restore is bit-exact.
TEST(ClusterTest, ForwardFromACrashedSourceFallsBackToAPull) {
  ForwardRig f;
  ASSERT_EQ(f.daemon(f.replica).stats().forwards, 1u);
  auto& source = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  // A pull of this model takes about a millisecond; the replica's query is
  // waiting at the source well before the crash.
  constexpr Duration kCrashAfter = 200us;
  std::uint32_t want = 0;
  Duration took{0};
  auto proc = f.r.eng.spawn([](ForwardRig& rig, const std::string& src, std::uint32_t& crc,
                               Duration& round) -> sim::Process {
    rig.model.mutate_weights(2);
    crc = rig.model.weights_crc();
    rig.r.faults.kill_after(src, kCrashAfter);
    const Time t0 = rig.r.eng.now();
    const auto ck = co_await rig.client.checkpoint(2);
    round = rig.r.eng.now() - t0;
    EXPECT_EQ(ck.epoch, 2u);
    EXPECT_TRUE(ck.degraded) << "the source's copy missed the round";
    rig.model.mutate_weights(3);
    const auto rr = co_await rig.client.restore();
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_EQ(rr.rerouted_shards, 1u);
  }(f, source.config().endpoint, want, took));
  f.r.eng.run();
  proc.check();
  EXPECT_TRUE(source.killed());
  EXPECT_EQ(f.model.weights_crc(), want);
  EXPECT_EQ(f.client.stats().lane_failures, 1u);
  EXPECT_EQ(f.timeouts(), 0u);
  EXPECT_EQ(replica.stats().voided_forwards, 1u) << "no armed forward was refused";
  EXPECT_EQ(replica.stats().failed_ops, 0u);
  EXPECT_EQ(replica.stats().forwards, 1u) << "the second forward must be refused";
  EXPECT_EQ(replica.stats().checkpoints, 1u) << "the replica pulls instead";
  EXPECT_EQ(newest_done(replica, f.key).first, 2u);
  // At once: the crash, two hops, then the replica's own pull (~1 ms).
  EXPECT_LT(took, kCrashAfter + 2ms) << "the refusal waited for a budget";
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// A hung puller is given up by the client's watchdog on the pull, and the
// replica's armed forward, which waits for the pull as long as the client
// does, names it too: only the puller's lane goes down, and the replica
// pulls the round itself.
TEST(ClusterTest, HungPullerTakesDownOnlyItsOwnLane) {
  ForwardRig f;
  auto& source = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  Duration took{0};
  auto proc = f.r.eng.spawn([](ForwardRig& rig, const std::string& src,
                               Duration& round) -> sim::Process {
    rig.model.mutate_weights(2);
    rig.r.faults.kill_after(src, 200us, sim::FaultMode::kHang);
    const Time t0 = rig.r.eng.now();
    const auto ck = co_await rig.client.checkpoint(2);
    round = rig.r.eng.now() - t0;
    EXPECT_EQ(ck.epoch, 2u);
    EXPECT_TRUE(ck.degraded);
    // The replica's lane is up: the next round pulls there.
    rig.model.mutate_weights(3);
    const auto next = co_await rig.client.checkpoint(3);
    EXPECT_EQ(next.epoch, 3u);
  }(f, source.config().endpoint, took));
  f.r.eng.run();
  proc.check();
  const Duration op_timeout = f.r.client_config(2).op_timeout;
  EXPECT_EQ(f.client.stats().lane_failures, 1u);
  EXPECT_EQ(f.timeouts(), 1u) << "only the watchdog on the pull fires";
  EXPECT_GE(took, op_timeout);
  EXPECT_LT(took, 2 * op_timeout) << "the armed forward's watchdog fired";
  EXPECT_EQ(replica.stats().voided_forwards, 1u) << "the armed forward named no source";
  EXPECT_EQ(replica.stats().failed_ops, 0u);
  EXPECT_EQ(replica.stats().checkpoints, 2u);
  EXPECT_EQ(newest_done(replica, f.key).first, 3u);
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// The replica's forward span opens one control hop (the puller's answer)
// after the puller's checkpoint span closes on its commit, and holds no
// slot query. Unarmed, DONE -> client and FORWARD -> replica came first,
// and the span held the query's round trip.
TEST(ClusterTest, ArmedForwardStartsOneHopAfterThePullersCommit) {
  ForwardRig f;
  auto proc = f.r.eng.spawn([](ForwardRig& rig) -> sim::Process {
    rig.model.mutate_weights(2);
    const auto ck = co_await rig.client.checkpoint(2);
    EXPECT_EQ(ck.epoch, 2u);
    EXPECT_FALSE(ck.degraded);
  }(f));
  f.r.eng.run();
  proc.check();
  const auto pulls = spans_by_track(f.r.tracer, "checkpoint ").at(f.r.endpoints[f.puller]);
  const auto forwards = spans_by_track(f.r.tracer, "forward ").at(f.r.endpoints[f.replica]);
  ASSERT_EQ(pulls.size(), 2u);
  ASSERT_EQ(forwards.size(), 2u);
  const std::int64_t hop = std::chrono::nanoseconds{net::TcpSocket::kLatency}.count();
  for (std::size_t round = 0; round < 2; ++round) {
    const std::int64_t gap = forwards[round].first - pulls[round].second;
    EXPECT_GE(gap, hop) << "round " << round + 1;
    EXPECT_LT(gap, 2 * hop) << "round " << round + 1;
  }
  EXPECT_EQ(f.timeouts(), 0u);
}

// A pull slower than half the op timeout (its puller's admissions are
// paused for 30 ms of a 50 ms timeout) still lands on the replica through
// the armed forward: the replica waits as long as the client does.
TEST(ClusterTest, PullSlowerThanHalfTheOpTimeoutLandsThroughTheArmedForward) {
  PortusDaemon::Config base;
  base.tenancy = true;
  ForwardRig f{base};
  auto& source = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  const Duration op_timeout = f.r.client_config(2).op_timeout;
  const Duration stall = op_timeout * 3 / 5;
  Duration took{0};
  source.pause_admissions();
  f.r.eng.spawn([](sim::Engine& eng, PortusDaemon& d, Duration wait) -> sim::Process {
    co_await eng.sleep(wait);
    d.resume_admissions();
  }(f.r.eng, source, stall));
  auto proc = f.r.eng.spawn([](ForwardRig& rig, Duration& round) -> sim::Process {
    rig.model.mutate_weights(2);
    const Time t0 = rig.r.eng.now();
    const auto ck = co_await rig.client.checkpoint(2);
    round = rig.r.eng.now() - t0;
    EXPECT_EQ(ck.epoch, 2u);
    EXPECT_FALSE(ck.degraded);
  }(f, took));
  f.r.eng.run();
  proc.check();
  EXPECT_GE(took, stall);
  EXPECT_EQ(f.client.stats().lane_failures, 0u);
  EXPECT_EQ(f.timeouts(), 0u);
  EXPECT_EQ(replica.stats().forwards, 2u);
  EXPECT_EQ(replica.stats().checkpoints, 0u);
  EXPECT_EQ(newest_done(replica, f.key), newest_done(source, f.key));
  const auto pulls = spans_by_track(f.r.tracer, "checkpoint ").at(f.r.endpoints[f.puller]);
  const auto forwards = spans_by_track(f.r.tracer, "forward ").at(f.r.endpoints[f.replica]);
  ASSERT_EQ(forwards.size(), 2u);
  EXPECT_LT(forwards.back().first - pulls.back().second,
            2 * std::chrono::nanoseconds{net::TcpSocket::kLatency}.count())
      << "the replica was not waiting at the puller";
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// A round id, not the caller's iteration, names the round an armed forward
// lands. Through the client, a second round with iteration 1 lands its own
// version on the replica. At the daemons, a forward armed with a round the
// puller has not run yet waits for it and lands its version, not the one
// an earlier round of the same iteration committed.
TEST(ClusterTest, ArmedForwardNeverLandsAnotherRoundsVersion) {
  ForwardRig f;
  auto& source = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  std::size_t channel = 0;
  while (f.client.lane_client(channel).endpoint() != source.config().endpoint) ++channel;
  std::pair<std::uint64_t, std::vector<std::uint32_t>> after_client_round;
  CheckpointDoneMsg answer;
  auto proc = f.r.eng.spawn([](ForwardRig& rig, PortusClient& direct, PortusDaemon& rep,
                               std::pair<std::uint64_t, std::vector<std::uint32_t>>& landed,
                               CheckpointDoneMsg& out) -> sim::Process {
    rig.model.mutate_weights(2);
    const auto again = co_await rig.client.checkpoint(1);  // the rig's round was 1 too
    EXPECT_EQ(again.epoch, 2u);
    EXPECT_FALSE(again.degraded);
    landed = newest_done(rep, rig.key);

    constexpr std::uint64_t kEarlier = 0xE0000001;
    constexpr std::uint64_t kLater = 0xE0000002;
    rig.model.mutate_weights(3);
    const auto earlier = co_await direct.checkpoint_named(rig.key, 1, kEarlier);
    EXPECT_EQ(earlier, 3u);
    // Armed with the later round, before that round's pull is even sent.
    ForwardReqMsg req;
    req.model_name = rig.key;
    req.iteration = 1;
    req.source = direct.endpoint();
    req.budget_ns = 50'000'000;
    req.round = kLater;
    auto forward = rig.r.eng.spawn([](PortusDaemon& d, ForwardReqMsg msg,
                                      CheckpointDoneMsg& a) -> sim::Process {
      a = co_await d.handle_forward(std::move(msg));
    }(rep, req, out));
    co_await rig.r.eng.sleep(500us);
    rig.model.mutate_weights(4);
    const auto later = co_await direct.checkpoint_named(rig.key, 1, kLater);
    EXPECT_EQ(later, 4u);
    co_await forward.join();
  }(f, f.client.lane_client(channel), replica, after_client_round, answer));
  f.r.eng.run();
  proc.check();
  EXPECT_EQ(after_client_round.first, 2u) << "the client's second round left the replica behind";
  EXPECT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(answer.epoch, 4u);
  EXPECT_EQ(newest_done(replica, f.key), newest_done(source, f.key));
  EXPECT_EQ(newest_done(replica, f.key).first, 4u);
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// A plain forward (a migration's) planned at epoch E reaches a copy that a
// round has since moved to E + 1: it is superseded, not refused. The copy
// answers ok at E + 1 and moves nothing, and the daemon counts no failed op.
TEST(ClusterTest, PlainForwardBehindTheCopyIsSupersededNotRefused) {
  ForwardRig f;
  auto& source = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  PortusDaemon::Stats before;
  CheckpointDoneMsg answer;
  auto proc = f.r.eng.spawn([](ForwardRig& rig, PortusDaemon& src, PortusDaemon& rep,
                               PortusDaemon::Stats& stats,
                               CheckpointDoneMsg& out) -> sim::Process {
    rig.model.mutate_weights(2);
    const auto round = co_await rig.client.checkpoint(2);
    EXPECT_EQ(round.epoch, 2u);
    stats = rep.stats();
    ForwardReqMsg msg;
    msg.model_name = rig.key;
    msg.source = src.config().endpoint;
    msg.source_epoch = 1;
    msg.budget_ns = 20'000'000;
    out = co_await rep.handle_forward(std::move(msg));
  }(f, source, replica, before, answer));
  f.r.eng.run();
  proc.check();
  EXPECT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(answer.epoch, 2u);
  EXPECT_EQ(replica.stats().rdma_bytes, before.rdma_bytes);
  EXPECT_EQ(replica.stats().forwards, before.forwards);
  EXPECT_EQ(replica.stats().failed_ops, before.failed_ops);
  EXPECT_EQ(newest_done(replica, f.key).first, 2u);
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// An unarmed forward (a migration's) whose source hangs after its commit is
// refused within its budget, naming the source with kForwardSourceLost,
// instead of waiting for a watchdog, and lands nothing.
TEST(ClusterTest, ForwardFromAHungSourceNamesTheSourceBeforeTheWatchdog) {
  ForwardRig f;
  auto& source = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  f.r.faults.kill_now(source.config().endpoint, sim::FaultMode::kHang);
  constexpr Duration kBudget = 20ms;
  ForwardReqMsg req;
  req.model_name = f.key;
  req.iteration = 2;
  req.source = source.config().endpoint;
  req.source_epoch = 2;  // new on the replica, which holds epoch 1
  req.budget_ns = static_cast<std::uint64_t>(kBudget.count());
  CheckpointDoneMsg answer;
  Duration took{0};
  auto proc = f.r.eng.spawn([](sim::Engine& eng, PortusDaemon& rep, ForwardReqMsg msg,
                               CheckpointDoneMsg& out, Duration& waited) -> sim::Process {
    const Time t0 = eng.now();
    out = co_await rep.handle_forward(std::move(msg));
    waited = eng.now() - t0;
  }(f.r.eng, replica, req, answer, took));
  f.r.eng.run();
  proc.check();
  EXPECT_FALSE(answer.ok);
  EXPECT_TRUE(answer.error.starts_with(kForwardSourceLost)) << answer.error;
  EXPECT_NE(answer.error.find(source.config().endpoint), std::string::npos) << answer.error;
  EXPECT_GE(took, kBudget);
  EXPECT_LT(took, kBudget + 1ms) << "the refusal waited past its budget";
  EXPECT_EQ(replica.stats().failed_ops, 1u);
  EXPECT_EQ(replica.stats().forwards, 1u) << "only the rig's round landed";
  EXPECT_EQ(newest_done(replica, f.key).first, 1u);
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// A byte flipped in the source's DONE slot fails the replica's check: the
// forward is refused with the write slot left ACTIVE, and the fallback pull
// lands the right bytes.
TEST(ClusterTest, ForwardRefusesBytesThatFailTheSourceBlock) {
  ForwardRig f;
  auto& source = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  // Bit rot on the source's fresh DONE slot, before the replica reads it.
  f.r.eng.spawn(when(
      f.r.eng, [&] { return source.stats().checkpoints == 2; },
      [&] {
        const MIndex* idx = source.find_live_index(f.key);
        const Bytes at = idx->slot(*idx->latest_done_slot()).data_offset +
                         idx->tensors()[0].offset_in_slot;
        auto b = source.device().read(at, 1);
        b[0] ^= std::byte{0x40};
        source.device().write(at, b);
        source.device().persist(at, 1);
      }));
  // The instant the replica refuses, its write slot is still ACTIVE and
  // claims no epoch.
  bool active_left = false;
  f.r.eng.spawn(when(
      f.r.eng, [&] { return replica.stats().integrity_rejects == 1; },
      [&] {
        const MIndex* idx = replica.find_live_index(f.key);
        const auto& slot = idx->slot(idx->pick_write_slot());
        active_left = slot.state == SlotState::kActive && slot.epoch == 0 &&
                      idx->slot(*idx->latest_done_slot()).epoch == 1;
      }));
  std::uint32_t want = 0;
  auto proc = f.r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m,
                               const std::string& src, std::uint32_t& crc) -> sim::Process {
    m.mutate_weights(2);
    crc = m.weights_crc();
    const auto ck = co_await c.checkpoint(2);
    EXPECT_EQ(ck.epoch, 2u);
    // Restore from the replica alone.
    rig.faults.kill_now(src);
    m.mutate_weights(3);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
  }(f.r, f.client, f.model, source.config().endpoint, want));
  f.r.eng.run();
  proc.check();
  EXPECT_EQ(replica.stats().integrity_rejects, 1u);
  EXPECT_TRUE(active_left);
  EXPECT_EQ(replica.stats().checkpoints, 1u) << "the fallback pull";
  EXPECT_EQ(f.model.weights_crc(), want) << "restore from the replica is not bit-exact";
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// Two landings of one version on one copy run one after the other: the
// second finds the version already DONE under the source's block and
// answers ok without moving a byte, so a round's forward that lost the
// race to a migration does not fall back to a GPU pull.
TEST(ClusterTest, ConcurrentForwardsOfOneVersionLandItOnce) {
  ForwardRig f;
  auto& puller = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  ASSERT_EQ(replica.stats().forwards, 1u);
  std::size_t channel = 0;
  while (f.client.lane_client(channel).endpoint() != puller.config().endpoint) ++channel;
  Bytes rdma_before = 0;
  std::vector<CheckpointDoneMsg> answers(2);
  auto proc = f.r.eng.spawn([](sim::Engine& eng, PortusClient& direct, PortusDaemon& rep,
                               dnn::Model& m, const std::string& key, Bytes& before,
                               std::vector<CheckpointDoneMsg>& out) -> sim::Process {
    m.mutate_weights(2);
    const auto epoch = co_await direct.checkpoint_named(key, 2);
    EXPECT_EQ(epoch, 2u);
    ForwardReqMsg req;
    req.model_name = key;
    req.source = direct.endpoint();
    req.source_epoch = epoch;
    before = rep.stats().rdma_bytes;
    std::vector<sim::Process> both;
    for (auto& answer : out) {
      both.push_back(eng.spawn([](PortusDaemon& d, ForwardReqMsg msg,
                                  CheckpointDoneMsg& a) -> sim::Process {
        a = co_await d.handle_forward(std::move(msg));
      }(rep, req, answer)));
    }
    for (auto& p : both) co_await p.join();
  }(f.r.eng, f.client.lane_client(channel), replica, f.model, f.key, rdma_before, answers));
  f.r.eng.run();
  proc.check();
  for (const auto& a : answers) {
    EXPECT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.epoch, 2u);
  }
  EXPECT_EQ(answers[0].payload_crc, answers[1].payload_crc);
  EXPECT_EQ(replica.stats().forwards, 2u) << "the version landed twice";
  EXPECT_EQ(replica.stats().rdma_bytes - rdma_before,
            replica.find_live_index(f.key)->slot_size());
  EXPECT_EQ(newest_done(replica, f.key).first, 2u);
  EXPECT_EQ(newest_done(replica, f.key), newest_done(puller, f.key));
  EXPECT_EQ(replica.stats().failed_ops, 0u);
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// A restore serves one version whole. A landing may rewrite any slot but
// the newest DONE one, so once one landing commits during a restore, the
// next one rewrites the slot the restore is still pushing. The restore
// holds the key's landing lock instead, and serves whichever version is
// newest when it gets it: here epoch 2, landing when the restore arrived.
TEST(ClusterTest, RestoreDuringTwoLandingsServesOneVersionWhole) {
  ClusterRig r{2};
  auto& volta = r.cluster->node("client-volta");
  // Many small tensors: the restore's WRITEs outlast two whole-slot READs.
  dnn::ModelSpec spec;
  spec.name = "many-small";
  spec.layers = 2000;
  spec.checkpoint_bytes = 16_MiB;
  dnn::ModelZoo::Options opt;
  opt.force_real = true;
  auto model = dnn::ModelZoo::create_from_spec(volta.gpu(0), spec, opt);
  auto cfg = r.client_config(2);
  cfg.shard_count = 1;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};
  auto setup = r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
  }(client, model));
  r.eng.run();
  setup.check();
  const std::string key = shard_key(spec.name, 0);
  auto& puller = *r.daemons[client.plan().shard_daemons[0].at(0)];
  auto& replica = *r.daemons[client.plan().shard_daemons[0].at(1)];
  const auto channel = [&](PortusDaemon& d) -> PortusClient& {
    std::size_t i = 0;
    while (client.lane_client(i).endpoint() != d.config().endpoint) ++i;
    return client.lane_client(i);
  };

  std::map<std::uint64_t, std::uint32_t> golden;  // weights CRC per epoch
  std::uint64_t served = 0;
  auto proc = r.eng.spawn([](sim::Engine& eng, PortusClient& pull, PortusClient& restore,
                             PortusDaemon& rep, dnn::Model& m, const std::string& k,
                             std::map<std::uint64_t, std::uint32_t>& crcs,
                             std::uint64_t& epoch) -> sim::Process {
    // The puller moves on to epochs 2 and 3 alone.
    for (const std::uint64_t e : {2, 3}) {
      m.mutate_weights(e);
      crcs[e] = m.weights_crc();
      EXPECT_EQ(co_await pull.checkpoint_named(k, e), e);
    }
    m.mutate_weights(99);
    // The replica lands them one after the other while it restores.
    auto landings = eng.spawn([](PortusDaemon& d, std::string source,
                                 std::string key) -> sim::Process {
      for (const std::uint64_t e : {2, 3}) {
        ForwardReqMsg req;
        req.model_name = key;
        req.source = source;
        req.source_epoch = e;
        const auto done = co_await d.handle_forward(std::move(req));
        EXPECT_TRUE(done.ok) << done.error;
        EXPECT_EQ(done.epoch, e);
      }
    }(rep, pull.endpoint(), k));
    epoch = co_await restore.restore_named(k, 1);
    co_await landings.join();
  }(r.eng, channel(puller), channel(replica), replica, model, key, golden, served));
  r.eng.run();
  proc.check();
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(model.weights_crc(), golden.at(2)) << "the restore pushed a slot being rewritten";
  EXPECT_EQ(newest_done(replica, key), newest_done(puller, key));
  EXPECT_EQ(newest_done(replica, key).first, 3u);
  EXPECT_EQ(replica.stats().failed_ops, 0u);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// A carried epoch must be new on the replica: one ahead of the puller
// without the client knowing refuses the forward and pulls the round
// itself. The client then knows the puller is behind, so the replica pulls
// the next round and the puller lands it by forward: the copies agree
// again.
TEST(ClusterTest, ReplicaAheadOfThePullerRefusesTheForwardThenCatchesItUp) {
  ForwardRig f;
  auto& puller = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  std::size_t channel = 0;
  while (f.client.lane_client(channel).endpoint() != replica.config().endpoint) ++channel;
  std::pair<std::uint64_t, std::uint64_t> after_refusal;  // (puller, replica) epochs
  auto proc = f.r.eng.spawn([](ForwardRig& rig, PortusClient& direct, PortusDaemon& p,
                               PortusDaemon& rep,
                               std::pair<std::uint64_t, std::uint64_t>& after) -> sim::Process {
    // A pull the client never saw puts the replica at epoch 2.
    rig.model.mutate_weights(2);
    const auto ahead = co_await direct.checkpoint_named(rig.key, 2);
    EXPECT_EQ(ahead, 2u);
    rig.model.mutate_weights(3);
    const auto ck = co_await rig.client.checkpoint(3);
    EXPECT_EQ(ck.epoch, 3u) << "the replica's own pull is the round's newest";
    EXPECT_FALSE(ck.degraded);
    after = {newest_done(p, rig.key).first, newest_done(rep, rig.key).first};
    rig.model.mutate_weights(4);
    const auto next = co_await rig.client.checkpoint(4);
    EXPECT_EQ(next.epoch, 4u);
    EXPECT_FALSE(next.degraded);
  }(f, f.client.lane_client(channel), puller, replica, after_refusal));
  f.r.eng.run();
  proc.check();
  EXPECT_EQ(after_refusal, std::make_pair(std::uint64_t{2}, std::uint64_t{3}));
  // Round 3: the puller's epoch 2 was not new on the replica, which pulled.
  // Round 4: the replica pulled, and its epoch 4 was new on the puller.
  EXPECT_EQ(replica.stats().failed_ops, 1u);
  EXPECT_EQ(replica.stats().checkpoints, 3u) << "the direct pull, rounds 3 and 4";
  EXPECT_EQ(replica.stats().forwards, 1u) << "round 1 only";
  EXPECT_EQ(puller.stats().checkpoints, 2u) << "rounds 1 and 3";
  EXPECT_EQ(puller.stats().forwards, 1u) << "round 4";
  EXPECT_EQ(newest_done(replica, f.key), newest_done(puller, f.key));
  EXPECT_EQ(newest_done(replica, f.key).first, 4u);
  EXPECT_EQ(f.timeouts(), 0u);
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// Two daemons each pull one shard and land the other's, so each pull's
// replica waits on the daemon whose replica waits on it. Tenanted with one
// admission slot each, that would deadlock if a waiting armed forward held
// its replica's ticket; a migration of one copy (a plain forward, which
// takes the link before anything else) runs alongside. Everything lands,
// and no watchdog fires.
TEST(ClusterTest, CrossedPullersAndReplicasWithOneAdmissionSlotFinish) {
  PortusDaemon::Config base;
  base.tenancy = true;
  base.admission_inflight = 1;
  ClusterRig r{2, base};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  auto cfg = r.client_config(2);
  cfg.shard_count = 2;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};
  CheckpointDoneMsg migrated;
  auto proc = r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m,
                             CheckpointDoneMsg& moved) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    const auto& plan = c.plan();
    EXPECT_NE(plan.shard_daemons[0].at(0), plan.shard_daemons[1].at(0)) << "pullers not crossed";
    // Shard 0's copy is migrated onto its replica from its puller, at the
    // epoch it holds, while round 2 runs.
    ForwardReqMsg req;
    req.model_name = shard_key("resnet50", 0);
    req.source = rig.endpoints[plan.shard_daemons[0].at(0)];
    req.source_epoch = 1;
    req.budget_ns = 20'000'000;
    auto& replica = *rig.daemons[plan.shard_daemons[0].at(1)];
    auto migration = rig.eng.spawn([](PortusDaemon& d, ForwardReqMsg msg,
                                      CheckpointDoneMsg& a) -> sim::Process {
      a = co_await d.handle_forward(std::move(msg));
    }(replica, req, moved));
    m.mutate_weights(2);
    const auto ck = co_await c.checkpoint(2);
    EXPECT_EQ(ck.epoch, 2u);
    EXPECT_FALSE(ck.degraded);
    co_await migration.join();
  }(r, client, model, migrated));
  r.eng.run();
  proc.check();
  EXPECT_TRUE(migrated.ok) << migrated.error;
  std::uint64_t timeouts = 0;
  for (std::size_t i = 0; i < client.lane_count(); ++i) {
    timeouts += client.lane_client(i).stats().timeouts;
  }
  EXPECT_EQ(timeouts, 0u);
  EXPECT_EQ(client.stats().lane_failures, 0u);
  // Each daemon pulls one shard a round, and its last forward is round 2's
  // armed one: it starts one control hop after the other daemon's pull
  // commits, so neither waited on the other's ticket.
  const auto pulls = spans_by_track(r.tracer, "checkpoint ");
  const auto forwards = spans_by_track(r.tracer, "forward ");
  const std::int64_t hop = std::chrono::nanoseconds{net::TcpSocket::kLatency}.count();
  for (std::uint32_t s = 0; s < 2; ++s) {
    const auto key = shard_key("resnet50", s);
    const auto& ring = client.plan().shard_daemons[s];
    const auto puller = newest_done(*r.daemons[ring.at(0)], key);
    EXPECT_EQ(puller.first, 2u) << key;
    EXPECT_EQ(newest_done(*r.daemons[ring.at(1)], key), puller) << key;
    const std::int64_t gap = forwards.at(r.endpoints[ring.at(1)]).back().first -
                             pulls.at(r.endpoints[ring.at(0)]).back().second;
    EXPECT_GE(gap, hop) << key;
    EXPECT_LT(gap, 2 * hop) << key;
  }
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// Online repack while a migration lands on a copy no client registered:
// the repacker must not take the copy's ACTIVE write slot for a crash
// leftover. The copy ends DONE at the source's epoch, nothing is freed,
// and fsck is clean.
TEST(ClusterTest, OnlineRepackSparesASessionlessMigrationsSlot) {
  ForwardRig f;
  auto& source = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  std::size_t channel = 0;
  while (f.client.lane_client(channel).endpoint() != source.config().endpoint) ++channel;
  // The source moves to epoch 2 alone; the replica restarts with no client
  // session, its index only on PMEM.
  auto pull = f.r.eng.spawn([](ForwardRig& rig, PortusClient& direct) -> sim::Process {
    rig.model.mutate_weights(2);
    const auto epoch = co_await direct.checkpoint_named(rig.key, 2);
    EXPECT_EQ(epoch, 2u);
  }(f, f.client.lane_client(channel)));
  f.r.eng.run();
  pull.check();
  replica.recover();
  ASSERT_EQ(replica.find_live_index(f.key), nullptr);

  // The repack starts the moment the migration's write slot goes ACTIVE.
  Repacker::Report report;
  bool repacked = false;
  f.r.eng.spawn(when(
      f.r.eng,
      [&] {
        const auto idx = replica.load_index(f.key);
        return idx.slot(0).state == SlotState::kActive || idx.slot(1).state == SlotState::kActive;
      },
      [&] {
        f.r.eng.spawn([](PortusDaemon& d, Repacker::Report& out, bool& ran) -> sim::Process {
          out = co_await Repacker{d}.repack_online(1);
          ran = true;
        }(replica, report, repacked));
      }));
  CheckpointDoneMsg moved;
  ForwardReqMsg req;
  req.model_name = f.key;
  req.source = source.config().endpoint;
  req.source_epoch = 2;
  req.budget_ns = 20'000'000;
  auto migration = f.r.eng.spawn([](PortusDaemon& d, ForwardReqMsg msg,
                                    CheckpointDoneMsg& a) -> sim::Process {
    a = co_await d.handle_forward(std::move(msg));
  }(replica, req, moved));
  f.r.eng.run();
  migration.check();
  ASSERT_TRUE(repacked) << "the migration never took an ACTIVE slot";
  EXPECT_TRUE(moved.ok) << moved.error;
  EXPECT_EQ(moved.epoch, 2u);
  EXPECT_EQ(report.slots_cleared, 0);
  EXPECT_EQ(report.freed_crashed, 0u);
  const auto idx = replica.load_index(f.key);
  const auto done = idx.latest_done_slot();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(idx.slot(*done).epoch, 2u);
  const auto block = idx.payload_crcs(*done);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->crcs, newest_done(source, f.key).second);
  EXPECT_TRUE(Fsck{replica}.run(/*repair=*/false).clean());
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// A crash while a daemon runs several copies at once is still one lane
// failure: every channel to it sees the crash, the first one takes the lane
// down, and every copy there drops out of later ops. After the restart, one
// re-resolve revives the lane and re-registers each copy placed there once.
TEST(ClusterTest, CrashWithCopiesInFlightDownsTheLaneOnce) {
  ClusterRig r{2};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  auto cfg = r.client_config(2);
  cfg.shard_count = 8;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};

  // Round 1 runs clean and times the copies on portusd1; round 2 crashes
  // portusd1 halfway between its last copy starting and its first ending.
  Time crash_at = Time{0};
  std::uint32_t want = 0;
  auto proc = r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m, Time& crash,
                             std::uint32_t& crc) -> sim::Process {
    co_await c.register_model(m);
    const Time t1 = rig.eng.now();
    co_await c.checkpoint(1);
    const auto spans = spans_by_track(rig.tracer, "checkpoint ").at("portusd1");
    std::int64_t last_begin = 0;
    std::int64_t first_end = spans.front().second;
    for (const auto& [begin, end] : spans) {
      last_begin = std::max(last_begin, begin);
      first_end = std::min(first_end, end);
    }
    const Duration offset{(last_begin + first_end) / 2 - t1.count()};

    m.mutate_weights(2);
    crc = m.weights_crc();
    crash = rig.eng.now() + offset;
    rig.faults.kill_after("portusd1", offset);
    const auto ck = co_await c.checkpoint(2);
    EXPECT_TRUE(ck.degraded);
    EXPECT_EQ(ck.epoch, 2u);

    // Every copy on portusd1 is gone: the restore serves every shard from
    // portusd0, re-routing the ones whose primary copy was on portusd1.
    m.mutate_weights(3);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_TRUE(rr.degraded);
    std::uint32_t primaries_on_1 = 0;
    for (const auto& ring : c.plan().shard_daemons) primaries_on_1 += ring.at(0) == 1 ? 1 : 0;
    EXPECT_EQ(rr.rerouted_shards, primaries_on_1);
    co_await rig.eng.sleep(std::chrono::milliseconds{5});  // the dead daemon's ops drain
  }(r, client, model, crash_at, want));
  r.eng.run();
  proc.check();
  EXPECT_EQ(model.weights_crc(), want);

  // Several copies were running on portusd1 when it crashed, yet the lane
  // failed once.
  int in_flight = 0;
  const std::int64_t crash_ns = crash_at.count();
  const auto tracks = spans_by_track(r.tracer, "checkpoint ");
  for (const auto& [begin, end] : tracks.at("portusd1")) {
    if (begin < crash_ns && crash_ns < end) ++in_flight;
  }
  EXPECT_GE(in_flight, 2);
  EXPECT_EQ(client.stats().lane_failures, 1u);
  EXPECT_EQ(client.stats().degraded_checkpoints, 1u);
  EXPECT_EQ(r.daemons[0]->stats().restores, 8u);

  // Restart portusd1 over its intact PMEM: one re-resolve revives the lane
  // and registers each copy placed there exactly once.
  r.daemons[1].reset();
  r.daemons[1] = std::make_unique<PortusDaemon>(*r.cluster, r.cluster->node("pmem1"),
                                                r.rendezvous, r.daemon_config(1));
  r.daemons[1]->recover();
  r.daemons[1]->start();
  auto revive = r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.refresh_placement();
    m.mutate_weights(4);
    const auto ck = co_await c.checkpoint(4);
    EXPECT_FALSE(ck.degraded);
  }(client, model));
  r.eng.run();
  revive.check();
  EXPECT_EQ(client.stats().lane_revivals, 1u);
  EXPECT_EQ(client.stats().lane_failures, 1u);
  std::uint64_t placed_on_1 = 0;
  for (const auto& ring : client.plan().shard_daemons) {
    placed_on_1 += static_cast<std::uint64_t>(std::count(ring.begin(), ring.end(), 1u));
  }
  EXPECT_EQ(placed_on_1, 8u);
  EXPECT_EQ(r.daemons[1]->stats().shard_registrations, placed_on_1);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// ---------------------------------------------------------------------------
// Restore waves: each wave spreads its shards' bytes over the live copies.

// The shard ids of `model`'s "restore " spans, per daemon track: the shards
// each daemon was sent, served or refused.
std::map<std::string, std::vector<std::uint32_t>> restores_by_daemon(const sim::Tracer& tracer,
                                                                     const std::string& model) {
  const std::string prefix = "restore " + model + "#s";
  std::map<std::string, std::vector<std::uint32_t>> out;
  for_each_span(tracer, prefix,
                [&](const std::string& track, const std::string& name, std::int64_t,
                    std::int64_t) {
                  out[track].push_back(
                      static_cast<std::uint32_t>(std::stoul(name.substr(prefix.size()))));
                });
  return out;
}

// How many non-empty shards have their primary copy at ring `position`.
std::uint32_t primaries_on(const Placement::Plan& plan, std::uint32_t position) {
  std::uint32_t n = 0;
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    if (!plan.shard_tensors[s].empty() && plan.shard_daemons[s].at(0) == position) ++n;
  }
  return n;
}

// resnet50 cut into 8 shards, 2 copies each, on 3 daemons: each daemon
// holds some shards' primaries and others' replicas.
struct WaveRig {
  ClusterRig r{3};
  net::Node& volta = r.cluster->node("client-volta");
  dnn::Model model = ForwardRig::make_model(volta);
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, config(r)};

  static ClusterClient::Config config(ClusterRig& rig) {
    auto cfg = rig.client_config(2);
    cfg.shard_count = 8;
    return cfg;
  }
  // Restart the daemon at position `i` over its PMEM.
  void restart(int i) {
    r.daemons[i].reset();
    r.daemons[i] = std::make_unique<PortusDaemon>(*r.cluster, r.cluster->node(strf("pmem{}", i)),
                                                  r.rendezvous, r.daemon_config(i));
    r.daemons[i]->recover();
    r.daemons[i]->start();
  }
};

// After a crash the dead daemon's primaries do not all fall through to the
// daemons of their replicas: the wave splits the shards over both
// survivors. Every shard whose primary died still counts as re-routed.
TEST(ClusterTest, RestoreAfterACrashSplitsTheShardsOverTheSurvivors) {
  WaveRig w;
  std::uint32_t want = 0;
  auto proc = w.r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m,
                               std::uint32_t& crc) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    rig.faults.kill_now("portusd1");
    m.mutate_weights(2);
    const auto ck = co_await c.checkpoint(2);
    EXPECT_TRUE(ck.degraded);
    crc = m.weights_crc();
    m.mutate_weights(3);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_TRUE(rr.degraded);
    EXPECT_GT(primaries_on(c.plan(), 1), 0u);
    EXPECT_EQ(rr.rerouted_shards, primaries_on(c.plan(), 1));
  }(w.r, w.client, w.model, want));
  w.r.eng.run();
  proc.check();
  EXPECT_EQ(w.model.weights_crc(), want);
  EXPECT_EQ(w.r.daemons[0]->stats().restores, 4u);
  EXPECT_EQ(w.r.daemons[2]->stats().restores, 4u);
  EXPECT_EQ(w.r.eng.failed_process_count(), 0);
}

// On a healthy ring the wave serves some shards from a replica to even out
// the daemons' bytes. That is not a reroute: the restore is not degraded.
TEST(ClusterTest, BalancedRestoreOfAHealthyRingIsNotDegraded) {
  WaveRig w;
  std::uint32_t want = 0;
  auto proc = w.r.eng.spawn([](ClusterClient& c, dnn::Model& m,
                               std::uint32_t& crc) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    crc = m.weights_crc();
    m.mutate_weights(2);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 1u);
    EXPECT_FALSE(rr.degraded);
    EXPECT_EQ(rr.rerouted_shards, 0u);
  }(w.client, w.model, want));
  w.r.eng.run();
  proc.check();
  EXPECT_EQ(w.model.weights_crc(), want);
  std::uint32_t from_replicas = 0;
  for (const auto& [track, shards] : restores_by_daemon(w.r.tracer, "resnet50")) {
    for (const auto s : shards) {
      if (w.r.endpoints.at(w.client.plan().shard_daemons[s].at(0)) != track) ++from_replicas;
    }
  }
  EXPECT_GT(from_replicas, 0u) << "every shard came from its primary";
  EXPECT_EQ(w.client.stats().degraded_restores, 0u);
  EXPECT_EQ(w.r.eng.failed_process_count(), 0);
}

// bench/cluster_scaling's failover scenario on `r`'s 3 daemons: four jobs
// (the elastic workload's models at scale 0.005, R=2, 8 shards each)
// checkpoint, portusd1 crashes, each checkpoints once more without it, and
// all four restore at once, 16 shard restores per survivor on its 8
// workers. Returns each job's restore time, in kStormJobs order (ascending
// bytes), after checking that every restore is bit-exact and every daemon
// has all its workers back.
const char* const kStormJobs[] = {"resnet50", "swin_b", "vgg19_bn", "bert"};

std::vector<Duration> restore_storm(ClusterRig& r) {
  auto cfg = r.client_config(2);
  cfg.shard_count = 8;
  auto& volta = r.cluster->node("client-volta");
  std::vector<dnn::Model> models;
  std::vector<std::unique_ptr<ClusterClient>> clients;
  for (const char* name : kStormJobs) {
    auto& gpu = volta.gpu(models.size());
    dnn::ModelZoo::Options opt;
    opt.scale = 0.005;
    models.push_back(dnn::ModelZoo::create(gpu, name, opt));
    clients.push_back(std::make_unique<ClusterClient>(*r.cluster, volta, gpu, r.rendezvous, cfg));
  }
  std::vector<std::uint32_t> want(models.size());
  std::vector<Duration> took(models.size());
  const auto all = [&](auto op) {
    std::vector<sim::Process> procs;
    for (std::size_t j = 0; j < models.size(); ++j) {
      procs.push_back(r.eng.spawn(op(r.eng, *clients[j], models[j], want[j], took[j])));
    }
    r.eng.run();
    for (auto& p : procs) p.check();
  };
  all([](sim::Engine&, ClusterClient& c, dnn::Model& m, std::uint32_t&,
         Duration&) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
  });
  r.faults.kill_now("portusd1");
  all([](sim::Engine&, ClusterClient& c, dnn::Model& m, std::uint32_t& crc,
         Duration&) -> sim::Process {
    m.mutate_weights(2);
    co_await c.checkpoint(2);
    crc = m.weights_crc();
  });
  all([](sim::Engine& eng, ClusterClient& c, dnn::Model& m, std::uint32_t&,
         Duration& out) -> sim::Process {
    m.mutate_weights(3);
    const Time t0 = eng.now();
    const auto rr = co_await c.restore();
    out = eng.now() - t0;
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_TRUE(rr.degraded);
  });
  for (std::size_t j = 0; j < models.size(); ++j) {
    EXPECT_EQ(models[j].weights_crc(), want[j]) << kStormJobs[j] << " is not bit-exact";
  }
  for (const auto& d : r.daemons) EXPECT_EQ(d->idle_workers(), d->config().workers);
  return took;
}

// Served by job size (smallest job first) and, among other ops, shortest
// remaining transfer first, the small jobs' shards no longer queue behind
// bert's: the median job restores in at most 0.45 ms (0.519 ms with only
// the shortest remaining transfer first, 0.757 ms with the workers in
// arrival order).
TEST(ClusterTest, FourJobsRestoringAfterACrashServeTheSmallShardsFirst) {
  ClusterRig r{3};
  const auto took = restore_storm(r);
  auto sorted = took;
  std::sort(sorted.begin(), sorted.end());
  const Duration median = (sorted[1] + sorted[2]) / 2;
  EXPECT_LE(median, 450us) << "per job (ns): " << took[0].count() << " " << took[1].count()
                           << " " << took[2].count() << " " << took[3].count();
  std::uint64_t yields = 0;
  for (const auto& d : r.daemons) yields += d->stats().worker_yields;
  EXPECT_GT(yields, 0u);
  const auto waits = spans_by_track(r.tracer, "wait ");
  EXPECT_TRUE(waits.contains("portusd0") || waits.contains("portusd2"))
      << "no survivor traced a wait for a worker";
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// The same storm, job by job. All four start at once and finish in byte
// order, since a survivor posts no WR of a job while a smaller job's
// restore is active on it: swin_b no longer shares the client link with
// vgg19_bn's shards (0.406 ms when it did), and bert, last, still moves its
// bytes at the link's pace (1,047,469 ns before jobs were ordered).
TEST(ClusterTest, RestoreStormServesTheSmallestJobFirst) {
  ClusterRig r{3};
  const auto took = restore_storm(r);
  for (std::size_t j = 1; j < took.size(); ++j) {
    EXPECT_LT(took[j - 1], took[j]) << kStormJobs[j - 1] << " finished after " << kStormJobs[j];
  }
  EXPECT_LE(took[1], 300us) << "swin_b";
  EXPECT_LE(took[3].count(), 1'047'469 * 1.015) << "bert";
  for (const int survivor : {0, 2}) {
    const auto& d = *r.daemons[survivor];
    EXPECT_GT(d.stats().restore_holds, 0u) << r.endpoints[survivor];
    EXPECT_GT(d.stats().restore_hold_seconds, 0.0) << r.endpoints[survivor];
  }
  EXPECT_TRUE(spans_by_track(r.tracer, "hold ").contains("portusd0"));
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// A one-daemon ring with two workers, one shard per job. vgg19_bn's and
// bert's restores start together and take both workers, and bert's holds
// its worker idle while vgg19_bn, the smaller job, posts. resnet50's
// restore arrives 100 us later and finds no worker: bert's lends it its
// worker at once instead of sitting on it until vgg19_bn has posted (which
// vgg19_bn, held in turn behind resnet50, never would). resnet50 is served
// first, and nothing waits out its timeout.
TEST(ClusterTest, HeldRestoreLendsItsWorkerToASmallerJob) {
  PortusDaemon::Config base;
  base.workers = 2;
  ClusterRig r{1, base};
  auto& volta = r.cluster->node("client-volta");
  const char* const names[] = {"vgg19_bn", "bert", "resnet50"};
  std::vector<dnn::Model> models;
  std::vector<std::unique_ptr<ClusterClient>> clients;
  for (const char* name : names) {
    auto& gpu = volta.gpu(models.size());
    dnn::ModelZoo::Options opt;
    opt.scale = 0.005;
    models.push_back(dnn::ModelZoo::create(gpu, name, opt));
    clients.push_back(
        std::make_unique<ClusterClient>(*r.cluster, volta, gpu, r.rendezvous, r.client_config(1)));
  }
  std::vector<std::uint32_t> want(models.size());
  std::vector<Time> finished(models.size());
  std::vector<sim::Process> procs;
  for (std::size_t j = 0; j < models.size(); ++j) {
    procs.push_back(r.eng.spawn([](sim::Engine& eng, ClusterClient& c, dnn::Model& m,
                                   Duration delay, std::uint32_t& crc,
                                   Time& end) -> sim::Process {
      co_await c.register_model(m);
      co_await c.checkpoint(1);
      crc = m.weights_crc();
      m.mutate_weights(2);
      // The restores start together at 20 ms; resnet50's 100 us later.
      EXPECT_LT(eng.now(), 20ms);
      co_await eng.sleep(20ms - eng.now() + delay);
      const auto rr = co_await c.restore();
      end = eng.now();
      EXPECT_EQ(rr.epoch, 1u);
    }(r.eng, *clients[j], models[j], j == 2 ? 100us : 0us, want[j], finished[j])));
  }
  r.eng.run();
  for (auto& p : procs) p.check();
  for (std::size_t j = 0; j < models.size(); ++j) {
    EXPECT_EQ(models[j].weights_crc(), want[j]) << names[j] << " is not bit-exact";
  }
  EXPECT_LT(finished[2], finished[0]) << "resnet50 was not served before vgg19_bn";
  EXPECT_LT(finished[2], finished[1]) << "resnet50 was not served before bert";
  std::map<std::string, std::int64_t> first_hold;
  for_each_span(r.tracer, "hold ",
                [&](const std::string&, const std::string& name, std::int64_t begin,
                    std::int64_t) { first_hold.try_emplace(name, begin); });
  ASSERT_TRUE(first_hold.contains("hold bert#s0"));
  EXPECT_LT(first_hold.at("hold bert#s0"), std::chrono::nanoseconds{20ms + 100us}.count())
      << "bert's restore was not holding its worker when resnet50's arrived";
  EXPECT_TRUE(first_hold.contains("hold vgg19_bn#s0"));
  const auto& d = *r.daemons[0];
  EXPECT_GE(d.stats().restore_holds, 2u);
  EXPECT_GE(d.stats().worker_yields, 1u);
  EXPECT_EQ(d.stats().failed_ops, 0u);
  EXPECT_EQ(d.idle_workers(), 2);
  for (const auto& c : clients) EXPECT_EQ(c->stats().degraded_restores, 0u);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// Restores from plain PortusClients (zoo's and fleet's: no job bytes)
// belong to no job. Two of them, vgg19_bn and resnet50 at scale 0.005,
// restore at once on a one-worker daemon: they keep the pool's shortest
// remaining transfer first, never hold, and take what they took before
// jobs were ordered (pinned in ns).
TEST(ClusterTest, PlainClientRestoresNeverHold) {
  PortusDaemon::Config base;
  base.workers = 1;
  ClusterRig r{1, base};
  auto& volta = r.cluster->node("client-volta");
  const char* const names[] = {"vgg19_bn", "resnet50"};
  std::vector<dnn::Model> models;
  std::vector<std::unique_ptr<PortusClient>> clients;
  for (const char* name : names) {
    auto& gpu = volta.gpu(models.size());
    dnn::ModelZoo::Options opt;
    opt.scale = 0.005;
    models.push_back(dnn::ModelZoo::create(gpu, name, opt));
    clients.push_back(
        std::make_unique<PortusClient>(*r.cluster, volta, gpu, r.rendezvous, "portusd0"));
  }
  std::vector<Duration> took(models.size());
  std::vector<sim::Process> procs;
  for (std::size_t j = 0; j < models.size(); ++j) {
    procs.push_back(r.eng.spawn([](sim::Engine& eng, PortusClient& c, dnn::Model& m,
                                   Duration& out) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
      m.mutate_weights(2);
      EXPECT_LT(eng.now(), 20ms);
      co_await eng.sleep(20ms - eng.now());  // both restores start at 20 ms
      const Time t0 = eng.now();
      co_await c.restore(m);
      out = eng.now() - t0;
    }(r.eng, *clients[j], models[j], took[j])));
  }
  r.eng.run();
  for (auto& p : procs) p.check();
  const auto& d = *r.daemons[0];
  EXPECT_EQ(d.stats().restore_holds, 0u);
  EXPECT_EQ(d.stats().restores, 2u);
  EXPECT_EQ(took[0].count(), 807'105);
  EXPECT_EQ(took[1].count(), 198'715);
  EXPECT_EQ(d.idle_workers(), 1);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// Run WaveRig's restart scenario: checkpoint 1 on the healthy ring, crash
// portusd1, checkpoint 2 without it, restart it over its PMEM. Returns the
// weights' CRC at epoch 2; portusd1's copies still hold epoch 1.
std::uint32_t checkpoint_around_a_restart(WaveRig& w) {
  std::uint32_t want = 0;
  auto proc = w.r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m,
                               std::uint32_t& crc) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    rig.faults.kill_now("portusd1");
    m.mutate_weights(2);
    const auto ck = co_await c.checkpoint(2);
    EXPECT_TRUE(ck.degraded) << "portusd1's copies stay at epoch 1";
    crc = m.weights_crc();
  }(w.r, w.client, w.model, want));
  w.r.eng.run();
  proc.check();
  w.restart(1);
  return want;
}

// After the restart the client re-registers portusd1's copies, and the
// acks say they hold epoch 1, below the shards' epoch 2: the wave leaves
// them out, so no restore is refused and one wave serves every shard. Each
// shard whose primary is on portusd1 counts as re-routed.
TEST(ClusterTest, RestoreLeavesOutCopiesKnownToBeStale) {
  WaveRig w;
  const std::uint32_t want = checkpoint_around_a_restart(w);
  ClusterClient::RestoreResult rr;
  auto proc = w.r.eng.spawn([](ClusterClient& c, dnn::Model& m,
                               ClusterClient::RestoreResult& out) -> sim::Process {
    co_await c.refresh_placement();
    m.mutate_weights(3);
    out = co_await c.restore();
  }(w.client, w.model, rr));
  w.r.eng.run();
  proc.check();
  EXPECT_EQ(rr.epoch, 2u);
  EXPECT_TRUE(rr.degraded) << "portusd1's primaries were re-routed";
  EXPECT_GT(primaries_on(w.client.plan(), 1), 0u);
  EXPECT_EQ(rr.rerouted_shards, primaries_on(w.client.plan(), 1));
  EXPECT_EQ(w.model.weights_crc(), want);
  const auto sent = restores_by_daemon(w.r.tracer, "resnet50");
  EXPECT_EQ(sent.count("portusd1"), 0u) << "a stale copy was sent a restore";
  EXPECT_EQ(w.r.daemons[1]->stats().failed_ops, 0u);
  EXPECT_EQ(w.r.daemons[0]->stats().restores + w.r.daemons[2]->stats().restores, 8u);
  std::size_t spans = 0;
  for (const auto& [track, shards] : sent) spans += shards.size();
  EXPECT_EQ(spans, 8u) << "a shard needed a second wave";
  EXPECT_EQ(w.r.eng.failed_process_count(), 0);
}

// A copy the client cannot know is bad (a byte flipped in its DONE slot)
// refuses its restore and sends its shard to an untried copy in the next
// wave. The shard is re-routed only if the refusing copy was its primary:
// a replica the first wave picked for balance is not.
TEST(ClusterTest, RefusedCopySendsItsShardToTheNextWave) {
  WaveRig w;
  std::uint32_t want = 0;
  auto first = w.r.eng.spawn([](ClusterClient& c, dnn::Model& m,
                                std::uint32_t& crc) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    crc = m.weights_crc();
  }(w.client, w.model, want));
  w.r.eng.run();
  first.check();

  // Bit rot in every version portusd1 holds.
  auto& rotten = *w.r.daemons[1];
  for (const auto& key : rotten.model_table().names()) {
    const MIndex* idx = rotten.find_live_index(key);
    const Bytes at = idx->slot(*idx->latest_done_slot()).data_offset +
                     idx->tensors()[0].offset_in_slot;
    auto b = rotten.device().read(at, 1);
    b[0] ^= std::byte{0x40};
    rotten.device().write(at, b);
    rotten.device().persist(at, 1);
  }
  ClusterClient::RestoreResult rr;
  auto proc = w.r.eng.spawn([](ClusterClient& c, dnn::Model& m,
                               ClusterClient::RestoreResult& out) -> sim::Process {
    m.mutate_weights(2);
    out = co_await c.restore();
  }(w.client, w.model, rr));
  w.r.eng.run();
  proc.check();
  EXPECT_EQ(rr.epoch, 1u);
  EXPECT_TRUE(rr.degraded) << "the refused shards needed a second wave";
  EXPECT_EQ(w.model.weights_crc(), want);

  // portusd1 refused every shard the first wave sent it; each one's other
  // copy served it.
  const auto refused = restores_by_daemon(w.r.tracer, "resnet50")["portusd1"];
  ASSERT_FALSE(refused.empty());
  EXPECT_EQ(rotten.stats().restores, 0u);
  EXPECT_EQ(rotten.stats().integrity_rejects, refused.size());
  EXPECT_EQ(rotten.stats().failed_ops, refused.size());
  EXPECT_EQ(w.r.daemons[0]->stats().restores + w.r.daemons[2]->stats().restores, 8u);
  std::uint32_t refused_primaries = 0;
  for (const auto s : refused) {
    refused_primaries += w.client.plan().shard_daemons[s].at(0) == 1 ? 1 : 0;
  }
  // The ring has both kinds: refused primaries, and a refused replica.
  EXPECT_GT(refused_primaries, 0u);
  EXPECT_LT(refused_primaries, refused.size());
  EXPECT_EQ(rr.rerouted_shards, refused_primaries);
  EXPECT_EQ(w.r.eng.failed_process_count(), 0);
}

// The acks of a client registering anew carry each copy's newest epoch, so
// a fresh process finds the shards' newest version even where a restarted
// daemon's copies are behind: it restores epoch 2 bit-exactly, and nothing
// from portusd1.
TEST(ClusterTest, FreshClientAfterARestartRestoresTheNewestVersion) {
  WaveRig w;
  const std::uint32_t want = checkpoint_around_a_restart(w);
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  opt.weight_seed = 4242;
  auto model = dnn::ModelZoo::create(w.volta.gpu(1), "resnet50", opt);
  ASSERT_NE(model.weights_crc(), want);
  ClusterClient fresh{*w.r.cluster, w.volta, w.volta.gpu(1), w.r.rendezvous,
                      WaveRig::config(w.r)};
  ClusterClient::RestoreResult rr;
  auto proc = w.r.eng.spawn([](ClusterClient& c, dnn::Model& m,
                               ClusterClient::RestoreResult& out) -> sim::Process {
    co_await c.register_model(m);
    out = co_await c.restore();
  }(fresh, model, rr));
  w.r.eng.run();
  proc.check();
  EXPECT_EQ(rr.epoch, 2u);
  EXPECT_EQ(model.weights_crc(), want) << "a stale copy was restored";
  EXPECT_EQ(w.r.daemons[1]->stats().restores, 0u);
  EXPECT_EQ(restores_by_daemon(w.r.tracer, "resnet50").count("portusd1"), 0u);
  EXPECT_EQ(w.r.eng.failed_process_count(), 0);
}

// The first round after a restart pulls each shard once, on a copy the
// client does not know to be behind: a shard whose primary is on the
// restarted portusd1 (known at epoch 1 by its registration ack) pulls on
// its replica and forwards to portusd1. No forward is refused, and every
// copy ends at the round's epoch under one CRC block.
TEST(ClusterTest, RoundAfterARestartPullsEachShardOnceOnACopyNotBehind) {
  WaveRig w;
  checkpoint_around_a_restart(w);
  const auto totals = [&] {
    std::array<std::uint64_t, 3> t{};  // pulls, forwards, failed ops
    for (auto& d : w.r.daemons) {
      t[0] += d->stats().checkpoints;
      t[1] += d->stats().forwards;
      t[2] += d->stats().failed_ops;
    }
    return t;
  };
  const auto before = totals();  // the re-registration lands nothing
  auto proc = w.r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.refresh_placement();
    m.mutate_weights(3);
    const auto ck = co_await c.checkpoint(3);
    EXPECT_EQ(ck.epoch, 3u);
    EXPECT_FALSE(ck.degraded);
  }(w.client, w.model));
  w.r.eng.run();
  proc.check();
  const auto after = totals();
  EXPECT_EQ(after[0] - before[0], 8u) << "GPU pulls";
  EXPECT_EQ(after[1] - before[1], 8u) << "forwards";
  EXPECT_EQ(after[2] - before[2], 0u) << "refused forwards";
  for (std::uint32_t s = 0; s < 8; ++s) {
    const auto key = shard_key("resnet50", s);
    const auto& ring = w.client.plan().shard_daemons[s];
    const auto first = newest_done(*w.r.daemons[ring[0]], key);
    EXPECT_EQ(first.first, 3u) << key;
    EXPECT_EQ(newest_done(*w.r.daemons[ring[1]], key), first) << key;
  }
  EXPECT_EQ(w.r.eng.failed_process_count(), 0);
}

// A restarted daemon's lane comes back with a fresh client per channel,
// and each one registers through the job's MRs: no pin, only the dial and
// the packet. The MRs stay valid in the job's protection domain, so after
// the next round the restarted daemon's restores land bit-exact.
TEST(ClusterTest, RevivedLaneRegistersWithoutAPinAndRestoresBitExact) {
  WaveRig w;
  checkpoint_around_a_restart(w);
  const auto reused = w.client.stats().pins_reused;
  std::uint32_t want = 0;
  auto proc = w.r.eng.spawn([](ClusterClient& c, dnn::Model& m,
                               std::uint32_t& crc) -> sim::Process {
    co_await c.refresh_placement();
    m.mutate_weights(3);
    const auto ck = co_await c.checkpoint(3);
    EXPECT_EQ(ck.epoch, 3u);
    EXPECT_FALSE(ck.degraded);
    crc = m.weights_crc();
    m.mutate_weights(4);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 3u);
  }(w.client, w.model, want));
  w.r.eng.run();
  proc.check();

  std::uint64_t on_restarted = 0;
  for (const auto& ring : w.client.plan().shard_daemons) {
    on_restarted += static_cast<std::uint64_t>(std::count(ring.begin(), ring.end(), 1u));
  }
  ASSERT_GT(on_restarted, 0u);
  EXPECT_EQ(w.client.stats().pins, 8u);
  EXPECT_EQ(w.client.stats().pins_reused - reused, on_restarted);
  std::uint64_t revived = 0;
  for (std::size_t i = 0; i < w.client.lane_count(); ++i) {
    const auto& lane = w.client.lane_client(i);
    if (lane.endpoint() != "portusd1") continue;
    ++revived;
    EXPECT_EQ(lane.stats().regions_registered, 0u) << "channel " << i;
    EXPECT_LT(lane.stats().registration_time, gpu::PeerMem::kBaseLatency) << "channel " << i;
  }
  EXPECT_EQ(revived, on_restarted);
  EXPECT_EQ(w.model.weights_crc(), want) << "restore is not bit-exact";
  EXPECT_GT(w.r.daemons[1]->stats().restores, 0u) << "the restarted daemon served no shard";
  EXPECT_EQ(w.r.daemons[1]->stats().failed_ops, 0u);
  EXPECT_EQ(w.r.eng.failed_process_count(), 0);
}

// A pull on a copy known to be behind its shard mints above the shard's
// acked epoch. portusd1 misses round 2; then portusd0 crashes and portusd1
// restarts, so in round 3 every shard's only live copy holds epoch 1 while
// the shard was acked at 2. Round 3 commits epoch 3, not a second version
// of epoch 2, and once portusd0 is back the restore serves round 3's
// weights bit-exactly instead of mixing in round 2's.
TEST(ClusterTest, PullOnACopyBehindItsShardMintsAboveTheAckedEpoch) {
  ClusterRig r{2};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  auto cfg = r.client_config(2);
  cfg.shard_count = 4;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};
  const auto restart = [&r](int i) {
    r.daemons[i].reset();
    r.daemons[i] = std::make_unique<PortusDaemon>(
        *r.cluster, r.cluster->node(strf("pmem{}", i)), r.rendezvous, r.daemon_config(i));
    r.daemons[i]->recover();
    r.daemons[i]->start();
  };
  const auto run = [&r](sim::Process p) {
    auto proc = r.eng.spawn(std::move(p));
    r.eng.run();
    proc.check();
  };

  run([](ClusterRig& rig, ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    rig.faults.kill_now("portusd1");
    m.mutate_weights(2);
    const auto ck = co_await c.checkpoint(2);
    EXPECT_EQ(ck.epoch, 2u);
    EXPECT_TRUE(ck.degraded);
  }(r, client, model));
  r.faults.kill_now("portusd0");
  restart(1);
  std::uint32_t want = 0;
  run([](ClusterClient& c, dnn::Model& m, std::uint32_t& crc) -> sim::Process {
    co_await c.refresh_placement();
    m.mutate_weights(3);
    const auto ck = co_await c.checkpoint(3);
    EXPECT_EQ(ck.epoch, 3u) << "round 3 named epoch 2 a second time";
    EXPECT_TRUE(ck.degraded);
    crc = m.weights_crc();
  }(client, model, want));
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(newest_done(*r.daemons[1], shard_key("resnet50", s)).first, 3u) << s;
  }

  restart(0);
  run([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    co_await c.refresh_placement();
    m.mutate_weights(4);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 3u);
  }(client, model));
  EXPECT_EQ(model.weights_crc(), want) << "a shard restored round 2's version";
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// A join moves some shards' copies off portusd0 and portusd1, and the
// joiner's drain places them back on the channels they left, still
// registered there. The daemon kept each such copy, and the drain's
// migrator lands only newer versions on it, so the epoch the client last
// knew it at is a floor. Rounds that commit during the drain's pre-copy
// leave a placed-back copy behind its other copy; known behind, it is not
// the puller of the round after the drain. Had it pulled, it would have
// minted an epoch its other copy already holds, and that copy would have
// refused the forward and pulled the round again.
TEST(ClusterTest, CopyPlacedBackOnADaemonItLeftIsNotPulledWhileKnownBehind) {
  ClusterRig r{3};
  ElasticCluster elastic{r.eng};
  elastic.add_member(r.endpoints[0], *r.daemons[0]);
  elastic.add_member(r.endpoints[1], *r.daemons[1]);
  elastic.seal();
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  ClusterClient::Config cfg;
  cfg.replicas = 2;
  cfg.shard_count = 8;
  cfg.membership = &elastic;
  cfg.op_timeout = 50ms;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};

  // The loader checkpoints back to back while the ring grows to three and
  // shrinks back to two.
  bool stop = false;
  std::uint64_t landed = 0;
  auto loader = r.eng.spawn([](ClusterClient& c, dnn::Model& m, const bool& stop_flag,
                               std::uint64_t& n) -> sim::Process {
    co_await c.register_model(m);
    while (!stop_flag) {
      m.mutate_weights(n + 1);
      const auto ck = co_await c.checkpoint(n + 1);
      EXPECT_FALSE(ck.degraded);
      ++n;
    }
  }(client, model, stop, landed));
  Placement::Plan grown;
  auto resize = r.eng.spawn([](sim::Engine& eng, ElasticCluster& e, PortusDaemon& joiner,
                               ClusterClient& c, const std::uint64_t& n, bool& stop_flag,
                               Placement::Plan& mid) -> sim::Process {
    const auto rounds = [&](std::uint64_t more) -> sim::SubTask<> {
      const auto want = n + more;
      while (n < want) co_await eng.sleep(100us);
    };
    co_await rounds(2);
    co_await e.join("portusd2", joiner);
    co_await rounds(2);
    mid = c.plan();
    co_await e.drain("portusd2");
    co_await rounds(2);
    stop_flag = true;
  }(r.eng, elastic, *r.daemons[2], client, landed, stop, grown));
  r.eng.run();
  loader.check();
  resize.check();

  // The shards the joiner held came back to the daemons they left.
  std::uint32_t placed_back = 0;
  for (std::uint32_t s = 0; s < 8; ++s) {
    const auto& ring = grown.shard_daemons[s];
    placed_back += static_cast<std::uint32_t>(std::count(ring.begin(), ring.end(), 2u));
  }
  EXPECT_GT(placed_back, 0u);
  EXPECT_GT(elastic.stats().copies_moved, 0u);

  std::uint64_t refused = 0;
  for (auto& d : r.daemons) refused += d->stats().failed_ops;
  EXPECT_EQ(refused, 0u) << "a copy placed back pulled a round its other copy held";
  for (std::uint32_t s = 0; s < 8; ++s) {
    const auto key = shard_key("resnet50", s);
    const auto& ring = client.plan().shard_daemons[s];
    const auto first = newest_done(*r.daemons[ring[0]], key);
    EXPECT_EQ(first.first, client.stats().last_epoch) << key;
    EXPECT_EQ(newest_done(*r.daemons[ring[1]], key), first) << key;
  }
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// R = 3: a healthy round pulls each shard once and arms a forward to each
// of its two other copies. portusd1 crashes mid-round while it pulls the
// shard whose primary it holds: that shard's two other copies pull the
// round themselves, at once, and every live copy of every shard ends at
// the round's epoch.
TEST(ClusterTest, ThreeCopiesPerShardOutliveAPullerCrashMidRound) {
  ClusterRig r{4};
  auto& volta = r.cluster->node("client-volta");
  auto model = ForwardRig::make_model(volta);
  auto cfg = r.client_config(3);
  cfg.shard_count = 4;
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, cfg};
  // (GPU pulls, forwards) on every daemon but portusd1.
  const auto totals = [&] {
    std::pair<std::uint64_t, std::uint64_t> t;
    for (std::size_t i = 0; i < r.daemons.size(); ++i) {
      if (i == 1) continue;
      t.first += r.daemons[i]->stats().checkpoints;
      t.second += r.daemons[i]->stats().forwards;
    }
    return t;
  };
  std::pair<std::uint64_t, std::uint64_t> healthy;
  std::pair<std::uint64_t, std::uint64_t> crashed;
  std::uint32_t want = 0;
  auto proc = r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m, auto& count,
                             std::pair<std::uint64_t, std::uint64_t>& first,
                             std::pair<std::uint64_t, std::uint64_t>& second,
                             std::uint32_t& crc) -> sim::Process {
    co_await c.register_model(m);
    const auto ck = co_await c.checkpoint(1);
    EXPECT_EQ(ck.epoch, 1u);
    EXPECT_FALSE(ck.degraded);
    const auto& one = rig.daemons[1]->stats();
    EXPECT_EQ(count().first + one.checkpoints, 4u) << "GPU pulls";
    EXPECT_EQ(count().second + one.forwards, 8u) << "armed forwards";
    first = count();
    m.mutate_weights(2);
    crc = m.weights_crc();
    rig.faults.kill_after("portusd1", 200us);
    const auto next = co_await c.checkpoint(2);
    EXPECT_EQ(next.epoch, 2u);
    EXPECT_TRUE(next.degraded);
    second = count();
    m.mutate_weights(3);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
  }(r, client, model, totals, healthy, crashed, want));
  r.eng.run();
  proc.check();
  // The crashed puller's shard: two pulls. The two shards portusd1 held a
  // replica of: a pull and a forward each. The fourth: a pull and two.
  EXPECT_EQ(crashed.first - healthy.first, 5u) << "GPU pulls on the survivors";
  EXPECT_EQ(crashed.second - healthy.second, 4u) << "forwards on the survivors";
  EXPECT_TRUE(r.daemons[1]->killed());
  EXPECT_EQ(model.weights_crc(), want);
  for (std::uint32_t s = 0; s < 4; ++s) {
    const auto key = shard_key("resnet50", s);
    for (const auto position : client.plan().shard_daemons[s]) {
      if (position == 1) continue;
      EXPECT_EQ(newest_done(*r.daemons[position], key).first, 2u) << key << " on " << position;
    }
  }
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// Losing every copy of a shard is unrecoverable and must fail loudly.
TEST(ClusterTest, RestoreThrowsWhenAllCopiesOfShardLost) {
  ClusterRig r{2};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  // R=1: one copy per shard; killing either daemon orphans its shard.
  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(1)};
  bool threw = false;
  r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m,
                 bool& out) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    rig.faults.kill_now("portusd0");
    try {
      co_await c.restore();
    } catch (const NotFound&) {
      out = true;
    }
  }(r, client, model, threw));
  r.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// cluster-status aggregation sees every daemon and the client counters.
TEST(ClusterTest, ClusterCtlStatusAggregates) {
  ClusterRig r{3};
  auto& volta = r.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.02;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  ClusterClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous, r.client_config(2)};
  bool ok = false;
  r.eng.spawn([](ClusterRig& rig, ClusterClient& c, dnn::Model& m, bool& done)
                  -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    rig.faults.kill_now("portusd1");
    m.mutate_weights(1);
    co_await c.restore();
    done = true;
  }(r, client, model, ok));
  r.eng.run();
  ASSERT_TRUE(ok);

  std::vector<PortusDaemon*> ptrs;
  for (auto& d : r.daemons) ptrs.push_back(d.get());
  const auto row = ClusterCtl::inspect(*r.daemons[1]);
  EXPECT_FALSE(row.up);
  EXPECT_GT(row.shard_copies, 0u);
  EXPECT_EQ(row.models, 1u);

  const auto table = ClusterCtl::render_status(ptrs, &client);
  EXPECT_NE(table.find("portusd0"), std::string::npos);
  EXPECT_NE(table.find("DOWN"), std::string::npos);
  EXPECT_NE(table.find("degraded"), std::string::npos);

  // FWDS (right-aligned under its header) sums to one forward per
  // non-empty shard: checkpoint(1) pulled each once and forwarded it to
  // its other copy.
  std::istringstream lines{table};
  std::string header;
  std::getline(lines, header);
  const auto end = header.find("FWDS") + std::string_view{"FWDS"}.size();
  std::uint64_t forwards = 0;
  for (std::string line; std::getline(lines, line) && line.starts_with("portusd");) {
    const auto begin = line.rfind(' ', end - 1) + 1;
    forwards += std::stoull(line.substr(begin, end - begin));
  }
  std::uint64_t shards = 0;
  for (const auto& tensors : client.plan().shard_tensors) shards += tensors.empty() ? 0 : 1;
  EXPECT_GT(shards, 0u);
  EXPECT_EQ(forwards, shards);
}

// ---------------------------------------------------------------------------
// Protocol magic/version negotiation (satellite).

TEST(ClusterTest, DaemonRejectsStaleProtocolExplicitly) {
  ClusterRig r{1};
  auto& volta = r.cluster->node("client-volta");

  bool ok = false;
  r.eng.spawn([](ClusterRig& rig, net::Node& node, bool& done) -> sim::Process {
    (void)node;
    auto socket = co_await rig.cluster->endpoint("portusd0").connect();
    RegisterModelMsg msg;
    msg.version = 1;  // stale client generation
    msg.model_name = "old-timer";
    msg.tensors.push_back(TensorDesc{.name = "w", .dtype = dnn::DType::kF32,
                                     .shape = {4}, .size = 16, .gpu_addr = 0, .rkey = 0});
    auto wire = encode(msg);
    socket->send(std::move(wire));
    auto reply = co_await socket->recv();
    const auto ack = decode_register_ack(reply);
    EXPECT_FALSE(ack.ok);
    EXPECT_NE(ack.error.find("version"), std::string::npos);
    done = true;
  }(r, volta, ok));
  r.eng.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(r.daemons[0]->stats().rejected_protocol, 1u);
  EXPECT_EQ(r.daemons[0]->stats().registrations, 0u);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

TEST(ClusterTest, ClientRejectsStaleAck) {
  RegisterAckMsg ack;
  ack.ok = true;
  ack.magic = 0xDEADBEEF;
  const auto wire = encode(ack);
  EXPECT_THROW(decode_register_ack(wire), ProtocolMismatch);

  RegisterAckMsg ack2;
  ack2.ok = true;
  ack2.version = kProtocolVersion + 1;
  const auto wire2 = encode(ack2);
  EXPECT_THROW(decode_register_ack(wire2), ProtocolMismatch);
}

TEST(ClusterTest, RegisterModelRoundtripCarriesShardIdentity) {
  RegisterModelMsg msg;
  msg.model_name = "m#s1";
  msg.qp_tokens = {1};
  msg.shard_id = 1;
  msg.shard_count = 3;
  msg.replica = 1;
  msg.replica_count = 2;
  msg.job_bytes = 48;
  msg.tensors.push_back(TensorDesc{.name = "w", .dtype = dnn::DType::kF32,
                                   .shape = {4}, .size = 16, .gpu_addr = 1, .rkey = 2});
  const auto wire = encode(msg);
  const auto back = decode_register_model(wire);
  EXPECT_TRUE(back.sharded());
  EXPECT_EQ(back.shard_id, 1u);
  EXPECT_EQ(back.shard_count, 3u);
  EXPECT_EQ(back.replica, 1u);
  EXPECT_EQ(back.replica_count, 2u);
  EXPECT_EQ(back.job_bytes, 48u);
}

// Stands in for a daemon: keeps the wire bytes of every registration sent
// to `listener` and acks each.
sim::Process record_registrations(sim::Engine& eng, net::TcpListener& listener,
                                  std::vector<std::vector<std::byte>>& wires) {
  for (;;) {
    auto socket = co_await listener.accept();
    eng.spawn([](std::shared_ptr<net::TcpSocket> s,
                 std::vector<std::vector<std::byte>>& out) -> sim::Process {
      for (;;) {
        out.push_back(co_await s->recv());
        RegisterAckMsg ack;
        ack.ok = true;
        ack.max_sges = 1;
        s->send(encode(ack));
      }
    }(std::move(socket), wires));
  }
}

// A shard copy's registration carries its own tensors and a fixed header,
// nothing of the rest of the model: each of the elastic workload's models
// (scale 0.005, 8 shards, R = 2) placed over a static ring of 4 daemons.
TEST(ClusterTest, ShardCopyRegistrationCarriesOnlyItsOwnTensors) {
  // Every field but the TensorDescs, with a shard key, one QP token and no
  // tenant id, takes under this.
  constexpr std::size_t kHeader = 128;
  for (const char* name : {"resnet50", "swin_b", "vgg19_bn", "bert"}) {
    SCOPED_TRACE(name);
    sim::Engine eng;
    auto cluster = net::Cluster::sharded_testbed(eng, 4);
    QpRendezvous rendezvous;
    std::vector<std::vector<std::byte>> wires;
    ClusterClient::Config cfg;
    cfg.replicas = 2;
    cfg.shard_count = 8;
    for (int i = 0; i < 4; ++i) {
      cfg.endpoints.push_back(strf("portusd{}", i));
      eng.spawn(record_registrations(eng, cluster->listen(cfg.endpoints.back()), wires));
    }
    auto& volta = cluster->node("client-volta");
    dnn::ModelZoo::Options opt;
    opt.scale = 0.005;
    auto model = dnn::ModelZoo::create(volta.gpu(0), name, opt);
    ClusterClient client{*cluster, volta, volta.gpu(0), rendezvous, cfg};
    auto proc = eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
      co_await c.register_model(m);
    }(client, model));
    eng.run();
    proc.check();

    ASSERT_EQ(wires.size(), 16u);
    for (const auto& wire : wires) {
      auto msg = decode_register_model(wire);
      SCOPED_TRACE(msg.model_name);
      EXPECT_EQ(msg.job_bytes, model.total_bytes());
      const auto& own = client.plan().shard_tensors.at(msg.shard_id);
      ASSERT_EQ(msg.tensors.size(), own.size());
      for (std::size_t i = 0; i < own.size(); ++i) {
        EXPECT_EQ(msg.tensors[i].name, model.tensors()[own[i]].name());
      }
      msg.tensors.clear();
      EXPECT_LE(encode(msg).size(), kHeader) << "of " << wire.size() << " B";
    }
    eng.shutdown();
  }
}

}  // namespace
}  // namespace portus::core::cluster
