// Portus-Cluster: sharded multi-daemon placement, replication, and degraded
// restore (ISSUE acceptance criteria a/b/c plus manifest and protocol
// version coverage).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "common/strformat.h"
#include "core/cluster/cluster_client.h"
#include "core/cluster/cluster_ctl.h"
#include "core/cluster/manifest.h"
#include "core/cluster/migration.h"
#include "core/cluster/placement.h"
#include "core/daemon/daemon.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"
#include "sim/fault.h"
#include "sim/trace.h"

namespace portus::core::cluster {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Placement policy (pure function; acceptance criterion c's foundation).

TEST(PlacementTest, DeterministicAcrossProcesses) {
  const std::vector<Bytes> sizes{96_MiB, 1_MiB, 40_MiB, 40_MiB, 8_MiB, 3_MiB, 200_KiB};
  const auto a = Placement::compute("gpt-tiny", sizes, 4, 2, 7);
  const auto b = Placement::compute("gpt-tiny", sizes, 4, 2, 7);
  EXPECT_EQ(a.digest(), b.digest());
  ASSERT_EQ(a.tensor_shard, b.tensor_shard);
  ASSERT_EQ(a.shard_daemons, b.shard_daemons);

  // A different placement epoch may rotate the ring; the digest must differ
  // deterministically, not randomly.
  const auto c1 = Placement::compute("gpt-tiny", sizes, 4, 2, 8);
  const auto c2 = Placement::compute("gpt-tiny", sizes, 4, 2, 8);
  EXPECT_EQ(c1.digest(), c2.digest());
}

TEST(PlacementTest, EveryTensorPlacedOnceAndReplicasDistinct) {
  const std::vector<Bytes> sizes{10_MiB, 20_MiB, 30_MiB, 5_MiB, 5_MiB};
  const auto plan = Placement::compute("m", sizes, 3, 2, 0);
  ASSERT_EQ(plan.tensor_shard.size(), sizes.size());
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
  const auto plan = Placement::compute("balanced", sizes, 4, 1, 0);
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
  const auto plan = Placement::compute_over("m", sizes, k, 1, active, 1, 0);
  EXPECT_EQ(plan.shard_tensors.size(), k);
  EXPECT_EQ(plan.tensor_shard.size(), sizes.size());

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
      EXPECT_EQ(plan.tensor_shard[t], s);
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

TEST(PlacementTest, ReplicasClampedToRingSize) {
  const std::vector<Bytes> sizes{1_MiB, 2_MiB};
  const auto plan = Placement::compute("m", sizes, 2, 5, 0);
  EXPECT_EQ(plan.replicas, 2u);
  for (const auto& ring : plan.shard_daemons) EXPECT_EQ(ring.size(), 2u);
}

// ---------------------------------------------------------------------------
// Manifest wire format.

TEST(ManifestTest, EncodeDecodeRoundtrip) {
  const std::vector<Bytes> sizes{96_MiB, 1_MiB, 40_MiB};
  const std::vector<std::string> names{"w0", "w1", "w2"};
  const std::vector<std::string> endpoints{"portusd0", "portusd1", "portusd2"};
  const auto plan = Placement::compute("gpt-tiny", sizes, 3, 2, 4);
  const auto m = ShardManifest::from_plan(plan, endpoints, names, sizes);

  const auto wire = m.encode();
  const auto back = ShardManifest::decode(wire);
  EXPECT_EQ(back.model_name, "gpt-tiny");
  EXPECT_EQ(back.placement_epoch, 4u);
  EXPECT_EQ(back.plan_digest, plan.digest());
  EXPECT_EQ(back.daemon_count, 3u);
  EXPECT_EQ(back.replicas, 2u);
  EXPECT_EQ(back.endpoints, endpoints);
  ASSERT_EQ(back.tensors.size(), 3u);
  EXPECT_EQ(back.tensors[0].name, "w0");
  EXPECT_EQ(back.tensors[0].size, 96_MiB);
  EXPECT_EQ(back.tensors[0].shard, plan.tensor_shard[0]);
  EXPECT_EQ(back.shard_daemons, plan.shard_daemons);
}

TEST(ManifestTest, CorruptionRejected) {
  const std::vector<Bytes> sizes{1_MiB};
  const std::vector<std::string> names{"w0"};
  const std::vector<std::string> endpoints{"portusd0"};
  const auto plan = Placement::compute("m", sizes, 1, 1, 0);
  auto wire = ShardManifest::from_plan(plan, endpoints, names, sizes).encode();
  wire[wire.size() / 2] ^= std::byte{0x5a};
  EXPECT_THROW(ShardManifest::decode(wire), Corruption);
  EXPECT_THROW(ShardManifest::decode({}), Corruption);
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

// The spans whose name starts with `prefix`, per trace track, as
// [begin, end) in virtual ns, read back from the tracer's Chrome JSON (which
// prints us to the ns; whole ns keep back-to-back spans from overlapping by
// a rounding error).
using TrackSpans = std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>>;
TrackSpans spans_by_track(const sim::Tracer& tracer, const std::string& prefix) {
  std::ostringstream json;
  tracer.write_chrome_json(json);
  const std::regex track_name{R"re("tid":(\d+),"args":\{"name":"([^"]*)"\})re"};
  const std::regex span{
      R"re("name":"([^"]*)","ph":"X","pid":1,"tid":(\d+),"ts":([0-9.]+),"dur":([0-9.]+))re"};
  std::map<std::string, std::string> track_of_tid;
  TrackSpans out;
  std::istringstream lines{json.str()};
  for (std::string line; std::getline(lines, line);) {
    std::smatch m;
    if (std::regex_search(line, m, track_name)) {
      track_of_tid[m[1]] = m[2];
    } else if (std::regex_search(line, m, span) && m[1].str().starts_with(prefix)) {
      const std::int64_t begin = std::llround(std::stod(m[3]) * 1e3);
      out[track_of_tid.at(m[2])].emplace_back(begin, begin + std::llround(std::stod(m[4]) * 1e3));
    }
  }
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
  // shard-scoped registration carries the manifest into the MIndex.
  std::size_t copies = 0;
  for (auto& d : r.daemons) {
    for (const auto& name : d->model_table().names()) {
      const MIndex* idx = d->find_live_index(name);
      ASSERT_NE(idx, nullptr);
      EXPECT_TRUE(idx->sharded());
      const auto manifest = ShardManifest::decode(idx->manifest());
      EXPECT_EQ(manifest.model_name, "resnet50");
      EXPECT_EQ(manifest.replicas, 2u);
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

  std::uint64_t digest1 = 0;
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
    digest1 = client.plan().digest();
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
  EXPECT_EQ(client2.plan().digest(), digest1);
  EXPECT_EQ(model2.weights_crc(), crc);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// Each shard is one run of adjacent allocations, so each shard copy costs
// one PeerMem pin: at registration, and again for every copy a join moves.
TEST(ClusterTest, EveryShardCopyRegistersOneRegion) {
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
  EXPECT_EQ(regions(), before.size());

  // The first checkpoint after the join hits EpochMismatch, re-resolves,
  // and registers the copies that moved, one region each.
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
  EXPECT_EQ(regions(), before.size() + moved);
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

  double nic_bytes = 0;
  std::uint64_t epoch = 0;
  auto proc = r.eng.spawn([](ClusterClient& c, dnn::Model& m, rdma::RdmaNic& nic,
                             double& moved, std::uint64_t& committed) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    const double before = nic.link().total_bytes_transferred();
    const auto ck = co_await c.checkpoint(2);
    moved = nic.link().total_bytes_transferred() - before;
    committed = ck.epoch;
    EXPECT_FALSE(ck.degraded);
  }(client, model, volta.nic(), nic_bytes, epoch));
  r.eng.run();
  proc.check();
  EXPECT_EQ(epoch, 2u);

  // One GPU pull per shard: the model's bytes cross the client NIC once
  // (twice when every copy pulls).
  const auto model_bytes = static_cast<double>(model.total_bytes());
  EXPECT_GE(nic_bytes, model_bytes);
  EXPECT_LT(nic_bytes, 1.25 * model_bytes) << "a replica pulled from the GPU";

  // Every copy holds the round's epoch under its puller's CRC block: the
  // puller is the shard's first copy in manifest order.
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

// The source crashes between its commit and the forward: the replica
// refuses, naming the source, and pulls from the GPU instead; the round
// commits with the source's lane down and restores bit-exactly.
TEST(ClusterTest, ForwardFromACrashedSourceFallsBackToAPull) {
  ForwardRig f;
  ASSERT_EQ(f.daemon(f.replica).stats().forwards, 1u);
  // The source crashes right after its commit reply goes out, before the
  // replica's slot query reaches it.
  auto& source = f.daemon(f.puller);
  f.r.eng.spawn(when(
      f.r.eng, [&] { return source.stats().checkpoints == 2; },
      [&] { f.r.faults.kill_now(source.config().endpoint); }));
  std::uint32_t want = 0;
  auto proc = f.r.eng.spawn([](ClusterClient& c, dnn::Model& m,
                               std::uint32_t& crc) -> sim::Process {
    m.mutate_weights(2);
    crc = m.weights_crc();
    const auto ck = co_await c.checkpoint(2);
    EXPECT_EQ(ck.epoch, 2u);
    EXPECT_FALSE(ck.degraded) << "both copies committed epoch 2";
    m.mutate_weights(3);
    const auto rr = co_await c.restore();
    EXPECT_EQ(rr.epoch, 2u);
    EXPECT_EQ(rr.rerouted_shards, 1u);
  }(f.client, f.model, want));
  f.r.eng.run();
  proc.check();
  EXPECT_TRUE(source.killed());
  EXPECT_EQ(f.model.weights_crc(), want);
  EXPECT_EQ(f.client.stats().lane_failures, 1u);
  auto& replica = f.daemon(f.replica);
  EXPECT_EQ(replica.stats().forwards, 1u) << "the second forward must be refused";
  EXPECT_EQ(replica.stats().checkpoints, 1u) << "the replica pulls instead";
  EXPECT_EQ(newest_done(replica, f.key).first, 2u);
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// The source hangs after its commit: the replica's budget (half the op
// timeout) expires first, so the source's lane goes down, not the
// replica's, and the round lands before the client's watchdog would fire.
TEST(ClusterTest, ForwardFromAHungSourceNamesTheSourceBeforeTheWatchdog) {
  ForwardRig f;
  auto& source = f.daemon(f.puller);
  f.r.eng.spawn(when(
      f.r.eng, [&] { return source.stats().checkpoints == 2; },
      [&] { f.r.faults.kill_now(source.config().endpoint, sim::FaultMode::kHang); }));
  Duration took{0};
  auto proc = f.r.eng.spawn([](sim::Engine& eng, ClusterClient& c, dnn::Model& m,
                               Duration& round) -> sim::Process {
    m.mutate_weights(2);
    const Time t0 = eng.now();
    const auto ck = co_await c.checkpoint(2);
    round = eng.now() - t0;
    EXPECT_EQ(ck.epoch, 2u);
    // The source's lane is down, the replica's is not: the next round
    // pulls on the replica alone.
    m.mutate_weights(3);
    const auto next = co_await c.checkpoint(3);
    EXPECT_EQ(next.epoch, 3u);
    EXPECT_TRUE(next.degraded);
  }(f.r.eng, f.client, f.model, took));
  f.r.eng.run();
  proc.check();
  const Duration op_timeout = f.r.client_config(2).op_timeout;
  EXPECT_LT(took, op_timeout) << "the round waited out a watchdog";
  EXPECT_GE(took, op_timeout / 2) << "the replica's budget is half the op timeout";
  EXPECT_EQ(f.client.stats().lane_failures, 1u);
  EXPECT_EQ(f.timeouts(), 0u) << "no watchdog fired: the replica named the source";
  auto& replica = f.daemon(f.replica);
  EXPECT_EQ(replica.stats().forwards, 1u);
  EXPECT_EQ(replica.stats().checkpoints, 2u);
  EXPECT_EQ(newest_done(replica, f.key).first, 3u);
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

// A carried epoch must be new on the replica: one already at or past it
// refuses the forward and pulls instead. Its version then lands on the
// puller once, so the next round's forward is accepted again.
TEST(ClusterTest, ReplicaAheadOfThePullerRefusesTheForwardThenCatchesItUp) {
  ForwardRig f;
  auto& puller = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);
  std::size_t channel = 0;
  while (f.client.lane_client(channel).endpoint() != replica.config().endpoint) ++channel;
  std::uint64_t puller_after_refusal = 0;
  auto proc = f.r.eng.spawn([](ClusterClient& c, PortusClient& direct, PortusDaemon& p,
                               dnn::Model& m, const std::string& key,
                               std::uint64_t& caught_up) -> sim::Process {
    // A pull the puller never saw puts the replica at epoch 2.
    m.mutate_weights(2);
    const auto ahead = co_await direct.checkpoint_named(key, 2);
    EXPECT_EQ(ahead, 2u);
    m.mutate_weights(3);
    const auto ck = co_await c.checkpoint(3);
    EXPECT_EQ(ck.epoch, 3u) << "the replica's own pull is the round's newest";
    EXPECT_FALSE(ck.degraded);
    caught_up = newest_done(p, key).first;
    m.mutate_weights(4);
    const auto next = co_await c.checkpoint(4);
    EXPECT_EQ(next.epoch, 4u);
  }(f.client, f.client.lane_client(channel), puller, f.model, f.key, puller_after_refusal));
  f.r.eng.run();
  proc.check();
  EXPECT_EQ(puller_after_refusal, 3u) << "the puller did not land the replica's version";
  EXPECT_EQ(puller.stats().forwards, 1u);
  // Epoch 2 was not new on the replica; epoch 4 is.
  EXPECT_EQ(replica.stats().forwards, 2u);
  EXPECT_EQ(replica.stats().checkpoints, 2u);
  EXPECT_EQ(newest_done(replica, f.key), newest_done(puller, f.key));
  EXPECT_EQ(newest_done(replica, f.key).first, 4u);
  EXPECT_EQ(f.r.eng.failed_process_count(), 0);
}

// A copy that refused its forward and then failed its own pull still holds
// an older version, at a higher epoch than the puller's new one: carrying
// it back to the puller would bury the round's version under a stale one.
TEST(ClusterTest, CatchUpCarriesOnlyAVersionThisRoundLanded) {
  // Tenanted daemons with no admission queue: a paused controller bounces
  // a pull with Backpressure, which the client does not retry.
  PortusDaemon::Config base;
  base.tenancy = true;
  base.admission_queue_depth = 0;
  ForwardRig f{base};
  auto& puller = f.daemon(f.puller);
  auto& replica = f.daemon(f.replica);

  // The puller refuses two rounds, so the replica pulls them alone and
  // the client knows it at epoch 3; the puller stays at epoch 1.
  puller.pause_admissions();
  auto alone = f.r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    for (std::uint64_t k = 2; k <= 3; ++k) {
      m.mutate_weights(k);
      const auto ck = co_await c.checkpoint(k);
      EXPECT_EQ(ck.epoch, k);
      EXPECT_TRUE(ck.degraded);
    }
  }(f.client, f.model));
  f.r.eng.run();
  alone.check();
  puller.resume_admissions();

  // The puller's epoch 2 is not new on the replica; the refusal (failed_ops
  // 1) pauses the replica's admissions, so its fallback pull is refused too.
  f.r.eng.spawn(when(
      f.r.eng, [&] { return replica.stats().failed_ops == 1; },
      [&] { replica.pause_admissions(); }));
  auto proc = f.r.eng.spawn([](ClusterClient& c, dnn::Model& m) -> sim::Process {
    m.mutate_weights(4);
    const auto ck = co_await c.checkpoint(4);
    EXPECT_EQ(ck.epoch, 2u);
    EXPECT_TRUE(ck.degraded) << "the replica missed the round";
  }(f.client, f.model));
  f.r.eng.run();
  proc.check();
  EXPECT_EQ(replica.stats().backpressure_rejects, 1u);
  EXPECT_EQ(puller.stats().forwards, 0u) << "the replica's older version was carried back";
  EXPECT_EQ(newest_done(puller, f.key).first, 2u);
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
  msg.shard_id = 1;
  msg.shard_count = 3;
  msg.replica = 1;
  msg.replica_count = 2;
  msg.placement_epoch = 9;
  msg.manifest = {std::byte{1}, std::byte{2}, std::byte{3}};
  msg.tensors.push_back(TensorDesc{.name = "w", .dtype = dnn::DType::kF32,
                                   .shape = {4}, .size = 16, .gpu_addr = 1, .rkey = 2});
  const auto wire = encode(msg);
  const auto back = decode_register_model(wire);
  EXPECT_TRUE(back.sharded());
  EXPECT_EQ(back.shard_id, 1u);
  EXPECT_EQ(back.shard_count, 3u);
  EXPECT_EQ(back.replica, 1u);
  EXPECT_EQ(back.replica_count, 2u);
  EXPECT_EQ(back.placement_epoch, 9u);
  EXPECT_EQ(back.manifest, msg.manifest);
}

}  // namespace
}  // namespace portus::core::cluster
