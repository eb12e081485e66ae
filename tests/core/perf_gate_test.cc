// perf-gate: the single-op datapath's virtual time, pinned to the
// nanosecond.
//
// Each Table II model at full size (canonical layer split, phantom
// payloads) registers with a default daemon on the paper testbed, then
// takes one checkpoint and one restore: the Portus columns of Fig. 11
// (bench/fig11_checkpoint) and Fig. 12 (bench/fig12_restore). Virtual time
// is deterministic, so any change to the modeled single-op datapath (control
// round trips, extents, RDMA, PMEM flush, CRC, commit, the worker pool a lone
// op runs on) moves these numbers. A change meant to move them updates the
// table, and the diff shows by how much; `ctest -L perf-gate` runs it alone.
//
// The Table II models' tensors are all far above the coalescing threshold,
// so a second table pins the sharded small-tensor round: each of the
// elastic workload's models alone (perfbench/elastic.cc: scale 0.005, real
// payloads) through a ClusterClient (R = 2, 8 shards) over two default
// daemons, where extent coalescing, armed forwards and the worker pool's
// hand-overs all show. A third pins the checkpoint that follows a join,
// which registers the copies the join moved before its round: with one
// registration cache per job they reuse their shard's MR, so a pin put
// back on that path shows there. A fourth pins a restore storm: the four
// elastic models restoring at once on the survivors of a crash, where the
// daemons serve the jobs shortest first.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/cluster/cluster_client.h"
#include "core/cluster/migration.h"
#include "core/daemon/daemon.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"
#include "sim/fault.h"

namespace portus::core {
namespace {

struct Timeline {
  Duration checkpoint{0};
  Duration restore{0};
};

Timeline measure(const std::string& name) {
  sim::Engine eng;
  auto cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  PortusDaemon daemon{*cluster, cluster->node("server"), rendezvous};
  daemon.start();
  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.force_phantom = true;
  auto model = dnn::ModelZoo::create(volta.gpu(0), name, opt);
  PortusClient client{*cluster, volta, volta.gpu(0), rendezvous};
  Timeline t;
  auto proc = eng.spawn([](sim::Engine& e, PortusClient& c, dnn::Model& m,
                           Timeline& out) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    Time t0 = e.now();
    co_await c.checkpoint(m, 1);
    out.checkpoint = e.now() - t0;
    t0 = e.now();
    co_await c.restore(m);
    out.restore = e.now() - t0;
  }(eng, client, model, t));
  eng.run();
  proc.check();
  EXPECT_EQ(daemon.stats().failed_ops, 0u);
  eng.shutdown();
  return t;
}

TEST(PerfGateTest, TableIIModelsCheckpointAndRestoreToTheNanosecond) {
  struct Row {
    const char* model;
    std::int64_t checkpoint_ns;
    std::int64_t restore_ns;
  };
  // fig11 / fig12 print these to the microsecond.
  const Row pinned[] = {
      {"alexnet", 42'247'868, 29'546'764},
      {"convnext_base", 62'739'685, 44'058'462},
      {"resnet50", 18'327'647, 12'916'352},
      {"swin_b", 62'128'299, 43'622'441},
      {"vgg19_bn", 99'444'819, 69'547'346},
      {"vit_l_32", 212'754'493, 148'859'955},
      {"bert", 233'648'287, 163'519'598},
  };
  const auto names = dnn::ModelZoo::table2_names();
  ASSERT_EQ(names.size(), std::size(pinned));
  for (std::size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    ASSERT_EQ(names[i], pinned[i].model);
    const auto t = measure(names[i]);
    EXPECT_EQ(t.checkpoint.count(), pinned[i].checkpoint_ns);
    EXPECT_EQ(t.restore.count(), pinned[i].restore_ns);
  }
}

struct ShardedTimeline {
  Duration registration{0};
  Duration first_checkpoint{0};
  Duration second_checkpoint{0};
  Duration restore{0};
};

ShardedTimeline measure_sharded(const std::string& name) {
  sim::Engine eng;
  auto cluster = net::Cluster::sharded_testbed(eng, 2);
  QpRendezvous rendezvous;
  std::vector<std::unique_ptr<PortusDaemon>> daemons;
  cluster::ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.shard_count = 8;
  for (int i = 0; i < 2; ++i) {
    PortusDaemon::Config cfg;
    cfg.endpoint = "portusd" + std::to_string(i);
    daemons.push_back(std::make_unique<PortusDaemon>(
        *cluster, cluster->node("pmem" + std::to_string(i)), rendezvous, cfg));
    daemons.back()->start();
    ccfg.endpoints.push_back(cfg.endpoint);
  }
  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.005;
  opt.force_real = true;
  auto model = dnn::ModelZoo::create(volta.gpu(0), name, opt);
  cluster::ClusterClient client{*cluster, volta, volta.gpu(0), rendezvous, ccfg};
  ShardedTimeline t;
  auto proc = eng.spawn([](sim::Engine& e, cluster::ClusterClient& c, dnn::Model& m,
                           ShardedTimeline& out) -> sim::Process {
    Time t0 = e.now();
    co_await c.register_model(m);
    out.registration = e.now() - t0;
    m.mutate_weights(1);
    t0 = e.now();
    co_await c.checkpoint(1);
    out.first_checkpoint = e.now() - t0;
    m.mutate_weights(2);
    const auto golden = m.weights_crc();
    t0 = e.now();
    co_await c.checkpoint(2);
    out.second_checkpoint = e.now() - t0;
    m.mutate_weights(3);
    t0 = e.now();
    const auto restored = co_await c.restore();
    out.restore = e.now() - t0;
    EXPECT_EQ(restored.epoch, 2u);
    EXPECT_FALSE(restored.degraded);
    EXPECT_EQ(m.weights_crc(), golden) << "restore is not bit-exact";
  }(eng, client, model, t));
  eng.run();
  proc.check();
  for (const auto& d : daemons) EXPECT_EQ(d->stats().failed_ops, 0u);
  eng.shutdown();
  return t;
}

TEST(PerfGateTest, ElasticModelsShardedRoundToTheNanosecond) {
  struct Row {
    const char* model;
    std::int64_t register_ns;
    std::int64_t checkpoint_ns;
    std::int64_t second_checkpoint_ns;
    std::int64_t restore_ns;
  };
  const Row pinned[] = {
      {"resnet50", 233'269, 197'611, 173'969, 101'602},
      {"swin_b", 236'333, 377'366, 377'366, 206'476},
      {"vgg19_bn", 231'810, 546'760, 546'760, 295'923},
      {"bert", 237'809, 1'191'420, 1'191'420, 617'562},
  };
  for (const auto& row : pinned) {
    SCOPED_TRACE(row.model);
    const auto t = measure_sharded(row.model);
    EXPECT_EQ(t.registration.count(), row.register_ns);
    EXPECT_EQ(t.first_checkpoint.count(), row.checkpoint_ns);
    EXPECT_EQ(t.second_checkpoint.count(), row.second_checkpoint_ns);
    EXPECT_EQ(t.restore.count(), row.restore_ns);
  }
}

// resnet50 alone as in the sharded table, on an elastic ring of two
// default daemons that a third joins after the first checkpoint: the
// checkpoint after the join (it re-resolves and registers the moved copies
// first) and the one after it, in ns.
TEST(PerfGateTest, FirstCheckpointAfterAJoinToTheNanosecond) {
  sim::Engine eng;
  auto cluster = net::Cluster::sharded_testbed(eng, 3);
  QpRendezvous rendezvous;
  std::vector<std::unique_ptr<PortusDaemon>> daemons;
  cluster::ElasticCluster elastic{eng};
  for (int i = 0; i < 3; ++i) {
    PortusDaemon::Config cfg;
    cfg.endpoint = "portusd" + std::to_string(i);
    daemons.push_back(std::make_unique<PortusDaemon>(
        *cluster, cluster->node("pmem" + std::to_string(i)), rendezvous, cfg));
    daemons.back()->start();
    if (i < 2) elastic.add_member(cfg.endpoint, *daemons.back());
  }
  elastic.seal();
  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.005;
  opt.force_real = true;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  cluster::ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.shard_count = 8;
  ccfg.membership = &elastic;
  cluster::ClusterClient client{*cluster, volta, volta.gpu(0), rendezvous, ccfg};
  Duration after_join{0};
  Duration next{0};
  auto proc = eng.spawn([](sim::Engine& e, cluster::ElasticCluster& ring, PortusDaemon& joiner,
                           cluster::ClusterClient& c, dnn::Model& m, Duration& first,
                           Duration& second) -> sim::Process {
    co_await c.register_model(m);
    m.mutate_weights(1);
    co_await c.checkpoint(1);
    co_await ring.join("portusd2", joiner);
    m.mutate_weights(2);
    Time t0 = e.now();
    co_await c.checkpoint(2);
    first = e.now() - t0;
    m.mutate_weights(3);
    const auto golden = m.weights_crc();
    t0 = e.now();
    co_await c.checkpoint(3);
    second = e.now() - t0;
    m.mutate_weights(4);
    const auto restored = co_await c.restore();
    EXPECT_EQ(restored.epoch, 3u);
    EXPECT_EQ(m.weights_crc(), golden) << "restore is not bit-exact";
  }(eng, elastic, *daemons[2], client, model, after_join, next));
  eng.run();
  proc.check();
  EXPECT_EQ(client.stats().pins, 8u);
  EXPECT_EQ(after_join.count(), 284'807);
  EXPECT_EQ(next.count(), 164'265);
  for (const auto& d : daemons) EXPECT_EQ(d->stats().failed_ops, 0u);
  eng.shutdown();
}

// bench/cluster_scaling's failover scenario on 3 default daemons: the
// elastic workload's four models (scale 0.005, R = 2, 8 shards each)
// checkpoint, portusd1 crashes, each job checkpoints once more without it,
// and all four restore at once, each survivor serving 16 shard restores on
// its 8 workers. Each job's restore, in ns: a survivor posts no WR of a job
// while a smaller job's restore is active on it, so the jobs finish in byte
// order, bert's at the client link's pace.
TEST(PerfGateTest, RestoreStormToTheNanosecond) {
  sim::Engine eng;
  auto cluster = net::Cluster::sharded_testbed(eng, 3);
  QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  std::vector<std::unique_ptr<PortusDaemon>> daemons;
  cluster::ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.shard_count = 8;
  for (int i = 0; i < 3; ++i) {
    PortusDaemon::Config cfg;
    cfg.endpoint = "portusd" + std::to_string(i);
    cfg.faults = &faults;
    daemons.push_back(std::make_unique<PortusDaemon>(
        *cluster, cluster->node("pmem" + std::to_string(i)), rendezvous, cfg));
    daemons.back()->start();
    ccfg.endpoints.push_back(cfg.endpoint);
  }
  struct Row {
    const char* model;
    std::int64_t restore_ns;
  };
  const Row pinned[] = {
      {"resnet50", 126'343},
      {"swin_b", 266'430},
      {"vgg19_bn", 541'390},
      {"bert", 1'050'639},
  };
  auto& volta = cluster->node("client-volta");
  std::vector<dnn::Model> models;
  std::vector<std::unique_ptr<cluster::ClusterClient>> clients;
  for (const auto& row : pinned) {
    auto& gpu = volta.gpu(models.size());
    dnn::ModelZoo::Options opt;
    opt.scale = 0.005;
    models.push_back(dnn::ModelZoo::create(gpu, row.model, opt));
    clients.push_back(
        std::make_unique<cluster::ClusterClient>(*cluster, volta, gpu, rendezvous, ccfg));
  }
  std::vector<Duration> took(models.size());
  const auto all = [&](auto op) {
    std::vector<sim::Process> procs;
    for (std::size_t j = 0; j < models.size(); ++j) {
      procs.push_back(eng.spawn(op(eng, *clients[j], models[j], took[j])));
    }
    eng.run();
    for (auto& p : procs) p.check();
  };
  all([](sim::Engine&, cluster::ClusterClient& c, dnn::Model& m, Duration&) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
  });
  faults.kill_now("portusd1");
  all([](sim::Engine&, cluster::ClusterClient& c, dnn::Model& m, Duration&) -> sim::Process {
    m.mutate_weights(2);
    co_await c.checkpoint(2);
  });
  all([](sim::Engine& e, cluster::ClusterClient& c, dnn::Model& m,
         Duration& out) -> sim::Process {
    m.mutate_weights(3);
    const Time t0 = e.now();
    const auto restored = co_await c.restore();
    out = e.now() - t0;
    EXPECT_EQ(restored.epoch, 2u);
  });
  for (std::size_t j = 0; j < models.size(); ++j) {
    SCOPED_TRACE(pinned[j].model);
    EXPECT_EQ(took[j].count(), pinned[j].restore_ns);
  }
  for (const auto& d : daemons) {
    EXPECT_EQ(d->stats().failed_ops, 0u);
    EXPECT_EQ(d->idle_workers(), d->config().workers);
  }
  eng.shutdown();
}

}  // namespace
}  // namespace portus::core
