// Portus-Cluster scaling: checkpoint throughput vs ring size.
//
// Shards one ResNet-50-class model over 1..4 Portus daemons and measures
// steady-state checkpoint time for R=1 (pure striping) and R=2 (paper-style
// replication, where each shard is written twice). With one daemon the
// bottleneck is that node's PMEM write bandwidth (~5 GB/s); adding daemons
// adds PMEM lanes until the client NIC (~12 GB/s wire) saturates, so the
// R=1 series is expected to run ~5 / 10 / 12 / 12 GB/s over N=1..4.
// Emits BENCH_cluster.json and fails (exit 1) if striping does not scale
// (N=2 below 1.6x of N=1), if any wider ring regresses a narrower one, or
// if an R=2 row falls below 0.65x of R=1 on the same ring.
// The client NIC column is what the measured checkpoint moved over the
// client's link: about the model's bytes at R=1 and R=2 alike, since a
// replica lands its shard PMEM to PMEM from the shard's puller.
//
// The failover rows restore after a crash: on N = 3 and 4 daemons (R=2, 8
// shards per job) four jobs, one per client GPU, checkpoint, portusd1
// crashes, each job checkpoints once more without it, and all four restore
// at once. Each restore wave spreads its shards' bytes over the live
// copies, so the survivors split each job's shards evenly; the bench fails
// if a job's survivors serve shard counts more than one apart. Each row
// prints every job's restore time beside the slowest and the median: each
// survivor serves 16 shard restores on 8 workers, shortest job first, so
// the small jobs' shards neither queue behind bert's nor share the client
// link with a larger job's; the bench fails if the median job takes more
// than 450 us.
#include <algorithm>
#include <map>

#include "bench_common.h"
#include "core/cluster/cluster_client.h"
#include "sim/fault.h"

using namespace portus;

namespace {

// The failover rows' median job restore, served shortest job first (403.9 /
// 407.5 us on 3 / 4 daemons; 519.2 / 619.3 us with only the shortest
// remaining transfer first).
constexpr Duration kMedianRestoreBound{450'000};

// R=2 throughput as a share of R=1 on the same ring: 0.660 / 0.691 / 0.727
// on N = 2..4 with full-duplex NIC links, where a replica's forward out of
// its puller's NIC does not share a channel with the pulls coming in;
// 0.597 / 0.635 / 0.673 when both directions shared one link.
constexpr double kReplicatedShare = 0.65;

struct Row {
  int daemons = 1;
  int replicas = 1;
  Bytes model_bytes = 0;
  Duration ckpt{0};
  Bytes client_nic_bytes = 0;  // over the client link, measured checkpoint only
  double gbps() const { return static_cast<double>(model_bytes) / 1e9 / to_seconds(ckpt); }
};

// Start default daemons portusd0..N-1 on pmem0..N-1 (kill targets of
// `faults` when given) and list their endpoints in `ccfg`.
std::vector<std::unique_ptr<core::PortusDaemon>> start_ring(
    net::Cluster& cluster, core::QpRendezvous& rendezvous, int daemons,
    core::cluster::ClusterClient::Config& ccfg, sim::FaultInjector* faults = nullptr) {
  std::vector<std::unique_ptr<core::PortusDaemon>> ring;
  for (int i = 0; i < daemons; ++i) {
    core::PortusDaemon::Config cfg;
    cfg.endpoint = strf("portusd{}", i);
    cfg.faults = faults;
    ring.push_back(std::make_unique<core::PortusDaemon>(
        cluster, cluster.node(strf("pmem{}", i)), rendezvous, cfg));
    ring.back()->start();
    ccfg.endpoints.push_back(cfg.endpoint);
  }
  return ring;
}

Row measure(int daemons, int replicas) {
  Row row{.daemons = daemons, .replicas = replicas};
  sim::Engine engine;
  auto cluster = net::Cluster::sharded_testbed(engine, daemons);
  core::QpRendezvous rendezvous;
  core::cluster::ClusterClient::Config ccfg;
  ccfg.replicas = replicas;
  const auto ring = start_ring(*cluster, rendezvous, daemons, ccfg);

  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.1;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);
  row.model_bytes = model.total_bytes();
  core::cluster::ClusterClient client{*cluster, volta, volta.gpu(0), rendezvous, ccfg};

  auto proc = engine.spawn([](sim::Engine& eng, core::cluster::ClusterClient& c,
                              dnn::Model& m, sim::BandwidthChannel& link,
                              Row& out) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);  // warm-up: first epoch pays slot setup
    m.mutate_weights(2);
    const Time t0 = eng.now();
    const double nic0 = link.total_bytes_transferred();
    co_await c.checkpoint(2);
    out.ckpt = eng.now() - t0;
    out.client_nic_bytes = static_cast<Bytes>(link.total_bytes_transferred() - nic0);
  }(engine, client, model, volta.nic().link(), row));
  engine.run();
  proc.check();
  engine.shutdown();
  return row;
}

// One failover measurement: the four jobs' restores after portusd1 crashed.
struct FailoverRow {
  int daemons = 0;
  std::vector<std::string> jobs;
  std::vector<Duration> restore;  // per job, all started at once
  // Per job: the shards each surviving daemon served, in ring order.
  std::vector<std::vector<std::uint32_t>> served;
  std::vector<std::string> survivors;

  Duration slowest() const { return *std::max_element(restore.begin(), restore.end()); }
  Duration median() const {
    auto sorted = restore;
    std::sort(sorted.begin(), sorted.end());
    const auto n = sorted.size();
    return (sorted[(n - 1) / 2] + sorted[n / 2]) / 2;
  }
};

FailoverRow measure_failover(int daemons) {
  FailoverRow row;
  row.daemons = daemons;
  sim::Engine engine;
  auto cluster = net::Cluster::sharded_testbed(engine, daemons);
  core::QpRendezvous rendezvous;
  sim::FaultInjector faults{engine};
  core::cluster::ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.shard_count = 8;
  const auto ring = start_ring(*cluster, rendezvous, daemons, ccfg, &faults);
  for (const auto& ep : ccfg.endpoints) {
    if (ep != "portusd1") row.survivors.push_back(ep);
  }

  auto& volta = cluster->node("client-volta");
  std::vector<dnn::Model> models;
  std::vector<std::unique_ptr<core::cluster::ClusterClient>> clients;
  for (const char* name : {"resnet50", "swin_b", "vgg19_bn", "bert"}) {
    auto& gpu = volta.gpu(models.size());
    dnn::ModelZoo::Options opt;
    opt.scale = 0.005;
    models.push_back(dnn::ModelZoo::create(gpu, name, opt));
    clients.push_back(std::make_unique<core::cluster::ClusterClient>(*cluster, volta, gpu,
                                                                     rendezvous, ccfg));
    row.jobs.push_back(name);
  }
  row.restore.resize(models.size());

  const auto all = [&](auto op) {
    std::vector<sim::Process> procs;
    for (std::size_t j = 0; j < models.size(); ++j) {
      procs.push_back(engine.spawn(op(engine, *clients[j], models[j], row.restore[j])));
    }
    engine.run();
    for (auto& p : procs) p.check();
  };
  using core::cluster::ClusterClient;
  all([](sim::Engine&, ClusterClient& c, dnn::Model& m, Duration&) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
  });
  faults.kill_now("portusd1");
  // The jobs find portusd1 gone on their next checkpoint, as a training
  // loop would before it restores.
  all([](sim::Engine&, ClusterClient& c, dnn::Model& m, Duration&) -> sim::Process {
    m.mutate_weights(2);
    co_await c.checkpoint(2);
  });
  all([](sim::Engine& eng, ClusterClient& c, dnn::Model& m, Duration& took) -> sim::Process {
    m.mutate_weights(3);
    const Time t0 = eng.now();
    co_await c.restore();
    took = eng.now() - t0;
  });

  for (const auto& c : clients) {
    std::map<std::string, std::uint32_t> by_daemon;
    for (std::size_t i = 0; i < c->lane_count(); ++i) {
      by_daemon[c->lane_client(i).endpoint()] +=
          static_cast<std::uint32_t>(c->lane_client(i).stats().restores);
    }
    auto& served = row.served.emplace_back();
    for (const auto& ep : row.survivors) served.push_back(by_daemon[ep]);
  }
  engine.shutdown();
  return row;
}

}  // namespace

int main() {
  bench::print_header("Portus-Cluster: checkpoint throughput vs daemons",
                      "striping adds one PMEM lane (~5 GB/s) per daemon until the "
                      "client NIC (~12 GB/s) saturates");

  std::vector<Row> striped, replicated;
  for (const int n : {1, 2, 3, 4}) {
    striped.push_back(measure(n, 1));
    if (n >= 2) replicated.push_back(measure(n, 2));
  }
  std::vector<FailoverRow> failover;
  for (const int n : {3, 4}) failover.push_back(measure_failover(n));

  bench::Report report{"cluster_scaling", "cluster", /*smoke=*/false};
  report.param("model", "resnet50");
  report.param("scale", 0.1);
  auto& rows = report.table("rows", {{"daemons"}, {"replicas"}, {"model_bytes", bench::kBytes},
                                     {"checkpoint_ns", bench::kNs},
                                     {"throughput_gbps", bench::kReal},
                                     {"client_nic_bytes", bench::kBytes}});
  for (const auto* series : {&striped, &replicated}) {
    for (const auto& row : *series) {
      rows.add({row.daemons, row.replicas, row.model_bytes, row.ckpt, row.gbps(),
                row.client_nic_bytes});
    }
  }

  // Each job's restore sits in a column of its own, and so does the count of
  // its shards each survivor served.
  const auto& jobs = failover.front().jobs;
  std::vector<bench::Column> restore_columns = {
      {"daemons"}, {"replicas"}, {"shards"}, {"scale", bench::kReal, 3},
      {"slowest_restore_ns", bench::kNs}, {"median_restore_ns", bench::kNs}};
  std::vector<bench::Column> served_columns = {{"daemons"}, {"survivor", bench::kText}};
  for (const auto& job : jobs) {
    restore_columns.push_back({job, bench::kNs});
    served_columns.push_back({job});
  }
  auto& restores = report.table(
      "failover", restore_columns,
      "restore after portusd1 crashes (R=2, 8 shards, 4 jobs restoring at once)");
  auto& served = report.table("failover_served", served_columns,
                              "shards of each job each survivor served");
  for (const auto& row : failover) {
    std::vector<bench::Cell> cells = {row.daemons, 2, 8, 0.005, row.slowest(), row.median()};
    cells.insert(cells.end(), row.restore.begin(), row.restore.end());
    restores.add(std::move(cells));
    for (std::size_t k = 0; k < row.survivors.size(); ++k) {
      std::vector<bench::Cell> split = {row.daemons, row.survivors[k]};
      for (const auto& by_survivor : row.served) split.emplace_back(by_survivor[k]);
      served.add(std::move(split));
    }
  }

  report.require(striped[1].gbps() >= striped[0].gbps() * 1.6,
                 "2-daemon striping below 1.6x single-daemon throughput");
  for (std::size_t i = 1; i < striped.size(); ++i) {
    report.require(striped[i].gbps() >= striped[i - 1].gbps() * 0.95,
                   strf("{}-daemon ring regresses the narrower ring", striped[i].daemons));
  }
  for (const auto& row : replicated) {
    const auto& single = striped[row.daemons - 1];
    report.require(row.ckpt > single.ckpt,
                   strf("R=2 on {} daemons should cost more than R=1 (writes every shard "
                        "twice)",
                        row.daemons));
    report.require(row.gbps() >= kReplicatedShare * single.gbps(),
                   strf("R=2 on {} daemons below {}x of R=1", row.daemons, kReplicatedShare));
  }
  for (const auto& row : failover) {
    report.require(row.median() <= kMedianRestoreBound,
                   strf("median job restore on {} daemons above {}", row.daemons,
                        format_duration(kMedianRestoreBound)));
    for (std::size_t j = 0; j < row.jobs.size(); ++j) {
      const auto [lo, hi] = std::minmax_element(row.served[j].begin(), row.served[j].end());
      report.require(*hi - *lo <= 1,
                     strf("{} on {} daemons: survivors' shard counts differ by more than one",
                          row.jobs[j], row.daemons));
    }
  }
  return report.finish();
}
