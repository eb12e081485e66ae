// Portus-Cluster scaling: checkpoint throughput vs ring size.
//
// Shards one ResNet-50-class model over 1..4 Portus daemons and measures
// steady-state checkpoint time for R=1 (pure striping) and R=2 (paper-style
// replication, where each shard is written twice). With one daemon the
// bottleneck is that node's PMEM write bandwidth (~5 GB/s); adding daemons
// adds PMEM lanes until the client NIC (~12 GB/s wire) saturates, so the
// R=1 series is expected to run ~5 / 10 / 12 / 12 GB/s over N=1..4.
// Emits BENCH_cluster.json and fails (exit 1) if striping does not scale
// (N=2 below 1.6x of N=1) or if any wider ring regresses a narrower one.
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
// survivor serves 16 shard restores on 8 workers, and serving the shortest
// remaining transfer first lets the small jobs' shards pass bert's.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>

#include "bench_common.h"
#include "core/cluster/cluster_client.h"
#include "sim/fault.h"

using namespace portus;

namespace {

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

  std::cout << strf("{:>8}{:>10}{:>12}{:>14}{:>12}{:>13}\n", "daemons", "replicas", "model",
                    "checkpoint", "GB/s", "client NIC");
  const auto print_row = [](const Row& row) {
    std::cout << strf("{:>8}{:>10}{:>12}{:>14}{:>11.2f}{:>13}\n", row.daemons, row.replicas,
                      format_bytes(row.model_bytes), format_duration(row.ckpt), row.gbps(),
                      format_bytes(row.client_nic_bytes));
  };
  for (const auto& row : striped) print_row(row);
  for (const auto& row : replicated) print_row(row);

  std::vector<FailoverRow> failover;
  for (const int n : {3, 4}) failover.push_back(measure_failover(n));
  std::cout << "\nrestore after portusd1 crashes (R=2, 8 shards, 4 jobs restoring at once)\n";
  std::string header = strf("{:>8}{:>12}{:>12}", "daemons", "slowest", "median");
  for (const auto& job : failover.front().jobs) header += strf("{:>12}", job);
  std::cout << header << "   shards each survivor served\n";
  for (const auto& row : failover) {
    std::string line = strf("{:>8}{:>12}{:>12}", row.daemons, format_duration(row.slowest()),
                            format_duration(row.median()));
    for (const auto took : row.restore) line += strf("{:>12}", format_duration(took));
    std::string split;
    for (std::size_t j = 0; j < row.jobs.size(); ++j) {
      std::string counts;
      for (const auto n : row.served[j]) counts += (counts.empty() ? "" : "/") + strf("{}", n);
      split += strf("  {} {}", row.jobs[j], counts);
    }
    std::cout << line << " " << split << "\n";
  }

  const auto json_path = bench::results_path("BENCH_cluster.json");
  std::ofstream json{json_path, std::ios::trunc};
  json << "{\n  \"bench\": \"cluster_scaling\",\n  \"model\": \"resnet50\",\n"
       << "  \"scale\": 0.1,\n  \"rows\": [\n";
  const auto all = [&] {
    std::vector<Row> v = striped;
    v.insert(v.end(), replicated.begin(), replicated.end());
    return v;
  }();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& row = all[i];
    json << strf(
        "    {{\"daemons\": {}, \"replicas\": {}, \"model_bytes\": {}, "
        "\"checkpoint_ns\": {}, \"throughput_gbps\": {:.4f}, \"client_nic_bytes\": {}}}{}\n",
        row.daemons, row.replicas, row.model_bytes, row.ckpt.count(), row.gbps(),
        row.client_nic_bytes, i + 1 < all.size() ? "," : "");
  }
  json << "  ],\n  \"failover\": [\n";
  for (std::size_t i = 0; i < failover.size(); ++i) {
    const auto& row = failover[i];
    std::string job_restore;
    for (std::size_t j = 0; j < row.jobs.size(); ++j) {
      job_restore += strf("{}\"{}\": {}", j == 0 ? "" : ", ", row.jobs[j], row.restore[j].count());
    }
    json << strf("    {{\"daemons\": {}, \"replicas\": 2, \"shards\": 8, \"scale\": 0.005, "
                 "\"slowest_restore_ns\": {}, \"median_restore_ns\": {}, "
                 "\"job_restore_ns\": {{{}}}, \"jobs\": [",
                 row.daemons, row.slowest().count(), row.median().count(), job_restore);
    for (std::size_t j = 0; j < row.jobs.size(); ++j) {
      std::string served;
      for (std::size_t k = 0; k < row.survivors.size(); ++k) {
        served += strf("{}\"{}\": {}", k == 0 ? "" : ", ", row.survivors[k], row.served[j][k]);
      }
      json << strf("{}{{\"model\": \"{}\", \"served\": {{{}}}}}", j == 0 ? "" : ", ",
                   row.jobs[j], served);
    }
    json << strf("]}}{}\n", i + 1 < failover.size() ? "," : "");
  }
  json << "  ]\n}\n";
  json.close();
  std::cout << "\nwrote " << json_path << "\n";

  int rc = 0;
  if (striped[1].gbps() < striped[0].gbps() * 1.6) {
    std::cerr << "FAIL: 2-daemon striping below 1.6x single-daemon throughput\n";
    rc = 1;
  }
  for (std::size_t i = 1; i < striped.size(); ++i) {
    if (striped[i].gbps() < striped[i - 1].gbps() * 0.95) {
      std::cerr << "FAIL: " << striped[i].daemons
                << "-daemon ring regresses the narrower ring\n";
      rc = 1;
    }
  }
  for (const auto& row : replicated) {
    if (row.ckpt <= striped[row.daemons - 1].ckpt) {
      std::cerr << "FAIL: R=2 on " << row.daemons
                << " daemons should cost more than R=1 (writes every shard twice)\n";
      rc = 1;
    }
  }
  for (const auto& row : failover) {
    for (std::size_t j = 0; j < row.jobs.size(); ++j) {
      const auto [lo, hi] = std::minmax_element(row.served[j].begin(), row.served[j].end());
      if (*hi - *lo > 1) {
        std::cerr << "FAIL: " << row.jobs[j] << " on " << row.daemons
                  << " daemons: survivors' shard counts differ by more than one\n";
        rc = 1;
      }
    }
  }
  if (rc == 0) std::cout << "cluster scaling acceptance checks passed\n";
  return rc;
}
