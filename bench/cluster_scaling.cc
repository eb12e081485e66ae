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
#include <cstdlib>
#include <fstream>

#include "bench_common.h"
#include "core/cluster/cluster_client.h"

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

Row measure(int daemons, int replicas) {
  Row row{.daemons = daemons, .replicas = replicas};
  sim::Engine engine;
  auto cluster = net::Cluster::sharded_testbed(engine, daemons);
  core::QpRendezvous rendezvous;
  std::vector<std::unique_ptr<core::PortusDaemon>> ring;
  core::cluster::ClusterClient::Config ccfg;
  ccfg.replicas = replicas;
  for (int i = 0; i < daemons; ++i) {
    core::PortusDaemon::Config cfg;
    cfg.endpoint = strf("portusd{}", i);
    ring.push_back(std::make_unique<core::PortusDaemon>(
        *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
    ring.back()->start();
    ccfg.endpoints.push_back(cfg.endpoint);
  }

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
  if (rc == 0) std::cout << "cluster scaling acceptance checks passed\n";
  return rc;
}
