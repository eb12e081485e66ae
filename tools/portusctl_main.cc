// portusctl: manage and share DNN checkpoints stored on (simulated) PMEM.
//
// The simulated devdax device is persisted as a host-side image file, so
// successive invocations of this tool operate on the same checkpoint store —
// the workflow of SS IV-b:
//
//   portusctl demo   IMAGE               seed the image with checkpointed
//                                        models (in place of a live cluster)
//   portusctl view   IMAGE               list models + slot states
//   portusctl dump   IMAGE MODEL OUT     export the newest valid checkpoint
//                                        as a portable .ptck container file
//   portusctl repack IMAGE               reclaim invalid checkpoint versions
//   portusctl fsck   IMAGE [--verify-only]
//                                        scrub payload CRCs, demote torn or
//                                        corrupt slots, sweep orphans; exit
//                                        0 = clean, 1 = issues found
#include <fstream>
#include <iostream>

#include "common/strformat.h"
#include "core/client.h"
#include "core/cluster/cluster_client.h"
#include "core/cluster/cluster_ctl.h"
#include "core/cluster/migration.h"
#include "core/daemon/daemon.h"
#include "core/fleet/fleet_gen.h"
#include "core/portusctl.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"
#include "sim/fault.h"

using namespace portus;

namespace {

struct World {
  sim::Engine engine;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(engine);
  core::QpRendezvous rendezvous;
  std::unique_ptr<core::PortusDaemon> daemon;

  World() {
    daemon = std::make_unique<core::PortusDaemon>(*cluster, cluster->node("server"),
                                                  rendezvous);
  }
  ~World() { engine.shutdown(); }

  void load(const std::string& image) {
    std::ifstream in{image, std::ios::binary};
    if (!in) {
      std::cerr << "cannot open image: " << image << "\n";
      std::exit(2);
    }
    daemon->device().load_image(in);
    daemon->recover();
  }

  void save(const std::string& image) {
    daemon->device().persist_all();
    std::ofstream out{image, std::ios::binary | std::ios::trunc};
    daemon->device().save_image(out);
  }
};

int cmd_demo(const std::string& image) {
  World w;
  w.daemon->start();
  auto& node = w.cluster->node("client-volta");

  const std::vector<std::pair<std::string, int>> jobs = {
      {"resnet50", 3}, {"alexnet", 2}, {"swin_b", 1}};
  std::vector<dnn::Model> models;
  std::vector<std::unique_ptr<core::PortusClient>> clients;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    dnn::ModelZoo::Options opt;
    opt.scale = 0.05;  // keep the image file small
    models.push_back(dnn::ModelZoo::create(node.gpu(i % node.gpu_count()), jobs[i].first, opt));
    clients.push_back(std::make_unique<core::PortusClient>(
        *w.cluster, node, node.gpu(i % node.gpu_count()), w.rendezvous));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    w.engine.spawn([](core::PortusClient& c, dnn::Model& m, int ckpts) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      for (int k = 1; k <= ckpts; ++k) {
        m.mutate_weights(static_cast<std::uint64_t>(k));
        co_await c.checkpoint(m, static_cast<std::uint64_t>(k));
      }
      if (ckpts > 1) co_await c.finish(m);  // leave one job "running"
    }(*clients[i], models[i], jobs[i].second));
  }
  w.engine.run();
  w.save(image);
  std::cout << "seeded " << image << " with " << jobs.size() << " checkpointed models\n";
  core::Portusctl ctl{*w.daemon};
  std::cout << ctl.render_view();
  std::cout << "\n" << ctl.render_stats();
  return 0;
}

int cmd_view(const std::string& image) {
  World w;
  w.load(image);
  core::Portusctl ctl{*w.daemon};
  std::cout << ctl.render_view();
  return 0;
}

int cmd_dump(const std::string& image, const std::string& model, const std::string& out_path) {
  World w;
  w.load(image);
  core::Portusctl ctl{*w.daemon};

  storage::CheckpointFile file;
  auto proc = w.engine.spawn([](core::Portusctl& c, const std::string& name,
                                storage::CheckpointFile& f) -> sim::Process {
    f = co_await c.dump(name);
  }(ctl, model, file));
  w.engine.run();
  proc.check();  // rethrows the dump's failure (e.g. an unknown model) for main
  const auto container = storage::CheckpointSerializer::serialize(file);
  std::ofstream out{out_path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(container.data()),
            static_cast<std::streamsize>(container.size()));
  if (!out.good()) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "dumped " << model << " (" << file.tensors.size() << " tensors, "
            << format_bytes(container.size()) << ") -> " << out_path << "\n";
  return 0;
}

int cmd_repack(const std::string& image) {
  World w;
  w.load(image);
  core::Portusctl ctl{*w.daemon};
  const auto report = ctl.repack();
  std::cout << "freed " << format_bytes(report.freed_outdated) << " outdated + "
            << format_bytes(report.freed_crashed) << " crashed; compacted "
            << format_bytes(report.compacted) << " (" << report.slots_cleared
            << " slots)\n";
  w.save(image);
  return 0;
}

int cmd_fsck(const std::string& image, bool verify_only) {
  World w;
  w.load(image);
  core::Portusctl ctl{*w.daemon};
  const auto report = ctl.fsck(/*repair=*/!verify_only);
  std::cout << ctl.render_fsck(report);
  if (!verify_only) w.save(image);
  return report.clean() ? 0 : 1;
}

// `portusctl tenants`: the per-tenant quota/usage table. Tenancy state is
// daemon DRAM only (quotas re-negotiate on re-registration), so there is no
// image to read it from — this subcommand drives a small mixed-class fleet
// against a tenancy-enabled two-daemon ring and renders what an admin would
// see on a live deployment.
int cmd_tenants() {
  struct TenantWorld {
    sim::Engine engine;
    std::unique_ptr<net::Cluster> cluster;
    core::QpRendezvous rendezvous;
    std::vector<std::unique_ptr<core::PortusDaemon>> daemons;
    std::vector<std::string> endpoints;

    TenantWorld() {
      cluster = net::Cluster::sharded_testbed(engine, 2);
      for (int i = 0; i < 2; ++i) {
        core::PortusDaemon::Config cfg;
        cfg.endpoint = strf("portusd{}", i);
        cfg.tenancy = true;
        cfg.admission_inflight = 1;
        cfg.admission_queue_depth = 4;
        cfg.tenant_defaults.capacity_bytes = 4_GiB;  // policy ceiling
        endpoints.push_back(cfg.endpoint);
        daemons.push_back(std::make_unique<core::PortusDaemon>(
            *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
        daemons.back()->start();
      }
    }
    ~TenantWorld() { engine.shutdown(); }
  };

  TenantWorld w;
  core::fleet::FleetConfig fc;
  fc.tenants = 12;
  fc.checkpoints_per_tenant = 3;
  fc.name_prefix = "demo";
  fc.high_period = Duration{500'000'000};
  fc.normal_period = Duration{200'000'000};
  fc.batch_period = Duration{8'000'000};
  core::fleet::FleetGen gen{*w.cluster, w.cluster->node("client-volta"), w.rendezvous,
                            w.endpoints, fc};
  core::fleet::FleetReport rep;
  w.engine.spawn([](core::fleet::FleetGen& g,
                    core::fleet::FleetReport& out) -> sim::Process {
    out = co_await g.run();
  }(gen, rep));
  w.engine.run();

  std::cout << strf("{} tenants, {} checkpoints, {} backpressure retries absorbed\n\n",
                    fc.tenants, rep.checkpoints, rep.retries);
  for (auto& d : w.daemons) {
    core::Portusctl ctl{*d};
    std::cout << strf("=== {} ===\n", d->config().endpoint) << ctl.render_tenants()
              << "\n";
  }
  return rep.failures == 0 ? 0 : 1;
}

// A Portus-Cluster ring: N storage nodes, one daemon each, endpoints
// "portusd0".."portusdN-1", all killable through the fault injector.
struct ClusterWorld {
  sim::Engine engine;
  std::unique_ptr<net::Cluster> cluster;
  core::QpRendezvous rendezvous;
  sim::FaultInjector faults{engine};
  std::vector<std::unique_ptr<core::PortusDaemon>> daemons;
  std::vector<std::string> endpoints;

  explicit ClusterWorld(int n, bool start) {
    cluster = net::Cluster::sharded_testbed(engine, n);
    for (int i = 0; i < n; ++i) {
      core::PortusDaemon::Config cfg;
      cfg.endpoint = strf("portusd{}", i);
      cfg.faults = &faults;
      endpoints.push_back(cfg.endpoint);
      daemons.push_back(std::make_unique<core::PortusDaemon>(
          *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
      if (start) daemons.back()->start();
    }
  }
  ~ClusterWorld() { engine.shutdown(); }

  std::vector<core::PortusDaemon*> daemon_ptrs() {
    std::vector<core::PortusDaemon*> out;
    for (auto& d : daemons) out.push_back(d.get());
    return out;
  }
};

// Seed a 3-daemon ring with a replicated sharded model, kill one daemon
// mid-run, finish with a degraded restore, and save one image per daemon.
int cmd_cluster_demo(const std::string& image_prefix) {
  using namespace std::chrono_literals;
  ClusterWorld w{3, /*start=*/true};
  auto& volta = w.cluster->node("client-volta");

  dnn::ModelZoo::Options opt;
  opt.scale = 0.05;  // keep the image files small
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  core::cluster::ClusterClient::Config ccfg;
  ccfg.endpoints = w.endpoints;
  ccfg.replicas = 2;
  ccfg.op_timeout = 50ms;
  core::cluster::ClusterClient client{*w.cluster, volta, volta.gpu(0), w.rendezvous, ccfg};

  bool ok = false;
  w.engine.spawn([](ClusterWorld& w, core::cluster::ClusterClient& c, dnn::Model& m,
                    bool& done) -> sim::Process {
    co_await c.register_model(m);
    co_await c.checkpoint(1);
    m.mutate_weights(2);
    co_await c.checkpoint(2);
    const auto crc = m.weights_crc();

    w.faults.kill_now("portusd1");  // crash-stop one ring member
    m.mutate_weights(3);
    const auto ck = co_await c.checkpoint(3);
    std::cout << strf("checkpoint 3 committed epoch {}{}\n", ck.epoch,
                      ck.degraded ? " (degraded)" : "");
    const auto crc3 = m.weights_crc();

    m.mutate_weights(99);  // diverge, then pull epoch 3 back
    const auto rr = co_await c.restore();
    std::cout << strf("restore: epoch {}, degraded={}, re-routed {} shards\n", rr.epoch,
                      rr.degraded ? "yes" : "no", rr.rerouted_shards);
    if (m.weights_crc() != crc3 || crc == crc3) throw Error("restore mismatch");
    done = true;
  }(w, client, model, ok));
  w.engine.run();
  if (!ok) {
    std::cerr << "cluster demo failed\n";
    return 1;
  }

  const auto ptrs = w.daemon_ptrs();
  std::cout << "\n" << core::cluster::ClusterCtl::render_status(ptrs, &client);
  for (std::size_t i = 0; i < w.daemons.size(); ++i) {
    const auto path = strf("{}{}.img", image_prefix, i);
    w.daemons[i]->device().persist_all();
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    w.daemons[i]->device().save_image(out);
    std::cout << "saved " << path << "\n";
  }
  return 0;
}

// Elastic-resize walkthrough: a 2-member ring under continuous checkpoints
// grows by one daemon (`join`), optionally streams a member empty (`drain`)
// and retires it (`decommission`) — each step a live migration behind a
// membership-epoch bump, with zero failed client ops and a bit-exact
// restore at the end. `op` selects how far down the lifecycle to run.
int cmd_cluster(const std::string& op) {
  using namespace std::chrono_literals;
  const int depth = op == "join" ? 1 : op == "drain" ? 2 : op == "decommission" ? 3 : 0;
  if (depth == 0) {
    std::cerr << "unknown cluster op: " << op << "\n";
    return 2;
  }

  ClusterWorld w{3, /*start=*/true};
  auto& volta = w.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = 0.05;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  core::cluster::ElasticCluster ec{w.engine};
  ec.add_member("portusd0", *w.daemons[0]);
  ec.add_member("portusd1", *w.daemons[1]);
  ec.seal();

  core::cluster::ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.shard_count = 8;  // fixed cut, so shards spread over late joiners
  ccfg.membership = &ec;
  ccfg.op_timeout = 50ms;
  core::cluster::ClusterClient client{*w.cluster, volta, volta.gpu(0), w.rendezvous, ccfg};

  bool ok = false;
  w.engine.spawn([](ClusterWorld& w, core::cluster::ElasticCluster& ec,
                    core::cluster::ClusterClient& c, dnn::Model& m, int depth,
                    bool& done) -> sim::Process {
    co_await c.register_model(m);
    std::uint64_t iter = 0;
    for (int k = 0; k < 2; ++k) {
      m.mutate_weights(++iter);
      co_await c.checkpoint(iter);
    }

    co_await ec.join("portusd2", *w.daemons[2]);
    std::cout << strf("joined portusd2 (epoch {})\n", ec.membership().epoch);
    m.mutate_weights(++iter);
    co_await c.checkpoint(iter);

    if (depth >= 2) {
      co_await ec.drain("portusd0");
      std::cout << strf("drained portusd0 (epoch {})\n", ec.membership().epoch);
      m.mutate_weights(++iter);
      co_await c.checkpoint(iter);
    }
    if (depth >= 3) {
      ec.decommission("portusd0");
      std::cout << strf("decommissioned portusd0 (epoch {})\n", ec.membership().epoch);
      m.mutate_weights(++iter);
      co_await c.checkpoint(iter);
    }

    const auto crc = m.weights_crc();
    m.mutate_weights(9999);  // diverge, then pull the last epoch back
    const auto rr = co_await c.restore();
    std::cout << strf("restore: epoch {}, degraded={}\n", rr.epoch,
                      rr.degraded ? "yes" : "no");
    if (m.weights_crc() != crc) throw Error("restore mismatch after resize");
    done = true;
  }(w, ec, client, model, depth, ok));
  w.engine.run();
  if (!ok) {
    std::cerr << "elastic walkthrough failed\n";
    return 1;
  }

  const auto& ms = ec.stats();
  std::cout << strf("\nmigration: {} copies moved ({}), {} epoch bumps, {} barriers\n",
                    ms.copies_moved, format_bytes(ms.bytes_streamed), ms.epoch_bumps,
                    ms.barriers);
  const auto ptrs = w.daemon_ptrs();
  std::cout << core::cluster::ClusterCtl::render_status(ptrs, &client, &ec.membership());
  return 0;
}

// Aggregate the fleet view from per-daemon images (cluster-demo's output).
int cmd_cluster_status(const std::vector<std::string>& images) {
  ClusterWorld w{static_cast<int>(images.size()), /*start=*/false};
  for (std::size_t i = 0; i < images.size(); ++i) {
    std::ifstream in{images[i], std::ios::binary};
    if (!in) {
      std::cerr << "cannot open image: " << images[i] << "\n";
      return 2;
    }
    w.daemons[i]->device().load_image(in);
    w.daemons[i]->recover();
  }
  std::cout << core::cluster::ClusterCtl::render_status(w.daemon_ptrs());
  return 0;
}

int usage() {
  std::cerr << "usage:\n"
               "  portusctl demo   IMAGE\n"
               "  portusctl view   IMAGE\n"
               "  portusctl dump   IMAGE MODEL OUT.ptck\n"
               "  portusctl repack IMAGE\n"
               "  portusctl fsck   IMAGE [--verify-only]\n"
               "  portusctl tenants\n"
               "  portusctl cluster-demo   IMAGE_PREFIX\n"
               "  portusctl cluster-status IMAGE...\n"
               "  portusctl cluster join|drain|decommission\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "tenants") return cmd_tenants();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (argc < 3) return usage();
  const std::string image = argv[2];
  try {
    if (cmd == "demo") return cmd_demo(image);
    if (cmd == "view") return cmd_view(image);
    if (cmd == "dump" && argc == 5) return cmd_dump(image, argv[3], argv[4]);
    if (cmd == "repack") return cmd_repack(image);
    if (cmd == "fsck") {
      const bool verify_only = argc > 3 && std::string{argv[3]} == "--verify-only";
      return cmd_fsck(image, verify_only);
    }
    if (cmd == "cluster") return cmd_cluster(image);  // argv[2] = join|drain|...
    if (cmd == "cluster-demo") return cmd_cluster_demo(image);
    if (cmd == "cluster-status") {
      return cmd_cluster_status(std::vector<std::string>(argv + 2, argv + argc));
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
