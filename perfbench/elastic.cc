// elastic: sharded jobs on a ring that is being resized. Four default
// daemons on sharded_testbed(4); ElasticCluster founded with portusd0 and
// portusd1. Four ClusterClient jobs (replicas 2, shard_count 8) with real
// payloads at reduced scale checkpoint in a closed loop while the resizer
// runs: join portusd2; join portusd3; drain + decommission portusd0; crash
// portusd1; every job restores (degraded, rerouted, bit-exact); repair
// portusd1; every job restores again. The seed draws each model's size
// (kScale +-5%); the layer split, and so the shard placement, stays the
// canonical one, so seeds move latencies smoothly.
#include <algorithm>
#include <fstream>

#include "common/strformat.h"
#include "core/cluster/cluster_client.h"
#include "core/cluster/migration.h"
#include "dnn/model_zoo.h"
#include "layers.h"
#include "sim/fault.h"

namespace portus::perfbench {

namespace {

constexpr int kNodes = 4;
constexpr double kScale = 0.005;
constexpr double kScaleJitter = 0.05;  // seeded per-model size factor around kScale
constexpr Duration kTrainInterval{20'000'000};  // compute between checkpoints
constexpr int kRestoresPerPhase = 4;
const char* const kModels[] = {"resnet50", "swin_b", "vgg19_bn", "bert"};
constexpr std::uint64_t kOpsPerStep = 3;  // checkpoints per job per resize step

struct ElasticRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  core::QpRendezvous rendezvous;
  sim::FaultInjector faults{eng};
  std::unique_ptr<sim::Tracer> tracer;
  core::cluster::ElasticCluster elastic{eng};
  std::vector<std::unique_ptr<core::PortusDaemon>> daemons;

  explicit ElasticRig(bool traced) {
    cluster = net::Cluster::sharded_testbed(eng, kNodes);
    if (traced) tracer = std::make_unique<sim::Tracer>(eng);
    for (int i = 0; i < kNodes; ++i) {
      core::PortusDaemon::Config cfg;
      cfg.endpoint = strf("portusd{}", i);
      cfg.workers = 8;
      cfg.faults = &faults;
      cfg.tracer = tracer.get();
      daemons.push_back(std::make_unique<core::PortusDaemon>(
          *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
      daemons.back()->start();
    }
    elastic.add_member("portusd0", *daemons[0]);
    elastic.add_member("portusd1", *daemons[1]);
    elastic.seal();
  }
  ~ElasticRig() { eng.shutdown(); }
};

struct Job {
  std::unique_ptr<dnn::Model> model;
  std::unique_ptr<core::cluster::ClusterClient> client;
  std::uint64_t iteration = 0;
  std::uint64_t ops = 0;  // checkpoints landed
  std::uint64_t last_epoch = 0;
  std::uint32_t golden = 0;  // weights CRC of the last acked epoch
  std::string track;
};

struct Elastic {
  ElasticRig& rig;
  RoundResult& r;
  std::vector<std::unique_ptr<Job>>& jobs;
  bool run = false;  // loaders keep checkpointing while set
  std::uint64_t next_op = 0;
};

sim::Process register_job(Elastic& e, Job& j) {
  auto sp = span(e.rig.tracer.get(), "register#" + std::to_string(++e.next_op), j.track);
  const Time t0 = e.rig.eng.now();
  ++e.r.attempted;
  co_await j.client->register_model(*j.model);
  e.r.register_ms.push_back(to_seconds(e.rig.eng.now() - t0) * 1e3);
}

sim::Process loader(Elastic& e, Job& j) {
  auto& eng = e.rig.eng;
  while (e.run) {
    j.model->mutate_weights(++j.iteration);
    const auto golden = j.model->weights_crc();
    auto sp = span(e.rig.tracer.get(), "ckpt#" + std::to_string(++e.next_op), j.track);
    const Time t0 = eng.now();
    ++e.r.attempted;
    try {
      const auto ck = co_await j.client->checkpoint(j.iteration);
      const double lat = to_seconds(eng.now() - t0);
      e.r.ckpt_ms.push_back(lat * 1e3);
      e.r.ckpt_bytes += static_cast<double>(j.model->total_bytes());
      e.r.ckpt_latency_s += lat;
      e.r.layers.add("ops.datapath", 1);
      e.r.layers.add("user.bytes", static_cast<double>(j.model->total_bytes()));
      if (ck.epoch <= j.last_epoch) e.r.fail(j.model->name() + ": epoch did not advance");
      j.last_epoch = ck.epoch;
      j.golden = golden;
      ++j.ops;
    } catch (const Error& err) {
      ++e.r.failed;
      e.r.fail(strf("{}: checkpoint failed: {}", j.model->name(), err.what()));
    }
    sp.end();
    co_await eng.sleep(kTrainInterval);
  }
}

sim::Process restore_job(Elastic& e, Job& j) {
  auto& eng = e.rig.eng;
  j.model->mutate_weights(0xC10BB3ull + j.iteration);  // clobber
  auto sp = span(e.rig.tracer.get(), "restore#" + std::to_string(++e.next_op), j.track);
  const Time t0 = eng.now();
  ++e.r.attempted;
  try {
    const auto rr = co_await j.client->restore();
    e.r.restore_ms.push_back(to_seconds(eng.now() - t0) * 1e3);
    e.r.layers.add("ops.datapath", 1);
    if (rr.epoch != j.last_epoch) e.r.fail(j.model->name() + ": restore served a stale epoch");
    if (j.model->weights_crc() != j.golden) e.r.fail(j.model->name() + ": restore is not bit-exact");
  } catch (const Error& err) {
    ++e.r.failed;
    e.r.fail(strf("{}: restore failed: {}", j.model->name(), err.what()));
  }
}

// Wait until every job landed `n` more checkpoints (or an op failed).
sim::SubTask<> under_load(Elastic& e, std::uint64_t n) {
  std::vector<std::uint64_t> want;
  for (auto& j : e.jobs) want.push_back(j->ops + n);
  const auto done = [&] {
    for (std::size_t i = 0; i < e.jobs.size(); ++i) {
      if (e.jobs[i]->ops < want[i]) return false;
    }
    return true;
  };
  while (!done() && e.r.failed == 0) co_await e.rig.eng.sleep(Duration{100'000});
}

sim::SubTask<> restore_all(Elastic& e) {
  std::vector<sim::Process> procs;
  for (int k = 0; k < kRestoresPerPhase; ++k) {
    procs.clear();
    for (auto& j : e.jobs) procs.push_back(e.rig.eng.spawn(restore_job(e, *j)));
    for (auto& p : procs) co_await p.join();
  }
}

sim::Process resizer(Elastic& e) {
  auto& eng = e.rig.eng;
  auto& el = e.rig.elastic;
  std::vector<sim::Process> loaders;
  const auto start_loaders = [&] {
    e.run = true;
    loaders.clear();
    for (auto& j : e.jobs) loaders.push_back(eng.spawn(loader(e, *j)));
  };
  const auto timed = [&](const char* what) {
    return span(e.rig.tracer.get(), strf("{}#{}", what, ++e.next_op), "elastic/resizer");
  };

  start_loaders();
  co_await under_load(e, kOpsPerStep);  // steady state on two members
  for (const int joiner : {2, 3}) {
    auto sp = timed("join");
    const Time t0 = eng.now();
    co_await el.join(strf("portusd{}", joiner), *e.rig.daemons[static_cast<std::size_t>(joiner)]);
    e.r.resize_s.push_back(to_seconds(eng.now() - t0));
    sp.end();
    co_await under_load(e, kOpsPerStep);
  }
  {
    auto sp = timed("drain");
    const Time t0 = eng.now();
    co_await el.drain("portusd0");
    el.decommission("portusd0");
    e.r.resize_s.push_back(to_seconds(eng.now() - t0));
  }
  co_await under_load(e, kOpsPerStep);
  e.rig.faults.kill_now("portusd1");
  co_await under_load(e, kOpsPerStep);  // degraded checkpoints

  e.run = false;
  for (auto& p : loaders) co_await p.join();
  co_await restore_all(e);  // degraded + rerouted

  start_loaders();
  {
    auto sp = timed("repair");
    const Time t0 = eng.now();
    co_await el.repair("portusd1");
    e.r.resize_s.push_back(to_seconds(eng.now() - t0));
  }
  co_await under_load(e, kOpsPerStep);
  e.run = false;
  for (auto& p : loaders) co_await p.join();
  co_await restore_all(e);
}

}  // namespace

RoundResult run_elastic_round(const RoundSpec& spec) {
  RoundResult r;
  const double h0 = cpu_seconds();
  ElasticRig rig{spec.traced};
  Rng rng{spec.seed};
  auto& volta = rig.cluster->node("client-volta");
  std::vector<std::unique_ptr<Job>> jobs;
  for (int i = 0; i < 4; ++i) {
    auto j = std::make_unique<Job>();
    j->track = strf("elastic/job{}", i);
    auto mspec = dnn::ModelZoo::spec(kModels[i]);
    dnn::ModelZoo::Options opt;
    opt.scale = kScale * rng.uniform_real(1.0 - kScaleJitter, 1.0 + kScaleJitter);
    opt.force_real = true;
    opt.weight_seed = rng.next_u64();
    auto& gpu = volta.gpu(static_cast<std::size_t>(i));
    j->model = std::make_unique<dnn::Model>(dnn::ModelZoo::create_from_spec(gpu, mspec, opt));
    core::cluster::ClusterClient::Config ccfg;
    ccfg.replicas = 2;
    ccfg.shard_count = 8;
    ccfg.membership = &rig.elastic;
    ccfg.op_timeout = Duration{50'000'000};
    j->client = std::make_unique<core::cluster::ClusterClient>(*rig.cluster, volta, gpu,
                                                               rig.rendezvous, ccfg);
    jobs.push_back(std::move(j));
  }
  Elastic e{.rig = rig, .r = r, .jobs = jobs};
  std::vector<core::PortusDaemon*> daemons;
  for (auto& d : rig.daemons) daemons.push_back(d.get());
  std::vector<gpu::GpuDevice*> gpus;
  for (std::size_t g = 0; g < volta.gpu_count(); ++g) gpus.push_back(&volta.gpu(g));
  auto view = rig_view(rig.eng, *rig.cluster, daemons, gpus);
  // Per-layer deltas cover the registrations too (no lane exists yet).
  const auto before = spec.traced ? snapshot(view) : LayerCounters{};
  {
    std::vector<sim::Process> procs;
    for (auto& j : jobs) procs.push_back(rig.eng.spawn(register_job(e, *j)));
    rig.eng.run();
    for (auto& p : procs) p.check();
  }
  const double h1 = cpu_seconds();
  r.setup_s = h1 - h0;

  const Time t0 = rig.eng.now();
  run_to_idle(rig.eng, resizer(e));
  r.host_s = cpu_seconds() - h1;
  r.makespan_s = to_seconds(rig.eng.now() - t0);
  if (spec.traced) {
    // Cluster clients and the controller start from zero at construction.
    for (auto& j : jobs) {
      for (std::size_t l = 0; l < j->client->lane_count(); ++l) {
        view.clients.push_back(&j->client->lane_client(l));
      }
      const auto& s = j->client->stats();
      r.layers.add("cluster.reresolutions", static_cast<double>(s.epoch_reresolutions));
      r.layers.add("cluster.lane_failures", static_cast<double>(s.lane_failures));
      r.layers.add("cluster.rerouted_shards", static_cast<double>(s.rerouted_shards));
      r.layers.add("cluster.degraded_restores", static_cast<double>(s.degraded_restores));
    }
    const auto& m = rig.elastic.stats();
    r.layers.add("migration.copies_moved", static_cast<double>(m.copies_moved));
    r.layers.add("migration.bytes_streamed", static_cast<double>(m.bytes_streamed));
    r.layers.add("migration.barrier_ns", static_cast<double>(m.barrier_time.count()));
    account_phase(r, view, before, to_seconds(rig.eng.now()), r.host_s, r.attempted);
    if (!spec.trace_path.empty()) {
      std::ofstream out{spec.trace_path, std::ios::trunc};
      rig.tracer->write_chrome_json(out);
    }
  }
  for (auto& d : rig.daemons) gate_daemon(r, *d, d->killed());
  return r;
}

}  // namespace portus::perfbench
