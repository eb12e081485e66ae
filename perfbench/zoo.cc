// zoo: one training job at a time, closed loop, one client against one
// default-configured daemon on the paper testbed — the single-op datapath.
//
// Each of the seven Table II models gets a fresh testbed (as fig11/fig12
// measure them) and runs, in order: register; a few training iterations
// with PortusHook async checkpointing every iteration; K full checkpoints;
// K incrementals over a seeded 5% dirty-tensor set (mutated through the
// GPU buffers); R restores, each after clobbering the weights and checked
// bit-exact against the last acked epoch.
//
// The seed draws each model's per-layer size split (same layer count and
// total bytes as Table II) and the dirty sets. Models above
// kRealPayloadLimit carry phantom payloads: their virtual timing is the
// same as real bytes, and the bit-exact gates run on the real ones.
#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/strformat.h"
#include "core/async_coordinator.h"
#include "dnn/model_zoo.h"
#include "dnn/training.h"
#include "layers.h"

namespace portus::perfbench {

namespace {

constexpr int kTrainIterations = 3;
constexpr int kFullCheckpoints = 2;
constexpr int kIncrementals = 2;
constexpr int kRestores = 2;
constexpr double kDirtyShare = 0.05;
// Models up to this size carry real payloads (bit-exact restore gates);
// larger ones are phantom (identical virtual timing, no host copies).
constexpr Bytes kRealPayloadLimit = 100_MiB;

struct ZooWorld {
  sim::Engine engine;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(engine);
  core::QpRendezvous rendezvous;
  std::unique_ptr<sim::Tracer> tracer;
  std::unique_ptr<core::PortusDaemon> daemon;

  explicit ZooWorld(bool traced) {
    core::PortusDaemon::Config cfg;  // the repo default
    if (traced) {
      tracer = std::make_unique<sim::Tracer>(engine);
      cfg.tracer = tracer.get();
    }
    daemon = std::make_unique<core::PortusDaemon>(*cluster, cluster->node("server"),
                                                  rendezvous, cfg);
    daemon->start();
  }
  ~ZooWorld() { engine.shutdown(); }

  RigView view(const core::PortusClient& client) {
    auto v = rig_view(engine, *cluster, {daemon.get()}, {&cluster->node("client-volta").gpu(0)});
    v.clients.push_back(&client);
    return v;
  }
};

// Seeded instance of a Table II model: same layer count and total bytes,
// the per-layer size split drawn from `seed` (0 = the canonical split,
// which fig11_checkpoint / fig12_restore measure).
std::string instance_name(const std::string& model, std::uint64_t seed) {
  return seed == 0 ? model : strf("{}~{:x}", model, seed & 0xFFFFFFFFull);
}

std::vector<std::uint32_t> pick_dirty(const dnn::Model& model, Rng& rng) {
  const auto n = model.tensors().size();
  const auto k = std::max<std::size_t>(1, static_cast<std::size_t>(
                                              kDirtyShare * static_cast<double>(n) + 0.5));
  std::vector<std::uint32_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::uint32_t>(i);
  std::shuffle(all.begin(), all.end(), rng.engine());
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

// Mutate exactly the dirty tensors through their GPU buffers.
void mutate(dnn::Model& model, const std::vector<std::uint32_t>& dirty, Rng& rng) {
  for (const auto i : dirty) {
    auto& t = model.tensor(i);
    if (t.phantom()) continue;
    std::vector<std::byte> patch(std::min<Bytes>(t.byte_size(), 512));
    rng.fill(patch);
    t.buffer().segment().write(t.buffer().offset(), patch);
  }
}

struct ModelRun {
  ZooWorld& w;
  core::PortusClient& client;
  dnn::Model& model;
  RoundResult& r;
  Rng& rng;
  const dnn::ModelSpec& spec;  // Table II entry (training timing)
  std::string track;
  std::uint64_t op = 0;
  std::uint64_t iteration = 0;
  std::uint64_t last_epoch = 0;
  std::uint32_t golden = 0;  // weights CRC of the last acked epoch
  bool real = false;
};

void check_restore(ModelRun& m, std::uint64_t epoch) {
  if (epoch != m.last_epoch) {
    m.r.fail(m.model.name() + ": restore served a stale epoch");
  }
  if (m.real && m.model.weights_crc() != m.golden) {
    m.r.fail(m.model.name() + ": restore is not bit-exact");
  }
}

sim::Process register_phase(ModelRun& m) {
  auto s = span(m.w.tracer.get(), "register#" + std::to_string(++m.op), m.track);
  co_await m.client.connect();
  const Time t0 = m.w.engine.now();
  ++m.r.attempted;
  co_await m.client.register_model(m.model);
  m.r.register_ms.push_back(to_seconds(m.w.engine.now() - t0) * 1e3);
}

sim::Process measured_phase(ModelRun& m) {
  auto& eng = m.w.engine;
  auto& daemon = *m.w.daemon;
  auto* tracer = m.w.tracer.get();

  // 1. Training with async checkpoints every iteration (Fig. 9(d)).
  {
    core::PortusHook hook{m.client, m.model, 1, core::PortusHook::Mode::kAsync};
    auto cfg = dnn::TrainingConfig::from_spec(m.spec);
    cfg.mutate_weights = m.real;
    cfg.tracer = tracer;
    cfg.trace_track = m.track + "/train";
    dnn::TrainingStats st;
    auto s = span(tracer, "train#" + std::to_string(++m.op), m.track);
    co_await eng.spawn(dnn::train(eng, m.model.gpu(), &m.model, cfg, kTrainIterations, hook, st))
        .join();
    co_await hook.drain();
    s.end();
    m.r.train_stall_s += to_seconds(st.checkpoint_stall);
    m.r.train_s += to_seconds(st.wall());
    m.r.attempted += hook.stats().triggered;
    m.r.layers.add("ops.datapath", static_cast<double>(hook.stats().triggered));
    m.r.layers.add("user.bytes",
                   static_cast<double>(hook.stats().triggered * m.model.total_bytes()));
    m.r.layers.add("hook.stalled_updates", static_cast<double>(hook.stats().stalled_updates));
    m.r.layers.add("hook.pull_ns", static_cast<double>(hook.stats().pull_time.count()));
    m.r.layers.add("hook.completed", static_cast<double>(hook.stats().completed));
    m.iteration = kTrainIterations;
  }

  // 2. Full checkpoints.
  for (int k = 0; k < kFullCheckpoints; ++k) {
    m.model.mutate_weights(++m.iteration);
    const auto golden = m.model.weights_crc();
    auto s = span(tracer, "ckpt#" + std::to_string(++m.op), m.track);
    const double busy0 = daemon.stats().pipeline_busy_seconds;
    const Time t0 = eng.now();
    ++m.r.attempted;
    const auto epoch = co_await m.client.checkpoint(m.model, m.iteration);
    const double lat = to_seconds(eng.now() - t0);
    m.r.ckpt_ms.push_back(lat * 1e3);
    m.r.ckpt_bytes += static_cast<double>(m.model.total_bytes());
    m.r.ckpt_latency_s += lat;
    m.r.layers.add("client.outside_ms", (lat - (daemon.stats().pipeline_busy_seconds - busy0)) * 1e3);
    m.r.layers.add("client.outside_n", 1);
    m.r.layers.add("ops.datapath", 1);
    m.r.layers.add("user.bytes", static_cast<double>(m.model.total_bytes()));
    if (epoch <= m.last_epoch) m.r.fail(m.model.name() + ": checkpoint epoch did not advance");
    m.last_epoch = epoch;
    m.golden = golden;
  }

  // 3. Incrementals over a seeded 5% dirty set.
  for (int k = 0; k < kIncrementals; ++k) {
    const auto dirty = pick_dirty(m.model, m.rng);
    mutate(m.model, dirty, m.rng);
    const auto golden = m.model.weights_crc();
    Bytes dirty_bytes = 0;
    for (const auto i : dirty) dirty_bytes += m.model.tensor(i).byte_size();
    auto s = span(tracer, "incr#" + std::to_string(++m.op), m.track);
    const Time t0 = eng.now();
    ++m.r.attempted;
    const auto epoch = co_await m.client.checkpoint_incremental(m.model, ++m.iteration, dirty);
    m.r.incr_ms.push_back(to_seconds(eng.now() - t0) * 1e3);
    m.r.layers.add("ops.datapath", 1);
    m.r.layers.add("user.bytes", static_cast<double>(dirty_bytes));
    if (epoch <= m.last_epoch) m.r.fail(m.model.name() + ": incremental epoch did not advance");
    m.last_epoch = epoch;
    m.golden = golden;
  }

  // 4. Restores, each after clobbering the weights.
  for (int k = 0; k < kRestores; ++k) {
    m.model.mutate_weights(0xC10BB3ull + static_cast<std::uint64_t>(k));
    auto s = span(tracer, "restore#" + std::to_string(++m.op), m.track);
    const Time t0 = eng.now();
    ++m.r.attempted;
    const auto epoch = co_await m.client.restore(m.model);
    m.r.restore_ms.push_back(to_seconds(eng.now() - t0) * 1e3);
    m.r.layers.add("ops.datapath", 1);
    check_restore(m, epoch);
  }
  co_await m.client.finish(m.model);
}

}  // namespace

RoundResult run_zoo_round(const RoundSpec& spec) {
  RoundResult r;
  Rng rng{spec.seed};
  std::ofstream trace_out;
  if (spec.traced && !spec.trace_path.empty()) trace_out.open(spec.trace_path, std::ios::trunc);

  for (const auto& name : dnn::ModelZoo::table2_names()) {
    const double h0 = cpu_seconds();
    ZooWorld w{spec.traced};
    auto& volta = w.cluster->node("client-volta");
    auto mspec = dnn::ModelZoo::spec(name);
    const auto instance = rng.next_u64();
    mspec.name = instance_name(name, spec.canonical_models ? 0 : instance);
    dnn::ModelZoo::Options opt;
    const bool real = mspec.checkpoint_bytes <= kRealPayloadLimit;
    opt.force_real = real;
    opt.force_phantom = !real;
    opt.weight_seed = rng.next_u64();
    auto model = dnn::ModelZoo::create_from_spec(volta.gpu(0), mspec, opt);
    core::PortusClient client{*w.cluster, volta, volta.gpu(0), w.rendezvous};
    ModelRun m{.w = w, .client = client, .model = model, .r = r, .rng = rng,
               .spec = dnn::ModelZoo::spec(name), .track = "zoo/" + name};
    m.real = real;
    // Per-layer deltas cover registration too; host time splits at it.
    const auto view = w.view(client);
    const auto before = spec.traced ? snapshot(view) : LayerCounters{};
    const auto attempted0 = r.attempted;
    run_to_idle(w.engine, register_phase(m));
    const double h1 = cpu_seconds();
    r.setup_s += h1 - h0;

    const Time v0 = w.engine.now();
    run_to_idle(w.engine, measured_phase(m));
    const double host = cpu_seconds() - h1;
    r.host_s += host;
    r.makespan_s += to_seconds(w.engine.now() - v0);
    if (spec.traced) {
      account_phase(r, view, before, to_seconds(w.engine.now()), host, r.attempted - attempted0);
    }
    gate_daemon(r, *w.daemon);
    if (trace_out.is_open()) {
      // One Chrome-trace document per model testbed, one per line; the
      // runner merges them with one process row per model.
      std::ostringstream doc;
      w.tracer->write_chrome_json(doc);
      std::string text = doc.str();
      std::replace(text.begin(), text.end(), '\n', ' ');
      trace_out << text << "\n";
    }
  }
  return r;
}

}  // namespace portus::perfbench
