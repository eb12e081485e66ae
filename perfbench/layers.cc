#include "layers.h"

#include <algorithm>

#include "core/daemon/fsck.h"

namespace portus::perfbench {

RigView rig_view(sim::Engine& engine, net::Cluster& cluster,
                 const std::vector<core::PortusDaemon*>& daemons,
                 const std::vector<gpu::GpuDevice*>& gpus) {
  RigView v;
  v.engine = &engine;
  v.fabric = &cluster.fabric();
  v.daemons = daemons;
  for (auto* d : daemons) v.storage_nodes.push_back(&d->node());
  v.gpus = gpus;
  return v;
}

LayerCounters snapshot(const RigView& rig) {
  LayerCounters c;
  for (auto* d : rig.daemons) {
    const auto& s = d->stats();
    c.add("daemon.failed_ops", static_cast<double>(s.failed_ops));
    c.add("daemon.integrity_rejects", static_cast<double>(s.integrity_rejects));
    c.add("daemon.backpressure_rejects", static_cast<double>(s.backpressure_rejects));
    c.add("daemon.epoch_rejects", static_cast<double>(s.epoch_rejects));
    c.add("pipe.wrs", static_cast<double>(s.wrs_posted));
    c.add("pipe.sges", static_cast<double>(s.sges_posted));
    c.add("pipe.rdma_bytes", static_cast<double>(s.rdma_bytes));
    c.add("pipe.extents_coalesced", static_cast<double>(s.extents_coalesced));
    c.add("pipe.doorbells", static_cast<double>(s.doorbells));
    c.add("pipe.windows", static_cast<double>(s.admission_windows));
    c.add("pipe.busy_s", s.pipeline_busy_seconds);
    c.add("pipe.window_chunk_s", s.window_chunk_seconds);
    c.add("pipe.chunks", static_cast<double>(s.chunks_posted));
    c.add("pipe.local_chunks", static_cast<double>(s.local_chunks));
    c.add("pipe.numa_remote_chunks", static_cast<double>(s.numa_remote_chunks));
    c.add("pipe.queue_delay_ns", static_cast<double>(s.queue_delay_total.count()));
    c.peak("pipe.peak_window", s.peak_window);

    if (auto* adm = d->admission()) {
      const auto& a = adm->stats();
      c.add("adm.admitted", static_cast<double>(a.admitted));
      c.add("adm.rejected", static_cast<double>(a.rejected));
      c.add("adm.paced", static_cast<double>(a.paced));
      c.add("adm.queue_wait_ns", static_cast<double>(a.queue_wait_total.count()));
      c.add("adm.paused_ns", static_cast<double>(a.paused_total.count()));
      c.peak("adm.queue_wait_max_ns", static_cast<double>(a.queue_wait_max.count()));
    }

    auto& alloc = d->allocator();
    for (const auto& sh : alloc.shard_stats()) {
      c.add("alloc.allocs", static_cast<double>(sh.allocs));
      c.add("alloc.frees", static_cast<double>(sh.frees));
      c.add("alloc.reuse_hits", static_cast<double>(sh.reuse_hits));
      c.add("alloc.steals", static_cast<double>(sh.steals));
      c.add("alloc.refills", static_cast<double>(sh.refills));
      c.add("alloc.scan_steps", static_cast<double>(sh.scan_steps));
    }
    c.add("level.alloc_consumed", static_cast<double>(alloc.consumed_bytes()));
    c.add("level.alloc_live", static_cast<double>(alloc.live_bytes()));
    c.add("pmem.persists", static_cast<double>(d->device().persist_seq()));
  }
  for (auto* n : rig.storage_nodes) {
    c.add("pmem.write_busy_s", n->devdax_write_channel().busy_seconds());
    c.add("pmem.read_busy_s", n->devdax_read_channel().busy_seconds());
    c.add("pmem.write_bytes", n->devdax_write_channel().total_bytes_transferred());
    c.add("pmem.read_bytes", n->devdax_read_channel().total_bytes_transferred());
    c.add("rdma.nic_busy_s", n->nic().link().busy_seconds());
  }
  for (auto* g : rig.gpus) c.add("gpu.pcie_busy_s", g->pcie().busy_seconds());
  for (const auto* cl : rig.clients) {
    const auto& s = cl->stats();
    c.add("client.retries", static_cast<double>(s.retries));
    c.add("client.backpressure", static_cast<double>(s.backpressure));
    c.add("client.timeouts", static_cast<double>(s.timeouts));
    c.add("client.reconnects", static_cast<double>(s.reconnects));
  }
  if (rig.fabric != nullptr) {
    c.add("rdma.ops", static_cast<double>(rig.fabric->ops_executed()));
  }
  if (rig.engine != nullptr) c.add("sim.events", static_cast<double>(rig.engine->events_processed()));
  c.add("level.daemons", static_cast<double>(rig.storage_nodes.size()));
  c.add("level.gpus", static_cast<double>(rig.gpus.size()));
  return c;
}

LayerCounters delta(const LayerCounters& after, const LayerCounters& before) {
  LayerCounters out;
  for (const auto& [k, v] : after.sum) {
    out.sum[k] = k.starts_with("level.") ? v : v - before.get(k);
  }
  out.max = after.max;
  return out;
}

namespace {

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct Def {
  const char* name;
  const char* unit;
};

// Every per-layer metric, grouped by layer (prefix = this repo's module).
const std::vector<Def>& defs() {
  static const std::vector<Def> d = {
      {"client.retries_per_op", "count/op"},
      {"client.backpressure_per_op", "count/op"},
      {"client.timeouts", "count"},
      {"client.reconnects", "count"},
      {"client.outside_datapath_ms", "ms"},
      {"daemon.failed_ops", "count"},
      {"daemon.integrity_rejects", "count"},
      {"daemon.backpressure_rejects", "count"},
      {"daemon.epoch_rejects", "count"},
      {"pipeline.wrs_per_op", "count/op"},
      {"pipeline.sges_per_wr", "count"},
      {"pipeline.bytes_per_wr", "B"},
      {"pipeline.extents_coalesced", "count"},
      {"pipeline.doorbells_per_window", "count"},
      {"pipeline.wrs_per_doorbell", "count"},
      {"pipeline.busy_s", "s"},
      {"pipeline.mean_window", "count"},
      {"pipeline.peak_window", "count"},
      {"pipeline.queue_delay_ms", "ms"},
      {"pipeline.local_chunks", "count"},
      {"pipeline.numa_remote_chunks", "count"},
      {"admission.queue_wait_mean_ms", "ms"},
      {"admission.queue_wait_max_ms", "ms"},
      {"admission.reject_ratio", "ratio"},
      {"admission.paced", "count"},
      {"admission.paused_ms", "ms"},
      {"alloc.allocs", "count"},
      {"alloc.frees", "count"},
      {"alloc.reuse_ratio", "ratio"},
      {"alloc.steals", "count"},
      {"alloc.refills", "count"},
      {"alloc.scan_steps_per_alloc", "count"},
      {"alloc.space_amp", "ratio"},
      {"repack.freed_gib", "GiB"},
      {"repack.passes", "count"},
      {"repack.paused_ms", "ms"},
      {"pmem.write_busy_share", "ratio"},
      {"pmem.read_busy_share", "ratio"},
      {"pmem.write_amp", "ratio"},
      {"pmem.fences_per_op", "count/op"},
      {"rdma.ops", "count"},
      {"rdma.bytes", "B"},
      {"rdma.nic_busy_share", "ratio"},
      {"gpu.pcie_busy_share", "ratio"},
      {"cluster.reresolutions", "count"},
      {"cluster.lane_failures", "count"},
      {"cluster.rerouted_shards", "count"},
      {"cluster.degraded_restores", "count"},
      {"migration.copies_moved", "count"},
      {"migration.bytes_streamed", "B"},
      {"migration.barrier_ms", "ms"},
      {"hook.stalled_updates", "count"},
      {"hook.pull_ms_mean", "ms"},
      {"sim.events_per_op", "count/op"},
      {"sim.host_ns_per_event", "ns"},
  };
  return d;
}

}  // namespace

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& d : defs()) n.emplace_back(d.name);
    return n;
  }();
  return names;
}

MetricMap layer_metrics(const LayerCounters& c) {
  const double ops = c.get("ops.client");      // register/ckpt/incr/restore attempted
  const double dp_ops = c.get("ops.datapath");  // ckpt/incr/restore
  const double daemon_s = c.get("base.daemon_s");
  const double gpu_s = c.get("base.gpu_s");
  const double allocs = c.get("alloc.allocs");
  const double wrs = c.get("pipe.wrs");

  std::map<std::string, double> v;
  v["client.retries_per_op"] = ratio(c.get("client.retries"), ops);
  v["client.backpressure_per_op"] = ratio(c.get("client.backpressure"), ops);
  v["client.timeouts"] = c.get("client.timeouts");
  v["client.reconnects"] = c.get("client.reconnects");
  v["client.outside_datapath_ms"] = ratio(c.get("client.outside_ms"), c.get("client.outside_n"));
  v["daemon.failed_ops"] = c.get("daemon.failed_ops");
  v["daemon.integrity_rejects"] = c.get("daemon.integrity_rejects");
  v["daemon.backpressure_rejects"] = c.get("daemon.backpressure_rejects");
  v["daemon.epoch_rejects"] = c.get("daemon.epoch_rejects");
  v["pipeline.wrs_per_op"] = ratio(wrs, dp_ops);
  v["pipeline.sges_per_wr"] = ratio(c.get("pipe.sges"), wrs);
  v["pipeline.bytes_per_wr"] = ratio(c.get("pipe.rdma_bytes"), wrs);
  v["pipeline.extents_coalesced"] = c.get("pipe.extents_coalesced");
  v["pipeline.doorbells_per_window"] = ratio(c.get("pipe.doorbells"), c.get("pipe.windows"));
  v["pipeline.wrs_per_doorbell"] = ratio(wrs, c.get("pipe.doorbells"));
  v["pipeline.busy_s"] = c.get("pipe.busy_s");
  v["pipeline.mean_window"] = ratio(c.get("pipe.window_chunk_s"), c.get("pipe.busy_s"));
  v["pipeline.peak_window"] = c.get_max("pipe.peak_window");
  v["pipeline.queue_delay_ms"] = ratio(c.get("pipe.queue_delay_ns"), c.get("pipe.chunks")) / 1e6;
  v["pipeline.local_chunks"] = c.get("pipe.local_chunks");
  v["pipeline.numa_remote_chunks"] = c.get("pipe.numa_remote_chunks");
  v["admission.queue_wait_mean_ms"] =
      ratio(c.get("adm.queue_wait_ns"), c.get("adm.admitted")) / 1e6;
  v["admission.queue_wait_max_ms"] = c.get_max("adm.queue_wait_max_ns") / 1e6;
  v["admission.reject_ratio"] =
      ratio(c.get("adm.rejected"), c.get("adm.admitted") + c.get("adm.rejected"));
  v["admission.paced"] = c.get("adm.paced");
  v["admission.paused_ms"] = c.get("adm.paused_ns") / 1e6;
  v["alloc.allocs"] = allocs;
  v["alloc.frees"] = c.get("alloc.frees");
  v["alloc.reuse_ratio"] = ratio(c.get("alloc.reuse_hits"), allocs);
  v["alloc.steals"] = c.get("alloc.steals");
  v["alloc.refills"] = c.get("alloc.refills");
  v["alloc.scan_steps_per_alloc"] = ratio(c.get("alloc.scan_steps"), allocs);
  v["alloc.space_amp"] = ratio(c.get("level.alloc_consumed"), c.get("level.alloc_live"));
  v["repack.freed_gib"] = c.get("repack.freed_bytes") / static_cast<double>(1_GiB);
  v["repack.passes"] = c.get("repack.passes");
  v["repack.paused_ms"] = c.get("repack.paused_ns") / 1e6;
  v["pmem.write_busy_share"] = ratio(c.get("pmem.write_busy_s"), daemon_s);
  v["pmem.read_busy_share"] = ratio(c.get("pmem.read_busy_s"), daemon_s);
  v["pmem.write_amp"] = ratio(c.get("pmem.write_bytes"), c.get("user.bytes"));
  v["pmem.fences_per_op"] = ratio(c.get("pmem.persists"), dp_ops);
  v["rdma.ops"] = c.get("rdma.ops");
  v["rdma.bytes"] = c.get("pipe.rdma_bytes");
  v["rdma.nic_busy_share"] = ratio(c.get("rdma.nic_busy_s"), daemon_s);
  v["gpu.pcie_busy_share"] = ratio(c.get("gpu.pcie_busy_s"), gpu_s);
  v["cluster.reresolutions"] = c.get("cluster.reresolutions");
  v["cluster.lane_failures"] = c.get("cluster.lane_failures");
  v["cluster.rerouted_shards"] = c.get("cluster.rerouted_shards");
  v["cluster.degraded_restores"] = c.get("cluster.degraded_restores");
  v["migration.copies_moved"] = c.get("migration.copies_moved");
  v["migration.bytes_streamed"] = c.get("migration.bytes_streamed");
  v["migration.barrier_ms"] = c.get("migration.barrier_ns") / 1e6;
  v["hook.stalled_updates"] = c.get("hook.stalled_updates");
  v["hook.pull_ms_mean"] = ratio(c.get("hook.pull_ns"), c.get("hook.completed")) / 1e6;
  v["sim.events_per_op"] = ratio(c.get("sim.events"), ops);
  v["sim.host_ns_per_event"] = ratio(c.get("host.measured_s"), c.get("sim.events")) * 1e9;

  MetricMap out;
  for (const auto& d : defs()) out[d.name] = Metric{v.at(d.name), d.unit, ""};
  return out;
}

void account_phase(RoundResult& r, const RigView& rig, const LayerCounters& before,
                   double makespan_s, double host_s, std::uint64_t attempted) {
  auto d = delta(snapshot(rig), before);
  d.add("base.daemon_s", makespan_s * static_cast<double>(rig.storage_nodes.size()));
  d.add("base.gpu_s", makespan_s * static_cast<double>(rig.gpus.size()));
  d.add("host.measured_s", host_s);
  d.add("ops.client", static_cast<double>(attempted));
  r.layers.merge(d);
}

sim::Tracer::Span span(sim::Tracer* t, const std::string& name, const std::string& track) {
  return t != nullptr ? t->span(name, track) : sim::Tracer::Span{};
}

void run_to_idle(sim::Engine& engine, sim::Process p) {
  auto proc = engine.spawn(std::move(p));
  engine.run();
  proc.check();
}

void gate_daemon(RoundResult& r, core::PortusDaemon& d, bool crashed) {
  const auto& name = d.config().endpoint;
  const auto rep = core::Fsck{d}.run(false);
  const bool clean = crashed ? rep.alloc_header_valid && rep.torn_records == 0 &&
                                   rep.corrupt_demoted == 0 && rep.corrupt_tensors == 0 &&
                                   rep.orphaned_extents == 0 && rep.overlap_violations == 0
                             : rep.clean();
  if (!clean) r.fail(name + ": fsck is not clean");
  if (d.stats().integrity_rejects != 0) r.fail(name + ": integrity rejects");
  if (d.allocator().live_bytes() > d.allocator().consumed_bytes()) {
    r.fail(name + ": allocator live bytes exceed consumed bytes");
  }
}

}  // namespace portus::perfbench
