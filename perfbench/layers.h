// Per-layer accounting: snapshots of the public stats() accessors of every
// layer a workload touches, taken before and after its measured phase, and
// the per-layer metric table derived from the deltas.
#pragma once

#include <vector>

#include "core/client.h"
#include "core/daemon/daemon.h"
#include "harness.h"
#include "net/cluster.h"

namespace portus::perfbench {

// The pieces of one testbed whose stats a snapshot reads. Clients may be
// added between snapshots (jobs that start mid-run count from zero).
struct RigView {
  sim::Engine* engine = nullptr;
  std::vector<core::PortusDaemon*> daemons;
  std::vector<const core::PortusClient*> clients;
  std::vector<net::Node*> storage_nodes;  // devdax channels + server NICs
  std::vector<gpu::GpuDevice*> gpus;      // client GPUs (PCIe / BAR channel)
  rdma::Fabric* fabric = nullptr;
};

// A rig of `daemons` (each on its own storage node) serving clients on
// `gpus`; clients are added as they appear.
RigView rig_view(sim::Engine& engine, net::Cluster& cluster,
                 const std::vector<core::PortusDaemon*>& daemons,
                 const std::vector<gpu::GpuDevice*>& gpus);

// Raw counters summed over the rig at one instant.
LayerCounters snapshot(const RigView& rig);

// after - before for every `sum` counter; `max` entries come from `after`.
LayerCounters delta(const LayerCounters& after, const LayerCounters& before);

// The per-layer metric table (every name, on every workload; a layer that
// did no work reports 0). `c` holds the counters a workload accumulated
// over its traced rounds.
MetricMap layer_metrics(const LayerCounters& c);

// Names of the per-layer metrics layer_metrics() emits, in a fixed order.
const std::vector<std::string>& layer_metric_names();

// Fold one measured phase into r.layers: the stats delta since `before`,
// plus the bases the busy shares and per-op ratios divide by. Call after
// r.host_s and r.attempted are final for that phase.
void account_phase(RoundResult& r, const RigView& rig, const LayerCounters& before,
                   double makespan_s, double host_s, std::uint64_t attempted);

// Scoped span on one of the benchmark's own tracks (a no-op untraced).
sim::Tracer::Span span(sim::Tracer* t, const std::string& name, const std::string& track);

// Spawn `p`, run the engine until idle, and rethrow anything it raised.
void run_to_idle(sim::Engine& engine, sim::Process p);

// End-of-round correctness gates on one daemon: fsck clean, no integrity
// rejects, allocator live bytes within consumed bytes. A daemon killed
// mid-checkpoint may hold a torn ACTIVE slot (fsck demotes it); pass
// `crashed` to accept exactly that and nothing else.
void gate_daemon(RoundResult& r, core::PortusDaemon& d, bool crashed = false);

}  // namespace portus::perfbench
