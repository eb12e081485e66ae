// Fluid-flow (processor sharing) bandwidth channel.
//
// Models a shared link/device with capacity C. Concurrent transfers are
// "flows"; instantaneous rates are assigned by max-min fair sharing with an
// optional per-flow rate cap (water-filling): flows whose cap is below the
// fair share get their cap, the residual capacity is split among the rest.
//
// This is how contention emerges in the reproduction: e.g. 16 Megatron
// shards pulled concurrently through one storage-server NIC each see
// ~C/16 until some finish, after which the survivors speed up — matching
// the aggregate-bandwidth behaviour the paper reports in Fig. 14.
//
// Usage (inside a Process):
//   co_await channel.transfer(bytes, per_flow_cap);
#pragma once

#include <coroutine>
#include <cstdint>
#include <list>
#include <string>

#include "common/units.h"
#include "sim/engine.h"

namespace portus::sim {

// Optional concurrency-degradation model: some devices (notably Optane PMEM,
// per Izraelevitz et al. and the paper's ref [41]) deliver *less* aggregate
// bandwidth as writer count grows. Effective capacity with n active flows:
//   C_eff(n) = C / (1 + beta * max(0, n - n0))
// beta = 0 (default) is an ideal link.
struct DegradationModel {
  double beta = 0.0;
  int n0 = 1;
};

// Socket topology for a channel whose capacity is the aggregate of per-node
// DIMM sets (a 2-socket box with one interleaved namespace per socket). The
// channel capacity C stays the machine total; a locality-tagged flow is
// additionally capped by its home node's share C/nodes, and a *remote* flow
// (initiator socket != DIMM socket) by remote_bw_factor of that share plus a
// one-time UPI hop latency — calibrated the same way as the XPBuffer
// DegradationModel above: a coarse fit of published Optane cross-socket
// write curves, not a cycle model. nodes=1 (default) is a flat machine and
// every locality tag degenerates to a no-op.
struct NumaTopology {
  std::uint32_t nodes = 1;
  double remote_bw_factor = 0.55;  // remote write bw / local write bw
  Duration remote_latency{170};    // extra one-way latency per remote access
  bool flat() const { return nodes <= 1; }
};

// Placement tag for a locality-aware transfer: which node's DIMMs the bytes
// land on, and whether the initiating worker sits on a different socket.
struct FlowLocality {
  std::uint32_t node = 0;
  bool remote = false;
};

class BandwidthChannel final : public Resettable {
 public:
  BandwidthChannel(Engine& engine, Bandwidth capacity, std::string name,
                   DegradationModel degradation = {}, NumaTopology numa = {});
  ~BandwidthChannel();
  BandwidthChannel(const BandwidthChannel&) = delete;
  BandwidthChannel& operator=(const BandwidthChannel&) = delete;

  void reset_waiters() noexcept override;

  struct Flow {
    Bytes requested;  // what the transfer asked for, counted when it finishes
    double remaining_bytes;
    double cap_bps;   // per-flow rate cap (path bottleneck elsewhere)
    double rate_bps;  // current assigned rate
    std::coroutine_handle<> waiter;
    std::uint64_t id;
  };

  struct TransferAwaitable {
    BandwidthChannel& chan;
    Bytes bytes;
    Bandwidth cap;
    bool await_ready() const noexcept { return bytes == 0; }
    void await_suspend(std::coroutine_handle<> h) { chan.start_flow(bytes, cap, h); }
    void await_resume() const noexcept {}
  };

  // Transfer `bytes` through the channel; completes when the flow's bytes
  // have drained at the dynamically shared rate. `flow_cap` bounds this
  // flow's rate (e.g. the GPU BAR read limit on one endpoint of the path).
  TransferAwaitable transfer(Bytes bytes, Bandwidth flow_cap = Bandwidth::unlimited()) {
    return TransferAwaitable{*this, bytes, flow_cap};
  }

  // Locality-tagged transfer: same fluid sharing, but the flow's cap is
  // additionally bounded by the destination node's bandwidth share (and the
  // cross-socket factor when `remote`). On a flat topology this is exactly
  // transfer(bytes, flow_cap). The remote_latency hop is NOT charged here —
  // callers sleep it once per logical operation, not once per flow.
  TransferAwaitable transfer(Bytes bytes, Bandwidth flow_cap, FlowLocality loc) {
    return TransferAwaitable{*this, bytes, locality_cap(flow_cap, loc)};
  }

  // The cap a flow with this locality would get (min of flow_cap, the node
  // share, and the remote factor). Exposed for perf models and benches.
  Bandwidth locality_cap(Bandwidth flow_cap, FlowLocality loc) const;

  // Time a transfer of `bytes` would take if it ran alone right now.
  Duration uncontended_time(Bytes bytes, Bandwidth flow_cap = Bandwidth::unlimited()) const;

  Bandwidth capacity() const { return capacity_; }
  const NumaTopology& numa() const { return numa_; }
  int active_flows() const { return static_cast<int>(flows_.size()); }
  double total_bytes_transferred() const { return total_bytes_; }
  // Exact sum of the requested bytes of every flow this channel finished
  // (total_bytes_transferred() is rate x time, and a flow may finish a
  // rounding residue short of its bytes).
  Bytes bytes_finished() const { return bytes_finished_; }
  // Integral of (aggregate rate / capacity) dt — "busy seconds" for
  // utilization reporting.
  double busy_seconds() const { return busy_seconds_; }
  const std::string& name() const { return name_; }

 private:
  friend struct TransferAwaitable;

  void start_flow(Bytes bytes, Bandwidth cap, std::coroutine_handle<> waiter);
  void settle();           // account progress since last_update_
  void assign_rates();     // water-filling with per-flow caps
  void schedule_next_completion();

  double effective_capacity_bps() const;

  Engine& engine_;
  Bandwidth capacity_;
  std::string name_;
  DegradationModel degradation_;
  NumaTopology numa_;
  std::list<Flow> flows_;
  Time last_update_ = Time{0};
  std::uint64_t next_flow_id_ = 0;
  std::uint64_t event_generation_ = 0;  // invalidates stale completion events
  double total_bytes_ = 0.0;
  Bytes bytes_finished_ = 0;
  double busy_seconds_ = 0.0;
};

}  // namespace portus::sim
