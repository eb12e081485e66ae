// The InfiniBand fabric: wires QPs together and executes verbs.
//
// A transfer is charged on every bandwidth resource along its path — the
// data source NIC's transmit channel and the sink NIC's receive channel,
// plus the source and destination *device* channels carried by the memory
// regions (GPU PCIe/BAR, PMEM write channel, DRAM bus). Each
// resource runs its own fluid fair-sharing; the transfer completes when the
// slowest of them drains, which is how endpoint bottlenecks (GPU BAR reads,
// Optane write-concurrency collapse) propagate into end-to-end times.
//
// Real bytes move with the timing: one-sided READ copies remote->local,
// WRITE copies local->remote, SEND copies into the remote's posted receive
// buffer. Phantom regions move time but no bytes (large-model benches).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "rdma/completion_queue.h"
#include "rdma/nic.h"
#include "rdma/queue_pair.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace portus::rdma {

class Fabric {
 public:
  explicit Fabric(sim::Engine& engine, Duration switch_latency = std::chrono::nanoseconds{600})
      : engine_{engine}, switch_latency_{switch_latency} {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // `max_outstanding` is the QP's WQE processing depth: how many posted
  // work requests the executor keeps in flight at once (1 = strictly
  // serial, the classic behaviour).
  QueuePair& create_qp(RdmaNic& nic, ProtectionDomain& pd, CompletionQueue& cq,
                       int max_outstanding = 1);

  // RC connection establishment (both directions).
  void connect(QueuePair& a, QueuePair& b);

  sim::Engine& engine() { return engine_; }
  Duration switch_latency() const { return switch_latency_; }

  // --- internal: called by the QP's send-queue executor ---
  sim::SubTask<WorkCompletion> execute(QueuePair& initiator, WorkRequest wr);

  std::uint64_t ops_executed() const { return ops_executed_; }
  Bytes bytes_moved() const { return bytes_moved_; }

 private:
  sim::SubTask<WorkCompletion> execute_one_sided(QueuePair& initiator, WorkRequest wr);
  sim::SubTask<WorkCompletion> execute_send(QueuePair& initiator, WorkRequest wr);

  // Charge `bytes` concurrently on every non-null channel; returns when the
  // slowest finishes.
  sim::SubTask<> charge_path(std::vector<sim::BandwidthChannel*> channels, Bytes bytes,
                             Bandwidth flow_cap);

  sim::Engine& engine_;
  Duration switch_latency_;
  std::uint32_t next_qp_num_ = 100;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  std::uint64_t ops_executed_ = 0;
  Bytes bytes_moved_ = 0;
};

}  // namespace portus::rdma
