// Reliable-connected queue pairs.
//
// Work requests posted to a QP start executing strictly in order (RC
// ordering): an internal executor process drains the send queue and runs
// each WQE through the fabric, delivering a completion to the CQ when it
// finishes. The executor keeps up to `max_outstanding` WQEs in flight at
// once (the NIC's processing depth); at the default depth of 1 it degrades
// to the classic one-WQE-at-a-time loop, where a completion is delivered
// before the next WQE begins. Two-sided SENDs match the remote QP's posted
// receive buffers FIFO; a SEND with no posted receive waits (RNR retry,
// infinite retry count).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/units.h"
#include "rdma/completion_queue.h"
#include "rdma/memory_region.h"
#include "rdma/nic.h"
#include "sim/process.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace portus::rdma {

class Fabric;

// One element of a remote gather/scatter list. Each entry carries its own
// rkey: a coalesced checkpoint extent spans several client tensors, and
// every tensor is registered as its own memory region.
struct RemoteSge {
  std::uint32_t rkey = 0;
  std::uint64_t addr = 0;
  Bytes length = 0;
};

struct WorkRequest {
  WcOpcode opcode = WcOpcode::kRead;
  std::uint64_t wr_id = 0;
  // Local side: one contiguous range.
  std::uint32_t lkey = 0;
  std::uint64_t local_addr = 0;
  Bytes length = 0;
  // Remote side (one-sided ops). When `remote_sges` is non-empty it
  // replaces rkey/remote_addr: a READ gathers the list into the local
  // range, a WRITE scatters the local range across it, and the entry
  // lengths must sum to `length`. Either way the request costs one WQE,
  // one per-op latency, and one completion — the point of coalescing.
  // The list length is capped by the posting NIC's NicSpec::max_sges.
  std::uint32_t rkey = 0;
  std::uint64_t remote_addr = 0;
  std::vector<RemoteSge> remote_sges{};
  // Set by the chained post() overload for every list entry after the
  // first: this WR rode an earlier WR's doorbell, so the fabric discounts
  // NicSpec::doorbell_latency from its per-op setup cost. Callers never
  // set it directly.
  bool chained = false;
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  std::uint32_t lkey = 0;
  std::uint64_t addr = 0;
  Bytes length = 0;
};

class QueuePair {
 public:
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  std::uint32_t qp_num() const { return qp_num_; }
  bool connected() const { return peer_ != nullptr; }
  QueuePair* peer() const { return peer_; }
  RdmaNic& nic() { return nic_; }
  ProtectionDomain& pd() { return pd_; }
  CompletionQueue& cq() { return cq_; }
  int max_outstanding() const { return max_outstanding_; }

  // Post to the send queue; the completion lands in cq() later. One
  // doorbell per call.
  void post(WorkRequest wr);
  // Doorbell batching: post a whole list in one call (ibv_post_send with a
  // chained wr list). Executes each in order, but only the head WR pays
  // the doorbell cost — entries after it are marked chained and the fabric
  // discounts NicSpec::doorbell_latency from their setup latency.
  void post(std::span<const WorkRequest> wrs);
  void post_recv(RecvWr wr);

  // Convenience: post and await the matching completion, keyed by wr_id —
  // safe even when the CQ is shared with other QPs or pipelined consumers.
  sim::SubTask<WorkCompletion> read_sync(std::uint32_t lkey, std::uint64_t local_addr,
                                         Bytes length, std::uint32_t rkey,
                                         std::uint64_t remote_addr);
  sim::SubTask<WorkCompletion> write_sync(std::uint32_t lkey, std::uint64_t local_addr,
                                          Bytes length, std::uint32_t rkey,
                                          std::uint64_t remote_addr);
  sim::SubTask<WorkCompletion> send_sync(std::uint32_t lkey, std::uint64_t local_addr,
                                         Bytes length);

 private:
  friend class Fabric;
  QueuePair(Fabric& fabric, RdmaNic& nic, ProtectionDomain& pd, CompletionQueue& cq,
            std::uint32_t qp_num, int max_outstanding);

  sim::Process run_send_queue();
  sim::Process execute_one(WorkRequest wr);

  Fabric& fabric_;
  RdmaNic& nic_;
  ProtectionDomain& pd_;
  CompletionQueue& cq_;
  std::uint32_t qp_num_;
  int max_outstanding_;
  QueuePair* peer_ = nullptr;
  std::uint64_t next_sync_wr_id_ = 0x5E000000ull;

  sim::Channel<WorkRequest> sq_;
  sim::SimSemaphore wqe_slots_;  // bounds in-flight WQEs to max_outstanding
  std::deque<RecvWr> rq_;
  sim::SimSemaphore rq_tokens_;  // counts posted receives (RNR waiting)
};

}  // namespace portus::rdma
