#include "rdma/queue_pair.h"

#include "rdma/fabric.h"

namespace portus::rdma {

QueuePair::QueuePair(Fabric& fabric, RdmaNic& nic, ProtectionDomain& pd, CompletionQueue& cq,
                     std::uint32_t qp_num, int max_outstanding)
    : fabric_{fabric},
      nic_{nic},
      pd_{pd},
      cq_{cq},
      qp_num_{qp_num},
      max_outstanding_{max_outstanding},
      sq_{nic.engine()},
      wqe_slots_{nic.engine(), max_outstanding},
      rq_tokens_{nic.engine(), 0} {
  PORTUS_CHECK_ARG(max_outstanding >= 1, "QP processing depth must be >= 1");
}

void QueuePair::post(WorkRequest wr) {
  PORTUS_CHECK_ARG(connected(), "post on unconnected QP");
  PORTUS_CHECK_ARG(wr.remote_sges.size() <=
                       static_cast<std::size_t>(nic_.spec().max_sges),
                   "gather list exceeds the NIC's max_sges");
  wr.chained = false;  // a lone post always rings its own doorbell
  sq_.push(std::move(wr));
}

void QueuePair::post(std::span<const WorkRequest> wrs) {
  if (wrs.empty()) return;
  // The doorbell's MMIO ring + PCIe WQE fetch only gates a WQE when the NIC
  // has drained this QP's send queue and gone idle. A chain posted while
  // earlier WQEs are still queued or in flight rides the ongoing WQE
  // prefetch stream, so even its head skips the fetch round trip.
  const bool busy = !sq_.empty() || wqe_slots_.available() < max_outstanding_;
  bool first = true;
  for (const auto& wr : wrs) {
    PORTUS_CHECK_ARG(connected(), "post on unconnected QP");
    PORTUS_CHECK_ARG(wr.remote_sges.size() <=
                         static_cast<std::size_t>(nic_.spec().max_sges),
                     "gather list exceeds the NIC's max_sges");
    WorkRequest copy = wr;
    copy.chained = !first || busy;  // list entries after the head ride its doorbell
    first = false;
    sq_.push(std::move(copy));
  }
}

void QueuePair::post_recv(RecvWr wr) {
  rq_.push_back(wr);
  rq_tokens_.release();
}

sim::Process QueuePair::run_send_queue() {
  try {
    for (;;) {
      WorkRequest wr = co_await sq_.recv();
      // WQEs *start* in SQ order but may overlap up to the processing
      // depth; at depth 1 the slot is only returned after the completion
      // is delivered, reproducing the serial executor exactly.
      co_await wqe_slots_.acquire();
      nic_.engine().spawn(execute_one(wr));
    }
  } catch (const Disconnected&) {
    // QP torn down; nothing to flush (entries die with the channel).
  }
}

sim::Process QueuePair::execute_one(WorkRequest wr) {
  try {
    WorkCompletion wc = co_await fabric_.execute(*this, wr);
    cq_.deliver(wc);
    wqe_slots_.release();
  } catch (const Disconnected&) {
    // Fabric resource torn down mid-op; the WQE dies silently at shutdown.
  }
}

sim::SubTask<WorkCompletion> QueuePair::read_sync(std::uint32_t lkey, std::uint64_t local_addr,
                                                  Bytes length, std::uint32_t rkey,
                                                  std::uint64_t remote_addr) {
  const std::uint64_t id = next_sync_wr_id_++;
  post(WorkRequest{.opcode = WcOpcode::kRead,
                   .wr_id = id,
                   .lkey = lkey,
                   .local_addr = local_addr,
                   .length = length,
                   .rkey = rkey,
                   .remote_addr = remote_addr});
  WorkCompletion wc = co_await cq_.wait_for(id);
  co_return wc;
}

sim::SubTask<WorkCompletion> QueuePair::write_sync(std::uint32_t lkey, std::uint64_t local_addr,
                                                   Bytes length, std::uint32_t rkey,
                                                   std::uint64_t remote_addr) {
  const std::uint64_t id = next_sync_wr_id_++;
  post(WorkRequest{.opcode = WcOpcode::kWrite,
                   .wr_id = id,
                   .lkey = lkey,
                   .local_addr = local_addr,
                   .length = length,
                   .rkey = rkey,
                   .remote_addr = remote_addr});
  WorkCompletion wc = co_await cq_.wait_for(id);
  co_return wc;
}

sim::SubTask<WorkCompletion> QueuePair::send_sync(std::uint32_t lkey, std::uint64_t local_addr,
                                                  Bytes length) {
  const std::uint64_t id = next_sync_wr_id_++;
  post(WorkRequest{.opcode = WcOpcode::kSend,
                   .wr_id = id,
                   .lkey = lkey,
                   .local_addr = local_addr,
                   .length = length});
  WorkCompletion wc = co_await cq_.wait_for(id);
  co_return wc;
}

}  // namespace portus::rdma
