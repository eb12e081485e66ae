#include "rdma/fabric.h"

#include <algorithm>

#include "common/logging.h"
#include "mem/segment.h"

namespace portus::rdma {

QueuePair& Fabric::create_qp(RdmaNic& nic, ProtectionDomain& pd, CompletionQueue& cq,
                             int max_outstanding) {
  qps_.push_back(std::unique_ptr<QueuePair>{
      new QueuePair{*this, nic, pd, cq, next_qp_num_++, max_outstanding}});
  return *qps_.back();
}

void Fabric::connect(QueuePair& a, QueuePair& b) {
  PORTUS_CHECK_ARG(!a.connected() && !b.connected(), "QP already connected");
  PORTUS_CHECK_ARG(&a != &b, "cannot self-connect a QP");
  a.peer_ = &b;
  b.peer_ = &a;
  engine_.spawn(a.run_send_queue());
  engine_.spawn(b.run_send_queue());
}

sim::SubTask<> Fabric::charge_path(std::vector<sim::BandwidthChannel*> channels, Bytes bytes,
                                   Bandwidth flow_cap) {
  // Deduplicate (the members of one gather share their region's device
  // channel), keeping path order: flows spawn in that order, never in
  // pointer order.
  auto kept = channels.begin();
  for (auto* ch : channels) {
    if (ch != nullptr && std::find(channels.begin(), kept, ch) == kept) *kept++ = ch;
  }
  channels.erase(kept, channels.end());

  std::vector<sim::Process> flows;
  flows.reserve(channels.size());
  for (auto* ch : channels) {
    flows.push_back(engine_.spawn(
        [](sim::BandwidthChannel& c, Bytes n, Bandwidth cap) -> sim::Process {
          co_await c.transfer(n, cap);
        }(*ch, bytes, flow_cap)));
  }
  for (auto& f : flows) co_await f.join();
}

sim::SubTask<WorkCompletion> Fabric::execute(QueuePair& initiator, WorkRequest wr) {
  ++ops_executed_;
  if (wr.opcode == WcOpcode::kSend) {
    co_return co_await execute_send(initiator, wr);
  }
  co_return co_await execute_one_sided(initiator, wr);
}

sim::SubTask<WorkCompletion> Fabric::execute_one_sided(QueuePair& initiator, WorkRequest wr) {
  const bool is_read = wr.opcode == WcOpcode::kRead;
  WorkCompletion wc{.wr_id = wr.wr_id, .opcode = wr.opcode, .status = WcStatus::kSuccess,
                    .byte_len = wr.length};

  QueuePair* peer = initiator.peer();
  PORTUS_CHECK(peer != nullptr, "one-sided op on unconnected QP");

  // WQE processing + request propagation. A WR that rode an earlier WR's
  // doorbell (chained ibv_post_send list) skips the MMIO ring + WQE fetch
  // baked into the per-op latency; a lone post is charged exactly as before.
  const auto& spec = initiator.nic().spec();
  Duration setup = (is_read ? spec.read_latency : spec.write_latency) + switch_latency_;
  if (wr.chained) setup -= std::min(setup, spec.doorbell_latency);
  co_await engine_.sleep(setup);

  // Local SGE validation.
  const MemoryRegion* local = initiator.pd().find_by_lkey(wr.lkey);
  if (local == nullptr || !local->covers(wr.local_addr, wr.length)) {
    wc.status = WcStatus::kRemoteInvalidRequest;  // local protection error
    co_return wc;
  }
  // Effective remote gather/scatter list: the explicit SGE list, or the
  // classic single (rkey, remote_addr) pair. A READ gathers the list into
  // the contiguous local range; a WRITE scatters the local range across it.
  std::vector<RemoteSge> sges = wr.remote_sges;
  if (sges.empty()) {
    sges.push_back(RemoteSge{wr.rkey, wr.remote_addr, wr.length});
  }
  Bytes sge_total = 0;
  for (const auto& s : sges) sge_total += s.length;
  if (sge_total != wr.length) {
    wc.status = WcStatus::kRemoteInvalidRequest;  // malformed gather list
    co_return wc;
  }
  // Remote rkey validation at the target NIC, entry by entry.
  const std::uint32_t needed = is_read ? kRemoteRead : kRemoteWrite;
  std::vector<const MemoryRegion*> remotes;
  remotes.reserve(sges.size());
  for (const auto& s : sges) {
    const MemoryRegion* remote = peer->pd().find_by_rkey(s.rkey);
    if (remote == nullptr || !remote->covers(s.addr, s.length) ||
        (remote->access & needed) == 0) {
      wc.status = WcStatus::kRemoteAccessError;
      co_return wc;
    }
    remotes.push_back(remote);
  }

  // Cost model: the whole gather moves as one operation — the per-op
  // latency was charged above, and the summed bytes ride one path whose
  // cap is the tightest of every region touched (charge_path dedups the
  // channel list, so N members of one GPU region charge its BAR once).
  Bandwidth cap = min(initiator.nic().spec().per_wr_cap, peer->nic().spec().per_wr_cap);
  cap = min(cap, is_read ? local->write_cap : local->read_cap);
  // The data leaves the source NIC and enters the sink NIC: a READ pulls
  // from the peer into the initiator, a WRITE pushes the other way.
  RdmaNic& src_nic = is_read ? peer->nic() : initiator.nic();
  RdmaNic& dst_nic = is_read ? initiator.nic() : peer->nic();
  std::vector<sim::BandwidthChannel*> path;
  path.push_back(&src_nic.link());
  path.push_back(&dst_nic.rx());
  path.push_back(is_read ? local->device_channel_write : local->device_channel_read);
  for (const auto* remote : remotes) {
    cap = min(cap, is_read ? remote->read_cap : remote->write_cap);
    path.push_back(is_read ? remote->device_channel_read : remote->device_channel_write);
  }
  co_await charge_path(std::move(path), wr.length, cap);

  std::uint64_t local_cursor = wr.local_addr;
  for (std::size_t i = 0; i < sges.size(); ++i) {
    const MemoryRegion* remote = remotes[i];
    const MemoryRegion* src = is_read ? remote : local;
    const MemoryRegion* dst = is_read ? local : remote;
    const std::uint64_t src_addr = is_read ? sges[i].addr : local_cursor;
    const std::uint64_t dst_addr = is_read ? local_cursor : sges[i].addr;
    if (!src->phantom && !dst->phantom) {
      mem::copy_bytes(*dst->segment, dst->segment->to_offset(dst_addr), *src->segment,
                      src->segment->to_offset(src_addr), sges[i].length);
      bytes_moved_ += sges[i].length;
    } else if (dst->segment != nullptr && !dst->phantom) {
      // Phantom source into real destination: account persistence metadata
      // without contents (zero-fill is skipped; dirtiness still tracked).
      dst->segment->mark_dirty(dst->segment->to_offset(dst_addr), sges[i].length);
    }
    local_cursor += sges[i].length;
  }
  co_return wc;
}

sim::SubTask<WorkCompletion> Fabric::execute_send(QueuePair& initiator, WorkRequest wr) {
  WorkCompletion wc{.wr_id = wr.wr_id, .opcode = WcOpcode::kSend, .status = WcStatus::kSuccess,
                    .byte_len = wr.length};
  QueuePair* peer = initiator.peer();
  PORTUS_CHECK(peer != nullptr, "SEND on unconnected QP");

  const MemoryRegion* local = initiator.pd().find_by_lkey(wr.lkey);
  if (local == nullptr || !local->covers(wr.local_addr, wr.length)) {
    wc.status = WcStatus::kRemoteInvalidRequest;
    co_return wc;
  }

  co_await engine_.sleep(initiator.nic().spec().send_latency + switch_latency_);

  // RNR: wait for a posted receive on the peer.
  co_await peer->rq_tokens_.acquire();
  PORTUS_CHECK(!peer->rq_.empty(), "recv token without posted receive");
  const RecvWr recv = peer->rq_.front();
  peer->rq_.pop_front();

  const MemoryRegion* remote = peer->pd().find_by_lkey(recv.lkey);
  if (remote == nullptr || !remote->covers(recv.addr, recv.length) ||
      recv.length < wr.length) {
    wc.status = WcStatus::kRemoteInvalidRequest;
    peer->cq().deliver(WorkCompletion{.wr_id = recv.wr_id, .opcode = WcOpcode::kRecv,
                                      .status = WcStatus::kRemoteInvalidRequest,
                                      .byte_len = 0});
    co_return wc;
  }

  const Bandwidth cap = min(min(local->read_cap, remote->write_cap),
                            min(initiator.nic().spec().per_wr_cap,
                                peer->nic().spec().per_wr_cap));
  std::vector<sim::BandwidthChannel*> path;
  path.push_back(&initiator.nic().link());
  path.push_back(&peer->nic().rx());
  path.push_back(local->device_channel_read);
  path.push_back(remote->device_channel_write);
  co_await charge_path(std::move(path), wr.length, cap);

  if (!local->phantom && !remote->phantom) {
    mem::copy_bytes(*remote->segment, remote->segment->to_offset(recv.addr), *local->segment,
                    local->segment->to_offset(wr.local_addr), wr.length);
    bytes_moved_ += wr.length;
  }

  peer->cq().deliver(WorkCompletion{.wr_id = recv.wr_id, .opcode = WcOpcode::kRecv,
                                    .status = WcStatus::kSuccess, .byte_len = wr.length});
  co_return wc;
}

}  // namespace portus::rdma
