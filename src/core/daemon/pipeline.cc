#include "core/daemon/pipeline.h"

#include <algorithm>
#include <span>

#include "common/crc32.h"
#include "common/strformat.h"
#include "mem/segment.h"

namespace portus::core {

void PipelinedTransfer::Stats::merge(const Stats& o) {
  chunks_posted += o.chunks_posted;
  rdma_chunks += o.rdma_chunks;
  local_chunks += o.local_chunks;
  wrs_posted += o.wrs_posted;
  sges_posted += o.sges_posted;
  extents_coalesced += o.extents_coalesced;
  doorbells += o.doorbells;
  admission_windows += o.admission_windows;
  numa_remote_chunks += o.numa_remote_chunks;
  numa_tax_bytes += o.numa_tax_bytes;
  rdma_bytes += o.rdma_bytes;
  peak_window = std::max(peak_window, o.peak_window);
  window_chunk_seconds += o.window_chunk_seconds;
  pipeline_busy_seconds += o.pipeline_busy_seconds;
  queue_delay_total += o.queue_delay_total;
  queue_delay_max = std::max(queue_delay_max, o.queue_delay_max);
}

std::vector<TransferChunk> plan_transfer(const MIndex& index,
                                         const std::vector<TensorDesc>& remote,
                                         const ExtentConfig& shape, Bytes chunk_bytes,
                                         TransferChunk::Kind direction, Bytes slot_offset,
                                         const rdma::MemoryRegion& slot_mr,
                                         const std::vector<bool>& dirty, Bytes prev_offset) {
  PORTUS_CHECK_ARG(direction != TransferChunk::Kind::kLocalCopy,
                   "a transfer direction is kRead or kWrite");
  const bool pull = direction == TransferChunk::Kind::kRead;
  PORTUS_CHECK_ARG(pull || dirty.empty(), "only checkpoints take a dirty set");
  // The planner never mixes transfer classes inside an extent, so a whole
  // extent is either pulled from the GPU or copied from the previous slot.
  const auto extents = plan_extents(index.chunk_spans(chunk_bytes), index.tensors(), shape,
                                    dirty);
  std::vector<TransferChunk> work;
  work.reserve(extents.size());
  for (const auto& ext : extents) {
    const auto& head = ext.members.front();
    const Bytes at = slot_offset + ext.offset_in_slot;
    TransferChunk c;
    c.tensor_index = head.tensor;
    c.len = ext.len;
    if (pull) {
      c.persist_after = true;
      c.persist_offset = at;
      // Phantom payloads are simulated, not materialized: nothing to CRC.
      c.collect_crc = !index.phantom();
      c.tensor_offset = head.offset;
    }
    if (!dirty.empty() && !dirty[head.tensor]) {
      c.kind = TransferChunk::Kind::kLocalCopy;
      c.dst_offset = at;
      c.src_offset = prev_offset + ext.offset_in_slot;
      c.phantom = index.phantom();
    } else {
      const auto& desc = remote[head.tensor];
      c.kind = direction;
      c.lkey = slot_mr.lkey;
      c.local_addr = slot_mr.addr + ext.offset_in_slot;
      c.rkey = desc.rkey;
      c.remote_addr = desc.gpu_addr + head.offset;
    }
    if (ext.coalesced()) {
      for (const auto& m : ext.members) {
        const auto& d = remote[m.tensor];
        c.members.push_back(TransferChunk::ExtentMember{
            .tensor_index = m.tensor, .len = m.len, .rkey = d.rkey,
            .remote_addr = d.gpu_addr + m.offset});
      }
    }
    work.push_back(std::move(c));
  }
  return work;
}

std::vector<TransferChunk> plan_slot_copy(Bytes slot_size, Bytes chunk_bytes,
                                          Bytes slot_offset, const rdma::MemoryRegion& slot_mr,
                                          std::uint32_t rkey, std::uint64_t remote_addr) {
  const Bytes step = chunk_bytes > 0 ? chunk_bytes : std::max<Bytes>(slot_size, 1);
  std::vector<TransferChunk> work;
  for (Bytes off = 0; off < slot_size; off += step) {
    TransferChunk c;
    c.kind = TransferChunk::Kind::kRead;
    c.len = std::min(step, slot_size - off);
    c.lkey = slot_mr.lkey;
    c.local_addr = slot_mr.addr + off;
    c.rkey = rkey;
    c.remote_addr = remote_addr + off;
    c.persist_after = true;
    c.persist_offset = slot_offset + off;
    work.push_back(std::move(c));
  }
  return work;
}

PipelinedTransfer::PipelinedTransfer(sim::Engine& engine, rdma::QueuePair& qp, Config config)
    : engine_{engine}, qp_{qp}, cq_{qp.cq()}, config_{config} {
  PORTUS_CHECK_ARG(config_.window >= 1, "pipeline window must be >= 1");
}

void PipelinedTransfer::bind_pmem(pmem::PmemDevice* device, sim::BandwidthChannel* copy_channel,
                                  Bandwidth copy_read_bw) {
  device_ = device;
  copy_channel_ = copy_channel;
  copy_read_bw_ = copy_read_bw;
}

std::optional<sim::FlowLocality> PipelinedTransfer::chunk_locality(
    const TransferChunk& c) const {
  if (device_ == nullptr || device_->numa_nodes() <= 1) return std::nullopt;
  // Where do the bytes land on PMEM? Local copies write dst_offset; RDMA
  // checkpoint chunks persist into persist_offset. Restore chunks read
  // from PMEM and push to the client — their remote-read cost is second
  // order next to the write path, so they stay untagged.
  if (c.kind == TransferChunk::Kind::kLocalCopy) {
    return sim::FlowLocality{.node = device_->node_of(c.dst_offset),
                             .remote = device_->node_of(c.dst_offset) != home_node_};
  }
  if (c.persist_after) {
    return sim::FlowLocality{.node = device_->node_of(c.persist_offset),
                             .remote = device_->node_of(c.persist_offset) != home_node_};
  }
  return std::nullopt;
}

sim::Process PipelinedTransfer::charge_numa_tax(sim::Engine& engine,
                                                sim::BandwidthChannel& channel, Duration hop,
                                                Bytes bytes, sim::FlowLocality loc) {
  try {
    // The fabric already moved this chunk's bytes through the DIMM channel
    // node-agnostically; a remote landing zone should have moved them at
    // remote_bw_factor of the node share. Consume the difference as a
    // supplemental flow — bytes * (1/factor - 1) at the remote cap costs
    // exactly what the primary flow undershot — plus the one-time UPI hop.
    co_await engine.sleep(hop);
    co_await channel.transfer(bytes, Bandwidth::unlimited(), loc);
  } catch (const Disconnected&) {
    // engine teardown; nothing to unwind
  }
}

sim::Process PipelinedTransfer::run_local_copy(std::uint64_t wr_id, TransferChunk chunk,
                                               sim::FlowLocality loc) {
  try {
    // Device-local copy: the read and write streams through the DIMMs are
    // pipelined, so the slower (write) side bounds the copy; no NIC or GPU
    // BAR involvement — those stay free for other tenants. A cross-socket
    // destination pays the UPI hop and runs at the remote node share.
    if (loc.remote) co_await engine_.sleep(device_->perf().numa.remote_latency);
    co_await copy_channel_->transfer(chunk.len, copy_read_bw_, loc);
    if (!chunk.phantom) {
      mem::copy_bytes(*device_, chunk.dst_offset, *device_, chunk.src_offset, chunk.len);
    } else {
      device_->mark_dirty(chunk.dst_offset, chunk.len);
    }
    cq_.deliver(rdma::WorkCompletion{.wr_id = wr_id,
                                     .opcode = rdma::WcOpcode::kLocalCopy,
                                     .status = rdma::WcStatus::kSuccess,
                                     .byte_len = chunk.len});
  } catch (const Disconnected&) {
    // engine teardown mid-copy; the pipeline dies with it
  }
}

sim::SubTask<> PipelinedTransfer::run(std::vector<TransferChunk> chunks) {
  chunk_crcs_.clear();
  const Time start = engine_.now();
  Time last_change = start;
  int outstanding = 0;
  // Integrate the outstanding-chunk count over time so mean window
  // occupancy falls out as integral / busy-time.
  auto account = [&](int delta) {
    const Time now = engine_.now();
    stats_.window_chunk_seconds +=
        static_cast<double>(outstanding) * to_seconds(now - last_change);
    last_change = now;
    outstanding += delta;
    stats_.peak_window = std::max(stats_.peak_window, outstanding);
  };

  std::map<std::uint64_t, std::size_t> in_flight;  // wr_id -> chunk index
  std::size_t next = 0;
  Time head_since = start;  // when the current head chunk became eligible
  std::string failure;
  Bytes left = 0;  // bytes of the chunks not admitted yet
  for (const auto& c : chunks) left += c.len;
  Duration lent{0};
  bool posted_all = false;

  // An admission burst's WRs, flushed as one chained post: one doorbell
  // per window.
  std::vector<rdma::WorkRequest> batch;

  // Completion processing is synchronous (CRC + persist are device calls),
  // so the drain below can greedily soak up every completion already
  // delivered before re-admitting — whole windows refill at once and the
  // batches stay wide.
  const auto process = [&](const rdma::WorkCompletion& wc) {
    const auto it = in_flight.find(wc.wr_id);
    PORTUS_CHECK(it != in_flight.end(), "foreign completion drained by pipelined transfer");
    const std::size_t idx = it->second;
    in_flight.erase(it);
    account(-1);

    const TransferChunk& c = chunks[idx];
    if (wc.status != rdma::WcStatus::kSuccess) {
      if (failure.empty()) {
        failure = strf("{} failed on chunk of tensor {}: {}", to_string(wc.opcode),
                       c.tensor_index, to_string(wc.status));
      }
      return;
    }
    if (c.collect_crc) {
      // CRC before the persist: same bytes either way (persist only changes
      // durability state), but the read models the inline checksum landing
      // while the line is still cache-hot.
      PORTUS_CHECK(device_ != nullptr, "collect_crc chunk with no PMEM binding");
      const Bytes at = c.kind == TransferChunk::Kind::kLocalCopy ? c.dst_offset
                                                                 : c.persist_offset;
      if (c.members.empty()) {
        chunk_crcs_.push_back(ChunkCrc{.tensor_index = c.tensor_index,
                                       .tensor_offset = c.tensor_offset,
                                       .len = c.len,
                                       .crc = device_->crc(at, c.len)});
      } else {
        // Split the landed extent back into per-tensor CRC records: each
        // member is a whole tensor (offset 0), so its record IS its final
        // per-tensor CRC — no combine step needed for coalesced members.
        Bytes off = 0;
        for (const auto& m : c.members) {
          chunk_crcs_.push_back(ChunkCrc{.tensor_index = m.tensor_index,
                                         .tensor_offset = 0,
                                         .len = m.len,
                                         .crc = device_->crc(at + off, m.len)});
          off += m.len;
        }
      }
    }
    if (c.persist_after) {
      PORTUS_CHECK(device_ != nullptr, "persist_after chunk with no PMEM binding");
      device_->persist(c.persist_offset, c.len);
    }
  };

  while (next < chunks.size() || !in_flight.empty()) {
    // A WR boundary with nothing in flight (the first one, or the drain
    // below emptied the window): the worker may hold the transfer back, and
    // after the first WR an op waiting with fewer bytes to move than this
    // transfer has left takes the worker first.
    if (worker_ != nullptr && in_flight.empty() && next < chunks.size() && failure.empty()) {
      const Time since = engine_.now();
      if (worker_->held()) co_await worker_->hold();
      if (next > 0 && worker_->smaller_waiting(left)) co_await worker_->lend(left);
      head_since += engine_.now() - since;
      lent += engine_.now() - since;
    }
    bool rdma_this_burst = false;
    // Admit work in list order while the window has room.
    while (failure.empty() && next < chunks.size() &&
           in_flight.size() < static_cast<std::size_t>(config_.window)) {
      const std::size_t i = next++;
      const TransferChunk& c = chunks[i];
      left -= c.len;
      const std::uint64_t id = next_wr_id_++;
      in_flight.emplace(id, i);
      account(+1);

      const Duration stalled = engine_.now() - head_since;
      stats_.queue_delay_total += stalled;
      stats_.queue_delay_max = std::max(stats_.queue_delay_max, stalled);
      head_since = engine_.now();

      ++stats_.chunks_posted;
      if (c.members.size() > 1) ++stats_.extents_coalesced;
      const auto loc = chunk_locality(c);
      if (loc.has_value() && loc->remote) ++stats_.numa_remote_chunks;
      if (c.kind == TransferChunk::Kind::kLocalCopy) {
        PORTUS_CHECK(device_ != nullptr && copy_channel_ != nullptr,
                     "local-copy chunk with no PMEM binding");
        ++stats_.local_chunks;
        engine_.spawn(run_local_copy(id, c, loc.value_or(sim::FlowLocality{})));
      } else {
        ++stats_.rdma_chunks;
        ++stats_.wrs_posted;
        stats_.sges_posted += c.members.empty() ? 1 : c.members.size();
        stats_.rdma_bytes += c.len;
        rdma::WorkRequest wr{
            .opcode = c.kind == TransferChunk::Kind::kRead ? rdma::WcOpcode::kRead
                                                           : rdma::WcOpcode::kWrite,
            .wr_id = id,
            .lkey = c.lkey,
            .local_addr = c.local_addr,
            .length = c.len,
            .rkey = c.rkey,
            .remote_addr = c.remote_addr};
        // A coalesced extent rides one WR with a remote gather list: one
        // WQE, one doorbell, one completion for the whole tensor run.
        wr.remote_sges.reserve(c.members.size());
        for (const auto& m : c.members) {
          wr.remote_sges.push_back(rdma::RemoteSge{m.rkey, m.remote_addr, m.len});
        }
        if (loc.has_value() && loc->remote && copy_channel_ != nullptr) {
          // Cross-socket landing zone: the fabric charges the chunk's bytes
          // at the node-agnostic rate, so spawn a supplemental flow that
          // consumes what the remote path additionally costs. It shares the
          // DIMM channel fairly, slowing this session's own WRs and every
          // concurrent writer by exactly the modeled tax.
          const double f = device_->perf().numa.remote_bw_factor;
          const Bytes tax = f > 0.0 && f < 1.0
                                ? static_cast<Bytes>(static_cast<double>(c.len) *
                                                     (1.0 / f - 1.0))
                                : 0;
          if (tax > 0) {
            stats_.numa_tax_bytes += tax;
            engine_.spawn(charge_numa_tax(engine_, *copy_channel_,
                                          device_->perf().numa.remote_latency, tax, *loc));
          }
        }
        rdma_this_burst = true;
        if (config_.batch_doorbells) {
          batch.push_back(std::move(wr));
        } else {
          qp_.post(std::move(wr));
          ++stats_.doorbells;
        }
      }
    }
    // Flush the burst: one chained post, one doorbell.
    if (!batch.empty()) {
      qp_.post(std::span<const rdma::WorkRequest>{batch});
      ++stats_.doorbells;
      batch.clear();
    }
    if (rdma_this_burst) ++stats_.admission_windows;
    if (worker_ != nullptr && next == chunks.size() && !posted_all) {
      posted_all = true;
      worker_->posted_last();
    }
    // After a failure everything already posted must still drain (RC
    // ordering: in-flight WQEs cannot be recalled).
    if (in_flight.empty()) break;

    process(co_await cq_.wait());
    // Soak up everything else already completed before re-admitting, so
    // the next burst refills whole windows instead of trickling one slot
    // at a time (and its doorbell batches stay wide).
    while (!in_flight.empty()) {
      const auto extra = cq_.poll();
      if (!extra.has_value()) break;
      process(*extra);
    }
  }
  account(0);  // close the occupancy integral at the final timestamp
  stats_.pipeline_busy_seconds += to_seconds(engine_.now() - start - lent);
  PORTUS_CHECK(failure.empty(), failure);
}

std::vector<std::uint32_t> PipelinedTransfer::tensor_crcs(std::size_t tensor_count) const {
  std::vector<std::vector<const ChunkCrc*>> per_tensor(tensor_count);
  for (const auto& c : chunk_crcs_) {
    PORTUS_CHECK(c.tensor_index < tensor_count, "chunk CRC for out-of-range tensor");
    per_tensor[c.tensor_index].push_back(&c);
  }
  std::vector<std::uint32_t> out(tensor_count, 0);
  for (std::size_t t = 0; t < tensor_count; ++t) {
    auto& parts = per_tensor[t];
    PORTUS_CHECK(!parts.empty(), strf("no CRC chunks collected for tensor {}", t));
    // Chunks complete out of order (the window overlaps them, local copies
    // run beside the WRs); stitch them back together by offset and fold
    // with CRC combination instead of re-reading payload.
    std::sort(parts.begin(), parts.end(), [](const ChunkCrc* a, const ChunkCrc* b) {
      return a->tensor_offset < b->tensor_offset;
    });
    Bytes cursor = 0;
    std::uint32_t acc = 0;
    for (const auto* c : parts) {
      PORTUS_CHECK(c->tensor_offset == cursor,
                   strf("CRC chunk coverage gap in tensor {} at offset {}", t, cursor));
      acc = cursor == 0 ? c->crc : Crc32::combine(acc, c->crc, c->len);
      cursor += c->len;
    }
    out[t] = acc;
  }
  return out;
}

}  // namespace portus::core
