// Pipelined datapath engine shared by checkpoint (GPU -> PMEM pull),
// forward (peer PMEM -> PMEM pull) and restore (PMEM -> GPU push).
//
// The serial daemon awaited one read_sync/write_sync per tensor, so per-op
// latency — not link bandwidth — bounded the many-small-tensor models.
// PipelinedTransfer instead keeps a bounded window of chunks in flight:
//
//   * Chunks are assigned round-robin to the session's QP *lanes* (one lane
//     per striped QP; PMEM-local copies of incremental mode ride lanes too,
//     they just never touch the NIC). Each lane admits up to `window`
//     outstanding chunks; the head of the work list stalls only when its
//     lane is full, and every drained completion frees exactly one slot.
//   * Completions are consumed wr_id-keyed from ONE CompletionQueue shared
//     by all lanes, so a single coroutine drives any number of QPs.
//   * A checkpoint chunk carries a persist range: the moment its bytes land,
//     they are flushed into the persistence domain — the flush of chunk k
//     overlaps the RDMA pull of chunk k+1. The caller still owns the final
//     catch-all persist + persist_overhead sleep before txn.commit(), which
//     keeps window=1 timing identical to the old serial loop.
//
// On a failed completion the engine stops admitting new chunks, drains
// everything still in flight (RC ordering: later WQEs cannot be recalled),
// and then throws — no half-tracked windows left behind.
//
// A transfer runs on one of its daemon's workers. At each WR boundary with
// no WR in flight and work left (every boundary at window=1) it lends that
// worker to a waiting op with fewer bytes to move than it has left, and
// carries on once the worker is back: the pool serves the shortest
// remaining transfer first. At those boundaries, and before its first WR,
// the worker may also hold the transfer back (a cluster restore while a
// smaller job's restore is active on the daemon); the worker is told when
// the last WR is posted. A transfer nobody waits behind never pauses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/daemon/extent.h"
#include "pmem/pmem_device.h"
#include "rdma/completion_queue.h"
#include "rdma/memory_region.h"
#include "rdma/queue_pair.h"
#include "sim/bandwidth_channel.h"
#include "sim/engine.h"
#include "sim/process.h"
#include "sim/task.h"

namespace portus::core {

// One unit of pipelined work: a chunk_bytes-sized slice of a tensor (or the
// whole tensor when it is smaller than one chunk / chunking is off).
struct TransferChunk {
  enum class Kind : std::uint8_t {
    kRead,       // one-sided RDMA READ: remote GPU or peer slot -> local slot
    kWrite,      // one-sided RDMA WRITE: local slot -> remote GPU (restore)
    kLocalCopy,  // PMEM-local copy from the previous DONE slot (incremental)
  };

  Kind kind = Kind::kRead;
  std::size_t tensor_index = 0;
  Bytes len = 0;

  // RDMA chunks (kRead / kWrite).
  std::uint32_t lkey = 0;
  std::uint64_t local_addr = 0;
  std::uint32_t rkey = 0;
  std::uint64_t remote_addr = 0;

  // Local-copy chunks (kLocalCopy): PMEM device offsets.
  Bytes dst_offset = 0;
  Bytes src_offset = 0;
  bool phantom = false;  // move time but no bytes (phantom payloads)

  // When set, flush [persist_offset, persist_offset + len) as soon as this
  // chunk's completion drains (checkpoint path only).
  bool persist_after = false;
  Bytes persist_offset = 0;

  // When set, CRC the landed bytes right after the chunk completes (before
  // anything can overwrite them) and record it under (tensor_index,
  // tensor_offset) for tensor_crcs(). Checkpoint integrity path only; never
  // set on phantom chunks (their payload is simulated, not materialized).
  bool collect_crc = false;
  Bytes tensor_offset = 0;  // byte offset of this chunk within its tensor

  // Coalesced extent: when non-empty, this chunk moves a dense run of
  // whole small tensors with ONE work request. For kRead/kWrite the
  // members form the remote gather/scatter list (the local side is the
  // single contiguous slot range above); for kLocalCopy the copy is one
  // dense range and the members only drive the per-tensor CRC split.
  // Member k's bytes sit at local offset sum(members[0..k).len); member
  // lengths must sum to `len`. Empty = classic single-tensor chunk.
  struct ExtentMember {
    std::size_t tensor_index = 0;
    Bytes len = 0;
    std::uint32_t rkey = 0;         // kRead / kWrite only
    std::uint64_t remote_addr = 0;  // kRead / kWrite only
  };
  std::vector<ExtentMember> members;
};

class PipelinedTransfer {
 public:
  // The worker a transfer runs on, as its daemon holds it (PortusDaemon).
  class Worker {
   public:
    // Whether an op with fewer than `remaining` bytes to move waits for a
    // worker.
    virtual bool smaller_waiting(Bytes remaining) const = 0;
    // Lend the worker to that op; return once it is back.
    virtual sim::SubTask<> lend(Bytes remaining) = 0;
    // Whether the transfer must not post yet, asked at each WR boundary
    // with nothing in flight, the first one included.
    virtual bool held() const = 0;
    // Return once it may post.
    virtual sim::SubTask<> hold() = 0;
    // The transfer has posted its last WR.
    virtual void posted_last() = 0;

   protected:
    ~Worker() = default;
  };

  struct Config {
    int window = 1;  // outstanding chunks admitted per QP lane
    // Accumulate each admission burst's WRs per lane and flush them as ONE
    // chained post (one doorbell per lane per burst) instead of ringing
    // per extent. At window=1 a burst is a single WR either way, so serial
    // timings are unchanged.
    bool batch_doorbells = true;
  };

  // Datapath counters of one transfer. PortusDaemon::Stats inherits them
  // and merge()s every op's run in, so each derived ratio exists once.
  struct Stats {
    std::uint64_t chunks_posted = 0;
    std::uint64_t rdma_chunks = 0;
    std::uint64_t local_chunks = 0;
    // --- coalescing observability ---
    std::uint64_t wrs_posted = 0;        // RDMA work requests (a gather extent = 1)
    std::uint64_t sges_posted = 0;       // remote SGEs across those WRs
    std::uint64_t extents_coalesced = 0; // chunks that fused > 1 tensor
    // --- doorbell batching observability ---
    std::uint64_t doorbells = 0;         // post() calls (a chained batch = 1)
    std::uint64_t admission_windows = 0; // admission bursts that posted RDMA work
    // --- NUMA observability (multi-socket PMEM only) ---
    // Chunks whose PMEM landing zone sits on a different socket than the
    // session's home node, and the supplemental bytes charged to the DIMM
    // channel to model the cross-socket (UPI + remote XPBuffer) cost.
    std::uint64_t numa_remote_chunks = 0;
    Bytes numa_tax_bytes = 0;
    Bytes rdma_bytes = 0;                // chunk bytes that crossed the NIC
    int peak_window = 0;                 // max chunks in flight at once
    double window_chunk_seconds = 0.0;   // ∫ outstanding dt, in chunk-seconds
    double pipeline_busy_seconds = 0.0;  // wall time of run() not lent out
    Duration queue_delay_total{0};       // head-of-line stall, summed per chunk
    Duration queue_delay_max{0};

    // Fold another run's counters in (sums; peaks take the max).
    void merge(const Stats& o);

    double mean_window() const {
      return pipeline_busy_seconds > 0.0 ? window_chunk_seconds / pipeline_busy_seconds
                                         : 0.0;
    }
    Duration mean_queue_delay() const {
      return chunks_posted > 0
                 ? Duration{queue_delay_total.count() /
                            static_cast<Duration::rep>(chunks_posted)}
                 : Duration{0};
    }
    double bytes_per_wr() const {
      return wrs_posted > 0 ? static_cast<double>(rdma_bytes) / static_cast<double>(wrs_posted)
                            : 0.0;
    }
    // Mean doorbells rung per admission burst; with batching on this
    // converges to the lane count (one chained post per lane per window).
    double doorbells_per_window() const {
      return admission_windows > 0
                 ? static_cast<double>(doorbells) / static_cast<double>(admission_windows)
                 : 0.0;
    }
    double wrs_per_doorbell() const {
      return doorbells > 0
                 ? static_cast<double>(wrs_posted) / static_cast<double>(doorbells)
                 : 0.0;
    }
  };

  // All `qps` must deliver into `cq`. An empty QP list is allowed as long
  // as run() only ever sees kLocalCopy chunks.
  PipelinedTransfer(sim::Engine& engine, std::vector<rdma::QueuePair*> qps,
                    rdma::CompletionQueue& cq, Config config);

  // Required before running kLocalCopy or persist_after chunks: the PMEM
  // device plus the DIMM channel/read-bandwidth cap that local copies
  // charge (same cost model as the old inline path).
  void bind_pmem(pmem::PmemDevice* device, sim::BandwidthChannel* copy_channel,
                 Bandwidth copy_read_bw);

  // Socket the session's worker is pinned to. On a multi-socket device a
  // chunk landing on another node's DIMMs pays the cross-socket tax: its
  // flow is capped at the remote share (local copies) or a supplemental
  // tax flow consumes the equivalent channel capacity (RDMA chunks, whose
  // primary flow the fabric already charged node-agnostically). Irrelevant
  // on flat topologies. Default 0.
  void set_home_node(std::uint32_t node) { home_node_ = node; }

  // The worker run() lends to smaller ops between WRs and that may hold it
  // back. The time it is lent or held counts neither as a head-of-line
  // stall (queue_delay) nor as busy time. Unset = run() never pauses.
  void set_worker(Worker* worker) { worker_ = worker; }

  // Drive the whole work list through the window; returns when every chunk
  // has completed (and, for persist_after chunks, been flushed). Throws on
  // the first failed completion, after draining all outstanding work.
  sim::SubTask<> run(std::vector<TransferChunk> chunks);

  const Stats& stats() const { return stats_; }

  // Fold the chunk CRCs collected by the last run() into one CRC32 per
  // tensor (CRC of the tensor's full payload, via Crc32::combine). Every
  // tensor in [0, tensor_count) must be completely covered by contiguous
  // collect_crc chunks — a gap means the caller built an inconsistent work
  // list and is a programming error, not data corruption.
  std::vector<std::uint32_t> tensor_crcs(std::size_t tensor_count) const;

 private:
  struct ChunkCrc {
    std::size_t tensor_index = 0;
    Bytes tensor_offset = 0;
    Bytes len = 0;
    std::uint32_t crc = 0;
  };

  sim::Process run_local_copy(std::uint64_t wr_id, TransferChunk chunk,
                              sim::FlowLocality loc);
  // Fire-and-forget flow modeling the cross-socket cost of one RDMA chunk.
  // Static: it may still run after the transfer that spawned it is gone.
  static sim::Process charge_numa_tax(sim::Engine& engine, sim::BandwidthChannel& channel,
                                      Duration hop, Bytes bytes, sim::FlowLocality loc);
  // Locality of a chunk's PMEM landing zone, nullopt when the chunk never
  // touches PMEM or the topology is flat.
  std::optional<sim::FlowLocality> chunk_locality(const TransferChunk& c) const;

  sim::Engine& engine_;
  std::vector<rdma::QueuePair*> qps_;
  rdma::CompletionQueue& cq_;
  Config config_;
  pmem::PmemDevice* device_ = nullptr;
  sim::BandwidthChannel* copy_channel_ = nullptr;
  Bandwidth copy_read_bw_ = Bandwidth::unlimited();
  std::uint32_t home_node_ = 0;
  Worker* worker_ = nullptr;
  std::uint64_t next_wr_id_ = 0xB1BE0000ull;
  Stats stats_;
  std::vector<ChunkCrc> chunk_crcs_;
};

// The one transfer planner: turns a slot's extent plan (core/daemon/
// extent.h) into the chunk list PipelinedTransfer runs, for every
// direction the daemon moves bytes in.
//   kRead  — checkpoint: pull each extent from the client GPU buffers in
//            `remote` into the write slot at `slot_offset` (registered as
//            `slot_mr`), flush it as it lands, and CRC it inline unless
//            the payload is phantom. A non-empty `dirty` (per tensor) makes
//            it incremental: clean extents become PMEM-local copies from
//            the previous DONE slot at `prev_offset`.
//   kWrite — restore: push each extent from the slot into the GPU buffers;
//            no persists, no CRCs, no dirty set.
// Coalesced extents carry their members (the remote gather/scatter list).
std::vector<TransferChunk> plan_transfer(const MIndex& index,
                                         const std::vector<TensorDesc>& remote,
                                         const ExtentConfig& shape, Bytes chunk_bytes,
                                         TransferChunk::Kind direction, Bytes slot_offset,
                                         const rdma::MemoryRegion& slot_mr,
                                         const std::vector<bool>& dirty = {},
                                         Bytes prev_offset = 0);

// A forward's chunk list: another daemon's whole slot, one contiguous
// READ from (`rkey`, `remote_addr`) into the local slot at device offset
// `slot_offset` (registered as `slot_mr`), cut at chunk_bytes when that is
// set and flushed as it lands. Nothing is CRC'd inline: the caller checks
// the landed slot against the source's payload-CRC block.
std::vector<TransferChunk> plan_slot_copy(Bytes slot_size, Bytes chunk_bytes,
                                          Bytes slot_offset, const rdma::MemoryRegion& slot_mr,
                                          std::uint32_t rkey, std::uint64_t remote_addr);

}  // namespace portus::core
