// Extent planner: the coalescing layer between MIndex::chunk_spans and the
// pipelined datapath (see DESIGN.md §12).
//
// DNN checkpoints are dominated by op count, not bytes: a transformer has
// thousands of sub-chunk tensors (biases, norms, embedding rows) and each
// one used to cost a full WQE + completion. The planner walks the chunked
// span list in slot-layout order and fuses runs of *whole small tensors*
// whose slot placements are PMEM-dense into merged extents; one extent
// becomes one multi-SGE work request that gathers N GPU buffers into one
// contiguous slot range (or scatters it back on restore).
//
// Fusion rules — a span joins the open run only if ALL hold:
//   * coalescing is on (threshold > 0, max_sges > 1);
//   * the span is a whole tensor (offset 0, len == tensor size) no larger
//     than coalesce_threshold — partial spans of chunked large tensors
//     always stay standalone;
//   * it is PMEM-dense: its offset_in_slot is exactly the run's end (a
//     dtype-alignment pad gap breaks the run);
//   * the run has room (< max_sges members, and the span keeps the run
//     within kExtentByteBudget);
//   * it is in the same transfer class as the run (incremental mode must
//     never fuse a dirty RDMA READ with a clean PMEM-local copy).
// Zero-length tensors become standalone empty extents and do NOT interrupt
// a dense run on either side (they occupy no bytes).
//
// With threshold 0 (or max_sges 1) every span maps to one single-member
// extent in input order — bit-for-bit the pre-coalescing work list.
#pragma once

#include <vector>

#include "core/daemon/mindex.h"

namespace portus::core {

struct ExtentConfig {
  Bytes coalesce_threshold = 0;  // fuse whole tensors <= this; 0 = off
  int max_sges = 1;              // gather-list budget per work request
};

// Byte budget of one fused extent: a run closes before its next member
// would take it past this, whatever coalesce_threshold says, so a tensor
// larger than the budget always stays standalone. It is one GPU-read
// bandwidth-delay product (4 us READ setup x the 5.8 GB/s BAR read cap
// ~= 23 KB). Past it, setup is a small share of a WR's time, while a
// longer WR keeps its worker longer from the WR boundaries where the
// daemon's worker pool hands it to a smaller op (DESIGN.md §12).
inline constexpr Bytes kExtentByteBudget = 24_KiB;

// One planned datapath unit: a dense run of chunk spans moved by one work
// request. A single-member extent is exactly its span; a multi-member
// extent covers [offset_in_slot, offset_in_slot + len) with member k's
// bytes at slot offset offset_in_slot + sum(members[0..k).len).
struct Extent {
  std::vector<ChunkSpan> members;
  Bytes offset_in_slot = 0;
  Bytes len = 0;  // sum of member lengths (members are PMEM-dense)

  bool coalesced() const { return members.size() > 1; }
};

// Plan the work list. `dirty` is the incremental-checkpoint class vector
// (per tensor, indexed by ChunkSpan::tensor); empty means every tensor is
// in the same class (full checkpoint / restore). Never reorders spans.
std::vector<Extent> plan_extents(const std::vector<ChunkSpan>& spans,
                                 const std::vector<IndexedTensor>& tensors,
                                 const ExtentConfig& config,
                                 const std::vector<bool>& dirty = {});

}  // namespace portus::core
