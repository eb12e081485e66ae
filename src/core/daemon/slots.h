// Double-mapping checkpoint transaction (SS III-D2, Fig. 6).
//
// Every model keeps two identically-structured checkpoint slots on PMEM.
// A checkpoint writes into the slot that does NOT hold the newest DONE
// version, under this persist ordering:
//
//   begin():  write slot <- ACTIVE flag, persisted     (transmission begun)
//   ... daemon pulls TensorData and persists it ...
//   commit(): write slot <- DONE flag + new epoch, persisted
//
// A crash before commit leaves the slot ACTIVE (or torn); recovery treats
// anything not DONE as invalid, so the previous DONE version — untouched by
// construction — remains restorable. This guarantees at least one valid
// version at all times without reallocating PMEM or re-establishing RDMA
// state per checkpoint (the cost the paper's "new file every time"
// alternative would pay; see bench/abl_double_mapping).
//
// Deliberately, an uncommitted transaction's destructor does NOT roll the
// flag back: a power failure runs no destructors, so the recovery protocol
// must already treat a lingering ACTIVE slot as invalid — and it does. The
// next checkpoint of the model simply overwrites that slot
// (pick_write_slot never selects the newest DONE version).
#pragma once

#include <optional>

#include "core/daemon/mindex.h"

namespace portus::core {

class CheckpointTxn {
 public:
  // Marks the write slot ACTIVE (persisted). The transaction must be
  // committed or aborted before another one starts on the same MIndex.
  // A checkpoint mints epoch max(max_epoch(), floor) + 1 and stamps it on
  // ACTIVE; `floor` is the newest epoch another copy of the key is known
  // to hold. A migration instead lands a version another daemon already
  // committed: it passes that `carried` epoch, ACTIVE is stamped 0 (an
  // in-flight copy claims no epoch), and commit() flips DONE at the
  // carried epoch.
  static CheckpointTxn begin(MIndex& index,
                             std::optional<std::uint64_t> carried = std::nullopt,
                             std::uint64_t floor = 0);

  CheckpointTxn(CheckpointTxn&&) = default;
  CheckpointTxn& operator=(CheckpointTxn&&) = delete;
  CheckpointTxn(const CheckpointTxn&) = delete;
  CheckpointTxn& operator=(const CheckpointTxn&) = delete;
  ~CheckpointTxn();

  int slot() const { return slot_; }
  Bytes data_offset() const { return index_->slot(slot_).data_offset; }
  std::uint64_t epoch() const { return epoch_; }

  // Flip to DONE with the new epoch (persisted). Idempotent-safe: only the
  // first call commits. Enforces the persist-before-DONE contract: every
  // dirty byte of the slot's TensorData must already be inside the
  // persistence domain, else the DONE flag would bless data a power
  // failure can still tear. With the pipelined datapath (per-chunk
  // flushes racing ahead of the transfer window) this is the single choke
  // point where the invariant is checked.
  void commit();

 private:
  CheckpointTxn(MIndex& index, int slot, std::uint64_t epoch)
      : index_{&index}, slot_{slot}, epoch_{epoch} {}

  MIndex* index_;
  int slot_;
  std::uint64_t epoch_;
  bool committed_ = false;
};

}  // namespace portus::core
