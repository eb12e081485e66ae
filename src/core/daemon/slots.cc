#include "core/daemon/slots.h"

#include <algorithm>

namespace portus::core {

CheckpointTxn CheckpointTxn::begin(MIndex& index, std::optional<std::uint64_t> carried,
                                   std::uint64_t floor) {
  const int slot = index.pick_write_slot();
  const std::uint64_t epoch = carried.value_or(std::max(index.max_epoch(), floor) + 1);
  // ACTIVE flag first, persisted, before any data lands: recovery must be
  // able to tell "transmission started but did not finish".
  index.set_slot(slot, SlotState::kActive, carried.has_value() ? 0 : epoch);
  return CheckpointTxn{index, slot, epoch};
}

CheckpointTxn::~CheckpointTxn() {
  // Abort leaves the slot ACTIVE on purpose — identical to what a power
  // failure produces. ACTIVE is never restorable and is reclaimed by the
  // repacker or overwritten by the next checkpoint.
}

void CheckpointTxn::commit() {
  if (committed_) return;
  PORTUS_CHECK(index_->device().is_persisted(data_offset(), index_->slot_size()),
               "commit with unpersisted TensorData in the write slot");
  index_->set_slot(slot_, SlotState::kDone, epoch_);
  committed_ = true;
}

}  // namespace portus::core
