#include "core/daemon/model_table.h"

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/error.h"

namespace portus::core {

ModelTable::ModelTable(pmem::PmemDevice& device, Bytes table_offset, std::uint32_t capacity)
    : device_{device}, table_offset_{table_offset}, capacity_{capacity} {
  PORTUS_CHECK_ARG(capacity > 0, "ModelTable capacity must be positive");
  PORTUS_CHECK_ARG(table_offset + table_bytes() <= device.size(),
                   "ModelTable exceeds device bounds");
  slots_.resize(capacity);
}

void ModelTable::persist_slot(std::uint32_t index) {
  const Slot& slot = slots_[index];
  BinaryWriter w;
  char name[kNameCapacity] = {};
  std::copy_n(slot.name.data(), std::min<std::size_t>(slot.name.size(), kNameCapacity - 1),
              name);
  w.raw(name, kNameCapacity);
  w.u64(slot.info_offset);
  // State field: bit 0 = used. The finished hint lives out-of-line (see
  // persist_finished) so flipping it cannot tear this CRC'd entry.
  w.u32(slot.used ? 1u : 0u);
  w.u32(Crc32::of(w.buffer().data(), w.buffer().size()));
  const Bytes at = table_offset_ + static_cast<Bytes>(index) * kEntrySize;
  device_.write(at, w.buffer());
  device_.persist(at, kEntrySize);
}

void ModelTable::persist_finished(std::uint32_t index) {
  BinaryWriter w;
  w.u32(slots_[index].finished ? kFinishedMagic : 0u);
  device_.write(flag_offset(index), w.buffer());
  device_.persist(flag_offset(index), sizeof(std::uint32_t));
}

void ModelTable::check_name(const std::string& model_name) {
  PORTUS_CHECK_ARG(!model_name.empty() && model_name.size() < kNameCapacity,
                   "model name must be 1..47 chars");
}

void ModelTable::insert(const std::string& model_name, Bytes info_offset) {
  check_name(model_name);
  if (const auto it = map_.find(model_name); it != map_.end()) {
    // Overwrite in place (re-registration of a known model).
    auto& slot = slots_[it->second.first];
    slot.info_offset = info_offset;
    persist_slot(it->second.first);
    it->second.second = info_offset;
    return;
  }
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    if (slots_[i].used) continue;
    slots_[i] = Slot{model_name, info_offset, true, false};
    // Clear a stale finished magic a previously removed occupant may have
    // left, *before* the entry becomes valid: a cut between the two
    // persists must not resurrect the old hint onto the new model.
    persist_finished(i);
    persist_slot(i);
    map_.emplace(model_name, std::make_pair(i, info_offset));
    return;
  }
  throw ResourceExhausted("ModelTable full");
}

std::optional<Bytes> ModelTable::lookup(const std::string& model_name) const {
  const auto it = map_.find(model_name);
  if (it == map_.end()) return std::nullopt;
  return it->second.second;
}

void ModelTable::remove(const std::string& model_name) {
  const auto it = map_.find(model_name);
  if (it == map_.end()) throw NotFound("no such model: " + model_name);
  slots_[it->second.first] = Slot{};
  persist_slot(it->second.first);
  map_.erase(it);
}

void ModelTable::recover() {
  map_.clear();
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    const Bytes at = table_offset_ + static_cast<Bytes>(i) * kEntrySize;
    const auto raw = device_.read(at, kEntrySize);
    BinaryReader r{raw};
    const auto name_bytes = r.raw(kNameCapacity);
    const Bytes info_offset = r.u64();
    const auto state = r.u32();
    const auto crc = r.u32();
    if (crc != Crc32::of(raw.data(), kEntrySize - 4) || (state & 1u) == 0) {
      slots_[i] = Slot{};
      continue;
    }
    const auto flag_raw = device_.read(flag_offset(i), sizeof(std::uint32_t));
    BinaryReader fr{flag_raw};
    // Anything but the exact magic (zero, a torn line's garbage) reads as
    // "not finished" — losing the hint is safe, losing the entry is not.
    const bool finished = fr.u32() == kFinishedMagic;
    std::string name{reinterpret_cast<const char*>(name_bytes.data())};
    slots_[i] = Slot{name, info_offset, true, finished};
    map_.emplace(std::move(name), std::make_pair(i, info_offset));
  }
}

void ModelTable::set_finished(const std::string& model_name, bool finished) {
  const auto it = map_.find(model_name);
  if (it == map_.end()) throw NotFound("no such model: " + model_name);
  slots_[it->second.first].finished = finished;
  persist_finished(it->second.first);
}

bool ModelTable::is_finished(const std::string& model_name) const {
  const auto it = map_.find(model_name);
  if (it == map_.end()) throw NotFound("no such model: " + model_name);
  return slots_[it->second.first].finished;
}

std::vector<std::string> ModelTable::names() const {
  std::vector<std::string> out;
  out.reserve(map_.size());
  for (const auto& [name, loc] : map_) out.push_back(name);
  return out;
}

}  // namespace portus::core
