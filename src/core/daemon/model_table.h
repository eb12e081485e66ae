// ModelTable + ModelMap: the root level of the three-level index.
//
// On PMEM, ModelTable is a fixed-capacity array of records
// (model_name, info_offset) mapping every known model to its MIndex record.
// In DRAM, ModelMap mirrors it as a red-black tree (std::map) for O(log n)
// lookups; map values are persistent pointers (device offsets) into PMEM —
// the dashed arrows of the paper's Fig. 4.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "pmem/pmem_device.h"

namespace portus::core {

class ModelTable {
 public:
  static constexpr Bytes kNameCapacity = 48;
  static constexpr Bytes kEntrySize = 64;  // name[48] | info_offset u64 | state u32 | crc u32
  // Out-of-line "training job finished" hint, one u32 per slot, appended
  // after the entry array. Self-validating magic instead of a CRC: a power
  // cut tearing a hint's cache line degrades every hint in it to "not
  // finished" — the repacker merely waits for the client to re-finish.
  // Kept OUT of the CRC'd entry on purpose: flipping the hint must never
  // rewrite (and risk tearing) an entry that guards committed checkpoints.
  static constexpr std::uint32_t kFinishedMagic = 0xF1D15EDu;

  ModelTable(pmem::PmemDevice& device, Bytes table_offset, std::uint32_t capacity);

  // Throws InvalidArgument unless `model_name` fits an entry (1..47 chars).
  static void check_name(const std::string& model_name);

  // Insert or overwrite; persists the entry before returning.
  void insert(const std::string& model_name, Bytes info_offset);
  std::optional<Bytes> lookup(const std::string& model_name) const;
  void remove(const std::string& model_name);

  // Training-job lifecycle flag (persisted out-of-line, torn-safe):
  // FINISH_JOB marks the model so the repacker may reclaim its non-latest
  // checkpoint version even after a daemon restart. Never touches the
  // model's CRC'd entry.
  void set_finished(const std::string& model_name, bool finished = true);
  bool is_finished(const std::string& model_name) const;

  // Rebuild ModelMap from PMEM after a daemon restart.
  void recover();

  std::size_t size() const { return map_.size(); }
  std::vector<std::string> names() const;
  Bytes table_bytes() const {
    return static_cast<Bytes>(capacity_) * (kEntrySize + sizeof(std::uint32_t));
  }

 private:
  struct Slot {
    std::string name;
    Bytes info_offset = 0;
    bool used = false;
    bool finished = false;
  };
  void persist_slot(std::uint32_t index);
  void persist_finished(std::uint32_t index);
  Bytes flag_offset(std::uint32_t index) const {
    return table_offset_ + static_cast<Bytes>(capacity_) * kEntrySize +
           static_cast<Bytes>(index) * sizeof(std::uint32_t);
  }

  pmem::PmemDevice& device_;
  Bytes table_offset_;
  std::uint32_t capacity_;
  std::vector<Slot> slots_;
  // ModelMap: name -> (slot index, info_offset).
  std::map<std::string, std::pair<std::uint32_t, Bytes>> map_;
};

}  // namespace portus::core
