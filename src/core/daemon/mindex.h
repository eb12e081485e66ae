// MIndex: the second level of the three-level index (SS III-D1).
//
// One record per registered model, stored on PMEM at the info_offset that
// ModelTable points to. It holds the model's full tensor metadata (layer
// count, names, dtypes, shapes, sizes, per-tensor offsets inside a slot)
// and the two *checkpoint slot* headers of the double-mapping consistency
// scheme (SS III-D2). Each slot references one contiguous TensorData region
// — the third index level — allocated from the PMEM heap and registered as
// an RDMA memory region.
//
// PMEM record layout (little-endian):
//   [u32 magic][u32 record_len]
//   [slot0: u32 state | u64 epoch | u64 data_offset | u32 crc]   (24 B)
//   [slot1: ditto]
//   [u32 meta_len]
//   [meta blob: name, phantom flag, shard identity, job bytes,
//    slot_size, tensor entries..., u32 crc]
//   [payload-CRC block 0][payload-CRC block 1]
//
// Each payload-CRC block is [u64 epoch][per-tensor u32 CRC x T][u32 guard]
// (guard = CRC over the preceding bytes). The pipelined datapath computes
// the per-tensor CRCs inline as checkpoint chunks land and persists the
// block BEFORE the slot flips DONE, so every DONE slot has a valid block:
// restore and `portusctl fsck` verify the TensorData against it, and a
// DONE slot whose block is torn or stale is itself proof of corruption.
//
// Sharded models (core/cluster/) store one MIndex per shard copy under the
// shard-scoped ModelTable key; the meta blob then carries the copy's shard
// identity (shard and replica, each with its count) and its job's byte
// count, which is all the elastic migrator needs to re-home the copy: the
// homes of a model's shards follow from its name, its shard count and its
// replica count (Placement::shard_homes).
//
// Slot headers are fixed-offset so a checkpoint flips its flag with one
// 24-byte write + persist — no record rewrite. Persist ordering is the
// crash-consistency contract:
//   ACTIVE flag persisted  ->  tensor data pulled & persisted  ->
//   DONE flag (with new epoch) persisted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "core/daemon/allocator.h"
#include "core/protocol.h"
#include "pmem/pmem_device.h"

namespace portus::core {

enum class SlotState : std::uint32_t { kEmpty = 0, kActive = 1, kDone = 2 };

const char* to_string(SlotState s);

struct SlotHeader {
  SlotState state = SlotState::kEmpty;
  std::uint64_t epoch = 0;
  Bytes data_offset = 0;  // device offset of this slot's TensorData region
};

struct IndexedTensor {
  std::string name;
  dnn::DType dtype = dnn::DType::kF32;
  std::vector<std::int64_t> shape;
  Bytes size = 0;
  Bytes offset_in_slot = 0;  // paddr = slot.data_offset + offset_in_slot
};

// One chunk of one tensor, as fed to the pipelined datapath: tensors larger
// than chunk_bytes split into consecutive spans so no single giant tensor
// serializes behind one work request.
struct ChunkSpan {
  std::size_t tensor = 0;   // index into MIndex::tensors()
  Bytes offset = 0;         // byte offset of this span within the tensor
  Bytes offset_in_slot = 0; // == tensor.offset_in_slot + offset
  Bytes len = 0;
};

class MIndex {
 public:
  // "PIM2": the record whose meta blob holds the job's byte count. A record
  // in the layout before it ("PIMX", with a shard manifest blob) is refused
  // as Corruption.
  static constexpr std::uint32_t kMagic = 0x324D4950;
  static constexpr Bytes kSlotHeaderSize = 24;
  static constexpr Bytes kSlot0Offset = 8;     // after magic + record_len
  static constexpr Bytes kMetaLenOffset = 56;  // after both slot headers
  static constexpr Bytes kMetaOffset = 60;

  // Build a fresh record from a registration packet: allocates the record
  // itself and both TensorData slots, persists everything. An allocation
  // that fails frees whatever this call already took before rethrowing.
  //
  // pack_threshold controls the slot layout: tensors no larger than it are
  // packed back-to-back at their dtype's natural alignment, so runs of
  // small tensors are PMEM-dense and the extent planner can fuse them into
  // multi-SGE gather extents. Larger tensors (and a threshold of 0) keep
  // the classic 256-B-aligned placement — with threshold 0 the layout is
  // byte-identical to what this function always produced.
  static MIndex create(pmem::PmemDevice& device, PmemAllocator& allocator,
                       const RegisterModelMsg& registration,
                       Bytes pack_threshold = 0);

  // Load an existing record (daemon restart / portusctl). Validates magic
  // and metadata CRC; slot headers with bad CRCs surface as kEmpty.
  static MIndex load(pmem::PmemDevice& device, Bytes record_offset);

  const std::string& model_name() const { return model_name_; }
  bool phantom() const { return phantom_; }
  // --- shard identity (defaults describe an unsharded model) ---
  std::uint32_t shard_id() const { return shard_id_; }
  std::uint32_t shard_count() const { return shard_count_; }
  std::uint32_t replica() const { return replica_; }
  std::uint32_t replica_count() const { return replica_count_; }
  bool sharded() const { return shard_count_ > 1 || replica_count_ > 1; }
  // The registration's job bytes (RegisterModelMsg::job_bytes; 0: no job).
  Bytes job_bytes() const { return job_bytes_; }
  Bytes record_offset() const { return record_offset_; }
  Bytes slot_size() const { return slot_size_; }
  const std::vector<IndexedTensor>& tensors() const { return tensors_; }
  // CRC of the slot layout (slot size, then every tensor's offset and
  // size): two copies whose layouts match can move a slot as one range.
  std::uint32_t layout_crc() const;

  const SlotHeader& slot(int i) const { return slots_.at(static_cast<std::size_t>(i)); }
  pmem::PmemDevice& device() const { return *device_; }

  // Split every tensor into chunk_bytes-sized spans, in slot-layout order;
  // the final span of a tensor carries the remainder. chunk_bytes == 0
  // disables splitting (one span per tensor).
  std::vector<ChunkSpan> chunk_spans(Bytes chunk_bytes) const;

  // Double-mapping slot selection: the slot that is NOT the newest DONE
  // version (overwriting the older/invalid version keeps one valid copy).
  int pick_write_slot() const;
  // The newest DONE slot, if any (restore source).
  std::optional<int> latest_done_slot() const;
  std::uint64_t max_epoch() const;

  // Flip a slot's state (and epoch); persists the 24-byte header.
  void set_slot(int i, SlotState state, std::uint64_t epoch);

  // Drop a slot entirely (EMPTY, epoch 0, no data region) — repacker use.
  // The TensorData extent must have been freed by the caller.
  void clear_slot(int i);

  // Re-provision a slot whose extent was reclaimed (data_offset == 0):
  // allocates a fresh TensorData region so the double-mapping invariant
  // holds again when a repacked model resumes training.
  void ensure_slot(int i, PmemAllocator& allocator);

  // --- per-slot payload integrity block ---
  struct PayloadCrcs {
    std::uint64_t epoch = 0;
    std::vector<std::uint32_t> crcs;  // one per tensor, in tensors() order
  };
  // Read slot i's payload-CRC block from the device. nullopt when the
  // guard CRC does not validate (block never written, or torn by a crash
  // before the post-data persist completed). A valid block whose epoch
  // differs from the slot header's is stale and must be treated the same.
  std::optional<PayloadCrcs> payload_crcs(int i) const;
  // Write and persist slot i's block. crcs.size() must match tensors().
  // Called after the slot's TensorData persisted but BEFORE the DONE flip,
  // extending the crash-consistency ordering to ACTIVE -> data -> CRC
  // block -> DONE.
  void set_payload_crcs(int i, std::uint64_t epoch,
                        const std::vector<std::uint32_t>& crcs);

  // Payload integrity, the one rule for every reader of a DONE slot
  // (restore, migration, fsck, `portusctl dump`): its bytes are valid only
  // if its block is present, carries the slot's epoch, and every tensor's
  // bytes match it. `scrub` bounds the byte check: none (migration checks
  // the copy it lands instead), up to the first bad tensor, or all.
  enum class Scrub { kNone, kFirstBad, kAll };
  struct PayloadCheck {
    const char* block_fault = nullptr;     // "missing or torn" / "stale"
    std::vector<std::uint32_t> crcs;       // the block, when it vouches
    std::vector<std::size_t> bad_tensors;  // tensors whose bytes fail it
    bool ok() const { return block_fault == nullptr && bad_tensors.empty(); }
  };
  PayloadCheck check_payload(int i, Scrub scrub) const;
  // The byte check alone, of bytes at `data_offset` laid out as this index.
  std::vector<std::size_t> failing_tensors(Bytes data_offset,
                                           const std::vector<std::uint32_t>& crcs,
                                           Scrub scrub) const;
  // The Corruption a refusing reader (`op`) throws for a failed check.
  Corruption payload_corruption(int i, const PayloadCheck& check, const char* op) const;

  // Release both TensorData regions and the record itself.
  void destroy(PmemAllocator& allocator);

 private:
  MIndex() = default;
  void persist_slot_header(int i);
  Bytes crc_block_size() const;       // 12 + 4 * tensors_.size()
  Bytes crc_block_offset(int i) const;

  pmem::PmemDevice* device_ = nullptr;
  Bytes record_offset_ = 0;
  Bytes record_size_ = 0;
  Bytes meta_len_ = 0;
  std::string model_name_;
  bool phantom_ = false;
  std::uint32_t shard_id_ = 0;
  std::uint32_t shard_count_ = 1;
  std::uint32_t replica_ = 0;
  std::uint32_t replica_count_ = 1;
  Bytes job_bytes_ = 0;
  Bytes slot_size_ = 0;
  std::vector<IndexedTensor> tensors_;
  std::vector<SlotHeader> slots_;  // exactly 2
};

}  // namespace portus::core
