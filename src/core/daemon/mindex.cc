#include "core/daemon/mindex.h"

#include <algorithm>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/strformat.h"

namespace portus::core {

const char* to_string(SlotState s) {
  switch (s) {
    case SlotState::kEmpty: return "EMPTY";
    case SlotState::kActive: return "ACTIVE";
    case SlotState::kDone: return "DONE";
  }
  return "?";
}

namespace {

std::vector<std::byte> encode_slot_header(const SlotHeader& h) {
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(h.state));
  w.u64(h.epoch);
  w.u64(h.data_offset);
  w.u32(Crc32::of(w.buffer().data(), w.buffer().size()));
  return w.take();
}

std::optional<SlotHeader> decode_slot_header(std::span<const std::byte> raw) {
  BinaryReader r{raw};
  SlotHeader h;
  h.state = static_cast<SlotState>(r.u32());
  h.epoch = r.u64();
  h.data_offset = r.u64();
  const auto crc = r.u32();
  if (crc != Crc32::of(raw.data(), MIndex::kSlotHeaderSize - 4)) return std::nullopt;
  if (h.state != SlotState::kEmpty && h.state != SlotState::kActive &&
      h.state != SlotState::kDone) {
    return std::nullopt;
  }
  return h;
}

struct ShardMeta {
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t replica = 0;
  std::uint32_t replica_count = 1;
  Bytes job_bytes = 0;
};

std::vector<std::byte> encode_meta_blob(const std::string& name, bool phantom,
                                        const ShardMeta& shard, Bytes slot_size,
                                        const std::vector<IndexedTensor>& tensors) {
  BinaryWriter w;
  w.str(name);
  w.u8(phantom ? 1 : 0);
  w.u32(shard.shard_id);
  w.u32(shard.shard_count);
  w.u32(shard.replica);
  w.u32(shard.replica_count);
  w.u64(shard.job_bytes);
  w.u64(slot_size);
  w.u32(static_cast<std::uint32_t>(tensors.size()));
  for (const auto& t : tensors) {
    w.str(t.name);
    w.u8(static_cast<std::uint8_t>(t.dtype));
    w.u32(static_cast<std::uint32_t>(t.shape.size()));
    for (const auto d : t.shape) w.i64(d);
    w.u64(t.size);
    w.u64(t.offset_in_slot);
  }
  w.u32(Crc32::of(w.buffer().data(), w.buffer().size()));
  return w.take();
}

}  // namespace

MIndex MIndex::create(pmem::PmemDevice& device, PmemAllocator& allocator,
                      const RegisterModelMsg& registration, Bytes pack_threshold) {
  PORTUS_CHECK_ARG(!registration.tensors.empty(), "registration has no tensors");

  MIndex idx;
  idx.device_ = &device;
  idx.model_name_ = registration.model_name;
  idx.phantom_ = registration.phantom;
  idx.shard_id_ = registration.shard_id;
  idx.shard_count_ = registration.shard_count;
  idx.replica_ = registration.replica;
  idx.replica_count_ = registration.replica_count;
  idx.job_bytes_ = registration.job_bytes;

  // Lay tensors out back-to-back in one contiguous slot. Tensors at or
  // under pack_threshold pack densely at dtype alignment (so same-dtype
  // runs leave no gaps and coalesce into one gather extent); everything
  // else starts on a 256-B line, matching the historical layout exactly.
  Bytes cursor = 0;
  idx.tensors_.reserve(registration.tensors.size());
  for (const auto& t : registration.tensors) {
    IndexedTensor it;
    it.name = t.name;
    it.dtype = t.dtype;
    it.shape = t.shape;
    it.size = t.size;
    const bool packed = pack_threshold > 0 && t.size > 0 && t.size <= pack_threshold;
    const Bytes align = packed ? dnn::size_of(t.dtype) : Bytes{256};
    cursor = (cursor + align - 1) / align * align;
    it.offset_in_slot = cursor;
    cursor += t.size;
    idx.tensors_.push_back(std::move(it));
  }
  idx.slot_size_ = (cursor + 255) & ~Bytes{255};

  // Allocate both TensorData regions and the record.
  const auto meta_blob = encode_meta_blob(
      idx.model_name_, idx.phantom_,
      ShardMeta{idx.shard_id_, idx.shard_count_, idx.replica_, idx.replica_count_,
                    idx.job_bytes_},
      idx.slot_size_, idx.tensors_);
  idx.meta_len_ = meta_blob.size();
  idx.record_size_ = kMetaOffset + idx.meta_len_ + 2 * idx.crc_block_size();
  idx.record_offset_ = allocator.alloc(idx.record_size_);
  idx.slots_.resize(2);
  try {
    for (auto& slot : idx.slots_) slot.data_offset = allocator.alloc(idx.slot_size_);
  } catch (...) {
    idx.destroy(allocator);  // the record and whichever slot did fit
    throw;
  }

  // Persist the record: header, slot headers, meta length + blob, and
  // zeroed payload-CRC blocks (a zero guard never validates, so fresh
  // slots read back as "no CRCs recorded" even on a reused extent).
  BinaryWriter head;
  head.u32(kMagic);
  head.u32(static_cast<std::uint32_t>(idx.record_size_));
  device.write(idx.record_offset_, head.buffer());
  for (int i = 0; i < 2; ++i) {
    device.write(idx.record_offset_ + kSlot0Offset + static_cast<Bytes>(i) * kSlotHeaderSize,
                 encode_slot_header(idx.slots_[static_cast<std::size_t>(i)]));
  }
  BinaryWriter len;
  len.u32(static_cast<std::uint32_t>(idx.meta_len_));
  device.write(idx.record_offset_ + kMetaLenOffset, len.buffer());
  device.write(idx.record_offset_ + kMetaOffset, meta_blob);
  const std::vector<std::byte> zeroed(2 * idx.crc_block_size());
  device.write(idx.record_offset_ + kMetaOffset + idx.meta_len_, zeroed);
  device.persist(idx.record_offset_, idx.record_size_);
  return idx;
}

MIndex MIndex::load(pmem::PmemDevice& device, Bytes record_offset) {
  MIndex idx;
  idx.device_ = &device;
  idx.record_offset_ = record_offset;

  const auto head = device.read(record_offset, 8);
  BinaryReader hr{head};
  if (hr.u32() != kMagic) throw Corruption("MIndex magic mismatch");
  idx.record_size_ = hr.u32();
  if (idx.record_size_ < kMetaOffset + 4 + 2 * 12 ||
      record_offset + idx.record_size_ > device.size()) {
    throw Corruption("MIndex record length implausible");
  }

  idx.slots_.resize(2);
  for (int i = 0; i < 2; ++i) {
    const auto raw = device.read(
        record_offset + kSlot0Offset + static_cast<Bytes>(i) * kSlotHeaderSize,
        kSlotHeaderSize);
    const auto h = decode_slot_header(raw);
    // A torn slot header (crash mid-flip) recovers as EMPTY: that version
    // was in flight and is invalid by definition.
    idx.slots_[static_cast<std::size_t>(i)] = h.value_or(SlotHeader{});
  }

  const auto len_raw = device.read(record_offset + kMetaLenOffset, 4);
  BinaryReader lr{len_raw};
  idx.meta_len_ = lr.u32();
  if (idx.meta_len_ < 4 || kMetaOffset + idx.meta_len_ > idx.record_size_) {
    throw Corruption("MIndex metadata length implausible");
  }
  const auto blob = device.read(record_offset + kMetaOffset, idx.meta_len_);
  if (Crc32::of(blob.data(), blob.size() - 4) !=
      [&] {
        BinaryReader tr{std::span<const std::byte>{blob}.subspan(blob.size() - 4)};
        return tr.u32();
      }()) {
    throw Corruption("MIndex metadata CRC mismatch");
  }
  BinaryReader r{std::span<const std::byte>{blob}.first(blob.size() - 4)};
  idx.model_name_ = r.str();
  idx.phantom_ = r.u8() != 0;
  idx.shard_id_ = r.u32();
  idx.shard_count_ = r.u32();
  idx.replica_ = r.u32();
  idx.replica_count_ = r.u32();
  if (idx.shard_count_ == 0 || idx.shard_id_ >= idx.shard_count_ ||
      idx.replica_count_ == 0 || idx.replica_ >= idx.replica_count_) {
    throw Corruption("implausible shard identity in MIndex");
  }
  idx.job_bytes_ = r.u64();
  idx.slot_size_ = r.u64();
  const auto count = r.u32();
  if (count > 1u << 20) throw Corruption("implausible tensor count in MIndex");
  idx.tensors_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    IndexedTensor t;
    t.name = r.str();
    t.dtype = static_cast<dnn::DType>(r.u8());
    const auto ndim = r.u32();
    if (ndim > 16) throw Corruption("implausible tensor rank in MIndex");
    t.shape.resize(ndim);
    for (auto& d : t.shape) d = r.i64();
    t.size = r.u64();
    t.offset_in_slot = r.u64();
    idx.tensors_.push_back(std::move(t));
  }
  if (idx.record_size_ != kMetaOffset + idx.meta_len_ + 2 * idx.crc_block_size()) {
    throw Corruption("MIndex record length inconsistent with tensor count");
  }
  return idx;
}

Bytes MIndex::crc_block_size() const {
  return 12 + 4 * static_cast<Bytes>(tensors_.size());
}

Bytes MIndex::crc_block_offset(int i) const {
  return record_offset_ + kMetaOffset + meta_len_ +
         static_cast<Bytes>(i) * crc_block_size();
}

std::optional<MIndex::PayloadCrcs> MIndex::payload_crcs(int i) const {
  PORTUS_CHECK_ARG(i == 0 || i == 1, "slot index out of range");
  const auto raw = device_->read(crc_block_offset(i), crc_block_size());
  BinaryReader r{raw};
  PayloadCrcs out;
  out.epoch = r.u64();
  out.crcs.resize(tensors_.size());
  for (auto& c : out.crcs) c = r.u32();
  if (r.u32() != Crc32::of(raw.data(), raw.size() - 4)) return std::nullopt;
  return out;
}

void MIndex::set_payload_crcs(int i, std::uint64_t epoch,
                              const std::vector<std::uint32_t>& crcs) {
  PORTUS_CHECK_ARG(i == 0 || i == 1, "slot index out of range");
  PORTUS_CHECK_ARG(crcs.size() == tensors_.size(),
                   "payload CRC count != tensor count");
  BinaryWriter w;
  w.u64(epoch);
  for (const auto c : crcs) w.u32(c);
  w.u32(Crc32::of(w.buffer().data(), w.buffer().size()));
  const Bytes at = crc_block_offset(i);
  device_->write(at, w.buffer());
  device_->persist(at, crc_block_size());
}

MIndex::PayloadCheck MIndex::check_payload(int i, Scrub scrub) const {
  PayloadCheck check;
  auto block = payload_crcs(i);
  if (!block.has_value()) {
    check.block_fault = "missing or torn";
  } else if (block->epoch != slot(i).epoch) {
    check.block_fault = "stale";
  } else {
    check.crcs = std::move(block->crcs);
    check.bad_tensors = failing_tensors(slot(i).data_offset, check.crcs, scrub);
  }
  return check;
}

std::vector<std::size_t> MIndex::failing_tensors(Bytes data_offset,
                                                 const std::vector<std::uint32_t>& crcs,
                                                 Scrub scrub) const {
  std::vector<std::size_t> bad;
  if (scrub == Scrub::kNone) return bad;
  for (std::size_t t = 0; t < tensors_.size(); ++t) {
    const auto& tensor = tensors_[t];
    if (device_->crc(data_offset + tensor.offset_in_slot, tensor.size) == crcs[t]) continue;
    bad.push_back(t);
    if (scrub == Scrub::kFirstBad) break;
  }
  return bad;
}

Corruption MIndex::payload_corruption(int i, const PayloadCheck& check, const char* op) const {
  if (check.block_fault != nullptr) {
    return Corruption(strf("payload-CRC block for {} slot {} is {} at epoch {}", model_name_, i,
                           check.block_fault, slot(i).epoch));
  }
  return Corruption(strf("tensor {} of {} failed its payload CRC on {}",
                         tensors_[check.bad_tensors.front()].name, model_name_, op));
}

std::vector<ChunkSpan> MIndex::chunk_spans(Bytes chunk_bytes) const {
  std::vector<ChunkSpan> spans;
  for (std::size_t t = 0; t < tensors_.size(); ++t) {
    const auto& tensor = tensors_[t];
    if (tensor.size == 0) {
      // Zero-length tensor (e.g. an empty buffer slot): exactly one empty
      // span, so per-tensor CRC coverage bookkeeping still sees it.
      spans.push_back(ChunkSpan{.tensor = t,
                                .offset = 0,
                                .offset_in_slot = tensor.offset_in_slot,
                                .len = 0});
      continue;
    }
    Bytes off = 0;
    do {
      const Bytes len = chunk_bytes == 0 ? tensor.size
                                         : std::min(chunk_bytes, tensor.size - off);
      spans.push_back(ChunkSpan{.tensor = t,
                                .offset = off,
                                .offset_in_slot = tensor.offset_in_slot + off,
                                .len = len});
      off += len;
    } while (off < tensor.size);
  }
  return spans;
}

int MIndex::pick_write_slot() const {
  const auto latest = latest_done_slot();
  if (!latest.has_value()) return 0;
  return 1 - *latest;
}

std::optional<int> MIndex::latest_done_slot() const {
  std::optional<int> best;
  for (int i = 0; i < 2; ++i) {
    const auto& s = slots_[static_cast<std::size_t>(i)];
    if (s.state != SlotState::kDone) continue;
    if (!best.has_value() || s.epoch > slots_[static_cast<std::size_t>(*best)].epoch) {
      best = i;
    }
  }
  return best;
}

std::uint32_t MIndex::layout_crc() const {
  Crc32 crc;
  crc.update(&slot_size_, sizeof slot_size_);
  for (const auto& t : tensors_) {
    crc.update(&t.offset_in_slot, sizeof t.offset_in_slot);
    crc.update(&t.size, sizeof t.size);
  }
  return crc.value();
}

std::uint64_t MIndex::max_epoch() const {
  return std::max(slots_[0].epoch, slots_[1].epoch);
}

void MIndex::set_slot(int i, SlotState state, std::uint64_t epoch) {
  auto& slot = slots_.at(static_cast<std::size_t>(i));
  slot.state = state;
  slot.epoch = epoch;
  persist_slot_header(i);
}

void MIndex::clear_slot(int i) {
  auto& slot = slots_.at(static_cast<std::size_t>(i));
  slot = SlotHeader{};
  persist_slot_header(i);
}

void MIndex::ensure_slot(int i, PmemAllocator& allocator) {
  auto& slot = slots_.at(static_cast<std::size_t>(i));
  if (slot.data_offset != 0) return;
  slot = SlotHeader{.state = SlotState::kEmpty, .epoch = 0,
                    .data_offset = allocator.alloc(slot_size_)};
  persist_slot_header(i);
}

void MIndex::persist_slot_header(int i) {
  const Bytes at = record_offset_ + kSlot0Offset + static_cast<Bytes>(i) * kSlotHeaderSize;
  device_->write(at, encode_slot_header(slots_[static_cast<std::size_t>(i)]));
  device_->persist(at, kSlotHeaderSize);
}

void MIndex::destroy(PmemAllocator& allocator) {
  for (const auto& slot : slots_) {
    // A torn slot header recovered as EMPTY has lost its data_offset; its
    // extent is reclaimed by the repacker instead.
    if (slot.data_offset != 0) allocator.free(slot.data_offset);
  }
  allocator.free(record_offset_);
  slots_.clear();
  tensors_.clear();
}

}  // namespace portus::core
