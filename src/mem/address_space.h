// Global 64-bit address space shared by every simulated device.
//
// The real Portus daemon passes raw pointers around: GPU addresses inside
// RDMA memory-region descriptors, and "persistent pointers" (paddr) inside
// MIndex records. To mirror that, each MemorySegment is assigned a unique,
// non-overlapping base address here, and components exchange plain integers
// that this registry can resolve back to (segment, offset).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "mem/segment.h"

namespace portus::mem {

class AddressSpace {
 public:
  AddressSpace() = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Create and register a segment of `size` bytes. Segments are aligned to
  // 4 KiB and separated by an unmapped guard gap so that off-by-one global
  // addresses never silently resolve into a neighbouring device.
  std::shared_ptr<MemorySegment> create_segment(std::string name, MemoryKind kind, Bytes size);

  // Register an externally-constructed segment subclass (e.g. PmemDevice).
  // The factory is given the assigned base address.
  template <typename SegmentT, typename... Args>
  std::shared_ptr<SegmentT> create(std::string name, Bytes size, Args&&... args) {
    const std::uint64_t base = reserve(size);
    auto seg = std::make_shared<SegmentT>(std::move(name), size, base,
                                          std::forward<Args>(args)...);
    segments_.push_back(seg);
    return seg;
  }

  // Resolve a global address range to its owning segment; throws
  // portus::ProtectionFault when the range is unmapped or straddles segments.
  MemorySegment& resolve(std::uint64_t addr, Bytes len) const;

 private:
  std::uint64_t reserve(Bytes size);

  static constexpr std::uint64_t kBase = 0x1000'0000ull;
  static constexpr std::uint64_t kAlign = 4096;
  static constexpr std::uint64_t kGuardGap = 1_MiB;

  std::uint64_t next_base_ = kBase;
  std::vector<std::shared_ptr<MemorySegment>> segments_;
};

}  // namespace portus::mem
