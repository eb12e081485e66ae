// Simulated GPU: device memory, a buffer allocator, a compute-occupancy
// tracker (for the Fig. 16 utilization traces), and the PCIe/BAR
// characteristics the Portus datapath depends on.
//
// The property central to the paper's Fig. 10: remote reads of GPU memory
// (server-initiated one-sided RDMA READ through NVIDIA PeerMem) go through
// the PCIe Base Address Register window, which disables prefetching, capping
// read bandwidth at ~5.8 GB/s on this hardware; writes into GPU memory are
// not affected by the BAR unit and run at full path speed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "mem/address_space.h"
#include "mem/segment.h"
#include "sim/bandwidth_channel.h"
#include "sim/engine.h"

namespace portus::gpu {

enum class GpuKind : std::uint8_t { kV100, kA40 };

struct GpuSpec {
  const char* model;
  Bytes memory;
  // Host<->device copy bandwidths over PCIe (what cudaMemcpy achieves).
  Bandwidth dtoh_pageable;  // torch.save path: pageable staging buffers
  Bandwidth dtoh_pinned;
  Bandwidth htod;
  // Peer-to-peer RDMA limits through the NIC (NVIDIA PeerMem).
  Bandwidth bar_read_limit;   // remote READ of GPU memory (BAR, no prefetch)
  Bandwidth peer_write_limit; // remote WRITE into GPU memory (unaffected)

  static GpuSpec v100();
  static GpuSpec a40();
  static GpuSpec of(GpuKind kind);
};

// A range of device memory. `phantom` buffers take part in every control
// path and timing model but move no real bytes — used for >10 GiB models
// whose payloads would not fit in host RAM during simulation.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(mem::MemorySegment* segment, Bytes offset, Bytes size, bool phantom)
      : segment_{segment}, offset_{offset}, size_{size}, phantom_{phantom} {}

  bool valid() const { return segment_ != nullptr; }
  Bytes size() const { return size_; }
  Bytes offset() const { return offset_; }
  bool phantom() const { return phantom_; }
  std::uint64_t global_addr() const { return segment_->base_addr() + offset_; }
  mem::MemorySegment& segment() const { return *segment_; }

  // Host-side accessors (the simulated cudaMemcpy data plane; timing is the
  // copy engine's concern). No-ops on phantom buffers.
  void upload(std::span<const std::byte> host_data);
  std::vector<std::byte> download() const;
  std::uint32_t crc() const;

 private:
  mem::MemorySegment* segment_ = nullptr;
  Bytes offset_ = 0;
  Bytes size_ = 0;
  bool phantom_ = false;
};

class GpuDevice {
 public:
  GpuDevice(sim::Engine& engine, mem::AddressSpace& addr_space, std::string name, GpuKind kind);

  const std::string& name() const { return name_; }
  const GpuSpec& spec() const { return spec_; }
  sim::Engine& engine() { return engine_; }

  // Bump allocation of device memory (DNN frameworks pre-allocate tensors
  // once per training job; nothing in the reproduction frees mid-job).
  // Each buffer takes footprint(size) bytes, so consecutive allocations
  // sit back to back: the next one starts right after this one's pad.
  DeviceBuffer alloc(Bytes size, bool phantom = false);
  // CUDA allocation granularity (simplified).
  static constexpr Bytes kAllocGranule = 512;
  static constexpr Bytes footprint(Bytes size) {
    return (size + kAllocGranule - 1) & ~(kAllocGranule - 1);
  }
  Bytes allocated() const { return next_offset_; }
  Bytes capacity() const { return memory_->size(); }

  mem::MemorySegment& memory() { return *memory_; }

  // PCIe link shared by all copies touching this GPU.
  sim::BandwidthChannel& pcie() { return *pcie_; }

  // --- compute occupancy (Fig. 16 GPU utilization traces) ---
  // Mark the SMs busy for [now, now+d). Overlapping marks are merged.
  void mark_compute_busy(Duration d);
  // Busy time within [from, to).
  Duration busy_within(Time from, Time to) const;
  double utilization(Time from, Time to) const;

 private:
  sim::Engine& engine_;
  std::string name_;
  GpuSpec spec_;
  std::shared_ptr<mem::MemorySegment> memory_;
  std::unique_ptr<sim::BandwidthChannel> pcie_;
  Bytes next_offset_ = 0;
  std::vector<std::pair<Time, Time>> busy_;  // sorted, non-overlapping
};

}  // namespace portus::gpu
