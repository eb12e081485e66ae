#include "gpu/gpu_device.h"

#include <algorithm>

namespace portus::gpu {

GpuSpec GpuSpec::v100() {
  return GpuSpec{
      .model = "NVIDIA V100",
      .memory = 32_GiB,
      .dtoh_pageable = Bandwidth::gb_per_sec(4.1),
      .dtoh_pinned = Bandwidth::gb_per_sec(11.0),
      .htod = Bandwidth::gb_per_sec(10.5),
      .bar_read_limit = Bandwidth::gb_per_sec(5.8),
      .peer_write_limit = Bandwidth::gb_per_sec(10.0),
  };
}

GpuSpec GpuSpec::a40() {
  return GpuSpec{
      .model = "NVIDIA A40",
      .memory = 48_GiB,
      .dtoh_pageable = Bandwidth::gb_per_sec(4.3),
      .dtoh_pinned = Bandwidth::gb_per_sec(12.0),
      .htod = Bandwidth::gb_per_sec(11.5),
      .bar_read_limit = Bandwidth::gb_per_sec(5.8),
      .peer_write_limit = Bandwidth::gb_per_sec(10.5),
  };
}

GpuSpec GpuSpec::of(GpuKind kind) {
  switch (kind) {
    case GpuKind::kV100: return v100();
    case GpuKind::kA40: return a40();
  }
  throw InvalidArgument("unknown GPU kind");
}

void DeviceBuffer::upload(std::span<const std::byte> host_data) {
  PORTUS_CHECK_ARG(valid(), "upload to invalid buffer");
  PORTUS_CHECK_ARG(host_data.size() <= size_, "upload larger than buffer");
  if (phantom_) return;
  segment_->write(offset_, host_data);
}

std::vector<std::byte> DeviceBuffer::download() const {
  PORTUS_CHECK_ARG(valid(), "download from invalid buffer");
  if (phantom_) return std::vector<std::byte>(size_);
  return segment_->read(offset_, size_);
}

std::uint32_t DeviceBuffer::crc() const {
  PORTUS_CHECK_ARG(valid(), "crc of invalid buffer");
  if (phantom_) return 0;
  return segment_->crc(offset_, size_);
}

GpuDevice::GpuDevice(sim::Engine& engine, mem::AddressSpace& addr_space, std::string name,
                     GpuKind kind)
    : engine_{engine}, name_{std::move(name)}, spec_{GpuSpec::of(kind)} {
  memory_ = addr_space.create_segment(name_ + "/hbm", mem::MemoryKind::kGpu, spec_.memory);
  // PCIe 4.0 x16 link: ~32 GB/s raw; effective DMA engine limit ~24 GB/s.
  pcie_ = std::make_unique<sim::BandwidthChannel>(engine, Bandwidth::gb_per_sec(24.0),
                                                  name_ + "/pcie");
}

DeviceBuffer GpuDevice::alloc(Bytes size, bool phantom) {
  const Bytes aligned = footprint(size);
  if (next_offset_ + aligned > memory_->size()) {
    throw ResourceExhausted("GPU " + name_ + " out of device memory");
  }
  const Bytes offset = next_offset_;
  next_offset_ += aligned;
  return DeviceBuffer{memory_.get(), offset, size, phantom};
}

void GpuDevice::mark_compute_busy(Duration d) {
  if (d <= kZeroDuration) return;
  const Time start = engine_.now();
  const Time end = start + d;
  if (!busy_.empty() && busy_.back().second >= start) {
    busy_.back().second = std::max(busy_.back().second, end);
  } else {
    busy_.emplace_back(start, end);
  }
}

Duration GpuDevice::busy_within(Time from, Time to) const {
  Duration total{0};
  for (const auto& [s, e] : busy_) {
    if (e <= from) continue;
    if (s >= to) break;
    total += std::min(e, to) - std::max(s, from);
  }
  return total;
}

double GpuDevice::utilization(Time from, Time to) const {
  if (to <= from) return 0.0;
  return to_seconds(busy_within(from, to)) / to_seconds(to - from);
}

}  // namespace portus::gpu
