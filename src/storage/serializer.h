// Portable checkpoint container format ("PTCK").
//
// This is the torch.save()-equivalent the baselines pay for on every
// checkpoint and that Portusctl emits when exporting a model out of PMEM for
// sharing (SS IV-b). Layout (little-endian):
//
//   u32 magic 'PTCK' | u16 version | str model_name | u32 tensor_count
//   per tensor: str name | u8 dtype | u32 ndim | i64 dims... |
//               u64 payload_len | payload | u32 payload_crc
//   u32 container_crc (over everything before it)
//
// Deserialization validates magic, version, both CRC levels, and bounds;
// failures throw portus::Corruption.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "dnn/model.h"
#include "dnn/tensor.h"

namespace portus::storage {

struct SerializedTensor {
  dnn::TensorMeta meta;
  std::vector<std::byte> data;
};

struct CheckpointFile {
  std::string model_name;
  std::vector<SerializedTensor> tensors;
};

class CheckpointSerializer {
 public:
  static constexpr std::uint32_t kMagic = 0x4B435450;  // "PTCK"
  static constexpr std::uint16_t kVersion = 1;

  static std::vector<std::byte> serialize(const CheckpointFile& file);
  static CheckpointFile deserialize(std::span<const std::byte> bytes);

  // Size the container would have for a model without materializing it
  // (phantom baselines need the file size for timing).
  static Bytes container_size(const dnn::Model& model);
};

}  // namespace portus::storage
