#include "core/cluster/placement.h"

#include <algorithm>
#include <charconv>

#include "common/error.h"
#include "common/strformat.h"

namespace portus::core::cluster {

std::uint64_t Placement::fnv1a(std::span<const std::byte> data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const auto b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  std::byte raw[8];
  for (int i = 0; i < 8; ++i) raw[i] = static_cast<std::byte>(v >> (8 * i));
  return Placement::fnv1a(raw, h);
}

std::uint64_t hash_str(std::uint64_t h, const std::string& s) {
  return Placement::fnv1a(std::as_bytes(std::span{s.data(), s.size()}), h);
}

}  // namespace

Placement::Plan Placement::compute_over(const std::string& model_name,
                                        std::span<const Bytes> tensor_sizes,
                                        std::uint32_t shard_count,
                                        std::uint32_t ring_size,
                                        std::span<const std::uint32_t> active,
                                        std::uint32_t replicas) {
  PORTUS_CHECK_ARG(shard_count >= 1, "placement needs at least one shard");
  PORTUS_CHECK_ARG(!active.empty(), "placement needs at least one active member");
  PORTUS_CHECK_ARG(!tensor_sizes.empty(), "placement over an empty model");
  PORTUS_CHECK_ARG(replicas >= 1, "replication factor must be >= 1");
  for (const auto pos : active) {
    PORTUS_CHECK_ARG(pos < ring_size, "active member position outside the ring");
  }

  Plan plan;
  plan.shard_count = shard_count;
  plan.replicas = std::min(replicas, static_cast<std::uint32_t>(active.size()));
  plan.shard_tensors.resize(shard_count);
  plan.shard_bytes.assign(shard_count, 0);

  // Contiguous byte-quantile cut: tensor t joins the shard holding the
  // midpoint of its bytes, floor(k * (prefix_t + size_t / 2) / T), so each
  // cut falls on the tensor boundary nearest s*T/k. Midpoints ascend with
  // t, so every shard is one ascending run of adjacent tensors and holds at
  // most T/k plus its largest tensor. 128-bit math: k * T overflows u64 for
  // a large model cut many ways. An all-zero model is cut by index.
  // Depends only on (sizes, shard_count): a shard's tensor set is stable
  // across membership epochs, so migration moves whole shard copies and
  // never re-cuts a model.
  using u128 = unsigned __int128;
  u128 total = 0;
  for (const auto b : tensor_sizes) total += b;
  const bool by_index = total == 0;
  if (by_index) total = tensor_sizes.size();
  u128 prefix = 0;
  for (std::uint32_t t = 0; t < tensor_sizes.size(); ++t) {
    const u128 size = by_index ? 1 : tensor_sizes[t];
    const u128 quantile = shard_count * (2 * prefix + size) / (2 * total);
    const auto s = static_cast<std::uint32_t>(std::min<u128>(quantile, shard_count - 1));
    plan.shard_tensors[s].push_back(t);
    plan.shard_bytes[s] += tensor_sizes[t];
    prefix += size;
  }

  plan.shard_daemons = shard_homes(model_name, shard_count, active, replicas);
  return plan;
}

std::vector<std::vector<std::uint32_t>> Placement::shard_homes(
    const std::string& model_name, std::uint32_t shard_count,
    std::span<const std::uint32_t> active, std::uint32_t replicas) {
  PORTUS_CHECK_ARG(!active.empty(), "placement needs at least one active member");
  const auto targets = static_cast<std::uint32_t>(active.size());
  replicas = std::min(replicas, targets);
  // Ring walk over the *active* members: shard k's primary at the
  // (rot+k)-th active position, replicas on the next R-1. The rotation,
  // hashed from the name, spreads different models across the ring (the
  // trailing 0 word keeps every model's rotation what it has always been).
  const auto rot = static_cast<std::uint32_t>(
      hash_u64(hash_str(0xcbf29ce484222325ull, model_name), 0) % targets);
  std::vector<std::vector<std::uint32_t>> homes(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    for (std::uint32_t r = 0; r < replicas; ++r) {
      homes[s].push_back(active[(rot + s + r) % targets]);
    }
  }
  return homes;
}

std::string shard_key(const std::string& model_name, std::uint32_t shard_id) {
  return strf("{}#s{}", model_name, shard_id);
}

std::optional<std::pair<std::string, std::uint32_t>> parse_shard_key(const std::string& key) {
  const auto cut = key.rfind("#s");
  if (cut == std::string::npos) return std::nullopt;
  std::uint32_t shard = 0;
  const auto ec = std::from_chars(key.data() + cut + 2, key.data() + key.size(), shard).ec;
  std::string model = key.substr(0, cut);
  if (ec != std::errc{} || shard_key(model, shard) != key) return std::nullopt;
  return std::pair{std::move(model), shard};
}

}  // namespace portus::core::cluster
