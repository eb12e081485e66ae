// Placement: which daemon owns which tensors of a sharded model.
//
// The model is cut into `shard_count` contiguous, byte-balanced tensor
// ranges: tensor t goes to the shard holding the midpoint of its bytes, so
// shard s is one ascending run of adjacent tensors whose cuts fall on the
// tensor boundaries nearest s*T/k (T = model bytes, k = shards). The client
// lays a model out back to back, so each shard copy is one PeerMem pin and
// one MR. No shard exceeds T/k plus the largest tensor, and a shard is
// empty when one tensor spans more than T/k. Shard k's copies live on the
// active ring positions rot+k, rot+k+1, ... rot+k+R-1, where the rotation
// derives from an FNV hash of the model name so concurrent tenants do not
// all hammer daemon 0.
//
// Everything is a pure function of (model name, tensor sizes, shard count,
// active ring positions, replication factor) — two processes that agree on
// the ring config compute byte-identical plans, so restore after a full
// client restart needs no metadata service: the client just recomputes
// where its shards are. The shards' homes alone need no tensor sizes
// (shard_homes), which is how the elastic migrator re-homes the shard
// copies it finds on the daemons.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace portus::core::cluster {

struct Placement {
  struct Plan {
    // Number of shards the model is cut into. A static ring uses one shard
    // per daemon; an elastic cluster fixes this at registration (e.g. 8) so
    // the same shards can be re-homed as the ring resizes without re-cutting
    // the model (a shard's tensor set is a pure function of (sizes,
    // shard_count), so it survives every membership epoch).
    std::uint32_t shard_count = 0;
    std::uint32_t replicas = 0;
    // shard id -> tensor indices: one ascending contiguous range, before
    // shard s+1's (registration order within the shard is the model's
    // tensor order, so a shard's MIndex layout is itself deterministic).
    std::vector<std::vector<std::uint32_t>> shard_tensors;
    // shard id -> daemon ring positions holding a copy, primary first.
    std::vector<std::vector<std::uint32_t>> shard_daemons;
    // shard id -> payload bytes: what its checkpoint pulls and its restore
    // pushes.
    std::vector<Bytes> shard_bytes;
  };

  // Place `shard_count` shards over the subset of a `ring_size`-position
  // ring listed in `active` (ascending ring positions, e.g.
  // Membership::active_positions(); a static ring lists every position).
  // Shard k's copies land as shard_homes() says. `replicas` is clamped to
  // the active count (cannot place two copies of one shard on the same
  // daemon). Zero-size tensors are legal and join the shard their offset
  // falls in.
  static Plan compute_over(const std::string& model_name,
                           std::span<const Bytes> tensor_sizes,
                           std::uint32_t shard_count, std::uint32_t ring_size,
                           std::span<const std::uint32_t> active, std::uint32_t replicas);

  // The ring walk alone: shard k's copies, primary first, on
  // active[(rot + k + r) % active.size()] for r < min(replicas,
  // active.size()), rot hashed from the model name. Values are *ring*
  // positions, so they stay meaningful as members join and drain.
  static std::vector<std::vector<std::uint32_t>> shard_homes(
      const std::string& model_name, std::uint32_t shard_count,
      std::span<const std::uint32_t> active, std::uint32_t replicas);

  // 64-bit FNV-1a (the ring-rotation hash).
  static std::uint64_t fnv1a(std::span<const std::byte> data,
                             std::uint64_t seed = 0xcbf29ce484222325ull);
};

// The shard-scoped ModelTable key: one daemon may host several shard copies
// of the same model (its own primary plus replicas of neighbours), and each
// copy gets its own MIndex under this key. Replicas of the same shard use
// the same key on *different* daemons, which is what lets a degraded
// restore re-target a replica without any renaming.
std::string shard_key(const std::string& model_name, std::uint32_t shard_id);

// The inverse: the (model, shard) a key names when it is exactly
// shard_key(model, shard), else nullopt (an unsharded model's key). Model
// names may hold "#s" themselves, so the key is cut at its last one.
std::optional<std::pair<std::string, std::uint32_t>> parse_shard_key(const std::string& key);

}  // namespace portus::core::cluster
