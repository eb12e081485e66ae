#include "core/daemon/allocator.h"

#include <algorithm>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/error.h"

namespace portus::core {

namespace {
constexpr std::uint64_t kHeaderMagic = 0x504F525453483031ull;  // "PORTSH01"

// Adaptive refill: EWMA smoothing of per-shard refill-to-refill demand and
// the clamp ceiling relative to the configured refill_bytes floor.
constexpr double kRefillEwmaAlpha = 0.25;
constexpr Bytes kRefillMaxScale = 8;

// No-hint sentinel for the ScopedHome thread-local (see preferred_shard).
constexpr std::uint64_t kNoHome = ~0ull;
thread_local std::uint64_t tls_home_shard = kNoHome;
}  // namespace

PmemAllocator::ScopedHome::ScopedHome(std::uint32_t shard) : prev_{tls_home_shard} {
  tls_home_shard = shard;
}

PmemAllocator::ScopedHome::~ScopedHome() { tls_home_shard = prev_; }

PmemAllocator::PmemAllocator(pmem::PmemDevice& device, Config config)
    : device_{device}, config_{config} {
  PORTUS_CHECK_ARG(config_.data_offset < config_.data_end, "empty allocator heap");
  PORTUS_CHECK_ARG(config_.data_end <= device.size(), "heap exceeds device");
  PORTUS_CHECK_ARG(config_.shards >= 1, "allocator needs at least one shard");
  PORTUS_CHECK_ARG(config_.shards <= config_.table_capacity,
                   "more shards than AllocTable entries");
  per_shard_capacity_ = config_.table_capacity / config_.shards;
  PORTUS_CHECK_ARG(
      config_.table_offset + kHeaderSize +
              static_cast<Bytes>(config_.shards) * per_shard_capacity_ * kEntrySize <=
          config_.data_offset,
      "AllocTable overlaps the heap");
  PORTUS_CHECK_ARG(config_.numa_nodes >= 1, "numa_nodes must be at least 1");
  PORTUS_CHECK_ARG(config_.numa_nodes <= config_.shards,
                   "need at least one shard per NUMA node");
  PORTUS_CHECK_ARG(config_.numa_nodes == 1 || config_.numa_nodes == device.numa_nodes(),
                   "allocator numa_nodes must match the device topology");
  PORTUS_CHECK_ARG(config_.size_class_small > 0 &&
                       config_.size_class_small < config_.size_class_large,
                   "size classes need 0 < size_class_small < size_class_large");
  // One bump arena per node: the heap's intersection with the device's node
  // slice, so the allocator's placement map agrees with PmemDevice::node_of.
  arenas_.reserve(config_.numa_nodes);
  for (std::uint32_t n = 0; n < config_.numa_nodes; ++n) {
    auto ar = std::make_unique<NodeArena>();
    if (config_.numa_nodes == 1) {
      ar->base = config_.data_offset;
      ar->end = config_.data_end;
    } else {
      const auto [lo, hi] = device.node_range(n);
      ar->base = align_up(std::max(config_.data_offset, lo));
      ar->end = std::min(config_.data_end, hi);
      PORTUS_CHECK_ARG(ar->base < ar->end, "heap slice empty on a NUMA node");
    }
    ar->bump.store(ar->base, std::memory_order_relaxed);
    arenas_.push_back(std::move(ar));
  }
  shards_.reserve(config_.shards);
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->node = node_of_shard(s);
    sh->entries.reserve(per_shard_capacity_);
    for (std::uint32_t i = 0; i < per_shard_capacity_; ++i) {
      sh->entries.push_back(std::make_unique<Entry>());
    }
    shards_.push_back(std::move(sh));
  }
  // A fresh (or foreign-geometry) device gets a fresh header; a matching
  // one is left untouched so recover() can trust the image beneath it.
  if (!header_matches()) write_header();
}

std::uint32_t PmemAllocator::node_of_offset(Bytes offset) const {
  for (std::uint32_t n = 0; n + 1 < arenas_.size(); ++n) {
    if (offset < arenas_[n + 1]->base) return n;
  }
  return static_cast<std::uint32_t>(arenas_.size() - 1);
}

Bytes PmemAllocator::consumed_bytes() const {
  Bytes total = 0;
  for (const auto& ar : arenas_) {
    total += ar->bump.load(std::memory_order_relaxed) - ar->base;
  }
  return total;
}

void PmemAllocator::write_header() {
  BinaryWriter w;
  w.u64(kHeaderMagic);
  w.u32(config_.shards);
  w.u32(per_shard_capacity_);
  w.u64(config_.data_offset);
  w.u64(config_.data_end);
  w.u64(kAlignment);
  w.u64(config_.refill_bytes);  // informational: runtime policy, not geometry
  // NUMA partition count, in the formerly-reserved slot. A flat heap writes
  // 0 — the exact bytes the classic header wrote — so numa_nodes=1 images
  // stay bit-identical and old images validate under new code.
  w.u64(config_.numa_nodes > 1 ? config_.numa_nodes : 0);
  w.u32(Crc32::of(w.buffer().data(), w.buffer().size()));
  w.u32(0);  // pad to kHeaderSize
  device_.write(config_.table_offset, w.buffer());
  device_.persist(config_.table_offset, kHeaderSize);
}

bool PmemAllocator::header_matches() const {
  const auto raw = device_.read(config_.table_offset, kHeaderSize);
  BinaryReader r{raw};
  const auto magic = r.u64();
  const auto shards = r.u32();
  const auto per_shard = r.u32();
  const auto data_offset = r.u64();
  const auto data_end = r.u64();
  const auto alignment = r.u64();
  r.u64();  // refill policy
  const auto numa = r.u64();  // partition count (0 = classic flat header)
  const auto crc = r.u32();
  if (crc != Crc32::of(raw.data(), 56)) return false;
  // Partitioning IS geometry: recover() splits the heap by it. A flat
  // config accepts 0 (what it writes) or 1; a partitioned one must match.
  const bool numa_ok = config_.numa_nodes > 1 ? numa == config_.numa_nodes
                                              : numa == 0 || numa == 1;
  return magic == kHeaderMagic && shards == config_.shards &&
         per_shard == per_shard_capacity_ && data_offset == config_.data_offset &&
         data_end == config_.data_end && alignment == kAlignment && numa_ok;
}

// --- quiesce guard ----------------------------------------------------------

PmemAllocator::OpGuard::OpGuard(const PmemAllocator& a) : a_{a} {
  a_.active_ops_.fetch_add(1, std::memory_order_acq_rel);
  if (a_.paused_.load(std::memory_order_acquire) && !a_.quiesced_by_me()) {
    a_.active_ops_.fetch_sub(1, std::memory_order_acq_rel);
    throw InvalidArgument("allocator quiesced for maintenance (repack/fsck in flight)");
  }
}

PmemAllocator::OpGuard::~OpGuard() {
  a_.active_ops_.fetch_sub(1, std::memory_order_acq_rel);
}

void PmemAllocator::quiesce_acquire() {
  const auto me = std::this_thread::get_id();
  if (paused_.load(std::memory_order_acquire) &&
      pause_owner_.load(std::memory_order_acquire) == me) {
    ++pause_depth_;  // re-entrant: compact() inside a repacker Pause
    return;
  }
  bool expected = false;
  while (!paused_.compare_exchange_weak(expected, true, std::memory_order_acq_rel)) {
    expected = false;
    std::this_thread::yield();
  }
  pause_owner_.store(me, std::memory_order_release);
  pause_depth_ = 1;
  // Drain ops that raced past the flag before it flipped.
  while (active_ops_.load(std::memory_order_acquire) != 0) std::this_thread::yield();
}

void PmemAllocator::quiesce_release() {
  if (--pause_depth_ > 0) return;
  pause_owner_.store(std::thread::id{}, std::memory_order_release);
  paused_.store(false, std::memory_order_release);
}

bool PmemAllocator::quiesced_by_me() const {
  return paused_.load(std::memory_order_acquire) &&
         pause_owner_.load(std::memory_order_acquire) == std::this_thread::get_id();
}

// --- offset index -----------------------------------------------------------

void PmemAllocator::map_insert(Bytes offset, std::uint32_t shard, std::uint32_t index) {
  auto& b = bucket_for(offset);
  std::lock_guard<std::mutex> lk{b.mu};
  b.loc[offset] = (static_cast<std::uint64_t>(shard) << 32) | index;
}

void PmemAllocator::map_erase(Bytes offset) {
  auto& b = bucket_for(offset);
  std::lock_guard<std::mutex> lk{b.mu};
  b.loc.erase(offset);
}

std::optional<std::pair<std::uint32_t, std::uint32_t>> PmemAllocator::map_find(
    Bytes offset) const {
  auto& b = bucket_for(offset);
  std::lock_guard<std::mutex> lk{b.mu};
  const auto it = b.loc.find(offset);
  if (it == b.loc.end()) return std::nullopt;
  return std::make_pair(static_cast<std::uint32_t>(it->second >> 32),
                        static_cast<std::uint32_t>(it->second & 0xFFFFFFFFu));
}

// --- persistence ------------------------------------------------------------

void PmemAllocator::persist_entry(std::uint32_t shard, std::uint32_t index) {
  const Entry& e = *shards_[shard]->entries[index];
  // Write-through races with a concurrent claim/free of the same entry:
  // free() may persist FREE while an alloc() that just reused the extent
  // persists LIVE, and whichever lands last would wedge the table out of
  // sync with the DRAM mirror. Re-persist until the state we wrote is
  // still the live state — the loser of the CAS race re-writes the
  // winner's state, so the table always converges to the mirror. The
  // shard persist lock keeps the racing device writes themselves ordered
  // (see the persist_mu comment in the header).
  std::lock_guard<std::mutex> persist_lk{shards_[shard]->persist_mu};
  while (true) {
    const auto state = e.state.load(std::memory_order_acquire);
    BinaryWriter w;
    w.u64(e.offset);
    w.u64(e.size);
    w.u32(state);
    w.u32(Crc32::of(w.buffer().data(), w.buffer().size()));
    device_.write(table_slot_offset(shard, index), w.buffer());
    device_.persist(table_slot_offset(shard, index), kEntrySize);
    if (e.state.load(std::memory_order_acquire) == state) return;
  }
}

// --- allocation -------------------------------------------------------------

std::uint32_t PmemAllocator::preferred_shard() const {
  if (tls_home_shard != kNoHome) {
    return static_cast<std::uint32_t>(tls_home_shard % config_.shards);
  }
  if (config_.shards == 1) return 0;
  return static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                                    config_.shards);
}

std::optional<Bytes> PmemAllocator::claim_free_extent(std::uint32_t shard, Bytes size) {
  Shard& sh = *shards_[shard];
  const auto count = sh.entry_count.load(std::memory_order_acquire);
  const int want = class_of(size);
  std::uint64_t steps = 0;
  // First fit within the request's size class, then the larger classes —
  // a small request no longer burns a large extent while class-mates are
  // free (the mixed-size over-grant).
  for (int cls = want; cls < kSizeClasses; ++cls) {
    if (sh.free_by_class[cls].load(std::memory_order_relaxed) <= 0) {
      continue;  // advisory skip; see the counter comment in the header
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      Entry& e = *sh.entries[i];
      if (e.size < size || e.size == 0) continue;
      if (class_of(e.size) != cls) continue;
      ++steps;
      auto expected = static_cast<std::uint32_t>(AllocState::kFree);
      if (e.state.compare_exchange_strong(expected,
                                          static_cast<std::uint32_t>(AllocState::kClaimed),
                                          std::memory_order_acq_rel)) {
        e.state.store(static_cast<std::uint32_t>(AllocState::kLive),
                      std::memory_order_release);
        sh.free_by_class[cls].fetch_sub(1, std::memory_order_relaxed);
        sh.scan_steps.fetch_add(steps, std::memory_order_relaxed);
        persist_entry(shard, i);
        return e.offset;
      }
    }
  }
  if (steps > 0) sh.scan_steps.fetch_add(steps, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<Bytes> PmemAllocator::reserve_from_node(std::uint32_t node, Bytes chunk) {
  NodeArena& ar = *arenas_[node];
  const Bytes base = ar.bump.fetch_add(chunk, std::memory_order_acq_rel);
  if (base + chunk > ar.end) {
    ar.bump.fetch_sub(chunk, std::memory_order_acq_rel);
    return std::nullopt;
  }
  return base;
}

Bytes PmemAllocator::refill_chunk_size(Shard& sh, Bytes size) {
  Bytes want = config_.refill_bytes;
  if (config_.refill_bytes > 0) {
    // Fold the demand since the last refill into the EWMA, then size the
    // next chunk to it: a hot shard converges to one bump touch per EWMA
    // window instead of one per refill_bytes. The floor keeps cold shards
    // at the configured chunk; the ceiling bounds reservation waste (a
    // crash abandons at most the unconsumed tail as a sweepable gap).
    const double demand = static_cast<double>(sh.since_refill);
    sh.demand_ewma = sh.demand_ewma == 0.0
                         ? demand
                         : kRefillEwmaAlpha * demand +
                               (1.0 - kRefillEwmaAlpha) * sh.demand_ewma;
    sh.since_refill = 0;
    want = std::clamp(static_cast<Bytes>(sh.demand_ewma), config_.refill_bytes,
                      config_.refill_bytes * kRefillMaxScale);
  }
  return align_up(std::max(want, size));
}

void PmemAllocator::flush_reservation(std::uint32_t shard) {
  // Caller holds the shard's res_mu (alloc refill) or the quiesce pause.
  Shard& sh = *shards_[shard];
  const Bytes tail = sh.res_end - sh.res_cursor;
  if (tail == 0) return;
  const auto index = sh.entry_count.load(std::memory_order_acquire);
  if (index < per_shard_capacity_) {
    Entry& e = *sh.entries[index];
    e.offset = sh.res_cursor;
    e.size = tail;
    e.state.store(static_cast<std::uint32_t>(AllocState::kFree),
                  std::memory_order_release);
    sh.entry_count.store(index + 1, std::memory_order_release);
    note_free_entries(sh, tail, +1);
    map_insert(e.offset, shard, index);
    persist_entry(shard, index);
  }
  // Shard table full: the tail is abandoned as a heap gap; sweep_gaps()
  // re-adopts it on the next maintenance pass.
  sh.res_cursor = 0;
  sh.res_end = 0;
}

Bytes PmemAllocator::alloc(Bytes size) { return alloc_on(preferred_shard(), size); }

Bytes PmemAllocator::alloc_on(std::uint32_t shard, Bytes size) {
  PORTUS_CHECK_ARG(size > 0, "cannot allocate zero bytes");
  PORTUS_CHECK_ARG(shard < config_.shards, "shard index out of range");
  size = align_up(size);
  OpGuard guard{*this};
  Shard& sh = *shards_[shard];

  if (const auto off = claim_free_extent(shard, size)) {
    sh.reuse_hits.fetch_add(1, std::memory_order_relaxed);
    sh.allocs.fetch_add(1, std::memory_order_relaxed);
    return *off;
  }

  // Fresh space from the shard's reservation, refilled from its home node's
  // bump — falling over to the other nodes' bumps only once the home
  // partition is exhausted (counted as remote_refills: the reservation, and
  // every record carved from it, then lives on remote DIMMs).
  const char* fail = nullptr;
  {
    std::lock_guard<std::mutex> lk{sh.res_mu};
    if (sh.res_end - sh.res_cursor < size) {
      const Bytes chunk = refill_chunk_size(sh, size);
      bool refilled = false;
      const auto nodes = static_cast<std::uint32_t>(arenas_.size());
      for (std::uint32_t k = 0; k < nodes && !refilled; ++k) {
        const std::uint32_t n = (sh.node + k) % nodes;
        if (const auto base = reserve_from_node(n, chunk)) {
          // Publish the old reservation's tail before switching — its
          // persist is the mid-refill crash fence: a power cut leaves the
          // tail either still unpublished (a sweepable gap) or a tracked
          // FREE extent, never a range two shards both think they own.
          flush_reservation(shard);
          sh.res_cursor = *base;
          sh.res_end = *base + chunk;
          sh.refills.fetch_add(1, std::memory_order_relaxed);
          if (n != sh.node) sh.remote_refills.fetch_add(1, std::memory_order_relaxed);
          refilled = true;
        }
      }
      if (!refilled) fail = "PMEM heap exhausted (repack may reclaim space)";
    }
    if (fail == nullptr) {
      const auto index = sh.entry_count.load(std::memory_order_acquire);
      if (index >= per_shard_capacity_) {
        fail = "AllocTable shard full";
      } else {
        Entry& e = *sh.entries[index];
        e.offset = sh.res_cursor;
        e.size = size;
        e.state.store(static_cast<std::uint32_t>(AllocState::kLive),
                      std::memory_order_release);
        sh.res_cursor += size;
        sh.since_refill += size;
        sh.entry_count.store(index + 1, std::memory_order_release);
        map_insert(e.offset, shard, index);
        persist_entry(shard, index);
        sh.allocs.fetch_add(1, std::memory_order_relaxed);
        return e.offset;
      }
    }
  }

  // Slow path: steal a freed extent from another shard before giving up —
  // same-node shards first so spill stays socket-local; a cross-node claim
  // is counted and its persist traffic pays the modeled cross-socket tax
  // downstream (the pipeline tags flows by the offset's node).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t t = 0; t < config_.shards; ++t) {
      if (t == shard) continue;
      if ((shards_[t]->node == sh.node) != (pass == 0)) continue;
      if (const auto off = claim_free_extent(t, size)) {
        sh.steals.fetch_add(1, std::memory_order_relaxed);
        if (pass == 1) sh.cross_steals.fetch_add(1, std::memory_order_relaxed);
        sh.allocs.fetch_add(1, std::memory_order_relaxed);
        return *off;
      }
    }
  }
  throw ResourceExhausted(fail);
}

void PmemAllocator::free(Bytes offset) {
  OpGuard guard{*this};
  const auto loc = map_find(offset);
  if (!loc.has_value()) throw InvalidArgument("free of unknown PMEM offset");
  Shard& sh = *shards_[loc->first];
  Entry& e = *sh.entries[loc->second];
  PORTUS_CHECK(e.offset == offset && e.size > 0,
               "offset index out of sync with the AllocTable mirror");
  auto expected = static_cast<std::uint32_t>(AllocState::kLive);
  if (!e.state.compare_exchange_strong(expected,
                                       static_cast<std::uint32_t>(AllocState::kFree),
                                       std::memory_order_acq_rel)) {
    throw InvalidArgument("double free of PMEM extent");
  }
  note_free_entries(sh, e.size, +1);
  persist_entry(loc->first, loc->second);
  sh.frees.fetch_add(1, std::memory_order_relaxed);
}

// --- recovery / maintenance -------------------------------------------------

void PmemAllocator::recover() {
  Pause pause{*this};
  PORTUS_CHECK(header_matches(), "AllocTable header torn or geometry mismatch");
  for (auto& b : map_) {
    std::lock_guard<std::mutex> lk{b.mu};
    b.loc.clear();
  }
  // Per-node high-water marks: each partition's bump restarts at its base
  // and grows to the furthest valid entry inside it.
  for (auto& ar : arenas_) ar->bump.store(ar->base, std::memory_order_release);
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    Shard& sh = *shards_[s];
    std::lock_guard<std::mutex> lk{sh.res_mu};
    // A crash abandons any unpublished reservation tail; it resurfaces as
    // a heap gap for sweep_gaps(), never as a live reservation.
    sh.res_cursor = 0;
    sh.res_end = 0;
    sh.since_refill = 0;
    sh.demand_ewma = 0.0;
    for (auto& c : sh.free_by_class) c.store(0, std::memory_order_release);
    std::uint32_t count = 0;
    for (std::uint32_t i = 0; i < per_shard_capacity_; ++i) {
      Entry& e = *sh.entries[i];
      e.offset = 0;
      e.size = 0;
      e.state.store(static_cast<std::uint32_t>(AllocState::kFree),
                    std::memory_order_release);
      const auto raw = device_.read(table_slot_offset(s, i), kEntrySize);
      BinaryReader r{raw};
      const Bytes offset = r.u64();
      const Bytes size = r.u64();
      const auto state = r.u32();
      const auto crc = r.u32();
      if (crc != Crc32::of(raw.data(), 20)) continue;  // torn or never written
      if (size == 0) continue;                         // dead entry
      e.offset = offset;
      e.size = size;
      // A crash mid-allocation leaves CLAIMED; nothing can reference it yet,
      // so it recovers as FREE.
      const auto st = state == static_cast<std::uint32_t>(AllocState::kLive)
                          ? AllocState::kLive
                          : AllocState::kFree;
      e.state.store(static_cast<std::uint32_t>(st), std::memory_order_release);
      if (st == AllocState::kFree) note_free_entries(sh, size, +1);
      map_insert(offset, s, i);
      NodeArena& ar = *arenas_[node_of_offset(offset)];
      if (offset + size > ar.bump.load(std::memory_order_relaxed)) {
        ar.bump.store(offset + size, std::memory_order_release);
      }
      count = std::max(count, i + 1);
    }
    sh.entry_count.store(count, std::memory_order_release);
  }
}

Bytes PmemAllocator::live_bytes() const {
  Bytes total = 0;
  for (const auto& sh : shards_) {
    const auto count = sh->entry_count.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < count; ++i) {
      const Entry& e = *sh->entries[i];
      if (e.state.load(std::memory_order_acquire) ==
          static_cast<std::uint32_t>(AllocState::kLive)) {
        total += e.size;
      }
    }
  }
  return total;
}

Bytes PmemAllocator::free_listed_bytes() const {
  Bytes total = 0;
  for (const auto& sh : shards_) {
    const auto count = sh->entry_count.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < count; ++i) {
      const Entry& e = *sh->entries[i];
      if (e.size > 0 && e.state.load(std::memory_order_acquire) ==
                            static_cast<std::uint32_t>(AllocState::kFree)) {
        total += e.size;
      }
    }
  }
  return total;
}

std::vector<PmemAllocator::Extent> PmemAllocator::extents() const {
  std::vector<Extent> out;
  for (const auto& sh : shards_) {
    const auto count = sh->entry_count.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < count; ++i) {
      const Entry& e = *sh->entries[i];
      if (e.size == 0) continue;
      out.push_back(Extent{e.offset, e.size,
                           static_cast<AllocState>(e.state.load(std::memory_order_acquire))});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Extent& a, const Extent& b) { return a.offset < b.offset; });
  return out;
}

std::vector<PmemAllocator::ShardStats> PmemAllocator::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(config_.shards);
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    Shard& sh = *shards_[s];
    ShardStats st;
    st.shard = s;
    st.node = sh.node;
    st.capacity = per_shard_capacity_;
    const auto count = sh.entry_count.load(std::memory_order_acquire);
    st.entries = count;
    for (std::uint32_t i = 0; i < count; ++i) {
      const Entry& e = *sh.entries[i];
      if (e.size == 0) continue;
      const auto state = e.state.load(std::memory_order_acquire);
      if (state == static_cast<std::uint32_t>(AllocState::kLive)) st.live += e.size;
      if (state == static_cast<std::uint32_t>(AllocState::kFree)) st.free_listed += e.size;
    }
    {
      std::lock_guard<std::mutex> lk{sh.res_mu};
      st.reserved = sh.res_end - sh.res_cursor;
      if (config_.refill_bytes > 0 && sh.demand_ewma > 0.0) {
        st.refill_chunk = std::clamp(static_cast<Bytes>(sh.demand_ewma),
                                     config_.refill_bytes,
                                     config_.refill_bytes * kRefillMaxScale);
      } else {
        st.refill_chunk = config_.refill_bytes;
      }
    }
    st.allocs = sh.allocs.load(std::memory_order_relaxed);
    st.frees = sh.frees.load(std::memory_order_relaxed);
    st.refills = sh.refills.load(std::memory_order_relaxed);
    st.reuse_hits = sh.reuse_hits.load(std::memory_order_relaxed);
    st.steals = sh.steals.load(std::memory_order_relaxed);
    st.cross_steals = sh.cross_steals.load(std::memory_order_relaxed);
    st.remote_refills = sh.remote_refills.load(std::memory_order_relaxed);
    st.scan_steps = sh.scan_steps.load(std::memory_order_relaxed);
    const auto clamp0 = [](std::int32_t v) {
      return v > 0 ? static_cast<std::uint32_t>(v) : 0u;
    };
    st.free_small = clamp0(sh.free_by_class[0].load(std::memory_order_relaxed));
    st.free_medium = clamp0(sh.free_by_class[1].load(std::memory_order_relaxed));
    st.free_large = clamp0(sh.free_by_class[2].load(std::memory_order_relaxed));
    out.push_back(st);
  }
  return out;
}

PmemAllocator::TableScrub PmemAllocator::scrub_table() const {
  TableScrub out;
  out.header_valid = header_matches();
  out.shards = config_.shards;
  if (out.header_valid) {
    // Decode the partition count straight from the extended header's
    // formerly-reserved slot (0 = classic flat image).
    const auto raw = device_.read(config_.table_offset, kHeaderSize);
    BinaryReader r{raw};
    r.u64();  // magic
    r.u32();  // shards
    r.u32();  // per-shard capacity
    r.u64();  // data_offset
    r.u64();  // data_end
    r.u64();  // alignment
    r.u64();  // refill policy
    const auto numa = r.u64();
    out.numa_nodes = numa == 0 ? 1 : static_cast<std::uint32_t>(numa);
  }
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    for (std::uint32_t i = 0; i < per_shard_capacity_; ++i) {
      const auto raw = device_.read(table_slot_offset(s, i), kEntrySize);
      BinaryReader r{raw};
      r.u64();  // offset
      r.u64();  // size
      r.u32();  // state
      const auto crc = r.u32();
      if (crc == Crc32::of(raw.data(), 20)) continue;
      const bool all_zero = std::all_of(raw.begin(), raw.end(),
                                        [](std::byte b) { return b == std::byte{0}; });
      if (!all_zero) ++out.torn_entries;
    }
  }
  return out;
}

Bytes PmemAllocator::sweep_gaps() {
  Pause pause{*this};
  // Reservations are owned space, not leaks: publish their tails first so
  // the gap scan below only ever adopts genuinely untracked bytes.
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    std::lock_guard<std::mutex> lk{shards_[s]->res_mu};
    flush_reservation(s);
  }
  Bytes adopted = 0;
  Bytes cursor = 0;
  // A table slot for a gap on `node`: a dead slot first, then an append,
  // in a shard of that node; another node's shard only when every shard of
  // the gap's own node is full. A gap filed under a foreign shard would be
  // handed out by that shard's first-fit, off its socket. On a flat heap
  // every shard is node 0, so this is "a dead slot anywhere, else append".
  const auto table_slot = [&](std::uint32_t node) -> std::pair<std::uint32_t, std::uint32_t> {
    for (const bool own : {true, false}) {
      for (std::uint32_t t = 0; t < config_.shards; ++t) {
        if (own != (shards_[t]->node == node)) continue;
        const auto count = shards_[t]->entry_count.load(std::memory_order_acquire);
        for (std::uint32_t i = 0; i < count; ++i) {
          if (shards_[t]->entries[i]->size == 0) return {t, i};
        }
      }
      for (std::uint32_t t = 0; t < config_.shards; ++t) {
        if (own != (shards_[t]->node == node)) continue;
        const auto count = shards_[t]->entry_count.load(std::memory_order_acquire);
        if (count < per_shard_capacity_) {
          shards_[t]->entry_count.store(count + 1, std::memory_order_release);
          return {t, count};
        }
      }
    }
    throw ResourceExhausted("AllocTable full while adopting leaked extents");
  };
  const auto adopt_up_to = [&](std::uint32_t node, Bytes end) {
    if (end <= cursor) return;
    const auto [s, idx] = table_slot(node);
    Entry& e = *shards_[s]->entries[idx];
    e.offset = cursor;
    e.size = end - cursor;
    e.state.store(static_cast<std::uint32_t>(AllocState::kFree),
                  std::memory_order_release);
    note_free_entries(*shards_[s], e.size, +1);
    map_insert(e.offset, s, idx);
    persist_entry(s, idx);
    adopted += end - cursor;
  };
  // Scan each node partition independently: holes never span partitions
  // (the bump pointers are per node), so each node walks its own extents
  // from its base up to its bump.
  const auto all = extents();
  for (std::uint32_t n = 0; n < arenas_.size(); ++n) {
    cursor = arenas_[n]->base;
    const Bytes limit = arenas_[n]->bump.load(std::memory_order_acquire);
    for (const auto& ext : all) {
      if (arenas_.size() > 1 && node_of_offset(ext.offset) != n) continue;
      adopt_up_to(n, std::min(ext.offset, limit));
      cursor = std::max(cursor, ext.offset + ext.size);
    }
    adopt_up_to(n, limit);
  }
  return adopted;
}

Bytes PmemAllocator::compact() {
  Pause pause{*this};
  // Reservation tails sit right under the bump pointer more often than not;
  // publishing them as FREE entries lets the absorb loop reclaim them too.
  for (std::uint32_t s = 0; s < config_.shards; ++s) {
    std::lock_guard<std::mutex> lk{shards_[s]->res_mu};
    flush_reservation(s);
  }
  // Repeatedly absorb the free extent (any shard) touching its node
  // partition's bump pointer.
  Bytes reclaimed = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint32_t s = 0; s < config_.shards; ++s) {
      Shard& sh = *shards_[s];
      const auto count = sh.entry_count.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < count; ++i) {
        Entry& e = *sh.entries[i];
        if (e.size == 0) continue;
        if (e.state.load(std::memory_order_acquire) !=
            static_cast<std::uint32_t>(AllocState::kFree)) {
          continue;
        }
        NodeArena& ar = *arenas_[node_of_offset(e.offset)];
        if (e.offset + e.size == ar.bump.load(std::memory_order_acquire)) {
          ar.bump.store(e.offset, std::memory_order_release);
          reclaimed += e.size;
          map_erase(e.offset);
          note_free_entries(sh, e.size, -1);
          e.size = 0;
          e.offset = 0;
          persist_entry(s, i);
          progress = true;
        }
      }
    }
  }
  return reclaimed;
}

}  // namespace portus::core
