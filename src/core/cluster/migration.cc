#include "core/cluster/migration.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strformat.h"
#include "core/cluster/placement.h"

namespace portus::core::cluster {

namespace {
constexpr const char* kLog = "elastic";
// How long a migrated copy waits for its source's slot reply: a source
// that hangs mid-resize costs one refused copy, not a wedged resize.
constexpr Duration kSourceReplyBudget{20'000'000};  // 20 ms
}  // namespace

void ElasticCluster::add_member(const std::string& endpoint, PortusDaemon& daemon) {
  PORTUS_CHECK_ARG(membership_.epoch == 0, "ring already sealed; grow it with join()");
  PORTUS_CHECK_ARG(membership_.find(endpoint) == nullptr,
                   "member already known: " + endpoint);
  membership_.members.push_back(Member{endpoint, MemberState::kActive});
  daemons_[endpoint] = &daemon;
}

void ElasticCluster::seal() {
  PORTUS_CHECK(membership_.epoch == 0, "ring already sealed");
  PORTUS_CHECK(!membership_.active_positions().empty(), "cannot seal an empty ring");
  membership_.epoch = 1;
  push_epoch();
}

PortusDaemon* ElasticCluster::daemon(const std::string& endpoint) const {
  const auto it = daemons_.find(endpoint);
  return it != daemons_.end() ? it->second : nullptr;
}

std::vector<PortusDaemon*> ElasticCluster::live_daemons(const Membership& m) const {
  std::vector<PortusDaemon*> live;
  for (const auto& member : m.members) {
    auto* d = member.state != MemberState::kDown ? daemon(member.endpoint) : nullptr;
    if (d != nullptr && !d->killed()) live.push_back(d);
  }
  return live;
}

void ElasticCluster::push_epoch() {
  for (auto* d : live_daemons(membership_)) d->set_membership_epoch(membership_.epoch);
}

std::optional<std::uint64_t> ElasticCluster::done_epoch(PortusDaemon& d,
                                                        const std::string& key) {
  if (!d.model_table().lookup(key).has_value()) return std::nullopt;
  try {
    std::optional<MIndex> held;
    const MIndex& idx = d.index_of(key, held);
    const auto slot = idx.latest_done_slot();
    if (!slot.has_value()) return std::nullopt;
    return idx.slot(*slot).epoch;
  } catch (const std::exception&) {
    return std::nullopt;  // torn record: nothing usable here
  }
}

sim::SubTask<Bytes> ElasticCluster::migrate_copy(PortusDaemon& src, PortusDaemon& dst,
                                                 const std::string& key,
                                                 std::uint32_t replica) {
  // Source: the newest DONE version, only ever read, so whatever was acked
  // there stays recoverable no matter where the destination crashes.
  if (!src.model_table().lookup(key).has_value()) co_return 0;
  std::optional<MIndex> sheld;
  const MIndex& sidx = src.index_of(key, sheld);
  const auto sslot = sidx.latest_done_slot();
  if (!sslot.has_value()) co_return 0;
  ForwardReqMsg forward;
  forward.model_name = key;
  forward.source = src.config().endpoint;
  forward.source_epoch = sidx.slot(*sslot).epoch;
  forward.budget_ns = static_cast<std::uint64_t>(kSourceReplyBudget.count());
  Bytes payload = 0;
  for (const auto& t : sidx.tensors()) payload += t.size;

  // Destination: a copy without an index gets one laid out like the
  // source's, so the forward lands into identical slots.
  if (!dst.model_table().lookup(key).has_value()) {
    RegisterModelMsg reg;
    reg.model_name = key;
    reg.phantom = sidx.phantom();
    reg.shard_id = sidx.shard_id();
    reg.shard_count = sidx.shard_count();
    reg.replica = replica;
    reg.replica_count = sidx.replica_count();
    reg.job_bytes = sidx.job_bytes();
    for (const auto& t : sidx.tensors()) {
      reg.tensors.push_back(
          TensorDesc{.name = t.name, .dtype = t.dtype, .shape = t.shape, .size = t.size});
    }
    auto created = MIndex::create(dst.device(), dst.allocator(), reg,
                                  dst.config().coalesce_threshold);
    // A table that refuses the key (full) must not strand the fresh
    // index's record and slots on the destination heap.
    try {
      dst.model_table().insert(key, created.record_offset());
    } catch (...) {
      created.destroy(dst.allocator());
      throw;
    }
  }

  const std::uint64_t epoch = forward.source_epoch;
  const auto done = co_await dst.handle_forward(std::move(forward));
  if (!done.ok) {
    PLOG_INFO(kLog, "migration of {} {} -> {} refused: {}", key, src.config().endpoint,
              dst.config().endpoint, done.error);
    co_return 0;
  }
  if (done.epoch > epoch) {
    // A round landed a newer version on dst while this copy was planned.
    PLOG_DEBUG(kLog, "migration of {} epoch {} {} -> {} superseded by epoch {}", key, epoch,
               src.config().endpoint, dst.config().endpoint, done.epoch);
    co_return 0;
  }
  if (src.model_table().is_finished(key)) dst.model_table().set_finished(key);

  PLOG_DEBUG(kLog, "migrated {} epoch {}: {} -> {} ({} B)", key, done.epoch,
             src.config().endpoint, dst.config().endpoint, payload);
  co_return payload;
}

sim::SubTask<> ElasticCluster::stream_to_plan(const Membership& m) {
  // Discover every model a ClusterClient placed on any live member, with
  // the shard and replica counts of the first of its copies found (every
  // copy's registration carries the same two).
  struct ModelInfo {
    std::uint32_t shard_count = 0;
    std::uint32_t replicas = 0;
  };
  std::map<std::string, ModelInfo> models;
  for (auto* d : live_daemons(m)) {
    for (const auto& key : d->model_table().names()) {
      const auto shard = parse_shard_key(key);
      if (!shard.has_value() || models.count(shard->first) != 0) continue;
      try {
        std::optional<MIndex> held;
        const MIndex& idx = d->index_of(key, held);
        if (idx.job_bytes() == 0) continue;  // no ClusterClient placed it
        models.emplace(shard->first, ModelInfo{idx.shard_count(), idx.replica_count()});
      } catch (const std::exception&) {
        continue;  // torn copy: another copy of the model will describe it
      }
    }
  }

  const auto active = m.active_positions();
  for (const auto& [model, info] : models) {
    const auto homes = Placement::shard_homes(model, info.shard_count, active, info.replicas);
    for (std::uint32_t s = 0; s < homes.size(); ++s) {
      const std::string key = shard_key(model, s);

      // Source: the live member holding the newest DONE epoch of this
      // shard (DRAINING members still serve as sources).
      PortusDaemon* src = nullptr;
      std::uint64_t src_epoch = 0;
      for (auto* d : live_daemons(m)) {
        const auto e = done_epoch(*d, key);
        if (e.has_value() && (src == nullptr || *e > src_epoch)) {
          src = d;
          src_epoch = *e;
        }
      }
      // Nothing committed anywhere yet, or a shard the cut left empty (no
      // copy of it was ever placed).
      if (src == nullptr) continue;

      const auto& ring = homes[s];
      for (std::uint32_t r = 0; r < ring.size(); ++r) {
        auto* d = daemon(m.members[ring[r]].endpoint);
        if (d == nullptr || d->killed()) continue;
        const auto have = done_epoch(*d, key);
        if (have.has_value() && *have >= src_epoch) continue;  // already current
        const Bytes n = co_await migrate_copy(*src, *d, key, r);
        if (n == 0) continue;
        ++stats_.copies_moved;
        stats_.bytes_streamed += n;
        if (migrated_models_.insert(model).second) ++stats_.models_migrated;
      }
    }
  }
}

sim::SubTask<> ElasticCluster::rebalance_to(Membership target) {
  PORTUS_CHECK(membership_.epoch != 0, "seal() the ring before resizing it");

  // Phase 1: pre-copy toward the target placement. Clients keep running
  // against the current epoch the whole time.
  co_await stream_to_plan(target);

  // Phase 2: the switch. The target membership installs under a bumped
  // epoch and the daemons learn it (stale requests now bounce with
  // EpochMismatch), all in one step of the simulation: no op is admitted
  // in between, so nothing needs pausing around it.
  target.epoch = membership_.epoch + 1;
  membership_ = std::move(target);
  ++stats_.epoch_bumps;
  push_epoch();
  ++stats_.barriers;
  PLOG_INFO(kLog, "membership epoch {} installed ({} active members)", membership_.epoch,
            membership_.active_positions().size());

  // Settle: ops admitted before the switch may still commit on the old
  // placement. Once none runs on any live member, one pass moves what they
  // committed, and every acked epoch is reachable under the new membership.
  for (auto* d : live_daemons(membership_)) co_await d->quiesce(membership_.epoch);
  co_await stream_to_plan(membership_);
}

sim::SubTask<> ElasticCluster::join(const std::string& endpoint, PortusDaemon& daemon) {
  PORTUS_CHECK_ARG(membership_.find(endpoint) == nullptr,
                   "member already known: " + endpoint);
  daemons_[endpoint] = &daemon;
  membership_.members.push_back(Member{endpoint, MemberState::kJoining});
  Membership target = membership_;
  target.find(endpoint)->state = MemberState::kActive;
  PLOG_INFO(kLog, "{} joining (ring position {})", endpoint,
            membership_.members.size() - 1);
  co_await rebalance_to(std::move(target));
}

sim::SubTask<> ElasticCluster::drain(const std::string& endpoint) {
  Member* member = membership_.find(endpoint);
  PORTUS_CHECK_ARG(member != nullptr, "unknown member: " + endpoint);
  PORTUS_CHECK_ARG(member->state == MemberState::kActive,
                   "only an ACTIVE member can drain: " + endpoint);
  PORTUS_CHECK(membership_.active_positions().size() > 1,
               "cannot drain the last ACTIVE member");
  Membership target = membership_;
  target.find(endpoint)->state = MemberState::kDraining;
  PLOG_INFO(kLog, "{} draining", endpoint);
  co_await rebalance_to(std::move(target));
}

void ElasticCluster::decommission(const std::string& endpoint) {
  Member* member = membership_.find(endpoint);
  PORTUS_CHECK_ARG(member != nullptr, "unknown member: " + endpoint);
  PORTUS_CHECK_ARG(member->state == MemberState::kDraining,
                   "decommission requires a completed drain: " + endpoint);
  member->state = MemberState::kDown;
  ++membership_.epoch;
  ++stats_.epoch_bumps;
  push_epoch();
  PLOG_INFO(kLog, "{} decommissioned (epoch {})", endpoint, membership_.epoch);
}

sim::SubTask<> ElasticCluster::repair(const std::string& endpoint) {
  Member* member = membership_.find(endpoint);
  PORTUS_CHECK_ARG(member != nullptr, "unknown member: " + endpoint);
  PORTUS_CHECK_ARG(member->state != MemberState::kDown,
                   "member already DOWN: " + endpoint);
  PORTUS_CHECK(membership_.active_positions().size() > 1,
               "cannot declare the last ACTIVE member failed");
  Membership target = membership_;
  target.find(endpoint)->state = MemberState::kDown;
  PLOG_INFO(kLog, "{} declared permanently failed; re-replicating", endpoint);
  const std::uint64_t before = stats_.copies_moved;
  co_await rebalance_to(std::move(target));
  stats_.repaired_copies += stats_.copies_moved - before;
}

}  // namespace portus::core::cluster
