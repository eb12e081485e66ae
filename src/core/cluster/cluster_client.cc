#include "core/cluster/cluster_client.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/backoff.h"
#include "common/logging.h"
#include "common/strformat.h"

namespace portus::core::cluster {

namespace {
constexpr const char* kLog = "cluster-client";
// Placement re-resolutions one op may take before it gives up.
constexpr int kMaxEpochRetries = 8;

// A fresh checkpoint round id (protocol v8). A daemon remembers the last
// round of each key, so no client in the process, a restarted job's
// included, may reuse one.
std::uint64_t next_round_id() {
  static std::atomic<std::uint64_t> next{0};
  return ++next;
}
}  // namespace

ClusterClient::ClusterClient(net::Cluster& cluster, net::Node& client_node,
                             gpu::GpuDevice& gpu, QpRendezvous& rendezvous, Config config)
    : cluster_{cluster},
      registrations_{std::make_shared<RegistrationCache>(client_node, gpu,
                                                         "portus-cluster-client-pd")},
      rendezvous_{rendezvous},
      config_{std::move(config)} {
  PORTUS_CHECK_ARG(!config_.endpoints.empty() || config_.membership != nullptr,
                   "cluster client needs daemon endpoints or a membership source");
  PORTUS_CHECK_ARG(config_.replicas >= 1, "replication factor must be >= 1");
  // A static ring is a fixed membership: every endpoint ACTIVE at epoch 0,
  // which also leaves every request unchecked by the daemons.
  for (const auto& ep : config_.endpoints) {
    fixed_membership_.members.push_back(Member{ep, MemberState::kActive});
  }
}

std::size_t ClusterClient::lane_for(const std::string& endpoint) {
  const auto [it, fresh] = lane_by_endpoint_.try_emplace(endpoint, lanes_.size());
  if (fresh) lanes_.push_back(Lane{.endpoint = endpoint});
  return it->second;
}

std::size_t ClusterClient::channel_for(std::size_t lane, std::uint32_t shard) {
  const auto [it, fresh] = channel_by_key_.try_emplace({lane, shard}, channels_.size());
  if (fresh) {
    channels_.push_back(Channel{.lane = lane, .client = make_client(lanes_[lane].endpoint)});
  }
  return it->second;
}

std::unique_ptr<PortusClient> ClusterClient::make_client(const std::string& endpoint) {
  auto client = std::make_unique<PortusClient>(cluster_, registrations_, rendezvous_, endpoint);
  client->set_op_timeout(config_.op_timeout);
  client->set_tenant(config_.tenant);
  client->set_retry_policy(config_.retry);
  return client;
}

void ClusterClient::mark_lane_down(Lane& lane) {
  // Every channel on the lane sees the same crash or timeout; the first
  // one to report it takes the lane down, the rest find it down already.
  // A down lane's copies stop counting as live (see live()); a revival
  // voids their registrations.
  if (!lane.up) return;
  lane.up = false;
  ++stats_.lane_failures;
  PLOG_INFO(kLog, "lane {} marked down", lane.endpoint);
}

void ClusterClient::revive_lane(std::size_t lane) {
  // A daemon that came back (or just joined) has no memory of the old
  // sessions: every channel to it gets a fresh client (new socket, new
  // datapath QPs) and must register again, reusing the job's MRs.
  lanes_[lane].up = true;
  ++stats_.lane_revivals;
  for (auto& ch : channels_) {
    if (ch.lane != lane) continue;
    ch.client = make_client(lanes_[lane].endpoint);
    ch.registered = false;
  }
  PLOG_INFO(kLog, "lane {} revived by re-resolve", lanes_[lane].endpoint);
}

sim::SubTask<> ClusterClient::epoch_backoff(int attempt) {
  const BackoffPolicy policy{.base = config_.retry.base_backoff,
                             .max = config_.retry.max_backoff};
  const Duration wait = jittered_backoff(policy, attempt, jitter_);
  co_await cluster_.engine().sleep(wait);
}

bool ClusterClient::membership_moved() const {
  return config_.membership != nullptr &&
         config_.membership->membership().epoch != membership_epoch_;
}

sim::SubTask<> ClusterClient::follow_membership() {
  // A resize installs its epoch on the source and pushes it to the daemons
  // in one step, so a bump the source shows is one every daemon enforces:
  // following it before the round costs no EpochMismatch and no backoff.
  if (!membership_moved()) co_return;
  ++stats_.epoch_reresolutions;
  co_await resolve_placement();
}

sim::SubTask<> ClusterClient::after_epoch_mismatch(int attempt) {
  // A source that shows another epoch already is followed at the top of
  // the next round, at once. One that still shows ours is behind the
  // daemon that bounced us: wait for it before asking again.
  if (membership_moved()) co_return;
  ++stats_.epoch_reresolutions;
  co_await epoch_backoff(attempt);
  co_await resolve_placement();
}

sim::Process ClusterClient::register_copy(std::size_t copy_id, bool* stale) {
  const Copy& copy = copies_[copy_id];
  Channel& ch = channel_of(copy);
  Lane& lane = lane_of(copy);
  try {
    PortusClient::ShardBinding binding;
    binding.reg_name = shard_key(model_name_, copy.shard);
    binding.tensor_indices = plan_.shard_tensors[copy.shard];
    binding.shard_id = copy.shard;
    binding.shard_count = static_cast<std::uint32_t>(plan_.shard_tensors.size());
    binding.replica = copy.replica;
    binding.replica_count = static_cast<std::uint32_t>(plan_.shard_daemons[copy.shard].size());
    binding.job_bytes =
        std::accumulate(plan_.shard_bytes.begin(), plan_.shard_bytes.end(), Bytes{0});
    // What the daemon already holds of the shard: a copy a restarted daemon
    // (or job) kept is known at its own epoch, not at the shard's.
    copies_[copy_id].epoch = co_await ch.client->register_shard(*model_, std::move(binding));
    ch.registered = true;
  } catch (const EpochMismatch& e) {
    PLOG_INFO(kLog, "registration of shard {} on {} raced a resize: {}", copy.shard,
              lane.endpoint, e.what());
    *stale = true;
  } catch (const std::exception& e) {
    PLOG_INFO(kLog, "registration of shard {} on {} failed: {}", copy.shard, lane.endpoint,
              e.what());
    mark_lane_down(lane);
  }
}

sim::SubTask<> ClusterClient::resolve_placement() {
  for (int attempt = 0;; ++attempt) {
    // 1. Snapshot the authoritative membership (the static ring's is fixed).
    const Membership& mem = config_.membership != nullptr ? config_.membership->membership()
                                                          : fixed_membership_;
    membership_epoch_ = mem.epoch;
    ring_endpoints_.clear();
    for (const auto& m : mem.members) ring_endpoints_.push_back(m.endpoint);
    const auto active = mem.active_positions();
    PORTUS_CHECK(!active.empty(),
                 strf("cluster for {} has no ACTIVE member to place on", model_name_));
    if (effective_shard_count_ == 0) {
      effective_shard_count_ = config_.shard_count != 0
                                   ? config_.shard_count
                                   : static_cast<std::uint32_t>(active.size());
    }

    // 2. Carry the acked-epoch floor per shard across the rebuild: a new
    //    placement must never let a restore land below what we were acked.
    std::vector<std::uint64_t> floor(effective_shard_count_, 0);
    if (shard_floor_.size() == floor.size()) floor = shard_floor_;
    for (const auto& c : copies_) floor[c.shard] = std::max(floor[c.shard], c.epoch);
    shard_floor_ = std::move(floor);

    // 3. Recompute the plan against the current members.
    plan_ = Placement::compute_over(model_name_, tensor_sizes_, effective_shard_count_,
                                    static_cast<std::uint32_t>(ring_endpoints_.size()),
                                    active, config_.replicas);

    // 4. Rebuild the copy table, opening lanes and channels as the
    //    placement needs them. Plans only target ACTIVE positions, so a down
    //    lane placed on here is a daemon that came back (or just joined).
    //    Each channel keeps what the client knew of its copy: a copy on a
    //    channel that is still registered, whether it stayed or is placed
    //    back on a channel the shard left earlier, starts at the epoch it
    //    was last known at. That is a floor, since a migration may only have
    //    landed newer versions there meanwhile. A new or revived channel
    //    re-registers and takes the epoch its ack reports.
    for (const auto& c : copies_) channels_[c.channel].epoch = c.epoch;
    copies_.clear();
    for (std::uint32_t s = 0; s < plan_.shard_daemons.size(); ++s) {
      if (plan_.shard_tensors[s].empty()) continue;
      const auto& ring = plan_.shard_daemons[s];
      for (std::uint32_t r = 0; r < ring.size(); ++r) {
        const auto lane = lane_for(ring_endpoints_[ring[r]]);
        if (!lanes_[lane].up) revive_lane(lane);
        const auto channel = channel_for(lane, s);
        copies_.push_back(Copy{.shard = s,
                               .replica = r,
                               .channel = channel,
                               .epoch = channels_[channel].registered ? channels_[channel].epoch
                                                                      : 0});
      }
    }
    for (auto& ch : channels_) ch.client->set_membership_epoch(membership_epoch_);

    // 5. Register whatever the new placement put somewhere new, every copy
    //    at once.
    bool stale = false;
    std::vector<sim::Process> procs;
    for (std::size_t id = 0; id < copies_.size(); ++id) {
      if (channel_of(copies_[id]).registered) continue;
      procs.push_back(cluster_.engine().spawn(register_copy(id, &stale)));
    }
    for (auto& p : procs) co_await p.join();  // copy errors are absorbed per copy
    stats_.pins = registrations_->pins();
    stats_.pins_reused = registrations_->reused();

    if (stale) {
      // The membership moved again while we were registering against it.
      PORTUS_CHECK(attempt < kMaxEpochRetries,
                   strf("placement of {} cannot settle: membership kept moving",
                        model_name_));
      ++stats_.epoch_reresolutions;
      co_await epoch_backoff(attempt);
      continue;
    }

    // Tolerate dead lanes only while every shard keeps >= 1 registered copy.
    for (std::uint32_t s = 0; s < plan_.shard_tensors.size(); ++s) {
      if (plan_.shard_tensors[s].empty()) continue;
      const bool covered =
          std::any_of(copies_.begin(), copies_.end(),
                      [&](const Copy& c) { return c.shard == s && live(c); });
      if (!covered) {
        throw ResourceExhausted(
            strf("shard {} of {} has no live daemon; cannot register", s, model_name_));
      }
    }
    PLOG_DEBUG(kLog, "placed {} over {} members (epoch {}, {} copies, R={})", model_name_,
               active.size(), membership_epoch_, copies_.size(), config_.replicas);
    co_return;
  }
}

sim::SubTask<> ClusterClient::register_model(dnn::Model& model) {
  PORTUS_CHECK(!registered_, "cluster client already holds a registered model");
  model_ = &model;
  model_name_ = model.name();

  tensor_sizes_.clear();
  for (auto& t : model.tensors()) tensor_sizes_.push_back(t.byte_size());

  co_await resolve_placement();
  registered_ = true;
}

sim::SubTask<> ClusterClient::refresh_placement() {
  PORTUS_CHECK(registered_, "register_model before refresh_placement");
  co_await resolve_placement();
}

sim::SubTask<> ClusterClient::pull_copy(std::size_t copy_id, Round* round,
                                       std::uint64_t floor, std::uint64_t armed) {
  Copy& copy = copies_[copy_id];
  Lane& lane = lane_of(copy);
  try {
    const std::string key = shard_key(model_name_, copy.shard);
    const auto epoch = co_await channel_of(copy).client->checkpoint_named(
        key, round->iteration, armed, copy.epoch < floor ? floor : 0);
    copy.epoch = epoch;
    round->shard_ok[copy.shard] = true;
    round->max_epoch = std::max(round->max_epoch, epoch);
    co_return;
  } catch (const EpochMismatch& e) {
    // The round is void, not failed: the caller re-resolves placement and
    // replays the whole round against the new membership.
    PLOG_INFO(kLog, "checkpoint of shard {} on {} hit a resize: {}", copy.shard,
              lane.endpoint, e.what());
    round->stale = true;
    co_return;
  } catch (const Disconnected& e) {
    PLOG_INFO(kLog, "checkpoint of shard {} on {} lost: {}", copy.shard, lane.endpoint,
              e.what());
    mark_lane_down(lane);
  } catch (const std::exception& e) {
    PLOG_INFO(kLog, "checkpoint of shard {} on {} failed: {}", copy.shard, lane.endpoint,
              e.what());
  }
  round->any_miss = true;
}

sim::Process ClusterClient::forward_copy(std::size_t copy_id, std::size_t puller,
                                         std::uint64_t armed, Round* round) {
  Copy& copy = copies_[copy_id];
  Lane& lane = lane_of(copy);
  Lane& source = lane_of(copies_[puller]);
  try {
    // The replica waits for the pull as long as the client does, so a slow
    // puller is never named lost.
    const std::string key = shard_key(model_name_, copy.shard);
    const auto epoch = co_await channel_of(copy).client->forward_named(
        key, round->iteration, source.endpoint, config_.op_timeout, armed);
    copy.epoch = epoch;
    round->landed[copy_id] = true;
    round->shard_ok[copy.shard] = true;
    round->max_epoch = std::max(round->max_epoch, epoch);
  } catch (const EpochMismatch& e) {
    PLOG_INFO(kLog, "forward of shard {} to {} hit a resize: {}", copy.shard, lane.endpoint,
              e.what());
    round->stale = true;
  } catch (const ForwardSourceLost& e) {
    // The replica answered in time and named the source: the source is
    // the one to give up.
    PLOG_INFO(kLog, "forward of shard {} to {}: {}", copy.shard, lane.endpoint, e.what());
    mark_lane_down(source);
  } catch (const Disconnected& e) {
    PLOG_INFO(kLog, "forward of shard {} to {} lost: {}", copy.shard, lane.endpoint,
              e.what());
    mark_lane_down(lane);
  } catch (const std::exception& e) {
    PLOG_INFO(kLog, "forward of shard {} to {} refused: {}", copy.shard, lane.endpoint,
              e.what());
  }
}

sim::Process ClusterClient::checkpoint_shard(std::uint32_t shard, Round* round) {
  // The shard's live copies in placement order, the newest epoch any of
  // them is known to hold, and the newest the shard is known at on any
  // copy, placed now or before. A resize can leave every live copy below
  // that floor (registered where a migration landed an older version); a
  // pull there mints above it, since minting at or below it would name a
  // second version at an epoch the shard already acked.
  std::vector<std::size_t> ids;
  std::uint64_t newest = 0;
  std::uint64_t floor = shard_floor_[shard];
  for (std::size_t id = 0; id < copies_.size(); ++id) {
    if (copies_[id].shard != shard) continue;
    floor = std::max(floor, copies_[id].epoch);
    if (live(copies_[id])) {
      ids.push_back(id);
      newest = std::max(newest, copies_[id].epoch);
    } else {
      round->any_miss = true;
    }
  }
  if (ids.empty()) co_return;

  // The puller is the first copy not known to be behind another (0: nothing
  // known), so the epoch its pull mints is new on every copy the client
  // knows of. Every other copy's forward goes out with the pull, armed with
  // a fresh round id: each replica waits at the puller and reads what it
  // commits the moment it commits.
  const std::size_t puller = *std::find_if(ids.begin(), ids.end(), [&](std::size_t id) {
    return copies_[id].epoch == 0 || copies_[id].epoch == newest;
  });
  const std::uint64_t armed = ids.size() > 1 ? next_round_id() : 0;
  std::vector<sim::Process> forwards;
  for (const auto id : ids) {
    if (id != puller) {
      forwards.push_back(cluster_.engine().spawn(forward_copy(id, puller, armed, round)));
    }
  }
  co_await pull_copy(puller, round, floor, armed);
  for (auto& p : forwards) co_await p.join();
  if (round->stale) co_return;

  // A copy whose forward did not land (the pull failed, or the copy refused
  // the puller's version) pulls the round from the GPU itself, so the round
  // keeps it.
  std::vector<sim::Process> pulls;
  for (const auto id : ids) {
    if (id == puller || round->landed[id]) continue;
    if (!live(copies_[id])) {
      round->any_miss = true;
      continue;
    }
    pulls.push_back(cluster_.engine().spawn(
        [](ClusterClient& c, std::size_t copy_id, Round* r, std::uint64_t f) -> sim::Process {
          co_await c.pull_copy(copy_id, r, f);
        }(*this, id, round, floor)));
  }
  for (auto& p : pulls) co_await p.join();
}

sim::SubTask<ClusterClient::CheckpointResult> ClusterClient::checkpoint_round(Round& round) {
  round.shard_ok.assign(plan_.shard_tensors.size(), false);
  round.landed.assign(copies_.size(), false);
  std::vector<sim::Process> procs;
  for (std::uint32_t s = 0; s < plan_.shard_tensors.size(); ++s) {
    if (plan_.shard_tensors[s].empty()) continue;
    procs.push_back(cluster_.engine().spawn(checkpoint_shard(s, &round)));
  }
  for (auto& p : procs) co_await p.join();

  if (round.stale) co_return CheckpointResult{};  // round void, caller replays it

  for (std::uint32_t s = 0; s < plan_.shard_tensors.size(); ++s) {
    if (plan_.shard_tensors[s].empty()) continue;
    if (!round.shard_ok[s]) {
      throw ResourceExhausted(
          strf("checkpoint iteration {} lost shard {} of {}: no copy committed",
               round.iteration, s, model_name_));
    }
  }

  ++stats_.checkpoints;
  stats_.last_epoch = std::max(stats_.last_epoch, round.max_epoch);
  if (round.any_miss) ++stats_.degraded_checkpoints;
  co_return CheckpointResult{.epoch = round.max_epoch, .degraded = round.any_miss};
}

sim::SubTask<ClusterClient::CheckpointResult> ClusterClient::checkpoint(
    std::uint64_t iteration) {
  PORTUS_CHECK(registered_, "register_model before checkpoint");
  for (int attempt = 0;; ++attempt) {
    co_await follow_membership();
    Round round;
    round.iteration = iteration;
    const CheckpointResult result = co_await checkpoint_round(round);
    if (!round.stale) co_return result;
    PORTUS_CHECK(attempt < kMaxEpochRetries,
                 strf("checkpoint of {} cannot settle: membership kept moving",
                      model_name_));
    co_await after_epoch_mismatch(attempt);
  }
}

sim::Process ClusterClient::restore_copy(RestoreJob* job, std::uint64_t* max_epoch,
                                         bool* stale) {
  Copy& copy = copies_[job->copy_id];
  Lane& lane = lane_of(copy);
  try {
    const std::string key = shard_key(model_name_, copy.shard);
    const auto epoch =
        co_await channel_of(copy).client->restore_named(key, job->required_epoch);
    job->done = true;
    copy.epoch = std::max(copy.epoch, epoch);
    *max_epoch = std::max(*max_epoch, epoch);
  } catch (const EpochMismatch& e) {
    PLOG_INFO(kLog, "restore of shard {} from {} hit a resize: {}", copy.shard, lane.endpoint,
              e.what());
    *stale = true;
  } catch (const Disconnected& e) {
    PLOG_INFO(kLog, "restore of shard {} from {} lost: {}", copy.shard, lane.endpoint,
              e.what());
    mark_lane_down(lane);
  } catch (const std::exception& e) {
    // Stale epoch (daemon refused the floor) or missing record: this copy
    // is unusable, the wave loop moves to the next one.
    PLOG_INFO(kLog, "restore of shard {} from {} refused: {}", copy.shard, lane.endpoint,
              e.what());
  }
}

sim::SubTask<ClusterClient::RestoreResult> ClusterClient::restore_round(bool* stale) {
  const auto shard_count = plan_.shard_tensors.size();

  // Replica-epoch floor: a copy that missed later checkpoints (its daemon
  // was down or hung for them) holds stale data, and its daemon refuses to
  // serve below this floor — the shard then re-routes to a fresh copy. The
  // floor survives placement rebuilds via shard_floor_ (acked epochs must
  // stay reachable across resizes).
  std::vector<std::uint64_t> target(shard_count, 0);
  if (shard_floor_.size() == shard_count) target = shard_floor_;
  for (const auto& c : copies_) {
    target[c.shard] = std::max(target[c.shard], c.epoch);
  }

  std::vector<bool> done(shard_count, false);
  std::vector<bool> tried(copies_.size(), false);
  bool degraded = false;
  std::uint32_t rerouted = 0;
  std::uint64_t max_epoch = 0;

  while (true) {
    // Each unrestored shard's live untried copies, in placement order.
    std::vector<std::vector<std::size_t>> options(shard_count);
    for (std::size_t id = 0; id < copies_.size(); ++id) {
      if (!tried[id] && live(copies_[id])) options[copies_[id].shard].push_back(id);
    }
    // A copy known to be below its shard's target would refuse it: leave it
    // out while the shard has another option.
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      const auto behind = [&](std::size_t id) {
        return copies_[id].epoch != 0 && copies_[id].epoch < target[s];
      };
      if (!std::all_of(options[s].begin(), options[s].end(), behind)) {
        std::erase_if(options[s], behind);
      }
    }
    std::vector<std::uint32_t> order;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      if (done[s] || plan_.shard_tensors[s].empty()) continue;
      if (options[s].empty()) {
        throw NotFound(strf("no live copy of shard {} of {} at epoch >= {}", s, model_name_,
                            target[s]));
      }
      order.push_back(s);
    }

    // Assign the wave by load: the shards with the fewest choices choose
    // first, and each takes the copy whose lane carries the fewest of this
    // wave's bytes so far (ties to placement order). A restore then waits on
    // the evenest split of its bytes over the live daemons, not on whichever
    // daemon a dead member's primaries fall through to.
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return options[a].size() < options[b].size();
    });
    std::vector<Bytes> load(lanes_.size(), 0);
    const auto lane_load = [&](std::size_t id) -> Bytes& {
      return load[channel_of(copies_[id]).lane];
    };
    std::vector<RestoreJob> jobs;
    std::vector<std::uint32_t> job_shard;
    for (const auto s : order) {
      std::size_t pick = options[s].front();
      for (const auto id : options[s]) {
        if (lane_load(id) < lane_load(pick)) pick = id;
      }
      tried[pick] = true;
      lane_load(pick) += plan_.shard_bytes[s];
      // Re-routed: the primary copy (first in placement order while it is
      // an option) is down or already tried. A replica chosen for balance
      // is not a reroute.
      jobs.push_back(RestoreJob{.copy_id = pick,
                                .required_epoch = target[s],
                                .done = false,
                                .rerouted = copies_[options[s].front()].replica != 0});
      job_shard.push_back(s);
    }
    if (jobs.empty()) break;

    // Every job of the wave runs at once, each on its copy's channel.
    std::vector<sim::Process> procs;
    procs.reserve(jobs.size());
    for (auto& job : jobs) {
      procs.push_back(cluster_.engine().spawn(restore_copy(&job, &max_epoch, stale)));
    }
    for (auto& p : procs) co_await p.join();

    if (*stale) co_return RestoreResult{};  // round void, caller replays it

    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (!jobs[j].done) {
        degraded = true;  // this shard needed (at least) another wave
        continue;
      }
      done[job_shard[j]] = true;
      if (jobs[j].rerouted) {
        degraded = true;
        ++rerouted;
      }
    }
  }

  ++stats_.restores;
  if (degraded) ++stats_.degraded_restores;
  stats_.rerouted_shards += rerouted;
  stats_.last_epoch = std::max(stats_.last_epoch, max_epoch);
  co_return RestoreResult{.epoch = max_epoch, .degraded = degraded,
                          .rerouted_shards = rerouted};
}

sim::SubTask<ClusterClient::RestoreResult> ClusterClient::restore() {
  PORTUS_CHECK(registered_, "register_model before restore");
  for (int attempt = 0;; ++attempt) {
    co_await follow_membership();
    bool stale = false;
    const RestoreResult result = co_await restore_round(&stale);
    if (!stale) co_return result;
    PORTUS_CHECK(attempt < kMaxEpochRetries,
                 strf("restore of {} cannot settle: membership kept moving", model_name_));
    co_await after_epoch_mismatch(attempt);
  }
}

}  // namespace portus::core::cluster
