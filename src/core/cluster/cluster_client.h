// ClusterClient: one training process checkpointing to N Portus daemons.
//
// Gives every shard copy its own PortusClient control channel, keyed by
// (daemon endpoint, shard), and issues every copy of a register /
// checkpoint / restore at once: each PortusClient is a one-op-at-a-time
// control channel, so one channel per copy is what lets a daemon run
// several copies of one op side by side on its workers. A round then
// costs its slowest copy, not the summed round trips of every copy its
// busiest daemon holds. The tensor -> shard -> daemons map comes from
// Placement::compute_over, so any process that knows the ring config finds
// its shards without a metadata service. Each copy's registration carries
// its own tensors and its job's byte count, nothing of the other shards.
//
// Registrations are job-wide: the client owns one RegistrationCache (one
// protection domain, one pinned MR per shard span) and every channel's
// PortusClient registers through it. So each shard span is pinned once for
// the job's life: the R copies of a shard share one in-flight pin, and a
// copy a resize moves, a copy placed on a new channel and the fresh
// clients of a revived lane all reuse the MR. A channel not connected yet
// dials its daemon while its registration pins, so a first registration
// costs the pin plus one round trip, and a moved copy's costs the dial
// plus one round trip (Stats::pins, Stats::pins_reused).
//
// Replication pulls each shard from the GPU once per round, in one pass.
// The puller is the first live copy in placement order that the client
// does not know to be behind another live copy of the shard (a copy's
// known epoch comes from its last pull, forward or restore, or from the
// registration ack; 0 = nothing known). It gets the DO_CHECKPOINT, and
// every other live copy gets a FORWARD at the same time, both tagged with
// one fresh round id (armed forwards, protocol v8). Each replica's daemon
// asks the puller for that round's slot and the puller answers the moment
// its checkpoint commits epoch E; the replica then reads the DONE slot
// PMEM to PMEM over the storage fabric, checks it against the puller's
// CRC block and commits at E. So each checkpoint byte crosses the client
// NIC and the GPU's PCIe once, the R-1 extra copies ride the storage
// nodes' NICs, and no control hop sits between the pull's commit and the
// replicas' READs but the answer itself. Once the pull and its forwards
// end, every copy whose forward did not land (the pull failed, or the
// copy refused the puller's version) and that is still live pulls the
// round from the GPU, all at once. A copy that refused because it already
// held E or later was ahead without the client knowing; now known ahead,
// it pulls the next round and the others agree with it then. An armed
// replica waits for the puller as long as the client waits for the pull
// (the op timeout), and the client's watchdog on it is twice the op
// timeout, so a slow puller is never named lost and a hung one takes only
// its own lane down.
//
// Failure model: a daemon can crash (sockets die instantly) or hang
// (detected only by the per-op timeout). Liveness is per daemon (a
// "lane"): the first of its channels to see the crash or timeout marks
// the lane down, which voids every copy registered there, and the op
// degrades:
//   - checkpoint: succeeds as long as every shard commits on >= 1 copy;
//     the result is flagged degraded and the lost copies simply stop
//     advancing their epochs.
//   - restore: runs in waves. Each wave gives every shard not yet back one
//     live copy it has not tried, leaving out the copies known to be below
//     the shard's target epoch while it has another: the shards with the
//     fewest such copies choose first, and each takes the copy whose daemon
//     carries the fewest of the wave's bytes so far (ties to placement
//     order). So a dead daemon's primaries spread over the survivors
//     instead of all falling on their replicas' daemons. A copy that fails
//     or refuses (its daemon cannot meet the required_epoch floor, or its
//     version fails the integrity scrub) sends its shard to the next wave.
//     A shard is re-routed when its primary copy was down, known stale or
//     already tried; a replica chosen for balance is not. The restore is
//     degraded when a shard was re-routed or needed a second wave, and
//     throws only when some shard has no live copy at the required epoch
//     left at all.
//
// Elastic mode (Config::membership set): the daemon set is no longer
// static. The client snapshots the authoritative Membership, places the
// model's fixed shard_count shards over the ACTIVE members, and stamps
// every request with the membership epoch. A resize installs its epoch on
// the membership source and on every daemon in one step, so before each
// round the client checks the source: when it shows another epoch, the
// client refetches the membership, recomputes placement, revives lanes or
// opens channels as needed and re-registers the moved copies, and no
// daemon bounces the round. A resize that lands mid-round makes a daemon
// answer EpochMismatch; the round is void and replays after the same
// re-resolve. Only a bounce the source does not explain yet (it still
// shows the client's epoch) backs off first, through the same
// jittered-exponential helper as every other retry path
// (common/backoff.h). A resize under load therefore costs retries, never
// failed ops.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "core/cluster/membership.h"
#include "core/cluster/placement.h"

namespace portus::core::cluster {

class ClusterClient {
 public:
  struct Config {
    // The static daemon ring, in order. May be empty when `membership` is
    // set (the member list then comes from the membership source).
    std::vector<std::string> endpoints;
    std::uint32_t replicas = 2;          // copies per shard (clamped to ring size)
    // Per-op watchdog. 0 = never time out: hung-daemon detection is then
    // CRASH-ONLY — a daemon that stays connected but answers nothing (the
    // kHang gray failure) wedges the op, and with it the whole cluster
    // demo, forever. The finite default keeps sharded_testbed/cluster-demo
    // paths live through a hang; set 0 only where every failure is a
    // crash-stop and the extra watchdog timer is unwanted. An armed
    // forward's replica waits up to this long for its puller's round, and
    // the watchdog on it is twice this.
    Duration op_timeout{250'000'000};    // 250 ms
    // Tenancy identity + retry discipline, applied to every channel client.
    // Keep retry.retry_timeouts off here unless you mean it: a retried
    // timeout delays the lane-down verdict the degraded paths key off.
    PortusClient::TenantSpec tenant;
    PortusClient::RetryPolicy retry;
    // --- elasticity ---
    // Shards the model is cut into. 0 = one per ring member at first
    // placement (the classic static-cluster behavior). Fix it explicitly
    // (e.g. 8) on an elastic cluster so shards can spread over daemons
    // that join later.
    std::uint32_t shard_count = 0;
    // Authoritative membership (the ElasticCluster controller). When set,
    // every request carries the membership epoch, and placement re-resolves
    // against the current members before any round the source shows a new
    // epoch for, and after an EpochMismatch answer (up to 8 times per op,
    // backing off only while the source still shows the client's epoch).
    MembershipSource* membership = nullptr;
  };

  struct CheckpointResult {
    std::uint64_t epoch = 0;
    bool degraded = false;  // some copy missed the round (all shards still committed)
  };

  struct RestoreResult {
    std::uint64_t epoch = 0;
    bool degraded = false;  // a shard was re-routed or needed a second wave
    // Shards whose primary copy was down or already tried when their
    // serving copy was picked (a replica picked for balance is not one).
    std::uint32_t rerouted_shards = 0;
  };

  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t degraded_checkpoints = 0;
    std::uint64_t degraded_restores = 0;
    std::uint64_t rerouted_shards = 0;
    std::uint64_t lane_failures = 0;  // lanes marked down (crash or timeout)
    std::uint64_t last_epoch = 0;
    // --- elasticity ---
    std::uint64_t epoch_reresolutions = 0;  // placements refetched for a membership bump
    std::uint64_t lane_revivals = 0;        // down lanes brought back by a re-resolve
    // --- registration (one cache per job) ---
    std::uint64_t pins = 0;         // PeerMem pins the job made: one per shard span
    std::uint64_t pins_reused = 0;  // copy registrations the job's cache served
  };

  ClusterClient(net::Cluster& cluster, net::Node& client_node, gpu::GpuDevice& gpu,
                QpRendezvous& rendezvous, Config config);

  // Compute the placement for `model` and register every shard copy on
  // its daemon through the copy's own channel, all at once (each with the
  // model's byte count as its job bytes), pinning each shard span once for
  // every copy of it. Lanes that are already dead are
  // tolerated as long as every shard keeps at least one registered copy;
  // otherwise throws.
  sim::SubTask<> register_model(dnn::Model& model);

  // Checkpoint every shard at once: one GPU pull per shard, with armed
  // forwards to its other copies (see above). Returns the round's
  // committed epoch (the newest any copy committed). Throws if any shard
  // committed on zero copies. In elastic mode a round follows a membership
  // bump first, and an EpochMismatch answer retries the whole round after
  // re-resolving placement.
  sim::SubTask<CheckpointResult> checkpoint(std::uint64_t iteration = 0);

  // Restore every shard in load-balanced waves (see above).
  sim::SubTask<RestoreResult> restore();

  // Re-resolve placement against the current membership (or the static
  // endpoint list) right now: recompute the plan, revive down lanes whose
  // member is ACTIVE again (a fresh PortusClient for each of the lane's
  // channels — a restarted daemon has no memory of the old sessions), and
  // re-register missing copies through the job's MRs, pinning nothing
  // new. The ops call this themselves on a
  // membership bump; call it directly after manually restarting a daemon
  // in a static ring.
  sim::SubTask<> refresh_placement();

  const Placement::Plan& plan() const { return plan_; }
  const Stats& stats() const { return stats_; }
  std::uint64_t membership_epoch() const { return membership_epoch_; }

  // Every per-copy control channel's client, one per (endpoint, shard) this
  // client has placed a copy on.
  std::size_t lane_count() const { return channels_.size(); }
  PortusClient& lane_client(std::size_t i) { return *channels_.at(i).client; }

 private:
  // One placed copy of one shard; `channel` indexes channels_.
  struct Copy {
    std::uint32_t shard = 0;
    std::uint32_t replica = 0;
    std::size_t channel = 0;
    std::uint64_t epoch = 0;  // newest epoch this copy is known to hold (0: unknown)
  };

  // One daemon, by endpoint. Lanes outlive membership changes.
  struct Lane {
    std::string endpoint;
    bool up = true;
  };

  // The control channel of one (lane, shard) pair. Channels outlive
  // membership changes, as the daemon-side registrations they hold do.
  struct Channel {
    std::size_t lane = 0;
    std::unique_ptr<PortusClient> client;
    bool registered = false;
    // Its copy's known epoch as of the last re-resolve, kept while the
    // shard is placed elsewhere: a copy placed back starts there.
    std::uint64_t epoch = 0;
  };

  struct RestoreJob {
    std::size_t copy_id = 0;
    std::uint64_t required_epoch = 0;
    bool done = false;
    bool rerouted = false;
  };

  // What the copies of one checkpoint round report.
  struct Round {
    std::uint64_t iteration = 0;
    std::vector<bool> shard_ok;  // some copy of the shard committed
    std::vector<bool> landed;    // by copy id: its forward landed the pull
    std::uint64_t max_epoch = 0;
    bool any_miss = false;       // some copy missed the round
    bool stale = false;          // EpochMismatch: the round is void
  };

  sim::Process register_copy(std::size_t copy_id, bool* stale);
  // One shard's part of a round: the pull, the forwards armed with it, and
  // a GPU pull on each copy a forward did not land on.
  sim::Process checkpoint_shard(std::uint32_t shard, Round* round);
  // A GPU pull on one copy, tagged with round id `armed` when forwards wait
  // on it. A copy known to be below `floor` (the newest epoch its shard is
  // known at) sends it, so its pull mints an epoch above it.
  sim::SubTask<> pull_copy(std::size_t copy_id, Round* round, std::uint64_t floor,
                           std::uint64_t armed = 0);
  // Land what the puller commits in round `armed` on one more copy; sets
  // round->landed[copy_id] when it did.
  sim::Process forward_copy(std::size_t copy_id, std::size_t puller, std::uint64_t armed,
                            Round* round);
  sim::Process restore_copy(RestoreJob* job, std::uint64_t* max_epoch, bool* stale);

  sim::SubTask<CheckpointResult> checkpoint_round(Round& round);
  sim::SubTask<RestoreResult> restore_round(bool* stale);

  // Snapshot the membership, recompute plan and copies, revive lanes,
  // and register unregistered copies (its own EpochMismatch retry loop —
  // a resize can land mid-registration too).
  sim::SubTask<> resolve_placement();

  std::size_t lane_for(const std::string& endpoint);
  std::size_t channel_for(std::size_t lane, std::uint32_t shard);
  // A fresh channel client (one datapath QP) carrying this client's
  // watchdog, tenant identity and retry policy, registering through the
  // job's cache.
  std::unique_ptr<PortusClient> make_client(const std::string& endpoint);
  Channel& channel_of(const Copy& copy) { return channels_[copy.channel]; }
  Lane& lane_of(const Copy& copy) { return lanes_[channel_of(copy).lane]; }
  // A copy takes part in an op only while it is registered on an up lane.
  bool live(const Copy& copy) { return channel_of(copy).registered && lane_of(copy).up; }
  void mark_lane_down(Lane& lane);
  void revive_lane(std::size_t lane);
  sim::SubTask<> epoch_backoff(int attempt);
  // Whether the membership source shows an epoch other than the one the
  // current placement was computed for.
  bool membership_moved() const;
  // Before a round: re-resolve if the membership moved.
  sim::SubTask<> follow_membership();
  // After an EpochMismatch voided a round: back off and re-resolve only
  // while the source still shows this client's epoch.
  sim::SubTask<> after_epoch_mismatch(int attempt);

  net::Cluster& cluster_;
  std::shared_ptr<RegistrationCache> registrations_;  // every channel's PD and MRs
  QpRendezvous& rendezvous_;
  Config config_;
  std::string model_name_;
  dnn::Model* model_ = nullptr;  // held for re-registration on re-resolve
  std::vector<Bytes> tensor_sizes_;
  Placement::Plan plan_;
  // copies_, channels_ and lanes_ change only in resolve_placement, while
  // no per-copy process runs, so those processes may hold references.
  std::vector<Copy> copies_;
  std::vector<Channel> channels_;
  std::map<std::pair<std::size_t, std::uint32_t>, std::size_t> channel_by_key_;
  std::vector<Lane> lanes_;
  std::map<std::string, std::size_t> lane_by_endpoint_;
  Membership fixed_membership_;  // the static ring (Config::endpoints), epoch 0
  std::vector<std::string> ring_endpoints_;  // current membership, in ring order
  std::vector<std::uint64_t> shard_floor_;   // acked-epoch floor per shard
  std::uint64_t membership_epoch_ = 0;
  std::uint32_t effective_shard_count_ = 0;  // fixed at first placement
  Rng jitter_{0xE1A57C1C0FFEEull};
  Stats stats_;
  bool registered_ = false;
};

}  // namespace portus::core::cluster
