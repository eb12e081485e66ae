// Portus Client: the compute-node side, the library a training framework
// (PyTorch/DeepSpeed/Megatron) links against.
//
// On register_model() it walks the model's pre-allocated GPU tensors and
// cuts them into runs of adjacent allocations (GpuDevice::alloc lays a
// model out back to back, so a whole model is usually one run). Each run
// is pinned once through NVIDIA PeerMem and registered as one RDMA memory
// region. The metadata packet still has one entry per tensor, in binding
// order (name, dtype, shape, size, GPU address, and its run's rkey); it
// goes to the daemon over TCP/IPoIB. checkpoint() and restore() are then
// one-word triggers: the *daemon* moves all tensor bytes with one-sided
// verbs, so the client never copies, serializes, or crosses into a kernel
// filesystem.
//
// Registrations are job-wide. Every pin and MR lives in a
// RegistrationCache: one protection domain, and one pinned MR per run span
// for as long as the cache lives. A standalone client owns a cache of its
// own; a ClusterClient hands one cache to all of its channels, so each
// shard span is pinned once per job (DESIGN.md, "GPU registration").
//
// Sharded mode (core/cluster/): one PortusClient per shard copy, and
// register_shard() registers a *subset* of the model's tensors under a
// shard-scoped name. A run never spans a tensor the binding skips, so no
// MR exposes bytes outside the binding's own allocations. A client that
// registers several names keeps one datapath (a QP and its CQ) per
// registration.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/protocol.h"
#include "dnn/model.h"
#include "gpu/peer_mem.h"
#include "net/cluster.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace portus::core {

// The GPU registrations of one training job: one protection domain, and
// one PeerMem pin + RDMA MR per run span, kept for the cache's life. The
// key is the exact span a registration cuts (segment, offset, length,
// phantom flag), so an MR never covers bytes outside the binding that
// asked for it. Registrations of one span share its pin: the first pins,
// any that arrive while it pins wait for it, and later ones reuse the MR
// at no cost. So a shard copy placed on a new daemon, or the fresh client
// of a revived lane, registers without a pin.
class RegistrationCache {
 public:
  RegistrationCache(net::Node& node, gpu::GpuDevice& gpu, const std::string& pd_name);
  RegistrationCache(const RegistrationCache&) = delete;
  RegistrationCache& operator=(const RegistrationCache&) = delete;

  // The rkey of the MR over `span`, pinning it first if no registration
  // has. Sets `*pinned` when this call made the pin.
  sim::SubTask<std::uint32_t> rkey_for(gpu::DeviceBuffer span, bool* pinned);

  net::Node& node() { return node_; }
  rdma::ProtectionDomain& pd() { return pd_; }
  std::uint64_t pins() const { return pins_; }      // PeerMem pins made
  std::uint64_t reused() const { return reused_; }  // registrations served without one

 private:
  using Key = std::tuple<const mem::MemorySegment*, Bytes, Bytes, bool>;
  struct Entry {
    std::uint32_t rkey = 0;
    bool ready = false;
    // Made by the first registration that waits for the pin; set when the
    // pin ends.
    std::unique_ptr<sim::SimEvent> pinned;
  };

  net::Node& node_;
  gpu::GpuDevice& gpu_;
  rdma::ProtectionDomain& pd_;
  std::map<Key, Entry> entries_;
  std::uint64_t pins_ = 0;
  std::uint64_t reused_ = 0;
};

class PortusClient {
 public:
  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t timeouts = 0;  // ops abandoned by the watchdog
    Duration last_checkpoint{0};
    Duration last_restore{0};
    Duration registration_time{0};
    // PeerMem pins (= RDMA MRs) this client's registrations made: one per
    // run of adjacent tensor allocations its cache did not hold yet.
    std::uint64_t regions_registered = 0;
    // Gather capability the daemon accepted (last reg); 1 = single-SGE.
    std::uint32_t negotiated_max_sges = 0;
    // Aggregate payload CRC reported by the daemon for the last successful
    // checkpoint/restore (0 for phantom models). Comparable against
    // dnn::Model::weights_crc() for end-to-end integrity assertions.
    std::uint32_t last_payload_crc = 0;
    // --- retry/backoff observability (RetryPolicy) ---
    std::uint64_t retries = 0;       // re-sent ops (backpressure or timeout)
    std::uint64_t backpressure = 0;  // Backpressure answers absorbed
    std::uint64_t reconnects = 0;    // sockets re-dialed after a timeout
    // Quota the daemon granted at the last registration (protocol v5;
    // all-zero when the daemon runs untenanted).
    Bytes granted_capacity = 0;
    Bytes granted_rate = 0;
    std::uint32_t granted_wr_slots = 0;
  };

  // Backoff discipline for retryable failures. Backpressure answers (the
  // daemon's admission queue was full) retry up to max_retries with capped
  // exponential backoff and uniform [0.5, 1.5) jitter, floored at the
  // daemon's retry_after hint. Op-timeouts additionally retry — after
  // re-dialing the daemon — when retry_timeouts is set; leave it off where
  // a dead endpoint should surface immediately (cluster lane rerouting).
  struct RetryPolicy {
    int max_retries = 0;                // 0 = fail fast (classic behavior)
    Duration base_backoff{500'000};     // 0.5 ms
    Duration max_backoff{50'000'000};   // 50 ms cap
    bool retry_timeouts = false;
    std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;
  };

  // Identity + quota request shipped with every registration (protocol
  // v5). Empty id = the daemon's "default" tenant; priority 0 = high,
  // 1 = normal, 2 = batch; zero capacity/rate = "grant me the policy
  // default".
  struct TenantSpec {
    std::string id;
    std::uint8_t priority = 1;
    Bytes requested_capacity = 0;
    Bytes requested_rate = 0;
  };

  // One shard copy's registration: which tensors go to this daemon and
  // under what identity. register_model() is the degenerate single-shard
  // case (all tensors, the model's own name).
  struct ShardBinding {
    std::string reg_name;                        // shard-scoped ModelTable key
    std::vector<std::uint32_t> tensor_indices;   // subset, ascending
    std::uint32_t shard_id = 0;
    std::uint32_t shard_count = 1;
    std::uint32_t replica = 0;
    std::uint32_t replica_count = 1;
    Bytes job_bytes = 0;  // the whole model's tensor bytes (RegisterModelMsg)
  };

  // Each registration offers the daemon one datapath QP. This client's
  // registrations go to a cache of its own.
  PortusClient(net::Cluster& cluster, net::Node& client_node, gpu::GpuDevice& gpu,
               QpRendezvous& rendezvous, std::string endpoint = "portusd");
  // One control channel of a job whose channels all register through
  // `registrations`, on its node and GPU.
  PortusClient(net::Cluster& cluster, std::shared_ptr<RegistrationCache> registrations,
               QpRendezvous& rendezvous, std::string endpoint);

  // Dial the daemon (TCP handshake). Must precede every op but a
  // registration, which dials by itself when the client is not connected.
  sim::SubTask<> connect();

  // Pin + register every tensor (one MR per run of adjacent allocations)
  // and send the metadata packet. The daemon lays out the checkpoint
  // structure on PMEM before this returns. A run the cache holds already
  // costs no pin; a client not connected yet dials while its runs pin, so
  // a first registration costs the pin plus one round trip.
  sim::SubTask<> register_model(dnn::Model& model);

  // Register a subset of the model's tensors under binding.reg_name.
  // Returns the newest DONE epoch the daemon holds under that name (0 =
  // none): a restarted job's copy keeps its versions.
  sim::SubTask<std::uint64_t> register_shard(dnn::Model& model, ShardBinding binding);

  // Trigger "DO_CHECKPOINT" and wait for the daemon's completion notice.
  // Returns the committed epoch.
  sim::SubTask<std::uint64_t> checkpoint(dnn::Model& model, std::uint64_t iteration = 0);
  // `round` non-zero tags the pull for the forwards armed with it (v8);
  // `epoch_floor` non-zero makes it mint above that epoch (v10).
  sim::SubTask<std::uint64_t> checkpoint_named(std::string reg_name,
                                               std::uint64_t iteration = 0,
                                               std::uint64_t round = 0,
                                               std::uint64_t epoch_floor = 0);

  // Incremental variant (Check-N-Run-style extension): only the tensors in
  // `dirty_indices` changed since the previous checkpoint; the daemon pulls
  // those over RDMA and copies the rest from the last valid version within
  // PMEM. Falls back to a full pull when no previous version exists.
  sim::SubTask<std::uint64_t> checkpoint_incremental(
      dnn::Model& model, std::uint64_t iteration,
      std::vector<std::uint32_t> dirty_indices);

  // Armed forward (protocol v8): ask the daemon to land whatever `source`
  // commits in the checkpoint of round `round` (non-zero) into `reg_name`,
  // PMEM to PMEM, waiting at most `budget` for the source's answer (0 =
  // forever). Returns the epoch landed. Throws ForwardSourceLost when the
  // daemon could not reach the source, Error on any other refusal. The
  // watchdog on it is the op timeout plus `budget`, so it outlasts the pull
  // it waits for.
  sim::SubTask<std::uint64_t> forward_named(std::string reg_name, std::uint64_t iteration,
                                            std::string source, Duration budget,
                                            std::uint64_t round);

  // Trigger "DO_RESTORE": daemon writes the newest valid version into the
  // model's GPU buffers. Returns the restored epoch. `required_epoch` is
  // the replica-epoch floor (0 = newest available, see protocol.h).
  sim::SubTask<std::uint64_t> restore(dnn::Model& model);
  sim::SubTask<std::uint64_t> restore_named(std::string reg_name,
                                            std::uint64_t required_epoch = 0);

  // Tell the daemon this training job is complete (repacker hint).
  sim::SubTask<> finish(dnn::Model& model);

  // Abandon any control-plane roundtrip not answered within `d` of virtual
  // time (0 = wait forever). The watchdog closes the socket, so a timed-out
  // client is disconnected — exactly what a real client does when it gives
  // a dead daemon up. Degraded cluster restores rely on this to detect
  // hung (not just crashed) daemons.
  void set_op_timeout(Duration d) { op_timeout_ = d; }

  void set_retry_policy(RetryPolicy p) {
    retry_ = p;
    jitter_ = Rng{p.jitter_seed};
  }
  void set_tenant(TenantSpec t) { tenant_ = std::move(t); }
  const TenantSpec& tenant() const { return tenant_; }

  // Membership epoch stamped into every request (protocol v6). 0 = not
  // epoch-checked (standalone daemon / legacy ring). A daemon holding a
  // newer epoch answers epoch_mismatch, surfaced here as EpochMismatch —
  // the ClusterClient catches it, refetches placement, and re-routes.
  void set_membership_epoch(std::uint64_t e) { membership_epoch_ = e; }
  std::uint64_t membership_epoch() const { return membership_epoch_; }

  const Stats& stats() const { return stats_; }
  bool connected() const { return socket_ != nullptr && !socket_->closed(); }
  const std::string& endpoint() const { return endpoint_; }

 private:
  // Send `request` and await its answer, within the op timeout plus
  // `grace` when the op timeout is set.
  sim::SubTask<std::vector<std::byte>> roundtrip(std::vector<std::byte> request,
                                                 Duration grace = Duration{0});

  // Retry loop around one checkpoint/restore roundtrip: absorbs
  // Backpressure answers and (optionally) op-timeouts per retry_, backing
  // off with jitter between attempts. `req_wire` is re-sent verbatim.
  sim::SubTask<std::vector<std::byte>> retrying_roundtrip(std::vector<std::byte> req_wire,
                                                          Duration grace);
  sim::SubTask<> backoff(int attempt, std::uint64_t retry_after_ns);

  // One checkpoint, forward or restore request (encoded in `req_wire`,
  // answered by a `Done` message): send it through the retry loop, surface
  // EpochMismatch, ForwardSourceLost and failures, account the op (a
  // forward counts as a checkpoint). Returns the epoch the daemon
  // committed or served. `grace` extends its watchdog (see roundtrip).
  template <typename Done>
  sim::SubTask<std::uint64_t> request(std::vector<std::byte> req_wire,
                                      Duration grace = Duration{0});
  std::string stale_epoch_message(const char* op, const std::string& reg_name,
                                  std::uint64_t daemon_epoch) const;

  net::Cluster& cluster_;
  std::shared_ptr<RegistrationCache> registrations_;
  net::Node& node_;
  QpRendezvous& rendezvous_;
  std::string endpoint_;
  Duration op_timeout_{0};
  std::shared_ptr<net::TcpSocket> socket_;
  // Per-registration datapath, by registration name: each registered
  // (shard-scoped) name keeps the CQ of its QP alive for the daemon to
  // drive.
  std::map<std::string, std::unique_ptr<rdma::CompletionQueue>> datapaths_;
  // Heap-held so the roundtrip scope guard stays valid even if the client
  // is destroyed while the coroutine is suspended (crash-mid-op tests).
  std::shared_ptr<bool> op_in_flight_ = std::make_shared<bool>(false);
  RetryPolicy retry_;
  TenantSpec tenant_;
  std::uint64_t membership_epoch_ = 0;
  Rng jitter_{0x9E3779B97F4A7C15ull};
  Stats stats_;
};

}  // namespace portus::core
