// Portus Daemon: the storage-server side (Fig. 4).
//
// Listens on a TCP endpoint ("portusd"); each client connection is served
// by its own session process. Heavy operations (registration layout,
// checkpoint pulls, forwards, restore pushes) run on a worker pool — the
// paper's ThreadPool — modelled as a counting semaphore that serves the
// shortest remaining transfer first: an op asks for a worker at the bytes
// it will move (a registration at 0), the smallest waiting op gets the next
// free worker (arrival order among equals), and at each WR boundary with
// none of its WRs in flight a transfer lends its worker to a waiting op
// with fewer bytes to move than it has left (core/daemon/pipeline.h). So a
// small op that arrives behind large ones waits for their next WR boundary,
// not for whole transfers, and an op nobody waits behind never pauses: a
// lone op's timeline is the FIFO pool's.
//
// Concurrent cluster restores go shortest job first. A shard copy's job is
// its whole model: the tensor bytes of the shard manifest it registered
// with, decoded at its first restore. Such a restore asks and lends at its
// job's size, counts its job active on this daemon from then until its
// transfer has posted its last WR, and at each WR boundary with nothing in
// flight, the first one included, does not post while a strictly smaller
// job is active here: it lends its worker to any op waiting below its job's
// size, and otherwise waits until a job stops being active or an op queues
// for a worker. So on a shared client link the smallest job's shards post
// alone and finish first. A restore with no manifest (a plain PortusClient)
// and every other op keep the order above.
//
// PMEM layout on the devdax namespace:
//   [4 KiB  superblock (reserved)]
//   [ModelTable  @ 4 KiB,  capacity x 64 B]
//   [AllocTable  @ 64 KiB, capacity x 24 B]
//   [heap        @ 1 MiB ... device end)   (MIndex records + TensorData)
//
// Every op runs one skeleton: the membership-epoch gate, (checkpoints and
// forwards) an admission ticket, the key's landing lock, a worker, then the
// body. Every byte the daemon moves goes through one planner and one
// runner: plan_transfer (core/daemon/pipeline.h) turns the slot's extent
// plan into a chunk list, and transfer() drives it through
// PipelinedTransfer and merges the counters into Stats.
//   Checkpoint = CheckpointTxn::begin (ACTIVE persisted) -> pipelined
//   one-sided RDMA READs (chunked tensors, bounded window, optional QP
//   stripes) from client GPU memory into the slot's TensorData, each chunk
//   flushed and CRC'd as it lands (incremental: clean tensors copied
//   PMEM-locally from the previous DONE slot) -> final persist -> CRC
//   block -> commit (DONE + epoch persisted) -> notify client over TCP.
//   Restore = CRC scrub of the newest DONE slot, then the same runner
//   pushing one-sided RDMA WRITEs into the client's GPU buffers, under the
//   key's landing lock: a landing may rewrite any slot but the newest DONE
//   one, so a restore that overlapped two landings would push a slot being
//   rewritten.
//   Forward = a copy lands the version another daemon committed: SLOT_QUERY
//   to the source over a control socket of this daemon's own, then the
//   same runner pulling the source's whole slot as one range with
//   one-sided READs over a daemon-to-daemon QP, each chunk flushed as it
//   lands -> final persist -> check against the source's CRC block ->
//   block -> commit at the source's epoch. The elastic controller
//   (core/cluster/migration.h) asks for a plain one to migrate a copy; it
//   queries under the copy's landing lock. Cluster clients send an armed
//   one (protocol v8) together with the puller's DO_CHECKPOINT: the
//   replica queries first, holding nothing but its link to the source, and
//   the source answers the moment that round's checkpoint ends. Only then
//   does the replica take its ticket, landing lock and worker.
// A key's registrations, checkpoints, forwards and restores run one at a
// time.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "core/daemon/allocator.h"
#include "core/daemon/mindex.h"
#include "core/daemon/model_table.h"
#include "core/daemon/pipeline.h"
#include "core/daemon/tenant.h"
#include "core/protocol.h"
#include "net/cluster.h"
#include "pmem/devdax.h"
#include "rdma/fabric.h"
#include "sim/fault.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace portus::core {

class PortusDaemon {
 public:
  struct Config {
    int workers = 8;
    std::uint32_t model_table_capacity = 224;   // fits in [4 KiB, 18 KiB)
    // Allocator shards (per-worker arenas; see core/daemon/allocator.h).
    // 1 = the classic single arena, bit-identical offsets and compaction.
    // Match `workers` to give every worker its own table region and free
    // list; kAllocTableCapacity is split evenly across shards.
    std::uint32_t shards = 1;
    // Shard reservation refill: how much fresh heap a shard grabs from the
    // global bump when its local region runs dry. 0 = reserve exactly each
    // request's size (classic bump-per-alloc).
    Bytes alloc_refill_bytes = 0;
    // NUMA sockets the allocator partitions the heap across. Must divide
    // into `shards` (shards >= numa_nodes) and, when > 1, match the devdax
    // device's modeled topology (NodeSpec::pmem_numa_nodes). 1 = the
    // classic socket-blind allocator, bit-identical offsets and headers.
    std::uint32_t numa_nodes = 1;
    std::string endpoint = "portusd";
    // Optional timeline tracing of checkpoint/restore operations.
    sim::Tracer* tracer = nullptr;
    // --- pipelined datapath knobs (see core/daemon/pipeline.h) ---
    // Outstanding chunks per QP lane. 1 = the classic serial datapath
    // (identical timings, completion awaited before the next post).
    int pipeline_window = 1;
    // Split tensors into chunks of this many bytes so persists overlap
    // transfers and giant tensors do not serialize behind one WR. 0 = off.
    Bytes chunk_bytes = 0;
    // Datapath QPs connected per session (bounded by what the client
    // offers); chunks ride the stripes round-robin.
    int stripes = 1;
    // Extent coalescing (core/daemon/extent.h): whole tensors no larger
    // than this are packed dense in new slot layouts and fused into
    // multi-SGE gather extents of up to kExtentByteBudget — one WQE moves
    // a whole run of small tensors. 0 restores the classic layout and
    // single-SGE datapath bit-for-bit.
    Bytes coalesce_threshold = kExtentByteBudget;
    // Gather-list budget per work request; the effective per-session value
    // is min(this, the client's offered capability, this NIC's max_sges).
    int max_sges = 16;
    // Flush each admission burst's WRs as one chained post per lane (one
    // doorbell per lane per window) instead of ringing per extent. Off
    // reproduces the per-extent doorbell datapath bit-for-bit.
    bool batch_doorbells = true;
    // Fault injection: when set, start() registers this daemon as a kill
    // target named `endpoint`, so tests/benches can crash or hang it at a
    // chosen point in virtual time (sim/fault.h).
    sim::FaultInjector* faults = nullptr;
    // --- multi-tenant admission control (core/daemon/tenant.h). Off by
    // default: every untenanted workload runs the classic unthrottled
    // datapath bit-for-bit. On, checkpoints acquire an admission ticket
    // (strict priority + WFQ + token-bucket pacing, bounded queues with
    // Backpressure rejections) before occupying a worker. ---
    bool tenancy = false;
    // Grant ceiling for tenants that request nothing / too much. All-zero =
    // unlimited capacity, unpaced.
    TenantQuota tenant_defaults;
    // In-flight admission slots; 0 = match `workers`.
    int admission_inflight = 0;
    std::uint32_t admission_queue_depth = 64;    // per priority class
  };

  // Op counters, plus the datapath counters of every checkpoint and
  // restore run (inherited field names and ratios; see pipeline.h).
  struct Stats : PipelinedTransfer::Stats {
    std::uint64_t registrations = 0;
    std::uint64_t shard_registrations = 0;  // subset with shard/replica identity
    std::uint64_t checkpoints = 0;
    std::uint64_t forwards = 0;  // versions landed from a peer daemon's slot
    std::uint64_t restores = 0;
    std::uint64_t failed_ops = 0;
    std::uint64_t rejected_protocol = 0;  // magic/version mismatches answered
    // Restores refused because the DONE slot's payload failed the CRC scrub
    // (missing/torn/stale CRC block, or tensor bytes not matching it), and
    // forwards whose landed bytes failed the source's block.
    std::uint64_t integrity_rejects = 0;
    // Checkpoints bounced with a retryable Backpressure answer (admission
    // queue full). Deliberately NOT counted as failed_ops: the client
    // retries and the op is expected to land.
    std::uint64_t backpressure_rejects = 0;
    // Ops bounced with a retryable EpochMismatch answer (the request's
    // membership epoch was stale, protocol v6). Not failed_ops either: the
    // client re-resolves placement and reissues.
    std::uint64_t epoch_rejects = 0;
    // Armed forwards (protocol v8) whose round committed nothing at the
    // source, or whose source went away before answering. Not failed_ops
    // either: the round's pull failed, and the client lands the shard
    // another way.
    std::uint64_t voided_forwards = 0;
    // Landings (forwards and migrations) refused because this copy holds
    // another version at the carried epoch: one epoch named two versions
    // of the key. Counted in failed_ops too; 0 on a healthy ring.
    std::uint64_t version_conflicts = 0;
    // Worker-pool queueing: hand-overs of a worker to a smaller op between
    // WRs, and the virtual time ops spent queued for a worker, first and
    // after each hand-over.
    std::uint64_t worker_yields = 0;
    double worker_wait_seconds = 0.0;
    // Shortest job first: WR boundaries at which a cluster restore held its
    // transfer back while a smaller job's restore was active here, and the
    // virtual time it spent so (its worker lent out meanwhile included).
    std::uint64_t restore_holds = 0;
    double restore_hold_seconds = 0.0;
    Bytes bytes_pulled = 0;
    Bytes bytes_pushed = 0;
  };

  PortusDaemon(net::Cluster& cluster, net::Node& storage_node, QpRendezvous& rendezvous,
               Config config);
  PortusDaemon(net::Cluster& cluster, net::Node& storage_node, QpRendezvous& rendezvous)
      : PortusDaemon(cluster, storage_node, rendezvous, Config{}) {}

  ~PortusDaemon();

  // Bind the endpoint and start accepting connections.
  void start();

  // Fault hook (also reachable by name through Config::faults). kCrash
  // closes the listener, every live session socket and every control
  // socket to a peer daemon — clients see Disconnected immediately. kHang
  // keeps everything open but drops all requests unanswered — clients only
  // notice through their own timeouts.
  // Checkpoint data on PMEM is untouched by either. kPowerCut additionally
  // fires PmemDevice::power_cut first (unpersisted lines lost/torn) and
  // marks the daemon dead so in-flight operations can no longer commit.
  void kill(sim::FaultMode mode = sim::FaultMode::kCrash);
  bool killed() const { return killed_; }

  // Rebuild DRAM state (ModelMap, allocator mirror) from PMEM after a
  // restart. Client sessions do not survive; clients re-register.
  void recover();

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  // Workers no op holds right now (Config::workers when idle).
  int idle_workers() const { return workers_->available(); }
  ModelTable& model_table() { return *model_table_; }
  PmemAllocator& allocator() { return *allocator_; }
  pmem::PmemDevice& device() { return device_; }
  net::Node& node() { return node_; }
  sim::Engine& engine() { return cluster_.engine(); }

  // Tenancy (null unless Config::tenancy is on).
  TenantRegistry* tenants() { return tenants_.get(); }
  AdmissionController* admission() { return admission_.get(); }
  // Online-repack relocation barrier: stop granting new checkpoint
  // admissions while a maintenance window rewrites the allocator. No-ops
  // when tenancy is off (the offline repacker quiesces the allocator alone).
  void pause_admissions() {
    if (admission_ != nullptr) admission_->pause();
  }
  void resume_admissions() {
    if (admission_ != nullptr) admission_->resume();
  }

  // Cluster membership epoch this daemon currently serves (protocol v6).
  // 0 = standalone / not epoch-checked: requests are never bounced. The
  // elastic controller (core/cluster/migration.h) pushes each bump; any
  // request stamped with a different non-zero epoch is answered with
  // epoch_mismatch so the client re-resolves placement first.
  void set_membership_epoch(std::uint64_t e) { membership_epoch_ = e; }
  std::uint64_t membership_epoch() const { return membership_epoch_; }

  // Models whose training job sent FINISH_JOB (repacker input).
  const std::set<std::string>& finished_models() const { return finished_; }

  // The FORWARD handler, public so the elastic controller can ask for a
  // migration in-process. It needs the key's stored index, not a session.
  // A plain (unarmed) forward whose copy already holds a newer DONE version
  // answers ok at that version and moves nothing.
  sim::SubTask<CheckpointDoneMsg> handle_forward(ForwardReqMsg msg);

  // Whether a registration, checkpoint, forward or restore of `key` holds
  // its landing lock right now (the repacker leaves such a copy alone).
  bool landing(const std::string& key) const;

  // Live (registered this run) MIndex for a model, if any.
  MIndex* find_live_index(const std::string& model_name);
  // Load from PMEM (works without a live session, e.g. portusctl).
  MIndex load_index(const std::string& model_name);
  // The live index when a session holds one (its slot headers are the
  // daemon's own), else one loaded from PMEM into `held`.
  MIndex& index_of(const std::string& model_name, std::optional<MIndex>& held);

  static constexpr Bytes kModelTableOffset = 4_KiB;
  static constexpr Bytes kAllocTableOffset = 64_KiB;
  static constexpr std::uint32_t kAllocTableCapacity = 8192;  // extents, all shards
  static constexpr Bytes kHeapOffset = 1_MiB;

 private:
  struct ModelSession {
    RegisterModelMsg registration;
    std::unique_ptr<MIndex> index;
    std::unique_ptr<rdma::CompletionQueue> cq;  // shared by all stripes
    std::vector<rdma::QueuePair*> qps;          // one per connected stripe
    // Negotiated gather capability (min of client offer, config, NIC).
    std::uint32_t max_sges = 1;
    // Socket affinity: the worker serving this session is pinned to
    // home_node, and its allocations prefer home_shard (a shard whose
    // arena lives on that node). Round-robin assigned at registration;
    // both 0 on flat topologies.
    std::uint32_t home_node = 0;
    std::uint64_t home_shard = 0;
    // The size of the job this copy belongs to, decoded from the
    // registration's manifest at the first restore (0: no manifest).
    std::optional<Bytes> job_bytes;
  };

  // The replica side of forwarding: a control socket to one source daemon
  // and the QP its responder connects to, per (source endpoint, key), so
  // concurrent forwards never share a socket. Dropped when the source
  // stops answering; the next forward opens a fresh one.
  struct PeerLink {
    std::shared_ptr<net::TcpSocket> socket;
    std::shared_ptr<rdma::CompletionQueue> cq;
    rdma::QueuePair* qp = nullptr;
    std::uint64_t qp_token = 0;  // offered until the source connects the QP
  };

  // A cluster restore's job, counted active on the daemon (active_jobs_)
  // from construction until end() or destruction; job 0 counts nothing.
  class ActiveJob {
   public:
    ActiveJob(PortusDaemon& daemon, Bytes job);
    ActiveJob(ActiveJob&& o) noexcept : daemon_{o.daemon_}, job_{std::exchange(o.job_, 0)} {}
    ~ActiveJob() { end(); }
    void end();
    Bytes job() const { return job_; }

   private:
    PortusDaemon& daemon_;
    Bytes job_;
  };

  // One op's worker: a permit of workers_, asked for at the bytes the op
  // moves, which the op's transfer lends to smaller ops between WRs. Each
  // wait for it is timed in Stats and traced as "wait <key>". A cluster
  // restore's worker stands for its job: it lends at the job's size, keeps
  // the job active until the transfer has posted its last WR, and holds the
  // transfer while a smaller job is active, each hold traced as
  // "hold <key>".
  class OpWorker final : public PipelinedTransfer::Worker {
   public:
    OpWorker(PortusDaemon& daemon, const std::string& key, ActiveJob job,
             sim::SimSemaphore::Permit permit)
        : daemon_{daemon}, key_{key}, job_{std::move(job)}, permit_{std::move(permit)} {}
    bool smaller_waiting(Bytes remaining) const override {
      return permit_.would_hand_over(size(remaining));
    }
    sim::SubTask<> lend(Bytes remaining) override;
    bool held() const override;
    sim::SubTask<> hold() override;
    void posted_last() override { job_.end(); }

   private:
    // What the op counts as in the pool with `remaining` bytes left.
    Bytes size(Bytes remaining) const { return job_.job() != 0 ? job_.job() : remaining; }

    PortusDaemon& daemon_;
    std::string key_;
    ActiveJob job_;
    sim::SimSemaphore::Permit permit_;
  };

  sim::Process accept_loop();
  sim::Process session_loop(std::shared_ptr<net::TcpSocket> socket);

  sim::SubTask<RegisterAckMsg> handle_register(RegisterModelMsg msg);
  sim::SubTask<CheckpointDoneMsg> handle_checkpoint(CheckpointReqMsg msg);
  sim::SubTask<RestoreDoneMsg> handle_restore(RestoreReqMsg msg);
  // The source side of a forward, answered inline by the session loop with
  // no worker permit and no admission ticket: the replica's forward holds
  // a permit while it waits for this answer, so two daemons whose workers
  // all hold forwards waiting on each other would otherwise deadlock.
  SlotReplyMsg answer_slot_query(const SlotQueryMsg& msg);
  // An armed query (v8): once the key's checkpoint of `msg.round` ends,
  // answer_slot_query for the epoch it committed, or ok=false if it was
  // refused or failed. Waits in the session loop of the replica's link.
  sim::SubTask<SlotReplyMsg> answer_armed_query(SlotQueryMsg msg);
  // Record how a checkpoint of round `round` ended and wake its waiters.
  void end_round(std::uint64_t round, const CheckpointDoneMsg& done);
  // Ask `msg.source` for its DONE slot of (key, epoch) within the budget,
  // over the link to it (opened on first use; in peers_ on return). A
  // source that cannot be reached or stays silent drops the link and
  // throws an Error opening with kForwardSourceLost. The caller holds the
  // link's lock.
  sim::SubTask<SlotReplyMsg> query_source(const ForwardReqMsg& msg);

  // --- the op skeleton the handlers share ---
  // Membership-epoch gate (protocol v6), run before an op takes any
  // resource: when the request carries a stale non-zero epoch, fill
  // `reply` with the EpochMismatch answer and return true.
  template <typename Reply>
  bool reject_stale_epoch(std::uint64_t request_epoch, Reply& reply);
  // Tenancy: the admission ticket a checkpoint or forward of `model` must
  // hold before it may occupy a worker or post a WR. Returns false with
  // `done` filled in as a Backpressure answer when the class queue is full;
  // leaves `ticket` empty when tenancy is off or the model is unknown.
  sim::SubTask<bool> admit(const std::string& model, AdmissionController::Ticket& ticket,
                           CheckpointDoneMsg& done);
  // Wait for a worker at priority `bytes` (what `key`'s op will move), or,
  // for a cluster restore, at its `job`'s size, counting the job active.
  sim::SubTask<OpWorker> take_worker(const std::string& key, Bytes bytes, Bytes job = 0);
  // What a checkpoint or restore of `key` moves (0 when unregistered), and
  // what a forward of it lands: its slot, which a forward fills only from a
  // source slot of the same size (0 when it has no index).
  Bytes registered_bytes(const std::string& key) const;
  Bytes slot_bytes(const std::string& key);
  // The size of the job `key`'s copy belongs to (ModelSession::job_bytes):
  // 0 when it is unregistered or registered with no manifest.
  Bytes job_bytes(const std::string& key);
  // Wake the held restores: a job stopped being active, or an op queues
  // for a worker that one of them may lend it.
  void wake_holders();
  // Opens the span `what` + `key` on this daemon's track (empty untraced).
  sim::Tracer::Span trace(const char* what, const std::string& key);
  // Plan, run and account one data op over the session's lanes (see
  // plan_transfer). Returns the per-tensor CRCs collected inline —
  // checkpoints of materialized payloads only, empty otherwise.
  sim::SubTask<std::vector<std::uint32_t>> transfer(ModelSession& session, OpWorker& worker,
                                                    TransferChunk::Kind direction,
                                                    Bytes slot_offset,
                                                    const rdma::MemoryRegion& slot_mr,
                                                    std::vector<bool> dirty = {},
                                                    Bytes prev_offset = 0);
  // Run one chunk list over `lanes` (all delivering into `cq`) on `worker`,
  // pinned to `home_node`, and merge its counters into Stats: the one place
  // a PipelinedTransfer is built. Returns the CRCs of `crc_tensors` tensors
  // collected inline (none when 0).
  sim::SubTask<std::vector<std::uint32_t>> run_transfer(const std::vector<rdma::QueuePair*>& lanes,
                                                        rdma::CompletionQueue& cq,
                                                        OpWorker& worker,
                                                        std::uint32_t home_node,
                                                        std::vector<TransferChunk> work,
                                                        std::size_t crc_tensors);
  // The region of `index`'s slot, registered on first use. A phantom twin
  // moves time but no bytes: what a forward of a phantom model reads.
  const rdma::MemoryRegion& slot_region(const MIndex& index, int slot, bool phantom = false);
  // Held by a registration, checkpoint, forward or restore of `key` around
  // its worker.
  sim::SimMutex& landing_lock(const std::string& key);
  // Held by a forward over the link to (source, key) for its slot-query
  // exchange, so one link carries one exchange at a time. Taken before
  // anything else: a forward waiting for it holds no ticket or worker.
  sim::SimMutex& link_lock(const std::string& source, const std::string& key);

  net::Cluster& cluster_;
  net::Node& node_;
  QpRendezvous& rendezvous_;
  Config config_;
  pmem::PmemDevice& device_;
  rdma::ProtectionDomain& pd_;
  std::unique_ptr<ModelTable> model_table_;
  std::unique_ptr<PmemAllocator> allocator_;
  std::unique_ptr<sim::SimSemaphore> workers_;
  // Cluster restores active on this daemon per job size: each from when it
  // asks for its worker until its transfer has posted its last WR.
  std::map<Bytes, int> active_jobs_;
  // What held restores wait on: set and dropped by wake_holders(), made
  // only while one waits.
  std::shared_ptr<sim::SimEvent> holders_;
  // Tenancy (declared registry-before-controller: tickets released while
  // the controller dies must still find their tenants).
  std::unique_ptr<TenantRegistry> tenants_;
  std::unique_ptr<AdmissionController> admission_;
  std::map<std::string, ModelSession> sessions_;
  std::map<std::pair<std::string, std::string>, PeerLink> peers_;  // (source, key)
  // (slot data offset, slot size, phantom) -> its region.
  std::map<std::tuple<Bytes, Bytes, bool>, const rdma::MemoryRegion*> slot_regions_;
  std::map<std::string, std::unique_ptr<sim::SimMutex>> landing_locks_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<sim::SimMutex>> link_locks_;
  // How each key's latest armed checkpoint round ended, and the event its
  // waiting armed queries hold (set and replaced as each round ends).
  struct RoundEnd {
    std::uint64_t round = 0;
    bool committed = false;
    std::uint64_t epoch = 0;
    std::string error;
    std::shared_ptr<sim::SimEvent> ended;
  };
  std::map<std::string, RoundEnd> round_ends_;
  // Shared by every responder QP a replica's first slot query connects;
  // one-sided READs aimed at this daemon complete on the replica's side,
  // so nothing is ever delivered here.
  std::unique_ptr<rdma::CompletionQueue> responder_cq_;
  std::set<std::string> finished_;
  std::vector<std::weak_ptr<net::TcpSocket>> client_sockets_;  // kill() targets
  Stats stats_;
  std::uint64_t next_session_ = 0;  // round-robin NUMA home assignment
  std::uint64_t membership_epoch_ = 0;
  bool started_ = false;
  bool killed_ = false;
  bool hung_ = false;  // kHang: reachable but mute
  bool dead_ = false;  // kPowerCut: the modeled process is gone; no commits
};

}  // namespace portus::core
