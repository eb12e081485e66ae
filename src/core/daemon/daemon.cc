#include "core/daemon/daemon.h"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/strformat.h"
#include "core/daemon/extent.h"
#include "core/daemon/slots.h"

namespace portus::core {

namespace {
constexpr const char* kLog = "portusd";

// A registration may reuse a stored index only with the layout it was laid
// out for: any other name, dtype or size would move bytes across tensor
// boundaries inside the slot and the client's run-wide MR.
void check_same_layout(const MIndex& index, const RegisterModelMsg& msg) {
  const auto& stored = index.tensors();
  PORTUS_CHECK(stored.size() == msg.tensors.size(),
               strf("re-registration of {} with {} tensors; its index holds {}",
                    msg.model_name, msg.tensors.size(), stored.size()));
  for (std::size_t i = 0; i < stored.size(); ++i) {
    const auto& s = stored[i];
    const auto& t = msg.tensors[i];
    if (s.name == t.name && s.dtype == t.dtype && s.size == t.size) continue;
    throw Error(strf("re-registration of {} does not match its index at tensor {}: "
                     "{} {} {} B, stored {} {} {} B",
                     msg.model_name, i, t.name, dnn::to_string(t.dtype), t.size, s.name,
                     dnn::to_string(s.dtype), s.size));
  }
}

// A forward refused because its source answered ok=false.
Error source_refused(const ForwardReqMsg& msg, const SlotReplyMsg& reply) {
  return Error(strf("forward of {} refused: {} answered: {}", msg.model_name, msg.source,
                    reply.error));
}

}  // namespace

PortusDaemon::PortusDaemon(net::Cluster& cluster, net::Node& storage_node,
                           QpRendezvous& rendezvous, Config config)
    : cluster_{cluster},
      node_{storage_node},
      rendezvous_{rendezvous},
      config_{config},
      device_{storage_node.devdax().device()},
      pd_{storage_node.nic().alloc_pd("portusd-pd")} {
  PORTUS_CHECK_ARG(storage_node.has_devdax(),
                   "Portus daemon requires a devdax PMEM namespace");
  PORTUS_CHECK_ARG(config_.pipeline_window >= 1, "pipeline_window must be >= 1");
  PORTUS_CHECK_ARG(config_.max_sges >= 1, "max_sges must be >= 1");
  model_table_ = std::make_unique<ModelTable>(device_, kModelTableOffset,
                                              config_.model_table_capacity);
  allocator_ = std::make_unique<PmemAllocator>(
      device_, PmemAllocator::Config{.table_offset = kAllocTableOffset,
                                     .table_capacity = kAllocTableCapacity,
                                     .data_offset = kHeapOffset,
                                     .data_end = device_.size(),
                                     .shards = config_.shards,
                                     .refill_bytes = config_.alloc_refill_bytes,
                                     .numa_nodes = config_.numa_nodes});
  workers_ = std::make_unique<sim::SimSemaphore>(cluster.engine(), config_.workers);
  if (config_.tenancy) {
    tenants_ = std::make_unique<TenantRegistry>(
        TenantRegistry::Defaults{.quota = config_.tenant_defaults});
    admission_ = std::make_unique<AdmissionController>(
        cluster.engine(),
        AdmissionController::Config{
            .max_inflight = config_.admission_inflight > 0 ? config_.admission_inflight
                                                           : config_.workers,
            .queue_depth = config_.admission_queue_depth,
            .tracer = config_.tracer,
            .track = config_.endpoint});
  }
}

PortusDaemon::~PortusDaemon() {
  if (config_.faults != nullptr) config_.faults->deregister_target(config_.endpoint);
}

void PortusDaemon::start() {
  PORTUS_CHECK(!started_, "daemon already started");
  started_ = true;
  cluster_.listen(config_.endpoint);
  cluster_.engine().spawn(accept_loop());
  if (config_.faults != nullptr) {
    config_.faults->register_target(config_.endpoint,
                                    [this](sim::FaultMode mode) { kill(mode); });
  }
}

void PortusDaemon::kill(sim::FaultMode mode) {
  if (killed_) return;
  killed_ = true;
  wake_waiters();  // a quiesce() waiting here returns
  if (mode == sim::FaultMode::kHang) {
    // Gray failure: sockets stay up, requests vanish into the void.
    hung_ = true;
    PLOG_INFO(kLog, "FAULT: {} hung (mute, connections stay open)", config_.endpoint);
    return;
  }
  if (mode == sim::FaultMode::kPowerCut) {
    // Device-level power loss before the crash-stop: every unpersisted
    // cache line is lost or torn, and the modeled process is gone — any
    // in-flight coroutine still running in the simulator must not commit
    // or write PMEM on its behalf (dead_ guards the commit points).
    dead_ = true;
    device_.power_cut(0x9E3779B97F4A7C15ull ^ device_.crash_count());
    PLOG_INFO(kLog, "FAULT: {} lost power (dirty lines dropped/torn)",
              config_.endpoint);
  }
  // Crash-stop: refuse new connections and drop the live ones.
  cluster_.endpoint(config_.endpoint).close();
  for (auto& weak : client_sockets_) {
    if (auto socket = weak.lock()) socket->close();
  }
  client_sockets_.clear();
  for (auto& [key, link] : peers_) {
    if (link.socket != nullptr) link.socket->close();
  }
  PLOG_INFO(kLog, "FAULT: {} crashed (listener + {} sessions closed)", config_.endpoint,
            sessions_.size());
}

void PortusDaemon::recover() {
  model_table_->recover();
  allocator_->recover();
  sessions_.clear();
  PLOG_INFO(kLog, "recovered: {} models in table, {} live bytes on heap",
            model_table_->size(), allocator_->live_bytes());
}

template <typename Reply>
bool PortusDaemon::reject_stale_epoch(std::uint64_t request_epoch, Reply& reply) {
  // Epoch 0 on either side means "not epoch-checked" (standalone daemon /
  // legacy client). A stale op takes no ticket, permit or PMEM byte: the
  // client re-resolves placement and reissues.
  if (request_epoch == 0 || membership_epoch_ == 0 || request_epoch == membership_epoch_) {
    return false;
  }
  ++stats_.epoch_rejects;
  reply.ok = false;
  reply.epoch_mismatch = true;
  if constexpr (std::is_same_v<Reply, RegisterAckMsg>) {
    reply.current_membership_epoch = membership_epoch_;
  } else {
    reply.current_epoch = membership_epoch_;
  }
  reply.error = strf("stale membership epoch {} (current {})", request_epoch, membership_epoch_);
  return true;
}

sim::SubTask<bool> PortusDaemon::admit(const std::string& model,
                                       AdmissionController::Ticket& ticket,
                                       CheckpointDoneMsg& done) {
  // Unregistered models fall through untenanted and fail the handler's
  // session lookup. Restores never come here: they are the recovery path.
  if (admission_ == nullptr) co_return true;
  const auto it = sessions_.find(model);
  Tenant* tenant = it != sessions_.end() ? tenants_->owner_of(model) : nullptr;
  if (tenant == nullptr) co_return true;
  const Bytes op_bytes = it->second.registration.total_bytes();
  try {
    ticket = co_await admission_->admit(*tenant, op_bytes, model);
  } catch (const Backpressure& e) {
    ++stats_.backpressure_rejects;
    done.ok = false;
    done.backpressure = true;
    done.retry_after_ns = static_cast<std::uint64_t>(AdmissionController::kRetryAfter.count());
    done.error = e.what();
    co_return false;
  }
  co_return true;
}

sim::Tracer::Span PortusDaemon::trace(const char* what, const std::string& key) {
  if (config_.tracer == nullptr) return {};
  return config_.tracer->span(what + key, config_.endpoint);
}

Bytes PortusDaemon::registered_bytes(const std::string& key) const {
  const auto it = sessions_.find(key);
  return it == sessions_.end() ? 0 : it->second.registration.total_bytes();
}

Bytes PortusDaemon::slot_bytes(const std::string& key) {
  try {
    std::optional<MIndex> held;
    return index_of(key, held).slot_size();
  } catch (const Error&) {
    return 0;  // the forward fails on it once it holds its worker
  }
}

Bytes PortusDaemon::job_bytes(const std::string& key) const {
  const auto it = sessions_.find(key);
  return it == sessions_.end() ? 0 : it->second.registration.job_bytes;
}

sim::SubTask<PortusDaemon::OpWorker> PortusDaemon::take_worker(const std::string& key,
                                                               Bytes bytes, Bytes job) {
  ActiveOp active{*this, active_jobs_, job};  // active while it waits, too
  const Time since = engine().now();
  const bool waits = workers_->available() == 0;
  const auto span = waits ? trace("wait ", key) : sim::Tracer::Span{};
  if (waits) wake_waiters();
  auto permit = co_await workers_->permit(job != 0 ? job : bytes);
  stats_.worker_wait_seconds += to_seconds(engine().now() - since);
  co_return OpWorker{*this, key, std::move(active), std::move(permit)};
}

PortusDaemon::ActiveOp::ActiveOp(PortusDaemon& daemon, Tally& tally, std::uint64_t key)
    : daemon_{daemon}, tally_{tally}, key_{key} {
  if (key_ != 0) ++tally_[key_];
}

void PortusDaemon::ActiveOp::end() {
  if (key_ == 0) return;
  const auto it = tally_.find(std::exchange(key_, 0));
  if (--it->second > 0) return;
  tally_.erase(it);
  daemon_.wake_waiters();
}

void PortusDaemon::wake_waiters() {
  if (waiters_ != nullptr) std::exchange(waiters_, nullptr)->set();
}

sim::SubTask<> PortusDaemon::woken() {
  if (waiters_ == nullptr) waiters_ = std::make_shared<sim::SimEvent>(engine());
  const auto event = waiters_;  // wake_waiters() drops it when it fires
  co_await event->wait();
}

sim::SubTask<> PortusDaemon::quiesce(std::uint64_t epoch) {
  while (!killed_ && active_epochs_.size() > active_epochs_.count(epoch)) co_await woken();
}

sim::SubTask<> PortusDaemon::OpWorker::lend(Bytes remaining) {
  auto& stats = daemon_.stats_;
  ++stats.worker_yields;
  const Time since = daemon_.engine().now();
  const auto span = daemon_.trace("wait ", key_);
  daemon_.wake_waiters();
  co_await permit_.hand_over(size(remaining));
  stats.worker_wait_seconds += to_seconds(daemon_.engine().now() - since);
}

bool PortusDaemon::OpWorker::held() const {
  return job_.key() != 0 && daemon_.active_jobs_.begin()->first < job_.key();
}

sim::SubTask<> PortusDaemon::OpWorker::hold() {
  auto& d = daemon_;
  ++d.stats_.restore_holds;
  const Time since = d.engine().now();
  const auto span = d.trace("hold ", key_);
  while (held()) {
    if (permit_.would_hand_over(job_.key())) {
      co_await lend(job_.key());
      continue;
    }
    co_await d.woken();
  }
  d.stats_.restore_hold_seconds += to_seconds(d.engine().now() - since);
}

sim::SubTask<std::vector<std::uint32_t>> PortusDaemon::transfer(
    ModelSession& session, OpWorker& worker, TransferChunk::Kind direction, Bytes slot_offset,
    const rdma::MemoryRegion& slot_mr, std::vector<bool> dirty, Bytes prev_offset) {
  const MIndex& index = *session.index;
  auto work = plan_transfer(index, session.registration.tensors,
                            ExtentConfig{.coalesce_threshold = config_.coalesce_threshold,
                                         .max_sges = static_cast<int>(session.max_sges)},
                            config_.chunk_bytes, direction, slot_offset, slot_mr, dirty,
                            prev_offset);
  const bool crcs = direction == TransferChunk::Kind::kRead && !index.phantom();
  auto landed = co_await run_transfer(*session.qp, worker, session.home_node, std::move(work),
                                      crcs ? index.tensors().size() : 0);
  co_return landed;
}

sim::SubTask<std::vector<std::uint32_t>> PortusDaemon::run_transfer(
    rdma::QueuePair& qp, OpWorker& worker, std::uint32_t home_node,
    std::vector<TransferChunk> work, std::size_t crc_tensors) {
  PipelinedTransfer pipe{cluster_.engine(), qp,
                         PipelinedTransfer::Config{.window = config_.pipeline_window,
                                                   .batch_doorbells = config_.batch_doorbells}};
  pipe.bind_pmem(&device_, &node_.devdax_write_channel(), device_.perf().read_bw);
  pipe.set_home_node(home_node);
  pipe.set_worker(&worker);
  co_await pipe.run(std::move(work));
  stats_.merge(pipe.stats());
  if (crc_tensors == 0) co_return {};
  co_return pipe.tensor_crcs(crc_tensors);
}

const rdma::MemoryRegion& PortusDaemon::slot_region(const MIndex& index, int slot,
                                                    bool phantom) {
  const Bytes offset = index.slot(slot).data_offset;
  PORTUS_CHECK(offset != 0, "slot has no PMEM extent to register");
  auto& mr = slot_regions_[{offset, index.slot_size(), phantom}];
  if (mr == nullptr) {
    auto mapping = node_.devdax().map(offset, index.slot_size());
    auto desc = node_.pmem_region(mapping);
    desc.phantom = phantom;
    mr = &pd_.register_region(desc);
  }
  return *mr;
}

sim::SimMutex& PortusDaemon::landing_lock(const std::string& key) {
  auto& lock = landing_locks_[key];
  if (lock == nullptr) lock = std::make_unique<sim::SimMutex>(cluster_.engine());
  return *lock;
}

bool PortusDaemon::landing(const std::string& key) const {
  const auto it = landing_locks_.find(key);
  return it != landing_locks_.end() && it->second->locked();
}

sim::SimMutex& PortusDaemon::link_lock(const std::string& source, const std::string& key) {
  auto& lock = link_locks_[{source, key}];
  if (lock == nullptr) lock = std::make_unique<sim::SimMutex>(cluster_.engine());
  return *lock;
}

MIndex* PortusDaemon::find_live_index(const std::string& model_name) {
  const auto it = sessions_.find(model_name);
  return it == sessions_.end() ? nullptr : it->second.index.get();
}

MIndex PortusDaemon::load_index(const std::string& model_name) {
  const auto offset = model_table_->lookup(model_name);
  if (!offset.has_value()) throw NotFound("model not in ModelTable: " + model_name);
  return MIndex::load(device_, *offset);
}

MIndex& PortusDaemon::index_of(const std::string& model_name, std::optional<MIndex>& held) {
  if (MIndex* live = find_live_index(model_name); live != nullptr) return *live;
  return held.emplace(load_index(model_name));
}

sim::Process PortusDaemon::accept_loop() {
  auto& listener = cluster_.endpoint(config_.endpoint);
  try {
    for (;;) {
      auto socket = co_await listener.accept();
      cluster_.engine().spawn(session_loop(std::move(socket)));
    }
  } catch (const Disconnected&) {
    // listener closed at teardown
  }
}

sim::Process PortusDaemon::session_loop(std::shared_ptr<net::TcpSocket> socket) {
  std::erase_if(client_sockets_, [](const auto& w) { return w.expired(); });
  client_sockets_.push_back(socket);
  // A request whose body does not decode is refused in its own reply type
  // and counted failed; the session keeps serving the socket.
  const auto refuse = [&](auto reply, const std::exception& e) {
    ++stats_.failed_ops;
    reply.ok = false;
    reply.error = strf("undecodable request: {}", e.what());
    socket->send(encode(reply));
  };
  try {
    for (;;) {
      const auto wire = co_await socket->recv();
      if (hung_) continue;  // gray failure: swallow the request, answer nothing
      // An empty message has no type; it is hung up on like an unknown one.
      switch (wire.empty() ? MsgType{} : decode_type(wire)) {
        case MsgType::kRegisterModel: {
          RegisterModelMsg msg;
          try {
            msg = decode_register_model(wire);
          } catch (const ProtocolMismatch& e) {
            // Explicit rejection instead of a dropped connection: the stale
            // peer gets told exactly why, in the one ack layout that is
            // stable across protocol generations (magic+version lead it).
            ++stats_.rejected_protocol;
            refuse(RegisterAckMsg{}, e);
            break;
          } catch (const Error& e) {
            refuse(RegisterAckMsg{}, e);
            break;
          }
          auto reply = co_await handle_register(std::move(msg));
          if (!hung_) socket->send(encode(reply));
          break;
        }
        case MsgType::kCheckpointReq: {
          CheckpointReqMsg msg;
          try {
            msg = decode_checkpoint_req(wire);
          } catch (const Error& e) {
            refuse(CheckpointDoneMsg{}, e);
            break;
          }
          // Armed forwards of this round wait for how it ends, whichever
          // exit of handle_checkpoint it took.
          const auto round = msg.round;
          auto reply = co_await handle_checkpoint(std::move(msg));
          if (round != 0) end_round(round, reply);
          if (!hung_) socket->send(encode(reply));
          break;
        }
        case MsgType::kRestoreReq: {
          RestoreReqMsg msg;
          try {
            msg = decode_restore_req(wire);
          } catch (const Error& e) {
            refuse(RestoreDoneMsg{}, e);
            break;
          }
          auto reply = co_await handle_restore(std::move(msg));
          if (!hung_) socket->send(encode(reply));
          break;
        }
        case MsgType::kForwardReq: {
          ForwardReqMsg msg;
          try {
            msg = decode_forward_req(wire);
          } catch (const Error& e) {
            refuse(CheckpointDoneMsg{}, e);
            break;
          }
          auto reply = co_await handle_forward(std::move(msg));
          if (!hung_) socket->send(encode(reply));
          break;
        }
        case MsgType::kSlotQuery: {
          SlotQueryMsg msg;
          try {
            msg = decode_slot_query(wire);
          } catch (const Error& e) {
            refuse(SlotReplyMsg{}, e);
            break;
          }
          // An armed query waits here for its round: this socket is one
          // replica's link, which carries one exchange at a time.
          SlotReplyMsg reply;
          if (msg.round != 0) {
            reply = co_await answer_armed_query(std::move(msg));
          } else {
            reply = answer_slot_query(msg);
          }
          if (!hung_) socket->send(encode(reply));
          break;
        }
        case MsgType::kFinishJob: {
          // The bare FinishAck has no field to refuse a finish notice in, so
          // one that does not decode, or names no known model, is hung up on.
          try {
            const auto msg = decode_finish_job(wire);
            model_table_->set_finished(msg.model_name);
            finished_.insert(msg.model_name);
          } catch (const Error& e) {
            ++stats_.failed_ops;
            PLOG_INFO(kLog, "{}: finish notice refused, closing session: {}",
                      config_.endpoint, e.what());
            socket->close();
            co_return;
          }
          BinaryWriter w;
          w.u8(static_cast<std::uint8_t>(MsgType::kFinishAck));
          socket->send(w.take());
          break;
        }
        default:
          // Not a request this daemon serves, so there is no reply type to
          // refuse it in: hang up, and the client sees Disconnected at once
          // instead of waiting out its watchdog.
          ++stats_.failed_ops;
          PLOG_INFO(kLog, "{}: unknown message type, closing session", config_.endpoint);
          socket->close();
          co_return;
      }
    }
  } catch (const Disconnected&) {
    // client went away; its registrations stay (checkpoint data is durable)
  }
}

sim::SubTask<RegisterAckMsg> PortusDaemon::handle_register(RegisterModelMsg msg) {
  // A registration placed against a stale epoch would pin shard copies to a
  // superseded ring: bounce it before any layout.
  RegisterAckMsg ack;
  if (reject_stale_epoch(msg.membership_epoch, ack)) co_return ack;

  // A registration that loaded the stored index while a forward lands on
  // it would keep a stale mirror of the slot headers.
  const auto landing = co_await landing_lock(msg.model_name).lock();
  const auto worker = co_await take_worker(msg.model_name, 0);
  // A refused registration keeps no PMEM byte and no charge: what it newly
  // took (a tenant charge, a fresh index) goes back if a later step throws.
  ModelSession session;
  bool charged = false;
  bool created = false;
  try {
    ModelTable::check_name(msg.model_name);
    // Reuse the persistent index when this model is already known (training
    // restart): the checkpoint data on PMEM outlives client sessions. Its
    // slots were laid out for the stored tensors, so only that exact layout
    // may re-register; anything else is refused before a byte is charged.
    std::optional<MIndex> known;
    if (const auto existing = model_table_->lookup(msg.model_name); existing.has_value()) {
      known.emplace(MIndex::load(device_, *existing));
      check_same_layout(*known, msg);
    }

    // Tenancy: negotiate the quota grant and charge both slots' PMEM
    // capacity BEFORE any layout happens, so an over-quota registration is
    // refused without allocating a byte. The charge is the registered
    // payload doubled (double-mapped slots); alignment padding rides free.
    Tenant* tenant = nullptr;
    if (tenants_ != nullptr) {
      tenant = &tenants_->admit_tenant(
          msg.tenant_id.empty() ? "default" : msg.tenant_id,
          priority_from_wire(msg.priority), msg.requested_capacity, msg.requested_rate);
      charged = tenants_->charge(*tenant, msg.model_name, 2 * msg.total_bytes());
    }

    session.registration = msg;

    // Socket affinity: sessions are dealt round-robin across the modeled
    // sockets, and on a NUMA-aware allocator each session's allocations
    // prefer a shard whose arena lives on its home node (so its slots'
    // DIMMs are socket-local to the worker that will checkpoint it). A
    // socket-blind allocator gets no hint and keeps its classic
    // preferred_shard round-robin.
    const auto session_seq = next_session_++;
    const auto topo_nodes = std::max<std::uint32_t>(1, device_.perf().numa.nodes);
    session.home_node = static_cast<std::uint32_t>(session_seq % topo_nodes);
    std::optional<PmemAllocator::ScopedHome> home;
    if (config_.numa_nodes > 1) {
      // Pick within the home node's shard group [node*S/N, (node+1)*S/N).
      const std::uint64_t shards = config_.shards;
      const std::uint64_t lo = session.home_node * shards / config_.numa_nodes;
      const std::uint64_t hi = (session.home_node + 1ull) * shards / config_.numa_nodes;
      home.emplace(static_cast<std::uint32_t>(
          lo + (session_seq / topo_nodes) % std::max<std::uint64_t>(1, hi - lo)));
    }

    if (known.has_value()) {
      session.index = std::make_unique<MIndex>(std::move(*known));
      // Slots reclaimed by the repacker (torn/outdated versions) are
      // re-provisioned so the double-mapping invariant holds again.
      for (int i = 0; i < 2; ++i) {
        session.index->ensure_slot(i, *allocator_);
      }
    } else {
      session.index = std::make_unique<MIndex>(
          MIndex::create(device_, *allocator_, msg, config_.coalesce_threshold));
      created = true;
    }

    // Gather capability: the client offered what its NIC posts, we accept
    // the min against our own config and NIC. 1 = single-SGE fallback.
    session.max_sges = std::min<std::uint32_t>(
        std::min<std::uint32_t>(msg.max_sges, static_cast<std::uint32_t>(config_.max_sges)),
        static_cast<std::uint32_t>(node_.nic().spec().max_sges));
    session.max_sges = std::max<std::uint32_t>(session.max_sges, 1);

    // Connect the one datapath QP the client offered (the decoder refuses
    // any other count). Its processing depth matches the pipeline window
    // so windowed posting actually overlaps in the (simulated) NIC.
    session.cq = std::make_unique<rdma::CompletionQueue>(cluster_.engine());
    session.qp = &cluster_.fabric().create_qp(node_.nic(), pd_, *session.cq,
                                              config_.pipeline_window);
    cluster_.fabric().connect(*session.qp, rendezvous_.resolve(msg.qp_tokens.front()));

    // A fresh index becomes reachable only once nothing else can refuse it.
    if (created) model_table_->insert(msg.model_name, session.index->record_offset());
    sessions_.erase(msg.model_name);
    const bool sharded = msg.sharded();
    const auto session_max_sges = session.max_sges;
    const auto newest = session.index->latest_done_slot();
    ack.newest_epoch = newest.has_value() ? session.index->slot(*newest).epoch : 0;
    sessions_.emplace(msg.model_name, std::move(session));
    ++stats_.registrations;
    if (sharded) ++stats_.shard_registrations;
    ack.ok = true;
    ack.max_sges = session_max_sges;
    if (tenant != nullptr) {
      ack.granted_capacity = tenant->quota.capacity_bytes;
      ack.granted_rate = tenant->quota.rate_bytes_per_sec;
      ack.granted_wr_slots = static_cast<std::uint32_t>(admission_->config().max_inflight);
    }
    PLOG_DEBUG(kLog, "registered model {} ({} tensors)", msg.model_name, msg.tensors.size());
  } catch (const std::exception& e) {
    if (created) session.index->destroy(*allocator_);
    if (charged) tenants_->uncharge(msg.model_name);
    ++stats_.failed_ops;
    ack.ok = false;
    ack.error = e.what();
  }
  co_return ack;
}

sim::SubTask<CheckpointDoneMsg> PortusDaemon::handle_checkpoint(CheckpointReqMsg msg) {
  CheckpointDoneMsg done;
  done.model_name = msg.model_name;
  if (reject_stale_epoch(msg.membership_epoch, done)) co_return done;
  const ActiveOp active{*this, active_epochs_, msg.membership_epoch};

  // Tenancy: a checkpoint must hold an admission ticket (strict priority +
  // WFQ + pacing, bounded queue) before it may occupy a worker or post a
  // WR. A full queue answers Backpressure — a cheap, retryable roundtrip —
  // without ever touching the worker pool.
  AdmissionController::Ticket ticket;
  const bool admitted = co_await admit(msg.model_name, ticket, done);
  if (!admitted) co_return done;

  // One transaction per copy at a time: a checkpoint that waited here for
  // a forward mints its epoch after that forward committed.
  const auto landing = co_await landing_lock(msg.model_name).lock();
  auto worker = co_await take_worker(msg.model_name, registered_bytes(msg.model_name));
  const auto trace_span = trace("checkpoint ", msg.model_name);
  try {
    const auto it = sessions_.find(msg.model_name);
    PORTUS_CHECK(it != sessions_.end(), "DO_CHECKPOINT for unregistered model");
    ModelSession& session = it->second;
    MIndex& index = *session.index;

    // Incremental mode needs a previous DONE version to copy clean tensors
    // from; fall back to a full pull otherwise.
    const auto prev_slot = index.latest_done_slot();
    std::vector<bool> dirty;
    if (!msg.dirty_indices.empty() && prev_slot.has_value()) {
      dirty.assign(index.tensors().size(), false);
      for (const auto i : msg.dirty_indices) {
        PORTUS_CHECK(i < dirty.size(), "dirty index out of range");
        dirty[i] = true;
      }
    }
    const Bytes prev_data_offset =
        prev_slot.has_value() ? index.slot(*prev_slot).data_offset : 0;

    auto txn = CheckpointTxn::begin(index, std::nullopt, msg.epoch_floor);
    const auto& slot_mr = slot_region(index, txn.slot());

    // Dirty extents pull from the remote GPU (one multi-SGE READ per
    // extent), clean ones copy PMEM-locally from the previous version — all
    // interleaved through one pipelined datapath so the flush of a finished
    // chunk overlaps the pull of the next.
    const auto crcs = co_await transfer(session, worker, TransferChunk::Kind::kRead,
                                        txn.data_offset(), slot_mr, std::move(dirty),
                                        prev_data_offset);

    // Catch-all flush (layout padding is not covered by the per-chunk
    // persists) + the once-per-checkpoint persistence-domain drain, before
    // declaring the slot DONE.
    device_.persist(txn.data_offset(), index.slot_size());
    co_await cluster_.engine().sleep(device_.perf().persist_overhead);

    // A power cut may have fired while this coroutine was suspended on the
    // datapath; the process it models died with it, so nothing below — CRC
    // block or DONE flip — may touch PMEM.
    PORTUS_CHECK(!dead_, "power lost before checkpoint commit");

    if (!index.phantom()) {
      // Persist the payload-CRC block BEFORE the DONE flip, extending the
      // ordering to ACTIVE -> data -> CRC block -> DONE: a DONE slot is
      // thereby guaranteed to carry a valid, epoch-matching block.
      index.set_payload_crcs(txn.slot(), txn.epoch(), crcs);
      done.payload_crc = Crc32::of(crcs.data(), crcs.size() * sizeof(std::uint32_t));
    }

    txn.commit();
    ++stats_.checkpoints;
    stats_.bytes_pulled += session.registration.total_bytes();
    done.ok = true;
    done.epoch = txn.epoch();
  } catch (const std::exception& e) {
    ++stats_.failed_ops;
    done.ok = false;
    done.error = e.what();
  }
  co_return done;
}

sim::SubTask<RestoreDoneMsg> PortusDaemon::handle_restore(RestoreReqMsg msg) {
  // A stale client may be about to restore from a copy that migrated away.
  RestoreDoneMsg done;
  done.model_name = msg.model_name;
  if (reject_stale_epoch(msg.membership_epoch, done)) co_return done;

  // A landing writes any slot but the newest DONE one, so once one commits
  // mid-restore, the next would rewrite the slot this restore pushes. Under
  // the key's landing lock the restore serves whichever version is newest
  // when it gets the lock, whole.
  const auto landing = co_await landing_lock(msg.model_name).lock();
  auto worker = co_await take_worker(msg.model_name, registered_bytes(msg.model_name),
                                    job_bytes(msg.model_name));
  const auto trace_span = trace("restore ", msg.model_name);
  try {
    const auto it = sessions_.find(msg.model_name);
    PORTUS_CHECK(it != sessions_.end(), "DO_RESTORE for unregistered model");
    ModelSession& session = it->second;
    MIndex& index = *session.index;

    const auto slot_idx = index.latest_done_slot();
    PORTUS_CHECK(slot_idx.has_value(), "no valid checkpoint version on PMEM");
    const auto& slot = index.slot(*slot_idx);
    // Replica-epoch floor: a copy that missed the last checkpoint (this
    // daemon was down or hung while the others committed) must refuse
    // rather than hand out stale tensors as if they were current.
    if (msg.required_epoch != 0 && slot.epoch < msg.required_epoch) {
      throw NotFound(strf("newest DONE version of {} is epoch {}, caller requires >= {}",
                          msg.model_name, slot.epoch, msg.required_epoch));
    }
    // Integrity scrub before any byte leaves PMEM (MIndex::check_payload).
    // Bit rot (or an undetected torn write) surfaces here as an explicit
    // Corruption instead of silently feeding the training job garbage
    // weights.
    if (!index.phantom()) {
      const auto check = index.check_payload(*slot_idx, MIndex::Scrub::kFirstBad);
      if (!check.ok()) {
        ++stats_.integrity_rejects;
        throw index.payload_corruption(*slot_idx, check, "restore");
      }
      done.payload_crc =
          Crc32::of(check.crcs.data(), check.crcs.size() * sizeof(std::uint32_t));
    }

    // Push every tensor into the remote GPU through the same runner as
    // checkpoints (no persists — the destination is volatile GPU memory).
    // Coalesced extents scatter one contiguous slot range across N tensor
    // buffers.
    co_await transfer(session, worker, TransferChunk::Kind::kWrite, slot.data_offset,
                      slot_region(index, *slot_idx));

    ++stats_.restores;
    stats_.bytes_pushed += session.registration.total_bytes();
    done.ok = true;
    done.epoch = slot.epoch;
  } catch (const std::exception& e) {
    ++stats_.failed_ops;
    done.ok = false;
    done.error = e.what();
  }
  co_return done;
}

sim::SubTask<CheckpointDoneMsg> PortusDaemon::handle_forward(ForwardReqMsg msg) {
  CheckpointDoneMsg done;
  done.model_name = msg.model_name;
  if (reject_stale_epoch(msg.membership_epoch, done)) co_return done;
  const ActiveOp active{*this, active_epochs_, msg.membership_epoch};

  // An armed forward asks first and takes its ticket, landing lock and
  // permit only once its round has ended at the source: while it waits it
  // holds nothing but the link, so replicas and pullers that cross between
  // daemons never wait on each other's tickets or permits. A plain one
  // takes the link before anything else for the same reason.
  auto link = co_await link_lock(msg.source, msg.model_name).lock();
  std::optional<SlotReplyMsg> source;
  if (msg.round != 0) {
    try {
      source = co_await query_source(msg);
      if (!source->ok) throw source_refused(msg, *source);
    } catch (const std::exception& e) {
      ++stats_.voided_forwards;
      done.ok = false;
      done.error = e.what();
      co_return done;
    }
    link.release();
    msg.source_epoch = source->epoch;
  }

  AdmissionController::Ticket ticket;
  const bool admitted = co_await admit(msg.model_name, ticket, done);
  if (!admitted) co_return done;

  // The epoch check below runs after any landing of this copy that got
  // here first has committed.
  const auto landing = co_await landing_lock(msg.model_name).lock();
  auto worker = co_await take_worker(msg.model_name, slot_bytes(msg.model_name));
  const auto trace_span = trace("forward ", msg.model_name);
  try {
    // A migration lands copies where no client has registered (yet).
    std::optional<MIndex> held;
    MIndex& index = index_of(msg.model_name, held);
    const auto live = sessions_.find(msg.model_name);
    const std::uint32_t home_node = live != sessions_.end() ? live->second.home_node : 0;
    // A carried epoch must be new here: this copy may have moved past the
    // source on its own (a pull the source missed), and DONE epochs only
    // ever grow. The one exception is this very version, landed already.
    const auto newest = index.latest_done_slot();
    const bool landed = newest.has_value() && index.slot(*newest).epoch == msg.source_epoch;
    // A plain forward (a migration's) planned before a newer version landed
    // here is superseded, not refused: ok at that version, nothing moved.
    // An armed one still refuses, so the client learns the copy is ahead.
    if (msg.round == 0 && newest.has_value() && index.slot(*newest).epoch > msg.source_epoch) {
      done.ok = true;
      done.epoch = index.slot(*newest).epoch;
      co_return done;
    }
    if (!landed && msg.source_epoch <= index.max_epoch()) {
      throw Error(strf("forward of {} at epoch {} refused: this copy already holds epoch {}",
                       msg.model_name, msg.source_epoch, index.max_epoch()));
    }

    // A plain forward's source may land again until it answers; an armed
    // one's cannot before the client's round ends.
    if (!source.has_value()) {
      source = co_await query_source(msg);
      link.release();
      if (!source->ok) throw source_refused(msg, *source);
    }
    if (source->slot_size != index.slot_size() || source->layout_crc != index.layout_crc() ||
        (!index.phantom() && source->crcs.size() != index.tensors().size())) {
      throw Error(strf("forward of {} refused: the slot layout on {} differs from this copy's",
                       msg.model_name, msg.source));
    }
    if (landed) {
      // Another landing of (key, epoch) committed while this one waited:
      // ok without moving a byte, if it is the source's version.
      const auto block = index.payload_crcs(*newest);
      if (!index.phantom() && (!block.has_value() || block->crcs != source->crcs)) {
        ++stats_.version_conflicts;
        throw Error(strf("forward of {} at epoch {} refused: this copy holds another version "
                         "at that epoch",
                         msg.model_name, msg.source_epoch));
      }
      done.ok = true;
      done.epoch = msg.source_epoch;
      if (block.has_value()) {
        done.payload_crc =
            Crc32::of(block->crcs.data(), block->crcs.size() * sizeof(std::uint32_t));
      }
      co_return done;
    }
    // Hold the link's QP and keep its CQ alive, not the link: the READs
    // complete there even if another forward replaces the link meanwhile.
    const PeerLink& link = peers_.at({msg.source, msg.model_name});
    rdma::QueuePair& qp = *link.qp;
    const auto cq = link.cq;

    // ACTIVE (stamped 0: an in-flight copy claims no epoch) -> the source
    // slot as one range, flushed as it lands -> final persist -> the
    // source's block checked and persisted -> DONE at the carried epoch.
    index.ensure_slot(index.pick_write_slot(), *allocator_);
    auto txn = CheckpointTxn::begin(index, msg.source_epoch);
    auto work = plan_slot_copy(index.slot_size(), config_.chunk_bytes, txn.data_offset(),
                               slot_region(index, txn.slot()), source->rkey, source->addr);
    co_await run_transfer(qp, worker, home_node, std::move(work), 0);
    device_.persist(txn.data_offset(), index.slot_size());
    co_await cluster_.engine().sleep(device_.perf().persist_overhead);
    PORTUS_CHECK(!dead_, "power lost before forward commit");

    if (!index.phantom()) {
      // Certify what landed before blessing it: bytes that do not match the
      // source's block (bit rot on the source, a torn read) are abandoned
      // with the slot ACTIVE, exactly what a crash leaves behind.
      const auto bad =
          index.failing_tensors(txn.data_offset(), source->crcs, MIndex::Scrub::kFirstBad);
      if (!bad.empty()) {
        ++stats_.integrity_rejects;
        throw Corruption(strf("tensor {} of {} failed the payload CRC of {} on forward",
                              index.tensors()[bad.front()].name, msg.model_name, msg.source));
      }
      index.set_payload_crcs(txn.slot(), txn.epoch(), source->crcs);
      done.payload_crc =
          Crc32::of(source->crcs.data(), source->crcs.size() * sizeof(std::uint32_t));
    }
    txn.commit();
    ++stats_.forwards;
    done.ok = true;
    done.epoch = txn.epoch();
  } catch (const std::exception& e) {
    ++stats_.failed_ops;
    done.ok = false;
    done.error = e.what();
  }
  co_return done;
}

sim::SubTask<SlotReplyMsg> PortusDaemon::query_source(const ForwardReqMsg& msg) {
  const auto key = std::make_pair(msg.source, msg.model_name);
  const Duration budget{static_cast<Duration::rep>(msg.budget_ns)};
  std::string lost;
  SlotReplyMsg reply;
  try {
    // A socket the source hung up (it crashed, or restarted since) is
    // replaced, QP and all: a restarted source has no responder for it.
    auto it = peers_.find(key);
    if (it != peers_.end() && it->second.socket->closed()) {
      peers_.erase(it);
      it = peers_.end();
    }
    if (it == peers_.end()) {
      PeerLink fresh;
      fresh.socket = co_await cluster_.endpoint(msg.source).connect();
      fresh.cq = std::make_shared<rdma::CompletionQueue>(cluster_.engine());
      fresh.qp = &cluster_.fabric().create_qp(node_.nic(), pd_, *fresh.cq,
                                              config_.pipeline_window);
      fresh.qp_token = rendezvous_.publish(*fresh.qp);
      it = peers_.insert_or_assign(key, std::move(fresh)).first;
      PLOG_DEBUG(kLog, "{}: opened a forward link to {} for {}", config_.endpoint, msg.source,
                 msg.model_name);
    }
    const auto socket = it->second.socket;
    SlotQueryMsg query{.model_name = msg.model_name,
                       .epoch = msg.source_epoch,
                       .qp_token = it->second.qp->connected() ? 0 : it->second.qp_token,
                       .round = msg.round};
    socket->send(encode(query));
    const auto wire = co_await net::recv_within(cluster_.engine(), socket, budget);
    reply = decode_slot_reply(wire);
  } catch (const net::RecvTimeout&) {
    lost = strf("{} did not answer within {}", msg.source, format_duration(budget));
  } catch (const std::exception& e) {
    lost = strf("{} unreachable: {}", msg.source, e.what());
  }
  if (lost.empty()) co_return reply;
  peers_.erase(key);
  throw Error(std::string{kForwardSourceLost} + lost);
}

sim::SubTask<SlotReplyMsg> PortusDaemon::answer_armed_query(SlotQueryMsg msg) {
  for (;;) {
    auto& end = round_ends_[msg.model_name];
    if (end.round == msg.round) break;
    if (end.ended == nullptr) end.ended = std::make_shared<sim::SimEvent>(cluster_.engine());
    const auto ended = end.ended;  // the record replaces it when the round ends
    co_await ended->wait();
  }
  const auto& end = round_ends_.at(msg.model_name);
  if (end.committed) {
    msg.epoch = end.epoch;
    co_return answer_slot_query(msg);
  }
  SlotReplyMsg reply;
  reply.model_name = msg.model_name;
  reply.error = strf("round {} of {} committed nothing: {}", msg.round, msg.model_name, end.error);
  co_return reply;
}

void PortusDaemon::end_round(std::uint64_t round, const CheckpointDoneMsg& done) {
  auto& end = round_ends_[done.model_name];
  end.round = round;
  end.committed = done.ok;
  end.epoch = done.epoch;
  end.error = done.error;
  if (end.ended != nullptr) std::exchange(end.ended, nullptr)->set();
}

SlotReplyMsg PortusDaemon::answer_slot_query(const SlotQueryMsg& msg) {
  SlotReplyMsg reply;
  reply.model_name = msg.model_name;
  reply.epoch = msg.epoch;
  try {
    if (msg.qp_token != 0) {
      // The querier's first question on this socket: connect a responder
      // QP in this daemon's PD, the way registration connects a client's.
      if (responder_cq_ == nullptr) {
        responder_cq_ = std::make_unique<rdma::CompletionQueue>(cluster_.engine());
      }
      auto& qp = cluster_.fabric().create_qp(node_.nic(), pd_, *responder_cq_);
      cluster_.fabric().connect(qp, rendezvous_.resolve(msg.qp_token));
    }
    std::optional<MIndex> held;
    const MIndex& index = index_of(msg.model_name, held);
    std::optional<int> slot;
    for (int i = 0; i < 2; ++i) {
      if (index.slot(i).state == SlotState::kDone && index.slot(i).epoch == msg.epoch) slot = i;
    }
    if (!slot.has_value()) {
      throw NotFound(strf("no DONE version of {} at epoch {}", msg.model_name, msg.epoch));
    }
    if (!index.phantom()) {
      auto check = index.check_payload(*slot, MIndex::Scrub::kNone);
      if (!check.ok()) throw index.payload_corruption(*slot, check, "forward");
      reply.crcs = std::move(check.crcs);
    }
    const auto& mr = slot_region(index, *slot, index.phantom());
    reply.rkey = mr.rkey;
    reply.addr = mr.addr;
    reply.slot_size = index.slot_size();
    reply.layout_crc = index.layout_crc();
    reply.ok = true;
  } catch (const std::exception& e) {
    reply.ok = false;
    reply.error = e.what();
  }
  return reply;
}

}  // namespace portus::core
