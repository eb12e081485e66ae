#include "core/client.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "common/backoff.h"
#include "common/logging.h"
#include "common/strformat.h"

namespace portus::core {

namespace {

// Binding positions [first, last) whose tensors sit back to back in GPU
// memory, and the buffer spanning them.
struct TensorRun {
  std::size_t first = 0;
  std::size_t last = 0;
  gpu::DeviceBuffer span;
};

// Cut a binding, in binding order, into runs of adjacent allocations. A
// tensor extends the current run only when it is in the same GPU segment,
// has the same phantom flag, and starts exactly where the previous
// tensor's allocation ends. A span ends at its last tensor's last byte, so
// the only bytes it adds are the allocator pads inside the run.
std::vector<TensorRun> cut_runs(const std::vector<dnn::Tensor>& tensors,
                                const std::vector<std::uint32_t>& ids) {
  std::vector<TensorRun> runs;
  const gpu::DeviceBuffer* prev = nullptr;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    PORTUS_CHECK_ARG(ids[k] < tensors.size(),
                     strf("shard binding tensor index {} out of range", ids[k]));
    const auto& buf = tensors[ids[k]].buffer();
    const bool joins = prev != nullptr && &buf.segment() == &prev->segment() &&
                       buf.phantom() == prev->phantom() &&
                       buf.offset() == prev->offset() + gpu::GpuDevice::footprint(prev->size());
    prev = &buf;
    if (!joins) {
      runs.push_back(TensorRun{.first = k, .last = k + 1, .span = buf});
      continue;
    }
    auto& run = runs.back();
    run.last = k + 1;
    run.span = gpu::DeviceBuffer{&buf.segment(), run.span.offset(),
                                 buf.offset() + buf.size() - run.span.offset(), buf.phantom()};
  }
  return runs;
}

// Dial `listener` into `*out`: a process of its own, so that a
// registration pins while its client connects.
sim::Process dial(net::TcpListener& listener,
                  std::shared_ptr<std::shared_ptr<net::TcpSocket>> out) {
  *out = co_await listener.connect();
}

}  // namespace

RegistrationCache::RegistrationCache(net::Node& node, gpu::GpuDevice& gpu,
                                     const std::string& pd_name)
    : node_{node}, gpu_{gpu}, pd_{node.nic().alloc_pd(pd_name)} {}

sim::SubTask<std::uint32_t> RegistrationCache::rkey_for(gpu::DeviceBuffer span, bool* pinned) {
  const auto [it, fresh] =
      entries_.try_emplace(Key{&span.segment(), span.offset(), span.size(), span.phantom()});
  Entry& entry = it->second;  // std::map nodes stay put while others are added
  if (!fresh) {
    if (!entry.ready) {
      if (entry.pinned == nullptr) entry.pinned = std::make_unique<sim::SimEvent>(gpu_.engine());
      co_await entry.pinned->wait();
    }
    ++reused_;
    co_return entry.rkey;
  }
  // Pin through PeerMem and register the span with the RNIC. The remote
  // side needs READ (checkpoint pull) and WRITE (restore push).
  const auto peer = co_await gpu::PeerMem::register_buffer(gpu_, span);
  entry.rkey = pd_.register_region(node_.gpu_region(peer)).rkey;
  entry.ready = true;
  if (entry.pinned != nullptr) entry.pinned->set();
  ++pins_;
  *pinned = true;
  co_return entry.rkey;
}

PortusClient::PortusClient(net::Cluster& cluster, net::Node& client_node, gpu::GpuDevice& gpu,
                           QpRendezvous& rendezvous, std::string endpoint)
    : PortusClient(cluster,
                   std::make_shared<RegistrationCache>(client_node, gpu,
                                                       "portus-client-pd/" + endpoint),
                   rendezvous, endpoint) {}

PortusClient::PortusClient(net::Cluster& cluster,
                           std::shared_ptr<RegistrationCache> registrations,
                           QpRendezvous& rendezvous, std::string endpoint)
    : cluster_{cluster},
      registrations_{std::move(registrations)},
      node_{registrations_->node()},
      rendezvous_{rendezvous},
      endpoint_{std::move(endpoint)} {}

sim::SubTask<> PortusClient::connect() {
  PORTUS_CHECK(socket_ == nullptr, "client already connected");
  socket_ = co_await cluster_.endpoint(endpoint_).connect();
}

sim::SubTask<std::vector<std::byte>> PortusClient::roundtrip(std::vector<std::byte> request,
                                                             Duration grace) {
  PORTUS_CHECK(socket_ != nullptr, "client not connected");
  PORTUS_CHECK(!*op_in_flight_, "one control-plane operation at a time per client");
  // Scope guard, not a plain reset at the end: recv() throws when the
  // daemon side goes away, and a wedged op_in_flight_ would reject every
  // later operation on this client. The guard shares ownership of the flag
  // so it stays valid even if the client is destroyed mid-op and the
  // suspended frame is torn down later by engine shutdown.
  *op_in_flight_ = true;
  struct BusyGuard {
    std::shared_ptr<bool> flag;
    ~BusyGuard() { *flag = false; }
  };
  const BusyGuard guard{op_in_flight_};
  socket_->send(std::move(request));
  const Duration timeout = op_timeout_ > Duration{0} ? op_timeout_ + grace : op_timeout_;
  try {
    auto reply = co_await net::recv_within(cluster_.engine(), socket_, timeout);
    co_return reply;
  } catch (const net::RecvTimeout&) {
    // The watchdog closed our socket: the daemon is given up.
    ++stats_.timeouts;
    throw Disconnected(
        strf("operation to {} timed out after {}", endpoint_, format_duration(timeout)));
  }
}

sim::SubTask<> PortusClient::backoff(int attempt, std::uint64_t retry_after_ns) {
  // Jitter spreads a fleet of clients bounced by the same full queue so
  // they do not re-arrive in lockstep; the daemon's retry_after hint is a
  // floor, never a cap.
  const BackoffPolicy policy{.base = retry_.base_backoff, .max = retry_.max_backoff};
  const Duration wait = jittered_backoff(policy, attempt, jitter_, retry_after_ns);
  co_await cluster_.engine().sleep(wait);
}

sim::SubTask<std::vector<std::byte>> PortusClient::retrying_roundtrip(
    std::vector<std::byte> req_wire, Duration grace) {
  for (int attempt = 0;; ++attempt) {
    auto wire = req_wire;  // keep the original; re-sends ship it verbatim
    std::vector<std::byte> reply;
    bool got_reply = false;
    try {
      reply = co_await roundtrip(std::move(wire), grace);
      got_reply = true;
    } catch (const Disconnected&) {
      if (!retry_.retry_timeouts || attempt >= retry_.max_retries) throw;
    }

    if (got_reply) {
      bool backpressured = false;
      std::uint64_t hint_ns = 0;
      const auto type = decode_type(reply);
      if (type == MsgType::kCheckpointDone) {
        const auto done = decode_checkpoint_done(reply);
        backpressured = done.backpressure;
        hint_ns = done.retry_after_ns;
      } else if (type == MsgType::kRestoreDone) {
        const auto done = decode_restore_done(reply);
        backpressured = done.backpressure;
        hint_ns = done.retry_after_ns;
      }
      // Out of retries: hand the Backpressure answer to the caller, whose
      // ok-check turns it into a hard failure.
      if (!backpressured || attempt >= retry_.max_retries) co_return reply;
      ++stats_.backpressure;
      ++stats_.retries;
      co_await backoff(attempt, hint_ns);
      continue;
    }

    // Timed out: the watchdog closed our socket; the daemon-side session
    // survives a reconnect, so a re-sent request needs no re-registration.
    ++stats_.retries;
    co_await backoff(attempt, 0);
    auto socket = co_await cluster_.endpoint(endpoint_).connect();
    socket_ = std::move(socket);
    ++stats_.reconnects;
  }
}

sim::SubTask<> PortusClient::register_model(dnn::Model& model) {
  ShardBinding all;
  all.reg_name = model.name();
  all.tensor_indices.resize(model.tensors().size());
  std::iota(all.tensor_indices.begin(), all.tensor_indices.end(), 0u);
  co_await register_shard(model, std::move(all));
}

sim::SubTask<std::uint64_t> PortusClient::register_shard(dnn::Model& model,
                                                         ShardBinding binding) {
  const Time t0 = cluster_.engine().now();
  PORTUS_CHECK_ARG(!binding.tensor_indices.empty(), "shard binding has no tensors");

  RegisterModelMsg msg;
  msg.model_name = binding.reg_name;
  msg.phantom = model.phantom();
  // Offer the gather capability of this NIC; the daemon answers with the
  // min against its own config, and a single-SGE daemon answers 1.
  msg.max_sges = static_cast<std::uint32_t>(node_.nic().spec().max_sges);
  msg.shard_id = binding.shard_id;
  msg.shard_count = binding.shard_count;
  msg.replica = binding.replica;
  msg.replica_count = binding.replica_count;
  msg.job_bytes = binding.job_bytes;
  msg.tenant_id = tenant_.id;
  msg.priority = tenant_.priority;
  msg.requested_capacity = tenant_.requested_capacity;
  msg.requested_rate = tenant_.requested_rate;
  msg.membership_epoch = membership_epoch_;

  // One MR covers each run of adjacent allocations; every TensorDesc keeps
  // its own address and size and carries its run's rkey. A client not
  // connected yet dials meanwhile.
  const auto& tensors = model.tensors();
  const auto runs = cut_runs(tensors, binding.tensor_indices);
  std::shared_ptr<std::shared_ptr<net::TcpSocket>> dialed;
  sim::Process dialing;
  if (socket_ == nullptr) {
    dialed = std::make_shared<std::shared_ptr<net::TcpSocket>>();
    dialing = cluster_.engine().spawn(dial(cluster_.endpoint(endpoint_), dialed));
  }
  for (const auto& run : runs) {
    bool pinned = false;
    const auto rkey = co_await registrations_->rkey_for(run.span, &pinned);
    if (pinned) ++stats_.regions_registered;
    for (std::size_t k = run.first; k < run.last; ++k) {
      const auto& tensor = tensors[binding.tensor_indices[k]];
      msg.tensors.push_back(TensorDesc{
          .name = tensor.name(),
          .dtype = tensor.meta().dtype,
          .shape = tensor.meta().shape,
          .size = tensor.byte_size(),
          .gpu_addr = tensor.buffer().global_addr(),
          .rkey = rkey,
      });
    }
  }
  if (dialed != nullptr) {
    co_await dialing.join();
    socket_ = std::move(*dialed);
  }

  // One QP serves this registration, and the client side is passive
  // (one-sided verbs target its memory). Each registration keeps its own
  // datapath: a daemon may host several shard copies through one client,
  // and tearing down an older registration's CQ while its QP lives would
  // dangle.
  auto cq = std::make_unique<rdma::CompletionQueue>(cluster_.engine());
  msg.qp_tokens = {rendezvous_.publish(
      cluster_.fabric().create_qp(node_.nic(), registrations_->pd(), *cq))};
  const std::string reg_name = msg.model_name;
  const std::size_t tensor_count = msg.tensors.size();
  datapaths_[reg_name] = std::move(cq);

  auto wire = encode(msg);
  const auto reply = co_await roundtrip(std::move(wire));
  const auto ack = decode_register_ack(reply);
  if (ack.epoch_mismatch) {
    throw EpochMismatch(
        stale_epoch_message("registration", reg_name, ack.current_membership_epoch));
  }
  PORTUS_CHECK(ack.ok, "registration rejected: " + ack.error);
  stats_.negotiated_max_sges = ack.max_sges;
  stats_.granted_capacity = ack.granted_capacity;
  stats_.granted_rate = ack.granted_rate;
  stats_.granted_wr_slots = ack.granted_wr_slots;
  stats_.registration_time = cluster_.engine().now() - t0;
  PLOG_DEBUG("portus-client", "registered {} ({} tensors) at {}", reg_name, tensor_count,
             endpoint_);
  co_return ack.newest_epoch;
}

sim::SubTask<std::uint64_t> PortusClient::checkpoint(dnn::Model& model,
                                                     std::uint64_t iteration) {
  co_return co_await checkpoint_incremental(model, iteration, {});
}

// NOTE: request messages are materialized into locals before co_await —
// GCC 12 miscompiles non-trivial temporaries inside co_await
// full-expressions (double destruction after resumption).
sim::SubTask<std::uint64_t> PortusClient::checkpoint_named(std::string reg_name,
                                                           std::uint64_t iteration,
                                                           std::uint64_t round,
                                                           std::uint64_t epoch_floor) {
  CheckpointReqMsg req{.model_name = std::move(reg_name),
                       .iteration = iteration,
                       .dirty_indices = {},
                       .membership_epoch = membership_epoch_,
                       .round = round,
                       .epoch_floor = epoch_floor};
  auto wire = encode(req);
  co_return co_await request<CheckpointDoneMsg>(std::move(wire));
}

sim::SubTask<std::uint64_t> PortusClient::checkpoint_incremental(
    dnn::Model& model, std::uint64_t iteration, std::vector<std::uint32_t> dirty_indices) {
  CheckpointReqMsg req{.model_name = model.name(),
                       .iteration = iteration,
                       .dirty_indices = std::move(dirty_indices),
                       .membership_epoch = membership_epoch_,
                       .round = 0,
                       .epoch_floor = 0};
  auto wire = encode(req);
  co_return co_await request<CheckpointDoneMsg>(std::move(wire));
}

sim::SubTask<std::uint64_t> PortusClient::forward_named(std::string reg_name,
                                                        std::uint64_t iteration,
                                                        std::string source, Duration budget,
                                                        std::uint64_t round) {
  ForwardReqMsg req{.model_name = std::move(reg_name),
                    .iteration = iteration,
                    .membership_epoch = membership_epoch_,
                    .source = std::move(source),
                    .budget_ns = static_cast<std::uint64_t>(budget.count()),
                    .round = round};
  auto wire = encode(req);
  co_return co_await request<CheckpointDoneMsg>(std::move(wire), budget);
}

sim::SubTask<std::uint64_t> PortusClient::restore(dnn::Model& model) {
  co_return co_await restore_named(model.name());
}

sim::SubTask<std::uint64_t> PortusClient::restore_named(std::string reg_name,
                                                        std::uint64_t required_epoch) {
  RestoreReqMsg req{.model_name = std::move(reg_name),
                    .required_epoch = required_epoch,
                    .membership_epoch = membership_epoch_};
  auto wire = encode(req);
  co_return co_await request<RestoreDoneMsg>(std::move(wire));
}

std::string PortusClient::stale_epoch_message(const char* op, const std::string& reg_name,
                                              std::uint64_t daemon_epoch) const {
  return strf("{} of {} rejected: stale membership epoch {} (daemon at {})", op, reg_name,
              membership_epoch_, daemon_epoch);
}

template <typename Done>
sim::SubTask<std::uint64_t> PortusClient::request(std::vector<std::byte> req_wire,
                                                  Duration grace) {
  constexpr bool kRestore = std::is_same_v<Done, RestoreDoneMsg>;
  const char* op = kRestore ? "restore"
                   : decode_type(req_wire) == MsgType::kForwardReq ? "forward"
                                                                   : "checkpoint";
  const Time t0 = cluster_.engine().now();
  const auto reply = co_await retrying_roundtrip(std::move(req_wire), grace);
  Done done;
  if constexpr (kRestore) {
    done = decode_restore_done(reply);
  } else {
    done = decode_checkpoint_done(reply);
  }
  if (done.epoch_mismatch) {
    throw EpochMismatch(stale_epoch_message(op, done.model_name, done.current_epoch));
  }
  if (!done.ok && done.error.starts_with(kForwardSourceLost)) {
    throw ForwardSourceLost(strf("{} of {} refused: {}", op, done.model_name, done.error));
  }
  PORTUS_CHECK(done.ok, strf("{} failed: {}", op, done.error));
  ++(kRestore ? stats_.restores : stats_.checkpoints);
  (kRestore ? stats_.last_restore : stats_.last_checkpoint) = cluster_.engine().now() - t0;
  stats_.last_payload_crc = done.payload_crc;
  co_return done.epoch;
}

sim::SubTask<> PortusClient::finish(dnn::Model& model) {
  FinishJobMsg req{.model_name = model.name()};
  auto wire = encode(req);
  const auto reply = co_await roundtrip(std::move(wire));
  PORTUS_CHECK(decode_type(reply) == MsgType::kFinishAck, "unexpected finish reply");
}

}  // namespace portus::core
