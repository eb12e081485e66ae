// Portus control-plane protocol (client <-> daemon over TCP/IPoIB).
//
// Registration ships the full model description — for every tensor: layer
// name, dtype, shape, byte size, GPU address, and the rkey of its RDMA
// memory region — so the daemon can lay out the checkpoint structure on
// PMEM *before* the first training iteration (SS III-C). After that the
// control plane only carries one-word triggers ("DO_CHECKPOINT",
// "DO_RESTORE") and completion notifications; all tensor bytes move
// peer-to-peer over RDMA.
//
// Replica forwarding (v7): a cluster client pulls each shard from the GPU
// once, on its first live copy; every other copy then gets a FORWARD and
// copies the puller's committed slot PMEM to PMEM, daemon to daemon. The
// replica asks the source for that slot with a SLOT_QUERY over a control
// socket of its own, and the SLOT_REPLY carries what the one-sided READ
// and its integrity check need. Daemons only ever learn each other's state
// through these messages.
//
// Armed forwards (v8): the client sends a shard's FORWARDs together with
// its DO_CHECKPOINT, all tagged with one round id. The replica's slot query
// carries that id, and the puller answers it the moment that round's
// checkpoint ends: with its DONE slot of the epoch it committed, or ok=false
// when the round was refused or failed. A round id of 0 keeps the v7
// meaning (the forward names the source's epoch, the query is answered at
// once).
//
// QP rendezvous: real deployments exchange QP numbers/GIDs through RDMA CM;
// in the simulation the registration packet carries an opaque token for
// the client's one datapath QP (`qp_tokens`, exactly one entry) that the
// daemon resolves through QpRendezvous to obtain the client's QueuePair and
// complete the RC connection: the daemon reads and writes each
// registration's tensors over that one connection. A replica's first slot
// query carries one token the same way, and the source connects a
// responder QP to it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/units.h"
#include "dnn/dtype.h"
#include "rdma/queue_pair.h"

namespace portus::core {

// Control-plane wire versioning. Registration (the one message whose layout
// has already changed across releases) opens with a magic + version pair so
// a stale client and daemon reject each other explicitly instead of
// misparsing the body. Bump kProtocolVersion on any wire-layout change.
inline constexpr std::uint32_t kProtocolMagic = 0x50545553;  // "PTUS"
// v3: CheckpointDoneMsg / RestoreDoneMsg grew payload_crc.
// v4: registration + ack carry the negotiated multi-SGE gather capability
//     (max_sges); a capability of 1 is the clean single-SGE fallback.
// v5: tenant-quota negotiation — registration carries a tenant identity,
//     priority class and requested quotas, the ack answers with the granted
//     quota, and the Done messages can flag a retryable Backpressure
//     rejection with a pacing hint.
// v6: cluster membership epochs — requests carry the membership epoch the
//     client placed against (0 = not epoch-checked), and the ack/Done
//     messages can answer with an EpochMismatch rejection carrying the
//     daemon's current epoch so the client re-resolves placement.
// v7: replica forwarding — FORWARD (answered with CHECKPOINT_DONE),
//     SLOT_QUERY and SLOT_REPLY. Message types only: every earlier message
//     keeps its v6 layout (registration and its ack carry 7 as version).
// v8: armed forwards — CheckpointReqMsg, ForwardReqMsg and SlotQueryMsg
//     carry a round id, appended after their v7 body only when non-zero:
//     an unarmed request (round 0, the v7 meaning) keeps its v7 bytes.
// v9: the registration ack carries the newest DONE epoch of the index the
//     registration bound, so a client that (re)registers knows which
//     copies are behind before its first round or restore.
// v10: CheckpointReqMsg carries an epoch floor after the round id, only
//     when non-zero (the round id is then written even when 0): a pull
//     that carries none keeps its v9 bytes.
// v11: registration carries its job's byte count (job_bytes) in place of
//     the ring-config generation and the encoded shard manifest, so a
//     shard copy's registration holds its own tensors and nothing of the
//     rest of the model's.
// v12: a registration offers exactly one datapath QP token and the daemon
//     connects it, so the ack no longer carries a connected-QP count.
inline constexpr std::uint16_t kProtocolVersion = 12;

enum class MsgType : std::uint8_t {
  kRegisterModel = 1,
  kRegisterAck = 2,
  kCheckpointReq = 3,   // "DO_CHECKPOINT"
  kCheckpointDone = 4,
  kRestoreReq = 5,      // "DO_RESTORE"
  kRestoreDone = 6,
  kFinishJob = 7,       // training complete: old checkpoint version reclaimable
  kFinishAck = 8,
  kForwardReq = 10,  // "land the source's committed epoch here"
  kSlotQuery = 11,   // replica -> source: where is your DONE slot of epoch E?
  kSlotReply = 12,
};

const char* to_string(MsgType t);

// A peer speaks a different protocol generation (bad magic or version).
// Distinct from Corruption so handlers can answer with an explicit
// rejection instead of treating the message as line noise.
class ProtocolMismatch : public Error {
 public:
  using Error::Error;
};

// The daemon's admission controller refused an operation because the
// tenant's class queue is full (bounded queue depth). Retryable by design:
// the client backs off (jittered exponential, see PortusClient::RetryPolicy)
// and reissues. Carried on the wire as the Done messages' backpressure flag
// rather than as a dropped connection.
class Backpressure : public Error {
 public:
  using Error::Error;
};

// The daemon refused an operation because the request's membership epoch is
// stale (the cluster resized since the client last resolved placement).
// Retryable by design: the ClusterClient refetches membership, recomputes
// placement, re-routes, and reissues — see cluster_client.h. Carried on the
// wire as the ack/Done messages' epoch_mismatch flag (v6).
class EpochMismatch : public Error {
 public:
  using Error::Error;
};

// A forward refused because its source never answered — unreachable, or
// silent past the budget — opens its error with this prefix followed by the
// source endpoint. The client then takes the source's lane down, not the
// replica's, and pulls on the replica instead.
inline constexpr std::string_view kForwardSourceLost = "forward source lost: ";

class ForwardSourceLost : public Error {
 public:
  using Error::Error;
};

struct TensorDesc {
  std::string name;
  dnn::DType dtype = dnn::DType::kF32;
  std::vector<std::int64_t> shape{};
  Bytes size = 0;
  std::uint64_t gpu_addr = 0;
  std::uint32_t rkey = 0;
};

struct RegisterModelMsg {
  // Overridable in tests to simulate a stale client; encode() writes these
  // verbatim and decode() rejects anything but the current pair.
  std::uint32_t magic = kProtocolMagic;
  std::uint16_t version = kProtocolVersion;
  std::string model_name;
  // The token of the one datapath QP the client offers: exactly one entry
  // (the decoder refuses any other count).
  std::vector<std::uint64_t> qp_tokens;
  bool phantom = false;
  // Gather entries per work request the client's NIC accepts (>= 1). The
  // daemon plans coalesced extents no wider than min(this, its own config
  // and NIC); offering 1 disables coalescing for this registration.
  std::uint32_t max_sges = 1;
  // --- cluster sharding (core/cluster/). A standalone registration keeps
  // the defaults: one shard, one replica, no job. ---
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t replica = 0;        // which copy of the shard this is
  std::uint32_t replica_count = 1;
  // The whole model's tensor bytes, which a ClusterClient sends with every
  // shard copy it places (0 = a copy no ClusterClient placed), persisted
  // with the copy's MIndex. The daemon orders concurrent restores by it,
  // and the elastic migrator re-homes only copies that carry it.
  Bytes job_bytes = 0;
  // --- tenancy (v5, core/daemon/tenant.h). An empty tenant_id files the
  // registration under the daemon's "default" tenant; the requested_* fields
  // are wishes the daemon clamps against its own policy (the grant comes
  // back in the ack). ---
  std::string tenant_id;
  std::uint8_t priority = 1;       // 0 = high, 1 = normal, 2 = batch
  Bytes requested_capacity = 0;    // PMEM bytes wanted (0 = policy default)
  Bytes requested_rate = 0;        // pacing bytes/sec wanted (0 = default)
  // --- elasticity (v6): the membership epoch the client placed against.
  // 0 = not epoch-checked (standalone client or legacy ring); a daemon with
  // a non-zero epoch of its own rejects a non-zero stale value with
  // epoch_mismatch so the client re-resolves before registering.
  std::uint64_t membership_epoch = 0;
  std::vector<TensorDesc> tensors;

  bool sharded() const { return shard_count > 1 || replica_count > 1; }

  Bytes total_bytes() const {
    Bytes n = 0;
    for (const auto& t : tensors) n += t.size;
    return n;
  }
};

struct RegisterAckMsg {
  std::uint32_t magic = kProtocolMagic;
  std::uint16_t version = kProtocolVersion;
  bool ok = false;
  std::string error;
  // Gather capability the daemon accepted for this registration: min of
  // the client's offer, the daemon's coalescing config, and its NIC. 1 =
  // single-SGE datapath (coalescing off).
  std::uint32_t max_sges = 1;
  // --- tenancy grant (v5): what the admission controller will hold this
  // registration's tenant to. 0 = unlimited / unpaced (tenancy off or no
  // policy ceiling).
  Bytes granted_capacity = 0;
  Bytes granted_rate = 0;
  std::uint32_t granted_wr_slots = 0;  // in-flight checkpoint admissions
  // v6 elasticity: ok=false with epoch_mismatch=true means the client's
  // membership epoch is stale; current_membership_epoch is the daemon's.
  bool epoch_mismatch = false;
  std::uint64_t current_membership_epoch = 0;
  // v9: the newest DONE epoch of the index this registration bound (a
  // restarted job's copy keeps its versions); 0 = none.
  std::uint64_t newest_epoch = 0;
};

struct CheckpointReqMsg {
  std::string model_name;
  std::uint64_t iteration = 0;
  // Incremental checkpointing (Check-N-Run-style extension): when non-empty,
  // only these tensor indices changed since the previous version; the daemon
  // pulls them over RDMA and copies the rest PMEM-locally from the last DONE
  // slot. Empty = full checkpoint.
  std::vector<std::uint32_t> dirty_indices{};
  // v6 elasticity: see RegisterModelMsg::membership_epoch.
  std::uint64_t membership_epoch = 0;
  // v8: the round this pull belongs to; armed forwards of the same id wait
  // for how it ends. 0 = no forward waits on it. `iteration` is the
  // caller's and may repeat, so it cannot name a round.
  std::uint64_t round = 0;
  // v10: the newest epoch the client knows another copy of this key holds,
  // sent when this copy is known to be behind it (0 = none). The pull
  // mints max(the copy's newest epoch, epoch_floor) + 1, so one epoch
  // never names two versions of a shard.
  std::uint64_t epoch_floor = 0;
};

struct CheckpointDoneMsg {
  std::string model_name;
  std::uint64_t epoch = 0;
  bool ok = false;
  std::string error{};
  // CRC-of-per-tensor-CRCs over the payload the daemon persisted (matches
  // dnn::Model::weights_crc()); 0 when !ok or for phantom models. Lets the
  // client end-to-end verify that what landed on PMEM is what it sent.
  std::uint32_t payload_crc = 0;
  // v5 admission control: ok=false with backpressure=true means the class
  // queue was full — retry after backing off at least retry_after_ns.
  bool backpressure = false;
  std::uint64_t retry_after_ns = 0;
  // v6 elasticity: ok=false with epoch_mismatch=true means the request's
  // membership epoch is stale; current_epoch is the daemon's. The client
  // re-resolves placement and reissues (no checkpoint was taken).
  bool epoch_mismatch = false;
  std::uint64_t current_epoch = 0;
};

struct RestoreReqMsg {
  std::string model_name;
  // Replica-epoch floor (cluster degraded restore): when non-zero, the
  // daemon must serve a DONE version with epoch >= this, or reject — a
  // replica that missed the last checkpoint must not silently hand out
  // stale tensors. 0 = newest available.
  std::uint64_t required_epoch = 0;
  // v6 elasticity: see RegisterModelMsg::membership_epoch.
  std::uint64_t membership_epoch = 0;
};

struct RestoreDoneMsg {
  std::string model_name;
  std::uint64_t epoch = 0;
  bool ok = false;
  std::string error;
  // Aggregate payload CRC of the version served (see CheckpointDoneMsg);
  // verified against the persisted payload-CRC block before any byte is
  // pushed, so ok=true implies the tensors passed the integrity scrub.
  std::uint32_t payload_crc = 0;
  // v5 admission control (see CheckpointDoneMsg).
  bool backpressure = false;
  std::uint64_t retry_after_ns = 0;
  // v6 elasticity (see CheckpointDoneMsg).
  bool epoch_mismatch = false;
  std::uint64_t current_epoch = 0;
};

struct FinishJobMsg {
  std::string model_name;
};

// Client -> replica daemon: land the version `source` committed as
// `source_epoch` into this copy, PMEM to PMEM. Answered with a
// CheckpointDoneMsg: ok with epoch = source_epoch, or ok=false with the
// reason (the client then pulls from the GPU on this copy instead).
struct ForwardReqMsg {
  std::string model_name;  // shard key, the same on source and replica
  std::uint64_t iteration = 0;
  // v6 elasticity: see RegisterModelMsg::membership_epoch.
  std::uint64_t membership_epoch = 0;
  std::string source;  // endpoint of the daemon that pulled the version
  std::uint64_t source_epoch = 0;  // unused when armed: the round names it
  // How long the replica waits for the source's slot reply, in virtual ns;
  // 0 = forever. Shorter than the client's own watchdog, so a silent source
  // is named by the replica before the client gives the replica up.
  std::uint64_t budget_ns = 0;
  // v8: non-zero = armed. Land whatever `source` commits in this round
  // (CheckpointReqMsg::round), waiting for the round to end first.
  std::uint64_t round = 0;
};

// Replica -> source daemon: describe your DONE slot of (model_name, epoch).
// Answered inline by the source's session loop, with no worker permit.
struct SlotQueryMsg {
  std::string model_name;
  std::uint64_t epoch = 0;
  // The replica's datapath QP, offered on the first query of a control
  // socket (0 afterwards): the source connects a responder QP to it.
  std::uint64_t qp_token = 0;
  // v8: non-zero = armed. Answered once the key's checkpoint of this round
  // ends, for the epoch it committed (`epoch` is then ignored).
  std::uint64_t round = 0;
};

struct SlotReplyMsg {
  std::string model_name;
  std::uint64_t epoch = 0;
  bool ok = false;
  std::string error;
  // The slot's TensorData as one remotely readable range.
  std::uint32_t rkey = 0;
  std::uint64_t addr = 0;
  Bytes slot_size = 0;
  std::uint32_t layout_crc = 0;  // MIndex::layout_crc(): offsets and sizes
  // The slot's payload-CRC block, one per tensor; empty for phantom
  // payloads (nothing materialized to check).
  std::vector<std::uint32_t> crcs;
};

// --- encoding ---------------------------------------------------------------
// Every wire message is [u8 MsgType][body...]. decode_type() peeks the tag.

MsgType decode_type(std::span<const std::byte> wire);

std::vector<std::byte> encode(const RegisterModelMsg& m);
std::vector<std::byte> encode(const RegisterAckMsg& m);
std::vector<std::byte> encode(const CheckpointReqMsg& m);
std::vector<std::byte> encode(const CheckpointDoneMsg& m);
std::vector<std::byte> encode(const RestoreReqMsg& m);
std::vector<std::byte> encode(const RestoreDoneMsg& m);
std::vector<std::byte> encode(const FinishJobMsg& m);
std::vector<std::byte> encode(const ForwardReqMsg& m);
std::vector<std::byte> encode(const SlotQueryMsg& m);
std::vector<std::byte> encode(const SlotReplyMsg& m);

RegisterModelMsg decode_register_model(std::span<const std::byte> wire);
RegisterAckMsg decode_register_ack(std::span<const std::byte> wire);
CheckpointReqMsg decode_checkpoint_req(std::span<const std::byte> wire);
CheckpointDoneMsg decode_checkpoint_done(std::span<const std::byte> wire);
RestoreReqMsg decode_restore_req(std::span<const std::byte> wire);
RestoreDoneMsg decode_restore_done(std::span<const std::byte> wire);
FinishJobMsg decode_finish_job(std::span<const std::byte> wire);
ForwardReqMsg decode_forward_req(std::span<const std::byte> wire);
SlotQueryMsg decode_slot_query(std::span<const std::byte> wire);
SlotReplyMsg decode_slot_reply(std::span<const std::byte> wire);

// --- QP rendezvous (simulation analogue of RDMA CM) -------------------------
class QpRendezvous {
 public:
  std::uint64_t publish(rdma::QueuePair& qp) {
    const auto token = next_token_++;
    qps_.emplace(token, &qp);
    return token;
  }
  rdma::QueuePair& resolve(std::uint64_t token) const {
    const auto it = qps_.find(token);
    if (it == qps_.end()) throw NotFound("unknown QP token");
    return *it->second;
  }

 private:
  std::uint64_t next_token_ = 0xCAFE0000ull;
  std::unordered_map<std::uint64_t, rdma::QueuePair*> qps_;
};

}  // namespace portus::core
