// Cluster membership: the epoch-versioned member set an elastic
// Portus-Cluster places shards over.
//
// Every resize step (join, drain, decommission, permanent failure) produces
// a new membership with a bumped epoch. Daemons hold the current epoch and
// bounce requests stamped with a stale one (EpochMismatch), which is the
// signal that makes clients refetch placement — see cluster_client.h. The
// membership lives with its source (the elastic controller); no daemon
// persists it.
//
// Member lifecycle:
//   JOINING  -> receiving its share of existing shard copies; not yet a
//               placement target, clients do not route to it.
//   ACTIVE   -> full ring member, placement target.
//   DRAINING -> excluded from new placement; existing copies are being
//               streamed off. Still serves restores for what it holds.
//   DOWN     -> decommissioned or declared permanently failed; never
//               contacted again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace portus::core::cluster {

enum class MemberState : std::uint8_t {
  kJoining = 0,
  kActive = 1,
  kDraining = 2,
  kDown = 3,
};

const char* to_string(MemberState s);

struct Member {
  std::string endpoint;
  MemberState state = MemberState::kActive;
};

struct Membership {
  std::uint64_t epoch = 0;
  // Ring order is identity: position i here is ring position i in every
  // placement computed against this membership. Members are only appended,
  // never reordered or erased (a gone member goes kDown), so positions are
  // stable across epochs.
  std::vector<Member> members;

  // Ring positions currently eligible as placement targets (kActive).
  std::vector<std::uint32_t> active_positions() const;

  const Member* find(const std::string& endpoint) const;
  Member* find(const std::string& endpoint);
};

// Where a ClusterClient learns the authoritative membership when it gets an
// EpochMismatch. In the simulation this is the ElasticCluster controller; a
// real deployment would back it with a consensus service.
class MembershipSource {
 public:
  virtual ~MembershipSource() = default;
  virtual const Membership& membership() const = 0;
};

}  // namespace portus::core::cluster
