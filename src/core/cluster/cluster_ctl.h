// ClusterCtl: fleet-wide observability (portusctl cluster-status).
//
// Where Portusctl inspects ONE daemon's PMEM, ClusterCtl walks every daemon
// of a Portus-Cluster ring and aggregates the per-daemon view into a single
// table: shard copies hosted, distinct models, stored bytes, operation
// counters, pipeline occupancy, and liveness. An optional ClusterClient
// contributes the client-side degradation counters (lane failures, degraded
// restores, re-routed shards) as a footer.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/cluster/cluster_client.h"
#include "core/daemon/daemon.h"

namespace portus::core::cluster {

class ClusterCtl {
 public:
  struct DaemonRow {
    std::string endpoint;
    bool up = false;
    // Membership epoch the daemon currently serves (protocol v6); 0 =
    // standalone / not epoch-checked.
    std::uint64_t membership_epoch = 0;
    std::size_t shard_copies = 0;  // shard-scoped ModelTable entries
    std::size_t models = 0;        // distinct models with >= 1 copy here
    Bytes stored_bytes = 0;        // sum of copy slot sizes (one version each)
    std::uint64_t registrations = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t forwards = 0;  // versions landed from a peer daemon's slot
    std::uint64_t restores = 0;
    std::uint64_t failed_ops = 0;
    double mean_window = 0.0;  // pipeline occupancy
    int peak_window = 0;
    std::uint64_t wrs_posted = 0;         // RDMA WRs (gather extent = 1)
    std::uint64_t extents_coalesced = 0;  // multi-tensor extents among them
    double doorbells_per_window = 0.0;    // mean doorbells per admission burst
    std::uint32_t alloc_shards = 0;       // allocator arenas
    std::uint64_t alloc_refills = 0;      // reservation refills across shards
    Bytes alloc_live = 0;                 // live heap bytes across shards
  };

  // Snapshot one daemon (walks its ModelTable; killed daemons still answer
  // — their PMEM state outlives the sockets).
  static DaemonRow inspect(PortusDaemon& daemon);

  // The `portusctl cluster-status` table. `client` may be null. When a
  // `membership` is given (elastic cluster), every row also shows the
  // member's lifecycle state (JOINING/ACTIVE/DRAINING/DOWN).
  static std::string render_status(std::span<PortusDaemon* const> daemons,
                                   const ClusterClient* client = nullptr,
                                   const Membership* membership = nullptr);
};

}  // namespace portus::core::cluster
