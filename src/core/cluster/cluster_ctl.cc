#include "core/cluster/cluster_ctl.h"

#include <optional>
#include <set>

#include "common/strformat.h"
#include "core/cluster/placement.h"

namespace portus::core::cluster {

ClusterCtl::DaemonRow ClusterCtl::inspect(PortusDaemon& daemon) {
  DaemonRow row;
  row.endpoint = daemon.config().endpoint;
  row.up = !daemon.killed();

  std::set<std::string> models;
  for (const auto& name : daemon.model_table().names()) {
    std::optional<MIndex> loaded;
    const MIndex& index = daemon.index_of(name, loaded);

    if (index.sharded()) ++row.shard_copies;
    row.stored_bytes += index.slot_size();
    // Count each model once, however many of its shard copies live here.
    const auto shard = parse_shard_key(name);
    models.insert(shard.has_value() ? shard->first : name);
  }
  row.models = models.size();

  row.membership_epoch = daemon.membership_epoch();

  const auto& s = daemon.stats();
  row.registrations = s.registrations;
  row.checkpoints = s.checkpoints;
  row.forwards = s.forwards;
  row.restores = s.restores;
  row.failed_ops = s.failed_ops;
  row.mean_window = s.mean_window();
  row.peak_window = s.peak_window;
  row.wrs_posted = s.wrs_posted;
  row.extents_coalesced = s.extents_coalesced;
  row.doorbells_per_window = s.doorbells_per_window();
  for (const auto& sh : daemon.allocator().shard_stats()) {
    ++row.alloc_shards;
    row.alloc_refills += sh.refills;
    row.alloc_live += sh.live;
  }
  return row;
}

std::string ClusterCtl::render_status(std::span<PortusDaemon* const> daemons,
                                      const ClusterClient* client,
                                      const Membership* membership) {
  // Column widths fit the widest cell (format_table): fixed widths sheared
  // the whole table once a fleet-scale counter outgrew its column.
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"DAEMON", "STATE", "EPOCH", "MSTATE", "SHARDS", "MODELS", "BYTES",
                  "REGS", "CKPTS", "FWDS", "RSTRS", "FAILED", "PIPELINE", "COALESCE",
                  "DOORBELL", "ARENAS"});
  std::size_t copies = 0;
  Bytes bytes = 0;
  for (auto* d : daemons) {
    const auto row = inspect(*d);
    copies += row.shard_copies;
    bytes += row.stored_bytes;
    const Member* member =
        membership != nullptr ? membership->find(row.endpoint) : nullptr;
    rows.push_back({row.endpoint, row.up ? "up" : "DOWN",
                    row.membership_epoch != 0 ? strf("{}", row.membership_epoch) : "-",
                    member != nullptr ? to_string(member->state) : "-",
                    strf("{}", row.shard_copies), strf("{}", row.models),
                    format_bytes(row.stored_bytes), format_count(row.registrations),
                    format_count(row.checkpoints), format_count(row.forwards),
                    format_count(row.restores),
                    format_count(row.failed_ops),
                    strf("{:.2f}/{}", row.mean_window, row.peak_window),
                    strf("{}/{}", format_count(row.extents_coalesced),
                         format_count(row.wrs_posted)),
                    strf("{:.2f}/w", row.doorbells_per_window),
                    // Allocator arenas: count, live bytes, reservation refills.
                    strf("{}x {} {}r", row.alloc_shards, format_bytes(row.alloc_live),
                         row.alloc_refills)});
  }
  std::string out = format_table(rows, "<<><>>>>>>>>>>>>");
  out += strf("total: {} daemons, {} shard copies, {}\n", daemons.size(), copies,
              format_bytes(bytes));
  if (membership != nullptr) {
    out += strf("membership: epoch {}, {} members ({} active)\n", membership->epoch,
                membership->members.size(), membership->active_positions().size());
  }
  if (client != nullptr) {
    const auto& cs = client->stats();
    out += strf(
        "client: {} checkpoints ({} degraded), {} restores ({} degraded), "
        "{} shards re-routed, {} lane failures, {} epoch re-resolves, "
        "{} lane revivals, epoch {}\n",
        cs.checkpoints, cs.degraded_checkpoints, cs.restores, cs.degraded_restores,
        cs.rerouted_shards, cs.lane_failures, cs.epoch_reresolutions, cs.lane_revivals,
        cs.last_epoch);
  }
  return out;
}

}  // namespace portus::core::cluster
