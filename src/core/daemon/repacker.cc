#include "core/daemon/repacker.h"

#include <algorithm>

#include "common/logging.h"

namespace portus::core {

int Repacker::reclaim_model(const std::string& name, Report& report) {
  auto& allocator = daemon_.allocator();
  auto& table = daemon_.model_table();

  // Prefer the live index (shares slot-header state with the daemon);
  // fall back to loading from PMEM for models without a session.
  std::optional<MIndex> loaded;
  MIndex& index = daemon_.index_of(name, loaded);

  const bool finished = daemon_.finished_models().contains(name) || table.is_finished(name);
  const auto latest = index.latest_done_slot();

  int cleared = 0;
  for (int i = 0; i < 2; ++i) {
    const auto& slot = index.slot(i);
    if (slot.data_offset == 0) continue;

    // An ACTIVE slot of a sessionless index is a crash leftover, unless a
    // forward (a migration onto a copy no client registered) is landing
    // into it right now.
    const bool crashed_active = slot.state == SlotState::kActive && loaded.has_value() &&
                                !daemon_.landing(name);
    const bool outdated = finished && (!latest.has_value() || i != *latest) &&
                          slot.state != SlotState::kActive;

    if (!crashed_active && !outdated) continue;

    allocator.free(slot.data_offset);
    index.clear_slot(i);
    ++cleared;
    ++report.slots_cleared;
    if (crashed_active) {
      report.freed_crashed += index.slot_size();
    } else {
      report.freed_outdated += index.slot_size();
    }
  }

  // Tenancy: a model whose slots are all gone stops holding PMEM — refund
  // exactly what its registration was charged.
  if (cleared > 0 && daemon_.tenants() != nullptr && index.slot(0).data_offset == 0 &&
      index.slot(1).data_offset == 0) {
    daemon_.tenants()->uncharge(name);
  }
  return cleared;
}

Repacker::Report Repacker::repack() {
  Report report;
  for (const auto& name : daemon_.model_table().names()) reclaim_model(name, report);

  // Adopt heap bytes orphaned by torn AllocTable entries before compacting,
  // so a leaked extent adjacent to the tail is reclaimed in the same pass.
  auto& allocator = daemon_.allocator();
  report.gaps_adopted = allocator.sweep_gaps();
  report.compacted = allocator.compact();
  PLOG_INFO("repacker", "freed {} outdated + {} crashed, adopted {} leaked, compacted {}",
            format_bytes(report.freed_outdated), format_bytes(report.freed_crashed),
            format_bytes(report.gaps_adopted), format_bytes(report.compacted));
  return report;
}

sim::SubTask<Repacker::Report> Repacker::repack_online(int models_per_pass) {
  PORTUS_CHECK_ARG(models_per_pass >= 1, "online repack needs models_per_pass >= 1");
  Report report;
  // Snapshot the model list up front; models registered mid-repack are new
  // and carry no garbage worth chasing this round.
  const auto names = daemon_.model_table().names();
  const auto batch = static_cast<std::size_t>(models_per_pass);

  for (std::size_t begin = 0; begin < names.size(); begin += batch) {
    const auto end = std::min(names.size(), begin + batch);

    // Relocation barrier: stop granting checkpoint admissions, quiesce the
    // allocator, and do this batch's reclamation synchronously (no suspend
    // while the barrier is up — in-flight ops already past admission see a
    // consistent table; compact() moves no data).
    daemon_.pause_admissions();
    int cleared = 0;
    {
      PmemAllocator::Pause pause{daemon_.allocator()};
      for (std::size_t i = begin; i < end; ++i) cleared += reclaim_model(names[i], report);
      report.gaps_adopted += daemon_.allocator().sweep_gaps();
      report.compacted += daemon_.allocator().compact();
    }
    ++report.passes;

    // Charge the window's cost in virtual time while admissions stay
    // barred: this is the latency the fleet actually pays per pass.
    const Duration window{kPassCostBase.count() + cleared * kPassCostPerSlot.count()};
    report.paused_time += window;
    co_await daemon_.engine().sleep(window);
    daemon_.resume_admissions();

    co_await daemon_.engine().sleep(kYield);  // let live traffic breathe
  }

  PLOG_INFO("repacker",
            "online: {} passes, freed {} outdated + {} crashed, compacted {}, paused {}",
            report.passes, format_bytes(report.freed_outdated),
            format_bytes(report.freed_crashed), format_bytes(report.compacted),
            format_duration(report.paused_time));
  co_return report;
}

}  // namespace portus::core
