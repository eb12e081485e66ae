// Repacking tool (SS III-D2, Fig. 7): reclaims PMEM held by invalid
// checkpoint versions.
//
// Two sources of garbage:
//   (1) finished training jobs — only the newest DONE version matters; the
//       other slot (older DONE / EMPTY) is outdated;
//   (2) crashed checkpoints — a slot stuck ACTIVE (or recovered torn) holds
//       incomplete data and can never be restored.
//
// Repacking frees those TensorData extents and compacts the allocator's
// tail. Two modes:
//
//   * repack() — the classic offline pass: one stop-the-world sweep over
//     every model while the daemon is quiescent.
//
//   * repack_online() — incremental: the model list is walked in bounded
//     batches, each under a short relocation barrier (admissions paused +
//     allocator quiesced) whose length is charged in virtual time, with the
//     daemon serving live traffic between batches. This is the paper's
//     "in the background ... when available space is low" mode made real:
//     the fleet keeps checkpointing while garbage is swept, and only the
//     tenants unlucky enough to arrive inside a window wait it out.
//
// When the daemon runs tenanted, fully-reclaimed models return their PMEM
// capacity charge to their tenant's quota.
#pragma once

#include <set>
#include <string>

#include "core/daemon/daemon.h"

namespace portus::core {

class Repacker {
 public:
  struct Report {
    Bytes freed_outdated = 0;   // scenario (1)
    Bytes freed_crashed = 0;    // scenario (2)
    Bytes gaps_adopted = 0;     // leaked (torn-entry) heap bytes re-tracked
    Bytes compacted = 0;        // returned to the bump region
    int slots_cleared = 0;
    // --- online mode ---
    int passes = 0;             // bounded maintenance windows taken
    Duration paused_time{0};    // total time admissions were barred
  };

  // One online window costs a base plus a per-cleared-slot charge — enough
  // to make "repack more" visibly cost the fleet latency.
  static constexpr Duration kPassCostBase{100'000};    // 0.1 ms barrier setup/teardown
  static constexpr Duration kPassCostPerSlot{20'000};  // 20 us per slot relocated
  static constexpr Duration kYield{200'000};           // live-traffic gap between passes

  explicit Repacker(PortusDaemon& daemon) : daemon_{daemon} {}

  // Reclaim space. Slots of *finished* models that are not the newest DONE
  // version are freed; ACTIVE slots of any model are freed (crash leftovers)
  // unless the model has a live session with that checkpoint still running,
  // or a forward is landing into the slot (PortusDaemon::landing).
  Report repack();

  // Incremental variant: same reclamation rules, applied `models_per_pass`
  // models at a time under short admission barriers, interleaving with
  // live checkpoint traffic. Safe against the in-flight datapath: the
  // barrier stops *new* admissions and the maintenance work inside a window
  // is synchronous (never suspends), so a window observes a consistent
  // allocator; compact() moves no data, only reclaims the free tail.
  sim::SubTask<Report> repack_online(int models_per_pass = 8);

 private:
  // Apply the reclamation rules to one model. Returns slots cleared.
  int reclaim_model(const std::string& name, Report& report);

  PortusDaemon& daemon_;
};

}  // namespace portus::core
