// fleet workload internals shared with main (capacity search) and the
// self-tests (calibration).
#pragma once

#include "harness.h"

namespace portus::perfbench {

// Committed checkpoint bytes/s the four-daemon pool sustains when every job
// slot is saturated: `portus_perfbench calibrate` (period_scale 0.02, 160
// slots) measures 11.4 GB/s on the modeled testbed — the client NIC's
// 12 GB/s link is the bottleneck. The fleet's offered load is set against it.
inline constexpr double kPoolCapacityBps = 11.4e9;

// 230 slots offer ~8.0 GB/s: 70% of kPoolCapacityBps.
struct FleetShape {
  int slots = 230;                          // concurrent job slots
  Duration horizon{10'000'000'000};         // virtual length of the open loop
  double period_scale = 1.0;                // < 1 offers proportionally more load
};

RoundResult run_fleet(const RoundSpec& spec, const FleetShape& shape);

// Largest slot count at which >= 99% of checkpoints finish before their
// next one is due and none fail, found by bisection with the same job mix
// and seed on a shortened horizon.
int fleet_capacity(std::uint64_t seed);

// Pool throughput under saturation (bytes/s of committed checkpoints).
double fleet_calibrate(std::uint64_t seed);

}  // namespace portus::perfbench
