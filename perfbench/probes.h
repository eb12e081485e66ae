// Host-cost probes: wall-clock timings of public CPU-bound functions on a
// workload's own inputs (reported per layer, never gated — host time is
// noisy). They seed a measured CPU cost model for the simulator.
#pragma once

#include <string>

#include "harness.h"

namespace portus::perfbench {

MetricMap run_probes(const std::string& workload);

}  // namespace portus::perfbench
