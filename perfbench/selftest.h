// Harness self-tests and the cross-check against the shipped figures.
#pragma once

namespace portus::perfbench {

// Returns 0 when every check passes; prints one line per check.
int run_selftests();

}  // namespace portus::perfbench
