// Byte-size and bandwidth units used throughout Portus.
//
// All sizes are expressed in bytes as std::uint64_t; literals provide
// readable construction (e.g. `512_KiB`, `89.6_GB`). Bandwidth is a strong
// type (bytes per simulated second) so that a raw byte count can never be
// accidentally used as a rate.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace portus {

using Bytes = std::uint64_t;

inline namespace literals {

constexpr Bytes operator""_B(unsigned long long v) { return v; }
constexpr Bytes operator""_KiB(unsigned long long v) { return v * 1024ull; }
constexpr Bytes operator""_MiB(unsigned long long v) { return v * 1024ull * 1024ull; }
constexpr Bytes operator""_GiB(unsigned long long v) { return v * 1024ull * 1024ull * 1024ull; }
constexpr Bytes operator""_KB(unsigned long long v) { return v * 1000ull; }
constexpr Bytes operator""_MB(unsigned long long v) { return v * 1000ull * 1000ull; }
constexpr Bytes operator""_GB(unsigned long long v) { return v * 1000ull * 1000ull * 1000ull; }
constexpr Bytes operator""_GB(long double v) {
  return static_cast<Bytes>(v * 1e9L);
}
constexpr Bytes operator""_GiB(long double v) {
  return static_cast<Bytes>(v * 1024.0L * 1024.0L * 1024.0L);
}

}  // namespace literals

// Virtual time. The simulation epoch is Time{0}; all timestamps are offsets
// from it. Nanosecond resolution carries ~292 years, far beyond any run.
using Duration = std::chrono::nanoseconds;
using Time = std::chrono::nanoseconds;

constexpr Duration kZeroDuration = Duration::zero();

inline constexpr double to_seconds(Duration d) {
  return std::chrono::duration<double>(d).count();
}
inline constexpr Duration from_seconds(double s) {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(s));
}

// Bandwidth as bytes per (simulated) second.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  static constexpr Bandwidth bytes_per_sec(double v) { return Bandwidth{v}; }
  static constexpr Bandwidth gbps(double gigabits) {
    return Bandwidth{gigabits * 1e9 / 8.0};
  }
  static constexpr Bandwidth gb_per_sec(double v) { return Bandwidth{v * 1e9}; }
  static constexpr Bandwidth unlimited() { return Bandwidth{1e18}; }

  constexpr double bytes_per_second() const { return bps_; }
  constexpr double gb_per_second() const { return bps_ / 1e9; }
  constexpr bool is_unlimited() const { return bps_ >= 1e17; }

  // Time to move `n` bytes at this rate (no latency component).
  constexpr Duration time_for(Bytes n) const {
    if (is_unlimited() || n == 0) return kZeroDuration;
    return from_seconds(static_cast<double>(n) / bps_);
  }

  friend constexpr Bandwidth min(Bandwidth a, Bandwidth b) {
    return Bandwidth{a.bps_ < b.bps_ ? a.bps_ : b.bps_};
  }
  friend constexpr bool operator<(Bandwidth a, Bandwidth b) { return a.bps_ < b.bps_; }
  friend constexpr bool operator==(Bandwidth a, Bandwidth b) { return a.bps_ == b.bps_; }

 private:
  explicit constexpr Bandwidth(double bps) : bps_{bps} {}
  double bps_ = 0.0;
};

// Human-readable formatting helpers (used by logs, portusctl and benches).
std::string format_bytes(Bytes n);
std::string format_duration(Duration d);
std::string format_bandwidth(Bandwidth bw);
// Humanize a plain counter: "8421", "12.6k", "3.40M", "1.25G". Keeps
// fleet-scale counters inside fixed-width table columns.
std::string format_count(std::uint64_t n);

}  // namespace portus
