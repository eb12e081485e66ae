#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "common/strformat.h"

namespace portus::perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

Tail tail_of(const std::vector<double>& samples) {
  const auto n = samples.size();
  for (const double p : {99.0, 95.0, 90.0}) {
    if (samples_beyond(n, p) >= 10) return Tail{percentile(samples, p), p, n};
  }
  return Tail{percentile(samples, 100.0), 100.0, n};
}

Time OpenLoopSchedule::due(std::uint64_t i) const {
  const Time base = phase_ + period_ * static_cast<std::int64_t>(i);
  if (jitter_ <= 0.0) return base;
  const double u = static_cast<double>(round_seed(seed_, i) >> 11) * 0x1.0p-53;  // [0, 1)
  return base + Duration{static_cast<Duration::rep>(u * jitter_ * static_cast<double>(period_.count()))};
}

Duration OpenLoopSchedule::record(std::uint64_t i, Time issued, Time done) {
  const Time d = due(i);
  const Duration late = issued > d ? issued - d : Duration{0};
  if (late > Duration{0}) ++late_ops_;
  lateness_total_ += late;
  lateness_max_ = std::max(lateness_max_, late);
  return done - d;
}

void LayerCounters::peak(const std::string& k, double v) {
  auto [it, inserted] = max.emplace(k, v);
  if (!inserted) it->second = std::max(it->second, v);
}

double LayerCounters::get(const std::string& k) const {
  const auto it = sum.find(k);
  return it == sum.end() ? 0.0 : it->second;
}

double LayerCounters::get_max(const std::string& k) const {
  const auto it = max.find(k);
  return it == max.end() ? 0.0 : it->second;
}

void LayerCounters::merge(const LayerCounters& o) {
  for (const auto& [k, v] : o.sum) sum[k] += v;
  for (const auto& [k, v] : o.max) peak(k, v);
}

std::vector<std::string> parity_diff(const RoundResult& a, const RoundResult& b) {
  std::vector<std::string> diff;
  const auto cmp = [&](const char* name, const auto& x, const auto& y) {
    if (!(x == y)) diff.emplace_back(name);
  };
  cmp("ckpt_ms", a.ckpt_ms, b.ckpt_ms);
  cmp("high_ckpt_ms", a.high_ckpt_ms, b.high_ckpt_ms);
  cmp("incr_ms", a.incr_ms, b.incr_ms);
  cmp("restore_ms", a.restore_ms, b.restore_ms);
  cmp("register_ms", a.register_ms, b.register_ms);
  cmp("resize_s", a.resize_s, b.resize_s);
  cmp("ckpt_bytes", a.ckpt_bytes, b.ckpt_bytes);
  cmp("ckpt_latency_s", a.ckpt_latency_s, b.ckpt_latency_s);
  cmp("ontime", a.ontime, b.ontime);
  cmp("ontime_of", a.ontime_of, b.ontime_of);
  cmp("train_stall_s", a.train_stall_s, b.train_stall_s);
  cmp("train_s", a.train_s, b.train_s);
  cmp("attempted", a.attempted, b.attempted);
  cmp("failed", a.failed, b.failed);
  cmp("makespan_s", a.makespan_s, b.makespan_s);
  return diff;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '-';
  });
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += strf("\\u{:04x}", static_cast<int>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit);
    if (!metric.note.empty()) out += ", \"note\": " + json_string(metric.note);
    out += "}";
  }
  return out + "}";
}

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  // splitmix64 of (seed, round): distinct, well-mixed streams per round.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (round + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace portus::perfbench
