// Benchmark harness: statistics, open-loop accounting, the per-round result
// every workload fills in, and the report writer.
//
// Latencies are virtual time (engine.now() around a public client call), so
// they repeat exactly for a given seed; host costs (setup, measured phase,
// peak RSS) are measured separately with the steady clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"

namespace portus::perfbench {

// ---- statistics ---------------------------------------------------------

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

// "Tail": the highest of p99 / p95 / p90 that has at least 10 samples
// beyond it. With fewer than 100 samples no percentile qualifies and the
// tail is the maximum (pct = 100).
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t n = 0;
};
Tail tail_of(const std::vector<double>& samples);
// Samples strictly beyond the nearest-rank p-th percentile position.
std::size_t samples_beyond(std::size_t n, double p);

// ---- open-loop schedule -------------------------------------------------

// One job's open-loop timeline: op i is due at phase + i * period, plus a
// seeded jitter of up to `jitter` periods (iteration times vary; without it
// every period would replay the same collisions). An op cannot start
// before the job's previous op completed, so a stalled op pushes its
// successors later; their latency still counts from their due time, and
// how late each was issued is accounted separately.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Time phase, Duration period, double jitter = 0.0, std::uint64_t seed = 0)
      : phase_{phase}, period_{period}, jitter_{jitter}, seed_{seed} {}

  Time due(std::uint64_t i) const;

  // Op i was issued at `issued` and completed at `done`. Returns its
  // latency measured from its due time.
  Duration record(std::uint64_t i, Time issued, Time done);

  // Did op i finish before op i + 1 was due?
  bool on_time(std::uint64_t i, Time done) const { return done <= due(i + 1); }

  Duration lateness_total() const { return lateness_total_; }
  Duration lateness_max() const { return lateness_max_; }
  std::uint64_t late_ops() const { return late_ops_; }

 private:
  Time phase_;
  Duration period_;
  double jitter_;
  std::uint64_t seed_;
  Duration lateness_total_{0};
  Duration lateness_max_{0};
  std::uint64_t late_ops_ = 0;
};

// ---- per-layer counters -------------------------------------------------

// Named per-layer quantities gathered over a traced round. `sum` entries
// add across rounds; `max` entries keep the largest value seen.
struct LayerCounters {
  std::map<std::string, double> sum;
  std::map<std::string, double> max;

  void add(const std::string& k, double v) { sum[k] += v; }
  void peak(const std::string& k, double v);
  double get(const std::string& k) const;
  double get_max(const std::string& k) const;
  void merge(const LayerCounters& o);
};

// ---- one round of a workload --------------------------------------------

struct RoundResult {
  // Virtual-time samples.
  std::vector<double> ckpt_ms;       // full checkpoints (fleet: from due time)
  std::vector<double> high_ckpt_ms;  // fleet: the high-priority class only
  std::vector<double> incr_ms;
  std::vector<double> restore_ms;
  std::vector<double> register_ms;
  std::vector<double> resize_s;       // elastic: per join / drain / repair call
  double ckpt_bytes = 0.0;            // committed full-checkpoint bytes
  double ckpt_latency_s = 0.0;        // summed full-checkpoint latency
  double op_bytes = 0.0;              // payload bytes of every committed op
  std::uint64_t ontime = 0;           // fleet: finished before the next was due
  std::uint64_t ontime_of = 0;
  double lateness_ms_total = 0.0;     // fleet: issue lateness behind due time
  double lateness_ms_max = 0.0;
  std::uint64_t late_ops = 0;
  double train_stall_s = 0.0;         // zoo: time stalled in checkpoint hooks
  double train_s = 0.0;
  double offered_load = 0.0;          // fleet: offered / calibrated capacity
  std::uint64_t attempted = 0;        // client ops attempted
  std::uint64_t failed = 0;           // ...failed after all retries
  // Host cost.
  double setup_s = 0.0;
  double host_s = 0.0;
  double makespan_s = 0.0;            // virtual time of the measured phase
  std::vector<std::string> gate_failures;
  LayerCounters layers;

  void fail(std::string why) { gate_failures.push_back(std::move(why)); }
};

// Virtual-time fields of two runs of one round must match exactly
// (traced vs untraced). Returns the names of the fields that differ.
std::vector<std::string> parity_diff(const RoundResult& a, const RoundResult& b);

// What every workload entry point receives.
struct RoundSpec {
  std::uint64_t seed = 0;
  bool traced = false;
  std::string trace_path;  // Chrome trace output (traced rounds only)
  // zoo: run the canonical Table II layer splits instead of seeded ones
  // (the cross-check against fig11_checkpoint / fig12_restore).
  bool canonical_models = false;
};

inline RoundSpec untraced(std::uint64_t seed) { return RoundSpec{seed, false, "", false}; }

RoundResult run_zoo_round(const RoundSpec& spec);
RoundResult run_fleet_round(const RoundSpec& spec);
RoundResult run_elastic_round(const RoundSpec& spec);

// ---- host clock + memory ------------------------------------------------

// CPU time of this process: what set-up and the measured phase cost the
// host, without the scheduling noise other tenants of the machine add.
double cpu_seconds();
double peak_rss_mib();

// ---- metrics + report ---------------------------------------------------

bool valid_name(const std::string& name);

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // e.g. which percentile a tail used and its n
};
using MetricMap = std::map<std::string, Metric>;

// Minimal JSON helpers for the report the runner script reads.
std::string json_number(double v);
std::string json_string(const std::string& s);
std::string metrics_json(const MetricMap& m);

// Round seed: the run seed mixed with the round index.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round);

}  // namespace portus::perfbench
