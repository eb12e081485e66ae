// portus_perfbench: the repository benchmark binary.
//
//   portus_perfbench run --workload zoo|fleet|elastic --seed N --seconds S --trace 0|1
//                        [--out DIR]
//   portus_perfbench selftest
//
// `run` repeats seeded rounds of the workload, as many as fill about S
// seconds on the reference machine, and prints one JSON report line: the
// end-to-end metrics (untraced), or with --trace 1 the per-layer metrics
// of traced rounds plus the traced/untraced parity check and the host-cost
// probes. Any failed correctness gate marks the report incorrect.
// perfbench/run.py builds this binary, runs it and formats its report.
#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <iostream>
#include <numeric>

#include "common/logging.h"
#include "common/strformat.h"
#include "fleet.h"
#include "harness.h"
#include "layers.h"
#include "probes.h"
#include "selftest.h"

using namespace portus;
using namespace portus::perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

// round_seconds: nominal wall time of one round on the reference machine
// (a 4-core x86 container). A run of S seconds does max(1, S / round_seconds)
// rounds, so its sample count — and with it the percentile a tail uses —
// does not depend on how fast the host happens to be.
struct Workload {
  const char* name;
  RoundResult (*fn)(const RoundSpec&);
  double round_seconds;
};
constexpr Workload kWorkloads[] = {
    {"zoo", run_zoo_round, 1.25},
    {"fleet", run_fleet_round, 0.4},
    {"elastic", run_elastic_round, 1.0},
};

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

void put_latency(MetricMap& m, const std::string& p50_name, const std::string& tail_name,
                 const std::vector<double>& samples) {
  if (samples.empty()) return;
  if (!p50_name.empty()) {
    m[p50_name] = Metric{median(samples), "ms", strf("n={}", samples.size())};
  }
  if (!tail_name.empty()) {
    const auto t = tail_of(samples);
    m[tail_name] = Metric{t.value, "ms",
                          t.pct >= 100.0 ? strf("max, n={}", t.n)
                                         : strf("p{:.0f}, n={}", t.pct, t.n)};
  }
}

// Pool the rounds into the end-to-end metric table.
MetricMap end_to_end(const std::vector<RoundResult>& rounds) {
  RoundResult all;
  std::vector<double> setup, host;
  for (const auto& r : rounds) {
    const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(all.ckpt_ms, r.ckpt_ms);
    cat(all.high_ckpt_ms, r.high_ckpt_ms);
    cat(all.incr_ms, r.incr_ms);
    cat(all.restore_ms, r.restore_ms);
    cat(all.register_ms, r.register_ms);
    cat(all.resize_s, r.resize_s);
    all.ckpt_bytes += r.ckpt_bytes;
    all.ckpt_latency_s += r.ckpt_latency_s;
    all.ontime += r.ontime;
    all.ontime_of += r.ontime_of;
    all.lateness_ms_total += r.lateness_ms_total;
    all.lateness_ms_max = std::max(all.lateness_ms_max, r.lateness_ms_max);
    all.late_ops += r.late_ops;
    all.train_stall_s += r.train_stall_s;
    all.train_s += r.train_s;
    all.attempted += r.attempted;
    all.failed += r.failed;
  }
  // Host cost skips the first round when there are enough others: it pays
  // the process's cold page faults and caches, which later rounds do not.
  for (std::size_t i = rounds.size() >= 3 ? 1 : 0; i < rounds.size(); ++i) {
    setup.push_back(rounds[i].setup_s);
    host.push_back(rounds[i].host_s);
  }

  MetricMap m;
  put_latency(m, "ckpt_p50_ms", "ckpt_tail_ms", all.ckpt_ms);
  put_latency(m, "", "high_ckpt_tail_ms", all.high_ckpt_ms);
  put_latency(m, "incr_p50_ms", "", all.incr_ms);
  put_latency(m, "restore_p50_ms", "restore_tail_ms", all.restore_ms);
  put_latency(m, "register_p50_ms", "", all.register_ms);
  if (all.ckpt_latency_s > 0.0 && rounds.front().ontime_of == 0) {
    m["ckpt_gbps"] = Metric{all.ckpt_bytes / all.ckpt_latency_s / 1e9, "GB/s", ""};
  }
  if (all.ontime_of > 0) {
    m["ckpt_ontime_share"] = Metric{static_cast<double>(all.ontime) /
                                        static_cast<double>(all.ontime_of),
                                    "ratio", strf("n={}", all.ontime_of)};
    m["issue_late_ms_mean"] =
        Metric{all.lateness_ms_total / static_cast<double>(all.ontime_of), "ms",
               "open-loop issue lateness behind due time"};
    m["issue_late_ms_max"] = Metric{all.lateness_ms_max, "ms", ""};
    m["issue_late_share"] = Metric{static_cast<double>(all.late_ops) /
                                       static_cast<double>(all.ontime_of),
                                   "ratio", ""};
  }
  if (rounds.front().offered_load > 0.0) {
    m["offered_load"] = Metric{rounds.front().offered_load, "ratio",
                               "offered bytes/s over calibrated pool capacity"};
  }
  if (all.train_s > 0.0) {
    m["train_stall_pct"] = Metric{100.0 * all.train_stall_s / all.train_s, "%", ""};
  }
  if (!all.resize_s.empty()) {
    m["resize_s"] = Metric{mean(all.resize_s), "s", strf("n={}", all.resize_s.size())};
  }
  m["failed_share"] = Metric{all.attempted > 0 ? static_cast<double>(all.failed) /
                                                     static_cast<double>(all.attempted)
                                               : 0.0,
                             "ratio", strf("attempted={}", all.attempted)};
  m["setup_s"] = Metric{median(setup), "s", strf("CPU time, median of {} set-ups", setup.size())};
  m["host_s"] = Metric{*std::min_element(host.begin(), host.end()), "s",
                       strf("CPU time, least of {} rounds", host.size())};
  m["peak_rss_mib"] = Metric{peak_rss_mib(), "MiB", ""};
  return m;
}

std::string string_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_string(v[i]);
  return out + "]";
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::cerr << "unknown workload: " << a.workload << "\n";
    return 2;
  }
  const auto fn = w->fn;
  const auto n_rounds =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(a.seconds / w->round_seconds));
  std::vector<RoundResult> rounds;
  std::vector<std::string> failures;
  std::string parity_json = "null";
  MetricMap per_layer;
  try {
    if (!a.trace) {
      for (std::uint64_t i = 0; i < n_rounds; ++i) {
        rounds.push_back(fn(untraced(round_seed(a.seed, i))));
        std::cerr << strf("{} round {}: host {:.3f}s setup {:.3f}s\n", a.workload, i,
                          rounds.back().host_s, rounds.back().setup_s);
      }
    } else {
      // Parity: the same round untraced and traced must agree exactly in
      // virtual time; the host-time difference is the tracing overhead.
      const auto plain = fn(untraced(round_seed(a.seed, 0)));
      const auto trace_path = strf("{}/{}-seed{}.trace.json", a.out_dir, a.workload, a.seed);
      rounds.push_back(fn(RoundSpec{round_seed(a.seed, 0), true, trace_path, false}));
      const auto diff = parity_diff(plain, rounds.back());
      for (const auto& f : diff) failures.push_back("traced/untraced parity differs: " + f);
      for (std::uint64_t i = 1; i < n_rounds; ++i) {
        rounds.push_back(fn(RoundSpec{round_seed(a.seed, i), true, "", false}));
      }
      LayerCounters c;
      for (const auto& r : rounds) c.merge(r.layers);
      per_layer = layer_metrics(c);
      const double overhead = plain.host_s > 0.0
                                  ? 100.0 * (rounds.front().host_s - plain.host_s) / plain.host_s
                                  : 0.0;
      per_layer["trace.overhead_pct"] = Metric{overhead, "%", "host_s traced vs untraced"};
      for (auto& [k, v] : run_probes(a.workload)) per_layer[k] = v;
      parity_json = strf("{{\"ok\": {}, \"untraced_host_s\": {}, \"traced_host_s\": {}, "
                         "\"trace_file\": {}}}",
                         diff.empty() ? "true" : "false", json_number(plain.host_s),
                         json_number(rounds.front().host_s), json_string(trace_path));
    }
  } catch (const std::exception& e) {
    failures.push_back(strf("round {} raised: {}", rounds.size(), e.what()));
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& f : r.gate_failures) failures.push_back(f);
  }
  if (failed != 0) failures.push_back(strf("{} client ops failed after retries", failed));
  MetricMap e2e = rounds.empty() ? MetricMap{} : end_to_end(rounds);
  if (a.workload == "fleet" && !a.trace && failures.empty()) {
    e2e["capacity_jobs"] = Metric{static_cast<double>(fleet_capacity(a.seed)), "jobs",
                                  "bisection, 2 s horizon, same mix and seed"};
  }
  std::cout << strf("{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"rounds\": {}, "
                    "\"correct\": {}, \"gate_failures\": {}, \"attempted\": {}, "
                    "\"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"parity\": {}}}\n",
                    json_string(a.workload), a.seed, a.trace ? 1 : 0, rounds.size(),
                    failures.empty() ? "true" : "false", string_list(failures), attempted,
                    failed, metrics_json(e2e), metrics_json(per_layer), parity_json);
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Logger::instance().set_level(LogLevel::kError);
  // Keep freed heap in the process: rounds then reuse warm pages instead of
  // paying fresh page faults for every testbed (steadier host CPU times).
  mallopt(M_MMAP_THRESHOLD, 512 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) return run_selftests();
  if (argc >= 2 && std::strcmp(argv[1], "calibrate") == 0) {
    std::cout << strf("pool sustains {:.3f} GB/s\n", fleet_calibrate(1) / 1e9);
    return 0;
  }
  if (argc >= 2 && std::strcmp(argv[1], "capacity") == 0) {
    std::cout << strf("capacity_jobs {}\n", fleet_capacity(1));
    return 0;
  }
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) {
    std::cerr << "usage: portus_perfbench run --workload W --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n       portus_perfbench selftest\n";
    return 2;
  }
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out_dir = v;
    else {
      std::cerr << "unknown flag " << k << "\n";
      return 2;
    }
  }
  return run(a);
}
