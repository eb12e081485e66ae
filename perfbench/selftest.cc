#include "selftest.h"

#include <cmath>
#include <iostream>
#include <string>

#include "common/strformat.h"
#include "dnn/model_zoo.h"
#include "harness.h"
#include "layers.h"

namespace portus::perfbench {

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

// The tail rule picks p99 only with >= 10 samples beyond it, else p95,
// else p90, else the maximum.
void tail_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  auto t = tail_of(v);
  check(t.pct == 99.0 && t.value == 990.0 && t.n == 1000, "tail: 1000 samples -> p99");
  v.pop_back();  // 999: only 9 beyond p99
  t = tail_of(v);
  check(t.pct == 95.0 && t.value == 950.0, "tail: 999 samples -> p95 (9 beyond p99)");
  v.resize(199);  // 9 beyond p95
  check(tail_of(v).pct == 90.0, "tail: 199 samples -> p90");
  v.resize(100);  // exactly 10 beyond p90
  t = tail_of(v);
  check(t.pct == 90.0 && t.value == 90.0, "tail: 100 samples -> p90 (10 beyond)");
  v.resize(99);
  t = tail_of(v);
  check(t.pct == 100.0 && t.value == 99.0, "tail: 99 samples -> max");
  check(samples_beyond(1000, 99.0) == 10 && samples_beyond(999, 99.0) == 9,
        "tail: samples beyond the nearest-rank position");
  check(median({5.0, 1.0, 3.0}) == 3.0 && median({4.0, 1.0, 3.0, 2.0}) == 2.0,
        "median: nearest rank");
}

// A stalled op pushes its successors later; their latency still counts
// from their own due time and the lateness is accounted.
void open_loop() {
  const Duration period{100};
  OpenLoopSchedule s{Time{1000}, period};
  check(s.due(0) == Time{1000} && s.due(3) == Time{1300}, "open loop: due = phase + i * period");
  // Op 0 issued on time but stalls for 250: it misses op 1's due time.
  auto lat0 = s.record(0, Time{1000}, Time{1250});
  check(lat0 == Duration{250} && !s.on_time(0, Time{1250}), "open loop: stalled op is late");
  // Op 1 (due 1100) can only be issued at 1250, takes 30.
  auto lat1 = s.record(1, Time{1250}, Time{1280});
  check(lat1 == Duration{180}, "open loop: successor latency counts from its due time");
  check(!s.on_time(1, Time{1280}), "open loop: the stall makes the successor late too");
  // Op 2 (due 1200) issued at 1280.
  s.record(2, Time{1280}, Time{1290});
  check(s.late_ops() == 2 && s.lateness_total() == Duration{150 + 80} &&
            s.lateness_max() == Duration{150},
        "open loop: issue lateness accounted per op");
  s.record(3, Time{1300}, Time{1310});
  check(s.late_ops() == 2 && s.on_time(3, Time{1310}),
        "open loop: an op issued on its due time is neither late nor overdue");
}

void names() {
  bool ok = true;
  for (const auto& n : layer_metric_names()) ok = ok && valid_name(n);
  check(ok, "names: every per-layer metric name matches [A-Za-z0-9_.-]+");
  check(!valid_name("a b") && !valid_name("") && !valid_name("x/y") && valid_name("a.b-c_1"),
        "names: validator rejects spaces, slashes, empty");
  const auto m = layer_metrics(LayerCounters{});
  check(m.size() == layer_metric_names().size(), "names: layer_metrics emits every name");
}

// zoo on the canonical Table II layer splits must reproduce the Portus
// columns of bench/fig11_checkpoint and bench/fig12_restore (as printed,
// to the microsecond): the benchmark measures the default daemon. Update
// these when a change to the modeled datapath moves those figures.
void cross_check() {
  struct Row {
    const char* model;
    double ckpt_ms;
    double restore_ms;
  };
  const Row fig[] = {
      {"alexnet", 42.248, 29.547},  {"convnext_base", 62.740, 44.058},
      {"resnet50", 18.328, 12.916}, {"swin_b", 62.128, 43.622},
      {"vgg19_bn", 99.445, 69.547}, {"vit_l_32", 212.754, 148.860},
      {"bert", 233.648, 163.520},
  };
  const auto r = run_zoo_round(RoundSpec{1, false, "", true});
  const auto names = dnn::ModelZoo::table2_names();
  const std::size_t per_model_ckpt = r.ckpt_ms.size() / names.size();
  const std::size_t per_model_restore = r.restore_ms.size() / names.size();
  check(r.gate_failures.empty() && per_model_ckpt > 0 && per_model_restore > 0,
        "cross-check: canonical zoo round is correct");
  for (std::size_t i = 0; i < names.size(); ++i) {
    bool ok = names[i] == fig[i].model;
    for (std::size_t k = 0; k < per_model_ckpt; ++k) {
      ok = ok && std::round(r.ckpt_ms[i * per_model_ckpt + k] * 1e3) ==
                     std::round(fig[i].ckpt_ms * 1e3);
    }
    for (std::size_t k = 0; k < per_model_restore; ++k) {
      ok = ok && std::round(r.restore_ms[i * per_model_restore + k] * 1e3) ==
                     std::round(fig[i].restore_ms * 1e3);
    }
    check(ok, strf("cross-check: {} checkpoint {:.3f} ms / restore {:.3f} ms match fig11/fig12",
                   names[i], r.ckpt_ms[i * per_model_ckpt], r.restore_ms[i * per_model_restore]));
  }
}

// Tracing must not move virtual time.
void parity() {
  using RoundFn = RoundResult (*)(const RoundSpec&);
  const std::pair<const char*, RoundFn> workloads[] = {
      {"zoo", run_zoo_round}, {"fleet", run_fleet_round}, {"elastic", run_elastic_round}};
  for (const auto& [name, fn] : workloads) {
    const auto a = fn(untraced(7));
    const auto b = fn(RoundSpec{7, true, "", false});
    const auto diff = parity_diff(a, b);
    check(diff.empty() && a.gate_failures.empty() && b.gate_failures.empty(),
          strf("parity: {} traced == untraced in virtual time{}", name,
               diff.empty() ? "" : " (differs: " + diff.front() + ")"));
  }
}

}  // namespace

int run_selftests() {
  tail_rule();
  open_loop();
  names();
  cross_check();
  parity();
  std::cout << (failures == 0 ? "all self-tests passed\n" : strf("{} self-tests failed\n", failures));
  return failures == 0 ? 0 : 1;
}

}  // namespace portus::perfbench
