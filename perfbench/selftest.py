"""Self-tests of the benchmark harness (run: python3 perfbench/run.py --selftest).

Checks that every workload and metric name is valid, that BENCHMARK.json
round-trips through the writer in run.py, that a traced and an untraced run
report exactly the metric names BENCHMARK.json lists, and runs the C++
self-tests (tail rule, open-loop accounting, fig11/fig12 cross-check,
traced/untraced parity).
"""

import json
import os
import subprocess

import run

failures = 0


def check(ok, what):
    global failures
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures += 1


def names():
    spec = run.benchmark_spec()
    all_names = [w["name"] for w in spec["workloads"]]
    all_names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in all_names if not run.NAME_RE.match(n)]
    check(not bad, f"names: all {len(all_names)} names match [A-Za-z0-9_.-]+ {bad or ''}")
    check(len(set(all_names)) == len(all_names), "names: every name is used once")
    check(not run.NAME_RE.match("bad name") and not run.NAME_RE.match("a/b"),
          "names: the pattern rejects spaces and slashes")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]), "names: setup_s is an end-to-end metric")
    check(all(m["bound"] <= 0.25 for m in spec["end_to_end"]), "names: every bound <= 0.25")


def round_trip():
    spec = run.benchmark_spec()
    text = run.render_benchmark_json(spec)
    check(json.loads(text) == spec, "BENCHMARK.json: writer output parses back to the spec")
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as f:
        on_disk = f.read()
    check(on_disk == text, "BENCHMARK.json: committed file equals the writer's output")


def reported_names(workload, trace):
    proc = subprocess.run(["python3", os.path.join(run.HERE, "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    last = json.loads(proc.stdout.splitlines()[-1])
    return proc.returncode, last


def reports():
    e2e = [n for n, *_ in run.END_TO_END]
    layers = [n for n, _ in run.PER_LAYER]
    for w, _ in run.WORKLOADS:
        rc, last = reported_names(w, 0)
        check(rc == 0 and last["correct"] and sorted(last["metrics"]) == sorted(e2e),
              f"report: {w} --trace 0 reports exactly the end-to-end metrics")
        check(all(last["metrics"][n]["value"] > 0 for n in e2e if n in last["metrics"]),
              f"report: {w} end-to-end metrics are non-zero")
    rc, last = reported_names("fleet", 1)
    check(rc == 0 and sorted(last["metrics"]) == sorted(layers),
          "report: fleet --trace 1 reports exactly the per-layer metrics")


def main(binary):
    names()
    round_trip()
    rc = subprocess.run([binary, "selftest"]).returncode
    check(rc == 0, "C++ self-tests (tail rule, open loop, cross-check, parity)")
    reports()
    print("all self-tests passed" if failures == 0 else f"{failures} self-tests failed")
    return 0 if failures == 0 else 1
