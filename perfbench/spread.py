#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fleet --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed and prints, per end-to-end metric, the
median and the interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them) beside the metric's bound
from BENCHMARK.json. A benchmark is steady when every spread except
setup_s stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    a = ap.parse_args()

    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        proc = subprocess.run(["python3", os.path.join(run.HERE, "run.py"), "--workload",
                               a.workload, "--seed", str(seed), "--seconds", str(a.seconds),
                               "--trace", "0"], cwd=run.ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        last = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not last["correct"]:
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}"
                                           for n, m in last["metrics"].items()), flush=True)

    steady = True
    print(f"\n{'metric':<18}{'median':>14}{'iqr/median':>12}{'bound':>8}  verdict")
    for name, unit, _, bound in run.END_TO_END:
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = name == "setup_s" or spread < bound / 3
        steady = steady and ok
        print(f"{name:<18}{med:>14.6g}{spread:>12.4f}{bound:>8.2f}  "
              f"{'ok' if ok else 'UNSTEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
