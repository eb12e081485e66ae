#!/usr/bin/env python3
"""Portus repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (and the Portus libraries
under src/) into $CARGO_TARGET_DIR (default .bench_build), runs as many
seeded rounds of the chosen workload as fill about --seconds on the
reference machine, checks every output, prints every metric by name with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
traced rounds and reports the per-layer metrics, writes a Chrome trace and
the per-layer table to .bench_out/. Exits non-zero, with no metrics, when a
correctness gate fails or the build cannot run.

    python3 perfbench/run.py --selftest             # harness self-tests
    python3 perfbench/run.py --write-benchmark-json # regenerate BENCHMARK.json
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

RUN_SECONDS = 15

WORKLOADS = [
    ("zoo", "one training job at a time on the default daemon: the single-op datapath "
            "(control RTT, extents, RDMA, PMEM flush, CRC, commit) over the Table II models"),
    ("fleet", "230 open-loop phantom jobs at 70% of pool capacity on four tenanted daemons: "
              "admission, allocator churn, online repack, PMEM write contention"),
    ("elastic", "four sharded jobs on a ring resized by join/join/drain/crash/repair: "
                "placement, migration streaming, barriers, lane failover"),
]

# End-to-end metrics every workload reports (bound = tolerated worsening as
# a share of the parent's median). The other issue-listed metrics are
# workload-specific, zero-valued or too unsteady on a shared host; they are
# printed in the table (see README.md) but not gated.
END_TO_END = [
    ("ckpt_p50_ms", "ms", "lower", 0.1),
    ("ckpt_tail_ms", "ms", "lower", 0.2),
    ("restore_p50_ms", "ms", "lower", 0.1),
    ("restore_tail_ms", "ms", "lower", 0.2),
    ("register_p50_ms", "ms", "lower", 0.05),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# Printed in the table only.
TABLE_ONLY = [
    ("host_s", "s"), ("high_ckpt_tail_ms", "ms"), ("incr_p50_ms", "ms"), ("ckpt_gbps", "GB/s"),
    ("ckpt_ontime_share", "ratio"), ("capacity_jobs", "jobs"), ("train_stall_pct", "%"),
    ("resize_s", "s"), ("failed_share", "ratio"), ("issue_late_ms_mean", "ms"),
    ("issue_late_ms_max", "ms"), ("issue_late_share", "ratio"), ("offered_load", "ratio"),
]

HIGHER_IS_BETTER = {"crc.host_gbps", "crc.bytewise_gbps", "pipeline.bytes_per_wr",
                    "pipeline.sges_per_wr", "pipeline.wrs_per_doorbell", "pipeline.mean_window",
                    "pipeline.extents_coalesced", "alloc.reuse_ratio", "repack.freed_gib",
                    "pipeline.local_chunks"}

PER_LAYER = [
    ("client.retries_per_op", "count/op"), ("client.backpressure_per_op", "count/op"),
    ("client.timeouts", "count"), ("client.reconnects", "count"),
    ("client.outside_datapath_ms", "ms"),
    ("daemon.failed_ops", "count"), ("daemon.integrity_rejects", "count"),
    ("daemon.backpressure_rejects", "count"), ("daemon.epoch_rejects", "count"),
    ("pipeline.wrs_per_op", "count/op"), ("pipeline.sges_per_wr", "count"),
    ("pipeline.bytes_per_wr", "B"), ("pipeline.extents_coalesced", "count"),
    ("pipeline.doorbells_per_window", "count"), ("pipeline.wrs_per_doorbell", "count"),
    ("pipeline.busy_s", "s"), ("pipeline.mean_window", "count"),
    ("pipeline.peak_window", "count"), ("pipeline.queue_delay_ms", "ms"),
    ("pipeline.local_chunks", "count"), ("pipeline.numa_remote_chunks", "count"),
    ("admission.queue_wait_mean_ms", "ms"), ("admission.queue_wait_max_ms", "ms"),
    ("admission.reject_ratio", "ratio"), ("admission.paced", "count"),
    ("admission.paused_ms", "ms"),
    ("alloc.allocs", "count"), ("alloc.frees", "count"), ("alloc.reuse_ratio", "ratio"),
    ("alloc.steals", "count"), ("alloc.refills", "count"),
    ("alloc.scan_steps_per_alloc", "count"), ("alloc.space_amp", "ratio"),
    ("repack.freed_gib", "GiB"), ("repack.passes", "count"), ("repack.paused_ms", "ms"),
    ("pmem.write_busy_share", "ratio"), ("pmem.read_busy_share", "ratio"),
    ("pmem.write_amp", "ratio"), ("pmem.fences_per_op", "count/op"),
    ("rdma.ops", "count"), ("rdma.bytes", "B"), ("rdma.nic_busy_share", "ratio"),
    ("gpu.pcie_busy_share", "ratio"),
    ("cluster.reresolutions", "count"), ("cluster.lane_failures", "count"),
    ("cluster.rerouted_shards", "count"), ("cluster.degraded_restores", "count"),
    ("migration.copies_moved", "count"), ("migration.bytes_streamed", "B"),
    ("migration.barrier_ms", "ms"),
    ("hook.stalled_updates", "count"), ("hook.pull_ms_mean", "ms"),
    ("sim.events_per_op", "count/op"), ("sim.host_ns_per_event", "ns"),
    ("trace.overhead_pct", "%"),
    ("crc.host_gbps", "GB/s"), ("crc.bytewise_gbps", "GB/s"),
    ("probe.register_codec_us", "us"), ("probe.mindex_create_us", "us"),
    ("probe.plan_extents_us", "us"), ("probe.alloc_free_ns", "ns"),
]


def benchmark_spec():
    """The BENCHMARK.json document, built from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
                      for n, u in PER_LAYER],
    }


def render_benchmark_json(spec):
    return json.dumps(spec, indent=2) + "\n"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure + build perfbench; returns the binary path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    logfile = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                with open(logfile) as f:
                    log(f.read()[-4000:])
                log("build failed: " + " ".join(cmd))
                return None
    return os.path.join(build_dir, "portus_perfbench")


def run_binary(binary, args, timeout):
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines


def merge_chrome_traces(path):
    """Zoo writes one trace document per model testbed, one per line:
    merge them into one Chrome trace, one process row per document. A
    single-document trace (fleet, elastic) is left as it is."""
    with open(path) as f:
        text = f.read()
    try:
        json.loads(text)
        return
    except ValueError:
        docs = [json.loads(l) for l in text.splitlines() if l.strip()]
    events = []
    for pid, doc in enumerate(docs, start=1):
        name = next((e["args"]["name"] for e in doc["traceEvents"]
                     if e.get("ph") == "M" and e.get("name") == "thread_name"), str(pid))
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name.split("/")[1] if "/" in name else name}})
        for e in doc["traceEvents"]:
            e = dict(e)
            e["pid"] = pid
            events.append(e)
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


def fmt(v):
    if isinstance(v, float) and v != int(v):
        return f"{v:.6g}"
    return str(int(v)) if isinstance(v, (int, float)) else str(v)


def print_table(title, rows):
    print(title)
    for name, m, unit in rows:
        if m is None:
            print(f"  {name:<32} {'n/a':>16}  {unit}")
        else:
            note = f"  ({m['note']})" if m.get("note") else ""
            print(f"  {name:<32} {fmt(m['value']):>16}  {m['unit']}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    a = ap.parse_args()

    if a.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(render_benchmark_json(benchmark_spec()))
        return 0

    binary = build()
    if binary is None:
        return 1
    if a.selftest:
        import selftest
        return selftest.main(binary)
    if a.workload is None:
        ap.error("--workload is required")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    args = ["run", "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", out_dir]
    try:
        rc, lines = run_binary(binary, args, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark produced no report (exit {rc})")
        return 1

    failures = list(report["gate_failures"])
    if a.trace:
        section, wanted = report["per_layer"], [n for n, _ in PER_LAYER]
    else:
        section, wanted = report["end_to_end"], [n for n, *_ in END_TO_END]
    missing = [n for n in wanted if n not in section]
    failures += [f"metric {n} missing from the report" for n in missing]

    print(f"workload {a.workload}  seed {a.seed}  rounds {report['rounds']}  "
          f"attempted {report['attempted']}  failed {report['failed']}")
    if a.trace:
        print_table("per-layer metrics (traced rounds):",
                    [(n, section.get(n), u) for n, u in PER_LAYER])
        parity = report.get("parity") or {}
        trace_file = parity.get("trace_file")
        if trace_file and os.path.exists(trace_file):
            merge_chrome_traces(trace_file)
            print(f"chrome trace: {os.path.relpath(trace_file, ROOT)}")
        print(f"traced/untraced parity: {'ok' if parity.get('ok') else 'DIFFERS'}")
        table = os.path.join(out_dir, f"{a.workload}-seed{a.seed}.layers.txt")
        with open(table, "w") as f:
            for n, u in PER_LAYER:
                m = section.get(n)
                f.write(f"{n}\t{fmt(m['value']) if m else 'n/a'}\t{u}\n")
        print(f"per-layer table: {os.path.relpath(table, ROOT)}")
    else:
        print_table("end-to-end metrics (gated):",
                    [(n, section.get(n), u) for n, u, *_ in END_TO_END])
        print_table("end-to-end metrics (this workload only, not gated):",
                    [(n, section.get(n), u) for n, u in TABLE_ONLY])

    if failures or rc != 0:
        for f in failures:
            log("FAIL: " + f)
        print(json.dumps({"correct": False, "attempted": report["attempted"],
                          "failed": report["failed"], "metrics": {}}))
        return 1
    metrics = {n: {"value": section[n]["value"], "unit": section[n]["unit"]} for n in wanted}
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
