#!/usr/bin/env python3
"""Per-track statistics of the spans whose names start with a prefix, in
Chrome traces as perfbench/run.py --trace 1 writes them to .bench_out/.

    python3 tools/trace_spans.py .bench_out/elastic-seed1.trace.json
    python3 tools/trace_spans.py --prefix restore# CHANGE.json... --parent PARENT.json...

It prints, per track (thread) and pooled over all tracks, the span count,
the peak (the most spans open at once on the track within one trace, the
maximum over the traces; pooled: the largest track peak) and the
nearest-rank median, p90 and max in ms. Spans of one track pool across
every trace given, so several seeds' traces make one larger sample. With
--prefix "checkpoint " on an elastic trace, whose daemons each have their
own track, the peak is how many shard checkpoints a daemon ran at once.

With --before MARK (--after MARK) only the spans that end by the start
of (start at or after the end of) the first span named MARK* in the same
trace count, so one phase of a run can be read on its own: on an elastic
trace, --prefix "restore " --before repair# gives each daemon's shard
restores of the crash phase, --after repair# those after the repair.
--handoff ignores them.

With --parent it also prints the parent's table, the change of each
track's median, and the pooled median of the traces under study
reweighted to the parent's per-track counts. A closed-loop workload can
move how many spans each track lands, and with them the pooled median;
the reweighted median holds the mix at the parent's, so it shows what the
per-span latencies alone did to the pooled figure.

    python3 tools/trace_spans.py --handoff CHANGE.json... --parent PARENT.json...

--handoff measures replica landings instead: for each "forward <key>"
span, the time from the end of the latest "checkpoint <key>" span on
another track that ended by the forward's start (the puller's commit) to
the forward's end (the copy's commit), per replica track and pooled, in
the same tables.
"""

import argparse
import json
import math
import sys


def read_spans(path, prefix, before=None, after=None):
    """(track name, span name, start us, duration us) of every complete
    event ("X") in one trace whose name starts with prefix. Tracks are named by their
    thread_name metadata, prefixed with the process name where there is
    one (zoo merges one process per model, each with its own portusd
    thread). With before (after), only the spans that end by the start of
    (start at or after the end of) the trace's first span named before*
    (after*); none when it has no such span."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    complete = [e for e in events if e.get("ph") == "X"]
    lo, hi = -math.inf, math.inf  # in whole ns, as peak_open compares
    for mark, is_before in ((before, True), (after, False)):
        if mark is None:
            continue
        marks = [e for e in complete if e.get("name", "").startswith(mark)]
        if not marks:
            return []
        first = min(marks, key=lambda e: e["ts"])
        if is_before:
            hi = round(first["ts"] * 1e3)
        else:
            lo = round(first["ts"] * 1e3) + round(first["dur"] * 1e3)
    threads, processes = {}, {}
    for e in events:
        if e.get("ph") != "M":
            continue
        if e.get("name") == "thread_name":
            threads[(e.get("pid"), e.get("tid"))] = e["args"]["name"]
        elif e.get("name") == "process_name":
            processes[e.get("pid")] = e["args"]["name"] + "/"
    out = []
    for e in complete:
        start = round(e["ts"] * 1e3)
        if not e.get("name", "").startswith(prefix) or start < lo or \
                start + round(e["dur"] * 1e3) > hi:
            continue
        pid, tid = e.get("pid"), e.get("tid")
        track = processes.get(pid, "") + threads.get((pid, tid), f"tid {tid}")
        out.append((track, e["name"], e["ts"], e["dur"]))
    return out


def load_spans(paths, prefix, before=None, after=None):
    """{track name: [span duration in ms]} over the spans whose name starts
    with prefix (within the read_spans window), pooled across the traces in
    paths."""
    spans = {}
    for path in paths:
        for track, _, _, dur in read_spans(path, prefix, before, after):
            spans.setdefault(track, []).append(dur / 1e3)
    return spans


def load_handoffs(paths):
    """{replica track: [ms]} from the puller's commit to each forward's
    end: per "forward <key>" span, back to the end of the latest
    "checkpoint <key>" span on another track of the same trace that ended
    by the forward's start. A forward with no such pull is skipped."""
    handoffs = {}
    for path in paths:
        pulls = {}
        for track, name, ts, dur in read_spans(path, "checkpoint "):
            pulls.setdefault(name[len("checkpoint "):], []).append((ts + dur, track))
        for track, name, ts, dur in read_spans(path, "forward "):
            ends = [end for end, puller in pulls.get(name[len("forward "):], ())
                    if puller != track and end <= ts]
            if ends:
                handoffs.setdefault(track, []).append((ts + dur - max(ends)) / 1e3)
    return handoffs


def peak_open(intervals):
    """The most of the (start, duration) intervals open at once. One that
    ends where another starts does not overlap it. Traces print times in
    us to the ns, so the sums are taken in whole ns: float sums would let
    back-to-back spans overlap by a rounding error."""
    ns = [(round(ts * 1e3), round(ts * 1e3) + round(dur * 1e3)) for ts, dur in intervals]
    edges = sorted([(end, -1) for _, end in ns] + [(start, 1) for start, _ in ns])
    peak = open_now = 0
    for _, step in edges:
        open_now += step
        peak = max(peak, open_now)
    return peak


def load_peaks(paths, prefix, before=None, after=None):
    """{track name: the most spans open at once on the track within one
    trace}, the maximum over the traces in paths."""
    peaks = {}
    for path in paths:
        per_track = {}
        for track, _, ts, dur in read_spans(path, prefix, before, after):
            per_track.setdefault(track, []).append((ts, dur))
        for track, intervals in per_track.items():
            peaks[track] = max(peaks.get(track, 0), peak_open(intervals))
    return peaks


def percentile(values, p):
    """Nearest-rank p-th percentile, as perfbench computes it."""
    values = sorted(values)
    rank = min(max(math.ceil(p / 100.0 * len(values)), 1), len(values))
    return values[rank - 1]


def weighted_median(samples):
    """Nearest-rank median of (value, weight) pairs: the smallest value
    whose cumulative weight reaches half the total. With unit weights this
    is percentile(values, 50)."""
    samples = sorted(s for s in samples if s[1] > 0)
    half = sum(w for _, w in samples) / 2
    acc = 0.0
    for value, weight in samples:
        acc += weight
        if acc >= half * (1 - 1e-12):
            return value
    return samples[-1][0]


def reweighted_median(parent, change):
    """The change's pooled median with each of its spans weighted so that
    every track carries the parent's span count. A track the parent lacks
    carries no weight; None when no track is in both."""
    samples = []
    for track, values in change.items():
        weight = len(parent.get(track, ())) / len(values)
        samples += [(v, weight) for v in values if weight > 0]
    return weighted_median(samples) if samples else None


def pooled(spans):
    return [x for values in spans.values() for x in values]


def print_table(title, spans, peaks, width):
    """One row per track and a pooled row; peaks=None prints no peak."""
    print(title)
    print(f"  {'track':<{width}} {'count':>7} {'peak':>5} {'p50_ms':>10} {'p90_ms':>10} "
          f"{'max_ms':>10}")
    for track, values in sorted(spans.items()) + [("pooled", pooled(spans))]:
        if peaks is None:
            peak = "-"
        else:
            peak = peaks[track] if track in spans else max(peaks.values())
        print(f"  {track:<{width}} {len(values):>7} {peak:>5} {percentile(values, 50):>10.3f} "
              f"{percentile(values, 90):>10.3f} {max(values):>10.3f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("traces", nargs="+", metavar="TRACE", help="traces to summarize")
    ap.add_argument("--parent", nargs="+", metavar="TRACE",
                    help="the parent commit's traces to compare against")
    ap.add_argument("--prefix", default="ckpt#", help="span name prefix (default: ckpt#)")
    ap.add_argument("--handoff", action="store_true",
                    help="time from a puller's commit to each forward's end (see above)")
    ap.add_argument("--before", metavar="MARK",
                    help="only spans that end by the start of the first MARK* span")
    ap.add_argument("--after", metavar="MARK",
                    help="only spans that start after the end of the first MARK* span")
    a = ap.parse_args(argv)
    window = (a.before, a.after)

    if a.handoff:
        what = "handoffs (puller commit -> forward end)"
        change = load_handoffs(a.traces)
        parent = load_handoffs(a.parent) if a.parent else None
        change_peaks = parent_peaks = None
    else:
        what = f"spans {a.prefix}*"
        change = load_spans(a.traces, a.prefix, *window)
        parent = load_spans(a.parent, a.prefix, *window) if a.parent else None
        change_peaks = load_peaks(a.traces, a.prefix, *window)
        parent_peaks = load_peaks(a.parent, a.prefix, *window) if a.parent else None
    for label, spans in (("traces", change), ("parent traces", parent)):
        if spans == {}:
            print(f"no {what} in the {label}", file=sys.stderr)
            return 1
    width = max(len(t) for t in list(change) + list(parent or {}) + ["pooled"])
    if parent is None:
        print_table(f"{what} in {len(a.traces)} trace(s)", change, change_peaks, width)
        return 0

    print_table(f"parent: {what} in {len(a.parent)} trace(s)", parent, parent_peaks, width)
    print_table(f"change: {what} in {len(a.traces)} trace(s)", change, change_peaks, width)
    print("median per track, parent -> change:")
    for track in sorted(set(parent) | set(change)):
        if track not in parent or track not in change:
            print(f"  {track:<{width}} only in the {'parent' if track in parent else 'change'}")
            continue
        before, after = percentile(parent[track], 50), percentile(change[track], 50)
        print(f"  {track:<{width}} {before:>10.3f} -> {after:>10.3f} ms "
              f"({100.0 * (after - before) / before:+.1f}%)")
    reweighted = reweighted_median(parent, change)
    print(f"pooled p50: parent {percentile(pooled(parent), 50):.3f} ms, change "
          f"{percentile(pooled(change), 50):.3f} ms, change reweighted to the parent's "
          "per-track counts " +
          (f"{reweighted:.3f} ms" if reweighted is not None else "n/a (no track in both)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
