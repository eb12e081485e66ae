#!/usr/bin/env python3
"""Unit tests for trace_spans.py on small hand-made Chrome traces.

    python3 tools/trace_spans_test.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_spans  # noqa: E402


def trace(tracks):
    """A Chrome trace with one thread per track; tracks maps a thread name
    to its ckpt# span durations in ms. Each trace also carries a restore
    span, which the ckpt# prefix must skip."""
    events = []
    for tid, (name, durations) in enumerate(sorted(tracks.items())):
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": name}})
        for i, ms in enumerate(durations):
            events.append({"name": f"ckpt#{tid}.{i}", "ph": "X", "pid": 1, "tid": tid,
                           "ts": i, "dur": ms * 1e3})
        events.append({"name": "restore#0", "ph": "X", "pid": 1, "tid": tid, "ts": 0,
                       "dur": 99e3})
    return {"traceEvents": events}


def timed_trace(tracks):
    """A Chrome trace with one thread per track; tracks maps a thread name
    to (start us, duration us) pairs of its "checkpoint " spans."""
    events = []
    for tid, (name, spans) in enumerate(sorted(tracks.items())):
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": name}})
        for i, (ts, dur) in enumerate(spans):
            events.append({"name": f"checkpoint m#s{i}", "ph": "X", "pid": 1, "tid": tid,
                           "ts": ts, "dur": dur})
    return {"traceEvents": events}


def handoff_trace(spans):
    """A Chrome trace of (track, span name, start us, duration us) spans,
    one thread per track."""
    tids = {track: tid for tid, track in enumerate(sorted({t for t, _, _, _ in spans}))}
    events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": track}}
              for track, tid in tids.items()]
    events += [{"name": name, "ph": "X", "pid": 1, "tid": tids[track], "ts": ts, "dur": dur}
               for track, name, ts, dur in spans]
    return {"traceEvents": events}


class TraceSpansTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, tracks):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(trace(tracks), f)
        return path

    def test_spans_pool_per_track_across_traces(self):
        a = self.write("a.json", {"fast": [1, 2], "slow": [10]})
        b = self.write("b.json", {"fast": [3]})
        self.assertEqual(trace_spans.load_spans([a, b], "ckpt#"),
                         {"fast": [1.0, 2.0, 3.0], "slow": [10.0]})

    def test_nearest_rank_percentiles(self):
        self.assertEqual(trace_spans.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(trace_spans.percentile([4, 1, 3, 2, 5], 50), 3)
        self.assertEqual(trace_spans.percentile(list(range(1, 11)), 90), 9)
        self.assertEqual(trace_spans.weighted_median([(v, 1) for v in (4, 1, 3, 2)]), 2)

    def test_reweighting_restores_the_parent_mix(self):
        # The parent lands 3 fast spans per slow one; the change lands the
        # same latencies 1:3, so only its mix moved.
        parent = {"fast": [1, 1, 1], "slow": [5]}
        change = {"fast": [1], "slow": [5, 5, 5]}
        self.assertEqual(trace_spans.percentile(trace_spans.pooled(change), 50), 5)
        self.assertEqual(trace_spans.reweighted_median(parent, change), 1)

    def test_cli_compares_against_the_parent(self):
        parent = self.write("p.json", {"fast": [1, 1, 1], "slow": [5]})
        change = self.write("c.json", {"fast": [1], "slow": [4, 4, 4]})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(trace_spans.main([change, "--parent", parent]), 0)
        text = out.getvalue()
        self.assertIn("5.000 ->      4.000 ms (-20.0%)", text)
        self.assertIn("pooled p50: parent 1.000 ms, change 4.000 ms, change reweighted to "
                      "the parent's per-track counts 1.000 ms", text)
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(trace_spans.main([change, "--prefix", "nosuch#"]), 1)


    def test_before_and_after_keep_one_phase(self):
        path = os.path.join(self.dir.name, "phases.json")
        with open(path, "w") as f:
            json.dump(handoff_trace([
                ("resizer", "repair#7", 100, 50),
                ("portusd2", "restore m#s0", 0, 40),
                ("portusd2", "restore m#s1", 60, 40),    # ends at the repair's start
                ("portusd2", "restore m#s2", 90, 20),    # overlaps the repair
                ("portusd3", "restore m#s3", 150, 10),   # starts at the repair's end
                ("portusd3", "restore m#s4", 200, 30),
            ]), f)
        before = trace_spans.load_spans([path], "restore ", before="repair#")
        self.assertEqual(before, {"portusd2": [0.04, 0.04]})
        after = trace_spans.load_spans([path], "restore ", after="repair#")
        self.assertEqual(after, {"portusd3": [0.01, 0.03]})
        # A trace without the mark contributes nothing.
        self.assertEqual(trace_spans.load_spans([path], "restore ", before="nosuch#"), {})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(trace_spans.main([path, "--prefix", "restore ", "--after",
                                               "repair#"]), 0)
        self.assertIn("portusd3       2     1      0.010", out.getvalue())

    def test_peak_is_the_most_spans_open_at_once_per_trace(self):
        self.assertEqual(trace_spans.peak_open([(0, 10), (5, 10), (8, 1), (20, 5)]), 3)
        # Back to back is not overlap, also where 0.1 + 0.2 > 0.3 in floats.
        self.assertEqual(trace_spans.peak_open([(0, 5), (5, 5), (10, 5)]), 1)
        self.assertEqual(trace_spans.peak_open([(0.1, 0.2), (0.3, 1)]), 1)
        a = os.path.join(self.dir.name, "a.json")
        b = os.path.join(self.dir.name, "b.json")
        with open(a, "w") as f:
            json.dump(timed_trace({"portusd0": [(0, 10), (5, 10), (8, 1)],
                                   "portusd1": [(0, 5), (5, 5)]}), f)
        # b's spans overlap a's in time, but peaks never pool across traces.
        with open(b, "w") as f:
            json.dump(timed_trace({"portusd1": [(0, 5), (1, 5)]}), f)
        self.assertEqual(trace_spans.load_peaks([a, b], "checkpoint "),
                         {"portusd0": 3, "portusd1": 2})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(trace_spans.main([a, b, "--prefix", "checkpoint "]), 0)
        rows = {line.split()[0]: line.split()[1:3] for line in out.getvalue().splitlines()[2:]}
        self.assertEqual(rows, {"portusd0": ["3", "3"], "portusd1": ["4", "2"],
                                "pooled": ["7", "3"]})

        # Against a parent whose spans sit on other tracks, nothing can be
        # reweighted.
        parent = os.path.join(self.dir.name, "p.json")
        with open(parent, "w") as f:
            json.dump(timed_trace({"portusd": [(0, 5)]}), f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(trace_spans.main([a, "--prefix", "checkpoint ", "--parent", parent]),
                             0)
        self.assertIn("per-track counts n/a (no track in both)", out.getvalue())

    def test_handoff_runs_from_the_pullers_commit_to_the_forwards_end(self):
        # portusd0 pulls a#s0 twice (commits at 100 and 600 us) and b#s0
        # once; portusd1 lands each a#s0 version by forward. Its own pull of
        # b#s0 and portusd0's later pull of a#s0 must not match.
        change = os.path.join(self.dir.name, "c.json")
        with open(change, "w") as f:
            json.dump(handoff_trace([
                ("portusd0", "checkpoint a#s0", 0, 100),
                ("portusd0", "checkpoint a#s0", 400, 200),
                ("portusd0", "checkpoint b#s0", 0, 50),
                ("portusd1", "checkpoint b#s0", 0, 90),
                ("portusd1", "forward a#s0", 125, 100),   # 225 - 100
                ("portusd1", "forward a#s0", 625, 200),   # 825 - 600
                ("portusd1", "forward c#s0", 700, 10),    # no pull of c#s0
                ("portusd0", "checkpoint a#s0", 900, 10),
            ]), f)
        self.assertEqual(trace_spans.load_handoffs([change]), {"portusd1": [0.125, 0.225]})

        parent = os.path.join(self.dir.name, "p.json")
        with open(parent, "w") as f:
            json.dump(handoff_trace([
                ("portusd0", "checkpoint a#s0", 0, 100),
                ("portusd1", "forward a#s0", 150, 175),   # 325 - 100
            ]), f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(trace_spans.main([change, "--handoff", "--parent", parent]), 0)
        text = out.getvalue()
        self.assertIn("change: handoffs (puller commit -> forward end) in 1 trace(s)", text)
        self.assertIn("portusd1      0.225 ->      0.125 ms (-44.4%)", text)
        # --prefix plays no part in a handoff.
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(trace_spans.main([parent, "--handoff", "--prefix", "nosuch#"]), 0)


if __name__ == "__main__":
    unittest.main()
