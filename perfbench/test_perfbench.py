#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py            # all tests (builds first)
    python3 perfbench/test_perfbench.py SelfTime HdMedian Metrics

SelfTime, HdMedian and Metrics need nothing built. Failures builds the
benchmark like run.py does and shows that one corrupted expectation is
counted as exactly one failed operation, on an explain and on the serve
workload.
"""

import json
import os
import shutil
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(name, parent, start, end, sid=0):
    return {"name": name, "id": sid, "parent": parent, "start": start,
            "end": end}


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [
            span("root", -1, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 20, 50),   # overlaps a: the union [10, 50] is 40
            span("a.leaf", 1, 12, 14),
        ]
        self.assertEqual(run.self_times(spans), [60, 18, 30, 2])

    def test_a_child_is_clipped_to_its_parent(self):
        spans = [span("root", -1, 100, 200), span("late", 0, 150, 260)]
        self.assertEqual(run.self_times(spans), [50, 110])

    def test_a_span_without_children_keeps_its_duration(self):
        self.assertEqual(run.self_times([span("x", -1, 5, 9)]), [4])


class HdMedian(unittest.TestCase):
    def test_symmetric_samples_give_their_centre(self):
        self.assertAlmostEqual(run.hd_median([1.0, 2.0, 3.0]), 2.0)
        self.assertAlmostEqual(run.hd_median([5.0, 1.0, 3.0, 7.0]), 4.0)
        self.assertAlmostEqual(run.hd_median([4.0] * 9), 4.0)

    def test_moving_one_sample_across_a_gap_moves_it_little(self):
        # Two clumps, the median on their border: moving one sample from
        # the upper clump to the lower one makes the plain median jump by
        # most of the gap; the estimate moves by a fraction of that.
        low, high = [100.0] * 10, [140.0] * 10
        before = low + high
        after = low + [100.0] + high[1:]
        jump = run.quantile(after, 0.5) - run.quantile(before, 0.5)
        moved = run.hd_median(after) - run.hd_median(before)
        self.assertAlmostEqual(jump, -20.0)
        self.assertLess(abs(moved), abs(jump) / 2)


class Metrics(unittest.TestCase):
    def test_select_is_explain_graph_minus_influence_of_the_same_graph(self):
        spans = [
            span("explain.graph", -1, 0, 10_000_000, 7),
            span("gnn.influence", 0, 0, 2_000_000, 7),
            span("explain.explain_graph", 0, 2_000_000, 8_000_000, 7),
        ]
        layers = run.layer_metrics(spans, {})
        self.assertAlmostEqual(layers["explain.select_ms"], 4.0)
        self.assertAlmostEqual(layers["gnn.influence_ms"], 2.0)

    def test_overhead_is_over_the_traced_wall_time(self):
        # Two threads' concurrent 10 ms roots: the wall time is 10 ms.
        spans = [span("net.read", -1, 0, 10_000_000),
                 span("net.read", -1, 0, 10_000_000)]
        layers = run.layer_metrics(spans, {"trace.span_ns": 1000.0})
        self.assertAlmostEqual(layers["trace.overhead_pct"], 0.02)

    def test_gated_figures_are_scaled_by_the_median_reference(self):
        # Median reference half of REFERENCE_MS: the host ran at double
        # speed, so times double and rates halve; memory stays.
        rep = {"samples": {"reference_ms": [run.REFERENCE_MS / 2] * 2 +
                           [run.REFERENCE_MS * 3]}}
        measured = {name: 10.0 for name, _ in run.END_TO_END}
        gated = run.gated(measured, rep)
        self.assertAlmostEqual(gated["primary_p50_ms"], 20.0)
        self.assertAlmostEqual(gated["setup_s"], 20.0)
        self.assertAlmostEqual(gated["rate_per_s"], 5.0)
        self.assertAlmostEqual(gated["peak_rss_mb"], 10.0)

    def test_benchmark_json_lists_exactly_the_metrics_run_py_prints(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


class Failures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench, cls.netserve = run.build()

    def setUp(self):
        self.tmp = os.path.join(run.TMP_DIR, "test-%d" % os.getpid())
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run_workload(self, workload, corrupt):
        tmp = os.path.join(self.tmp, "corrupt-%d" % corrupt)
        os.makedirs(tmp)
        rep, _, _, _ = run.run_workload(self.bench, self.netserve, workload,
                                        1, 1.0, False, tmp, corrupt)
        return rep

    def test_explain_counts_one_corrupted_expectation(self):
        clean = self.run_workload("explain_mut", 0)
        self.assertGreater(clean["attempted"], 10)
        self.assertEqual(clean["failed"], 0)
        bad = self.run_workload("explain_mut", 5)
        self.assertEqual(bad["failed"], 1)

    def test_serve_counts_one_corrupted_expectation(self):
        clean = self.run_workload("serve_mixed", 0)
        self.assertGreater(clean["attempted"], 10)
        self.assertEqual(clean["failed"], 0)
        bad = self.run_workload("serve_mixed", 3)
        self.assertEqual(bad["failed"], 1)


if __name__ == "__main__":
    unittest.main()
