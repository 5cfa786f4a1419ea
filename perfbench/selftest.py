#!/usr/bin/env python3
"""Quick self-test of the benchmark harness; runs no solve.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on synthetic nested spans, that every
metric name is well formed and matches BENCHMARK.json, that the host-speed
samples are taken out of a solve's time and scale the rest, and that the
correctness checker rejects a doctored report.
"""

import itertools
import json
import math
import re
import signal
import time
import unittest
from pathlib import Path

import checks
import probe
import run
import spans

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def synthetic_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]; a
    # second root d [11, 12] lies outside the first
    return [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 1, 2.0, 3.0],
        ["c", 0, 5.0, 9.0],
        ["d", -1, 11.0, 12.0],
    ]


def passing_report(workload: checks.Workload, timestamp: str) -> str:
    report = {
        "schema": 1,
        "timestamp": timestamp,
        "stages": {
            "eig": {"status": "ok", "lambda1": workload.lambda1},
            "solve": {"status": "ok", "level": workload.level},
            "verify": {"status": "ok", "passed": True, "level": workload.level},
        },
    }
    return json.dumps(report, indent=2) + "\n"


class SpanArithmetic(unittest.TestCase):
    def test_self_times_of_nested_spans(self):
        stats = spans.aggregate(synthetic_spans())
        self.assertEqual(stats["root"], [1, 10.0, 3.0])
        self.assertEqual(stats["a"], [1, 3.0, 2.0])
        self.assertEqual(stats["b"], [1, 1.0, 1.0])
        self.assertEqual(stats["c"], [1, 4.0, 4.0])
        self.assertEqual(spans.self_time_gap(synthetic_spans(), root="root"), 0.0)

    def test_calls_within_counts_descendants_only(self):
        self.assertEqual(spans.calls_within(synthetic_spans(), "a", "b"), 1)
        self.assertEqual(spans.calls_within(synthetic_spans(), "root", "d"), 0)

    def test_wrapper_links_parents_and_keeps_results(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
        self.assertEqual(outer(1), 4)
        self.assertEqual([(s[0], s[1]) for s in tracer.spans], [("outer", -1), ("inner", 0), ("inner", 0)])
        self.assertEqual(tracer.last, {"inner": 2, "outer": 4})
        self.assertLess(spans.self_time_gap(tracer.spans, root="outer"), 1e-12)


class HostSpeed(unittest.TestCase):
    def test_sample_time_is_taken_out_and_the_rest_scaled(self):
        # 10 s wall (1 s of it in two 0.5 s samples) and 8 s CPU (0.5 s in
        # samples of 0.2 and 0.3 s), against a nominal 0.25 s sample
        wall, cpu = probe.scaled(10.0, 8.0, [(0.5, 0.2), (0.5, 0.3)], nominal_s=0.25)
        self.assertAlmostEqual(wall, 9.0 * 0.25 / 0.5, places=12)
        self.assertAlmostEqual(cpu, 7.5 * 0.25 / 0.25, places=12)
        with self.assertRaises(ValueError):
            probe.scaled(1.0, 1.0, [])

    def test_time_next_to_samples_is_scaled(self):
        self.assertAlmostEqual(probe.at_reference_speed(0.6, [0.02, 0.04], nominal_s=0.015), 0.3, places=12)
        with self.assertRaises(ValueError):
            probe.at_reference_speed(1.0, [])

    def test_sampler_samples_while_active_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with probe.Sampler(interval_s=0.01, sample_fn=lambda: (0.0, 0.0)) as sampler:
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
        taken = len(sampler.samples)
        time.sleep(0.05)
        self.assertGreaterEqual(taken, 3)
        self.assertEqual(len(sampler.samples), taken)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)


class SolveSeeds(unittest.TestCase):
    def test_seeds_start_at_the_run_seed_come_in_pairs_and_repeat(self):
        first = list(itertools.islice(run.solve_seeds(7), 8))
        self.assertEqual(first, list(itertools.islice(run.solve_seeds(7), 8)))
        self.assertEqual(first[:2], [7, 7])
        self.assertEqual(first[0::2], first[1::2])
        self.assertEqual(len(set(first)), 4)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self):
        bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
        declared = {
            "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
        }
        self.assertEqual(declared["end_to_end"], run.END_TO_END)
        self.assertEqual(declared["per_layer"], spans.PER_LAYER)
        for name in [*run.END_TO_END, *spans.PER_LAYER, *(w["name"] for w in bench["workloads"])]:
            self.assertTrue(NAME.fullmatch(name), name)
        for w in bench["workloads"]:
            self.assertIn(w["name"], checks.WORKLOADS)


class Checker(unittest.TestCase):
    workload = checks.WORKLOADS["dirichlet-1d-p2"]

    def test_accepts_a_passing_report_and_a_new_timestamp(self):
        first = passing_report(self.workload, "2026-01-01T00:00:00+00:00")
        again = passing_report(self.workload, "2026-01-02T00:00:00+00:00")
        self.assertEqual(checks.check_solve(self.workload, 0, first, None), [])
        self.assertEqual(checks.check_solve(self.workload, 0, again, first), [])

    def test_rejects_a_level_off_by_1e_3(self):
        report = json.loads(passing_report(self.workload, "t"))
        for stage in ("solve", "verify"):
            report["stages"][stage]["level"] += 1e-3
        problems = checks.check_solve(self.workload, 0, json.dumps(report, indent=2), None)
        self.assertEqual(len(problems), 2)
        self.assertTrue(all("level" in p for p in problems))

    def test_rejects_a_report_that_changes_between_repeats(self):
        first = passing_report(self.workload, "t")
        report = json.loads(first)
        report["stages"]["eig"]["lambda1"] *= 1 + 1e-12
        problems = checks.check_solve(self.workload, 0, json.dumps(report, indent=2) + "\n", first)
        self.assertEqual(problems, ["report.json differs from the first report at this seed beyond its timestamp"])

    def test_rejects_a_failed_exit_and_a_missing_report(self):
        self.assertEqual(len(checks.check_solve(self.workload, 4, passing_report(self.workload, "t"), None)), 1)
        self.assertIn("report.json is missing or malformed", checks.check_solve(self.workload, 0, "", None))

    def test_pi_p_reduces_to_pi_at_p_2(self):
        self.assertAlmostEqual(checks.pi_p(2.0), math.pi, places=14)


if __name__ == "__main__":
    unittest.main()
