#!/usr/bin/env python3
"""Self-test of the benchmark runner, at its --tiny sizes.

    python3 benchmarks/selftest/run_selftest.py

1. Every workload, traced and untraced, prints every metric BENCHMARK.json
   names, with its unit; the summary names fail_frac and the workload's
   throughput metric.
2. A corrupted library output trips the check that guards it, and the
   command exits 1.
3. A forced ResourceLimitError is counted as a failed operation.
4. A group of steps whose replayed passes run far faster than its first (a cache
   across calls) fails the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import unittest
from fractions import Fraction
from unittest import mock

import numpy as np

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_tiny(workload: str, trace: int = 0) -> tuple[int, list[str]]:
    """In-process run at tiny sizes: (exit code, stdout lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace), "--tiny"])
    return code, out.getvalue().splitlines()


def wrap(target, fn):
    """Patch module attribute `target` with fn(original, *args, **kwargs)."""
    module, name = target
    original = getattr(module, name)
    return mock.patch.object(module, name, lambda *a, **k: fn(original, *a, **k))


class EveryMetricIsPrinted(unittest.TestCase):
    def test_command_prints_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = subprocess.run(
                        [*SPEC["command"], "--workload", workload["name"], "--seed", "3",
                         "--seconds", "1", "--trace", str(trace), "--tiny"],
                        cwd=ROOT, capture_output=True, text=True, timeout=600,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    summary = "\n".join(lines[:-1])
                    self.assertIn("fail_frac", summary)
                    if trace == 0:
                        self.assertIn(bench.THROUGHPUT_ALIAS[workload["name"]], summary)


def flip_tree_marginal(original, f, *args, **kwargs):
    marg = original(f, *args, **kwargs)
    if f.n <= bench.TREE_MAX_NODES and marg is not None:
        marg[1] = 1 - marg[1] if marg[1] != Fraction(1, 2) else Fraction(1, 3)
    return marg


def miscount(original, f, *args, **kwargs):
    stats = original(f, *args, **kwargs)
    stats.true_counts[0] += 1
    return stats


def all_half(original, d, n, *args, **kwargs):
    return [Fraction(1, 2)] * n


def boundary(original, *args, **kwargs):
    out = original(*args, **kwargs)
    out[0] = Fraction(1)
    return out


def one_iteration(original, *args, **kwargs):
    return original(*args, **{**kwargs, "max_iter": 1})


def growing_increments(original, *args, **kwargs):
    return [(l, float(2**l)) for l, _ in original(*args, **kwargs)]


def nudge_sample(original, fh):
    p = original(fh)
    samples = np.array(p.samples)
    samples[0] = np.nextafter(samples[0], np.inf)
    return bench.densityev.Population(samples=samples, kind=p.kind, d=p.d,
                                      generation=p.generation, seed=p.seed)


class CorruptedOutputTripsCheck(unittest.TestCase):
    CASES = [
        ("exact", (bench.formula, "exact_marginals"), flip_tree_marginal, "oracle tree"),
        ("exact", (bench.formula, "count_solutions"), miscount, "enumeration"),
        ("tree_atoms", (bench.gwsim, "extinct_marginal_samples"), all_half, "mass(1/3)"),
        ("tree_atoms", (bench.gwsim, "extinct_marginal_samples"), boundary, "outside (0,1)"),
        ("popdyn", (bench.densityev, "fixpoint"), one_iteration, "did not converge"),
        ("popdyn", (bench.gwsim, "coupled_increment_stats"), growing_increments,
         "contraction ratio"),
        ("popdyn", (bench.densityev, "read_population"), nudge_sample, "round trip"),
    ]

    def test_each_corruption_fails_the_run(self):
        for workload, target, fn, message in self.CASES:
            with self.subTest(workload=workload, corrupt=fn.__name__):
                with wrap(target, fn):
                    code, lines = run_tiny(workload)
                result = json.loads(lines[-1])
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(any("check failed" in ln and message in ln for ln in lines),
                                "\n".join(lines))


class ResourceLimitIsAFailure(unittest.TestCase):
    def test_tiny_component_cap_counts_in_fail_frac(self):
        capped = lambda original, f, *a, **k: original(f, component_cap=2)  # noqa: E731
        with wrap((bench.formula, "exact_marginals"), capped):
            code, lines = run_tiny("exact")
        result = json.loads(lines[-1])
        self.assertEqual(code, 0)  # counted, not a failed correctness check
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        frac = result["failed"] / result["attempted"]
        self.assertTrue(0 < frac <= 1)
        self.assertTrue(any(ln.split()[:2] == ["fail_frac", f"{frac:.6g}"] for ln in lines),
                        "\n".join(lines))


class ReplayGainFailsTheRun(unittest.TestCase):
    def test_cached_step_trips_the_check(self):
        cache = {}

        def cached(run, outs):
            if "x" not in cache:
                time.sleep(0.05)
                cache["x"] = 1
            return cache["x"]

        steps = [("cached", cached)]
        run = bench.Run(tracing=False)
        best, first, passes, _ = bench.measure(run, steps, lambda r, o: 1, 0, passes=3)
        self.assertEqual(passes, 3)
        bench.check_replay(run, steps, best, first)
        self.assertEqual(run.failed, 1)
        self.assertIn("replayed inputs", run.errors[0])


if __name__ == "__main__":
    unittest.main()
