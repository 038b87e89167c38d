#!/usr/bin/env python3
"""Run the benchmark on two sets of ten seeds per workload and write a baseline.

    python3 benchmarks/baseline.py [--out PATH]

Each workload in BENCHMARK.json, one after the other, runs untraced on set A
(seeds 1-10) and set B (seeds 101-110), interleaved: seed k of A, then seed k
of B, so a slow drift of the host's speed lands on both sets alike; then it
runs once traced on seed 1. For every end-to-end
metric and set it reports the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median, and
the shift of set B's median against set A's in the metric's worse direction,
next to the metric's bound. It writes these, with the machine description,
the traced run's per-layer metrics and its tracing overhead, to ``--out``
(default benchmarks/baseline.json). Exits 1 if any run fails, or if a spread
(setup_s excepted) or a shift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = {"A": list(range(1, 11)), "B": list(range(101, 111))}


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(os.path.join(BENCH_DIR, "out",
                           f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return result, record


def spread_stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(BENCH_DIR, "baseline.json"))
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    baseline = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {s: {m["name"]: [] for m in spec["end_to_end"]} for s in SEEDS}
        passes = {s: [] for s in SEEDS}
        for k in range(len(SEEDS["A"])):
            for s, seeds in SEEDS.items():
                result, record = run_once(spec, workload, seeds[k], 0)
                for name, vals in values[s].items():
                    vals.append(result["metrics"][name]["value"])
                passes[s].append(record["passes"])
                baseline.setdefault("environment", record["environment"])
                print(f"{workload:<11} set {s} seed {seeds[k]:<4} wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}", flush=True)
        traced, record = run_once(spec, workload, SEEDS["A"][0], 1)
        metrics = {}
        for m in spec["end_to_end"]:
            sets = {s: spread_stats(values[s][m["name"]]) for s in SEEDS}
            ratio = sets["B"]["median"] / sets["A"]["median"]
            shift = ratio - 1 if m["better"] == "lower" else 1 / ratio - 1
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "bound": m["bound"], "shift_B_vs_A": shift, **sets}
            flags = [f"set {s} spread > bound" for s in SEEDS
                     if m["name"] != "setup_s" and sets[s]["spread"] > m["bound"]]
            flags += [f"set {s} spread > bound/3" for s in SEEDS
                      if m["bound"] / 3 < sets[s]["spread"] <= m["bound"]]
            flags += ["shift > bound"] if shift > m["bound"] else []
            ok &= not any(f.endswith("> bound") for f in flags)
            print(f"{workload:<11} {m['name']:<12} median A {sets['A']['median']:<10.6g} "
                  f"B {sets['B']['median']:<10.6g} spread A {sets['A']['spread']:.4f} "
                  f"B {sets['B']['spread']:.4f} shift {shift:+.4f} bound {m['bound']}"
                  + "".join(f"  [{f}]" for f in flags), flush=True)
        baseline["workloads"][workload] = {
            "end_to_end": metrics,
            "passes_per_run": passes,
            "traced_seed": SEEDS["A"][0],
            "tracing_overhead_s": traced["metrics"]["trace.overhead_s"]["value"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "descriptors": record["descriptors"],
        }
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
