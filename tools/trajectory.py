"""Measure one point of the bench trajectory and write it as BENCH_<pr>.json.

Run from anywhere, with the repository's own sources on the path of every
process it starts:

    python tools/trajectory.py --pr 26            # writes BENCH_26.json at the root
    python tools/trajectory.py --pr 26 --out x.json
    python tools/trajectory.py --pr 27 --against BENCH_26.json

With `--against`, the new file is then compared with an earlier one, row by
row (see `compare`).

The header names the commit (and whether tracked files differ from it), the
machine, the CPU, the core count and the Python, numpy and scipy versions.
Every row holds `k` runs (3 for the gate and `verify.quick`, 5 for a
layer): `best_s` and `median_s`, their range `spread_s`, `minflt`, the
median of the runs' minor page faults (ru_minflt deltas), and
`peak_rss_mb`, the highest peak RSS of the processes that ran it.

End-to-end rows:
- `gate.C01`..`gate.C12`: `CriterionResult.seconds` from `acceptance.run_all`
  at the default seed with one worker, in process, one fresh process per
  run. A criterion's faults are counted over its own check; its peak RSS is
  the process's high-water mark when the check ends.
- `verify.quick`: `python -m twosatlab verify --quick`, launched.
- `tier1`: the Tier-1 pytest command, launched once; the header keeps its
  summary line and, as `tier1_slowest`, the `--durations=10` lines that
  pyproject has pytest print.

Layer rows run each call in a fresh process, at the gate's sizes and seeds:
one warm call, then `gc.collect()` before each timed call. `cli.cold_start`
is `python -m twosatlab construct-tree 2/5`, launched 7 times; read its
`median_s`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 20240801  # the gate's default seed
K = 3  # runs of the gate and of `verify --quick`; a layer row takes K + 2
HEADER = ("pr", "commit", "dirty", "date", "machine", "cpu", "nproc", "python", "numpy",
          "scipy", "tier1_summary", "tier1_slowest")
ROW_FIELDS = ("name", "kind", "k", "best_s", "median_s", "spread_s", "minflt", "peak_rss_mb")
GATE = tuple(f"gate.C{n:02d}" for n in range(1, 13))
LAYERS = (  # each times one call at the gate's sizes (see `_layer_call`)
    "layer.generate_formula", "layer.is_satisfiable", "layer.exact_marginals",
    "layer.extinct_marginal_samples", "layer.detect_atoms", "layer.survival_theta_population",
    "layer.apply_ll", "layer.fixpoint", "layer.coupled_increment_stats",
    "layer.construct_rational_tree",
)
ROWS = (*GATE, "verify.quick", "tier1", *LAYERS, "cli.cold_start")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
DURATION = re.compile(r"\d+\.\d+s (setup|call|teardown) +\S")  # a --durations line
LAYOUT_FAULTS = 3000  # a minflt row moves by about this much with heap layout alone


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def _layer_call(name: str):
    """The zero-argument call that layer row `name` times, its inputs built."""
    import numpy as np

    from twosatlab import analysis, densityev, formula, gwsim, treebp

    if name == "layer.generate_formula":  # C10's first formula
        return lambda: formula.generate_formula(5000, 0.8, SEED * 1000)
    if name == "layer.is_satisfiable":  # C11's first formula at d = 2.2
        f = formula.generate_formula(10_000, 2.2, SEED * 500)
        return lambda: formula.is_satisfiable(f)
    if name == "layer.exact_marginals":
        f = formula.generate_formula(5000, 0.8, SEED * 1000)
        return lambda: formula.exact_marginals(f)
    if name == "layer.extinct_marginal_samples":
        return lambda: gwsim.extinct_marginal_samples(0.8, 20_000, SEED * 10 + 60, workers=1)
    if name == "layer.detect_atoms":
        fracs = [q for q in gwsim.extinct_marginal_samples(0.8, 20_000, SEED * 10 + 60,
                                                           workers=1) if q is not None]
        return lambda: analysis.detect_atoms(fracs)
    if name == "layer.survival_theta_population":  # C07's population
        return lambda: gwsim.survival_theta_population(1.5, 30, 100_000, SEED + 70)
    if name == "layer.apply_ll":
        zeros = densityev.Population(samples=np.zeros(100_000), kind=densityev.Kind.THETA)
        p = densityev.apply_ll(zeros, 1.5, SEED + 50)
        return lambda: densityev.apply_ll(p, 1.5, SEED + 51)
    if name == "layer.fixpoint":  # C05's LL run
        return lambda: densityev.fixpoint(1.5, 100_000, max_iter=60, tol=1e-3, seed=SEED + 50)
    if name == "layer.coupled_increment_stats":  # C04's d = 1.9 leg
        return lambda: gwsim.coupled_increment_stats(1.9, 6, 100_000, SEED * 100 + 43,
                                                     workers=1)
    if name == "layer.construct_rational_tree":
        return lambda: treebp.construct_rational_tree(250, 501)
    raise ValueError(f"no layer row {name!r}")


def _child_layer(name: str, k: int) -> dict:
    call = _layer_call(name)
    call()  # warm: imports, memo tables and the allocator's free lists
    times, faults = [], []
    for _ in range(k):
        gc.collect()
        before, start = _usage().ru_minflt, time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
        faults.append(_usage().ru_minflt - before)
    return {"times": times, "minflt": faults, "rss": [_usage().ru_maxrss / 1024] * k}


def _child_gate() -> dict:
    from twosatlab import acceptance

    faults, rss = [], []

    def measured(check):
        def run(ctx):
            before = _usage().ru_minflt
            try:
                return check(ctx)
            finally:
                after = _usage()
                faults.append(after.ru_minflt - before)
                rss.append(after.ru_maxrss / 1024)
        return run

    acceptance.CRITERIA = [(name, measured(check)) for name, check in acceptance.CRITERIA]
    results = acceptance.run_all(workers=1, base_seed=SEED)
    assert len(results) == len(GATE), "a criterion was added: extend GATE"
    return {"times": [r.seconds for r in results], "minflt": faults, "rss": rss}


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), path])))


def _launch(args: list[str], out=subprocess.DEVNULL) -> tuple[float, int, float]:
    """(wall seconds, minor faults, peak RSS MB) of one Python child run to its end."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(), stdout=out,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_minflt, usage.ru_maxrss / 1024


def _child(args: list[str]) -> dict:
    """The JSON that `trajectory.py --child ...` prints, from a fresh process."""
    out = subprocess.run([sys.executable, __file__, "--child", *args], cwd=ROOT, env=_env(),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _row(name: str, kind: str, times, faults, rss) -> dict:
    return {"name": name, "kind": kind, "k": len(times), "best_s": min(times),
            "median_s": statistics.median(times), "spread_s": [min(times), max(times)],
            "minflt": int(statistics.median(faults)), "peak_rss_mb": round(max(rss), 1)}


def measure(pr: int) -> dict:
    import numpy
    import scipy

    runs = [_child(["gate"]) for _ in range(K)]
    rows = [_row(name, "end_to_end", *([run[key][c] for run in runs]
                                       for key in ("times", "minflt", "rss")))
            for c, name in enumerate(GATE)]
    quick = [_launch(["-m", "twosatlab", "verify", "--quick"]) for _ in range(K)]
    rows.append(_row("verify.quick", "end_to_end", *zip(*quick)))
    with tempfile.TemporaryFile("w+") as log:
        tier1 = [_launch(TIER1, out=log)]
        rows.append(_row("tier1", "end_to_end", *zip(*tier1)))
        log.seek(0)
        *output, summary = log.read().strip().splitlines()
    slowest = [line for line in output if DURATION.match(line)]
    for name in LAYERS:
        got = _child(["layer", name, str(K + 2)])
        rows.append(_row(name, "layer", got["times"], got["minflt"], got["rss"]))
    cold = [_launch(["-m", "twosatlab", "construct-tree", "2/5"]) for _ in range(7)]
    rows.append(_row("cli.cold_start", "layer", *zip(*cold)))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout

    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    cpu = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    header = {"pr": pr, "commit": git("rev-parse", "HEAD").strip(),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
              "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
              "machine": platform.platform(), "cpu": cpu[0] if cpu else platform.processor(),
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "tier1_summary": summary, "tier1_slowest": slowest}
    assert [row["name"] for row in rows] == list(ROWS)
    return {**header, "rows": rows}


def _seconds(spread) -> str:
    return "{:.3g}-{:.3g} s".format(*spread)


def compare(prev: dict, bench: dict) -> list[str]:
    """Lines comparing `bench` with the earlier file `prev`: one per row for
    time, then one per row for minor faults.

    A row is faster or slower only when its `spread_s` range and the earlier
    one do not overlap, else unchanged. The `minflt` line gives the ratio of
    the medians, and marks the row layout-sensitive when the count moved by
    less than LAYOUT_FAULTS, moved otherwise.
    """
    before = {row["name"]: row for row in prev["rows"]}
    pairs = [(before[row["name"]], row) for row in bench["rows"] if row["name"] in before]
    width = max(len(row["name"]) for row in bench["rows"])
    lines = [f"{name:<{width}}  only in one file" for name in
             sorted(set(before) ^ {row["name"] for row in bench["rows"]})]
    for old, new in pairs:
        (lo, hi), (new_lo, new_hi) = old["spread_s"], new["spread_s"]
        verdict = "faster" if new_hi < lo else "slower" if new_lo > hi else "unchanged"
        lines.append(f"{new['name']:<{width}}  {verdict:<9}  "
                     f"{_seconds(old['spread_s'])} -> {_seconds(new['spread_s'])}")
    for old, new in pairs:
        a, b = old["minflt"], new["minflt"]
        note = "layout-sensitive" if abs(b - a) < LAYOUT_FAULTS else "moved"
        ratio = f"x{b / a:.2f}" if a else "x-"
        lines.append(f"{new['name']:<{width}}  minflt {ratio}  {a:,} -> {b:,}  {note}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--pr", type=int, help="the PR number the file is named after")
    ap.add_argument("--out", type=Path, help="output path (default BENCH_<pr>.json at the root)")
    ap.add_argument("--against", type=Path,
                    help="an earlier BENCH file to compare the new one with")
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        kind, *rest = args.child
        got = _child_gate() if kind == "gate" else _child_layer(rest[0], int(rest[1]))
        print(json.dumps(got))
        return 0
    if args.pr is None:
        ap.error("need --pr")
    bench = measure(args.pr)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}: {len(bench['rows'])} rows, tier-1 {bench['tier1_summary']}")
    if args.against:
        print("\n".join(compare(json.loads(args.against.read_text()), bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
