#!/usr/bin/env python3
"""Benchmark runner for twosatlab: three workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload exact --seed 1 --seconds 35 --trace 0

A run builds one *job* from ``--seed``: a fixed list of short steps, each
one library call (or a few tiny ones) on inputs this script made. It runs
the whole job again and again (passes) until ``--seconds`` have passed and
keeps, for every step, its fastest pass. On a shared 2-vCPU host the same
code runs up to 1.7x slower while neighbours are busy, in bursts of a few
milliseconds, and how often those bursts come drifts from minute to minute.
A step of 300 ms always runs through some of them, so its fastest pass
follows the drift; a step of 10 ms finds a quiet moment in a few dozen
passes, so the sum of the short steps' fastest passes stays put. Every pass
is checked, outside the timed steps; a failed check makes the command exit
1. Every library call uses ``workers=1``.
Every pass replays the same inputs, so a group of steps (the calls of one
kind) whose fastest passes beat its first by more than ``REPLAY_RATIO`` fails
the run: such a gain comes from a cache across calls, which a user running
the job once never sees.

Workloads (why each exists is in BENCHMARK.json):

  exact         generate_formula + is_satisfiable + exact_marginals on 8
                n=250, d=0.8 formulas (about 37 tree components each, the
                largest of 12-20 variables), 12 random trees of 4..24 nodes
                whose BP root marginal must equal
                exact_marginals(to_formula(tree)), exact_marginals on 4
                n=40, d=1.5 formulas, each with one cyclic giant component
                of 20-23 variables and cycle rank 2-5 (its own span,
                formula.exact_marginals.giant), and on 2 unsatisfiable
                n=120, d=2.5 formulas (the early exit).
  tree_atoms    extinct_marginal_samples of 50 trees, 40 calls at d=0.8
                and 20 at d=1.5, detect_atoms per density, and the atom
                lower-bound shapes construct_rational_tree -> from_tree_formula
                -> tree_probability. The atom-mass checks pool each pass's
                trees with 4000 (d=0.8) and 2000 (d=1.5) reference trees
                drawn once, untimed, at set-up.
  popdyn        fixpoint (operator ll and de) at d=1.5, size 2e4,
                5 x survival_theta_population(1.5, 30, 2500), coupled_increment_stats
                with L=6 at d = 0.5, 1.0, 1.5, 1.9 on 2.5e5, 5e4, 2.5e4, 5e3 trees
                in 4, 2, 4, 8 equal calls, and a population file write/read
                round trip. The contraction-ratio checks pool each density's
                timed calls with as many trees again (3x at d=0.5) from
                untimed reference calls made at set-up.

Satisfiable random formulas are kept only when their component sizes fall in a band
around the ensemble's median (the sizes "sparse_sum_sq", "giant_vars" and
"giant_rank"): the cost of exact_marginals grows with the square of the
component sizes, and the band keeps the work of a job alike across seeds.

``--trace 0`` reports the end-to-end metrics:

  wall_s       the job's wall time, each step at its fastest pass (s)
  work_per_s   work of one job / wall_s (1/s): formula variables with an
               exact marginal on exact (vars_per_s), extinction-conditioned
               trees on tree_atoms (trees_per_s), population samples x
               generations on popdyn (sample_gens_per_s)
  setup_s      median cold start of ``python -m twosatlab construct-tree 2/5``
  peak_rss_mb  peak resident memory of this process after the passes (MB)

``--trace 1`` runs untraced passes for half the time, then as many passes
with a span around every call this script makes into a library module. It
reports per-layer self times and counters per traced pass (checks included),
the CLI cold-start split, and the tracing overhead: traced minus untraced
wall_s.

Each run writes a record (metrics, input descriptors, environment and, when
traced, every span) to ``benchmarks/out/``. ``fail_frac`` (failed / attempted
operations) is printed in the summary and carried by the ``attempted`` and
``failed`` keys of the final JSON line.
"""

from __future__ import annotations

import os
import sys

# BLAS/OpenMP pools are sized when numpy loads: pin them before any import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["TWOSATLAB_WORKERS"] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Import the code under test from this checkout only, whatever the cwd or
# install state.
sys.path.insert(0, SRC)
import twosatlab  # noqa: E402

if os.path.dirname(os.path.abspath(twosatlab.__file__)) != os.path.join(SRC, "twosatlab"):
    raise SystemExit(f"twosatlab imported from {twosatlab.__file__}, not from {SRC}")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from fractions import Fraction  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.sparse import coo_matrix  # noqa: E402
from scipy.sparse.csgraph import connected_components  # noqa: E402

from twosatlab import analysis, densityev, formula, gwsim, treebp  # noqa: E402
from twosatlab.acceptance import (  # noqa: E402
    ATOM_HALF_TOL,
    ATOM_THIRD_TOL,
    CLUSTER_MASS_TOL,
    CLUSTER_WINDOW,
    FIXPOINT_W1_TOL,
    INCREMENT_DENSITIES,
    RATIO_SLACK,
)
from twosatlab.util import ResourceLimitError, substream  # noqa: E402

WORKLOADS = ("exact", "tree_atoms", "popdyn")

# Every timed step is one library call of at most about 20 ms on the object
# paths (exact, tree_atoms) and about 0.1 s on popdyn's numpy paths (the
# docstring says why); a pass is short enough to repeat 20 times or more in
# a 35-s run.
SIZES = {
    "full": {
        "sparse_formulas": 8, "sparse_n": 250, "sparse_sum_sq": (2.8, 3.4),
        "tree_sizes": (4, 8, 12, 16, 20, 24) * 2,
        "giant_formulas": 4, "giant_n": 40, "giant_vars": (20, 23),
        "giant_rank": (2, 5), "unsat_formulas": 2, "enum_n": 18,
        # per ATOM_DENSITIES: timed calls of extinct_trees trees, and the
        # untimed reference trees pooled with them in the mass checks; the
        # 6000 trees at d=0.8 keep the mass(1/2) check 4.2 standard errors
        # inside its tolerance, the 3000 at d=1.5 keep 4.4
        "extinct_calls": (40, 20), "extinct_trees": 50, "reference_trees": (4000, 2000),
        "pop_size": 20_000, "survival_calls": 5, "survival_size": 2_500, "theta_depth": 30,
        # per INCREMENT_DENSITIES, as (timed calls, untimed reference calls
        # pooled with them in the ratio check, trees per call); increments
        # shrink fastest at d=0.5, where 1e5 trees in all leave the ratio
        # check tripping on about 1 seed in 40
        "increment_calls": ((4, 12, 62_500), (2, 2, 25_000), (4, 4, 6_250), (8, 8, 625)),
        "setup_launches": 5,
    },
    # --tiny: the self-test's sizes, large enough for every check to pass
    "tiny": {
        "sparse_formulas": 1, "sparse_n": 400, "sparse_sum_sq": (0.0, math.inf),
        "tree_sizes": (5, 24), "giant_formulas": 2, "giant_n": 50, "giant_vars": (20, 40),
        "giant_rank": (1, 20), "unsat_formulas": 1, "enum_n": 12, "extinct_calls": (2, 2),
        "extinct_trees": 1000, "reference_trees": (2000, 2000), "pop_size": 5000,
        "survival_calls": 1, "survival_size": 5000, "theta_depth": 30,
        "increment_calls": ((1, 1, 100_000), (1, 0, 20_000), (1, 0, 20_000), (1, 0, 20_000)),
        "setup_launches": 1,
    },
}

SPARSE_D = 0.8
GIANT_D = 1.5
UNSAT_D = 2.5  # well above the threshold d=2: most n=120 formulas are UNSAT
TREE_MAX_NODES = 24  # the largest oracle tree of either size set
ATOM_DENSITIES = (0.8, 1.5)
SHAPE_MAX_DEN = 6
POP_D = 1.5
FIXPOINT_MAX_ITER = 60
FIXPOINT_TOL = 1e-3
INCREMENT_DEPTH = 6
REPLAY_RATIO = 8.0  # first pass / fastest pass, per group of steps, above which a
# run fails; host noise alone gives far less, a cached call gains far more
REPLAY_MIN_SHARE = 0.05  # ... among the groups with this share of the first pass

THROUGHPUT_ALIAS = {
    "exact": "vars_per_s",
    "tree_atoms": "trees_per_s", "popdyn": "sample_gens_per_s",
}

END_TO_END = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

SPAN_NAMES = (
    "formula.generate_formula", "formula.is_satisfiable",
    "formula.exact_marginals", "formula.exact_marginals.giant",
    "formula.count_solutions",
    "treebp.root_marginal", "treebp.to_formula", "treebp.construct_rational_tree",
    "gwsim.extinct_marginal_samples", "gwsim.from_tree_formula",
    "gwsim.tree_probability", "gwsim.survival_theta_population",
    "gwsim.coupled_increment_stats",
    "densityev.fixpoint_ll", "densityev.fixpoint_de", "densityev.psi_push",
    "densityev.write_population", "densityev.read_population",
    "analysis.detect_atoms", "analysis.compare_distributions",
    "analysis.max_cluster_mass",
    "pass",  # this script's own glue around the steps
)

# per traced pass; component_vars_max and giant_cycle_rank are the largest
# over the pass's formulas
COUNTERS = {
    "formula.components": "count", "formula.component_vars_max": "count",
    "formula.cyclic_components": "count", "formula.giant_cycle_rank": "count",
    "formula.unsat": "count", "treebp.tree_nodes": "count",
    "gwsim.trees": "count", "gwsim.oversize": "count",
    "densityev.fixpoint_ll.iterations": "count",
    "densityev.fixpoint_de.iterations": "count",
    "densityev.noise_floor": "w2", "densityev.fixpoint_de.noise_floor": "w2",
    "analysis.distinct_atoms": "count",
}

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SPAN_NAMES},
    **COUNTERS,
    "cli.interpreter_s": "s", "cli.import_s": "s",
    "trace.overhead_s": "s", "trace.passes": "count",
}

FAILED = object()  # result of an operation stopped by a ResourceLimitError


def subseed(*path: int) -> int:
    return int(substream(*path).integers(0, 2**62))


class Run:
    """One measured phase: spans, counters, failures."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.histogram: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def attempt(self, name: str, fn, *args, **kwargs):
        """A call whose ResourceLimitError is a counted failure, not a crash."""
        try:
            return self.call(name, fn, *args, **kwargs)
        except ResourceLimitError:
            return FAILED

    def peak(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def operation(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, ok: bool, message: str) -> None:
        self.operation(ok)
        if not ok:
            self.errors.append(message)

    def self_times(self) -> Counter:
        """Span duration minus the part covered by its child spans, per name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return out


# -- inputs ---------------------------------------------------------------------


def formula_shape(f) -> dict:
    """Component structure of a formula's variable graph, from the input alone."""
    i, j = f.clauses[:, 0] - 1, f.clauses[:, 2] - 1
    g = coo_matrix((np.ones(f.m, dtype=np.int8), (i, j)), shape=(f.n, f.n))
    k, labels = connected_components(g, directed=False)
    present = np.zeros(f.n, dtype=bool)
    present[i] = True
    present[j] = True
    nvars = np.bincount(labels[present], minlength=k)
    nclauses = np.bincount(labels[i], minlength=k)
    used = nclauses > 0
    cyclic = used & (nclauses >= nvars)  # a connected graph with E >= V has a cycle
    giant = int(np.argmax(nvars))
    return {
        "components": int(used.sum()),
        "vars_max": int(nvars[giant]),
        "cyclic_components": int(cyclic.sum()),
        "giant_cycle_rank": int(nclauses[giant] - nvars[giant] + 1),
        "sizes": nvars[used],
        "in_cyclic": cyclic[labels] & present,  # per variable, 0-based
    }


def pick_formulas(count: int, n: int, d: float, seed: int, accept, sat: bool = True) -> list[int]:
    """Seeds of the first `count` formulas whose shape passes `accept` and
    whose satisfiability is `sat` (exact_marginals stops early on UNSAT)."""
    seeds = []
    for attempt in range(100_000):
        s = subseed(seed, 0xC0, n, attempt)
        f = formula.generate_formula(n, d, s)
        if accept(formula_shape(f)) and formula.is_satisfiable(f) == sat:
            seeds.append(s)
            if len(seeds) == count:
                return seeds
    raise RuntimeError(f"only {len(seeds)} of {count} formulas passed the band")


def random_tree(rng, n: int):
    """Uniform-attachment tree on n nodes with uniform clause types."""
    parents = rng.integers(0, np.arange(1, n))
    types = rng.integers(0, 4, size=n - 1)
    children: list[list] = [[] for _ in range(n)]
    for k in range(n - 1, 0, -1):
        node = treebp.TreeFormula(children=tuple(children[k]))
        children[parents[k - 1]].append((treebp.CLAUSE_TYPES[types[k - 1]], node))
    return treebp.TreeFormula(children=tuple(children[0]))


# -- checks shared by the workloads -----------------------------------------------


def record_shape(run: Run, shape: dict) -> None:
    run.counts["formula.components"] += shape["components"]
    run.counts["formula.cyclic_components"] += shape["cyclic_components"]
    run.peak("formula.component_vars_max", shape["vars_max"])
    run.peak("formula.giant_cycle_rank", shape["giant_cycle_rank"])
    for size in shape["sizes"]:
        run.histogram[1 << (int(size) - 1).bit_length()] += 1


def check_formula(run: Run, f, sat: bool, marg) -> int:
    """UNSAT agrees with the SCC decision; marginals in [0,1], and in (0,1)
    off cyclic components. Returns the number of variables with a marginal;
    only those formulas count in the shape descriptors."""
    run.counts["formula.unsat"] += not sat
    if marg is FAILED:
        run.operation(False)
        return 0
    run.check((marg is None) == (not sat),
              f"{f}: is_satisfiable={sat} but exact_marginals "
              f"{'found no' if marg is None else 'found'} solutions")
    if marg is None:
        return 0
    shape = formula_shape(f)
    record_shape(run, shape)
    in_cyclic = shape["in_cyclic"]
    bad = [v for v, q in marg.items()
           if not 0 <= q <= 1 or (not in_cyclic[v - 1] and not 0 < q < 1)]
    run.check(not bad, f"{f}: marginal of x{bad[0] if bad else 0} out of range")
    return f.n


def check_open_unit(run: Run, label: str, values) -> None:
    arr = np.asarray(values, dtype=float)
    run.check(arr.size > 0 and 0.0 < arr.min() and arr.max() < 1.0,
              f"{label}: marginal outside (0,1)")


# -- workloads: job(sizes, seed) -> (steps, check) ----------------------------------
#
# A step is a (label, fn) pair; fn(run, outs) makes a few library calls and
# may read the outputs of earlier steps of the same pass from the dict `outs`.
# check(run, outs) verifies one pass, outside the timed steps, and returns
# the pass's work units.


def sparse_part(sizes: dict, seed: int):
    n = sizes["sparse_n"]
    lo, hi = sizes["sparse_sum_sq"]
    seeds = pick_formulas(sizes["sparse_formulas"], n, SPARSE_D, seed,
                          lambda sh: lo <= float((sh["sizes"] ** 2).sum()) / n <= hi)
    rng = substream(seed, 0xC1)
    trees = [random_tree(rng, size) for size in sizes["tree_sizes"]]

    def formula_step(s: int, run: Run, outs):
        f = run.call("formula.generate_formula", formula.generate_formula, n, SPARSE_D, s)
        sat = run.call("formula.is_satisfiable", formula.is_satisfiable, f)
        return f, sat, run.attempt("formula.exact_marginals", formula.exact_marginals, f)

    def tree_step(t, run: Run, outs):
        q = run.call("treebp.root_marginal", treebp.root_marginal, t)
        tf = run.call("treebp.to_formula", treebp.to_formula, t)
        return q, tf, run.attempt("formula.exact_marginals", formula.exact_marginals, tf)

    def check(run: Run, outs) -> int:
        work = 0
        for k in range(len(seeds)):
            work += check_formula(run, *outs[f"formula/{k}"])
        for k in range(len(trees)):
            q, tf, m = outs[f"tree/{k}"]
            run.counts["treebp.tree_nodes"] += tf.n
            if m is FAILED:
                run.operation(False)
                continue
            run.check(m is not None and m[1] == q,
                      f"oracle tree of {tf.n} nodes: BP {q} != elimination "
                      f"{None if m is None else m[1]}")
            check_open_unit(run, "oracle tree marginal", [q])
            work += tf.n
        return work

    steps = [(f"formula/{k}", partial(formula_step, s)) for k, s in enumerate(seeds)]
    steps += [(f"tree/{k}", partial(tree_step, t)) for k, t in enumerate(trees)]
    return steps, check


def giant_part(sizes: dict, seed: int):
    n, (vlo, vhi), (rlo, rhi) = sizes["giant_n"], sizes["giant_vars"], sizes["giant_rank"]
    giants = [formula.generate_formula(n, GIANT_D, s) for s in pick_formulas(
        sizes["giant_formulas"], n, GIANT_D, seed,
        lambda sh: vlo <= sh["vars_max"] <= vhi and rlo <= sh["giant_cycle_rank"] <= rhi)]
    unsat = [formula.generate_formula(n, UNSAT_D, s) for s in pick_formulas(
        sizes["unsat_formulas"], n, UNSAT_D, seed, lambda sh: True, sat=False)]
    if sizes["enum_n"] > formula.ENUM_CAP:
        raise ValueError("the enumeration check needs enum_n <= ENUM_CAP")
    enum_seed = subseed(seed, 0xC2)

    def step(span: str, f, run: Run, outs):
        return run.attempt(span, formula.exact_marginals, f)

    steps = [(f"giant/{k}", partial(step, "formula.exact_marginals.giant", f))
             for k, f in enumerate(giants)]
    steps += [(f"unsat/{k}", partial(step, "formula.exact_marginals", f))
              for k, f in enumerate(unsat)]

    def check(run: Run, outs) -> int:
        work = 0
        for (label, _), f in zip(steps, giants + unsat):
            sat = run.call("formula.is_satisfiable", formula.is_satisfiable, f)
            work += check_formula(run, f, sat, outs[label])
        # elimination against enumeration, on a formula of the same density
        # small enough to count
        g = run.call("formula.generate_formula", formula.generate_formula,
                     sizes["enum_n"], GIANT_D, enum_seed)
        stats = run.call("formula.count_solutions", formula.count_solutions, g)
        m = run.attempt("formula.exact_marginals", formula.exact_marginals, g)
        if m is FAILED:
            run.operation(False)
        else:
            want = None if stats.count == 0 else {
                v: stats.marginal(v) for v in range(1, g.n + 1)}
            run.check(m == want, f"enumeration disagrees with elimination on {g}")
        return work

    return steps, check


def atom_shapes():
    return [Fraction(a, b) for b in range(2, SHAPE_MAX_DEN + 1) for a in range(1, b)
            if math.gcd(a, b) == 1]


def job_tree_atoms(sizes: dict, seed: int):
    calls, n = dict(zip(ATOM_DENSITIES, sizes["extinct_calls"])), sizes["extinct_trees"]
    # more trees than a short pass can time, for the statistical mass checks
    reference = {d: Counter(gwsim.extinct_marginal_samples(d, count, seed=subseed(seed, 0xC7, k),
                                                           workers=1))
                 for k, (d, count) in enumerate(zip(ATOM_DENSITIES, sizes["reference_trees"]))}

    def sample_step(d: float, s: int, run: Run, outs):
        return run.call("gwsim.extinct_marginal_samples", gwsim.extinct_marginal_samples,
                        d, n, seed=s, workers=1)

    def atoms_step(d: float, run: Run, outs):
        fracs = [q for c in range(calls[d]) for q in outs[f"samples{d}/{c}"] if q is not None]
        return run.call("analysis.detect_atoms", analysis.detect_atoms, fracs)

    def shapes_step(d: float, run: Run, outs):
        lower = {}
        for q in atom_shapes():
            t = run.call("treebp.construct_rational_tree", treebp.construct_rational_tree,
                         q.numerator, q.denominator)
            shape = run.call("gwsim.from_tree_formula", gwsim.from_tree_formula, t, d)
            lower[q] = run.call("gwsim.tree_probability", gwsim.tree_probability, shape, d)
        return lower

    def check(run: Run, outs) -> int:
        """Marginals in (0,1), atom counts, and C06 at the pinned tolerances
        per density on this pass's trees pooled with the reference trees."""
        work = 0
        for d in ATOM_DENSITIES:
            raw = [q for c in range(calls[d]) for q in outs[f"samples{d}/{c}"]]
            fracs = [q for q in raw if q is not None]
            for q in raw:
                run.operation(q is not None)  # an oversize tree is a failure
            run.counts["gwsim.trees"] += len(raw)
            run.counts["gwsim.oversize"] += len(raw) - len(fracs)
            check_open_unit(run, f"extinct marginals d={d}", fracs)
            work += len(fracs)
            report = outs[f"atoms{d}"]
            run.counts["analysis.distinct_atoms"] += len(report.atoms)
            tally = Counter(fracs)
            run.check(all(report.count_at(q) == tally[q] for q in atom_shapes()),
                      f"d={d}: detect_atoms miscounts an atom")
            pooled = tally + reference[d]
            total = len(raw) + reference[d].total()
            eta = gwsim.extinction_probability(d).eta
            mass = {q: pooled[q] / total * eta for q in atom_shapes()}
            b_half = math.exp(-d) - ATOM_HALF_TOL
            b_third = (d / 4) * math.exp(-2 * d) - ATOM_THIRD_TOL
            run.check(mass[Fraction(1, 2)] >= b_half,
                      f"d={d}: eta*mass(1/2)={mass[Fraction(1, 2)]:.4f} < {b_half:.4f}")
            for q in (Fraction(1, 3), Fraction(2, 3)):
                run.check(mass[q] >= b_third,
                          f"d={d}: eta*mass({q})={mass[q]:.4f} < {b_third:.4f}")
            # mass(q) dominates P(tree equals the constructed shape), up to
            # three Poisson-scale standard errors on the count
            for q, p in outs[f"shapes{d}"].items():
                slack = 3.0 * eta * math.sqrt(pooled[q] + 1) / total
                run.check(mass[q] + slack >= p,
                          f"d={d}: eta*mass({q})={mass[q]:.5f} < shape probability {p:.5f}")
        return work

    steps = []
    for k, d in enumerate(ATOM_DENSITIES):
        steps += [(f"samples{d}/{c}", partial(sample_step, d, subseed(seed, 0xC3, k, c)))
                  for c in range(calls[d])]
        steps += [(f"atoms{d}", partial(atoms_step, d)), (f"shapes{d}", partial(shapes_step, d))]
    return steps, check


def job_popdyn(sizes: dict, seed: int):
    size, depth = sizes["pop_size"], sizes["theta_depth"]
    survival_calls, survival_size = sizes["survival_calls"], sizes["survival_size"]
    increments = dict(zip(INCREMENT_DENSITIES, sizes["increment_calls"]))
    reference = {d: [[v for _, v in gwsim.coupled_increment_stats(
        d, INCREMENT_DEPTH, n, seed=subseed(seed, 0xC7, k, c), workers=1)] for c in range(refs)]
        for k, (d, (_, refs, n)) in enumerate(increments.items())}
    path = os.path.join(OUT_DIR, f"pop-{os.getpid()}.txt")

    def fixpoint_step(op: str, s: int, run: Run, outs):
        return run.call(f"densityev.fixpoint_{op}", densityev.fixpoint, POP_D, size,
                        max_iter=FIXPOINT_MAX_ITER, tol=FIXPOINT_TOL, seed=s, operator=op)

    def compare_step(run: Run, outs):
        mu = run.call("densityev.psi_push", densityev.psi_push, outs["ll"].population)
        return mu, run.call("analysis.compare_distributions", analysis.compare_distributions,
                            mu, outs["de"].population)["w1"]

    def survival_step(s: int, run: Run, outs):
        return run.call("gwsim.survival_theta_population", gwsim.survival_theta_population,
                        POP_D, depth, survival_size, s)

    def cluster_step(run: Run, outs):
        theta = np.concatenate([outs[f"survival/{c}"] for c in range(survival_calls)])
        mu = run.call("densityev.psi_push", densityev.psi_push,
                      densityev.Population(samples=theta, kind=densityev.Kind.THETA))
        return mu, run.call("analysis.max_cluster_mass", analysis.max_cluster_mass,
                            mu.samples, CLUSTER_WINDOW)

    def increments_step(d: float, n: int, s: int, run: Run, outs):
        return run.call("gwsim.coupled_increment_stats", gwsim.coupled_increment_stats,
                        d, INCREMENT_DEPTH, n, seed=s, workers=1)

    def roundtrip_step(run: Run, outs):
        with open(path, "w") as fh:
            run.call("densityev.write_population", densityev.write_population,
                     outs["ll"].population, fh)
        with open(path) as fh:
            back = run.call("densityev.read_population", densityev.read_population, fh)
        os.remove(path)
        return back

    def check(run: Run, outs) -> int:
        ll, de = outs["ll"], outs["de"]
        for op, res in (("ll", ll), ("de", de)):
            run.counts[f"densityev.fixpoint_{op}.iterations"] += res.iterations
            run.check(res.converged,
                      f"fixpoint {op} did not converge in {FIXPOINT_MAX_ITER} iterations")
        run.counts["densityev.noise_floor"] += ll.noise_floor
        run.counts["densityev.fixpoint_de.noise_floor"] += de.noise_floor
        mu_ll, w1 = outs["compare"]
        run.check(w1 <= FIXPOINT_W1_TOL, f"W1(psi(LL fix), DE fix) = {w1:.4f} > {FIXPOINT_W1_TOL}")
        check_open_unit(run, "LL fixpoint psi-push", mu_ll.samples)
        check_open_unit(run, "DE fixpoint", de.population.samples)
        mu_surv, cluster = outs["cluster"]
        check_open_unit(run, "survival-conditioned marginals", mu_surv.samples)
        run.check(cluster <= CLUSTER_MASS_TOL,
                  f"max cluster mass {cluster:.2e} > {CLUSTER_MASS_TOL}")
        for d, (calls, _, _) in increments.items():
            # equal-sized calls: the mean of their means is the mean over all trees
            means = np.mean([[v for _, v in outs[f"increments{d}/{c}"]] for c in range(calls)]
                            + reference[d], axis=0)
            ratio = max(means[l] / means[l - 1] for l in range(1, len(means)))
            run.check(ratio <= d / 2 + RATIO_SLACK,
                      f"d={d}: contraction ratio {ratio:.4f} > {d / 2 + RATIO_SLACK:.3f}")
        back, src = outs["roundtrip"], ll.population
        run.check(back.samples.tobytes() == src.samples.tobytes()
                  and (back.kind, back.d, back.generation, back.seed)
                  == (src.kind, src.d, src.generation, src.seed),
                  "population file round trip is not exact")
        work = 2 * size * (ll.iterations + de.iterations) + survival_calls * survival_size * depth
        return work + sum(c * n for c, _, n in increments.values()) * (INCREMENT_DEPTH + 1)

    steps = [("ll", partial(fixpoint_step, "ll", subseed(seed, 0xC4, 0))),
             ("de", partial(fixpoint_step, "de", subseed(seed, 0xC4, 1))),
             ("compare", compare_step)]
    steps += [(f"survival/{c}", partial(survival_step, subseed(seed, 0xC5, c)))
              for c in range(survival_calls)]
    steps.append(("cluster", cluster_step))
    steps += [(f"increments{d}/{c}", partial(increments_step, d, n, subseed(seed, 0xC6, k, c)))
              for k, (d, (calls, _, n)) in enumerate(increments.items()) for c in range(calls)]
    steps.append(("roundtrip", roundtrip_step))
    return steps, check


def job_exact(sizes: dict, seed: int):
    sparse_steps, sparse_check = sparse_part(sizes, seed)
    giant_steps, giant_check = giant_part(sizes, seed)

    def check(run: Run, outs) -> int:
        return sparse_check(run, outs) + giant_check(run, outs)

    return sparse_steps + giant_steps, check


JOBS = {
    "exact": job_exact,
    "tree_atoms": job_tree_atoms,
    "popdyn": job_popdyn,
}


# -- measurement -------------------------------------------------------------------


def measure(run: Run, steps, check, seconds: float, passes: int | None = None):
    """Run the job's passes, each checked; keep each step's fastest time.

    Stops after `passes` passes, or else once `seconds` have passed (at least
    one pass). Returns (fastest time per step, first pass's time per step,
    passes, work of one pass).
    """
    best = [math.inf] * len(steps)
    first = []
    start = time.perf_counter()
    done = 0
    work = 0
    while done == 0 or (done < passes if passes else time.perf_counter() - start < seconds):
        outs = {}
        with run.span("pass"):
            for k, (label, fn) in enumerate(steps):
                t0 = time.perf_counter()
                outs[label] = fn(run, outs)
                best[k] = min(best[k], time.perf_counter() - t0)
                if done == 0:
                    first.append(best[k])
        work = check(run, outs)
        done += 1
    return best, first, done, work


def check_replay(run: Run, steps, best, first) -> None:
    """Fail the run when a large group of steps beats its first pass by far.

    Steps are grouped by their label up to the last "/" (the calls of one
    kind), so one short step stalled in the first pass does not trip it.
    """
    groups: dict = {}
    for (label, _), b, f in zip(steps, best, first):
        g = groups.setdefault(label.rsplit("/", 1)[0], [0.0, 0.0])
        g[0] += f
        g[1] += b
    total = sum(first)
    for name, (f, b) in groups.items():
        if f >= REPLAY_MIN_SHARE * total:
            run.check(f <= REPLAY_RATIO * b,
                      f"steps {name}: first pass {f:.4f} s, fastest {b:.4f} s: "
                      f"replayed inputs gain more than {REPLAY_RATIO}x")


def cold_starts(launches: int, bare_too: bool) -> tuple[list[float], list[float]]:
    """Wall times of fresh CLI launches and, if asked, of bare interpreter launches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    cli, bare = [], []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "twosatlab", "construct-tree", "2/5"],
            cwd=OUT_DIR, env=env, capture_output=True, text=True, timeout=120,
        )
        cli.append(time.perf_counter() - t0)
        lines = proc.stdout.splitlines()
        if (proc.returncode != 0 or len(lines) != 2 or lines[1] != "marginal=2/5"
                or treebp.root_marginal(treebp.parse_tree(lines[0])) != Fraction(2, 5)):
            raise RuntimeError(f"construct-tree 2/5 failed: {proc.returncode} "
                               f"{proc.stdout!r} {proc.stderr[-500:]!r}")
        if not bare_too:
            continue
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=OUT_DIR, env=env,
                       check=True, timeout=120)
        bare.append(time.perf_counter() - t0)
    return cli, bare


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the run record."""
    sizes = SIZES["tiny" if tiny else "full"]
    run_id = f"{workload}-seed{seed}-trace{int(trace)}"
    os.makedirs(OUT_DIR, exist_ok=True)
    cli, bare = cold_starts(sizes["setup_launches"], bare_too=trace)
    setup_s = statistics.median(cli)
    steps, check = JOBS[workload](sizes, seed)

    plain = Run(tracing=False)
    best, first, passes, work = measure(plain, steps, check,
                                        seconds / 2 if trace else seconds)
    check_replay(plain, steps, best, first)
    wall_s = sum(best)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases = [plain]
    if trace:
        traced = Run(tracing=True)
        traced_best, _, _, _ = measure(traced, steps, check, 0, passes=passes)
        phases.append(traced)
        selfs = traced.self_times()
        metrics = {f"{name}.self_s": selfs[name] / passes for name in SPAN_NAMES}
        metrics.update({name: traced.maxima.get(name, traced.counts[name] / passes)
                        for name in COUNTERS})
        metrics.update({
            "cli.interpreter_s": statistics.median(bare),
            "cli.import_s": setup_s - statistics.median(bare),
            "trace.overhead_s": sum(traced_best) - wall_s,
            "trace.passes": passes,
        })
        units = PER_LAYER
    else:
        metrics = {"wall_s": wall_s, "work_per_s": work / wall_s, "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END

    last = phases[-1]
    errors = [e for p in phases for e in p.errors]
    return {
        "run_id": run_id,
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "result": {
            "correct": not errors,
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.failed for p in phases),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
        "errors": errors,
        "passes": passes,
        "step_best_s": dict(zip((label for label, _ in steps), best)),
        "step_first_s": dict(zip((label for label, _ in steps), first)),
        "work_per_pass": work,
        "setup_launch_s": cli,
        "interpreter_launch_s": bare,
        "descriptors": {
            "per_pass": {k: v / passes for k, v in sorted(last.counts.items())},
            "max": last.maxima,
            "component_size_histogram": {f"<={k}": v // passes
                                         for k, v in sorted(last.histogram.items())},
        },
        "environment": environment(),
        "spans": [
            {"run": run_id, "name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in last.spans
        ],
    }


def summary_lines(rec: dict) -> list[str]:
    res = rec["result"]
    lines = [f"{rec['run_id']}: {rec['passes']} passes, "
             f"{'correct' if res['correct'] else 'FAILED CHECKS'}"]
    for name, m in res["metrics"].items():
        alias = THROUGHPUT_ALIAS[rec["workload"]] if name == "work_per_s" else name
        lines.append(f"  {alias:<44} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'fail_frac':<44} {res['failed'] / res['attempted']:.6g} ratio "
                 f"({res['failed']} of {res['attempted']} operations)")
    desc = rec["descriptors"]
    lines.append("  inputs per pass: " + ", ".join(
        f"{k}={v:g}" for k, v in desc["per_pass"].items()))
    if desc["max"]:
        lines.append("  largest: " + ", ".join(f"{k}={v}" for k, v in desc["max"].items()))
    if desc["component_size_histogram"]:
        lines.append(f"  component sizes: {desc['component_size_histogram']}")
    lines.extend(f"  check failed: {e}" for e in rec["errors"][:20])
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)

    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    with open(os.path.join(OUT_DIR, f"{rec['run_id']}.json"), "w") as fh:
        json.dump(rec, fh, indent=1)
    for line in summary_lines(rec):
        print(line)
    print(json.dumps(rec["result"]))
    return 0 if rec["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
