"""Acceptance suite: every gate criterion with its pinned tolerance.

Each criterion is a named check returning (passed, detail); `run_all`
executes them in order, numbers them by position, and shares heavy
artifacts (sample pools) between criteria through a context; each result's
`line()` is its one pass/fail line.
Quick mode shrinks Monte Carlo sample counts but keeps every tolerance.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .analysis import compare_distributions, detect_atoms, max_cluster_mass, support_coverage
from .densityev import Kind, Population, fixpoint, psi, psi_push
from .formula import (_component_counts, count_solutions, empirical_marginal_measure,
                      generate_formula, is_satisfiable)
from .gwsim import (
    coupled_increment_stats,
    extinct_marginal_samples,
    extinction_probability,
    survival_theta_population,
)
from .treebp import (
    CLAUSE_TYPES,
    TreeFormula,
    construct_rational_tree,
    join,
    negate,
    root_marginal,
    to_formula,
)
from .util import ResourceLimitError, substream

FULL_SIZES = {
    "oracle_trees": 500,
    "identity_trees": 200,
    "increment_samples": 100_000,
    "fixpoint_size": 100_000,
    "extinct_samples": 100_000,
    "continuous_samples": 100_000,
    "continuous_depth": 30,
    "formula_seeds": 20,
    "formula_n": 5000,
    "threshold_seeds": 50,
    "threshold_n": 10_000,
}

QUICK_SIZES = {
    "oracle_trees": 80,
    "identity_trees": 60,
    "increment_samples": 30_000,
    "fixpoint_size": 30_000,
    "extinct_samples": 30_000,
    "continuous_samples": 30_000,
    "continuous_depth": 30,
    "formula_seeds": 6,
    "formula_n": 3000,
    "threshold_seeds": 12,
    "threshold_n": 10_000,
}

INCREMENT_DENSITIES = (0.5, 1.0, 1.5, 1.9)
RATIO_SLACK = 0.05
FIXPOINT_W1_TOL = 0.02
ATOM_HALF_TOL = 0.01
ATOM_THIRD_TOL = 0.005
CLUSTER_WINDOW = 1e-6
CLUSTER_MASS_TOL = 0.01
ETA_RANGE = (0.41, 0.425)
SUPPORT_BINS = 20
FORMULA_W1_TOL = 0.03
FORMULA_SUCCESS_FRACTION = 0.95
THRESHOLD_SAT_LO = 0.9
THRESHOLD_SAT_HI = 0.1


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float = field(default=0.0, repr=False, compare=False)  # set by run_all

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] C{self.number:02d} {self.name}: {self.detail}"


@dataclass
class Context:
    sizes: dict
    seed: int
    workers: int | None
    boundary_violations: list[str] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    def watch_fractions(self, label: str, values) -> None:
        for q in values:
            if not 0 < q.numerator < q.denominator:
                self.boundary_violations.append(f"{label}: {q}")
                return

    def watch_floats(self, label: str, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.size and (arr.min() <= 0.0 or arr.max() >= 1.0):
            self.boundary_violations.append(
                f"{label}: range [{arr.min()}, {arr.max()}]"
            )


def random_tree(rng, max_nodes: int) -> TreeFormula:
    """Uniform-attachment random tree with uniform clause types."""
    n = int(rng.integers(1, max_nodes + 1))
    parents = [int(rng.integers(0, k)) for k in range(1, n)]
    types = [CLAUSE_TYPES[int(t)] for t in rng.integers(0, 4, size=max(n - 1, 1))]
    children: list[list] = [[] for _ in range(n)]
    built: list[TreeFormula | None] = [None] * n
    for k in range(n - 1, 0, -1):
        built[k] = TreeFormula(children=tuple(children[k]))
        children[parents[k - 1]].append((types[k - 1], built[k]))
    return TreeFormula(children=tuple(children[0]))


def bp_oracle(ctx: Context) -> tuple[bool, str]:
    rng = substream(ctx.seed, 1)
    n_trees = ctx.sizes["oracle_trees"]
    enum_checked = 0
    for _ in range(n_trees):
        t = random_tree(rng, 40)
        q = root_marginal(t)
        f = to_formula(t)
        # the whole tree through the elimination kernel, not the pair BP
        z, plus = _component_counts(f.clauses.tolist(), dict.fromkeys(range(1, f.n + 1), (1, 1)))
        if z == 0 or Fraction(plus[1], z) != q:
            return False, f"mismatch on a {f.n}-variable tree"
        if f.n <= 16:
            stats = count_solutions(f)
            enum_checked += 1
            if q != Fraction(stats.true_counts[0], stats.count):
                return False, "enumeration disagrees"
        ctx.watch_fractions("bp oracle marginal", [q])
    return True, f"{n_trees} trees exact (elimination), {enum_checked} re-checked by enumeration"


def rational_realization(ctx: Context) -> tuple[bool, str]:
    count = 0
    for b in range(2, 13):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            count += 1
            q = root_marginal(construct_rational_tree(a, b))
            if q != Fraction(a, b):
                return False, f"{a}/{b} gave {q}"
            ctx.watch_fractions("constructed marginal", [q])
    return True, f"all {count} reduced fractions with den <= 12 exact"


def identities(ctx: Context) -> tuple[bool, str]:
    rng = substream(ctx.seed, 3)
    n = ctx.sizes["identity_trees"]
    for _ in range(n):
        t1 = random_tree(rng, 25)
        t2 = random_tree(rng, 25)
        p, q = root_marginal(t1), root_marginal(t2)
        if root_marginal(negate(t1)) != 1 - p:
            return False, "negation identity broken"
        if root_marginal(join(t1, t2)) != p / (p + q):
            return False, "join identity broken"
    return True, f"{n} random tree pairs exact"


def coupled_contraction(ctx: Context) -> tuple[bool, str]:
    n = ctx.sizes["increment_samples"]
    worst = []
    for k, d in enumerate(INCREMENT_DENSITIES):
        stats = coupled_increment_stats(d, 6, n, seed=ctx.seed * 100 + 40 + k,
                                        workers=ctx.workers)
        means = [v for _, v in stats]
        ratios = [means[l] / means[l - 1] for l in range(1, 7)]
        bound = d / 2 + RATIO_SLACK
        worst.append((d, max(ratios)))
        if any(r > bound for r in ratios):
            return False, f"d={d}: max ratio {max(ratios):.4f} > {bound:.3f}"
    return True, ", ".join(f"d={d}: {r:.3f} <= {d/2 + RATIO_SLACK:.3f}" for d, r in worst)


def fixpoint_consistency(ctx: Context) -> tuple[bool, str]:
    size = ctx.sizes["fixpoint_size"]
    res_ll = fixpoint(1.5, size, max_iter=60, tol=1e-3, seed=ctx.seed + 50)
    res_de = fixpoint(1.5, size, max_iter=60, tol=1e-3, seed=ctx.seed + 51,
                      operator="de")
    mu_ll = psi_push(res_ll.population)
    ctx.watch_floats("LL fixpoint psi-push", mu_ll.samples)
    ctx.watch_floats("DE fixpoint", res_de.population.samples)
    w1 = compare_distributions(mu_ll, res_de.population)["w1"]
    ok = w1 <= FIXPOINT_W1_TOL and res_ll.converged and res_de.converged
    return ok, f"W1(psi(LL fix), DE fix) = {w1:.4f} <= {FIXPOINT_W1_TOL}"


def atom_lower_bounds(ctx: Context) -> tuple[bool, str]:
    n = ctx.sizes["extinct_samples"]
    details = []
    for k, d in enumerate((0.8, 1.5)):
        eta = extinction_probability(d).eta
        fracs = [q for q in extinct_marginal_samples(d, n, seed=ctx.seed * 10 + 60 + k,
                                                     workers=ctx.workers)
                 if q is not None]
        ctx.watch_fractions(f"extinct marginals d={d}", fracs)
        if d == 0.8:
            ctx.artifacts["extinct_fracs_08"] = fracs
        report = detect_atoms(fracs)
        half = report.mass_at(Fraction(1, 2)) * eta
        third = report.mass_at(Fraction(1, 3)) * eta
        two_thirds = report.mass_at(Fraction(2, 3)) * eta
        b_half = math.exp(-d) - ATOM_HALF_TOL
        b_third = (d / 4) * math.exp(-2 * d) - ATOM_THIRD_TOL
        if half < b_half or third < b_third or two_thirds < b_third:
            return False, (f"d={d}: eta*mass(1/2)={half:.4f} (need {b_half:.4f}), "
                           f"eta*mass(1/3)={third:.4f}, eta*mass(2/3)={two_thirds:.4f} "
                           f"(need {b_third:.4f})")
        details.append(f"d={d}: {half:.3f}>={b_half:.3f}, "
                       f"{third:.4f}/{two_thirds:.4f}>={b_third:.4f}")
    return True, "; ".join(details)


def continuous_no_atoms(ctx: Context) -> tuple[bool, str]:
    n = ctx.sizes["continuous_samples"]
    depth = ctx.sizes["continuous_depth"]
    theta = survival_theta_population(1.5, depth, n, seed=ctx.seed + 70)
    mu = psi(theta)
    ctx.watch_floats("survival-conditioned marginals", mu)
    ctx.artifacts["continuous_mu"] = mu
    mass = max_cluster_mass(mu, CLUSTER_WINDOW)
    return mass <= CLUSTER_MASS_TOL, (f"max cluster mass {mass:.2e} <= {CLUSTER_MASS_TOL} "
                                      f"at window {CLUSTER_WINDOW:g}, depth {depth}")


def full_support(ctx: Context) -> tuple[bool, str]:
    mu = ctx.artifacts["continuous_mu"]
    nonempty = support_coverage(Population(samples=mu, kind=Kind.MU), SUPPORT_BINS)["nonempty"]
    eta = extinction_probability(1.5).eta
    ok = nonempty == SUPPORT_BINS and ETA_RANGE[0] <= eta <= ETA_RANGE[1]
    return ok, f"{nonempty}/{SUPPORT_BINS} bins nonempty; eta(1.5)={eta:.5f} in {ETA_RANGE}"


def boundary_exclusion(ctx: Context) -> tuple[bool, str]:
    if ctx.boundary_violations:
        return False, "; ".join(ctx.boundary_violations[:3])
    return True, "no marginal hit 0 or 1 across all runs"


def weak_convergence(ctx: Context) -> tuple[bool, str]:
    fracs = ctx.artifacts["extinct_fracs_08"]
    gw_pop = Population(samples=np.array([float(q) for q in fracs]), kind=Kind.MU,
                        d=0.8)
    seeds = ctx.sizes["formula_seeds"]
    n = ctx.sizes["formula_n"]
    successes = 0
    w1s = []
    for s in range(seeds):
        f = generate_formula(n, 0.8, seed=ctx.seed * 1000 + s)
        try:
            pop = empirical_marginal_measure(f, d=0.8)
        except ResourceLimitError:
            continue
        if pop is None:
            continue
        successes += 1
        w1s.append(compare_distributions(pop, gw_pop)["w1"])
    ok = (successes >= FORMULA_SUCCESS_FRACTION * seeds
          and all(w <= FORMULA_W1_TOL for w in w1s))
    if not w1s:
        return ok, "no seed succeeded"
    return ok, (f"{successes}/{seeds} seeds computed exactly; "
                f"max W1 = {max(w1s):.4f} <= {FORMULA_W1_TOL}")


def sat_threshold(ctx: Context) -> tuple[bool, str]:
    seeds = ctx.sizes["threshold_seeds"]
    n = ctx.sizes["threshold_n"]
    frac = {}
    for d in (1.8, 2.2):
        sat = sum(
            is_satisfiable(generate_formula(n, d, seed=ctx.seed * 500 + s))
            for s in range(seeds)
        )
        frac[d] = sat / seeds
    ok = frac[1.8] >= THRESHOLD_SAT_LO and frac[2.2] <= THRESHOLD_SAT_HI
    return ok, (f"sat fraction {frac[1.8]:.2f} at d=1.8 (>= {THRESHOLD_SAT_LO}), "
                f"{frac[2.2]:.2f} at d=2.2 (<= {THRESHOLD_SAT_HI}), n={n}")


def _run_main(argv: list[str], workdir: str) -> tuple[int, bytes, str]:
    """Run `twosatlab <argv>` in-process in `workdir`; the cwd and streams are restored."""
    from .cli import main  # lazy: the benchmark imports this module, not the CLI

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash fails the check with its traceback, as a launch did
        err.write(traceback.format_exc())
        code = 1
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode(), err.getvalue()


def determinism(ctx: Context) -> tuple[bool, str]:
    commands = [
        ["gen", "--n", "60", "--d", "1.0", "--seed", "7", "--out", "f.txt"],
        ["marginals", "--in", "f.txt", "--out", "marg.json"],
        ["count", "--in", "small.txt"],
        ["construct-tree", "3/7"],
        ["tree-bp", "--tree", "(v [-+](v))"],
        ["gw-sample", "--d", "1.2", "--depth", "3", "--n", "200", "--seed", "3",
         "--conditioned", "none", "--out", "gw1.txt"],
        ["gw-sample", "--d", "1.5", "--depth", "2", "--n", "200", "--seed", "3",
         "--conditioned", "extinct", "--out", "gw2.txt"],
        ["gw-sample", "--d", "1.5", "--depth", "20", "--n", "500", "--seed", "3",
         "--conditioned", "survive", "--method", "population", "--out", "gw3.txt"],
        # 2500 trees are two chunks, so 8 workers start a process pool
        ["gw-sample", "--d", "1.5", "--n", "2500", "--seed", "3",
         "--conditioned", "extinct", "--out", "gw4.txt"],
        ["density-evolution", "--d", "1.2", "--size", "2000", "--iters", "8",
         "--tol", "1e-3", "--seed", "9", "--out", "theta.pop", "--emit-trace",
         "trace.csv"],
        ["density-evolution", "--d", "1.2", "--size", "2000", "--iters", "8",
         "--tol", "1e-3", "--seed", "9", "--operator", "de", "--out", "mu.pop"],
        ["atoms", "--in", "mu.pop", "--min-count", "5"],
        ["mixture", "--d", "1.5", "--n-discrete", "1500", "--n-continuous", "1500",
         "--depth", "10", "--seed", "4", "--out", "mix.json", "--hist", "hist.csv"],
        ["compare", "--a", "theta.pop", "--b", "theta.pop"],
    ]
    outputs = {1: [], 8: []}
    for workers, run in outputs.items():
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "small.txt").write_text("p 2sat 3 2\n1 2\n-1 3\n")
            for argv in commands:
                code, stdout, stderr = _run_main([*argv, "--workers", str(workers)], tmp)
                if code != 0:
                    lines = stderr.strip().splitlines()
                    return False, (f"twosatlab {' '.join(argv)} --workers {workers} exited "
                                   f"{code}: {lines[-1] if lines else '(no stderr)'}")
                files = {p.name: p.read_bytes() for p in Path(tmp).iterdir() if p.is_file()}
                run.append((stdout, files))
    for cmd, first, second in zip(commands, *outputs.values()):
        if first != second:  # stdout or some file
            return False, f"output of {' '.join(cmd[:2])} differs between 1 and 8 workers"
    return True, f"{len(commands)} subcommands byte-identical across 1 and 8 workers"


# (name, check) in gate order; a check returns (passed, detail), and its
# number is its position
CRITERIA = [
    ("exact BP oracle", bp_oracle),
    ("rational realization", rational_realization),
    ("negation and join identities", identities),
    ("coupled contraction", coupled_contraction),
    ("fixed-point consistency", fixpoint_consistency),
    ("atom lower bounds", atom_lower_bounds),
    ("continuous part has no atoms", continuous_no_atoms),
    ("full support of the continuous part", full_support),
    ("boundary exclusion", boundary_exclusion),
    ("finite-formula weak convergence", weak_convergence),
    ("satisfiability threshold", sat_threshold),
    ("worker-count determinism", determinism),
]


def run_all(quick: bool = False, workers: int | None = None,
            base_seed: int = 20240801) -> list[CriterionResult]:
    # in order: criterion 9 aggregates the marginals that 1..8 pass to
    # ctx.watch_*, and 10..12 pass none
    ctx = Context(sizes=QUICK_SIZES if quick else FULL_SIZES, seed=base_seed,
                  workers=workers)
    ordered = []
    for number, (name, check) in enumerate(CRITERIA, 1):
        start = time.perf_counter()
        passed, detail = check(ctx)
        ordered.append(CriterionResult(number, name, passed, detail,
                                       time.perf_counter() - start))
    return ordered
