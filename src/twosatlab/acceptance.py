"""Acceptance suite: every gate criterion with its pinned tolerance.

Each criterion is a function returning a CriterionResult; `run_all` executes
them in order, prints one pass/fail line per criterion, and shares heavy
artifacts (sample pools, fixed points) between criteria through a context.
Quick mode shrinks Monte Carlo sample counts but keeps every tolerance.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analysis import compare_distributions, detect_atoms, max_cluster_mass, support_coverage
from .densityev import Kind, Population, fixpoint, psi_push
from .formula import (count_solutions, empirical_marginal_measure, exact_marginals,
                      generate_formula, is_satisfiable)
from .gwsim import (
    coupled_increment_stats,
    extinct_marginal_samples,
    extinction_probability,
    survival_theta_population,
)
from .numerics import psi
from .treebp import (
    CLAUSE_TYPES,
    TreeFormula,
    construct_rational_tree,
    join,
    negate,
    root_marginal,
    to_formula,
)
from .util import ResourceLimitError, child_env, substream

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
            if q <= 0 or q >= 1:
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


def criterion_01_bp_oracle(ctx: Context) -> CriterionResult:
    rng = substream(ctx.seed, 1)
    n_trees = ctx.sizes["oracle_trees"]
    enum_checked = 0
    for _ in range(n_trees):
        t = random_tree(rng, 40)
        q = root_marginal(t)
        f = to_formula(t)
        marg = exact_marginals(f)
        if marg is None or marg[1] != q:
            return CriterionResult(1, "exact BP oracle", False,
                                   f"mismatch on a {f.n}-variable tree")
        if f.n <= 16:
            stats = count_solutions(f)
            enum_checked += 1
            if q != Fraction(stats.true_counts[0], stats.count):
                return CriterionResult(1, "exact BP oracle", False,
                                       "enumeration disagrees")
        ctx.watch_fractions("bp oracle marginal", [q])
    return CriterionResult(
        1, "exact BP oracle", True,
        f"{n_trees} trees exact (elimination), {enum_checked} re-checked by enumeration",
    )


def criterion_02_rational_realization(ctx: Context) -> CriterionResult:
    count = 0
    for b in range(2, 13):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            count += 1
            q = root_marginal(construct_rational_tree(a, b))
            if q != Fraction(a, b):
                return CriterionResult(2, "rational realization", False,
                                       f"{a}/{b} gave {q}")
            ctx.watch_fractions("constructed marginal", [q])
    return CriterionResult(2, "rational realization", True,
                           f"all {count} reduced fractions with den <= 12 exact")


def criterion_03_identities(ctx: Context) -> CriterionResult:
    rng = substream(ctx.seed, 3)
    n = ctx.sizes["identity_trees"]
    for _ in range(n):
        t1 = random_tree(rng, 25)
        t2 = random_tree(rng, 25)
        p, q = root_marginal(t1), root_marginal(t2)
        if root_marginal(negate(t1)) != 1 - p:
            return CriterionResult(3, "negation and join identities", False,
                                   "negation identity broken")
        if root_marginal(join(t1, t2)) != p / (p + q):
            return CriterionResult(3, "negation and join identities", False,
                                   "join identity broken")
    return CriterionResult(3, "negation and join identities", True,
                           f"{n} random tree pairs exact")


def criterion_04_coupled_contraction(ctx: Context) -> CriterionResult:
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
            return CriterionResult(
                4, "coupled contraction", False,
                f"d={d}: max ratio {max(ratios):.4f} > {bound:.3f}",
            )
    detail = ", ".join(f"d={d}: {r:.3f} <= {d/2 + RATIO_SLACK:.3f}" for d, r in worst)
    return CriterionResult(4, "coupled contraction", True, detail)


def criterion_05_fixpoint_consistency(ctx: Context) -> CriterionResult:
    size = ctx.sizes["fixpoint_size"]
    res_ll = fixpoint(1.5, size, max_iter=60, tol=1e-3, seed=ctx.seed + 50)
    res_de = fixpoint(1.5, size, max_iter=60, tol=1e-3, seed=ctx.seed + 51,
                      operator="de")
    mu_ll = psi_push(res_ll.population)
    ctx.watch_floats("LL fixpoint psi-push", mu_ll.samples)
    ctx.watch_floats("DE fixpoint", res_de.population.samples)
    ctx.artifacts["fixpoint_mu"] = mu_ll
    w1 = compare_distributions(mu_ll, res_de.population)["w1"]
    ok = w1 <= FIXPOINT_W1_TOL and res_ll.converged and res_de.converged
    return CriterionResult(
        5, "fixed-point consistency", ok,
        f"W1(psi(LL fix), DE fix) = {w1:.4f} <= {FIXPOINT_W1_TOL}",
    )


def criterion_06_atom_lower_bounds(ctx: Context) -> CriterionResult:
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
            return CriterionResult(
                6, "atom lower bounds", False,
                f"d={d}: eta*mass(1/2)={half:.4f} (need {b_half:.4f}), "
                f"eta*mass(1/3)={third:.4f}, eta*mass(2/3)={two_thirds:.4f} "
                f"(need {b_third:.4f})",
            )
        details.append(f"d={d}: {half:.3f}>={b_half:.3f}, "
                       f"{third:.4f}/{two_thirds:.4f}>={b_third:.4f}")
    return CriterionResult(6, "atom lower bounds", True, "; ".join(details))


def criterion_07_continuous_no_atoms(ctx: Context) -> CriterionResult:
    n = ctx.sizes["continuous_samples"]
    depth = ctx.sizes["continuous_depth"]
    theta = survival_theta_population(1.5, depth, n, seed=ctx.seed + 70)
    mu = psi(theta)
    ctx.watch_floats("survival-conditioned marginals", mu)
    ctx.artifacts["continuous_mu"] = mu
    mass = max_cluster_mass(mu, CLUSTER_WINDOW)
    return CriterionResult(
        7, "continuous part has no atoms", mass <= CLUSTER_MASS_TOL,
        f"max cluster mass {mass:.2e} <= {CLUSTER_MASS_TOL} at window {CLUSTER_WINDOW:g}, depth {depth}",
    )


def criterion_08_full_support(ctx: Context) -> CriterionResult:
    mu = ctx.artifacts["continuous_mu"]
    nonempty = support_coverage(Population(samples=mu, kind=Kind.MU), SUPPORT_BINS)["nonempty"]
    eta = extinction_probability(1.5).eta
    ok = nonempty == SUPPORT_BINS and ETA_RANGE[0] <= eta <= ETA_RANGE[1]
    return CriterionResult(
        8, "full support of the continuous part", ok,
        f"{nonempty}/{SUPPORT_BINS} bins nonempty; eta(1.5)={eta:.5f} in {ETA_RANGE}",
    )


def criterion_09_boundary_exclusion(ctx: Context) -> CriterionResult:
    ok = not ctx.boundary_violations
    detail = ("no marginal hit 0 or 1 across all runs"
              if ok else "; ".join(ctx.boundary_violations[:3]))
    return CriterionResult(9, "boundary exclusion", ok, detail)


def criterion_10_weak_convergence(ctx: Context) -> CriterionResult:
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
    return CriterionResult(
        10, "finite-formula weak convergence", ok,
        f"{successes}/{seeds} seeds computed exactly; "
        f"max W1 = {max(w1s):.4f} <= {FORMULA_W1_TOL}" if w1s else "no seed succeeded",
    )


def criterion_11_sat_threshold(ctx: Context) -> CriterionResult:
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
    return CriterionResult(
        11, "satisfiability threshold", ok,
        f"sat fraction {frac[1.8]:.2f} at d=1.8 (>= {THRESHOLD_SAT_LO}), "
        f"{frac[2.2]:.2f} at d=2.2 (<= {THRESHOLD_SAT_HI}), n={n}",
    )


def _run_cli(argv: list[str], workdir: str, workers: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "twosatlab", *argv, "--workers", str(workers)],
        cwd=workdir, capture_output=True, env=child_env(),
    )


def _read_files(workdir: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


def criterion_12_determinism(ctx: Context) -> CriterionResult:
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
    outputs = []
    for workers in (1, 8):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "small.txt"), "w") as fh:
                fh.write("p 2sat 3 2\n1 2\n-1 3\n")
            run = []
            for argv in commands:
                proc = _run_cli(argv, tmp, workers)
                if proc.returncode != 0:
                    stderr = proc.stderr.decode(errors="replace").strip().splitlines()
                    return CriterionResult(
                        12, "worker-count determinism", False,
                        f"twosatlab {' '.join(argv)} --workers {workers} exited "
                        f"{proc.returncode}: {stderr[-1] if stderr else '(no stderr)'}",
                    )
                run.append((proc.stdout, _read_files(tmp)))
            outputs.append(run)
    for cmd, (out1, files1), (out8, files8) in zip(commands, outputs[0], outputs[1]):
        if out1 != out8 or files1 != files8:
            return CriterionResult(
                12, "worker-count determinism", False,
                f"output of {' '.join(cmd[:2])} differs between 1 and 8 workers",
            )
    return CriterionResult(
        12, "worker-count determinism", True,
        f"{len(commands)} subcommands byte-identical across 1 and 8 workers",
    )


CRITERIA = [
    criterion_01_bp_oracle,
    criterion_02_rational_realization,
    criterion_03_identities,
    criterion_04_coupled_contraction,
    criterion_05_fixpoint_consistency,
    criterion_06_atom_lower_bounds,
    criterion_07_continuous_no_atoms,
    criterion_08_full_support,
    criterion_09_boundary_exclusion,
    criterion_10_weak_convergence,
    criterion_11_sat_threshold,
    criterion_12_determinism,
]


def run_all(quick: bool = False, workers: int | None = None,
            base_seed: int = 20240801, report=print) -> list[CriterionResult]:
    # in order: criterion 9 aggregates the marginals that 1..8 pass to
    # ctx.watch_*, and 10..12 pass none
    ctx = Context(sizes=QUICK_SIZES if quick else FULL_SIZES, seed=base_seed,
                  workers=workers)
    ordered = [criterion(ctx) for criterion in CRITERIA]
    if report is not None:
        for res in ordered:
            report(res.line())
    return ordered
