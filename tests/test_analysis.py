"""Atom detection, snapping, mixture decomposition, support coverage."""

import math
from collections import Counter
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twosatlab import (
    Kind,
    Population,
    compare_distributions,
    detect_atoms,
    extinction_probability,
    max_cluster_mass,
    mixture_decomposition,
    snap_to_fraction,
    support_coverage,
    tree_probability,
    construct_rational_tree,
)
from twosatlab.analysis import Atom, AtomReport, _check_window
from twosatlab.gwsim import extinct_marginal_samples
from twosatlab.util import substream


def test_snap_to_fraction():
    assert snap_to_fraction(1 / 3 + 1e-9, 10) == Fraction(1, 3)
    assert snap_to_fraction(0.5, 64) == Fraction(1, 2)
    assert snap_to_fraction(5 / 7 - 1e-9, 10) == Fraction(5, 7)
    assert snap_to_fraction(0.09, 10) == Fraction(1, 10)
    assert snap_to_fraction(-0.2, 8) == 0 and snap_to_fraction(1.0, 8) == 1


@settings(max_examples=400, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.integers(1, 200))
@example(0.125, 4)  # exact ties between Farey neighbours
@example(0.875, 4)
@example(0.5, 1)
def test_snap_to_fraction_is_the_closest_fraction(x, max_den):
    exact = Fraction(x)
    # floor(x b)/b and the next multiple of 1/b are the closest fractions over b
    candidates = [Fraction(math.floor(exact * b) + k, b)
                  for b in range(1, max_den + 1) for k in (0, 1)]
    best = min(abs(exact - c) for c in candidates)
    q = snap_to_fraction(x, max_den)
    assert q.denominator <= max_den and abs(exact - q) == best
    assert q.denominator == min(c.denominator for c in candidates if abs(exact - c) == best)


def test_detect_atoms_exact_point_mass():
    report = detect_atoms([Fraction(1, 2)] * 1000)
    assert len(report.atoms) == 1
    atom = report.atoms[0]
    assert atom.value == Fraction(1, 2) and atom.mass == 1.0 and atom.count == 1000
    assert report.residual_mass == 0.0 and report.exact


def test_detect_atoms_exact_counts_and_residual():
    samples = [Fraction(1, 2)] * 6 + [Fraction(1, 3)] * 3 + [Fraction(5, 7)]
    report = detect_atoms(samples, min_count=2)
    assert report.count_at(Fraction(1, 2)) == 6
    assert report.count_at(Fraction(1, 3)) == 3
    assert report.count_at(Fraction(5, 7)) == 0
    assert report.residual_mass == pytest.approx(0.1)
    total = sum(a.count for a in report.atoms) + round(
        report.residual_mass * report.total_samples
    )
    assert total == report.total_samples


@given(st.lists(st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)), min_size=1,
                max_size=80),
       st.integers(1, 5))
@example([Fraction(1, 3)] * 2 + [Fraction(2, 4)] * 2 + [Fraction(1, 2), Fraction(3, 5)], 2)
@example([Fraction(2, 3), Fraction(1, 3), Fraction(1, 1), Fraction(0, 5)], 1)
@settings(max_examples=200, deadline=None)
def test_detect_atoms_exact_matches_counter_oracle(samples, min_count):
    # atoms by count descending, ties by value; the rare values go to the residual
    counts = Counter(samples)
    expected = sorted(((v, c) for v, c in counts.items() if c >= min_count),
                      key=lambda vc: (-vc[1], vc[0]))
    report = detect_atoms(samples, min_count=min_count)
    assert report.exact and report.total_samples == len(samples)
    assert [(a.value, a.count) for a in report.atoms] == expected
    assert all(type(a.value) is Fraction and a.mass == a.count / len(samples) and a.width == 0.0
               for a in report.atoms)
    rare = sum(c for c in counts.values() if c < min_count)
    assert report.residual_mass == rare / len(samples)


def test_detect_atoms_float_recovers_planted():
    rng = substream(55, 0)
    window = 1e-6
    atoms = {Fraction(1, 3): 2000, Fraction(2, 7): 1500, Fraction(1, 2): 2500}
    vals = []
    for q, count in atoms.items():
        vals.append(float(q) + rng.uniform(-window / 4, window / 4, count))
    noise = rng.uniform(0.6, 0.99, 150)  # sparse: no cluster reaches min_count
    vals.append(noise)
    pop = Population(samples=np.concatenate(vals), kind=Kind.MU)
    report = detect_atoms(pop, window=window, max_den=16, min_count=500)
    assert {a.value for a in report.atoms} == set(atoms)
    for a in report.atoms:
        assert a.count == atoms[a.value]
    assert report.residual_mass == pytest.approx(150 / pop.size)


def test_detect_atoms_unsnappable_cluster():
    vals = np.full(400, 1.0 / math.sqrt(2.0))
    pop = Population(samples=vals, kind=Kind.MU)
    report = detect_atoms(pop, window=1e-9, max_den=64, min_count=10)
    assert report.atoms == []
    assert report.residual_mass == 1.0


def test_detect_atoms_validates():
    with pytest.raises(ValueError):
        detect_atoms([Fraction(1, 2)], window=0.0)
    with pytest.raises(ValueError):
        detect_atoms([Fraction(1, 2)], max_den=1)
    # a MU Population or a list of Fractions, nothing else
    theta = Population(samples=np.full(10, 0.5), kind=Kind.THETA)
    for bad in (np.full(10, 0.5), [0.5] * 10, [Fraction(1, 2), 0.5], theta):
        with pytest.raises(ValueError, match="a MU Population or a list of Fractions"):
            detect_atoms(bad)


def detect_atoms_oracle(
    samples, window: float = 1e-9, max_den: int = 1024, min_count: int = 1
) -> AtomReport:
    """`detect_atoms` as it was before its tally keyed on reduced pairs, verbatim:
    the exact branch builds a Fraction per atom with `Fraction(a, b)`, and
    `found` is keyed by Fractions in both branches."""
    _check_window(window, max_den)
    if isinstance(samples, Population) and samples.kind is Kind.MU:
        values, exact = samples.samples, False
    elif isinstance(samples, list) and set(map(type, samples)) <= {Fraction}:
        values, exact = samples, True
    else:
        raise ValueError("detect_atoms takes a MU Population or a list of Fractions")

    n = len(values)
    if n == 0:
        raise ValueError("empty sample list")

    found: dict[Fraction, tuple[int, float]] = {}
    residual = 0
    if exact:  # reduced (numerator, denominator) keys hash far faster than Fractions
        for (a, b), c in Counter(map(attrgetter("numerator", "denominator"), values)).items():
            if c >= min_count:
                found[Fraction(a, b)] = (c, 0.0)
            else:
                residual += c
    else:
        s = np.sort(values)
        brk = np.flatnonzero(np.diff(s) > window) + 1
        for cluster in np.split(s, brk):
            c = cluster.size
            center = float(cluster.mean())
            width = float(cluster[-1] - cluster[0])
            frac = snap_to_fraction(center, max_den)
            if c >= min_count and 0 < frac < 1 and abs(center - float(frac)) <= window:
                prev = found.get(frac, (0, 0.0))
                found[frac] = (prev[0] + c, max(prev[1], width))
            else:
                residual += c

    atoms = [
        Atom(value=v, mass=c / n, width=w, count=c) for v, (c, w) in found.items()
    ]
    # a/b as a float is correctly rounded, hence monotone: Fractions compare only on float ties
    atoms.sort(key=lambda a: (-a.count, a.value.numerator / a.value.denominator, a.value))
    return AtomReport(
        atoms=atoms,
        residual_mass=residual / n,
        total_samples=n,
        window=window,
        max_den=max_den,
        min_count=min_count,
        exact=exact,
    )


def _mu_population(seed: int) -> Population:
    """Clusters at small-denominator fractions, two of them more than a 1e-6
    window apart that snap to 1/4 together, one planted off every fraction,
    and a sparse tail."""
    rng = substream(seed, 1)
    centers = [1 / 2, 1 / 3, 2 / 3, 1 / 4 - 8e-7, 1 / 4 + 8e-7, 2 / 7, 5 / 11,
               1 / math.sqrt(2.0)]
    parts = [c + rng.uniform(-2e-7, 2e-7, int(rng.integers(1, 400))) for c in centers]
    return Population(samples=np.concatenate([*parts, rng.uniform(0, 1, 200)]), kind=Kind.MU)


def test_detect_atoms_matches_the_fraction_keyed_oracle():
    # the same report, field by field (dataclass equality), as the
    # Fraction-keyed tally gave: atom order, values, counts, masses, widths
    # and residual
    cases = []
    for d, calls in ((0.8, 40), (1.5, 20)):
        fracs = [q for c in range(calls) for q in extinct_marginal_samples(d, 50, seed=c)
                 if q is not None]
        cases += [(fracs, {}), (fracs, {"min_count": 3})]
    for seed in range(3):
        cases += [(_mu_population(seed), {"window": 1e-6, "max_den": 16, "min_count": 5}),
                  (_mu_population(seed), {"window": 1e-6, "max_den": 64})]
    for samples, kwargs in cases:
        got, want = detect_atoms(samples, **kwargs), detect_atoms_oracle(samples, **kwargs)
        assert got == want and all(type(a.value) is Fraction for a in got.atoms)
        assert len(got.atoms) > 1 and (got.residual_mass > 0 or "min_count" not in kwargs)


def test_max_cluster_mass():
    samples = np.concatenate([np.full(100, 0.25), np.linspace(0.3, 0.9, 900)])
    assert max_cluster_mass(samples, 1e-9) == pytest.approx(0.1)


def test_compare_identical_and_point_masses():
    a = Population(samples=np.full(500, 0.2), kind=Kind.MU)
    b = Population(samples=np.full(500, 0.7), kind=Kind.MU)
    assert compare_distributions(a, a) == {"w1": 0.0, "ks": 0.0}
    out = compare_distributions(a, b)
    assert out["w1"] == pytest.approx(0.5) and out["ks"] == 1.0


def test_compare_quantile_alignment_sizes():
    a = Population(samples=np.array([0.1, 0.9]), kind=Kind.MU)
    b = Population(samples=np.array([0.1, 0.1, 0.9, 0.9]), kind=Kind.MU)
    out = compare_distributions(a, b)
    assert out["w1"] == 0.0 and out["ks"] == 0.0


def test_support_coverage_examples():
    half = Population(samples=np.full(100, 0.5), kind=Kind.MU)
    assert support_coverage(half, 2) == {"nonempty": 1, "total": 2}
    grid = Population(samples=np.arange(1, 100) / 100.0, kind=Kind.MU)
    assert support_coverage(grid, 10) == {"nonempty": 10, "total": 10}
    theta = Population(samples=np.array([-5.0, 0.0, 5.0]), kind=Kind.THETA)
    with pytest.raises(ValueError, match="MU"):
        support_coverage(theta, 2)
    with pytest.raises(ValueError):
        support_coverage(half, 1)


def test_mixture_subcritical():
    rep = mixture_decomposition(0.8, n_discrete=4000, n_continuous=100, L=8, seed=3)
    assert rep.eta == 1.0
    assert rep.continuous_summary is None
    assert rep.boundary_hits == 0
    assert rep.discrete_atoms.exact
    assert rep.discrete_atoms.mass_at(Fraction(1, 2)) >= math.exp(-0.8) - 0.03


def test_mixture_supercritical():
    rep = mixture_decomposition(1.5, n_discrete=4000, n_continuous=20_000, L=20,
                                seed=4, bins=20)
    assert rep.eta == pytest.approx(extinction_probability(1.5).eta, abs=1e-9)
    cs = rep.continuous_summary
    assert cs is not None
    assert cs["support_nonempty_bins"] == 20
    assert sum(row["count"] for row in cs["histogram"]) == 20_000
    assert cs["max_cluster_mass"] <= 0.01
    assert cs["truncation_drift_w1"] < 0.05
    assert rep.boundary_hits == 0
    assert rep.as_dict()["eta"] == rep.eta


def test_atom_masses_dominate_tree_probability():
    # mass(q | extinct) * eta >= P(tree drawn equal to the constructed shape
    # for q), up to 3 Poisson-scale standard errors on the count. Over-cap
    # trees (possible only near d=1) stay in the denominator, which can only
    # bias the estimate downward, the conservative direction for this bound.
    from twosatlab import extinct_marginal_samples

    for d, n in ((0.5, 30_000), (1.0, 8_000), (1.5, 30_000)):
        eta = extinction_probability(d).eta
        raw = extinct_marginal_samples(d, n, seed=91, node_cap=20_000)
        report = detect_atoms([q for q in raw if q is not None])
        for b in range(2, 7):
            for a in range(1, b):
                if math.gcd(a, b) != 1:
                    continue
                q = Fraction(a, b)
                lower = tree_probability(construct_rational_tree(a, b), d)
                count = report.count_at(q)
                slack = 3.0 * eta * math.sqrt(count + 1) / n
                assert count / n * eta + slack >= lower, (d, q)
