"""Verdicts about sample populations: atoms, mixture structure, support.

Exact-rational sample lists get exact atom masses (counts per value);
real-valued samples are clustered within a window and cluster centers are
snapped to the closest small-denominator fraction. The mixture
decomposition splits the limiting law into the extinction-conditioned
discrete part (weight eta) and the survival-conditioned continuous part
(weight 1-eta).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .densityev import Kind, Population, psi
from .gwsim import (
    extinct_marginal_samples,
    extinction_probability,
    survival_theta_population,
)
from .treebp import pair_fraction
from .util import subseed


def snap_to_fraction(x: float, max_den: int) -> Fraction:
    """Closest fraction to x with denominator <= max_den; 0 or 1 outside (0,1).

    Distances are exact; a tie (x the midpoint of two Farey neighbours, such
    as 1/8 between 0 and 1/4 at max_den 4) goes to the smaller denominator.
    """
    if x <= 0 or x >= 1:
        return Fraction(0) if x <= 0 else Fraction(1)
    return Fraction(x).limit_denominator(max_den)


def max_cluster_mass(samples: np.ndarray, window: float) -> float:
    """Largest fraction of samples inside any half-open window of given width."""
    s = np.sort(np.asarray(samples, dtype=float))
    hi = np.searchsorted(s, s + window, side="right")
    return float((hi - np.arange(s.size)).max() / s.size)


class Atom(NamedTuple):
    """One atom: a tuple, so built with no per-field `__setattr__`."""

    value: Fraction
    mass: float
    width: float
    count: int

    def as_dict(self):
        return {
            "num": str(self.value.numerator),
            "den": str(self.value.denominator),
            "mass": self.mass,
            "width": self.width,
            "count": self.count,
        }


@dataclass(frozen=True)
class AtomReport:
    atoms: list[Atom]
    residual_mass: float
    total_samples: int
    window: float
    max_den: int
    min_count: int
    exact: bool

    def mass_at(self, value: Fraction) -> float:
        return self.count_at(value) / self.total_samples

    def count_at(self, value: Fraction) -> int:
        for a in self.atoms:
            if a.value == value:
                return a.count
        return 0

    def as_dict(self):
        return {**vars(self), "atoms": [a.as_dict() for a in self.atoms]}


def _check_window(window: float, max_den: int) -> None:
    if not 0 < window < math.inf:  # NaN fails too
        raise ValueError(f"window must be positive and finite, got {window}")
    if max_den < 2:
        raise ValueError("max_den must be >= 2")


def detect_atoms(
    samples, window: float = 1e-9, max_den: int = 1024, min_count: int = 1
) -> AtomReport:
    """Atom estimates for a MU Population or a list of Fractions.

    Fractions are tallied per value, no windowing. A population's samples
    are sorted, split into clusters at gaps wider than `window`, and each
    cluster center is snapped to the nearest fraction with denominator <=
    max_den; clusters that are too small or do not snap within the window
    land in residual_mass. Either tally keys an atom by its reduced pair (for
    Fractions, one `as_integer_ratio` call per sample); the tallies are
    sorted as plain rows, so each atom's Fraction and record are built once,
    in final order.
    """
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

    # keyed by reduced (numerator, denominator) pairs, which hash far faster than Fractions
    found: dict[tuple[int, int], tuple[int, float]] = {}
    residual = 0
    if exact:
        for ab, c in Counter(map(Fraction.as_integer_ratio, values)).items():
            if c >= min_count:
                found[ab] = (c, 0.0)
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
                ab = frac.numerator, frac.denominator
                prev = found.get(ab, (0, 0.0))
                found[ab] = (prev[0] + c, max(prev[1], width))
            else:
                residual += c

    # a/b as a float is correctly rounded, hence monotone: Fractions compare only on float
    # ties, and no two keys are equal, so the sort never reaches the width
    rows = sorted((-c, a / b, pair_fraction(a, b), w) for (a, b), (c, w) in found.items())
    return AtomReport(
        atoms=[Atom(q, -neg / n, w, -neg) for neg, _, q, w in rows],
        residual_mass=residual / n,
        total_samples=n,
        window=window,
        max_den=max_den,
        min_count=min_count,
        exact=exact,
    )


@dataclass(frozen=True)
class MixtureReport:
    d: float
    eta: float
    depth: int
    discrete_atoms: AtomReport
    continuous_summary: dict | None
    boundary_hits: int
    oversize_discarded: int = 0

    def as_dict(self):
        return {**vars(self), "discrete_atoms": self.discrete_atoms.as_dict()}


def mixture_decomposition(
    d: float,
    n_discrete: int,
    n_continuous: int,
    L: int,
    seed: int,
    bins: int = 20,
    window: float = 1e-6,
    max_den: int = 64,
    min_count: int = 1,
    workers: int | None = None,
) -> MixtureReport:
    """Split the limiting marginal law into discrete and continuous parts.

    The discrete part comes from exact rational marginals of
    extinction-conditioned trees and carries weight eta; for d > 1 the
    continuous part comes from survival-conditioned samples at truncation
    depth L (weight 1-eta), summarized by a histogram, the largest cluster
    mass, bin coverage, and the depth-L-to-(L+2) drift of the truncation.
    """
    _check_window(window, max_den)  # every flag before the first draw
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    info = extinction_probability(d)
    raw = extinct_marginal_samples(
        d, n_discrete, seed=subseed(seed, 0x90),
        workers=workers, node_cap=1_000_000,
    )
    fracs = [q for q in raw if q is not None]
    oversize = len(raw) - len(fracs)
    discrete = detect_atoms(fracs, window=window, max_den=max_den, min_count=min_count)
    boundary = sum(1 for q in fracs if not 0 < q.numerator < q.denominator)

    continuous = None
    if d > 1.0:
        theta = survival_theta_population(
            d, L, n_continuous, seed=subseed(seed, 0x91)
        )
        mu = psi(theta)
        theta_deep = survival_theta_population(
            d, L + 2, n_continuous, seed=subseed(seed, 0x92)
        )
        mu_deep = psi(theta_deep)
        drift = float(np.mean(np.abs(np.sort(mu) - np.sort(mu_deep))))
        hist, edges = np.histogram(mu, bins=bins, range=(0.0, 1.0))
        boundary += int(np.sum((mu <= 0.0) | (mu >= 1.0)))
        continuous = {
            "samples": int(n_continuous),
            "max_cluster_mass": max_cluster_mass(mu, window),
            "cluster_window": window,
            "support_nonempty_bins": int(np.count_nonzero(hist)),
            "support_total_bins": int(bins),
            "truncation_drift_w1": drift,
            "histogram": [
                {"bin_lo": float(edges[k]), "bin_hi": float(edges[k + 1]),
                 "count": int(hist[k])}
                for k in range(bins)
            ],
        }
    return MixtureReport(
        d=d,
        eta=info.eta,
        depth=L,
        discrete_atoms=discrete,
        continuous_summary=continuous,
        boundary_hits=boundary,
        oversize_discarded=oversize,
    )


def _empirical_quantiles(sorted_samples: np.ndarray, k: int) -> np.ndarray:
    u = (np.arange(k) + 0.5) / k
    idx = np.minimum((u * sorted_samples.size).astype(int), sorted_samples.size - 1)
    return sorted_samples[idx]


def compare_distributions(a: Population, b: Population) -> dict[str, float]:
    """W1 via deterministic quantile alignment, plus the two-sample KS gap."""
    sa = np.sort(a.samples)
    sb = np.sort(b.samples)
    k = max(sa.size, sb.size)
    w1 = float(np.mean(np.abs(_empirical_quantiles(sa, k) - _empirical_quantiles(sb, k))))
    grid = np.concatenate([sa, sb])
    grid.sort()
    cdf_a = np.searchsorted(sa, grid, side="right") / sa.size
    cdf_b = np.searchsorted(sb, grid, side="right") / sb.size
    ks = float(np.max(np.abs(cdf_a - cdf_b)))
    return {"w1": w1, "ks": ks}


def support_coverage(p: Population, bins: int) -> dict[str, int]:
    """Count nonempty equal-width bins of a MU population over [0,1]."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if p.kind is not Kind.MU:
        raise ValueError("support_coverage expects MU samples")
    hist, _ = np.histogram(p.samples, bins=bins, range=(0.0, 1.0))
    return {"nonempty": int(np.count_nonzero(hist)), "total": int(bins)}
