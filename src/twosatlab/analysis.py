"""Verdicts about sample populations: atoms, mixture structure, support.

Exact-rational sample lists get exact atom masses (counts per value);
real-valued samples are clustered within a window and cluster centers are
snapped to small-denominator fractions by Stern-Brocot search. The mixture
decomposition splits the limiting law into the extinction-conditioned
discrete part (weight eta) and the survival-conditioned continuous part
(weight 1-eta).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .densityev import Kind, Population
from .gwsim import (
    extinct_marginal_samples,
    extinction_probability,
    survival_theta_population,
)
from .numerics import psi
from .util import substream


def snap_to_fraction(x: float, max_den: int) -> Fraction:
    """Closest fraction to x with denominator <= max_den (mediant search)."""
    if x <= 0 or x >= 1:
        return Fraction(0) if x <= 0 else Fraction(1)
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 1, 1
    best = Fraction(0) if x < 0.5 else Fraction(1)
    while True:
        med_n, med_d = lo_n + hi_n, lo_d + hi_d
        if med_d > max_den:
            break
        med = Fraction(med_n, med_d)
        if abs(x - med) < abs(x - best):
            best = med
        if x * med_d > med_n:
            lo_n, lo_d = med_n, med_d
        elif x * med_d < med_n:
            hi_n, hi_d = med_n, med_d
        else:
            return med
    return best


def max_cluster_mass(samples: np.ndarray, window: float) -> float:
    """Largest fraction of samples inside any half-open window of given width."""
    s = np.sort(np.asarray(samples, dtype=float))
    hi = np.searchsorted(s, s + window, side="right")
    return float((hi - np.arange(s.size)).max() / s.size)


@dataclass(frozen=True)
class Atom:
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
        for a in self.atoms:
            if a.value == value:
                return a.mass
        return 0.0

    def count_at(self, value: Fraction) -> int:
        for a in self.atoms:
            if a.value == value:
                return a.count
        return 0

    def as_dict(self):
        return {
            "atoms": [a.as_dict() for a in self.atoms],
            "residual_mass": self.residual_mass,
            "total_samples": self.total_samples,
            "window": self.window,
            "max_den": self.max_den,
            "min_count": self.min_count,
            "exact": self.exact,
        }


def detect_atoms(
    samples, window: float = 1e-9, max_den: int = 1024, min_count: int = 1
) -> AtomReport:
    """Atom estimates for a sample population.

    Exact-rational inputs (a sequence of Fractions) are tallied per value,
    no windowing. Real inputs are sorted, split into clusters at gaps wider
    than `window`, and each cluster center is snapped to the nearest
    fraction with denominator <= max_den; clusters that are too small or
    do not snap within the window land in residual_mass.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if max_den < 2:
        raise ValueError("max_den must be >= 2")
    if isinstance(samples, Population):
        if samples.kind is not Kind.MU:
            raise ValueError("detect_atoms expects MU samples")
        values = samples.samples
        exact = False
    elif len(samples) and isinstance(samples[0], Fraction):
        values = samples
        exact = True
    else:
        values = np.asarray(samples, dtype=float)
        exact = False

    n = len(values)
    if n == 0:
        raise ValueError("empty sample list")

    found: dict[Fraction, tuple[int, float]] = {}
    residual = 0
    if exact:
        counts: dict[Fraction, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        for v, c in counts.items():
            if c >= min_count:
                prev = found.get(v, (0, 0.0))
                found[v] = (prev[0] + c, 0.0)
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
    atoms.sort(key=lambda a: (-a.count, a.value))
    return AtomReport(
        atoms=atoms,
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
        return {
            "d": self.d,
            "eta": self.eta,
            "depth": self.depth,
            "discrete_atoms": self.discrete_atoms.as_dict(),
            "continuous_summary": self.continuous_summary,
            "boundary_hits": self.boundary_hits,
            "oversize_discarded": self.oversize_discarded,
        }


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
    info = extinction_probability(d)
    raw = extinct_marginal_samples(
        d, n_discrete, seed=int(substream(seed, 0x90).integers(0, 2**62)),
        workers=workers, node_cap=1_000_000,
    )
    fracs = [q for q in raw if q is not None]
    oversize = len(raw) - len(fracs)
    discrete = detect_atoms(fracs, window=window, max_den=max_den, min_count=min_count)
    boundary = sum(1 for q in fracs if q <= 0 or q >= 1)

    continuous = None
    if d > 1.0:
        theta = survival_theta_population(
            d, L, n_continuous, seed=int(substream(seed, 0x91).integers(0, 2**62))
        )
        mu = psi(theta)
        theta_deep = survival_theta_population(
            d, L + 2, n_continuous, seed=int(substream(seed, 0x92).integers(0, 2**62))
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
    """Count nonempty equal-width bins over [0,1] (MU) or the sample range (THETA)."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if p.kind is Kind.MU:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = float(p.samples.min()), float(p.samples.max())
        if lo == hi:
            return {"nonempty": 1, "total": bins}
    hist, _ = np.histogram(p.samples, bins=bins, range=(lo, hi))
    return {"nonempty": int(np.count_nonzero(hist)), "total": int(bins)}
