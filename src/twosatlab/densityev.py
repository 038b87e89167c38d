"""Population dynamics for the distributional recursion of 2-SAT marginals.

Two coupled coordinate systems: THETA populations approximate laws of
log-likelihood ratios on the real line, MU populations approximate laws of
marginal probabilities on (0,1). One generation of the recursion is

    theta' = sum_{i=1}^{D} s_i * log((1 + s_i' tanh(theta_i/2)) / 2),  D ~ Po(d)

with independent uniform signs s, s' and theta_i resampled from the input
population; the MU-coordinate twin draws two Poisson(d/2) packs of factors.
Iterating from the point mass at zero drives the population to the unique
fixed point, monitored in the exact Wasserstein-2 metric between equal-size
empirical measures (root-mean-square of sorted-sample differences).
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field, replace
from typing import IO

import numpy as np

from .numerics import log_clause_term, phi, psi
from .util import format_double, substream


class Kind(enum.Enum):
    THETA = "THETA"
    MU = "MU"


@dataclass(frozen=True)
class Population:
    """Equal-weight empirical measure given by a finite sample multiset."""

    samples: np.ndarray
    kind: Kind
    d: float | None = None
    generation: int = 0
    seed: int | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("population needs a non-empty 1-d sample list")
        # closed interval: finite-formula marginals may be forced to 0 or 1;
        # the recursion operators themselves stay strictly interior
        if self.kind is Kind.MU and not np.all((s >= 0.0) & (s <= 1.0)):
            raise ValueError("MU samples must lie in [0,1]")
        if self.kind is Kind.THETA and not np.all(np.isfinite(s)):
            raise ValueError("THETA samples must be finite")
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    @property
    def size(self) -> int:
        return self.samples.size

    def mass_at(self, value: float) -> float:
        return float(np.mean(self.samples == value))


def zeros_population(size: int, d: float | None = None, seed: int | None = None) -> Population:
    return Population(samples=np.zeros(size), kind=Kind.THETA, d=d, seed=seed)


def point_population(value: float, size: int, kind: Kind, d: float | None = None) -> Population:
    return Population(samples=np.full(size, float(value)), kind=kind, d=d)


def resample_log_terms(rng, values: np.ndarray, counts: np.ndarray):
    """Per output k, sum of counts[k] signed clause terms over resampled values."""
    total = int(counts.sum())
    idx = rng.integers(0, values.size, size=total)
    s = 2 * rng.integers(0, 2, size=total) - 1
    sp = 2 * rng.integers(0, 2, size=total) - 1
    terms = s * log_clause_term(values[idx], sp)
    owner = np.repeat(np.arange(counts.size), counts)
    return np.bincount(owner, weights=terms, minlength=counts.size)


def apply_ll(p: Population, d: float, seed: int) -> Population:
    """One generation of the log-likelihood-ratio recursion."""
    if p.kind is not Kind.THETA:
        raise ValueError("apply_ll needs a THETA population")
    rng = substream(seed, 0x11)
    counts = rng.poisson(d, size=p.size)
    out = resample_log_terms(rng, p.samples, counts)
    return Population(samples=out, kind=Kind.THETA, d=d,
                      generation=p.generation + 1, seed=seed)


def apply_ll_coupled(pa: Population, pb: Population, d: float, seed: int):
    """Apply one generation to both inputs with shared operator randomness.

    Inputs are paired by sorted order (the optimal coupling of equal-size
    empirical measures); D, signs and resampling indices are shared: each
    side resamples with its own copy of the generator taken after D is drawn.
    """
    if pa.size != pb.size:
        raise ValueError("coupled inputs must have equal size")
    rng = substream(seed, 0x12)
    counts = rng.poisson(d, size=pa.size)
    return tuple(
        Population(
            samples=resample_log_terms(copy.deepcopy(rng), np.sort(p.samples), counts),
            kind=Kind.THETA, d=d, generation=p.generation + 1, seed=seed,
        )
        for p in (pa, pb)
    )


def apply_de(p: Population, d: float, seed: int) -> Population:
    """One generation of the marginal-coordinate recursion (all in log space)."""
    if p.kind is not Kind.MU:
        raise ValueError("apply_de needs a MU population")
    if np.any(p.samples <= 0.0) or np.any(p.samples >= 1.0):
        raise ValueError("apply_de needs samples strictly inside (0,1)")
    rng = substream(seed, 0x0D)
    logs = np.log(p.samples)

    def pack(counts):
        total = int(counts.sum())
        idx = rng.integers(0, p.size, size=total)
        owner = np.repeat(np.arange(p.size), counts)
        return np.bincount(owner, weights=logs[idx], minlength=p.size)

    log_minus = pack(rng.poisson(d / 2.0, size=p.size))
    log_plus = pack(rng.poisson(d / 2.0, size=p.size))
    out = psi(log_minus - log_plus)
    return Population(samples=out, kind=Kind.MU, d=d,
                      generation=p.generation + 1, seed=seed)


def psi_push(p: Population) -> Population:
    if p.kind is not Kind.THETA:
        raise ValueError("psi_push needs a THETA population")
    return replace(p, samples=psi(p.samples), kind=Kind.MU)


def phi_push(p: Population) -> Population:
    if p.kind is not Kind.MU:
        raise ValueError("phi_push needs a MU population")
    if np.any(p.samples <= 0.0) or np.any(p.samples >= 1.0):
        raise ValueError("log-odds are infinite at 0 and 1")
    return replace(p, samples=phi(p.samples), kind=Kind.THETA)


def wasserstein2(a: Population, b: Population) -> float:
    """Exact W2 between two equal-size empirical measures on the line."""
    if a.kind is not b.kind:
        raise ValueError("kind mismatch")
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    diff = np.sort(a.samples) - np.sort(b.samples)
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass
class FixpointResult:
    population: Population
    trace: list[tuple[int, float, float]] = field(default_factory=list)
    converged: bool = False
    noise_floor: float = 0.0
    iterations: int = 0

    def trace_rows(self):
        return [
            {"iter": it, "w2_step": w2, "mass_at_half": mass}
            for it, w2, mass in self.trace
        ]


def fixpoint(
    d: float,
    size: int,
    max_iter: int = 60,
    tol: float = 1e-3,
    seed: int = 0,
    operator: str = "ll",
) -> FixpointResult:
    """Iterate one-generation updates to a fixed point of the recursion.

    operator="ll" starts from the zero THETA population; operator="de"
    starts from the point mass at 1/2 in MU coordinates. The stopping rule
    compares the consecutive-step W2 against tol plus a noise floor
    estimated from two independent regenerations of the same population,
    because the step size never falls below the Monte Carlo floor.
    """
    if not 0 < d < 2:
        raise ValueError(f"need d in (0,2), got {d}")
    if operator == "ll":
        cur = zeros_population(size, d=d, seed=seed)
        step = apply_ll
        mass_ref = 0.0
    elif operator == "de":
        cur = point_population(0.5, size, Kind.MU, d=d)
        step = apply_de
        mass_ref = 0.5
    else:
        raise ValueError(f"unknown operator {operator!r}")

    result = FixpointResult(population=cur)
    for it in range(1, max_iter + 1):
        nxt = step(cur, d, seed=_mix(seed, it, 0))
        again = step(cur, d, seed=_mix(seed, it, 1))
        floor = wasserstein2(nxt, again)
        w2 = wasserstein2(cur, nxt)
        result.trace.append((it, w2, nxt.mass_at(mass_ref)))
        result.noise_floor = floor
        result.iterations = it
        cur = nxt
        if w2 <= tol + floor:
            result.converged = True
            break
    result.population = cur
    return result


def _mix(seed: int, *path: int) -> int:
    h = np.random.SeedSequence([int(seed), *map(int, path)])
    return int(h.generate_state(1, dtype=np.uint64)[0] >> 1)


# -- population text files ----------------------------------------------------


def write_population(p: Population, fh: IO[str]) -> None:
    d = "nan" if p.d is None else repr(float(p.d))  # shortest exact form
    seed = 0 if p.seed is None else p.seed
    fh.write(f"# pop v1 kind={p.kind.value} d={d} gen={p.generation} seed={seed}\n")
    for x in p.samples:
        fh.write(format_double(x) + "\n")


def read_population(fh: IO[str]) -> Population:
    header = fh.readline().strip()
    if not header.startswith("# pop v1 "):
        raise ValueError("not a population file")
    meta = dict(tok.split("=", 1) for tok in header[len("# pop v1 "):].split())
    samples = np.array([float(line) for line in fh if line.strip()])
    d = float(meta.get("d", "nan"))
    if meta.get("kind") not in Kind.__members__:
        raise ValueError(f"unknown population kind {meta.get('kind')!r}")
    return Population(
        samples=samples,
        kind=Kind[meta["kind"]],
        d=None if np.isnan(d) else d,
        generation=int(meta.get("gen", 0)),
        seed=int(meta.get("seed", 0)),
    )
