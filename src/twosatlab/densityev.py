"""Population dynamics for the distributional recursion of 2-SAT marginals.

Two coupled coordinate systems: THETA populations approximate laws of
log-likelihood ratios on the real line, MU populations approximate laws of
marginal probabilities on (0,1). One generation of the recursion is

    theta' = sum_{i=1}^{D} s_i * log((1 + s_i' tanh(theta_i/2)) / 2),  D ~ Po(d)

with independent uniform signs s, s' and theta_i resampled from the input
population; the MU-coordinate twin takes the difference of two Poisson(d/2)
packs of resampled log-marginals. Every Poisson pack of a population is
Poissonized (`poisson_owners`): one Poisson(lam * size) total of terms,
each given a uniform owner, so the per-output counts are i.i.d.
Poisson(lam) without a per-output draw.
A THETA term is one uniform key into a `clause_table` (value and s'), and
its sign s comes from Poisson splitting (`split_packs`, which also splits
the two MU packs), so no term pays a transcendental or a sign draw; a
zero-truncated pack is exact thinning.
Iterating from the point mass at zero drives the population to the unique
fixed point, monitored in the exact Wasserstein-2 metric between equal-size
empirical measures (root-mean-square of sorted-sample differences).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import IO

import numpy as np

from .util import subseed, substream


def psi(z):
    """Logistic map from log-likelihood ratio to probability in [0,1].

    exp(-z) overflows to inf below z = -709.78, where the result is then 0,
    as scipy.special.expit gives there too.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


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


def poisson_owners(rng, lam: float, size: int) -> np.ndarray:
    """Owner index in [0, size) of each term of `size` i.i.d. Poisson(lam) packs.

    One Poisson(lam * size) total with i.i.d. uniform owners: the per-owner
    counts of a Poisson number of uniform labels are independent Poisson(lam),
    and a pack's terms come in random order, not contiguous.
    """
    return rng.integers(0, size, size=rng.poisson(lam * size))


def zero_truncated_owners(rng, lam: float, size: int) -> np.ndarray:
    """Owners of the terms of `size` i.i.d. zero-truncated Poisson(lam) packs:
    a rate-lam process on [0, 1] given a point has its first at T =
    -log1p(-U (1 - e^-lam)) / lam, then the points after T of a fresh one."""
    first = -np.log1p(-rng.random(size) * -math.expm1(-lam)) / lam
    later = poisson_owners(rng, lam, size)
    return np.concatenate([np.arange(size), later[rng.random(later.size) > first[later]]])


def clause_table(values) -> np.ndarray:
    """Clause terms log((1 + s' tanh(v/2))/2) = -softplus(-s' v) <= 0 over the
    last axis, softplus(x) = max(x, 0) + log1p(exp(-|x|)) with one
    log1p(exp(-|v|)) per value: key k of n values is value k mod n with
    s' = +1 below n, -1 from n."""
    v = np.asarray(values, dtype=float)[..., None, :]
    soft = np.abs(v)  # in place from here: fresh pages cost more than the arithmetic
    np.log1p(np.exp(np.negative(soft, out=soft), out=soft), out=soft)
    out = np.concatenate([v, v], axis=-2)
    np.negative(out[..., :1, :], out=out[..., :1, :])  # x = -s' v
    np.maximum(out, 0.0, out=out)
    out += soft
    return np.negative(out, out=out).reshape(v.shape[:-2] + (-1,))


def split_packs(rng, table: np.ndarray, lam: float, size: int):
    """Slot and entry of each term of `size` Poisson(lam) packs of uniformly
    keyed table entries with uniform signs s: slot k holds output k's s = +1
    terms, slot size + k its s = -1 terms, two independent Poisson(lam/2)
    packs (Poisson splitting)."""
    m = rng.poisson(lam * size)
    # keys before slots: the key array is freed before the slot array exists
    entry = table.take(rng.integers(0, table.size, size=m))
    return rng.integers(0, 2 * size, size=m), entry


def resample_log_terms(slot: np.ndarray, entry: np.ndarray, size: int) -> np.ndarray:
    """Per output k < size, the entries of slot k minus those of slot size + k."""
    sums = np.bincount(slot, weights=entry, minlength=2 * size)
    return sums[:size] - sums[size:]


def apply_ll(p: Population, d: float, seed: int) -> Population:
    """One generation of the log-likelihood-ratio recursion."""
    if p.kind is not Kind.THETA:
        raise ValueError("apply_ll needs a THETA population")
    terms = split_packs(substream(seed, 0x11), clause_table(p.samples), d, p.size)
    return Population(samples=resample_log_terms(*terms, p.size), kind=Kind.THETA, d=d,
                      generation=p.generation + 1, seed=seed)


def apply_de(p: Population, d: float, seed: int) -> Population:
    """One generation of the marginal-coordinate recursion (all in log space)."""
    if p.kind is not Kind.MU:
        raise ValueError("apply_de needs a MU population")
    if np.any(p.samples <= 0.0) or np.any(p.samples >= 1.0):
        raise ValueError("apply_de needs samples strictly inside (0,1)")
    terms = split_packs(substream(seed, 0x0D), np.log(p.samples), d, p.size)
    out = psi(-resample_log_terms(*terms, p.size))  # s = -1 pack less the s = +1 one
    return Population(samples=out, kind=Kind.MU, d=d,
                      generation=p.generation + 1, seed=seed)


def psi_push(p: Population) -> Population:
    if p.kind is not Kind.THETA:
        raise ValueError("psi_push needs a THETA population")
    return replace(p, samples=psi(p.samples), kind=Kind.MU)


def _w2_sorted(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass
class FixpointResult:
    population: Population
    trace: list[tuple[int, float, float]] = field(default_factory=list)
    converged: bool = False
    noise_floor: float = 0.0
    iterations: int = 0


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
    because the step size never falls below the Monte Carlo floor. Each
    population is sorted once; the next iteration reuses the sorted copy.
    """
    if not 0 < d < 2:
        raise ValueError(f"need d in (0,2), got {d}")
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if operator == "ll":
        cur = Population(samples=np.zeros(size), kind=Kind.THETA, d=d, seed=seed)
        step = apply_ll
        mass_ref = 0.0
    elif operator == "de":
        cur = Population(samples=np.full(size, 0.5), kind=Kind.MU, d=d)
        step = apply_de
        mass_ref = 0.5
    else:
        raise ValueError(f"unknown operator {operator!r}")

    result = FixpointResult(population=cur)
    cur_sorted = np.sort(cur.samples)
    for it in range(1, max_iter + 1):
        nxt = step(cur, d, seed=subseed(seed, it, 0))
        again = step(cur, d, seed=subseed(seed, it, 1))
        nxt_sorted = np.sort(nxt.samples)
        floor = _w2_sorted(nxt_sorted, np.sort(again.samples))
        w2 = _w2_sorted(cur_sorted, nxt_sorted)
        result.trace.append((it, w2, nxt.mass_at(mass_ref)))
        result.noise_floor = floor
        result.iterations = it
        cur, cur_sorted = nxt, nxt_sorted
        if w2 <= tol + floor:
            result.converged = True
            break
    result.population = cur
    return result


# -- population text files ----------------------------------------------------


def write_population(p: Population, fh: IO[str]) -> None:
    d = "nan" if p.d is None else repr(float(p.d))  # shortest exact form
    seed = 0 if p.seed is None else p.seed
    fh.write(f"# pop v1 kind={p.kind.value} d={d} gen={p.generation} seed={seed}\n")
    fh.write(("%.17g\n" * p.size) % tuple(p.samples.tolist()))  # format_double's bytes


def read_population(fh: IO[str]) -> Population:
    header = fh.readline().strip()
    if not header.startswith("# pop v1 "):
        raise ValueError("not a population file")
    fields = header[len("# pop v1 "):].split()
    if bad := [tok for tok in fields if "=" not in tok]:
        raise ValueError(f"line 1: expected header fields key=value, got {bad[0]!r}")
    meta = dict(tok.split("=", 1) for tok in fields)
    samples = np.array([float(line) for line in fh.read().split("\n") if line.strip()])
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
