"""Population operators, Wasserstein diagnostics, fixed-point iteration."""

import io
import math

import numpy as np
import pytest

from twosatlab import (
    Kind,
    Population,
    apply_de,
    apply_ll,
    apply_ll_coupled,
    compare_distributions,
    fixpoint,
    phi,
    psi,
    psi_push,
    read_population,
    wasserstein2,
    write_population,
)
from twosatlab.densityev import (
    point_population,
    poisson_owners,
    resample_log_terms,
    split_packs,
    zero_truncated_owners,
    zeros_population,
)
from twosatlab.util import substream

LOG2 = math.log(2.0)


def test_population_validation():
    with pytest.raises(ValueError):
        Population(samples=np.array([]), kind=Kind.THETA)
    with pytest.raises(ValueError):
        Population(samples=np.array([-0.1, 0.5]), kind=Kind.MU)
    with pytest.raises(ValueError):
        Population(samples=np.array([0.5, 1.1]), kind=Kind.MU)
    with pytest.raises(ValueError):
        Population(samples=np.array([np.nan, 0.5]), kind=Kind.MU)
    with pytest.raises(ValueError):
        Population(samples=np.array([np.inf]), kind=Kind.THETA)
    # forced finite-formula marginals make the closed endpoints legal...
    boundary = Population(samples=np.array([0.0, 0.5, 1.0]), kind=Kind.MU)
    # ...but the recursion rejects them
    with pytest.raises(ValueError):
        apply_de(boundary, 1.0, seed=0)


def test_apply_ll_zero_input_lands_on_log2_lattice():
    p = zeros_population(50_000)
    out = apply_ll(p, 1.0, seed=3)
    k = out.samples / LOG2
    assert np.allclose(k, np.round(k), atol=1e-9)


def test_apply_ll_symmetric_and_atom_at_zero():
    p = zeros_population(100_000)
    out = apply_ll(p, 1.0, seed=4)
    assert out.mass_at(0.0) >= math.exp(-1.0) - 0.01
    assert abs(out.samples.mean()) <= 3 * out.samples.std() / math.sqrt(out.size)


def poisson_pmf(lam, hi):
    return np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(hi)])


@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_poisson_owners_counts_are_poisson(lam):
    size = 200_000
    counts = np.bincount(poisson_owners(substream(19, 0), lam, size), minlength=size)
    hi = int(counts.max()) + 1
    pmf = poisson_pmf(lam, hi)
    freq = np.bincount(counts, minlength=hi) / size
    tv = 0.5 * (np.abs(freq - pmf).sum() + (1.0 - pmf.sum()))
    assert tv <= 0.005


@pytest.mark.parametrize("lam", [0.3, 0.874, 2.5])
def test_zero_truncated_owners_counts_are_zero_truncated_poisson(lam):
    # 0.874 is the live rate d*zeta of survival_theta_population at d = 1.5
    size = 400_000
    counts = np.bincount(zero_truncated_owners(substream(20, 0), lam, size), minlength=size)
    assert counts.size == size and counts.min() >= 1
    hi = int(counts.max()) + 1
    pmf = poisson_pmf(lam, hi) / -math.expm1(-lam)
    pmf[0] = 0.0
    freq = np.bincount(counts, minlength=hi) / size
    tv = 0.5 * (np.abs(freq - pmf).sum() + (1.0 - pmf.sum()))
    assert tv <= 0.005


def test_split_packs_signs_are_independent_poisson_halves():
    # per output, (n+, n-) must be two independent Poisson(lam/2) counts, and
    # every term an entry of a uniform key
    size, lam, keys = 400_000, 1.5, 7
    slot, entry = split_packs(substream(21, 0), np.arange(float(keys)), lam, size)
    counts = np.bincount(slot, minlength=2 * size)
    assert counts.size == 2 * size and slot.size == entry.size
    hi = int(counts.max()) + 1
    half = poisson_pmf(lam / 2.0, hi)
    joint = np.bincount(counts[:size] * hi + counts[size:], minlength=hi * hi) / size
    pmf = np.outer(half, half).ravel()
    tv = 0.5 * (np.abs(joint - pmf).sum() + (1.0 - pmf.sum()))
    assert tv <= 0.005
    freq = np.bincount(entry.astype(int), minlength=keys) / entry.size
    assert np.abs(freq - 1.0 / keys).max() <= 0.005


def test_resample_log_terms_adds_plus_slots_and_subtracts_minus_slots():
    slot = np.array([0, 2, 1, 3, 0])
    entry = np.array([1.0, 10.0, 100.0, 1000.0, 1000.0])
    assert resample_log_terms(slot, entry, 2).tolist() == [1001.0 - 10.0, 100.0 - 1000.0]


def test_apply_ll_kind_check():
    with pytest.raises(ValueError):
        apply_ll(point_population(0.5, 10, Kind.MU), 1.0, seed=0)


def test_apply_de_point_mass_half():
    p = point_population(0.5, 50_000, Kind.MU)
    out = apply_de(p, 1.5, seed=5)
    # outputs are 1/(1 + 2^(D- - D+)); check the lattice and the symmetry
    lattice = np.array([1.0 / (1.0 + 2.0**k) for k in range(-25, 26)])
    dist = np.min(np.abs(out.samples[:, None] - lattice[None, :]), axis=1)
    assert dist.max() <= 1e-9
    assert abs(out.samples.mean() - 0.5) <= 3 * out.samples.std() / math.sqrt(out.size)
    assert out.samples.min() > 0.0 and out.samples.max() < 1.0


def test_apply_de_kind_check():
    with pytest.raises(ValueError):
        apply_de(zeros_population(10), 1.0, seed=0)


def test_psi_phi_inverse_pair():
    assert psi(0.0) == 0.5
    assert psi(LOG2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    inner = np.linspace(-9, 9, 301)
    assert np.max(np.abs(phi(psi(inner)) - inner)) <= 1e-12
    # past |x| ~ 9 the roundtrip is limited by the spacing of representable
    # probabilities near 0/1: error <= ~ulp(1) * phi'(psi(x))
    grid = np.linspace(-30, 30, 601)
    envelope = 1e-12 + 3e-16 * (2.0 + np.exp(np.abs(grid)))
    assert np.all(np.abs(phi(psi(grid)) - grid) <= envelope)


def test_push_roundtrip():
    p = apply_ll(zeros_population(1000), 1.5, seed=8)
    back = phi(psi_push(p).samples)
    assert np.max(np.abs(back - p.samples)) <= 1e-12
    assert psi_push(p).kind is Kind.MU


def test_wasserstein2_examples():
    z = Population(samples=np.zeros(2), kind=Kind.THETA)
    ones = Population(samples=np.ones(2), kind=Kind.THETA)
    assert wasserstein2(z, z) == 0.0
    assert wasserstein2(z, ones) == 1.0
    a = Population(samples=np.array([0.0, 1.0]), kind=Kind.THETA)
    b = Population(samples=np.array([1.0, 2.0]), kind=Kind.THETA)
    assert wasserstein2(a, b) == 1.0


def test_wasserstein2_validates():
    a = Population(samples=np.zeros(3), kind=Kind.THETA)
    b = Population(samples=np.zeros(4), kind=Kind.THETA)
    with pytest.raises(ValueError):
        wasserstein2(a, b)
    c = point_population(0.5, 3, Kind.MU)
    with pytest.raises(ValueError):
        wasserstein2(a, c)


def test_coupled_contraction_l1():
    # shared-randomness coupling contracts mean absolute distance at rate d/2
    rng = substream(17, 0)
    for d in (0.5, 1.0, 1.5, 1.9):
        pa = apply_ll(zeros_population(100_000, d=d), d, seed=21)
        pb = Population(samples=pa.samples + rng.normal(0.0, 0.5, pa.size),
                        kind=Kind.THETA, d=d)
        w1_in = float(np.mean(np.abs(np.sort(pa.samples) - np.sort(pb.samples))))
        oa, ob = apply_ll_coupled(pa, pb, d, seed=22)
        diff = np.abs(oa.samples - ob.samples)
        w1_out = float(np.mean(diff))
        se = float(diff.std() / math.sqrt(diff.size))
        assert w1_out <= (d / 2.0) * w1_in + 3 * se


def test_coupled_shares_randomness():
    # both sides are sorted before resampling, so a shuffled copy of the same
    # samples must come out identical when D, signs and indices are shared
    rng = substream(18, 0)
    for d in (0.5, 1.9):
        p = Population(samples=rng.normal(0.0, 1.0, 5000), kind=Kind.THETA, d=d)
        q = Population(samples=rng.permutation(p.samples), kind=Kind.THETA, d=d)
        oa, ob = apply_ll_coupled(p, q, d, seed=23)
        assert np.array_equal(oa.samples, ob.samples)
        assert not np.array_equal(oa.samples, apply_ll_coupled(p, q, d, seed=24)[0].samples)


def test_consistency_square():
    # psi . LL . phi agrees with DE in distribution on symmetric inputs
    d = 1.5
    p = apply_ll(apply_ll(zeros_population(100_000, d=d), d, seed=31), d, seed=32)
    via_de = apply_de(psi_push(p), d, seed=33)
    direct = psi_push(apply_ll(p, d, seed=34))
    assert compare_distributions(via_de, direct)["w1"] <= 0.01


def test_fixpoint_small_d_concentrates_at_zero():
    # oracle: theta = 0 w.p. e^-d, a single +-log2 term w.p. d*e^-d, so
    # W2 to the zero population is sqrt(d e^-d) log 2 ~ 0.151 at d=0.05
    res = fixpoint(0.05, 20_000, max_iter=30, tol=1e-3, seed=41)
    assert res.converged
    w2 = wasserstein2(res.population, zeros_population(20_000))
    assert 0.12 <= w2 <= 0.20
    assert res.population.mass_at(0.0) >= math.exp(-0.05) - 0.01


def test_fixpoint_psi_mass_at_half():
    res = fixpoint(1.5, 50_000, max_iter=60, tol=1e-3, seed=42)
    mu = psi_push(res.population)
    assert mu.mass_at(0.5) >= math.exp(-1.5) - 0.01


def test_fixpoint_flags_non_convergence():
    res = fixpoint(1.5, 5000, max_iter=1, tol=1e-12, seed=43)
    assert not res.converged
    assert res.iterations == 1


def test_fixpoint_trace_and_floor():
    res = fixpoint(1.5, 20_000, max_iter=40, tol=1e-3, seed=44)
    assert res.trace[0][1] > res.trace[-1][1]
    assert res.noise_floor > 0.0
    iters = [row[0] for row in res.trace]
    assert iters == list(range(1, len(iters) + 1))


def test_fixpoint_trace_w2_is_the_step_between_returned_populations():
    # the cached sorted copy of each population must be the one stepped from
    full = fixpoint(1.5, 5000, max_iter=60, tol=1e-3, seed=45)
    assert full.iterations >= 3
    for k in range(1, full.iterations + 1):
        before = fixpoint(1.5, 5000, max_iter=k - 1, tol=1e-3, seed=45).population
        after = fixpoint(1.5, 5000, max_iter=k, tol=1e-3, seed=45).population
        assert full.trace[k - 1][1] == wasserstein2(before, after)


def test_fixpoint_validates():
    with pytest.raises(ValueError):
        fixpoint(2.5, 100, seed=0)
    with pytest.raises(ValueError):
        fixpoint(1.0, 100, seed=0, operator="nope")


def test_population_file_roundtrip():
    p = apply_ll(zeros_population(500, d=1.25, seed=7), 1.25, seed=7)
    buf = io.StringIO()
    write_population(p, buf)
    back = read_population(io.StringIO(buf.getvalue()))
    assert back.kind is Kind.THETA
    assert back.d == 1.25
    assert back.generation == p.generation
    assert np.array_equal(back.samples, p.samples)


@pytest.mark.parametrize("header", ["# pop v1 kind=BOGUS d=0.8", "# pop v1 d=0.8"])
def test_population_file_rejects_unknown_or_missing_kind(header):
    with pytest.raises(ValueError, match="kind"):
        read_population(io.StringIO(header + "\n0.5\n"))


def test_population_file_header():
    buf = io.StringIO()
    write_population(point_population(0.5, 3, Kind.MU, d=0.8), buf)
    assert buf.getvalue().splitlines()[0] == "# pop v1 kind=MU d=0.8 gen=0 seed=0"
