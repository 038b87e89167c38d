"""Coordinate maps between log-likelihood ratios and probabilities."""

import numpy as np
from scipy.special import expit

from twosatlab.densityev import clause_table
from twosatlab.numerics import log_clause_term, phi, psi


def test_psi_matches_expit_within_4_ulp():
    rng = np.random.default_rng(5)
    z = np.concatenate([
        np.linspace(-745.0, 745.0, 400_001),
        rng.uniform(-40.0, 40.0, 200_000),
        # expit gives 0 below about -709.78 and 1 above about 36.7
        [-745.0, -720.0, -709.79, -709.78, 36.7, 37.0, 745.0, 0.0, -0.0],
    ])
    ref = expit(z)
    got = psi(z)
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
    assert psi(-720.0) == 0.0 and psi(40.0) == 1.0 and psi(0.0) == 0.5


def test_psi_inverts_phi():
    p = np.linspace(0.01, 0.99, 99)
    assert np.allclose(psi(phi(p)), p, rtol=0, atol=1e-15)


def clause_grid(rng):
    return np.concatenate([
        np.linspace(-745.0, 745.0, 400_001),
        rng.uniform(-40.0, 40.0, 200_000),
        [-745.0, -709.79, -40.0, 40.0, 709.79, 745.0, 0.0, -0.0],
    ])


def test_log_clause_term_matches_logaddexp_within_4_ulp():
    rng = np.random.default_rng(6)
    z = clause_grid(rng)
    for sp in (1.0, -1.0):
        ref = -np.logaddexp(0.0, -sp * z)
        got = log_clause_term(z, sp)
        assert np.all(got <= 0.0)
        assert np.all(np.abs(got - ref) <= 4 * np.abs(np.spacing(ref)))
        assert log_clause_term(0.0, sp) == -np.log(2.0)
    # per-element signs, as the population kernels pass them
    sp = rng.choice([-1.0, 1.0], size=z.size)
    ref = -np.logaddexp(0.0, -sp * z)
    assert np.all(np.abs(log_clause_term(z, sp) - ref) <= 4 * np.abs(np.spacing(ref)))


def test_clause_table_is_log_clause_term_bit_for_bit():
    z = clause_grid(np.random.default_rng(7))
    for values in (z, z[::-1].copy()):
        table = clause_table(values)
        assert table.shape == (2 * values.size,)
        for half, sp in ((table[:values.size], 1.0), (table[values.size:], -1.0)):
            ref = log_clause_term(values, sp)
            assert np.array_equal(half, ref)
            assert np.array_equal(np.signbit(half), np.signbit(ref))
    # a 2-d input holds one table per row
    rows = np.stack([z[:1000], z[-1000:]])
    assert np.array_equal(clause_table(rows), np.stack([clause_table(r) for r in rows]))
