"""Coordinate maps between log-likelihood ratios and probabilities."""

import numpy as np
from scipy.special import expit

from twosatlab.numerics import phi, psi


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
