"""Acceptance gate: every criterion at full size and pinned tolerance.

The suite runs once per session; each test then asserts its criterion and
prints the canonical one-line verdict, so `pytest -v tests/test_acceptance.py`
shows one pass/fail line per criterion.
"""

import pytest

from twosatlab.acceptance import CRITERIA, run_all


@pytest.fixture(scope="session")
def results():
    out = run_all(quick=False, workers=None, base_seed=20240801)
    return {r.number: r for r in out}


@pytest.mark.parametrize("number", range(1, len(CRITERIA) + 1))
def test_criterion(results, number):
    res = results[number]
    print(res.line())
    assert res.passed, res.line()
