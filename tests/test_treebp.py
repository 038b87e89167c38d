"""Tree belief propagation: exactness, constructions, serialization."""

import math
from fractions import Fraction

import pytest

from twosatlab import (
    ClauseType,
    ResourceLimitError,
    TreeFormula,
    construct_rational_tree,
    count_solutions,
    format_tree,
    join,
    leaf,
    log_likelihood,
    negate,
    parse_tree,
    root_marginal,
    to_formula,
)
from twosatlab.acceptance import random_tree
from twosatlab.treebp import expanded_size, fold
from twosatlab.util import substream


def test_isolated_root():
    assert root_marginal(leaf()) == Fraction(1, 2)


def test_single_negative_child():
    t = TreeFormula(children=((ClauseType(-1, 1), leaf()),))
    assert root_marginal(t) == Fraction(1, 3)


def test_join_formula():
    t13 = construct_rational_tree(1, 3)
    assert root_marginal(join(t13, leaf())) == Fraction(2, 5)
    assert root_marginal(join(leaf(), leaf())) == Fraction(1, 2)
    t14 = construct_rational_tree(1, 4)
    assert root_marginal(join(t14, negate(t14))) == Fraction(1, 4)


def test_negate_examples():
    assert root_marginal(negate(leaf())) == Fraction(1, 2)
    assert root_marginal(negate(construct_rational_tree(1, 3))) == Fraction(2, 3)


def test_negate_involution_random():
    rng = substream(4, 0)
    for _ in range(100):
        t = random_tree(rng, 30)
        assert root_marginal(negate(negate(t))) == root_marginal(t)


def test_negation_join_identities_random():
    rng = substream(4, 1)
    for _ in range(100):
        t1, t2 = random_tree(rng, 20), random_tree(rng, 20)
        p, q = root_marginal(t1), root_marginal(t2)
        assert root_marginal(negate(t1)) == 1 - p
        assert root_marginal(join(t1, t2)) == p / (p + q)
        assert 0 < p < 1


def test_marginal_order_invariant():
    rng = substream(4, 2)
    for _ in range(40):
        t = random_tree(rng, 20)
        q = root_marginal(t)
        shuffled = _shuffle(t, rng)
        assert root_marginal(shuffled) == q


def _shuffle(t, rng):
    kids = [( ct, _shuffle(c, rng)) for ct, c in t.children]
    order = rng.permutation(len(kids))
    return TreeFormula(children=tuple(kids[i] for i in order))


def test_construct_examples():
    assert construct_rational_tree(1, 2).children == ()
    t13 = construct_rational_tree(1, 3)
    assert len(t13.children) == 1 and t13.children[0][0] == ClauseType(-1, 1)
    assert root_marginal(construct_rational_tree(2, 5)) == Fraction(2, 5)


def test_construct_rejects_bad_input():
    for a, b in ((0, 2), (3, 3), (5, 2), (-1, 4)):
        with pytest.raises(ValueError):
            construct_rational_tree(a, b)


def test_construct_random_fractions():
    rng = substream(4, 3)
    for _ in range(150):
        b = int(rng.integers(2, 80))
        a = int(rng.integers(1, b))
        assert root_marginal(construct_rational_tree(a, b)) == Fraction(a, b)


def test_construct_shared_representation_small():
    # distinct node count stays polynomial even when the expansion is not
    t = construct_rational_tree(13, 31)
    seen = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(c for _, c in node.children)
    assert len(seen) <= 31 * 31
    assert expanded_size(t) > len(seen)
    # the fold visits each distinct node once, however often it is shared
    calls = []
    assert fold(t, lambda kids: calls.append(1) or len(kids)) == len(t.children)
    assert len(calls) == len(seen)


def test_log_likelihood():
    assert log_likelihood(leaf()) == 0.0
    assert log_likelihood(construct_rational_tree(1, 3)) == pytest.approx(
        math.log(0.5), abs=1e-12
    )
    rng = substream(4, 4)
    for _ in range(50):
        t = random_tree(rng, 25)
        assert log_likelihood(t) + log_likelihood(negate(t)) == pytest.approx(
            0.0, abs=1e-9
        )


def test_to_formula_examples():
    f = to_formula(leaf())
    assert f.n == 1 and f.m == 0
    f = to_formula(construct_rational_tree(1, 3))
    assert f.n == 2 and f.clauses.tolist() == [[1, -1, 2, 1]]
    f = to_formula(construct_rational_tree(2, 5))
    stats = count_solutions(f)
    assert Fraction(stats.true_counts[0], stats.count) == Fraction(2, 5)


def test_to_formula_cap():
    t = construct_rational_tree(37, 80)
    assert expanded_size(t) > 1 << 16
    with pytest.raises(ResourceLimitError):
        to_formula(t)


def test_bp_matches_enumeration_random():
    rng = substream(4, 5)
    for _ in range(40):
        t = random_tree(rng, 14)
        f = to_formula(t)
        stats = count_solutions(f)
        assert root_marginal(t) == Fraction(stats.true_counts[0], stats.count)


def test_serialization_example():
    t = construct_rational_tree(1, 3)
    assert format_tree(t) == "(v [-+](v))"
    assert root_marginal(parse_tree("(v [-+](v))")) == Fraction(1, 3)


def test_serialization_roundtrip():
    rng = substream(4, 6)
    for _ in range(50):
        t = random_tree(rng, 25)
        text = format_tree(t)
        back = parse_tree(text)
        assert format_tree(back) == text
        assert root_marginal(back) == root_marginal(t)


def test_parse_rejects_garbage():
    for bad in ("", "(v", "(x)", "(v [-](v))", "(v)(v)"):
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_parse_deep_chain():
    # each [++] edge maps the child's marginal q to 1/(1+q): Fibonacci ratios
    depth = 5000
    text = "(v [++]" * depth + "(v)" + ")" * depth
    t = parse_tree(text)
    assert format_tree(t) == text
    a, b = 1, 2
    for _ in range(depth):
        a, b = b, a + b
    assert root_marginal(t) == Fraction(a, b)


def test_parse_rejects_unknown_sign():
    for bad in ("(v [x+](v))", "(v [+?](v))", "(v [++](v)"):
        with pytest.raises(ValueError):
            parse_tree(bad)
