"""Tree belief propagation: exactness, constructions, serialization."""

import math
import pickle
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
    log_likelihood,
    negate,
    parse_tree,
    root_marginal,
    to_formula,
)
from twosatlab.acceptance import random_tree
from twosatlab.gwsim import tree_probability
from twosatlab.treebp import expanded_size, fold
from twosatlab.util import EXPAND_CAP, substream


def bp_pair(entries) -> tuple[int, int]:
    """Marginal of a variable from its children, as a reduced pair (a, b) = a/b.

    `entries` yields ((s, s'), (a_c, b_c)): the clause type above a child and
    the child's own marginal a_c/b_c. The weight of setting the variable to
    +1 is the product, over clauses in which it appears negated, of the
    probability that the child satisfies the clause on its own;
    symmetrically for -1. With the weights kept as integer ratios
    N+/D+ and N-/D-, the marginal is N+D- / (N+D- + N-D+); a childless
    variable gets (1, 2).
    """
    n_plus = d_plus = n_minus = d_minus = 1
    for (s, sp), (a, b) in entries:
        if s < 0:
            n_plus *= a if sp > 0 else b - a
            d_plus *= b
        else:
            n_minus *= a if sp > 0 else b - a
            d_minus *= b
    x = n_plus * d_minus
    y = x + n_minus * d_plus
    g = math.gcd(x, y)
    return x // g, y // g


def test_isolated_root():
    assert root_marginal(TreeFormula()) == Fraction(1, 2)


def test_single_negative_child():
    t = TreeFormula(children=((ClauseType(-1, 1), TreeFormula()),))
    assert root_marginal(t) == Fraction(1, 3)


def test_join_formula():
    t13 = construct_rational_tree(1, 3)
    assert root_marginal(join(t13, TreeFormula())) == Fraction(2, 5)
    assert root_marginal(join(TreeFormula(), TreeFormula())) == Fraction(1, 2)
    t14 = construct_rational_tree(1, 4)
    assert root_marginal(join(t14, negate(t14))) == Fraction(1, 4)


def test_root_marginal_matches_the_oracle():
    # the shared two-product rule against the plain per-node form, exactly
    rng = substream(4, 7)
    trees = [random_tree(rng, 40) for _ in range(200)]
    trees += [construct_rational_tree(a, b) for b in range(2, 31) for a in range(1, b)
              if math.gcd(a, b) == 1]
    for t in [*trees, construct_rational_tree(250, 501)]:
        assert root_marginal(t) == Fraction(*fold(t, bp_pair))


def test_negate_examples():
    assert root_marginal(negate(TreeFormula())) == Fraction(1, 2)
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


def _post_order(t, known=()) -> list:
    """Distinct nodes of `t` (by identity), each after its children; nodes
    whose id is in `known` are left out, and so are their subtrees."""
    order, seen, stack = [], set(), [(t, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen and id(node) not in known:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((c, False) for _, c in node.children)
    return order


def _distinct_nodes(t) -> int:
    return len(_post_order(t))


def recursive_construction(a: int, b: int) -> TreeFormula:
    """The construction as a plain recursion that copies negations: trees
    memoized per reduced fraction, each node negated once through a
    node-identity memo. The reference for `construct_rational_tree`'s text
    (1/b nests b - 2 calls)."""
    memo, negated = {}, {}

    def neg(t):
        for node in _post_order(t, negated):
            negated[id(node)] = TreeFormula(tuple(
                (ClauseType(-s, -sp), negated[id(c)]) for (s, sp), c in node.children))
        return negated[id(t)]

    def build(a, b):
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if (a, b) not in memo:
            if (a, b) == (1, 2):
                t = TreeFormula()
            elif a == 1:
                t = TreeFormula(children=((ClauseType(-1, 1), build(1, b - 1)),))
            elif 2 * a > b:
                t = neg(build(b - a, b))
            else:
                t = join(build(a, b - 1), neg(build(a - 1, b - 1)))
            memo[a, b] = t
        return memo[a, b]

    return build(a, b)


def test_construct_matches_recursive_reference():
    # same text and exact marginals; the pair memo shares at least as much
    for b in range(2, 41):
        for a in range(1, b):
            got, want = construct_rational_tree(a, b), recursive_construction(a, b)
            assert format_tree(got) == format_tree(want)
            assert root_marginal(got) == Fraction(a, b)
            assert _distinct_nodes(got) <= _distinct_nodes(want)
            for d in (0.8, 1.5):
                assert tree_probability(got, d) == tree_probability(want, d)
    for a, b in ((3, 601), (100, 301)):  # deep, and too large to expand
        got, want = construct_rational_tree(a, b), recursive_construction(a, b)
        assert _distinct_nodes(got) <= _distinct_nodes(want)
        assert root_marginal(got) == Fraction(a, b)


def test_construct_distinct_nodes_within_quarter_b_squared():
    fractions = [(a, b) for b in range(2, 61) for a in range(1, b) if math.gcd(a, b) == 1]
    for a, b in fractions + [(100, 201)]:
        assert _distinct_nodes(construct_rational_tree(a, b)) <= b * b / 4, (a, b)


def test_tree_formula_is_immutable_with_identity_equality():
    t = TreeFormula()
    with pytest.raises(AttributeError):
        t.children = ((ClauseType(1, 1), TreeFormula()),)
    with pytest.raises(AttributeError):
        del t.children
    assert t.children == () and t == t and t != TreeFormula()
    assert len({t, TreeFormula(), TreeFormula(children=())}) == 3
    u = construct_rational_tree(7, 19)  # pickling rebuilds through __init__
    assert format_tree(pickle.loads(pickle.dumps(u))) == format_tree(u)


def test_construct_past_the_recursion_limit():
    t = construct_rational_tree(3, 3001)
    assert root_marginal(t) == Fraction(3, 3001)
    assert expanded_size(construct_rational_tree(1, 5000)) == 4999


def test_construct_shared_representation_small():
    # distinct node count stays polynomial even when the expansion is not
    t = construct_rational_tree(13, 31)
    distinct = _distinct_nodes(t)
    assert distinct <= 31 * 31
    assert expanded_size(t) > distinct
    # the fold visits each distinct node once, however often it is shared
    calls = []
    assert fold(t, lambda kids: calls.append(1) or len(kids)) == len(t.children)
    assert len(calls) == distinct


def test_log_likelihood():
    assert log_likelihood(root_marginal(TreeFormula())) == 0.0
    assert log_likelihood(root_marginal(construct_rational_tree(1, 3))) == pytest.approx(
        math.log(0.5), abs=1e-12
    )
    rng = substream(4, 4)
    for _ in range(50):
        t = random_tree(rng, 25)
        assert log_likelihood(root_marginal(t)) + log_likelihood(
            root_marginal(negate(t))) == pytest.approx(0.0, abs=1e-9)


def test_to_formula_examples():
    f = to_formula(TreeFormula())
    assert f.n == 1 and f.m == 0
    f = to_formula(construct_rational_tree(1, 3))
    assert f.n == 2 and f.clauses.tolist() == [[1, -1, 2, 1]]
    f = to_formula(construct_rational_tree(2, 5))
    stats = count_solutions(f)
    assert Fraction(stats.true_counts[0], stats.count) == Fraction(2, 5)


def test_to_formula_cap():
    t = construct_rational_tree(37, 80)
    assert expanded_size(t) == 849753
    with pytest.raises(ResourceLimitError,
                       match=f"^expanded tree has {expanded_size(t)} nodes, cap {EXPAND_CAP}$"):
        to_formula(t)


def _chain(nodes: int) -> TreeFormula:
    t = TreeFormula()
    for _ in range(nodes - 1):
        t = TreeFormula(((ClauseType(+1, -1), t),))
    return t


def test_to_formula_at_the_cap():
    f = to_formula(_chain(EXPAND_CAP))
    assert (f.n, f.m) == (EXPAND_CAP, EXPAND_CAP - 1)
    assert f.clauses[:, 2].tolist() == list(range(2, EXPAND_CAP + 1))
    assert (f.clauses[:, 0] == f.clauses[:, 2] - 1).all()
    with pytest.raises(ResourceLimitError,
                       match=f"^expanded tree has {EXPAND_CAP + 1} nodes, cap {EXPAND_CAP}$"):
        to_formula(_chain(EXPAND_CAP + 1))


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
    # an edge label may touch the v before it
    assert root_marginal(parse_tree("(v[-+](v))")) == Fraction(1, 3)
    assert root_marginal(parse_tree("(v![++](v))")) == Fraction(2, 3)


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
