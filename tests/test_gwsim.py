"""Branching-process samplers, conditioning, and the theta recursion."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from twosatlab import (
    ClauseType,
    TreeFormula,
    coupled_increment_stats,
    extinct_marginal_samples,
    extinction_probability,
    survival_theta_population,
    tree_marginal_samples,
    tree_probability,
)
from twosatlab.acceptance import INCREMENT_DENSITIES
from twosatlab.densityev import Kind, Population, poisson_owners, zero_truncated_owners
from twosatlab.analysis import compare_distributions
from twosatlab.gwsim import (
    _NODE_BUDGET,
    _forest_root_pairs,
    _forest_texts,
    _forest_theta_matrix,
    _grow_forest,
    _increment_chunk,
    _theta_chunk,
    from_tree_formula,
)
from twosatlab.densityev import psi
from twosatlab.treebp import (
    CLAUSE_TYPES,
    construct_rational_tree,
    fold,
    format_tree,
    parse_tree,
    root_marginal,
)
from twosatlab import gwsim
from twosatlab.util import ResourceLimitError, substream
from test_numerics import log_clause_term
from test_treebp import bp_pair

CASES = ("none", "extinct", "survive")


class Node:
    """Mutable tree node of the node-by-node oracle samplers."""

    __slots__ = ("children", "live")

    def __init__(self, live=False):
        self.children = []
        self.live = live


def oracle_tree(rng, d, conditioned, depth=None):
    """One tree drawn node by node, breadth first: the independent oracle for
    `_grow_forest`.

    Every node draws four Poisson(lam/4) packs, one per clause type (the
    five-type definition); under survival conditioning a live node adds a
    pack of live children drawn by rejection until it is not empty.
    """
    info = extinction_probability(d)
    lam = d if conditioned == "none" else d * info.eta
    root = Node(live=conditioned == "survive")
    frontier, generation = [root], 0
    while frontier and (depth is None or generation < depth):
        nxt = []
        for node in frontier:
            counts = rng.poisson(lam / 4.0, size=4)
            node.children = [(CLAUSE_TYPES[t], Node()) for t, c in enumerate(counts)
                             for _ in range(c)]
            if node.live:
                k = 0
                while k == 0:
                    k = int(rng.poisson(d * info.zeta))
                node.children += [(CLAUSE_TYPES[t], Node(live=True))
                                  for t in rng.integers(0, 4, size=k)]
            nxt.extend(c for _, c in node.children)
        frontier, generation = nxt, generation + 1
    return root


def grow(conditioned, d, count, seed, depth=None, node_cap=10**9):
    """`_grow_forest` with the offspring laws of `tree_marginal_samples`."""
    info = extinction_probability(d)
    lam = d if conditioned == "none" else d * info.eta
    live_lam = d * info.zeta if conditioned == "survive" else None
    return _grow_forest(substream(seed, 0), count, lam, node_cap, depth, live_lam)


def forest_trees(parent, types, count):
    """TreeFormula trees rebuilt bottom-up from a flat forest's arrays."""
    kids = [[] for _ in range(count + len(parent))]
    parent, types = list(parent), list(types)
    for v in range(len(kids) - 1, count - 1, -1):
        node = TreeFormula(children=tuple(reversed(kids[v])))
        kids[parent[v - count]].append((CLAUSE_TYPES[types[v - count]], node))
    return [TreeFormula(children=tuple(reversed(k))) for k in kids[:count]]


def cut(forest, ell):
    """(parent, types) of a grown forest cut ell generations below its roots."""
    parent, types, sizes = forest[:3]
    k = sum(sizes[1:ell + 1])
    return parent[:k], types[:k]


def _cut_pairs(kids):
    """A node's marginals cut 0, 1, ..., height generations below it, from its
    children's lists; past a node's height its marginal stays constant."""
    if not kids:
        return [(1, 2)]
    height = max(len(seq) for _, seq in kids)
    return [(1, 2)] + [
        bp_pair([(ct, seq[j] if j < len(seq) else seq[-1]) for ct, seq in kids])
        for j in range(height)
    ]


def marginal_sequence(root, depth):
    """Root marginals of the cuts 0, 1, ..., depth generations below the root,
    from one `fold` over node objects: the oracle for a forest's cut pairs.
    Entry 0 is 1/2."""
    seq = fold(root, _cut_pairs)
    seq = seq[:depth + 1] + seq[-1:] * (depth + 1 - len(seq))
    return [Fraction(a, b) for a, b in seq]


def cut_marginals(forest, count, depth):
    """Root marginals of every tree of a forest cut 0..depth generations down."""
    return [[Fraction(a, b) for a, b in _forest_root_pairs(*cut(forest, ell), count)]
            for ell in range(depth + 1)]


# -- extinction probability ----------------------------------------------------


def test_extinction_subcritical():
    for d in (0.2, 0.5, 0.9, 1.0):
        info = extinction_probability(d)
        assert info.eta == 1.0 and info.zeta == 0.0


@pytest.mark.parametrize(
    "d,expected", [(1.5, 0.4171883561), (1.9, 0.2327564108)]
)
def test_extinction_supercritical(d, expected):
    # frozen from iterating eta -> exp(d*(eta-1)) to machine precision
    info = extinction_probability(d)
    assert info.eta == pytest.approx(expected, abs=1e-8)
    assert abs(info.eta - math.exp(d * (info.eta - 1.0))) <= 1e-9
    assert info.zeta == pytest.approx(1.0 - expected, abs=1e-8)


def test_extinction_probability_is_memoised():
    # one frozen instance per d: the samplers ask on every call
    assert extinction_probability(1.5) is extinction_probability(1.5)
    assert extinction_probability(1.9) is not extinction_probability(1.5)
    with pytest.raises(TypeError):  # the tolerance is fixed at 1e-12
        extinction_probability(1.5, 1e-10)


def test_extinction_validates():
    with pytest.raises(ValueError):
        extinction_probability(0.0)
    with pytest.raises(ValueError):
        extinction_probability(2.0)


# -- the level-array grower against the node-by-node oracle --------------------


def level_counts(text, depth):
    """Node count and live ("!") count of each generation 0..depth of a tree text."""
    sizes, lives = [0] * (depth + 1), [0] * (depth + 1)
    g = -1
    for token in re.findall(r"\(v!?|\)", text):
        g += -1 if token == ")" else 1
        if token != ")":
            sizes[g] += 1
            lives[g] += token == "(v!"
    return sizes, lives


@pytest.mark.parametrize("conditioned", CASES)
def test_grower_matches_node_oracle_in_law(conditioned):
    # root offspring law, and the mean size and live count of each generation,
    # read from the dumped texts of `tree_marginal_samples`
    d, depth, n = 1.5, 4, 4000
    case = CASES.index(conditioned)
    _, texts = tree_marginal_samples(d, n, 50 + case, conditioned, depth, dump=True)
    got = np.array([level_counts(text, depth) for text in texts])  # (n, 2, depth + 1)

    rng = substream(51, case)
    want = np.zeros_like(got)
    for k in range(n):
        gen = [oracle_tree(rng, d, conditioned, depth)]
        for g in range(depth + 1):
            want[k, :, g] = len(gen), sum(node.live for node in gen)
            gen = [c for node in gen for _, c in node.children]

    def close(a, b):
        se = math.sqrt((np.var(a) + np.var(b)) / n)
        return abs(np.mean(a) - np.mean(b)) <= 4 * se + 1e-12

    for k in range(4):
        assert close(got[:, 0, 1] == k, want[:, 0, 1] == k)
    for g in range(1, depth + 1):
        assert close(got[:, 0, g], want[:, 0, g]) and close(got[:, 1, g], want[:, 1, g])
    if conditioned == "survive":
        assert (got[:, 1, depth] >= 1).all() and (want[:, 1, depth] >= 1).all()


# -- unconditioned trees -----------------------------------------------------------


def test_truncated_level_zero():
    parent, types, sizes, alive, live = grow("none", 1.0, 50, seed=1, depth=0)
    assert parent.size == types.size == 0 and sizes == [50] and alive.all() and live is None
    assert tree_marginal_samples(1.0, 50, 1, "none", 0) == ([Fraction(1, 2)] * 50, [])


def test_truncated_offspring_statistics():
    n = 30_000
    parent = grow("none", 1.0, n, seed=2, depth=1)[0]
    counts = np.bincount(parent, minlength=n)
    iso = np.mean(counts == 0)
    se_iso = math.sqrt(math.exp(-1.0) * (1 - math.exp(-1.0)) / n)
    assert abs(iso - math.exp(-1.0)) <= 3 * se_iso
    assert abs(counts.mean() - 1.0) <= 3 * counts.std() / math.sqrt(n)


def test_truncated_depth_respected():
    sizes = grow("none", 1.8, 200, seed=5, depth=3)[2]
    assert len(sizes) == 4
    _, texts = tree_marginal_samples(1.8, 200, 5, "none", 3, dump=True)
    assert max(_depth(parse_tree(text)) for text in texts) == 4


# -- marginal sequences ----------------------------------------------------------


def test_sequence_isolated_root():
    assert marginal_sequence(TreeFormula(), 4) == [Fraction(1, 2)] * 5


def test_sequence_single_negative_child():
    root = TreeFormula(children=((ClauseType(-1, 1), TreeFormula()),))
    assert marginal_sequence(root, 1) == [Fraction(1, 2), Fraction(1, 3)]


def test_sequence_matches_truncations():
    # a forest cut at depth l is its first l levels: its pairs, and BP on the
    # cut trees rebuilt as TreeFormula trees, match the oracle's sequence
    count = 25
    forest = grow("none", 1.4, count, seed=3, depth=4)
    cuts = cut_marginals(forest, count, 4)
    for k, root in enumerate(forest_trees(*forest[:2], count)):
        seq = marginal_sequence(root, 4)
        assert seq[0] == Fraction(1, 2)
        assert [cut[k] for cut in cuts] == seq
    for ell in range(5):
        assert [root_marginal(r) for r in forest_trees(*cut(forest, ell), count)] == cuts[ell]


def test_forest_deep_chain_is_iterative():
    # a 3000-deep chain: a recursive walk would overflow the interpreter stack.
    # Each (-,+) edge maps q to q/(1+q), so the cut at depth l has marginal 1/(l+2)
    depth = 3000
    parent, types = np.arange(depth), np.full(depth, 2, dtype=np.int8)
    assert CLAUSE_TYPES[2] == ClauseType(-1, 1)
    assert _forest_root_pairs(parent[:1500], types[:1500], 1) == [(1, 1502)]
    for live, head in ((None, "(v"), (np.ones(depth + 1, dtype=bool), "(v!")):
        (text,) = _forest_texts(parent, types, live, 1)
        assert text == (head + " [-+]") * depth + head + ")" * (depth + 1)
        assert root_marginal(parse_tree(text)) == Fraction(1, depth + 2)
    (text,) = _forest_texts(parent[:1500], types[:1500], None, 1)
    assert root_marginal(parse_tree(text)) == Fraction(1, 1502)


def test_sequence_decomposition_identity():
    # root marginal at depth l from the children's depth-(l-1) marginals,
    # split by the sign the root carries in each clause
    forest = grow("none", 1.5, 25, seed=1000, depth=3)
    for root in forest_trees(*forest[:2], 25):
        seq = marginal_sequence(root, 3)
        for ell in (1, 2, 3):
            num = Fraction(1)
            den = Fraction(1)
            for (s, sp), child in root.children:
                sub = marginal_sequence(child, ell - 1)[ell - 1]
                factor = sub if sp > 0 else 1 - sub
                if s < 0:
                    num *= factor
                else:
                    den *= factor
            assert seq[ell] == num / (num + den)


def test_theta_recursion_float_identity():
    # theta^(l) = sum_j s_j * softplus(-s'_j theta_j^(l-1)) to 1e-12
    def phi_frac(q):
        return math.log(q.numerator) - math.log(q.denominator - q.numerator)

    forest = grow("none", 1.2, 20, seed=2000, depth=3)
    ell = 3
    for root in forest_trees(*forest[:2], 20):
        theta_root = phi_frac(marginal_sequence(root, ell)[ell])
        acc = 0.0
        for (s, sp), child in root.children:
            theta_child = phi_frac(marginal_sequence(child, ell - 1)[ell - 1])
            acc += s * math.log1p(math.exp(-sp * theta_child))
        assert theta_root == pytest.approx(acc, abs=1e-12)


def test_all_marginals_interior():
    forest = grow("none", 1.9, 40, seed=6, depth=3)
    assert all(0 < q < 1 for cuts in cut_marginals(forest, 40, 3) for q in cuts)


# -- conditioned trees -------------------------------------------------------------


def test_extinct_subcritical_matches_unconditioned():
    n = 20_000
    parent = grow("extinct", 0.8, n, seed=7, depth=1)[0]
    counts = np.bincount(parent, minlength=n)
    lam = 0.8
    for k in range(4):
        p = math.exp(-lam) * lam**k / math.factorial(k)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(counts == k) - p) <= 4 * se


def test_extinct_supercritical_mean_offspring():
    n = 20_000
    parent = grow("extinct", 1.5, n, seed=8, depth=1)[0]
    counts = np.bincount(parent, minlength=n)
    target = 1.5 * extinction_probability(1.5).eta
    assert abs(counts.mean() - target) <= 3 * counts.std() / math.sqrt(n)


def test_extinct_marginals_rational_interior():
    for q in extinct_marginal_samples(1.5, 400, seed=5):
        assert isinstance(q, Fraction) and 0 < q < 1


def test_extinct_oversize_policy():
    # critical regime: over-cap trees come back as None instead of exploding
    vals = extinct_marginal_samples(1.0, 300, seed=8, node_cap=200)
    n_none = sum(v is None for v in vals)
    assert 1 <= n_none <= 60
    assert all(v is None or isinstance(v, Fraction) for v in vals)


@pytest.mark.parametrize("d", [0.5, 0.8, 1.5, 1.9])
def test_forest_pairs_match_tree_bp(d):
    # the integer pair pass against the `bp_pair` oracle on the same trees
    # rebuilt as TreeFormula trees, and the text form against format_tree,
    # in every case
    for conditioned, depth, count in (("extinct", None, 2500), ("none", 5, 600),
                                      ("survive", 5, 200)):
        if conditioned == "survive" and d < 1:
            continue
        parent, types, _, alive, live = grow(conditioned, d, count, seed=int(10 * d),
                                             depth=depth)
        roots = forest_trees(parent, types, count)
        assert alive.all() and any(r.children for r in roots)
        texts = _forest_texts(parent, types, live, count)
        assert [text.replace("!", "") for text in texts] == [format_tree(r) for r in roots]
        n_live = 0 if live is None else int(live.sum())
        assert sum(text.count("!") for text in texts) == n_live
        pairs = _forest_root_pairs(parent, types, count)
        # flat layout: parents ascend, and each node comes after its parent
        assert (np.diff(parent) >= 0).all() and (parent < count + np.arange(parent.size)).all()
        assert pairs == [fold(r, bp_pair) for r in roots]


def test_forest_cap_drops_exactly_the_oversize_trees():
    # a one-tree forest draws the same numbers with or without a cap until
    # the cap stops it: a cap at the tree's true size keeps it, one less drops it
    for k in range(200):
        size = 1 + _grow_forest(substream(42, k), 1, 1.0, 10**9)[0].size
        for cap, kept in ((size, True), (size - 1, False)):
            alive = _grow_forest(substream(42, k), 1, 1.0, cap)[3]
            assert alive.tolist() == [kept]
    # many trees at once: every kept tree is within the cap, and a dropped
    # tree leaves only its root in the levels
    cap = 30
    parent, types, _, alive, _ = _grow_forest(substream(43, 0), 2000, 1.0, cap)
    roots = forest_trees(parent, types, 2000)
    assert 0 < (~alive).sum() < 2000
    assert all(_count_nodes(r) <= cap if ok else not r.children
               for r, ok in zip(roots, alive))


@pytest.mark.parametrize("conditioned, d, depth", [
    ("extinct", 0.9, None), ("none", 1.5, 6), ("survive", 1.5, 6)])
def test_forest_total_past_the_cap_drops_no_tree_under_it(conditioned, d, depth):
    # the cap bookkeeping starts, rebuilt from the levels, once the forest's
    # node total passes the cap; with every tree still under the cap it drops
    # nothing and draws the same numbers as no cap at all
    count = 40
    parent, types, gens, alive, live = grow(conditioned, d, count, seed=45, depth=depth)
    sizes = [_count_nodes(r) for r in forest_trees(parent, types, count)]
    # the total passes the cap after the first generation, which the rebuild has to count
    assert alive.all() and gens[0] + gens[1] < max(sizes) < sum(sizes)
    p_c, t_c, gens_c, alive_c, live_c = grow(conditioned, d, count, seed=45, depth=depth,
                                             node_cap=max(sizes))
    assert alive_c.all()
    assert np.array_equal(parent, p_c) and np.array_equal(types, t_c) and gens == gens_c
    assert live is None or np.array_equal(live, live_c)
    # one node less: the streams agree until the first largest tree passes
    # the cap, so it is dropped, and every kept tree is within the cap
    p_c, t_c, _, alive_c, _ = grow(conditioned, d, count, seed=45, depth=depth,
                                   node_cap=max(sizes) - 1)
    assert not alive_c.all()
    assert all(_count_nodes(r) < max(sizes) if ok else not r.children
               for r, ok in zip(forest_trees(p_c, t_c, count), alive_c))


@pytest.mark.parametrize("conditioned, d, depth, cap", [
    ("extinct", 1.0, None, 30), ("extinct", 1.0, None, 1000),
    ("survive", 1.5, 4, 20), ("survive", 1.5, 4, 40)])
def test_capped_growth_drops_whole_trees(conditioned, d, depth, cap):
    # the drop at the end of capped growth, with the total past the cap from
    # the first generation, or from the third, so that the tree ids of the
    # first two are rebuilt: a dropped tree keeps its root alone, a kept tree
    # comes whole and within the cap, and the arrays stay one ascending layout
    count = 300
    assert cap < count or sum(grow(conditioned, d, count, seed=44, depth=2)[2]) < cap
    parent, types, sizes, alive, live = grow(conditioned, d, count, seed=44, depth=depth,
                                             node_cap=cap)
    assert 0 < (~alive).sum() < count
    texts = _forest_texts(parent, types, live, count)
    pairs = _forest_root_pairs(parent, types, count)
    root = "(v!)" if conditioned == "survive" else "(v)"
    for text, (a, b), ok in zip(texts, pairs, alive):
        if ok:
            assert text.count("(v") <= cap and root_marginal(parse_tree(text)) == Fraction(a, b)
        else:
            assert text == root
    assert live is None or live[parent[live[count:]]].all()  # a live node's parent is live
    assert parent.dtype == np.int32 and (np.diff(parent) >= 0).all()
    assert sum(sizes) == count + parent.size and all(sizes)
    assert types.size == parent.size


def grow_forest_by_levels(rng, count: int, lam: float, node_cap: int, depth: int | None = None,
                          live_lam: float | None = None):
    """The grower as it stood when each generation built its parent array
    (one arange and one repeat per generation), copied without change: the
    bit-for-bit oracle for `_grow_forest`, which keeps child counts. Its
    capped path raises IndexError when the kept total falls back under the
    cap (see `test_capped_growth_with_the_total_back_under_the_cap`)."""
    live = None if live_lam is None else np.ones(count, dtype=bool)
    parents, marks, sizes = [], [live], [count]
    start, total = 0, count  # first frontier node, nodes kept so far
    trees, size = [], None  # tree ids of the nodes and tree sizes, kept once total > node_cap
    while depth is None or len(parents) < depth:
        n = sizes[-1]
        kids = rng.poisson(lam, size=n)
        if live is not None:
            owners = np.flatnonzero(live)[zero_truncated_owners(rng, live_lam, int(live.sum()))]
            n_live = np.bincount(owners, minlength=n)
            kids += n_live
        if depth is not None and total + int(kids.sum()) > _NODE_BUDGET:
            raise ResourceLimitError(f"{count} trees cut at depth {depth} would pass "
                                     f"the budget of {_NODE_BUDGET} nodes per chunk")
        # int32 ids: _NODE_BUDGET bounds a depth-cut forest, and memory runs
        # out long before an extinct one nears 2^31 nodes
        parent = np.arange(start, start + n, dtype=np.int32).repeat(kids)
        if not parent.size:  # no child anywhere
            break
        if live is not None:  # the first n_live[p] children of node p are live
            live = np.arange(parent.size) < (np.cumsum(kids) - kids + n_live)[parent - start]
        if total + parent.size > node_cap:  # before, no tree can be over the cap
            if size is None:
                tree = np.arange(count, dtype=np.int32)  # the tree of every node so far
                for above in parents:
                    tree = np.concatenate([tree, tree[above]])
                trees, size, tree = [tree], np.bincount(tree, minlength=count), tree[start:]
            tree = tree[parent - start]
            size += np.bincount(tree, minlength=count)
            keep = (size <= node_cap)[tree]
            if not keep.all():
                parent, tree = parent[keep], tree[keep]
                live = None if live is None else live[keep]
            trees.append(tree)
        parents.append(parent)
        marks.append(live)
        sizes.append(parent.size)
        start, total = total, total + parent.size
    parent = np.concatenate(parents) if parents else np.zeros(0, dtype=np.int32)
    live = None if live is None else np.concatenate(marks)
    alive = np.full(count, node_cap >= 1) if size is None else size <= node_cap
    if trees and not alive.all():  # keep the roots and the nodes of trees within the cap
        keep = alive[np.concatenate(trees)]
        keep[:count] = True
        index = np.cumsum(keep, dtype=np.int32) - 1  # new position of each kept node
        kept = np.diff(index[np.cumsum(sizes) - 1], prepend=-1).tolist()  # per generation
        parent, sizes = index[parent[keep[count:]]], [k for k in kept if k]  # trailing zeros
        live = None if live is None else live[keep]
    return parent, rng.integers(0, 4, size=parent.size, dtype=np.int8), sizes, alive, live


def _forest_arrays_equal(got, want):
    """Bit for bit: parent and types with their dtypes, sizes, alive and live."""
    (p, t, sizes, alive, live), (p_w, t_w, sizes_w, alive_w, live_w) = got, want
    assert p.dtype == p_w.dtype and np.array_equal(p, p_w)
    assert t.dtype == t_w.dtype and np.array_equal(t, t_w)
    assert sizes == sizes_w and np.array_equal(alive, alive_w)
    assert (live is None) == (live_w is None)
    assert live is None or (live.dtype == live_w.dtype and np.array_equal(live, live_w))


@pytest.mark.parametrize("conditioned, d, depth", [
    ("extinct", 0.8, None), ("extinct", 1.5, None), ("extinct", 0.8, 6),
    ("none", 1.5, 4), ("survive", 1.5, 8)])
def test_grower_matches_the_level_grower_bit_for_bit(conditioned, d, depth):
    # the child-count grower against the per-generation parent arrays it
    # replaced, on every law, at a call's 50 trees and a chunk's 2000,
    # uncapped, with a cap of 8 nodes, which the total passes at once and
    # trees pass later, and with one the total passes in the fourth generation
    info = extinction_probability(d)
    lam = d if conditioned == "none" else d * info.eta
    live_lam = d * info.zeta if conditioned == "survive" else None
    for count in (50, 2000):
        for seed in range(3):
            def both(cap):
                args = (count, lam, cap, depth, live_lam)
                got = _grow_forest(substream(seed, 0x71), *args)
                _forest_arrays_equal(got, grow_forest_by_levels(substream(seed, 0x71), *args))
                return got
            sizes = both(10**9)[2]
            assert not both(8)[3].all()
            later = sum(sizes[:3])
            assert len(sizes) > 4 and sum(sizes[:4]) > later
            both(later)


def test_capped_growth_with_the_total_back_under_the_cap():
    # a tree that passes the cap loses its new generation, which can take the
    # kept total back under the cap; the tree ids must follow every later
    # generation all the same (the level grower raised IndexError here, first
    # at seed 47 with 2 trees and cap 5)
    for seed in range(120):
        for count, cap in ((2, 5), (3, 8)):
            parent, types, sizes, alive, _ = _grow_forest(substream(seed, 1), count, 0.9, cap)
            assert sum(sizes) == count + parent.size and (np.diff(parent) >= 0).all()
            assert all(_count_nodes(r) <= cap if ok else not r.children
                       for r, ok in zip(forest_trees(parent, types, count), alive))
    with pytest.raises(IndexError):
        grow_forest_by_levels(substream(47, 1), 2, 0.9, 5)
    vals, texts = tree_marginal_samples(1.5, 3, 366, "survive", 6, node_cap=20, dump=True)
    assert vals[:2] == [None, None] and texts[:2] == ["(v!)", "(v!)"]
    assert texts[2].count("(v") <= 20 and Fraction(*fold(parse_tree(texts[2]), bp_pair)) == vals[2]


def test_extinct_marginals_oversize_share_matches_borel_law():
    # at d = 1 the tree size is Borel(1): P(size = n) = e^-n n^(n-1) / n!
    n, cap = 4000, 30
    vals = extinct_marginal_samples(1.0, n, seed=8, node_cap=cap)
    p = 1.0 - sum(math.exp(-k + (k - 1) * math.log(k) - math.lgamma(k + 1))
                  for k in range(1, cap + 1))
    share = sum(v is None for v in vals) / n
    assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / n)


def test_extinct_marginals_worker_invariant():
    # 4500 trees are three chunks of 2000
    one = extinct_marginal_samples(0.8, 4500, seed=3, workers=1)
    two = extinct_marginal_samples(0.8, 4500, seed=3, workers=2)
    assert one == two and len(one) == 4500


@pytest.mark.parametrize("conditioned", ["none", "survive"])
def test_depth_cut_samples_worker_invariant(conditioned):
    # each chunk seeds its own generator, so values and dumps of two chunks
    # come back the same from one process and from a pool of two
    one = tree_marginal_samples(1.5, 2500, 4, conditioned, 4, workers=1, dump=True)
    two = tree_marginal_samples(1.5, 2500, 4, conditioned, 4, workers=2, dump=True)
    assert one == two and len(one[0]) == len(one[1]) == 2500
    # and a chunk's trees depend on its index, not on the chunks beside it
    assert tree_marginal_samples(1.5, 2000, 4, conditioned, 4, dump=True) == (
        one[0][:2000], one[1][:2000])


def test_flat_fold_matches_root_marginal_bit_for_bit():
    # the one-pass pair fold against the `bp_pair` oracle on the same trees
    # rebuilt as TreeFormula trees, on forests of every law and on a chain
    # 10^4 deep with random clause types, where the pairs run to thousands of bits
    forests = [(grow(conditioned, 1.5, 300, seed=60, depth=depth), 300)
               for conditioned, depth in (("extinct", None), ("none", 6), ("survive", 5))]
    depth = 10_000
    chain = (np.arange(depth), substream(61, 0).integers(0, 4, size=depth, dtype=np.int8))
    for (parent, types, *_), count in [*forests, (chain, 1)]:
        pairs = _forest_root_pairs(parent, types, count)
        assert pairs == [fold(r, bp_pair) for r in forest_trees(parent, types, count)]
    assert pairs[0][1].bit_length() > 1000


def test_depth_cut_chunk_budget(monkeypatch):
    # a chunk of depth-cut trees raises before a generation would take it
    # past the node budget; at the budget it draws exactly as without one
    vals, texts = tree_marginal_samples(1.5, 100, 1, "survive", 4, dump=True)
    nodes = sum(text.count("(v") for text in texts)
    monkeypatch.setattr(gwsim, "_NODE_BUDGET", nodes)
    assert tree_marginal_samples(1.5, 100, 1, "survive", 4, dump=True) == (vals, texts)
    monkeypatch.setattr(gwsim, "_NODE_BUDGET", nodes - 1)
    with pytest.raises(ResourceLimitError, match=f"budget of {nodes - 1} nodes per chunk"):
        tree_marginal_samples(1.5, 100, 1, "survive", 4)
    # complete extinct trees are bounded by node_cap instead
    assert len(extinct_marginal_samples(0.8, 2000, 1)) == 2000


@pytest.mark.parametrize("conditioned", CASES)
def test_tree_texts_parse_to_their_marginals(conditioned):
    depth = None if conditioned == "extinct" else 4
    vals, texts = tree_marginal_samples(1.5, 150, 7, conditioned, depth, dump=True)
    assert len(vals) == len(texts) == 150
    assert [root_marginal(parse_tree(text)) for text in texts] == vals
    assert all(text.startswith("(v!") == (conditioned == "survive") for text in texts)
    assert tree_marginal_samples(1.5, 150, 7, conditioned, depth) == (vals, [])


def test_tree_marginal_samples_validate():
    for args in ((1.5, 10, 1, "dead", 3), (1.5, 10, 1, "none"), (1.5, 10, 1, "none", -1),
                 (1.5, -1, 1, "none", 3), (2.5, 10, 1, "none", 3)):
        with pytest.raises(ValueError):
            tree_marginal_samples(*args)


def test_survival_requires_supercritical():
    with pytest.raises(ValueError):
        tree_marginal_samples(0.9, 5, 1, "survive", 5)
    with pytest.raises(ValueError):
        survival_theta_population(0.9, 5, 100, seed=1)


@pytest.mark.parametrize("L", [0, -3])
def test_survival_depth_must_be_positive(L):
    with pytest.raises(ValueError, match=">= 1"):
        tree_marginal_samples(1.5, 5, 1, "survive", L)
    with pytest.raises(ValueError, match=">= 1"):
        survival_theta_population(1.5, L, 100, seed=1)


def test_survival_marks_reach_depth():
    # live nodes: the roots; every live node keeps a live child down to the
    # cut; live children hang only below live parents, before their dead siblings
    count, depth = 300, 5
    parent, _, sizes, alive, live = grow("survive", 1.5, count, seed=45, depth=depth)
    assert alive.all() and len(sizes) == depth + 1 and live.size == sum(sizes)
    assert live[:count].all()
    mark = live[count:]  # the live non-root nodes
    assert live[parent[mark]].all()
    above = sum(sizes[:-1])  # every node above the cut has a live child if it is live
    assert (np.bincount(parent[mark], minlength=live.size) >= 1)[:above][live[:above]].all()
    assert not (mark[1:] & ~mark[:-1] & (parent[1:] == parent[:-1])).any()


def test_survival_root_counts_match_rejection_oracle():
    # oracle: level-size chains of the unconditioned process, kept when the
    # tree still has nodes at generation 12
    d, L, kept_target = 1.5, 12, 100_000
    rng = substream(987, 0)
    kept = []
    while len(kept) < kept_target:
        z = rng.poisson(d, size=200_000)
        roots = z.copy()
        for _ in range(L - 1):
            z = rng.poisson(d * z)
        kept.extend(roots[z > 0].tolist())
    kept = np.array(kept[:kept_target])

    n_cond = 100_000
    parent, _, _, _, marks = grow("survive", d, n_cond, seed=988, depth=1)
    live = np.bincount(parent[marks[n_cond:]], minlength=n_cond)
    cond = np.bincount(parent, minlength=n_cond)

    hi = int(max(kept.max(), cond.max())) + 1
    p_rej = np.bincount(kept, minlength=hi) / kept.size
    p_con = np.bincount(cond, minlength=hi) / cond.size
    tv = 0.5 * np.abs(p_rej - p_con).sum()
    assert tv <= 0.02
    # mean surviving root offspring of the conditioned law is exactly d
    assert abs(live.mean() - d) <= 3 * live.std() / math.sqrt(live.size)


def test_survival_population_matches_exact_sampler():
    d, L = 1.5, 6
    theta = survival_theta_population(d, L, 30_000, seed=31)
    exact = [float(q) for q in tree_marginal_samples(d, 3000, 4000, "survive", L)[0]]
    a = Population(samples=psi(theta), kind=Kind.MU)
    b = Population(samples=np.array(exact), kind=Kind.MU)
    assert compare_distributions(a, b)["w1"] <= 0.03


def test_survival_population_interior():
    mu = psi(survival_theta_population(1.5, 30, 50_000, seed=77))
    assert mu.min() > 0.0 and mu.max() < 1.0


# -- probability of a fixed tree -------------------------------------------------


def test_tree_probability_isolated_root():
    assert tree_probability(TreeFormula(), 0.8) == pytest.approx(math.exp(-0.8), rel=1e-12)


def test_tree_probability_single_clause_tree():
    t = TreeFormula(children=((ClauseType(-1, 1), TreeFormula()),))
    assert tree_probability(t, 1.0) == pytest.approx(0.25 * math.exp(-2.0), rel=1e-12)


def test_tree_probability_multiplicity_needs_equal_subtrees():
    # two same-type children get the 1/2! correction only when their
    # subtrees are isomorphic
    ct, d = ClauseType(1, -1), 0.9
    twins = TreeFormula(children=((ct, TreeFormula()), (ct, TreeFormula())))
    assert tree_probability(twins, d) == pytest.approx(
        math.exp(-3 * d) * (d / 4) ** 2 / 2, rel=1e-12)
    chain = TreeFormula(children=((ct, TreeFormula()),))
    mixed = TreeFormula(children=((ct, TreeFormula()), (ct, chain)))
    assert tree_probability(mixed, d) == pytest.approx(
        math.exp(-4 * d) * (d / 4) ** 3, rel=1e-12)


def _expand(node) -> TreeFormula:
    """Copy of a (possibly shared) tree with every shared node copied."""
    return TreeFormula(children=tuple((ct, _expand(c)) for ct, c in node.children))


def test_tree_probability_shared_matches_expanded():
    # a shared TreeFormula is folded as it is; its expanded copy is the oracle
    for b in range(2, 17):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            t = construct_rational_tree(a, b)
            for d in (0.8, 1.5):
                assert from_tree_formula(t, d) is t
                shared = tree_probability(t, d)
                assert shared == pytest.approx(tree_probability(_expand(t), d), rel=1e-12)


def _count_nodes(node):
    return 1 + sum(_count_nodes(c) for _, c in node.children)


def _depth(node):
    return 1 + max((_depth(c) for _, c in node.children), default=0)


def _sample_shape_capped(rng, d, max_nodes, max_depth):
    """Sample the tree only far enough to decide equality with a target."""
    root = Node()
    frontier = [root]
    nodes = 1
    depth = 0
    while frontier:
        depth += 1
        if depth > max_depth + 1:
            return None
        nxt = []
        for node in frontier:
            counts = rng.poisson(d / 4.0, size=4)
            nodes += int(counts.sum())
            if nodes > max_nodes:
                return None
            for t, c in enumerate(counts):
                for _ in range(int(c)):
                    child = Node()
                    node.children.append((CLAUSE_TYPES[t], child))
                    nxt.append(child)
        frontier = nxt
    return root


def _canonical_form(root) -> tuple:
    """Nested sorted tuple of (clause type, child form): equal exactly for
    isomorphic typed trees."""
    return fold(root, lambda kids: tuple(sorted((tuple(ct), c) for ct, c in kids)))


def shape_frequency(target, d: float, n: int, seed: int) -> float:
    """Independent Monte Carlo oracle: fraction of sampled trees equal to target."""
    want = _canonical_form(target)
    cap_nodes = _count_nodes(target)
    cap_depth = _depth(target)
    rng = substream(seed, 0)
    hits = 0
    for _ in range(n):
        root = _sample_shape_capped(rng, d, cap_nodes, cap_depth)
        if root is not None and _canonical_form(root) == want:
            hits += 1
    return hits / n


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_tree_probability_against_frequency_oracle(seed):
    root = oracle_tree(substream(seed, 1), 0.8, "extinct")
    if _count_nodes(root) > 6:
        root = Node()
    p = tree_probability(root, 0.8)
    n = 200_000
    freq = shape_frequency(root, 0.8, n, seed=seed * 7)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(freq - p) <= 3 * se + 1e-9


# -- coupled increments -----------------------------------------------------------


def test_increments_vanish_without_offspring():
    stats = coupled_increment_stats(1e-6, 3, 2000, seed=2)
    assert all(v <= 1e-4 for _, v in stats)


def test_increment_ratios_bounded():
    stats = coupled_increment_stats(1.0, 6, 30_000, seed=9)
    means = [v for _, v in stats]
    ratios = [means[l] / means[l - 1] for l in range(1, 7)]
    assert all(r <= 0.55 for r in ratios)
    assert means[6] < means[0]


@pytest.mark.parametrize("d", [1.0, 1.5])
def test_increments_match_exact_sequence_oracle(d):
    # oracle: |phi| increments of the exact cut marginals of level-array
    # trees, an independent sampler and an exact integer recursion
    def phi_frac(q):
        return math.log(q.numerator) - math.log(q.denominator - q.numerator)

    forest = grow("none", d, 3000, seed=12, depth=4)
    cuts = np.array([[phi_frac(q) for q in row] for row in cut_marginals(forest, 3000, 4)])
    incs = np.abs(np.diff(cuts, axis=0)).T
    got = np.array([v for _, v in coupled_increment_stats(d, 3, 40_000, seed=12)])
    se = incs.std(axis=0) * math.sqrt(1 / 3000 + 1 / 40_000)
    assert np.all(np.abs(got - incs.mean(axis=0)) <= 4 * se)


def forest_theta_matrix_oracle(d, L, count, seed):
    """`_forest_theta_matrix` as a plain loop: the same draws, and every row
    from depth 2 on taken from log_clause_term per edge."""
    rng = substream(seed, 0x7F)
    top = L + 1
    sizes = [count]
    edges = []
    for _ in range(top):
        parent = poisson_owners(rng, d, sizes[-1])
        code = rng.integers(0, 4, size=parent.size, dtype=np.int8)
        edges.append((parent, (code & 1) * 2.0 - 1.0, (code >> 1) * 2.0 - 1.0))
        sizes.append(parent.size)
    theta = np.zeros((1, sizes[top]))
    for g in range(top - 1, -1, -1):
        parent, s, sp = edges[g]
        up = np.zeros((top - g + 1, sizes[g]))
        if parent.size:
            up[1] = -math.log(2.0) * np.bincount(parent, weights=s, minlength=sizes[g])
            for j in range(2, up.shape[0]):
                up[j] = np.bincount(parent, weights=s * log_clause_term(theta[j - 1], sp),
                                    minlength=sizes[g])
        theta = up
    return theta


@pytest.mark.parametrize("d", [1e-6, 0.5, 1.0, 1.5, 1.9])
def test_forest_theta_matrix_matches_oracle_bit_for_bit(d):
    for seed in range(3):
        # odd and even L run the two `up` buffers from opposite ends; the L = 6 budget
        # chunk is the size the gate and the benchmark run
        for L, count in ((2, 1), (3, 700), (6, 2000), (8, 300), (5, 900),
                         (6, _theta_chunk(d, 6))):
            got = _forest_theta_matrix(d, L, count, seed)
            want = forest_theta_matrix_oracle(d, L, count, seed)
            assert got.shape == want.shape == (L + 2, count)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            sums = _increment_chunk((d, L, count, seed))
            assert sums.tobytes() == np.abs(np.diff(want, axis=0)).sum(axis=1).tobytes()


def test_theta_chunks_follow_the_cell_budget():
    for d in (1e-6, *INCREMENT_DENSITIES):
        for L in (2, 6, 8):
            cells = sum(d**g * (L + 2 - g) for g in range(L + 2))
            chunk = _theta_chunk(d, L)
            assert chunk >= 1
            assert chunk == 1 or chunk * cells <= gwsim._THETA_CELLS < (chunk + 1) * cells
    assert [_theta_chunk(d, 6) for d in INCREMENT_DENSITIES] == [18714, 7281, 1989, 677]


def test_increment_stats_worker_invariant():
    # 12000 trees are three chunks of 5207 at d = 1.5, L = 4, the last one ragged
    assert _theta_chunk(1.5, 4) == 5207
    one = coupled_increment_stats(1.5, 4, 12_000, seed=13, workers=1)
    two = coupled_increment_stats(1.5, 4, 12_000, seed=13, workers=2)
    assert one == two


def test_increment_stats_validate():
    with pytest.raises(ValueError):
        coupled_increment_stats(1.0, 1, 100, seed=0)
    with pytest.raises(ValueError):
        coupled_increment_stats(1.0, 3, 0, seed=0)
    for d in (math.nan, -1.0, math.inf, 0.0, 2.5):
        with pytest.raises(ValueError, match=r"need d in \(0,2\), got"):
            coupled_increment_stats(d, 3, 100, seed=0)
