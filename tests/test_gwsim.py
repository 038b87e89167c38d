"""Branching-process samplers, conditioning, and the theta recursion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from twosatlab import (
    ClauseType,
    GWNode,
    GWTree,
    coupled_increment_stats,
    extinct_marginal_samples,
    extinction_probability,
    marginal_sequence,
    sample_extinct_conditioned,
    sample_survival_conditioned,
    sample_truncated,
    survival_theta_population,
    tree_probability,
    truncate,
)
from twosatlab.densityev import Kind, Population, poisson_owners
from twosatlab.analysis import compare_distributions
from twosatlab.gwsim import (
    _drop_trees,
    _forest_root_pairs,
    _forest_theta_matrix,
    _increment_chunk,
    _sample_extinct_forest,
    from_tree_formula,
)
from twosatlab.treebp import (
    CLAUSE_TYPES,
    construct_rational_tree,
    fold,
    format_tree,
    root_marginal,
)
from twosatlab.numerics import log_clause_term, psi
from twosatlab.util import substream

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
    info = extinction_probability(d, tol=1e-10)
    assert info.eta == pytest.approx(expected, abs=1e-8)
    assert abs(info.eta - math.exp(d * (info.eta - 1.0))) <= 1e-9
    assert info.zeta == pytest.approx(1.0 - expected, abs=1e-8)


def test_extinction_validates():
    with pytest.raises(ValueError):
        extinction_probability(0.0)
    with pytest.raises(ValueError):
        extinction_probability(2.0)


# -- unconditioned sampler -------------------------------------------------------


def test_truncated_level_zero():
    t = sample_truncated(1.0, 0, seed=1)
    assert t.root.children == [] and t.depth_limit == 0


def test_truncated_offspring_statistics():
    n = 30_000
    counts = np.array(
        [len(sample_truncated(1.0, 1, seed=s).root.children) for s in range(n)]
    )
    iso = np.mean(counts == 0)
    se_iso = math.sqrt(math.exp(-1.0) * (1 - math.exp(-1.0)) / n)
    assert abs(iso - math.exp(-1.0)) <= 3 * se_iso
    assert abs(counts.mean() - 1.0) <= 3 * counts.std() / math.sqrt(n)


def test_truncated_depth_respected():
    t = sample_truncated(1.8, 3, seed=5)

    def depth(node):
        return 1 + max((depth(c) for _, c in node.children), default=0)

    assert depth(t.root) <= 4


# -- marginal sequences ----------------------------------------------------------


def test_sequence_isolated_root():
    t = next(
        t
        for t in (sample_truncated(0.5, 4, seed=s) for s in range(100))
        if not t.root.children
    )
    assert marginal_sequence(t) == [Fraction(1, 2)] * 5


def test_sequence_single_negative_child():
    root = GWNode(children=[(ClauseType(-1, 1), GWNode())])
    t = GWTree(root=root, depth_limit=1, d=1.0)
    assert marginal_sequence(t) == [Fraction(1, 2), Fraction(1, 3)]


def test_sequence_matches_truncations():
    for seed in range(25):
        t = sample_truncated(1.4, 4, seed=seed)
        seq = marginal_sequence(t)
        assert seq[0] == Fraction(1, 2)
        for ell in range(5):
            cut = truncate(t, ell)
            assert root_marginal(cut.root) == seq[ell]
            assert marginal_sequence(cut) == seq[: ell + 1]


def test_truncate_deep_chain_is_iterative():
    # a 3000-deep chain: a recursive copy would overflow the interpreter stack
    root = GWNode()
    node = root
    for _ in range(3000):
        child = GWNode()
        node.children.append((ClauseType(-1, 1), child))
        node = child
    full = marginal_sequence(GWTree(root=root, depth_limit=3000, d=1.0))
    cut = truncate(GWTree(root=root, depth_limit=None, d=1.0), 1500)
    assert cut.depth_limit == 1500
    depth, node = 0, cut.root
    while node.children:
        (_, node), = node.children
        depth += 1
    assert depth == 1500
    assert marginal_sequence(cut) == full[:1501]


def test_sequence_decomposition_identity():
    # root marginal at depth l from the children's depth-(l-1) marginals,
    # split by the sign the root carries in each clause
    for seed in range(25):
        t = sample_truncated(1.5, 3, seed=1000 + seed)
        seq = marginal_sequence(t)
        for ell in (1, 2, 3):
            num = Fraction(1)
            den = Fraction(1)
            for (s, sp), child in t.root.children:
                sub = marginal_sequence(
                    GWTree(root=child, depth_limit=ell - 1, d=t.d)
                )[ell - 1]
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

    for seed in range(20):
        t = sample_truncated(1.2, 3, seed=2000 + seed)
        ell = 3
        theta_root = phi_frac(marginal_sequence(t)[ell])
        acc = 0.0
        for (s, sp), child in t.root.children:
            sub = marginal_sequence(GWTree(root=child, depth_limit=ell - 1, d=t.d))
            theta_child = phi_frac(sub[ell - 1])
            acc += s * math.log1p(math.exp(-sp * theta_child))
        assert theta_root == pytest.approx(acc, abs=1e-12)


def test_all_marginals_interior():
    for seed in range(40):
        t = sample_truncated(1.9, 3, seed=seed)
        for q in marginal_sequence(t):
            assert 0 < q < 1


# -- conditioned samplers --------------------------------------------------------


def test_extinct_subcritical_matches_unconditioned():
    n = 20_000
    counts = np.array(
        [len(sample_extinct_conditioned(0.8, seed=s).root.children) for s in range(n)]
    )
    lam = 0.8
    for k in range(4):
        p = math.exp(-lam) * lam**k / math.factorial(k)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(counts == k) - p) <= 4 * se


def test_extinct_supercritical_mean_offspring():
    n = 20_000
    counts = np.array(
        [len(sample_extinct_conditioned(1.5, seed=s).root.children) for s in range(n)]
    )
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


def _forest_nodes(levels, count):
    """GWNode trees rebuilt from the batched sampler's level arrays."""
    roots = [GWNode() for _ in range(count)]
    gen = roots
    for parent, types in levels:
        nxt = []
        for p, t in zip(parent.tolist(), types.tolist()):
            child = GWNode()
            gen[p].children.append((CLAUSE_TYPES[t], child))
            nxt.append(child)
        gen = nxt
    return roots


@pytest.mark.parametrize("d", [0.5, 0.8, 1.5, 1.9])
def test_forest_pairs_match_tree_bp(d):
    # the integer pair pass against Fraction BP on the same trees
    count = 2500
    lam = d * extinction_probability(d).eta
    levels, alive = _sample_extinct_forest(substream(41, int(10 * d)), lam, count, 10**9)
    roots = _forest_nodes(levels, count)
    assert alive.all() and any(r.children for r in roots)
    pairs = _forest_root_pairs(levels, count)
    assert not levels  # consumed
    assert [Fraction(a, b) for a, b in pairs] == [root_marginal(r) for r in roots]
    assert all(math.gcd(a, b) == 1 for a, b in pairs)


def test_forest_cap_drops_exactly_the_oversize_trees():
    # a one-tree forest draws the same numbers with or without a cap until
    # the cap stops it: a cap at the tree's true size keeps it, one less drops it
    for k in range(200):
        full, _ = _sample_extinct_forest(substream(42, k), 1.0, 1, 10**9)
        size = 1 + sum(len(parent) for parent, _ in full)
        for cap, kept in ((size, True), (size - 1, False)):
            _, alive = _sample_extinct_forest(substream(42, k), 1.0, 1, cap)
            assert alive.tolist() == [kept]
    # many trees at once: every kept tree is within the cap, and a dropped
    # tree leaves only its root in the levels
    cap = 30
    levels, alive = _sample_extinct_forest(substream(43, 0), 1.0, 2000, cap)
    roots = _forest_nodes(levels, 2000)
    assert 0 < (~alive).sum() < 2000
    assert all(_count_nodes(r) <= cap if ok else not r.children
               for r, ok in zip(roots, alive))


def test_drop_trees_leaves_the_kept_trees_intact():
    count = 300
    levels, _ = _sample_extinct_forest(substream(44, 0), 0.8, count, 10**9)
    full = [format_tree(r) for r in _forest_nodes(levels, count)]
    alive = substream(44, 1).random(count) < 0.7
    _drop_trees(levels, alive)
    kept = [format_tree(r) for r in _forest_nodes(levels, count)]
    assert kept == [text if ok else "(v)" for text, ok in zip(full, alive)]
    assert all(parent.dtype == np.int32 and parent.size for parent, _ in levels)


def test_extinct_marginals_oversize_share_matches_borel_law():
    # at d = 1 the tree size is Borel(1): P(size = n) = e^-n n^(n-1) / n!
    n, cap = 4000, 30
    vals = extinct_marginal_samples(1.0, n, seed=8, node_cap=cap)
    p = 1.0 - sum(math.exp(-k + (k - 1) * math.log(k) - math.lgamma(k + 1))
                  for k in range(1, cap + 1))
    share = sum(v is None for v in vals) / n
    assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / n)


def test_extinct_marginals_worker_invariant():
    one = extinct_marginal_samples(0.8, 500, seed=3, chunk=100, workers=1)
    two = extinct_marginal_samples(0.8, 500, seed=3, chunk=100, workers=2)
    assert one == two and len(one) == 500


def test_survival_requires_supercritical():
    with pytest.raises(ValueError):
        sample_survival_conditioned(0.9, 5, seed=1)


def test_survival_marks_reach_depth():
    for seed in range(30):
        t = sample_survival_conditioned(1.5, 5, seed=seed)
        assert t.root.surviving
        node, depth = t.root, 0
        while depth < 5:
            live = [c for _, c in node.children if c.surviving]
            assert live, "surviving node must keep a surviving child"
            node, depth = live[0], depth + 1


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
    info = extinction_probability(d)
    rng2 = substream(987, 1)
    live = rng2.poisson(d * info.zeta, size=n_cond)
    redo = live == 0
    while redo.any():
        live[redo] = rng2.poisson(d * info.zeta, size=int(redo.sum()))
        redo = live == 0
    cond = live + rng2.poisson(d * info.eta, size=n_cond)

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
    exact = [
        float(marginal_sequence(sample_survival_conditioned(d, L, seed=4000 + k))[-1])
        for k in range(3000)
    ]
    a = Population(samples=psi(theta), kind=Kind.MU)
    b = Population(samples=np.array(exact), kind=Kind.MU)
    assert compare_distributions(a, b)["w1"] <= 0.03


def test_survival_population_interior():
    mu = psi(survival_theta_population(1.5, 30, 50_000, seed=77))
    assert mu.min() > 0.0 and mu.max() < 1.0


# -- probability of a fixed tree -------------------------------------------------


def test_tree_probability_isolated_root():
    iso = GWTree(root=GWNode(), depth_limit=None, d=0.8)
    assert tree_probability(iso, 0.8) == pytest.approx(math.exp(-0.8), rel=1e-12)


def test_tree_probability_single_clause_tree():
    t = GWTree(
        root=GWNode(children=[(ClauseType(-1, 1), GWNode())]), depth_limit=None, d=1.0
    )
    assert tree_probability(t, 1.0) == pytest.approx(0.25 * math.exp(-2.0), rel=1e-12)


def test_tree_probability_multiplicity_needs_equal_subtrees():
    # two same-type children get the 1/2! correction only when their
    # subtrees are isomorphic
    ct, d = ClauseType(1, -1), 0.9
    twins = GWNode(children=[(ct, GWNode()), (ct, GWNode())])
    assert tree_probability(GWTree(root=twins, depth_limit=None, d=d), d) == pytest.approx(
        math.exp(-3 * d) * (d / 4) ** 2 / 2, rel=1e-12)
    mixed = GWNode(children=[(ct, GWNode()), (ct, GWNode(children=[(ct, GWNode())]))])
    assert tree_probability(GWTree(root=mixed, depth_limit=None, d=d), d) == pytest.approx(
        math.exp(-4 * d) * (d / 4) ** 3, rel=1e-12)


def test_tree_probability_rejects_truncated():
    with pytest.raises(ValueError):
        tree_probability(sample_truncated(1.0, 2, seed=1), 1.0)


def _expand(node) -> GWNode:
    """Copy of a (possibly shared) tree with every shared node copied."""
    return GWNode(children=[(ct, _expand(c)) for ct, c in node.children])


def test_tree_probability_shared_matches_expanded():
    # a shared TreeFormula is folded as it is; its expanded copy is the oracle
    for b in range(2, 17):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            t = construct_rational_tree(a, b)
            for d in (0.8, 1.5):
                assert from_tree_formula(t, d).root is t
                shared = tree_probability(from_tree_formula(t, d), d)
                copied = GWTree(root=_expand(t), depth_limit=None, d=d)
                assert shared == pytest.approx(tree_probability(copied, d), rel=1e-12)


def _count_nodes(node):
    return 1 + sum(_count_nodes(c) for _, c in node.children)


def _depth(node):
    return 1 + max((_depth(c) for _, c in node.children), default=0)


def _sample_shape_capped(rng, d, max_nodes, max_depth):
    """Sample the tree only far enough to decide equality with a target."""
    from twosatlab import CLAUSE_TYPES

    root = GWNode()
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
                    child = GWNode()
                    node.children.append((CLAUSE_TYPES[t], child))
                    nxt.append(child)
        frontier = nxt
    return root


def _canonical_form(root) -> tuple:
    """Nested sorted tuple of (clause type, child form): equal exactly for
    isomorphic typed trees."""
    return fold(root, lambda kids: tuple(sorted((tuple(ct), c) for ct, c in kids)))


def shape_frequency(target: GWTree, d: float, n: int, seed: int) -> float:
    """Independent Monte Carlo oracle: fraction of sampled trees equal to target."""
    want = _canonical_form(target.root)
    cap_nodes = _count_nodes(target.root)
    cap_depth = _depth(target.root)
    rng = substream(seed, 0)
    hits = 0
    for _ in range(n):
        root = _sample_shape_capped(rng, d, cap_nodes, cap_depth)
        if root is not None and _canonical_form(root) == want:
            hits += 1
    return hits / n


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_tree_probability_against_frequency_oracle(seed):
    t = sample_extinct_conditioned(0.8, seed=seed)
    if _count_nodes(t.root) > 6:
        t = GWTree(root=GWNode(), depth_limit=None, d=0.8)
    complete = GWTree(root=t.root, depth_limit=None, d=0.8)
    p = tree_probability(complete, 0.8)
    n = 200_000
    freq = shape_frequency(complete, 0.8, n, seed=seed * 7)
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
    # oracle: |phi| increments of the exact marginal sequences of node-object
    # trees, an independent sampler and an exact Fraction recursion
    def phi_frac(q):
        return math.log(q.numerator) - math.log(q.denominator - q.numerator)

    incs = np.array([
        np.abs(np.diff([phi_frac(q) for q in marginal_sequence(sample_truncated(d, 4, k))]))
        for k in range(3000)
    ])
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
        for L, count in ((2, 1), (3, 700), (6, 2000), (8, 300)):
            got = _forest_theta_matrix(d, L, count, seed)
            want = forest_theta_matrix_oracle(d, L, count, seed)
            assert got.shape == want.shape == (L + 2, count)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            sums = _increment_chunk((d, L, count, seed))
            assert sums.tobytes() == np.abs(np.diff(want, axis=0)).sum(axis=1).tobytes()


def test_increment_stats_worker_invariant():
    one = coupled_increment_stats(1.5, 4, 3000, seed=13, chunk=700, workers=1)
    two = coupled_increment_stats(1.5, 4, 3000, seed=13, chunk=700, workers=2)
    assert one == two


def test_increment_stats_validate():
    with pytest.raises(ValueError):
        coupled_increment_stats(1.0, 1, 100, seed=0)
    with pytest.raises(ValueError):
        coupled_increment_stats(1.0, 3, 0, seed=0)
