"""Formula generation, counting, satisfiability, and exact marginals."""

import io
import math
from fractions import Fraction
from itertools import cycle, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from twosatlab import (
    Formula,
    ResourceLimitError,
    SolutionStats,
    count_solutions,
    empirical_marginal_measure,
    exact_marginals,
    generate_formula,
    is_satisfiable,
    marginals_to_json,
    read_formula,
    write_formula,
)
from twosatlab import formula
from twosatlab.formula import _ELIM_WIDTH_CAP, COMPONENT_CAP

CONTRADICTION = Formula(
    n=2,
    clauses=[[1, 1, 2, 1], [1, 1, 2, -1], [1, -1, 2, 1], [1, -1, 2, -1]],
)


def test_clause_universe_n2():
    seen = set()
    for seed in range(40):
        f = generate_formula(2, 2.0, seed)
        for i, si, j, sj in f.clauses:
            assert {i, j} == {1, 2}
            key = (si, sj) if i < j else (sj, si)
            seen.add(key)
    assert len(seen) == 4


def test_generator_determinism():
    a = generate_formula(10, 1.0, seed=77)
    b = generate_formula(10, 1.0, seed=77)
    assert a.n == b.n and np.array_equal(a.clauses, b.clauses)
    c = generate_formula(10, 1.0, seed=78)
    assert not np.array_equal(a.clauses, c.clauses)


def test_generator_poisson_mean():
    # m ~ Poisson(dn/2); mean of 200 draws within 3*sqrt(500/200) of 500
    ms = [generate_formula(1000, 1.0, seed=s).m for s in range(200)]
    assert abs(np.mean(ms) - 500.0) <= 3.0 * math.sqrt(500.0 / 200.0)


def test_generator_validates():
    with pytest.raises(ValueError):
        generate_formula(1, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_formula(10, -0.5, seed=0)


def test_formula_invariants_enforced():
    # distinct variables first, then the index range, then the signs
    for rows, message in (
        ([[1, 1, 1, 1]], "distinct variables"),
        ([[5, 1, 5, 1]], "distinct variables"),  # i == j, and out of range too
        ([[1, 1, 3, 1]], "out of range"),
        ([[1, 1, 3, 2]], "out of range"),  # j == n + 1, and a bad sign too
        ([[0, 1, 2, 1]], "out of range"),
        ([[1, -2**63, 2, 1]], "signs"),  # abs overflows at -2**63
        ([[1, 1, 2, -2**63]], "signs"),
        ([[1, 2, 2, 1]], "signs"),
        ([[1, 0, 2, 1]], "signs"),
    ):
        with pytest.raises(ValueError, match=message):
            Formula(n=2, clauses=rows)
    assert Formula(n=2, clauses=[[1, 1, 2, -1], [2, -1, 1, 1]]).m == 2  # j == n
    assert Formula(n=0, clauses=np.empty((0, 4), dtype=np.int64)).m == 0


def test_count_empty_formula():
    stats = count_solutions(Formula(n=2, clauses=np.empty((0, 4), dtype=np.int64)))
    assert stats.count == 4
    assert stats.true_counts == [2, 2]


def test_count_single_clause():
    stats = count_solutions(Formula(n=2, clauses=[[1, 1, 2, 1]]))
    assert stats.count == 3
    assert stats.true_counts == [2, 2]
    assert stats.marginal(1) == Fraction(2, 3)


def test_count_contradiction():
    stats = count_solutions(CONTRADICTION)
    assert stats.count == 0
    assert stats.true_counts == [0, 0]


def test_count_cap_error():
    f = generate_formula(200, 1.5, seed=1)
    with pytest.raises(ResourceLimitError, match="cap"):
        count_solutions(f, cap=28)


@st.composite
def enumerable_formulas(draw, max_vars=10):
    """Formulas over at most max_vars variables, some in no clause: random
    clauses, some repeated with fresh signs, none at all, or all four
    clauses on one pair, which leave no solution."""
    n = draw(st.integers(0, max_vars), label="n")
    if n < 2:
        return Formula(n=n, clauses=np.empty((0, 4), dtype=np.int64))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    sign = st.sampled_from([-1, 1])
    clauses = [[i, draw(sign), j, draw(sign)]
               for i, j in draw(st.lists(pair, max_size=2 * n), label="pairs")]
    if clauses:
        picks = draw(st.lists(st.sampled_from(clauses), max_size=3), label="repeats")
        clauses += [[i, draw(sign), j, draw(sign)] for i, _, j, _ in picks]
    if draw(st.booleans(), label="contradiction"):
        i, j = draw(pair)
        clauses += [[i, si, j, sj] for si in (-1, 1) for sj in (-1, 1)]
    return Formula(n=n, clauses=np.array(clauses, dtype=np.int64).reshape(-1, 4))


def brute_force_stats(f: Formula) -> SolutionStats:
    """Solution count and true-counts over all 2^n assignments, one by one."""
    rows = f.clauses.tolist()
    count, true = 0, [0] * f.n
    for x in product((-1, 1), repeat=f.n):
        if all(si * x[i - 1] > 0 or sj * x[j - 1] > 0 for i, si, j, sj in rows):
            count += 1
            true = [t + (v > 0) for t, v in zip(true, x)]
    return SolutionStats(count=count, true_counts=true)


@pytest.mark.parametrize("block_bits", [formula._BLOCK_BITS, 2])
@settings(max_examples=150, deadline=None)
@given(enumerable_formulas())
@example(Formula(n=0, clauses=np.empty((0, 4), dtype=np.int64)))
@example(Formula(n=10, clauses=[[1, 1, 2, -1]]))
@example(CONTRADICTION)
def test_count_solutions_matches_brute_force(block_bits, f):
    # at 2 block bits every formula on more than two variables spans blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formula, "_BLOCK_BITS", block_bits)
        stats = count_solutions(f)
    assert stats == brute_force_stats(f)
    assert all(type(c) is int for c in [stats.count, *stats.true_counts])


def test_satisfiability_examples():
    assert is_satisfiable(Formula(n=3, clauses=np.empty((0, 4), dtype=np.int64)))
    assert not is_satisfiable(CONTRADICTION)


def test_satisfiability_matches_enumeration():
    for seed in range(120):
        f = generate_formula(12, 2.0, seed=seed)
        assert is_satisfiable(f) == (count_solutions(f).count > 0)


def _implication_edges(f):
    """(from, to) literal pairs of `is_satisfiable`'s graph, repeats included."""
    i, si, j, sj = f.clauses.T
    lit_i, lit_j = 2 * (i - 1) + (si < 0), 2 * (j - 1) + (sj < 0)
    return list(zip(np.r_[lit_i ^ 1, lit_j ^ 1].tolist(), np.r_[lit_j, lit_i].tolist()))


def test_satisfiability_with_repeated_implication_edges():
    # the graph must sum its repeated edges: the strong components search did
    # not return on a CSR that kept them
    twice = Formula(n=3, clauses=[[1, 1, 2, -1], [1, 1, 2, -1], [2, 1, 3, 1]])
    swapped = Formula(n=2, clauses=[[1, -1, 2, 1], [2, 1, 1, -1]])  # (j, sj, i, si)
    cyclic = generate_formula(40, 1.5, seed=11)
    edges = _implication_edges(cyclic)
    assert len(edges) - len(set(edges)) == 4
    doubled = []
    for seed, d in zip(range(60), cycle((1.0, 2.0, 3.0))):
        f = generate_formula(2 + seed % 11, d, seed=seed)
        doubled.append(Formula(n=f.n, clauses=np.repeat(f.clauses, 2, axis=0)))
    # 34 variables of `cyclic` are in clauses, past enumeration: elimination decides it
    assert is_satisfiable(cyclic) == (exact_marginals(cyclic) is not None)
    verdicts = [is_satisfiable(f) for f in [twice, swapped, *doubled]]
    assert verdicts == [count_solutions(f).count > 0 for f in [twice, swapped, *doubled]]
    assert verdicts[:2] == [True, True] and not all(verdicts)


def test_marginals_isolated_variable():
    f = Formula(n=3, clauses=[[1, 1, 2, 1]])
    marg = exact_marginals(f)
    assert marg[3] == Fraction(1, 2)
    assert marg[1] == marg[2] == Fraction(2, 3)


def test_marginals_disjoint_copies():
    f = Formula(n=4, clauses=[[1, 1, 2, 1], [3, 1, 4, 1]])
    marg = exact_marginals(f)
    assert all(marg[v] == Fraction(2, 3) for v in range(1, 5))


def test_marginals_unsat_marker():
    assert exact_marginals(CONTRADICTION) is None
    assert empirical_marginal_measure(CONTRADICTION) is None


def test_marginals_match_enumeration():
    # elimination path against the exhaustive oracle, satisfiable and not
    for seed in range(60):
        f = generate_formula(11, 1.8, seed=300 + seed)
        stats = count_solutions(f)
        marg = exact_marginals(f)
        if stats.count == 0:
            assert marg is None
        else:
            for v in range(1, f.n + 1):
                assert marg[v] == Fraction(stats.true_counts[v - 1], stats.count)


def test_component_independence():
    # marginals on a union of variable-disjoint blocks equal the blocks' own
    a = generate_formula(8, 1.2, seed=5)
    b = generate_formula(8, 1.2, seed=6)
    shifted = b.clauses.copy()
    shifted[:, 0] += 8
    shifted[:, 2] += 8
    merged = Formula(n=16, clauses=np.vstack([a.clauses, shifted]))
    ma, mb, mm = exact_marginals(a), exact_marginals(b), exact_marginals(merged)
    if ma is None or mb is None:
        assert mm is None
    else:
        for v in range(1, 9):
            assert mm[v] == ma[v]
            assert mm[v + 8] == mb[v]


# -- oracle: one full variable elimination per target variable ---------------
#
# An independent reference for exact_marginals: per component, min-degree
# elimination of every variable but the target, on numpy object-array
# factors, once for each target variable.


def _clause_factor(si: int, sj: int) -> np.ndarray:
    t = np.ones((2, 2), dtype=object)
    t[0 if si > 0 else 1, 0 if sj > 0 else 1] = 0
    return t


def _multiply(fa_scope, fa, fb_scope, fb):
    scope = tuple(sorted(set(fa_scope) | set(fb_scope)))

    def expand(s, tbl):
        shape = tuple(2 if v in s else 1 for v in scope)
        order = [s.index(v) for v in scope if v in s]
        return tbl.transpose(order).reshape(shape)
    return scope, expand(fa_scope, fa) * expand(fb_scope, fb)


def _eliminate_to_target(factors: list, target: int, width_cap: int) -> np.ndarray:
    """Sum out every variable except `target`; return the (2,) count vector."""
    live = [(tuple(s), t) for s, t in factors]
    remaining = set()
    for s, _ in live:
        remaining.update(s)
    remaining.discard(target)
    while remaining:
        best_v, best_scope = None, None
        neigh: dict[int, set] = {}
        for s, _ in live:
            for v in s:
                if v in remaining:
                    neigh.setdefault(v, set()).update(s)
        for v, nb in neigh.items():
            if best_scope is None or len(nb) < best_scope:
                best_v, best_scope = v, len(nb)
        bucket = [(s, t) for s, t in live if best_v in s]
        live = [(s, t) for s, t in live if best_v not in s]
        scope, tbl = bucket[0]
        for s, t in bucket[1:]:
            scope, tbl = _multiply(scope, tbl, s, t)
            if len(scope) > width_cap:
                raise ResourceLimitError(
                    f"elimination width {len(scope)} exceeds cap {width_cap}"
                )
        tbl = tbl.sum(axis=scope.index(best_v))
        scope = tuple(v for v in scope if v != best_v)
        live.append((scope, tbl))
        remaining.discard(best_v)
    scope, tbl = (target,), np.ones(2, dtype=object)
    for s, t in live:
        if s:
            scope, tbl = _multiply(scope, tbl, s, t)
        else:
            tbl = tbl * t[()]
    return tbl  # index 0: target = -1, index 1: target = +1


def oracle_marginals(f, component_cap=COMPONENT_CAP, width_cap=_ELIM_WIDTH_CAP):
    out = {v: Fraction(1, 2) for v in range(1, f.n + 1)}
    if f.m == 0:
        return out
    i, j = f.clauses[:, 0] - 1, f.clauses[:, 2] - 1
    g = coo_matrix((np.ones(f.m, dtype=np.int8), (i, j)), shape=(f.n, f.n))
    _, labels = connected_components(g, directed=False)
    order = np.argsort(labels[i], kind="stable")
    comp_of_clause = labels[i][order]
    bounds = np.searchsorted(comp_of_clause, np.unique(comp_of_clause), side="left")
    for rows in np.split(order, bounds[1:]):
        comp_clauses = f.clauses[rows]
        nvars = len(np.unique(comp_clauses[:, [0, 2]]))
        if nvars > component_cap:
            raise ResourceLimitError(
                f"component with {nvars} variables exceeds cap {component_cap}"
            )
        factors = []
        for ci, si, cj, sj in comp_clauses.tolist():
            if ci < cj:
                factors.append(((ci, cj), _clause_factor(si, sj)))
            else:
                factors.append(((cj, ci), _clause_factor(sj, si)))
        total = None
        for x in sorted({v for s, _ in factors for v in s}):
            vec = _eliminate_to_target(list(factors), x, width_cap)
            if total is None:
                total = int(vec[0]) + int(vec[1])
                if total == 0:
                    return None
            out[x] = Fraction(int(vec[1]), total)
    return out


def outcome(fn, *args, **kwargs):
    """The result, or the kind of resource limit hit ("component", "elimination")."""
    try:
        return fn(*args, **kwargs)
    except ResourceLimitError as exc:
        return "limit", str(exc).split()[0]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_marginals_match_both_oracles(data):
    copy = data.draw(st.booleans(), label="disconnected copy")
    n = data.draw(st.integers(2, 7 if copy else 14), label="n")
    d = data.draw(st.floats(0.3, 2.6), label="d")
    clauses = generate_formula(n, d, data.draw(st.integers(0, 2**32 - 1))).clauses
    if len(clauses):
        # clauses repeated on one variable pair, with fresh signs: 2-cycles
        picks = data.draw(st.lists(st.integers(0, len(clauses) - 1), max_size=4))
        extra = clauses[picks].copy()
        for row in extra:
            row[[1, 3]] = data.draw(st.tuples(st.sampled_from([-1, 1]),
                                              st.sampled_from([-1, 1])))
        clauses = np.vstack([clauses, extra])
    if copy:
        shifted = clauses.copy()
        shifted[:, [0, 2]] += n
        clauses, n = np.vstack([clauses, shifted]), 2 * n
    f = Formula(n=n, clauses=clauses)
    stats = count_solutions(f)
    want = None if stats.count == 0 else {v: stats.marginal(v) for v in range(1, n + 1)}
    assert exact_marginals(f) == want
    assert oracle_marginals(f) == want
    cap = data.draw(st.integers(1, n), label="component_cap")
    assert (outcome(exact_marginals, f, component_cap=cap)
            == outcome(oracle_marginals, f, component_cap=cap))


def test_marginals_match_oracle_on_gate_formulas():
    # criterion 1's 40-node oracle trees and one criterion 10 formula
    from twosatlab.acceptance import random_tree
    from twosatlab.treebp import to_formula
    from twosatlab.util import substream

    rng = substream(20240801, 1)
    for _ in range(20):
        f = to_formula(random_tree(rng, 40))
        assert exact_marginals(f) == oracle_marginals(f)
    f = generate_formula(5000, 0.8, seed=20240801 * 1000)
    assert exact_marginals(f) == oracle_marginals(f)


def _tree_edges(shape: str, size: int, attach) -> list[tuple[int, int]]:
    """(parent, child) node pairs of a tree on nodes 0..size-1, node 0 the root."""
    if shape == "star":
        return [(0, k) for k in range(1, size)]
    if shape == "path":
        return [(k - 1, k) for k in range(1, size)]
    return [(attach(k), k) for k in range(1, size)]  # uniform attachment


@st.composite
def forest_formulas(draw, max_vars=16):
    """A formula whose components are all trees: stars, paths, single clauses
    and random trees with mixed signs, on shuffled variables, some left free."""
    n = draw(st.integers(2, max_vars), label="n")
    perm = draw(st.permutations(range(1, n + 1)), label="variables")
    clauses, used = [], 0
    while n - used >= 2 and draw(st.booleans(), label="another tree"):
        size = draw(st.integers(2, n - used), label="size")
        shape = draw(st.sampled_from(["star", "path", "random"]), label="shape")
        edges = _tree_edges(shape, size, lambda k: draw(st.integers(0, k - 1)))
        for p, c in edges:
            s, sp = draw(st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])))
            clauses.append([perm[used + p], s, perm[used + c], sp])
        used += size
    return Formula(n=n, clauses=np.array(clauses, dtype=np.int64).reshape(-1, 4))


@settings(max_examples=300, deadline=None)
@given(forest_formulas())
def test_tree_kernel_matches_elimination_and_enumeration(f):
    marg = exact_marginals(f)
    assert marg == exact_marginals(f, eliminate_trees=True)
    stats = count_solutions(f)
    assert marg == {v: stats.marginal(v) for v in range(1, f.n + 1)}
    assert all(0 < q < 1 for q in marg.values())


def test_tree_kernel_past_the_recursion_limit():
    # 3,000 variables on a path, signs mixed, root at variable 1
    n = 3000
    rng = np.random.default_rng(3)
    signs = rng.choice([-1, 1], size=(n - 1, 2)).tolist()
    f = Formula(n=n, clauses=[[k, si, k + 1, sj] for k, (si, sj) in enumerate(signs, 1)])
    marg = exact_marginals(f, component_cap=n)
    assert marg == exact_marginals(f, component_cap=n, eliminate_trees=True)
    assert len(str(marg[n // 2].denominator)) > 100


def test_only_cyclic_components_reach_elimination(monkeypatch):
    seen, factors = [], {}
    kernel = formula._component_counts

    def counting(nb, rows, unary):
        seen.append((sorted(nb), sorted(unary)))
        factors.update(unary)
        return kernel(nb, rows, unary)

    monkeypatch.setattr(formula, "_component_counts", counting)
    forest = Formula(n=9, clauses=[[1, 1, 2, -1], [3, -1, 4, 1], [4, 1, 5, 1],
                                   [4, -1, 6, -1], [8, 1, 7, 1]])
    assert exact_marginals(forest) == exact_marginals(forest, eliminate_trees=True)
    # only the eliminate_trees call, whole components, every variable a bare
    # root whose unary factor is (1, 1)
    assert seen == [([1, 2], [1, 2]), ([3, 4, 5, 6], [3, 4, 5, 6]), ([7, 8], [7, 8])]
    assert set(factors.values()) == {(1, 1)}
    seen.clear()
    # the same forest with a 2-cycle on variables 9 and 10
    f = Formula(n=10, clauses=[*forest.clauses.tolist(), [9, 1, 10, 1], [10, -1, 9, 1]])
    marg = exact_marginals(f)
    assert (marg[9], marg[10]) == (1, Fraction(1, 2))  # x9 is forced
    assert seen == [([9, 10], [9, 10])] and factors[9] == factors[10] == (1, 1)
    seen.clear()
    # and a triangle 11-12-13 with a path 13-14-15 and a clause 11-16 hanging
    # off it: the pendant variables 14, 15 and 16 never reach elimination,
    # their trees enter as unary factors on the roots 11 and 13, and the
    # bare root 12 enters with (1, 1)
    g = Formula(n=16, clauses=[*f.clauses.tolist(), [11, 1, 12, 1], [12, -1, 13, 1],
                               [13, -1, 11, -1], [13, 1, 14, -1], [14, 1, 15, 1],
                               [16, -1, 11, 1]])
    marg = exact_marginals(g)
    assert seen == [([9, 10], [9, 10]), ([11, 12, 13], [11, 12, 13])]
    assert factors[12] == (1, 1) and (1, 1) not in (factors[11], factors[13])
    stats = count_solutions(g)
    assert marg == {v: stats.marginal(v) for v in range(1, g.n + 1)}


def _path(first: int, last: int, signs: list) -> list[list[int]]:
    """Clauses chaining first..last, cycling through the given sign pairs."""
    return [[v, si, v + 1, sj] for v, (si, sj) in zip(range(first, last), cycle(signs))]


def _against_both_oracles(f: Formula):
    marg = exact_marginals(f)
    stats = count_solutions(f)
    assert marg == (None if stats.count == 0 else
                    {v: stats.marginal(v) for v in range(1, f.n + 1)})
    assert marg == exact_marginals(f, eliminate_trees=True)
    return marg


def test_layered_pass_around_cut_back_cycles():
    # a star (a tree); then a path of depth 6 that a 2-cycle at its far end
    # makes cyclic, so the walk cuts 7 generations back off the shared lists;
    # then a deeper path and a single clause, both trees, and a free variable
    signs = [(1, -1), (-1, -1), (1, 1), (-1, 1)]
    clauses = [[1, 1, 2, -1], [1, -1, 3, 1], *_path(4, 10, signs), [9, 1, 10, 1],
               *_path(11, 18, signs[::-1]), [19, -1, 20, 1]]
    marg = _against_both_oracles(Formula(n=21, clauses=clauses))
    assert marg[21] == Fraction(1, 2)
    # the variables renumbered in reverse: the walk meets the cycle first
    rev = Formula(n=21, clauses=[[22 - i, si, 22 - j, sj] for i, si, j, sj in clauses])
    assert _against_both_oracles(rev) == {22 - v: q for v, q in marg.items()}


def test_layered_pass_unsat_cycle_after_deep_trees():
    # two deep paths, then every clause on the pair (14, 15): no solution
    clauses = [*_path(1, 7, [(1, -1), (-1, 1)]), *_path(8, 13, [(1, 1)]),
               [14, 1, 15, 1], [14, 1, 15, -1], [14, -1, 15, 1], [14, -1, 15, -1]]
    assert _against_both_oracles(Formula(n=16, clauses=clauses)) is None


@st.composite
def cored_formulas(draw, max_vars=14):
    """One cyclic component: a core (two clauses on one pair, a cycle, or a
    theta graph of three paths between two variables), some of its clauses
    repeated, random trees hung on it, every clause with drawn signs, the
    variables shuffled and one more variable left free."""
    shape = draw(st.sampled_from(["2-cycle", "cycle", "theta"]), label="core")
    if shape == "2-cycle":
        size, edges = 2, [(0, 1), (0, 1)]
    elif shape == "cycle":
        size = draw(st.integers(3, 6), label="length")
        edges = [(k, (k + 1) % size) for k in range(size)]
    else:  # paths of 1-3 clauses from node 0 to node 1
        size, edges = 2, []
        for length in draw(st.lists(st.integers(1, 3), min_size=3, max_size=3), label="paths"):
            path = [0, *range(size, size + length - 1), 1]
            size += length - 1
            edges += zip(path, path[1:])
    edges += draw(st.lists(st.sampled_from(edges), max_size=3), label="repeats")
    n = draw(st.integers(size, max_vars), label="variables")
    edges += [(draw(st.integers(0, k - 1), label="parent"), k) for k in range(size, n)]
    perm = draw(st.permutations(range(1, n + 2)), label="shuffle")
    signs = st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
    clauses = []
    for a, b in edges:
        s, sp = draw(signs, label="signs")
        clauses.append([perm[a], s, perm[b], sp])
    return Formula(n=n + 1, clauses=clauses)


@settings(max_examples=300, deadline=None)
@given(cored_formulas())
@example(Formula(n=6, clauses=[  # x1 forced true, trees on 1 and 2
    [1, 1, 2, 1], [1, 1, 2, -1], [2, 1, 3, -1], [3, 1, 4, 1], [1, -1, 5, 1], [5, -1, 6, -1]]))
@example(Formula(n=6, clauses=[  # x2 forced false by a triangle, trees on 1 and 3
    [1, 1, 2, -1], [1, -1, 2, -1], [2, 1, 3, 1], [3, -1, 1, 1], [3, 1, 4, 1], [1, 1, 5, -1],
    [5, 1, 6, 1]]))
@example(Formula(n=5, clauses=[  # no solution on the pair (1, 2), a path below 2
    *CONTRADICTION.clauses.tolist(), [2, 1, 3, 1], [3, -1, 4, 1], [4, 1, 5, -1]]))
def test_core_split_matches_elimination_and_enumeration(f):
    _against_both_oracles(f)


def test_verdict_agrees_with_is_satisfiable():
    # the strong-components pass of exact_marginals against scipy's search:
    # the 60 pinned formulas around the threshold, dense small ones, edge cases
    from twosatlab.formula import _satisfiable

    fs = [generate_formula(2000, d, seed) for d in (1.8, 2.0, 2.2) for seed in range(20)]
    fs += [generate_formula(40, 2.5, seed) for seed in range(20)]
    fs += [CONTRADICTION, Formula(n=3, clauses=np.empty((0, 4), dtype=np.int64))]
    verdicts = [_satisfiable(f.clauses.tolist()) for f in fs]
    assert verdicts == [is_satisfiable(f) for f in fs]
    assert sum(verdicts[:60]) == 53 and 0 < sum(verdicts[60:80]) < 20
    assert verdicts[80:] == [False, True]


def test_unsat_core_past_the_width_cap_returns_none(monkeypatch):
    # a clique on 6 variables whose pair (1, 2) carries all four clauses, and
    # a clause hung on it: its elimination needs width 6, over the cap 3, but
    # the verdict returns None before any elimination order exists
    clique = [[i, 1 - 2 * ((i + j) % 2), j, 1] for i in range(1, 7) for j in range(i + 1, 7)]
    f = Formula(n=7, clauses=[*clique, *CONTRADICTION.clauses.tolist(), [6, 1, 7, -1]])
    assert count_solutions(f).count == 0
    monkeypatch.setattr(formula, "_ELIM_WIDTH_CAP", 3)
    with pytest.raises(ResourceLimitError, match="elimination width 6 exceeds cap 3"):
        exact_marginals(f, eliminate_trees=True)

    def unreachable(*args):
        raise AssertionError("an unsatisfiable core reached elimination")

    monkeypatch.setattr(formula, "_component_counts", unreachable)
    assert exact_marginals(f) is None


@pytest.mark.parametrize("clauses, cap, message", [
    ([[1, 1, 2, -1]], 1, "component with 2 variables exceeds cap 1"),
    ([[1, 1, 2, -1], [2, 1, 3, 1]], 1, "component with 3 variables exceeds cap 1"),
    ([[1, 1, 2, -1], [2, 1, 3, 1]], 2, "component with 3 variables exceeds cap 2"),
    # a single clause within cap 2, then a path over it
    ([[1, 1, 2, 1], [3, 1, 4, -1], [4, 1, 5, 1]], 2, "component with 3 variables exceeds cap 2"),
    # a cyclic component over the cap raises before a later, larger tree
    ([[1, 1, 2, 1], [2, 1, 3, 1], [1, -1, 3, 1], *_path(4, 7, [(1, -1)])], 2,
     "component with 3 variables exceeds cap 2"),
])
def test_layered_pass_component_cap(clauses, cap, message):
    f = Formula(n=8, clauses=clauses)
    with pytest.raises(ResourceLimitError) as exc:
        exact_marginals(f, component_cap=cap)
    assert str(exc.value) == message
    assert outcome(oracle_marginals, f, component_cap=cap) == ("limit", "component")


def test_layered_pass_width_cap_on_a_cycle_after_trees(monkeypatch):
    # trees first, then a triangle of width 3; and a later over-cap tree
    # never comes into it, since the triangle raises first
    trees = [[1, 1, 2, -1], *_path(3, 7, [(1, 1), (-1, 1)])]
    triangle = [[8, 1, 9, 1], [9, 1, 10, 1], [8, -1, 10, 1]]
    f = Formula(n=16, clauses=[*trees, *triangle, *_path(11, 16, [(1, -1)])])
    monkeypatch.setattr(formula, "_ELIM_WIDTH_CAP", 2)
    with pytest.raises(ResourceLimitError) as exc:
        exact_marginals(f, component_cap=5)
    assert str(exc.value) == "elimination width 3 exceeds cap 2"
    monkeypatch.setattr(formula, "_ELIM_WIDTH_CAP", 3)
    with pytest.raises(ResourceLimitError) as exc:
        exact_marginals(f, component_cap=5)
    assert str(exc.value) == "component with 6 variables exceeds cap 5"
    assert exact_marginals(f) == oracle_marginals(f)


def test_marginals_forced_variable_on_a_two_cycle():
    # x1 is forced true, so messages hold zeros while Z > 0
    f = Formula(n=3, clauses=[[1, 1, 2, 1], [1, 1, 2, -1], [2, 1, 3, 1]])
    assert exact_marginals(f) == {1: Fraction(1), 2: Fraction(2, 3), 3: Fraction(2, 3)}


def test_width_cap_error(monkeypatch):
    triangle = Formula(n=3, clauses=[[1, 1, 2, 1], [2, 1, 3, 1], [1, -1, 3, 1]])
    monkeypatch.setattr(formula, "_ELIM_WIDTH_CAP", 2)
    with pytest.raises(ResourceLimitError, match="elimination width 3 exceeds cap 2"):
        exact_marginals(triangle)
    assert outcome(oracle_marginals, triangle, width_cap=2) == ("limit", "elimination")
    monkeypatch.setattr(formula, "_ELIM_WIDTH_CAP", 3)
    assert exact_marginals(triangle) == oracle_marginals(triangle)


def test_table_cell_budget_error(monkeypatch):
    # a 4-cycle, all of it core: no bucket is wider than 3, but its tables
    # hold 8 + 8 + 4 + 2 = 22 cells, over the budget 2^(3+1) that a width cap
    # of 3 allows (a tree component builds no tables at all)
    square = Formula(n=4, clauses=[[1, 1, 2, 1], [2, 1, 3, -1], [3, 1, 4, 1], [4, -1, 1, 1]])
    monkeypatch.setattr(formula, "_ELIM_WIDTH_CAP", 3)
    with pytest.raises(ResourceLimitError, match="22 cells exceed budget 16"):
        exact_marginals(square)
    monkeypatch.setattr(formula, "_ELIM_WIDTH_CAP", 4)
    assert exact_marginals(square) == oracle_marginals(square)
    monkeypatch.setattr(formula, "_ELIM_WIDTH_CAP", 3)
    # a triangle with a one-clause tail: whole, its tables hold 4 + 8 + 4 + 2
    # = 18 cells; the tail is peeled, and the core's 8 + 4 + 2 = 14 fit
    tailed = Formula(n=4, clauses=[[1, 1, 2, 1], [2, 1, 3, 1], [1, -1, 3, 1], [3, 1, 4, 1]])
    with pytest.raises(ResourceLimitError, match="18 cells exceed budget 16"):
        exact_marginals(tailed, eliminate_trees=True)
    assert exact_marginals(tailed) == oracle_marginals(tailed)


def test_component_cap_error():
    f = generate_formula(5000, 0.8, seed=3)
    with pytest.raises(ResourceLimitError, match="component"):
        exact_marginals(f, component_cap=10)


def test_tree_component_marginals_interior():
    # satisfiable tree-shaped components keep marginals strictly inside (0,1)
    from twosatlab.acceptance import random_tree
    from twosatlab.treebp import to_formula
    from twosatlab.util import substream

    rng = substream(99, 0)
    for _ in range(30):
        f = to_formula(random_tree(rng, 25))
        marg = exact_marginals(f)
        assert all(0 < q < 1 for q in marg.values())


def test_empirical_measure_examples():
    empty = Formula(n=3, clauses=np.empty((0, 4), dtype=np.int64))
    pop = empirical_marginal_measure(empty)
    assert np.array_equal(pop.samples, [0.5, 0.5, 0.5])
    one = Formula(n=2, clauses=[[1, 1, 2, 1]])
    pop = empirical_marginal_measure(one)
    assert np.allclose(pop.samples, 2.0 / 3.0)


def test_empirical_measure_mass_at_half():
    pop = empirical_marginal_measure(generate_formula(5000, 0.8, seed=11), d=0.8)
    assert pop.mass_at(0.5) >= math.exp(-0.8) - 0.02


def test_text_roundtrip():
    f = generate_formula(30, 1.5, seed=9)
    buf = io.StringIO()
    write_formula(f, buf)
    text = buf.getvalue()
    assert text.startswith(f"p 2sat 30 {f.m}\n")
    g = read_formula(io.StringIO(text))
    assert g.n == f.n and np.array_equal(g.clauses, f.clauses)
    buf2 = io.StringIO()
    write_formula(g, buf2)
    assert buf2.getvalue() == text


def test_text_literal_convention():
    f = read_formula(io.StringIO("p 2sat 7 1\n-3 7\n"))
    assert f.clauses.tolist() == [[3, -1, 7, 1]]


def test_text_rejects_text_after_clauses():
    with pytest.raises(ValueError, match="after the 1 clause lines"):
        read_formula(io.StringIO("p 2sat 3 1\n1 2\n1 -1\ngarbage\n"))
    with pytest.raises(ValueError):
        read_formula(io.StringIO("p 2sat 3 2\n1 2\n"))
    with pytest.raises(ValueError, match="negative"):
        read_formula(io.StringIO("p 2sat 3 -1\n"))
    f = read_formula(io.StringIO("p 2sat 3 1\n1 2\n\n  \n"))
    assert f.clauses.tolist() == [[1, 1, 2, 1]]


def test_marginal_json_shape():
    f = Formula(n=2, clauses=[[1, 1, 2, 1]])
    payload = marginals_to_json(f.n, exact_marginals(f))
    assert payload["n"] == 2
    assert payload["marginals"][0] == {"var": 1, "num": "2", "den": "3"}
    assert marginals_to_json(2, None)["unsat"] is True
