"""Five-type Galton-Watson trees behind the limiting 2-SAT marginal law.

One variable type and four clause types (s, s'): a variable spawns an
independent Poisson(d/4) pack of clause children of each type, and every
clause carries exactly one variable child. The survival probability of the
process matches the single-type Poisson(d) tree, so the extinction
probability eta solves eta = exp(d*(eta-1)).

Conditioning is realized exactly through the eta-decomposition: an
extinction-conditioned variable spawns Poisson(d*eta) children, all dead; a
survival-conditioned variable spawns Poisson(d*(1-eta)) surviving children
conditioned to be at least one, plus an independent Poisson(d*eta) pack of
dead children. Clause types and signs stay uniform and independent of the
marks, which only depend on counts.

Exact marginals of sampled trees (`tree_marginal_samples`, and its extinct
case `extinct_marginal_samples`) never build node objects: each chunk grows
its whole forest one generation at a time as flat parent/clause-type arrays,
with a live mark per node under survival conditioning, cut at a depth
limit, then folds the generations bottom-up into reduced integer pairs with
`treebp.fold_factors`, the upward step of `formula`'s tree kernel too. The
same arrays give the text form of every tree. A tree with more than
node_cap nodes leaves the frontier as soon as it passes the cap and comes
back as None; tree sizes are tracked only once the chunk's node total
passes the cap, so until then a generation costs just its draws.

The float theta recursions (`coupled_increment_stats`,
`survival_theta_population`) draw their Poisson packs Poissonized
(`densityev.poisson_owners`); the survival population gathers its clause
terms from tables, and the forests need ascending parents.

The probability of a fixed tree shape (`tree_probability`) is one
`treebp.fold`, memoised by node identity, so it takes shared `TreeFormula`
trees as they are, without expanding them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import numpy as np

from .densityev import (clause_table, poisson_owners, resample_log_terms, split_packs,
                        zero_truncated_owners)
from .treebp import CLAUSE_TYPES, EDGE_TEXT, TreeFormula, fold, fold_factors, product_pairs
from .util import chunk_sizes, parallel_map, subseed, substream

_NODE_CAP = 20_000_000


@dataclass(frozen=True)
class ExtinctionInfo:
    d: float
    eta: float
    zeta: float


@lru_cache
def extinction_probability(d: float, tol: float = 1e-12) -> ExtinctionInfo:
    """Smallest fixed point of eta -> exp(d*(eta-1)) in (0,1].

    Equals 1 exactly for d <= 1; for d > 1 monotone iteration from 0
    converges geometrically at rate d*eta < 1, and the stopping rule turns
    the step size into a true-error bound via the geometric tail. Memoised
    per (d, tol): the samplers ask once per call, and the result is frozen.
    """
    if not 0 < d < 2:
        raise ValueError(f"need d in (0,2), got {d}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if d <= 1.0:
        return ExtinctionInfo(d=d, eta=1.0, zeta=0.0)
    eta = 0.0
    for _ in range(1_000_000):
        nxt = math.exp(d * (eta - 1.0))
        rate = min(d * nxt, 0.999999)
        if abs(nxt - eta) * rate / (1.0 - rate) <= tol:
            eta = nxt
            break
        eta = nxt
    return ExtinctionInfo(d=d, eta=eta, zeta=1.0 - eta)


def from_tree_formula(t: TreeFormula, d: float) -> TreeFormula:
    """`t` itself: `tree_probability` takes any tree node. Kept for callers
    that still build a shape first, such as benchmarks/run.py."""
    return t


# -- probability of a fixed finite tree ---------------------------------------


def tree_probability(t, d: float) -> float:
    """P(the Galton-Watson tree equals t) as an unordered typed rooted tree;
    works on any node with `.children`.

    Per variable node and clause type, Poisson(d/4) offspring probability
    times the multinomial correction for repeated child isomorphism
    classes; the whole product collapses to
    exp(-d*V) * (d/4)^(V-1) / prod(multiplicities!). One fold carries each
    subtree's isomorphism class, node count and log multiplicity, so a
    shared TreeFormula is never expanded.
    """
    classes: dict[tuple, int] = {}  # isomorphism class of each subtree shape

    def combine(kids):  # kids: (clause type, (class, nodes, log multiplicity))
        keys = sorted((ct, cls) for ct, (cls, _, _) in kids)
        log_mult = sum(lm for _, (_, _, lm) in kids)
        log_mult += sum(math.lgamma(m + 1) for m in Counter(keys).values())
        cls = classes.setdefault(tuple(keys), len(classes))
        return cls, 1 + sum(n for _, (_, n, _) in kids), log_mult

    _, n_nodes, log_mult = fold(t, combine)
    logp = -d * n_nodes + (n_nodes - 1) * math.log(d / 4.0) - log_mult
    return math.exp(logp)


# -- batched theta recursions ---------------------------------------------------


def _forest_theta_matrix(d: float, L: int, count: int, seed: int) -> np.ndarray:
    """Root theta values of `count` independent trees at all depths 0..L+1.

    Samples the forest level by level as flat arrays, each level's offspring
    a Poissonized pack with a 2-bit sign code (s, s') per edge, then runs the
    log-likelihood recursion bottom-up, vectorized across the whole level.
    Row l of a level holds its nodes' theta at cut depth l; the depth-1 row
    needs no transcendental. Column j of the result is tree j at every depth
    of one realization, which couples successive depths.
    """
    rng = substream(seed, 0x7F)
    top = L + 1
    sizes = [count]
    edges = []  # per generation: (parent_idx, sign code of each edge)
    for _ in range(top):
        parent = poisson_owners(rng, d, sizes[-1])
        edges.append((parent, rng.integers(0, 4, size=parent.size, dtype=np.int8)))
        sizes.append(parent.size)

    theta = np.zeros((1, sizes[top]))
    for g in range(top - 1, -1, -1):
        parent, code = edges[g]
        up = np.zeros((top - g + 1, sizes[g]))
        if parent.size:
            s = (code & 1) * 2.0 - 1.0
            # cut depth 1 sees every child at theta 0, where the term is -log 2
            up[1] = -math.log(2.0) * np.bincount(parent, weights=s, minlength=sizes[g])
        if parent.size and up.shape[0] > 2:
            neg_sp, neg_s = 1.0 - (code >> 1) * 2.0, -s
            for j in range(2, up.shape[0]):
                # s * clause term of (theta, s') by `clause_table`'s float operations,
                # with fewer fresh temporaries: new pages cost more than the arithmetic
                x = np.maximum(neg_sp * theta[j - 1], 0.0)
                x += np.log1p(np.exp(-np.abs(theta[j - 1])))
                x *= neg_s
                up[j] = np.bincount(parent, weights=x, minlength=sizes[g])
        theta = up
    return theta  # shape (L+2, count)


def _increment_chunk(args) -> np.ndarray:
    d, L, count, seed = args
    theta = _forest_theta_matrix(d, L, count, seed)
    # row by row: small temporaries reuse freed memory instead of faulting in fresh pages
    return np.array([np.abs(theta[l + 1] - theta[l]).sum() for l in range(L + 1)])


def coupled_increment_stats(
    d: float,
    L: int,
    N: int,
    seed: int,
    chunk: int = 4096,
    workers: int | None = None,
) -> list[tuple[int, float]]:
    """Mean |theta^(l+1) - theta^(l)| over N independent trees, l = 0..L.

    Each tree is truncated at depth 2(L+1) and all its truncation-depth
    marginals come from the same realization, so successive increments
    measure the one-step contraction of the recursion.
    """
    if L < 2:
        raise ValueError("L must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    specs = [
        (d, L, c, subseed(seed, 0x70, k))
        for k, c in enumerate(chunk_sizes(N, chunk))
    ]
    sums = sum(parallel_map(_increment_chunk, specs, workers=workers))
    return [(l, float(sums[l] / N)) for l in range(L + 1)]


def survival_theta_population(d: float, L: int, size: int, seed: int) -> np.ndarray:
    """Population-dynamics theta samples conditioned on survival, depth L.

    Evolves the extinct-conditioned and survival-conditioned laws jointly:
    a surviving node aggregates a zero-truncated Poisson(d*zeta) pack of
    surviving subtrees and an independent Poisson(d*eta) pack of dead ones.
    Cost is size * L draws, independent of the (enormous) trees the exact
    per-sample construction would have to expand; one clause table over
    [fin | inf] serves all terms of a generation.
    """
    if not 1 < d < 2:
        raise ValueError(f"survival conditioning needs d in (1,2), got {d}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    info = extinction_probability(d)
    rng = substream(seed, 0x5C)
    fin_inf = np.zeros((2, size))
    for _ in range(L):
        # outputs [fin | inf]; the dead packs of both read fin entries; r holds a
        # live term's inf key and its sign bit
        table = clause_table(fin_inf).ravel()
        slot, entry = split_packs(rng, table[:2 * size], d * info.eta, 2 * size)
        live = zero_truncated_owners(rng, d * info.zeta, size)
        r = rng.integers(0, 4 * size, size=live.size)
        slot = np.concatenate([slot, (r & 1) * (2 * size) + size + live])
        entry = np.concatenate([entry, table[2 * size:].take(r >> 1)])
        fin_inf = resample_log_terms(slot, entry, 2 * size).reshape(2, size)
    return fin_inf[1]


# -- level-array forests ---------------------------------------------------------


def _grow_forest(rng, count: int, lam: float, node_cap: int, depth: int | None = None,
                 live_lam: float | None = None):
    """Grow `count` independent trees together, a generation at a time.

    Every node gets a Poisson(lam) pack of children. With live_lam the roots
    are live, and a live node first gets a zero-truncated Poisson(live_lam)
    pack of live children. Growth stops after `depth` generations, or when
    no node is left (depth None).

    Returns (levels, alive, marks). levels[g-1] = (parent, types) describes
    variable generation g >= 1: node i hangs below node parent[i] of
    generation g-1 (the roots are generation 0), through clause type
    CLAUSE_TYPES[types[i]]. Parents ascend, so siblings are contiguous, live
    ones first. marks[g-1] flags the live nodes of generation g; marks is
    None without live_lam. alive[k] is False exactly when tree k has more
    than node_cap nodes; such a tree leaves the frontier in the generation
    that takes it over the cap, and `_drop_trees` then removes its nodes
    below the root, so the pair pass spends no time on them.
    """
    live = None if live_lam is None else np.ones(count, dtype=bool)
    n, total = count, count  # frontier nodes, nodes grown so far
    tree = size = None  # frontier trees and tree sizes, kept once total > node_cap
    levels, marks = [], None if live is None else []
    while n and (depth is None or len(levels) < depth):
        kids = rng.poisson(lam, size=n)
        if live is not None:
            owners = np.flatnonzero(live)[zero_truncated_owners(rng, live_lam, int(live.sum()))]
            n_live = np.bincount(owners, minlength=n)
            kids += n_live
        parent = np.arange(n, dtype=np.int32).repeat(kids)
        if not parent.size:  # no child anywhere; the skipped empty draws take no bits
            break
        types = rng.integers(0, 4, size=parent.size, dtype=np.int8)
        if live is not None:  # the first n_live[p] children of node p are live
            live = np.arange(parent.size) < (np.cumsum(kids) - kids + n_live)[parent]
        total += parent.size
        if total > node_cap:  # before, no tree can be over the cap
            if tree is None:
                tree, size = np.arange(count), np.ones(count, dtype=np.int64)
                for above, _ in levels:
                    tree = tree[above]
                    size += np.bincount(tree, minlength=count)
            tree = tree[parent]
            size += np.bincount(tree, minlength=count)
            keep = (size <= node_cap)[tree]
            if not keep.all():
                parent, types, tree = parent[keep], types[keep], tree[keep]
                live = None if live is None else live[keep]
        if parent.size:
            levels.append((parent, types))
            if live is not None:
                marks.append(live)
        n = parent.size
    alive = np.full(count, node_cap >= 1) if size is None else size <= node_cap
    if not alive.all():
        _drop_trees(levels, alive, marks)
    return levels, alive, marks


def _drop_trees(levels, alive, marks) -> None:
    """Remove from `levels` and `marks` (None without live marks), in place,
    every node below the root of a tree k with alive[k] False; the other
    trees keep their shape and child order."""
    tree = np.arange(alive.size)
    index = tree  # new position of each kept node of the generation above
    for g, (parent, types) in enumerate(levels):
        tree = tree[parent]
        keep = alive[tree]
        if not keep.any():  # no kept tree reaches this deep
            del levels[g:]
            if marks is not None:
                del marks[g:]
            return
        levels[g] = (index[parent[keep]].astype(np.int32), types[keep])
        if marks is not None:
            marks[g] = marks[g][keep]
        index = np.cumsum(keep) - 1


def _forest_texts(levels, marks, count: int) -> list[str]:
    """`treebp.format_tree` text of each of `count` trees of a sampled forest.

    Built bottom-up from the level arrays, so depth costs no recursion. With
    marks, a "!" after the v flags every live node, the roots included.
    """
    edges = [EDGE_TEXT[ct] for ct in CLAUSE_TYPES]
    flags = None if marks is None else [np.ones(count, dtype=bool), *marks]
    sizes = [count] + [len(parent) for parent, _ in levels]
    inner = [""] * sizes[-1]  # the children's text of each node
    for g in range(len(levels), -1, -1):
        heads = (["(v"] * sizes[g] if flags is None
                 else ["(v!" if f else "(v" for f in flags[g].tolist()])
        texts = [head + body + ")" for head, body in zip(heads, inner)]
        if g:
            parent, types = levels[g - 1]
            below = zip(map(edges.__getitem__, types.tolist()), texts)
            inner = ["".join(edge + text for edge, text in islice(below, k))
                     for k in np.bincount(parent, minlength=sizes[g - 1]).tolist()]
    return texts


def _forest_root_pairs(levels, count: int) -> list[tuple[int, int]]:
    """Exact root marginal (a, b) of each of `count` trees of a sampled forest.

    Folds the generations bottom-up with `treebp.fold_factors`; a node without
    children is (1, 2). Consumes `levels`, freeing each generation once folded.
    """
    vals = [(1, 2)] * (len(levels[-1][0]) if levels else count)
    while levels:
        parent, types = levels.pop()
        n_up = len(levels[-1][0]) if levels else count
        prods = [[1] * n_up for _ in range(4)]
        fold_factors(prods, parent.tolist(), types.tolist(), vals)
        vals = product_pairs(prods)
    return vals


_FOREST_TAGS = {"extinct": 0x6D, "none": 0x6A, "survive": 0x6C}


def _forest_chunk(args) -> tuple[list[Fraction | None], list[str]]:
    tag, lam, live_lam, depth, count, seed, node_cap, dump = args
    levels, alive, marks = _grow_forest(substream(seed, tag), count, lam, node_cap, depth,
                                        live_lam)
    texts = _forest_texts(levels, marks, count) if dump else []
    pairs = _forest_root_pairs(levels, count)
    return [Fraction(a, b) if ok else None for (a, b), ok in zip(pairs, alive.tolist())], texts


def tree_marginal_samples(
    d: float,
    n: int,
    seed: int,
    conditioned: str = "extinct",
    depth: int | None = None,
    chunk: int = 2000,
    workers: int | None = None,
    node_cap: int = _NODE_CAP,
    dump: bool = False,
) -> tuple[list[Fraction | None], list[str]]:
    """Exact rational root marginals of n sampled trees, and their texts.

    `conditioned` picks the law: "extinct" trees have Poisson(d*eta) packs,
    "none" trees Poisson(d) packs, and "survive" trees give a live node a
    zero-truncated Poisson(d*zeta) pack of live children and every node a
    Poisson(d*eta) pack of dead ones. Each tree is cut `depth` variable
    generations below its root; only extinct trees may stay complete
    (depth None). A tree that outgrows node_cap comes back as None. With
    dump, the second list holds each tree's `treebp.format_tree` text, "!"
    marking live nodes; otherwise it is empty. The results depend on seed
    and chunk, never on workers.
    """
    if conditioned not in _FOREST_TAGS:
        raise ValueError(f"conditioned must be one of {sorted(_FOREST_TAGS)}, got {conditioned!r}")
    if conditioned == "survive" and not 1 < d < 2:
        raise ValueError(f"survival conditioning needs d in (1,2), got {d}")
    if depth is None and conditioned != "extinct":
        raise ValueError(f"{conditioned!r} trees need a depth")
    min_depth = 1 if conditioned == "survive" else 0
    if depth is not None and depth < min_depth:
        raise ValueError(f"depth must be >= {min_depth}, got {depth}")
    info = extinction_probability(d)
    lam = d if conditioned == "none" else d * info.eta
    live_lam = d * info.zeta if conditioned == "survive" else None
    specs = [
        (_FOREST_TAGS[conditioned], lam, live_lam, depth, c,
         subseed(seed, 0x71, k), node_cap, dump)
        for k, c in enumerate(chunk_sizes(n, chunk))
    ]
    values: list[Fraction | None] = []
    texts: list[str] = []
    for part, lines in parallel_map(_forest_chunk, specs, workers=workers):
        values.extend(part)
        texts.extend(lines)
    return values, texts


def extinct_marginal_samples(
    d: float,
    n: int,
    seed: int,
    chunk: int = 2000,
    workers: int | None = None,
    node_cap: int = _NODE_CAP,
) -> list[Fraction | None]:
    """Exact rational root marginals of n extinction-conditioned trees.

    Trees that outgrow node_cap come back as None so callers can count them
    without biasing atom-mass estimates upward; with the default cap this
    never happens away from d = 1.
    """
    return tree_marginal_samples(d, n, seed, chunk=chunk, workers=workers,
                                 node_cap=node_cap)[0]
