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

Bulk exact marginals (`extinct_marginal_samples`) never build node objects:
each chunk grows its whole forest of extinction-conditioned trees one
generation at a time as flat parent/clause-type arrays, then folds the
generations bottom-up into reduced integer pairs with `treebp.bp_pair`.
A tree with more than node_cap nodes leaves the frontier as soon as it
passes the cap and comes back as None.

The float theta recursions (`coupled_increment_stats`,
`survival_theta_population`) draw their Poisson packs Poissonized
(`densityev.poisson_owners`); only the zero-truncated pack of surviving
children is drawn per node, and the extinct forest needs ascending parents.

Exact values of a single node-object tree (`marginal_sequence`,
`tree_probability`) are each one `treebp.fold`, memoised by node identity,
so they take shared `TreeFormula` trees as they are, without expanding them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .densityev import poisson_owners, random_signs, resample_log_terms
from .numerics import log_clause_term
from .treebp import CLAUSE_TYPES, TreeFormula, bp_pair, fold
from .util import ResourceLimitError, chunk_sizes, parallel_map, substream

_NODE_CAP = 20_000_000


class GWNode:
    """Variable node; children are (clause type, child node) pairs."""

    __slots__ = ("children", "surviving")

    def __init__(self, children=None, surviving=None):
        self.children = children if children is not None else []
        self.surviving = surviving


@dataclass(frozen=True)
class GWTree:
    """A sampled tree; depth_limit counts variable generations (None=complete).
    The root is any node with `.children`: a GWNode or a TreeFormula."""

    root: GWNode | TreeFormula
    depth_limit: int | None
    d: float
    conditioned: str = "none"


@dataclass(frozen=True)
class ExtinctionInfo:
    d: float
    eta: float
    zeta: float


def extinction_probability(d: float, tol: float = 1e-12) -> ExtinctionInfo:
    """Smallest fixed point of eta -> exp(d*(eta-1)) in (0,1].

    Equals 1 exactly for d <= 1; for d > 1 monotone iteration from 0
    converges geometrically at rate d*eta < 1, and the stopping rule turns
    the step size into a true-error bound via the geometric tail.
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


# -- samplers ------------------------------------------------------------------


def _uniform_types(rng, k: int):
    return [CLAUSE_TYPES[t] for t in rng.integers(0, 4, size=k)]


def sample_truncated(d: float, L: int, seed: int) -> GWTree:
    """Unconditioned tree truncated at variable generation L (depth 2L)."""
    if L < 0:
        raise ValueError("L must be >= 0")
    rng = substream(seed, 0x6A)
    root = GWNode()
    frontier = [root]
    nodes = 1
    for _ in range(L):
        nxt = []
        for node in frontier:
            counts = rng.poisson(d / 4.0, size=4)
            for t, c in enumerate(counts):
                for _ in range(int(c)):
                    child = GWNode()
                    node.children.append((CLAUSE_TYPES[t], child))
                    nxt.append(child)
        nodes += len(nxt)
        if nodes > _NODE_CAP:
            raise ResourceLimitError(f"tree grew past {_NODE_CAP} nodes")
        frontier = nxt
    return GWTree(root=root, depth_limit=L, d=d)


def sample_extinct_conditioned(
    d: float, seed: int, depth_limit: int | None = None
) -> GWTree:
    """Tree conditioned on extinction: complete, finite, Poisson(d*eta) offspring."""
    info = extinction_probability(d)
    rng = substream(seed, 0x6B)
    root = _grow_extinct(rng, d * info.eta, depth_limit, _NODE_CAP)
    if root is None:
        raise ResourceLimitError(f"tree grew past {_NODE_CAP} nodes")
    return GWTree(root=root, depth_limit=depth_limit, d=d, conditioned="extinct")


def _grow_extinct(rng, lam: float, depth_limit: int | None, node_cap: int) -> GWNode | None:
    """Grow a Poisson(lam) tree of node objects; None when it exceeds node_cap
    (lam near 1 makes sizes heavy-tailed). Bulk marginals use the array
    forest of `_sample_extinct_forest` instead."""
    root = GWNode(surviving=False)
    frontier = [root]
    depth = 0
    nodes = 1
    while frontier and (depth_limit is None or depth < depth_limit):
        nxt = []
        for node in frontier:
            k = int(rng.poisson(lam))
            for ct in _uniform_types(rng, k):
                child = GWNode(surviving=False)
                node.children.append((ct, child))
                nxt.append(child)
        nodes += len(nxt)
        if nodes > node_cap:
            return None
        frontier = nxt
        depth += 1
    return root


def _poisson_ge1(rng, lam: float) -> int:
    while True:
        k = int(rng.poisson(lam))
        if k >= 1:
            return k


def sample_survival_conditioned(d: float, L: int, seed: int) -> GWTree:
    """Tree conditioned on survival, truncated at variable generation L.

    Surviving nodes carry mark True and have at least one surviving child,
    so a surviving path always reaches the truncation depth; dead children
    root extinction-conditioned subtrees cut at the same overall depth.
    """
    if not 1 < d < 2:
        raise ValueError(f"survival conditioning needs d in (1,2), got {d}")
    if L < 1:
        raise ValueError("L must be >= 1")
    info = extinction_probability(d)
    rng = substream(seed, 0x6C)
    root = GWNode(surviving=True)
    frontier = [root]
    for depth in range(L):
        nxt = []
        for node in frontier:
            n_live = _poisson_ge1(rng, d * info.zeta)
            n_dead = int(rng.poisson(d * info.eta))
            for ct in _uniform_types(rng, n_live):
                child = GWNode(surviving=True)
                node.children.append((ct, child))
                nxt.append(child)
            budget = L - depth - 1
            for ct in _uniform_types(rng, n_dead):
                child = _grow_extinct(rng, d * info.eta, budget, _NODE_CAP)
                node.children.append((ct, child))
        frontier = nxt
    return GWTree(root=root, depth_limit=L, d=d, conditioned="survive")


# -- exact marginals on sampled trees -----------------------------------------


def _cut_pairs(kids) -> list[tuple[int, int]]:
    """A node's marginals cut 0, 1, ..., height generations below it, from its
    children's lists; past a node's height its marginal stays constant."""
    if not kids:
        return [(1, 2)]
    height = max(len(seq) for _, seq in kids)
    return [(1, 2)] + [
        bp_pair([(ct, seq[j] if j < len(seq) else seq[-1]) for ct, seq in kids])
        for j in range(height)
    ]


def marginal_sequence(t: GWTree) -> list[Fraction]:
    """Root marginals of the depth-0, depth-2, ..., depth-2L truncations.

    Entry l is the exact marginal of the tree cut l variable generations
    below the root; entry 0 is 1/2. One fold serves all depths.
    """
    if t.depth_limit is None:
        raise ValueError("marginal_sequence needs a truncated tree")
    seq = fold(t.root, _cut_pairs)
    seq = seq[:t.depth_limit + 1] + seq[-1:] * (t.depth_limit + 1 - len(seq))
    return [Fraction(a, b) for a, b in seq]


def truncate(t: GWTree, depth: int) -> GWTree:
    """Structural copy cut at variable generation `depth`, made level by level."""
    if t.depth_limit is not None and depth > t.depth_limit:
        raise ValueError("cannot truncate deeper than the sampled depth")
    root = GWNode(surviving=t.root.surviving)
    frontier = [(t.root, root)]
    for _ in range(depth):
        nxt = []
        for node, out in frontier:
            for ct, c in node.children:
                child = GWNode(surviving=c.surviving)
                out.children.append((ct, child))
                nxt.append((c, child))
        frontier = nxt
    return GWTree(root=root, depth_limit=depth, d=t.d, conditioned=t.conditioned)


def from_tree_formula(t: TreeFormula, d: float) -> GWTree:
    """A (possibly shared) tree-formula as a complete sampled-tree shape; the
    nodes are not copied."""
    return GWTree(root=t, depth_limit=None, d=d)


# -- probability of a fixed finite tree ---------------------------------------


def tree_probability(t: GWTree, d: float) -> float:
    """P(the Galton-Watson tree equals t) as an unordered typed rooted tree.

    Per variable node and clause type, Poisson(d/4) offspring probability
    times the multinomial correction for repeated child isomorphism
    classes; the whole product collapses to
    exp(-d*V) * (d/4)^(V-1) / prod(multiplicities!). One fold carries each
    subtree's isomorphism class, node count and log multiplicity, so a
    shared TreeFormula is never expanded.
    """
    if t.depth_limit is not None:
        raise ValueError("tree_probability needs a complete (finite) tree")
    classes: dict[tuple, int] = {}  # isomorphism class of each subtree shape

    def combine(kids):  # kids: (clause type, (class, nodes, log multiplicity))
        keys = sorted((ct, cls) for ct, (cls, _, _) in kids)
        log_mult = sum(lm for _, (_, _, lm) in kids)
        log_mult += sum(math.lgamma(m + 1) for m in Counter(keys).values())
        cls = classes.setdefault(tuple(keys), len(classes))
        return cls, 1 + sum(n for _, (_, n, _) in kids), log_mult

    _, n_nodes, log_mult = fold(t.root, combine)
    logp = -d * n_nodes + (n_nodes - 1) * math.log(d / 4.0) - log_mult
    return math.exp(logp)


# -- batched theta recursions ---------------------------------------------------


def _forest_theta_matrix(d: float, L: int, count: int, seed: int) -> np.ndarray:
    """Root theta values of `count` independent trees at all depths 0..L+1.

    Samples the forest level by level as flat arrays, each level's offspring
    a Poissonized pack, then runs the log-likelihood recursion bottom-up,
    vectorized across the whole level. Row l of a level holds its nodes'
    theta at cut depth l; the depth-1 row needs no transcendental. Column k
    of the result is tree k at every depth of one realization, which
    couples successive depths.
    """
    rng = substream(seed, 0x7F)
    top = L + 1
    sizes = [count]
    edges = []  # per generation: (parent_idx, s, s_prime)
    for _ in range(top):
        parent = poisson_owners(rng, d, sizes[-1])
        edges.append((parent, *random_signs(rng, parent.size)))
        sizes.append(parent.size)

    theta = np.zeros((1, sizes[top]))
    for g in range(top - 1, -1, -1):
        parent, s, sp = edges[g]
        up = np.zeros((top - g + 1, sizes[g]))
        if parent.size:
            # cut depth 1 sees every child at theta 0, where the term is -log 2
            up[1] = -math.log(2.0) * np.bincount(parent, weights=s, minlength=sizes[g])
            for j in range(2, up.shape[0]):
                up[j] = np.bincount(parent, weights=s * log_clause_term(theta[j - 1], sp),
                                    minlength=sizes[g])
        theta = up
    return theta  # shape (L+2, count)


def _increment_chunk(args) -> np.ndarray:
    d, L, count, seed = args
    theta = _forest_theta_matrix(d, L, count, seed)
    return np.abs(np.diff(theta, axis=0)).sum(axis=1)


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
        (d, L, c, int(substream(seed, 0x70, k).integers(0, 2**62)))
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
    per-sample construction would have to expand.
    """
    if not 1 < d < 2:
        raise ValueError(f"survival conditioning needs d in (1,2), got {d}")
    info = extinction_probability(d)
    rng = substream(seed, 0x5C)
    fin = np.zeros(size)
    inf = np.zeros(size)
    for _ in range(L):
        live_counts = rng.poisson(d * info.zeta, size=size)
        redo = live_counts == 0
        while redo.any():
            live_counts[redo] = rng.poisson(d * info.zeta, size=int(redo.sum()))
            redo = live_counts == 0
        new_inf = (resample_log_terms(rng, inf, np.repeat(np.arange(size), live_counts), size)
                   + resample_log_terms(rng, fin, poisson_owners(rng, d * info.eta, size), size))
        fin = resample_log_terms(rng, fin, poisson_owners(rng, d * info.eta, size), size)
        inf = new_inf
    return inf


# -- bulk exact-marginal sampling ----------------------------------------------


def _sample_extinct_forest(rng, lam: float, count: int, node_cap: int):
    """Grow `count` independent Poisson(lam) trees together, a generation at a time.

    Returns (levels, alive). levels[g-1] = (parent, types) describes variable
    generation g >= 1: node i hangs below node parent[i] of generation g-1
    (the roots are generation 0), through clause type CLAUSE_TYPES[types[i]].
    Parents ascend, so siblings are contiguous. alive[k] is False exactly when
    tree k has more than node_cap nodes; such a tree leaves the frontier in
    the generation that takes it over the cap, and `_drop_trees` then removes
    its nodes below the root, so the pair pass spends no time on them.
    """
    tree = np.arange(count)  # tree of each frontier node
    size = np.ones(count, dtype=np.int64)
    alive = size <= node_cap
    levels = []
    while tree.size:
        kids = rng.poisson(lam, size=tree.size)
        parent = np.repeat(np.arange(tree.size, dtype=np.int32), kids)
        types = rng.integers(0, 4, size=parent.size, dtype=np.int8)
        tree = tree[parent]
        size += np.bincount(tree, minlength=count)
        alive = size <= node_cap
        keep = alive[tree]
        if not keep.all():
            parent, types, tree = parent[keep], types[keep], tree[keep]
        if parent.size:
            levels.append((parent, types))
    if not alive.all():
        _drop_trees(levels, alive)
    return levels, alive


def _drop_trees(levels, alive) -> None:
    """Remove from `levels`, in place, every node below the root of a tree k
    with alive[k] False; the other trees keep their shape and child order."""
    tree = np.arange(alive.size)
    index = tree  # new position of each kept node of the generation above
    for g, (parent, types) in enumerate(levels):
        tree = tree[parent]
        keep = alive[tree]
        if not keep.any():  # no kept tree reaches this deep
            del levels[g:]
            return
        levels[g] = (index[parent[keep]].astype(np.int32), types[keep])
        index = np.cumsum(keep) - 1


def _forest_root_pairs(levels, count: int) -> list[tuple[int, int]]:
    """Exact root marginal (a, b) of each of `count` trees of a sampled forest.

    Folds the generations bottom-up with `bp_pair`; a node without children
    is (1, 2). Consumes `levels`, freeing each generation once folded.
    """
    vals = [(1, 2)] * (len(levels[-1][0]) if levels else count)
    while levels:
        parent, types = levels.pop()
        n_up = len(levels[-1][0]) if levels else count
        below = zip(map(CLAUSE_TYPES.__getitem__, types.tolist()), vals)
        vals = [bp_pair(islice(below, k))
                for k in np.bincount(parent, minlength=n_up).tolist()]
    return vals


def _extinct_marginal_chunk(args) -> list[Fraction | None]:
    d, count, seed, node_cap = args
    lam = d * extinction_probability(d).eta
    levels, alive = _sample_extinct_forest(substream(seed, 0x6D), lam, count, node_cap)
    pairs = _forest_root_pairs(levels, count)
    return [Fraction(a, b) if ok else None for (a, b), ok in zip(pairs, alive.tolist())]


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
    specs = [
        (d, c, int(substream(seed, 0x71, k).integers(0, 2**62)), node_cap)
        for k, c in enumerate(chunk_sizes(n, chunk))
    ]
    out: list[Fraction | None] = []
    for part in parallel_map(_extinct_marginal_chunk, specs, workers=workers):
        out.extend(part)
    return out
