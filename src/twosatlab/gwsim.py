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

Sampled trees (`tree_marginal_samples`) are flat arrays, not node objects:
each chunk draws from one generator, grows its forest a generation at a
time as child counts on one node numbering (live marks under survival
conditioning, a depth cut), then draws the clause types once. One pass from
the last node up (`treebp.fold_up`, the two-product rule) gives the exact
root pairs. A tree over node_cap nodes leaves the frontier once past the cap
and comes back as None: each node's tree id is kept from the moment the
chunk's total passes the cap, and the oversize trees are dropped by those
ids at the end. A depth-cut chunk holds at most _NODE_BUDGET nodes.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

import numpy as np

from .densityev import (clause_table, poisson_owners, resample_log_terms, split_packs,
                        zero_truncated_owners)
from .treebp import (CLAUSE_TYPES, EDGE_TEXT, TreeFormula, fold, fold_up, pair_fraction,
                     product_pairs)
from .util import ResourceLimitError, chunk_sizes, parallel_map, subseed, substream

_NODE_CAP = 20_000_000
_NODE_BUDGET = 1 << 24  # nodes of one chunk of depth-cut trees
_FOREST_CHUNK = 2000  # trees per chunk of a sampled forest
_THETA_CELLS = 1 << 18  # expected (node, cut depth) cells of one theta chunk


@dataclass(frozen=True)
class ExtinctionInfo:
    d: float
    eta: float
    zeta: float


@lru_cache
def extinction_probability(d: float) -> ExtinctionInfo:
    """Smallest fixed point of eta -> exp(d*(eta-1)) in (0,1].

    Equals 1 exactly for d <= 1; for d > 1 monotone iteration from 0
    converges geometrically at rate d*eta < 1, and the stopping rule turns
    the step size into a true-error bound of 1e-12 via the geometric tail.
    Memoised per d: the samplers ask once per call, and the result is frozen.
    """
    if not 0 < d < 2:
        raise ValueError(f"need d in (0,2), got {d}")
    if d <= 1.0:
        return ExtinctionInfo(d=d, eta=1.0, zeta=0.0)
    eta = 0.0
    for _ in range(1_000_000):
        nxt = math.exp(d * (eta - 1.0))
        rate = min(d * nxt, 0.999999)
        if abs(nxt - eta) * rate / (1.0 - rate) <= 1e-12:
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
        # sorted keys: each class of equal children is one run
        log_mult += sum(math.lgamma(len(list(run)) + 1) for _, run in groupby(keys))
        cls = classes.setdefault(tuple(keys), len(classes))
        return cls, 1 + sum(n for _, (_, n, _) in kids), log_mult

    _, n_nodes, log_mult = fold(t, combine)
    logp = -d * n_nodes + (n_nodes - 1) * math.log(d / 4.0) - log_mult
    return math.exp(logp)


# -- batched theta recursions ---------------------------------------------------


def _theta_chunk(d: float, L: int) -> int:
    """Trees per theta chunk: as many as fit _THETA_CELLS expected cells,
    generation g holding d^g nodes per tree at L+2-g cut depths each."""
    cells = sum(d**g * (L + 2 - g) for g in range(L + 2))
    return max(1, int(_THETA_CELLS // cells))


def _forest_theta_matrix(d: float, L: int, count: int, seed: int) -> np.ndarray:
    """Root theta values of `count` independent trees at all depths 0..L+1.

    Samples the forest level by level as flat arrays, each level's offspring
    a Poissonized pack with a 2-bit sign code (s, s') per edge, then runs the
    log-likelihood recursion bottom-up, vectorized across the whole level.
    Row l of a level holds its nodes' theta at cut depth l; the depth-1 row
    needs no transcendental. Column j of the result is tree j at every depth
    of one realization, which couples successive depths.

    Every level is computed in one workspace allocated up front, four
    edge-length rows and two `up` buffers that alternate between levels,
    with each ufunc writing through `out=`: fresh pages cost more than the
    arithmetic.
    """
    rng = substream(seed, 0x7F)
    top = L + 1
    sizes = [count]
    edges = []  # per generation: (parent_idx, sign code of each edge)
    for _ in range(top):
        parent = poisson_owners(rng, d, sizes[-1])
        edges.append((parent, rng.integers(0, 4, size=parent.size, dtype=np.int8)))
        sizes.append(parent.size)

    # one allocation: as the largest block a chunk frees, it lifts glibc's dynamic trim
    # threshold above the chunk's whole footprint, so later chunks reuse its pages
    edge_len, span = max(sizes[1:]), max((top - g + 1) * sizes[g] for g in range(top))
    work = np.empty(4 * edge_len + 2 * span)
    rows = work[:4 * edge_len].reshape(4, edge_len)  # per edge: s, then -s; -s'; x; softplus
    # generation g writes bufs[g % 2] and reads the theta rows of g + 1 from the other;
    # the last generation's theta, all zero, enters only through the depth-1 row
    bufs = work[4 * edge_len:].reshape(2, span)
    for g in range(top - 1, -1, -1):
        parent, code = edges[g]
        n = sizes[g]
        up = bufs[g % 2, :(top - g + 1) * n].reshape(top - g + 1, n)
        if not parent.size:
            up.fill(0.0)
            theta = up
            continue
        up[0].fill(0.0)
        s, neg_sp, x, soft = rows[:, :parent.size]
        np.multiply(code & 1, 2.0, out=s)
        s -= 1.0
        # cut depth 1 sees every child at theta 0, where the term is -log 2
        np.multiply(np.bincount(parent, weights=s, minlength=n), -math.log(2.0), out=up[1])
        np.multiply(code >> 1, -2.0, out=neg_sp)
        neg_sp += 1.0
        np.negative(s, out=s)
        for j in range(2, top - g + 1):
            # s * clause term of (theta, s') by `clause_table`'s float operations
            np.multiply(neg_sp, theta[j - 1], out=x)
            np.maximum(x, 0.0, out=x)
            np.copysign(theta[j - 1], -1.0, out=soft)  # -|theta|
            np.exp(soft, out=soft)
            np.log1p(soft, out=soft)
            x += soft
            x *= s
            up[j] = np.bincount(parent, weights=x, minlength=n)
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
    workers: int | None = None,
) -> list[tuple[int, float]]:
    """Mean |theta^(l+1) - theta^(l)| over N independent trees, l = 0..L.

    Each tree is truncated at depth 2(L+1) and all its truncation-depth
    marginals come from the same realization, so successive increments
    measure the one-step contraction of the recursion. The trees come in
    chunks of `_theta_chunk(d, L)`, each from its own seed, so the result
    depends on the seed, never on workers.
    """
    if not 0 < d < 2:
        raise ValueError(f"need d in (0,2), got {d}")
    if L < 2:
        raise ValueError("L must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    specs = [
        (d, L, c, subseed(seed, 0x70, k))
        for k, c in enumerate(chunk_sizes(N, _theta_chunk(d, L)))
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


# -- flat forests ------------------------------------------------------------------


def _grow_forest(rng, count: int, lam: float, node_cap: int, depth: int | None = None,
                 live_lam: float | None = None):
    """Grow `count` independent trees together on one flat node numbering.

    Every node gets a Poisson(lam) pack of children; with live_lam the roots
    are live, and a live node first gets a zero-truncated Poisson(live_lam)
    pack of live children. Growth stops after `depth` generations, or when
    no node is left; a depth-cut forest raises ResourceLimitError before a
    generation would take it past _NODE_BUDGET nodes. Returns (parent,
    types, sizes, alive, live): roots are nodes 0..count-1, generation g has
    sizes[g] nodes, and node count + j hangs below parent[j] through
    CLAUSE_TYPES[types[j]]. Parents ascend, so siblings are contiguous, live
    ones first (live flags them; None without live_lam). A generation is
    only its child counts: `parent` is one repeat of the node numbers over
    all of them at the end. alive[k] is False exactly when tree k has more
    than node_cap nodes, and then only its root is kept: from the moment the
    total passes the cap, every generation's tree ids are kept, a node of an
    oversize tree gets no children, and the rest of the tree goes at the end.
    The types are drawn last, for the kept nodes only.
    """
    live = None if live_lam is None else np.ones(count, dtype=bool)
    counts, marks, sizes = [], [live], [count]  # per generation: child counts of its nodes
    total = count  # nodes kept so far
    trees, size = [], None  # tree ids per generation and tree sizes, kept once total > node_cap
    while depth is None or len(counts) < depth:
        n = sizes[-1]
        kids = rng.poisson(lam, size=n)
        if live is not None:
            owners = np.flatnonzero(live)[zero_truncated_owners(rng, live_lam, int(live.sum()))]
            n_live = np.bincount(owners, minlength=n)
            kids += n_live
        if n < 64:  # a list sum and no copy: fewer numpy calls on a small generation
            m = sum(kids.tolist())
        else:  # int32 counts keep 4 bytes per node of a large forest until the end
            m, kids = int(kids.sum()), kids.astype(np.int32)
        if depth is not None and total + m > _NODE_BUDGET:
            raise ResourceLimitError(f"{count} trees cut at depth {depth} would pass "
                                     f"the budget of {_NODE_BUDGET} nodes per chunk")
        if not m:  # no child anywhere
            break
        if size is not None or total + m > node_cap:  # before, no tree can be over the cap;
            # after, the kept total can fall back under it, and the ids still follow
            if size is None:
                trees = [np.arange(count, dtype=np.int32)]  # the tree of every node so far
                for above in counts:
                    trees.append(trees[-1].repeat(above))
                size = np.bincount(np.concatenate(trees), minlength=count)
            tree = trees[-1]
            size += np.bincount(tree.repeat(kids), minlength=count)
            kids[size[tree] > node_cap] = 0  # drops exactly the children in oversize trees
            trees.append(tree.repeat(kids))
            m = trees[-1].size
        if live is not None:  # the first n_live[p] children of node p are live
            live = np.arange(m) < (np.cumsum(kids) - kids + n_live).repeat(kids)
        counts.append(kids)
        marks.append(live)
        sizes.append(m)
        total += m
    # int32 ids: _NODE_BUDGET bounds a depth-cut forest, and memory runs out
    # long before an extinct one nears 2^31 nodes; intp counts: `repeat` casts no copy
    kids = np.concatenate(counts, dtype=np.intp) if counts else np.zeros(0, dtype=np.intp)
    parent = np.arange(kids.size, dtype=np.int32).repeat(kids)
    live = None if live is None else np.concatenate(marks)
    alive = np.full(count, node_cap >= 1) if size is None else size <= node_cap
    if trees and not alive.all():  # keep the roots and the nodes of trees within the cap
        keep = alive[np.concatenate(trees)]
        keep[:count] = True
        index = np.cumsum(keep, dtype=np.int32)
        index -= 1  # new position of each kept node, in place: no second node-long array
        kept = np.diff(index[np.cumsum(sizes) - 1], prepend=-1).tolist()  # per generation
        parent, sizes = index[parent[keep[count:]]], [k for k in kept if k]  # trailing zeros
        live = None if live is None else live[keep]
    return parent, rng.integers(0, 4, size=parent.size, dtype=np.int8), sizes, alive, live


def _forest_texts(parent, types, live, count: int) -> list[str]:
    """`treebp.format_tree` text of each of the `count` trees of a flat forest,
    built in one pass from the last node up; a "!" after the v marks a live node."""
    edges = [EDGE_TEXT[ct] for ct in CLAUSE_TYPES]
    heads = (["(v"] * (count + parent.size) if live is None
             else ["(v!" if f else "(v" for f in live.tolist()])
    below: dict[int, list[str]] = {}  # each node's finished children, last first
    for v, p, t in zip(range(count + parent.size - 1, count - 1, -1),
                       reversed(parent.tolist()), reversed(types.tolist())):
        text = heads[v] + "".join(reversed(below.pop(v, ()))) + ")"
        below.setdefault(p, []).append(edges[t] + text)
    return [heads[k] + "".join(reversed(below.pop(k, ()))) + ")" for k in range(count)]


def _forest_root_pairs(parent, types, count: int) -> list[tuple[int, int]]:
    """Exact root marginal (a, b) of each tree of a flat forest (`treebp.fold_up`)."""
    prods = fold_up(parent.tolist(), types.tolist(), count)
    return product_pairs([p[:count] for p in prods])


_FOREST_TAGS = {"extinct": 0x6D, "none": 0x6A, "survive": 0x6C}


def _forest_chunk(args) -> tuple[list[Fraction | None], list[str]]:
    tag, lam, live_lam, depth, count, seed, k, node_cap, dump = args
    parent, types, _, alive, live = _grow_forest(substream(seed, 0x71, k, tag), count, lam,
                                                 node_cap, depth, live_lam)
    texts = _forest_texts(parent, types, live, count) if dump else []
    pairs = _forest_root_pairs(parent, types, count)
    shared = {(a, b): pair_fraction(a, b) for a, b in set(pairs)}  # one per distinct pair
    return [shared[ab] if ok else None for ab, ok in zip(pairs, alive.tolist())], texts


def tree_marginal_samples(
    d: float,
    n: int,
    seed: int,
    conditioned: str = "extinct",
    depth: int | None = None,
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
    marking live nodes; otherwise it is empty. The results depend on the
    seed, never on workers.
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
    specs = [(_FOREST_TAGS[conditioned], lam, live_lam, depth, c, seed, k, node_cap, dump)
             for k, c in enumerate(chunk_sizes(n, _FOREST_CHUNK))]
    parts = parallel_map(_forest_chunk, specs, workers=workers)
    return [q for part, _ in parts for q in part], [text for _, lines in parts for text in lines]


def extinct_marginal_samples(
    d: float,
    n: int,
    seed: int,
    workers: int | None = None,
    node_cap: int = _NODE_CAP,
) -> list[Fraction | None]:
    """Exact rational root marginals of n extinction-conditioned trees.

    Trees that outgrow node_cap come back as None so callers can count them
    without biasing atom-mass estimates upward; with the default cap this
    never happens away from d = 1.
    """
    return tree_marginal_samples(d, n, seed, workers=workers, node_cap=node_cap)[0]
