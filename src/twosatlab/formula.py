"""Random 2-SAT formulas with exact solution counting and marginals.

A formula is a multiset of two-literal clauses over variables 1..n; the
random ensemble draws Poisson(d*n/2) clauses uniformly from the 4*C(n,2)
clauses on two distinct variables. Solution counts are exact big integers,
marginals exact fractions, so everything here can serve as an oracle for
the tree and branching-process machinery.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import IO

import numpy as np

from .densityev import Kind, Population
from .treebp import TYPE_INDEX, fold_factors, fold_up, pair_fraction, product_pairs
from .util import COMPONENT_CAP, ENUM_CAP, ResourceLimitError, substream

_ELIM_WIDTH_CAP = 22
_BLOCK_BITS = 14  # larger blocks push the clause gathers out of the cache


@dataclass(frozen=True, eq=False)
class Formula:
    """2-SAT instance: n variables, clauses as rows (i, s_i, j, s_j)."""

    n: int
    clauses: np.ndarray  # shape (m, 4), int64; variables 1-based, signs +-1

    def __post_init__(self):
        cl = np.asarray(self.clauses, dtype=np.int64).reshape(-1, 4)
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if cl.shape[0]:
            if (cl[:, 0] == cl[:, 2]).any():
                raise ValueError("clauses must use two distinct variables")
            if cl[:, ::2].min() < 1 or cl[:, ::2].max() > self.n:
                raise ValueError("variable index out of range")
            if (np.abs(cl[:, 1::2]) != 1).any():  # abs(-2**63) wraps, and is not 1 either
                raise ValueError("signs must be +1 or -1")
        cl.flags.writeable = False
        object.__setattr__(self, "clauses", cl)

    @property
    def m(self) -> int:
        return self.clauses.shape[0]

    def __repr__(self):
        return f"Formula(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class SolutionStats:
    """Exact solution count and per-variable counts of solutions with x=+1."""

    count: int
    true_counts: list[int]

    def marginal(self, var: int) -> Fraction:
        if self.count == 0:
            raise ValueError("unsatisfiable formula has no marginals")
        return Fraction(self.true_counts[var - 1], self.count)


def generate_formula(n: int, d: float, seed: int) -> Formula:
    """Draw a formula from the Poisson(d*n/2)-clause uniform ensemble."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 < d * n / 2 <= 1e18:  # NaN fails too; numpy's Poisson draw stops near 9.2e18
        raise ValueError(f"need d > 0 and at most 1e18 expected clauses d*n/2, got d={d}")
    rng = substream(seed, 0xF0)
    m = int(rng.poisson(d * n / 2.0))
    i = rng.integers(1, n + 1, size=m)
    j = rng.integers(1, n + 1, size=m)
    clash = i == j
    while clash.any():  # rejection keeps the pair uniform over distinct pairs
        k = int(clash.sum())
        i[clash] = rng.integers(1, n + 1, size=k)
        j[clash] = rng.integers(1, n + 1, size=k)
        clash = i == j
    si = 2 * rng.integers(0, 2, size=m) - 1
    sj = 2 * rng.integers(0, 2, size=m) - 1
    return Formula(n=n, clauses=np.column_stack([i, si, j, sj]))


def count_solutions(f: Formula, cap: int = ENUM_CAP) -> SolutionStats:
    """Count satisfying assignments by exhaustive enumeration.

    Enumerates the k variables in clauses as one boolean matrix per block of
    2^_BLOCK_BITS assignments, row p set where present[p] is +1; the clause
    gathers reuse two buffers. Each absent variable doubles the count and
    takes half of it. Exact; cost 2^k.
    """
    present = np.unique(f.clauses[:, [0, 2]])
    if (k := len(present)) > cap:
        raise ResourceLimitError(f"enumeration over {k} variables exceeds cap {cap}")
    cl = np.unique(f.clauses, axis=0)  # a repeat would hold a 2^_BLOCK_BITS row of its own
    pi, pj = np.searchsorted(present, cl[:, [0, 2]]).T  # the clause ends' rows
    fi, fj = (cl[:, [1, 3]].T < 0)[:, :, None]  # literal s*x is false iff x's bit is s < 0
    enum_count, true_enum, block = 0, np.zeros(k, dtype=np.int64), 1 << min(k, _BLOCK_BITS)
    # one pair of gather buffers per call: fresh pages in every block cost more than the work
    gi, gj = np.empty((2, len(cl), block), dtype=bool)
    for lo in range(0, 1 << k, block):  # powers of two: every block is full
        # row p holds bit p of each assignment, unpacked from its little-endian bytes
        a = np.arange(lo, lo + block, dtype="<u8").view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(a, axis=1, count=k, bitorder="little").T.copy().view(bool)
        np.take(bits, pi, axis=0, out=gi, mode="clip")  # "clip" writes out= unbuffered
        np.take(bits, pj, axis=0, out=gj, mode="clip")
        # an assignment survives when no clause has both literals false
        np.logical_and(np.equal(gi, fi, out=gi), np.equal(gj, fj, out=gj), out=gi)
        good = ~gi.any(axis=0)
        enum_count += int(np.count_nonzero(good))
        true_enum += np.count_nonzero(bits[:, good], axis=1)
    count = enum_count << (free := f.n - k)
    true_counts = [count >> 1] * f.n
    for v, t in zip(present.tolist(), true_enum.tolist()):
        true_counts[v - 1] = t << free
    return SolutionStats(count=count, true_counts=true_counts)


def is_satisfiable(f: Formula) -> bool:
    """2-SAT decision via strongly connected components of the implication graph."""
    # imported here so that importing the package (and the CLI) skips scipy
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if f.m == 0:
        return True
    i, si, j, sj = (f.clauses[:, c] for c in range(4))
    # node 2(v-1) is literal x_v, node 2(v-1)+1 is its negation
    lit_i = 2 * (i - 1) + (si < 0)
    lit_j = 2 * (j - 1) + (sj < 0)
    rows = np.concatenate([lit_i ^ 1, lit_j ^ 1])
    cols = np.concatenate([lit_j, lit_i])
    # float64, the search's own dtype; the (data, (row, col)) form sums repeated
    # edges, and the search did not return on a CSR that kept them
    g = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * f.n, 2 * f.n))
    _, labels = connected_components(g, directed=True, connection="strong")
    return bool(np.all(labels[0::2] != labels[1::2]))


# -- exact marginals: one walk, then two two-pass kernels -------------------
#
# One breadth-first walk finds the components in order of their smallest
# variable. A single clause has a closed form. Any other tree component (one
# clause fewer than variables) leaves its nodes in generation lists shared by
# all trees, and one integer belief propagation on reduced (a, b) pairs,
# `_forest_up` then `_forest_pairs`, runs over all of them after the walk.
# A component with a cycle is cut back off those lists at once and split by
# `_split` into its 2-core, what is left after removing again and again a
# variable in exactly one clause, and the pendant trees rooted on the core.
# A linear strong-components pass over the core's implication graph,
# `_satisfiable`, decides the component before any table exists: a tree
# cannot make it unsatisfiable, since either value of its root extends to
# the tree. Every core variable roots a tree, bare or not; the trees fold
# upward, and each root's products (P, Q) join its bucket as a unary
# factor; one min-degree elimination of the core (forward pass) yields the
# count Z, one calibration of its bucket tree (backward pass) each root's
# counts (plus, Z - plus), and the downward pass starts there. A bucket over w
# variables is a list of 2^w Python ints; w above `_ELIM_WIDTH_CAP`, or more
# cells over all of the core's buckets than 2^(_ELIM_WIDTH_CAP + 1), is a
# ResourceLimitError raised before any table exists. Width alone does not
# bound memory: every bucket is kept until the backward pass (width 19 over
# 1.5M cells peaked at 497 MB). With eliminate_trees, every component goes
# whole through elimination, with no split and no separate verdict, as an
# independent check on the pair BP; count_solutions is the independent
# enumeration oracle.


def _forest_up(gens: list) -> tuple:
    """Upward pass over a breadth-first forest: (levels, ends, parents, prods).

    gens[g] holds the depth-g nodes of every tree, each as (variable, its
    parent's index in gens[g - 1], the clause type above it with the
    parent's sign first, the same with its own sign first). The nodes are
    numbered generation after generation, the roots first, and the pass is
    one `treebp.fold_up`: prods[0][k], prods[1][k] are node k's (P, Q).
    """
    levels = [tuple(zip(*gen)) for gen in gens if gen]  # only trailing ones are empty
    ends = list(accumulate(len(level[0]) for level in levels))
    parents = [p + lo for lo, level in zip([0, *ends], levels[1:]) for p in level[1]]
    downs = [t for level in levels[1:] for t in level[2]]
    return levels, ends, parents, fold_up(parents, downs, ends[0] if ends else 0)


def _forest_pairs(forest: tuple) -> dict[int, tuple[int, int]]:
    """Reduced marginal pair (a, b) of every node of a `_forest_up` forest.

    The downward pass divides a child's own factor out of its parent's
    products: exactly, since the upward pass multiplied it in, and never by
    0, since every tree marginal a/b has 0 < a < b. The reduced rest reaches
    the child through the reversed clause type (s', s) (`treebp.fold_factors`).
    A root's products may be set to its counts in a larger component first.
    """
    levels, ends, parents, prods = forest
    p_prod, q_prod = prods
    for lo, hi, level in zip(ends, ends[1:], levels[1:]):
        rest = []
        lifted = product_pairs([p_prod[lo:hi], q_prod[lo:hi]])  # each pair within its subtree
        for p, t, (a, b) in zip(parents[lo - ends[0]:hi - ends[0]], level[2], lifted):
            f = b - a if t & 1 else a
            if t < 2:
                x = p_prod[p] // b
                y = x + q_prod[p] // f
            else:
                x = p_prod[p] // f
                y = x + q_prod[p] // b
            r = gcd(x, y)
            rest.append((x // r, y // r))
        fold_factors(prods, range(lo, hi), level[3], rest)
    return dict(zip((u for level in levels for u in level[0]), product_pairs(prods)))


def _split(members: list, adj: list, peel: bool) -> tuple[dict, list, list]:
    """A cyclic component's 2-core and, if `peel`, the trees hanging off it.

    Peeling removes, again and again, a variable in exactly one clause (a
    repeated clause counts twice); it hangs below the variable at that
    clause's other end. Returns the core's neighbour sets, its rows
    (i, s_i, j, s_j), each once, and the pendant trees in `_forest_up` form,
    gens[0] holding every core variable, with a tree below it or none.
    Without `peel` the core is the whole component.
    """
    deg = {u: len(adj[u]) for u in members}
    leaves = [u for u, k in deg.items() if k == 1] if peel else []
    kids: dict[int, list] = {}
    for u in leaves:  # the loop sees each leaf it appends; the cycles stop it
        deg[u] = 0
        for w, t, r, _ in adj[u]:
            if deg[w]:  # the one clause left
                break
        kids.setdefault(w, []).append((u, r, t))
        deg[w] -= 1
        if deg[w] == 1:
            leaves.append(w)
    nb, rows = {}, []  # each row once, from its smaller variable
    for u in members:
        if deg[u]:
            nb[u] = others = set()
            for w, _, _, row in adj[u]:
                if deg[w]:
                    others.add(w)
                    if w > u:
                        rows.append(row)
    gens, level = [], [(u, 0, 0, 0) for u in nb]
    while level:
        gens.append(level)
        level = [(u, k, r, t) for k, (w, *_) in enumerate(level) for u, r, t in kids.get(w, ())]
    return nb, rows, gens


def _satisfiable(rows: list) -> bool:
    """Whether clause rows (i, s_i, j, s_j) have a solution, by one pass of
    Tarjan's strong components over their implication graph, in linear time.

    A clause s_i x_i or s_j x_j gives the edges -s_i x_i -> s_j x_j and
    -s_j x_j -> s_i x_i; the rows have no solution iff a component holds a
    literal and its negation.
    """
    node: dict[int, int] = {}  # variable -> node of x = +1; node ^ 1 is x = -1
    for i, _, j, _ in rows:
        node.setdefault(i, 2 * len(node))
        node.setdefault(j, 2 * len(node))
    out: list[list] = [[] for _ in range(2 * len(node))]
    for i, si, j, sj in rows:
        a, b = node[i] + (si < 0), node[j] + (sj < 0)
        out[a ^ 1].append(b)
        out[b ^ 1].append(a)
    num, low, comp = [0] * len(out), [0] * len(out), [-1] * len(out)
    stack, count = [], 0
    for s in range(len(out)):
        if num[s]:
            continue
        count += 1
        num[s] = low[s] = count
        stack.append(s)
        todo = [(s, iter(out[s]))]
        while todo:
            v, edges = todo[-1]
            for w in edges:
                if not num[w]:  # descend, and come back to v's next edge
                    count += 1
                    num[w] = low[w] = count
                    stack.append(w)
                    todo.append((w, iter(out[w])))
                    break
                if comp[w] < 0 and num[w] < low[v]:  # w is on the stack
                    low[v] = num[w]
            else:
                todo.pop()
                if todo and low[v] < low[todo[-1][0]]:
                    low[todo[-1][0]] = low[v]
                if low[v] == num[v]:  # v is the first of its component: close it
                    while True:
                        w = stack.pop()
                        comp[w] = v
                        if comp[w ^ 1] == v:
                            return False
                        if w == v:
                            break
    return True


def _spread(scope: tuple, into: tuple) -> list[int]:
    """For each assignment of `into`, the index of its restriction to `scope`
    (bit p of an index is the p-th variable of its tuple, set for +1)."""
    idx = [0]
    for v in into:
        idx += [a + (1 << scope.index(v)) for a in idx] if v in scope else idx
    return idx


def _component_counts(nb: dict[int, set], rows: list, unary: dict[int, tuple]) -> tuple[int, dict]:
    """Solution count Z of a connected component and, if Z > 0, its number of
    solutions with x = +1 for each variable x. Consumes `nb`, the neighbour
    sets; `rows` are the component's clauses (i, s_i, j, s_j), and for every
    variable v, unary[v] = (P, Q) weighs v = +1 by P and v = -1 by Q."""
    # min-degree order; bucket v is over (v, *separator), the separator being
    # v's neighbours, fill-in included, when v is eliminated
    scope: dict[int, tuple] = {}
    heap = [(len(s), v) for v, s in nb.items()]
    heapq.heapify(heap)
    while heap:
        deg, v = heapq.heappop(heap)
        if v in scope or deg != len(nb[v]):
            continue
        if deg + 1 > _ELIM_WIDTH_CAP:
            raise ResourceLimitError(f"elimination width {deg + 1} exceeds cap {_ELIM_WIDTH_CAP}")
        sep = nb.pop(v)
        scope[v] = (v, *sorted(sep))
        for u in sep:
            nb[u] |= sep
            nb[u] -= {u, v}
            heapq.heappush(heap, (len(nb[u]), u))
    cells = sum(1 << len(s) for s in scope.values())
    if cells > 2 << _ELIM_WIDTH_CAP:  # a clique at the width cap alone needs 2^(w+1) - 2
        raise ResourceLimitError(f"elimination tables of {cells} cells exceed "
                                 f"budget {2 << _ELIM_WIDTH_CAP}")
    order = list(scope)
    rank = {v: k for k, v in enumerate(order)}
    table = {v: [q, p] * (1 << len(scope[v]) - 1) for v, (p, q) in unary.items()}  # bit 0 is v
    for i, si, j, sj in rows:  # each clause joins the bucket eliminated first
        v = i if rank[i] < rank[j] else j
        bi, bj = 1 << scope[v].index(i), 1 << scope[v].index(j)
        false = (bi if si < 0 else 0) | (bj if sj < 0 else 0)  # both literals false
        table[v] = [0 if a & (bi | bj) == false else x for a, x in enumerate(table[v])]

    # forward pass: bucket x child messages, v summed out, goes to the first-
    # eliminated separator variable, spread over its scope; the last one is Z
    kids: dict[int, list] = {v: [] for v in order}
    for v in order:
        t = table[v]
        for _, _, e in kids[v]:
            t = [x * y for x, y in zip(t, e)]
        msg = [a + b for a, b in zip(t[0::2], t[1::2])]
        if not any(msg):  # a zero message makes every count 0
            return 0, {}
        if len(scope[v]) > 1:
            parent = min(scope[v][1:], key=rank.__getitem__)
            idx = _spread(scope[v][1:], scope[parent])
            kids[parent].append((v, idx, [msg[a] for a in idx]))
    (z,) = msg

    # backward pass: the parent's belief without the child's own message
    # (prefix x suffix, no division: messages can be 0), onto its separator
    down, plus = {order[-1]: [1]}, {}
    for v in reversed(order):
        lam = down.pop(v)
        prefix = [[x * lam[a >> 1] for a, x in enumerate(table[v])]]
        for _, _, e in kids[v]:
            prefix.append([x * y for x, y in zip(prefix[-1], e)])
        plus[v] = sum(prefix[-1][1::2])
        rest = [1] * len(table[v])
        for (c, idx, e), before in zip(reversed(kids[v]), reversed(prefix[:-1])):
            down[c] = msg = [0] * (1 << len(scope[c]) - 1)
            for a, x, y in zip(idx, before, rest):
                msg[a] += x * y
            rest = [x * y for x, y in zip(rest, e)]
    return z, plus


def exact_marginals(
    f: Formula, component_cap: int = COMPONENT_CAP, eliminate_trees: bool = False,
) -> dict[int, Fraction] | None:
    """Exact marginal P(x = +1) for every variable, or None if unsatisfiable.

    Decomposes the factor graph into connected components and counts each
    component exactly; variables in no clause get marginal 1/2 outright.
    Tree components take `_forest_pairs` together (a single clause its
    closed form). A cyclic component splits into its 2-core and the trees
    hanging off it: a strong-components pass over the core returns None on
    a contradiction before any elimination order or table exists; else the
    trees fold onto their roots, elimination counts the core alone, within
    the module's `_ELIM_WIDTH_CAP` and its cell budget, and the trees take
    their pairs from the core's counts. component_cap bounds whole
    components. eliminate_trees sends every component whole through
    elimination, trees included, with no split and no separate verdict.
    """
    adj: list[list] = [[] for _ in range(f.n + 1)]
    for row in f.clauses.tolist():  # on both ends, with its CLAUSE_TYPES index from each
        i, si, j, sj = row
        ti, tj = TYPE_INDEX[si, sj], TYPE_INDEX[sj, si]
        adj[i].append((j, ti, tj, row))
        adj[j].append((i, tj, ti, row))
    seen = [False] * (f.n + 1)
    gens: defaultdict[int, list] = defaultdict(list)  # tree nodes by depth, for `_forest_pairs`
    pairs: dict[int, tuple[int, int]] = {}
    for v in range(1, f.n + 1):  # components in order of their smallest variable
        if seen[v] or not adj[v]:
            continue
        seen[v] = True
        if not eliminate_trees and len(adj[v]) == 1 == len(adj[adj[v][0][0]]):
            (w, _, _, (i, si, j, sj)), = adj[v]
            seen[w] = True
            size, tail = 2, None
        else:  # breadth first; the component starts at tail[g] in gens[g]
            tail, size, entries = [len(gens[0])], 1, 0
            gens[0].append((v, 0, 0, 0))
            for g, lo in enumerate(tail):  # the loop sees each start it appends
                here, below = gens[g], gens[g + 1]
                hi = len(below)
                for k in range(lo, len(here)):
                    u = here[k][0]
                    entries += len(adj[u])
                    for w, t, r, _ in adj[u]:
                        if not seen[w]:
                            seen[w] = True
                            below.append((w, k, t, r))
                if len(below) > hi:
                    tail.append(hi)
                    size += len(below) - hi
        if size > component_cap:
            raise ResourceLimitError(f"component with {size} variables "
                                     f"exceeds cap {component_cap}")
        if tail is None:  # 3 solutions, 2 of them with a given literal true
            pairs[i], pairs[j] = (1 + (si > 0), 3), (1 + (sj > 0), 3)
        elif eliminate_trees or entries >= 2 * size:  # clauses >= variables: a cycle
            members = [e[0] for g, lo in enumerate(tail) for e in gens[g][lo:]]
            for g, lo in enumerate(tail):
                del gens[g][lo:]  # the walk appended this component last
            nb, rows, hanging = _split(members, adj, peel=not eliminate_trees)
            if not (eliminate_trees or _satisfiable(rows)):
                return None
            forest = _forest_up(hanging)
            p_prod, q_prod = forest[-1]
            roots = [e[0] for e in hanging[0]]  # every core variable
            z, plus = _component_counts(nb, rows, dict(zip(roots, zip(p_prod, q_prod))))
            if z == 0:
                return None
            for k, u in enumerate(roots):  # the trees' downward pass starts from here
                p_prod[k], q_prod[k] = plus[u], z - plus[u]
            pairs.update(_forest_pairs(forest))
    pairs.update(_forest_pairs(_forest_up(list(gens.values()))))
    shared = {(a, b): pair_fraction(a, b) for a, b in set(pairs.values())}  # one per pair
    out = dict.fromkeys(range(1, f.n + 1), Fraction(1, 2))
    out.update((u, shared[ab]) for u, ab in pairs.items())
    return out


def empirical_marginal_measure(f: Formula, d: float | None = None) -> Population | None:
    """The n per-variable marginals as an equal-weight sample population."""
    marg = exact_marginals(f)
    if marg is None:
        return None
    samples = np.array([float(marg[v]) for v in range(1, f.n + 1)])
    return Population(samples=samples, kind=Kind.MU, d=d)


# -- text formats ------------------------------------------------------------


def write_formula(f: Formula, fh: IO[str]) -> None:
    """`p 2sat n m` header, then one clause per line as two signed literals."""
    lines = [f"p 2sat {f.n} {f.m}"]
    lines += [f"{si * i} {sj * j}" for i, si, j, sj in f.clauses.tolist()]
    fh.write("\n".join(lines) + "\n")


def read_formula(fh: IO[str]) -> Formula:
    header = fh.readline().split()
    if len(header) != 4 or header[0] != "p" or header[1] != "2sat":
        raise ValueError("expected header 'p 2sat <n> <m>'")
    n, m = int(header[2]), int(header[3])
    if m < 0:
        raise ValueError(f"negative clause count {m}")
    rows = [(abs(a), 1 if a > 0 else -1, abs(b), 1 if b > 0 else -1)
            for a, b in (map(int, fh.readline().split()) for _ in range(m))]
    if any(line.strip() for line in fh):
        raise ValueError(f"unexpected text after the {m} clause lines")
    try:
        cl = np.array(rows, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        raise ValueError("literal outside the int64 range") from None
    return Formula(n=n, clauses=cl)


def marginals_to_json(n: int, marginals: dict[int, Fraction] | None) -> dict:
    if marginals is None:
        return {"n": n, "unsat": True, "marginals": []}
    return {"n": n, "marginals": [
        {"var": v, "num": str(q.numerator), "den": str(q.denominator)}
        for v, q in sorted(marginals.items())]}
