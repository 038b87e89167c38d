"""Exact-rational belief propagation on rooted 2-SAT tree factor graphs.

Every node is a variable; each child hangs below a clause of one of the
four types (s, s'): the parent appears in the clause with sign s, the child
with sign s'. The root marginal of such a tree is always a rational in
(0,1), and conversely `construct_rational_tree` realizes any target
fraction as a root marginal. Sub-structures may be shared (the recursions
only look downward), which keeps the constructed trees polynomial-size;
every exact walk is one `fold`, which visits each distinct node once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

import numpy as np

from .util import ResourceLimitError


class ClauseType(NamedTuple):
    s: int
    s_prime: int


CLAUSE_TYPES = (
    ClauseType(+1, +1),
    ClauseType(+1, -1),
    ClauseType(-1, +1),
    ClauseType(-1, -1),
)


@dataclass(frozen=True, eq=False)
class TreeFormula:
    """Rooted tree node; children are (clause type, subtree) pairs."""

    children: tuple = ()


def leaf() -> TreeFormula:
    return TreeFormula()


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
    g = gcd(x, y)
    return x // g, y // g


def fold(root, combine, memo: dict | None = None):
    """Value of `root` under a memoised post-order fold; works on any node
    with `.children`.

    Each distinct node (by identity) is visited once, after its children:
    its value is combine([(clause type, child value), ...]). A caller can
    pass `memo` (node id -> value) to share values across calls; it must
    then keep the nodes it has seen alive.
    """
    memo = {} if memo is None else memo
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        pending = [c for _, c in node.children if id(c) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[id(node)] = combine([(ct, memo[id(c)]) for ct, c in node.children])
    return memo[id(root)]


def root_marginal(t) -> Fraction:
    """Exact root marginal by one `bp_pair` fold; works on any node with
    `.children`."""
    return Fraction(*fold(t, bp_pair))


def negate(t: TreeFormula, _cache: dict | None = None) -> TreeFormula:
    """Flip every edge sign on both sides; sends marginal q to 1-q.

    A caller constructing many overlapping trees can pass a shared cache so
    each node is negated at most once; the cache must outlive the inputs.
    """
    return fold(t, lambda kids: TreeFormula(
        children=tuple((ClauseType(-s, -sp), c) for (s, sp), c in kids)), _cache)


def join(t1: TreeFormula, t2: TreeFormula) -> TreeFormula:
    """New root with a (-,+) edge to t1 and a (+,+) edge to t2.

    Sends marginals (p, q) to p/(p+q).
    """
    return TreeFormula(
        children=((ClauseType(-1, +1), t1), (ClauseType(+1, +1), t2))
    )


def construct_rational_tree(a: int, b: int) -> TreeFormula:
    """A tree whose root marginal is exactly a/b, for any 0 < a < b.

    Recursion on the reduced fraction: 1/2 is a bare root; 1/b chains one
    (-,+) edge onto 1/(b-1); fractions above 1/2 are negations; the rest is
    join(a/(b-1), 1 - (a-1)/(b-1)) which joins to exactly a/b. Shared
    subtrees are memoized per reduced fraction, so the representation stays
    polynomial in b even though the expanded tree is not.
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError("numerator and denominator must be integers")
    if a <= 0 or a >= b:
        raise ValueError(f"need 0 < a < b, got {a}/{b}")
    memo: dict[tuple[int, int], TreeFormula] = {}
    neg_cache: dict[int, TreeFormula] = {}

    def build(a: int, b: int) -> TreeFormula:
        g = gcd(a, b)
        a, b = a // g, b // g
        key = (a, b)
        if key in memo:
            return memo[key]
        if key == (1, 2):
            t = leaf()
        elif a == 1:
            t = TreeFormula(children=((ClauseType(-1, +1), build(1, b - 1)),))
        elif 2 * a > b:
            t = negate(build(b - a, b), neg_cache)
        else:
            t = join(build(a, b - 1), negate(build(a - 1, b - 1), neg_cache))
        memo[key] = t
        return t

    return build(a, b)


def log_likelihood(t: TreeFormula) -> float:
    """phi of the exact root marginal, log(q/(1-q)), as a float."""
    q = root_marginal(t)
    return math.log(q.numerator) - math.log(q.denominator - q.numerator)


def expanded_size(t: TreeFormula) -> int:
    """Variable-node count of the fully expanded tree (shared nodes copied)."""
    return fold(t, lambda kids: 1 + sum(n for _, n in kids))


def to_formula(t: TreeFormula, cap: int = 1 << 16):
    """Expand into a Formula whose factor graph is this tree, root = var 1."""
    from .formula import Formula

    size = expanded_size(t)
    if size > cap:
        raise ResourceLimitError(f"expanded tree has {size} nodes, cap {cap}")
    clauses = []
    next_id = 2
    queue = [(1, t)]
    while queue:
        vid, node = queue.pop()
        for (s, sp), child in node.children:
            cid = next_id
            next_id += 1
            clauses.append((vid, s, cid, sp))
            queue.append((cid, child))
    cl = np.array(clauses, dtype=np.int64).reshape(-1, 4)
    return Formula(n=size, clauses=cl)


# -- nested parenthesized text form -------------------------------------------
#
#   node := (v [ss'] node [ss'] node ...)    with s, s' in {+,-}
#   e.g. "(v [-+](v))" is the tree with marginal 1/3. A "!" directly after
#   the v marks a surviving node in branching-process dumps.


def format_tree(t, marks: bool = False) -> str:
    def sign(x):
        return "+" if x > 0 else "-"

    out: list[str] = []
    stack: list = [("node", t)]
    while stack:
        op, payload = stack.pop()
        if op == "text":
            out.append(payload)
            continue
        node = payload
        mark = "!" if marks and getattr(node, "surviving", False) else ""
        out.append(f"(v{mark}")
        stack.append(("text", ")"))
        for (s, sp), child in reversed(node.children):
            stack.append(("node", child))
            stack.append(("text", f" [{sign(s)}{sign(sp)}]"))
    return "".join(out)


_SIGNS = {"+": 1, "-": -1}


def parse_tree(text: str) -> TreeFormula:
    """Inverse of `format_tree`; iterative, so nesting depth is unbounded.

    Raises ValueError on any text that is not exactly one well-formed tree.
    """
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    # open nodes, outermost first: (children read so far, clause type above)
    stack: list[tuple[list, ClauseType | None]] = []
    edge = None
    pos = 0
    while True:
        if toks[pos:pos + 1] != ["("]:
            raise ValueError(f"bad tree text near token {pos}: {toks[pos:pos+3]}")
        if toks[pos + 1:pos + 2] not in (["v"], ["v!"]):
            raise ValueError("expected variable node 'v'")
        pos += 2
        stack.append(([], edge))
        while pos < len(toks) and toks[pos] == ")":
            pos += 1
            children, above = stack.pop()
            node = TreeFormula(children=tuple(children))
            if not stack:
                if pos != len(toks):
                    raise ValueError("trailing text after tree")
                return node
            stack[-1][0].append((above, node))
        if pos >= len(toks):
            raise ValueError(f"bad tree text near token {pos}: unclosed node")
        label = toks[pos]
        if (len(label) != 4 or label[0] != "[" or label[3] != "]"
                or label[1] not in _SIGNS or label[2] not in _SIGNS):
            raise ValueError(f"bad edge label {label!r}")
        edge = ClauseType(_SIGNS[label[1]], _SIGNS[label[2]])
        pos += 1
