"""Exact-rational belief propagation on rooted 2-SAT tree factor graphs.

Every node is a variable; each child hangs below a clause of one of the
four types (s, s'): the parent appears in the clause with sign s, the child
with sign s'. The root marginal of such a tree is always a rational in
(0,1), and conversely `construct_rational_tree` realizes any target
fraction as a root marginal, building each fraction's tree with its
negation so that a/b shares at most b^2/4 distinct nodes. Every exact walk
is one `fold`, which visits each distinct node once.

Every exact marginal pair follows one rule, `fold_factors` on the integer
products P = N+ D- and Q = N- D+, with two drivers: `root_marginal` folds
node objects, and `fold_up` runs the rule inline over a flat forest. Every
kernel ends in reduced pairs (a, b), and `pair_fraction` turns each into
its `Fraction` in one step, with no second gcd.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, log
from typing import NamedTuple

from .util import EXPAND_CAP, ResourceLimitError


class ClauseType(NamedTuple):
    s: int
    s_prime: int


CLAUSE_TYPES = (
    ClauseType(+1, +1),
    ClauseType(+1, -1),
    ClauseType(-1, +1),
    ClauseType(-1, -1),
)
TYPE_INDEX = {ct: k for k, ct in enumerate(CLAUSE_TYPES)}  # the one place a type gets its index


class TreeFormula:
    """Immutable tree node, equal only to itself; children are (clause type, subtree) pairs."""

    __slots__ = ("children",)

    def __init__(self, children: tuple = ()):
        object.__setattr__(self, "children", children)

    def __setattr__(self, *_):
        raise AttributeError("TreeFormula is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild through __init__, not setattr
        return TreeFormula, (self.children,)


def fold_factors(prods, targets, types, pairs) -> None:
    """Multiply clause factors into node products in place: the one BP rule.

    A variable's weight for +1 is the product, over the clauses in which it
    appears negated, of the probability N+/D+ that the neighbour satisfies
    the clause on its own; symmetrically N-/D- for -1. prods holds two lists
    by node, P = N+ D- and Q = N- D+, so a node's marginal is P/(P + Q), and
    a node with no factor gets 1/2. The marginal pairs[k] = (a, b) of a
    neighbour enters node targets[k] through clause CLAUSE_TYPES[types[k]],
    whose first sign is the target's.
    """
    p_prod, q_prod = prods
    for v, t, (a, b) in zip(targets, types, pairs):
        if t < 2:  # (+, s'): the factor weighs v = -1
            p_prod[v] *= b
            q_prod[v] *= b - a if t else a
        else:
            p_prod[v] *= b - a if t == 3 else a
            q_prod[v] *= b


def product_pairs(prods) -> list[tuple[int, int]]:
    """Reduced marginal pair P / (P + Q) of every node of `prods`."""
    out = []
    for x, q in zip(*prods):
        g = gcd(x, q)
        out.append((x // g, (x + q) // g))
    return out


def pair_fraction(a: int, b: int) -> Fraction:
    """The Fraction a/b of a reduced pair (gcd(a, b) == 1, b > 0), built as
    CPython 3.12's private `Fraction._from_coprime_ints` does: the object and
    its two slots, without `Fraction()`'s type checks and gcd. An unreduced
    pair would give a Fraction unequal to its own value."""
    q = object.__new__(Fraction)
    q._numerator, q._denominator = a, b
    return q


def fold_up(parents, types, first: int):
    """Products (P, Q) of every node of a flat forest by one upward pass:
    `product_pairs` and then `fold_factors` per node, inline, from the last
    node up. Node first + k hangs below parents[k] < first + k through
    CLAUSE_TYPES[types[k]], so each node is complete when its reduced pair
    a/b (c = b - a) enters its parent."""
    n = first + len(parents)
    prods = p_prod, q_prod = [1] * n, [1] * n
    for v, p, t in zip(range(n - 1, first - 1, -1), reversed(parents), reversed(types)):
        a, c = p_prod[v], q_prod[v]
        if a == c:  # every leaf: the pair 1/2
            a = c = 1
        elif (g := gcd(a, c)) > 1:
            a //= g
            c //= g
        if t < 2:
            p_prod[p] *= a + c
            q_prod[p] *= c if t else a
        else:
            p_prod[p] *= c if t == 3 else a
            q_prod[p] *= a + c
    return prods


def fold(root, combine):
    """Value of `root` under a memoised post-order fold; works on any node
    with `.children`.

    Each distinct node (by identity) is visited once, after its children:
    its value is combine([(clause type, child value), ...]).
    """
    memo = {}
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


def _node_pair(kids) -> tuple[int, int]:
    """Reduced pair of a node from its [(clause type, child's pair), ...]."""
    prods = [1], [1]
    fold_factors(prods, repeat(0), [TYPE_INDEX[ct] for ct, _ in kids], [ab for _, ab in kids])
    return product_pairs(prods)[0]


def root_marginal(t) -> Fraction:
    """Exact root marginal by one `fold`, each node's children's pairs
    combined by `fold_factors`; works on any node with `.children`."""
    return pair_fraction(*fold(t, _node_pair))


def negate(t: TreeFormula) -> TreeFormula:
    """Flip every edge sign on both sides; sends marginal q to 1-q."""
    return fold(t, lambda kids: TreeFormula(
        children=tuple((ClauseType(-s, -sp), c) for (s, sp), c in kids)))


def join(t1: TreeFormula, t2: TreeFormula) -> TreeFormula:
    """New root with a (-,+) edge to t1 and a (+,+) edge to t2: sends (p, q) to p/(p+q)."""
    return TreeFormula(((ClauseType(-1, +1), t1), (ClauseType(+1, +1), t2)))


def construct_rational_tree(a: int, b: int) -> TreeFormula:
    """A tree whose root marginal is exactly a/b, for any 0 < a < b.

    Recursion on the reduced fraction, run on an explicit stack so any
    denominator fits: 1/2 is a bare root; 1/b chains one (-,+) edge onto
    1/(b-1); fractions above 1/2 are negations; the rest is
    join(a/(b-1), 1 - (a-1)/(b-1)) which joins to exactly a/b. The memo
    maps each reduced fraction to its tree and that tree's negation, built
    together, so a/b has at most b^2/4 distinct nodes (no copies). Each
    memo entry adds or aliases a node the root reaches, and the stack's
    pending chain, at least half of it, joins the memo: past 2 EXPAND_CAP + 1
    of those the expansion passes EXPAND_CAP, a ResourceLimitError.
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError("numerator and denominator must be integers")
    if a <= 0 or a >= b:
        raise ValueError(f"need 0 < a < b, got {a}/{b}")

    def node(kids):  # edges (clause type, (tree, negation)) -> (tree, negation)
        return (TreeFormula(tuple((ct, t) for ct, (t, _) in kids)),
                TreeFormula(tuple((ClauseType(-s, -sp), n) for (s, sp), (_, n) in kids)))

    memo: dict[tuple[int, int], tuple[TreeFormula, TreeFormula]] = {(1, 2): (TreeFormula(),) * 2}
    g = gcd(a, b)
    root = (a // g, b // g)
    stack = [root]  # explicit: the chain below 1/b alone is b - 2 steps deep
    while stack:
        if len(memo) + len(stack) // 2 > 2 * EXPAND_CAP + 1:
            raise ResourceLimitError(f"{a}/{b} needs over {2 * EXPAND_CAP + 1} reduced "
                                     f"fractions, so its tree expands past cap {EXPAND_CAP}")
        x, y = key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        if x == 1:
            parts, make = [(1, y - 1)], lambda t: node([(ClauseType(-1, +1), t)])
        elif 2 * x > y:
            parts, make = [(y - x, y)], lambda t: t[::-1]
        else:
            parts = [(c // gcd(c, y - 1), (y - 1) // gcd(c, y - 1)) for c in (x, x - 1)]
            make = lambda t, u: node([(ClauseType(-1, +1), t), (ClauseType(+1, +1), u[::-1])])
        pending = [k for k in parts if k not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[key] = make(*(memo[k] for k in parts))
    return memo[root][0]


def log_likelihood(q: Fraction) -> float:
    """Log-odds log(q/(1-q)) of an exact marginal q, as a float."""
    return log(q.numerator) - log(q.denominator - q.numerator)


def expanded_size(t: TreeFormula) -> int:
    """Variable-node count of the fully expanded tree (shared nodes copied)."""
    return fold(t, lambda kids: 1 + sum(n for _, n in kids))


def to_formula(t: TreeFormula):
    """Expand into a Formula whose factor graph is this tree, root = var 1."""
    from .formula import Formula

    clauses = []
    queue = [(1, t)]
    while queue:
        vid, node = queue.pop()
        for (s, sp), child in node.children:
            cid = len(clauses) + 2  # ids in expansion order, the root 1
            if cid > EXPAND_CAP:
                raise ResourceLimitError(f"expanded tree has {expanded_size(t)} nodes, "
                                         f"cap {EXPAND_CAP}")
            clauses.append((vid, s, cid, sp))
            queue.append((cid, child))
    return Formula(n=len(clauses) + 1, clauses=clauses)


# -- nested parenthesized text form -------------------------------------------
#
#   node := (v [ss'] node [ss'] node ...)    with s, s' in {+,-}
#   e.g. "(v [-+](v))" is the tree with marginal 1/3. A "!" directly after
#   the v marks a surviving node in branching-process dumps.

EDGE_TEXT = {ct: f" [{'+' if ct.s > 0 else '-'}{'+' if ct.s_prime > 0 else '-'}]"
             for ct in CLAUSE_TYPES}


def format_tree(t) -> str:
    out: list[str] = []
    stack: list = [("node", t)]
    while stack:
        op, payload = stack.pop()
        if op == "text":
            out.append(payload)
            continue
        out.append("(v")
        stack.append(("text", ")"))
        for ct, child in reversed(payload.children):
            stack.append(("node", child))
            stack.append(("text", EDGE_TEXT[ct]))
    return "".join(out)


_SIGNS = {"+": 1, "-": -1}


def parse_tree(text: str) -> TreeFormula:
    """Inverse of `format_tree`; iterative, so nesting depth is unbounded. An
    edge label may touch the `v` before it, as in "(v[-+](v))".

    Raises ValueError on any text that is not exactly one well-formed tree.
    """
    toks = text.replace("(", " ( ").replace(")", " ) ").replace("[", " [").split()
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
