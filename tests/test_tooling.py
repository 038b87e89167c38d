"""Checks on the source tree itself, and pins on its random streams."""

import ast
import hashlib
import json
from pathlib import Path

import twosatlab
from twosatlab.formula import exact_marginals, generate_formula, marginals_to_json
from twosatlab.gwsim import extinct_marginal_samples, tree_marginal_samples

SRC = Path(twosatlab.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def _owners(match):
    """(file, innermost enclosing function) of every node in `src/` that `match` accepts."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if match(node):
                owner = [f.name for f in functions
                         if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, owner[-1] if owner else None))
    return found


def test_seed_sequence_only_in_substream():
    # every random stream derives from `util.substream` and every integer seed
    # from `util.subseed`: a second seed mixer would tie results to a path no
    # other caller shares
    def seed_sequence(node):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name == "SeedSequence"

    def draw_62_bits(node):
        return isinstance(node, ast.BinOp) and ast.unparse(node) == "2 ** 62"

    assert _owners(seed_sequence) == [("util.py", "substream")]
    assert _owners(draw_62_bits) == [("util.py", "subseed")]


def test_every_export_has_a_caller_outside_the_tests():
    # an export that only the tests use is a layer to delete, or an oracle to
    # move into the tests; the benchmark script is read, never written
    used = set()
    for path in [*sorted(SRC.glob("*.py")), BENCHMARK]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    exported = {name for names in twosatlab._EXPORTS.values() for name in names}
    assert sorted(exported - used) == []


def _digest(items):
    return hashlib.sha256("".join(f"{x}\n" for x in items).encode()).hexdigest()[:16]


def test_sampler_streams_are_pinned():
    # the sampled trees of every law, a capped call included, as first drawn:
    # a change that moves a digest changes a random stream, and must say so
    assert {d: _digest(extinct_marginal_samples(d, 500, seed=11)) for d in (0.8, 1.5)} == {
        0.8: "e0ee4f52025a041d", 1.5: "f0da5333672ac8fb"}
    # at d = 1 the node total passes the cap mid-growth, and 6 trees outgrow it
    assert _digest(extinct_marginal_samples(1.0, 500, seed=11, node_cap=2000)) == (
        "7f0d97e98e6a0530")
    dumps = {cond: tuple(map(_digest, tree_marginal_samples(1.5, 200, 12, cond, depth,
                                                             dump=True)))
             for cond, depth in (("none", 5), ("survive", 6))}
    assert dumps == {"none": ("2dafecfe2b79f100", "7e4c2b189d7cd89f"),
                     "survive": ("9183736fdf236b55", "33d0ebab6627938d")}


def test_exact_marginals_are_pinned():
    # the marginals JSON of sparse, cyclic and near-threshold formulas: exact
    # outputs never change, whatever kernel computes them
    digests = {(n, d, seed): _digest([json.dumps(marginals_to_json(
        n, exact_marginals(generate_formula(n, d, seed))))])
        for n, d in ((3000, 0.8), (400, 1.5), (200, 1.2)) for seed in (1, 2, 3)}
    assert digests == {
        (3000, 0.8, 1): "6e5b4ba52c664453", (3000, 0.8, 2): "9e23e6fbafba1efe",
        (3000, 0.8, 3): "75883c33da6383d2", (400, 1.5, 1): "f57d6fd18757f379",
        (400, 1.5, 2): "3bebe15f281afc37", (400, 1.5, 3): "252b9c7dd06bb088",
        (200, 1.2, 1): "1f840826852da3ec", (200, 1.2, 2): "b696d51e1e1a814b",
        (200, 1.2, 3): "939791a1540341f7"}
