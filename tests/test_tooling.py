"""Checks on the source tree itself."""

import ast
from pathlib import Path

import twosatlab

SRC = Path(twosatlab.__file__).parent


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
