"""Checks on the source tree itself."""

import ast
from pathlib import Path

import twosatlab

SRC = Path(twosatlab.__file__).parent


def test_seed_sequence_only_in_substream():
    # every random stream derives from `util.substream`: a second seed mixer
    # would tie results to a path no other caller shares
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "SeedSequence":
                owner = [f.name for f in functions
                         if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, owner[-1] if owner else None))
    assert found == [("util.py", "substream")]
