"""Fuzzed text readers: any input parses and round-trips, or raises ValueError.

Inputs are valid texts from each writer with a few random character edits,
plus raw strings over each format's alphabet. A text a reader rejects must
make the CLI subcommand that reads it exit 2 in process.
"""

import io

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twosatlab.cli import main
from twosatlab.densityev import Kind, Population, read_population, write_population
from twosatlab.formula import Formula, read_formula, write_formula
from twosatlab.treebp import format_tree, parse_tree

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def edited(draw, valid, alphabet):
    text = draw(valid)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(alphabet))
        op = draw(st.sampled_from("ird"))
        text = (text[:i] + c + text[i:] if op == "i"
                else text[:i] + c + text[i + 1:] if op == "r"
                else text[:i] + text[i + 1:])
    return text


def fuzzed(valid, alphabet):
    return st.one_of(valid, edited(valid, alphabet), st.text(alphabet, max_size=40))


@st.composite
def formula_texts(draw):
    n = draw(st.integers(0, 6))
    rows = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 5))):
            i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
            rows.append((i, draw(st.sampled_from((-1, 1))), j, draw(st.sampled_from((-1, 1)))))
    buf = io.StringIO()
    write_formula(Formula(n=n, clauses=np.array(rows, dtype=np.int64).reshape(-1, 4)), buf)
    return buf.getvalue()


@st.composite
def population_texts(draw):
    kind = draw(st.sampled_from(Kind))
    values = (st.floats(0.0, 1.0) if kind is Kind.MU
              else st.floats(allow_nan=False, allow_infinity=False))
    pop = Population(
        samples=np.array(draw(st.lists(values, min_size=1, max_size=4))), kind=kind,
        d=draw(st.none() | st.floats(0.01, 2.0)), generation=draw(st.integers(0, 99)),
        seed=draw(st.none() | st.integers(0, 2**40)))
    buf = io.StringIO()
    write_population(pop, buf)
    return buf.getvalue()


tree_texts = st.recursive(
    st.just("(v)"),
    lambda kids: st.lists(st.tuples(st.sampled_from(["++", "+-", "-+", "--"]), kids),
                          max_size=3).map(
        lambda cs: "(v" + "".join(f" [{e}]{c}" for e, c in cs) + ")"),
    max_leaves=8)


def write_text(writer, obj) -> str:
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


def rejected_exits_invalid(tmp_path, text, *argv_sets):
    path = tmp_path / "input.txt"
    path.write_text(text)
    for argv in argv_sets:
        assert main([a.format(path=path) for a in argv]) == 2, argv


@FUZZ
@given(fuzzed(formula_texts(), "p2sat 0123456789-+\n#x"))
@example("p 2sat 3 1\n99999999999999999999 1\n")  # overflows int64
def test_formula_reader_fuzz(tmp_path, text):
    try:
        f = read_formula(io.StringIO(text))
    except ValueError:
        rejected_exits_invalid(tmp_path, text, ["count", "--in", "{path}"],
                               ["marginals", "--in", "{path}"])
        return
    written = write_text(write_formula, f)
    back = read_formula(io.StringIO(written))
    assert back.n == f.n and np.array_equal(back.clauses, f.clauses)
    assert write_text(write_formula, back) == written


@FUZZ
@given(fuzzed(population_texts(), "# popv1kind=MUTHEAdgens0123456789.-e\n"))
@example("# pop v1 kind=MU d=0.123456789 gen=0 seed=0\n0.5\n")  # d needs 9 digits
def test_population_reader_fuzz(tmp_path, text):
    try:
        p = read_population(io.StringIO(text))
    except ValueError:
        rejected_exits_invalid(tmp_path, text, ["atoms", "--in", "{path}"],
                               ["compare", "--a", "{path}", "--b", "{path}"])
        return
    written = write_text(write_population, p)
    back = read_population(io.StringIO(written))
    assert (back.kind, back.d, back.generation, back.seed) == (
        p.kind, p.d, p.generation, 0 if p.seed is None else p.seed)
    assert np.array_equal(back.samples, p.samples, equal_nan=True)
    assert write_text(write_population, back) == written


@FUZZ
@given(fuzzed(tree_texts, "(v)[+-]! x\n"))
def test_tree_parser_fuzz(tmp_path, text):
    try:
        t = parse_tree(text)
    except ValueError:
        rejected_exits_invalid(tmp_path, text, ["tree-bp", "--in", "{path}"])
        return
    written = format_tree(t)
    assert format_tree(parse_tree(written)) == written
