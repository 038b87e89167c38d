"""Checks on the source tree itself, and pins on its random streams."""

import ast
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

import twosatlab
from twosatlab.acceptance import run_all
from twosatlab.cli import main
from twosatlab.densityev import fixpoint
from twosatlab.formula import (exact_marginals, generate_formula, is_satisfiable,
                               marginals_to_json)
from twosatlab.gwsim import (coupled_increment_stats, extinct_marginal_samples,
                             survival_theta_population, tree_marginal_samples)
from twosatlab.treebp import construct_rational_tree, format_tree

SRC = Path(twosatlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "benchmarks" / "run.py"


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


def test_one_memoised_walk_and_one_pair_rule():
    # `treebp.fold` is the only walk keyed by node identity, and the per-node
    # pair rule `bp_pair` lives in the tests as the oracle of the two-product
    # rule: a second walk or a second rule in `src/` would drift apart
    def id_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "id")

    def bp_pair(node):
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "bp_pair"

    assert set(_owners(id_call)) == {("treebp.py", "fold")}
    assert _owners(bp_pair) == []


def test_one_fraction_of_a_reduced_pair():
    # `treebp.pair_fraction` alone writes a Fraction's private slots, so one
    # place trusts that a pair is reduced; a `Fraction(*pair)` left at a kernel
    # exit would pay the type checks and the gcd again
    def private_slot(node):
        return isinstance(node, ast.Attribute) and node.attr in ("_numerator", "_denominator")

    def star_fraction(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
                and any(isinstance(arg, ast.Starred) for arg in node.args))

    assert set(_owners(private_slot)) == {("treebp.py", "pair_fraction")}
    assert _owners(star_fraction) == []


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


def test_every_default_is_set_by_a_caller_outside_the_tests():
    # a defaulted parameter that only the tests pass is a knob with one value
    # in use: make it a constant. `run.call(label, fn, *args)` and
    # `run.attempt(...)` in the benchmark script count as calls of `fn`.
    functions = {name: getattr(twosatlab, name) for name in twosatlab.__all__}
    functions = {name: fn for name, fn in functions.items()
                 if callable(fn) and not inspect.isclass(fn)}
    functions["run_all"] = run_all
    defaulted = {(name, p.name): k for name, fn in functions.items()
                 for k, p in enumerate(inspect.signature(fn).parameters.values())
                 if p.default is not p.empty}
    passed = set()
    for path in [*sorted(SRC.glob("*.py")), BENCHMARK]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            fn, args = node.func, node.args
            if getattr(fn, "attr", None) in ("call", "attempt") and len(args) > 1:
                fn, args = args[1], args[2:]
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            passed.update((name, kw.arg) for kw in node.keywords)
            passed.update(key for key, k in defaulted.items() if key[0] == name and k < len(args))
    assert sorted(set(defaulted) - passed) == []


def test_every_private_name_the_tests_import_is_used_in_src():
    # a private helper, constant or kernel that only the tests reach belongs
    # in the tests; a use is any reference in `src/` outside the name's own
    # definition (a recursive call does not count)
    imported = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("twosatlab"):
                imported.update(a.name for a in node.names if a.name.startswith("_"))
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = [(node.name, node.lineno, node.end_lineno) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if not any(name == own and lo <= node.lineno <= hi for own, lo, hi in defined):
                used.add(name)
    assert imported and sorted(imported - used) == []


@pytest.fixture(scope="module")
def bench():
    """The benchmark script, imported and never written to: the environment
    variables it sets and the path it puts first at import are undone."""
    environ, path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARK)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for key in set(os.environ) - set(environ):
            del os.environ[key]
        os.environ.update(environ)
        sys.path[:] = path
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("job", ["exact", "tree_atoms", "popdyn"])
def test_benchmark_job_passes_its_checks(bench, job, seed, tmp_path, monkeypatch):
    # every job of the benchmark script at --tiny sizes, one checked pass:
    # a failed check makes a benchmark run exit 1. popdyn's round trip file
    # goes to tmp_path, and nothing lands in the script's run records.
    assert list(bench.JOBS) == ["exact", "tree_atoms", "popdyn"]
    out = BENCHMARK.parent / "out"
    records = sorted(out.glob("*")) if out.exists() else None
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
    steps, check = bench.JOBS[job](bench.SIZES["tiny"], seed)
    run = bench.Run(tracing=False)
    _, _, passes, work = bench.measure(run, steps, check, 0, passes=1)
    assert (passes, run.errors, run.failed) == (1, [], 0)
    assert run.attempted > 0 and work > 0
    assert (sorted(out.glob("*")) if out.exists() else None) == records
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def tool():
    """tools/trajectory.py, imported."""
    spec = importlib.util.spec_from_file_location("trajectory", ROOT / "tools" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_newest_bench_file_has_every_header_field_and_row(tool):
    # the newest committed point of the bench trajectory holds the header and
    # every row that tools/trajectory.py writes, each with consistent values
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    bench = json.loads(files[-1].read_text())
    assert sorted(bench) == sorted([*tool.HEADER, "rows"])
    assert bench["pr"] == int(files[-1].stem.split("_")[1]) and bench["nproc"] >= 1
    assert re.fullmatch(r"[0-9a-f]{40}", bench["commit"]) and isinstance(bench["dirty"], bool)
    assert all(bench[key] for key in ("date", "machine", "python", "numpy", "scipy"))
    assert re.search(r"\d+ passed", bench["tier1_summary"])
    slowest = bench["tier1_slowest"]
    assert 1 <= len(slowest) <= 10 and all(tool.DURATION.match(line) for line in slowest)
    assert [row["name"] for row in bench["rows"]] == list(tool.ROWS)
    for row in bench["rows"]:
        assert sorted(row) == sorted(tool.ROW_FIELDS), row["name"]
        lo, hi = row["spread_s"]
        assert row["kind"] == ("layer" if row["name"] in (*tool.LAYERS, "cli.cold_start")
                               else "end_to_end"), row["name"]
        assert row["k"] >= 1 and 0 <= lo == row["best_s"] <= row["median_s"] <= hi, row["name"]
        assert row["minflt"] >= 0 and row["peak_rss_mb"] > 0, row["name"]


def test_trajectory_compare_gives_each_verdict(tool):
    def bench(*rows):
        return {"rows": [{"name": name, "spread_s": spread, "minflt": faults}
                         for name, spread, faults in rows]}

    prev = bench(("fast", [1.0, 2.0], 100), ("slow", [1.0, 2.0], 10_000),
                 ("same", [1.0, 2.0], 0), ("gone", [1.0, 1.0], 5))
    new = bench(("fast", [0.5, 0.9], 3_099), ("slow", [2.5, 3.0], 13_000),
                ("same", [1.5, 2.5], 0), ("added", [1.0, 1.0], 5))
    assert tool.compare(prev, new) == [
        "added  only in one file",
        "gone   only in one file",
        "fast   faster     1-2 s -> 0.5-0.9 s",
        "slow   slower     1-2 s -> 2.5-3 s",
        "same   unchanged  1-2 s -> 1.5-2.5 s",
        "fast   minflt x30.99  100 -> 3,099  layout-sensitive",
        "slow   minflt x1.30  10,000 -> 13,000  moved",
        "same   minflt x-  0 -> 0  layout-sensitive",
    ]
    # the committed files of PRs 29 and 30: C01's faults fell by 4k, C02's
    # stayed at 4
    lines = tool.compare(*(json.loads((ROOT / f"BENCH_{pr}.json").read_text())
                           for pr in (29, 30)))
    assert [line.split()[-1] for line in lines if line.split()[:2] in (
        ["gate.C01", "minflt"], ["gate.C02", "minflt"])] == ["moved", "layout-sensitive"]


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


def test_satisfiability_verdicts_are_pinned():
    # 60 verdicts around the threshold; a new implication-graph kernel must
    # not move any of them
    verdicts = [is_satisfiable(generate_formula(2000, d, seed))
                for d in (1.8, 2.0, 2.2) for seed in range(20)]
    assert (_digest(verdicts), sum(verdicts)) == ("ae57b0f4bce561c6", 53)


# a float is any number with a point or an exponent; its sign stays in the text
_FLOAT = re.compile(r"\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+")


def _fingerprint(text: str):
    """(digest of `text` with every float replaced by '#', float count, two
    sums of the floats' magnitudes): integers, fractions, trees and flags are
    pinned byte for byte, floats to the relative tolerance of the sums."""
    floats = [float(x) for x in _FLOAT.findall(text)]
    return (_digest([_FLOAT.sub("#", text)]), len(floats), math.fsum(floats),
            math.fsum((1 + k % 7) * x for k, x in enumerate(floats)))


def _assert_pinned(got: dict, want: dict):
    assert sorted(got) == sorted(want)
    for key, (digest, count, total, weighted) in want.items():
        assert got[key][:2] == (digest, count), key
        assert got[key][2:] == pytest.approx((total, weighted), rel=1e-9, abs=0), key


_RUNS = (  # (name, argv, artifacts); a run reads t.txt or what earlier runs wrote
    ("gen", "gen --n 60 --d 1.2 --seed 4 --out f.txt", ["f.txt"]),
    ("gen-small", "gen --n 12 --d 1.0 --seed 5 --out g.txt", ["g.txt"]),
    ("count", "count --in g.txt", []),
    ("marginals", "marginals --in f.txt --out m.json", ["m.json"]),
    ("construct-tree", "construct-tree 7/19", []),
    ("tree-bp", "tree-bp --in t.txt", []),
    ("tree-bp-text", "tree-bp --tree '(v [-+](v [++](v)) [+-](v))'", []),
    ("gw-extinct", "gw-sample --d 0.8 --n 40 --seed 6 --conditioned extinct "
                   "--out ge.txt --dump-trees ge.trees", ["ge.txt", "ge.trees"]),
    ("gw-none", "gw-sample --d 1.5 --depth 4 --n 30 --seed 7 --conditioned none "
                "--out gn.txt --dump-trees gn.trees", ["gn.txt", "gn.trees"]),
    ("gw-survive", "gw-sample --d 1.5 --depth 4 --n 20 --seed 8 --conditioned survive "
                   "--method tree --out gs.txt --dump-trees gs.trees", ["gs.txt", "gs.trees"]),
    ("gw-population", "gw-sample --d 1.5 --depth 6 --n 50 --seed 9 --conditioned survive "
                      "--method population --out gp.txt", ["gp.txt"]),
    ("de-ll", "density-evolution --d 1.5 --size 400 --iters 4 --seed 10 --operator ll "
              "--emit-trace ll.csv --out ll.pop", ["ll.csv", "ll.pop"]),
    ("de-de", "density-evolution --d 1.2 --size 400 --iters 4 --seed 11 --operator de "
              "--emit-trace de.csv --out de.pop", ["de.csv", "de.pop"]),
    ("atoms", "atoms --in de.pop --d 1.2 --min-count 5", []),
    ("mixture-0.8", "mixture --d 0.8 --n-discrete 200 --depth 5 --seed 12", []),
    ("mixture-1.5", "mixture --d 1.5 --n-discrete 200 --n-continuous 200 --depth 5 "
                    "--seed 13 --bins 8 --out mx.json --hist mx.csv", ["mx.json", "mx.csv"]),
    ("compare", "compare --a ll.pop --b de.pop", []),
)


def test_subcommand_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    # stdout and every artifact of each subcommand at small sizes, one worker:
    # a rework that claims identical outputs must leave every fingerprint alone
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text(format_tree(construct_rational_tree(7, 19)) + "\n")
    got = {}
    for name, argv, artifacts in _RUNS:
        assert main([*shlex.split(argv), "--workers", "1"]) == 0, name
        got[name] = _fingerprint(capsys.readouterr().out)
        got.update((path, _fingerprint((tmp_path / path).read_text())) for path in artifacts)
    _assert_pinned(got, {
        "gen": ("c4d7790ff841d4c6", 1, 1.2, 1.2),
        "f.txt": ("fca24b602e3d262f", 0, 0.0, 0.0),
        "gen-small": ("d544aaf03977d38e", 1, 1.0, 1.0),
        "g.txt": ("921fb46b4c64386a", 0, 0.0, 0.0),
        "count": ("511b3b89a8d9b112", 0, 0.0, 0.0),
        "marginals": ("49f60fd988867a39", 0, 0.0, 0.0),
        "m.json": ("9edd569449217d6a", 0, 0.0, 0.0),
        "construct-tree": ("ca690f8639a5784e", 0, 0.0, 0.0),
        "tree-bp": ("913c8d30410f16f4", 2, 0.9074175533642661, 1.2758386059958449),
        "tree-bp-text": ("859bc21f3befc553", 2, 0.8591106438803522, 1.4305392153089236),
        "gw-extinct": ("41f694e21dda83da", 2, 1.8, 2.8),
        "ge.txt": ("6f874b1cae830978", 40, 18.889503044876637, 72.07869356150123),
        "ge.trees": ("ff0a2e4522daac3e", 0, 0.0, 0.0),
        "gw-none": ("fe222a86f56ddb15", 2, 1.9171883561333072, 2.3343767122666144),
        "gn.txt": ("284ac050fe622928", 30, 13.683093114436687, 53.501769279634075),
        "gn.trees": ("b44f317235674bf1", 0, 0.0, 0.0),
        "gw-survive": ("eb099a305ef4b304", 2, 1.9171883561333072, 2.3343767122666144),
        "gs.txt": ("2128baad6a1c7241", 20, 9.91470994284597, 36.35190609899027),
        "gs.trees": ("04fe282e33afe58d", 0, 0.0, 0.0),
        "gw-population": ("3e1c2717af7ce8a5", 2, 1.9171883561333072, 2.3343767122666144),
        "gp.txt": ("fa18cc9953fb32bf", 50, 25.50824341073046, 100.35129494455288),
        "de-ll": ("5ccf67c5a7643661", 5, 2.129745990342766, 3.8970153104684586),
        "ll.csv": ("89199717f8f17af7", 10, 4.253469975726491, 12.156741172371952),
        "ll.pop": ("337c33c040fb9644", 298, 309.7151356769735, 1234.152043949533),
        "de-de": ("14a69fc97dbf9c1c", 5, 1.555982288037662, 2.3507199895857247),
        "de.csv": ("c64a260c3df14e43", 10, 2.8888759432383853, 7.329742695370599),
        "de.pop": ("cfe54ae21a11e957", 401, 205.6211792739553, 821.5248783870146),
        "atoms": ("d79a44f69a3dd8b7", 48, 6.061330156720261, 18.128995213736683),
        "mixture-0.8": ("06355531308a45e0", 128, 3.600002, 9.210003),
        "mixture-1.5": ("d6adf17a4873e902", 3, 1.9171893561333073, 2.751567068399922),
        "mx.json": ("eba2d25c4dc28bd9", 93, 12.447700970477927, 38.217950012678955),
        "mx.csv": ("0d35016b89b6ef23", 18, 9.500001, 31.750002),
        "compare": ("d4820efc9bdac3ff", 2, 1.464060642629731, 2.2931212852594616),
    })


def test_float_recursions_are_pinned():
    # the library's float paths that no subcommand above runs at these sizes
    runs = fixpoint(1.5, 300, max_iter=3, seed=14), fixpoint(0.9, 300, max_iter=3, seed=15,
                                                               operator="de")
    got = {
        # 12000 trees span two theta chunks at d = 1.5, L = 3 (8867 trees, then 3133)
        "increments": _fingerprint(repr(coupled_increment_stats(1.5, 3, 12_000, 16, workers=1))),
        "survival": _fingerprint(repr(survival_theta_population(1.5, 4, 200, 17).tolist())),
        **{f"fixpoint-{k}": _fingerprint(repr((r.trace, r.converged, r.noise_floor,
                                              r.iterations, r.population.samples.tolist())))
           for k, r in enumerate(runs)},
    }
    _assert_pinned(got, {
        "increments": ("e602ccd99240a917", 4, 1.295605053680632, 2.4522328165905014),
        "survival": ("a9a0635af9c2f403", 200, 245.77258688392675, 1000.6771391962552),
        "fixpoint-0": ("685140ea36a3815d", 307, 253.75871800390348, 987.3076521488963),
        "fixpoint-1": ("7c296cd4a07b9201", 307, 151.18213672009657, 602.3526059175002),
    })
