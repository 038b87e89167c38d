"""Subcommand behavior, exit codes, artifact formats, determinism."""

import json
import os
import re
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest

import twosatlab
from twosatlab import acceptance, cli, treebp
from twosatlab.cli import main
from twosatlab.densityev import read_population
from twosatlab.analysis import mixture_decomposition
from twosatlab.util import ResourceLimitError, format_double, parallel_map


def child_env() -> dict[str, str]:
    """Environment for a launched Python child that must import this package.

    `PYTHONPATH` starts with the absolute directory holding the running
    `twosatlab`, then the inherited value, so a child started in any working
    directory imports the same code as its caller, never an installed copy.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(twosatlab.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
    return env


def test_construct_tree_output(capsys):
    assert main(["construct-tree", "2/5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "marginal=2/5"
    assert lines[0].startswith("(v ")


def test_gen_deterministic_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("a.txt", "b.txt"):
        assert main(["gen", "--n", "50", "--d", "1.0", "--seed", "7", "--out", name]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_gen_auto_seed_recorded(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "20", "--d", "1.0", "--out", "f.txt"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] is not None


def test_marginals_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "40", "--d", "1.0", "--seed", "3", "--out", "f.txt"]) == 0
    capsys.readouterr()
    assert main(["marginals", "--in", "f.txt"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 40
    # cyclic components can force variables, so 0 and 1 are legal here
    for entry in payload["marginals"]:
        assert set(entry) == {"var", "num", "den"}
        assert 0 <= int(entry["num"]) <= int(entry["den"])
    assert any(entry["num"] == "1" and entry["den"] == "2"
               for entry in payload["marginals"])


def test_count_matches_library(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text("p 2sat 2 1\n1 2\n")
    assert main(["count", "--in", "f.txt"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == "3"
    assert payload["true_counts"] == ["2", "2"]


def test_exit_code_invalid_argument(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "1", "--d", "1.0", "--seed", "0"]) == 2
    assert "invalid" in capsys.readouterr().err.lower()


def test_exit_code_resource_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = ["p 2sat 32 31"] + [f"{i} {i + 1}" for i in range(1, 32)]
    (tmp_path / "big.txt").write_text("\n".join(lines) + "\n")
    assert main(["count", "--in", "big.txt"]) == 3
    assert "resource" in capsys.readouterr().err.lower()


def test_construct_tree_past_the_expansion_cap_exits_resource_limit(capsys):
    # 23/64 expands to 67,814 nodes: the text would hold every one of them
    assert main(["construct-tree", "23/64"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource limit:") and "67814" in err


@pytest.mark.parametrize("text", ["abc", "3/2/1", "2/x", "/5"])
def test_construct_tree_names_the_fraction_form(text, capsys):
    assert main(["construct-tree", text]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invalid arguments: expected a fraction a/b of two integers, got {text!r}\n"


def test_tree_bp_empty_tree_exits_invalid(capsys):
    assert main(["tree-bp", "--tree", ""]) == 2
    assert capsys.readouterr().err.startswith("invalid arguments: bad tree text")


@pytest.mark.parametrize("argv", [
    ["atoms", "--in", "mu.pop", "--window", "nan"],
    ["atoms", "--in", "mu.pop", "--d", "nan"],
    ["atoms", "--in", "mu.pop", "--d", "5"],
    ["atoms", "--in", "mu.pop", "--weight", "nan"],
    ["atoms", "--in", "mu.pop", "--min-count", "-5"],
    ["mixture", "--d", "0.8", "--n-discrete", "50", "--seed", "1", "--window", "nan"],
    ["density-evolution", "--d", "1.5", "--size", "200", "--seed", "1", "--tol", "nan"],
    ["density-evolution", "--d", "1.5", "--size", "200", "--seed", "1", "--tol", "-1"],
    ["density-evolution", "--d", "1.5", "--size", "200", "--seed", "1", "--iters", "0"],
    ["density-evolution", "--d", "1.5", "--size", "200", "--seed", "1", "--iters", "-4"],
    ["atoms", "--in", "mu.pop", "--window", "inf"],
    ["atoms", "--in", "mu.pop", "--weight", "inf"],
    ["mixture", "--d", "0.8", "--n-discrete", "50", "--seed", "1", "--window", "inf"],
    ["density-evolution", "--d", "1.5", "--size", "200", "--seed", "1", "--tol", "inf"],
    ["gen", "--n", "60", "--seed", "1", "--d", "nan"],
    ["gen", "--n", "60", "--seed", "1", "--d", "inf"],
    ["gen", "--n", "60", "--seed", "1", "--d", "1e308"],
    ["tree-bp", "--tree", "(v)", "--in", "mu.pop"],
], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
def test_nonsense_numeric_flags_exit_invalid(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mu.pop").write_text("# pop v1 kind=MU d=0.8 gen=0 seed=0\n0.5\n0.5\n0.25\n")
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    messages = [line for line in err.splitlines() if line.startswith("invalid arguments:")]
    assert len(messages) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--window", "inf", "window must be positive and finite, got inf"),
    ("--max-den", "1", "max_den must be >= 2"),
    ("--depth", "-1", "L must be >= 1, got -1"),
])
def test_mixture_checks_flags_before_drawing(flag, value, message, monkeypatch, capsys):
    # below d = 1 the depth is never used, and the draw comes first
    import twosatlab.analysis as analysis

    def no_draw(*args, **kwargs):
        raise AssertionError("drew trees before checking the flags")

    monkeypatch.setattr(analysis, "extinct_marginal_samples", no_draw)
    assert main(["mixture", "--d", "0.8", "--seed", "1", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"invalid arguments: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
def test_generator_names_the_density(value, capsys):
    # in the package's words, not numpy's ("lam value too large")
    assert main(["gen", "--n", "60", "--seed", "1", "--d", value]) == 2
    assert capsys.readouterr().err == ("invalid arguments: need d > 0 and at most 1e18 "
                                       f"expected clauses d*n/2, got d={float(value)}\n")


@pytest.mark.parametrize("argv", [
    ["mixture", "--d", "1.5", "--n-continuous", "0"],
    ["mixture", "--d", "1.5", "--bins", "0"],
    ["density-evolution", "--d", "1.5", "--size", "-3"],
], ids=lambda argv: " ".join([argv[0], *argv[-2:]]))
def test_empty_counts_name_their_flag(argv, capsys):
    # before any sampling, and in the package's words, not numpy's
    assert main(argv) == 2
    assert f"{argv[-2]}: must be at least 1, got {argv[-1]}" in capsys.readouterr().err


def test_exit_code_bad_subcommand():
    assert main(["frobnicate"]) == 2


def test_gw_sample_output_format(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gw-sample", "--d", "1.5", "--depth", "4", "--n", "50", "--seed", "9",
                 "--conditioned", "extinct", "--out", "v.txt"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 50
    assert summary["eta"] == pytest.approx(0.41718835, abs=1e-6)
    values = [float(line) for line in (tmp_path / "v.txt").read_text().splitlines()]
    assert len(values) == 50
    assert all(0.0 < v < 1.0 for v in values)


def test_gw_sample_survive_population(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gw-sample", "--d", "1.5", "--depth", "30", "--n", "400", "--seed", "2",
                 "--conditioned", "survive", "--out", "s.txt"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["method"] == "population"
    values = [float(x) for x in (tmp_path / "s.txt").read_text().split()]
    assert len(values) == 400


def test_density_evolution_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["density-evolution", "--d", "1.5", "--size", "3000", "--iters", "25",
                 "--tol", "1e-3", "--seed", "5", "--out", "p.pop", "--emit-trace", "t.csv"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    with open(tmp_path / "p.pop") as fh:
        pop = read_population(fh)
    assert pop.size == 3000 and pop.d == 1.5
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "iter,w2_step,mass_at_half"
    assert len(lines) >= 3


def test_atoms_table(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["density-evolution", "--d", "1.2", "--size", "4000", "--iters", "20",
                 "--tol", "1e-3", "--seed", "6", "--operator", "de", "--out", "mu.pop"]) == 0
    capsys.readouterr()
    assert main(["atoms", "--in", "mu.pop", "--min-count", "40"]) == 0
    out = capsys.readouterr().out
    assert "1/2" in out
    assert "pass" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["report"]["atoms"]


def test_mixture_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["mixture", "--d", "1.5", "--n-discrete", "1000", "--n-continuous", "1000",
                 "--depth", "8", "--seed", "3", "--out", "m.json", "--hist", "h.csv"]) == 0
    report = json.loads((tmp_path / "m.json").read_text())
    assert report["eta"] == pytest.approx(0.41718835, abs=1e-6)
    assert report["continuous_summary"]["support_total_bins"] == 20
    header = (tmp_path / "h.csv").read_text().splitlines()
    assert header[1] == "bin_lo,bin_hi,count"


@pytest.mark.parametrize("d", ["0.8", "1.0"])
def test_mixture_hist_without_continuous_part_exits_invalid(d, tmp_path, monkeypatch, capsys):
    # below d = 1 there is no histogram to write: refuse before any sampling
    from twosatlab import analysis

    def sampled(*args, **kwargs):
        raise AssertionError("mixture sampled before rejecting --hist")

    monkeypatch.setattr(analysis, "mixture_decomposition", sampled)
    argv = ["mixture", "--d", d, "--n-discrete", "50", "--n-continuous", "50", "--depth", "4",
            "--seed", "1", "--out", str(tmp_path / "m.json"), "--hist", str(tmp_path / "h.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("invalid arguments:") and "--hist" in err[0]
    assert not list(tmp_path.iterdir())


def test_memory_error_exits_resource_limit(tmp_path):
    # a 2,000-tree survival-conditioned chunk 22 generations deep needs
    # gigabytes; the limit is set in the child alone, after the fork
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))

    res = subprocess.run(
        [sys.executable, "-m", "twosatlab", "gw-sample", "--d", "1.5", "--conditioned",
         "survive", "--method", "tree", "--depth", "22", "--n", "2000", "--seed", "1",
         "--workers", "1", "--out", "v.txt"],
        cwd=tmp_path, capture_output=True, text=True, env=child_env(),
        preexec_fn=limit_address_space, timeout=300)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1].startswith("resource limit: ")


@pytest.mark.parametrize("fraction", ["4321/99991", "1/3000000"])
def test_construct_tree_past_the_construction_bound_exits_resource_limit(fraction, tmp_path):
    # 4321/99991 fills the memo, 1/3000000 the stack's pending chain; a build
    # that ran on past the bound would exhaust the child's 1.5 GB limit
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))

    res = subprocess.run(
        [sys.executable, "-m", "twosatlab", "construct-tree", fraction], cwd=tmp_path,
        capture_output=True, text=True, env=child_env(), preexec_fn=limit_address_space,
        timeout=120)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""
    assert res.stderr == (f"resource limit: {fraction} needs over 131073 reduced fractions, "
                          "so its tree expands past cap 65536\n")


def test_deep_survival_forest_exits_at_the_node_budget(tmp_path, monkeypatch, capsys):
    # 2,000 trees cut 25 generations down would need about 2.6e8 nodes; the
    # chunk stops at the budget (lowered here to keep the test small)
    from twosatlab import gwsim

    monkeypatch.setattr(gwsim, "_NODE_BUDGET", 100_000)
    monkeypatch.chdir(tmp_path)
    assert main(["gw-sample", "--d", "1.5", "--conditioned", "survive", "--method", "tree",
                 "--depth", "25", "--n", "2000", "--seed", "1", "--out", "v.txt"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "v.txt").exists()
    assert err == ("resource limit: 2000 trees cut at depth 25 would pass the budget of "
                   "100000 nodes per chunk\n")


def test_compare_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["density-evolution", "--d", "1.0", "--size", "1000", "--iters", "5",
                 "--tol", "1e-2", "--seed", "8", "--out", "x.pop"]) == 0
    capsys.readouterr()
    assert main(["compare", "--a", "x.pop", "--b", "x.pop"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["w1"] == 0.0 and payload["ks"] == 0.0


def test_gw_sample_tree_dump(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gw-sample", "--d", "1.5", "--depth", "3", "--n", "20", "--seed", "5",
                 "--conditioned", "survive", "--method", "tree", "--out", "v.txt",
                 "--dump-trees", "trees.txt"]) == 0
    lines = (tmp_path / "trees.txt").read_text().splitlines()
    assert len(lines) == 20
    assert all(line.startswith("(v!") for line in lines)
    values = (tmp_path / "v.txt").read_text().splitlines()
    assert values == [format_double(treebp.root_marginal(treebp.parse_tree(line)))
                      for line in lines]


@pytest.mark.parametrize("argv", [
    ["--conditioned", "survive", "--method", "population", "--depth", "-3"],
    ["--conditioned", "survive", "--method", "population", "--depth", "0"],
    ["--conditioned", "survive", "--method", "tree", "--depth", "0"],
    ["--conditioned", "none", "--depth", "-1"],
    ["--n", "-1"],
    ["--conditioned", "survive", "--method", "population", "--n", "-1"],
    ["--conditioned", "none", "--method", "population"],
    ["--conditioned", "extinct", "--method", "population"],
], ids=["population-depth-neg", "population-depth-0", "tree-depth-0", "none-depth-neg",
        "n-neg", "population-n-neg", "population-none", "population-extinct"])
def test_gw_sample_rejects_bad_arguments(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    base = ["gw-sample", "--d", "1.5", "--n", "10", "--seed", "1", "--out", "v.txt"]
    assert main(base + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments:") and "Traceback" not in err


@pytest.mark.parametrize("conditioned,method,depth,resolved", [
    ("none", "auto", "20", "tree"), ("extinct", "auto", "20", "tree"),
    ("survive", "auto", "20", "population"), ("survive", "auto", "3", "tree"),
    ("none", "tree", "3", "tree"), ("survive", "population", "3", "population"),
])
def test_gw_sample_reports_the_method_it_ran(conditioned, method, depth, resolved, capsys):
    argv = ["gw-sample", "--d", "1.5", "--n", "5", "--seed", "1", "--depth", depth,
            "--conditioned", conditioned, "--method", method]
    assert main(argv) == 0
    out = capsys.readouterr().out
    summary = json.loads(out[out.index("{"):])
    assert summary["method"] == resolved
    assert summary["depth"] == (None if conditioned == "extinct" else int(depth))


def test_gw_sample_extinct_summary_reports_no_depth(tmp_path, monkeypatch, capsys):
    # extinct trees are never cut, so --depth changes nothing and is not reported
    monkeypatch.chdir(tmp_path)
    runs = []
    for depth in ("2", "30"):
        assert main(["gw-sample", "--d", "1.5", "--n", "50", "--seed", "6", "--depth", depth,
                     "--conditioned", "extinct", "--out", f"v{depth}.txt"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["depth"] is None
        assert summary["config"]["params"]["depth"] == int(depth)  # the typed flag
        runs.append((tmp_path / f"v{depth}.txt").read_bytes())
    assert runs[0] == runs[1]


def test_gw_sample_rejected_dump_leaves_no_file(tmp_path):
    dump = tmp_path / "trees.txt"
    argv = ["gw-sample", "--d", "1.5", "--n", "5", "--seed", "1", "--conditioned", "survive",
            "--method", "population", "--dump-trees", str(dump)]
    assert main(argv) == 2
    assert not dump.exists()


@pytest.mark.parametrize("case", [["--conditioned", "none", "--depth", "4"],
                                  ["--conditioned", "extinct"],
                                  ["--conditioned", "survive", "--method", "tree",
                                   "--depth", "4"]],
                         ids=["none", "extinct", "survive"])
def test_gw_sample_bytes_do_not_depend_on_workers(case, tmp_path, monkeypatch, capsys):
    # 2500 trees span two chunks, so two workers really run the pool
    monkeypatch.chdir(tmp_path)
    runs = []
    for workers in ("1", "2"):
        assert main(["gw-sample", "--d", "1.5", "--n", "2500", "--seed", "4", *case,
                     "--workers", workers, "--out", f"v{workers}.txt",
                     "--dump-trees", f"t{workers}.txt"]) == 0
        stdout = capsys.readouterr().out.replace(f"v{workers}.txt", "V").replace(
            f"t{workers}.txt", "T")
        runs.append(((tmp_path / f"v{workers}.txt").read_bytes(),
                     (tmp_path / f"t{workers}.txt").read_bytes(), stdout))
    assert runs[0] == runs[1]
    assert len(runs[0][0].splitlines()) == len(runs[0][1].splitlines()) == 2500


def test_main_in_process_invalid():
    assert main(["gen", "--n", "1", "--d", "1.0", "--seed", "0"]) == 2
    assert main(["tree-bp"]) == 2


@pytest.mark.parametrize("argv", [
    ["count", "--in", "{dir}"],
    ["marginals", "--in", "{dir}"],
    ["tree-bp", "--in", "{dir}"],
    ["atoms", "--in", "{dir}"],
    ["gen", "--n", "20", "--d", "1.0", "--seed", "1", "--out", "{dir}"],
], ids=["count-in", "marginals-in", "tree-bp-in", "atoms-in", "gen-out"])
def test_directory_as_path_exits_invalid(argv, tmp_path, capsys):
    # a directory where a file is expected is an OSError, not a traceback
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments:") and len(err.splitlines()) == 1


def test_construct_tree_past_the_recursion_limit(capsys):
    # the 1/b chain is b - 2 steps deep; the construction keeps its own stack
    assert main(["construct-tree", "1/3000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "marginal=1/3000"
    assert lines[0].count("(v") == 2999


def test_compare_unknown_population_kind_exits_invalid(tmp_path, capsys):
    good, bad = tmp_path / "good.pop", tmp_path / "bad.pop"
    good.write_text("# pop v1 kind=MU d=0.8 gen=0 seed=0\n0.5\n")
    bad.write_text("# pop v1 kind=BOGUS d=0.8 gen=0 seed=0\n0.5\n")
    assert main(["compare", "--a", str(bad), "--b", str(good)]) == 2
    err = capsys.readouterr().err
    assert "invalid" in err and "BOGUS" in err
    assert "Traceback" not in err


def test_compare_rejects_nan_in_mu_population(tmp_path, capsys):
    good, bad = tmp_path / "good.pop", tmp_path / "bad.pop"
    good.write_text("# pop v1 kind=MU d=0.8 gen=0 seed=0\n0.5\n0.25\n")
    bad.write_text("# pop v1 kind=MU d=0.8 gen=0 seed=0\nnan\n0.25\n")
    assert main(["compare", "--a", str(bad), "--b", str(good)]) == 2
    err = capsys.readouterr().err
    assert "invalid" in err and "Traceback" not in err


@pytest.mark.parametrize("text,cap", [
    # a 40-variable chain over a component cap of 39
    ("p 2sat 40 39\n" + "".join(f"{i} -{i + 1}\n" for i in range(1, 40)), "39"),
    # a complete graph on 30 variables: min-degree width 30 over the cap of 22
    ("p 2sat 30 435\n" + "".join(f"{i} {-j if (i + j) % 3 else j}\n"
                                  for i in range(1, 31) for j in range(i + 1, 31)), None),
])
def test_marginals_resource_limit_in_process(tmp_path, capsys, text, cap):
    path = tmp_path / "f.txt"
    path.write_text(text)
    argv = ["marginals", "--in", str(path)]
    assert main(argv + (["--component-cap", cap] if cap else [])) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit:") and "Traceback" not in err


def test_marginals_rejects_text_after_clauses(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("p 2sat 3 1\n1 2\n1 -1\ngarbage\n")
    assert main(["marginals", "--in", str(path)]) == 2
    assert "after the 1 clause lines" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text, message", [
    (["marginals"], "p 2sat 3 2\n1 2\n",
     "line 3: expected clause 2 of 2 as two literals '<a> <b>', got ''"),
    (["count"], "p 2sat 3 2\n1 2 3\n2 3\n",
     "line 2: expected clause 1 of 2 as two literals '<a> <b>', got '1 2 3'"),
    (["atoms", "--d", "0.8"], "# pop v1 kind=MU d=0.8 gen\n0.5\n",
     "line 1: expected header fields key=value, got 'gen'"),
], ids=["truncated", "three-literals", "header-token"])
def test_reader_errors_name_the_line(argv, text, message, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([*argv, "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"invalid arguments: {message}\n"


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_must_be_positive(workers, capsys):
    assert main(["marginals", "--in", "unused.txt", "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err


def test_workers_do_not_change_output(tmp_path):
    # two launches: 2500 discrete trees are two chunks, so 4 workers start a
    # pool, and each launch has its own hash seed, which the in-process
    # determinism check cannot vary
    outputs = []
    for workers, hash_seed in (("1", "1"), ("4", "2")):
        res = subprocess.run(
            [sys.executable, "-m", "twosatlab", "mixture", "--d", "1.3", "--n-discrete", "2500",
             "--n-continuous", "500", "--depth", "6", "--seed", "11", "--workers", workers],
            cwd=tmp_path, capture_output=True, text=True,
            env={**child_env(), "PYTHONHASHSEED": hash_seed})
        assert res.returncode == 0, res.stderr
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]


def test_child_imports_the_caller_package(tmp_path, monkeypatch):
    # a relative PYTHONPATH means nothing in the child's working directory
    monkeypatch.setenv("PYTHONPATH", "src")
    res = subprocess.run(
        [sys.executable, "-c", "import twosatlab; print(twosatlab.__file__)"],
        cwd=tmp_path, capture_output=True, text=True, env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == twosatlab.__file__


def test_determinism_reports_launch_failure(monkeypatch):
    def failing(args, cfg):
        print("note", file=sys.stderr)
        raise ResourceLimitError("too big")

    monkeypatch.setattr(cli, "cmd_gen", failing)
    ctx = acceptance.Context(sizes=acceptance.QUICK_SIZES, seed=1, workers=None)
    passed, detail = acceptance.determinism(ctx)
    assert not passed
    assert "twosatlab gen --n 60" in detail
    assert "--workers 1 exited 3" in detail
    assert detail.endswith("resource limit: too big")


def test_determinism_fails_when_configs_embed_workers(monkeypatch):
    monkeypatch.setattr(cli, "_NOT_PARAMS", cli._NOT_PARAMS - {"workers"})
    ctx = acceptance.Context(sizes=acceptance.QUICK_SIZES, seed=1, workers=None)
    passed, detail = acceptance.determinism(ctx)
    assert not passed
    assert detail.endswith("differs between 1 and 8 workers")


def test_tree_bp_deep_chain_in_process(tmp_path, capsys):
    depth = 3000
    path = tmp_path / "deep.txt"
    path.write_text("(v [++]" * depth + "(v)" + ")" * depth + "\n")
    assert main(["tree-bp", "--in", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    a, b = 1, 2  # each [++] edge maps q to 1/(1+q)
    for _ in range(depth):
        a, b = b, a + b
    assert payload["marginal"] == f"{a}/{b}"


def test_tree_bp_marginal_past_int_str_limit(tmp_path, capsys):
    # a complete binary [++] tree of depth 14: about 7,000 digits per term
    t = treebp.TreeFormula()
    for _ in range(14):
        t = treebp.TreeFormula(children=((treebp.ClauseType(1, 1), t),) * 2)
    path = tmp_path / "binary.txt"
    path.write_text(treebp.format_tree(t) + "\n")
    limit = sys.get_int_max_str_digits()
    assert main(["tree-bp", "--in", str(path)]) == 0
    assert sys.get_int_max_str_digits() == limit  # main lifts the limit only while it runs
    num, den = json.loads(capsys.readouterr().out)["marginal"].split("/")
    q = treebp.root_marginal(t)
    assert len(den) > 4300
    # Decimal parses past the int-str limit, and compares with an int exactly
    assert (Decimal(num), Decimal(den)) == (q.numerator, q.denominator)


def _modules_after(code):
    """Modules a fresh interpreter holds after running `code`."""
    probe = f"{code}\nimport sys\nprint(*sorted(sys.modules))"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


def _packages_after(code):
    """Top-level packages a fresh interpreter holds after running `code`."""
    return {m.split(".")[0] for m in _modules_after(code)}


def test_cli_import_skips_scipy():
    loaded = _packages_after("import twosatlab.cli")
    assert "twosatlab" in loaded and "scipy" not in loaded


def test_package_import_loads_no_numpy():
    loaded = _packages_after("import twosatlab")
    assert "twosatlab" in loaded and "numpy" not in loaded


@pytest.mark.parametrize("argv", [["construct-tree", "3/7"],
                                  ["tree-bp", "--tree", "(v [-+](v) [++](v))"]],
                         ids=["construct-tree", "tree-bp"])
def test_exact_subcommands_load_no_numpy(argv):
    # the cold start of `construct-tree` is the benchmark's setup_s: a new
    # import on this path fails here; it writes no JSON, `tree-bp` does
    loaded = _modules_after(f"from twosatlab.cli import main\nassert main({argv!r}) == 0")
    assert not {m.split(".")[0] for m in loaded} & {"numpy", "multiprocessing", "scipy",
                                                     "dataclasses", "inspect"}
    assert ("json" in loaded) == (argv[0] == "tree-bp")
    assert {m for m in loaded if m.split(".")[0] == "twosatlab"} == {
        "twosatlab", "twosatlab.cli", "twosatlab.treebp", "twosatlab.util"}


# every name `twosatlab` exported when it imported its submodules eagerly,
# less `apply_ll_coupled` and `log_clause_term`, which moved into the tests,
# the node-object samplers, which `tree_marginal_samples` replaced, and
# `GWTree`, `leaf`, `phi` and `wasserstein2`, which were deleted
EXPORTS = """
    AtomReport MixtureReport compare_distributions detect_atoms max_cluster_mass
    mixture_decomposition snap_to_fraction support_coverage FixpointResult Kind
    Population apply_de apply_ll fixpoint psi_push read_population
    write_population Formula SolutionStats count_solutions empirical_marginal_measure
    exact_marginals generate_formula is_satisfiable marginals_to_json read_formula
    write_formula ExtinctionInfo coupled_increment_stats extinct_marginal_samples
    extinction_probability from_tree_formula survival_theta_population
    tree_marginal_samples tree_probability psi
    CLAUSE_TYPES ClauseType TreeFormula construct_rational_tree format_tree join
    log_likelihood negate parse_tree root_marginal to_formula ResourceLimitError
""".split()


def test_every_export_resolves_and_is_listed():
    code = (f"from twosatlab import {', '.join(EXPORTS)}\nimport twosatlab\n"
            f"print(sorted(set({EXPORTS!r}) - set(dir(twosatlab))))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    assert sorted(twosatlab.__all__) == sorted(EXPORTS)
    assert twosatlab.psi is sys.modules["twosatlab.densityev"].psi
    with pytest.raises(AttributeError):
        twosatlab.apply_ll_coupled


@pytest.mark.parametrize("raw", ["abc", "-3", "0", "1.5"])
def test_bad_workers_env_exits_invalid(raw, monkeypatch, capsys):
    monkeypatch.setenv("TWOSATLAB_WORKERS", raw)
    assert main(["construct-tree", "2/5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments: TWOSATLAB_WORKERS") and "Traceback" not in err
    assert main(["construct-tree", "2/5", "--workers", "1"]) == 0  # the flag wins
    with pytest.raises(ValueError, match="TWOSATLAB_WORKERS"):
        parallel_map(abs, [1, -2], workers=None)


@pytest.mark.parametrize("workers", [0, -3])
def test_parallel_map_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        parallel_map(abs, [1, -2], workers=workers)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        mixture_decomposition(1.5, n_discrete=10, n_continuous=10, L=3, seed=1,
                              workers=workers)


def _header_config(path):
    header = path.read_text().splitlines()[0]
    assert header.startswith("# config: ")
    return json.loads(header[len("# config: "):])


def test_one_run_embeds_one_config(tmp_path, monkeypatch, capsys):
    # no --seed: the drawn seed must be the same in stdout and every artifact;
    # verify's --seed must reach run_all
    monkeypatch.chdir(tmp_path)
    assert main(["density-evolution", "--d", "1.2", "--size", "500", "--iters", "3",
                 "--emit-trace", "t.csv"]) == 0
    cfg = json.loads(capsys.readouterr().out)["config"]
    assert isinstance(cfg["seed"], int) and cfg["subcommand"] == "density-evolution"
    assert _header_config(tmp_path / "t.csv") == cfg

    assert main(["mixture", "--d", "1.5", "--n-discrete", "300", "--n-continuous", "300",
                 "--depth", "5", "--out", "m.json", "--hist", "h.csv"]) == 0
    cfg = json.loads(capsys.readouterr().out)["config"]
    assert isinstance(cfg["seed"], int) and cfg["subcommand"] == "mixture"
    assert json.loads((tmp_path / "m.json").read_text())["config"] == cfg
    assert _header_config(tmp_path / "h.csv") == cfg

    seeds = []

    def record(ctx):
        seeds.append(ctx.seed)
        return True, "ok"

    monkeypatch.setattr(acceptance, "CRITERIA", [("seed", record)])
    assert main(["verify", "--quick", "--seed", "77"]) == 0
    assert main(["verify", "--quick"]) == 0
    assert seeds == [77, 20240801]


def test_verify_prints_criterion_seconds_on_stderr(monkeypatch, capsys):
    def trivial(passed):
        return "trivial", lambda ctx: (passed, "ok")

    monkeypatch.setattr(acceptance, "CRITERIA", [trivial(True), trivial(False)])
    assert main(["verify", "--quick"]) == 1
    out, err = capsys.readouterr()
    assert out == "[PASS] C01 trivial: ok\n[FAIL] C02 trivial: ok\n"
    assert re.fullmatch(r"C01 \d+\.\d{3} s\nC02 \d+\.\d{3} s\n", err)


# one small valid run per subcommand; the sweep below varies one flag at a time
_SWEEP_BASE = {
    "gen": ["--n", "30", "--d", "1.0", "--seed", "1", "--out", "out.txt"],
    "count": ["--in", "small.txt"],
    "marginals": ["--in", "small.txt", "--out", "out.json"],
    "tree-bp": ["--in", "tree.txt"],
    "construct-tree": ["3/7"],
    "gw-sample": ["--d", "1.5", "--n", "20", "--seed", "1", "--depth", "3", "--conditioned",
                  "survive", "--method", "tree", "--out", "out.txt", "--dump-trees", "trees.txt"],
    "density-evolution": ["--d", "1.2", "--size", "300", "--iters", "3", "--seed", "1",
                          "--out", "out.pop", "--emit-trace", "trace.csv"],
    "atoms": ["--in", "mu.pop", "--d", "1.2"],
    "mixture": ["--d", "1.5", "--n-discrete", "200", "--n-continuous", "200", "--depth", "3",
                "--seed", "1", "--bins", "5", "--out", "out.json", "--hist", "hist.csv"],
    "compare": ["--a", "theta.pop", "--b", "mu.pop"],
    "verify": ["--quick"],
}
_SWEEP_PATHS = {"infile", "out", "dump_trees", "emit_trace", "hist", "pop_a", "pop_b"}


def _sweep_cases():
    """(subcommand, argv) for every numeric flag at 0, -1, nan, inf, 1e308 and
    "", and every path flag at a directory, a missing file and an empty file."""
    import argparse

    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_SWEEP_BASE)
    for name, parser in sub.choices.items():
        for action in parser._actions:
            if not action.option_strings or action.dest == "help":
                continue
            if action.type in (int, float, cli._positive_int):
                values = ["0", "-1", "nan", "inf", "1e308", ""]
            elif action.dest in _SWEEP_PATHS:
                values = ["dir", "missing.txt", "empty.txt"]
            else:
                continue
            flag = action.option_strings[0]
            for value in values:
                argv = list(_SWEEP_BASE[name])
                if flag in argv:
                    argv[argv.index(flag) + 1] = value
                else:
                    argv += [flag, value]
                yield name, [name, *argv]


def test_every_flag_value_maps_to_a_documented_exit(tmp_path, monkeypatch, capsys):
    # in-process through cli.main: an exit code in {0, 2, 3}, no traceback,
    # and no artifact left behind by a run that exits 2
    def trivial(ctx):  # the gate itself is tested elsewhere; its flags are swept here
        return ctx.seed >= 0, "ok"

    monkeypatch.setattr(acceptance, "CRITERIA", [("trivial", trivial)])
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    monkeypatch.chdir(inputs)
    (inputs / "small.txt").write_text("p 2sat 3 2\n1 2\n-1 3\n")
    (inputs / "tree.txt").write_text("(v [-+](v))\n")
    assert main(["density-evolution", "--d", "1.2", "--size", "300", "--iters", "2",
                 "--seed", "1", "--out", "theta.pop"]) == 0
    assert main(["density-evolution", "--d", "1.2", "--size", "300", "--iters", "2",
                 "--seed", "1", "--operator", "de", "--out", "mu.pop"]) == 0
    files = {p.name: p.read_bytes() for p in inputs.iterdir()}
    capsys.readouterr()
    failures = []
    for k, (name, argv) in enumerate(_sweep_cases()):
        run = tmp_path / f"run{k}"
        run.mkdir()
        (run / "dir").mkdir()
        (run / "empty.txt").write_text("")
        for file, data in files.items():
            (run / file).write_bytes(data)
        before = sorted(p.name for p in run.iterdir())
        monkeypatch.chdir(run)
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - reported with its argv below
            code = repr(exc)
        err = capsys.readouterr().err
        changed = [p.name for p in run.iterdir() if p.is_file()
                   and (p.name not in before or p.read_bytes() != files.get(p.name, b""))]
        if code not in (0, 2, 3) or "Traceback" in err or (code == 2 and changed):
            failures.append((argv, code, changed, err.strip().splitlines()[-1:]))
    assert failures == [], "\n".join(map(repr, failures))
