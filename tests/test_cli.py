"""Subcommand behavior, exit codes, artifact formats, determinism."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

import twosatlab
from twosatlab import acceptance, treebp
from twosatlab.cli import main
from twosatlab.densityev import read_population
from twosatlab.util import child_env


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "twosatlab", *args],
        cwd=cwd, capture_output=True, text=True, env=child_env(),
    )


def test_construct_tree_output(tmp_path):
    out = run_cli(["construct-tree", "2/5"], tmp_path)
    lines = out.stdout.splitlines()
    assert out.returncode == 0
    assert lines[-1] == "marginal=2/5"
    assert lines[0].startswith("(v ")


def test_gen_deterministic_bytes(tmp_path):
    for name in ("a.txt", "b.txt"):
        res = run_cli(["gen", "--n", "50", "--d", "1.0", "--seed", "7",
                       "--out", name], tmp_path)
        assert res.returncode == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_gen_auto_seed_recorded(tmp_path):
    res = run_cli(["gen", "--n", "20", "--d", "1.0", "--out", "f.txt"], tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["config"]["seed"] is not None


def test_marginals_json(tmp_path):
    gen = run_cli(["gen", "--n", "40", "--d", "1.0", "--seed", "3", "--out", "f.txt"],
                  tmp_path)
    assert gen.returncode == 0, gen.stderr
    res = run_cli(["marginals", "--in", "f.txt"], tmp_path)
    payload = json.loads(res.stdout)
    assert payload["n"] == 40
    # cyclic components can force variables, so 0 and 1 are legal here
    for entry in payload["marginals"]:
        assert set(entry) == {"var", "num", "den"}
        assert 0 <= int(entry["num"]) <= int(entry["den"])
    assert any(entry["num"] == "1" and entry["den"] == "2"
               for entry in payload["marginals"])


def test_count_matches_library(tmp_path):
    (tmp_path / "f.txt").write_text("p 2sat 2 1\n1 2\n")
    res = run_cli(["count", "--in", "f.txt"], tmp_path)
    payload = json.loads(res.stdout)
    assert payload["count"] == "3"
    assert payload["true_counts"] == ["2", "2"]


def test_exit_code_invalid_argument(tmp_path):
    res = run_cli(["gen", "--n", "1", "--d", "1.0", "--seed", "0"], tmp_path)
    assert res.returncode == 2
    assert "invalid" in res.stderr.lower()


def test_exit_code_resource_limit(tmp_path):
    lines = ["p 2sat 32 31"] + [f"{i} {i + 1}" for i in range(1, 32)]
    (tmp_path / "big.txt").write_text("\n".join(lines) + "\n")
    res = run_cli(["count", "--in", "big.txt"], tmp_path)
    assert res.returncode == 3
    assert "resource" in res.stderr.lower()


def test_exit_code_bad_subcommand(tmp_path):
    res = run_cli(["frobnicate"], tmp_path)
    assert res.returncode == 2


def test_gw_sample_output_format(tmp_path):
    res = run_cli(["gw-sample", "--d", "1.5", "--depth", "4", "--n", "50",
                   "--seed", "9", "--conditioned", "extinct", "--out", "v.txt"],
                  tmp_path)
    summary = json.loads(res.stdout)
    assert summary["samples"] == 50
    assert summary["eta"] == pytest.approx(0.41718835, abs=1e-6)
    values = [float(line) for line in (tmp_path / "v.txt").read_text().splitlines()]
    assert len(values) == 50
    assert all(0.0 < v < 1.0 for v in values)


def test_gw_sample_survive_population(tmp_path):
    res = run_cli(["gw-sample", "--d", "1.5", "--depth", "30", "--n", "400",
                   "--seed", "2", "--conditioned", "survive", "--out", "s.txt"],
                  tmp_path)
    summary = json.loads(res.stdout)
    assert summary["method"] == "population"
    values = [float(x) for x in (tmp_path / "s.txt").read_text().split()]
    assert len(values) == 400


def test_density_evolution_artifacts(tmp_path):
    res = run_cli(["density-evolution", "--d", "1.5", "--size", "3000",
                   "--iters", "25", "--tol", "1e-3", "--seed", "5",
                   "--out", "p.pop", "--emit-trace", "t.csv"], tmp_path)
    summary = json.loads(res.stdout)
    assert summary["converged"] is True
    with open(tmp_path / "p.pop") as fh:
        pop = read_population(fh)
    assert pop.size == 3000 and pop.d == 1.5
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "iter,w2_step,mass_at_half"
    assert len(lines) >= 3


def test_atoms_table(tmp_path):
    de = run_cli(["density-evolution", "--d", "1.2", "--size", "4000", "--iters", "20",
                  "--tol", "1e-3", "--seed", "6", "--operator", "de", "--out", "mu.pop"],
                 tmp_path)
    assert de.returncode == 0, de.stderr
    res = run_cli(["atoms", "--in", "mu.pop", "--min-count", "40"], tmp_path)
    assert res.returncode == 0
    assert "1/2" in res.stdout
    assert "pass" in res.stdout
    payload = json.loads(res.stdout[res.stdout.index("{"):])
    assert payload["report"]["atoms"]


def test_mixture_artifacts(tmp_path):
    res = run_cli(["mixture", "--d", "1.5", "--n-discrete", "1000",
                   "--n-continuous", "1000", "--depth", "8", "--seed", "3",
                   "--out", "m.json", "--hist", "h.csv"], tmp_path)
    assert res.returncode == 0
    report = json.loads((tmp_path / "m.json").read_text())
    assert report["eta"] == pytest.approx(0.41718835, abs=1e-6)
    assert report["continuous_summary"]["support_total_bins"] == 20
    header = (tmp_path / "h.csv").read_text().splitlines()
    assert header[1] == "bin_lo,bin_hi,count"


def test_compare_identical(tmp_path):
    de = run_cli(["density-evolution", "--d", "1.0", "--size", "1000", "--iters", "5",
                  "--tol", "1e-2", "--seed", "8", "--out", "x.pop"], tmp_path)
    assert de.returncode == 0, de.stderr
    res = run_cli(["compare", "--a", "x.pop", "--b", "x.pop"], tmp_path)
    payload = json.loads(res.stdout)
    assert payload["w1"] == 0.0 and payload["ks"] == 0.0


def test_gw_sample_tree_dump(tmp_path):
    res = run_cli(["gw-sample", "--d", "1.5", "--depth", "3", "--n", "20",
                   "--seed", "5", "--conditioned", "survive", "--method", "tree",
                   "--out", "v.txt", "--dump-trees", "trees.txt"], tmp_path)
    assert res.returncode == 0
    lines = (tmp_path / "trees.txt").read_text().splitlines()
    assert len(lines) == 20
    assert all(line.startswith("(v!") for line in lines)


def test_main_in_process_invalid():
    assert main(["gen", "--n", "1", "--d", "1.0", "--seed", "0"]) == 2
    assert main(["tree-bp"]) == 2


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


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_must_be_positive(workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["marginals", "--in", "unused.txt", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_workers_do_not_change_output(tmp_path):
    outputs = []
    for workers in ("1", "4"):
        res = run_cli(["mixture", "--d", "1.3", "--n-discrete", "2000",
                       "--n-continuous", "500", "--depth", "6", "--seed", "11",
                       "--workers", workers], tmp_path)
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
    def failing(argv, workdir, workers):
        return subprocess.CompletedProcess(
            argv, 3, stdout=b"", stderr=b"note\nresource limit: too big\n")

    monkeypatch.setattr(acceptance, "_run_cli", failing)
    ctx = acceptance.Context(sizes=acceptance.QUICK_SIZES, seed=1, workers=None)
    res = acceptance.criterion_12_determinism(ctx)
    assert not res.passed
    assert "twosatlab gen --n 60" in res.detail
    assert "--workers 1 exited 3" in res.detail
    assert res.detail.endswith("resource limit: too big")


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
    t = treebp.leaf()
    for _ in range(14):
        t = treebp.TreeFormula(children=((treebp.ClauseType(1, 1), t),) * 2)
    path = tmp_path / "binary.txt"
    path.write_text(treebp.format_tree(t) + "\n")
    limit = sys.get_int_max_str_digits()
    try:
        assert main(["tree-bp", "--in", str(path)]) == 0
        q = treebp.root_marginal(t)
        assert len(str(q.denominator)) > 4300
        assert json.loads(capsys.readouterr().out)["marginal"] == f"{q.numerator}/{q.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_cli_import_skips_scipy():
    probe = ("import sys, twosatlab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
