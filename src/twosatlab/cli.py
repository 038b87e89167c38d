"""Command-line entry point wiring every module together.

One binary, subcommand style; JSON for structured results, CSV for vectors
and histograms, and the dedicated text formats for formulas, trees and
populations. Every JSON/CSV artifact embeds the resolved run configuration
(including the seed, auto-generated when absent) so it can be reproduced.
Exit codes: 0 ok, 1 verification failure, 2 invalid arguments, 3 resource
limits.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, densityev, formula, gwsim, treebp
from .numerics import psi
from .util import ResourceLimitError, default_workers, format_double

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


@dataclass
class RunConfig:
    subcommand: str
    params: dict
    seed: int | None

    def as_dict(self):
        return {"subcommand": self.subcommand, "params": self.params, "seed": self.seed}


def _resolve_seed(args) -> int | None:
    seed = getattr(args, "seed", None)
    if seed is None and hasattr(args, "seed"):
        seed = secrets.randbits(48)
        args.seed = seed
    return seed


def _config(args, name: str) -> RunConfig:
    # embedded configs omit the worker count: results are worker-invariant,
    # so artifacts must stay byte-identical for any parallelism
    skip = {"func", "out", "emit_trace", "hist", "subcommand", "seed", "workers"}
    params = {
        k: v for k, v in vars(args).items() if k not in skip and not k.startswith("_")
    }
    return RunConfig(
        subcommand=name,
        params=params,
        seed=getattr(args, "seed", None),
    )


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _emit_json(payload: dict, cfg: RunConfig) -> None:
    payload = {"config": cfg.as_dict(), **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def _open_out(path):
    return open(path, "w") if path else sys.stdout


# -- subcommand bodies --------------------------------------------------------


def cmd_gen(args):
    _resolve_seed(args)
    f = formula.generate_formula(args.n, args.d, args.seed)
    cfg = _config(args, "gen")
    if args.out:
        with open(args.out, "w") as fh:
            formula.write_formula(f, fh)
        _emit_json({"n": f.n, "m": f.m, "out": args.out}, cfg)
    else:
        formula.write_formula(f, sys.stdout)


def cmd_count(args):
    with open(args.infile) as fh:
        f = formula.read_formula(fh)
    stats = formula.count_solutions(f, cap=args.cap)
    cfg = _config(args, "count")
    _emit_json(
        {
            "n": f.n,
            "m": f.m,
            "count": str(stats.count),
            "true_counts": [str(c) for c in stats.true_counts],
            "satisfiable": stats.count > 0,
        },
        cfg,
    )


def cmd_marginals(args):
    with open(args.infile) as fh:
        f = formula.read_formula(fh)
    marg = formula.exact_marginals(f, component_cap=args.component_cap)
    cfg = _config(args, "marginals")
    payload = formula.marginals_to_json(f.n, marg)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"config": cfg.as_dict(), **payload}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _emit_json({"n": f.n, "unsat": marg is None, "out": args.out}, cfg)
    else:
        _emit_json(payload, cfg)


def cmd_tree_bp(args):
    if args.tree is None and args.infile is None:
        raise ValueError("pass a tree with --tree or --in")
    if args.tree:
        t = treebp.parse_tree(args.tree)
    else:
        with open(args.infile) as fh:
            t = treebp.parse_tree(fh.read())
    q = treebp.root_marginal(t)
    cfg = _config(args, "tree-bp")
    _emit_json(
        {
            "marginal": f"{q.numerator}/{q.denominator}",
            "marginal_float": float(q),
            "log_likelihood": treebp.log_likelihood(t),
        },
        cfg,
    )


def cmd_construct_tree(args):
    a, b = args.fraction.split("/")
    t = treebp.construct_rational_tree(int(a), int(b))
    q = treebp.root_marginal(t)
    print(treebp.format_tree(t))
    print(f"marginal={q.numerator}/{q.denominator}")


def cmd_gw_sample(args):
    _resolve_seed(args)
    cfg = _config(args, "gw-sample")
    info = gwsim.extinction_probability(args.d)
    method = args.method
    if method == "auto":
        method = "population" if args.depth > 12 else "tree"

    dump = open(args.dump_trees, "w") if args.dump_trees else None
    if args.conditioned == "survive" and method == "population":
        if dump:
            dump.close()
            raise ValueError("--dump-trees needs --method tree")
        theta = gwsim.survival_theta_population(args.d, args.depth, args.n, args.seed)
        values = psi(theta)
    else:
        values = np.empty(args.n)
        for k in range(args.n):
            sub = int(np.random.SeedSequence([args.seed, k]).generate_state(1)[0])
            if args.conditioned == "none":
                t = gwsim.sample_truncated(args.d, args.depth, sub)
                values[k] = float(gwsim.marginal_sequence(t)[-1])
            elif args.conditioned == "extinct":
                t = gwsim.sample_extinct_conditioned(args.d, sub)
                values[k] = float(treebp.root_marginal(t.root))
            else:
                t = gwsim.sample_survival_conditioned(args.d, args.depth, sub)
                values[k] = float(gwsim.marginal_sequence(t)[-1])
            if dump:
                dump.write(treebp.format_tree(t.root, marks=t.conditioned == "survive") + "\n")
        if dump:
            dump.close()

    out = _open_out(args.out)
    for v in values:
        out.write(format_double(v) + "\n")
    if args.out:
        out.close()
    summary = {
        "eta": info.eta,
        "samples": int(args.n),
        "depth": args.depth,
        "method": method,
    }
    _emit_json(summary, cfg)


def cmd_density_evolution(args):
    _resolve_seed(args)
    cfg = _config(args, "density-evolution")
    res = densityev.fixpoint(
        args.d, args.size, max_iter=args.iters, tol=args.tol, seed=args.seed,
        operator=args.operator,
    )
    if args.emit_trace:
        with open(args.emit_trace, "w") as fh:
            fh.write("# config: " + json.dumps(cfg.as_dict(), sort_keys=True) + "\n")
            fh.write("iter,w2_step,mass_at_half\n")
            for it, w2, mass in res.trace:
                fh.write(f"{it},{format_double(w2)},{format_double(mass)}\n")
    if args.out:
        pop = res.population
        with open(args.out, "w") as fh:
            densityev.write_population(pop, fh)
    if not res.converged:
        print("warning: no convergence before max_iter", file=sys.stderr)
    _emit_json(
        {
            "converged": res.converged,
            "iterations": res.iterations,
            "noise_floor": res.noise_floor,
            "w2_last": res.trace[-1][1] if res.trace else None,
            "mass_at_half": res.trace[-1][2] if res.trace else None,
            "out": args.out,
        },
        cfg,
    )


def cmd_atoms(args):
    with open(args.infile) as fh:
        pop = densityev.read_population(fh)
    report = analysis.detect_atoms(
        pop, window=args.window, max_den=args.max_den, min_count=args.min_count
    )
    cfg = _config(args, "atoms")
    d = args.d if args.d is not None else pop.d
    rows = []
    for atom in report.atoms:
        row = {"fraction": f"{atom.value.numerator}/{atom.value.denominator}",
               "mass": atom.mass, "lower_bound": None, "ok": None}
        if d is not None:
            shape = gwsim.from_tree_formula(
                treebp.construct_rational_tree(atom.value.numerator, atom.value.denominator), d
            )
            lb = gwsim.tree_probability(shape, d)
            se = (atom.count + 1) ** 0.5 / report.total_samples
            row["lower_bound"] = lb
            row["ok"] = bool(atom.mass * args.weight + 3 * se * args.weight >= lb)
        rows.append(row)
    for row in rows:
        bound = "-" if row["lower_bound"] is None else f"{row['lower_bound']:.6g}"
        verdict = "-" if row["ok"] is None else ("pass" if row["ok"] else "FAIL")
        print(f"{row['fraction']:>10}  mass={row['mass']:.6f}  lower_bound={bound:>10}  {verdict}")
    _emit_json({"report": report.as_dict(), "table": rows, "d": d}, cfg)


def cmd_mixture(args):
    _resolve_seed(args)
    cfg = _config(args, "mixture")
    rep = analysis.mixture_decomposition(
        args.d,
        n_discrete=args.n_discrete,
        n_continuous=args.n_continuous,
        L=args.depth,
        seed=args.seed,
        bins=args.bins,
        window=args.window,
        max_den=args.max_den,
        min_count=args.min_count,
        workers=args.workers,
    )
    if args.hist and rep.continuous_summary:
        with open(args.hist, "w") as fh:
            fh.write("# config: " + json.dumps(cfg.as_dict(), sort_keys=True) + "\n")
            fh.write("bin_lo,bin_hi,count\n")
            for row in rep.continuous_summary["histogram"]:
                fh.write(f"{row['bin_lo']:.6f},{row['bin_hi']:.6f},{row['count']}\n")
    payload = rep.as_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"config": cfg.as_dict(), **payload}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _emit_json({"out": args.out, "eta": rep.eta}, cfg)
    else:
        _emit_json(payload, cfg)


def cmd_compare(args):
    with open(args.pop_a) as fh:
        pa = densityev.read_population(fh)
    with open(args.pop_b) as fh:
        pb = densityev.read_population(fh)
    cfg = _config(args, "compare")
    _emit_json(analysis.compare_distributions(pa, pb), cfg)


def cmd_verify(args):
    from . import acceptance

    results = acceptance.run_all(quick=args.quick, workers=args.workers,
                                 base_seed=args.seed if args.seed is not None else 20240801)
    failed = [r for r in results if not r.passed]
    sys.exit(EXIT_VERIFY_FAIL if failed else EXIT_OK)


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twosatlab",
        description="simulation and exact-computation lab for random 2-SAT marginals",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        p.add_argument("--workers", type=_positive_int, default=default_workers())
        return p

    p = add("gen", cmd_gen, help="draw a random formula and write its text form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = add("count", cmd_count, help="exhaustively count solutions of a formula file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cap", type=int, default=formula.ENUM_CAP)

    p = add("marginals", cmd_marginals, help="exact per-variable marginals as JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--component-cap", type=int, default=formula.COMPONENT_CAP)
    p.add_argument("--out", default=None)

    p = add("tree-bp", cmd_tree_bp, help="root marginal of a serialized tree")
    p.add_argument("--tree", default=None)
    p.add_argument("--in", dest="infile", default=None)

    p = add("construct-tree", cmd_construct_tree,
            help="build a tree with the given root marginal, e.g. 2/5")
    p.add_argument("fraction")
    p.set_defaults(workers=1)

    p = add("gw-sample", cmd_gw_sample, help="sample branching-process marginals")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--conditioned", choices=["none", "extinct", "survive"],
                   default="none")
    p.add_argument("--method", choices=["auto", "tree", "population"], default="auto")
    p.add_argument("--out", default=None)
    p.add_argument("--dump-trees", dest="dump_trees", default=None)

    p = add("density-evolution", cmd_density_evolution,
            help="iterate the population recursion to its fixed point")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--size", type=int, default=100_000)
    p.add_argument("--iters", type=int, default=60)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--operator", choices=["ll", "de"], default="ll")
    p.add_argument("--emit-trace", dest="emit_trace", default=None)
    p.add_argument("--out", default=None)

    p = add("atoms", cmd_atoms, help="atom report for a population file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", type=float, default=1e-9)
    p.add_argument("--max-den", type=int, default=64)
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--weight", type=float, default=1.0)

    p = add("mixture", cmd_mixture, help="discrete/continuous mixture decomposition")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--n-discrete", type=int, default=100_000)
    p.add_argument("--n-continuous", type=int, default=100_000)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--window", type=float, default=1e-6)
    p.add_argument("--max-den", type=int, default=64)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--hist", default=None)

    p = add("compare", cmd_compare, help="W1 and KS distance between two populations")
    p.add_argument("--a", dest="pop_a", required=True)
    p.add_argument("--b", dest="pop_b", required=True)

    p = add("verify", cmd_verify, help="run the acceptance suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=None)

    return ap


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact values can be any length
        sys.set_int_max_str_digits(0)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, FileNotFoundError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SystemExit as exc:
        return int(exc.code or 0)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
