"""Command-line entry point wiring every module together.

One binary, subcommand style; JSON for structured results, CSV for vectors
and histograms, and the dedicated text formats for formulas, trees and
populations. `main` resolves the run configuration once (drawing the seed
when absent) and hands it to the subcommand, whose JSON/CSV artifacts all
embed it, so each one can be reproduced.
Exit codes: 0 ok, 1 verification failure, 2 invalid arguments, 3 resource
limits.

Each subcommand imports the numeric modules it runs, so the exact rational
ones (`construct-tree`, `tree-bp`) start without numpy, and `construct-tree`
without `json`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import treebp
from .util import (COMPONENT_CAP, ENUM_CAP, EXPAND_CAP, ResourceLimitError,
                   default_workers, format_double)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
# embedded configs omit the worker count: results are worker-invariant, so
# artifacts must stay byte-identical for any parallelism
_NOT_PARAMS = {"func", "out", "emit_trace", "hist", "subcommand", "seed", "workers"}


class _Parser(argparse.ArgumentParser):
    """Raises argparse's message as a ValueError, so `main` returns its exit 2."""

    def error(self, message):
        raise ValueError(message)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _write(text: str, path=None) -> None:
    """Write `text` to the file `path`, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, cfg: dict, path=None) -> None:
    import json

    _write(json.dumps({"config": cfg, **payload}, indent=2, sort_keys=True) + "\n", path)


def _write_csv(path: str, cfg: dict, header: str, rows) -> None:
    """Write a CSV artifact: a `# config:` line, the header, then the rows."""
    import json

    lines = [f"# config: {json.dumps(cfg, sort_keys=True)}", header, *rows]
    _write("".join(line + "\n" for line in lines), path)


# -- subcommand bodies --------------------------------------------------------


def cmd_gen(args, cfg):
    from . import formula

    f = formula.generate_formula(args.n, args.d, args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            formula.write_formula(f, fh)
        _emit_json({"n": f.n, "m": f.m, "out": args.out}, cfg)
    else:
        formula.write_formula(f, sys.stdout)


def cmd_count(args, cfg):
    from . import formula

    with open(args.infile) as fh:
        f = formula.read_formula(fh)
    stats = formula.count_solutions(f, cap=args.cap)
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


def cmd_marginals(args, cfg):
    from . import formula

    with open(args.infile) as fh:
        f = formula.read_formula(fh)
    marg = formula.exact_marginals(f, component_cap=args.component_cap)
    payload = formula.marginals_to_json(f.n, marg)
    if args.out:
        _emit_json(payload, cfg, args.out)
        payload = {"n": f.n, "unsat": marg is None, "out": args.out}
    _emit_json(payload, cfg)


def cmd_tree_bp(args, cfg):
    if args.tree is not None:
        t = treebp.parse_tree(args.tree)
    else:
        with open(args.infile) as fh:
            t = treebp.parse_tree(fh.read())
    q = treebp.root_marginal(t)
    _emit_json({"marginal": f"{q.numerator}/{q.denominator}", "marginal_float": float(q),
                "log_likelihood": treebp.log_likelihood(q)}, cfg)


def cmd_construct_tree(args, cfg):
    try:
        a, b = map(int, args.fraction.split("/"))
    except ValueError:  # too few or too many parts, or a part that is no integer
        raise ValueError(
            f"expected a fraction a/b of two integers, got {args.fraction!r}") from None
    t = treebp.construct_rational_tree(a, b)
    size = treebp.expanded_size(t)
    if size > EXPAND_CAP:  # the text writes every node of the expansion
        raise ResourceLimitError(f"expanded tree has {size} nodes, cap {EXPAND_CAP}")
    q = treebp.root_marginal(t)
    print(treebp.format_tree(t))
    print(f"marginal={q.numerator}/{q.denominator}")


def cmd_gw_sample(args, cfg):
    from . import gwsim

    info = gwsim.extinction_probability(args.d)
    # extinct trees are never cut: neither the sampler nor the summary gets a depth
    depth = None if args.conditioned == "extinct" else args.depth
    method = args.method
    if method == "auto":
        method = "population" if args.conditioned == "survive" and args.depth > 12 else "tree"
    if method == "population":
        if args.conditioned != "survive":
            raise ValueError("--method population needs --conditioned survive")
        if args.dump_trees:
            raise ValueError("--dump-trees needs --method tree")
        from .densityev import psi

        values = psi(gwsim.survival_theta_population(args.d, depth, args.n, args.seed))
    else:
        fracs, texts = gwsim.tree_marginal_samples(
            args.d, args.n, args.seed, args.conditioned, depth,
            workers=args.workers, dump=bool(args.dump_trees))
        if any(q is None for q in fracs):
            raise ResourceLimitError("a sampled tree outgrew the node cap")
        values = [float(q) for q in fracs]
        if args.dump_trees:
            with open(args.dump_trees, "w") as fh:
                fh.writelines(text + "\n" for text in texts)

    _write("".join(format_double(v) + "\n" for v in values), args.out)
    summary = {
        "eta": info.eta,
        "samples": int(args.n),
        "depth": depth,
        "method": method,
    }
    _emit_json(summary, cfg)


def cmd_density_evolution(args, cfg):
    from . import densityev

    res = densityev.fixpoint(
        args.d, args.size, max_iter=args.iters, tol=args.tol, seed=args.seed,
        operator=args.operator,
    )
    if args.emit_trace:
        _write_csv(args.emit_trace, cfg, "iter,w2_step,mass_at_half",
                   (f"{it},{format_double(w2)},{format_double(mass)}"
                    for it, w2, mass in res.trace))
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


def cmd_atoms(args, cfg):
    from . import analysis, densityev, gwsim

    if args.d is not None and not 0 < args.d < 2:
        raise ValueError(f"--d must be in (0,2), got {args.d}")
    if not 0 < args.weight < math.inf:
        raise ValueError(f"--weight must be positive and finite, got {args.weight}")
    with open(args.infile) as fh:
        pop = densityev.read_population(fh)
    report = analysis.detect_atoms(
        pop, window=args.window, max_den=args.max_den, min_count=args.min_count
    )
    d = args.d if args.d is not None else pop.d
    rows = []
    for atom in report.atoms:
        row = {"fraction": f"{atom.value.numerator}/{atom.value.denominator}",
               "mass": atom.mass, "lower_bound": None, "ok": None}
        if d is not None:
            lb = gwsim.tree_probability(
                treebp.construct_rational_tree(atom.value.numerator, atom.value.denominator), d)
            se = (atom.count + 1) ** 0.5 / report.total_samples
            row["lower_bound"] = lb
            row["ok"] = bool(atom.mass * args.weight + 3 * se * args.weight >= lb)
        rows.append(row)
    for row in rows:
        bound = "-" if row["lower_bound"] is None else f"{row['lower_bound']:.6g}"
        verdict = "-" if row["ok"] is None else ("pass" if row["ok"] else "FAIL")
        print(f"{row['fraction']:>10}  mass={row['mass']:.6f}  lower_bound={bound:>10}  {verdict}")
    _emit_json({"report": report.as_dict(), "table": rows, "d": d}, cfg)


def cmd_mixture(args, cfg):
    from . import analysis

    if args.hist and args.d <= 1:
        raise ValueError("--hist needs d > 1: below it the law has no continuous part")
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
    if args.hist:
        _write_csv(args.hist, cfg, "bin_lo,bin_hi,count",
                   (f"{row['bin_lo']:.6f},{row['bin_hi']:.6f},{row['count']}"
                    for row in rep.continuous_summary["histogram"]))
    payload = rep.as_dict()
    if args.out:
        _emit_json(payload, cfg, args.out)
        payload = {"out": args.out, "eta": rep.eta}
    _emit_json(payload, cfg)


def cmd_compare(args, cfg):
    from . import analysis, densityev

    with open(args.pop_a) as fh:
        pa = densityev.read_population(fh)
    with open(args.pop_b) as fh:
        pb = densityev.read_population(fh)
    _emit_json(analysis.compare_distributions(pa, pb), cfg)


def cmd_verify(args, cfg) -> int:
    from . import acceptance

    results = acceptance.run_all(quick=args.quick, workers=args.workers, base_seed=args.seed)
    for r in results:
        print(r.line())
    for r in results:  # timings on stderr: stdout stays byte-identical
        print(f"C{r.number:02d} {r.seconds:.3f} s", file=sys.stderr)
    return EXIT_VERIFY_FAIL if any(not r.passed for r in results) else EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="twosatlab",
        description="simulation and exact-computation lab for random 2-SAT marginals",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        # None: TWOSATLAB_WORKERS, read in main so a bad value exits 2
        p.add_argument("--workers", type=_positive_int, default=None)
        return p

    p = add("gen", cmd_gen, help="draw a random formula and write its text form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = add("count", cmd_count, help="exhaustively count solutions of a formula file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cap", type=int, default=ENUM_CAP)

    p = add("marginals", cmd_marginals, help="exact per-variable marginals as JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--component-cap", type=int, default=COMPONENT_CAP)
    p.add_argument("--out", default=None)

    p = add("tree-bp", cmd_tree_bp, help="root marginal of a serialized tree")
    tree = p.add_mutually_exclusive_group(required=True)
    tree.add_argument("--tree")
    tree.add_argument("--in", dest="infile")

    p = add("construct-tree", cmd_construct_tree,
            help="build a tree with the given root marginal, e.g. 2/5")
    p.add_argument("fraction")

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
    p.add_argument("--size", type=_positive_int, default=100_000)
    p.add_argument("--iters", type=_positive_int, default=60)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--operator", choices=["ll", "de"], default="ll")
    p.add_argument("--emit-trace", dest="emit_trace", default=None)
    p.add_argument("--out", default=None)

    p = add("atoms", cmd_atoms, help="atom report for a population file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", type=float, default=1e-9)
    p.add_argument("--max-den", type=int, default=64)
    p.add_argument("--min-count", type=_positive_int, default=2)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--weight", type=float, default=1.0)

    p = add("mixture", cmd_mixture, help="discrete/continuous mixture decomposition")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--n-discrete", type=_positive_int, default=100_000)
    p.add_argument("--n-continuous", type=_positive_int, default=100_000)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bins", type=_positive_int, default=20)
    p.add_argument("--window", type=float, default=1e-6)
    p.add_argument("--max-den", type=int, default=64)
    p.add_argument("--min-count", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--hist", default=None)

    p = add("compare", cmd_compare, help="W1 and KS distance between two populations")
    p.add_argument("--a", dest="pop_a", required=True)
    p.add_argument("--b", dest="pop_b", required=True)

    p = add("verify", cmd_verify, help="run the acceptance suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=20240801)

    return ap


def main(argv=None) -> int:
    # exact values can be any length; the caller's limit is back on every exit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:  # drawn once, so every artifact records it
            import secrets

            args.seed = secrets.randbits(48)
        elif getattr(args, "seed", 0) < 0:  # numpy's own message names no flag
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        cfg = {"subcommand": args.subcommand, "seed": getattr(args, "seed", None),
               "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}}
        if args.workers is None:
            args.workers = default_workers()
        for dest in ("out", "dump_trees", "emit_trace", "hist"):  # an exit 2 writes nothing
            path = getattr(args, dest, None)
            if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
                raise ValueError(f"cannot write {path!r}: a directory, or in none")
        return args.func(args, cfg) or EXIT_OK
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # OSError: a path missing, a directory, ...
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
