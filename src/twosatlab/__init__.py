"""Simulation and exact-computation lab for random 2-SAT marginal distributions.

Exports load on first use (PEP 562): `import twosatlab` imports no submodule,
so the exact rational paths never pay for numpy.
"""

from importlib import import_module

_EXPORTS = {
    "analysis": (
        "AtomReport", "MixtureReport", "compare_distributions", "detect_atoms",
        "max_cluster_mass", "mixture_decomposition", "snap_to_fraction",
        "support_coverage",
    ),
    "densityev": (
        "FixpointResult", "Kind", "Population", "apply_de", "apply_ll", "fixpoint", "psi",
        "psi_push", "read_population", "write_population",
    ),
    "formula": (
        "Formula", "SolutionStats", "count_solutions", "empirical_marginal_measure",
        "exact_marginals", "generate_formula", "is_satisfiable", "marginals_to_json",
        "read_formula", "write_formula",
    ),
    "gwsim": (
        "ExtinctionInfo", "coupled_increment_stats", "extinct_marginal_samples",
        "extinction_probability", "from_tree_formula", "survival_theta_population",
        "tree_marginal_samples", "tree_probability",
    ),
    "treebp": (
        "CLAUSE_TYPES", "ClauseType", "TreeFormula", "construct_rational_tree",
        "format_tree", "join", "log_likelihood", "negate", "parse_tree",
        "root_marginal", "to_formula",
    ),
    "util": ("ResourceLimitError",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
