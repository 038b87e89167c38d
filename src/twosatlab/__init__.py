"""Simulation and exact-computation lab for random 2-SAT marginal distributions."""

from .analysis import (
    AtomReport,
    MixtureReport,
    compare_distributions,
    detect_atoms,
    max_cluster_mass,
    mixture_decomposition,
    snap_to_fraction,
    support_coverage,
)
from .densityev import (
    FixpointResult,
    Kind,
    Population,
    apply_de,
    apply_ll,
    apply_ll_coupled,
    fixpoint,
    phi_push,
    psi_push,
    read_population,
    wasserstein2,
    write_population,
)
from .formula import (
    Formula,
    SolutionStats,
    count_solutions,
    empirical_marginal_measure,
    exact_marginals,
    generate_formula,
    is_satisfiable,
    marginals_to_json,
    read_formula,
    write_formula,
)
from .gwsim import (
    ExtinctionInfo,
    GWNode,
    GWTree,
    coupled_increment_stats,
    extinct_marginal_samples,
    extinction_probability,
    from_tree_formula,
    marginal_sequence,
    sample_extinct_conditioned,
    sample_survival_conditioned,
    sample_truncated,
    survival_theta_population,
    tree_probability,
    truncate,
)
from .numerics import log_clause_term, phi, psi
from .treebp import (
    CLAUSE_TYPES,
    ClauseType,
    TreeFormula,
    construct_rational_tree,
    format_tree,
    join,
    leaf,
    log_likelihood,
    negate,
    parse_tree,
    root_marginal,
    to_formula,
)
from .util import ResourceLimitError

__version__ = "0.1.0"
