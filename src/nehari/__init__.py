"""Ground states of coupled Schrodinger systems via Nehari-manifold minimization."""

from .grid import (
    DomainSpec,
    GridFunction,
    laplacian_apply,
    h_norm_sq,
    h_inner,
    l2_inner,
    lp_norm,
    shift,
    local_mass_sup,
    save_grid_function,
    load_grid_function,
    grid_function_to_csv,
)
from .model import (
    Nonlinearity,
    ProblemSpec,
    ValidationReport,
    ValidationError,
    validate_nonlinearity,
    validate_potentials,
    validate_problem,
    radius_R,
)
from .energy import (
    State,
    EnergyBreakdown,
    FiberingReport,
    energy,
    coercive_form,
    norm_E,
    e_inner,
    grad_l2,
    grad_precond,
    nehari_xi,
    nehari_xi_slope,
    fibering_value,
    fibering_slope,
    fibering_slope_nehari_form,
    fibering_project,
)
from .solver import (
    SolveConfig,
    SolveReport,
    DecayFit,
    SolverStallError,
    initial_states,
    minimize_on_nehari,
    find_ground_state,
    recenter,
    decay_fit,
    m_map,
    m_inverse,
)
from .multiplicity import (
    SolutionSet,
    FountainReport,
    eigenbasis,
    fountain_diagnostics,
    orbit_distance,
    deflated_search,
    find_distinct_solutions,
)
from .expressions import ParseError, parse_expr, eval_expr, expr_to_text

__version__ = "0.1.0"

# Names of ``nehari.cli`` resolve on first access (PEP 562): importing the
# package must not import ``nehari.cli``, or ``python -m nehari.cli`` warns
# that the module it is about to run is already in ``sys.modules``.
_CLI_NAMES = frozenset({
    "RunConfig",
    "parse_config",
    "emit_config",
    "build_problem",
    "default_config",
    "default_bounded_spec",
    "default_periodic_spec",
})


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
