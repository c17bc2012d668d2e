"""Minimum-cost escape paths, stochastic stability, and evolutionary
bargaining solutions for coordination games under logit choice dynamics."""

from .bargaining import (
    BargainingSolutions,
    Frontier,
    StableDivision,
    convergence_sweep,
    crossings,
    rl_functions,
    solve_solutions,
    stable_division,
)
from .chain import (
    CostRule,
    Move,
    Path,
    apply_move,
    basin,
    convention_state,
    enumerate_states,
    in_basin,
    move_between,
    path_cost,
    payoff,
    payoff_vector,
    step_cost,
    transition_matrix,
    transition_probability,
)
from .continuum import (
    ContinuumBlockPath,
    ThreeStrategyTransitionCosts,
    oblique_cost,
    omega,
    straight_cost,
    transition_cost_limit_3,
)
from .errors import (
    AdjacencyError,
    ConditionError,
    GuardrailExceeded,
    InfeasibleMoveError,
    LdlError,
    UnsupportedRuleError,
)
from .escape import (
    EscapeResult,
    exit_bruteforce,
    exit_limit_one_pop,
    exit_limit_two_pop,
    exit_reduced,
    pairwise_escape_term,
)
from .games import (
    ConditionReport,
    OnePopGame,
    TwoPopGame,
    game_from_json,
    game_to_json,
    mbp_margin,
    mixed_equilibrium,
    ndg_build,
    skew,
    tech_game,
    tilde_s,
    validate_one_pop,
    validate_two_pop,
)
from .paths import BlockSpec, enumerate_block_paths
from .stability import (
    ArborescenceResult,
    StabilityReport,
    arborescence_root,
    beta_ladder_trace,
    incidence,
    invariant_measure,
    maxmin_test,
    radius_matrix,
    resolve_stability,
    transition_cost_bruteforce,
    transition_cost_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
