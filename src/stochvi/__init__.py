"""Variance-reduced stochastic extragradient method for pseudo-monotone
stochastic variational inequalities: solver, merit functions, sample-rate
schedules, theoretical-constants calculators, baselines, and a Monte Carlo
experiment harness."""

from .core import (
    ProblemInstance,
    RunPlan,
    SolverConfig,
    derive_stream,
    validate,
)
from .errors import StochviError
from .merit import (
    d_gap,
    distance_sq_to_solutions,
    natural_residual_sq,
)
from .projection import (
    AffineSubspace,
    Ball,
    Box,
    CartesianProduct,
    FeasibleSet,
    Halfspace,
    NonnegativeOrthant,
    Simplex,
    WholeSpace,
    feasible_set_from_config,
    project,
    set_distance,
)
from .sampling import (
    AgentSchedule,
    SampleSchedule,
    error_decay_probe,
    network_exponents,
    verify_network_exponents,
)
from .solver import (
    Ensemble,
    RunTrace,
    fejer_audit,
    martingale_probe,
    run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
