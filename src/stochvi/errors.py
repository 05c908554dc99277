"""Exception types shared across the package."""


class StochviError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(StochviError):
    """A vector or matrix has the wrong shape for the requested operation."""


class BlockMismatch(StochviError):
    """Block sizes do not partition the ambient dimension consistently."""


class InfeasibleAffine(StochviError):
    """The affine system defining a feasible set has no solution."""


class InvalidStepsize(StochviError):
    """Stepsize violates 0 < inf alpha_k <= sup alpha_k < 1/(sqrt(6) L)."""


class InvalidSchedule(StochviError):
    """Sample-rate schedule parameters outside the admissible region."""


class InvalidParameters(StochviError):
    """Merit, gap or probe parameters outside their domain (e.g. b <= a,
    or fewer than two replications for a Monte Carlo standard error)."""


class InvalidInputs(StochviError):
    """Constants-calculator inputs outside their domain."""


class InvalidHorizon(StochviError):
    """Ergodic baseline requires a horizon K >= 2."""


class CoordinationMismatch(StochviError):
    """Schedule shape disagrees with the sampling coordination mode."""


class OracleFailure(StochviError):
    """The stochastic oracle returned malformed or non-finite output."""


class MissingDiagnostics(StochviError):
    """Requested audit needs a trace recorded with diagnostics enabled."""


class NoKnownSolutions(StochviError):
    """Distance-to-solution merit needs known solutions on the problem."""


class NoMeanOperator(StochviError):
    """Operation requires a closed-form mean operator."""


class MissingJ(StochviError):
    """Rate constants need a trajectory bound, either supplied or empirical."""


class ConfigError(StochviError):
    """Malformed or unsupported JSON configuration document."""
