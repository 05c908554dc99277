"""Exception types shared across the package, and the config-section check."""

from dataclasses import MISSING, fields


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


class InvalidParameters(StochviError, ValueError):
    """A ``ValueError``: merit, probe, problem, solver or set parameters
    outside their domain (e.g. gap b <= a, one replication for a standard
    error, a ball radius <= 0)."""


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


def check_keys(obj, allowed, where, required=()):
    """Raise ``ConfigError`` naming the keys of ``obj`` outside ``allowed``
    and ``required``, or the ``required`` keys it lacks."""
    extra = set(obj) - set(allowed) - set(required)
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in {where}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def from_document(cls, doc, where, **given):
    """Build the dataclass ``cls`` from the JSON object ``doc``.

    Its constructor fields are the keys ``doc`` may hold, and those without
    a default the keys it must hold.  ``given`` maps a field to the function
    that converts its document value; a field left out of ``doc`` takes the
    dataclass default.
    """
    init = [f for f in fields(cls) if f.init]
    check_keys(doc, {f.name for f in init}, where,
               {f.name for f in init if f.default is MISSING and f.default_factory is MISSING})
    return cls(**{k: given[k](v) if k in given else v for k, v in doc.items()})
