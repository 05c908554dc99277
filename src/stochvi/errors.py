"""Exception types shared across the package, and the config-section and
JSON type checks."""

from inspect import signature
from numbers import Integral, Real


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
    """The distance merit or the anchor needs a solution set on the problem."""


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


def _number(v):
    return isinstance(v, Real) and not isinstance(v, bool)


def _integer(v):
    return isinstance(v, Integral) and not isinstance(v, bool)


def _numbers(v):
    return _number(v) or isinstance(v, (list, tuple)) and all(map(_numbers, v))


JSON_TYPES = {  # annotation: (test of a document value, conversion, what it must be)
    "float": (_number, float, "a number"),
    "int": (_integer, int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), bool, "true or false"),
    "str": (lambda v: isinstance(v, str), str, "a string"),
    "dict": (lambda v: isinstance(v, dict), dict, "an object"),
    "list": (lambda v: isinstance(v, (list, tuple)), list, "a list"),
    "None": (lambda v: v is None, lambda v: v, "null"),
    "list[int]": (lambda v: isinstance(v, (list, tuple)) and all(map(_integer, v)),
                  lambda v: [int(a) for a in v], "a list of integers"),
    "list[float]": (lambda v: isinstance(v, (list, tuple)) and all(map(_number, v)),
                    lambda v: [float(a) for a in v], "a list of numbers"),
    "np.ndarray": (_numbers, lambda v: v, "a number or a list of numbers"),
}


def typed(value, kind, key, where):
    """``value`` converted by the first type of the annotation ``kind`` (say
    ``"float | None"``) that it has; raises ``ConfigError`` naming ``key``
    when it has none.  An annotation naming a type outside ``JSON_TYPES``
    passes the value through unchecked."""
    types = [JSON_TYPES.get(name) for name in str(kind).split(" | ")]
    if None in types:
        return value
    for test, convert, _ in types:
        if test(value):
            return convert(value)
    raise ConfigError(f"{key} must be {' or '.join(t[2] for t in types)} in {where}, "
                      f"got {value!r}")


def from_document(cls, doc, where, **given):
    """Call ``cls``, a dataclass or a function, on the JSON object ``doc``.

    Its parameters are the keys ``doc`` may hold, and those without a
    default the keys it must hold.  A value must have the JSON type of its
    parameter's annotation (:func:`typed`); ``given`` maps a parameter to
    another annotation, or to the function that converts its document
    value.  A parameter left out of ``doc`` takes its default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    params = signature(cls).parameters
    check_keys(doc, set(params), where, {k for k, p in params.items() if p.default is p.empty})
    convert = lambda k, v: given[k](v) if callable(given.get(k)) else \
        typed(v, given.get(k, params[k].annotation), k, where)
    return cls(**{k: convert(k, v) for k, v in doc.items()})
