"""Exact Euclidean projections onto standard closed convex sets.

Every descriptor is immutable and operates on the last axis of its input,
so a batch of points with shape ``(..., n)`` is projected in one call.
All projections are exact (closed form or finitely terminating), which the
pathwise audit in :mod:`stochvi.solver` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, pairwise

import numpy as np

from .errors import (
    BlockMismatch,
    ConfigError,
    DimensionMismatch,
    InfeasibleAffine,
    InvalidParameters,
    from_document,
    typed,
)


def block_slices(sizes):
    """Consecutive slices covering blocks of the given sizes."""
    return [slice(start, stop) for start, stop in pairwise(accumulate(sizes, initial=0))]


def _frozen(owner, name, ndmin=1, nan_only=False):
    """Field ``name`` of ``owner`` as a read-only float array of at least
    ``ndmin`` axes, set back on it; raises ``InvalidParameters`` naming the
    field if an entry is NaN, or infinite unless ``nan_only``."""
    a = np.array(getattr(owner, name), dtype=float, ndmin=ndmin)
    if np.isnan(a).any() or not (nan_only or np.isfinite(a).all()):
        raise InvalidParameters(f"{type(owner).__name__} {name} must be "
                                f"{'free of NaN' if nan_only else 'finite'}, got {a.tolist()}")
    a.setflags(write=False)
    object.__setattr__(owner, name, a)
    return a


def _as_batch(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise DimensionMismatch(f"expected last axis {n}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class FeasibleSet:
    """Base descriptor. Subclasses implement :meth:`project` and :meth:`sample`.

    ``dim`` is ``None`` for dimension-agnostic sets (whole space, orthant);
    those validate against whatever dimension they are applied to.
    """

    def project(self, x):
        raise NotImplementedError

    def sample(self, rng, size, n=None, scale=1.0):
        """Draw ``size`` feasible points, used by randomized checks."""
        raise NotImplementedError

    def check_dim(self, n):
        d = getattr(self, "dim", None)
        if d is not None and d != n:
            raise DimensionMismatch(f"set has dimension {d}, point has {n}")


@dataclass(frozen=True)
class WholeSpace(FeasibleSet):
    dim: int | None = None

    def project(self, x):
        return np.asarray(x, dtype=float).copy()

    def sample(self, rng, size, n=None, scale=1.0):
        n = self.dim if n is None else n
        return scale * rng.standard_normal((size, n))


@dataclass(frozen=True)
class NonnegativeOrthant(FeasibleSet):
    dim: int | None = None

    def project(self, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    def sample(self, rng, size, n=None, scale=1.0):
        n = self.dim if n is None else n
        return np.abs(scale * rng.standard_normal((size, n)))


@dataclass(frozen=True)
class Box(FeasibleSet):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):  # infinite bounds are legal
        lo, hi = _frozen(self, "lower", nan_only=True), _frozen(self, "upper", nan_only=True)
        if lo.shape != hi.shape:
            raise DimensionMismatch("box bounds must share a shape")
        if np.any(lo > hi):
            raise InvalidParameters("box requires lower <= upper componentwise")

    @property
    def dim(self):
        return self.lower.shape[0]

    def project(self, x):
        # A tie goes to the bound and a NaN stays, whatever the layout:
        # ndarray.clip keeps x on a tie when it loops over constant bounds,
        # as it does for a (..., 1) batch, so its rows could differ from
        # single points.
        return np.minimum(np.maximum(_as_batch(x, self.dim), self.lower), self.upper)

    def sample(self, rng, size, n=None, scale=1.0):
        # uniform takes no infinite range: such a box projects scale N(0, I)
        if np.isfinite(self.upper - self.lower).all():
            return rng.uniform(self.lower, self.upper, size=(size, self.dim))
        return self.project(scale * rng.standard_normal((size, self.dim)))


@dataclass(frozen=True)
class Ball(FeasibleSet):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        _frozen(self, "center")
        if not 0 < self.radius < np.inf:  # a ball of infinite radius is WholeSpace
            raise InvalidParameters(f"ball radius must be positive and finite, got {self.radius}")

    @property
    def dim(self):
        return self.center.shape[0]

    def project(self, x):
        """Raises ``InvalidParameters`` for a point with an infinite
        coordinate and no NaN: a limit exists for one such coordinate, but
        with several it depends on their rates.  A NaN row stays NaN."""
        x = _as_batch(x, self.dim)
        d, floor = x - self.center, self.radius
        # np.linalg.norm(d, axis=-1, keepdims=True), without its Python wrapper
        nrm = np.sqrt(np.add.reduce(d * d, axis=-1, keepdims=True))
        if np.isinf(nrm).any():  # an infinite x, or d or d * d overflowed
            if (np.isinf(nrm) & np.isinf(x).any(axis=-1, keepdims=True)).any():
                raise InvalidParameters("ball projection needs points with no infinite coordinate")
            # a finite row by its halved offset (d's direction, no overflow), hypot its norm
            half = np.isinf(nrm) & np.isfinite(x).all(axis=-1, keepdims=True)
            d = np.where(half, x / 2 - self.center / 2, d)
            nrm = np.where(half, np.hypot.reduce(d, axis=-1, keepdims=True), nrm)
            floor = np.where(half, floor / 2, floor)
        # r / max(nrm, r): 1.0 inside the ball, and fmax keeps it 1.0 on NaN rows
        return self.center + d * (self.radius / np.fmax(nrm, floor))

    def sample(self, rng, size, n=None, scale=1.0):
        n = self.dim
        d = rng.standard_normal((size, n))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        r = self.radius * rng.uniform(0.0, 1.0, size=(size, 1)) ** (1.0 / n)
        return self.center + r * d


@dataclass(frozen=True)
class Simplex(FeasibleSet):
    """{ y >= 0, sum(y) = scale }, projected by sort and threshold."""

    dim: int
    scale: float = 1.0

    def __post_init__(self):
        if not self.dim >= 1:
            raise InvalidParameters(f"simplex dim must be at least 1, got {self.dim}")
        if not 0 < self.scale < np.inf:
            raise InvalidParameters(f"simplex scale must be positive and finite, got {self.scale}")

    def project(self, x):
        """Raises ``InvalidParameters`` for a point with an infinite
        coordinate and no NaN, as :meth:`Ball.project` does."""
        x = _as_batch(x, self.dim)
        inf = np.isinf(x)
        if inf.any() and (inf.any(axis=-1) & ~np.isnan(x).any(axis=-1)).any():
            raise InvalidParameters("simplex projection needs points with no infinite coordinate")
        srt = np.sort(x, axis=-1)[..., ::-1]
        csum = np.cumsum(srt, axis=-1) - self.scale
        idx = np.arange(1, self.dim + 1, dtype=float)
        cond = srt - csum / idx > 0
        # rho: largest index with positive gap; guaranteed >= 1
        rho = self.dim - np.argmax(cond[..., ::-1], axis=-1)
        tau = np.take_along_axis(csum, rho[..., None] - 1, axis=-1) / rho[..., None]
        return np.maximum(x - tau, 0.0)

    def sample(self, rng, size, n=None, scale=1.0):
        return self.scale * rng.dirichlet(np.ones(self.dim), size=size)


@dataclass(frozen=True)
class Halfspace(FeasibleSet):
    """{ y : <a, y> <= b }."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        if np.linalg.norm(_frozen(self, "a")) == 0:
            raise InvalidParameters("halfspace normal must be nonzero")
        if not np.isfinite(self.b):
            raise InvalidParameters(f"Halfspace b must be finite, got {self.b}")

    @property
    def dim(self):
        return self.a.shape[0]

    def project(self, x):
        """Raises ``InvalidParameters`` for a point with a non-finite
        coordinate: the projection of an infinite point can be unbounded."""
        x = _as_batch(x, self.dim)
        if not np.isfinite(x).all():
            raise InvalidParameters("halfspace projection needs finite points")
        viol = (np.vecdot(x, self.a) - self.b) / (self.a @ self.a)
        return x - np.maximum(viol, 0.0)[..., None] * self.a

    def sample(self, rng, size, n=None, scale=1.0):
        return self.project(scale * rng.standard_normal((size, self.dim)))


@dataclass(frozen=True)
class AffineSubspace(FeasibleSet):
    """{ y : A y = b } with full-row-rank A.

    A^T = Q R is factored once at construction, and a point projects as
    x - Q Q^T (x - p) with p = Q R^-T b: two products, and no Gram matrix
    A A^T to square A's condition number.  An inconsistent system raises
    ``InfeasibleAffine``; a consistent one whose A has rank below its row
    count (``np.linalg.matrix_rank``) raises ``InvalidParameters``.  A
    silently regularized pseudo-inverse would corrupt downstream audit
    inequalities.
    """

    A: np.ndarray
    b: np.ndarray
    _q: np.ndarray = field(init=False, repr=False, compare=False)
    _p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, b = _frozen(self, "A", ndmin=2), _frozen(self, "b")
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatch("A rows must match len(b)")
        rank = np.linalg.matrix_rank(A)
        if rank < A.shape[0]:
            sol = np.linalg.lstsq(A, b, rcond=None)[0]
            if np.linalg.norm(A @ sol - b) > 1e-8 * (1 + np.linalg.norm(b)):
                raise InfeasibleAffine("affine system A y = b is inconsistent")
            raise InvalidParameters(f"AffineSubspace A has rank {rank}, below its "
                                    f"{A.shape[0]} rows")
        q, r = np.linalg.qr(A.T)
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_p", np.matvec(q, np.linalg.solve(r.T, b)))

    @property
    def dim(self):
        return self.A.shape[1]

    def project(self, x):
        x = _as_batch(x, self.dim)
        return x - np.matvec(self._q, np.vecmat(x - self._p, self._q))

    def sample(self, rng, size, n=None, scale=1.0):
        return self.project(scale * rng.standard_normal((size, self.dim)))


_SEPARABLE = (WholeSpace, NonnegativeOrthant, Box)


@dataclass(frozen=True)
class CartesianProduct(FeasibleSet):
    """Product of blocks, each a descriptor with an explicit size.

    At construction the separable factors (box, orthant, whole space) are
    merged into one full-width :class:`Box`, with infinite bounds on the
    other factors' coordinates, and the other factors are laid out as
    (part, slice) pairs.  A projection is then one clip through that box,
    whose slices are bit for bit the factors' own projections, and one
    projection per remaining factor.
    """

    parts: tuple
    sizes: tuple
    _clip: Box | None = field(init=False, repr=False, compare=False)
    _blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.parts) != len(self.sizes):
            raise BlockMismatch("one size per factor required")
        if any(s < 1 for s in self.sizes):
            raise BlockMismatch(f"factor sizes {tuple(self.sizes)} must each be at least 1")
        for s, p in zip(self.sizes, self.parts):
            d = getattr(p, "dim", None)
            if d is not None and d != s:
                raise BlockMismatch(f"factor of dimension {d} declared with size {s}")
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        blocks = tuple(zip(self.parts, block_slices(self.sizes)))
        lower, upper = np.full(self.dim, -np.inf), np.full(self.dim, np.inf)
        for part, sl in blocks:
            if isinstance(part, Box):
                lower[sl], upper[sl] = part.lower, part.upper
            elif isinstance(part, NonnegativeOrthant):
                lower[sl] = 0.0
        separable = any(isinstance(part, _SEPARABLE) for part in self.parts)
        object.__setattr__(self, "_clip", Box(lower, upper) if separable else None)
        object.__setattr__(self, "_blocks", tuple(
            (part, sl) for part, sl in blocks if not isinstance(part, _SEPARABLE)))

    @property
    def dim(self):
        return sum(self.sizes)

    def project(self, x):
        x = _as_batch(x, self.dim)
        out = np.empty_like(x) if self._clip is None else self._clip.project(x)
        for part, sl in self._blocks:
            out[..., sl] = part.project(x[..., sl])
        return out

    def sample(self, rng, size, n=None, scale=1.0):
        cols = [p.sample(rng, size, n=s, scale=scale)
                for p, s in zip(self.parts, self.sizes)]
        return np.concatenate(cols, axis=-1)


def project(fset: FeasibleSet, x):
    """argmin_{y in set} ||y - x||^2 for x with shape (..., n)."""
    return fset.project(x)


def set_distance(fset: FeasibleSet, x):
    """||x - project(set, x)||; zero exactly when x is feasible."""
    x = np.asarray(x, dtype=float)
    return np.linalg.norm(x - fset.project(x), axis=-1)


def feasible_set_from_config(cfg, key="set", where="problem") -> FeasibleSet:
    """Build a descriptor from its JSON form, the value of ``key`` in
    section ``where``: a ``variant`` of :data:`VARIANTS` and its class's
    constructor fields, a product's ``parts`` each in this form."""
    cfg = typed(cfg, "dict", key, where)
    kind = typed(cfg.pop("variant", None), "str", "variant", where)
    if kind not in VARIANTS:
        raise ConfigError(f"unknown feasible-set variant {kind!r}")
    where = f"variant {kind!r}"
    parts = lambda docs: tuple(feasible_set_from_config(d, "each part", where)
                               for d in typed(docs, "list", "parts", where))
    return from_document(VARIANTS[kind], cfg, where, parts=parts, sizes="list[int]")


VARIANTS = {
    "whole_space": WholeSpace,
    "nonnegative_orthant": NonnegativeOrthant,
    "box": Box,
    "ball": Ball,
    "simplex": Simplex,
    "halfspace": Halfspace,
    "affine": AffineSubspace,
    "cartesian": CartesianProduct,
}
