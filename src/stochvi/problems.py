"""Built-in stochastic test problems with closed-form mean operators.

Each generator returns a frozen :class:`~stochvi.core.ProblemInstance`, a
:class:`MatrixProblem` carrying the mean matrix where the operator is built
on one.  Construction randomness is seeded independently of the run-time
sample streams.  The mean operators keep the batched contract of
:mod:`stochvi.core`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, check_mean_operator
from .errors import InvalidParameters
from .projection import Box, FeasibleSet, NonnegativeOrthant, WholeSpace


def _normal(rng, shape, scale):
    """``scale`` Z with Z ~ N(0, I) of ``shape``: the bits of
    ``scale * rng.standard_normal(shape)`` (up to the sign of a zero) in one
    call; zeros, drawing nothing, when ``scale`` is 0."""
    return rng.normal(0.0, scale, shape) if scale else np.zeros(shape)


class AdditiveGaussianOracle:
    """F(xi, x) = T(x) + xi with xi ~ N(0, scale^2 I_n).

    ``block(..., error=True)`` draws the average error of ``size`` draws
    from its law, (scale / sqrt(size)) Z with Z ~ N(0, I).
    """

    exact_error = True

    def __init__(self, mean_operator, scale):
        self.mean_operator = mean_operator
        self.scale = float(scale)

    def __call__(self, rng, x, size):
        return self.block(rng, x, size, slice(None))

    def block(self, rng, x, size, sl, error=False):
        # Additive noise is coordinatewise independent: an agent holding its
        # own stream may draw only the components it consumes.
        if error:
            return _normal(rng, (len(range(len(x))[sl]),), self.scale / math.sqrt(size))
        t = np.asarray(self.mean_operator(x), dtype=float)[sl]
        return t + _normal(rng, (size,) + t.shape, self.scale)


class LinearMatrixNoiseOracle:
    """F(xi, x) = (Abar + E(xi)) x with i.i.d. N(0, scale^2) matrix entries,
    where ``mean_operator`` is T(x) = Abar x.

    Row i of E(xi) x is N(0, scale^2 ||x||^2) and the rows are independent,
    so ``block(..., error=True)`` draws the average error of ``size`` draws
    as (scale ||x|| / sqrt(size)) Z.
    """

    exact_error = True

    def __init__(self, mean_operator, scale):
        self.mean_operator = mean_operator
        self.scale = float(scale)

    def __call__(self, rng, x, size):
        return self.block(rng, x, size, slice(None))

    def block(self, rng, x, size, sl, error=False):
        # Row blocks of E(xi) are independent, so an agent's draws need only
        # the rows feeding its components.
        if error:
            spread = self.scale * math.sqrt(float(np.vecdot(x, x)) / size)
            return _normal(rng, (len(range(len(x))[sl]),), spread)
        t = np.asarray(self.mean_operator(x), dtype=float)[sl]
        return t + _normal(rng, (size,) + t.shape + (len(x),), self.scale) @ x


class ConstantOracle:
    """F(xi, x) = xi, a zero-mean random constant; T is identically zero.

    ``block(..., error=True)`` draws the average of ``size`` draws as
    (sigma / sqrt(size)) Z.
    """

    exact_error = True

    def __init__(self, sigma):
        self.sigma = float(sigma)

    def __call__(self, rng, x, size):
        return self.block(rng, x, size, slice(None))

    def block(self, rng, x, size, sl, error=False):
        shape = (len(range(len(x))[sl]),)
        if error:
            return _normal(rng, shape, self.sigma / math.sqrt(size))
        return _normal(rng, (size,) + shape, self.sigma)


@dataclass(frozen=True, kw_only=True)
class MatrixProblem(ProblemInstance):
    """A built-in problem whose mean operator is built on the matrix Abar,
    ``mean_matrix``.  Its oracle holds the noise scale and its
    ``solution_set`` is its one solution, as a point ``Box``."""

    mean_matrix: np.ndarray = None


def _spectral_norm(A):
    return float(np.linalg.norm(A, 2))


def gen_linear_svi(n: int, seed: int = 0, noise_scale: float = 0.1,
                   feasible: str = "orthant") -> MatrixProblem:
    """F(xi, x) = A(xi) x: random positive-semidefinite mean matrix
    Abar = M^T M with entrywise i.i.d. Gaussian matrix noise of the given
    scale.

    The aggregated noise covariance is B = n * noise_scale^2 * I (each of the
    n rows contributes a noise_scale^2 * I row covariance), so the oracle
    error variance x^T B x (:func:`variance_at`) grows quadratically along
    rays: on an unbounded set no uniform bound exists.
    """
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    abar = M.T @ M
    sets = {"orthant": NonnegativeOrthant, "whole_space": WholeSpace}
    if feasible not in sets:
        raise InvalidParameters(f"feasible must be one of {sorted(sets)}, got {feasible!r}")
    fset = sets[feasible](n)
    L = _spectral_norm(abar)
    mean_op = lambda x, A=abar: np.matvec(A, np.asarray(x, dtype=float))
    return MatrixProblem(
        dimension=n,
        oracle=LinearMatrixNoiseOracle(mean_op, noise_scale),
        mean_operator=mean_op,
        lipschitz_L=max(L, 1e-12),
        feasible_set=fset,
        solution_set=Box(np.zeros(n), np.zeros(n)),
        mean_matrix=abar,
        name=f"linear_svi(n={n}, seed={seed}, noise={noise_scale:g})",
    )


def gen_constant_noise(sigma: float = 1.0, n: int = 1) -> ProblemInstance:
    """Zero-mean random constant operator on the whole space (T == 0);
    every feasible point solves it, so X* is the feasible set."""
    fset = WholeSpace(n)
    return ProblemInstance(
        dimension=n,
        oracle=ConstantOracle(sigma),
        mean_operator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lipschitz_L=1.0,  # any positive modulus bounds the constant operator
        feasible_set=fset,
        solution_set=fset,
        name=f"constant_noise(sigma={sigma:g}, n={n})",
    )


def gen_strongly_monotone(n: int, seed: int = 0, noise_scale: float = 1.0,
                          strong_modulus: float = 1.0, psd_scale: float = 0.0,
                          skew_scale: float = 0.0, feasible: FeasibleSet | None = None,
                          center: np.ndarray | None = None) -> MatrixProblem:
    """T(x) = Abar (x - center), Abar = modulus * I + psd + skew, with
    additive Gaussian oracle noise.  The symmetric part of Abar is at least
    modulus * I, so the solution is unique, and it is ``center`` when
    feasible."""
    rng = np.random.default_rng(seed)
    abar = strong_modulus * np.eye(n)
    if psd_scale:
        M = rng.standard_normal((n, n)) / np.sqrt(n)
        abar = abar + psd_scale * (M.T @ M)
    if skew_scale:
        S = rng.standard_normal((n, n))
        abar = abar + skew_scale * 0.5 * (S - S.T)
    if center is None:
        center = rng.standard_normal(n)
    solution = Box(center, center)  # a read-only copy of the center, which T reads too
    mean_op = lambda x, A=abar, c=solution.lower: np.matvec(A, np.asarray(x, dtype=float) - c)
    fset = feasible if feasible is not None else WholeSpace(n)
    return MatrixProblem(
        dimension=n,
        oracle=AdditiveGaussianOracle(mean_op, noise_scale),
        mean_operator=mean_op,
        lipschitz_L=_spectral_norm(abar),
        feasible_set=fset,
        solution_set=solution,
        mean_matrix=abar,
        name=f"strongly_monotone(n={n}, seed={seed}, noise={noise_scale:g})",
    )


def gen_scaled_monotone(n: int, seed: int = 0,
                        noise_scale: float = 1.0) -> MatrixProblem:
    """T(x) = Abar x / (1 + ||x||^2): the positive scaling preserves the sign
    of <Abar x, z - x>, so T is pseudo-monotone, but it is not monotone."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    abar = M.T @ M + 0.1 * np.eye(n)

    def mean_op(x, A=abar):
        x = np.asarray(x, dtype=float)
        return np.matvec(A, x) / (1.0 + np.vecdot(x, x))[..., None]

    # |grad T| <= h ||A|| + ||A x|| * 2||x||/(1+||x||^2)^2 <= 1.5 ||A||
    L = 1.5 * _spectral_norm(abar)
    return MatrixProblem(
        dimension=n,
        oracle=AdditiveGaussianOracle(mean_op, noise_scale),
        mean_operator=mean_op,
        lipschitz_L=L,
        feasible_set=WholeSpace(n),
        solution_set=Box(np.zeros(n), np.zeros(n)),
        mean_matrix=abar,
        name=f"scaled_monotone(n={n}, seed={seed}, noise={noise_scale:g})",
    )


def gen_negative_control(n: int = 1, noise_scale: float = 0.0) -> ProblemInstance:
    """T(x) = -x: not pseudo-monotone; used to show the audits can fail."""
    mean_op = lambda x: -np.asarray(x, dtype=float)
    return ProblemInstance(
        dimension=n,
        oracle=AdditiveGaussianOracle(mean_op, noise_scale),
        mean_operator=mean_op,
        lipschitz_L=1.0,
        feasible_set=WholeSpace(n),
        solution_set=Box(np.zeros(n), np.zeros(n)),
        name=f"negative_control(n={n})",
    )


def variance_at(problem: MatrixProblem, x) -> float:
    """Total oracle-error variance x^T B x = n s^2 ||x||^2 of a linear SVI
    instance, whose oracle has the entry noise scale s."""
    x = np.asarray(x, dtype=float)
    return float(problem.dimension * problem.oracle.scale ** 2 * np.vecdot(x, x))


@dataclass(frozen=True)
class PseudoMonotonicityReport:
    n_pairs: int
    n_applicable: int
    violations: tuple
    passed: bool

    def __str__(self):
        head = ("pass" if self.passed else "FAIL") + (
            f": {self.n_applicable}/{self.n_pairs} applicable pairs, "
            f"{len(self.violations)} violation(s)")
        if self.violations:
            x, z, lhs = self.violations[0]
            head += f"; first witness x={x}, z={z}, <T(z), z-x> = {lhs:.3e}"
        return head


def check_pseudo_monotone(T, fset: FeasibleSet, samples=1000, seed=0,
                          scale=3.0, n=None) -> PseudoMonotonicityReport:
    """Randomized pseudo-monotonicity check.

    Draws feasible pairs (x, z); whenever <T(x), z - x> >= 0 the definition
    demands <T(z), z - x> >= 0, checked to 1e-10.  Passing is evidence, not
    proof; violations come with witnesses.
    """
    rng = np.random.default_rng(seed)
    xs = fset.sample(rng, samples, n=n, scale=scale)
    zs = fset.sample(rng, samples, n=n, scale=scale)
    check_mean_operator(T, fset, xs.shape[-1])
    d = zs - xs
    applicable = np.vecdot(np.asarray(T(xs), dtype=float), d) >= 0.0
    lhs = np.vecdot(np.asarray(T(zs), dtype=float), d)
    violations = tuple((xs[i].copy(), zs[i].copy(), float(lhs[i]))
                       for i in np.flatnonzero(applicable & (lhs < -1e-10)))
    return PseudoMonotonicityReport(
        n_pairs=samples, n_applicable=int(applicable.sum()),
        violations=violations, passed=not violations)

