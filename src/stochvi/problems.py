"""Built-in stochastic test problems with closed-form mean operators.

Each generator returns a frozen :class:`~stochvi.core.ProblemInstance`
subclass carrying whatever extra structure the problem exposes (noise
covariance, strong-monotonicity modulus, ...).  Construction randomness is
seeded independently of the run-time sample streams.  The mean operators
keep the batched contract of :mod:`stochvi.core`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemInstance, VarianceProfile, check_mean_operator
from .projection import FeasibleSet, NonnegativeOrthant, WholeSpace


class AdditiveGaussianOracle:
    """F(xi, x) = T(x) + xi with xi ~ N(0, scale^2 I_n).

    The mean of ``size`` draws is T(x) + (scale / sqrt(size)) Z, Z ~ N(0, I).
    ``t``, if given, is T(x) as the caller already evaluated it, and the
    oracle reads it instead of evaluating T again.
    """

    exact_mean = True

    def __init__(self, mean_operator, n, scale):
        self.mean_operator = mean_operator
        self.n = int(n)
        self.scale = float(scale)

    def __call__(self, rng, x, size, mean=False, t=None):
        return self.block(rng, x, size, slice(None), mean, t)

    def block(self, rng, x, size, sl, mean=False, t=None):
        # Additive noise is coordinatewise independent: an agent holding its
        # own stream may draw only the components it consumes.
        if t is None:
            t = self.mean_operator(x)
        t = np.asarray(t, dtype=float)[sl]
        shape = t.shape if mean else (size,) + t.shape
        if self.scale == 0.0:
            return np.broadcast_to(t, shape).copy()
        scale = self.scale / math.sqrt(size) if mean else self.scale
        return t + scale * rng.standard_normal(shape)


class LinearMatrixNoiseOracle:
    """F(xi, x) = (Abar + E(xi)) x with i.i.d. N(0, scale^2) matrix entries,
    where ``mean_operator`` is T(x) = Abar x.

    Row i of E(xi) x is N(0, scale^2 ||x||^2) and the rows are independent,
    so the mean of ``size`` draws is Abar x + (scale ||x|| / sqrt(size)) Z.
    ``t``, if given, is T(x) as the caller already evaluated it, and the
    oracle reads it instead of evaluating T again.
    """

    exact_mean = True

    def __init__(self, mean_operator, scale):
        self.mean_operator = mean_operator
        self.scale = float(scale)

    def __call__(self, rng, x, size, mean=False, t=None):
        return self.block(rng, x, size, slice(None), mean, t)

    def block(self, rng, x, size, sl, mean=False, t=None):
        # Row blocks of E(xi) are independent, so an agent's draws need only
        # the rows feeding its components.
        if t is None:
            t = self.mean_operator(x)
        t = np.asarray(t, dtype=float)[sl]
        shape = t.shape if mean else (size,) + t.shape
        if self.scale == 0.0:
            return np.broadcast_to(t, shape).copy()
        if mean:
            spread = self.scale * math.sqrt(float(np.dot(x, x)) / size)
            return t + spread * rng.standard_normal(shape)
        noise = rng.standard_normal(shape + (len(x),))
        return t + self.scale * noise @ x


class ConstantOracle:
    """F(xi, x) = xi, a zero-mean random constant; T is identically zero.

    The mean of ``size`` draws is (sigma / sqrt(size)) Z.
    """

    exact_mean = True

    def __init__(self, sigma, n=1):
        self.sigma = float(sigma)
        self.n = int(n)

    def __call__(self, rng, x, size, mean=False):
        return self.block(rng, x, size, slice(None), mean)

    def block(self, rng, x, size, sl, mean=False):
        nb = len(range(*sl.indices(self.n)))
        shape = (nb,) if mean else (size, nb)
        if self.sigma == 0.0:
            return np.zeros(shape)
        sigma = self.sigma / math.sqrt(size) if mean else self.sigma
        return sigma * rng.standard_normal(shape)


@dataclass(frozen=True, kw_only=True)
class LinearSVIProblem(ProblemInstance):
    """F(xi, x) = A(xi) x over an unbounded set: the oracle error variance
    x^T B x grows quadratically along rays, so no uniform bound exists."""

    mean_matrix: np.ndarray = None
    covariance_B: np.ndarray = None
    noise_scale: float = 0.0


@dataclass(frozen=True, kw_only=True)
class ConstantNoiseProblem(ProblemInstance):
    """Zero-mean random constant operator; every feasible point solves it."""

    sigma: float = 1.0


@dataclass(frozen=True, kw_only=True)
class ScaledMonotoneProblem(ProblemInstance):
    """T(x) = h(x) Abar x with h > 0: pseudo-monotone (positive scaling
    preserves the sign of <Abar x, z - x>) but genuinely non-monotone."""

    mean_matrix: np.ndarray = None
    noise_scale: float = 0.0


@dataclass(frozen=True, kw_only=True)
class StronglyMonotoneQuadratic(ProblemInstance):
    """T(x) = Abar (x - center) with symmetric part >= modulus * I, so the
    solution is unique and known in closed form."""

    mean_matrix: np.ndarray = None
    center: np.ndarray = None
    strong_modulus: float = 1.0
    noise_scale: float = 0.0


def _spectral_norm(A):
    return float(np.linalg.norm(A, 2))


def gen_linear_svi(n, seed=0, noise_scale=0.1, feasible="orthant") -> LinearSVIProblem:
    """Random positive-semidefinite mean matrix Abar = M^T M with entrywise
    i.i.d. Gaussian matrix noise of the given scale.

    The aggregated noise covariance is B = n * noise_scale^2 * I (each of the
    n rows contributes a noise_scale^2 * I row covariance), so the variance
    law x^T B x and its spectral quantities are exact.
    """
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    abar = M.T @ M
    B = n * noise_scale ** 2 * np.eye(n)
    fset = {"orthant": NonnegativeOrthant(n), "whole_space": WholeSpace(n)}[feasible]
    L = _spectral_norm(abar)
    sigma_star = float(np.sqrt(n) * noise_scale)  # sqrt(lambda_max(B))
    mean_op = lambda x, A=abar: np.matvec(A, np.asarray(x, dtype=float))
    return LinearSVIProblem(
        dimension=n,
        oracle=LinearMatrixNoiseOracle(mean_op, noise_scale),
        mean_operator=mean_op,
        lipschitz_L=max(L, 1e-12),
        feasible_set=fset,
        known_solutions=(np.zeros(n),),
        variance_profile=VarianceProfile("point", sigma_star),
        mean_matrix=abar,
        covariance_B=B,
        noise_scale=float(noise_scale),
        name=f"linear_svi(n={n}, seed={seed}, noise={noise_scale:g})",
    )


def gen_constant_noise(sigma=1.0, n=1) -> ConstantNoiseProblem:
    """Zero-mean random constant operator on the whole space (T == 0)."""
    return ConstantNoiseProblem(
        dimension=n,
        oracle=ConstantOracle(sigma, n),
        mean_operator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lipschitz_L=1.0,  # any positive modulus bounds the constant operator
        feasible_set=WholeSpace(n),
        known_solutions=(np.zeros(n),),
        variance_profile=VarianceProfile("uniform", float(sigma) * np.sqrt(n)),
        solution_set_is_feasible_set=True,
        sigma=float(sigma),
        name=f"constant_noise(sigma={sigma:g}, n={n})",
    )


def gen_strongly_monotone(n, seed=0, noise_scale=1.0, strong_modulus=1.0,
                          psd_scale=0.0, skew_scale=0.0,
                          feasible=None, center=None) -> StronglyMonotoneQuadratic:
    """T(x) = Abar (x - center), Abar = modulus * I + psd + skew, with
    additive Gaussian oracle noise; the unique solution is ``center`` when
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
    center = np.asarray(center, dtype=float)
    mean_op = lambda x, A=abar, c=center: np.matvec(A, np.asarray(x, dtype=float) - c)
    fset = feasible if feasible is not None else WholeSpace(n)
    sigma_star = float(np.sqrt(n) * noise_scale)
    return StronglyMonotoneQuadratic(
        dimension=n,
        oracle=AdditiveGaussianOracle(mean_op, n, noise_scale),
        mean_operator=mean_op,
        lipschitz_L=_spectral_norm(abar),
        feasible_set=fset,
        known_solutions=(center.copy(),),
        variance_profile=VarianceProfile("uniform", sigma_star),
        mean_matrix=abar,
        center=center,
        strong_modulus=float(strong_modulus),
        noise_scale=float(noise_scale),
        name=f"strongly_monotone(n={n}, seed={seed}, noise={noise_scale:g})",
    )


def gen_scaled_monotone(n, seed=0, noise_scale=1.0) -> ScaledMonotoneProblem:
    """Pseudo-monotone, non-monotone instance T(x) = Abar x / (1 + ||x||^2)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    abar = M.T @ M + 0.1 * np.eye(n)

    def mean_op(x, A=abar):
        x = np.asarray(x, dtype=float)
        return np.matvec(A, x) / (1.0 + np.vecdot(x, x))[..., None]

    # |grad T| <= h ||A|| + ||A x|| * 2||x||/(1+||x||^2)^2 <= 1.5 ||A||
    L = 1.5 * _spectral_norm(abar)
    sigma_star = float(np.sqrt(n) * noise_scale)
    return ScaledMonotoneProblem(
        dimension=n,
        oracle=AdditiveGaussianOracle(mean_op, n, noise_scale),
        mean_operator=mean_op,
        lipschitz_L=L,
        feasible_set=WholeSpace(n),
        known_solutions=(np.zeros(n),),
        variance_profile=VarianceProfile("uniform", sigma_star),
        mean_matrix=abar,
        noise_scale=float(noise_scale),
        name=f"scaled_monotone(n={n}, seed={seed}, noise={noise_scale:g})",
    )


def gen_negative_control(n=1, noise_scale=0.0) -> ProblemInstance:
    """T(x) = -x: not pseudo-monotone; used to show the audits can fail."""
    mean_op = lambda x: -np.asarray(x, dtype=float)
    return ProblemInstance(
        dimension=n,
        oracle=AdditiveGaussianOracle(mean_op, n, noise_scale),
        mean_operator=mean_op,
        lipschitz_L=1.0,
        feasible_set=WholeSpace(n),
        known_solutions=(np.zeros(n),),
        name=f"negative_control(n={n})",
    )


def variance_at(problem: LinearSVIProblem, x) -> float:
    """Total oracle-error variance x^T B x of the linear instance."""
    x = np.asarray(x, dtype=float)
    return float(x @ problem.covariance_B @ x)


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

