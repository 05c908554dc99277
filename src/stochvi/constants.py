"""Closed-form evaluation of the method's theoretical constants and bounds.

Conventions: ``alpha`` is the stepsize supremum, ``sigma`` the noise modulus
(at a solution, over the solution set, or over the feasible set depending on
the noise law), ``c2``/``cp``/``cq`` the martingale moment constants
of the Burkholder-Davis-Gundy inequality at orders 2, p and p/2 (at order 2
the inequality holds with constant one by orthogonality of increments, hence
the default), and ``c_remainder`` the constant tying the exact per-step
noise coefficient to its summable majorant (by default the smallest value
that ``c_consistency`` admits at every noise level, see
``admissible_remainder_constant``).  All logarithms are natural.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import stepsize_cap
from .errors import InvalidInputs, MissingJ
from .sampling import SampleSchedule, _quotient

GOLDEN_PHI_CAP = (math.sqrt(5.0) - 1.0) / 2.0
_HORIZON = 200_000


def rho(alpha: float, L: float) -> float:
    """Residual margin 1 - 6 L^2 alpha^2, in (0, 1) for admissible steps."""
    stepsize_cap(L, (alpha,))
    return 1.0 - 6.0 * (L * alpha) ** 2


def admissible_remainder_constant(L: float, alpha: float) -> float:
    """Supremum over H >= 0 of [32 (u + H)^2 + 18] / (1 + H^2), u = 1 + L alpha.

    This is the ratio ``c_consistency`` scans, so the value is admissible for
    every sigma and schedule.  The ratio is the Rayleigh quotient of
    [[32 u^2 + 18, 32 u], [32 u, 32]] at (1, H); the top eigenvector has
    entries of one sign, so the supremum over H >= 0 is the largest
    eigenvalue: 93.86 at L alpha = 1/4, 108.13 at the stepsize cap.
    """
    u = 1.0 + L * alpha
    a, b, d = 32.0 * u * u + 18.0, 32.0 * u, 32.0
    return 0.5 * (a + d + math.hypot(a - d, 2.0 * b))


@dataclass(frozen=True, kw_only=True)
class ConstantsInputs:
    """Everything the calculators need.

    The schedule is broadcast to ``m`` agents; its ``inverse_series``,
    ``tail_bound`` and ``tail_bound_sq`` are the only view of the sample
    counts the calculators take.  The error-decay coefficients ``a_coef``
    and ``b_coef`` follow from the sampling layout (``m`` and
    ``shared_samples``).  Left unset, ``c_remainder`` resolves to
    ``admissible_remainder_constant(L, alpha)``; any c below 32 is rejected
    by ``c_consistency`` at every index, since (1 + L alpha + H)^2 >= 1 + H^2.
    """

    L: float
    alpha: float
    sigma: float
    schedule: SampleSchedule
    phi: float = 0.5
    d0: float = 1.0
    p: float = 2.0
    c2: float = 1.0
    cp: float = 1.0
    cq: float = 1.0
    c_remainder: float | None = None
    m: int = 1
    shared_samples: bool = True
    S: float = 1.0
    J: float | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidInputs(f"{name} must be finite, got {value!r}")
            if name in ("sigma", "d0", "J") and (value or 0.0) < 0:
                raise InvalidInputs(f"{name} must be nonnegative, got {value!r}")
        if not self.L > 0:
            raise InvalidInputs(f"L must be positive, got {self.L!r}")
        stepsize_cap(self.L, (self.alpha,))
        if not 0.0 < self.phi < GOLDEN_PHI_CAP:
            raise InvalidInputs(
                f"phi must lie strictly inside (0, {GOLDEN_PHI_CAP:.6f})")
        if self.c_remainder is None:
            object.__setattr__(self, "c_remainder",
                               admissible_remainder_constant(self.L, self.alpha))
        if not self.c_remainder > 1:
            raise InvalidInputs("remainder constant must exceed one")
        if not (self.p == 2 or self.p >= 4):
            raise InvalidInputs("moment order p must be 2 or at least 4")
        if self.m < 1:
            raise InvalidInputs("network size must be >= 1")
        object.__setattr__(self, "schedule", self.schedule.broadcast(self.m))
        if self.S < 1:
            raise InvalidInputs("S must be >= 1")

    @property
    def rho(self) -> float:
        return rho(self.alpha, self.L)

    @property
    def a_coef(self) -> int:
        """Error-decay coefficient of the step noise: 1 for a single agent,
        2 for a network."""
        return 1 if self.m == 1 else 2

    @property
    def b_coef(self) -> int:
        """Martingale coefficient: 1 for a single agent or shared draws, 2
        for fully independent per-agent draws."""
        return 1 if (self.m == 1 or self.shared_samples) else 2

    @property
    def noise_margin(self) -> float:
        """Summable noise majorant D = 2 c alpha^2 C_2^2 sigma^2."""
        return _quotient(((2.0, 1), (self.c_remainder, 1), (self.alpha, 2), (self.c2, 2),
                          (self.sigma, 2)))


@dataclass(frozen=True)
class CConsistencyReport:
    """Smallest constant c making the exact per-step noise coefficient obey
    H_k^2 [32 (1 + L alpha + H_k)^2 + 18] <= c H_k^2 (1 + H_k^2) over the
    scanned range, with H_k = alpha C_2 sigma sqrt(a_coef / N_k),
    together with the first index at which the default becomes admissible."""

    default_c: float
    minimal_c: float
    holds_with_default: bool
    threshold_k: int | None
    k_max: int

    def __str__(self):
        head = "holds" if self.holds_with_default else "violated"
        thr = "none" if self.threshold_k is None else str(self.threshold_k)
        return (f"c-consistency {head} with default c = {self.default_c:g}; "
                f"minimal admissible c = {self.minimal_c:.6g} over k <= {self.k_max} "
                f"(first admissible index: {thr})")


def c_consistency(inputs: ConstantsInputs, k_max: int = 1000) -> CConsistencyReport:
    """Scan k <= k_max for the minimal admissible remainder constant.

    With sigma > 0 the per-index ratio reduces to
    [32 (1 + L alpha + H_k)^2 + 18] / (1 + H_k^2), independent of sigma's
    scale except through H_k; at sigma = 0 both sides vanish and any c > 1
    is admissible.
    """
    if inputs.sigma == 0.0:
        return CConsistencyReport(inputs.c_remainder, 1.0, True, 0, k_max)
    inv, _ = inputs.schedule.inverse_series(np.arange(k_max + 1))
    h2 = (inputs.alpha * inputs.c2 * inputs.sigma) * np.sqrt(inputs.a_coef * inv)
    ratio = (32.0 * (1.0 + inputs.L * inputs.alpha + h2) ** 2 + 18.0) / (1.0 + h2 ** 2)
    minimal = float(np.max(ratio))
    ok = minimal <= inputs.c_remainder
    admissible = np.nonzero(ratio <= inputs.c_remainder)[0]
    threshold = int(admissible[0]) if admissible.size else None
    return CConsistencyReport(inputs.c_remainder, minimal, ok, threshold, k_max)


@dataclass(frozen=True)
class BurnInResult:
    """Index k0 past which the sampling tail fits under phi / D."""

    closed_form: int | None
    numeric: int | None
    tail_at_numeric: float | None
    threshold: float

    def __str__(self):
        return (f"k0 closed form = {self.closed_form}, numeric = {self.numeric} "
                f"(tail threshold {self.threshold:.6g})")


def k0_and_tail(inputs: ConstantsInputs, horizon: int = _HORIZON,
                inv=None) -> BurnInResult:
    """Burn-in index: closed form from the integral bound (single agent with
    a = 0, or every agent with a > 0), and the numeric minimizer of the same
    condition sum_(k >= k0) 1/N_k <= phi / D.  The numeric index never
    exceeds the closed form; the closed form is None where it overflows or
    no integral bound is derived (mixed exponents, or a = 0 with m > 1).
    ``inv`` is the head 1/N_k for k = 0..horizon when the caller has
    already tabulated it."""
    D = inputs.noise_margin
    if D == 0.0:  # no noise to outlast
        return BurnInResult(0, 0, 0.0, math.inf)
    threshold = inputs.phi / D

    schedule = inputs.schedule
    ag0 = schedule.agents[0]
    starts = [math.inf]  # closed form: max(0, ceil(start)) over starts, None at an inf one
    if all(a.a == 0 for a in schedule.agents) and inputs.m == 1:
        ratio = _quotient(((2.0, 1), (inputs.c_remainder, 1), (inputs.c2, 2), (inputs.alpha, 2),
                           (inputs.sigma, 2)), ((inputs.phi, 1), (ag0.b, 1), (ag0.theta, 1)))
        # round outward: this index solves the same tail condition the numeric
        # search evaluates, which can differ from expo by a few ulps
        expo = _quotient(((ratio, 1.0 / ag0.b),)) * (1.0 + 16.0 * sys.float_info.epsilon)
        starts = [_quotient((), exp=expo) - ag0.mu + 1.0]
    elif all(a.a > 0 for a in schedule.agents):
        # schedule.tail_bound bounds the tail from k0 by the sum over agents of
        # 1 / (theta_i a_i (k0 - 1 + mu_i)^a_i) once k0 + mu_i >= e; each
        # term is at most threshold / m from the index computed here.
        m = len(schedule.agents)
        # round outward: the power amplifies relative error by 1/a
        starts = [math.e - min(a.mu for a in schedule.agents)] + [
            _quotient(((_quotient(((m, 1), (D, 1)), ((inputs.phi, 1), (ag.theta, 1),
                                                     (ag.a, 1))), 1.0 / ag.a),))
            * (1.0 + 16.0 * sys.float_info.epsilon * (m + 1.0 / ag.a)) - ag.mu + 1.0
            for ag in schedule.agents]
    closed = None if math.inf in starts else max(0, *map(math.ceil, starts))

    if inv is None:
        inv, _ = schedule.inverse_series(np.arange(horizon + 1))
    suffix = np.cumsum(inv[::-1])[::-1] + schedule.tail_bound(horizon)
    ok = np.nonzero(suffix <= threshold)[0]
    if ok.size:
        k0 = int(ok[0])
        return BurnInResult(closed, k0, float(suffix[k0]), threshold)
    # beyond the numeric horizon, certify through the integral bound alone;
    # the bisection runs over integers, so it ends at the least index that fits
    def fits(k):
        return schedule.tail_bound(k - 1) <= threshold

    lo, hi = horizon, max(2 * horizon, 4)
    while not fits(hi):
        lo, hi = hi, 4 * hi
        if hi > 1e300:
            return BurnInResult(closed, None, None, threshold)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return BurnInResult(closed, hi, float(schedule.tail_bound(hi - 1)), threshold)


@dataclass(frozen=True)
class LpBoundResult:
    """Certificate for uniform L^p boundedness of the iterate sequence.

    ``growth_factor`` is beta = B_p sqrt(gamma) + D_p gamma + D_p^2 gamma^2;
    boundedness needs beta < 1, in which case the moment bound constant is
    1/(1-beta) at p = 2 and 4/(1-beta)^2 for p >= 4.  When beta >= 1 the
    result is informational and carries the admissible gamma threshold.
    """

    gamma: float
    growth_factor: float
    beta_below_one: bool
    moment_bound_factor: float | None
    gamma_threshold: float

    def __str__(self):
        if self.beta_below_one:
            return (f"beta = {self.growth_factor:.6g} < 1, moment factor "
                    f"{self.moment_bound_factor:.6g}")
        return (f"beta = {self.growth_factor:.6g} >= 1: shrink the tail; "
                f"admissible gamma < {self.gamma_threshold:.6g}")


def lp_bound_constants(inputs: ConstantsInputs, gamma: float) -> LpBoundResult:
    """Evaluate the L^p-boundedness certificate at tail mass ``gamma``."""
    if gamma < 0:
        raise InvalidInputs("gamma must be nonnegative")
    # the p-th noise margin D_p = 2 c alpha^2 C_p^2 sigma^2, and the
    # martingale coefficient B_p (zero at p = 2) with gtilde = C_p alpha sigma
    dp = 2.0 * inputs.c_remainder * inputs.alpha ** 2 * inputs.cp ** 2 * inputs.sigma ** 2
    bp = 0.0
    if inputs.p != 2:
        gtilde, La = inputs.cp * inputs.alpha * inputs.sigma, inputs.L * inputs.alpha
        bp = (math.sqrt(3.0 * inputs.b_coef) * inputs.cq * gtilde
              * ((1.0 + La) ** 2 + (3.0 + 2.0 * La) * math.sqrt(inputs.a_coef) * gtilde
                 + 2.0 * inputs.a_coef * gtilde ** 2))

    def growth(g):
        return bp * math.sqrt(g) + dp * g + (dp * g) ** 2

    beta = growth(gamma)
    ok = beta < 1.0

    if dp == 0.0 and bp == 0.0:
        thresh = math.inf
    elif bp == 0.0:
        thresh = GOLDEN_PHI_CAP / dp
    else:
        lo, hi = 0.0, 1.0
        while growth(hi) < 1.0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if growth(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        thresh = lo
    factor = None
    if ok:
        factor = 1.0 / (1.0 - beta) if inputs.p == 2 else 4.0 / (1.0 - beta) ** 2
    return LpBoundResult(gamma, beta, ok, factor, thresh)


@dataclass(frozen=True)
class BoundFamily:
    """One family's constants: rate <= Q/K, complexity <= I polylog(P/eps)
    / eps^nu (stated for eps < P only), and the coefficients A and B of its
    tail term sigma^2 A + sigma^4 B.  Entries it does not cover are None."""

    rate_Q: float | None = None
    log_arg_P: float | None = None
    complexity_I: float | None = None
    complexity_bound: float | None = None
    tail_coeff_A: float | None = None
    tail_coeff_B: float | None = None


def _bound_family(tail, J, P, law, *, rho, d0, eps, divisor=1.0, coeffs=(None, None)):
    """The family with tail term A = ``tail / divisor`` (divided last, as the
    uniform family's closed forms do; the divisor is 1 unless J is 0),
    trajectory bound J and log argument P: Q = 2/rho d^2 + 2/rho A (1 + J),
    and complexity <= prefactor I (ln(P/eps)^log_power + offset) / eps^nu
    for eps < P by ``law`` = (nu, prefactor, log_power, offset).  At nu = 2
    I = 12/rho^2 d^4 + 12/rho^2 A^2 (1 + J)^2 + 1; the network's nu = 2 + a
    takes I = 4 3^(nu-1) [(2/rho)^nu (d^(2 nu) + A^nu (1 + J)^nu) + 1]."""
    nu, prefactor, log_power, offset = law
    two, twelve = 2.0 / rho, 12.0 / rho ** 2
    if nu == 2.0:
        I = (_quotient(((twelve, 1), (d0, 4)))
             + _quotient(((twelve, 1), (tail, 2), (1.0 + J, 2)), ((divisor, 2),)) + 1.0)
    else:
        I = _quotient(((4.0, 1), (3.0, nu - 1.0), (
            _quotient(((two, nu), (d0, 2.0 * nu)))
            + _quotient(((two, nu), (tail, nu), (1.0 + J, nu)), ((divisor, nu),)) + 1.0, 1)))
    bound = None if eps >= P else _quotient(
        ((prefactor, 1), (I, 1), (_quotient(((math.log(P / eps), log_power),)) + offset, 1)),
        ((eps, nu),))
    return BoundFamily(_quotient(((two, 1), (d0, 2)))
                       + _quotient(((two, 1), (tail, 1), (1.0 + J, 1)), ((divisor, 1),)),
                       P, I, bound, *coeffs)


@dataclass(frozen=True)
class BoundsReport:
    """Rate and oracle-complexity constants at tolerance eps: the shared
    quantities and one :class:`BoundFamily` each for ``base`` (non-uniform
    variance, single agent, a = 0), ``uniform`` (variance bounded over the
    feasible set, single agent; only its P unless a = 0) and ``network``
    (fully distributed sampling with a shared a > 0 and b_lo > -1/2: the
    network B integrates ln^-(2 + 2 b_lo), finite only for b_lo > -1/2).
    """

    eps: float
    rho: float
    trajectory_bound: float | None
    tail_sum: float
    tail_sum_sq: float
    rate_Q_inf: float | None
    burn_in: BurnInResult
    base: BoundFamily
    uniform: BoundFamily
    network: BoundFamily

    def as_dict(self):
        out = {name: dict(val.__dict__) if isinstance(val, BoundFamily) else val
               for name, val in self.__dict__.items() if name != "burn_in"}
        out["burn_in_closed_form"] = self.burn_in.closed_form
        out["burn_in_numeric"] = self.burn_in.numeric
        return out


def rate_and_complexity_bounds(inputs: ConstantsInputs, eps: float,
                               mean_dist2=None,
                               horizon: int = _HORIZON) -> BoundsReport:
    """Evaluate every applicable rate/complexity formula at tolerance eps.

    ``mean_dist2`` is an optional per-iteration array of E dist(x^k, X*)^2,
    the mean squared distance to the solution set, from an actual run, used to
    form the trajectory bound J when it is not supplied directly; without
    either, a nonzero noise level raises MissingJ.
    """
    if not eps > 0:
        raise InvalidInputs("eps must be positive")
    rho_val = inputs.rho
    D = inputs.noise_margin
    phi = inputs.phi

    schedule = inputs.schedule
    inv, min_inv = schedule.inverse_series(np.arange(horizon + 1))
    burn = k0_and_tail(inputs, horizon=horizon, inv=inv)
    a0 = float(np.sum(inv)) + schedule.tail_bound(horizon)
    b0 = float(np.sum(inv ** 2)) + schedule.tail_bound_sq(horizon)

    J = inputs.J
    if J is None and D > 0.0:
        if mean_dist2 is None:
            raise MissingJ("supply J or a run's mean squared distances")
        k0 = burn.numeric if burn.numeric is not None else len(mean_dist2) - 1
        k0 = min(k0, len(mean_dist2) - 1)
        J = (1.0 + float(np.max(mean_dist2[:k0 + 1]))) / (1.0 - phi - phi ** 2)
    if D == 0.0 and J is None:
        J = 0.0  # multiplies zero below

    d0, sigma = inputs.d0, inputs.sigma
    two = 2.0 / rho_val
    Q_inf = two * (_quotient(((d0, 2),)) + (1.0 + J) * (
        _quotient(((D, 1), (a0, 1))) + _quotient(((D, 2), (b0, 1)))))
    P = Q_inf + 1.0
    family = functools.partial(_bound_family, rho=rho_val, d0=d0, eps=eps)
    lam = ((2.0, 1), (inputs.c_remainder, 1), (inputs.alpha, 2), (inputs.c2, 2))
    ag, agents = schedule.agents[0], schedule.agents
    lg = math.log(ag.mu - 1.0)

    base = BoundFamily(log_arg_P=P)
    if inputs.m == 1 and ag.a == 0:
        A = _quotient(lam, ((ag.b, 1), (lg, ag.b)))
        e = 1.0 + 2.0 * ag.b
        B = _quotient(((_quotient(lam), 2),), ((ag.mu - 1.0, 1), (e, 1), (lg, e)))
        law = (2.0, max(1.0, _quotient(((ag.theta, -4),))) * max(1.0, ag.theta), 1.0 + ag.b,
               1.0 / ag.mu)
        base = family(_quotient(((sigma, 2), (A, 1))) + _quotient(((sigma, 4), (B, 1))),
                      J, P, law, coeffs=(A, B))

    # uniform over X: the tail 17 C_2^2 alpha^2 sigma^2 sums 1/min_i N_{k,i}
    uniform = BoundFamily()
    if inputs.m == 1:
        tail = _quotient(((17.0, 1), (inputs.c2, 2), (inputs.alpha, 2), (sigma, 2)))
        sum_min = float(np.sum(min_inv)) + schedule.tail_bound(horizon)
        uniform = BoundFamily(log_arg_P=two * (
            _quotient(((d0, 2),)) + _quotient(((tail, 1), (sum_min, 1)))) + 1.0)
        if ag.a == 0:
            law = (2.0, max(1.0, _quotient(((ag.theta, -2),))) * max(1.0, ag.theta),
                   1.0 + ag.b, 1.0 / ag.mu)
            uniform = family(tail, 0.0, uniform.log_arg_P, law,
                             divisor=_quotient(((ag.b, 1), (lg, ag.b))))

    network = BoundFamily()
    b_lo = min(a.b for a in agents)
    if all(a.a > 0 for a in agents) and len({a.a for a in agents}) == 1 and b_lo > -0.5:
        mu_lo = min(a.mu for a in agents)
        lg_lo = math.log(mu_lo - 1.0)
        A = sum(_quotient(lam, ((a.theta, 1), (a.a, 1), (a.mu - 1.0, a.a))) for a in agents)
        B = _quotient(((sum(_quotient(lam, ((a.theta, 1), (lg_lo, a.b))) for a in agents), 2),),
                      ((1.0 + 2.0 * b_lo, 1), (mu_lo - 1.0, 1.0 + 2.0 * ag.a), (lg_lo, 1)))
        law = (2.0 + ag.a, inputs.S * max(max(a.theta for a in agents), 1.0),
               1.0 + max(a.b for a in agents), 0.0)
        network = family(_quotient(((sigma, 2), (A, 1))) + _quotient(((sigma, 4), (B, 1))),
                         J, P, law, coeffs=(A, B))

    return BoundsReport(eps=eps, rho=rho_val, trajectory_bound=J, tail_sum=a0,
                        tail_sum_sq=b0, rate_Q_inf=Q_inf, burn_in=burn,
                        base=base, uniform=uniform, network=network)


@dataclass(frozen=True)
class EmpiricalComparison:
    """Direction check of the rate bound against a measured run."""

    passed: bool
    first_violation_k: int | None
    margin: float  # min over k of (bound / measured)

    def __str__(self):
        if self.passed:
            return f"bound direction holds (min bound/measured = {self.margin:.3g})"
        return f"bound direction FAILS first at k = {self.first_violation_k}"


def compare_bound_to_run(inputs: ConstantsInputs, Q_bar: float, mean_r2,
                         k_min: int = 1) -> EmpiricalComparison:
    """Check mean r^2(x^k) <= max(1, theta^-2) * Q_bar / k for measured k."""
    k = np.arange(k_min, len(mean_r2))
    bound = max(1.0, _quotient(((inputs.schedule.agents[0].theta, -2),))) * Q_bar / k
    meas = np.asarray(mean_r2, dtype=float)[k]
    measured = meas > 0  # only a positive r^2 is compared
    bad = k[measured & (meas > bound)]
    margin = float(np.min(bound[measured] / meas[measured], initial=math.inf))
    return EmpiricalComparison(not bad.size, int(bad[0]) if bad.size else None, margin)
