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

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import stepsize_cap
from .errors import InvalidInputs, MissingJ
from .sampling import SampleSchedule

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
        if not self.L > 0:
            raise InvalidInputs(f"L must be positive, got {self.L!r}")
        stepsize_cap(self.L, (self.alpha,))
        if self.sigma < 0:
            raise InvalidInputs("sigma must be nonnegative")
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
        return 2.0 * self.c_remainder * self.alpha ** 2 * self.c2 ** 2 * self.sigma ** 2


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
    threshold = math.inf if D == 0.0 else inputs.phi / D

    schedule = inputs.schedule
    ag0 = schedule.agents[0]
    closed: int | None = None
    if D == 0.0:
        closed = 0
    elif all(a.a == 0 for a in schedule.agents) and inputs.m == 1:
        expo = (2.0 * inputs.c_remainder * inputs.c2 ** 2 * inputs.alpha ** 2
                * inputs.sigma ** 2 / (inputs.phi * ag0.b * ag0.theta)) ** (1.0 / ag0.b)
        # round outward: this index solves the same tail condition the numeric
        # search evaluates, which can differ from expo by a few ulps
        expo *= 1.0 + 16.0 * sys.float_info.epsilon
        try:
            closed = max(0, math.ceil(math.exp(expo) - ag0.mu + 1.0))
        except OverflowError:
            closed = None
    elif all(a.a > 0 for a in schedule.agents):
        # schedule.tail_bound bounds the tail from k0 by the sum over agents of
        # 1 / (theta_i a_i (k0 - 1 + mu_i)^a_i) once k0 + mu_i >= e; each
        # term is at most threshold / m from the index computed here.
        m = schedule.n_agents
        closed = max(0, math.ceil(math.e - min(a.mu for a in schedule.agents)))
        try:
            for ag in schedule.agents:
                base = (m * D / (inputs.phi * ag.theta * ag.a)) ** (1.0 / ag.a)
                # round outward: the power amplifies relative error by 1/a
                base *= 1.0 + 16.0 * sys.float_info.epsilon * (m + 1.0 / ag.a)
                closed = max(closed, math.ceil(base - ag.mu + 1.0))
        except OverflowError:
            closed = None

    if D == 0.0:
        return BurnInResult(closed, 0, 0.0, threshold)
    if inv is None:
        inv, _ = schedule.inverse_series(np.arange(horizon + 1))
    rem = schedule.tail_bound(horizon)
    suffix = np.cumsum(inv[::-1])[::-1] + rem
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


def _rate_constant(rho_val, d, A, J):
    """2/rho * d^2 + 2/rho * A (1 + J)."""
    return 2.0 / rho_val * d ** 2 + 2.0 / rho_val * A * (1.0 + J)


def _complexity_constant(rho_val, d, A, J):
    """12/rho^2 * d^4 + 12/rho^2 * A^2 (1 + J)^2 + 1."""
    return 12.0 / rho_val ** 2 * d ** 4 + 12.0 / rho_val ** 2 * A ** 2 * (1.0 + J) ** 2 + 1.0


def _network_complexity_constant(rho_val, d, A, J, nu):
    """4 * 3^(nu-1) * [ (2/rho)^nu d^(2 nu) + (2/rho)^nu A^nu (1+J)^nu + 1 ]."""
    two_over_rho = 2.0 / rho_val
    return 4.0 * 3.0 ** (nu - 1.0) * (
        two_over_rho ** nu * d ** (2.0 * nu)
        + two_over_rho ** nu * A ** nu * (1.0 + J) ** nu
        + 1.0)


@dataclass(frozen=True)
class BoundsReport:
    """Rate and oracle-complexity constants at tolerance eps.

    The three families share the shape "rate <= Q/K, complexity <=
    I * polylog(P/eps) / eps^power": the base family covers non-uniform
    variance (single agent, a = 0 schedules), the ``uniform`` family sharpens
    the constants when the variance is bounded over the feasible set, and the
    ``network`` family covers fully distributed sampling with a > 0.
    Inapplicable entries are None; the network entries are None also when
    the smallest log exponent b_lo <= -1/2, because their tail coefficient
    B integrates ln^-(2 + 2 b_lo), which is finite only for b_lo > -1/2.
    """

    eps: float
    rho: float
    trajectory_bound: float | None
    tail_sum: float
    tail_sum_sq: float
    rate_Q_inf: float | None
    rate_Q_bar: float | None
    log_arg_P: float | None
    complexity_I: float | None
    complexity_bound: float | None
    tail_coeff_A: float | None
    tail_coeff_B: float | None
    burn_in: BurnInResult | None
    uniform_rate_Q: float | None
    uniform_complexity_I: float | None
    uniform_log_arg_P: float | None
    uniform_complexity_bound: float | None
    network_tail_coeff_A: float | None
    network_tail_coeff_B: float | None
    network_rate_Q: float | None
    network_complexity_I: float | None
    network_log_arg_P: float | None
    network_complexity_bound: float | None

    def as_dict(self):
        out = {}
        for name, val in self.__dict__.items():
            if isinstance(val, BurnInResult):
                out["burn_in_closed_form"] = val.closed_form
                out["burn_in_numeric"] = val.numeric
            else:
                out[name] = val
        return out


def rate_and_complexity_bounds(inputs: ConstantsInputs, eps: float,
                               mean_dist2=None,
                               horizon: int = _HORIZON) -> BoundsReport:
    """Evaluate every applicable rate/complexity formula at tolerance eps.

    ``mean_dist2`` is an optional per-iteration array of E||x^k - x*||^2
    (or squared distances to the solution set) from an actual run, used to
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

    d0 = inputs.d0
    Q_inf = 2.0 / rho_val * (d0 ** 2 + (1.0 + J) * (D * a0 + D ** 2 * b0))
    P = Q_inf + 1.0

    ag = schedule.agents[0]
    lam = 2.0 * inputs.c_remainder * inputs.alpha ** 2 * inputs.c2 ** 2
    lg = math.log(ag.mu - 1.0)
    scalar_family = inputs.m == 1 and ag.a == 0
    Q_bar = I_const = complexity = coef_A = coef_B = None
    if scalar_family:
        coef_A = lam / (ag.b * lg ** ag.b)
        coef_B = lam ** 2 / ((ag.mu - 1.0) * (1.0 + 2.0 * ag.b) * lg ** (1.0 + 2.0 * ag.b))
        A_combo = inputs.sigma ** 2 * coef_A + inputs.sigma ** 4 * coef_B
        Q_bar = _rate_constant(rho_val, d0, A_combo, J)
        I_const = _complexity_constant(rho_val, d0, A_combo, J)
        complexity = (max(1.0, ag.theta ** -4) * max(1.0, ag.theta) * I_const
                      * (math.log(P / eps) ** (1.0 + ag.b) + 1.0 / ag.mu) / eps ** 2)

    # Uniform-over-X family (single-agent schedule shape).
    uQ = uI = uP = uC = None
    if inputs.m == 1:
        unif_tail = 17.0 * inputs.c2 ** 2 * inputs.alpha ** 2 * inputs.sigma ** 2
        sum_min = float(np.sum(min_inv)) + schedule.tail_bound(horizon)
        uQ_inf = 2.0 / rho_val * (d0 ** 2 + unif_tail * sum_min)
        uP = uQ_inf + 1.0
        if ag.a == 0:
            uQ = (2.0 / rho_val * d0 ** 2
                  + 2.0 / rho_val * unif_tail / (ag.b * lg ** ag.b))
            uI = (12.0 / rho_val ** 2 * d0 ** 4
                  + 12.0 / rho_val ** 2 * unif_tail ** 2 / (ag.b ** 2 * lg ** (2.0 * ag.b))
                  + 1.0)
            uC = (max(1.0, ag.theta ** -2) * max(1.0, ag.theta) * uI
                  * (math.log(uP / eps) ** (1.0 + ag.b) + 1.0 / ag.mu) / eps ** 2)

    # Network family (shared polynomial exponent a > 0, b_lo > -1/2).
    nA = nB = nQ = nI = nP = nC = None
    a_exps = {a.a for a in schedule.agents}
    b_lo = min(a.b for a in schedule.agents)
    if all(a.a > 0 for a in schedule.agents) and len(a_exps) == 1 and b_lo > -0.5:
        a_exp = schedule.agents[0].a
        mu_lo = min(a.mu for a in schedule.agents)
        lg_lo = math.log(mu_lo - 1.0)
        nA = sum(lam / (a.theta * a.a * (a.mu - 1.0) ** a.a)
                 for a in schedule.agents)
        vartheta = (1.0 + 2.0 * b_lo) * (mu_lo - 1.0) ** (1.0 + 2.0 * a_exp) * lg_lo
        nB = (sum(lam / (a.theta * lg_lo ** a.b) for a in schedule.agents) ** 2
              / vartheta)
        A_net = inputs.sigma ** 2 * nA + inputs.sigma ** 4 * nB
        nQ = _rate_constant(rho_val, d0, A_net, J)
        nP = Q_inf + 1.0
        nu = 2.0 + a_exp
        nI = _network_complexity_constant(rho_val, d0, A_net, J, nu)
        b1 = max(a.b for a in schedule.agents)
        theta_max = max(a.theta for a in schedule.agents)
        nC = (inputs.S * max(theta_max, 1.0)
              * math.log(nP / eps) ** (1.0 + b1) * nI / eps ** nu)

    return BoundsReport(
        eps=eps, rho=rho_val, trajectory_bound=J,
        tail_sum=a0, tail_sum_sq=b0,
        rate_Q_inf=Q_inf, rate_Q_bar=Q_bar, log_arg_P=P,
        complexity_I=I_const, complexity_bound=complexity,
        tail_coeff_A=coef_A, tail_coeff_B=coef_B, burn_in=burn,
        uniform_rate_Q=uQ, uniform_complexity_I=uI,
        uniform_log_arg_P=uP, uniform_complexity_bound=uC,
        network_tail_coeff_A=nA, network_tail_coeff_B=nB,
        network_rate_Q=nQ, network_complexity_I=nI,
        network_log_arg_P=nP, network_complexity_bound=nC,
    )


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
    theta = inputs.schedule.agents[0].theta
    scale = max(1.0, theta ** -2)
    margin = math.inf
    first_bad = None
    for k in range(k_min, len(mean_r2)):
        bound = scale * Q_bar / k
        meas = float(mean_r2[k])
        if meas <= 0:
            continue
        margin = min(margin, bound / meas)
        if meas > bound and first_bad is None:
            first_bad = k
    return EmpiricalComparison(first_bad is None, first_bad, margin)
