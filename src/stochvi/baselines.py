"""Comparison method: the ergodic mirror-prox scheme on the zero-mean
constant-operator problem.

For the constant operator F(xi, x) = xi the mirror-prox recursion collapses
to explicit sums: after K iterations the terminal iterate and the ergodic
average are

    z^K    = x1 - sum_(k=1..K) alpha_k^K xi_k,
    zbar^K = x1 - sum_(k=1..K) theta_k^K xi_k,

with stepsizes alpha_k^K = k / (3 L K + sigma K sqrt(K - 1)), averaging
weights p_k^K = c0 * Gamma_K * alpha_k^K normalized to sum to one
(Gamma_k = 2 / (k (k+1))), and theta_k^K = c0 Gamma_K alpha_k^K
sum_(i=k..K) alpha_i^K = alpha_k^K sum_(i=k..K) p_i^K.  The variances are
exact: Var[z^K] = sigma^2 * sum alpha_k^2 and Var[zbar^K] = sigma^2 *
sum theta_k^2.  Both stay of order one.  With alpha_k^K ~ k / (sigma K^1.5)
and sum_(i>=k) p_i^K ~ 1 - (k/K)^2, sum alpha_k^2 -> 1/(3 sigma^2) and
sum theta_k^2 -> 8/(105 sigma^2): averaging shrinks the variance by the
factor 24/105 and no more, and neither iterate stops fluctuating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import streams
from .errors import InvalidHorizon, InvalidParameters


@dataclass(frozen=True)
class MirrorProxSchedule:
    """Ergodic weights and stepsizes for a fixed horizon K >= 2."""

    K: int
    L: float
    sigma: float
    alphas: np.ndarray        # alpha_k^K for k = 1..K
    weights: np.ndarray       # p_k^K, sums to one
    avg_coeffs: np.ndarray    # theta_k^K
    c0: float
    terminal_var_coeff: float  # sum alpha_k^2
    average_var_coeff: float   # sum theta_k^2

    @classmethod
    def build(cls, K: int, sigma: float, L: float = 1.0) -> "MirrorProxSchedule":
        if K < 2:
            raise InvalidHorizon("mirror-prox schedule needs K >= 2")
        k = np.arange(1, K + 1, dtype=float)
        denom = 3.0 * L * K + sigma * K * math.sqrt(K - 1.0)
        alphas = k / denom
        gamma_K = 2.0 / (K * (K + 1.0))
        c0 = 1.0 / (gamma_K * alphas.sum())
        weights = c0 * gamma_K * alphas
        # theta_k = c0 Gamma_K alpha_k sum_(i>=k) alpha_i, via a suffix sum
        suffix = np.cumsum(alphas[::-1])[::-1]
        avg_coeffs = c0 * gamma_K * alphas * suffix
        return cls(
            K=K, L=float(L), sigma=float(sigma),
            alphas=alphas, weights=weights, avg_coeffs=avg_coeffs, c0=float(c0),
            terminal_var_coeff=float(alphas @ alphas),
            average_var_coeff=float(avg_coeffs @ avg_coeffs),
        )

    def sample(self, rng, x1: float = 0.0):
        """Terminal iterate z^K and ergodic average zbar^K of the scheme on
        the scalar zero-mean constant operator from ``x1``, with
        N(0, sigma^2) noise drawn from ``rng``.  Returns (z_K, zbar_K)."""
        if self.sigma == 0.0:
            return float(x1), float(x1)
        draws = self.sigma * rng.standard_normal(self.K)
        return x1 - float(self.alphas @ draws), x1 - float(self.avg_coeffs @ draws)


def variance_scaling_probe(K_list, sigma: float, L: float, replications: int,
                           master_seed: int = 0):
    """Empirical vs exact variances of z^K and zbar^K across horizons.

    Rows: K, var_zK_emp, var_zK_exact, var_zbar_emp, var_zbar_exact.
    The exact values are sigma^2 * sum alpha_k^2 and sigma^2 * sum theta_k^2
    (sums of independent Gaussians), so the empirical columns agree within
    Monte Carlo noise.  Replication r at the j-th horizon draws on stream
    (r, 0, 1, 0) of the keyer of ``master_seed + j``.  A sample variance
    needs at least two replications.
    """
    if replications < 2:
        raise InvalidParameters("variance scaling probe needs at least 2 replications")
    rows = []
    for j, K in enumerate(K_list):
        sched = MirrorProxSchedule.build(int(K), sigma, L)
        z = np.empty(replications)
        zbar = np.empty(replications)
        for r, rng in enumerate(streams(master_seed + j)(range(replications), 0, 1, 0)):
            z[r], zbar[r] = sched.sample(rng)
        rows.append({
            "K": int(K),
            "var_zK_emp": float(np.var(z, ddof=1)),
            "var_zK_exact": sigma ** 2 * sched.terminal_var_coeff,
            "var_zbar_emp": float(np.var(zbar, ddof=1)),
            "var_zbar_exact": sigma ** 2 * sched.average_var_coeff,
        })
    return rows
