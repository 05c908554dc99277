"""Solve a stochastic linear complementarity problem.

The operator is F(xi, x) = A(xi) x with a random matrix whose mean Abar is
positive semidefinite, over the nonnegative orthant.  The oracle variance
x^T B x grows quadratically along rays, so single-sample methods stall; the
extragradient iteration with a growing batch schedule drives the natural
residual to zero while the stepsize stays fixed.
"""

import numpy as np

from stochvi import SampleSchedule, SolverConfig, validate
from stochvi.problems import gen_linear_svi, variance_at
from stochvi.solver import run

problem = gen_linear_svi(n=8, seed=42, noise_scale=0.3, feasible="orthant")
print(f"problem: {problem.name}, L = {problem.lipschitz_L:.3f}")
x_far = np.full(8, 10.0)
print(f"oracle variance at ||x||={np.linalg.norm(x_far):.1f}: "
      f"{variance_at(problem, x_far):.1f}  (at the solution: 0.0)")

config = SolverConfig(
    stepsize=0.25 / problem.lipschitz_L,
    schedule=SampleSchedule.uniform(theta=1, mu=3, a=0, b=1),
    max_iterations=200,
    master_seed=7,
)
plan = validate(problem, config)  # raises on a misconfigured pair, tabulates the run

trace = run(plan, x0=np.full(8, 2.0))
print()
print("  k    r_alpha(x)^2      dist^2        N_k   cumulative calls")
for k in (0, 10, 50, 100, 200):
    nk = plan.rows[min(k, 199)][0]
    print(f"{k:4d}   {trace.r2[k]:.6e}  {trace.dist2[k]:.6e}  {nk:6d}   {trace.cum_calls[k]:10d}")
