"""Pathwise audit of the per-iteration contraction inequality.

Along every realized path, the distance to a solution obeys

    ||x^(k+1) - x*||^2 <= ||x^k - x*||^2 - (rho_k/2) r_k^2 + dM_k + dA_k

where dA collects the realized squared errors and dM is a zero-mean
martingale increment.  The audit replays a recorded trace and checks the
inequality step by step.  Pseudo-monotonicity is what makes it hold; running
the same audit on T(x) = -x (not pseudo-monotone) produces violations, and
the randomized pseudo-monotonicity check finds a witness pair.
"""

import numpy as np

from stochvi import SampleSchedule, SolverConfig
from stochvi.problems import check_pseudo_monotone, gen_negative_control, gen_scaled_monotone
from stochvi.solver import fejer_audit, run

problem = gen_scaled_monotone(5, seed=5, noise_scale=0.5)
config = SolverConfig(stepsize=0.25 / problem.lipschitz_L,
                      schedule=SampleSchedule.uniform(1, 3, 0, 1),
                      max_iterations=100, master_seed=31, diagnostics=True)

print(f"pseudo-monotone (non-monotone) instance: {problem.name}")
for rep in range(3):
    trace = run(problem, config, replication=rep, x0=np.full(5, 1.0))
    audit = fejer_audit(trace, problem.known_solutions[0])
    print(f"  replication {rep}: {audit}")

control = gen_negative_control(n=1)
ctl_cfg = SolverConfig(stepsize=0.2, schedule=SampleSchedule.uniform(1, 3, 0, 1),
                       max_iterations=30, master_seed=1, diagnostics=True)
trace = run(control, ctl_cfg, x0=np.array([1.0]))
audit = fejer_audit(trace, np.zeros(1))
print(f"\nnegative control T(x) = -x: {audit}")
print("pseudo-monotonicity check on the control:",
      check_pseudo_monotone(control.mean_operator, control.feasible_set,
                            samples=500, seed=2, n=1))
