"""Theoretical constants for a concrete configuration.

Every quantity in the rate and complexity guarantees has a closed form once
the problem parameters (L, sigma, starting distance) and the schedule are
fixed.  This script evaluates them for the rate-experiment configuration and
checks the bound direction E[r^2(x^k)] <= Q_bar / k against a short run.
"""

import math

import numpy as np

from stochvi import SampleSchedule, SolverConfig
from stochvi.constants import (
    ConstantsInputs,
    c_consistency,
    compare_bound_to_run,
    k0_and_tail,
    lp_bound_constants,
    rate_and_complexity_bounds,
)
from stochvi.harness import ExperimentConfig, run_experiment
from stochvi.problems import gen_strongly_monotone

problem = gen_strongly_monotone(5, seed=3, noise_scale=1.0, center=np.zeros(5))
result = run_experiment(ExperimentConfig(
    problem=problem,
    solver=SolverConfig(stepsize=0.25, schedule=SampleSchedule.uniform(1, 3, 0, 1),
                        max_iterations=300, master_seed=2024),
    replications=20, x0=np.full(5, 1.0), rate_fit_window=(20, 300)))

inputs = ConstantsInputs(
    L=1.0, alpha=0.25, sigma=math.sqrt(5.0),  # L2 modulus of the noise
    schedule=SampleSchedule.uniform(1, 3, 0, 1),
    phi=0.5, d0=math.sqrt(5.0))

burn = k0_and_tail(inputs)
print(f"burn-in index: {burn}")

bounds = rate_and_complexity_bounds(inputs, eps=1e-4, mean_dist2=result.mean_dist2)
print(f"residual margin rho            = {bounds.rho:.4f}")
print(f"trajectory bound J (empirical) = {bounds.trajectory_bound:.2f}")
print(f"rate constants: Q_inf = {bounds.rate_Q_inf:.1f}, Q_bar = {bounds.base.rate_Q:.1f}")
print(f"complexity constant I = {bounds.base.complexity_I:.3e}")
print(f"oracle-complexity bound at eps=1e-4: {bounds.base.complexity_bound:.3e}")

check = compare_bound_to_run(inputs, bounds.base.rate_Q, result.mean_r2, k_min=20)
print(f"empirical direction check: {check}")

print(f"\nmoment-boundedness certificate at gamma = phi/D:")
gamma = inputs.phi / inputs.noise_margin
print(f"  {lp_bound_constants(inputs, gamma)}")

print(f"\n{c_consistency(inputs)}")
