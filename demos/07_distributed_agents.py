"""Cartesian problems: one agent per coordinate block.

Under centralized sampling all agents consume one shared draw set per stage,
and the multi-agent trace coincides bit for bit with the monolithic one.
Under distributed sampling each agent draws independently and is billed
separately, so the oracle-call count multiplies by the number of agents
while the per-agent exponent coordination keeps the aggregate rate intact.
"""

from dataclasses import replace

import numpy as np

from stochvi import SampleSchedule, SolverConfig, validate
from stochvi.problems import gen_strongly_monotone
from stochvi.sampling import network_exponents, verify_network_exponents
from stochvi.solver import run

problem = gen_strongly_monotone(5, seed=7, noise_scale=1.0, center=np.zeros(5))
blocked = replace(problem, blocks=(2, 2, 1))
config = SolverConfig(stepsize=0.25, schedule=SampleSchedule.uniform(1, 3, 0, 1),
                      max_iterations=80, master_seed=11)

mono = run(validate(problem, config), x0=np.full(5, 1.5))
cent = run(validate(blocked, config), x0=np.full(5, 1.5))
print("three agents, centralized sampling:")
print(f"  trace identical to monolithic run: "
      f"{np.array_equal(mono.iterates, cent.iterates)}")
print(f"  oracle calls: {cent.cum_calls[-1]} (same as monolithic: "
      f"{mono.cum_calls[-1]})")

dist_cfg = SolverConfig(stepsize=0.25,
                        schedule=SampleSchedule.uniform(1, 3, 0, 1, m=3),
                        max_iterations=80, master_seed=11,
                        coordination="distributed")
dist = run(validate(blocked, dist_cfg), x0=np.full(5, 1.5))
print("\nthree agents, distributed sampling:")
print(f"  oracle calls: {dist.cum_calls[-1]} (3x the shared-draw cost)")
print(f"  final r^2: {dist.r2[-1]:.3e} vs centralized {cent.r2[-1]:.3e}")

print("\nexponent coordination for a 6-agent network (base 0.5, S = 1):")
b = network_exponents(6, base=0.5, S=1.0)
print("  b =", [round(v, 4) for v in b])
print("  defining inequality verified:", verify_network_exponents(b, 1.0))
