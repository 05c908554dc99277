import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stochvi import SampleSchedule, SolverConfig
from stochvi.problems import gen_strongly_monotone


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def monotone_problem():
    """Noisy strongly monotone instance with the solution at the origin."""
    return gen_strongly_monotone(5, seed=3, noise_scale=1.0, center=np.zeros(5))


@pytest.fixture(scope="session")
def quiet_problem():
    """Zero-variance variant of the same instance."""
    return gen_strongly_monotone(5, seed=3, noise_scale=0.0, center=np.zeros(5))


def never_drawn(rng, x, size):
    """An oracle for checks that must fail before any draw."""
    raise AssertionError("the oracle was drawn")


def default_config(**overrides):
    kwargs = dict(
        stepsize=0.25,
        schedule=SampleSchedule.uniform(1, 3, 0, 1),
        max_iterations=100,
        master_seed=7,
        diagnostics=True,
    )
    kwargs.update(overrides)
    return SolverConfig(**kwargs)
