"""Set-up time of a fresh interpreter: import stochvi, parse one experiment
config into an ExperimentConfig (which builds the problem), validate once.

Usage: python3 setup_probe.py <src dir> <config.json>
Prints one JSON object {"setup_s": seconds}.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import json  # noqa: E402

import stochvi  # noqa: E402,F401
from stochvi.core import validate  # noqa: E402
from stochvi.harness import experiment_from_config  # noqa: E402

with open(sys.argv[2]) as fh:
    config = experiment_from_config(json.load(fh))
validate(config.problem, config.solver)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
