"""Set-up to the first optimizer step, in a fresh interpreter.

    python3 perfbench/setup_probe.py ROOT PROBLEM OPTIMIZER

Imports vsgd from ROOT/src, builds the problem and the optimizer state as
``harness.run`` does before its first step, then prints ``ready``.
"""
import os
import sys

root, problem_spec, optimizer = sys.argv[1:4]
sys.path.insert(0, os.path.join(root, "src"))

import numpy as np  # noqa: E402

from vsgd import harness, problems  # noqa: E402

problem = problems.make_problem(problem_spec)
config = harness.RunConfig(optimizer=optimizer, problem=problem_spec, steps=1, seed=0)
stepper = harness.make_stepper(optimizer, problem.dim, config)
theta = problem.theta0.astype(np.float64).copy()
print("ready", flush=True)
