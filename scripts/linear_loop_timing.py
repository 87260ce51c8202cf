#!/usr/bin/env python3
"""Time the linear closed loop's implicit-midpoint factorization and step.

Run from the repository root:

    python scripts/linear_loop_timing.py [--N 256 1024] [--reps 5] [--steps 20]

The problem is the double integrator (n = 2, m = 1) with Q = I,
alpha = 1 and t_f = 1, closed against the linear plant R = I, B_p = B
at gamma = 1/alpha.  For each N the script builds the loop with
``phflow.couple`` and prints one JSON line with the minimum over
``--reps`` repeats of:

- ``couple_s``: closing the loop (coupling block and composed system);
- ``factor_s``: building the implicit-midpoint stepper, which factors
  I + h/2 L once;
- ``step_ms``: one step, the mean over ``--steps`` consecutive steps;

and the same factor and step timings for the LQ optimizer on its own
(``opt_factor_s``, ``opt_step_ms``).  BLAS is pinned to one thread, and
the script uses only the public API, so it runs on any checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import phflow as pf  # noqa: E402
from phflow.phcore import implicit_stepper  # noqa: E402

H_T = 0.01


def _problem(N: int):
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    ocp = pf.assemble_ocp(pf.LinearPlantModel(A, B, 0.0, np.array([1.0, 0.0])),
                          pf.build_grid(1.0, N),
                          pf.CostSpec(1.0, pf.QuadraticStage(np.eye(2))))
    plant = pf.assemble_plant(pf.linear_plant(np.eye(2), B, [1.0, 0.0]))
    return ocp, plant


def _timed(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def _factor_and_step(sys, z0, b, steps: int):
    step, factor_s = _timed(lambda: implicit_stepper(sys.M, H_T, 0.5, sys.metric.norm, 1e-10))
    z = z0
    t = time.perf_counter()
    for _ in range(steps):
        z, _ = step(z, b)
    return factor_s, (time.perf_counter() - t) / steps


def measure(N: int, reps: int, steps: int) -> dict:
    ocp, plant = _problem(N)
    best = dict.fromkeys(("couple_s", "factor_s", "step_ms", "opt_factor_s", "opt_step_ms"),
                         np.inf)
    for _ in range(reps):
        opt = pf.assemble_optimizer(ocp)
        cls, couple_s = _timed(lambda: pf.couple(opt, plant, ocp, pf.CouplingSpec("inv_alpha")))
        loop = _factor_and_step(cls.sys, cls.initial_state(plant.dim * [1.0]),
                                np.zeros(cls.dim), steps)
        alone = _factor_and_step(opt, pf.default_initial_state(ocp),
                                 opt.B @ pf.constant_input(ocp), steps)
        for key, value in zip(best, (couple_s, loop[0], 1e3 * loop[1],
                                     alone[0], 1e3 * alone[1])):
            best[key] = min(best[key], value)
    return {"N": N, "dim": ocp.state_dim + plant.dim, "reps": reps, "steps": steps, **best}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--N", type=int, nargs="+", default=[256, 1024])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args(argv)
    for N in args.N:
        print(json.dumps(measure(N, args.reps, args.steps)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
