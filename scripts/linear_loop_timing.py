#!/usr/bin/env python3
"""Time the closed loop's implicit-midpoint factorization and step.

Run from the repository root:

    python scripts/linear_loop_timing.py [--N 256 1024] [--n 2] [--m 1] [--reps 5] [--steps 20]

The problem is the chain of n integrators driven in its last m states
(for n = 2, m = 1 the double integrator) with Q = I, alpha = 1 and
t_f = 1, closed against the linear plant R = I, B_p = B at
gamma = 1/alpha.  For each N the script builds the loop with
``phflow.couple`` and prints one JSON line with the minimum over
``--reps`` repeats of:

- ``couple_s``: closing the loop (coupling block and composed system);
- ``factor_s``: building the implicit-midpoint stepper for the loop's
  constant input, which factors I + h/2 L once and forms the step's
  drive once, as ``phflow.optimizer.stream_flow`` builds it;
- ``step_ms``: one step, the mean over ``--steps`` consecutive steps;
- ``cubic_setup_s``: building the stepper of the same loop closed
  against the cubic plant R = I, kappa = 1 instead, which factors the
  optimizer's I + h/2 L once and solves with it for the optimizer's
  response to the plant (one column per plant coordinate);
- ``cubic_step_ms``: one step of that cubic loop alone (a Newton solve
  in the plant coordinates), the mean over ``--steps`` consecutive
  steps, each solved to the default ``newton_tol`` of
  ``phflow.IntegratorConfig``;

the same factor and step timings for the LQ optimizer on its own
(``opt_factor_s``, ``opt_step_ms``); and

- ``logcosh_step_ms``: one step of the same optimizer with the logcosh
  stage of scale 1 in place of Q = I (a Newton solve in the whole
  optimizer state), the mean over ``--steps`` consecutive steps from the
  default initial state, each solved to the default ``newton_tol``;
- ``logcosh_loop_step_ms``: one step of that logcosh optimizer closed
  against the cubic plant (a Newton solve in the whole loop state), the
  mean over ``--steps`` consecutive steps, each solved to the default
  ``newton_tol``;
- ``loop_assemble_ms``: closing the cubic loop from the model, grid and
  cost: the problem's assembly, the plant's assembly with its
  accretivity probe, the optimizer's, the coupling, the initial state
  and the stepper;
- ``cubic_factors_per_step``, ``logcosh_factors_per_step`` and
  ``logcosh_loop_factors_per_step``: the Newton factorizations per step
  of the cubic loop, the logcosh optimizer and the logcosh loop over
  the same ``--steps`` steps, taken again untimed: the calls of
  ``phflow._linalg.Factor.solver``, each of which factors one Newton
  matrix.

BLAS is pinned to one thread.  The script uses only the public API and
``phflow.phcore.implicit_stepper``, and counts the factorizations on
``phflow._linalg.Factor.solver``.
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
from phflow._linalg import Factor  # noqa: E402
from phflow.phcore import implicit_stepper  # noqa: E402

H_T = 0.01
NEWTON_TOL = pf.IntegratorConfig(h_t=H_T).newton_tol


def _problem(N: int, n: int, m: int):
    A = np.eye(n, k=1)
    B = np.eye(n)[:, n - m:]
    x0 = np.eye(n)[0]
    model, grid = pf.LinearPlantModel(A, B, 0.0, x0), pf.build_grid(1.0, N)
    ocp = pf.assemble_ocp(model, grid, pf.CostSpec(1.0, pf.QuadraticStage(np.eye(n))))
    logcosh = pf.assemble_ocp(model, grid, pf.CostSpec(1.0, pf.LogCoshStage(1.0)))
    plant = pf.assemble_plant(pf.linear_plant(np.eye(n), B, x0))
    cubic = pf.assemble_plant(pf.cubic_plant(np.eye(n), 1.0, B, x0))
    return ocp, logcosh, plant, cubic


def _assemble_loop(model, grid, cost, spec):
    """Close the cubic loop from scratch, up to its stepper."""
    ocp = pf.assemble_ocp(model, grid, cost)
    cls = pf.couple(pf.assemble_optimizer(ocp), pf.assemble_plant(spec), ocp,
                    pf.CouplingSpec("inv_alpha"))
    cls.initial_state(spec.x_p0)
    return implicit_stepper(cls.sys.M, H_T, 0.5, cls.sys.metric, NEWTON_TOL, 0.0)


def _timed(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def _stepper(sys, b):
    """The stepper built for the constant input b, as a flow builds it."""
    return implicit_stepper(sys.M, H_T, 0.5, sys.metric, NEWTON_TOL, b)


def _steps(step, z0, steps: int) -> float:
    """The mean time of `steps` steps from z0, which alternate between
    two rows."""
    z, z_next = np.array(z0, dtype=float), np.empty(np.size(z0))
    t = time.perf_counter()
    for _ in range(steps):
        res = step(z, z_next)
        if not res <= NEWTON_TOL:
            raise pf.NonConvergence("timed step failed", residual=res)
        z, z_next = z_next, z
    return (time.perf_counter() - t) / steps


def _factor_and_step(sys, z0, b, steps: int):
    """The time to build the stepper and the mean time of its steps."""
    step, factor_s = _timed(lambda: _stepper(sys, b))
    return factor_s, _steps(step, z0, steps)


def _factors_per_step(sys, z0, b, steps: int) -> float:
    """The Newton factorizations per step of the same steps, untimed: the
    calls of `Factor.solver` while the stepper steps."""
    step, calls, solver = _stepper(sys, b), [], Factor.solver

    def counted(self, d=()):
        calls.append(1)
        return solver(self, d)

    Factor.solver = counted
    try:
        _steps(step, z0, steps)
    finally:
        Factor.solver = solver
    return len(calls) / steps


def measure(N: int, n: int, m: int, reps: int, steps: int) -> dict:
    ocp, logcosh, plant, cubic = _problem(N, n, m)
    cubic_spec = pf.PlantSpec(cubic.M, cubic.B, ocp.model.x0)
    best = dict.fromkeys(("couple_s", "factor_s", "step_ms", "cubic_setup_s",
                          "cubic_step_ms", "opt_factor_s", "opt_step_ms",
                          "logcosh_step_ms", "logcosh_loop_step_ms",
                          "loop_assemble_ms", "cubic_factors_per_step",
                          "logcosh_factors_per_step", "logcosh_loop_factors_per_step"),
                         np.inf)
    for _ in range(reps):
        opt = pf.assemble_optimizer(ocp)
        cls, couple_s = _timed(lambda: pf.couple(opt, plant, ocp, pf.CouplingSpec("inv_alpha")))
        loop = _factor_and_step(cls.sys, cls.initial_state(plant.dim * [1.0]),
                                np.zeros(cls.dim), steps)
        cubic_cls = pf.couple(opt, cubic, ocp, pf.CouplingSpec("inv_alpha"))
        cubic_run = (cubic_cls.sys, cubic_cls.initial_state(cubic.dim * [1.0]),
                     np.zeros(cubic_cls.dim), steps)
        cubic_loop = _factor_and_step(*cubic_run)
        alone = _factor_and_step(opt, pf.default_initial_state(ocp),
                                 opt.B @ pf.constant_input(ocp), steps)
        lc_opt = pf.assemble_optimizer(logcosh)
        lc_run = (lc_opt, pf.default_initial_state(logcosh),
                  lc_opt.B @ pf.constant_input(logcosh), steps)
        _, lc_step_s = _factor_and_step(*lc_run)
        lc_cls = pf.couple(lc_opt, cubic, logcosh, pf.CouplingSpec("inv_alpha"))
        lc_loop_run = (lc_cls.sys, lc_cls.initial_state(cubic.dim * [1.0]),
                       np.zeros(lc_cls.dim), steps)
        _, lc_loop_step_s = _factor_and_step(*lc_loop_run)
        _, assemble_s = _timed(lambda: _assemble_loop(ocp.model, ocp.grid, ocp.cost,
                                                      cubic_spec))
        for key, value in zip(best, (couple_s, loop[0], 1e3 * loop[1], cubic_loop[0],
                                     1e3 * cubic_loop[1], alone[0], 1e3 * alone[1],
                                     1e3 * lc_step_s, 1e3 * lc_loop_step_s,
                                     1e3 * assemble_s, _factors_per_step(*cubic_run),
                                     _factors_per_step(*lc_run),
                                     _factors_per_step(*lc_loop_run))):
            best[key] = min(best[key], value)
    return {"N": N, "n": n, "m": m, "dim": ocp.state_dim + plant.dim, "reps": reps,
            "steps": steps, **best}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--N", type=int, nargs="+", default=[256, 1024])
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args(argv)
    for N in args.N:
        print(json.dumps(measure(N, args.n, args.m, args.reps, args.steps)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
