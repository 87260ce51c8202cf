"""The primal-dual gradient flow as a monotone pH system, plus integrators.

The optimality system of a discretized control problem defines the
operator

    M_opt(x, u, lam, lam0) = ( grad J(x, u) - C_h* (lam, lam0),
                               C_h (x, u) ).

Running the flow  dz/dt = -M_opt(z) + B_opt u_opt  with the constant
input u_opt = (fbar, x0) performs gradient descent in (x, u) and ascent
in the multipliers; its unique steady state is the KKT point.  The skew
off-diagonal pair (C_h*, -C_h) exchanges "power" between primal and
dual blocks without creating or destroying it, so the flow is a
monotone pH system with input port B_opt = [0; I] on the multiplier
block and collocated output (lam, lam0).

Outer integration time t is distinct from the inner horizon variable of
the control problem.  The implicit midpoint rule is the reference
scheme: it preserves the monotone contraction exactly, so shifted norms
are non-increasing step by step and the discrete power balance holds to
solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .analysis import _log_linear_fit
from .errors import (DimensionMismatch, InsufficientData, InvalidParameter,
                     NonConvergence)
# default_initial_state lives with the layout in ocp; it is re-exported here
from .ocp import DiscretizedOCP, OptimizerState, default_initial_state  # noqa: F401
from .operators import MonotoneOperatorSpec, Nodewise
from .phcore import (_ROW_BLOCK, PHSystem, Trajectory, _compressed, _entries, fold,
                     implicit_stepper, selection_port)

# each scheme is the implicit theta-step of `implicit_stepper`
_SCHEMES = {"implicit_midpoint": 0.5, "implicit_euler": 1.0}
_MAX_STEPS = 1_000_000
# samples a convergence report needs to fit its tail rate
_MIN_REPORT_SAMPLES = 10


@dataclass(frozen=True)
class IntegratorConfig:
    """Outer-time integration parameters.  newton_tol defaults to 1e-10 h_t:
    a step's power defect is about ||z_s|| newton_tol / h_t, which then
    stays within the 1e-10 scale of the power-balance audit."""

    h_t: float
    scheme: str = "implicit_midpoint"
    newton_tol: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.h_t) and self.h_t > 0):
            raise InvalidParameter("outer step h_t must be positive and finite")
        if self.newton_tol is None:
            object.__setattr__(self, "newton_tol", 1e-10 * self.h_t)
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise InvalidParameter("newton_tol must be positive and finite")
        if not (isinstance(self.scheme, str) and self.scheme in _SCHEMES):
            raise InvalidParameter(
                f"unknown scheme {self.scheme!r}; pick one of {tuple(_SCHEMES)}")


def assemble_optimizer(ocp: DiscretizedOCP) -> PHSystem:
    """Build the gradient-flow pH system for a discretized problem; its
    drift is the one implementation of the optimality operator M_opt.

    For a quadratic stage M_opt is linear, the saddle part plus the cost
    Hessian diag(Q, ..., Q, alpha I) with the gradient at 0 as offset, so
    the integrators prefactor one LU for the whole run.  Otherwise it is
    the saddle part plus the stage gradient on x and alpha u on u as
    nodewise pieces, so the implicit step's Newton matrix is the saddle
    part's band plus a diagonal.  Both factor banded in `stage_order`.
    The quadratic L is placed by index arrays in one construction, with
    no stored zero: the saddle's entries, one n x n block of Q at each
    node's x and alpha at every u.
    """
    stage, alpha = ocp.cost.stage, ocp.cost.alpha
    if stage.is_quadratic:
        b, shape = ocp.blocks(np.arange(ocp.state_dim)), (ocp.N + 1, ocp.n, ocp.n)
        u = b.u.ravel()
        r, c, v = _entries(ocp.saddle)
        rows, cols, vals = (np.concatenate(e) for e in (
            (r, np.broadcast_to(b.x[:, :, None], shape).ravel(), u),
            (c, np.broadcast_to(b.x[:, None, :], shape).ravel(), u),
            (v, np.broadcast_to(stage.Q, shape).ravel(), np.full(u.size, alpha))))
        keep = vals != 0
        L = _compressed(rows[keep], cols[keep], vals[keep], (ocp.state_dim, ocp.state_dim))
        g0 = np.zeros(ocp.state_dim)
        g0[:ocp.primal_dim] = ocp.grad_cost(g0)  # the linear cost term
        M = MonotoneOperatorSpec(ocp.state_dim, linear_part=L,
                                 affine_offset=g0 if np.any(g0) else None,
                                 order=ocp.stage_order)
    else:
        b = ocp.blocks(np.arange(ocp.state_dim))
        x, u = b.x.ravel(), b.u.ravel()
        phi = (Nodewise(int(x[0]), int(x[-1]) + 1, stage.grad, stage.curvature),
               Nodewise(int(u[0]), int(u[-1]) + 1, lambda v: alpha * v,
                        lambda v: np.full(v.shape, alpha)))
        M = MonotoneOperatorSpec(ocp.state_dim, linear_part=ocp.saddle,
                                 nodewise=phi, order=ocp.stage_order)

    # the port drives the multiplier block: B_opt = [0; I], a sparse selection
    B_opt = selection_port(ocp.state_dim, np.arange(ocp.primal_dim, ocp.state_dim))
    return PHSystem(M, B_opt, ocp.state_metric, ocp.dual_metric)


def constant_input(ocp: DiscretizedOCP) -> np.ndarray:
    """The standing port input (fbar, x0) that reproduces the KKT rhs."""
    return ocp.rhs.copy()


def default_outer_step(ocp: DiscretizedOCP) -> float:
    """Accuracy-motivated outer step; stability is not binding (A-stable)."""
    a_norm = float(np.linalg.norm(ocp.model.A, 2))
    curve = ocp.cost.stage.curvature_bound()
    return 0.01 / (1.0 + a_norm + curve + ocp.cost.alpha)


def _step_count(h_t: float, T: float) -> int:
    """The number of steps of h_t that `integrate_flow` takes on [0, T]."""
    ratio = T / h_t  # inf when h_t is negligible against T
    if not (np.isfinite(ratio) and round(ratio) <= _MAX_STEPS):
        raise InvalidParameter(
            f"{ratio:.6g} steps exceed max_steps={_MAX_STEPS}; increase h_t"
        )
    return max(1, int(round(ratio)))


@dataclass(frozen=True)
class FlowStream:
    """The flow of `integrate_flow`, stepped block by block.

    times, inputs, theta and step are those of the `Trajectory` that
    integrate_flow collects, and z0 is its first state.  Each call of
    `blocks()` runs the flow from z0 and yields what `Trajectory.blocks`
    yields for that trajectory; the states of every block sit in one
    buffer of _ROW_BLOCK + 1 rows, whose next row advance, the
    `implicit_stepper` of the run's constant input, writes at each step,
    so a block is valid until the next.  A step whose residual misses tol
    raises NonConvergence with its index; so does the first non-finite
    state, found by one check of each block before any fold sees it (a
    linear step measures no defect).
    """

    times: np.ndarray
    inputs: np.ndarray
    theta: float
    step: float
    z0: np.ndarray
    advance: Callable = field(repr=False)  # (z, out) -> step residual, z_next in out
    tol: float = field(repr=False)

    def _failed(self, k: int, residual: float):
        return NonConvergence(f"implicit step failed at t={k * self.step:.4g}",
                              residual=residual, step=k + 1)

    def blocks(self):
        n = self.times.size - 1
        buf = np.empty((min(n, _ROW_BLOCK) + 1, self.z0.size))
        buf[0] = self.z0
        for lo in range(0, n, _ROW_BLOCK):
            x = buf[:min(_ROW_BLOCK, n - lo) + 1]
            for i in range(x.shape[0] - 1):
                res = self.advance(x[i], x[i + 1])
                if not res <= self.tol:
                    raise self._failed(lo + i, res)
            if not np.isfinite(x[1:]).all():
                finite = np.isfinite(x[1:]).all(axis=1)
                raise self._failed(lo + int(np.argmin(finite)), np.inf)
            yield lo, x, self.inputs[lo:lo + x.shape[0]]
            buf[0] = x[-1]  # the next block starts where this one ends


def stream_flow(sys: PHSystem, z0: np.ndarray, u_const: np.ndarray,
                cfg: IntegratorConfig, T: float) -> FlowStream:
    """dz/dt = -M(z) + B u with a constant input on [0, T], as a stream.

    Each step is the implicit theta-step of the scheme (theta = 1/2 for
    midpoint, 1 for Euler), whose stepper, built here once for the drive
    B u_const, is the stream's advance; the steps run as the blocks are
    taken, and a step whose residual misses the Newton tolerance, or
    whose state is not finite, raises NonConvergence with its index."""
    if T <= 0:
        raise InvalidParameter("integration horizon T must be positive")
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.size != sys.dim:
        raise DimensionMismatch("initial state dimension mismatch")
    u_const = np.array(u_const, dtype=float).reshape(sys.input_dim)
    steps = _step_count(cfg.h_t, T)
    h, theta = cfg.h_t, _SCHEMES[cfg.scheme]
    step = implicit_stepper(sys.M, h, theta, sys.metric, cfg.newton_tol, sys.B @ u_const)
    # the input is constant: one read-only row repeated, never copied
    inputs = np.broadcast_to(u_const, (steps + 1, u_const.size))
    return FlowStream(h * np.arange(steps + 1, dtype=float), inputs, theta, h, z0,
                      step, cfg.newton_tol)


def integrate_flow(sys: PHSystem, z0: np.ndarray, u_const: np.ndarray,
                   cfg: IntegratorConfig, T: float) -> Trajectory:
    """Integrate dz/dt = -M(z) + B u with a constant input on [0, T]: the
    blocks of `stream_flow` collected into one `(samples x dim)` array."""
    flow = stream_flow(sys, z0, u_const, cfg, T)
    states = np.empty((flow.times.size, sys.dim))
    for lo, x, _ in flow.blocks():
        states[lo:lo + x.shape[0]] = x
    return Trajectory(flow.times, states, flow.inputs, flow.theta)


@dataclass(frozen=True)
class ConvergenceReport:
    """Error decay of a flow trajectory against the KKT oracle."""

    times: np.ndarray
    errors: np.ndarray
    errors_primal: np.ndarray
    errors_dual: np.ndarray
    rate: Optional[float]
    amplitude: float
    indeterminate: bool

    def summary(self) -> str:
        lines = []
        if self.indeterminate:
            lines.append(f"rate: indeterminate (amplitude {self.amplitude:.3e})")
        else:
            lines.append(f"rate: {self.rate:.6g}")
            lines.append(f"amplitude: {self.amplitude:.6g}")
        lines.append(f"final_error: {self.errors[-1]:.6e}")
        return "\n".join(lines)


_AMPLITUDE_FLOOR = 1e-9


class ErrorSeries:
    """The fold of `convergence_report` over a run (see `phcore.fold`):
    the metric distance of every sample to the oracle z_hat, in total and
    on the primal and dual blocks, then the tail rate fit."""

    def __init__(self, run, z_hat, ocp: DiscretizedOCP):
        if run.times.size < _MIN_REPORT_SAMPLES:
            raise InsufficientData(
                f"need at least {_MIN_REPORT_SAMPLES} samples past the transient")
        self.times, self.ocp = run.times, ocp
        self.vec = (z_hat.vector if isinstance(z_hat, OptimizerState)
                    else np.asarray(z_hat, dtype=float))
        self.errors = np.empty((3, run.times.size))

    def add(self, lo: int, x: np.ndarray, u: np.ndarray):
        ocp = self.ocp
        diff = x - self.vec
        d = ocp.blocks(diff)
        total, primal, dual = self.errors[:, lo:lo + x.shape[0]]
        total[:] = np.sqrt(ocp.state_metric.row_inner(diff, diff))
        primal[:] = np.sqrt(ocp.primal_metric.row_inner(d.primal, d.primal))
        dual[:] = np.sqrt(ocp.dual_metric.row_inner(d.dual, d.dual))

    def report(self) -> ConvergenceReport:
        """The series and the rate fitted on its last half, which skips
        transients; the rate is indeterminate when the tail amplitude
        sits below 1e-9 (fitting there would only model roundoff)."""
        half = self.times.size // 2
        tail_t, tail_e = self.times[half:], self.errors[0, half:]
        indeterminate = bool(np.max(tail_e, initial=0.0) < _AMPLITUDE_FLOOR)
        if indeterminate:
            rate, amplitude = None, float(np.max(tail_e, initial=0.0))
        else:
            rate, amplitude = _log_linear_fit(tail_t, tail_e)
        return ConvergenceReport(self.times, *self.errors, rate, amplitude, indeterminate)


def convergence_report(traj: Trajectory, z_hat, ocp: DiscretizedOCP) -> ConvergenceReport:
    """Error series against the oracle and the tail rate fit: the
    `ErrorSeries` fold over the trajectory's blocks."""
    return fold(traj, ErrorSeries(traj, z_hat, ocp))[0]
