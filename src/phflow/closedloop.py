"""Optimizer-in-the-loop control by power-preserving interconnection.

A monotone plant  dx_p/dt = -M_p(x_p) + B_p u_p,  y_p = B_p^T x_p  is
closed against the gradient-flow optimizer through the skew coupling

    u_opt,f  = 0                      (inhomogeneity port closed)
    u_opt,x0 = +gamma * B  y_p        (plant output sets the initial
                                       condition seen by the optimizer)
    u_p      = -gamma * B^T lam0      (initial-condition multiplier fed
                                       back as the control)

with gain gamma > 0 (default 1/alpha).  The coupling exchanges power
between the two systems without loss, so the closed loop is again a
monotone pH system; when the plant is coercive and the stage cost grows
quadratically around the origin, every trajectory converges to zero.

The applied feedback is read from the initial-condition multiplier
block of the optimizer state.  At an optimizer equilibrium the
node-zero registration of the interval multipliers satisfies the exact
discrete stationarity  alpha*u(0) + B^T lambda(0) = 0,  so
-(1/alpha) B^T lambda(0) reproduces the optimal control at the first
grid node; the multiplier block itself matches it to O(h).
`ClosedLoopSystem.mpc_signal` gives that comparison signal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AccretivityViolation, DimensionMismatch, InvalidParameter
from .metric import Metric
from .ocp import DiscretizedOCP, default_initial_state
from .operators import MonotoneOperatorSpec, cubic as cubic_operator, linear as linear_operator
from .optimizer import IntegratorConfig, integrate_flow
from .phcore import PHSystem, Trajectory, accretivity_probe, interconnect


@dataclass(frozen=True)
class PlantSpec:
    """Plant drift operator, input matrix and initial state."""

    M: MonotoneOperatorSpec
    B_p: np.ndarray
    x_p0: np.ndarray

    def __post_init__(self):
        B_p = np.asarray(self.B_p, dtype=float)
        if B_p.ndim == 1:
            B_p = B_p.reshape(-1, 1)
        x_p0 = np.asarray(self.x_p0, dtype=float).reshape(-1)
        if B_p.shape[0] != self.M.dim or x_p0.size != self.M.dim:
            raise DimensionMismatch(f"B_p has {B_p.shape[0]} rows and x_p0 {x_p0.size} "
                                    f"entries, the plant dimension is {self.M.dim}")
        object.__setattr__(self, "B_p", B_p)
        object.__setattr__(self, "x_p0", x_p0)

    @property
    def n_p(self) -> int:
        return self.M.dim


def linear_plant(R, B_p, x_p0, J=None) -> PlantSpec:
    """M_p(x) = (R + J) x with R symmetric positive (semi)definite damping
    and J skew (lossless circulation)."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    mat = R.copy()
    if J is not None:
        J = np.atleast_2d(np.asarray(J, dtype=float))
        if J.shape != R.shape:
            raise DimensionMismatch(f"J has shape {J.shape}, R has {R.shape}")
        if np.max(np.abs(J + J.T)) > 1e-12 * (1.0 + np.max(np.abs(J))):
            raise InvalidParameter("J must be skew-symmetric")
        mat = mat + J
    return PlantSpec(linear_operator(mat), B_p, x_p0)


def cubic_plant(R, kappa, B_p, x_p0) -> PlantSpec:
    """M_p(x) = R x + kappa * x^3 elementwise, kappa >= 0."""
    if kappa < 0:
        raise InvalidParameter("cubic coefficient kappa must be nonnegative")
    return PlantSpec(cubic_operator(np.atleast_2d(np.asarray(R, dtype=float)), kappa), B_p, x_p0)


def assemble_plant(spec: PlantSpec, rng=0) -> PHSystem:
    """Euclidean-metric pH system for the plant; probes accretivity on 64
    sampled pairs first."""
    metric = Metric.euclidean(spec.n_p)
    report = accretivity_probe(spec.M, metric, rng=rng, n_pairs=64)
    if report.violation:
        raise AccretivityViolation(
            f"plant operator failed the accretivity probe: {report}"
        )
    return PHSystem(spec.M, spec.B_p, metric, Metric.euclidean(spec.B_p.shape[1]))


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling gain; the string 'inv_alpha' defers to 1/alpha."""

    gamma: object = "inv_alpha"

    def resolve(self, alpha: float) -> float:
        g = (1.0 / alpha) if isinstance(self.gamma, str) and self.gamma == "inv_alpha" \
            else float(self.gamma)
        if g <= 0:
            raise InvalidParameter("coupling gain gamma must be positive")
        return g


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Composed pH system on (x_p, x, u, lam, lam0) plus bookkeeping."""

    sys: PHSystem
    plant_sys: PHSystem
    opt_sys: PHSystem
    ocp: DiscretizedOCP
    gamma: float

    @property
    def n_p(self) -> int:
        return self.plant_sys.dim

    @property
    def dim(self) -> int:
        return self.sys.dim

    def split(self, z_cl: np.ndarray):
        return z_cl[..., :self.n_p], z_cl[..., self.n_p:]

    def feedback(self, z_cl: np.ndarray) -> np.ndarray:
        """Control applied to the plant: -gamma * B^T lam0."""
        lam0 = self.ocp.blocks(self.split(z_cl)[1]).lam0
        return -(self.gamma) * (lam0 @ self.ocp.model.B)

    def mpc_signal(self, z_cl: np.ndarray) -> np.ndarray:
        """-(1/alpha) B^T lambda at the first grid node (node-registered)."""
        lam_1 = self.ocp.blocks(self.split(z_cl)[1]).lam[..., 0, :]
        return -(1.0 / self.ocp.cost.alpha) * (lam_1 @ self.ocp.model.B)

    def initial_state(self, x_p0: Optional[np.ndarray] = None,
                      z0: Optional[np.ndarray] = None) -> np.ndarray:
        z_cl = np.zeros(self.dim)
        xp, z = self.split(z_cl)
        if x_p0 is not None:
            xp[:] = np.asarray(x_p0, dtype=float).reshape(self.n_p)
        z[:] = default_initial_state(self.ocp) if z0 is None else z0
        return z_cl


def couple(opt_sys: PHSystem, plant_sys: PHSystem, ocp: DiscretizedOCP,
           cspec: CouplingSpec = CouplingSpec()) -> ClosedLoopSystem:
    """Close the loop between optimizer and plant through the skew coupling.

    The plant goes first in the composed state so the layout reads
    (x_p, x, u, lam, lam0).  In this orientation the interconnection map
    from the multiplier port output lam0 to the plant port is
    F = gamma * B^T; its metric adjoint gamma * B carries the plant
    output into the optimizer's initial-condition port, reproducing the
    intended pair u_p = -gamma B^T lam0, u_opt_x0 = +gamma B y_p.
    """
    gamma = cspec.resolve(ocp.cost.alpha)
    n, m = ocp.n, ocp.m
    if plant_sys.input_dim != m:
        raise DimensionMismatch("plant port dimension must match the control dimension")
    if plant_sys.B.shape != ocp.model.B.shape or not np.allclose(plant_sys.B, ocp.model.B):
        warnings.warn("plant input matrix differs from the model B; "
                      "the loop is power-preserving but model-mismatched")

    # reorder optimizer ports (the dual block) so the initial-condition
    # port comes first
    ports = ocp.blocks(np.arange(ocp.state_dim) - ocp.primal_dim)
    perm = np.concatenate([ports.lam0, ports.lam.ravel()])
    opt_reordered = PHSystem(
        opt_sys.M,
        opt_sys.B[:, perm],
        opt_sys.metric,
        Metric(opt_sys.input_metric.weights[perm]),
    )
    F = gamma * ocp.model.B.T  # maps lam0-port output to the plant port
    composed = interconnect(plant_sys, opt_reordered, F,
                            split1=plant_sys.input_dim, split2=n)
    return ClosedLoopSystem(composed, plant_sys, opt_sys, ocp, gamma)


@dataclass(frozen=True)
class FeedbackSeries:
    """Applied feedback over time."""

    times: np.ndarray
    u_p: np.ndarray


def feedback_extract(cls: ClosedLoopSystem, traj: Trajectory) -> FeedbackSeries:
    return FeedbackSeries(traj.times, cls.feedback(traj.states))


@dataclass(frozen=True)
class ClosedLoopRun:
    """Simulation output: trajectory, feedback, and norm split."""

    traj: Trajectory
    feedback: FeedbackSeries
    norm_total: np.ndarray
    norm_plant: np.ndarray
    norm_optimizer: np.ndarray


def simulate_closed_loop(cls: ClosedLoopSystem, cfg: IntegratorConfig, T: float,
                         x_p0: Optional[np.ndarray] = None,
                         z0: Optional[np.ndarray] = None) -> ClosedLoopRun:
    """Run the closed loop from (x_p0, z0) and extract the feedback."""
    z_cl0 = cls.initial_state(x_p0, z0)
    u_open = np.zeros(cls.sys.input_dim)  # inhomogeneity port closed at zero
    traj = integrate_flow(cls.sys, z_cl0, u_open, cfg, T)
    xp, z = cls.split(traj.states)
    total = np.sqrt(cls.sys.metric.row_inner(traj.states, traj.states))
    plant = np.sqrt(cls.plant_sys.metric.row_inner(xp, xp))
    opt = np.sqrt(cls.opt_sys.metric.row_inner(z, z))
    return ClosedLoopRun(traj, feedback_extract(cls, traj), total, plant, opt)
