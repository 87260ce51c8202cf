"""Discretization of the linear-dynamics optimal control problem.

The continuous problem minimizes

    J(x, u) = integral of l(x) + (alpha/2)||u||^2  over [0, t_f]

subject to  dx/dtau = A x + B u + f,  x(0) = x0.  States and controls
are collocated at the N+1 nodes of a uniform grid; the dynamics are
enforced by the trapezoidal stencil

    (x_i - x_{i-1})/h - A (x_i + x_{i-1})/2 - B (u_i + u_{i-1})/2 = fbar_i

for each interval i = 1..N (fbar averages the endpoint samples of f),
plus the initial-condition row x_0 = x0.  Stacking those rows gives the
sparse constraint matrix C_h; its metric adjoint C_h* (trapezoidal
weights on the primal side, interval weights h on the multiplier side,
Euclidean on the initial-condition multiplier) is a second-order
consistent discretization of the continuous adjoint differential
operator, including the terminal boundary behaviour of the multiplier.

The multiplier vector therefore carries one block per interval plus one
block for the initial condition.  Interval multipliers approximate the
continuous adjoint at interval midpoints; `node_adjoint` re-registers
them at the grid nodes in the unique way that makes the discrete
stationarity relation  alpha*u + B^T lambda = 0  exact at every node.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import DimensionMismatch, InvalidParameter, SingularStep
from .metric import Metric, adjoint
from .phcore import _Factor, _compressed, _entries, steady_state


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, t_f] with N intervals and trapezoidal weights."""

    t_f: float
    N: int
    h: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])


def build_grid(t_f: float, N: int) -> Grid:
    if not (np.isfinite(t_f) and t_f > 0):
        raise InvalidParameter("horizon t_f must be positive and finite")
    if not isinstance(N, numbers.Integral):
        raise InvalidParameter(f"grid size N must be an integer, got {N!r}")
    if N < 2:
        raise InvalidParameter("grid needs at least N=2 intervals")
    if N >= np.iinfo(np.intp).max:
        raise InvalidParameter("grid size N exceeds the largest array index")
    h = t_f / N
    nodes = np.linspace(0.0, t_f, N + 1)
    weights = np.full(N + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    return Grid(float(t_f), int(N), h, nodes, weights)


# ---------------------------------------------------------------------------
# model and cost


@dataclass(frozen=True)
class LinearPlantModel:
    """dx/dtau = A x + B u + f with initial state x0; f sampled per node."""

    A: np.ndarray
    B: np.ndarray
    f: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.ndim != 2:
            raise DimensionMismatch(f"B must be a matrix, got shape {B.shape}")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch("A must be square")
        if B.shape[0] != n:
            raise DimensionMismatch("B row count must match A")
        if x0.size != n:
            raise DimensionMismatch("x0 dimension must match A")
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def f_nodes(self, grid: Grid) -> np.ndarray:
        """Inhomogeneity samples at the grid nodes, shape (N+1, n)."""
        f = self.f
        if f.ndim == 0:
            return np.full((grid.N + 1, self.n), float(f))
        if f.ndim == 1:
            if f.size != self.n:
                raise DimensionMismatch("constant f must have the state dimension")
            return np.tile(f, (grid.N + 1, 1))
        if f.shape != (grid.N + 1, self.n):
            raise DimensionMismatch(
                f"f must be constant or shaped ({grid.N + 1}, {self.n}), got {f.shape}"
            )
        return f.astype(float)


class QuadraticStage:
    """Stage cost l(x) = 1/2 x^T Q x + q^T x with Q symmetric PSD."""

    def __init__(self, Q, q=None):
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise InvalidParameter("Q must be square")
        if np.max(np.abs(Q - Q.T), initial=0.0) > 1e-12 * (1.0 + np.max(np.abs(Q))):
            raise InvalidParameter("Q must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) < -1e-12 * (1.0 + np.max(np.abs(Q))):
            raise InvalidParameter("Q must be positive semidefinite (convex stage)")
        self.Q = 0.5 * (Q + Q.T)
        self.q = np.zeros(Q.shape[0]) if q is None else np.asarray(q, dtype=float).reshape(-1)
        if self.q.size != Q.shape[0]:
            raise DimensionMismatch("q dimension must match Q")

    def value(self, X: np.ndarray) -> np.ndarray:
        return 0.5 * np.einsum("ij,jk,ik->i", X, self.Q, X) + X @ self.q

    def grad(self, X: np.ndarray) -> np.ndarray:
        return X @ self.Q + self.q

    @property
    def is_quadratic(self) -> bool:
        return True

    def curvature_bound(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.Q))))


class LogCoshStage:
    """Stage cost l(x) = sum_j s^2 log cosh(x_j / s); smooth, convex,
    globally Lipschitz gradient s*tanh(x/s)."""

    def __init__(self, scale: float = 1.0):
        if not (np.isfinite(scale) and scale > 0):
            raise InvalidParameter("logcosh scale must be positive and finite")
        self.scale = float(scale)

    def value(self, X: np.ndarray) -> np.ndarray:
        z = np.abs(X / self.scale)
        # log cosh(z) = |z| + log1p(exp(-2|z|)) - log 2, overflow-safe
        return self.scale**2 * np.sum(z + np.log1p(np.exp(-2.0 * z)) - np.log(2.0), axis=-1)

    def grad(self, X: np.ndarray) -> np.ndarray:
        return self.scale * np.tanh(X / self.scale)

    def curvature(self, X: np.ndarray) -> np.ndarray:
        """The derivative of `grad`, entry by entry: the Hessian's diagonal."""
        return 1.0 - np.tanh(X / self.scale) ** 2

    @property
    def is_quadratic(self) -> bool:
        return False

    def curvature_bound(self) -> float:
        return 1.0


@dataclass(frozen=True)
class CostSpec:
    """Control weight alpha plus a convex stage cost on the state."""

    alpha: float
    stage: object

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise InvalidParameter("control weight alpha must be positive and finite")


# ---------------------------------------------------------------------------
# assembled problem


@dataclass(frozen=True)
class DiscretizedOCP:
    """Grid, model, cost, sparse constraint C_h and the quadrature metrics.

    Vector layout (all flat, node-major), owned by `blocks`; no other
    code computes an offset into it:
      primal  z_p = [x_0..x_N | u_0..u_N]               (N+1)(n+m)
      dual    d   = [lam_1..lam_N | lam0]               (N+1) n
      state   z   = [z_p | d]
    This stored layout is what every output sees.  The solvers factor in
    `stage_order`, a permutation of it built from `blocks`, in which the
    optimizer's matrices are banded.
    """

    grid: Grid
    model: LinearPlantModel
    cost: CostSpec
    C: sparse.csr_matrix
    rhs: np.ndarray
    primal_metric: Metric
    dual_metric: Metric
    C_star: sparse.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "C_star",
                           adjoint(self.C, self.primal_metric, self.dual_metric))

    # -- layout ------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.model.n

    @property
    def m(self) -> int:
        return self.model.m

    @property
    def N(self) -> int:
        return self.grid.N

    @property
    def primal_dim(self) -> int:
        return (self.N + 1) * (self.n + self.m)

    @property
    def dual_dim(self) -> int:
        return (self.N + 1) * self.n

    @property
    def state_dim(self) -> int:
        return self.primal_dim + self.dual_dim

    @property
    def state_metric(self) -> Metric:
        return self.primal_metric.concat(self.dual_metric)

    def blocks(self, z: np.ndarray) -> "OptimizerState":
        """Views of a state vector z, or of each row of a stack of them.

        The views share memory with z, so writing into the views of a
        zero vector builds a state block by block.
        """
        return _state_blocks(z, self.N, self.n, self.m)

    @cached_property
    def stage_order(self) -> np.ndarray:
        """Permutation of the state into time-stage order

            [lam0 | x_0 u_0 lam_1 | x_1 u_1 lam_2 | ... | x_N u_N]:

        z[stage_order] lists z stage by stage.  The optimizer's operator
        couples only neighbouring stages, so its Jacobian and every step
        matrix built from it have kl = ku <= 2n + m - 1 in this order,
        whatever N is.
        """
        b, N = self.blocks(np.arange(self.state_dim)), self.N
        stages = np.concatenate([b.x[:N], b.u[:N], b.lam], axis=1)
        return np.concatenate([b.lam0, stages.ravel(), b.x[N], b.u[N]])

    # -- cost --------------------------------------------------------------
    def grad_cost(self, z: np.ndarray) -> np.ndarray:
        """Metric gradient of the discrete cost at the primal part of the
        state z: nodewise (grad l, alpha*u), a primal vector."""
        s, g = self.blocks(z), self.blocks(np.zeros(self.state_dim))
        g.x[:] = self.cost.stage.grad(s.x)
        g.u[:] = self.cost.alpha * s.u
        return g.primal

    @cached_property
    def saddle(self) -> sparse.csr_matrix:
        """The constant part [[0, -C*], [C, 0]] of the optimality operator
        that `optimizer.assemble_optimizer` builds: the entries of -C* and
        C placed by their index arrays, every stored entry kept."""
        p = self.primal_dim
        (r1, c1, v1), (r2, c2, v2) = _entries(self.C_star), _entries(self.C)
        return _compressed(np.concatenate([r1, p + r2]), np.concatenate([p + c1, c2]),
                           np.concatenate([-v1, v2]), (self.state_dim, self.state_dim))

    def node_adjoint(self, lam: np.ndarray) -> np.ndarray:
        """Re-register interval multipliers at the N+1 grid nodes.

        Node j gets the average of the two adjacent interval values
        (a single value at the boundary nodes); this is the unique node
        registration for which alpha*u + B^T lambda = 0 holds exactly at
        every node of a stationarity solution.
        """
        lam = np.asarray(lam, dtype=float).reshape(self.N, self.n)
        out = np.empty((self.N + 1, self.n))
        out[0] = lam[0]
        out[-1] = lam[-1]
        out[1:-1] = 0.5 * (lam[:-1] + lam[1:])
        return out


@dataclass(frozen=True)
class OptimizerState:
    """A stacked state vector z = [x | u | lam | lam0] (or a stack of
    them, one per row) with its block views; made by
    `DiscretizedOCP.blocks`."""

    vector: np.ndarray
    x: np.ndarray       # (..., N+1, n) states at the nodes
    u: np.ndarray       # (..., N+1, m) controls at the nodes
    lam: np.ndarray     # (..., N, n) interval multipliers
    lam0: np.ndarray    # (..., n) initial-condition multiplier
    primal: np.ndarray  # (..., (N+1)(n+m)) flat [x | u]
    dual: np.ndarray    # (..., (N+1) n) flat [lam | lam0]


def _state_blocks(z, N: int, n: int, m: int) -> OptimizerState:
    """The layout of `DiscretizedOCP.blocks`; the one function that
    computes the offsets of x, u, lam and lam0."""
    z = np.asarray(z)
    p = (N + 1) * (n + m)
    if z.shape[-1] != p + (N + 1) * n:
        raise DimensionMismatch("state vector length mismatch")
    lead, nx = z.shape[:-1], (N + 1) * n
    return OptimizerState(
        z,
        z[..., :nx].reshape(lead + (N + 1, n)),
        z[..., nx:p].reshape(lead + (N + 1, m)),
        z[..., p:-n].reshape(lead + (N, n)),
        z[..., -n:],
        z[..., :p],
        z[..., p:],
    )


# ---------------------------------------------------------------------------
# assembly


def assemble_constraint(model: LinearPlantModel, grid: Grid):
    """Sparse constraint matrix C_h and right-hand side (fbar, x0).

    C_h is the Kronecker stencil blocks kron(S_l, dxl) + kron(S_r, dxr)
    on (lam, x), kron(S_l + S_r, du) on (lam, u) and kron(e_0, I) on
    (lam0, x); S_l and S_r select each interval's left and right node,
    e_0 selects node 0.  Each interval's n rows carry the row blocks
    [dxl dxr du du] at the columns of its two nodes' x and u, which the
    index views of `_state_blocks` give, and lam0 carries I at x_0: one
    construction from those index arrays.  Zero stencil coefficients are
    not stored.
    """
    n, m, N, h = model.n, model.m, grid.N, grid.h
    A, B = model.A, model.B
    eye = np.eye(n)
    dxl = -eye / h - 0.5 * A   # left-endpoint x coefficient
    dxr = eye / h - 0.5 * A    # right-endpoint x coefficient
    du = -0.5 * B

    # C maps the primal part of a state to its dual part; these index the
    # rows and columns of each block
    dim = (N + 1) * (2 * n + m)
    col = _state_blocks(np.arange(dim), N, n, m)
    row = _state_blocks(np.arange(dim) - col.primal.size, N, n, m)
    # interval i, row a: the columns of x_i, x_i+1, u_i, u_i+1 and the
    # coefficients dxl[a], dxr[a], du[a], du[a]
    at = np.concatenate([col.x[:-1], col.x[1:], col.u[:-1], col.u[1:]], axis=1)
    coef = np.concatenate([dxl, dxr, du, du], axis=1)
    shape = (N, n, at.shape[1])
    rows = np.concatenate([np.broadcast_to(row.lam[:, :, None], shape).ravel(), row.lam0])
    cols = np.concatenate([np.broadcast_to(at[:, None, :], shape).ravel(), col.x[0]])
    vals = np.concatenate([np.broadcast_to(coef, shape).ravel(), np.ones(n)])
    keep = vals != 0
    C = _compressed(rows[keep], cols[keep], vals[keep], (col.dual.size, col.primal.size))
    f = model.f_nodes(grid)
    rhs = _state_blocks(np.zeros(dim), N, n, m)
    rhs.lam[:] = 0.5 * (f[1:] + f[:-1])
    rhs.lam0[:] = model.x0
    return C, rhs.dual.copy()


def assemble_ocp(model: LinearPlantModel, grid: Grid, cost: CostSpec) -> DiscretizedOCP:
    C, rhs = assemble_constraint(model, grid)
    w = _state_blocks(np.empty(sum(C.shape)), grid.N, model.n, model.m)
    # trapezoidal weights on the primal side, interval weights h on the
    # interval multipliers, Euclidean on lam0
    w.x[:] = grid.weights[:, None]
    w.u[:] = grid.weights[:, None]
    w.lam[:] = grid.h
    w.lam0[:] = 1.0
    return DiscretizedOCP(grid, model, cost, C, rhs,
                          Metric(w.primal.copy()), Metric(w.dual.copy()))


def input_to_state(model: LinearPlantModel, u_nodes: np.ndarray, grid: Grid) -> np.ndarray:
    """March the trapezoidal stencil forward; exact discrete feasibility.

    The returned samples satisfy C_h (x, u) = rhs to machine precision
    by construction.  Each step is the linear midpoint step of dx/dtau =
    A x + b_i, x_i+1 = F^{-1} (2 x_i + h b_i) - x_i, F = I - (h/2) A factored
    once (`_Factor`); b_i varies, so it is not a constant-input stepper.
    """
    n, m, N, h = model.n, model.m, grid.N, grid.h
    u_nodes = np.asarray(u_nodes, dtype=float).reshape(N + 1, m)
    A, B = model.A, model.B
    lhs = np.eye(n) - 0.5 * h * A
    # exact singularity and near-singularity both invalidate the step
    if abs(np.linalg.det(lhs)) < 1e-14 * max(1.0, np.linalg.norm(lhs)) ** n:
        raise SingularStep("I - (h/2) A is singular; reduce the step h")
    solve = _Factor(lhs, 0.0).solver()
    f = model.f_nodes(grid)
    # h times the drive B ubar + fbar of every interval, B ubar row by row
    ubar = 0.5 * (u_nodes[1:] + u_nodes[:-1])
    drive = np.empty((N, n))
    for i in range(N):
        drive[i] = B @ ubar[i]
    drive += 0.5 * (f[1:] + f[:-1])
    drive *= h
    x = np.empty((N + 1, n))
    x[0] = model.x0
    for i in range(N):
        np.subtract(solve(x[i] * 2.0 + drive[i]), x[i], out=x[i + 1])
    if not np.all(np.isfinite(x)):
        raise SingularStep("forward marching produced non-finite states")
    return x


def default_initial_state(ocp: DiscretizedOCP) -> np.ndarray:
    """Free response in x, zero control and multipliers.

    Coincides with the KKT point whenever the stage cost vanishes.
    """
    z = np.zeros(ocp.state_dim)
    ocp.blocks(z).x[:] = input_to_state(ocp.model, np.zeros((ocp.N + 1, ocp.m)), ocp.grid)
    return z


def cost_and_gradient(cost: CostSpec, grid: Grid, x_nodes: np.ndarray,
                      u_nodes: np.ndarray):
    """Discrete cost and its metric gradient (nodewise, weights cancel)."""
    x = np.asarray(x_nodes, dtype=float)
    u = np.asarray(u_nodes, dtype=float)
    w = grid.weights
    stage = cost.stage.value(x) + 0.5 * cost.alpha * np.sum(u * u, axis=1)
    J = float(np.dot(w, stage))
    return J, cost.stage.grad(x), cost.alpha * u


def reduced_cost(ocp: DiscretizedOCP, u_nodes: np.ndarray) -> float:
    """Cost of (input_to_state(u), u)."""
    x = input_to_state(ocp.model, u_nodes, ocp.grid)
    J, _, _ = cost_and_gradient(ocp.cost, ocp.grid, x, np.asarray(u_nodes, dtype=float).reshape(ocp.N + 1, ocp.m))
    return J


def kkt_residual(ocp: DiscretizedOCP, z) -> tuple[np.ndarray, float]:
    """Residual (grad_cost(z) - C* (lam, lam0), C (x, u) - rhs) of the
    optimality system at z, and its metric norm; built from these parts,
    not from the flow's operator, so it checks what the flow solves."""
    vec = z.vector if isinstance(z, OptimizerState) else np.asarray(z, dtype=float)
    if vec.size != ocp.state_dim:
        raise DimensionMismatch("state vector length mismatch")
    s = ocp.blocks(vec.reshape(-1))
    r = np.concatenate([ocp.grad_cost(s.vector) - ocp.C_star @ s.dual,
                        ocp.C @ s.primal - ocp.rhs])
    return r, ocp.state_metric.norm(r)


# the KKT oracle's residual tolerance, in the state metric
_KKT_TOL = 1e-8


def kkt_solve(ocp: DiscretizedOCP, tol: float = _KKT_TOL) -> OptimizerState:
    """Solve the discrete optimality system, whose residual is
    `kkt_residual`: the KKT point is the steady state of the optimizer's
    flow, so this is `phcore.steady_state` of `assemble_optimizer(ocp)`
    under `constant_input(ocp)`, from z = 0, viewed through `blocks`."""
    from .optimizer import assemble_optimizer, constant_input  # optimizer imports ocp

    return ocp.blocks(steady_state(assemble_optimizer(ocp), constant_input(ocp), tol).x_bar)
