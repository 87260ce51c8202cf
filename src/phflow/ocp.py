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

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import (DimensionMismatch, InvalidParameter, NonConvergence,
                     SingularStep)
from .metric import Metric
from .phcore import _prefactored_linear_stepper, newton

_NEWTON_MAX_ITER = 50


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
    if t_f <= 0:
        raise InvalidParameter("horizon t_f must be positive")
    if N < 2:
        raise InvalidParameter("grid needs at least N=2 intervals")
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
        if Q.shape[0] != Q.shape[1]:
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

    def hess(self, X: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.Q, (X.shape[0],) + self.Q.shape)

    @property
    def is_quadratic(self) -> bool:
        return True

    def curvature_bound(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.Q))))


class LogCoshStage:
    """Stage cost l(x) = sum_j s^2 log cosh(x_j / s); smooth, convex,
    globally Lipschitz gradient s*tanh(x/s)."""

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise InvalidParameter("logcosh scale must be positive")
        self.scale = float(scale)

    def value(self, X: np.ndarray) -> np.ndarray:
        z = np.abs(X / self.scale)
        # log cosh(z) = |z| + log1p(exp(-2|z|)) - log 2, overflow-safe
        return self.scale**2 * np.sum(z + np.log1p(np.exp(-2.0 * z)) - np.log(2.0), axis=-1)

    def grad(self, X: np.ndarray) -> np.ndarray:
        return self.scale * np.tanh(X / self.scale)

    def hess(self, X: np.ndarray) -> np.ndarray:
        d = 1.0 - np.tanh(X / self.scale) ** 2
        out = np.zeros(X.shape + (X.shape[-1],))
        idx = np.arange(X.shape[-1])
        out[..., idx, idx] = d
        return out

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
        if self.alpha <= 0:
            raise InvalidParameter("control weight alpha must be positive")


# ---------------------------------------------------------------------------
# assembled problem


@dataclass(frozen=True)
class DiscretizedOCP:
    """Grid, model, cost, sparse constraint C_h and the quadrature metrics.

    Vector layout (all flat, node-major):
      primal  z_p = [x_0..x_N | u_0..u_N]               (N+1)(n+m)
      dual    d   = [mu_1..mu_N | lam0]                 (N+1) n
      state   z   = [z_p | d]
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
        wp = self.primal_metric.weights
        wd = self.dual_metric.weights
        cs = sparse.diags(1.0 / wp) @ self.C.T @ sparse.diags(wd)
        object.__setattr__(self, "C_star", cs.tocsr())

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

    def split_primal(self, zp: np.ndarray):
        nx = (self.N + 1) * self.n
        return (zp[:nx].reshape(self.N + 1, self.n),
                zp[nx:].reshape(self.N + 1, self.m))

    def join_primal(self, x_nodes: np.ndarray, u_nodes: np.ndarray) -> np.ndarray:
        return np.concatenate([np.ravel(x_nodes), np.ravel(u_nodes)])

    def split_state(self, z: np.ndarray):
        p = self.primal_dim
        return z[:p], z[p:]

    # -- cost and optimality operator ---------------------------------------
    def grad_cost(self, zp: np.ndarray) -> np.ndarray:
        """Metric gradient of the discrete cost: nodewise (grad l, alpha*u)."""
        x, u = self.split_primal(zp)
        return self.join_primal(self.cost.stage.grad(x), self.cost.alpha * u)

    def hessian_primal(self, zp: np.ndarray) -> sparse.csr_matrix:
        """Block-diagonal Hessian of the metric cost gradient."""
        x, _ = self.split_primal(zp)
        Hx = sparse.block_diag(self.cost.stage.hess(x), format="csr")
        Hu = self.cost.alpha * sparse.identity((self.N + 1) * self.m, format="csr")
        return sparse.block_diag([Hx, Hu], format="csr")

    def m_opt(self, z: np.ndarray) -> np.ndarray:
        """The optimality-system operator (gradient row, constraint row)."""
        zp, d = self.split_state(z)
        return np.concatenate([
            self.grad_cost(zp) - self.C_star @ d,
            self.C @ zp,
        ])

    def m_opt_matrix(self) -> sparse.csr_matrix:
        """Matrix of m_opt; only available for quadratic stage costs."""
        if not self.cost.stage.is_quadratic:
            raise InvalidParameter("optimality operator is nonlinear for this cost")
        H = self.hessian_primal(np.zeros(self.primal_dim))
        return sparse.bmat([[H, -self.C_star], [self.C, None]], format="csr")

    def m_opt_jacobian(self, z: np.ndarray) -> sparse.csr_matrix:
        zp, _ = self.split_state(z)
        return sparse.bmat(
            [[self.hessian_primal(zp), -self.C_star], [self.C, None]], format="csr"
        )

    def kkt_target(self) -> np.ndarray:
        """Right-hand side of the optimality system: (0, fbar, x0)."""
        return np.concatenate([np.zeros(self.primal_dim), self.rhs])

    def node_adjoint(self, lam: np.ndarray, lam0: np.ndarray = None) -> np.ndarray:
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
class AdjointVector:
    """Multiplier pair: one block per interval plus the initial-condition
    block lam0; interval blocks represent the adjoint at midpoints."""

    lam: np.ndarray
    lam0: np.ndarray

    def stack(self) -> np.ndarray:
        return np.concatenate([np.ravel(self.lam), np.ravel(self.lam0)])


@dataclass(frozen=True)
class OptimizerState:
    """Stacked (x, u, lam, lam0) vector with shape-aware views."""

    vector: np.ndarray
    n: int
    m: int
    N: int

    @classmethod
    def from_blocks(cls, x_nodes, u_nodes, lam, lam0) -> "OptimizerState":
        x_nodes = np.atleast_2d(np.asarray(x_nodes, dtype=float))
        u_nodes = np.atleast_2d(np.asarray(u_nodes, dtype=float))
        lam = np.atleast_2d(np.asarray(lam, dtype=float))
        lam0 = np.asarray(lam0, dtype=float).reshape(-1)
        N = x_nodes.shape[0] - 1
        vec = np.concatenate(
            [np.ravel(x_nodes), np.ravel(u_nodes), np.ravel(lam), lam0]
        )
        return cls(vec, x_nodes.shape[1], u_nodes.shape[1], N)

    @classmethod
    def from_vector(cls, vector, ocp: DiscretizedOCP) -> "OptimizerState":
        vector = np.asarray(vector, dtype=float)
        if vector.size != ocp.state_dim:
            raise DimensionMismatch("state vector length mismatch")
        return cls(vector, ocp.n, ocp.m, ocp.N)

    @property
    def x(self) -> np.ndarray:
        nx = (self.N + 1) * self.n
        return self.vector[:nx].reshape(self.N + 1, self.n)

    @property
    def u(self) -> np.ndarray:
        nx = (self.N + 1) * self.n
        nu = (self.N + 1) * self.m
        return self.vector[nx:nx + nu].reshape(self.N + 1, self.m)

    @property
    def lam(self) -> np.ndarray:
        start = (self.N + 1) * (self.n + self.m)
        return self.vector[start:start + self.N * self.n].reshape(self.N, self.n)

    @property
    def lam0(self) -> np.ndarray:
        return self.vector[-self.n:]


# ---------------------------------------------------------------------------
# assembly


def assemble_constraint(model: LinearPlantModel, grid: Grid):
    """Sparse constraint matrix C_h and right-hand side (fbar, x0)."""
    n, m, N, h = model.n, model.m, grid.N, grid.h
    A, B = model.A, model.B
    eye = np.eye(n)
    dxl = -eye / h - 0.5 * A   # left-endpoint x coefficient
    dxr = eye / h - 0.5 * A    # right-endpoint x coefficient
    du = -0.5 * B

    rows_x, cols_x, vals = [], [], []
    x_off = 0
    u_off = (N + 1) * n

    def put(block, r0, c0):
        r, c = np.nonzero(block)
        rows_x.extend(r + r0)
        cols_x.extend(c + c0)
        vals.extend(block[r, c])

    for i in range(1, N + 1):
        r0 = (i - 1) * n
        put(dxl, r0, x_off + (i - 1) * n)
        put(dxr, r0, x_off + i * n)
        if m:
            put(du, r0, u_off + (i - 1) * m)
            put(du, r0, u_off + i * m)
    put(eye, N * n, x_off)  # initial-condition extraction, final row block

    C = sparse.csr_matrix(
        (vals, (rows_x, cols_x)),
        shape=((N + 1) * n, (N + 1) * (n + m)),
    )
    f = model.f_nodes(grid)
    fbar = 0.5 * (f[1:] + f[:-1])
    rhs = np.concatenate([np.ravel(fbar), model.x0])
    return C, rhs


def assemble_ocp(model: LinearPlantModel, grid: Grid, cost: CostSpec) -> DiscretizedOCP:
    C, rhs = assemble_constraint(model, grid)
    n, m, N = model.n, model.m, grid.N
    w = grid.weights
    primal = Metric(np.concatenate([np.repeat(w, n), np.repeat(w, m)]))
    dual = Metric(np.concatenate([np.full(N * n, grid.h), np.ones(n)]))
    return DiscretizedOCP(grid, model, cost, C, rhs, primal, dual)


def adjoint_apply(ocp: DiscretizedOCP, adj: AdjointVector) -> np.ndarray:
    """Apply the metric adjoint C_h* to a multiplier pair.

    For midpoint samples of a smooth lambda with lambda(t_f) = 0 and
    lam0 = lambda(0), the x part approximates -dlambda/dtau - A^T lambda
    and the u part approximates -B^T lambda at the grid nodes, second
    order in the interior.
    """
    d = adj.stack()
    if d.size != ocp.dual_dim:
        raise DimensionMismatch("adjoint vector dimension mismatch")
    return ocp.C_star @ d


def input_to_state(model: LinearPlantModel, u_nodes: np.ndarray, grid: Grid) -> np.ndarray:
    """March the trapezoidal stencil forward; exact discrete feasibility.

    The returned samples satisfy C_h (x, u) = rhs to machine precision
    by construction.
    """
    n, m, N, h = model.n, model.m, grid.N, grid.h
    u_nodes = np.asarray(u_nodes, dtype=float).reshape(N + 1, m)
    A, B = model.A, model.B
    lhs = np.eye(n) - 0.5 * h * A
    # exact singularity and near-singularity both invalidate the step
    if abs(np.linalg.det(lhs)) < 1e-14 * max(1.0, np.linalg.norm(lhs)) ** n:
        raise SingularStep("I - (h/2) A is singular; reduce the step h")
    step = _prefactored_linear_stepper(-A, h, 0.5)  # trapezoid = implicit midpoint
    f = model.f_nodes(grid)
    x = np.empty((N + 1, n))
    x[0] = model.x0
    for i in range(1, N + 1):
        fbar = 0.5 * (f[i] + f[i - 1])
        ubar = 0.5 * (u_nodes[i] + u_nodes[i - 1]) if m else np.zeros(0)
        x[i] = step(x[i - 1], h * (B @ ubar + fbar))
    if not np.all(np.isfinite(x)):
        raise SingularStep("forward marching produced non-finite states")
    return x


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
    """Residual of the optimality system at z, and its metric norm."""
    vec = z.vector if isinstance(z, OptimizerState) else np.asarray(z, dtype=float)
    if vec.size != ocp.state_dim:
        raise DimensionMismatch("state vector length mismatch")
    r = ocp.m_opt(vec) - ocp.kkt_target()
    return r, ocp.state_metric.norm(r)


def _solve_saddle(ocp: DiscretizedOCP, H: sparse.spmatrix, rhs_primal: np.ndarray,
                  rhs_dual: np.ndarray) -> np.ndarray:
    """Solve [[H, -C*], [C, 0]] z = (rhs_primal, rhs_dual) via the
    row-weighted symmetric form."""
    Wp = sparse.diags(ocp.primal_metric.weights)
    Wd = sparse.diags(ocp.dual_metric.weights)
    S = sparse.bmat(
        [[Wp @ H, -(ocp.C.T @ Wd)], [-(Wd @ ocp.C), None]], format="csc"
    )
    b = np.concatenate([
        ocp.primal_metric.weights * rhs_primal,
        -ocp.dual_metric.weights * rhs_dual,
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sparse.SparseEfficiencyWarning)
        out = spsolve(S, b)
    if not np.all(np.isfinite(out)):
        raise NonConvergence("saddle solve produced non-finite values")
    return out


def kkt_solve(ocp: DiscretizedOCP, tol: float = 1e-8) -> OptimizerState:
    """Direct solve of the discrete optimality system.

    Quadratic stage costs reduce to one sparse symmetric-indefinite
    factorization.  Convex nonlinear stages run a damped Newton
    iteration started from the zero-stage solution (u = 0, x the free
    response, multipliers zero); it aims at min(tol, 1e-11 (1 + |r0|))
    for the starting residual r0 and accepts any residual within tol.
    """
    if ocp.cost.stage.is_quadratic:
        z = _solve_saddle(
            ocp,
            ocp.hessian_primal(np.zeros(ocp.primal_dim)),
            -np.concatenate([
                np.ravel(ocp.cost.stage.grad(np.zeros((ocp.N + 1, ocp.n)))),
                np.zeros((ocp.N + 1) * ocp.m),
            ]),
            ocp.rhs,
        )
        # stationarity with the affine gradient reads H z_p + g0 = C* d,
        # so the constant offset -g0 lands on the primal right-hand side
        _, norm = kkt_residual(ocp, z)
        if norm > tol:
            raise NonConvergence("direct KKT solve residual above tolerance",
                                 residual=norm)
        return OptimizerState.from_vector(z, ocp)

    x_free = input_to_state(ocp.model, np.zeros((ocp.N + 1, ocp.m)), ocp.grid)
    z0 = np.concatenate([
        np.ravel(x_free),
        np.zeros((ocp.N + 1) * ocp.m + ocp.dual_dim),
    ])
    _, norm0 = kkt_residual(ocp, z0)
    p = ocp.primal_dim
    target_rhs = ocp.kkt_target()
    z, norm = newton(
        lambda z: ocp.m_opt(z) - target_rhs,
        lambda z, r: _solve_saddle(ocp, ocp.hessian_primal(z[:p]), r[:p], r[p:]),
        z0, ocp.state_metric.norm, min(tol, 1e-11 * (1.0 + norm0)), _NEWTON_MAX_ITER,
    )
    if norm > tol:
        raise NonConvergence("KKT Newton did not reach tolerance", residual=norm)
    return OptimizerState.from_vector(z, ocp)
