"""Monotone port-Hamiltonian systems on weighted Euclidean spaces.

A system couples an accretive drift operator M with an input matrix B:

    dx/dt = -M(x) + B u,      y = B* x,

where B* is the metric adjoint of B.  Along any trajectory the stored
energy 1/2 ||x||^2 changes only through internal dissipation -<x, M(x)>
and the port power <u, y>.  This module provides the operator-level
machinery (resolvents, the iterated-resolvent semigroup approximation,
accretivity probes), trajectory audits of the power balance and of
shifted passivity, steady-state solves, and the power-preserving
interconnection of two systems through a skew coupling.

Every linear solve goes through one `_Factor` per solve site (an
implicit stepper or a steady-state solve), which factors
A + shift I for A given as the (offset, block) terms of
`MonotoneOperatorSpec._terms`: a closed loop's coupling K plus its
members' terms, an optimizer's saddle part plus its Hessian.  In an
operator's `order` (the optimizer's time-stage order, or a closed
loop's) the terms are scattered into one band array for LAPACK's banded
LU (`dgbtrf`/`dgbtrs`); without one they are summed for LAPACK's dense
LU or, when sparse, SuperLU.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch, InvalidParameter, NonConvergence
from .metric import Metric, adjoint
from .operators import MonotoneOperatorSpec, _coords, _native, _summed

_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class PHSystem:
    """Monotone pH system (M, B) with declared state and port metrics.

    B may be dense or scipy sparse; b_star, its metric adjoint, keeps
    B's format (a sparse B is stored as CSC, its adjoint as CSR).
    """

    M: MonotoneOperatorSpec
    B: object  # ndarray or scipy sparse
    metric: Metric
    input_metric: Metric
    b_star: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sparse.issparse(self.B):
            B = sparse.csc_matrix(self.B, dtype=float)
        else:
            B = np.asarray(self.B, dtype=float)
            if B.ndim != 2:
                B = B.reshape(self.M.dim, -1)
        if B.shape[0] != self.M.dim:
            raise DimensionMismatch(
                f"B has {B.shape[0]} rows, state dimension is {self.M.dim}"
            )
        if B.shape[1] != self.input_metric.dim:
            raise DimensionMismatch(
                f"B has {B.shape[1]} columns, input metric dimension is "
                f"{self.input_metric.dim}"
            )
        if self.metric.dim != self.M.dim:
            raise DimensionMismatch("state metric dimension mismatch")
        object.__setattr__(self, "B", B)
        object.__setattr__(
            self, "b_star", adjoint(B, self.input_metric, self.metric)
        )

    @property
    def dim(self) -> int:
        return self.M.dim

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    def output(self, x: np.ndarray) -> np.ndarray:
        """Collocated output y = B* x; for a stack of states, one output
        per row."""
        x = np.asarray(x, dtype=float)
        return self.b_star @ x if x.ndim == 1 else x @ self.b_star.T


def selection_port(dim: int, rows) -> sparse.csc_matrix:
    """Sparse input matrix whose column k is the unit vector of state
    coordinate rows[k]: a port that acts on those coordinates alone."""
    rows = np.asarray(rows, dtype=int)
    return sparse.csc_matrix((np.ones(rows.size), rows, np.arange(rows.size + 1)),
                             shape=(dim, rows.size))


@dataclass(frozen=True)
class SteadyStatePair:
    """A pair (x_bar, u_bar) with M(x_bar) = B u_bar, plus y_bar = B* x_bar."""

    x_bar: np.ndarray
    u_bar: np.ndarray
    y_bar: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: strictly increasing times, one state/input per
    time, and the theta of the implicit theta-step that produced it (the
    audits evaluate each interval at that stage)."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    theta: float = 0.5

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        u = np.asarray(self.inputs, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise InvalidParameter("trajectory times must be strictly increasing")
        if x.shape[0] != t.size or u.shape[0] != t.size:
            raise DimensionMismatch("states/inputs length must equal times length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "inputs", u)

    @property
    def step(self) -> float:
        dt = np.diff(self.times)
        if dt.size and np.max(np.abs(dt - dt[0])) > 1e-10 * dt[0]:
            raise InvalidParameter("trajectory is not uniformly sampled")
        return float(dt[0]) if dt.size else 0.0


def newton(residual, solve, x0, norm, tol, r0=None):
    """Damped Newton iteration for residual(x) = 0.

    solve(x, r) returns the Newton step J(x)^{-1} r; r0, when given, is
    residual(x0).  The full step is taken whenever it lowers the
    residual norm; otherwise the step is halved, with at most 40 trial
    steps per iteration.  Returns the last iterate and its residual
    norm, stopping early when the norm reaches tol, when the step is not
    finite (a singular Newton matrix), when the line search cannot lower
    the residual, or after _NEWTON_MAX_ITER iterations.  Callers judge
    the returned residual; a non-finite one fails `res <= tol`.
    """
    x = x0
    r = residual(x) if r0 is None else r0
    res = norm(r)
    for _ in range(_NEWTON_MAX_ITER):
        if res <= tol:
            break
        step = solve(x, r)
        if not np.all(np.isfinite(step)):
            break
        t = 1.0
        for _ in range(40):
            x_trial = x - t * step
            r_trial = residual(x_trial)
            res_trial = norm(r_trial)
            if res_trial < res:
                x, r, res = x_trial, r_trial, res_trial
                break
            t *= 0.5
        else:
            break
    return x, res


def _pattern(A):
    """Where A stores its entries, as a value that compares with ==: the
    format and index arrays of a sparse A, the shape of a dense one."""
    if sparse.issparse(A):
        return (A.format, A.indptr.tobytes(), A.indices.tobytes())
    return ("dense", A.shape)


def _singular(r):
    """The solve of an exactly singular factor: non-finite values."""
    return np.full(np.shape(r), np.nan)


class _Factor:
    """LU factors of A + shift I for one solve site, by one of three paths.

    A is the sum of a list of (offset, block) terms, each block square
    (CSR, CSC or dense) and on the diagonal at its offset.

    - With an order (the time-stage order of an optimizer or a closed
      loop, in which A is banded) the terms are scattered into one band
      array, factored by LAPACK's banded LU (dgbtrf/dgbtrs).
    - Without an order the terms are summed: a dense A is factored by
      LAPACK's dense LU, a sparse A (an operator built outside the
      package) by SuperLU, the one generic sparse fallback.

    The bandwidths, the band array and the band position of every entry
    are laid out once per tuple of (offset, pattern), so the Newton
    matrices of one stepper or one equilibrium solve share them: each
    `solver` call zero-fills the array, assigns the first term, adds the
    others and the shift, and factors the array in place, so a banded
    solver stays valid until the next `solver` call.  An exactly
    singular A yields non-finite solutions on every path, which the
    callers report as a failed solve.
    """

    def __init__(self, order=None):
        self.order = None if order is None else np.asarray(order)
        self.key = None

    def _layout(self, terms):
        rank = np.empty_like(self.order)  # position of each state index in the order
        rank[self.order] = np.arange(self.order.size)
        ij = []  # band row and column of each term's entries
        for lo, block in terms:
            r, c = _coords(block)
            ij.append((rank[lo + r], rank[lo + c]))
        self.kl = max(int(np.max(i - j, initial=0)) for i, j in ij)
        self.ku = max(int(np.max(j - i, initial=0)) for i, j in ij)
        # LAPACK band storage, column-major: entry (i, j) at row kl + ku + i - j
        # of column j; the top kl rows hold the fill of the row interchanges
        ldab = 2 * self.kl + self.ku + 1
        self.flat = np.zeros(ldab * self.order.size)
        self.ab = self.flat.reshape((ldab, self.order.size), order="F")
        self.pos = [self.kl + self.ku + i - j + ldab * j for i, j in ij]
        # a term stores no entry twice, so its positions are distinct
        self.unique = [not sparse.issparse(block) or block.has_canonical_format
                       for _, block in terms]
        self.key = [(lo, _pattern(block)) for lo, block in terms]

    def _fill(self, terms, shift: float):
        """The band array of the terms' sum plus shift I, over the
        previous contents."""
        if [(lo, _pattern(block)) for lo, block in terms] != self.key:
            self._layout(terms)
        self.flat.fill(0.0)
        for k, ((_, block), pos, unique) in enumerate(zip(terms, self.pos, self.unique)):
            data = block.data if sparse.issparse(block) else block.ravel()
            if not unique:  # duplicate entries add up
                np.add.at(self.flat, pos, data)
            elif k == 0:  # the array is zero: assigning spares a gather
                self.flat[pos] = data
            else:
                self.flat[pos] += data
        if shift:
            self.ab[self.kl + self.ku] += shift
        return self.ab

    def solver(self, terms, shift: float = 0.0):
        """Return solve(r) = (A + shift I)^{-1} r for A the sum of terms."""
        if self.order is None:
            A = _summed(terms)
            if not sparse.issparse(A):
                if shift:
                    A = shift * np.eye(A.shape[0]) + A
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", LinAlgWarning)  # exactly singular
                    fac = lu_factor(A, check_finite=False)
                return lambda r: lu_solve(fac, r, check_finite=False)
            if shift:
                A = shift * sparse.identity(A.shape[0], format="csc") + A
            try:
                return splu(A.tocsc()).solve
            except RuntimeError:  # SuperLU: "Factor is exactly singular"
                return _singular
        lu, piv, info = dgbtrf(self._fill(terms, shift), self.kl, self.ku, overwrite_ab=True)
        if info > 0:  # U has an exact zero on its diagonal
            return _singular
        kl, ku, order = self.kl, self.ku, self.order

        def solve(r):
            x, _ = dgbtrs(lu, kl, ku, np.asarray(r, dtype=float)[order], piv,
                          overwrite_b=True)
            out = np.empty_like(x)
            out[order] = x
            return out

        return solve


def implicit_stepper(M: MonotoneOperatorSpec, h: float, theta: float, norm, tol: float):
    """Return step(z, b) -> (z_next, residual) solving the implicit step

        z_next = z + h * (-M(theta*z_next + (1-theta)*z) + b).

    theta = 1 with b = 0 is the resolvent (I + h M)^{-1}; theta = 1/2
    is the implicit midpoint rule.  The stepper holds one `_Factor` in
    M's order.  Linear M factors I + theta*h*L once and reports residual
    0, or inf when the result is not finite.  Otherwise the step runs
    `newton` from whichever of z and the explicit predictor
    z + h*(-M(z) + b) has the smaller residual, factoring the Newton
    matrix I + theta*h*DM(stage) at each iteration from DM's terms; on
    the banded path every iteration scatters them into the band array
    laid out at the first.  The residual is the norm of the step
    equation's defect.
    """
    factor = _Factor(M.order)
    c = theta * h
    if M.is_linear:
        L = M.linear_part
        solve_linear = factor.solver([(0, c * _native(L))], 1.0)
        if sparse.issparse(L):
            rhs = sparse.identity(M.dim, format="csr") - ((1.0 - theta) * h) * L.tocsr()
        else:
            rhs = np.eye(M.dim) - ((1.0 - theta) * h) * L
        offset = M.offset

        def step(z, b):
            z_next = solve_linear(rhs @ z + h * (b - offset))
            return z_next, (0.0 if np.all(np.isfinite(z_next)) else np.inf)

        return step

    def step(z, b):
        def stage(z_next):
            return theta * z_next + (1.0 - theta) * z

        def residual(z_next):
            return z_next - z - h * (-M(stage(z_next)) + b)

        # (I + c J) s = r is solved as (I/c + J) s = r/c: the shift is one
        # addition on the diagonal
        def solve(z_next, r):
            return factor.solver(M._terms(stage(z_next)), 1.0 / c)(r / c)

        # the step residual at z_next = z is -drift, so the start costs
        # no more evaluations of M than the predictor alone
        drift = h * (-M(z) + b)
        predictor = z + drift
        r_pred = residual(predictor)
        x0, r0 = ((predictor, r_pred) if norm(r_pred) <= norm(drift)
                  else (z, -drift))
        return newton(residual, solve, x0, norm, tol, r0)

    return step


def resolvent(M: MonotoneOperatorSpec, lam: float, z: np.ndarray,
              metric: Metric, tol: float = 1e-12) -> np.ndarray:
    """Solve x + lam*M(x) = z to within tol in the metric norm.

    One step of `implicit_stepper` at theta = 1: a direct solve for
    linear M, Newton with the Jacobian of M otherwise.
    """
    if lam <= 0:
        raise InvalidParameter("resolvent parameter lam must be positive")
    return semigroup_approx(M, lam, 1, z, metric, tol)


def semigroup_approx(M: MonotoneOperatorSpec, t: float, n: int, x0: np.ndarray,
                     metric: Optional[Metric] = None, tol: float = 1e-13) -> np.ndarray:
    """Approximate the flow of dx/dt = -M(x) by n chained resolvent steps.

    Returns (I + (t/n) M)^{-n} x0, which converges to the exact solution
    operator as n grows.  Each resolvent is solved to tol in the metric
    norm (Euclidean by default).
    """
    if t < 0:
        raise InvalidParameter("time t must be nonnegative")
    if n < 1:
        raise InvalidParameter("substep count n must be at least 1")
    if tol <= 0:
        raise InvalidParameter("resolvent tolerance must be positive")
    x = np.asarray(x0, dtype=float).copy()
    if t == 0.0:
        return x
    step = implicit_stepper(M, t / n, 1.0, (metric or Metric.euclidean(M.dim)).norm, tol)
    for k in range(n):
        x, res = step(x, 0.0)
        if not res <= tol:
            raise NonConvergence(f"resolvent step {k + 1} of {n} did not converge",
                                 residual=res)
    return x


@dataclass(frozen=True)
class ProbeReport:
    """Sampled accretivity evidence; report-only, never a certificate."""

    min_gap: float
    c_estimate: float
    violation: bool
    n_pairs: int

    def __str__(self):
        status = "VIOLATION" if self.violation else "ok"
        return (f"accretivity probe: min_gap={self.min_gap:.3e} "
                f"c_estimate={self.c_estimate:.3e} [{status}]")


def accretivity_probe(M: MonotoneOperatorSpec, metric: Metric, rng=0,
                      n_pairs: int = 100, x_bar: Optional[np.ndarray] = None,
                      tol: float = 1e-10) -> ProbeReport:
    """Sample pairs and report the worst monotonicity gap of M.

    min_gap is the smallest <M(x1)-M(x2), x1-x2> over the sampled pairs,
    c_estimate the smallest value of that quantity divided by
    ||x1-x2||^2.  With x_bar given, every pair is anchored there, so
    c_estimate estimates the strong-accretivity constant at x_bar.
    A violation is flagged when some pair's gap is below -tol scaled by
    the pair's magnitude.
    """
    if n_pairs < 1:
        raise InvalidParameter("n_pairs must be at least 1")
    gen = np.random.default_rng(rng)  # a Generator is returned as it is
    min_gap = np.inf
    c_estimate = np.inf
    violation = False
    for _ in range(n_pairs):
        x1 = gen.standard_normal(M.dim)
        if x_bar is not None:
            x2 = np.asarray(x_bar, dtype=float)
            x1 = x2 + x1
        else:
            x2 = gen.standard_normal(M.dim)
        d = x1 - x2
        nd2 = metric.inner(d, d)
        if nd2 == 0.0:
            continue
        gap = metric.inner(M(x1) - M(x2), d)
        min_gap = min(min_gap, gap)
        c_estimate = min(c_estimate, gap / nd2)
        if gap < -tol * (1.0 + metric.inner(x1, x1) + metric.inner(x2, x2)):
            violation = True
    return ProbeReport(float(min_gap), float(c_estimate), violation, n_pairs)


@dataclass(frozen=True)
class PowerBalanceReport:
    """Per-interval defect of the discrete power balance identity."""

    residuals: np.ndarray
    max_residual: float


# intervals per block of the audits' row-wise work: their temporaries
# stay this many rows whatever the trajectory's length
_ROW_BLOCK = 64


def _interval_blocks(traj: Trajectory, h: float, metric: Metric,
                     column_major: bool):
    """Yield (rows, x, lag, xs, us) for consecutive blocks of at most
    _ROW_BLOCK sampling intervals: the slice of their indices, a view of
    their endpoint states (one row more than the block), the term
    lag = (1 - 2 theta) ||x+ - x||^2 / (2h) by which the theta-step's
    energy rate exceeds its stage balance (0 at midpoint), and their
    stage states and inputs theta x+ + (1 - theta) x.

    The stage stacks are views of buffers allocated once per walk, and
    the next block overwrites them.  With column_major the state stage
    is copied into a column-major buffer, the layout in which a product
    S @ xs.T with a sparse S (a linear drift, the output map) reads it
    without a transposed copy; the per-row nonlinear path keeps rows.
    """
    theta = traj.theta
    states, inputs = traj.states, traj.inputs
    n = states.shape[0] - 1
    rows = min(n, _ROW_BLOCK)
    xs_buf = np.empty((rows, states.shape[1]))
    xs_cols = np.empty_like(xs_buf, order="F") if column_major else None
    us_buf = np.empty((rows, inputs.shape[1]))
    width = max(states.shape[1], inputs.shape[1])
    tmp = None if theta == 0.5 else np.empty((rows, width))
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        x, u = states[lo:hi + 1], inputs[lo:hi + 1]
        xs, us = xs_buf[:hi - lo], us_buf[:hi - lo]
        if theta == 0.5:  # midpoint: the plain average, and no lag
            lag = 0.0
            for s, v in ((xs, x), (us, u)):
                np.multiply(np.add(v[1:], v[:-1], out=s), 0.5, out=s)
        else:
            dx = np.subtract(x[1:], x[:-1], out=tmp[:hi - lo, :x.shape[1]])
            lag = (1.0 - 2.0 * theta) * metric.row_inner(dx, dx) / (2.0 * h)
            for s, v in ((xs, x), (us, u)):
                np.multiply(v[1:], theta, out=s)
                s += np.multiply(v[:-1], 1.0 - theta, out=tmp[:hi - lo, :v.shape[1]])
        if column_major:
            xs = xs_cols[:hi - lo]
            np.copyto(xs, xs_buf[:hi - lo])
        yield slice(lo, hi), x, lag, xs, us


def _batch_eval(M: MonotoneOperatorSpec, X: np.ndarray) -> np.ndarray:
    """Evaluate M on each row of X into a new array; one matrix product
    when M is linear."""
    if M.is_linear:
        out = (M.linear_part @ X.T).T
        if M.affine_offset is not None:
            out += M.affine_offset
        return out
    return np.apply_along_axis(M, 1, X)


def power_balance_audit(sys: PHSystem, traj: Trajectory) -> PowerBalanceReport:
    """Check d/dt 1/2||x||^2 = -<x, M(x)> + <u, y> interval by interval.

    The rate side is evaluated at the trajectory's theta stage
    x_s = theta x+ + (1 - theta) x, and the energy rate is taken less
    (1 - 2 theta) ||x+ - x||^2 / (2h), so trajectories of the implicit
    theta-step satisfy the identity to solver precision; at theta = 1/2
    (midpoint) the stage is the average and the extra term vanishes.
    The intervals are walked in blocks of _ROW_BLOCK rows, so no
    temporary grows with the trajectory.
    """
    if traj.states.shape[1] != sys.dim:
        raise DimensionMismatch("trajectory state dimension mismatch")
    if traj.inputs.shape[1] != sys.input_dim:
        raise DimensionMismatch("trajectory input dimension mismatch")
    h = traj.step
    residuals = np.empty(traj.times.size - 1)
    for rows, x, lag, xs, us in _interval_blocks(traj, h, sys.metric, sys.M.is_linear):
        energy = 0.5 * sys.metric.row_inner(x, x)
        dissip = sys.metric.row_inner(xs, _batch_eval(sys.M, xs))
        supply = sys.input_metric.row_inner(us, sys.output(xs))
        residuals[rows] = (np.diff(energy) / h - lag) - (-dissip + supply)
    return PowerBalanceReport(residuals, float(np.max(np.abs(residuals), initial=0.0)))


@dataclass(frozen=True)
class ShiftedPassivityReport:
    """Shifted power balance residuals and passivity-inequality excesses."""

    equality_residuals: np.ndarray
    inequality_excess: np.ndarray
    max_equality_residual: float
    max_inequality_excess: float

    def passive(self, tol: float = 1e-9) -> bool:
        return self.max_inequality_excess <= tol


def shifted_passivity_audit(sys: PHSystem, traj: Trajectory,
                            ss: SteadyStatePair) -> ShiftedPassivityReport:
    """Audit the power balance and passivity relative to a steady state.

    Equality: d/dt 1/2||x-x_bar||^2 = -<x-x_bar, M(x)-M(x_bar)>
                                      + <u-u_bar, y-y_bar>.
    Inequality: the same rate is bounded by the shifted supply alone.
    Both take the theta stage and the energy-rate term of
    `power_balance_audit`.
    """
    if traj.states.shape[1] != sys.dim:
        raise DimensionMismatch("trajectory state dimension mismatch")
    h = traj.step
    mx_bar = sys.M(np.asarray(ss.x_bar, dtype=float))
    eq_res = np.empty(traj.times.size - 1)
    ineq = np.empty_like(eq_res)
    dx_buf = np.empty((min(eq_res.size, _ROW_BLOCK) + 1, sys.dim))
    for rows, x, lag, xs, us in _interval_blocks(traj, h, sys.metric, sys.M.is_linear):
        dx = np.subtract(x, ss.x_bar, out=dx_buf[:x.shape[0]])
        energy = 0.5 * sys.metric.row_inner(dx, dx)
        dm = _batch_eval(sys.M, xs)
        dm -= mx_bar
        dy = sys.output(xs)
        dy -= ss.y_bar
        xs -= ss.x_bar  # the walk's buffers: shifted in place, then overwritten
        us -= ss.u_bar
        gap = sys.metric.row_inner(xs, dm)
        supply = sys.input_metric.row_inner(us, dy)
        rate = np.diff(energy) / h - lag
        eq_res[rows] = rate - (-gap + supply)
        ineq[rows] = rate - supply
    return ShiftedPassivityReport(
        eq_res,
        ineq,
        float(np.max(np.abs(eq_res), initial=0.0)),
        float(np.max(ineq, initial=-np.inf)),
    )


def steady_state(sys: PHSystem, u_bar: np.ndarray, tol: float = 1e-10,
                 x_init: Optional[np.ndarray] = None) -> SteadyStatePair:
    """Solve M(x_bar) = B u_bar by one damped `newton` run from x_init
    (zero by default) that factors the Jacobian terms of M at each
    iterate, banded in M's order when it carries one.  A linear M is its
    own Jacobian, so its first full step is exact.

    The run aims at min(tol, 1e-11 (1 + ||B u_bar||)) in the state
    metric: the scale of the problem, whatever the start.  It accepts
    any residual within tol; otherwise it raises NonConvergence with the
    residual it reached.
    """
    u_bar = np.asarray(u_bar, dtype=float).reshape(sys.input_dim)
    b = sys.B @ u_bar
    M, norm = sys.M, sys.metric.norm
    x0 = np.zeros(sys.dim) if x_init is None else np.asarray(x_init, dtype=float).copy()
    factor = _Factor(M.order)
    x, res = newton(lambda x: M(x) - b, lambda x, r: factor.solver(M._terms(x))(r),
                    x0, norm, min(tol, 1e-11 * (1.0 + norm(b))))
    if not res <= tol:
        raise NonConvergence("steady-state residual above tolerance", residual=res)
    return SteadyStatePair(x, u_bar, sys.output(x))


def coupling_block(sys1: PHSystem, sys2: PHSystem, F: np.ndarray,
                   split1: int, split2: int) -> sparse.csr_matrix:
    """Sparse skew coupling block added to diag(M1, M2) by interconnect.

    Its two blocks, B1c F b2c* in the rows of system 1 and its partner
    -B2c F* b1c* in the rows of system 2, have rank at most
    min(split1, split2) and are nonzero only in the rows and columns
    that the coupled ports touch.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if not (0 <= split1 <= sys1.input_dim and 0 <= split2 <= sys2.input_dim):
        raise DimensionMismatch("port split outside the input dimension")
    if F.shape != (split1, split2):
        raise DimensionMismatch(
            f"coupling map F has shape {F.shape}, expected ({split1}, {split2})"
        )
    B1c = sparse.csc_matrix(sys1.B[:, :split1])
    B2c = sparse.csc_matrix(sys2.B[:, :split2])
    p1, _ = sys1.input_metric.split(split1)
    p2, _ = sys2.input_metric.split(split2)
    b1c_star = adjoint(B1c, p1, sys1.metric)
    b2c_star = adjoint(B2c, p2, sys2.metric)
    f_star = sparse.csr_matrix(adjoint(F, p2, p1))
    F = sparse.csr_matrix(F)
    return sparse.bmat([[None, B1c @ F @ b2c_star],
                        [-B2c @ f_star @ b1c_star, None]], format="csr")


def interconnect(sys1: PHSystem, sys2: PHSystem, F: np.ndarray,
                 split1: int, split2: int) -> PHSystem:
    """Power-preserving interconnection through the first port of each system.

    Each input is split as B_i = [B_i^1 B_i^2] with the first split_i
    columns coupled.  The composed drift operator is

        M(x1, x2) = (M1(x1) + B1^1 F (B2^1)* x2,
                     M2(x2) - B2^1 F* (B1^1)* x1),

    whose added block is exactly skew in the product metric, so the
    composition is again monotone whenever the constituents are.  The
    remaining ports survive as B = diag(B1^2, B2^2), sparse when either
    B_i is.  Two linear members give a sparse linear part.  Otherwise
    the Jacobian is the term list [(0, K), members' terms], each
    member's terms shifted by its offset in the state, so nested loops
    flatten into one list.  When either member carries an order, the
    composition carries their concatenation (the identity for a member
    without one): `couple` puts the plant first, so a closed loop's
    order is the plant ahead of the optimizer's time stages, and its
    matrices stay banded.
    """
    K = coupling_block(sys1, sys2, F, split1, split2)
    d1 = sys1.dim
    M1, M2 = sys1.M, sys2.M

    def eval_fn(x):
        return np.concatenate([M1(x[:d1]), M2(x[d1:])]) + K @ x

    linear_part = None
    affine = None
    derivative_fn = None
    if M1.is_linear and M2.is_linear:
        linear_part = K + sparse.block_diag([M1.linear_part, M2.linear_part],
                                            format="csr")
        if M1.affine_offset is not None or M2.affine_offset is not None:
            affine = np.concatenate([M1.offset, M2.offset])
    else:
        def derivative_fn(x):
            return [(0, K), *((lo + k, block) for lo, M in ((0, M1), (d1, M2))
                              for k, block in M._terms(x[lo:lo + M.dim]))]
    order = None
    if M1.order is not None or M2.order is not None:
        order = np.concatenate([np.arange(M1.dim) if M1.order is None else M1.order,
                                d1 + (np.arange(M2.dim) if M2.order is None else M2.order)])

    B = sparse.block_diag([sys1.B[:, split1:], sys2.B[:, split2:]], format="csc")
    if not (sparse.issparse(sys1.B) or sparse.issparse(sys2.B)):
        B = B.toarray()
    _, open1 = sys1.input_metric.split(split1)
    _, open2 = sys2.input_metric.split(split2)
    return PHSystem(
        MonotoneOperatorSpec(sys1.dim + sys2.dim, eval_fn=eval_fn,
                             derivative_fn=derivative_fn, linear_part=linear_part,
                             affine_offset=affine, order=order),
        B,
        sys1.metric.concat(sys2.metric),
        open1.concat(open2),
    )

