"""Monotone port-Hamiltonian systems on weighted Euclidean spaces.

A system couples an accretive drift operator M with an input matrix B:

    dx/dt = -M(x) + B u,      y = B* x,

where B* is the metric adjoint of B.  Along any trajectory the stored
energy 1/2 ||x||^2 changes only through internal dissipation -<x, M(x)>
and the port power <u, y>.  This module provides the operator-level
machinery (resolvents, the iterated-resolvent semigroup approximation,
accretivity probes), the trajectory audit of the power balance and of
shifted passivity, steady-state solves, and the power-preserving
interconnection of two systems through a skew coupling.

A run is read in blocks of at most _ROW_BLOCK sampling intervals: a
stored `Trajectory` gives them from its array (`Trajectory.blocks`), and
a flow being integrated gives them as it steps (`optimizer.FlowStream`).
Both audits are one fold over those blocks (`PowerBalance`, see `fold`),
which evaluates M and the output once per block.  So the audit, like
every other output of a run, can be taken while the flow runs, and no
state array that grows with the run is needed.

Every operator has the form M(z) = L z + g + phi(z) (see `operators`):
one matrix product plus a nodewise map.  So it is evaluated on a block
of trajectory rows, or of the accretivity probe's samples, at once
(`_batch_eval`), and its Jacobian is L plus phi' on the diagonal at
fixed coordinates.  The block evaluations, and the Newton residuals and
step defects of the implicit steps, which evaluate M through the
unchecked `_apply`, go through the product that the operator binds once
(see `operators`); every other evaluation keeps the shape check of
M(x).  Every linear solve goes through a `_Factor`, which lays out and
fills L + shift I once and factors it, plus a diagonal d, by LAPACK's
banded LU (`dgbtrf`) in an operator's `order` (the optimizer's
time-stage order, or a closed loop's), and otherwise by LAPACK's dense
LU or, when sparse, SuperLU.
A Newton iteration copies the base, adds d = phi' on its diagonal
(`_newton_solver`) and solves with `dgbtrs`.  A linear step factors
once with no d, folds dgbtrf's row interchanges into its order and
scales U to a unit diagonal (`_fold`), and solves each step by unit
triangular sweeps over bands only as wide as their columns reach
(`_unit_bands`), with no product with L (`_linear_step`).  A
steady-state solve holds one `_Factor`, and so does `_theta_newton`, the
one Newton run of every nonlinear implicit step: it alone defines the
step's residual, Newton solve and start.  Where phi lives in leading
coordinates ahead of a linear banded rest, as in a cubic plant closed
against an LQ optimizer, the stepper eliminates the linear rest,
factoring its band once, and runs that Newton run on the leading block,
whose factor is dense (`_condensed_stepper`).  The structure alone picks
the path; on each, a stepper is built for its constant input and each
step(z, out) writes z_next into the caller's row (`implicit_stepper`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dgemv, dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch, InvalidParameter, NonConvergence
from .metric import Metric, adjoint
from .operators import MonotoneOperatorSpec, Nodewise

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
            if B.ndim == 1 and B.size == self.M.dim:
                B = B.reshape(-1, 1)
            if B.ndim != 2:
                raise DimensionMismatch(
                    f"B must be 2-D, or 1-D of the state dimension {self.M.dim}; "
                    f"got shape {B.shape}")
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
    """Sampled solution: strictly increasing times, one row of the 2-D
    states and inputs per time, and the theta of the implicit theta-step
    that produced it (the audits evaluate each interval at that stage)."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    theta: float = 0.5

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        u = np.asarray(self.inputs, dtype=float)
        if not np.all(np.isfinite(t)):
            raise InvalidParameter("trajectory times must be finite")
        if np.any(np.diff(t) <= 0):
            raise InvalidParameter("trajectory times must be strictly increasing")
        for name, v in (("states", x), ("inputs", u)):
            if v.ndim != 2:
                raise DimensionMismatch(f"trajectory {name} must be 2-D, got shape {v.shape}")
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

    def blocks(self):
        """Yield (lo, x, u) for consecutive blocks of at most _ROW_BLOCK
        sampling intervals: the index of the block's first sample and
        views of the states and inputs of its samples, one row more than
        its intervals, so each block's first row is the previous block's
        last.  `optimizer.FlowStream.blocks` yields the same blocks while
        the flow runs."""
        n = self.times.size - 1
        for lo in range(0, n, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, n)
            yield lo, self.states[lo:hi + 1], self.inputs[lo:hi + 1]


# intervals per block of a run's row-wise work: the stream of a flow, the
# audits and every other fold keep buffers of this many rows, whatever the
# run's length
_ROW_BLOCK = 64


def fold(run, *folds) -> list:
    """Pass every block of run (a `Trajectory`, or an
    `optimizer.FlowStream`, which steps the flow as it goes) to each fold's
    add(lo, x, u) in one pass, and return their report()s in order."""
    for lo, x, u in run.blocks():
        for f in folds:
            f.add(lo, x, u)
    return [f.report() for f in folds]


def newton(residual, solve, x0, norm, tol, r0=None, res0=None):
    """Damped Newton iteration for residual(x) = 0.

    solve(x, r) returns the Newton step J(x)^{-1} r; r0 and res0, when
    given, are residual(x0) and its norm (`_theta_newton` has both from
    choosing the start).  The full step is taken whenever it lowers the
    residual norm; otherwise the step is halved, with at most 40 trial
    steps per iteration.  Returns the last iterate and its residual
    norm, stopping early when the norm reaches tol, when the step is not
    finite (a singular Newton matrix), when the line search cannot lower
    the residual, or after _NEWTON_MAX_ITER iterations.  Callers judge
    the returned residual; a non-finite one fails `res <= tol`.
    """
    x = x0
    r = residual(x) if r0 is None else r0
    res = norm(r) if res0 is None else res0
    for _ in range(_NEWTON_MAX_ITER):
        if res <= tol:
            break
        step = solve(x, r)
        if not np.isfinite(step).all():
            break
        t = 1.0
        for _ in range(40):
            x_trial = x - step if t == 1.0 else x - t * step  # 1.0 * step is step
            r_trial = residual(x_trial)
            res_trial = norm(r_trial)
            if res_trial < res:
                x, r, res = x_trial, r_trial, res_trial
                break
            t *= 0.5
        else:
            break
    return x, res


def _singular(r):
    """The solve of an exactly singular factor: non-finite values."""
    return np.full(np.shape(r), np.nan)


def _coords(A):
    """Row and column of each entry of a CSR or CSC A, or of a dense A in
    row-major order, in the order of its data."""
    if not sparse.issparse(A):
        return np.divmod(np.arange(A.size), A.shape[1])
    major = np.repeat(np.arange(A.indptr.size - 1), np.diff(A.indptr))
    return (major, A.indices) if A.format == "csr" else (A.indices, major)


def _entries(A):
    """(rows, columns, values) of the stored entries of a CSR or CSC A, or
    of every entry of a dense A."""
    r, c = _coords(A)
    return r, c, (A.data if sparse.issparse(A) else A.ravel())


def _compressed(rows, cols, vals, shape, fmt: str = "csr"):
    """The CSR (fmt "csr") or CSC ("csc") matrix of the given shape with
    vals at (rows, cols), no two of them at one position, in canonical
    form: each row's (column's) entries sorted, and every entry stored,
    zero or not.  One sort and one construction: the blocks of an
    assembled matrix are placed by their index arrays, with the entries
    and the order that scipy's kron, bmat and block_diag give."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    major, minor = (rows, cols) if fmt == "csr" else (cols, rows)
    n_major, n_minor = shape if fmt == "csr" else shape[::-1]
    order = np.argsort(major * n_minor + minor)
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(np.bincount(major, minlength=n_major), out=indptr[1:])
    matrix = sparse.csr_matrix if fmt == "csr" else sparse.csc_matrix
    return matrix((np.asarray(vals, dtype=float)[order], minor[order], indptr), shape=shape)


class _Factor:
    """LU factors of L + shift I + diag(d), d on the coordinates coords,
    for one solve site, by one of three paths.

    - With an order (the time-stage order of an optimizer or a closed
      loop, in which L is banded) the matrix is a LAPACK band array,
      factored by LAPACK's banded LU (dgbtrf).  solver(d) solves with
      dgbtrs: a Newton or KKT factor serves one or two solves and
      interchanges most of its rows, so a fold would not pay.
      step_solver(), for a linear step's factor, which serves every
      step of a run and interchanges few rows, folds the interchanges
      into the order once (`_fold`).
    - Without an order a dense L is factored by LAPACK's dense LU
      (dgetrf/dgetrs, called directly as the banded routines are: for
      the small matrices of a plant's Newton step, scipy.linalg's
      lu_factor/lu_solve wrappers cost more than the factorization), a
      sparse L by SuperLU, the one generic sparse fallback.

    L (CSR, CSC or dense) and shift are fixed at construction, which
    lays out and fills L + shift I once: on the banded path the
    bandwidths, the band array and the band position of every entry of
    L and of the diagonal at coords.  Each `solver(d)` copies that base,
    adds d at coords and factors the copy: a Newton iteration's is
    solver(phi'(x)), a linear step's is step_solver(), with no d.  A
    banded solver stays valid until the next call.  An exactly singular
    matrix yields non-finite solutions on every path, which the callers
    report as a failed solve.
    """

    def __init__(self, L, shift: float, coords=(), order=None):
        self.coords = np.asarray(coords, dtype=int)
        self.order = None if order is None else np.asarray(order)
        if self.order is None:
            if sparse.issparse(L):
                self.base = (shift * sparse.identity(L.shape[0], format="csr") + L).tocsr()
            else:  # column-major, the layout dgetrf factors in place
                self.base = np.asfortranarray(shift * np.eye(L.shape[0]) + L)
            return
        rank = np.empty_like(self.order)  # position of each state index in the order
        rank[self.order] = np.arange(self.order.size)
        r, c = _coords(L)
        i, j = rank[r], rank[c]  # band row and column of each entry
        self.kl = int(np.max(i - j, initial=0))
        self.ku = int(np.max(j - i, initial=0))
        # LAPACK band storage, column-major: entry (i, j) at row kl + ku + i - j
        # of column j; the top kl rows hold the fill of the row interchanges
        ldab = 2 * self.kl + self.ku + 1
        self.base = np.zeros(ldab * self.order.size)
        pos = self.kl + self.ku + i - j + ldab * j
        data = L.data if sparse.issparse(L) else L.ravel()
        if sparse.issparse(L) and not L.has_canonical_format:  # duplicates add up
            np.add.at(self.base, pos, data)
        else:
            self.base[pos] = data
        self.flat = np.empty_like(self.base)
        self.ab = self.flat.reshape((ldab, self.order.size), order="F")
        if shift:
            self.base.reshape(self.ab.shape, order="F")[self.kl + self.ku] += shift
        self.dpos = self.kl + self.ku + ldab * rank[self.coords]

    def solver(self, d=()):
        """Return solve(r) = (L + shift I + diag(d))^{-1} r, d at coords
        (empty without d)."""
        if self.order is not None:
            np.copyto(self.flat, self.base)
            self.flat[self.dpos] += d
            return self._banded()
        c = self.coords
        if sparse.issparse(self.base):
            return _superlu(self.base + sparse.csr_matrix((d, (c, c)), shape=self.base.shape))
        A = self.base.copy(order="F")
        A[c, c] += d
        return _dense(A)

    def step_solver(self):
        """Return solve(r) = (L + shift I)^{-1} r for a factor that serves
        every step of a run (a linear step's): on the banded path with
        dgbtrf's interchanges folded into the order (`_fold`), otherwise
        solver()'s."""
        if self.order is None:
            return self.solver()
        np.copyto(self.flat, self.base)
        return self._banded(fold=True)

    def _banded(self, fold=False):
        """Factor the band array in place; the solve in the order, by
        `_fold`'s sweeps when fold is set and the fold fits, else by
        dgbtrs."""
        lu, piv, info = dgbtrf(self.ab, self.kl, self.ku, overwrite_ab=True)
        if info > 0:  # U has an exact zero on its diagonal
            return _singular
        kl, ku, order = self.kl, self.ku, self.order
        folded = _fold(lu, piv, kl, ku, order) if fold else None
        if folded is not None:
            return folded

        def solve(r):
            x, _ = dgbtrs(lu, kl, ku, np.asarray(r, dtype=float)[order], piv,
                          overwrite_b=True)
            out = np.empty_like(x)
            out[order] = x
            return out

        return solve


def _fold(lu, piv, kl: int, ku: int, order):
    """The solve with dgbtrf's factors (lu, piv) of a band matrix in
    `order`, as PA = L'DU' without row interchanges (a `_Folded`), or
    None when its bands would hold more than twice the entries of lu.

    dgbtrf stores U in the top kl + ku + 1 rows of lu and, below them,
    the multipliers of each column j for the rows j+1..j+kl as they stood
    at step j, before the interchanges of the later steps; dgbtrs
    therefore walks the columns one at a time, an interchange and a
    rank-one update each.  Here the interchanges P are composed with the
    order into one gather, and L' is the multipliers with every later
    interchange applied to the earlier columns, exactly: entry by entry,
    wherever a chain of interchanges moves it.  U's rows are scaled to a
    unit diagonal, U = D U', and the reciprocal diagonal 1/D is kept, so
    neither sweep divides.  The factors of a linear step interchange few
    rows (in the first stages and the last rows): there a chain carries
    an early column's multipliers well below the band, and U fills up to
    kl + ku above its diagonal, while every other column of L' reaches
    kl and of U ku.  So each factor is cut into at most three bands
    (`_unit_bands`), each only as wide as its own columns reach.
    Pivoting that chains through much of the matrix would widen the
    bands with the square of the chain; past twice the entries of lu,
    dgbtrs keeps the solve.
    """
    n = order.size
    budget = 2 * lu.size
    gather = order.copy()
    # rows[t, j]: where the multiplier that dgbtrf stored for row j + 1 + t
    # of column j stands after the interchanges so far
    rows = np.arange(1, kl + 1)[:, None] + np.arange(n)
    reach = kl  # bounds row - column over every multiplier
    for j in np.flatnonzero(piv != np.arange(n)):
        p = piv[j]
        gather[[j, p]] = gather[[p, j]]
        # only columns within reach of row j hold a multiplier in row j or p
        lo = max(0, j - reach)
        blk = rows[:, lo:j]
        at_j, at_p = blk == j, blk == p
        blk[at_j], blk[at_p] = p, j
        reach = max(reach, int(np.max(blk - np.arange(lo, j), initial=0)))
        if reach * reach > budget:  # the band that holds this column is wider
            return None
    # L': the multipliers, but the slots below row n - 1 of the last
    # columns, which the loop never moves and no sweep reads
    mult = lu[kl + ku + 1:]
    t, j = np.nonzero((rows < n) & (mult != 0))
    lower = _unit_bands(rows[t, j], j, mult[t, j], n, kl, lower=True)
    del rows
    # U': lu's row t holds U's entries kl + ku - t above the diagonal, in
    # the rows i; its slots with i < 0, in the first columns, are not U's
    diag = lu[kl + ku]
    t, j = np.nonzero(lu[:kl + ku])
    i = j - (kl + ku - t)
    t, j, i = t[i >= 0], j[i >= 0], i[i >= 0]
    upper = _unit_bands(i, j, lu[t, j] / diag[i], n, ku, lower=False)
    entries = n + sum((0 if ab is None else ab.size) + (0 if cross is None else cross[2].size)
                      for _, _, ab, cross in lower + upper)
    if entries > budget:
        return None
    rank = np.empty_like(order)  # the position of each state index in the order
    rank[order] = np.arange(n)
    return _Folded(gather, rank, lower, 1.0 / diag, upper)


def _unit_bands(rows, cols, vals, n: int, width: int, lower: bool):
    """Cut the n x n unit triangular factor, lower or upper, whose
    entries off the diagonal are vals at (rows, cols), into at most three
    bands of columns: the columns before the bulk, the bulk, and the
    columns after it.  The bulk holds no column that reaches more than
    width from the diagonal, and the cuts are where the band entries are
    fewest.  Each band is as wide as its own columns reach within it; the
    entries of its columns in rows outside it (below it for a lower
    factor, above it for an upper one) form one dense block, applied
    after its sweep.

    Returns the bands in sweep order (forward for lower, backward for
    upper), each (lo, k, ab, cross): ab in dtbsv's storage of width k for
    the columns [lo, lo + ab.shape[1]), or None for k = 0, and cross,
    (r0, c0, E) with E at rows r0.. and columns c0.., or None."""
    dist = np.abs(rows - cols)
    reach = np.zeros(n, dtype=int)
    np.maximum.at(reach, cols, dist)
    big = np.flatnonzero(reach > width)
    # at the split i the bulk is [a[i], b[i]): the wider columns big[:i]
    # lie before it and big[i:] after it
    a, b = np.concatenate([[0], big + 1]), np.concatenate([big, [n]])
    w_a = np.concatenate([[0], np.maximum.accumulate(reach[big])])
    w_b = np.concatenate([np.maximum.accumulate(reach[big][::-1])[::-1], [0]])
    i = np.argmin(a * (w_a + 1) + (b - a) * (width + 1) + (n - b) * (w_b + 1))
    a, b = int(a[i]), int(b[i])
    bands = []
    for lo, hi in ((0, a), (a, b), (b, n)):
        mine = (cols >= lo) & (cols < hi)
        inside = mine & (rows >= lo) & (rows < hi)
        d = dist[inside]
        kb = int(np.max(d, initial=0))
        ab = None
        if kb:
            ab = np.zeros((kb + 1, hi - lo), order="F")
            ab[d if lower else kb - d, cols[inside] - lo] = vals[inside]
        cross = None
        out = mine & ~inside
        if np.any(out):
            r, c = rows[out], cols[out]
            r0, c0 = int(r.min()), int(c.min())
            E = np.zeros((r.max() + 1 - r0, c.max() + 1 - c0), order="F")
            E[r - r0, c - c0] = vals[out]
            cross = (r0, c0, E)
        if ab is not None or cross is not None:
            bands.append((lo, kb, ab, cross))
    return bands if lower else bands[::-1]


def _sweep(bands, y, lower: int):
    """Solve with the unit triangular factor of `_unit_bands`' bands, in
    place in y: one BLAS dtbsv call per band and one dgemv per block of
    entries that cross a cut."""
    for lo, k, ab, cross in bands:
        if ab is not None:
            dtbsv(k, ab, y, offx=lo, lower=lower, diag=1, overwrite_x=1)
        if cross is not None:
            r0, c0, E = cross
            dgemv(-1.0, E, y, 1.0, y, offx=c0, offy=r0, overwrite_y=1)


class _Folded:
    """The solve of `_fold`: gather the right side by the order and the
    interchanges, solve in place with L', 1/D and U' (`sweep`), and
    gather the result back by rank, the inverse of the order.  It agrees
    with dgbtrs on the same factors to rounding.  A 2-D right side is
    solved column by column."""

    __slots__ = ("gather", "rank", "lower", "dinv", "upper")

    def __init__(self, gather, rank, lower, dinv, upper):
        self.gather, self.rank = gather, rank
        self.lower, self.dinv, self.upper = lower, dinv, upper

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if r.ndim == 1:
            return self._solve(r)
        out = np.empty_like(r)
        for i in range(r.shape[1]):
            out[:, i] = self._solve(r[:, i])
        return out

    def _solve(self, r):
        y = r[self.gather]
        self.sweep(y)
        return y[self.rank]

    def sweep(self, y):
        """Overwrite y, gathered, with the solution in the order: the
        sweeps of L', one product with 1/D, the sweeps of U'."""
        _sweep(self.lower, y, 1)
        y *= self.dinv
        _sweep(self.upper, y, 0)


def _dense(A):
    """The solve with a dense A by LAPACK's dense LU, which overwrites A
    (column-major, so LAPACK takes it without a copy)."""
    lu, piv, info = dgetrf(A, overwrite_a=True)
    if info > 0:  # U has an exact zero on its diagonal
        return _singular
    return lambda r: dgetrs(lu, piv, r)[0]


def _superlu(A):
    """The solve with a sparse A by SuperLU."""
    try:
        return splu(A.tocsc()).solve
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return _singular


def _newton_solver(M: MonotoneOperatorSpec, shift: float):
    """Return solve(x, r) = (DM(x) + shift I)^{-1} r by one `_Factor` in
    M's order: L + shift I is laid out and filled here, and each call
    adds phi'(x) at its fixed diagonal positions."""
    factor = _Factor(M.linear_part, shift, M._diagonal_coords, M.order)
    return lambda x, r: factor.solver(M._diagonal(x))(r)


def _linear_step(M: MonotoneOperatorSpec, h: float, theta: float, b: np.ndarray):
    """Return (step, solve) for a linear M under the constant input b, a
    (dim,) array: the step of `implicit_stepper`, residual 0, and the
    solve with F = I + theta*h*L, factored once by one `_Factor` in M's
    order (`_Factor.step_solver`).  The step's right side needs no
    product with L: I - (1-theta)*h*L = I/theta - ((1-theta)/theta) F, so

        z_next = F^{-1} (z/theta + h (b - g)) - ((1-theta)/theta) z,

    one solve and two vector operations after the drive h (b - g), formed
    here once; at theta = 1 the last term is dropped.  With a `_Folded`
    solve the drive is gathered once, and each step gathers z into a
    buffer, scales it by 1/theta, adds the drive, sweeps in place and
    gathers the result by rank straight into out.
    """
    solve = _Factor((theta * h) * M.linear_part, 1.0, order=M.order).step_solver()
    scale, lag = 1.0 / theta, (1.0 - theta) / theta
    drive = h * (b - M.offset)
    if not isinstance(solve, _Folded):
        def step(z, out):
            out[:] = solve(z * scale + drive)
            if lag:
                out -= lag * z
            return 0.0

        return step, solve

    gather, rank, drive = solve.gather, solve.rank, drive[solve.gather]
    zg, y = np.empty(M.dim), np.empty(M.dim)

    def step(z, out):
        # gather and rank are permutations: mode="clip" only skips the
        # bounds checks
        z.take(gather, out=zg, mode="clip")
        np.multiply(zg, scale, out=y)
        np.add(y, drive, out=y)
        solve.sweep(y)
        y.take(rank, out=out, mode="clip")
        if lag == 1.0:  # midpoint: lag * z is z
            np.subtract(out, z, out=out)
        elif lag:
            np.subtract(out, np.multiply(z, lag, out=zg), out=out)
        return 0.0

    return step, solve


def _theta_newton(M: MonotoneOperatorSpec, h: float, theta: float, norm, tol: float):
    """Return run(z, b, predictor, r_z=None) -> (p, residual): `newton`
    on the implicit theta-step of M from z with input b,

        R(p) = p - z - h (-M(theta p + (1-theta) z) + b) = 0,

    from whichever of z and predictor has the smaller norm(R) (r_z is
    R(z) when the caller has it).  Each iteration solves
    (I + theta*h DM(stage)) s = R as (I/(theta*h) + DM) s = R/(theta*h),
    so the shift is one addition on the diagonal (`_newton_solver`)."""
    c = theta * h
    solve_at = _newton_solver(M, 1.0 / c)

    def run(z, b, predictor, r_z=None):
        rest = (1.0 - theta) * z  # the stage is theta p + rest

        def residual(p):  # b - M(stage) is -M(stage) + b, bit for bit
            return p - z - h * (b - M._apply(theta * p + rest))

        def solve(p, r):
            return solve_at(theta * p + rest, r / c)

        if r_z is None:
            r_z = residual(z)
        r_pred = residual(predictor)
        res_pred, res_z = norm(r_pred), norm(r_z)
        x0, r0, res0 = ((predictor, r_pred, res_pred) if res_pred <= res_z
                        else (z, r_z, res_z))
        return newton(residual, solve, x0, norm, tol, r0, res0)

    return run


def implicit_stepper(M: MonotoneOperatorSpec, h: float, theta: float, metric: Metric,
                     tol: float, b):
    """Return step(z, out) -> residual for the implicit step

        z_next = z + h * (-M(theta*z_next + (1-theta)*z) + b)

    under the constant input b, a scalar or a (dim,) vector, which is
    copied here once into a (dim,) array; a b of another shape raises
    DimensionMismatch.  Each step writes z_next into out, the caller's
    row, which must not be z, and returns the metric norm of the step
    equation's defect.  theta = 1 with b = 0 is the resolvent
    (I + h M)^{-1}; theta = 1/2 is the implicit midpoint rule.  The
    structure of M picks one of three paths:

    - Linear M factors I + theta*h*L once, folds its row interchanges
      into M's order, and steps with one solve and no product with L
      (`_linear_step`).  It measures no defect and reports residual 0;
      a non-finite z_next is the caller's to refuse (`FlowStream`
      checks each block once, `semigroup_approx` each step).
    - When M's nodewise part phi lives in leading coordinates [0, d1)
      that M's order keeps in front and in place (a member without an
      order put first, as `couple` puts the plant), the rest of M is
      linear and banded; the step eliminates it and runs the Newton
      run of `_theta_newton` on the d1 leading coordinates alone, see
      `_condensed_stepper`.
    - Otherwise the step is the Newton run of `_theta_newton` on all of
      M, with the explicit predictor z + h*(-M(z) + b) as its
      alternative start.
    """
    b = np.asarray(b, dtype=float)
    if b.shape not in ((), (M.dim,)):
        raise DimensionMismatch(f"step input b has shape {b.shape}, expected () or ({M.dim},)")
    b = np.full(M.dim, b)
    if M.is_linear:
        return _linear_step(M, h, theta, b)[0]
    if M.order is not None:
        d1 = max(p.hi for p in M.nodewise)
        if d1 < M.dim and np.array_equal(M.order[:d1], np.arange(d1)):
            return _condensed_stepper(M, d1, h, theta, metric, tol, b)

    run = _theta_newton(M, h, theta, metric.norm, tol)

    def step(z, out):
        # the step residual at z_next = z is -drift, so the start costs
        # no more evaluations of M than the predictor alone
        drift = h * (b - M._apply(z))
        out[:], res = run(z, b, z + drift, -drift)
        return res

    return step


def _condensed_stepper(M: MonotoneOperatorSpec, d1: int, h: float, theta: float,
                       metric: Metric, tol: float, b: np.ndarray):
    """The implicit theta-step of M(x) = L x + g + phi(x) with phi on the
    leading coordinates [0, d1) alone, with the linear rest eliminated
    exactly: the step of `implicit_stepper` for the constant input b, a
    (dim,) array split here once into b1 and b2 at d1.

    Split L into blocks at d1, L = [[L11, K12], [K21, L22]] (for a closed
    loop: the plant, the coupling and the optimizer), member 1 is
    M1(x1) = L11 x1 + g1 + phi(x1) and member 2 is linear.  With
    c = theta*h and F = I + c L22, the member-2 rows of the step give its
    next state as o = a - h V s, where a is member 2's own linear step
    from z2 with input b2, s = theta p + (1-theta) z1 is member 1's stage
    and V = F^{-1} K21.  So the Newton run of `_theta_newton` solves for
    member 1's next state p alone, as the theta-step of
    Mc(s) = M1(s) - G s, G = c K12 V (member 1 with member 2 folded in),
    with input -w, w = K12 (theta a + (1-theta) z2) - b1:

        R(p) = p - z1 + h (Mc(s) + w).

    Its Newton matrix I + c (DM1(s) - G) is d1 x d1: `_newton_solver`
    holds L11 - G in a `_Factor` without an order (dense LU), and each
    iteration adds phi' on its diagonal.
    F is factored once per stepper, and V and G are computed once from
    that factor (one solve with d1 columns), so each step costs one solve
    with F, one matrix-vector product with V, the Newton run in d1
    coordinates and one evaluation of M for the reported residual.
    The run's predictor is member 1's part of the full step's explicit
    predictor, so its iterates are the full Newton solve's, whose first
    step meets the linear rows exactly.  It stops on R's norm in member
    1's metric weights, which is the composed norm of a defect whose
    member-2 rows are zero; the step reports the norm of the full
    composed step defect, as the other paths do.
    """
    L, g = sparse.csr_matrix(M.linear_part), M.affine_offset
    c = theta * h
    L11, g1 = L[:d1, :d1].toarray(), None if g is None else g[:d1]
    M2 = MonotoneOperatorSpec(M.dim - d1, linear_part=L[d1:, d1:],
                              affine_offset=None if g is None else g[d1:],
                              order=M.order[d1:] - d1)
    b1 = b[:d1]
    step2, solve2 = _linear_step(M2, h, theta, b[d1:])
    # member 1 reads member 2 only at the port coordinates (a closed
    # loop's lam0), so K12 is kept as its small dense block in them
    K12 = L[:d1, d1:].tocsc()
    port = np.flatnonzero(np.diff(K12.indptr))
    K12 = K12[:, port].toarray()
    V = solve2(L[d1:, :d1].toarray())
    G = c * (K12 @ V[port])
    M1 = MonotoneOperatorSpec(d1, linear_part=L11, affine_offset=g1, nodewise=M.nodewise)
    Mc = MonotoneOperatorSpec(d1, linear_part=L11 - G, affine_offset=g1, nodewise=M.nodewise)
    run = _theta_newton(Mc, h, theta, Metric(metric.weights[:d1]).norm, tol)
    a = np.empty(M.dim - d1)  # member 2's own step, rewritten by every step
    lag = 1.0 - theta

    def step(z, out):
        z1, z2 = z[:d1], z[d1:]
        step2(z2, a)
        z2p = z2[port]
        w = K12 @ (theta * a[port] + lag * z2p) - b1
        # member 1's part of the explicit predictor z + h*(-M(z) + b)
        predictor = z1 + h * (b1 - M1._apply(z1) - K12 @ z2p)
        p, _ = run(z1, -w, predictor)
        out[:d1] = p
        o = np.matmul(V, theta * p + lag * z1, out=out[d1:])
        o *= -h
        o += a  # a - h V s
        # the full step defect z_next - z + h (M(stage) - b), in place
        defect = M._apply(theta * out + lag * z)
        defect -= b
        defect *= h
        defect += out
        defect -= z
        return metric.norm(defect)

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
    step = implicit_stepper(M, t / n, 1.0, metric or Metric.euclidean(M.dim), tol, 0.0)
    y = np.empty_like(x)
    for k in range(n):
        res = step(x, y)
        x, y = y, x  # the steps alternate between two buffers
        if not np.all(np.isfinite(x)):  # a linear step measures no defect
            res = np.inf
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
    if x_bar is not None:
        x_bar = np.asarray(x_bar, dtype=float)
        if x_bar.shape != (M.dim,):
            raise DimensionMismatch(
                f"x_bar has shape {x_bar.shape}, operator expects ({M.dim},)")
    min_gap = np.inf
    c_estimate = np.inf
    violation = False
    # the pairs in blocks of _ROW_BLOCK samples, X[i] = (x1, x2) of pair
    # i, drawn in the order of a loop over the pairs: x1 then x2, or x1
    # alone about x_bar
    for lo in range(0, n_pairs, _ROW_BLOCK // 2):
        k = min(_ROW_BLOCK // 2, n_pairs - lo)
        if x_bar is None:
            X = gen.standard_normal((k, 2, M.dim))
        else:
            X = np.empty((k, 2, M.dim))
            np.add(x_bar, gen.standard_normal((k, M.dim)), out=X[:, 0])
            X[:, 1] = x_bar
        sq, nd2, gaps = _pair_dots(M, metric, X)
        for i in range(k):
            if nd2[i] == 0.0:
                continue
            gap = float(gaps[i])
            min_gap = min(min_gap, gap)
            c_estimate = min(c_estimate, gap / float(nd2[i]))
            if gap < -tol * (1.0 + float(sq[i, 0]) + float(sq[i, 1])):
                violation = True
    return ProbeReport(float(min_gap), float(c_estimate), violation, n_pairs)


def _pair_dots(M: MonotoneOperatorSpec, metric: Metric, X: np.ndarray):
    """For the pairs X[i] = (x1, x2): the squared metric norms of x1 and
    x2, ||x1 - x2||^2 and <M(x1) - M(x2), x1 - x2>, each a dot product of
    contiguous rows, as `Metric.inner` takes it, with M evaluated on
    every sample at once."""
    w = metric.weights
    MX = _batch_eval(M, X.reshape(-1, M.dim))
    sq = _row_dots(w * X, X)
    D = X[:, 0] - X[:, 1]
    G = np.subtract(MX[0::2], MX[1::2], order="C")
    del MX  # three blocks of samples at most are alive at once
    return sq, _row_dots(w * D, D), _row_dots(w * G, D)


@dataclass(frozen=True)
class PowerBalanceReport:
    """Per-interval defect of the discrete power balance identity."""

    residuals: np.ndarray
    max_residual: float


def _batch_eval(M: MonotoneOperatorSpec, X: np.ndarray) -> np.ndarray:
    """Evaluate M on each row of X into a new array: one bound matrix
    product (see `operators`) plus the nodewise pieces."""
    return M._structured(X, M._product(X.T).T)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot of each pair of matching rows (last axis) of a and b, row
    by row as np.dot takes them (a stacked matmul of 1 x d by d x 1)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class ShiftedPassivityReport:
    """Shifted power balance residuals and passivity-inequality excesses."""

    equality_residuals: np.ndarray
    inequality_excess: np.ndarray
    max_equality_residual: float
    max_inequality_excess: float

    def passive(self, tol: float = 1e-9) -> bool:
        return self.max_inequality_excess <= tol


class PowerBalance:
    """The fold of both audits over a run of sys (see `fold`): the power
    balance, and shifted passivity about the steady state ss if given.

    Each block is evaluated at the run's theta stage, the states
    xs = theta x+ + (1 - theta) x and inputs us, by one evaluation of M
    and one output y = B* xs; the energy rate is taken less
    lag = (1 - 2 theta) ||x+ - x||^2 / (2h), by which the theta-step's
    rate exceeds its stage balance (0 at midpoint).  Given ss, the same
    M(xs), y, xs and us are then shifted in place by M(x_bar), y_bar,
    x_bar and u_bar; y is freed before M is evaluated, so the two never
    add up in the fold's peak memory.

    xs and us are views of two buffers allocated once per run, which the
    next block overwrites.  xs is column-major, the layout in which a
    product S @ xs.T with a sparse S (the linear part of a drift, the
    output map) reads it without a transposed copy.  A block of k
    intervals fills the first k * dim entries of a buffer, so a short
    block is as contiguous as a full one.  A column-major xs is summed in
    a row-major temporary that is freed before the product with L.
    """

    def __init__(self, sys: PHSystem, run, ss: Optional[SteadyStatePair] = None):
        self.sys, self.ss = sys, ss
        self.theta, self.h = run.theta, run.step
        n = run.times.size - 1
        rows = min(n, _ROW_BLOCK)
        self.xs_buf = np.empty(rows * sys.dim)
        self.us_buf = np.empty(rows * sys.input_dim)
        width = max(sys.dim, sys.input_dim)
        self.tmp = None if self.theta == 0.5 else np.empty((rows, width))
        self.residuals = np.empty(n)
        if ss is None:
            return
        for name, dim in (("x_bar", sys.dim), ("u_bar", sys.input_dim),
                          ("y_bar", sys.input_dim)):
            shape = np.shape(getattr(ss, name))
            if shape != (dim,):
                raise DimensionMismatch(
                    f"steady state {name} has shape {shape}, expected ({dim},)")
        self.mx_bar = sys.M(np.asarray(ss.x_bar, dtype=float))
        self.eq_res, self.ineq = np.empty(n), np.empty(n)

    def _stage(self, v, buf, layout):
        k, d = v.shape[0] - 1, v.shape[1]
        s = buf[:k * d].reshape((k, d), order=layout)
        # a column-major stage is summed row-major and then copied: numpy
        # walks a sum of rows into columns strided, several times slower
        t = s if s.flags.c_contiguous else np.empty(s.shape)
        if self.theta == 0.5:  # midpoint: the plain average
            np.multiply(np.add(v[1:], v[:-1], out=t), 0.5, out=t)
        else:
            np.multiply(v[1:], self.theta, out=t)
            t += np.multiply(v[:-1], 1.0 - self.theta, out=self.tmp[:k, :d])
        if t is not s:
            np.copyto(s, t)
        return s

    def _rate(self, x, lag):
        """The energy rate of each interval of the states x, less lag."""
        return np.diff(0.5 * self.sys.metric.row_inner(x, x)) / self.h - lag

    def _inputs(self, u):
        """The stage inputs us of a block's intervals.  A constant input
        (a stride-0 view, as every `optimizer.stream_flow` input is) has
        one stage, formed from its first two rows and broadcast."""
        if u.strides[0] == 0:
            return np.broadcast_to(self._stage(u[:2], self.us_buf, "C"),
                                   (u.shape[0] - 1, u.shape[1]))
        return self._stage(u, self.us_buf, "C")

    def _supply(self, xs, us):
        """The supply <us, y> of each interval, and given ss the shifted
        <us - u_bar, y - y_bar>; y dies on return."""
        sys, ss = self.sys, self.ss
        y = sys.output(xs)
        supply = sys.input_metric.row_inner(us, y)
        if ss is None:
            return supply, None
        y -= ss.y_bar
        if us.strides[0] == 0:
            us = np.broadcast_to(us[0] - ss.u_bar, us.shape)
        else:
            us -= ss.u_bar
        return supply, sys.input_metric.row_inner(us, y)

    def add(self, lo: int, x: np.ndarray, u: np.ndarray):
        sys, ss, metric = self.sys, self.ss, self.sys.metric
        lag = 0.0  # at midpoint
        if self.theta != 0.5:
            k = x.shape[0] - 1
            dx = np.subtract(x[1:], x[:-1], out=self.tmp[:k, :x.shape[1]])
            lag = (1.0 - 2.0 * self.theta) * metric.row_inner(dx, dx) / (2.0 * self.h)
        rate = self._rate(x, lag)
        if ss is not None:  # x - x_bar is freed before the stage is formed
            rate_shifted = self._rate(x - ss.x_bar, lag)
        xs = self._stage(x, self.xs_buf, "F")
        us = self._inputs(u)
        supply, supply_shifted = self._supply(xs, us)
        mx = _batch_eval(sys.M, xs)
        rows = slice(lo, lo + xs.shape[0])
        self.residuals[rows] = rate - (-metric.row_inner(xs, mx) + supply)
        if ss is None:
            return
        mx -= self.mx_bar
        xs -= ss.x_bar  # the stage buffer: shifted in place, then overwritten
        gap = metric.row_inner(xs, mx)
        self.eq_res[rows] = rate_shifted - (-gap + supply_shifted)
        self.ineq[rows] = rate_shifted - supply_shifted

    def report(self):
        """(PowerBalanceReport, ShiftedPassivityReport or None without ss)."""
        pb = PowerBalanceReport(self.residuals,
                                float(np.max(np.abs(self.residuals), initial=0.0)))
        if self.ss is None:
            return pb, None
        eq, ineq = self.eq_res, self.ineq
        return pb, ShiftedPassivityReport(eq, ineq, float(np.max(np.abs(eq), initial=0.0)),
                                          float(np.max(ineq, initial=-np.inf)))


def _audit(sys: PHSystem, traj: Trajectory, ss: Optional[SteadyStatePair] = None):
    """The `PowerBalance` fold over the blocks of a stored trajectory of
    sys, whose state and input widths it checks first."""
    if traj.states.shape[1] != sys.dim:
        raise DimensionMismatch("trajectory state dimension mismatch")
    if traj.inputs.shape[1] != sys.input_dim:
        raise DimensionMismatch("trajectory input dimension mismatch")
    return fold(traj, PowerBalance(sys, traj, ss))[0]


def power_balance_audit(sys: PHSystem, traj: Trajectory) -> PowerBalanceReport:
    """Check d/dt 1/2||x||^2 = -<x, M(x)> + <u, y> interval by interval.

    The rate side is evaluated at the trajectory's theta stage
    x_s = theta x+ + (1 - theta) x, and the energy rate is taken less
    (1 - 2 theta) ||x+ - x||^2 / (2h), so trajectories of the implicit
    theta-step satisfy the identity to solver precision; at theta = 1/2
    (midpoint) the stage is the average and the extra term vanishes.
    The audit is the `PowerBalance` fold without a steady state over the
    trajectory's blocks of _ROW_BLOCK intervals, so no temporary grows
    with the trajectory.
    """
    return _audit(sys, traj)[0]


def shifted_passivity_audit(sys: PHSystem, traj: Trajectory,
                            ss: SteadyStatePair) -> ShiftedPassivityReport:
    """Audit the power balance and passivity relative to a steady state.

    Equality: d/dt 1/2||x-x_bar||^2 = -<x-x_bar, M(x)-M(x_bar)>
                                      + <u-u_bar, y-y_bar>.
    Inequality: the same rate is bounded by the shifted supply alone.
    Both take the theta stage and the energy-rate term of
    `power_balance_audit`: the audit is the `PowerBalance` fold given ss,
    which refuses an ss whose x_bar, u_bar or y_bar is misshapen.
    """
    return _audit(sys, traj, ss)[1]


def steady_state(sys: PHSystem, u_bar: np.ndarray, tol: float = 1e-10,
                 x_init: Optional[np.ndarray] = None) -> SteadyStatePair:
    """Solve M(x_bar) = B u_bar by one damped `newton` run from x_init
    (zero by default) that factors the Jacobian of M at each iterate
    (`_newton_solver`), banded in M's order when it carries one.  A
    linear M is its own Jacobian, so its first full step is exact.

    The run aims at min(tol, 1e-11 (1 + ||B u_bar||)) in the state
    metric: the scale of the problem, whatever the start.  It accepts
    any residual within tol; otherwise it raises NonConvergence with the
    residual it reached.
    """
    u_bar = np.asarray(u_bar, dtype=float).reshape(sys.input_dim)
    b = sys.B @ u_bar
    M, norm = sys.M, sys.metric.norm
    x0 = np.zeros(sys.dim) if x_init is None else np.asarray(x_init, dtype=float).copy()
    x, res = newton(lambda x: M(x) - b, _newton_solver(M, 0.0),
                    x0, norm, min(tol, 1e-11 * (1.0 + norm(b))))
    if not res <= tol:
        raise NonConvergence("steady-state residual above tolerance", residual=res)
    return SteadyStatePair(x, u_bar, sys.output(x))


def _columns(B, lo: int, hi: int):
    """(rows, columns - lo, values) of the columns [lo, hi) of an input
    matrix: the stored entries of a sparse (CSC) B, every entry of a
    dense one."""
    if sparse.issparse(B):
        s, e = B.indptr[lo], B.indptr[hi]
        cols = np.repeat(np.arange(hi - lo), np.diff(B.indptr[lo:hi + 1]))
        return B.indices[s:e], cols, B.data[s:e]
    r, c = np.divmod(np.arange(B.shape[0] * (hi - lo)), hi - lo)
    return r, c, B[:, lo:hi].ravel()


def _port(sys: PHSystem, split: int):
    """The state rows that the first split columns of sys.B reach, the
    dense block Bc of those columns on them, and on them its metric
    adjoint's block (Bc^T W) / w_port, entry by entry as
    `metric.adjoint` forms a sparse adjoint."""
    r, c, v = _columns(sys.B, 0, split)
    keep = v != 0
    rows, at = np.unique(r[keep], return_inverse=True)
    block = np.zeros((rows.size, split))
    block[at, c[keep]] = v[keep]
    star = (block.T * sys.metric.weights[rows]) / sys.input_metric.weights[:split, None]
    return rows, block, star


def _chain(A, F, S):
    """A @ F @ S for small dense factors, each product summed over its
    inner index in ascending order from 0, term by term.  These are the
    sums of scipy's sparse products (csr_matmat) of the same factors:
    it adds the terms of the stored entries in that order, and the terms
    of the zeros it skips change no finite sum."""
    P = np.zeros((A.shape[0], F.shape[1]))
    for j in range(F.shape[0]):
        P += A[:, j, None] * F[j]
    K = np.zeros((A.shape[0], S.shape[1]))
    for k in range(S.shape[0]):
        K += P[:, k, None] * S[k]
    return K


def _coupling_entries(sys1: PHSystem, sys2: PHSystem, F: np.ndarray,
                      split1: int, split2: int):
    """(rows, columns, values) of `coupling_block`, every value nonzero."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if not (0 <= split1 <= sys1.input_dim and 0 <= split2 <= sys2.input_dim):
        raise DimensionMismatch("port split outside the input dimension")
    if F.shape != (split1, split2):
        raise DimensionMismatch(
            f"coupling map F has shape {F.shape}, expected ({split1}, {split2})"
        )
    p1, _ = sys1.input_metric.split(split1)
    p2, _ = sys2.input_metric.split(split2)
    rows1, B1c, b1c_star = _port(sys1, split1)
    rows2, B2c, b2c_star = _port(sys2, split2)
    d1 = sys1.dim
    blocks = ((rows1, d1 + rows2, _chain(B1c, F, b2c_star)),
              (d1 + rows2, rows1, _chain(-B2c, adjoint(F, p2, p1), b1c_star)))
    entries = []
    for r, c, K in blocks:
        i, j = np.nonzero(K)
        entries.append((r[i], c[j], K[i, j]))
    return tuple(map(np.concatenate, zip(*entries)))


def coupling_block(sys1: PHSystem, sys2: PHSystem, F: np.ndarray,
                   split1: int, split2: int) -> sparse.csr_matrix:
    """Sparse skew coupling block added to diag(M1, M2) by interconnect.

    Its two blocks, B1c F b2c* in the rows of system 1 and its partner
    -B2c F* b1c* in the rows of system 2, have rank at most
    min(split1, split2) and are nonzero only in the rows and columns
    that the coupled ports touch.  Both are formed on those rows and
    columns alone (`_chain`), bit for bit as the sparse products
    `B1c @ F @ b2c*` and `-B2c @ F* @ b1c*` give them, with no stored
    zero.
    """
    dim = sys1.dim + sys2.dim
    return _compressed(*_coupling_entries(sys1, sys2, F, split1, split2), (dim, dim))


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
    B_i is.  The composition has the members' form: its L is the sparse
    K + diag(L1, L2), its g the members' offsets and its nodewise pieces
    those of both members, member 2's shifted by its offset in the
    state, so nested loops flatten into one operator.  When either
    member carries an order, the composition carries their
    concatenation (the identity
    for a member without one): `couple` puts the plant first, so a
    closed loop's order is the plant ahead of the optimizer's time
    stages, and its matrices stay banded.  L and a sparse B are placed
    by their index arrays, one construction each; L stores no zero, and
    B every entry of a dense member's block.
    """
    d1, dim = sys1.dim, sys1.dim + sys2.dim
    M1, M2 = sys1.M, sys2.M
    affine = None
    if M1.affine_offset is not None or M2.affine_offset is not None:
        affine = np.concatenate([M1.offset, M2.offset])
    nodewise = M1.nodewise + tuple(Nodewise(p.lo + d1, p.hi + d1, p.fn, p.dfn)
                                   for p in M2.nodewise)
    order = None
    if M1.order is not None or M2.order is not None:
        order = np.concatenate([np.arange(M1.dim) if M1.order is None else M1.order,
                                d1 + (np.arange(M2.dim) if M2.order is None else M2.order)])
    (r1, c1, v1), (r2, c2, v2) = _entries(M1.linear_part), _entries(M2.linear_part)
    rk, ck, vk = _coupling_entries(sys1, sys2, F, split1, split2)
    rows, cols, vals = (np.concatenate(e) for e in ((rk, r1, d1 + r2), (ck, c1, d1 + c2),
                                                     (vk, v1, v2)))
    keep = vals != 0
    L = _compressed(rows[keep], cols[keep], vals[keep], (dim, dim))

    o1, o2 = sys1.input_dim - split1, sys2.input_dim - split2
    if sparse.issparse(sys1.B) or sparse.issparse(sys2.B):
        (r1, c1, v1), (r2, c2, v2) = (_columns(sys1.B, split1, sys1.input_dim),
                                      _columns(sys2.B, split2, sys2.input_dim))
        B = _compressed(np.concatenate([r1, d1 + r2]), np.concatenate([c1, o1 + c2]),
                        np.concatenate([v1, v2]), (dim, o1 + o2), "csc")
    else:
        B = np.zeros((dim, o1 + o2))  # each block added onto zeros, as toarray does
        B[:d1, :o1] += sys1.B[:, split1:]
        B[d1:, o1:] += sys2.B[:, split2:]
    _, open1 = sys1.input_metric.split(split1)
    _, open2 = sys2.input_metric.split(split2)
    return PHSystem(
        MonotoneOperatorSpec(dim, L, affine, nodewise, order),
        B,
        sys1.metric.concat(sys2.metric),
        open1.concat(open2),
    )

