"""The package's linear algebra, in a leaf module of numpy and scipy: the
damped Newton run (`newton`), the factor of every linear solve (`Factor`)
and the index arrays of sparse assembly (`entries`, `compressed`).

A `Factor` lays out and fills L + shift I once and factors it, plus a
diagonal d, by LAPACK's banded LU (`dgbtrf`) in an operator's `order`
(the optimizer's time-stage order, or a closed loop's), and otherwise
by LAPACK's dense LU or, when sparse, SuperLU.  A Newton iteration
copies the base, adds d = phi' on its diagonal and solves with
`dgbtrs`.  A linear step factors once with no d, folds dgbtrf's row
interchanges into its order and scales U to a unit diagonal (`_fold`),
and solves each step by unit triangular sweeps over bands only as wide
as their columns reach (`_unit_bands`), with no product with L.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dgemv, dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs
from scipy.sparse.linalg import splu

_NEWTON_MAX_ITER = 50


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


def entries(A):
    """(rows, columns, values) of the stored entries of a CSR or CSC A, in
    the order of its data, or of every entry of a dense A in row-major
    order."""
    if not sparse.issparse(A):
        return (*np.divmod(np.arange(A.size), A.shape[1]), A.ravel())
    major = np.repeat(np.arange(A.indptr.size - 1), np.diff(A.indptr))
    return (major, A.indices, A.data) if A.format == "csr" else (A.indices, major, A.data)


def compressed(rows, cols, vals, shape, fmt: str = "csr"):
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


class Factor:
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
        r, c, data = entries(L)
        i, j = rank[r], rank[c]  # band row and column of each entry
        self.kl = int(np.max(i - j, initial=0))
        self.ku = int(np.max(j - i, initial=0))
        # LAPACK band storage, column-major: entry (i, j) at row kl + ku + i - j
        # of column j; the top kl rows hold the fill of the row interchanges
        ldab = 2 * self.kl + self.ku + 1
        self.base = np.zeros(ldab * self.order.size)
        pos = self.kl + self.ku + i - j + ldab * j
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
