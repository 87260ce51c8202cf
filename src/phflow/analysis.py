"""Stability diagnostics for the drift operators.

The flow under audit is dz/dt = -M(z); its generator at an equilibrium
is A = -DM(x_bar), so a negative spectral abscissa of A certifies local
exponential stability, and a positive-definite solution P of

    A^T P + P A = -I

certifies it constructively.  Because the toolkit's inner products are
weighted, certificates are computed in the Euclidean coordinates
W^(1/2) x (a similarity); eigenvalues are unaffected, Lyapunov quadratic
forms are evaluated in the transformed frame.

The Jacobian is sparse, and so is everything here but the Schur factor
and the solve.  Each function takes a dense or a scipy sparse matrix and
first brings it to one canonical CSR form (sorted, no duplicates, no
stored zeros), so a dense input and its CSR form give the same bits.
`metric_generator`, `saddle_blocks` and `nonnormality` work on that
form; only the coupling block's singular values are taken densely.

The certificate factors A once: the real Schur form A^T = U T U^T gives
the abscissa and Hurwitz test (the largest diagonal entry of T) and the
Bartels-Stewart reduction T Y + Y T^T = -I (U^T (-I) U = -I for the
orthogonal U), P = U Y U^T.  It holds three dense arrays, T, U and Y:
T is factored in the buffer that held A^T, and once Y is solved T's
buffer takes U Y and Y's takes P.  The triangular Sylvester equation is
solved by recursive blocking (Jonsson and Kagstrom, ACM TOMS 28(4),
2002): halve the larger side, update the off-diagonal block with one
matrix product, and hand blocks of at most _LEAF rows to LAPACK's
`dtrsyl`.  The residual is taken from the CSR A, _ROWS rows at a time.
The dense work is capped at dimension 2000.

`spectral_abscissa` takes the abscissa from a full `eigvals` instead.
It is the independent oracle the tests hold the certificate's abscissa
to; no CLI path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import get_lapack_funcs, schur
from scipy.linalg.lapack import dtrsyl

from .errors import (DimensionMismatch, EigenFailure, InsufficientData,
                     InvalidParameter, NotHurwitz)
from .metric import Metric, adjoint as metric_adjoint

_DENSE_DIM_CAP = 2000

# largest side of a block of the recursive Sylvester solve that goes to
# LAPACK's level-2 dtrsyl; everything above it is matrix products
_LEAF = 64

# rows of the Lyapunov residual A^T P + P A + I formed at a time
_ROWS = 64


def _square(mat) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise InvalidParameter("matrix must be square")
    return mat


def _check_dense(n: int) -> None:
    """Refuse a dense solve of an empty matrix or one above the cap."""
    if n == 0:
        raise InvalidParameter("matrix is empty")
    if n > _DENSE_DIM_CAP:
        raise InvalidParameter(
            f"dense solves are capped at dimension {_DENSE_DIM_CAP}"
        )


def _csr(mat) -> sparse.csr_matrix:
    """A new CSR copy of the square matrix mat in canonical form: sorted
    indices, no duplicates and no stored zeros, so that a dense matrix
    and any sparse form of it give the same arrays."""
    if not sparse.issparse(mat):
        return sparse.csr_matrix(_square(mat))
    out = sparse.csr_matrix(mat, dtype=float, copy=True)
    if out.shape[0] != out.shape[1]:
        raise InvalidParameter("matrix must be square")
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def _scaled(mat: sparse.csr_matrix, left: np.ndarray,
            right: np.ndarray) -> sparse.csr_matrix:
    """diag(left) mat diag(1 / right), each stored entry as in the dense
    formula (left_i m_ij) / right_j; mat's data is overwritten."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    mat.data = (left[rows] * mat.data) / right[mat.indices]
    return mat


def spectral_abscissa(DM: np.ndarray) -> float:
    """Max real part of the spectrum of the generator -DM, by `eigvals`.

    Negative values certify local exponential stability of dz/dt = -M(z)
    near the expansion point.  The independent oracle for the abscissa
    that `lyapunov_certificate` reads off its Schur form; no CLI path
    calls it.
    """
    DM = _square(DM)
    _check_dense(DM.shape[0])
    try:
        eigs = np.linalg.eigvals(-DM)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigensolve failed: {exc}")
    return float(np.max(eigs.real))


@dataclass(frozen=True)
class LyapunovCertificate:
    """Solution of A^T P + P A = -I, its defect and definiteness, and A's abscissa."""

    P: np.ndarray
    residual: float
    min_eig_P: float
    abscissa: float

    def valid(self, tol: float = 1e-8) -> bool:
        return self.min_eig_P > 0 and self.residual <= tol

    def quadratic_form(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        return np.einsum("...i,ij,...j->...", h, self.P, h)


def _split(T: np.ndarray) -> int:
    """Half the order of the quasi-triangular T, moved down one row
    where it would cut a 2x2 block."""
    k = T.shape[0] // 2
    return k + 1 if T[k, k - 1] != 0.0 else k


def _sylvester(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """Overwrite C with the solution X of A X + X B^T = C, for A and B
    in standardized real Schur form (upper quasi-triangular).

    The larger side of C is halved: with A = [[A11, A12], [0, A22]] the
    lower block row is solved first and A12 X2 taken off the upper one;
    with B split alike the right block column is solved first and
    X2 B12^T taken off the left one.  Blocks of at most _LEAF rows and
    columns go to `dtrsyl`, whose scale factor must be 1: LAPACK sets it
    below 1 to avoid an overflow, and that is reported, never rescaled.
    """
    m, n = C.shape
    if m <= _LEAF and n <= _LEAF:
        x, scale, info = dtrsyl(A, B, C, tranb="T")
        if info < 0 or scale != 1.0:
            raise EigenFailure(
                f"triangular Sylvester solve failed (info {info}, scale {scale:.3e})")
        C[...] = x
    elif m >= n:
        k = _split(A)
        _sylvester(A[k:, k:], B, C[k:])
        C[:k] -= A[:k, k:] @ C[k:]
        _sylvester(A[:k, :k], B, C[:k])
    else:
        k = _split(B)
        _sylvester(A, B[k:, k:], C[:, k:])
        C[:, :k] -= C[:, k:] @ B[:k, k:].T
        _sylvester(A, B[:k, :k], C[:, :k])


def lyapunov_certificate(A) -> LyapunovCertificate:
    """Certificate for the generator A (the flow matrix, A = -DM), dense
    or sparse.

    One real Schur factorization A^T = U T U^T serves the Hurwitz test
    and the solve.  In the standardized form each 2x2 block of T has
    equal diagonal entries, the real part of its eigenvalue pair, so
    the abscissa of A, carried by the result, is max diag(T).  Raises
    NotHurwitz with it when it is not below -1e-13, before any solve.
    """
    A = _csr(A)
    n = A.shape[0]
    _check_dense(n)
    T = A.toarray().T  # A^T, Fortran-ordered: dgees factors it in place
    try:
        # dgees' workspace query on T itself; schur's own query would
        # run on a copy and keep it alive through the factorization
        gees = get_lapack_funcs("gees", (T,))
        lwork = int(gees(lambda x: None, T, lwork=-1, overwrite_a=1)[-2][0])
        T, U = schur(T, output="real", lwork=lwork, overwrite_a=True)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise EigenFailure(f"Schur factorization failed: {exc}")
    abscissa = float(np.max(np.diag(T)))
    if abscissa >= -1e-13:
        raise NotHurwitz(f"generator abscissa {abscissa:.3e} is not negative",
                         abscissa=abscissa)
    Y = np.zeros((n, n))
    np.fill_diagonal(Y, -1.0)  # U^T (-I) U for the orthogonal U
    _sylvester(T, T, Y)
    UY = T.T  # T's buffer as a C-ordered view, so that matmul uses BLAS
    np.matmul(U, Y, out=UY)
    np.matmul(UY, U.T, out=Y)
    P = np.add(Y, Y.T, out=UY)
    P *= 0.5
    del U, Y  # only P stays for the residual and eigvalsh's copy of it
    At = A.T.tocsr()
    peaks = []
    for lo in range(0, n, _ROWS):
        hi = min(lo + _ROWS, n)
        block = At[lo:hi] @ P + P[lo:hi] @ A  # rows lo:hi of A^T P + P A
        block[np.arange(hi - lo), np.arange(lo, hi)] += 1.0
        peaks.append(np.max(np.abs(block)))
    residual = float(np.max(peaks))
    min_eig = float(np.min(np.linalg.eigvalsh(P)))
    return LyapunovCertificate(P, residual, min_eig, abscissa)


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit value(t) ~ amplitude * exp(-c_fit * (t - t0))."""

    c_fit: float
    amplitude: float


def _log_linear_fit(times: np.ndarray, values: np.ndarray):
    """Least-squares fit of log(values) against time over the positive
    samples; returns (decay rate, amplitude at the first such sample)."""
    mask = values > 0
    if np.count_nonzero(mask) < 2:
        raise InsufficientData("need at least two positive samples to fit a rate")
    t = times[mask]
    slope, intercept = np.polyfit(t - t[0], np.log(values[mask]), 1)
    return -float(slope), float(np.exp(intercept))


def decay_fit(times: np.ndarray, values: np.ndarray) -> DecayFit:
    """Least-squares fit of log(value) against time."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    for name, v in (("times", times), ("values", values)):
        if v.ndim != 1:
            raise DimensionMismatch(f"decay fit {name} must be 1-D, got shape {v.shape}")
    if times.size != values.size:
        raise InsufficientData("times and values must have equal length")
    if times.size < 10:
        raise InsufficientData("need at least 10 samples")
    if np.any(values <= 0):
        raise InsufficientData("decay fit needs strictly positive values")
    return DecayFit(*_log_linear_fit(times, values))


def nonnormality(A) -> float:
    """Commutator defect ||A^T A - A A^T||_F; zero for normal matrices.

    Large values warn that eigenvalue-based rate predictions may be
    defeated by transient growth.  Both products are sparse.
    """
    A = _csr(A)
    At = A.T.tocsr()
    return float(np.linalg.norm((At @ A - A @ At).data))


@dataclass(frozen=True)
class SaddleBlocks:
    """Block decomposition DM = [[M1, -M2*], [M2, 0]] when it applies;
    the blocks are CSR."""

    m1: sparse.csr_matrix
    m2: sparse.csr_matrix
    m2_star: sparse.csr_matrix
    dual_block_max: float
    adjoint_gap: float
    sigma_min_m2: float


def saddle_blocks(DM, primal_dim: int, primal_metric: Metric,
                  dual_metric: Metric) -> SaddleBlocks:
    """Extract and verify the structured saddle form of a drift Jacobian,
    dense or sparse.

    Reports how far the dual-dual block is from zero, how far the
    primal-dual block is from the metric adjoint of the dual-primal
    block, and the smallest singular value of the (weighted) coupling
    block, whose positivity is the surjectivity hypothesis behind the
    exponential-stability certificate.  Only that block is made dense,
    for its singular values.
    """
    DM = _csr(DM)
    p = primal_dim
    m1 = DM[:p, :p]
    m2 = DM[p:, :p]
    m2_star = -DM[:p, p:]
    dual_block_max = float(np.max(np.abs(DM[p:, p:].data), initial=0.0))
    expected = metric_adjoint(m2, primal_metric, dual_metric)
    adjoint_gap = float(np.max(np.abs((m2_star - expected).data), initial=0.0))
    weighted = _scaled(m2.copy(), np.sqrt(dual_metric.weights),
                           np.sqrt(primal_metric.weights)).toarray()
    sigma_min = float(np.linalg.svd(weighted, compute_uv=False).min())
    return SaddleBlocks(m1, m2, m2_star, dual_block_max, adjoint_gap, sigma_min)


def metric_generator(DM, metric: Metric):
    """Generator -DM in the Euclidean coordinates W^(1/2) x, each entry
    -(w_i^(1/2) m_ij) / w_j^(1/2): CSR for a sparse DM, dense for a
    dense one."""
    gen = _csr(DM)
    if gen.shape[0] != metric.dim:
        raise DimensionMismatch(
            f"Jacobian has dimension {gen.shape[0]}, metric {metric.dim}")
    s = np.sqrt(metric.weights)
    _scaled(gen, -s, s)
    return gen if sparse.issparse(DM) else gen.toarray()
