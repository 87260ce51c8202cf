"""Stability diagnostics for the drift operators.

Everything here works on dense matrices at desk scale (hard cap 2000).
The flow under audit is dz/dt = -M(z); its generator at an equilibrium
is A = -DM(x_bar), so a negative spectral abscissa of A certifies local
exponential stability, and a positive-definite solution P of

    A^T P + P A = -I

certifies it constructively.  Because the toolkit's inner products are
weighted, certificates are computed in the Euclidean coordinates
W^(1/2) x (a similarity); eigenvalues are unaffected, Lyapunov quadratic
forms are evaluated in the transformed frame.

The certificate factors A once: the real Schur form A^T = U T U^T gives
the abscissa and Hurwitz test (the largest diagonal entry of T) and the
Bartels-Stewart reduction T Y + Y T^T = U^T (-I) U, P = U Y U^T.  That
triangular Sylvester equation is solved by recursive blocking (Jonsson
and Kagstrom, ACM TOMS 28(4), 2002): halve the larger side, update the
off-diagonal block with one matrix product, and hand blocks of at most
_LEAF rows to LAPACK's `dtrsyl`.

`spectral_abscissa` takes the abscissa from a full `eigvals` instead.
It is the independent oracle the tests hold the certificate's abscissa
to; no CLI path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur
from scipy.linalg.lapack import dtrsyl

from .errors import (DimensionMismatch, EigenFailure, InsufficientData,
                     InvalidParameter, NotHurwitz)
from .metric import Metric, adjoint as metric_adjoint

_DENSE_DIM_CAP = 2000

# largest side of a block of the recursive Sylvester solve that goes to
# LAPACK's level-2 dtrsyl; everything above it is matrix products
_LEAF = 64


def _check_square(mat) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise InvalidParameter("matrix must be square")
    if mat.shape[0] > _DENSE_DIM_CAP:
        raise InvalidParameter(
            f"dense solves are capped at dimension {_DENSE_DIM_CAP}"
        )
    return mat


def spectral_abscissa(DM: np.ndarray) -> float:
    """Max real part of the spectrum of the generator -DM, by `eigvals`.

    Negative values certify local exponential stability of dz/dt = -M(z)
    near the expansion point.  The independent oracle for the abscissa
    that `lyapunov_certificate` reads off its Schur form; no CLI path
    calls it.
    """
    DM = _check_square(DM)
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


def lyapunov_certificate(A: np.ndarray) -> LyapunovCertificate:
    """Certificate for the generator A (the flow matrix, A = -DM).

    One real Schur factorization A^T = U T U^T serves the Hurwitz test
    and the solve.  In the standardized form each 2x2 block of T has
    equal diagonal entries, the real part of its eigenvalue pair, so
    the abscissa of A, carried by the result, is max diag(T).  Raises
    NotHurwitz with it when it is not below -1e-13, before any solve.
    """
    A = _check_square(A)
    n = A.shape[0]
    try:
        T, U = schur(A.T, output="real")
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise EigenFailure(f"Schur factorization failed: {exc}")
    abscissa = float(np.max(np.diag(T)))
    if abscissa >= -1e-13:
        raise NotHurwitz(f"generator abscissa {abscissa:.3e} is not negative",
                         abscissa=abscissa)
    Y = U.T @ -U  # U^T (-I) U
    _sylvester(T, T, Y)
    P = U @ Y @ U.T
    P = 0.5 * (P + P.T)
    residual = float(np.max(np.abs(A.T @ P + P @ A + np.eye(n))))
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


def nonnormality(A: np.ndarray) -> float:
    """Commutator defect ||A^T A - A A^T||_F; zero for normal matrices.

    Large values warn that eigenvalue-based rate predictions may be
    defeated by transient growth.
    """
    A = _check_square(A)
    return float(np.linalg.norm(A.T @ A - A @ A.T, "fro"))


@dataclass(frozen=True)
class SaddleBlocks:
    """Block decomposition DM = [[M1, -M2*], [M2, 0]] when it applies."""

    m1: np.ndarray
    m2: np.ndarray
    m2_star: np.ndarray
    dual_block_max: float
    adjoint_gap: float
    sigma_min_m2: float


def saddle_blocks(DM: np.ndarray, primal_dim: int, primal_metric: Metric,
                  dual_metric: Metric) -> SaddleBlocks:
    """Extract and verify the structured saddle form of a drift Jacobian.

    Reports how far the dual-dual block is from zero, how far the
    primal-dual block is from the metric adjoint of the dual-primal
    block, and the smallest singular value of the (weighted) coupling
    block, whose positivity is the surjectivity hypothesis behind the
    exponential-stability certificate.
    """
    DM = np.atleast_2d(np.asarray(DM, dtype=float))
    p = primal_dim
    m1 = DM[:p, :p]
    m2 = DM[p:, :p]
    m2_star = -DM[:p, p:]
    dual_block_max = float(np.max(np.abs(DM[p:, p:]), initial=0.0))
    expected = metric_adjoint(m2, primal_metric, dual_metric)
    adjoint_gap = float(np.max(np.abs(m2_star - expected), initial=0.0))
    weighted = (np.sqrt(dual_metric.weights)[:, None] * m2
                / np.sqrt(primal_metric.weights)[None, :])
    sigma_min = float(np.linalg.svd(weighted, compute_uv=False).min())
    return SaddleBlocks(m1, m2, m2_star, dual_block_max, adjoint_gap, sigma_min)


def metric_generator(DM: np.ndarray, metric: Metric) -> np.ndarray:
    """Generator -DM in the Euclidean coordinates W^(1/2) x."""
    return -metric.similarity(_check_square(DM))
