"""Pointwise-evaluable monotone operator candidates.

An operator is described either by an exact linear part or by its
evaluation map together with its analytic Jacobian.  Linear operators get
a dedicated representation (dense or sparse matrix) so that resolvents
and implicit integrators factor a single matrix once; every other
operator is solved by Newton with its Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from .errors import DimensionMismatch, InvalidParameter


def _native(block):
    """A Jacobian term's block as the solvers read it: CSR, CSC or dense."""
    if not sparse.issparse(block):
        return np.asarray(block, dtype=float)
    return block if block.format in ("csr", "csc") else block.tocsr()


def _coords(A):
    """Row and column of each entry of a CSR or CSC A, or of a dense A in
    row-major order, in the order of its data."""
    if not sparse.issparse(A):
        return np.divmod(np.arange(A.size), A.shape[1])
    major = np.repeat(np.arange(A.indptr.size - 1), np.diff(A.indptr))
    return (major, A.indices) if A.format == "csr" else (A.indices, major)


def _summed(terms):
    """The sum of Jacobian terms: a lone full-size term as it is, any
    other list as one CSR matrix."""
    dim = max(lo + block.shape[0] for lo, block in terms)
    if len(terms) == 1 and terms[0][1].shape[0] == dim:
        return terms[0][1]
    rows, cols = np.hstack([lo + np.array(_coords(block)) for lo, block in terms])
    data = np.concatenate([block.data if sparse.issparse(block) else block.ravel()
                           for _, block in terms])
    return sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))


@dataclass(frozen=True)
class MonotoneOperatorSpec:
    """Candidate accretive map M on R^dim.

    M is evaluated on one state vector of shape (dim,); a stack of
    states is rejected.  eval_fn must be deterministic: identical input
    arrays produce bitwise-identical outputs.  derivative_fn returns the
    Jacobian at a point as one matrix (dense or scipy sparse) or as a
    list of (offset, block) terms that sum to it, each block square and
    on the diagonal at its offset.  linear_part, when given, takes
    priority and fixes M(x) = linear_part @ x (+ affine_offset);
    resolvents and implicit integrators then factor a single matrix
    once.  Without it, both eval_fn and derivative_fn are required.

    Every solve with M's Jacobian goes through one `phcore._Factor` per
    solve site: in M's `order` its terms are scattered into one band
    array for LAPACK's banded LU; without one they are summed for dense
    LU or SuperLU.  order, set only inside the package, is a permutation
    of the state in which every Jacobian of M is banded: the time-stage
    order of an optimizer (`DiscretizedOCP.stage_order`) or of a closed
    loop.
    """

    dim: int
    eval_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derivative_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    linear_part: Optional[object] = None  # ndarray or scipy sparse
    affine_offset: Optional[np.ndarray] = None
    order: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.linear_part is None and (self.eval_fn is None or self.derivative_fn is None):
            raise InvalidParameter("a nonlinear operator needs eval_fn and derivative_fn")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"state has shape {x.shape}, operator expects ({self.dim},)"
            )
        if self.linear_part is not None:
            out = self.linear_part @ x
            if self.affine_offset is not None:
                out = out + self.affine_offset
            return out
        return np.asarray(self.eval_fn(x), dtype=float)

    @property
    def is_linear(self) -> bool:
        """True when the drift is linear up to a constant offset."""
        return self.linear_part is not None

    @property
    def offset(self) -> np.ndarray:
        return (np.zeros(self.dim) if self.affine_offset is None
                else self.affine_offset)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """Dense Jacobian DM(x), for analysis."""
        J = self._jacobian(x)
        return J.toarray() if sparse.issparse(J) else J

    def _jacobian(self, x: np.ndarray):
        """DM(x) as one matrix, the sum of its terms."""
        return _summed(self._terms(x))

    def _terms(self, x: np.ndarray) -> list:
        """DM(x) as a list of (offset, block) terms, each block CSR, CSC
        or dense; a linear operator gives [(0, linear_part)]."""
        J = self.linear_part if self.linear_part is not None else self.derivative_fn(x)
        return [(lo, _native(block)) for lo, block in (J if isinstance(J, list) else [(0, J)])]


def linear(mat, offset=None) -> MonotoneOperatorSpec:
    """Wrap a matrix (plus optional constant) as an operator;
    accretivity is the caller's claim."""
    dim = mat.shape[0]
    if mat.shape[1] != dim:
        raise DimensionMismatch("linear operator matrix must be square")
    return MonotoneOperatorSpec(dim, linear_part=mat, affine_offset=offset)


def identity(dim: int) -> MonotoneOperatorSpec:
    return linear(np.eye(dim))


def zero(dim: int) -> MonotoneOperatorSpec:
    return linear(np.zeros((dim, dim)))


def cubic(R, kappa: float = 0.0) -> MonotoneOperatorSpec:
    """M(x) = R x + kappa * x^3 elementwise; monotone for R >= 0, kappa >= 0."""
    R = np.asarray(R, dtype=float)
    dim = R.shape[0]
    if R.shape != (dim, dim):
        raise DimensionMismatch("cubic operator matrix R must be square")
    if kappa == 0.0:
        return linear(R)
    return MonotoneOperatorSpec(
        dim,
        eval_fn=lambda x: R @ x + kappa * x**3,
        derivative_fn=lambda x: R + np.diag(3.0 * kappa * x**2),
    )


def derivative_gap(spec: MonotoneOperatorSpec, x: np.ndarray, v: np.ndarray,
                   eps: float) -> float:
    """Max-norm gap between a central difference of M along v and DM(x) v."""
    fd = (spec(x + eps * v) - spec(x - eps * v)) / (2.0 * eps)
    return float(np.max(np.abs(fd - spec.derivative(x) @ v)))
