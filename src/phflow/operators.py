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


def _as_dense(mat) -> np.ndarray:
    if sparse.issparse(mat):
        return mat.toarray()
    return np.asarray(mat, dtype=float)


@dataclass(frozen=True)
class MonotoneOperatorSpec:
    """Candidate accretive map M on R^dim.

    M is evaluated on one state vector of shape (dim,); a stack of
    states is rejected.  eval_fn must be deterministic: identical input
    arrays produce bitwise-identical outputs.  derivative_fn returns the
    Jacobian at a point as a dense array or a scipy sparse matrix.
    linear_part, when given, takes priority and fixes
    M(x) = linear_part @ x (+ affine_offset); resolvents and implicit
    integrators then factor a single matrix once.  Without it, both
    eval_fn and derivative_fn are required.

    Every solve with M's matrices goes through one `phcore._Factor` per
    solve site, which picks its path from what it sees: a dense matrix
    is factored by LAPACK's dense LU, a sparse one in M's `order` by
    LAPACK's banded LU, and a sparse one without an order by SuperLU.
    order, set only inside the package, is a permutation of the state
    in which every Jacobian of M is banded: the time-stage order of an
    optimizer (`DiscretizedOCP.stage_order`) or of a closed loop.
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
        return _as_dense(self._jacobian(x))

    def _jacobian(self, x: np.ndarray):
        """DM(x) in the format its source keeps it: sparse or dense."""
        if self.linear_part is not None:
            return self.linear_part
        J = self.derivative_fn(x)
        return J if sparse.issparse(J) else np.asarray(J, dtype=float)


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
