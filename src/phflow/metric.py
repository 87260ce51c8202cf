"""Weighted Euclidean inner products.

All state and port spaces in the toolkit are R^d equipped with a
diagonal positive weight matrix W, so that

    <a, b> = sum_i w_i a_i b_i.

Quadrature weights of a time grid enter through these metrics; every
adjoint in the toolkit (output maps, coupling blocks, constraint
adjoints) is taken with respect to the declared weights rather than the
raw transpose.  That choice is what makes the discrete skew-symmetry
identities hold to machine precision instead of merely O(h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter


@dataclass(frozen=True)
class Metric:
    """Diagonal metric on R^dim given by strictly positive weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim > 1:
            raise DimensionMismatch(f"metric weights must be 1-D, got shape {w.shape}")
        w = w.reshape(-1)
        if w.size and not (np.all(np.isfinite(w)) and np.min(w) > 0.0):
            raise InvalidParameter("metric weights must be strictly positive and finite")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def euclidean(dim: int) -> "Metric":
        return Metric(np.ones(dim))

    @property
    def dim(self) -> int:
        return self.weights.size

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(self.weights * a, b))

    def norm(self, a: np.ndarray) -> float:
        # math.sqrt is the correctly rounded square root, as np.sqrt is
        return math.sqrt(np.dot(self.weights * a, a))

    def row_inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Inner products <a_i, b_i> of matching rows of two stacks."""
        return np.einsum("ij,j,ij->i", a, self.weights, b)

    def split(self, k: int) -> tuple["Metric", "Metric"]:
        return Metric(self.weights[:k]), Metric(self.weights[k:])

    def concat(self, other: "Metric") -> "Metric":
        return Metric(np.concatenate([self.weights, other.weights]))


def adjoint(B, domain: Metric, codomain: Metric):
    """Metric adjoint of B: domain -> codomain.

    Satisfies <B u, x>_codomain = <u, adjoint(B) x>_domain for all u, x.
    A sparse B gives a sparse (CSR) adjoint: the two diagonal scalings
    act on the stored entries of B^T alone, entry for entry as in the
    dense formula.
    """
    from scipy import sparse  # loaded with the package; local to keep this module numpy-only

    if not sparse.issparse(B):
        B = np.asarray(B, dtype=float)
    if B.shape != (codomain.dim, domain.dim):
        raise DimensionMismatch(
            f"B has shape {B.shape}, expected ({codomain.dim}, {domain.dim})"
        )
    if sparse.issparse(B):
        Bt = B.T.tocsr().astype(float)  # astype copies, so B is never touched
        rows = np.repeat(np.arange(Bt.shape[0]), np.diff(Bt.indptr))
        Bt.data = (Bt.data * codomain.weights[Bt.indices]) / domain.weights[rows]
        return Bt
    return (B.T * codomain.weights[None, :]) / domain.weights[:, None]
