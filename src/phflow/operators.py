"""Pointwise-evaluable monotone operator candidates.

Every operator the package builds has the form

    M(x) = L x + g + phi(x),

with L one matrix (dense or scipy sparse), g a constant and phi a
nodewise map: a tuple of `Nodewise` pieces, each acting entry by entry
on one slice of the state, with its derivative entry by entry.  A
linear operator has no pieces.  The cubic plant is L = R, phi = kappa
x^3 on every coordinate; the logcosh optimizer is its saddle part plus
the stage gradient on x and alpha u on u; a closed loop is the coupling
plus its members' L and the union of their pieces.  So an evaluation
is one matrix product plus the pieces, on one state or on a block of
them, and a Jacobian is L plus a diagonal at fixed coordinates, which
the implicit step's Newton solve adds onto the factor layout of L.

An operator built outside the package may instead give its evaluation
map and its Jacobian (eval_fn and derivative_fn); every solver takes
those too.
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


def _diagonal_csr(d):
    """diag(d) as CSR that stores every diagonal entry, zeros included,
    so its pattern does not depend on d."""
    k = np.arange(d.size + 1)
    return sparse.csr_matrix((d, k[:-1], k), shape=(d.size, d.size))


@dataclass(frozen=True)
class Nodewise:
    """One piece of a nodewise map: phi(x)[lo:hi] = fn(x[lo:hi]), entry
    by entry.  fn and dfn (its derivative) act on the last axis of an
    array of any leading shape, each entry alone."""

    lo: int
    hi: int
    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MonotoneOperatorSpec:
    """Candidate accretive map M on R^dim.

    M is evaluated on one state vector of shape (dim,); a stack of
    states is rejected.  An operator of the package gives linear_part L
    (ndarray or scipy sparse), affine_offset g and the `Nodewise` pieces
    of phi, so that M(x) = L x + g + phi(x); without pieces M is linear,
    and resolvents and implicit integrators factor a single matrix once.
    Otherwise both eval_fn and derivative_fn are required: eval_fn must
    be deterministic (identical input arrays, bitwise-identical
    outputs), and derivative_fn returns the Jacobian at a point as one
    matrix (dense or scipy sparse) or as a list of (offset, block) terms
    that sum to it, each block square and on the diagonal at its offset.

    order, set only inside the package, is a permutation of the state in
    which every Jacobian of M is banded: the time-stage order of an
    optimizer (`DiscretizedOCP.stage_order`) or of a closed loop.  Every
    solve with M's Jacobian goes through one `phcore._Factor` per solve
    site: banded in M's order, dense or SuperLU without one.
    """

    dim: int
    eval_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derivative_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    linear_part: Optional[object] = None  # ndarray or scipy sparse
    affine_offset: Optional[np.ndarray] = None
    nodewise: tuple = ()
    order: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.linear_part is None and (self.eval_fn is None or self.derivative_fn is None):
            raise InvalidParameter("a nonlinear operator needs eval_fn and derivative_fn")
        if self.nodewise and self.linear_part is None:
            raise InvalidParameter("nodewise pieces need a linear_part")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"state has shape {x.shape}, operator expects ({self.dim},)"
            )
        if self.linear_part is None:
            return np.asarray(self.eval_fn(x), dtype=float)
        return self._structured(x, self.linear_part @ x)

    def _structured(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """L x + g + phi(x) given out = L x, for one state or, with out
        = (L @ x.T).T, a stack of them; adds into out."""
        if self.affine_offset is not None:
            out += self.affine_offset
        for p in self.nodewise:
            out[..., p.lo:p.hi] += p.fn(x[..., p.lo:p.hi])
        return out

    @property
    def is_linear(self) -> bool:
        """True when the drift is linear up to a constant offset."""
        return self.linear_part is not None and not self.nodewise

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

    def _diagonal(self, x: np.ndarray) -> np.ndarray:
        """phi'(x) on the coordinates of the pieces, piece after piece."""
        return np.concatenate([p.dfn(x[p.lo:p.hi]) for p in self.nodewise] or [[]])

    @property
    def _diagonal_coords(self) -> np.ndarray:
        """The coordinates that `_diagonal` lists, in its order."""
        return np.concatenate([np.arange(p.lo, p.hi) for p in self.nodewise] or [[]]).astype(int)

    def _terms(self, x: np.ndarray) -> list:
        """DM(x) as a list of (offset, block) terms, each block CSR, CSC
        or dense: [(0, L)] and one diagonal term per nodewise piece, or
        the terms of derivative_fn."""
        if self.linear_part is None:
            J = self.derivative_fn(x)
            return [(lo, _native(block)) for lo, block in (J if isinstance(J, list) else [(0, J)])]
        return [(0, _native(self.linear_part))] + [
            (p.lo, _diagonal_csr(p.dfn(x[p.lo:p.hi]))) for p in self.nodewise]


def linear(mat, offset=None) -> MonotoneOperatorSpec:
    """Wrap a matrix (plus optional constant) as an operator;
    accretivity is the caller's claim."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch("linear operator matrix must be square")
    return MonotoneOperatorSpec(mat.shape[0], linear_part=mat, affine_offset=offset)


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
    cube = Nodewise(0, dim, lambda x: kappa * x**3, lambda x: 3.0 * kappa * x**2)
    return MonotoneOperatorSpec(dim, linear_part=R, nodewise=(cube,))


def derivative_gap(spec: MonotoneOperatorSpec, x: np.ndarray, v: np.ndarray,
                   eps: float) -> float:
    """Max-norm gap between a central difference of M along v and DM(x) v."""
    fd = (spec(x + eps * v) - spec(x - eps * v)) / (2.0 * eps)
    return float(np.max(np.abs(fd - spec.derivative(x) @ v)))
