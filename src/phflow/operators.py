"""Monotone operator candidates of the form M(x) = L x + g + phi(x).

L is one matrix (dense or scipy sparse), g a constant and phi a
nodewise map: a tuple of `Nodewise` pieces, each acting entry by entry
on its own slice of the state, with its derivative entry by entry.  A
linear operator has no pieces.  The cubic plant is L = R, phi = kappa
x^3 on every coordinate; the logcosh optimizer is its saddle part plus
the stage gradient on x and alpha u on u; a closed loop is the coupling
plus its members' L and the union of their pieces.  This is the
structure of the stability argument, a skew coupling plus a monotone
gradient part, and every operator has it: an evaluation is one matrix
product plus the pieces, on one state or on a block of them, and a
Jacobian is L plus phi' on the diagonal at fixed coordinates, which the
implicit step's Newton solve adds onto the factor layout of L.

Each operator binds its product with L once (`_bind_product`): for a
CSR or CSC L the scipy sparsetools kernel that `L @ x` itself calls, into
a zeroed output, so the sums are scipy's, term for term; for a dense L
numpy's matmul.  The kernel lives in a private scipy module
(`scipy.sparse._sparsetools`); the tests that compare the bound product
with `L @ x` bit for bit guard against a scipy release that changes it.
Calling an operator checks the state's shape; inside the package, the
Newton residuals and step defects of `phcore`'s implicit steps, which
pass states of the right shape by construction, evaluate M through the
unchecked `_apply`, and the audits and the accretivity probe evaluate
it on a block of states through the same bound product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .errors import DimensionMismatch, InvalidParameter


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
    """Candidate accretive map M(x) = L x + g + phi(x) on R^dim.

    linear_part L is a (dim, dim) matrix, dense or scipy sparse (kept as
    CSR or CSC, any other sparse format converted to CSR); affine_offset
    g is a constant vector of shape (dim,) or None; nodewise lists the `Nodewise` pieces of phi,
    each on its own slice of [0, dim), no two on one coordinate.  Without
    pieces M is linear, and resolvents and implicit integrators factor a
    single matrix once.  M is evaluated on one state vector of shape
    (dim,); a stack of states is rejected.

    order, set only inside the package, is a permutation of the state in
    which L is banded: the time-stage order of an optimizer
    (`DiscretizedOCP.stage_order`) or of a closed loop.  Every solve with
    M's Jacobian goes through one `phcore._Factor` per solve site: banded
    in M's order, dense or SuperLU without one.
    """

    dim: int
    linear_part: object  # ndarray or scipy sparse
    affine_offset: Optional[np.ndarray] = None
    nodewise: tuple = ()
    order: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _product: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L = self.linear_part
        if not sparse.issparse(L):
            L = np.asarray(L, dtype=float)
        elif L.format not in ("csr", "csc"):
            L = L.tocsr()
        if sparse.issparse(L) and L.dtype != np.float64:
            L = L.astype(float)
        if L.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"linear part has shape {L.shape}, operator expects "
                f"({self.dim}, {self.dim})")
        object.__setattr__(self, "linear_part", L)
        object.__setattr__(self, "_product", _bind_product(L))
        if self.affine_offset is not None:
            g = np.asarray(self.affine_offset, dtype=float)
            if g.shape != (self.dim,):
                raise DimensionMismatch(
                    f"affine offset has shape {g.shape}, operator expects ({self.dim},)")
            object.__setattr__(self, "affine_offset", g)
        for p in self.nodewise:
            if not 0 <= p.lo < p.hi <= self.dim:
                raise InvalidParameter(
                    f"nodewise piece [{p.lo}, {p.hi}) is empty or outside [0, {self.dim}]")
        coords = self._diagonal_coords
        if np.unique(coords).size < coords.size:
            raise InvalidParameter("two nodewise pieces act on one coordinate")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"state has shape {x.shape}, operator expects ({self.dim},)"
            )
        return self._apply(x)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """M(x) into a new array, for a float state x of shape (dim,),
        which it does not check."""
        return self._structured(x, self._product(x))

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
        return not self.nodewise

    @property
    def offset(self) -> np.ndarray:
        return (np.zeros(self.dim) if self.affine_offset is None
                else self.affine_offset)

    def jacobian(self, x: np.ndarray) -> sparse.csr_matrix:
        """Jacobian DM(x) = L + diag(phi'(x)) as a CSR matrix in canonical
        form (sorted, no duplicates, no stored zeros), for analysis."""
        c = self._diagonal_coords
        d = sparse.csr_matrix((self._diagonal(np.asarray(x, dtype=float)), (c, c)),
                              shape=(self.dim, self.dim))
        return sparse.csr_matrix(self.linear_part) + d

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """The Jacobian DM(x) as a dense array: `jacobian(x).toarray()`."""
        return self.jacobian(x).toarray()

    def _diagonal(self, x: np.ndarray) -> np.ndarray:
        """phi'(x) on the coordinates of the pieces, piece after piece."""
        if len(self.nodewise) == 1:
            p, = self.nodewise
            return p.dfn(x[p.lo:p.hi])
        return np.concatenate([p.dfn(x[p.lo:p.hi]) for p in self.nodewise] or [[]])

    @property
    def _diagonal_coords(self) -> np.ndarray:
        """The coordinates that `_diagonal` lists, in its order."""
        return np.concatenate([np.arange(p.lo, p.hi) for p in self.nodewise] or [[]]).astype(int)


def _bind_product(L):
    """Return product(x) = L x into a new array, for a float x of shape
    (dim,), or of shape (dim, k) for k states at once.  For a CSR or CSC L
    this is scipy's own `L @ x`, the sparsetools kernel (csr_matvec,
    csr_matvecs or their CSC twins) into a zeroed output, without scipy's
    dispatch; for a dense L it is numpy's matmul."""
    if not sparse.issparse(L):
        return L.__matmul__
    rows, cols = L.shape
    vec = getattr(_sparsetools, L.format + "_matvec")
    vecs = getattr(_sparsetools, L.format + "_matvecs")
    indptr, indices, data = L.indptr, L.indices, L.data

    def product(x):
        out = np.zeros((rows,) + x.shape[1:])
        if x.ndim == 1:
            vec(rows, cols, indptr, indices, data, x, out)
        else:
            vecs(rows, cols, x.shape[1], indptr, indices, data, x.ravel(), out.ravel())
        return out

    return product


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
