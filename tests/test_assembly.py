"""The operators' bound product and the assembly by index arrays against
the scipy expressions they replace, bit for bit.

`MonotoneOperatorSpec` evaluates L x with the sparsetools kernel that
scipy's own `L @ x` calls (a private scipy module); the loop assembly
places its blocks by index arrays where it once chained kron, bmat and
block_diag; the accretivity probe evaluates M on a block of its sample
pairs where it once looped over them.  The references below are those
former expressions, kept here: the tests compare canonical CSR arrays
(indptr, indices, data) and evaluations with np.array_equal, so a scipy
release that changes its kernels or conversions fails here first."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import phflow as pf
from phflow import phcore
from phflow.metric import Metric, adjoint
from phflow.ocp import assemble_constraint
from phflow.operators import MonotoneOperatorSpec, Nodewise

PROFILE = settings(derandomize=True, deadline=None, max_examples=40)


def _same_csr(A, B):
    assert A.format == B.format and A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(B, name)), name


# ---------------------------------------------------------------------------
# the bound product


@st.composite
def operators(draw):
    """A random operator: L dense, CSR or CSC with some stored zeros, an
    optional offset, and up to two nodewise pieces (cubic, tanh)."""
    dim = draw(st.integers(1, 40))
    fmt = draw(st.sampled_from(["dense", "csr", "csc"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = rng.standard_normal((dim, dim)) * (rng.random((dim, dim)) < 0.3)
    if fmt != "dense":
        L = sparse.random(dim, dim, density=0.3, random_state=rng, format=fmt)
        L.data[rng.random(L.nnz) < 0.1] = 0.0  # stored zeros
    offset = rng.standard_normal(dim) if draw(st.booleans()) else None
    cut = draw(st.integers(0, dim))
    pieces = []
    if draw(st.booleans()) and cut > 0:
        pieces.append(Nodewise(0, cut, lambda v: 0.7 * v**3, lambda v: 2.1 * v**2))
    if draw(st.booleans()) and cut < dim:
        pieces.append(Nodewise(cut, dim, lambda v: 1.3 * np.tanh(v / 1.3),
                               lambda v: 1.0 - np.tanh(v / 1.3) ** 2))
    return MonotoneOperatorSpec(dim, L, offset, tuple(pieces)), rng


@PROFILE
@given(operators(), st.integers(1, 70))
def test_bound_product_is_scipys_product_bit_for_bit(op, rows):
    M, rng = op
    L = M.linear_part
    x = rng.standard_normal(M.dim) * 30.0
    X = rng.standard_normal((rows, M.dim)) * rng.choice([1.0, 40.0], (rows, 1))
    assert np.array_equal(M._product(x), L @ x)
    assert np.array_equal(M._product(X.T), L @ X.T)
    # M(x) through the unchecked _apply is the formula L x + g + phi(x)
    ref = L @ x
    if M.affine_offset is not None:
        ref = ref + M.affine_offset
    for p in M.nodewise:
        ref[p.lo:p.hi] += p.fn(x[p.lo:p.hi])
    assert np.array_equal(M._apply(x), ref) and np.array_equal(M(x), ref)
    # a block of states: the former (L @ X.T).T plus the pieces, and for a
    # sparse L, whose kernel sums each row alike for one or many states,
    # row by row M(x) itself
    block = phcore._batch_eval(M, X)
    assert np.array_equal(block, M._structured(X, (L @ X.T).T))
    if sparse.issparse(L):
        for row, z in zip(block, X):
            assert np.array_equal(row, M(z))


def test_the_call_checks_the_shape_and_keeps_a_sparse_L_as_floats():
    M = MonotoneOperatorSpec(3, sparse.identity(3, format="csr"))
    with pytest.raises(pf.DimensionMismatch):
        M(np.zeros(4))
    with pytest.raises(pf.DimensionMismatch):
        M(np.zeros((2, 3)))
    # an integer sparse L is kept as floats, which the kernel needs
    M = MonotoneOperatorSpec(2, sparse.csr_matrix(np.array([[1, 2], [0, 3]])))
    assert M.linear_part.dtype == np.float64
    assert np.array_equal(M(np.array([1.0, 1.0])), [3.0, 3.0])


# ---------------------------------------------------------------------------
# assembly by index arrays against the former kron / bmat / block_diag


def _reference_constraint(model, grid):
    n, m, N, h = model.n, model.m, grid.N, grid.h
    A, B = model.A, model.B
    eye = np.eye(n)
    dxl = -eye / h - 0.5 * A
    dxr = eye / h - 0.5 * A
    du = -0.5 * B
    S_l, S_r = sparse.eye(N, N + 1, k=0), sparse.eye(N, N + 1, k=1)
    dim = (N + 1) * (2 * n + m)
    col = pf.ocp._state_blocks(np.arange(dim), N, n, m)
    row = pf.ocp._state_blocks(np.arange(dim) - col.primal.size, N, n, m)
    coo = []
    for r, c, block in ((row.lam, col.x, sparse.kron(S_l, dxl) + sparse.kron(S_r, dxr)),
                        (row.lam, col.u, sparse.kron(S_l + S_r, du)),
                        (row.lam0, col.x, sparse.kron(sparse.eye(1, N + 1), eye))):
        block = block.tocoo()
        coo.append((r.ravel()[block.row], c.ravel()[block.col], block.data))
    rows, cols, vals = map(np.concatenate, zip(*coo))
    C = sparse.csr_matrix((vals, (rows, cols)), shape=(col.dual.size, col.primal.size))
    C.eliminate_zeros()
    return C


def _reference_optimizer_L(ocp):
    saddle = sparse.bmat([[None, -ocp.C_star], [ocp.C, None]], format="csr")
    stage = ocp.cost.stage
    if not stage.is_quadratic:
        return saddle, saddle
    k = np.arange(ocp.N + 2)
    return saddle, saddle + sparse.block_diag([
        sparse.bsr_matrix((np.broadcast_to(stage.Q, (ocp.N + 1, ocp.n, ocp.n)), k[:-1], k)),
        ocp.cost.alpha * sparse.identity((ocp.N + 1) * ocp.m),
        sparse.csr_matrix((ocp.dual_dim, ocp.dual_dim))])


def _reference_coupling_block(sys1, sys2, F, split1, split2):
    F = np.atleast_2d(np.asarray(F, dtype=float))
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


def _reference_interconnect(sys1, sys2, F, split1, split2):
    """The former L and B of `interconnect`."""
    K = _reference_coupling_block(sys1, sys2, F, split1, split2)
    L = K + sparse.block_diag([sys1.M.linear_part, sys2.M.linear_part], format="csr")
    B = sparse.block_diag([sys1.B[:, split1:], sys2.B[:, split2:]], format="csc")
    if not (sparse.issparse(sys1.B) or sparse.issparse(sys2.B)):
        B = B.toarray()
    return L, B


@st.composite
def problems(draw):
    """A random OCP with N in 2..64, n in 1..4, m in 1..2, either stage,
    some zero entries in A, B and Q, and a random cubic plant on B."""
    N, n, m = draw(st.integers(2, 64)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.7)
    B = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.8)
    model = pf.LinearPlantModel(A, B, 0.0, rng.standard_normal(n))
    G = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.7)
    stage = (pf.LogCoshStage(draw(st.floats(0.3, 2.0))) if draw(st.booleans())
             else pf.QuadraticStage(G @ G.T + 0.1 * np.eye(n)))
    ocp = pf.assemble_ocp(model, pf.build_grid(draw(st.floats(0.5, 3.0)), N),
                          pf.CostSpec(draw(st.floats(0.1, 5.0)), stage))
    R = rng.standard_normal((n, n))
    plant = pf.cubic_plant(R @ R.T + 0.1 * np.eye(n), draw(st.floats(0.0, 2.0)),
                           B, rng.standard_normal(n))
    return ocp, plant, rng


@PROFILE
@given(problems())
def test_assembly_by_index_arrays_is_the_former_csr(problem):
    ocp, plant, rng = problem
    C, rhs = assemble_constraint(ocp.model, ocp.grid)
    _same_csr(C, _reference_constraint(ocp.model, ocp.grid))
    saddle, L = _reference_optimizer_L(ocp)
    _same_csr(ocp.saddle, saddle)
    opt = pf.assemble_optimizer(ocp)
    _same_csr(opt.M.linear_part, L)
    # the closed loop, coupled at the lam0 port as `couple` does
    plant_sys = pf.assemble_plant(plant)
    cls = pf.couple(opt, plant_sys, ocp)
    lam0 = ocp.blocks(np.arange(ocp.state_dim) - ocp.primal_dim).lam0
    opt_lam0 = pf.PHSystem(opt.M, opt.B[:, lam0], opt.metric,
                           Metric(opt.input_metric.weights[lam0]))
    F = cls.gamma * ocp.model.B.T
    _same_csr(pf.coupling_block(plant_sys, opt_lam0, F, ocp.m, ocp.n),
              _reference_coupling_block(plant_sys, opt_lam0, F, ocp.m, ocp.n))
    L, B = _reference_interconnect(plant_sys, opt_lam0, F, ocp.m, ocp.n)
    _same_csr(cls.sys.M.linear_part, L)
    _same_csr(cls.sys.B, B)
    # open ports on both sides, a sparse and a dense member: B keeps the
    # dense member's zeros, as block_diag did
    split1, split2 = int(rng.integers(0, ocp.m + 1)), int(rng.integers(1, ocp.dual_dim + 1))
    F = rng.standard_normal((split1, split2)) * (rng.random((split1, split2)) < 0.7)
    for pair, (s1, s2), Fm in (((plant_sys, opt), (split1, split2), F),
                               ((opt, plant_sys), (split2, split1), F.T)):
        got = pf.interconnect(*pair, Fm, s1, s2)
        L, B = _reference_interconnect(*pair, Fm, s1, s2)
        _same_csr(got.M.linear_part, L)
        _same_csr(got.B, B)
    # two dense members with wide ports and weighted metrics, so that the
    # sums of both products run over several terms: a dense B, equal to
    # the former toarray()
    members = []
    for dim, ports in rng.integers(3, 7, (2, 2)):
        B = rng.standard_normal((dim, ports)) * (rng.random((dim, ports)) < 0.8)
        members.append(pf.PHSystem(pf.linear(rng.standard_normal((dim, dim))), B,
                                   Metric(rng.uniform(0.5, 2.0, dim)),
                                   Metric(rng.uniform(0.5, 2.0, ports))))
    s1, s2 = (int(rng.integers(1, sys.input_dim + 1)) for sys in members)
    Fm = rng.standard_normal((s1, s2))
    got = pf.interconnect(*members, Fm, s1, s2)
    L, B = _reference_interconnect(*members, Fm, s1, s2)
    _same_csr(got.M.linear_part, L)
    assert isinstance(got.B, np.ndarray) and np.array_equal(got.B, B)


# ---------------------------------------------------------------------------
# the accretivity probe on blocks of pairs against the former loop


def _reference_probe(M, metric, rng=0, n_pairs=100, x_bar=None, tol=1e-10):
    gen = np.random.default_rng(rng)
    min_gap = c_estimate = np.inf
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
    return pf.ProbeReport(float(min_gap), float(c_estimate), violation, n_pairs)


@PROFILE
@given(problems(), st.integers(1, 100), st.booleans())
def test_probe_on_blocks_of_pairs_is_the_former_loop(problem, n_pairs, anchored):
    ocp, plant, rng = problem
    seed = int(rng.integers(0, 2**31))
    # the optimizer's sparse M, which `phflow audit` prints: bit for bit,
    # and the generator is left where the loop leaves it
    opt = pf.assemble_optimizer(ocp)
    x_bar = rng.standard_normal(opt.dim) if anchored else None
    gens = np.random.default_rng(seed), np.random.default_rng(seed)
    got = pf.accretivity_probe(opt.M, opt.metric, gens[0], n_pairs, x_bar)
    assert got == _reference_probe(opt.M, opt.metric, gens[1], n_pairs, x_bar)
    assert gens[0].standard_normal() == gens[1].standard_normal()
    # a plant's dense M: the same verdict, and gaps to rounding; a plant
    # that is not accretive shows up in both
    R = rng.standard_normal((ocp.n, ocp.n))
    for M in (plant.M, pf.cubic(-(R @ R.T) - 0.1 * np.eye(ocp.n), 1.0)):
        metric = Metric.euclidean(M.dim)
        got, ref = (probe(M, metric, seed, n_pairs) for probe in
                    (pf.accretivity_probe, _reference_probe))
        assert got.violation == ref.violation and got.n_pairs == ref.n_pairs
        for a, b in ((got.min_gap, ref.min_gap), (got.c_estimate, ref.c_estimate)):
            assert abs(a - b) <= 1e-12 * (1.0 + abs(b)) * M.dim


def test_probe_refuses_a_misshapen_anchor():
    M = pf.identity(3)
    with pytest.raises(pf.DimensionMismatch):
        pf.accretivity_probe(M, Metric.euclidean(3), x_bar=np.zeros(2))
