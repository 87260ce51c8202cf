"""Property tests over random small problems: the state layout of
`DiscretizedOCP.blocks`, the discrete identities the flow rests on
(the metric adjoint pair, the monotonicity gap of m_opt and the skew
closed-loop coupling), the KKT point as the flow's steady state, the
shared implicit step behind the resolvent, the semigroup and the
implicit-midpoint flow, the sparse Jacobians its Newton solve factors,
the time-stage order in which they are banded, and the sparse ports and
coupling block against their dense counterparts."""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import solve_continuous_lyapunov
from scipy.linalg.lapack import dtrsyl
from scipy.sparse.linalg import splu

import phflow as pf
from phflow import analysis, phcore

PROFILE = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def problems(draw, logcosh=False):
    """A random small quadratic OCP: N in 2..8, n in 1..3, m in 1..2,
    random A, B, x0 and q, SPD Q and alpha > 0; plus an rng for vectors.
    With logcosh the stage is logcosh at a random scale instead."""
    N = draw(st.integers(2, 8))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    alpha = draw(st.floats(0.1, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, n))
    Q = G @ G.T / n + 0.1 * np.eye(n)
    model = pf.LinearPlantModel(0.5 * rng.standard_normal((n, n)),
                                rng.standard_normal((n, m)), 0.0,
                                rng.standard_normal(n))
    stage = pf.QuadraticStage(Q, rng.standard_normal(n))
    if logcosh:
        stage = pf.LogCoshStage(draw(st.floats(0.3, 2.0)))
    cost = pf.CostSpec(alpha, stage)
    return pf.assemble_ocp(model, pf.build_grid(1.0, N), cost), rng


@PROFILE
@given(problems(), st.integers(1, 4))
def test_layout_views_have_shapes_and_reassemble(problem, rows):
    ocp, rng = problem
    N, n, m = ocp.N, ocp.n, ocp.m
    for lead in ((), (rows,)):
        z = rng.standard_normal(lead + (ocp.state_dim,))
        s = ocp.blocks(z)
        assert s.vector is z
        assert s.x.shape == lead + (N + 1, n)
        assert s.u.shape == lead + (N + 1, m)
        assert s.lam.shape == lead + (N, n)
        assert s.lam0.shape == lead + (n,)
        assert s.primal.shape == lead + (ocp.primal_dim,)
        assert s.dual.shape == lead + (ocp.dual_dim,)
        flat = [b.reshape(lead + (-1,)) for b in (s.x, s.u, s.lam, s.lam0)]
        assert np.array_equal(np.concatenate(flat, axis=-1), z)
        assert np.array_equal(np.concatenate([s.primal, s.dual], axis=-1), z)
        for b in (s.x, s.u, s.lam, s.lam0, s.primal, s.dual):
            assert np.shares_memory(b, z)
    rowwise = ocp.blocks(z[-1])
    assert np.array_equal(s.lam[-1], rowwise.lam)
    assert np.array_equal(s.lam0[-1], rowwise.lam0)


@PROFILE
@given(problems())
def test_metric_adjoint_pairing(problem):
    ocp, rng = problem
    zp = rng.standard_normal(ocp.primal_dim)
    d = rng.standard_normal(ocp.dual_dim)
    lhs = ocp.dual_metric.inner(ocp.C @ zp, d)
    rhs = ocp.primal_metric.inner(zp, ocp.C_star @ d)
    scale = ocp.primal_metric.norm(zp) * ocp.dual_metric.norm(d)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)


def _entrywise_constraint(A, B, N, h):
    """C_h written out entry by entry from the trapezoidal stencil rows in
    the documented layout ([x_0..x_N | u_0..u_N] columns, [lam_1..lam_N |
    lam0] rows), as CSR with the zero coefficients left out."""
    n, m = B.shape
    C = np.zeros(((N + 1) * n, (N + 1) * (n + m)))
    for i in range(N):
        for a in range(n):
            r = i * n + a
            for b in range(n):
                C[r, i * n + b] = -(a == b) / h - 0.5 * A[a, b]
                C[r, (i + 1) * n + b] = (a == b) / h - 0.5 * A[a, b]
            for b in range(m):
                C[r, (N + 1) * n + i * m + b] = -0.5 * B[a, b]
                C[r, (N + 1) * n + (i + 1) * m + b] = -0.5 * B[a, b]
    for a in range(n):
        C[N * n + a, a] = 1.0
    return sparse.csr_matrix(C)


@PROFILE
@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_constraint_is_the_entrywise_stencil(N, n, m, zero_diagonal, seed):
    # same stored pattern and values, bit for bit: A and B hold exact
    # zeros (signed ones too), and A_00 = 2/h zeroes a stencil diagonal
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
    B = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.5)
    grid = pf.build_grid(0.7, N)
    if zero_diagonal:
        A[0, 0] = 2.0 / grid.h
    C, _ = pf.assemble_constraint(pf.LinearPlantModel(A, B, 0.0, np.ones(n)), grid)
    ref = _entrywise_constraint(A, B, N, grid.h)
    assert C.format == "csr" and C.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(C, name), getattr(ref, name))


@PROFILE
@given(problems())
def test_m_opt_gap_bounded_by_stage_and_control_curvature(problem):
    # the constraint rows (C*, -C) cancel exactly in the gap, which leaves
    # <Q dx, dx> + alpha |du|^2 summed with the trapezoidal weights
    ocp, rng = problem
    z1, z2 = rng.standard_normal((2, ocp.state_dim))
    gap = ocp.state_metric.inner(ocp.m_opt(z1) - ocp.m_opt(z2), z1 - z2)
    dz = ocp.blocks(z1 - z2)
    w = ocp.grid.weights
    bound = (np.linalg.eigvalsh(ocp.cost.stage.Q)[0] * np.dot(w, np.sum(dz.x**2, axis=1))
             + ocp.cost.alpha * np.dot(w, np.sum(dz.u**2, axis=1)))
    assert gap >= bound - 1e-10 * (1.0 + ocp.state_metric.inner(z1 - z2, z1 - z2))


@PROFILE
@given(problems(), st.floats(0.1, 10.0))
def test_closed_loop_coupling_skew_in_product_metric(problem, gamma):
    ocp, rng = problem
    n = ocp.n
    G = rng.standard_normal((n, n))
    plant = pf.assemble_plant(pf.linear_plant(G @ G.T / n + 0.1 * np.eye(n),
                                              ocp.model.B, np.zeros(n)))
    cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp, pf.CouplingSpec(gamma))
    z = rng.standard_normal(cls.dim)
    xp, zo = cls.split(z)
    coupling_only = cls.sys.M(z) - np.concatenate([cls.plant_sys.M(xp),
                                                   cls.opt_sys.M(zo)])
    form = cls.sys.metric.inner(coupling_only, z)
    assert abs(form) <= 1e-12 * (1.0 + cls.sys.metric.inner(z, z))


# rounding slack, relative to the magnitudes a check adds up
_ROUND = 64 * np.finfo(float).eps


@st.composite
def cubic_operators(draw):
    """A random monotone M(x) = R x + kappa x^3 in dimension 1..4 with a
    random diagonal metric W; plus an rng for vectors.  R = W^{-1} S with
    S = G G^T/k + c I is self-adjoint and positive in W, so M is monotone
    in W; kappa = 0 gives the linear operator R."""
    k = draw(st.integers(1, 4))
    kappa = draw(st.floats(0.0, 2.0))
    c = draw(st.floats(0.01, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.5, 2.0, k)
    G = rng.standard_normal((k, k))
    R = (G @ G.T / k + c * np.eye(k)) / w[:, None]
    return pf.cubic(R, kappa), pf.Metric(w), rng


@PROFILE
@given(cubic_operators(), st.floats(0.1, 2.0))
def test_resolvent_solves_its_equation(op, lam):
    M, metric, rng = op
    z = 2.0 * rng.standard_normal(M.dim)
    tol = 1e-12
    x = pf.resolvent(M, lam, z, metric, tol=tol)
    scale = metric.norm(x) + lam * metric.norm(M(x)) + metric.norm(z)
    assert metric.norm(x + lam * M(x) - z) <= tol + _ROUND * scale


@PROFILE
@given(cubic_operators(), st.floats(0.1, 2.0))
def test_resolvent_nonexpansive_in_metric(op, lam):
    # each result is the exact resolvent of z_i + e_i with ||e_i|| <= tol
    M, metric, rng = op
    z1, z2 = 2.0 * rng.standard_normal((2, M.dim))
    tol = 1e-12
    x1 = pf.resolvent(M, lam, z1, metric, tol=tol)
    x2 = pf.resolvent(M, lam, z2, metric, tol=tol)
    scale = metric.norm(z1) + metric.norm(z2) + lam * (metric.norm(M(x1)) + metric.norm(M(x2)))
    assert metric.norm(x1 - x2) <= metric.norm(z1 - z2) + 2 * tol + _ROUND * scale


@PROFILE
@given(cubic_operators(), st.floats(0.1, 2.0))
def test_one_step_semigroup_is_the_resolvent(op, lam):
    M, metric, rng = op
    z = 2.0 * rng.standard_normal(M.dim)
    assert np.array_equal(pf.semigroup_approx(M, lam, 1, z, metric, 1e-12),
                          pf.resolvent(M, lam, z, metric, 1e-12))


@PROFILE
@given(cubic_operators(), st.integers(1, 2), st.floats(0.01, 0.5),
       st.sampled_from(["implicit_midpoint", "implicit_euler"]))
def test_midpoint_step_power_balance(op, m, h, scheme):
    # z1 - z0 = h(-M(z_s) + B u) + e at the stage z_s = theta z1 + (1-theta) z0
    # with ||e|| <= newton_tol; less the theta term of the energy rate, the
    # balance defect is <e, z_s>/h, at most ||z_s|| newton_tol / h
    M, metric, rng = op
    sys = pf.PHSystem(M, rng.standard_normal((M.dim, m)), metric,
                      pf.Metric(rng.uniform(0.5, 2.0, m)))
    cfg = pf.IntegratorConfig(h_t=h, scheme=scheme)
    traj = pf.integrate_flow(sys, 2.0 * rng.standard_normal(M.dim),
                             rng.standard_normal(m), cfg, h)
    assert traj.states.shape[0] == 2
    z0, z1 = traj.states
    theta = 1.0 if scheme == "implicit_euler" else 0.5
    energy = metric.inner(z0, z0) + metric.inner(z1, z1)
    bound = (metric.norm(theta * z1 + (1 - theta) * z0) * cfg.newton_tol / h
             + _ROUND * (1.0 + energy) / h)
    assert pf.power_balance_audit(sys, traj).max_residual <= bound


@PROFILE
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_metric_adjoint_of_rectangular_map(n_x, n_u, seed):
    rng = np.random.default_rng(seed)
    X = pf.Metric(rng.uniform(0.1, 10.0, n_x))
    U = pf.Metric(rng.uniform(0.1, 10.0, n_u))
    B = rng.standard_normal((n_x, n_u))
    u, x = rng.standard_normal(n_u), rng.standard_normal(n_x)
    lhs = X.inner(B @ u, x)
    rhs = U.inner(u, pf.adjoint(B, U, X) @ x)
    assert abs(lhs - rhs) <= _ROUND * (1.0 + X.norm(B @ u) * X.norm(x))


def _states(rng, dim):
    """Random states, some with entries large enough to saturate tanh."""
    return [rng.standard_normal(dim), 40.0 * rng.standard_normal(dim)]


@PROFILE
@given(st.booleans().flatmap(lambda logcosh: problems(logcosh)))
def test_hessian_and_jacobian_keep_the_block_diag_csr(problem):
    # the fixed-pattern Hessian and the Jacobian built on it against the
    # sparse.block_diag and sparse.bmat constructions: same indptr,
    # indices, data
    ocp, rng = problem
    for z in _states(rng, ocp.state_dim):
        Hx = sparse.block_diag(ocp.cost.stage.hess(ocp.blocks(z).x), format="csr")
        Hu = ocp.cost.alpha * sparse.identity((ocp.N + 1) * ocp.m, format="csr")
        H_old = sparse.block_diag([Hx, Hu], format="csr")
        J_old = sparse.bmat([[H_old, -ocp.C_star], [ocp.C, None]], format="csr")
        J = ocp.m_opt_jacobian(z)
        p = ocp.primal_dim
        for new, old in ((J[:p, :p], H_old), (J, J_old)):
            assert new.format == "csr" and new.shape == old.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(new, name), getattr(old, name))


@PROFILE
@given(st.booleans().flatmap(lambda logcosh: problems(logcosh)))
def test_optimizer_steady_state_is_the_kkt_point(problem):
    # the flow's equilibrium meets the optimality system to the rule of
    # steady_state, which scales with the problem and not the start
    ocp, rng = problem
    sys = pf.assemble_optimizer(ocp)
    target = min(1e-8, 1e-11 * (1.0 + ocp.state_metric.norm(ocp.kkt_target())))
    for x_init in (None, rng.standard_normal(ocp.state_dim)):
        ss = pf.steady_state(sys, pf.constant_input(ocp), 1e-8, x_init)
        assert pf.kkt_residual(ocp, ss.x_bar)[1] <= target


@PROFILE
@given(problems(logcosh=True))
def test_logcosh_flow_jacobian_is_sparse_and_exact(problem):
    ocp, rng = problem
    M = pf.assemble_optimizer(ocp).M
    p = ocp.primal_dim
    for z in _states(rng, ocp.state_dim):
        J = M._jacobian(z)
        assert sparse.issparse(J)
        dense = np.zeros((ocp.state_dim, ocp.state_dim))
        dense[:p, :p] = sparse.block_diag(
            [*ocp.cost.stage.hess(ocp.blocks(z).x),
             ocp.cost.alpha * np.eye((ocp.N + 1) * ocp.m)]).toarray()
        dense[:p, p:] = -ocp.C_star.toarray()
        dense[p:, :p] = ocp.C.toarray()
        assert np.max(np.abs(J.toarray() - dense)) <= 1e-14
        assert isinstance(M.derivative(z), np.ndarray)


@PROFILE
@given(st.booleans().flatmap(lambda logcosh: problems(logcosh)), st.floats(0.1, 10.0))
def test_cubic_closed_loop_jacobian_is_sparse_and_exact(problem, gamma):
    # against the dense K + diag(DM_plant, DM_opt) the loop used to build;
    # a logcosh optimizer adds a sparse block, a quadratic one is constant
    ocp, rng = problem
    n = ocp.n
    G = rng.standard_normal((n, n))
    plant = pf.assemble_plant(pf.cubic_plant(G @ G.T / n + 0.1 * np.eye(n), 1.3,
                                             ocp.model.B, np.zeros(n)))
    cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp, pf.CouplingSpec(gamma))

    def coupling_only(z):
        xp, zo = cls.split(z)
        return cls.sys.M(z) - np.concatenate([cls.plant_sys.M(xp), cls.opt_sys.M(zo)])

    K = np.column_stack([coupling_only(e) for e in np.eye(cls.dim)])
    for z in _states(rng, cls.dim):
        J = cls.sys.M._jacobian(z)
        assert sparse.issparse(J)
        xp, zo = cls.split(z)
        dense = K.copy()
        dense[:n, :n] += plant.M.derivative(xp)
        dense[n:, n:] += cls.opt_sys.M.derivative(zo)
        assert np.max(np.abs(J.toarray() - dense)) <= 1e-14 * (1.0 + np.max(np.abs(dense)))


@st.composite
def port_maps(draw):
    """A random B: R^n_u -> R^n_x with about half its entries zero, in
    both formats (dense and CSC), with random diagonal metrics X and U;
    plus an rng for vectors."""
    n_x, n_u = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((n_x, n_u)) * (rng.uniform(size=(n_x, n_u)) < 0.5)
    X = pf.Metric(rng.uniform(0.1, 10.0, n_x))
    U = pf.Metric(rng.uniform(0.1, 10.0, n_u))
    return B, sparse.csc_matrix(B), X, U, rng


@PROFILE
@given(port_maps())
def test_sparse_and_dense_adjoint_agree(ports):
    B, B_sparse, X, U, _ = ports
    dense, scaled = pf.adjoint(B, U, X), pf.adjoint(B_sparse, U, X)
    assert isinstance(dense, np.ndarray) and sparse.issparse(scaled)
    assert scaled.nnz == B_sparse.nnz
    assert np.max(np.abs(scaled.toarray() - dense), initial=0.0) <= 1e-15 * (
        1.0 + np.max(np.abs(dense), initial=0.0))


@PROFILE
@given(port_maps())
def test_metric_adjoint_pairing_in_both_formats(ports):
    B, B_sparse, X, U, rng = ports
    u, x = rng.standard_normal(B.shape[1]), rng.standard_normal(B.shape[0])
    for mat in (B, B_sparse):
        lhs = X.inner(mat @ u, x)
        rhs = U.inner(u, pf.adjoint(mat, U, X) @ x)
        assert abs(lhs - rhs) <= _ROUND * (1.0 + X.norm(B @ u) * X.norm(x))


@PROFILE
@given(port_maps(), st.integers(1, 5))
def test_output_of_a_row_stack_is_the_row_by_row_output(ports, rows):
    B, B_sparse, X, U, rng = ports
    xs = rng.standard_normal((rows, B.shape[0]))
    for mat in (B, B_sparse):
        sys = pf.PHSystem(pf.identity(B.shape[0]), mat, X, U)
        assert sparse.issparse(sys.b_star) == sparse.issparse(mat)
        stacked = sys.output(xs)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (rows, B.shape[1])
        by_row = np.array([sys.output(x) for x in xs])
        scale = 1.0 + np.max(np.abs(sys.b_star)) * np.max(np.abs(xs)) * B.shape[0]
        assert np.max(np.abs(stacked - by_row)) <= _ROUND * scale


@PROFILE
@given(st.booleans().flatmap(lambda logcosh: problems(logcosh)), st.floats(0.1, 10.0))
def test_sparse_coupling_is_skew_and_confined_to_the_ports(problem, gamma):
    # K = J - diag(DM_plant, DM_opt) is the closed loop's coupling block:
    # sparse, nonzero only between the plant and the lam0 block, and skew
    # in the product metric, W K = -(W K)^T
    ocp, rng = problem
    n = ocp.n
    G = rng.standard_normal((n, n))
    plant = pf.assemble_plant(pf.cubic_plant(G @ G.T / n + 0.1 * np.eye(n), 1.3,
                                             ocp.model.B, np.zeros(n)))
    opt = pf.assemble_optimizer(ocp)
    cls = pf.couple(opt, plant, ocp, pf.CouplingSpec(gamma))
    z = rng.standard_normal(cls.dim)
    xp, zo = cls.split(z)
    K = cls.sys.M._jacobian(z) - sparse.block_diag([plant.M._jacobian(xp),
                                                    opt.M._jacobian(zo)])
    lam0 = n + ocp.blocks(np.arange(ocp.state_dim)).lam0
    inside = np.zeros(K.shape, dtype=bool)
    inside[:n, lam0] = inside[lam0, :n] = True
    assert not np.any(K.toarray()[~inside])
    # coupling_block itself, here on the optimizer's first n ports
    direct = pf.coupling_block(plant, opt, gamma * ocp.model.B.T, ocp.m, n)
    assert sparse.issparse(direct) and direct.nnz <= 2 * n * n
    for block in (K, direct):
        WK = cls.sys.metric.weights[:, None] * block.toarray()
        assert np.max(np.abs(WK + WK.T)) <= 1e-14 * (1.0 + np.max(np.abs(WK)))


@st.composite
def staged_problems(draw):
    """A random OCP with N in 2..64, n in 1..4 and m in 1..2, a quadratic
    or logcosh stage, and with or without a cubic plant of dimension n
    closed against it; returns (ocp, optimizer, closed loop or None, rng)."""
    N, n, m = draw(st.integers(2, 64)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, n))
    Q = G @ G.T / n + 0.1 * np.eye(n)
    stage = (pf.LogCoshStage(draw(st.floats(0.3, 2.0))) if draw(st.booleans())
             else pf.QuadraticStage(Q, rng.standard_normal(n)))
    model = pf.LinearPlantModel(0.5 * rng.standard_normal((n, n)),
                                rng.standard_normal((n, m)), 0.0, rng.standard_normal(n))
    ocp = pf.assemble_ocp(model, pf.build_grid(1.0, N), pf.CostSpec(1.0, stage))
    opt = pf.assemble_optimizer(ocp)
    cls = None
    if draw(st.booleans()):
        plant = pf.assemble_plant(pf.cubic_plant(Q, 1.3, model.B, np.zeros(n)))
        cls = pf.couple(opt, plant, ocp, pf.CouplingSpec("inv_alpha"))
    return ocp, opt, cls, rng


def _bandwidths(A, order):
    rank = np.argsort(order)
    A = A.tocoo()
    d = rank[A.row] - rank[A.col]
    return int(d.max()), int(-d.min())


@PROFILE
@given(staged_problems())
def test_stage_order_makes_every_solve_banded(problem):
    # kl = ku = 2n + m - 1 whatever N: x_k's first entry reaches the last
    # entry of lam_{k+1} across u_k, and a closed loop's plant block sits
    # ahead of lam0 within that reach
    ocp, opt, cls, rng = problem
    order = ocp.stage_order
    assert np.array_equal(np.sort(order), np.arange(ocp.state_dim))
    assert opt.M.order is order
    width = 2 * ocp.n + ocp.m - 1
    c = 0.5 * 0.01  # theta h of a midpoint step at h_t = 0.01
    z = rng.standard_normal(ocp.state_dim)
    J = ocp.m_opt_jacobian(z)
    step = sparse.identity(ocp.state_dim, format="csr") + c * J
    cases = [(J, order, False), (step, order, True)]
    if cls is not None:
        z_cl = rng.standard_normal(cls.dim)
        newton = sparse.identity(cls.dim, format="csc") / c + cls.sys.M._jacobian(z_cl)
        cases.append((newton, cls.sys.M.order, True))
        assert np.array_equal(cls.sys.M.order[:ocp.n], np.arange(ocp.n))
        assert np.array_equal(cls.sys.M.order[ocp.n:], ocp.n + order)
    for A, o, compare in cases:
        assert _bandwidths(A, o) == (width, width)
        band = phcore._Factor(o)
        solve = band.solver([(0, A)])
        assert (band.kl, band.ku) == (width, width)
        if compare:  # the step matrices are well conditioned
            r = rng.standard_normal(A.shape[0])
            ref = splu(A.tocsc()).solve(r)
            assert np.linalg.norm(solve(r) - ref) <= 1e-12 * np.linalg.norm(ref)


def _coo_band(A, order, band, shift):
    """The band array of A + shift I in `order`, in band's layout, by
    adding up the permuted COO entries of A."""
    rank = np.argsort(order)
    coo = sparse.coo_matrix(A)
    i, j = rank[coo.row], rank[coo.col]
    ref = np.zeros_like(band.ab)
    np.add.at(ref, (band.kl + band.ku + i - j, j), coo.data)
    ref[band.kl + band.ku] += shift
    return ref


def _integral(block):
    """A copy of a Jacobian term with integer values, so that every sum
    of them is exact whatever its order."""
    if not sparse.issparse(block):
        return np.round(4.0 * block)
    out = block.copy()
    out.data = np.round(4.0 * out.data)
    return out


@PROFILE
@given(staged_problems())
def test_band_positions_reproduce_a_coo_scatter(problem):
    # the positions computed from the Jacobian terms at the zero state
    # serve every later state: the patterns stay fixed, and scattering
    # the terms into the band gives what permuting the COO entries of
    # their sum, the summed Jacobian, gives
    ocp, opt, cls, rng = problem
    M = opt.M if cls is None else cls.sys.M
    band = phcore._Factor(M.order)
    band.solver(M._terms(np.zeros(M.dim)), 1.0)
    pos = band.pos
    for z in _states(rng, M.dim):
        ab = band._fill(M._terms(z), 2.0).copy()
        assert band.pos is pos
        assert np.array_equal(ab, _coo_band(M._jacobian(z), M.order, band, 2.0))
    # overlapping terms: the same terms plus the identity, which the
    # scatter adds onto their diagonals, and a term that stores every
    # diagonal entry twice, which it adds up with np.add.at
    dim = M.dim
    twice = sparse.csr_matrix((np.ones(2 * dim), np.repeat(np.arange(dim), 2),
                               np.arange(0, 2 * dim + 1, 2)), shape=(dim, dim))
    terms = [(lo, _integral(block)) for lo, block in M._terms(z)]
    terms += [(0, sparse.identity(dim, format="csr")), (0, twice)]
    fresh = phcore._Factor(M.order)
    ab = fresh._fill(terms, 2.0)
    assert fresh.unique[-1] is False
    summed = sparse.csr_matrix((dim, dim))
    for lo, block in terms:
        summed = summed + sparse.block_diag([sparse.csr_matrix((lo, lo)), block,
                                             sparse.csr_matrix((dim - lo - block.shape[0],) * 2)])
    assert np.array_equal(ab, _coo_band(summed, M.order, fresh, 2.0))


@st.composite
def schur_forms(draw, max_dim=150):
    """A Hurwitz matrix in standardized real Schur form, with 2x2 blocks
    [[a, b], [c, a]] (b c < 0) at drawn rows and random entries above
    the diagonal."""
    n = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair_frac = draw(st.floats(0.0, 1.0))
    T = np.triu(rng.standard_normal((n, n))) / np.sqrt(n)
    d = -(0.1 + rng.random(n))
    T[np.diag_indices(n)] = d
    j = 0
    while j < n - 1:
        if rng.random() < pair_frac:
            T[j:j + 2, j:j + 2] = [[d[j], 0.5 + rng.random()],
                                   [-(0.5 + rng.random()), d[j]]]
            j += 2
        else:
            j += 1
    return T, rng


@PROFILE
@given(schur_forms(), schur_forms())
def test_blocked_sylvester_matches_dtrsyl(a, b):
    # A X + X B^T = C with independent sides, so the recursion splits
    # rows and columns alike; the unblocked LAPACK solve is the oracle
    (A, rng), (B, _) = a, b
    C = rng.standard_normal((A.shape[0], B.shape[0]))
    ref, scale, info = dtrsyl(A, B, C, tranb="T")
    assert scale == 1.0 and info == 0
    X = C.copy()
    analysis._sylvester(A, B, X)
    assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROFILE
@given(schur_forms())
def test_lyapunov_certificate_matches_scipy(form):
    T, rng = form
    n = T.shape[0]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ T.T @ Q.T
    cert = pf.lyapunov_certificate(A)
    P = solve_continuous_lyapunov(A.T, -np.eye(n))
    scale = np.max(np.abs(P))
    assert np.max(np.abs(cert.P - P)) <= 1e-12 * scale
    assert cert.residual <= 1e-10 * (1.0 + scale)
    assert cert.min_eig_P > 0
