"""Property tests over random small problems: the state layout of
`DiscretizedOCP.blocks`, the discrete identities the flow rests on
(the metric adjoint pair, the monotonicity gap of m_opt and the skew
closed-loop coupling), the KKT point as the flow's steady state, the
shared implicit step behind the resolvent, the semigroup and the
implicit-midpoint flow, the Jacobians its Newton solve factors, the
time-stage order in which they are banded, the linear step's solve
with dgbtrf's interchanges folded into that order, the sparse ports
and coupling block against their dense counterparts, and the spectrum
analysis of a dense Jacobian against its CSR form."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

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
def problems(draw, logcosh=False, max_N=8):
    """A random small quadratic OCP: N in 2..max_N, n in 1..3, m in 1..2,
    random A, B, x0 and q, SPD Q and alpha > 0; plus an rng for vectors.
    With logcosh the stage is logcosh at a random scale instead."""
    N = draw(st.integers(2, max_N))
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
    m_opt = pf.assemble_optimizer(ocp).M
    z1, z2 = rng.standard_normal((2, ocp.state_dim))
    gap = ocp.state_metric.inner(m_opt(z1) - m_opt(z2), z1 - z2)
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


def _stage_hessians(ocp, z):
    """The stage cost's n x n Hessian at each node of z: Q for a
    quadratic stage, diag(l''(x_i)) for a logcosh one."""
    stage, x = ocp.cost.stage, ocp.blocks(z).x
    if stage.is_quadratic:
        return [stage.Q] * x.shape[0]
    return [np.diag(c) for c in stage.curvature(x)]


@PROFILE
@given(st.booleans().flatmap(lambda logcosh: problems(logcosh)))
def test_hessian_and_jacobian_keep_the_block_diag_csr(problem):
    # the optimizer's L in CSR, and its Hessian block and Jacobian against
    # the sparse.block_diag and sparse.bmat constructions: same shape and
    # values
    ocp, rng = problem
    M = pf.assemble_optimizer(ocp).M
    assert sparse.issparse(M.linear_part) and M.linear_part.format == "csr"
    for z in _states(rng, ocp.state_dim):
        Hx = sparse.block_diag(_stage_hessians(ocp, z), format="csr")
        Hu = ocp.cost.alpha * sparse.identity((ocp.N + 1) * ocp.m, format="csr")
        H_old = sparse.block_diag([Hx, Hu], format="csr")
        J_old = sparse.bmat([[H_old, -ocp.C_star], [ocp.C, None]], format="csr")
        J = M.derivative(z)
        p = ocp.primal_dim
        for new, old in ((J[:p, :p], H_old), (J, J_old)):
            assert new.shape == old.shape
            assert np.array_equal(new, old.toarray())


@PROFILE
@given(st.booleans().flatmap(lambda logcosh: problems(logcosh)))
def test_optimizer_steady_state_is_the_kkt_point(problem):
    # the flow's equilibrium meets the optimality system to the rule of
    # steady_state, which scales with the problem and not the start
    ocp, rng = problem
    sys = pf.assemble_optimizer(ocp)
    target = min(1e-8, 1e-11 * (1.0 + ocp.dual_metric.norm(ocp.rhs)))
    for x_init in (None, rng.standard_normal(ocp.state_dim)):
        ss = pf.steady_state(sys, pf.constant_input(ocp), 1e-8, x_init)
        assert pf.kkt_residual(ocp, ss.x_bar)[1] <= target


@PROFILE
@given(problems(logcosh=True))
def test_logcosh_flow_jacobian_is_sparse_and_exact(problem):
    ocp, rng = problem
    M = pf.assemble_optimizer(ocp).M
    p = ocp.primal_dim
    assert sparse.issparse(M.linear_part)  # the Jacobian is L plus phi' on the diagonal
    for z in _states(rng, ocp.state_dim):
        J = M.derivative(z)
        dense = np.zeros((ocp.state_dim, ocp.state_dim))
        dense[:p, :p] = sparse.block_diag(
            [*_stage_hessians(ocp, z),
             ocp.cost.alpha * np.eye((ocp.N + 1) * ocp.m)]).toarray()
        dense[:p, p:] = -ocp.C_star.toarray()
        dense[p:, :p] = ocp.C.toarray()
        assert np.max(np.abs(J - dense)) <= 1e-14
        assert isinstance(J, np.ndarray)


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
    assert sparse.issparse(cls.sys.M.linear_part)
    for z in _states(rng, cls.dim):
        J = cls.sys.M.derivative(z)
        xp, zo = cls.split(z)
        dense = K.copy()
        dense[:n, :n] += plant.M.derivative(xp)
        dense[n:, n:] += cls.opt_sys.M.derivative(zo)
        assert np.max(np.abs(J - dense)) <= 1e-14 * (1.0 + np.max(np.abs(dense)))


def _m_opt_oracle(ocp, z):
    """The optimality operator as the parts of the state compute it: the
    gradient row grad_cost(z) - C* (lam, lam0) and the constraint row
    C (x, u)."""
    s = ocp.blocks(z)
    out = np.empty(ocp.state_dim)
    out[:ocp.primal_dim] = ocp.grad_cost(z) - ocp.C_star @ s.dual
    out[ocp.primal_dim:] = ocp.C @ s.primal
    return out


def _m_opt_jacobian_oracle(ocp, z):
    """[[H(z), -C*], [C, 0]] assembled densely from the stage Hessians."""
    p = ocp.primal_dim
    J = np.zeros((ocp.state_dim, ocp.state_dim))
    J[:p, :p] = sparse.block_diag([*_stage_hessians(ocp, z),
                                   ocp.cost.alpha * np.eye((ocp.N + 1) * ocp.m)]).toarray()
    J[:p, p:] = -ocp.C_star.toarray()
    J[p:, :p] = ocp.C.toarray()
    return J


@st.composite
def package_operators(draw):
    """One operator of each form the package builds: a cubic plant, a
    quadratic or logcosh optimizer, or a cubic plant closed against
    either; returns (kind, operator, its evaluation and its dense
    Jacobian written out member by member, ocp or None, rng)."""
    kind = draw(st.sampled_from(["plant", "quadratic", "logcosh",
                                 "quadratic loop", "logcosh loop"]))
    ocp, rng = draw(problems(logcosh="logcosh" in kind))
    n = ocp.n
    G = rng.standard_normal((n, n))
    R, kappa = G @ G.T / n + 0.1 * np.eye(n), draw(st.floats(0.1, 3.0))
    plant = pf.assemble_plant(pf.cubic_plant(R, kappa, ocp.model.B, np.zeros(n)))

    def plant_eval(x):
        return R @ x + kappa * x**3

    def plant_jac(x):
        return R + np.diag(3.0 * kappa * x**2)

    if kind == "plant":
        return kind, plant.M, plant_eval, plant_jac, None, rng
    opt = pf.assemble_optimizer(ocp)
    if kind in ("quadratic", "logcosh"):
        return (kind, opt.M, lambda z: _m_opt_oracle(ocp, z),
                lambda z: _m_opt_jacobian_oracle(ocp, z), ocp, rng)
    gamma = draw(st.floats(0.1, 10.0))
    cls = pf.couple(opt, plant, ocp, pf.CouplingSpec(gamma))
    lam0 = ocp.blocks(np.arange(ocp.state_dim) - ocp.primal_dim).lam0
    port = pf.PHSystem(opt.M, opt.B[:, lam0], opt.metric,
                       pf.Metric(opt.input_metric.weights[lam0]))
    K = pf.coupling_block(plant, port, gamma * ocp.model.B.T, ocp.m, n).toarray()

    def loop_eval(z):
        return np.concatenate([plant_eval(z[:n]), _m_opt_oracle(ocp, z[n:])]) + K @ z

    def loop_jac(z):
        return K + sparse.block_diag([plant_jac(z[:n]),
                                      _m_opt_jacobian_oracle(ocp, z[n:])]).toarray()

    return kind, cls.sys.M, loop_eval, loop_jac, ocp, rng


def _gap(a, b, scale):
    """The largest entry of |a - b| over 1 + scale."""
    return float(np.max(np.abs(a - b))) / (1.0 + scale)


@PROFILE
@given(package_operators(), st.integers(1, 6))
def test_structured_evaluation_and_jacobian_match_the_member_formulas(op, rows):
    # M(z) = L z + g + phi(z) on one state and on a block of rows, its
    # Jacobian L + diag(phi') and the Newton solve built on the layout of
    # L against the formulas each member is written in; the optimality
    # operator keeps grad_cost(z) - C* lam and C z_p bit for bit
    kind, M, evaluate, jacobian, ocp, rng = op
    assert M.is_linear == (kind == "quadratic")
    states = _states(rng, M.dim)
    block = rng.standard_normal((rows, M.dim)) * rng.choice([1.0, 40.0], (rows, 1))
    shift = 100.0  # 1/c of a midpoint step at h_t = 0.02
    solve = phcore._newton_solver(M, shift)
    for z in states + list(block):
        ref, J = evaluate(z), jacobian(z)
        scale = float(np.max(np.abs(J) @ np.abs(z)) + np.max(np.abs(ref)))
        assert _gap(M(z), ref, scale) <= 1e-14
        if ocp is not None and kind in ("quadratic", "logcosh"):
            r, p = pf.kkt_residual(ocp, z)[0], ocp.primal_dim
            assert np.array_equal(r[:p], ref[:p])
            assert np.array_equal(r[p:], ref[p:] - ocp.rhs)
            if kind == "logcosh":
                assert np.array_equal(M(z), ref)
        assert _gap(M.derivative(z), J, float(np.max(np.abs(J)))) <= 1e-14
        r = rng.standard_normal(M.dim)
        x = solve(z, r)
        A = J + shift * np.eye(M.dim)
        assert np.linalg.norm(A @ x - r) <= 1e-12 * np.linalg.norm(np.abs(A) @ np.abs(x))
    batch = phcore._batch_eval(M, block)
    assert batch.shape == block.shape
    for row, z in zip(batch, block):
        ref = evaluate(z)
        scale = float(np.max(np.abs(jacobian(z)) @ np.abs(z)) + np.max(np.abs(ref)))
        assert _gap(row, ref, scale) <= 1e-14


@PROFILE
@given(st.booleans().flatmap(lambda logcosh: problems(logcosh)))
def test_kkt_residual_is_the_flow_drift_less_its_input(problem):
    # kkt_residual (grad_cost, C* and C) and the flow's drift (the L, g
    # and phi of assemble_optimizer) share no code: the residual is
    # M(z) - B u under the constant input, to rounding for a quadratic
    # stage and bit for bit for a logcosh one, whose L is the saddle part
    ocp, rng = problem
    sys = pf.assemble_optimizer(ocp)
    b = sys.B @ pf.constant_input(ocp)
    for z in _states(rng, ocp.state_dim):
        r, drift = pf.kkt_residual(ocp, z)[0], sys.M(z) - b
        if sys.M.is_linear:
            scale = float(np.max(abs(sys.M.linear_part) @ np.abs(z)) + np.max(np.abs(drift)))
            assert _gap(r, drift, scale) <= 1e-14
        else:
            assert np.array_equal(r, drift)


@st.composite
def cubic_lq_loops(draw):
    """A random cubic plant closed against an LQ optimizer: n in 1..4,
    m in 1..2, N in 2..40, random A and B, SPD Q and R, kappa > 0 and
    x_p0, theta in {1/2, 1}; returns (loop, scheme, theta, initial state)."""
    N, n, m = draw(st.integers(2, 40)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    scheme, theta = draw(st.sampled_from([("implicit_midpoint", 0.5), ("implicit_euler", 1.0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G, H = rng.standard_normal((2, n, n))
    Q, R = G @ G.T / n + 0.1 * np.eye(n), H @ H.T / n + 0.1 * np.eye(n)
    model = pf.LinearPlantModel(0.5 * rng.standard_normal((n, n)),
                                rng.standard_normal((n, m)), 0.0, rng.standard_normal(n))
    ocp = pf.assemble_ocp(model, pf.build_grid(1.0, N), pf.CostSpec(1.0, pf.QuadraticStage(Q)))
    plant = pf.assemble_plant(pf.cubic_plant(R, draw(st.floats(0.1, 3.0)), model.B,
                                             rng.standard_normal(n)))
    cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp, pf.CouplingSpec("inv_alpha"))
    return cls, scheme, theta, cls.initial_state(plant.M.dim * [1.0])


@PROFILE
@given(cubic_lq_loops())
def test_condensed_loop_step_matches_the_banded_step(loop):
    # the step that eliminates the LQ optimizer against the general Newton
    # step of the same L, g and phi without an order, which factors the
    # full Newton matrix by SuperLU; then 20 condensed steps keep the
    # power balance at the audit's scale
    cls, scheme, theta, z0 = loop
    M, metric, h, tol = cls.sys.M, cls.sys.metric, 0.02, 1e-13
    norm = metric.norm
    assert cls.opt_sys.M.is_linear and not cls.plant_sys.M.is_linear
    assert max(p.hi for p in M.nodewise) == cls.n_p  # phi lives in the plant alone
    general = pf.MonotoneOperatorSpec(M.dim, M.linear_part, M.affine_offset, M.nodewise)
    assert general.order is None
    b = np.zeros(M.dim)
    z_c, z_g = np.empty(M.dim), np.empty(M.dim)
    res_c = phcore.implicit_stepper(M, h, theta, metric, tol, b)(z0, z_c)
    res_g = phcore.implicit_stepper(general, h, theta, metric, tol, b)(z0, z_g)
    assert res_c <= tol and res_g <= tol
    assert norm(z_c - z_g) <= 1e-11 * norm(z_g)
    cfg = pf.IntegratorConfig(h_t=h, scheme=scheme, newton_tol=tol)
    traj = pf.integrate_flow(cls.sys, z0, np.zeros(0), cfg, 20 * h)
    assert traj.states.shape[0] == 21
    audit = pf.power_balance_audit(cls.sys, traj)
    assert audit.max_residual <= 1e-10 * (1.0 + norm(z0) ** 2)


def _march_reference(model, u_nodes, grid):
    """The trapezoid march as each interval's implicit midpoint step of
    dx/dtau = A x + b_i: a linear stepper built for that interval's
    drive b_i = B ubar_i + fbar_i."""
    n, N, h = model.n, grid.N, grid.h
    f = model.f_nodes(grid)
    ubar = 0.5 * (u_nodes[1:] + u_nodes[:-1])
    x = np.empty((N + 1, n))
    x[0] = model.x0
    for i in range(N):
        drive = model.B @ ubar[i] + 0.5 * (f[i + 1] + f[i])
        step = phcore.implicit_stepper(pf.linear(-model.A), h, 0.5, pf.Metric.euclidean(n),
                                       0.0, drive)
        step(x[i], x[i + 1])
    return x


@PROFILE
@given(st.integers(2, 64), st.integers(1, 4), st.integers(0, 2), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_input_to_state_is_the_linear_midpoint_step_bit_for_bit(N, n, m, per_node, seed):
    # the march solves with one factor of I - (h/2) A; it must write the
    # bits of a linear implicit stepper built for each interval's drive
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((N + 1, n) if per_node else n)
    model = pf.LinearPlantModel(0.5 * rng.standard_normal((n, n)), rng.standard_normal((n, m)),
                                f, rng.standard_normal(n))
    grid = pf.build_grid(1.0, N)
    u_nodes = rng.standard_normal((N + 1, m))
    x = pf.input_to_state(model, u_nodes, grid)
    assert np.array_equal(x, _march_reference(model, u_nodes, grid))


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
    # nonzero only between the plant and the lam0 block, and skew in the
    # product metric, W K = -(W K)^T; coupling_block builds it sparse
    ocp, rng = problem
    n = ocp.n
    G = rng.standard_normal((n, n))
    plant = pf.assemble_plant(pf.cubic_plant(G @ G.T / n + 0.1 * np.eye(n), 1.3,
                                             ocp.model.B, np.zeros(n)))
    opt = pf.assemble_optimizer(ocp)
    cls = pf.couple(opt, plant, ocp, pf.CouplingSpec(gamma))
    z = rng.standard_normal(cls.dim)
    xp, zo = cls.split(z)
    K = cls.sys.M.derivative(z) - sparse.block_diag([plant.M.derivative(xp),
                                                     opt.M.derivative(zo)]).toarray()
    lam0 = n + ocp.blocks(np.arange(ocp.state_dim)).lam0
    inside = np.zeros(K.shape, dtype=bool)
    inside[:n, lam0] = inside[lam0, :n] = True
    assert not np.any(K[~inside])
    # coupling_block itself, here on the optimizer's first n ports
    direct = pf.coupling_block(plant, opt, gamma * ocp.model.B.T, ocp.m, n)
    assert sparse.issparse(direct) and direct.nnz <= 2 * n * n
    for block in (K, direct.toarray()):
        WK = cls.sys.metric.weights[:, None] * block
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
    J = sparse.csr_matrix(opt.M.derivative(z))
    step = sparse.identity(ocp.state_dim, format="csr") + c * J
    cases = [(J, order, False), (step, order, True)]
    if cls is not None:
        z_cl = rng.standard_normal(cls.dim)
        newton = (sparse.identity(cls.dim, format="csc") / c
                  + sparse.csr_matrix(cls.sys.M.derivative(z_cl)))
        cases.append((newton, cls.sys.M.order, True))
        assert np.array_equal(cls.sys.M.order[:ocp.n], np.arange(ocp.n))
        assert np.array_equal(cls.sys.M.order[ocp.n:], ocp.n + order)
    for A, o, compare in cases:
        assert _bandwidths(A, o) == (width, width)
        band = phcore._Factor(A.tocsr(), 0.0, order=o)
        solve = band.solver()
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


def _factored_band(factor, d):
    """A copy of the band array that factor.solver(d) factors."""
    seen, dgbtrf = [], phcore.dgbtrf

    def capture(ab, *args, **kwargs):
        seen.append(ab.copy())
        return dgbtrf(ab, *args, **kwargs)

    with mock.patch.object(phcore, "dgbtrf", capture):
        factor.solver(d)
    return seen[0]


@PROFILE
@given(staged_problems())
def test_band_positions_reproduce_a_coo_scatter(problem):
    # the band of L + shift I, laid out once, serves every later state:
    # each Newton matrix it factors, the copy plus phi' at the diagonal
    # positions of the nodewise coordinates, is what permuting the COO
    # entries of L and adding the shift and phi' on the diagonal gives
    ocp, opt, cls, rng = problem
    M = opt.M if cls is None else cls.sys.M
    coords = M._diagonal_coords
    band = phcore._Factor(M.linear_part, 2.0, coords, M.order)
    rank = np.argsort(M.order)
    for z in _states(rng, M.dim):
        d = M._diagonal(z)
        ref = _coo_band(M.linear_part, M.order, band, 2.0)
        ref[band.kl + band.ku, rank[coords]] += d
        assert np.array_equal(_factored_band(band, d), ref)
    # a CSR L that stores every diagonal entry twice more, as a
    # non-canonical CSR: the layout adds its duplicates up with np.add.at
    # (integer values, so every sum is exact whatever its order)
    dim = M.dim
    L = sparse.csr_matrix(M.linear_part, copy=True)
    L.data = np.round(4.0 * L.data)
    rows = np.concatenate([np.repeat(np.arange(dim), np.diff(L.indptr)),
                           np.tile(np.arange(dim), 2)])
    cols = np.concatenate([L.indices, np.tile(np.arange(dim), 2)])
    vals = np.concatenate([L.data, np.ones(2 * dim)])
    k = np.argsort(rows, kind="stable")
    twice = sparse.csr_matrix((vals[k], cols[k], np.searchsorted(rows[k], np.arange(dim + 1))),
                              shape=(dim, dim))
    assert not twice.has_canonical_format
    fresh = phcore._Factor(twice, 2.0, order=M.order)
    summed = L + 2.0 * sparse.identity(dim, format="csr")
    assert np.array_equal(_factored_band(fresh, ()), _coo_band(summed, M.order, fresh, 2.0))


@st.composite
def linear_step_problems(draw):
    """A random LQ optimizer (N in 2..64, n in 1..4, m in 1..2), alone or
    closed against a linear plant of dimension n, with a step h_t drawn
    log-uniformly in [1e-3, 1] and theta in {1/2, 1}; returns (M, h_t,
    theta, rng).  Large steps pivot in many rows, so the draws hold
    folds with and without a head and factors that keep dgbtrs."""
    N, n, m = draw(st.integers(2, 64)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    h_t = 10.0 ** draw(st.floats(-3.0, 0.0))
    theta = draw(st.sampled_from([0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, n))
    model = pf.LinearPlantModel(0.5 * rng.standard_normal((n, n)),
                                rng.standard_normal((n, m)), 0.0, rng.standard_normal(n))
    stage = pf.QuadraticStage(G @ G.T / n + 0.1 * np.eye(n), rng.standard_normal(n))
    ocp = pf.assemble_ocp(model, pf.build_grid(1.0, N), pf.CostSpec(1.0, stage))
    opt = pf.assemble_optimizer(ocp)
    M = opt.M
    if draw(st.booleans()):
        plant = pf.assemble_plant(pf.linear_plant(np.eye(n), model.B, np.zeros(n)))
        M = pf.couple(opt, plant, ocp, pf.CouplingSpec("inv_alpha")).sys.M
    return M, h_t, theta, rng


def _step_solves(M, h_t, theta):
    """The folded solve with I + theta h L and dgbtrs on the same dgbtrf
    output: two factors of one band array, each factored once."""
    L = (theta * h_t) * M.linear_part
    return (phcore._Factor(L, 1.0, order=M.order).step_solver(),
            phcore._Factor(L, 1.0, order=M.order).solver())


def _assert_solves_agree(folded, gbtrs, rng, dim):
    for r in (rng.standard_normal(dim), rng.standard_normal((dim, 3))):
        ref = gbtrs(r)
        assert np.linalg.norm(folded(r) - ref) <= 1e-13 * np.linalg.norm(ref)


def _reference_step(M, h_t, theta):
    """The reference linear theta-step: one folded solve with
    I + theta h L of (I - (1-theta) h L) z + h (b - g)."""
    L = sparse.csr_matrix(M.linear_part)
    solve = phcore._Factor((theta * h_t) * L, 1.0, order=M.order).step_solver()
    rhs = sparse.identity(M.dim, format="csr") - ((1.0 - theta) * h_t) * L
    return lambda z, b: solve(rhs @ z + h_t * (b - M.offset))


@PROFILE
@given(linear_step_problems())
def test_folded_step_solve_matches_dgbtrs(problem):
    # the linear step's solve, dgbtrf's interchanges folded into the
    # gather and L', against dgbtrs on the same factors, for 1-D and 2-D
    # right sides; the matvec-free step against the step with the product
    # (I - (1-theta) h L) z, bit for bit at theta = 1
    M, h_t, theta, rng = problem
    folded, gbtrs = _step_solves(M, h_t, theta)
    _assert_solves_agree(folded, gbtrs, rng, M.dim)
    reference = _reference_step(M, h_t, theta)
    z, b = rng.standard_normal(M.dim), rng.standard_normal(M.dim)
    step, _ = phcore._linear_step(M, h_t, theta, b)
    z_next = np.empty(M.dim)
    step(z, z_next)
    ref = reference(z, b)
    if theta == 1.0:
        assert np.array_equal(z_next, ref)
    else:
        assert np.linalg.norm(z_next - ref) <= 1e-12 * np.linalg.norm(ref)


def _timing_script(monkeypatch):
    """scripts/linear_loop_timing.py as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "linear_loop_timing.py"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script pins them on import
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("linear_loop_timing", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_timing_script_measures_every_figure(monkeypatch):
    # the script builds its steppers as a flow does; a change of the
    # stepper's signature must fail here, not only in its CI run
    report = _timing_script(monkeypatch).measure(16, 2, 1, 1, 2)
    assert all(np.isfinite(value) for value in report.values())


def test_folded_solve_of_a_long_chain_of_interchanges(monkeypatch):
    # the N = 1024 chain problem of scripts/linear_loop_timing.py (the
    # double integrator) at h_t = 0.01: dgbtrf interchanges rows in a
    # chain through the first stages, which carries early multipliers
    # about 60 rows down.  A fold that looks back over a fixed window of
    # columns misses some of them and solves this system wrong by percents
    # while staying finite; only a comparison with dgbtrs shows it
    script = _timing_script(monkeypatch)
    ocp, _, plant, _ = script._problem(1024, 2, 1)
    opt = pf.assemble_optimizer(ocp)
    loop = pf.couple(opt, plant, ocp, pf.CouplingSpec("inv_alpha")).sys
    rng = np.random.default_rng(5)
    for M in (opt.M, loop.M):
        for theta in (0.5, 1.0):
            folded, gbtrs = _step_solves(M, script.H_T, theta)
            # the head spans the chain: the bulk L' band, the one sweeping
            # the most columns, starts past it
            bulk = max(folded.lower, key=lambda band: band[2].shape[1])
            assert bulk[0] >= 50
            _assert_solves_agree(folded, gbtrs, rng, M.dim)
        step, _ = phcore._linear_step(M, script.H_T, 1.0, np.zeros(M.dim))
        z, z_next = rng.standard_normal(M.dim), np.empty(M.dim)
        step(z, z_next)
        assert np.array_equal(z_next, _reference_step(M, script.H_T, 1.0)(z, 0.0))


def test_folded_chain_factors_sweep_unit_bands_as_wide_as_their_reach(monkeypatch):
    # the same N = 1024 chain problem: the pivoting fills U up to kl + ku
    # above its diagonal and chains L' well below kl, but only in a few
    # dozen columns.  Every sweep runs with a unit diagonal (U's rows are
    # scaled once), and the bulk band of each factor, its sweep over the
    # most columns, is no wider than the matrix's own band: kl for L' and
    # ku for U; the solve still agrees with dgbtrs
    script = _timing_script(monkeypatch)
    ocp, _, _, _ = script._problem(1024, 2, 1)
    M = pf.assemble_optimizer(ocp).M
    factor = phcore._Factor((0.5 * script.H_T) * M.linear_part, 1.0, order=M.order)
    folded, gbtrs = _step_solves(M, script.H_T, 0.5)
    sweeps, real = [], phcore.dtbsv

    def recorded(k, a, x, **kwargs):
        sweeps.append((kwargs.get("lower", 0), kwargs.get("diag", 0), a.shape[1], k))
        return real(k, a, x, **kwargs)

    monkeypatch.setattr(phcore, "dtbsv", recorded)
    _assert_solves_agree(folded, gbtrs, np.random.default_rng(7), M.dim)
    assert {diag for _, diag, _, _ in sweeps} == {1}
    for lower, width in ((1, factor.kl), (0, factor.ku)):
        columns, k = max((n, k) for low, _, n, k in sweeps if low == lower)
        assert columns > 0.9 * M.dim and k <= width


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


@PROFILE
@given(st.booleans().flatmap(lambda logcosh: problems(logcosh=logcosh, max_N=32)))
def test_spectrum_analysis_of_a_dense_jacobian_matches_its_csr_form(problem):
    # `phflow spectrum` analyses the CSR Jacobian at the KKT point, and
    # the traced benchmark runner its dense `derivative`: both must write
    # the same bytes, so every figure must agree to the last bit
    ocp, _ = problem
    sys = pf.assemble_optimizer(ocp)
    z = pf.kkt_solve(ocp).vector
    J = sys.M.jacobian(z)
    D = sys.M.derivative(z)
    assert sparse.isspmatrix_csr(J) and isinstance(D, np.ndarray)
    gen_csr = pf.metric_generator(J, sys.metric)
    gen_dense = pf.metric_generator(D, sys.metric)
    assert sparse.isspmatrix_csr(gen_csr) and isinstance(gen_dense, np.ndarray)
    assert gen_csr.toarray().tobytes() == gen_dense.tobytes()
    args = (ocp.primal_dim, ocp.primal_metric, ocp.dual_metric)
    b_csr, b_dense = pf.saddle_blocks(J, *args), pf.saddle_blocks(D, *args)
    for name in ("dual_block_max", "adjoint_gap", "sigma_min_m2"):
        assert getattr(b_csr, name) == getattr(b_dense, name)
    assert pf.nonnormality(gen_csr) == pf.nonnormality(gen_dense)
    c_csr = pf.lyapunov_certificate(gen_csr)
    c_dense = pf.lyapunov_certificate(gen_dense)
    assert c_csr.valid()
    for name in ("abscissa", "residual", "min_eig_P"):
        assert getattr(c_csr, name) == getattr(c_dense, name)
    assert c_csr.P.tobytes() == c_dense.P.tobytes()
