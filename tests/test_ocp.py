import numpy as np
import pytest

import phflow as pf
from conftest import (DI_A, DI_B, make_double_integrator, make_logcosh,
                      state_from)


# ---------------------------------------------------------------------------
# grid


def test_build_grid_weights():
    g = pf.build_grid(1.0, 4)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(g.weights, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert g.weights.sum() == pytest.approx(g.t_f)


def test_build_grid_step():
    assert pf.build_grid(2.0, 2).h == pytest.approx(1.0)


def test_build_grid_rejects_tiny_N():
    with pytest.raises(pf.InvalidParameter):
        pf.build_grid(1.0, 1)
    with pytest.raises(pf.InvalidParameter):
        pf.build_grid(-1.0, 4)


@pytest.mark.parametrize("N", [4.0, float("nan"), 2.5, "8"])
def test_build_grid_refuses_a_non_integer_N_by_name(N):
    with pytest.raises(pf.InvalidParameter, match="grid size N must be an integer"):
        pf.build_grid(1.0, N)


def test_build_grid_takes_a_numpy_integer_N():
    assert pf.build_grid(1.0, np.int64(4)).N == 4


# ---------------------------------------------------------------------------
# constraint assembly


def scalar_model(A=0.0, B=1.0, f=0.0, x0=1.0):
    return pf.LinearPlantModel(np.array([[A]]), np.array([[B]]), f,
                               np.array([x0]))


def test_constraint_on_linear_ramp():
    # x(tau) = tau with u = 0 has residual xdot = 1 on every interval
    grid = pf.build_grid(1.0, 5)
    model = scalar_model()
    C, rhs = pf.assemble_constraint(model, grid)
    x = grid.nodes.reshape(-1, 1)
    u = np.zeros((6, 1))
    out = C @ np.concatenate([x.ravel(), u.ravel()])
    assert np.allclose(out[:5], 1.0)
    assert out[5] == pytest.approx(0.0)


def test_constraint_constant_state():
    grid = pf.build_grid(1.0, 4)
    model = scalar_model(x0=3.0)
    C, rhs = pf.assemble_constraint(model, grid)
    z = np.concatenate([np.full(5, 3.0), np.zeros(5)])
    out = C @ z
    assert np.allclose(out[:4], 0.0)
    assert out[4] == pytest.approx(3.0)
    assert rhs[-1] == pytest.approx(3.0)


def test_constraint_second_order_consistency():
    # sampled smooth (x, u): the stencil matches the continuous residual
    # at interval midpoints to O(h^2)
    A = DI_A
    B = DI_B
    x_fn = lambda t: np.array([np.sin(t), np.cos(2 * t)])
    dx_fn = lambda t: np.array([np.cos(t), -2 * np.sin(2 * t)])
    u_fn = lambda t: np.array([np.exp(-t)])

    def stencil_error(N):
        grid = pf.build_grid(1.0, N)
        model = pf.LinearPlantModel(A, B, 0.0, x_fn(0.0))
        C, _ = pf.assemble_constraint(model, grid)
        x = np.array([x_fn(t) for t in grid.nodes])
        u = np.array([u_fn(t) for t in grid.nodes])
        out = C @ np.concatenate([x.ravel(), u.ravel()])
        mids = grid.midpoints
        truth = np.array([dx_fn(t) - A @ x_fn(t) - B @ u_fn(t) for t in mids])
        return np.max(np.abs(out[:N * 2].reshape(N, 2) - truth))

    e1, e2 = stencil_error(16), stencil_error(32)
    assert e1 / e2 >= 3.5


@pytest.mark.parametrize("A,B,N", [
    (DI_A, DI_B, 4),
    (DI_A, DI_B, 8),
    (np.array([[-1.0, 2.0], [0.0, -3.0]]), np.eye(2), 6),
    (np.array([[0.5]]), np.array([[2.0]]), 12),
])
def test_full_row_rank_least_squares(A, B, N):
    rng = np.random.default_rng(0)
    model = pf.LinearPlantModel(A, B, 0.0, np.ones(A.shape[0]))
    grid = pf.build_grid(1.0, N)
    C, _ = pf.assemble_constraint(model, grid)
    C = C.toarray()
    r = rng.standard_normal(C.shape[0])
    z, *_ = np.linalg.lstsq(C, r, rcond=None)
    assert np.linalg.norm(C @ z - r) <= 1e-10


def test_adjoint_kernel_trivial():
    ocp = make_double_integrator(N=8)
    wd, wp = ocp.dual_metric.weights, ocp.primal_metric.weights
    weighted = (np.sqrt(wd)[:, None] * ocp.C.toarray()) / np.sqrt(wp)[None, :]
    sigma_min = np.linalg.svd(weighted, compute_uv=False).min()
    assert sigma_min > 0.1


# ---------------------------------------------------------------------------
# adjoint application


def test_adjoint_linear_multiplier():
    # A=0, B=1: lambda(tau) = t_f - tau gives -dlambda/dtau = 1 and
    # control part -(t_f - tau) at the nodes
    t_f, N = 1.0, 16
    grid = pf.build_grid(t_f, N)
    model = scalar_model()
    ocp = pf.assemble_ocp(model, grid, pf.CostSpec(1.0, pf.QuadraticStage(np.eye(1))))
    lam = (t_f - grid.midpoints).reshape(-1, 1)
    out = ocp.C_star @ state_from(ocp, lam=lam, lam0=np.array([t_f])).dual
    x_part = out[:N + 1]
    u_part = out[N + 1:]
    assert np.allclose(x_part[1:-1], 1.0, atol=1e-12)
    assert np.allclose(u_part[1:-1], -(t_f - grid.nodes[1:-1]), atol=1e-12)


def test_adjoint_zero():
    ocp = make_double_integrator(N=8)
    out = ocp.C_star @ state_from(ocp, lam=np.zeros((8, 2)), lam0=np.zeros(2)).dual
    assert np.allclose(out, 0.0)


def test_adjoint_is_the_metric_adjoint_of_C():
    # h = 0.7/33 is no power of two, so a product of the weights taken in
    # another order would differ from metric.adjoint in the last bit
    rng = np.random.default_rng(3)
    model = pf.LinearPlantModel(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)),
                                0.0, np.ones(3))
    ocp = pf.assemble_ocp(model, pf.build_grid(0.7, 33),
                          pf.CostSpec(1.0, pf.QuadraticStage(np.eye(3))))
    ref = pf.adjoint(ocp.C, ocp.primal_metric, ocp.dual_metric)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ocp.C_star, name), getattr(ref, name))


def test_duality_identity_random_pairs(di_ocp):
    rng = np.random.default_rng(1)
    for _ in range(100):
        zp = rng.standard_normal(di_ocp.primal_dim)
        d = rng.standard_normal(di_ocp.dual_dim)
        lhs = di_ocp.dual_metric.inner(di_ocp.C @ zp, d)
        rhs = di_ocp.primal_metric.inner(zp, di_ocp.C_star @ d)
        scale = (di_ocp.primal_metric.norm(zp) * di_ocp.dual_metric.norm(d))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, scale)


def test_adjoint_second_order_interior():
    t_f = 1.0
    lam_fn = lambda t: np.array([np.sin(np.pi * (t_f - t)), (t_f - t) ** 2])
    dlam_fn = lambda t: np.array([-np.pi * np.cos(np.pi * (t_f - t)),
                                  -2 * (t_f - t)])

    def interior_error(N):
        ocp = make_double_integrator(N=N, t_f=t_f)
        grid = ocp.grid
        lam = np.array([lam_fn(t) for t in grid.midpoints])
        out = ocp.C_star @ state_from(ocp, lam=lam, lam0=lam_fn(0.0)).dual
        x_part = out[:(N + 1) * 2].reshape(N + 1, 2)
        u_part = out[(N + 1) * 2:].reshape(N + 1, 1)
        xt = np.array([-dlam_fn(t) - DI_A.T @ lam_fn(t) for t in grid.nodes])
        ut = np.array([-DI_B.T @ lam_fn(t) for t in grid.nodes])
        return max(np.abs(x_part - xt)[1:-1].max(), np.abs(u_part - ut)[1:-1].max())

    assert interior_error(16) / interior_error(32) >= 3.5


# ---------------------------------------------------------------------------
# input-to-state


def test_input_to_state_ramp():
    grid = pf.build_grid(1.0, 8)
    model = scalar_model(x0=0.0)
    x = pf.input_to_state(model, np.ones((9, 1)), grid)
    assert np.allclose(x.ravel(), grid.nodes, atol=1e-14)


def test_input_to_state_exponential_second_order():
    def error(N):
        grid = pf.build_grid(1.0, N)
        model = scalar_model(A=-1.0, x0=1.0)
        x = pf.input_to_state(model, np.zeros((N + 1, 1)), grid)
        return np.max(np.abs(x.ravel() - np.exp(-grid.nodes)))

    assert error(16) / error(32) >= 3.5


def test_input_to_state_feasibility(di_ocp):
    rng = np.random.default_rng(2)
    u = rng.standard_normal((di_ocp.N + 1, 1))
    x = pf.input_to_state(di_ocp.model, u, di_ocp.grid)
    out = di_ocp.C @ state_from(di_ocp, x=x, u=u).primal
    assert np.max(np.abs(out - di_ocp.rhs)) <= 1e-12


def test_input_to_state_singular_step():
    grid = pf.build_grid(1.0, 2)  # h = 1/2, so A = 4 makes I - (h/2)A = 0
    model = scalar_model(A=4.0)
    with pytest.raises(pf.SingularStep):
        pf.input_to_state(model, np.zeros((3, 1)), grid)


# ---------------------------------------------------------------------------
# cost


def test_cost_control_only():
    grid = pf.build_grid(1.0, 8)
    cost = pf.CostSpec(2.0, pf.QuadraticStage(np.zeros((1, 1))))
    x = np.zeros((9, 1))
    u = np.ones((9, 1))
    J, gx, gu = pf.cost_and_gradient(cost, grid, x, u)
    assert J == pytest.approx(1.0)  # alpha/2 * t_f
    assert np.allclose(gu, 2.0)
    assert np.allclose(gx, 0.0)


def test_cost_quadratic_state():
    grid = pf.build_grid(1.0, 8)
    cost = pf.CostSpec(1.0, pf.QuadraticStage(np.eye(1)))
    x = np.full((9, 1), 2.0)
    u = np.zeros((9, 1))
    J, gx, gu = pf.cost_and_gradient(cost, grid, x, u)
    assert J == pytest.approx(2.0)
    assert np.allclose(gx, 2.0)


@pytest.mark.parametrize("make", [make_double_integrator, make_logcosh])
def test_cost_gradient_matches_finite_differences(make):
    ocp = make(N=8)
    rng = np.random.default_rng(3)
    zp = rng.standard_normal(ocp.primal_dim)
    s = state_from(ocp, primal=zp)
    J, gx, gu = pf.cost_and_gradient(ocp.cost, ocp.grid, s.x, s.u)
    g = state_from(ocp, x=gx, u=gu).primal
    for _ in range(10):
        v = rng.standard_normal(ocp.primal_dim)
        eps = 1e-6
        sp = state_from(ocp, primal=zp + eps * v)
        sm = state_from(ocp, primal=zp - eps * v)
        Jp, _, _ = pf.cost_and_gradient(ocp.cost, ocp.grid, sp.x, sp.u)
        Jm, _, _ = pf.cost_and_gradient(ocp.cost, ocp.grid, sm.x, sm.u)
        fd = (Jp - Jm) / (2 * eps)
        pairing = ocp.primal_metric.inner(g, v)
        assert fd == pytest.approx(pairing, rel=1e-6, abs=1e-9)


def test_cost_spec_validation():
    with pytest.raises(pf.InvalidParameter):
        pf.CostSpec(0.0, pf.QuadraticStage(np.eye(1)))
    with pytest.raises(pf.InvalidParameter):
        pf.QuadraticStage(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(pf.InvalidParameter, match="square"):
        pf.QuadraticStage(np.ones((2, 2, 2)))
    with pytest.raises(pf.InvalidParameter):
        pf.LogCoshStage(0.0)


def test_logcosh_stage_convexity_probe():
    stage = pf.LogCoshStage(0.7)
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = rng.standard_normal((2, 3)) * 3
        gap = np.dot(stage.grad(a[None])[0] - stage.grad(b[None])[0], a - b)
        assert gap >= -1e-12


# ---------------------------------------------------------------------------
# reduced cost


def test_reduced_cost_minimized_at_zero_without_stage():
    ocp = make_double_integrator(N=8, Q=np.zeros((2, 2)))
    rng = np.random.default_rng(5)
    J0 = pf.reduced_cost(ocp, np.zeros((9, 1)))
    assert J0 == pytest.approx(0.0, abs=1e-15)
    for _ in range(5):
        u = rng.standard_normal((9, 1))
        assert pf.reduced_cost(ocp, u) > J0


def test_reduced_cost_convexity_sample(di_ocp):
    rng = np.random.default_rng(6)
    for _ in range(10):
        u1, u2 = rng.standard_normal((2, di_ocp.N + 1, 1))
        lhs = pf.reduced_cost(di_ocp, 0.5 * u1 + 0.5 * u2)
        rhs = 0.5 * pf.reduced_cost(di_ocp, u1) + 0.5 * pf.reduced_cost(di_ocp, u2)
        assert lhs <= rhs + 1e-12


def test_reduced_cost_coercive(di_ocp):
    u = np.ones((di_ocp.N + 1, 1))
    values = [pf.reduced_cost(di_ocp, s * u) for s in (1.0, 10.0, 100.0)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 100 * values[0]


# ---------------------------------------------------------------------------
# KKT system


def test_kkt_residual_at_solution(di_ocp, di_zhat):
    _, norm = pf.kkt_residual(di_ocp, di_zhat)
    assert norm <= 1e-8


def test_kkt_residual_free_response_zero_stage():
    ocp = make_double_integrator(N=16, Q=np.zeros((2, 2)))
    x_free = pf.input_to_state(ocp.model, np.zeros((17, 1)), ocp.grid)
    z = state_from(ocp, x=x_free)
    _, norm = pf.kkt_residual(ocp, z)
    assert norm <= 1e-10


def test_kkt_residual_zero_state_initial_block(di_ocp):
    r, _ = pf.kkt_residual(di_ocp, np.zeros(di_ocp.state_dim))
    ic_block = r[-di_ocp.n:]
    assert np.allclose(ic_block, -di_ocp.model.x0)


def test_kkt_solve_zero_stage_structure():
    ocp = make_double_integrator(N=16, Q=np.zeros((2, 2)))
    z = pf.kkt_solve(ocp)
    x_free = pf.input_to_state(ocp.model, np.zeros((17, 1)), ocp.grid)
    assert np.max(np.abs(z.u)) <= 1e-10
    assert np.max(np.abs(z.x - x_free)) <= 1e-10
    assert np.max(np.abs(z.lam)) <= 1e-10
    assert np.max(np.abs(z.lam0)) <= 1e-10


def test_kkt_solve_stationarity_nodewise(di_ocp, di_zhat):
    lam_nodes = di_ocp.node_adjoint(di_zhat.lam)
    gap = np.abs(di_ocp.cost.alpha * di_zhat.u + lam_nodes @ di_ocp.model.B)
    assert gap.max() <= 1e-8


def test_kkt_solve_against_golden_file(di_ocp, di_zhat, tmp_path):
    from pathlib import Path

    from phflow.cli import compare, write_kkt_csv

    candidate = tmp_path / "kkt.csv"
    write_kkt_csv(candidate, di_ocp, di_zhat)
    golden = Path(__file__).parent / "golden" / "kkt_double_integrator_N64.csv"
    code, msg = compare(golden, candidate, tol=1e-9)
    assert code == 0, msg


def test_kkt_solve_logcosh_newton():
    ocp = make_logcosh(N=24)
    z = pf.kkt_solve(ocp)
    _, norm = pf.kkt_residual(ocp, z)
    assert norm <= 1e-8
    lam_nodes = ocp.node_adjoint(z.lam)
    gap = np.abs(ocp.cost.alpha * z.u + lam_nodes @ ocp.model.B)
    assert gap.max() <= 1e-8


def test_concave_stage_rejected_at_construction():
    with pytest.raises(pf.InvalidParameter):
        pf.QuadraticStage(-np.eye(2))


def test_monotonicity_gap_quadratic(di_ocp):
    rng = np.random.default_rng(7)
    alpha = di_ocp.cost.alpha
    wu = np.repeat(di_ocp.grid.weights, di_ocp.m)
    p = di_ocp.primal_dim
    nx = (di_ocp.N + 1) * di_ocp.n
    m_opt = pf.assemble_optimizer(di_ocp).M
    for _ in range(200):
        z1, z2 = rng.standard_normal((2, di_ocp.state_dim))
        gap = di_ocp.state_metric.inner(m_opt(z1) - m_opt(z2), z1 - z2)
        du = (z1 - z2)[nx:p]
        assert gap >= alpha * np.dot(wu * du, du) - 1e-10


def test_kkt_solution_convergence_orders():
    # under grid refinement the state converges at second order at every
    # node; control and multiplier node values are second order in the
    # interior and first order at the two boundary nodes (whose
    # registrations are midpoint values of the first/last interval)
    def solve_at(N):
        ocp = make_double_integrator(N=N)
        z = pf.kkt_solve(ocp)
        return z.x, z.u, ocp.node_adjoint(z.lam)

    x16, u16, l16 = solve_at(16)
    x32, u32, l32 = solve_at(32)
    x64, u64, l64 = solve_at(64)

    def ratio(a16, a32, a64, sl):
        g1 = np.max(np.abs(a32[::2] - a16)[sl])
        g2 = np.max(np.abs(a64[::4] - a32[::2])[sl])
        return g1 / g2

    interior = slice(1, -1)
    everywhere = slice(None)
    assert ratio(x16, x32, x64, everywhere) >= 3.5
    for a16, a32, a64 in ((u16, u32, u64), (l16, l32, l64)):
        assert ratio(a16, a32, a64, interior) >= 3.5
        assert ratio(a16, a32, a64, everywhere) >= 1.8


def test_input_to_state_per_node_inhomogeneity():
    rng = np.random.default_rng(11)
    grid = pf.build_grid(1.0, 12)
    f = rng.standard_normal((13, 2))
    model = pf.LinearPlantModel(DI_A, DI_B, f, [0.5, -0.5])
    ocp = pf.assemble_ocp(model, grid, pf.CostSpec(1.0, pf.QuadraticStage(np.eye(2))))
    u = rng.standard_normal((13, 1))
    x = pf.input_to_state(model, u, grid)
    out = ocp.C @ state_from(ocp, x=x, u=u).primal
    assert np.max(np.abs(out - ocp.rhs)) <= 1e-12


def test_monotonicity_gap_logcosh():
    ocp = make_logcosh(N=12)
    rng = np.random.default_rng(8)
    wu = np.repeat(ocp.grid.weights, ocp.m)
    p = ocp.primal_dim
    nx = (ocp.N + 1) * ocp.n
    m_opt = pf.assemble_optimizer(ocp).M
    for _ in range(100):
        z1, z2 = rng.standard_normal((2, ocp.state_dim))
        gap = ocp.state_metric.inner(m_opt(z1) - m_opt(z2), z1 - z2)
        du = (z1 - z2)[nx:p]
        assert gap >= ocp.cost.alpha * np.dot(wu * du, du) - 1e-10
