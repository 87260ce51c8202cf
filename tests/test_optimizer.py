import warnings

import numpy as np
import pytest
from scipy import sparse

import phflow as pf
from conftest import DI_B, make_double_integrator, make_logcosh
from phflow import phcore


@pytest.fixture(scope="module")
def small_ocp():
    return make_double_integrator(N=16)


@pytest.fixture(scope="module")
def small_sys(small_ocp):
    return pf.assemble_optimizer(small_ocp)


@pytest.fixture(scope="module")
def small_zhat(small_ocp):
    return pf.kkt_solve(small_ocp)


def test_assembled_drift_is_saddle_skew(small_ocp, small_sys):
    # the pure coupling part of the drift contributes nothing to the form
    rng = np.random.default_rng(0)
    L = small_sys.M.linear_part.toarray()
    p = small_ocp.primal_dim
    K = np.zeros_like(L)
    K[:p, p:] = L[:p, p:]
    K[p:, :p] = L[p:, :p]
    metric = small_sys.metric
    for _ in range(100):
        z = rng.standard_normal(small_ocp.state_dim)
        assert abs(metric.inner(K @ z, z)) <= 1e-12 * metric.inner(z, z)


def test_probe_accretivity_seeds(small_sys):
    for seed in range(10):
        report = pf.accretivity_probe(small_sys.M, small_sys.metric,
                                      rng=seed, n_pairs=50)
        assert not report.violation


def test_collocated_output_reads_multiplier_block(small_ocp, small_sys):
    rng = np.random.default_rng(1)
    z = rng.standard_normal(small_ocp.state_dim)
    y = small_sys.output(z)
    assert np.allclose(y, z[small_ocp.primal_dim:])


def test_steady_state_equals_kkt(small_ocp, small_sys, small_zhat):
    # both stage kinds: a linear drift (quadratic) and a nonlinear one (logcosh)
    logcosh = make_logcosh(N=16)
    for ocp, sys, z_hat in ((small_ocp, small_sys, small_zhat),
                            (logcosh, pf.assemble_optimizer(logcosh), pf.kkt_solve(logcosh))):
        ss = pf.steady_state(sys, pf.constant_input(ocp), tol=1e-10)
        assert np.max(np.abs(ss.x_bar - z_hat.vector)) <= 1e-8


def test_flow_constant_at_oracle(small_ocp, small_sys, small_zhat):
    cfg = pf.IntegratorConfig(h_t=0.01)
    traj = pf.integrate_flow(small_sys, small_zhat.vector,
                             pf.constant_input(small_ocp), cfg, 1.0)
    drift = np.max(np.abs(traj.states - small_zhat.vector))
    assert drift <= 1e-9


def test_flow_zero_stage_control_stays_zero():
    ocp = make_double_integrator(N=8, Q=np.zeros((2, 2)))
    sys = pf.assemble_optimizer(ocp)
    z0 = pf.default_initial_state(ocp)
    z_hat = pf.kkt_solve(ocp)
    assert np.max(np.abs(z0 - z_hat.vector)) <= 1e-10  # default start is exact
    cfg = pf.IntegratorConfig(h_t=0.02)
    traj = pf.integrate_flow(sys, z0, pf.constant_input(ocp), cfg, 3.0)
    nx = (ocp.N + 1) * ocp.n
    u_block = traj.states[:, nx:nx + (ocp.N + 1) * ocp.m]
    assert np.max(np.abs(u_block)) <= 1e-9


def test_flow_converges_to_oracle(small_ocp, small_sys, small_zhat):
    cfg = pf.IntegratorConfig(h_t=0.01)
    z0 = pf.default_initial_state(small_ocp)
    traj = pf.integrate_flow(small_sys, z0, pf.constant_input(small_ocp),
                             cfg, 16.0)
    report = pf.convergence_report(traj, small_zhat, small_ocp)
    assert report.errors[-1] <= 1e-3 * report.errors[0]
    assert report.rate is not None and report.rate > 0.2


def test_flow_shifted_norm_nonincreasing(small_ocp, small_sys, small_zhat):
    cfg = pf.IntegratorConfig(h_t=0.02)
    traj = pf.integrate_flow(small_sys, pf.default_initial_state(small_ocp),
                             pf.constant_input(small_ocp), cfg, 8.0)
    w = small_ocp.state_metric.weights
    diff = traj.states - small_zhat.vector
    errs = np.sqrt(np.einsum("ij,j,ij->i", diff, w, diff))
    assert np.max(np.diff(errs), initial=-np.inf) <= 1e-9


def test_flow_power_balance(small_ocp, small_sys):
    cfg = pf.IntegratorConfig(h_t=0.01)
    z0 = pf.default_initial_state(small_ocp)
    traj = pf.integrate_flow(small_sys, z0, pf.constant_input(small_ocp),
                             cfg, 5.0)
    pb = pf.power_balance_audit(small_sys, traj)
    scale = 1.0 + small_ocp.state_metric.inner(z0, z0)
    assert pb.max_residual <= 1e-10 * scale


def test_logcosh_flow_newton_path():
    ocp = make_logcosh(N=12)
    sys = pf.assemble_optimizer(ocp)
    assert not sys.M.is_linear
    z_hat = pf.kkt_solve(ocp)
    cfg = pf.IntegratorConfig(h_t=0.02)
    traj = pf.integrate_flow(sys, pf.default_initial_state(ocp),
                             pf.constant_input(ocp), cfg, 25.0)
    w = ocp.state_metric.weights
    diff = traj.states - z_hat.vector
    errs = np.sqrt(np.einsum("ij,j,ij->i", diff, w, diff))
    assert errs[-1] < 0.05 * errs[0]
    assert np.max(np.diff(errs), initial=-np.inf) <= 1e-9


def test_midpoint_endpoint_converges_at_second_order(small_ocp, small_sys):
    z0 = pf.default_initial_state(small_ocp)
    u = pf.constant_input(small_ocp)

    def endpoint(h):
        cfg = pf.IntegratorConfig(h_t=h, scheme="implicit_midpoint")
        return pf.integrate_flow(small_sys, z0, u, cfg, 1.0).states[-1]

    reference = endpoint(0.005 / 16)
    g1 = np.linalg.norm(endpoint(0.005) - reference)
    g2 = np.linalg.norm(endpoint(0.0025) - reference)
    assert g1 / g2 >= 3.0  # midpoint is second order


def test_implicit_euler_runs(small_ocp, small_sys, small_zhat):
    cfg = pf.IntegratorConfig(h_t=0.05, scheme="implicit_euler")
    traj = pf.integrate_flow(small_sys, pf.default_initial_state(small_ocp),
                             pf.constant_input(small_ocp), cfg, 10.0)
    w = small_ocp.state_metric.weights
    diff = traj.states - small_zhat.vector
    errs = np.sqrt(np.einsum("ij,j,ij->i", diff, w, diff))
    assert errs[-1] < 0.05 * errs[0]


def _scalar_system(M):
    return pf.PHSystem(M, np.zeros((1, 0)), pf.Metric.euclidean(1),
                       pf.Metric.euclidean(0))


def test_singular_newton_matrix_raises_nonconvergence():
    # M(x) = -2x makes I + (h/2) DM vanish at h = 1 and I + lam DM at lam = 1/2
    M = pf.MonotoneOperatorSpec(1, eval_fn=lambda x: -2.0 * x,
                                derivative_fn=lambda x: np.array([[-2.0]]))
    with pytest.raises(pf.NonConvergence):
        pf.integrate_flow(_scalar_system(M), np.array([1.0]), np.zeros(0),
                          pf.IntegratorConfig(h_t=1.0), 1.0)
    with pytest.raises(pf.NonConvergence):
        pf.resolvent(M, 0.5, np.array([1.0]), pf.Metric.euclidean(1))


def test_singular_linear_step_raises_nonconvergence_with_time():
    # I + (h/2) L vanishes for L = -2 at h = 1: the prefactored step
    # yields a non-finite state, which must fail the step where it happens
    sys = _scalar_system(pf.linear(np.array([[-2.0]])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(pf.NonConvergence) as info:
            pf.integrate_flow(sys, np.array([1.0]), np.zeros(0),
                              pf.IntegratorConfig(h_t=1.0), 3.0)
    assert "t=" in str(info.value)


def test_singular_sparse_newton_matrix_raises_nonconvergence():
    # the sparse twin of the dense case above: SuperLU's "exactly
    # singular" must end the step as NonConvergence, not a RuntimeError
    M = pf.MonotoneOperatorSpec(3, eval_fn=lambda x: -2.0 * x,
                                derivative_fn=lambda x: -2.0 * sparse.identity(3, format="csr"))
    sys = pf.PHSystem(M, np.zeros((3, 0)), pf.Metric.euclidean(3), pf.Metric.euclidean(0))
    with pytest.raises(pf.NonConvergence) as info:
        pf.integrate_flow(sys, np.ones(3), np.zeros(0), pf.IntegratorConfig(h_t=1.0), 1.0)
    assert "t=" in str(info.value)
    assert np.isfinite(info.value.residual)
    with pytest.raises(pf.NonConvergence):
        pf.resolvent(M, 0.5, np.ones(3), pf.Metric.euclidean(3))


def test_resolvent_converges_at_large_input():
    # the explicit predictor z - M(z) lies near -1e9 here; Newton must
    # start from z, whose residual is smaller
    M = pf.cubic(np.eye(1), 1.0)
    z = np.array([1e3])
    tol = 1e-12
    x = pf.resolvent(M, 1.0, z, pf.Metric.euclidean(1), tol)
    assert abs(x[0] + M(x)[0] - z[0]) <= tol


def test_nonlinear_steps_never_factor_dense(monkeypatch):
    # structural guard: logcosh flows and cubic closed loops must run
    # their Newton solves on sparse matrices, so any dense solve or dense
    # LU during the steps fails the test
    flow_ocp = make_logcosh(N=64)
    flow_sys = pf.assemble_optimizer(flow_ocp)
    flow_z0 = pf.default_initial_state(flow_ocp)
    loop_ocp = make_double_integrator(N=64)
    plant = pf.assemble_plant(pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0]))
    cls = pf.couple(pf.assemble_optimizer(loop_ocp), plant, loop_ocp,
                    pf.CouplingSpec("inv_alpha"))
    loop_z0 = cls.initial_state(np.array([1.0, 0.0]))

    def dense_solve(*args, **kwargs):
        raise AssertionError("dense solve in a sparse Newton step")

    monkeypatch.setattr(np.linalg, "solve", dense_solve)
    monkeypatch.setattr(phcore, "lu_factor", dense_solve)
    cfg = pf.IntegratorConfig(h_t=0.01)
    flow = pf.integrate_flow(flow_sys, flow_z0, pf.constant_input(flow_ocp), cfg, 0.05)
    loop = pf.integrate_flow(cls.sys, loop_z0, np.zeros(cls.sys.input_dim), cfg, 0.05)
    assert flow.times.size == loop.times.size == 6


def test_linear_closed_loop_never_factors_dense(monkeypatch):
    # structural guard: a linear plant closed against an LQ optimizer has
    # a sparse linear part, factored once by splu; any dense solve or
    # dense LU during the steps fails the test
    ocp = make_double_integrator(N=64)
    plant = pf.assemble_plant(pf.linear_plant(np.eye(2), DI_B, [1.0, 0.0]))
    cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp, pf.CouplingSpec("inv_alpha"))
    assert sparse.issparse(cls.sys.M.linear_part)
    z0 = cls.initial_state(np.array([1.0, 0.0]))

    def dense_solve(*args, **kwargs):
        raise AssertionError("dense solve in a sparse linear step")

    monkeypatch.setattr(np.linalg, "solve", dense_solve)
    monkeypatch.setattr(phcore, "lu_factor", dense_solve)
    cfg = pf.IntegratorConfig(h_t=0.01)
    traj = pf.integrate_flow(cls.sys, z0, np.zeros(cls.sys.input_dim), cfg, 0.05)
    assert traj.times.size == 6


def test_optimizer_port_is_a_sparse_selection(small_ocp, small_sys):
    assert sparse.issparse(small_sys.B) and sparse.issparse(small_sys.b_star)
    assert small_sys.B.nnz == small_sys.b_star.nnz == small_ocp.dual_dim
    z = np.random.default_rng(3).standard_normal(small_ocp.state_dim)
    assert np.array_equal(small_sys.output(z), small_ocp.blocks(z).dual)


def test_power_balance_audit_memory_is_bounded():
    # structural guard: the audit walks the intervals in fixed row blocks,
    # so its peak allocation stays far below one copy of the trajectory
    import tracemalloc

    ocp = make_double_integrator(N=256)
    sys = pf.assemble_optimizer(ocp)
    cfg = pf.IntegratorConfig(h_t=0.01)
    traj = pf.integrate_flow(sys, pf.default_initial_state(ocp), pf.constant_input(ocp),
                             cfg, 12.0)
    tracemalloc.start()
    try:
        pb = pf.power_balance_audit(sys, traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    z0 = traj.states[0]
    assert pb.max_residual <= 1e-10 * (1.0 + sys.metric.inner(z0, z0))
    assert peak < traj.states.nbytes / 4


def test_implicit_step_newton_failure_reports_time_and_residual():
    cfg = pf.IntegratorConfig(h_t=0.1, newton_tol=1e-30)
    with pytest.raises(pf.NonConvergence) as info:
        pf.integrate_flow(_scalar_system(pf.cubic(np.eye(1), 1.0)),
                          np.array([1.0]), np.zeros(0), cfg, 1.0)
    assert np.isfinite(info.value.residual)
    assert "t=" in str(info.value)


def test_integrator_config_validation():
    with pytest.raises(pf.InvalidParameter):
        pf.IntegratorConfig(h_t=0.0)
    with pytest.raises(pf.InvalidParameter):
        pf.IntegratorConfig(h_t=0.1, scheme="leapfrog")
    with pytest.raises(pf.InvalidParameter, match="exceed max_steps"):
        pf.integrate_flow(  # 1e9 steps, above the fixed step limit
            pf.PHSystem(pf.identity(1), np.zeros((1, 0)),
                        pf.Metric.euclidean(1), pf.Metric.euclidean(0)),
            np.array([1.0]), np.zeros(0), pf.IntegratorConfig(h_t=1e-9), 1.0)


# ---------------------------------------------------------------------------
# convergence report


def _synthetic_traj(fn, T=5.0, steps=200, dim=3):
    times = np.linspace(0.0, T, steps)
    states = np.outer(fn(times), np.ones(dim) / np.sqrt(dim))
    return pf.Trajectory(times, states, np.zeros((steps, 0)))


def test_convergence_report_synthetic_rate():
    ocp = make_double_integrator(N=2)
    # build a fake trajectory in the ocp's state space decaying at rate 2
    dim = ocp.state_dim
    times = np.linspace(0.0, 5.0, 400)
    v = np.ones(dim)
    v /= ocp.state_metric.norm(v)
    states = np.exp(-2.0 * times)[:, None] * v
    traj = pf.Trajectory(times, states, np.zeros((400, 1)))
    report = pf.convergence_report(traj, np.zeros(dim), ocp)
    assert report.rate == pytest.approx(2.0, abs=1e-3)


def test_convergence_report_constant_is_indeterminate():
    ocp = make_double_integrator(N=2)
    dim = ocp.state_dim
    times = np.linspace(0.0, 5.0, 50)
    z_hat = np.ones(dim)
    states = np.tile(z_hat, (50, 1))
    traj = pf.Trajectory(times, states, np.zeros((50, 1)))
    report = pf.convergence_report(traj, z_hat, ocp)
    assert report.indeterminate
    assert report.amplitude <= 1e-9
    assert report.rate is None


def test_convergence_report_needs_samples():
    ocp = make_double_integrator(N=2)
    times = np.linspace(0.0, 1.0, 5)
    traj = pf.Trajectory(times, np.zeros((5, ocp.state_dim)),
                         np.zeros((5, 1)))
    with pytest.raises(pf.InsufficientData):
        pf.convergence_report(traj, np.zeros(ocp.state_dim), ocp)


def _primal_dissipation_excess(traj, z_hat, ocp, c):
    # largest excess of c * sum_k dt ||P m_k||^2 over the energy drop
    # (||h_0||^2 - ||h_n||^2) / 2, as a share of ||h_0||^2 / 2
    p = ocp.primal_dim
    h = traj.states - z_hat.vector
    mid = 0.5 * (h[1:, :p] + h[:-1, :p])
    half_sq = 0.5 * ocp.state_metric.row_inner(h, h)
    dissipated = np.concatenate([[0.0], np.cumsum(
        c * np.diff(traj.times) * ocp.primal_metric.row_inner(mid, mid))])
    return float(np.max(dissipated - (half_sq[0] - half_sq))) / half_sq[0]


def test_primal_dissipation_bound_is_sharp_and_envelope_fails():
    # the primal dissipation inequality holds at the monotonicity constant
    # c1 and fails just above it, while the pointwise primal envelope at
    # c1 fails on the same run (primal error decays at c1/2)
    ocp = make_double_integrator(N=8)
    z_hat = pf.kkt_solve(ocp)
    cfg = pf.IntegratorConfig(h_t=pf.default_outer_step(ocp))
    traj = pf.integrate_flow(pf.assemble_optimizer(ocp),
                             pf.default_initial_state(ocp),
                             pf.constant_input(ocp), cfg, 8.0)
    c1 = min(np.min(np.linalg.eigvalsh(ocp.cost.stage.Q)), ocp.cost.alpha)
    assert _primal_dissipation_excess(traj, z_hat, ocp, c1) <= 1e-6
    assert _primal_dissipation_excess(traj, z_hat, ocp, 1.01 * c1) > 1e-3
    # the primal error against the pointwise envelope ||h(0)|| exp(-c1 t)
    rep = pf.convergence_report(traj, z_hat, ocp)
    envelope = rep.errors[0] * np.exp(-c1 * rep.times)
    assert np.max(rep.errors_primal / envelope) > 1.0 + 1e-6


def test_default_outer_step(small_ocp):
    h = pf.default_outer_step(small_ocp)
    assert h == pytest.approx(0.01 / (1.0 + 1.0 + 1.0 + 1.0))


def test_affine_stage_offset_flow():
    # nonzero linear cost term: the drift picks up a constant offset;
    # the flow must still sit still at the KKT point and contract to it
    ocp = make_double_integrator(N=8, q=np.array([0.3, -0.2]))
    sys = pf.assemble_optimizer(ocp)
    z_hat = pf.kkt_solve(ocp)
    _, norm = pf.kkt_residual(ocp, z_hat)
    assert norm <= 1e-10
    cfg = pf.IntegratorConfig(h_t=0.02)
    traj = pf.integrate_flow(sys, z_hat.vector, pf.constant_input(ocp), cfg, 1.0)
    assert np.max(np.abs(traj.states - z_hat.vector)) <= 1e-9
    traj2 = pf.integrate_flow(sys, pf.default_initial_state(ocp),
                              pf.constant_input(ocp), cfg, 16.0)
    w = ocp.state_metric.weights
    d = traj2.states - z_hat.vector
    errs = np.sqrt(np.einsum("ij,j,ij->i", d, w, d))
    assert errs[-1] <= 1e-3 * errs[0]
