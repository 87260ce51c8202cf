import numpy as np
import pytest

import phflow as pf
from conftest import DI_B, make_double_integrator


@pytest.fixture(scope="module")
def loop_ocp():
    return make_double_integrator(N=16)


@pytest.fixture(scope="module")
def cubic_loop(loop_ocp):
    spec = pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0])
    plant = pf.assemble_plant(spec)
    cls = pf.couple(pf.assemble_optimizer(loop_ocp), plant, loop_ocp,
                    pf.CouplingSpec("inv_alpha"))
    return spec, cls


# ---------------------------------------------------------------------------
# plants


def test_linear_plant_decays():
    spec = pf.linear_plant(np.eye(1), np.array([[1.0]]), [1.0])
    sys = pf.assemble_plant(spec)
    cfg = pf.IntegratorConfig(h_t=0.01)
    traj = pf.integrate_flow(sys, np.array([1.0]), np.zeros(1), cfg, 1.0)
    assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_cubic_plant_probe_constant():
    spec = pf.cubic_plant(np.eye(2), 1.0, DI_B, [0.0, 0.0])
    report = pf.accretivity_probe(spec.M, pf.Metric.euclidean(2), rng=0,
                                  n_pairs=100)
    assert report.c_estimate >= 1.0 - 1e-9
    assert not report.violation


def test_skew_plant_conserves_norm():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = pf.linear_plant(np.zeros((2, 2)), DI_B, [1.0, 0.0], J=J)
    sys = pf.assemble_plant(spec)
    cfg = pf.IntegratorConfig(h_t=0.05)
    traj = pf.integrate_flow(sys, np.array([1.0, 0.0]), np.zeros(1), cfg, 10.0)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - norms[0])) <= 1e-12


def test_plant_probe_violation_raises():
    bad = pf.PlantSpec(pf.linear(-np.eye(2)), DI_B, [0.0, 0.0])
    with pytest.raises(pf.AccretivityViolation):
        pf.assemble_plant(bad)


def test_linear_plant_rejects_nonskew_J():
    with pytest.raises(pf.InvalidParameter):
        pf.linear_plant(np.eye(2), DI_B, [0.0, 0.0],
                        J=np.array([[0.0, 1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# coupling


def test_coupling_block_skew_in_product_metric(cubic_loop):
    spec, cls = cubic_loop
    rng = np.random.default_rng(0)
    metric = cls.sys.metric
    for _ in range(100):
        z = rng.standard_normal(cls.dim)
        coupling_only = cls.sys.M(z) - np.concatenate([
            cls.plant_sys.M(z[:cls.n_p]), cls.opt_sys.M(z[cls.n_p:])
        ])
        form = metric.inner(coupling_only, z)
        assert abs(form) <= 1e-12 * (1.0 + metric.inner(z, z))


def test_closed_loop_matches_hand_assembled_matrix(loop_ocp):
    # gamma = 1 reproduces the plain B B^T coupling blocks entrywise
    spec = pf.linear_plant(np.eye(2), DI_B, [1.0, 0.0])
    plant = pf.assemble_plant(spec)
    cls = pf.couple(pf.assemble_optimizer(loop_ocp), plant, loop_ocp,
                    pf.CouplingSpec(1.0))
    L = cls.sys.M.linear_part.toarray()
    n_p, p, d = 2, loop_ocp.primal_dim, loop_ocp.dual_dim
    n = loop_ocp.n
    hand = np.zeros_like(L)
    hand[:n_p, :n_p] = np.eye(2)
    hand[n_p:, n_p:] = loop_ocp.m_opt_jacobian(np.zeros(loop_ocp.state_dim)).toarray()
    hand[:n_p, n_p + p + d - n:] = DI_B @ DI_B.T       # plant row, lam0 cols
    hand[n_p + p + d - n:, :n_p] = -(DI_B @ DI_B.T)    # lam0 row, plant cols
    assert np.max(np.abs(L - hand)) <= 1e-12


def test_closed_loop_probe_accretive(cubic_loop):
    _, cls = cubic_loop
    for seed in range(5):
        report = pf.accretivity_probe(cls.sys.M, cls.sys.metric, rng=seed,
                                      n_pairs=60)
        assert not report.violation


def test_gamma_zero_rejected(loop_ocp):
    with pytest.raises(pf.InvalidParameter):
        pf.CouplingSpec(0.0).resolve(1.0)


def test_model_mismatch_warns(loop_ocp):
    spec = pf.linear_plant(np.eye(2), np.array([[1.0], [1.0]]), [1.0, 0.0])
    plant = pf.assemble_plant(spec)
    with pytest.warns(UserWarning, match="model-mismatched"):
        pf.couple(pf.assemble_optimizer(loop_ocp), plant, loop_ocp)


# ---------------------------------------------------------------------------
# simulation


def test_equilibrium_start_stays_put(loop_ocp, cubic_loop):
    _, cls = cubic_loop
    # q = 0, f = 0: the closed-loop equilibrium is the origin
    z_eq = np.zeros(cls.dim)
    assert np.max(np.abs(cls.sys.M(z_eq))) <= 1e-14
    cfg = pf.IntegratorConfig(h_t=0.05)
    run = pf.simulate_closed_loop(cls, cfg, 2.0, x_p0=np.zeros(2),
                                  z0=np.zeros(cls.dim - 2))
    assert np.max(np.abs(run.traj.states)) <= 1e-12


def test_closed_loop_decay_and_feedback(loop_ocp, cubic_loop):
    _, cls = cubic_loop
    cfg = pf.IntegratorConfig(h_t=0.05)
    run = pf.simulate_closed_loop(cls, cfg, 25.0, x_p0=[1.0, 0.0])
    assert np.max(np.diff(run.norm_total), initial=-np.inf) <= 1e-9
    assert run.norm_total[-1] <= 1e-3 * run.norm_total[0]
    # the feedback series is the lam0 block through -gamma B^T
    k = run.traj.times.size // 2
    z = run.traj.states[k]
    expected = -cls.gamma * (DI_B.T @ z[-2:])
    assert np.allclose(run.feedback.u_p[k], expected)


def test_feedback_zero_multiplier(cubic_loop):
    _, cls = cubic_loop
    z = np.zeros(cls.dim)
    assert np.allclose(cls.feedback(z), 0.0)


def test_feedback_gamma_scaling(loop_ocp):
    spec = pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0])
    plant = pf.assemble_plant(spec)
    cls1 = pf.couple(pf.assemble_optimizer(loop_ocp), plant, loop_ocp,
                     pf.CouplingSpec(1.0))
    cls2 = pf.couple(pf.assemble_optimizer(loop_ocp), plant, loop_ocp,
                     pf.CouplingSpec(2.0))
    rng = np.random.default_rng(1)
    z = rng.standard_normal(cls1.dim)
    assert np.allclose(cls2.feedback(z), 2.0 * cls1.feedback(z))


def test_feedback_matches_optimal_initial_control(loop_ocp, cubic_loop):
    # at the open-loop optimizer equilibrium the node-registered signal
    # reproduces the optimal control at the first node exactly; the raw
    # multiplier block carries the O(h) registration offset
    _, cls = cubic_loop
    z_hat = pf.kkt_solve(loop_ocp)
    z_cl = np.concatenate([np.zeros(2), z_hat.vector])
    u0 = z_hat.u[0]
    assert np.max(np.abs(cls.mpc_signal(z_cl) - u0)) <= 1e-8
    slot_gap = np.max(np.abs(cls.feedback(z_cl) - u0))
    assert slot_gap <= loop_ocp.grid.h  # O(h), not exact
    assert slot_gap > 1e-8


def test_decoupled_when_gamma_tiny(loop_ocp):
    # with gamma -> 0 the plant block evolves at its own rate,
    # independent of the optimizer state
    spec = pf.linear_plant(np.eye(2), DI_B, [1.0, 0.0])
    plant = pf.assemble_plant(spec)
    cls = pf.couple(pf.assemble_optimizer(loop_ocp), plant, loop_ocp,
                    pf.CouplingSpec(1e-14))
    cfg = pf.IntegratorConfig(h_t=0.01)
    run = pf.simulate_closed_loop(cls, cfg, 1.0, x_p0=[1.0, 0.0])
    assert run.traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-4)


def test_closed_loop_power_balance(cubic_loop):
    _, cls = cubic_loop
    cfg = pf.IntegratorConfig(h_t=0.02, newton_tol=1e-12)
    run = pf.simulate_closed_loop(cls, cfg, 3.0, x_p0=[1.0, 0.0])
    pb = pf.power_balance_audit(cls.sys, run.traj)
    z0 = run.traj.states[0]
    assert pb.max_residual <= 1e-9 * (1.0 + cls.sys.metric.inner(z0, z0))


def test_feedback_extract_series(cubic_loop):
    _, cls = cubic_loop
    cfg = pf.IntegratorConfig(h_t=0.05)
    run = pf.simulate_closed_loop(cls, cfg, 2.0, x_p0=[1.0, 0.0])
    series = pf.feedback_extract(cls, run.traj)
    assert series.u_p.shape == (run.traj.times.size, 1)
    assert np.allclose(series.u_p, run.feedback.u_p)
