import gc
import warnings

import numpy as np
import pytest
from scipy import sparse

import phflow as pf
from conftest import DI_B, make_double_integrator, make_logcosh
from phflow import phcore
from phflow.operators import Nodewise


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


def test_audits_of_an_affine_optimizer():
    # a linear stage term q gives the optimizer's drift an affine offset,
    # which the audits' batched evaluation of M must add
    ocp = make_double_integrator(N=16, q=[0.5, -0.3])
    sys = pf.assemble_optimizer(ocp)
    assert sys.M.is_linear and sys.M.affine_offset is not None
    z0 = pf.default_initial_state(ocp)
    u_bar = pf.constant_input(ocp)
    traj = pf.integrate_flow(sys, z0, u_bar, pf.IntegratorConfig(h_t=0.01), 2.0)
    z_hat = pf.kkt_solve(ocp).vector
    sh = pf.shifted_passivity_audit(sys, traj, pf.SteadyStatePair(z_hat, u_bar,
                                                                  sys.output(z_hat)))
    bound = 1e-10 * (1.0 + ocp.state_metric.inner(z0, z0))
    assert pf.power_balance_audit(sys, traj).max_residual <= bound
    assert sh.max_equality_residual <= bound
    assert sh.passive()


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


def _zero_piece(lo, hi):
    """A nodewise piece that is zero with a zero derivative: it makes a
    linear operator take the Newton path instead of the linear step."""
    return Nodewise(lo, hi, lambda x: 0.0 * x, np.zeros_like)


def _counted_layouts(monkeypatch):
    """The banded `_Factor`s built from here on, in order: each lays out
    its band once, at construction."""
    layouts, init = [], phcore._Factor.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.order is not None:
            layouts.append(self)

    monkeypatch.setattr(phcore._Factor, "__init__", counted_init)
    return layouts


def _scalar_system(M):
    return pf.PHSystem(M, np.zeros((1, 0)), pf.Metric.euclidean(1),
                       pf.Metric.euclidean(0))


def test_singular_newton_matrix_raises_nonconvergence():
    # M(x) = -2x makes I + (h/2) DM vanish at h = 1 and I + lam DM at lam = 1/2
    M = pf.MonotoneOperatorSpec(1, np.array([[-2.0]]), nodewise=(_zero_piece(0, 1),))
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
    M = pf.MonotoneOperatorSpec(3, -2.0 * sparse.identity(3, format="csr"),
                                nodewise=(_zero_piece(0, 3),))
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


def _forbid_dense_and_superlu(monkeypatch, what):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"dense solve or SuperLU in {what}")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(phcore, "dgetrf", forbidden)
    monkeypatch.setattr(phcore, "splu", forbidden)


def test_nonlinear_steps_never_factor_dense(monkeypatch):
    # structural guard: logcosh flows and a cubic plant closed against a
    # logcosh optimizer carry their time-stage order, so their Newton
    # solves, the KKT point and a steady state of the optimizer are
    # factored banded; any dense solve, dense LU or SuperLU during them
    # fails the test (a cubic loop with an LQ optimizer has its own guard
    # below: it eliminates the optimizer and factors plant-sized matrices)
    flow_ocp = make_logcosh(N=64)
    flow_sys = pf.assemble_optimizer(flow_ocp)
    flow_z0 = pf.default_initial_state(flow_ocp)
    plant = pf.assemble_plant(pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0]))
    # a cubic plant against a logcosh optimizer: the loop whose terms nest
    # (the coupling, the dense plant block, the saddle part and the Hessian)
    log_cls = pf.couple(flow_sys, plant, flow_ocp, pf.CouplingSpec("inv_alpha"))
    log_z0 = log_cls.initial_state(np.array([1.0, 0.0]))

    _forbid_dense_and_superlu(monkeypatch, "a nonlinear solve")
    cfg = pf.IntegratorConfig(h_t=0.01)
    flow = pf.integrate_flow(flow_sys, flow_z0, pf.constant_input(flow_ocp), cfg, 0.05)
    log_loop = pf.integrate_flow(log_cls.sys, log_z0, np.zeros(log_cls.sys.input_dim), cfg, 0.05)
    assert flow.times.size == log_loop.times.size == 6
    z_hat = pf.kkt_solve(flow_ocp)
    ss = pf.steady_state(flow_sys, pf.constant_input(flow_ocp))
    assert flow_ocp.state_metric.norm(ss.x_bar - z_hat.vector) <= 1e-8


def test_cubic_lq_loop_factors_the_optimizer_band_once(monkeypatch):
    # structural guard: a cubic plant closed against an LQ optimizer
    # eliminates the linear optimizer, so a stepper lays out and factors
    # the optimizer's band once, and every dense LU or solve is at most
    # n_p x n_p (the plant's Newton matrix); a full-dimension dense solve
    # or SuperLU fails the test
    ocp = make_double_integrator(N=64)
    plant = pf.assemble_plant(pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0]))
    cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp, pf.CouplingSpec("inv_alpha"))
    z0 = cls.initial_state(np.array([1.0, 0.0]))
    n_p = cls.n_p
    band_factors, dense = [], []
    dgbtrf, dgetrf, dgetrs = phcore.dgbtrf, phcore.dgetrf, phcore.dgetrs

    def counted_dgbtrf(*args, **kwargs):
        band_factors.append(args[0].shape[1])
        return dgbtrf(*args, **kwargs)

    def plant_sized_lu(A, **kwargs):
        assert A.shape == (n_p, n_p), f"dense LU of shape {A.shape} in the loop's step"
        dense.append(A.shape)
        return dgetrf(A, **kwargs)

    def plant_sized_solve(lu, piv, r, **kwargs):
        assert lu.shape == (n_p, n_p) and np.shape(r) == (n_p,)
        return dgetrs(lu, piv, r, **kwargs)

    _forbid_dense_and_superlu(monkeypatch, "a cubic LQ loop's step")
    layouts = _counted_layouts(monkeypatch)
    monkeypatch.setattr(phcore, "dgbtrf", counted_dgbtrf)
    monkeypatch.setattr(phcore, "dgetrf", plant_sized_lu)
    monkeypatch.setattr(phcore, "dgetrs", plant_sized_solve)
    cfg = pf.IntegratorConfig(h_t=0.01)
    traj = pf.integrate_flow(cls.sys, z0, np.zeros(cls.sys.input_dim), cfg, 0.05)
    assert traj.times.size == 6
    assert [f.order.size for f in layouts] == band_factors == [ocp.state_dim]  # once
    assert dense  # the Newton matrices are the plant's


def test_singular_condensed_newton_matrix_fails_the_step(monkeypatch):
    # a plant of the package's form whose condensed Newton matrix
    # I + c (DM_p - G) is exactly singular: coordinate 0 is off the port
    # (B_p = [0; 1]), so row 0 of G is zero, the cube acts on coordinate
    # 1 alone and L[0, 0] = -1/c cancels the shift 1/c.  Such a plant is
    # not accretive, so it is assembled without the probe.  The condensed
    # step must fail as NonConvergence with a finite residual and its step
    h_t = 0.02
    c = 0.5 * h_t  # theta h of the midpoint step
    cube = Nodewise(1, 2, lambda x: x**3, lambda x: 3.0 * x**2)
    M = pf.MonotoneOperatorSpec(2, linear_part=np.diag([-1.0 / c, 1.0]), nodewise=(cube,))
    plant = pf.PHSystem(M, DI_B, pf.Metric.euclidean(2), pf.Metric.euclidean(1))
    ocp = make_double_integrator(N=8)
    cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp)
    condensed = []
    stepper = phcore._condensed_stepper
    monkeypatch.setattr(phcore, "_condensed_stepper",
                        lambda *args: condensed.append(args[1]) or stepper(*args))
    with pytest.raises(pf.NonConvergence) as failed:
        pf.simulate_closed_loop(cls, pf.IntegratorConfig(h_t=h_t), 0.1,
                                x_p0=np.array([1.0, 0.0]))
    assert condensed == [2]  # the step eliminates the optimizer
    assert np.isfinite(failed.value.residual) and failed.value.residual > 0
    assert failed.value.step == 1 and "t=0" in str(failed.value)


def test_linear_flow_factors_once_and_never_calls_dgbtrs(monkeypatch):
    # structural guard: a linear step factors I + theta h L once by
    # dgbtrf and folds its interchanges into the order, so 200 steps of
    # an LQ flow make one dgbtrf call and no dgbtrs call (Newton and KKT
    # factors keep dgbtrs)
    ocp = make_double_integrator(N=64)
    sys = pf.assemble_optimizer(ocp)
    z0, u = pf.default_initial_state(ocp), pf.constant_input(ocp)
    calls = {"dgbtrf": 0, "dgbtrs": 0}
    for name in calls:
        def counted(*args, _f=getattr(phcore, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(phcore, name, counted)
    _forbid_dense_and_superlu(monkeypatch, "a linear flow")
    traj = pf.integrate_flow(sys, z0, u, pf.IntegratorConfig(h_t=0.01), 2.0)
    assert traj.times.size == 201
    assert calls == {"dgbtrf": 1, "dgbtrs": 0}


def test_linear_step_solves_leave_no_cyclic_garbage():
    # a linear step's solve, and the condensed stepper's solve with a 2-D
    # right side, refer to no closure of themselves: a dropped stepper's
    # band arrays are freed at once, not left for the cyclic collector
    ocp = make_double_integrator(N=64)
    opt = pf.assemble_optimizer(ocp)
    plant = pf.assemble_plant(pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0]))
    loop = pf.couple(opt, plant, ocp, pf.CouplingSpec("inv_alpha")).sys
    gc.collect()
    gc.disable()
    try:
        for sys in (opt, loop):
            step = phcore.implicit_stepper(sys.M, 0.01, 0.5, sys.metric, 1e-10, np.zeros(sys.dim))
            step(np.ones(sys.dim), np.empty(sys.dim))
            del step
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_linear_closed_loop_never_factors_dense(monkeypatch):
    # structural guard: a linear plant closed against an LQ optimizer has
    # a sparse linear part in the loop's time-stage order, factored once
    # banded, and the LQ KKT point and steady state are banded solves
    # too; any dense solve, dense LU or SuperLU during them fails the test
    ocp = make_double_integrator(N=64)
    plant = pf.assemble_plant(pf.linear_plant(np.eye(2), DI_B, [1.0, 0.0]))
    cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp, pf.CouplingSpec("inv_alpha"))
    assert sparse.issparse(cls.sys.M.linear_part)
    z0 = cls.initial_state(np.array([1.0, 0.0]))
    opt = cls.opt_sys

    _forbid_dense_and_superlu(monkeypatch, "a linear solve")
    cfg = pf.IntegratorConfig(h_t=0.01)
    traj = pf.integrate_flow(cls.sys, z0, np.zeros(cls.sys.input_dim), cfg, 0.05)
    assert traj.times.size == 6
    z_hat = pf.kkt_solve(ocp)
    ss = pf.steady_state(opt, pf.constant_input(ocp))
    assert ocp.state_metric.norm(ss.x_bar - z_hat.vector) <= 1e-8


def test_equilibrium_solves_lay_out_the_band_once_per_run(monkeypatch):
    # the Jacobian is the saddle part's band plus a diagonal, so the band
    # is laid out once per run and every iteration factors a copy of it
    ocp = make_logcosh(N=32)
    sys = pf.assemble_optimizer(ocp)
    factors, solver = [], phcore._Factor.solver

    def counted_solver(self, d=()):
        factors.append(self)
        return solver(self, d)

    layouts = _counted_layouts(monkeypatch)
    monkeypatch.setattr(phcore._Factor, "solver", counted_solver)
    for solve in (lambda: pf.kkt_solve(ocp),
                  lambda: pf.steady_state(sys, pf.constant_input(ocp))):
        layouts.clear()
        factors.clear()
        solve()
        assert len(factors) >= 2  # logcosh takes several Newton iterations
        assert len(set(map(id, factors))) == 1
        assert len(layouts) == 1


@pytest.mark.parametrize("make_ocp", [make_double_integrator, make_logcosh])
def test_closed_loop_stepper_lays_out_the_band_once(monkeypatch, make_ocp):
    # a stepper lays out one band, when it is built.  With a logcosh
    # optimizer that is the whole loop's band: the loop's L (the
    # coupling, the plant block and the saddle part), which every Newton
    # iteration copies and adds phi' to.  With an LQ optimizer it is the
    # optimizer's band alone, which the stepper factors once and the
    # plant's Newton steps never touch
    ocp = make_ocp(N=32)
    plant = pf.assemble_plant(pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0]))
    cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp, pf.CouplingSpec("inv_alpha"))
    layouts = _counted_layouts(monkeypatch)
    step = phcore.implicit_stepper(cls.sys.M, 0.02, 0.5, cls.sys.metric, 1e-11,
                                   np.zeros(cls.dim))
    z = cls.initial_state(np.array([1.0, 0.0]))
    for _ in range(5):
        z_next = np.empty(cls.dim)
        res = step(z, z_next)
        z = z_next
        assert res <= 1e-11
    band = ocp.state_dim if cls.opt_sys.M.is_linear else cls.dim
    assert [f.order.size for f in layouts] == [band]


# the builders each path of implicit_stepper calls
STEPPER_PATHS = {
    "linear": {"_linear_step"},
    "dense linear": {"_linear_step"},
    "condensed": {"_condensed_stepper", "_linear_step", "_theta_newton"},
    "newton": {"_theta_newton"},
}


def _stepper_case(path, monkeypatch):
    """(build, dim, z) for one path of implicit_stepper: build(b) is the
    midpoint stepper of that path's operator for the input b, and records
    the builders it calls; a folded LQ flow, a dense linear operator
    without an order, a cubic plant closed against an LQ optimizer, and
    the same loop without its order (the Newton run on the whole state)."""
    ocp = make_double_integrator(N=16)
    opt = pf.assemble_optimizer(ocp)
    plant = pf.assemble_plant(pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0]))
    loop = pf.couple(opt, plant, ocp, pf.CouplingSpec("inv_alpha")).sys
    M, metric = {
        "linear": (opt.M, opt.metric),
        "dense linear": (pf.linear(np.array([[1.0, 2.0], [-2.0, 1.0]])), pf.Metric.euclidean(2)),
        "condensed": (loop.M, loop.metric),
        "newton": (pf.MonotoneOperatorSpec(loop.dim, loop.M.linear_part, loop.M.affine_offset,
                                           loop.M.nodewise), loop.metric),
    }[path]
    called = set()
    for name in ("_linear_step", "_condensed_stepper", "_theta_newton"):
        def recorded(*args, _f=getattr(phcore, name), _name=name):
            called.add(_name)
            return _f(*args)
        monkeypatch.setattr(phcore, name, recorded)

    def build(b):
        called.clear()
        step = phcore.implicit_stepper(M, 0.02, 0.5, metric, 1e-11, b)
        assert called == STEPPER_PATHS[path]
        return step

    z = 0.5 * np.random.default_rng(1).standard_normal(M.dim)
    return build, M.dim, z


def _step_once(step, z):
    z_next = np.empty_like(z)
    return z_next, step(z, z_next)


@pytest.mark.parametrize("path", list(STEPPER_PATHS))
def test_stepper_keeps_its_own_copy_of_the_input(monkeypatch, path):
    # a stepper is built for its input: the caller's array, rewritten
    # afterwards, changes no step, which a stepper built for the new
    # values would take differently
    build, dim, z = _stepper_case(path, monkeypatch)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(dim)
    kept = b.copy()
    step = build(b)
    b[:] = rng.standard_normal(dim)
    z_next, res = _step_once(step, z)
    z_kept, res_kept = _step_once(build(kept), z)
    assert np.array_equal(z_next, z_kept) and res == res_kept
    assert not np.array_equal(z_next, _step_once(build(b), z)[0])


@pytest.mark.parametrize("path", list(STEPPER_PATHS))
def test_scalar_and_vector_zero_inputs_build_the_same_step(monkeypatch, path):
    build, dim, z = _stepper_case(path, monkeypatch)
    z_scalar, res_scalar = _step_once(build(0.0), z)
    z_vector, res_vector = _step_once(build(np.zeros(dim)), z)
    assert np.array_equal(z_scalar, z_vector) and res_scalar == res_vector


@pytest.mark.parametrize("path", list(STEPPER_PATHS))
def test_misshapen_step_input_is_refused_when_the_stepper_is_built(monkeypatch, path):
    build, dim, _ = _stepper_case(path, monkeypatch)
    for b in (np.zeros(dim + 1), np.zeros(1), np.zeros((1, dim)), np.zeros((dim, 1))):
        with pytest.raises(pf.DimensionMismatch):
            build(b)


def test_banded_lu_of_an_exactly_singular_matrix_is_not_finite():
    # a tridiagonal matrix with an exactly zero column: dgbtrf reports
    # info > 0, and the solver returns non-finite values for the callers
    # to report, as SuperLU's "exactly singular" path does
    A = sparse.diags([np.ones(4), 2.0 * np.ones(5), np.ones(4)], [-1, 0, 1], format="lil")
    A[:, 2] = 0.0
    order = np.array([4, 3, 2, 1, 0])
    x = phcore._Factor(A.tocsr(), 0.0, order=order).solver()(np.ones(5))
    assert x.shape == (5,) and not np.all(np.isfinite(x))
    regular = sparse.diags([np.ones(4), 3.0 * np.ones(5), np.ones(4)], [-1, 0, 1],
                           format="csr")
    r = np.arange(5.0)
    assert np.allclose(regular @ phcore._Factor(regular, 0.0, order=order).solver()(r), r,
                       atol=1e-14)


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


@pytest.mark.parametrize("case", ["logcosh flow", "cubic loop"])
def test_nonlinear_power_balance_audit_memory_is_bounded(case):
    # structural guard: a nonlinear operator of the package is evaluated
    # on a block of rows as one product plus its nodewise pieces, so the
    # audit of a nonlinear run allocates no trajectory-sized temporary;
    # 2400 steps leave the quarter of the states room for the walk's
    # fixed buffers of 64 rows each
    import tracemalloc

    cfg = pf.IntegratorConfig(h_t=0.01)
    if case == "logcosh flow":
        ocp = make_logcosh(N=64)
        sys = pf.assemble_optimizer(ocp)
        traj = pf.integrate_flow(sys, pf.default_initial_state(ocp), pf.constant_input(ocp),
                                 cfg, 24.0)
    else:
        ocp = make_double_integrator(N=64)
        plant = pf.assemble_plant(pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0]))
        cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp, pf.CouplingSpec("inv_alpha"))
        sys = cls.sys
        traj = pf.simulate_closed_loop(cls, cfg, 24.0, x_p0=np.array([1.0, 0.0])).traj
    assert not sys.M.is_linear
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
    assert info.value.step == 1  # the first step failed


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
