import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

import phflow as pf
from phflow import phcore
from phflow.operators import MonotoneOperatorSpec, Nodewise, derivative_gap


EUC1 = pf.Metric.euclidean(1)


def cubic_scalar():
    return pf.cubic(np.zeros((1, 1)), 1.0)  # x^3


def test_operator_takes_one_state_vector():
    # a stack of states is refused: L @ X of a 2x2 stack would be the
    # transpose of the row-wise result, and a 3-row stack a numpy error
    L = np.array([[1.0, 2.0], [0.0, 1.0]])
    for M in (pf.linear(L), pf.cubic(L, 1.0)):
        for bad in (np.ones((2, 2)), np.ones((3, 2)), np.ones(3), np.float64(1.0)):
            with pytest.raises(pf.DimensionMismatch):
                M(bad)


# ---------------------------------------------------------------------------
# LU factors


@pytest.mark.parametrize("shift", [0.0, 3.0])
@pytest.mark.parametrize("path, lu", [("banded", "dgbtrf"), ("dense", "dgetrf"),
                                      ("superlu", "splu")])
def test_factor_solves_the_shifted_matrix_plus_a_diagonal_on_each_path(monkeypatch, path, lu,
                                                                     shift):
    # the constructor lays out L + shift I once; solver() of a factor
    # without coords (a linear step's) factors it as it is, and each
    # solver(d) a fresh copy plus d at the fixed coordinates, so calls do
    # not pile up
    rng = np.random.default_rng(8)
    dim = 12
    A = sparse.random(dim, dim, density=0.3, random_state=rng, format="csr")
    A = A + sparse.diags(4.0 + rng.random(dim))  # well conditioned
    coords = np.array([1, 2, 3, 7, 8])
    calls, layouts = {}, []
    for name in ("dgbtrf", "dgetrf", "splu"):
        def counted(*args, _f=getattr(phcore, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(phcore, name, counted)
    coo = phcore._coords  # read once per band layout
    monkeypatch.setattr(phcore, "_coords", lambda L: layouts.append(1) or coo(L))
    order = rng.permutation(dim) if path == "banded" else None
    L = A.toarray() if path == "dense" else A
    r = rng.standard_normal(dim)
    ref = np.linalg.solve(A.toarray() + shift * np.eye(dim), r)
    solve = phcore._Factor(L, shift, order=order).solver()
    assert calls == {lu: 1}
    assert np.linalg.norm(solve(r) - ref) <= 1e-12 * np.linalg.norm(ref)
    factor = phcore._Factor(L, shift, coords, order)
    for k in range(3):
        d = rng.random(coords.size)
        full = A.toarray() + shift * np.eye(dim)
        full[coords, coords] += d
        r = rng.standard_normal(dim)
        ref = np.linalg.solve(full, r)
        assert np.linalg.norm(factor.solver(d)(r) - ref) <= 1e-12 * np.linalg.norm(ref)
        assert calls == {lu: k + 2}
    assert layouts == ([1, 1] if path == "banded" else [])


# ---------------------------------------------------------------------------
# resolvent


def test_resolvent_identity_operator():
    x = pf.resolvent(pf.identity(1), 1.0, np.array([2.0]), EUC1)
    assert x == pytest.approx(np.array([1.0]))


def test_resolvent_cubic():
    # x + x^3 = 2 has the root x = 1
    x = pf.resolvent(cubic_scalar(), 1.0, np.array([2.0]), EUC1, tol=1e-13)
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_resolvent_zero_operator():
    z = np.array([3.0, -1.0])
    out = pf.resolvent(pf.zero(2), 0.7, z, pf.Metric.euclidean(2))
    assert np.allclose(out, z)


def test_resolvent_rejects_bad_parameters():
    with pytest.raises(pf.InvalidParameter):
        pf.resolvent(pf.identity(1), 0.0, np.array([1.0]), EUC1)
    with pytest.raises(pf.InvalidParameter):
        pf.resolvent(pf.identity(1), 1.0, np.array([1.0]), EUC1, tol=0.0)


@pytest.mark.parametrize("L", [np.eye(3), np.ones((2, 3)), np.ones(2),
                               sparse.identity(3, format="csr")],
                         ids=["square", "wide", "vector", "sparse"])
def test_linear_part_of_another_shape_is_refused(L):
    # L must be (dim, dim), dense or sparse; a wrong shape is named at
    # construction, not as numpy's matmul error at the first evaluation
    with pytest.raises(pf.DimensionMismatch):
        MonotoneOperatorSpec(2, linear_part=L)


@pytest.mark.parametrize("g", [np.ones(3), np.ones(1), np.ones((2, 1)), 1.0],
                         ids=["long", "short", "column", "scalar"])
def test_affine_offset_of_another_shape_is_refused(g):
    # g must be a (dim,) vector; a wrong shape is named at construction,
    # not as numpy's broadcast error at the first evaluation
    with pytest.raises(pf.DimensionMismatch):
        MonotoneOperatorSpec(2, np.eye(2), affine_offset=g)
    M = MonotoneOperatorSpec(2, np.eye(2), affine_offset=[1, 2])
    assert M.affine_offset.dtype == float
    assert np.array_equal(M(np.zeros(2)), [1.0, 2.0])


@pytest.mark.parametrize("lo, hi", [(1, 1), (2, 1), (-1, 2), (1, 4), (3, 5)])
def test_empty_or_outside_nodewise_piece_is_refused(lo, hi):
    with pytest.raises(pf.InvalidParameter):
        MonotoneOperatorSpec(3, linear_part=np.eye(3),
                             nodewise=(Nodewise(lo, hi, np.tanh, np.cosh),))


def test_overlapping_nodewise_pieces_are_refused():
    # two cubes on L = I evaluate as x + 2 x^3, but a Newton step's
    # matrix would add only one of their derivatives at each coordinate,
    # and solve x + 2 x^3 = (1, 2) wrongly; the operator is refused
    cube = Nodewise(0, 2, lambda x: x**3, lambda x: 3.0 * x**2)
    with pytest.raises(pf.InvalidParameter):
        MonotoneOperatorSpec(2, linear_part=np.eye(2), nodewise=(cube, cube))
    with pytest.raises(pf.InvalidParameter):
        MonotoneOperatorSpec(3, linear_part=np.eye(3),
                             nodewise=(cube, Nodewise(1, 3, np.tanh, np.cosh)))


def test_resolvent_contraction_on_sampled_pairs():
    rng = np.random.default_rng(3)
    metric = pf.Metric.euclidean(3)
    lin = pf.linear(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]]))
    cub = pf.cubic(np.eye(3), 1.0)
    for op in (lin, cub):
        for _ in range(25):
            z1, z2 = rng.standard_normal((2, 3))
            r1 = pf.resolvent(op, 0.8, z1, metric, tol=1e-13)
            r2 = pf.resolvent(op, 0.8, z2, metric, tol=1e-13)
            assert metric.norm(r1 - r2) <= metric.norm(z1 - z2) + 1e-11


# ---------------------------------------------------------------------------
# semigroup


def test_semigroup_scalar_closed_form():
    out = pf.semigroup_approx(pf.identity(1), 1.0, 1000, np.array([1.0]))
    assert out[0] == pytest.approx((1.0 + 1e-3) ** (-1000), rel=1e-12)
    assert abs(out[0] - np.exp(-1.0)) < 1e-3


def test_semigroup_zero_operator_is_identity():
    x0 = np.array([2.0, -1.0])
    assert np.allclose(pf.semigroup_approx(pf.zero(2), 5.0, 17, x0), x0)


def test_semigroup_first_order_against_matrix_exponential():
    A = np.array([[2.0, -1.0], [-1.0, 2.0]])
    x0 = np.array([1.0, -0.5])
    exact = expm(-A) @ x0
    errs = [np.linalg.norm(pf.semigroup_approx(pf.linear(A), 1.0, n, x0) - exact)
            for n in (8, 16, 32, 64)]
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    assert all(r >= 1.8 for r in ratios)


def test_semigroup_nonlinear_path():
    op = cubic_scalar()
    x0 = np.array([1.0])
    coarse = pf.semigroup_approx(op, 0.5, 8, x0)
    fine = pf.semigroup_approx(op, 0.5, 256, x0)
    # dx/dt = -x^3 has solution (1 + 2t)^(-1/2)
    exact = (1.0 + 2.0 * 0.5) ** -0.5
    assert abs(fine[0] - exact) < abs(coarse[0] - exact)
    assert fine[0] == pytest.approx(exact, abs=2e-3)


# ---------------------------------------------------------------------------
# accretivity probe


def test_probe_identity():
    report = pf.accretivity_probe(pf.identity(4), pf.Metric.euclidean(4),
                                  rng=0, n_pairs=50)
    assert report.c_estimate == pytest.approx(1.0, abs=1e-12)
    assert not report.violation


def test_probe_metric_skew_operator():
    # J = W^{-1} K with K skew makes <Jx, x>_W vanish identically
    rng = np.random.default_rng(4)
    w = rng.uniform(0.5, 2.0, size=4)
    metric = pf.Metric(w)
    K = rng.standard_normal((4, 4))
    K = K - K.T
    J = K / w[:, None]
    report = pf.accretivity_probe(pf.linear(J), metric, rng=1, n_pairs=60)
    assert abs(report.min_gap) <= 1e-12 * 100
    assert not report.violation


def test_probe_flags_negative_operator():
    report = pf.accretivity_probe(pf.linear(-np.eye(3)), pf.Metric.euclidean(3),
                                  rng=2, n_pairs=40)
    assert report.violation
    assert report.c_estimate == pytest.approx(-1.0, abs=1e-12)


def test_probe_anchored_at_point():
    op = cubic_scalar()
    report = pf.accretivity_probe(op, EUC1, rng=3, n_pairs=50,
                                  x_bar=np.array([1.0]))
    # gap <x^3 - 1, x - 1> / (x-1)^2 = x^2 + x + 1 >= 3/4
    assert report.c_estimate >= 0.75 - 1e-12


# ---------------------------------------------------------------------------
# audits


def _midpoint_linear_traj(L, x0, h, steps, metric, B=None, u=None):
    dim = x0.size
    B = np.zeros((dim, 0)) if B is None else B
    m = B.shape[1]
    u = np.zeros(m) if u is None else u
    sys = pf.PHSystem(pf.linear(L), B, metric, pf.Metric.euclidean(m))
    cfg = pf.IntegratorConfig(h_t=h)
    return sys, pf.integrate_flow(sys, x0, u, cfg, h * steps)


def test_power_balance_skew_flow_conserves_norm():
    K = np.array([[0.0, 1.0], [-1.0, 0.0]])
    metric = pf.Metric.euclidean(2)
    sys, traj = _midpoint_linear_traj(K, np.array([1.0, 0.0]), 0.05, 100, metric)
    report = pf.power_balance_audit(sys, traj)
    assert report.max_residual <= 1e-10
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - norms[0])) <= 1e-12


def test_power_balance_second_order_on_exact_solution():
    # sampling the exact decay of dx/dt = -x leaves only the O(h^2)
    # defect of the midpoint-form balance
    sys = pf.PHSystem(pf.identity(1), np.zeros((1, 0)), EUC1,
                      pf.Metric.euclidean(0))

    def residual(h):
        times = h * np.arange(101)
        states = np.exp(-times).reshape(-1, 1)
        traj = pf.Trajectory(times, states, np.zeros((101, 0)))
        return pf.power_balance_audit(sys, traj).max_residual

    r1, r2 = residual(0.02), residual(0.01)
    assert 3.5 <= r1 / r2 <= 4.5


def test_power_balance_constant_steady_state():
    L = np.array([[1.0]])
    B = np.array([[1.0]])
    sys = pf.PHSystem(pf.linear(L), B, EUC1, pf.Metric.euclidean(1))
    times = 0.1 * np.arange(20)
    states = np.full((20, 1), 2.0)
    inputs = np.full((20, 1), 2.0)  # x_bar = B u_bar = 2
    report = pf.power_balance_audit(sys, pf.Trajectory(times, states, inputs))
    assert report.max_residual <= 1e-10


def _cubic_two_port():
    sys = pf.PHSystem(pf.cubic(np.array([[1.0, 0.5], [-0.5, 2.0]]), 1.0), np.eye(2),
                      pf.Metric.euclidean(2), pf.Metric.euclidean(2))
    ss = pf.steady_state(sys, np.array([0.3, -0.2]))
    traj = pf.integrate_flow(sys, np.array([1.0, -1.0]), ss.u_bar,
                             pf.IntegratorConfig(h_t=0.02), 1.0)
    return sys, ss, traj


AUDITS = {
    "power_balance": lambda sys, traj, ss: pf.power_balance_audit(sys, traj),
    "shifted_passivity": pf.shifted_passivity_audit,
}


@pytest.mark.parametrize("audit", AUDITS)
@pytest.mark.parametrize("states, inputs", [((3, 1), (3, 2)), ((3, 2), (3, 3)),
                                            ((3, 2), (3, 1))],
                         ids=["state", "input_wide", "input_narrow"])
def test_audit_dimension_check(audit, states, inputs):
    # a trajectory of another state or input width is refused by both
    sys, ss, _ = _cubic_two_port()
    traj = pf.Trajectory(np.arange(3.0), np.zeros(states), np.zeros(inputs))
    with pytest.raises(pf.DimensionMismatch, match="trajectory"):
        AUDITS[audit](sys, traj, ss)


@pytest.mark.parametrize("field, bad", [("x_bar", np.zeros(3)), ("u_bar", np.zeros(1)),
                                        ("u_bar", np.zeros(3)), ("y_bar", np.zeros(1)),
                                        ("y_bar", np.zeros((1, 2)))])
def test_shifted_passivity_refuses_misshapen_steady_state(field, bad):
    # a u_bar or y_bar of length 1 would broadcast over both ports
    sys, ss, traj = _cubic_two_port()
    assert pf.shifted_passivity_audit(sys, traj, ss).max_equality_residual <= 1e-12
    pair = {"x_bar": ss.x_bar, "u_bar": ss.u_bar, "y_bar": ss.y_bar, field: bad}
    with pytest.raises(pf.DimensionMismatch, match=field):
        pf.shifted_passivity_audit(sys, traj, pf.SteadyStatePair(**pair))


SHAPE_HOLES = {
    "PHSystem_B_3d": ("B", lambda: pf.PHSystem(pf.identity(2), np.ones((2, 2, 2)),
                                               pf.Metric.euclidean(2), pf.Metric.euclidean(4))),
    "PHSystem_B_flat": ("B", lambda: pf.PHSystem(pf.identity(2), np.ones(4),
                                                 pf.Metric.euclidean(2), pf.Metric.euclidean(2))),
    "LinearPlantModel_B": ("B", lambda: pf.LinearPlantModel(np.eye(2), np.ones((2, 1, 1)),
                                                            0.0, np.zeros(2))),
    "PlantSpec_B_p": ("B_p", lambda: pf.linear_plant(np.eye(2), np.ones((2, 1, 1)), np.zeros(2))),
    "Metric": ("weights", lambda: pf.Metric(np.ones((2, 2)))),
    "decay_fit_times": ("times", lambda: pf.decay_fit(np.ones((2, 6)), np.ones(12))),
    "decay_fit_values": ("values", lambda: pf.decay_fit(np.arange(12.0), np.ones((2, 6)))),
}


@pytest.mark.parametrize("case", SHAPE_HOLES)
def test_misshapen_array_is_refused_by_name(case):
    # each of these used to be reshaped or flattened silently
    field, build = SHAPE_HOLES[case]
    with pytest.raises(pf.DimensionMismatch, match=field):
        build()


def test_flat_port_of_the_state_dimension_is_one_column():
    sys = pf.PHSystem(pf.identity(2), np.ones(2), pf.Metric.euclidean(2),
                      pf.Metric.euclidean(1))
    assert sys.B.shape == (2, 1)


FINITENESS_HOLES = {
    "h_t_nan": ("h_t", lambda: pf.IntegratorConfig(h_t=np.nan)),
    "h_t_inf": ("h_t", lambda: pf.IntegratorConfig(h_t=np.inf)),
    "newton_tol_negative": ("newton_tol", lambda: pf.IntegratorConfig(h_t=0.1, newton_tol=-1.0)),
    "newton_tol_nan": ("newton_tol", lambda: pf.IntegratorConfig(h_t=0.1, newton_tol=np.nan)),
    "gamma_nan": ("gamma", lambda: pf.CouplingSpec(np.nan).resolve(1.0)),
    "gamma_inf": ("gamma", lambda: pf.CouplingSpec(np.inf).resolve(1.0)),
    "t_f_nan": ("t_f", lambda: pf.build_grid(np.nan, 4)),
    "times_nan": ("times", lambda: pf.Trajectory([0.0, np.nan, 2.0], np.zeros((3, 1)),
                                                 np.zeros((3, 1)))),
    "alpha_nan": ("alpha", lambda: pf.CostSpec(np.nan, pf.LogCoshStage(1.0))),
    "alpha_inf": ("alpha", lambda: pf.CostSpec(np.inf, pf.LogCoshStage(1.0))),
    "scale_nan": ("scale", lambda: pf.LogCoshStage(np.nan)),
    "weights_nan": ("weights", lambda: pf.Metric([1.0, np.nan])),
    "weights_inf": ("weights", lambda: pf.Metric([1.0, np.inf])),
    "kappa_nan": ("kappa", lambda: pf.cubic_plant(np.eye(1), np.nan, np.ones((1, 1)),
                                                  np.zeros(1))),
}


@pytest.mark.parametrize("case", FINITENESS_HOLES)
def test_non_finite_parameter_is_refused_by_name(case):
    # NaN passes a "<= 0" check, so each of these used to be accepted
    field, build = FINITENESS_HOLES[case]
    with pytest.raises(pf.InvalidParameter, match=field):
        build()


def test_shifted_passivity_at_steady_state_is_flat():
    L = np.array([[1.0, 0.0], [0.0, 2.0]])
    B = np.eye(2)
    metric = pf.Metric.euclidean(2)
    sys = pf.PHSystem(pf.linear(L), B, metric, pf.Metric.euclidean(2))
    u_bar = np.array([1.0, 1.0])
    ss = pf.steady_state(sys, u_bar)
    times = 0.05 * np.arange(30)
    states = np.tile(ss.x_bar, (30, 1))
    inputs = np.tile(u_bar, (30, 1))
    report = pf.shifted_passivity_audit(sys, pf.Trajectory(times, states, inputs), ss)
    assert report.max_equality_residual <= 1e-12
    assert report.max_inequality_excess <= 1e-12


def test_shifted_norm_nonincreasing_with_constant_input():
    L = np.array([[1.5, 0.3], [0.3, 0.8]])
    B = np.array([[1.0], [0.0]])
    metric = pf.Metric.euclidean(2)
    sys = pf.PHSystem(pf.linear(L), B, metric, pf.Metric.euclidean(1))
    u_bar = np.array([0.7])
    ss = pf.steady_state(sys, u_bar)
    cfg = pf.IntegratorConfig(h_t=0.05)
    traj = pf.integrate_flow(sys, np.array([3.0, -2.0]), u_bar, cfg, 5.0)
    shifted = np.linalg.norm(traj.states - ss.x_bar, axis=1)
    assert np.max(np.diff(shifted), initial=-np.inf) <= 1e-9
    report = pf.shifted_passivity_audit(sys, traj, ss)
    assert report.passive(1e-9)


# ---------------------------------------------------------------------------
# steady states


def test_steady_state_linear():
    sys = pf.PHSystem(pf.identity(2), np.eye(2), pf.Metric.euclidean(2),
                      pf.Metric.euclidean(2))
    ss = pf.steady_state(sys, np.array([3.0, -1.0]))
    assert np.allclose(ss.x_bar, [3.0, -1.0])
    assert np.allclose(ss.y_bar, ss.x_bar)


def test_steady_state_cubic_newton():
    sys = pf.PHSystem(cubic_scalar(), np.array([[1.0]]), EUC1,
                      pf.Metric.euclidean(1))
    ss = pf.steady_state(sys, np.array([8.0]), x_init=np.array([1.0]))
    assert ss.x_bar[0] == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# interconnection


def _two_port_systems():
    rng = np.random.default_rng(7)
    w1 = rng.uniform(0.5, 2.0, size=3)
    w2 = rng.uniform(0.5, 2.0, size=2)
    m1 = pf.Metric(w1)
    m2 = pf.Metric(w2)
    L1 = np.diag([1.0, 2.0, 0.5])
    L2 = np.diag([1.5, 0.7])
    B1 = rng.standard_normal((3, 3))  # ports: 2 coupled + 1 open
    B2 = rng.standard_normal((2, 2))  # ports: 2 coupled + 0 open
    sys1 = pf.PHSystem(pf.linear(L1), B1, m1, pf.Metric(rng.uniform(0.5, 2, 3)))
    sys2 = pf.PHSystem(pf.linear(L2), B2, m2, pf.Metric(rng.uniform(0.5, 2, 2)))
    F = rng.standard_normal((2, 2))
    return sys1, sys2, F


def test_interconnect_coupling_block_is_skew():
    sys1, sys2, F = _two_port_systems()
    K = pf.coupling_block(sys1, sys2, F, 2, 2)
    metric = sys1.metric.concat(sys2.metric)
    rng = np.random.default_rng(8)
    for _ in range(100):
        z = rng.standard_normal(5)
        assert abs(metric.inner(K @ z, z)) <= 1e-12 * (1 + metric.inner(z, z))


def test_interconnect_pure_rotation_conserves_energy():
    # two scalar lossless systems, fully coupled: a harmonic oscillator
    e1 = pf.Metric.euclidean(1)
    sys1 = pf.PHSystem(pf.zero(1), np.array([[1.0]]), e1, e1)
    sys2 = pf.PHSystem(pf.zero(1), np.array([[1.0]]), e1, e1)
    coupled = pf.interconnect(sys1, sys2, np.array([[1.0]]), 1, 1)
    assert coupled.input_dim == 0
    cfg = pf.IntegratorConfig(h_t=0.05)
    traj = pf.integrate_flow(coupled, np.array([1.0, 0.0]), np.zeros(0), cfg, 20.0)
    energy = 0.5 * np.sum(traj.states**2, axis=1)
    assert np.max(np.abs(energy - energy[0])) <= 1e-12


def test_interconnect_strong_accretivity_survives():
    sys1, sys2, F = _two_port_systems()
    coupled = pf.interconnect(sys1, sys2, F, 2, 2)
    c1 = pf.accretivity_probe(sys1.M, sys1.metric, rng=0, n_pairs=100).c_estimate
    c2 = pf.accretivity_probe(sys2.M, sys2.metric, rng=0, n_pairs=100).c_estimate
    cc = pf.accretivity_probe(coupled.M, coupled.metric, rng=0, n_pairs=100).c_estimate
    assert cc >= min(c1, c2) - 1e-9


def test_interconnect_preserves_probe_accretivity_same_seeds():
    sys1, sys2, F = _two_port_systems()
    coupled = pf.interconnect(sys1, sys2, F, 2, 2)
    for seed in range(10):
        assert not pf.accretivity_probe(coupled.M, coupled.metric, rng=seed,
                                        n_pairs=50).violation


def test_interconnect_open_ports_survive():
    sys1, sys2, F = _two_port_systems()
    coupled = pf.interconnect(sys1, sys2, F, 2, 2)
    assert coupled.input_dim == 1
    assert np.allclose(coupled.B[:3, 0], sys1.B[:, 2])
    assert np.allclose(coupled.B[3:, 0], 0.0)


def test_interconnect_dimension_check():
    sys1, sys2, F = _two_port_systems()
    with pytest.raises(pf.DimensionMismatch):
        pf.interconnect(sys1, sys2, F[:1], 2, 2)


# ---------------------------------------------------------------------------
# container contracts


def test_trajectory_validation():
    with pytest.raises(pf.InvalidParameter):
        pf.Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)),
                      np.zeros((3, 0)))
    with pytest.raises(pf.DimensionMismatch):
        pf.Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)),
                      np.zeros((2, 0)))
    with pytest.raises(pf.InvalidParameter):
        # non-uniform sampling has no single step
        pf.Trajectory(np.array([0.0, 1.0, 3.0]), np.zeros((3, 1)),
                      np.zeros((3, 0))).step
    # states and inputs are one row per time: a 1-D array of either is
    # refused by name, not left to fail in an audit with an IndexError
    with pytest.raises(pf.DimensionMismatch, match="states"):
        pf.Trajectory(np.arange(3.0), np.zeros(3), np.zeros((3, 0)))
    with pytest.raises(pf.DimensionMismatch, match="inputs"):
        pf.Trajectory(np.arange(3.0), np.zeros((3, 1)), np.zeros(3))


def test_semigroup_parameter_validation():
    with pytest.raises(pf.InvalidParameter):
        pf.semigroup_approx(pf.identity(1), -1.0, 4, np.array([1.0]))
    with pytest.raises(pf.InvalidParameter):
        pf.semigroup_approx(pf.identity(1), 1.0, 0, np.array([1.0]))


def test_phsystem_autonomous_port():
    sys = pf.PHSystem(pf.identity(2), np.zeros((2, 0)),
                      pf.Metric.euclidean(2), pf.Metric.euclidean(0))
    assert sys.input_dim == 0
    assert sys.output(np.ones(2)).shape == (0,)


# ---------------------------------------------------------------------------
# derivative consistency


def test_derivative_consistency_sampled():
    rng = np.random.default_rng(9)
    op = pf.cubic(np.eye(3), 1.0)
    for _ in range(20):
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        scale = 1.0 + float(np.max(np.abs(x)))
        gap = derivative_gap(op, x, v, eps=1e-5 * scale)
        assert gap <= 1e-6 * np.linalg.norm(v) * scale
