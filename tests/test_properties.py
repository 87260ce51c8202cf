"""Property tests over random small problems: the state layout of
`DiscretizedOCP.blocks` and the discrete identities the flow rests on
(the metric adjoint pair, the monotonicity gap of m_opt and the skew
closed-loop coupling)."""

import numpy as np
from hypothesis import given, settings, strategies as st

import phflow as pf

PROFILE = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def problems(draw):
    """A random small quadratic OCP: N in 2..8, n in 1..3, m in 1..2,
    random A, B, x0 and q, SPD Q and alpha > 0; plus an rng for vectors."""
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
    cost = pf.CostSpec(alpha, pf.QuadraticStage(Q, rng.standard_normal(n)))
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
