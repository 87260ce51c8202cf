"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criteria 1, 6, 7 and 9 share one flow run of the reference scenario
(double integrator, quadratic cost, N = 64), computed once per session.
"""

import time

import numpy as np
import pytest
from scipy import optimize
from scipy.linalg import expm

import phflow as pf
from conftest import (DI_A, DI_B, make_double_integrator, make_logcosh,
                      state_from)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared reference run (criteria 1, 6, 7, 9)


@pytest.fixture(scope="session")
def reference_run(di_ocp, di_zhat):
    """Solve, independent cross-check, and flow-to-tolerance of the
    reference scenario, with its wall clock."""
    t_start = time.time()
    ocp, z_hat = di_ocp, di_zhat

    # independent oracle: conjugate-gradient minimization of the reduced
    # cost, using only the forward map (never the KKT machinery)
    nu = (ocp.N + 1) * ocp.m
    x0_resp = pf.input_to_state(ocp.model, np.zeros((ocp.N + 1, ocp.m)), ocp.grid)
    S = np.empty(((ocp.N + 1) * ocp.n, nu))
    for j in range(nu):
        e = np.zeros(nu)
        e[j] = 1.0
        xj = pf.input_to_state(ocp.model, e.reshape(ocp.N + 1, ocp.m), ocp.grid)
        S[:, j] = (xj - x0_resp).ravel()
    wx = np.repeat(ocp.grid.weights, ocp.n)
    wu = np.repeat(ocp.grid.weights, ocp.m)

    def objective(u_flat):
        x = x0_resp + (S @ u_flat).reshape(ocp.N + 1, ocp.n)
        J, gx, gu = pf.cost_and_gradient(ocp.cost, ocp.grid, x,
                                         u_flat.reshape(ocp.N + 1, ocp.m))
        grad = S.T @ (wx * gx.ravel()) + wu * gu.ravel()
        return J, grad

    cg = optimize.minimize(objective, np.zeros(nu), jac=True, method="CG",
                           options={"gtol": 1e-12, "maxiter": 2000})
    u_cg = cg.x.reshape(ocp.N + 1, ocp.m)
    x_cg = x0_resp + (S @ cg.x).reshape(ocp.N + 1, ocp.n)

    # integrate the optimizer flow until the fitted horizon reaches the
    # target contraction
    sys = pf.assemble_optimizer(ocp)
    cfg = pf.IntegratorConfig(h_t=pf.default_outer_step(ocp))
    z0 = pf.default_initial_state(ocp)
    u_opt = pf.constant_input(ocp)
    w = ocp.state_metric.weights

    def err_of(states):
        d = states - z_hat.vector
        return np.sqrt(np.einsum("ij,j,ij->i", d, w, d))

    chunk_T = 12.0
    times = np.zeros(1)
    states = z0[None, :].copy()
    err0 = err_of(states)[0]
    target = 1e-6 * err0
    for _ in range(6):
        traj = pf.integrate_flow(sys, states[-1], u_opt, cfg, chunk_T)
        times = np.concatenate([times, times[-1] + traj.times[1:]])
        states = np.concatenate([states, traj.states[1:]])
        if err_of(states[-1:])[0] <= target:
            break

    wall = time.time() - t_start
    full = pf.Trajectory(times, states, np.tile(u_opt, (times.size, 1)))
    return {
        "ocp": ocp, "z_hat": z_hat, "sys": sys, "traj": full,
        "errors": err_of(states), "err0": err0, "u_cg": u_cg, "x_cg": x_cg,
        "wall": wall, "z0": z0,
    }


def test_criterion_01_kkt_oracle_equivalence(reference_run):
    r = reference_run
    ocp, z_hat = r["ocp"], r["z_hat"]
    cg_gap = max(np.max(np.abs(r["u_cg"] - z_hat.u)),
                 np.max(np.abs(r["x_cg"] - z_hat.x)))
    final_ratio = r["errors"][-1] / r["err0"]
    ok = cg_gap <= 1e-6 and final_ratio <= 1e-6 and r["wall"] <= 10.0
    report(1, ok,
           f"flow error ratio {final_ratio:.2e} (<=1e-6), "
           f"CG cross-check gap {cg_gap:.2e} (<=1e-6), "
           f"wall {r['wall']:.1f}s (<=10s)")


def test_criterion_02_monotonicity_gap(di_ocp):
    rng = np.random.default_rng(1234)
    ocp = di_ocp
    alpha = ocp.cost.alpha
    wu = np.repeat(ocp.grid.weights, ocp.m)
    nx = (ocp.N + 1) * ocp.n
    p = ocp.primal_dim
    worst = np.inf
    m_opt = pf.assemble_optimizer(ocp).M
    for _ in range(1000):
        z1, z2 = rng.standard_normal((2, ocp.state_dim))
        gap = ocp.state_metric.inner(m_opt(z1) - m_opt(z2), z1 - z2)
        du = (z1 - z2)[nx:p]
        worst = min(worst, gap - alpha * np.dot(wu * du, du))
    ok = worst >= -1e-10
    report(2, ok, f"min gap minus alpha*||du||^2 = {worst:.2e} (>= -1e-10), "
                  "1000 seeded pairs")


def test_criterion_03_exact_discrete_skew_symmetry():
    rng = np.random.default_rng(7)
    worst = 0.0
    for N in (8, 64, 256):
        ocp = make_double_integrator(N=N)
        for _ in range(100):
            zp = rng.standard_normal(ocp.primal_dim)
            d = rng.standard_normal(ocp.dual_dim)
            form = (ocp.primal_metric.inner(ocp.C_star @ d, zp)
                    - ocp.dual_metric.inner(ocp.C @ zp, d))
            z_norm2 = (ocp.primal_metric.inner(zp, zp)
                       + ocp.dual_metric.inner(d, d))
            worst = max(worst, abs(form) / z_norm2)
    ok = worst <= 1e-12
    report(3, ok, f"skew form relative magnitude {worst:.2e} (<=1e-12), "
                  "N in {8, 64, 256}")


def test_criterion_04_adjoint_consistency():
    t_f = 1.0
    tests = [
        (lambda t: np.array([np.sin(np.pi * (t_f - t)), (t_f - t) ** 2]),
         lambda t: np.array([-np.pi * np.cos(np.pi * (t_f - t)),
                             -2.0 * (t_f - t)])),
        (lambda t: np.array([(t_f - t) * np.cos(2 * t),
                             np.sin(2.0 * (t_f - t))]),
         lambda t: np.array([-np.cos(2 * t) - 2 * (t_f - t) * np.sin(2 * t),
                             -2.0 * np.cos(2.0 * (t_f - t))])),
    ]

    def interior_error(N, lam_fn, dlam_fn):
        ocp = make_double_integrator(N=N, t_f=t_f)
        grid = ocp.grid
        lam = np.array([lam_fn(t) for t in grid.midpoints])
        out = ocp.C_star @ state_from(ocp, lam=lam, lam0=lam_fn(0.0)).dual
        x_part = out[:(N + 1) * 2].reshape(N + 1, 2)
        u_part = out[(N + 1) * 2:].reshape(N + 1, 1)
        xt = np.array([-dlam_fn(t) - DI_A.T @ lam_fn(t) for t in grid.nodes])
        ut = np.array([-DI_B.T @ lam_fn(t) for t in grid.nodes])
        return max(np.abs(x_part - xt)[1:-1].max(),
                   np.abs(u_part - ut)[1:-1].max())

    ratios = []
    for lam_fn, dlam_fn in tests:
        errs = [interior_error(N, lam_fn, dlam_fn) for N in (32, 64, 128)]
        ratios += [errs[0] / errs[1], errs[1] / errs[2]]
    ok = all(r >= 3.5 for r in ratios)
    report(4, ok, "interior error ratios under halving: "
                  + ", ".join(f"{r:.2f}" for r in ratios) + " (all >=3.5)")


def test_criterion_05_semigroup_formula():
    M = np.array([[2.0, -1.0], [-1.0, 2.0]])
    x0 = np.array([1.0, -0.5])
    exact = expm(-M) @ x0
    errs = [np.linalg.norm(pf.semigroup_approx(pf.linear(M), 1.0, n, x0) - exact)
            for n in (8, 16, 32, 64, 128)]
    ratios = [errs[i] / errs[i + 1] for i in range(4)]
    scalar = pf.semigroup_approx(pf.identity(1), 1.0, 1000, np.array([1.0]))[0]
    scalar_gap = abs(scalar - np.exp(-1.0))
    ok = all(r >= 1.8 for r in ratios) and scalar_gap < 1e-3
    report(5, ok, "error ratios " + ", ".join(f"{r:.2f}" for r in ratios)
                  + f" (all >=1.8); scalar gap {scalar_gap:.1e} (<1e-3)")


def test_criterion_06_power_balance_and_shifted_passivity(reference_run):
    r = reference_run
    ocp, sys, traj, z_hat = r["ocp"], r["sys"], r["traj"], r["z_hat"]
    scale = 1.0 + ocp.state_metric.inner(r["z0"], r["z0"])
    pb = pf.power_balance_audit(sys, traj)
    ss = pf.SteadyStatePair(z_hat.vector, pf.constant_input(ocp),
                            sys.output(z_hat.vector))
    sh = pf.shifted_passivity_audit(sys, traj, ss)
    norm_increase = np.max(np.diff(r["errors"]), initial=-np.inf)
    ok = (pb.max_residual <= 1e-10 * scale
          and norm_increase <= 1e-9
          and sh.max_inequality_excess <= 1e-9)
    report(6, ok,
           f"power residual {pb.max_residual:.2e} (<= {1e-10 * scale:.1e}), "
           f"shifted-norm per-step increase {norm_increase:.1e} (<=1e-9), "
           f"passivity excess {sh.max_inequality_excess:.1e} (<=1e-9)")


def test_criterion_07_gronwall_primal_bound(reference_run):
    # strong monotonicity of the primal block bounds the time integral of
    # the primal error, not its pointwise value: the skew coupling feeds
    # multiplier error back into the primal block, so the primal error
    # decays at the coupled-spectrum rate c1/2 and outgrows the pointwise
    # envelope exp(-c1 t) (analysis in README.md, "Criterion 7").  Implicit
    # midpoint keeps the bound exactly: with m_k = (h_k + h_{k+1})/2,
    #   ||h_{k+1}||^2 - ||h_k||^2 = -2 dt <m_k, M m_k> <= -2 dt c1 ||P m_k||^2
    # so for every step n
    #   c1 sum_{k<n} dt ||P m_k||^2 <= (||h_0||^2 - ||h_n||^2) / 2
    r = reference_run
    ocp, traj = r["ocp"], r["traj"]
    c1 = min(np.min(np.linalg.eigvalsh(ocp.cost.stage.Q)), ocp.cost.alpha)
    # the identity needs every step: stored times are one outer step apart
    dt = np.diff(traj.times)
    h_t = pf.default_outer_step(ocp)
    assert np.max(np.abs(dt - h_t)) <= 1e-9 * h_t

    p = ocp.primal_dim
    h = traj.states - r["z_hat"].vector
    mid = 0.5 * (h[1:, :p] + h[:-1, :p])
    half_sq = 0.5 * ocp.state_metric.row_inner(h, h)
    dissipated = np.concatenate(
        [[0.0], np.cumsum(c1 * dt * ocp.primal_metric.row_inner(mid, mid))])
    excess = float(np.max(dissipated - (half_sq[0] - half_sq))) / half_sq[0]

    # the pointwise envelope ||h(0)|| exp(-c1 t), reported for information only
    rep = pf.convergence_report(traj, r["z_hat"], ocp)
    envelope = rep.errors[0] * np.exp(-c1 * rep.times)
    envelope_ratio = np.max(rep.errors_primal / envelope)
    report(7, excess <= 1e-6,
           f"primal dissipation with c1={c1:g}: excess {excess:.1e} of "
           f"||h(0)||^2/2 over {dt.size} steps (<=1e-6); pointwise envelope "
           f"ratio {envelope_ratio:.2e} (not asserted)")


@pytest.fixture(scope="session")
def closed_loop_run():
    t_start = time.time()
    ocp = make_double_integrator(N=32)
    spec = pf.cubic_plant(np.eye(2), 1.0, DI_B, [1.0, 0.0])
    plant = pf.assemble_plant(spec)
    probe = pf.accretivity_probe(spec.M, pf.Metric.euclidean(2), rng=0,
                                 n_pairs=200)
    cls = pf.couple(pf.assemble_optimizer(ocp), plant, ocp,
                    pf.CouplingSpec("inv_alpha"))
    cfg = pf.IntegratorConfig(h_t=0.02, newton_tol=1e-11)
    run = pf.simulate_closed_loop(cls, cfg, 40.0, x_p0=spec.x_p0)
    wall = time.time() - t_start
    return {"ocp": ocp, "cls": cls, "run": run, "probe": probe, "wall": wall}


def test_criterion_08_closed_loop_convergence(closed_loop_run):
    b = closed_loop_run
    ocp, cls, run = b["ocp"], b["cls"], b["run"]
    assert b["probe"].c_estimate >= 1.0 - 1e-9  # plant constant c_p >= 1

    norm_increase = np.max(np.diff(run.norm_total), initial=-np.inf)
    contraction = run.norm_total[-1] / run.norm_total[0]
    half = run.traj.times.size // 2
    tail = pf.decay_fit(run.traj.times[half:], run.norm_total[half:])

    # feedback at the open-loop optimizer equilibrium: the node-zero
    # stationarity alpha*u(0) + B^T lambda(0) = 0 is exact by
    # construction, so the node-registered signal reproduces u_hat(0)
    z_hat = pf.kkt_solve(ocp)
    z_cl_eq = np.concatenate([np.zeros(cls.n_p), z_hat.vector])
    feedback_gap = float(np.max(np.abs(cls.mpc_signal(z_cl_eq) - z_hat.u[0])))

    ok = (norm_increase <= 1e-9 and contraction <= 1e-4
          and tail.c_fit > 0 and feedback_gap <= 1e-8
          and b["wall"] <= 30.0)
    report(8, ok,
           f"norm contraction {contraction:.2e} (<=1e-4), per-step increase "
           f"{norm_increase:.1e} (<=1e-9), tail rate {tail.c_fit:.3f} (>0), "
           f"equilibrium feedback gap {feedback_gap:.2e} (<=1e-8), "
           f"wall {b['wall']:.1f}s (<=30s)")


def test_criterion_09_stability_certificates(reference_run):
    r = reference_run
    ocp, sys, z_hat = r["ocp"], r["sys"], r["z_hat"]
    DM = sys.M.derivative(z_hat.vector)
    gen = pf.metric_generator(DM, ocp.state_metric)
    abscissa = float(np.max(np.linalg.eigvals(gen).real))
    cert = pf.lyapunov_certificate(gen)
    # Lyapunov form along the flow, in orthonormal coordinates
    hs = (r["traj"].states - z_hat.vector) * np.sqrt(ocp.state_metric.weights)
    vals = cert.quadratic_form(hs)
    p_increase = np.max(np.diff(vals), initial=-np.inf)
    block = pf.spectral_abscissa(np.array([[1.0, -1.0], [1.0, 0.0]]))
    ok = (abscissa < 0 and cert.residual <= 1e-8 and cert.min_eig_P > 0
          and p_increase <= 1e-9 and abs(block + 0.5) <= 1e-10)
    report(9, ok,
           f"abscissa {abscissa:.3f} (<0), lyapunov residual "
           f"{cert.residual:.1e} (<=1e-8), min eig P {cert.min_eig_P:.3f} "
           f"(>0), P-form per-step increase {p_increase:.1e} (<=1e-9), "
           f"2x2 example {block:+.10f} (=-0.5 +/- 1e-10)")


def test_criterion_10_gradient_and_jacobian_checks():
    rng = np.random.default_rng(42)
    worst_grad = 0.0
    for make in (make_double_integrator, make_logcosh):
        ocp = make(N=8)
        for _ in range(20):
            zp = rng.standard_normal(ocp.primal_dim)
            v = rng.standard_normal(ocp.primal_dim)
            s = state_from(ocp, primal=zp)
            _, gx, gu = pf.cost_and_gradient(ocp.cost, ocp.grid, s.x, s.u)
            g = state_from(ocp, x=gx, u=gu).primal
            eps = 1e-6
            sp = state_from(ocp, primal=zp + eps * v)
            sm = state_from(ocp, primal=zp - eps * v)
            Jp, _, _ = pf.cost_and_gradient(ocp.cost, ocp.grid, sp.x, sp.u)
            Jm, _, _ = pf.cost_and_gradient(ocp.cost, ocp.grid, sm.x, sm.u)
            fd = (Jp - Jm) / (2 * eps)
            pairing = ocp.primal_metric.inner(g, v)
            worst_grad = max(worst_grad,
                             abs(fd - pairing) / max(1.0, abs(pairing)))

    worst_jac = 0.0
    lc = make_logcosh(N=8)
    ops = [
        (pf.assemble_optimizer(lc).M, lc.state_dim),
        (pf.cubic_plant(np.eye(2), 1.0, DI_B, [0.0, 0.0]).M, 2),
    ]
    for op, dim in ops:
        for _ in range(20):
            x = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            eps = 1e-6 * (1.0 + float(np.max(np.abs(x))))
            fd = (op(x + eps * v) - op(x - eps * v)) / (2 * eps)
            dv = op.derivative(x) @ v
            worst_jac = max(worst_jac,
                            float(np.max(np.abs(fd - dv)))
                            / max(1.0, float(np.max(np.abs(dv)))))
    ok = worst_grad <= 1e-6 and worst_jac <= 1e-6
    report(10, ok, f"cost-gradient FD gap {worst_grad:.2e} (<=1e-6), "
                   f"jacobian FD gap {worst_jac:.2e} (<=1e-6), "
                   "20 seeded points each")
