"""The discrete KKT point against the continuous optimal control.

For the LQ problem with f = 0 and q = 0 the continuous optimum is the
Riccati feedback: with -P' = A^T P + P A - P B B^T P / alpha + Q and
P(t_f) = 0, the optimal state solves x' = (A - B B^T P / alpha) x, the
control is u = -B^T P x / alpha and the multiplier is lam = P x.  This
reference shares no code with `ocp`: scipy's DOP853 integrates P
backward and x forward at rtol 1e-13, far below the discretization
errors measured here.  Over N = 32, 64, 128 the state, the interior
controls, the interval multipliers (at the interval midpoints) and lam0
converge at second order, and the two boundary controls, whose
registrations are midpoint values of the first and last interval, at
first order.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import phflow as pf
from conftest import DI_A, DI_B

NS = (32, 64, 128)


def _riccati(A, B, Q, alpha, t_f, x0):
    """P(t) and the optimal state x(t), both as dense-output callables."""
    n = A.shape[0]

    def riccati(t, p):
        P = p.reshape(n, n)
        return -(A.T @ P + P @ A - P @ B @ B.T @ P / alpha + Q).ravel()

    tol = dict(method="DOP853", rtol=1e-13, atol=1e-14, dense_output=True)
    P = solve_ivp(riccati, (t_f, 0.0), np.zeros(n * n), **tol).sol

    def state(t, x):
        return A @ x - B @ (B.T @ (P(t).reshape(n, n) @ x)) / alpha

    return lambda t: P(t).reshape(n, n), solve_ivp(state, (0.0, t_f), x0, **tol).sol


def _errors(A, B, Q, alpha, t_f, x0):
    """Max-norm errors of the KKT point against the Riccati solution at
    each N of NS, one dict per N."""
    P, x = _riccati(A, B, Q, alpha, t_f, x0)
    model = pf.LinearPlantModel(A, B, 0.0, x0)
    cost = pf.CostSpec(alpha, pf.QuadraticStage(Q))
    errors = []
    for N in NS:
        ocp = pf.assemble_ocp(model, pf.build_grid(t_f, N), cost)
        z = pf.kkt_solve(ocp)
        nodes, mid = ocp.grid.nodes, ocp.grid.midpoints
        u = np.array([-B.T @ P(t) @ x(t) / alpha for t in nodes])
        du = np.abs(z.u - u)
        errors.append({
            "x": np.max(np.abs(z.x - np.array([x(t) for t in nodes]))),
            "u interior": np.max(du[1:-1]),
            "lam": np.max(np.abs(z.lam - np.array([P(t) @ x(t) for t in mid]))),
            "lam0": np.max(np.abs(z.lam0 - P(0.0) @ x0)),
            "feedback": np.max(np.abs(B.T @ (z.lam0 - P(0.0) @ x0)) / alpha),
            "u_0": np.max(du[0]),
            "u_N": np.max(du[-1]),
        })
    return errors


def _random_problem():
    rng = np.random.default_rng(0)
    n, m = 3, 2
    G = rng.standard_normal((n, n))
    return (rng.standard_normal((n, n)), rng.standard_normal((n, m)),
            G @ G.T + 0.1 * np.eye(n), rng.uniform(0.5, 2.0), 1.0,
            rng.standard_normal(n))


@pytest.mark.parametrize("problem", [
    (DI_A, DI_B, np.eye(2), 1.0, 1.0, np.array([1.0, 0.0])),
    _random_problem(),
], ids=["double_integrator", "random_n3_m2"])
def test_kkt_point_converges_to_the_riccati_solution(problem):
    errors = _errors(*problem)
    for coarse, fine in zip(errors, errors[1:]):
        order = {k: np.log2(coarse[k] / fine[k]) for k in coarse}
        # second order, the loop's feedback -(1/alpha) B^T lam0 included
        for k in ("x", "u interior", "lam", "lam0", "feedback"):
            assert order[k] >= 1.8, (k, order[k])
        # first order at the boundary nodes, neither better nor worse
        for k in ("u_0", "u_N"):
            assert 0.8 <= order[k] <= 1.2, (k, order[k])
