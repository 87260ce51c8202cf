import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import solve_continuous_lyapunov

import phflow as pf
from phflow import analysis
from phflow.operators import cubic
from conftest import make_double_integrator


# ---------------------------------------------------------------------------
# linearization


def test_linearize_cubic_scalar():
    op = cubic(np.zeros((1, 1)), 1.0)  # x^3
    DM = op.derivative(np.array([1.0]))
    assert DM[0, 0] == pytest.approx(3.0)


def test_linearize_linear_exact():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    DM = pf.linear(A).derivative(np.zeros(2))
    assert np.array_equal(DM, A)


def test_linearize_remainder_vanishes():
    op = cubic(np.zeros((1, 1)), 1.0)  # x^3
    x_bar = np.array([1.0])
    DM = op.derivative(x_bar)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(1)
    v /= np.linalg.norm(v)
    prev = np.inf
    for scale in (1e-2, 1e-3, 1e-4):
        h = scale * v
        rem = np.linalg.norm(op(x_bar + h) - op(x_bar) - DM @ h) / scale
        assert rem < prev
        prev = rem


def test_quadratic_stage_jacobian_constant(di_ocp):
    sys = pf.assemble_optimizer(di_ocp)
    rng = np.random.default_rng(1)
    j1 = sys.M.derivative(rng.standard_normal(di_ocp.state_dim))
    j2 = sys.M.derivative(rng.standard_normal(di_ocp.state_dim))
    assert np.array_equal(j1, j2)


# ---------------------------------------------------------------------------
# spectral abscissa


def test_abscissa_identity():
    assert pf.spectral_abscissa(np.eye(2)) == pytest.approx(-1.0)


def test_abscissa_block_example():
    DM = np.array([[1.0, -1.0], [1.0, 0.0]])
    assert pf.spectral_abscissa(DM) == pytest.approx(-0.5, abs=1e-10)


def test_abscissa_lossless_rotation_not_stable():
    DM = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert pf.spectral_abscissa(DM) == pytest.approx(0.0, abs=1e-12)


def test_abscissa_dimension_cap():
    with pytest.raises(pf.InvalidParameter):
        pf.spectral_abscissa(np.eye(2001))


# ---------------------------------------------------------------------------
# Lyapunov certificates


def test_lyapunov_diagonal_generator():
    cert = pf.lyapunov_certificate(-np.eye(3))
    assert np.allclose(cert.P, 0.5 * np.eye(3))
    assert cert.valid()


def test_lyapunov_against_kronecker_oracle():
    A = np.array([[-1.0, 1.0], [-1.0, 0.0]])
    cert = pf.lyapunov_certificate(A)
    # independent route: vectorized linear solve of the same equation
    n = 2
    kron = np.kron(np.eye(n), A.T) + np.kron(A.T, np.eye(n))
    P_vec = np.linalg.solve(kron, -np.eye(n).ravel())
    P_oracle = P_vec.reshape(n, n)
    assert np.max(np.abs(cert.P - P_oracle)) <= 1e-10
    assert cert.residual <= 1e-10
    assert cert.min_eig_P > 0


def test_lyapunov_rejects_marginal_generator():
    A = np.array([[0.0, 1.0], [0.0, -1.0]])  # eigenvalue at 0
    with pytest.raises(pf.NotHurwitz) as info:
        pf.lyapunov_certificate(A)
    assert info.value.abscissa == pytest.approx(0.0, abs=1e-12)
    assert f"{info.value.abscissa:.3e}" in str(info.value)


def quasi_triangular(n, first_pair, rng):
    """Hurwitz T in standardized real Schur form: a 2x2 block [[a, b],
    [c, a]] (b c < 0) on rows j, j + 1 for j = first_pair, first_pair + 2,
    ..., negative reals elsewhere on the diagonal, random above it."""
    T = np.triu(rng.standard_normal((n, n))) / np.sqrt(n)
    d = -(0.5 + rng.random(n))
    T[np.diag_indices(n)] = d
    for j in range(first_pair, n - 1, 2):
        T[j:j + 2, j:j + 2] = [[d[j], 1.0 + rng.random()],
                               [-(1.0 + rng.random()), d[j]]]
    return T


def assert_matches_scipy(A, abscissa):
    cert = pf.lyapunov_certificate(A)
    P = solve_continuous_lyapunov(A.T, -np.eye(A.shape[0]))
    scale = np.max(np.abs(P))
    assert np.max(np.abs(cert.P - P)) <= 1e-12 * scale
    assert cert.residual <= 1e-10 * (1.0 + scale)
    assert cert.valid()
    assert cert.abscissa == pytest.approx(abscissa, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 257])
@pytest.mark.parametrize("first_pair", [0, 1])
def test_lyapunov_matches_scipy_with_pairs_on_the_split_points(n, first_pair):
    # pairs on rows (0, 1), (2, 3), ... or (1, 2), (3, 4), ...: every
    # split point of the recursion either falls inside a pair, and must
    # move past it, or between two
    rng = np.random.default_rng(n + 1000 * first_pair)
    T = quasi_triangular(n, first_pair, rng)
    abscissa = np.max(np.diag(T))
    assert_matches_scipy(T.T, abscissa)  # dgees returns this T itself as the factor
    if n > 64:
        k = n // 2
        assert (T[k, k - 1] != 0.0) == (k % 2 != first_pair % 2)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    assert_matches_scipy(Q @ T.T @ Q.T, abscissa)


def test_lyapunov_factors_once_and_never_calls_eigvals(monkeypatch):
    calls = []

    def counted_schur(*args, **kwargs):
        calls.append(args)
        return schur(*args, **kwargs)

    def no_eigvals(*args, **kwargs):
        raise AssertionError("eigvals called")

    schur = analysis.schur
    monkeypatch.setattr(analysis, "schur", counted_schur)
    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    rng = np.random.default_rng(3)
    A = quasi_triangular(90, 1, rng).T
    assert pf.lyapunov_certificate(A).valid()
    assert len(calls) == 1


@pytest.mark.parametrize("A", [
    [[0.0, 1.0], [0.0, -1.0]],   # eigenvalue 0
    [[0.0, 1.0], [-1.0, 0.0]],   # pure rotation: the pair +-i
    [[-1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, -2.0, 0.0]],
])
def test_lyapunov_rejects_marginal_generators_before_solving(A, monkeypatch):
    def no_solve(*args):
        raise AssertionError("Sylvester solve reached")

    monkeypatch.setattr(analysis, "_sylvester", no_solve)
    with pytest.raises(pf.NotHurwitz):
        pf.lyapunov_certificate(np.array(A))


def test_sylvester_leaf_reports_a_scaled_solution():
    # the solution 1e10 / (-2e-300) overflows: dtrsyl scales it down
    T = np.array([[-1e-300]])
    with pytest.raises(pf.EigenFailure, match="scale"):
        analysis._sylvester(T, T, np.array([[1e10]]))


def test_sylvester_leaf_reports_an_illegal_argument(monkeypatch):
    monkeypatch.setattr(analysis, "dtrsyl", lambda a, b, c, tranb: (c, 1.0, -3))
    with pytest.raises(pf.EigenFailure, match="info -3"):
        pf.lyapunov_certificate(-np.eye(3))


def test_lyapunov_of_a_nonfinite_generator_is_an_eigen_failure():
    with pytest.raises(pf.EigenFailure):
        pf.lyapunov_certificate(np.array([[np.nan, 0.0], [0.0, -1.0]]))


def test_lyapunov_quadratic_form_batch():
    cert = pf.lyapunov_certificate(-np.eye(2))
    h = np.array([[1.0, 0.0], [0.0, 2.0]])
    vals = cert.quadratic_form(h)
    assert np.allclose(vals, [0.5, 2.0])


# ---------------------------------------------------------------------------
# decay fits


def test_decay_fit_exponential():
    t = np.linspace(0.0, 5.0, 120)
    fit = pf.decay_fit(t, 3.0 * np.exp(-2.0 * t))
    assert fit.c_fit == pytest.approx(2.0, abs=1e-3)
    assert fit.amplitude == pytest.approx(3.0, abs=1e-2)


def test_decay_fit_constant_series():
    t = np.linspace(0.0, 5.0, 30)
    fit = pf.decay_fit(t, np.full(30, 2.0))
    assert abs(fit.c_fit) <= 1e-12


def test_decay_fit_input_validation():
    with pytest.raises(pf.InsufficientData):
        pf.decay_fit(np.arange(5.0), np.ones(5))
    with pytest.raises(pf.InsufficientData):
        pf.decay_fit(np.arange(12.0), np.concatenate([np.ones(11), [-1.0]]))


def test_spectral_rate_matches_fit_for_normal_generator():
    # normal (symmetric) generator: the sampled decay tracks the abscissa
    A = -np.diag([0.5, 1.5, 3.0])
    sys = pf.PHSystem(pf.linear(-A), np.zeros((3, 0)),
                      pf.Metric.euclidean(3), pf.Metric.euclidean(0))
    cfg = pf.IntegratorConfig(h_t=0.001)
    traj = pf.integrate_flow(sys, np.ones(3), np.zeros(0), cfg, 12.0)
    norms = np.linalg.norm(traj.states, axis=1)
    half = traj.times.size // 2
    fit = pf.decay_fit(traj.times[half:], norms[half:])
    sigma = -pf.spectral_abscissa(-A)
    assert 0.9 * sigma <= fit.c_fit <= 1.1 * sigma


def test_nonnormality_indicator():
    assert pf.nonnormality(np.diag([1.0, 2.0])) == 0.0
    assert pf.nonnormality(np.array([[1.0, 100.0], [0.0, 1.0]])) > 100.0


def test_lyapunov_form_decreases_along_nonlinear_flow():
    # near the equilibrium of dx/dt = -(x + x^3) the linearized
    # certificate must still witness decay of the nonlinear flow
    op = cubic(np.eye(2), 1.0)
    sys = pf.PHSystem(op, np.zeros((2, 0)), pf.Metric.euclidean(2),
                      pf.Metric.euclidean(0))
    cert = pf.lyapunov_certificate(-op.derivative(np.zeros(2)))
    cfg = pf.IntegratorConfig(h_t=0.01)
    traj = pf.integrate_flow(sys, np.array([5e-3, -8e-3]), np.zeros(0),
                             cfg, 3.0)
    vals = cert.quadratic_form(traj.states)
    assert np.max(np.diff(vals), initial=-np.inf) <= 1e-9


# ---------------------------------------------------------------------------
# saddle structure of the optimizer Jacobian


def test_saddle_blocks_of_optimizer(di_ocp):
    sys = pf.assemble_optimizer(di_ocp)
    DM = sys.M.derivative(np.zeros(di_ocp.state_dim))
    blocks = pf.saddle_blocks(DM, di_ocp.primal_dim, di_ocp.primal_metric,
                              di_ocp.dual_metric)
    assert blocks.dual_block_max == 0.0
    assert blocks.adjoint_gap <= 1e-12
    assert np.max(np.abs(blocks.m2 - di_ocp.C.toarray())) <= 1e-12
    assert blocks.sigma_min_m2 > 0.1
    # symmetric part confined to the primal diagonal block
    p = di_ocp.primal_dim
    w = di_ocp.state_metric.weights
    sym_w = 0.5 * (np.diag(w) @ DM + DM.T @ np.diag(w))
    assert np.max(np.abs(sym_w[p:, p:])) <= 1e-12
    assert np.max(np.abs(sym_w[:p, p:])) <= 1e-12


def test_metric_generator_matches_raw_spectrum(di_ocp):
    sys = pf.assemble_optimizer(di_ocp)
    DM = sys.M.derivative(np.zeros(di_ocp.state_dim))
    gen = pf.metric_generator(DM, di_ocp.state_metric)
    a1 = pf.spectral_abscissa(DM)
    a2 = float(np.max(np.linalg.eigvals(gen).real))
    assert a1 == pytest.approx(a2, abs=1e-9)


# ---------------------------------------------------------------------------
# memory of the analysis on the sparse Jacobian


@pytest.fixture(scope="module")
def sparse_generator():
    """The CSR generator of a double integrator at N = 128 (dim 645) at
    its KKT point, as `phflow spectrum` builds it."""
    ocp = make_double_integrator(N=128)
    sys = pf.assemble_optimizer(ocp)
    DM = sys.M.jacobian(pf.kkt_solve(ocp).vector)
    return pf.metric_generator(DM, sys.metric)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lyapunov_certificate_of_a_sparse_generator_holds_few_dense_arrays(
        sparse_generator):
    # T, U and Y, and half an array for the Sylvester update; the dense
    # route (A^T P + P A + I, the Schur query's copy) held about eight
    gen = sparse_generator
    n = gen.shape[0]
    assert sparse.isspmatrix_csr(gen) and 400 <= n <= 650
    cert, peak = _traced_peak(pf.lyapunov_certificate, gen)
    assert cert.valid()
    assert peak <= 4 * n * n * 8


def test_nonnormality_of_a_sparse_generator_allocates_no_dense_array(
        sparse_generator):
    n = sparse_generator.shape[0]
    value, peak = _traced_peak(pf.nonnormality, sparse_generator)
    assert value > 0.0
    assert peak <= 0.5 * n * n * 8


def test_dense_solves_refuse_an_empty_matrix():
    with pytest.raises(pf.InvalidParameter, match="empty"):
        pf.lyapunov_certificate(np.zeros((0, 0)))
    with pytest.raises(pf.InvalidParameter, match="empty"):
        pf.spectral_abscissa(np.zeros((0, 0)))


def test_sparse_analysis_keeps_the_dense_cap():
    with pytest.raises(pf.InvalidParameter, match="capped"):
        pf.lyapunov_certificate(-sparse.identity(analysis._DENSE_DIM_CAP + 1,
                                                 format="csr"))


def test_metric_generator_refuses_a_metric_of_another_dimension():
    with pytest.raises(pf.DimensionMismatch):
        pf.metric_generator(np.eye(3), pf.Metric.euclidean(2))
