import numpy as np
import pytest

import phflow as pf
from phflow.metric import adjoint


def test_weights_must_be_positive():
    with pytest.raises(pf.InvalidParameter):
        pf.Metric(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(pf.InvalidParameter):
        pf.Metric(np.array([-1.0]))


def test_inner_product_symmetric_positive_definite():
    rng = np.random.default_rng(0)
    metric = pf.Metric(rng.uniform(0.1, 3.0, size=7))
    for _ in range(20):
        a, b = rng.standard_normal((2, 7))
        assert metric.inner(a, b) == pytest.approx(metric.inner(b, a), abs=1e-14)
        assert metric.inner(a, a) > 0 or np.allclose(a, 0)
    assert metric.norm(np.zeros(7)) == 0.0


def test_adjoint_identity():
    rng = np.random.default_rng(1)
    codomain = pf.Metric(rng.uniform(0.5, 2.0, size=5))
    domain = pf.Metric(rng.uniform(0.5, 2.0, size=3))
    B = rng.standard_normal((5, 3))
    B_star = adjoint(B, domain, codomain)
    for _ in range(50):
        u = rng.standard_normal(3)
        x = rng.standard_normal(5)
        lhs = codomain.inner(B @ u, x)
        rhs = domain.inner(u, B_star @ x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_adjoint_shape_check():
    with pytest.raises(pf.DimensionMismatch):
        adjoint(np.zeros((2, 3)), pf.Metric.euclidean(2), pf.Metric.euclidean(3))


def test_split_concat_roundtrip():
    m = pf.Metric(np.array([1.0, 2.0, 3.0, 4.0]))
    a, b = m.split(1)
    assert np.array_equal(a.concat(b).weights, m.weights)
