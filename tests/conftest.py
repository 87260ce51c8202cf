import numpy as np
import pytest
from scipy import sparse

import phflow as pf


DI_A = np.array([[0.0, 1.0], [0.0, 0.0]])
DI_B = np.array([[0.0], [1.0]])


def make_double_integrator(N=64, t_f=1.0, alpha=1.0, Q=None, q=None,
                           x0=(1.0, 0.0), f=0.0):
    """The workhorse scenario: double integrator with quadratic cost."""
    Q = np.eye(2) if Q is None else np.asarray(Q, dtype=float)
    model = pf.LinearPlantModel(DI_A, DI_B, f, np.asarray(x0, dtype=float))
    grid = pf.build_grid(t_f, N)
    cost = pf.CostSpec(alpha, pf.QuadraticStage(Q, q))
    return pf.assemble_ocp(model, grid, cost)


def make_logcosh(N=32, t_f=1.0, alpha=0.5, scale=0.7, x0=(1.0, 0.0)):
    model = pf.LinearPlantModel(DI_A, DI_B, 0.0, np.asarray(x0, dtype=float))
    grid = pf.build_grid(t_f, N)
    cost = pf.CostSpec(alpha, pf.LogCoshStage(scale))
    return pf.assemble_ocp(model, grid, cost)


def state_from(ocp, **blocks):
    """The OCP state whose named blocks (x, u, lam, lam0, primal, dual)
    hold the given values and whose other entries are zero."""
    s = ocp.blocks(np.zeros(ocp.state_dim))
    for name, value in blocks.items():
        getattr(s, name)[...] = value
    return s


def coupling_of(sys1, sys2, F, split1, split2):
    """The skew coupling K that `interconnect` adds to diag(L1, L2): the
    off-diagonal blocks of the composed L, which K alone fills, as CSR."""
    L = pf.interconnect(sys1, sys2, F, split1, split2).M.linear_part.tocoo()
    off = (L.row < sys1.dim) != (L.col < sys1.dim)
    return sparse.csr_matrix((L.data[off], (L.row[off], L.col[off])), shape=L.shape)


@pytest.fixture(scope="session")
def di_ocp():
    return make_double_integrator()


@pytest.fixture(scope="session")
def di_zhat(di_ocp):
    return pf.kkt_solve(di_ocp)
