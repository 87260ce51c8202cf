"""The CLI runs every flow as a stream of row blocks; its outputs must be
bit for bit those of the stored trajectory, and no run may hold one."""

import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import phflow as pf
import phflow.optimizer
import phflow.phcore
from phflow import cli
from phflow.closedloop import LoopColumns
from phflow.ocp import _KKT_TOL
from phflow.optimizer import ErrorSeries, stream_flow
from phflow.phcore import PowerBalance, fold

from test_cli import BASE_OCP, CUBIC_PLANT, write_config

H_T = 0.01
SCHEMES = {"implicit_midpoint": 0.5, "implicit_euler": 1.0}
# a multiple of 64, one past it (a last block of one interval), neither,
# and fewer than one block
STEPS = (128, 129, 100, 40)


def _config(tmp_path, mode, steps, scheme, **extra):
    return write_config(tmp_path, mode=mode, ocp=json.loads(json.dumps(BASE_OCP)),
                        integrator={"scheme": scheme, "h_t": H_T, "T": steps * H_T},
                        output={"full_state": True}, **extra)


def _run(path, out, mode):
    assert cli.run(path, out, mode=mode) == 0
    return cli.read_table_csv(out / f"{mode}.csv"), cli.read_table_csv(out / f"{mode}_state.csv")


def _stored_errors(ocp, traj, vec):
    """The error series over the whole stored array at once."""
    diff = traj.states - vec
    d = ocp.blocks(diff)
    return [np.sqrt(ocp.state_metric.row_inner(diff, diff)),
            np.sqrt(ocp.primal_metric.row_inner(d.primal, d.primal)),
            np.sqrt(ocp.dual_metric.row_inner(d.dual, d.dual))]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("steps", STEPS)
def test_streamed_flow_equals_stored(tmp_path, steps, scheme):
    path = _config(tmp_path, "flow", steps, scheme)
    (header, table, _), (_, state, _) = _run(path, tmp_path / "out", "flow")

    scn_cfg = json.loads(path.read_text())
    ocp = cli.build_ocp(scn_cfg["ocp"])
    icfg, T = cli.build_integrator(scn_cfg["integrator"], ocp)
    sys = pf.assemble_optimizer(ocp)
    u = pf.constant_input(ocp)
    oracle = pf.steady_state(sys, u, _KKT_TOL)
    z0 = pf.default_initial_state(ocp)
    traj = pf.integrate_flow(sys, z0, u, icfg, T)
    assert traj.times.size == steps + 1 and traj.theta == SCHEMES[scheme]

    flow = stream_flow(sys, z0, u, icfg, T)
    (pb, sh), report = fold(flow, PowerBalance(sys, flow, oracle),
                            ErrorSeries(flow, oracle.x_bar, ocp))
    stored_pb = pf.power_balance_audit(sys, traj)
    stored_sh = pf.shifted_passivity_audit(sys, traj, oracle)
    assert np.array_equal(pb.residuals, stored_pb.residuals)
    assert np.array_equal(sh.equality_residuals, stored_sh.equality_residuals)
    assert np.array_equal(sh.inequality_excess, stored_sh.inequality_excess)
    errors = _stored_errors(ocp, traj, oracle.x_bar)
    for streamed, stored in zip((report.errors, report.errors_primal, report.errors_dual), errors):
        assert np.array_equal(streamed, stored)

    # both CSVs hold the stored run's numbers (repr round-trips a float)
    assert header == ["t", "err_total", "err_primal", "err_dual", "power_residual"]
    expected = np.column_stack([traj.times, *errors,
                                np.concatenate([[0.0], stored_pb.residuals])])
    assert np.array_equal(table, expected)
    assert np.array_equal(state, np.column_stack([traj.times, traj.states]))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("steps", STEPS)
def test_streamed_cubic_closed_loop_equals_stored(tmp_path, steps, scheme):
    path = _config(tmp_path, "closedloop", steps, scheme, plant=CUBIC_PLANT,
                   coupling={"gamma": "inv_alpha"})
    (header, table, _), (_, state, _) = _run(path, tmp_path / "out", "closedloop")

    scn_cfg = json.loads(path.read_text())
    ocp = cli.build_ocp(scn_cfg["ocp"])
    icfg, T = cli.build_integrator(scn_cfg["integrator"], ocp)
    spec = cli.build_plant(scn_cfg["plant"], ocp)
    cls = pf.couple(pf.assemble_optimizer(ocp), pf.assemble_plant(spec, rng=0), ocp)
    traj = pf.integrate_flow(cls.sys, cls.initial_state(spec.x_p0), np.zeros(0), icfg, T)
    xp, z = cls.split(traj.states)
    # every column over the whole stored array at once
    stored = [xp, cls.feedback(traj.states),
              np.sqrt(cls.sys.metric.row_inner(traj.states, traj.states)),
              np.sqrt(cls.plant_sys.metric.row_inner(xp, xp)),
              np.sqrt(cls.opt_sys.metric.row_inner(z, z))]
    stored_pb = pf.power_balance_audit(cls.sys, traj)

    run = pf.simulate_closed_loop(cls, icfg, T, x_p0=spec.x_p0)
    assert np.array_equal(run.traj.states, traj.states)
    for got, want in zip([run.feedback.u_p, run.norm_total, run.norm_plant,
                          run.norm_optimizer], stored[1:]):
        assert np.array_equal(got, want)

    flow = stream_flow(cls.sys, cls.initial_state(spec.x_p0), np.zeros(0), icfg, T)
    (pb, sh), cols = fold(flow, PowerBalance(cls.sys, flow), LoopColumns(cls, flow))
    assert sh is None
    assert np.array_equal(pb.residuals, stored_pb.residuals)
    for got, want in zip([cols.x_p, cols.u_p, cols.norm_total, cols.norm_plant,
                          cols.norm_optimizer], stored):
        assert np.array_equal(got, want)

    assert header[-1] == "power_residual"
    expected = np.column_stack([traj.times, *stored,
                                np.concatenate([[0.0], stored_pb.residuals])])
    assert np.array_equal(table, expected)
    assert np.array_equal(state, np.column_stack([traj.times, traj.states]))


@pytest.mark.parametrize("mode, extra", [
    ("flow", {}),
    ("closedloop", {"plant": CUBIC_PLANT, "coupling": {"gamma": "inv_alpha"}}),
])
def test_failure_mid_stream_leaves_no_output(tmp_path, capsys, monkeypatch, mode, extra):
    # step 100 fails after the state file has taken its first blocks; the
    # run exits 3 as a stored run does, and leaves no file of its own
    real = phflow.optimizer.implicit_stepper

    def failing_stepper(*args, **kwargs):
        step, taken = real(*args, **kwargs), []

        def fail_at_100(z, out):
            taken.append(None)
            res = step(z, out)
            return 0.5 if len(taken) == 100 else res

        return fail_at_100

    monkeypatch.setattr(phflow.optimizer, "implicit_stepper", failing_stepper)
    path = _config(tmp_path, mode, 200, "implicit_midpoint", **extra)
    out = tmp_path / "out"
    assert cli.run(path, out, mode=mode) == 3
    err = capsys.readouterr().err
    assert "NonConvergence" in err and "step 100," in err and "residual 5.000e-01" in err
    assert list(out.iterdir()) == []


def test_linear_stream_refuses_an_overflow_before_any_fold_sees_its_block():
    # the first coordinate grows by 39 a step (L = -1.9, h = 1, midpoint)
    # from 1e199 and overflows at step 69, in the second block; the linear
    # step measures no defect, so the stream checks each block once and
    # raises what a check of every step would: the failed step's message,
    # index and residual inf, before the block reaches any fold
    M = pf.MonotoneOperatorSpec(2, np.diag([-1.9, 0.5]), order=np.arange(2))
    sys = pf.PHSystem(M, np.zeros((2, 0)), pf.Metric.euclidean(2), pf.Metric.euclidean(0))
    flow = stream_flow(sys, np.array([1e199, 1.0]), np.zeros(0), pf.IntegratorConfig(h_t=1.0),
                       100.0)

    class Seen:
        def __init__(self):
            self.blocks = []

        def add(self, lo, x, u):
            assert np.all(np.isfinite(x))
            self.blocks.append(lo)

        def report(self):
            return None

    seen = Seen()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(pf.NonConvergence) as info:
            fold(flow, seen)
    assert seen.blocks == [0]
    assert str(info.value) == "implicit step failed at t=68"
    assert info.value.step == 69 and info.value.residual == np.inf


@pytest.mark.parametrize("mode", ["flow", "audit"])
def test_streamed_flow_holds_no_trajectory(tmp_path, mode):
    # N = 256, n = 2, m = 1: a stored run of 1200 steps holds 12.3 MB of
    # states; the streamed run's allocations peak at a quarter of that,
    # with the audit's stage buffers and shifted copies too
    ocp = json.loads(json.dumps(BASE_OCP))
    ocp["N"] = 256
    steps, h_t = 1200, 0.005
    path = write_config(tmp_path, mode=mode, ocp=ocp,
                        integrator={"h_t": h_t, "T": steps * h_t})
    states_nbytes = (steps + 1) * cli.build_ocp(ocp).state_dim * 8
    tracemalloc.start()
    try:
        assert cli.run(path, tmp_path / "out") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < states_nbytes / 4


@pytest.mark.parametrize("steps", STEPS)
def test_audit_evaluates_the_drift_once_per_block(tmp_path, monkeypatch, steps):
    # one fold gives both audits: M is evaluated on each block's stage once
    # (the calls of the audit fold, not those of the accretivity probe)
    calls = []
    real = phflow.phcore._batch_eval

    def counted(M, X):
        if sys._getframe(1).f_code is phflow.phcore.PowerBalance.add.__code__:
            calls.append(X.shape[0])
        return real(M, X)

    monkeypatch.setattr(phflow.phcore, "_batch_eval", counted)
    path = _config(tmp_path, "audit", steps, "implicit_midpoint")
    assert cli.run(path, tmp_path / "out", mode="audit") == 0
    assert len(calls) == -(-steps // 64) and sum(calls) == steps


def test_integrate_flow_collects_the_stream(di_ocp):
    # the blocks share their edge rows, and a stored trajectory is exactly
    # the collected stream
    sys, cfg = pf.assemble_optimizer(di_ocp), pf.IntegratorConfig(h_t=0.01)
    z0, u = pf.default_initial_state(di_ocp), pf.constant_input(di_ocp)
    flow = stream_flow(sys, z0, u, cfg, 1.5)
    traj = pf.integrate_flow(sys, z0, u, cfg, 1.5)
    seen, last = [], None
    for lo, x, inputs in flow.blocks():
        assert x.shape[0] <= 65 and inputs.shape == (x.shape[0], u.size)
        if last is not None:
            assert np.array_equal(x[0], last)
        assert np.array_equal(x, traj.states[lo:lo + x.shape[0]])
        seen.append(lo)
        last = x[-1].copy()
    assert seen == [0, 64, 128]
    assert np.array_equal(flow.times, traj.times) and flow.step == traj.step
