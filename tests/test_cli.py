import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phflow
from phflow import analysis
from phflow.cli import compare, fmt, main, read_table_csv


BASE_OCP = {
    "t_f": 1.0, "N": 16,
    "A": [[0, 1], [0, 0]], "B": [[0], [1]],
    "f": 0.0, "x0": [1.0, 0.0],
    "cost": {"alpha": 1.0,
             "stage": {"quadratic": {"Q": [[1, 0], [0, 1]], "q": [0, 0]}}},
}

CUBIC_PLANT = {"kind": {"cubic": {"R": [[1, 0], [0, 1]], "kappa": 1.0}},
               "B_p": [[0], [1]], "x_p0": [1.0, 0.0]}


def write_config(tmp_path, name="scenario.json", **overrides):
    cfg = {
        "mode": "solve",
        "ocp": json.loads(json.dumps(BASE_OCP)),
        "integrator": {"scheme": "implicit_midpoint", "h_t": 0.01,
                       "T": 12.0, "newton_tol": 1e-10},
        "output": {"dir": "out", "full_state": False},
        "seed": 0,
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def test_solve_mode_writes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "kkt.csv").exists()
    assert (out / "kkt_report.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "kkt.csv" in manifest["files"]
    report = (out / "kkt_report.txt").read_text()
    residual = float(report.split("residual_norm: ")[1].splitlines()[0])
    assert residual <= 1e-8


def test_solve_golden_format(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["solve", "--config", str(cfg), "--out", str(out)])
    header, data, lam0 = read_table_csv(out / "kkt.csv")
    assert header == ["tau", "x_1", "x_2", "u_1", "lambda_1", "lambda_2"]
    assert data.shape == (17, 6)
    assert lam0 is not None and lam0.size == 2


def test_invalid_alpha_exits_2_and_names_field(tmp_path, capsys):
    ocp = json.loads(json.dumps(BASE_OCP))
    ocp["cost"]["alpha"] = 0.0
    cfg = write_config(tmp_path, ocp=ocp)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cost.alpha" in capsys.readouterr().err


def test_missing_field_exits_2(tmp_path, capsys):
    ocp = json.loads(json.dumps(BASE_OCP))
    del ocp["x0"]
    cfg = write_config(tmp_path, ocp=ocp)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "x0" in capsys.readouterr().err


def test_degenerate_stencil_exits_3(tmp_path, capsys):
    # h = 1/2 and A = 4I collapses the trapezoidal stencil; the solve
    # must surface a numerical failure, not garbage output
    ocp = json.loads(json.dumps(BASE_OCP))
    ocp["N"] = 2
    ocp["A"] = [[4.0, 0.0], [0.0, 4.0]]
    cfg = write_config(tmp_path, mode="flow", ocp=ocp)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["flow", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_flow_mode_outputs_and_convergence(tmp_path):
    cfg = write_config(tmp_path, mode="flow",
                       integrator={"scheme": "implicit_midpoint",
                                   "h_t": 0.01, "T": 25.0})
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    header, data, _ = read_table_csv(out / "flow.csv")
    assert header == ["t", "err_total", "err_primal", "err_dual",
                      "power_residual"]
    err = data[:, 1]
    assert err[-1] <= 1e-4 * err[0]
    assert np.max(np.abs(data[:, 4])) <= 1e-9


def test_flow_full_state_dump(tmp_path):
    cfg = write_config(tmp_path, mode="flow",
                       integrator={"h_t": 0.05, "T": 1.0},
                       output={"dir": "out", "full_state": True})
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    header, data, _ = read_table_csv(out / "flow_state.csv")
    assert header[0] == "t"
    assert data.shape[1] == 1 + 17 * 3 + 17 * 2  # t + primal + dual


def test_closedloop_mode_csv_header(tmp_path):
    cfg = write_config(
        tmp_path, mode="closedloop", plant=CUBIC_PLANT,
        coupling={"gamma": "inv_alpha"},
        integrator={"h_t": 0.05, "T": 5.0},
    )
    out = tmp_path / "out"
    assert main(["closedloop", "--config", str(cfg), "--out", str(out)]) == 0
    header, data, _ = read_table_csv(out / "closedloop.csv")
    assert header == ["t", "xp_1", "xp_2", "up_1", "norm_total",
                      "norm_plant", "norm_optimizer", "power_residual"]
    assert data[-1, 4] < data[0, 4]  # total norm decays


def test_nonfinite_closed_loop_step_exits_3(tmp_path, capsys):
    # x_p0 = 1e120 overflows the cubic plant in the first step; a
    # non-finite residual must fail the step, not pass into the CSV, and the
    # exit-3 line names where it failed and the residual it reached
    ocp = json.loads(json.dumps(BASE_OCP))
    ocp["N"] = 8
    cfg = write_config(
        tmp_path, mode="closedloop", ocp=ocp,
        plant={"kind": {"cubic": {"R": [[1, 0], [0, 1]], "kappa": 1.0}},
               "B_p": [[0], [1]], "x_p0": [1e120, 0.0]},
        coupling={"gamma": "inv_alpha"},
        integrator={"h_t": 0.02, "T": 0.1},
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["closedloop", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err and "t=" in err and "residual" in err
    assert "Traceback" not in err


def test_audit_mode_report(tmp_path):
    cfg = write_config(tmp_path, mode="audit",
                       integrator={"h_t": 0.02, "T": 5.0})
    out = tmp_path / "out"
    assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "audit.txt").read_text()
    for section in ("[power_balance]", "[shifted_passivity]", "[monotonicity]"):
        assert section in text
    assert "violation: False" in text
    assert "pass: True" in text


def test_spectrum_mode_report(tmp_path):
    cfg = write_config(tmp_path, mode="spectrum",
                       integrator={"h_t": 0.02, "T": 8.0})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "spectrum.txt").read_text()
    for section in ("[spectrum]", "[lyapunov]", "[rates]"):
        assert section in text
    abscissa = float(text.split("spectral_abscissa: ")[1].splitlines()[0])
    assert abscissa < 0


def test_spectrum_factors_once_and_never_calls_eigvals(tmp_path, monkeypatch):
    calls = []

    def counted_schur(*args, **kwargs):
        calls.append(args)
        return schur(*args, **kwargs)

    def no_eigvals(*args, **kwargs):
        raise AssertionError("eigvals called")

    schur = analysis.schur
    monkeypatch.setattr(analysis, "schur", counted_schur)
    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    config = Path(__file__).resolve().parents[1] / "configs" / "logcosh_solve.json"
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert "valid: True" in (out / "spectrum.txt").read_text()


def test_spectrum_of_a_lossless_flow_reports_the_certificate_abscissa(tmp_path):
    # Q = 0 and B = 0 leave the rotation x' = (x_2, -x_1) undamped: the
    # generator's abscissa is 0 up to rounding, and the certificate fails
    ocp = json.loads(json.dumps(BASE_OCP))
    ocp["A"], ocp["B"] = [[0, 1], [-1, 0]], [[0], [0]]
    ocp["cost"]["stage"]["quadratic"]["Q"] = [[0, 0], [0, 0]]
    cfg = write_config(tmp_path, mode="spectrum", ocp=ocp,
                       integrator={"h_t": 0.02, "T": 2.0})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "spectrum.txt").read_text()
    assert "valid: False" in text
    abscissa = float(text.split("spectral_abscissa: ")[1].splitlines()[0])
    reason = text.split("reason: ")[1].splitlines()[0]
    assert reason == f"generator abscissa {abscissa:.3e} is not negative"


def test_spectrum_past_the_dense_cap_exits_2_before_the_flow(tmp_path, capsys,
                                                             monkeypatch):
    # (N + 1)(2n + m) = 401 * 5 = 2005 > analysis._DENSE_DIM_CAP
    def not_reached(*args, **kwargs):
        raise AssertionError("a solve or the flow started")

    monkeypatch.setattr(phflow.cli, "integrate_flow", not_reached)
    monkeypatch.setattr(phflow.phcore._Factor, "solver", not_reached)
    ocp = json.loads(json.dumps(BASE_OCP))
    ocp["N"] = 400
    cfg = write_config(tmp_path, mode="spectrum", ocp=ocp)
    code = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "ocp.N" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, mode="flow",
                       integrator={"h_t": 0.02, "T": 3.0})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["flow", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["flow", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["files"] == m2["files"]


def test_manifest_checksums_match_files(tmp_path):
    import hashlib

    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["solve", "--config", str(cfg), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["files"].items():
        if name == "manifest.json":
            continue
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest


def test_compare_self_and_perturbed(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["solve", "--config", str(cfg), "--out", str(out)])
    golden = out / "kkt.csv"
    assert main(["compare", str(golden), str(golden), "--tol", "1e-12"]) == 0

    header, data, lam0 = read_table_csv(golden)
    perturbed = tmp_path / "perturbed.csv"
    lines = [",".join(header)]
    bumped = data.copy()
    bumped[3, 2] += 1e-3
    for row in bumped:
        lines.append(",".join(repr(float(v)) for v in row))
    lines.append("lambda0," + ",".join(repr(float(v)) for v in lam0))
    perturbed.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["compare", str(golden), str(perturbed), "--tol", "1e-6"]) == 1
    out = capsys.readouterr().out
    assert f"row 3 ({fmt(data[3, 2])} vs {fmt(bumped[3, 2])})" in out
    assert "np." not in out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_compare_rejects_a_malformed_tolerance(tmp_path, capsys, tol):
    golden = tmp_path / "a.csv"
    golden.write_text("t,x\n0.0,1.0\n")
    assert main(["compare", str(golden), str(golden), f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert "MATCH" not in captured.out


def test_compare_header_mismatch_exits_2(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("t,x\n0.0,1.0\n")
    b.write_text("t,y\n0.0,1.0\n")
    assert main(["compare", str(a), str(b), "--tol", "1e-6"]) == 2
    assert "headers differ" in capsys.readouterr().err


def test_multiple_configs_parallel(tmp_path):
    cfg1 = write_config(tmp_path, name="one.json")
    cfg2 = write_config(tmp_path, name="two.json")
    out = tmp_path / "multi"
    code = main(["solve", "--config", str(cfg1), str(cfg2),
                 "--out", str(out), "--jobs", "2"])
    assert code == 0
    assert (out / "one" / "kkt.csv").exists()
    assert (out / "two" / "kkt.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_configs_sharing_a_file_name_are_refused(tmp_path, capsys, monkeypatch,
                                                 jobs):
    def not_reached(*args, **kwargs):
        raise AssertionError("a config was run")

    monkeypatch.setattr(phflow.cli, "run", not_reached)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg1 = write_config(tmp_path / "a", name="x.json")
    cfg2 = write_config(tmp_path / "b", name="x.json")
    out = tmp_path / "multi"
    code = main(["solve", "--config", str(cfg1), str(cfg2),
                 "--out", str(out), "--jobs", jobs])
    assert code == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, field", [
    ("ocp", "N", "abc", "ocp.N"),
    ("integrator", "T", float("inf"), "integrator.T"),
    ("integrator", "h_t", float("nan"), "integrator.h_t"),
    (None, "integrator", "fast", "integrator"),
    ("ocp", "x0", ["a", 1], "ocp.x0"),
    ("ocp.cost", "alpha", float("nan"), "ocp.cost.alpha"),
    ("ocp", "N", 8.7, "ocp.N"),
    ("integrator", "store_every", 3, "integrator.store_every"),
    ("integrator", "scheme", "rk4", "integrator.scheme"),
    ("integrator", "scheme", [], "integrator.scheme"),
    ("integrator", "max_steps", 10, "integrator.max_steps"),
    ("coupling", "gama", 5.0, "coupling.gama"),
    ("output", "full_sate", True, "output.full_sate"),
    ("ocp.cost", "alhpa", 3.0, "ocp.cost.alhpa"),
    (None, "integrator", [], "integrator"),
    ("output", "full_state", "false", "output.full_state"),
    ("output", "full_state", 1, "output.full_state"),
])
def test_malformed_input_exits_2_and_names_field(tmp_path, capsys, section,
                                                 key, value, field):
    # a closed-loop config: every section is read, the coupling too
    cfg = json.loads(write_config(tmp_path, mode="closedloop", plant=CUBIC_PLANT,
                                  coupling={"gamma": "inv_alpha"}).read_text())
    target = cfg
    for part in section.split(".") if section else []:
        target = target[part]
    target[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity as Python's json writes them
    assert main(["closedloop", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{field}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode, section, key, value, field", [
    ("flow", "coupling", "gama", 5.0, "coupling.gama"),
    ("solve", "integrator", "h_tt", 0.1, "integrator.h_tt"),
    ("audit", "plant", "knd", 1, "plant.knd"),
])
def test_sections_the_mode_leaves_unused_are_checked(tmp_path, capsys, mode,
                                                     section, key, value, field):
    cfg = json.loads(write_config(tmp_path, mode=mode, plant=CUBIC_PLANT,
                                  coupling={"gamma": "inv_alpha"}).read_text())
    cfg[section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{field}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["solve", "flow", "closedloop", "audit", "spectrum"])
def test_closedloop_config_runs_in_every_mode(tmp_path, mode):
    config = Path(__file__).resolve().parents[1] / "configs" / "closedloop_cubic.json"
    assert main([mode, "--config", str(config), "--out", str(tmp_path / "o")]) == 0


def test_logcosh_closed_loop_runs_end_to_end(tmp_path):
    # the shipped cubic closed loop against a logcosh optimizer: the path
    # whose Jacobian terms nest (coupling, plant block, saddle part and
    # Hessian) keeps the power balance and the contraction of the norm
    config = Path(__file__).resolve().parents[1] / "configs" / "closedloop_cubic.json"
    cfg = json.loads(config.read_text())
    cfg["ocp"]["cost"]["stage"] = {"logcosh": {"scale": 1.0}}
    cfg["integrator"]["T"] = 4.0
    path = tmp_path / "logcosh_loop.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert phflow.cli.run(path, out, mode="closedloop") == 0
    header, data, _ = read_table_csv(out / "closedloop.csv")
    norm_total = data[:, header.index("norm_total")]
    residuals = data[:, header.index("power_residual")]
    assert np.max(np.abs(residuals)) <= 1e-10 * (1.0 + norm_total[0] ** 2)
    assert np.all(np.diff(norm_total) <= 0.0)


def test_cubic_loop_at_the_default_newton_tol_meets_the_audit_bound(tmp_path):
    # a step's power defect is about ||z_s|| newton_tol / h_t: at h_t = 0.02
    # a newton_tol of 1e-10 leaves it 6x above the bound, the default of
    # 1e-10 h_t keeps it within
    cfg = write_config(tmp_path, mode="closedloop", plant=CUBIC_PLANT,
                       integrator={"h_t": 0.02, "T": 3.0})
    out = tmp_path / "o"
    assert main(["closedloop", "--config", str(cfg), "--out", str(out)]) == 0
    header, data, _ = read_table_csv(out / "closedloop.csv")
    norm_total = data[:, header.index("norm_total")]
    residuals = data[:, header.index("power_residual")]
    assert np.max(np.abs(residuals)) <= 1e-10 * (1.0 + norm_total[0] ** 2)


@pytest.mark.parametrize("mode", ["flow", "spectrum"])
def test_short_horizon_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, mode):
    # T = 0.02 at h_t = 0.0025 gives 9 samples, one short of what the
    # convergence report fits; audit, which fits no rate, still runs
    config = Path(__file__).resolve().parents[1] / "configs" / "double_integrator_flow.json"
    cfg = json.loads(config.read_text())
    cfg["integrator"]["T"] = 0.02
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    assert main(["audit", "--config", str(path), "--out", str(tmp_path / "a")]) == 0

    def not_reached(*args, **kwargs):
        raise AssertionError("a solve or the flow started")

    monkeypatch.setattr(phflow.cli, "integrate_flow", not_reached)
    monkeypatch.setattr(phflow.phcore._Factor, "solver", not_reached)
    capsys.readouterr()
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "integrator.T" in err
    assert "Traceback" not in err


def test_singular_kkt_system_exits_3_with_residual(tmp_path):
    # h = 1/2, A = 4I and B = 0 make the KKT Jacobian exactly singular; the
    # run reports the residual it reached, with no warning from the solver
    ocp = json.loads(json.dumps(BASE_OCP))
    ocp.update(N=2, A=[[4.0, 0.0], [0.0, 4.0]], B=[[0.0], [0.0]])
    cfg = write_config(tmp_path, ocp=ocp)
    src = str(Path(phflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "phflow.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert "residual" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode, section, key, value, code, message", [
    ("solve", "ocp", "N", 1e300, 2, "ocp: grid size N exceeds"),
    ("solve", "ocp", "N", 10**18, 2, "ocp.N: too large to allocate"),
    ("solve", "ocp", "B", True, 2, "ocp: B row count"),
    ("flow", "integrator", "h_t", 5e-324, 2, "integrator.h_t: inf steps exceed max_steps"),
    ("solve", "ocp.cost", "stage", {"logcosh": {"scale": 1e300}}, 3, "OverflowError"),
    ("closedloop", "plant", "B_p", [[0, 1], [1, 0]], 2,
     "plant.B_p: has 2 columns, the control dimension is 1"),
    ("closedloop", "ocp", "B", [[0, 1], [1, 0]], 2,
     "plant.B_p: has 1 columns, the control dimension is 2"),
    ("closedloop", "plant.kind.cubic", "R", [[1, 0, 0], [0, 1, 0]], 2,
     "plant.kind: cubic operator matrix R must be square"),
    ("closedloop", "plant", "kind",
     {"linear": {"R": [[1, 0], [0, 1]], "J": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}}, 2,
     "plant.kind: J has shape (3, 3), R has (2, 2)"),
    ("closedloop", "plant", "x_p0", [1.0, 0.0, 0.0], 2,
     "plant.kind: B_p has 2 rows and x_p0 3 entries, the plant dimension is 2"),
    ("solve", "ocp.cost.stage.quadratic", "Q", [[[1, 0], [0, 1]]], 2,
     "ocp.cost.stage.quadratic.Q: must be a matrix"),
])
def test_extreme_inputs_exit_cleanly(tmp_path, capsys, mode, section, key,
                                     value, code, message):
    # values the config fuzzers (test_config_fuzz.py) turned into
    # tracebacks or numerical failures
    cfg = json.loads(write_config(tmp_path, mode=mode, plant=CUBIC_PLANT).read_text())
    target = cfg
    for part in section.split("."):
        target = target[part]
    target[key] = value
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(cfg))
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_jobs_capped_by_configs_and_cpus(tmp_path, monkeypatch):
    import concurrent.futures

    from phflow import cli

    pools = []

    class InlinePool:
        """Records max_workers and runs each task at submit; starts nothing."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    configs = [str(write_config(tmp_path, name=f"c{i}.json")) for i in range(3)]
    for cpus, n_configs, expected in [(8, 2, 2), (2, 3, 2)]:
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert main(["solve", "--config", *configs[:n_configs],
                     "--out", str(tmp_path / "multi"), "--jobs", "64"]) == 0
        assert pools.pop() == expected
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: serial
    assert main(["solve", "--config", *configs,
                 "--out", str(tmp_path / "multi"), "--jobs", "64"]) == 0
    assert pools == []
    assert (tmp_path / "multi" / "c2" / "kkt.csv").exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "phflow.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "compare" in proc.stdout
