"""Scenario runner.

A scenario is a single JSON file naming the mode and the ingredients:

    {
      "mode": "flow",
      "ocp": {"t_f": 1.0, "N": 64,
              "A": [[0, 1], [0, 0]], "B": [[0], [1]],
              "f": 0.0, "x0": [1.0, 0.0],
              "cost": {"alpha": 1.0,
                       "stage": {"quadratic": {"Q": [[1, 0], [0, 1]],
                                               "q": [0, 0]}}}},
      "integrator": {"scheme": "implicit_midpoint", "h_t": 0.005,
                     "T": 30.0, "newton_tol": 1e-10},
      "output": {"dir": "out", "full_state": false},
      "seed": 0
    }

Modes: solve (KKT oracle + golden CSV), flow (optimizer trajectory and
convergence report), closedloop (plant in the loop), audit (power
balance, passivity, monotonicity probes), spectrum (linearization,
Lyapunov certificate, rates).  Every run writes a manifest with
checksums; identical configs and seeds produce byte-identical files.

Exit codes: 0 success, 1 comparison mismatch, 2 configuration or format
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .analysis import (_DENSE_DIM_CAP, lyapunov_certificate,
                       metric_generator, nonnormality, saddle_blocks)
from .closedloop import (CouplingSpec, LoopColumns, PlantSpec, couple,
                         assemble_plant, cubic_plant, linear_plant)
from .errors import (ConfigError, DimensionMismatch, FormatError,
                     InvalidParameter, NotHurwitz, ToolkitError)
from .ocp import (_KKT_TOL, CostSpec, DiscretizedOCP, LinearPlantModel,
                  LogCoshStage, QuadraticStage, assemble_ocp, build_grid,
                  cost_and_gradient, kkt_residual, kkt_solve)
from .optimizer import (_MIN_REPORT_SAMPLES, ErrorSeries, IntegratorConfig,
                        _step_count, assemble_optimizer, constant_input,
                        default_initial_state, default_outer_step, stream_flow)
from .phcore import PowerBalance, accretivity_probe, fold, steady_state

_MODES = ("solve", "flow", "closedloop", "audit", "spectrum")


# ---------------------------------------------------------------------------
# configuration parsing


_REQUIRED = object()


def _object(value, path: str, keys) -> dict:
    """value, which must be a JSON object with no key outside `keys`;
    path names it in errors ("" for the whole config)."""
    if not isinstance(value, dict):
        raise ConfigError("must be a JSON object", field=path or "config")
    for key in value:
        if key not in keys:
            raise ConfigError("unknown field", field=f"{path}.{key}" if path else key)
    return value


def _need(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError("missing required field", field=f"{path}{key}")
    return cfg[key]


def _number(cfg: dict, key: str, path: str, default=_REQUIRED,
            integer: bool = False, low=None):
    """The finite number cfg[key] (or the default), as an int when
    `integer`; it must be at least `low`, or positive when `low` is None."""
    value = _need(cfg, key, path) if default is _REQUIRED else cfg.get(key, default)
    field = f"{path}{key}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("must be a number", field=field)
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge ints
        raise ConfigError("must be finite", field=field)
    if integer and value != int(value):
        raise ConfigError("must be an integer", field=field)
    if low is None and value <= 0:
        raise ConfigError("must be positive", field=field)
    if low is not None and value < low:
        raise ConfigError(f"must be at least {low}", field=field)
    return int(value) if integer else float(value)


def _array(value, path: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("expected a numeric array", field=path)
    if not np.all(np.isfinite(arr)):
        raise ConfigError("must be finite", field=path)
    return arr


def _as_matrix(value, path: str) -> np.ndarray:
    mat = _array(value, path)
    if mat.ndim < 2:
        mat = mat.reshape(-1, 1)
    if mat.ndim != 2:
        raise ConfigError("must be a matrix", field=path)
    return mat


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return _object(cfg, "", ("mode", "ocp", "plant", "coupling", "integrator",
                             "output", "seed"))


def build_cost(cfg: dict, path: str = "ocp.cost.") -> CostSpec:
    cfg = _object(cfg, path[:-1], ("alpha", "stage"))
    alpha = _number(cfg, "alpha", path)
    stage_cfg = _object(_need(cfg, "stage", path), path + "stage", ("quadratic", "logcosh"))
    if len(stage_cfg) != 1:  # none, or both
        raise ConfigError("stage must be 'quadratic' or 'logcosh'",
                          field=path + "stage")
    if "quadratic" in stage_cfg:
        qc = _object(stage_cfg["quadratic"], path + "stage.quadratic", ("Q", "q"))
        Q = _as_matrix(_need(qc, "Q", path + "stage.quadratic."), path + "stage.quadratic.Q")
        q = _array(qc["q"], path + "stage.quadratic.q") if "q" in qc else None
        try:
            stage = QuadraticStage(Q, q)
        except ToolkitError as exc:
            raise ConfigError(str(exc), field=path + "stage.quadratic")
    else:
        lc = _object(stage_cfg["logcosh"], path + "stage.logcosh", ("scale",))
        stage = LogCoshStage(_number(lc, "scale", path + "stage.logcosh.", 1.0))
    return CostSpec(alpha, stage)


def build_ocp(cfg: dict):
    cfg = _object(cfg, "ocp", ("t_f", "N", "A", "B", "f", "x0", "cost"))
    t_f = _number(cfg, "t_f", "ocp.")
    N = _number(cfg, "N", "ocp.", integer=True, low=2)
    A = _as_matrix(_need(cfg, "A", "ocp."), "ocp.A")
    B = _as_matrix(_need(cfg, "B", "ocp."), "ocp.B")
    x0 = _array(_need(cfg, "x0", "ocp."), "ocp.x0").reshape(-1)
    f = _array(cfg.get("f", 0.0), "ocp.f")
    cost = build_cost(_need(cfg, "cost", "ocp."))
    try:
        model = LinearPlantModel(A, B, f, x0)
        grid = build_grid(t_f, N)
        return assemble_ocp(model, grid, cost)
    except ToolkitError as exc:
        raise ConfigError(str(exc), field="ocp")
    except MemoryError:  # the grid size drives every allocation here
        raise ConfigError("too large to allocate", field="ocp.N")


def build_plant(cfg: dict, ocp):
    cfg = _object(cfg, "plant", ("kind", "B_p", "x_p0"))
    kind = _object(_need(cfg, "kind", "plant."), "plant.kind", ("linear", "cubic"))
    if len(kind) != 1:  # none, or both
        raise ConfigError("kind must be 'linear' or 'cubic'", field="plant.kind")
    B_p = _as_matrix(cfg.get("B_p", ocp.model.B), "plant.B_p")
    if B_p.shape[1] != ocp.m:  # the port the optimizer's control drives
        raise ConfigError(f"has {B_p.shape[1]} columns, the control dimension "
                          f"is {ocp.m}", field="plant.B_p")
    x_p0 = _array(_need(cfg, "x_p0", "plant."), "plant.x_p0").reshape(-1)
    if "linear" in kind:
        lc = _object(kind["linear"], "plant.kind.linear", ("R", "J"))
        R = _as_matrix(_need(lc, "R", "plant.kind.linear."), "plant.kind.linear.R")
        J = None if lc.get("J") is None else _as_matrix(lc["J"], "plant.kind.linear.J")
    else:
        cc = _object(kind["cubic"], "plant.kind.cubic", ("R", "kappa"))
        R = _as_matrix(_need(cc, "R", "plant.kind.cubic."), "plant.kind.cubic.R")
        kappa = _number(cc, "kappa", "plant.kind.cubic.", 0.0, low=0.0)
    n_p = R.shape[0]  # a non-square R is refused below, under plant.kind
    for name, size, what in (("B_p", B_p.shape[0], "rows"), ("x_p0", x_p0.size, "entries")):
        if size != n_p and R.shape == (n_p, n_p):
            raise ConfigError(f"has {size} {what}, the plant dimension is {n_p}",
                              field=f"plant.{name}")
    try:
        return (linear_plant(R, B_p, x_p0, J=J) if "linear" in kind
                else cubic_plant(R, kappa, B_p, x_p0))
    except (InvalidParameter, DimensionMismatch) as exc:
        raise ConfigError(str(exc), field="plant.kind")


def build_integrator(cfg: dict, ocp) -> tuple[IntegratorConfig, float]:
    cfg = _object({} if cfg is None else cfg, "integrator",
                  ("h_t", "scheme", "newton_tol", "T"))
    path = "integrator."
    h_t = _number(cfg, "h_t", path, default_outer_step(ocp))
    newton_tol = _number(cfg, "newton_tol", path) if "newton_tol" in cfg else None
    try:  # the numbers are checked above: only the scheme is left to fail
        icfg = IntegratorConfig(h_t, cfg.get("scheme", IntegratorConfig.scheme),
                                newton_tol)
    except InvalidParameter as exc:
        raise ConfigError(str(exc), field=path + "scheme")
    T = _number(cfg, "T", path, 10.0)
    try:
        _step_count(h_t, T)
    except InvalidParameter as exc:
        raise ConfigError(str(exc), field=path + "h_t")
    return icfg, T


def build_coupling(cfg: dict) -> CouplingSpec:
    cfg = _object(cfg, "coupling", ("gamma",))
    gamma = cfg.get("gamma", "inv_alpha")
    if gamma != "inv_alpha":
        gamma = _number(cfg, "gamma", "coupling.")
    return CouplingSpec(gamma)


@dataclass(frozen=True)
class Scenario:
    """A config with every section it carries parsed by its builder,
    whatever the mode runs: a typo in a section the mode leaves unused
    fails as one in a section it reads."""

    ocp: DiscretizedOCP
    integrator: IntegratorConfig
    T: float
    plant: Optional[PlantSpec]
    coupling: CouplingSpec
    seed: int
    full_state: bool


# ---------------------------------------------------------------------------
# deterministic CSV output


def fmt(x) -> str:
    """Shortest round-trip decimal; locale independent, byte stable."""
    return repr(float(x))


def _write_rows(fh, rows):
    # repr of a Python float is fmt's text
    for row in np.asarray(rows, dtype=float).tolist():
        fh.write(",".join(map(repr, row)) + "\n")


def write_csv(path: Path, header: list[str], rows, trailer: str = ""):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, rows)
        if trailer:
            fh.write(trailer + "\n")


def write_kkt_csv(path: Path, ocp, z_hat):
    """Golden-file layout: per-node tau, x, u, node-registered lambda,
    plus one trailing lambda0 record."""
    lam_nodes = ocp.node_adjoint(z_hat.lam)
    header = (["tau"]
              + [f"x_{j + 1}" for j in range(ocp.n)]
              + [f"u_{j + 1}" for j in range(ocp.m)]
              + [f"lambda_{j + 1}" for j in range(ocp.n)])
    rows = [
        [ocp.grid.nodes[i], *z_hat.x[i], *z_hat.u[i], *lam_nodes[i]]
        for i in range(ocp.N + 1)
    ]
    trailer = "lambda0," + ",".join(fmt(v) for v in z_hat.lam0)
    write_csv(path, header, rows, trailer=trailer)


def read_table_csv(path):
    """Read a CSV written by this tool: header, float rows, optional
    lambda0 trailer."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = lines[0].split(",")
    rows, trailer = [], None
    for ln in lines[1:]:
        try:
            if ln.startswith("lambda0,"):
                trailer = np.array([float(v) for v in ln.split(",")[1:]])
            else:
                rows.append([float(v) for v in ln.split(",")])
        except ValueError:
            raise FormatError(f"{path}: non-numeric row {ln[:40]!r}")
    if not rows or any(len(row) != len(header) for row in rows):
        raise FormatError(f"{path}: ragged rows")
    return header, np.array(rows), trailer


def compare(golden_path, candidate_path, tol: float) -> tuple[int, str]:
    """Columnwise max-abs comparison; exit 0 on agreement, 1 otherwise."""
    h1, d1, t1 = read_table_csv(golden_path)
    h2, d2, t2 = read_table_csv(candidate_path)
    if h1 != h2:
        raise FormatError("headers differ: "
                          f"{','.join(h1)!r} vs {','.join(h2)!r}")
    if d1.shape != d2.shape:
        raise FormatError(f"row counts differ: {d1.shape} vs {d2.shape}")
    if (t1 is None) != (t2 is None):
        raise FormatError("one file has a lambda0 record, the other does not")
    if t1 is not None and t1.shape != t2.shape:
        raise FormatError(f"lambda0 lengths differ: {t1.size} vs {t2.size}")
    diff = np.abs(d1 - d2)
    worst = float(diff.max(initial=0.0))
    msg = f"max column difference {worst:.3e} (tol {tol:.3e})"
    if t1 is not None:
        tdiff = float(np.max(np.abs(t1 - t2), initial=0.0))
        worst = max(worst, tdiff)
        msg += f", lambda0 difference {tdiff:.3e}"
    if worst <= tol:
        return 0, "MATCH: " + msg
    i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return 1, (f"MISMATCH: {msg}; worst offender column '{h1[j]}' "
               f"row {i} ({fmt(d1[i, j])} vs {fmt(d2[i, j])})")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(out_dir: Path, cfg: dict, files: list[Path], t0: float):
    import scipy

    manifest = {
        "config": cfg,
        "versions": {
            "phflow": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "files": {f.name: _sha256(f) for f in files},
        "wall_clock_s": round(time.time() - t0, 3),
    }
    path = out_dir / "manifest.json"
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# mode runners


def run_solve(scn: Scenario, out_dir: Path):
    ocp = scn.ocp
    z_hat = kkt_solve(ocp)
    _, norm = kkt_residual(ocp, z_hat)
    kkt_path = out_dir / "kkt.csv"
    write_kkt_csv(kkt_path, ocp, z_hat)
    lam_nodes = ocp.node_adjoint(z_hat.lam)
    stat_gap = float(np.max(np.abs(
        ocp.cost.alpha * z_hat.u + lam_nodes @ ocp.model.B
    )))
    cost, _, _ = cost_and_gradient(ocp.cost, ocp.grid, z_hat.x, z_hat.u)
    report = out_dir / "kkt_report.txt"
    report.write_text(
        "[kkt]\n"
        f"residual_norm: {norm:.6e}\n"
        f"stationarity_gap: {stat_gap:.6e}\n"
        f"cost: {cost:.12g}\n",
        newline="\n",
    )
    return [kkt_path, report]


def _check_report_horizon(scn: Scenario):
    """Fail before any solve when the flow would give the convergence
    report of flow and spectrum too few samples."""
    if _step_count(scn.integrator.h_t, scn.T) + 1 < _MIN_REPORT_SAMPLES:
        raise ConfigError(f"too short for the {_MIN_REPORT_SAMPLES} samples of the "
                          f"convergence report at h_t = {scn.integrator.h_t:g}",
                          field="integrator.T")


def _optimizer_run(scn: Scenario):
    """The stage shared by flow, audit and spectrum: the optimizer system,
    its steady state (the KKT oracle) and the flow from the default start,
    which runs as a mode folds it."""
    ocp = scn.ocp
    sys = assemble_optimizer(ocp)
    u = constant_input(ocp)
    oracle = steady_state(sys, u, _KKT_TOL)
    flow = stream_flow(sys, default_initial_state(ocp), u, scn.integrator, scn.T)
    return sys, oracle, flow


class _StateRows:
    """The fold that writes the time and every state coordinate of each
    sample to fh."""

    def __init__(self, fh, run):
        self.fh, self.times = fh, run.times

    def add(self, lo: int, x: np.ndarray, u: np.ndarray):
        rows = np.column_stack([self.times[lo:lo + x.shape[0]], x])
        # past the first block, the first row was the previous block's last
        _write_rows(self.fh, rows if lo == 0 else rows[1:])

    def report(self):
        return None


def _stream(out_dir: Path, name: str, sys, flow, full_state: bool, *folds):
    """Run the flow once through its power audit and `folds`; return their
    reports (the audit's is a pair, its second None) and the files
    written.  With full_state the run also writes <name>_state.csv, block
    by block, under a temporary name that it takes only when the run
    completes, so a failed run leaves no state file."""
    audit = PowerBalance(sys, flow)
    if not full_state:
        return fold(flow, audit, *folds), []
    path = out_dir / f"{name}_state.csv"
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", newline="\n") as fh:
            fh.write(",".join(["t"] + [f"z_{j + 1}" for j in range(sys.dim)]) + "\n")
            reports = fold(flow, audit, *folds, _StateRows(fh, flow))[:-1]
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)
    return reports, [path]


def _write_table(out_dir: Path, name: str, flow, pb, header: list[str],
                 columns: list) -> Path:
    """Write <name>.csv with the columns t, `columns` (named by `header`)
    and each step's power_residual, 0 at t = 0."""
    path = out_dir / f"{name}.csv"
    write_csv(path, ["t", *header, "power_residual"], np.column_stack(
        [flow.times, *columns, np.concatenate([[0.0], pb.residuals])]))
    return path


def run_flow(scn: Scenario, out_dir: Path):
    _check_report_horizon(scn)
    sys, oracle, flow = _optimizer_run(scn)
    ((pb, _), report), state = _stream(out_dir, "flow", sys, flow, scn.full_state,
                                       ErrorSeries(flow, oracle.x_bar, scn.ocp))
    table = _write_table(out_dir, "flow", flow, pb, ["err_total", "err_primal", "err_dual"],
                         [report.errors, report.errors_primal, report.errors_dual])
    rpt = out_dir / "convergence_report.txt"
    rpt.write_text("[convergence]\n" + report.summary() + "\n", newline="\n")
    return [table, rpt, *state]


def run_closedloop(scn: Scenario, out_dir: Path):
    ocp, spec = scn.ocp, scn.plant
    if spec is None:
        raise ConfigError("missing required field", field="plant")
    plant_sys = assemble_plant(spec, rng=scn.seed)
    cls = couple(assemble_optimizer(ocp), plant_sys, ocp, scn.coupling)
    flow = stream_flow(cls.sys, cls.initial_state(spec.x_p0), np.zeros(0),
                       scn.integrator, scn.T)  # the loop has no open port
    ((pb, _), cols), state = _stream(out_dir, "closedloop", cls.sys, flow,
                                     scn.full_state, LoopColumns(cls, flow))
    header = ([f"xp_{j + 1}" for j in range(cls.n_p)]
              + [f"up_{j + 1}" for j in range(ocp.m)]
              + ["norm_total", "norm_plant", "norm_optimizer"])
    columns = [cols.x_p, cols.u_p, cols.norm_total, cols.norm_plant, cols.norm_optimizer]
    return [_write_table(out_dir, "closedloop", flow, pb, header, columns), *state]


def run_audit(scn: Scenario, out_dir: Path):
    sys, oracle, flow = _optimizer_run(scn)
    pb, sh = fold(flow, PowerBalance(sys, flow, oracle))[0]
    probe = accretivity_probe(sys.M, sys.metric, rng=scn.seed, n_pairs=200)
    z0_scale = 1.0 + sys.metric.inner(flow.z0, flow.z0)
    path = out_dir / "audit.txt"
    path.write_text(
        "[power_balance]\n"
        f"max_residual: {pb.max_residual:.6e}\n"
        f"scaled_tolerance: {1e-10 * z0_scale:.6e}\n"
        f"pass: {pb.max_residual <= 1e-10 * z0_scale}\n"
        "[shifted_passivity]\n"
        f"max_equality_residual: {sh.max_equality_residual:.6e}\n"
        f"max_inequality_excess: {sh.max_inequality_excess:.6e}\n"
        f"pass: {sh.passive(1e-9)}\n"
        "[monotonicity]\n"
        f"min_gap: {probe.min_gap:.6e}\n"
        f"c_estimate: {probe.c_estimate:.6e}\n"
        f"violation: {probe.violation}\n",
        newline="\n",
    )
    return [path]


def run_spectrum(scn: Scenario, out_dir: Path):
    ocp = scn.ocp
    if ocp.state_dim > _DENSE_DIM_CAP:  # before any solve
        raise ConfigError(
            f"state dimension {ocp.state_dim} exceeds the dense analysis cap "
            f"{_DENSE_DIM_CAP} of spectrum mode", field="ocp.N")
    _check_report_horizon(scn)
    sys, oracle, flow = _optimizer_run(scn)
    report = fold(flow, ErrorSeries(flow, oracle.x_bar, ocp))[0]
    DM = sys.M.jacobian(oracle.x_bar)  # CSR: only the certificate goes dense
    gen = metric_generator(DM, sys.metric)
    try:  # the certificate's Schur form also gives the abscissa
        cert = lyapunov_certificate(gen)
        abscissa, lyapunov = cert.abscissa, [
            f"residual: {cert.residual:.6e}",
            f"min_eig_P: {cert.min_eig_P:.6e}",
            f"valid: {cert.valid()}",
        ]
    except NotHurwitz as exc:
        abscissa, lyapunov = exc.abscissa, ["valid: False", f"reason: {exc}"]
    blocks = saddle_blocks(DM, ocp.primal_dim, ocp.primal_metric,
                           ocp.dual_metric)
    lines = [
        "[spectrum]",
        f"spectral_abscissa: {abscissa:.9g}",
        f"nonnormality: {nonnormality(gen):.6e}",
        f"sigma_min_coupling: {blocks.sigma_min_m2:.6e}",
        f"dual_block_max: {blocks.dual_block_max:.3e}",
        f"adjoint_gap: {blocks.adjoint_gap:.3e}",
        "[lyapunov]",
        *lyapunov,
        "[rates]",
    ]
    if report.indeterminate:
        lines.append("rate: indeterminate")
    else:
        lines.append(f"rate: {report.rate:.6g}")
        lines.append(f"spectral_prediction: {-abscissa:.6g}")
    path = out_dir / "spectrum.txt"
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return [path]


_RUNNERS = {
    "solve": run_solve,
    "flow": run_flow,
    "closedloop": run_closedloop,
    "audit": run_audit,
    "spectrum": run_spectrum,
}


def run(config_path, out_dir, mode=None) -> int:
    """Execute one scenario; returns the process exit code."""
    t0 = time.time()
    try:
        cfg = load_config(config_path)
        cfg_mode = mode or cfg.get("mode")
        if cfg_mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}", field="mode")
        ocp = build_ocp(_need(cfg, "ocp", ""))
        icfg, T = build_integrator(cfg.get("integrator"), ocp)
        plant = build_plant(cfg["plant"], ocp) if "plant" in cfg else None
        output = _object(cfg.get("output", {}), "output", ("dir", "full_state"))
        full_state = output.get("full_state", False)
        if not isinstance(full_state, bool):
            raise ConfigError("must be true or false", field="output.full_state")
        scn = Scenario(ocp, icfg, T, plant, build_coupling(cfg.get("coupling", {})),
                       _number(cfg, "seed", "", 0, integer=True, low=0), full_state)
        out_dir = out_dir or output.get("dir", "out")
        if not isinstance(out_dir, (str, os.PathLike)):
            raise ConfigError("must be a path string", field="output.dir")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = _RUNNERS[cfg_mode](scn, out)
        files.append(write_manifest(out, cfg, files, t0))
        print(f"{cfg_mode}: wrote {', '.join(f.name for f in files)} to {out}")
        return 0
    except (ConfigError, FormatError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        residual, step = getattr(exc, "residual", None), getattr(exc, "step", None)
        where = "" if step is None else f", step {step}"
        where += "" if residual is None else f", residual {residual:.3e}"
        print(f"numerical failure: {type(exc).__name__}: {exc}{where}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # Python-level overflow of a finite input
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phflow",
        description="Monotone pH optimal-control toolkit scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode, help=f"run a {mode} scenario")
        p.add_argument("--config", required=True, nargs="+",
                       help="scenario JSON file(s)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="run multiple configs in parallel processes")
    pc = sub.add_parser("compare", help="compare two CSV files columnwise")
    pc.add_argument("golden")
    pc.add_argument("candidate")
    pc.add_argument("--tol", type=float, required=True)

    args = parser.parse_args(argv)
    if args.command == "compare":
        if not 0.0 <= args.tol <= sys.float_info.max:  # NaN, negative, infinite
            print("configuration error: --tol: must be finite and at least 0",
                  file=sys.stderr)
            return 2
        try:
            code, msg = compare(args.golden, args.candidate, args.tol)
        except (FormatError, OSError) as exc:
            print(f"format error: {exc}", file=sys.stderr)
            return 2
        print(msg)
        return code

    configs = args.config
    if len(configs) == 1:
        return run(configs[0], args.out, mode=args.command)
    # several configs: one subdirectory each, named by the file's stem
    stems = [Path(c).stem for c in configs]
    shared = sorted({s for s in stems if stems.count(s) > 1})
    if shared:  # their runs would write, or race on, the same files
        print(f"configuration error: --config: configs share the subdirectory "
              f"{', '.join(shared)} of --out; give each its own file name",
              file=sys.stderr)
        return 2
    # optionally in parallel; the pool starts all its workers at once, so
    # never more than can be busy
    jobs = min(max(1, args.jobs), len(configs), os.cpu_count() or 1)
    tasks = [(c, str(Path(args.out) / s)) for c, s in zip(configs, stems)]
    if jobs == 1:
        codes = [run(c, o, mode=args.command) for c, o in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run, c, o, args.command) for c, o in tasks]
            codes = [f.result() for f in futures]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
