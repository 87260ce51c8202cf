"""Traced re-implementation of the ``phflow.cli`` mode runners.

The runners below call the same public functions, in the same order and
through the same writers (``cli.write_csv`` and ``cli.write_manifest``),
as ``phflow.cli.run`` does for the flow, closedloop, audit and spectrum
modes, with a span around each call into a layer.  The benchmark checks
that their files are byte-identical to those of ``cli.run`` on the same
config, which shows that both do the same work.

Spans are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from phflow import cli
from phflow.analysis import (lyapunov_certificate, metric_generator,
                             nonnormality, saddle_blocks, spectral_abscissa)
from phflow.closedloop import (CouplingSpec, assemble_plant, couple,
                               simulate_closed_loop)
from phflow.errors import ConfigError, FormatError, NotHurwitz, ToolkitError
from phflow.ocp import kkt_solve
from phflow.optimizer import (assemble_optimizer, constant_input,
                              convergence_report, default_initial_state,
                              integrate_flow)
from phflow.phcore import (SteadyStatePair, accretivity_probe,
                           power_balance_audit, shifted_passivity_audit)

LAYERS = ("cli", "ocp", "optimizer", "phcore", "closedloop", "analysis")


class Tracer:
    """In-memory span recorder; one scenario is open at a time.

    ``errors`` counts, per layer, the exceptions raised out of that
    layer's spans; an exception is counted once, at the innermost span.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.errors = dict.fromkeys(LAYERS, 0)
        self._stack: list[int] = []
        self._scenario: dict = {}
        self._counted = None

    def start_scenario(self, scenario_id: int, mode: str, N: int):
        self._scenario = {"scenario": scenario_id, "mode": mode, "N": N}

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               **self._scenario}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException as exc:
            if id(exc) != self._counted:
                self._counted = id(exc)
                self.errors[name.split(".")[0]] += 1
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _steps(traj, h_t: float) -> int:
    return int(round((traj.times[-1] - traj.times[0]) / h_t))


def _integrate(tr, sys, ocp, icfg, T):
    with tr.span("optimizer.integrate_flow") as s:
        traj = integrate_flow(sys, default_initial_state(ocp),
                              constant_input(ocp), icfg, T)
        s["steps"] = _steps(traj, icfg.h_t)
        s["state_bytes"] = traj.states.nbytes
        if not sys.M.is_linear:
            s["jacobian_bytes"] = sys.dim * sys.dim * 8
    return traj


def _integrator(tr, cfg, ocp):
    with tr.span("cli.build_integrator"):
        return cli.build_integrator(cfg.get("integrator"), ocp)


def _write_text(tr, path: Path, text: str) -> Path:
    with tr.span("cli.write") as s:
        path.write_text(text, newline="\n")
        s["bytes"] = path.stat().st_size
    return path


def run_flow(tr, cfg, ocp, out_dir: Path, seed: int):
    icfg, T = _integrator(tr, cfg, ocp)
    with tr.span("ocp.kkt_solve"):
        z_hat = kkt_solve(ocp)
    with tr.span("optimizer.assemble_optimizer"):
        sys = assemble_optimizer(ocp)
    traj = _integrate(tr, sys, ocp, icfg, T)
    with tr.span("optimizer.convergence_report"):
        report = convergence_report(traj, z_hat, ocp)
    with tr.span("phcore.power_balance_audit"):
        pb = power_balance_audit(sys, traj)
    with tr.span("cli.write") as s:
        rows = np.column_stack([
            traj.times, report.errors, report.errors_primal,
            report.errors_dual, np.concatenate([[0.0], pb.residuals]),
        ])
        flow_path = out_dir / "flow.csv"
        cli.write_csv(flow_path, ["t", "err_total", "err_primal", "err_dual",
                                  "power_residual"], rows)
        s["bytes"] = flow_path.stat().st_size
    rpt = _write_text(tr, out_dir / "convergence_report.txt",
                      "[convergence]\n" + report.summary() + "\n")
    return [flow_path, rpt]


def run_closedloop(tr, cfg, ocp, out_dir: Path, seed: int):
    if "plant" not in cfg:
        raise ConfigError("missing required field", field="plant")
    with tr.span("cli.build_plant"):
        spec = cli.build_plant(cfg["plant"], ocp)
    with tr.span("closedloop.assemble_plant"):
        plant_sys = assemble_plant(spec, rng=seed)
    cspec = CouplingSpec(cfg.get("coupling", {}).get("gamma", "inv_alpha"))
    with tr.span("optimizer.assemble_optimizer"):
        opt_sys = assemble_optimizer(ocp)
    with tr.span("closedloop.couple") as s:
        cls = couple(opt_sys, plant_sys, ocp, cspec)
        s["coupling_bytes"] = cls.dim * cls.dim * 8
    icfg, T = _integrator(tr, cfg, ocp)
    with tr.span("closedloop.simulate_closed_loop") as s:
        run = simulate_closed_loop(cls, icfg, T, x_p0=spec.x_p0)
        s["steps"] = _steps(run.traj, icfg.h_t)
        s["jacobian_bytes"] = cls.dim * cls.dim * 8
    with tr.span("phcore.power_balance_audit"):
        pb = power_balance_audit(cls.sys, run.traj)
    with tr.span("cli.write") as s:
        header = (["t"]
                  + [f"xp_{j + 1}" for j in range(cls.n_p)]
                  + [f"up_{j + 1}" for j in range(ocp.m)]
                  + ["norm_total", "norm_plant", "norm_optimizer",
                     "power_residual"])
        rows = np.column_stack([
            run.traj.times, run.traj.states[:, :cls.n_p], run.feedback.u_p,
            run.norm_total, run.norm_plant, run.norm_optimizer,
            np.concatenate([[0.0], pb.residuals]),
        ])
        path = out_dir / "closedloop.csv"
        cli.write_csv(path, header, rows)
        s["bytes"] = path.stat().st_size
    return [path]


def run_audit(tr, cfg, ocp, out_dir: Path, seed: int):
    icfg, T = _integrator(tr, cfg, ocp)
    with tr.span("optimizer.assemble_optimizer"):
        sys = assemble_optimizer(ocp)
    with tr.span("ocp.kkt_solve"):
        z_hat = kkt_solve(ocp)
    traj = _integrate(tr, sys, ocp, icfg, T)
    with tr.span("phcore.power_balance_audit"):
        pb = power_balance_audit(sys, traj)
    with tr.span("phcore.shifted_passivity_audit"):
        ss = SteadyStatePair(z_hat.vector, constant_input(ocp),
                             sys.output(z_hat.vector))
        sh = shifted_passivity_audit(sys, traj, ss)
    with tr.span("phcore.accretivity_probe"):
        probe = accretivity_probe(sys.M, sys.metric, rng=seed, n_pairs=200)
    z0 = traj.states[0]
    z0_scale = 1.0 + sys.metric.inner(z0, z0)
    text = (
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
        f"violation: {probe.violation}\n"
    )
    return [_write_text(tr, out_dir / "audit.txt", text)]


def run_spectrum(tr, cfg, ocp, out_dir: Path, seed: int):
    with tr.span("optimizer.assemble_optimizer"):
        sys = assemble_optimizer(ocp)
    with tr.span("ocp.kkt_solve"):
        z_hat = kkt_solve(ocp)
    with tr.span("optimizer.derivative") as s:
        DM = sys.M.derivative(z_hat.vector)
        s["jacobian_bytes"] = DM.nbytes
    with tr.span("analysis.spectral_abscissa"):
        abscissa = spectral_abscissa(DM)
    with tr.span("analysis.metric_generator"):
        gen = metric_generator(DM, sys.metric)
    with tr.span("analysis.saddle_blocks"):
        blocks = saddle_blocks(DM, ocp.primal_dim, ocp.primal_metric,
                               ocp.dual_metric)
    with tr.span("analysis.nonnormality"):
        non_normal = nonnormality(gen)
    lines = [
        "[spectrum]",
        f"spectral_abscissa: {abscissa:.9g}",
        f"nonnormality: {non_normal:.6e}",
        f"sigma_min_coupling: {blocks.sigma_min_m2:.6e}",
        f"dual_block_max: {blocks.dual_block_max:.3e}",
        f"adjoint_gap: {blocks.adjoint_gap:.3e}",
        "[lyapunov]",
    ]
    try:
        with tr.span("analysis.lyapunov_certificate"):
            cert = lyapunov_certificate(gen)
        lines += [
            f"residual: {cert.residual:.6e}",
            f"min_eig_P: {cert.min_eig_P:.6e}",
            f"valid: {cert.valid()}",
        ]
    except NotHurwitz as exc:
        lines += ["valid: False", f"reason: {exc}"]
    lines.append("[rates]")
    icfg, T = _integrator(tr, cfg, ocp)
    traj = _integrate(tr, sys, ocp, icfg, T)
    with tr.span("optimizer.convergence_report"):
        report = convergence_report(traj, z_hat, ocp)
    if report.indeterminate:
        lines.append("rate: indeterminate")
    else:
        lines.append(f"rate: {report.rate:.6g}")
        lines.append(f"spectral_prediction: {-abscissa:.6g}")
    return [_write_text(tr, out_dir / "spectrum.txt", "\n".join(lines) + "\n")]


_RUNNERS = {
    "flow": run_flow,
    "closedloop": run_closedloop,
    "audit": run_audit,
    "spectrum": run_spectrum,
}


def run_traced(tr: Tracer, config_path: Path, out_dir: Path) -> int:
    """Traced counterpart of ``cli.run`` for one scenario; returns its exit code.

    Generated configs never set ``full_state`` or the seed on the
    command line, so those branches of ``cli.run`` are not mirrored.
    """
    t0 = time.time()
    try:
        with tr.span("cli.run"):
            with tr.span("cli.build_ocp") as s:
                cfg = cli.load_config(config_path)
                ocp = cli.build_ocp(cfg["ocp"])
                s["constraint_nnz"] = ocp.C.nnz
            seed = int(cfg.get("seed", 0))
            out_dir.mkdir(parents=True, exist_ok=True)
            files = _RUNNERS[cfg["mode"]](tr, cfg, ocp, out_dir, seed)
            with tr.span("cli.write") as s:
                files.append(cli.write_manifest(out_dir, cfg, files, t0))
                s["bytes"] = files[-1].stat().st_size
        return 0
    except (ConfigError, FormatError):
        return 2
    except ToolkitError:
        return 3
