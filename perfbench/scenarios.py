"""Seeded scenario generator and output checks for the phflow benchmark.

Every workload (named and motivated in BENCHMARK.json) is a fixed,
ordered round of scenario kinds.  A run repeats whole rounds, so the mix
of sizes is the same in every run and the seed changes only the random
entries (A, B, x0, Q, alpha, the plant).  The kinds in the middle of a
round's cost order lie close together, so the median scenario time
rests on many samples and does not sit in a gap between two clusters.

The generated configs use the public JSON format of ``phflow.cli`` and
are the only input the program receives.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Relative tolerance of the power-balance check, scaled by 1 + ||z0||^2
# exactly as ``phflow audit`` scales its own pass line.
POWER_TOL = 1e-10

# Cubic closed loops are solved to this Newton tolerance.  The discrete
# power balance holds to the Newton residual divided by the outer step,
# and at h_t = 0.02 the program's default newton_tol of 1e-10 leaves the
# power residual above POWER_TOL: the default does not meet the tolerance
# that ``phflow audit`` checks.  That mismatch is the program's to fix;
# 1e-12 keeps the residual two orders below POWER_TOL.
CLOSEDLOOP_NEWTON_TOL = 1e-12


def _kind(mode, N, n, m, steps, h_t=0.005, stage="quadratic",
          newton_tol=1e-10):
    return {"mode": mode, "N": N, "n": n, "m": m, "steps": steps,
            "h_t": h_t, "stage": stage, "newton_tol": newton_tol}


def _closedloop(N, n, m, steps):
    return _kind("closedloop", N, n, m, steps, h_t=0.02,
                 newton_tol=CLOSEDLOOP_NEWTON_TOL)


WORKLOADS = {
    # LQ flows: the sparse prefactored linear stepper, the batched
    # power-balance audit and CSV writing; no Newton, no dense analysis.
    "lq-flow": [
        _kind("flow", 256, 3, 2, 3000),
        _kind("flow", 256, 4, 2, 3000),
        _kind("flow", 1024, 2, 1, 2000),
        _kind("flow", 1024, 2, 1, 2000),
        _kind("flow", 1024, 2, 2, 2500),
    ],
    # Cubic closed loops and logcosh flows: dense Newton solves in
    # integrate_flow, the KKT Newton path and the per-row audit; the
    # sparse linear stepper is never used.
    "nonlinear": [
        _closedloop(32, 2, 1, 300),
        _kind("flow", 32, 4, 2, 250, stage="logcosh"),
        _closedloop(32, 4, 2, 200),
        _closedloop(64, 3, 1, 150),
        _kind("flow", 64, 2, 1, 250, stage="logcosh"),
        _closedloop(128, 2, 1, 100),
    ],
    # Audit and spectrum on LQ problems with state dimension (N + 1)(2n + m)
    # at most 1032: dense eigen, Lyapunov and SVD kernels, the passivity
    # audit and the monotonicity probe, each with a short kkt_solve +
    # integrate_flow in front.
    "diagnostics": [
        _kind("audit", 64, 4, 2, 5000),
        _kind("audit", 128, 3, 2, 3000),
        _kind("spectrum", 64, 3, 2, 200),
        _kind("spectrum", 64, 4, 1, 200),
        _kind("spectrum", 128, 2, 1, 200),
    ],
}


def _spd(rng, k):
    G = rng.standard_normal((k, k))
    return G @ G.T / k + 0.5 * np.eye(k)


def make_config(kind: dict, seed: int, round_idx: int, kind_idx: int) -> dict:
    """The scenario config for one (seed, round, kind); same inputs, same config."""
    rng = np.random.default_rng([seed, round_idx, kind_idx])
    n, m = kind["n"], kind["m"]
    A = 0.5 * rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    x0 = rng.standard_normal(n)
    alpha = float(rng.uniform(0.5, 2.0))
    if kind["stage"] == "quadratic":
        stage = {"quadratic": {"Q": _spd(rng, n).tolist()}}
    else:
        stage = {"logcosh": {"scale": float(rng.uniform(0.5, 1.5))}}
    cfg = {
        "mode": kind["mode"],
        "ocp": {"t_f": 1.0, "N": kind["N"], "A": A.tolist(), "B": B.tolist(),
                "f": 0.0, "x0": x0.tolist(),
                "cost": {"alpha": alpha, "stage": stage}},
        "integrator": {"scheme": "implicit_midpoint", "h_t": kind["h_t"],
                       "T": kind["steps"] * kind["h_t"],
                       "newton_tol": kind["newton_tol"]},
        "output": {"full_state": False},
        "seed": int(rng.integers(0, 2**31 - 1)),
    }
    if kind["mode"] == "closedloop":
        cfg["plant"] = {
            "kind": {"cubic": {"R": _spd(rng, n).tolist(),
                               "kappa": float(rng.uniform(0.5, 1.5))}},
            "B_p": B.tolist(),
            "x_p0": rng.standard_normal(n).tolist(),
        }
    return cfg


def write_config(cfg: dict, path: Path) -> Path:
    path.write_text(json.dumps(cfg), newline="\n")
    return path


# ---------------------------------------------------------------------------
# output checks


def _free_response_energy(ocp_cfg: dict) -> float:
    """||z0||^2 of the flow's default initial state, computed independently.

    z0 is the free response (u = 0, f = 0) of the trapezoidal stencil
    with zero control and multipliers, and the state metric weighs the
    x block with the trapezoidal grid weights.
    """
    A = np.atleast_2d(np.array(ocp_cfg["A"], dtype=float))
    N = int(ocp_cfg["N"])
    h = float(ocp_cfg["t_f"]) / N
    eye = np.eye(A.shape[0])
    step = np.linalg.solve(eye - 0.5 * h * A, eye + 0.5 * h * A)
    x = np.array(ocp_cfg["x0"], dtype=float)
    total = 0.5 * h * (x @ x)
    for i in range(1, N + 1):
        x = step @ x
        total += (0.5 * h if i == N else h) * (x @ x)
    return float(total)


def _read_csv(path: Path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_outputs(cfg: dict, out_dir: Path) -> list[tuple[str, str]]:
    """Check one scenario's files; returns (layer, message) per failed check."""
    mode = cfg["mode"]
    failures = []
    try:
        if mode in ("flow", "closedloop"):
            energy = _free_response_energy(cfg["ocp"])
            if mode == "closedloop":
                xp0 = np.array(cfg["plant"]["x_p0"], dtype=float)
                energy += float(xp0 @ xp0)
            header, data = _read_csv(out_dir / f"{mode}.csv")
            tol = POWER_TOL * (1.0 + energy)
            worst = float(np.max(np.abs(data[:, header.index("power_residual")])))
            if not worst <= tol:
                failures.append(("phcore", f"power_residual {worst:.3e} > {tol:.3e}"))
            if mode == "closedloop":
                norm = data[:, header.index("norm_total")]
                rise = float(np.max(np.diff(norm), initial=0.0))
                if rise > 0.0:
                    failures.append(("closedloop", f"norm_total rises by {rise:.3e}"))
        elif mode == "audit":
            text = (out_dir / "audit.txt").read_text()
            lines = text.splitlines()
            if lines.count("pass: True") != 2:
                failures.append(("phcore", "audit pass lines are not both True"))
            if "violation: False" not in lines:
                failures.append(("phcore", "monotonicity probe reports a violation"))
        elif mode == "spectrum":
            lines = (out_dir / "spectrum.txt").read_text().splitlines()
            if "valid: True" not in lines:
                failures.append(("analysis", "Lyapunov certificate not valid"))
            abscissa = [ln for ln in lines if ln.startswith("spectral_abscissa: ")]
            if not abscissa or not float(abscissa[0].split(": ")[1]) < 0.0:
                failures.append(("analysis", "spectral abscissa not negative"))
    except (OSError, ValueError, IndexError) as exc:
        failures.append(("cli", f"unreadable output: {exc}"))
    return failures
