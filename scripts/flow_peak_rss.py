#!/usr/bin/env python3
"""Peak resident memory of one ``phflow flow`` or ``spectrum`` run, in a
fresh process.

Run from the repository root:

    python scripts/flow_peak_rss.py --N 1024 --n 2 --m 2 --steps 2500 [--check]
    python scripts/flow_peak_rss.py --mode spectrum --N 399 --n 2 --m 1 --steps 200 [--check]

The config is an LQ run built by ``perfbench/scenarios.make_config``
(read, never edited) at h_t = 0.005, with BLAS pinned to one thread.
The script reads ``ru_maxrss`` before and after ``phflow.cli.run`` and
prints one JSON line: the run's wall time, both peaks and their
difference (the growth during the run), all in MiB, and the bound that
``--check`` holds the growth to, exiting 1 above it:

- ``flow``: half the ``(steps + 1) x dim x 8`` bytes that a run holding
  every state would need (``stored_states_mb``);
- ``spectrum``: five dense ``dim x dim`` arrays of 8-byte floats
  (``dense_arrays_mb``), against the three that the Lyapunov
  certificate holds.

The bound is relative to the run's own baseline, so it does not depend
on the interpreter's size.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from phflow import cli  # noqa: E402
import scenarios  # noqa: E402


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("flow", "spectrum"), default="flow")
    parser.add_argument("--N", type=int, default=1024)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--steps", type=int, default=2500)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the run grows the peak by more than "
                        "its mode's bound")
    args = parser.parse_args(argv)
    kind = {"mode": args.mode, "N": args.N, "n": args.n, "m": args.m,
            "steps": args.steps, "h_t": 0.005, "stage": "quadratic",
            "newton_tol": 1e-10}
    cfg = scenarios.make_config(kind, 0, 0, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = scenarios.write_config(cfg, Path(tmp) / f"{args.mode}.json")
        before, t0 = _peak_mb(), time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(path, Path(tmp) / "out")
        wall, after = time.perf_counter() - t0, _peak_mb()
    dim = cli.build_ocp(cfg["ocp"]).state_dim  # after the run: not in its peak
    if args.mode == "flow":
        name, ref_mb = "stored_states_mb", (args.steps + 1) * dim * 8 / 2**20
        bound_mb = 0.5 * ref_mb
    else:
        name, ref_mb = "dense_arrays_mb", 5 * dim * dim * 8 / 2**20
        bound_mb = ref_mb
    growth = after - before
    ok = code == 0 and growth <= bound_mb
    print(json.dumps({"mode": args.mode, "N": args.N, "n": args.n, "m": args.m,
                      "steps": args.steps, "dim": dim, "exit": code,
                      "wall_s": round(wall, 3), "peak_before_mb": round(before, 1),
                      "peak_after_mb": round(after, 1), "growth_mb": round(growth, 1),
                      name: round(ref_mb, 1), "ok": ok}))
    return 0 if ok or not args.check else 1


if __name__ == "__main__":
    sys.exit(main())
