#!/usr/bin/env python3
"""Peak resident memory of one ``phflow flow`` run, in a fresh process.

Run from the repository root:

    python scripts/flow_peak_rss.py --N 1024 --n 2 --m 2 --steps 2500 [--check]

The config is an LQ flow built by ``perfbench/scenarios.make_config``
(read, never edited) at h_t = 0.005, with BLAS pinned to one thread.
The script reads ``ru_maxrss`` before and after ``phflow.cli.run`` and
prints one JSON line: the run's wall time, both peaks, their difference
(the growth during the run) and the ``(steps + 1) x dim x 8`` bytes that
a run holding every state would need, all in MiB.  With ``--check`` it
exits 1 when the growth is more than half of those bytes.  The bound is
relative to the run's own baseline, so it does not depend on the
interpreter's size.
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
    parser.add_argument("--N", type=int, default=1024)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--steps", type=int, default=2500)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the run grows the peak by more than "
                        "half the bytes of its stored states")
    args = parser.parse_args(argv)
    kind = {"mode": "flow", "N": args.N, "n": args.n, "m": args.m,
            "steps": args.steps, "h_t": 0.005, "stage": "quadratic",
            "newton_tol": 1e-10}
    cfg = scenarios.make_config(kind, 0, 0, 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = scenarios.write_config(cfg, Path(tmp) / "flow.json")
        before, t0 = _peak_mb(), time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(path, Path(tmp) / "out")
        wall, after = time.perf_counter() - t0, _peak_mb()
    dim = cli.build_ocp(cfg["ocp"]).state_dim  # after the run: not in its peak
    stored_mb = (args.steps + 1) * dim * 8 / 2**20
    growth = after - before
    ok = code == 0 and growth <= 0.5 * stored_mb
    print(json.dumps({"N": args.N, "n": args.n, "m": args.m, "steps": args.steps,
                      "dim": dim, "exit": code, "wall_s": round(wall, 3),
                      "peak_before_mb": round(before, 1),
                      "peak_after_mb": round(after, 1), "growth_mb": round(growth, 1),
                      "stored_states_mb": round(stored_mb, 1), "ok": ok}))
    return 0 if ok or not args.check else 1


if __name__ == "__main__":
    sys.exit(main())
