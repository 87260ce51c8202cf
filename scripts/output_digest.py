#!/usr/bin/env python3
"""Print the output digest of a fixed set of phflow runs.

Run from the repository root:

    python scripts/output_digest.py [--work DIR] > digest.txt

The runs are every ``configs/*.json`` in each of the five modes, the
same configs in the flow and closedloop modes with ``output.full_state``
set (so ``<name>_state.csv`` is checked too), the same configs in the
flow, audit and closedloop modes with ``integrator.scheme`` set to
``implicit_euler`` (so theta = 1 steps and audits are checked too),
plus round 0 of every
benchmark workload at seeds 0, 1 and 2, built by
``perfbench/scenarios.make_config`` (read, never edited).  Each run goes
through ``phflow.cli.run`` of this checkout's ``src/`` with BLAS pinned
to one thread.  For every run the script prints its exit code and the
SHA-256 that the run's manifest records for each output file
(``manifest.json`` itself is excluded: it holds the wall-clock time).

Two checkouts that print the same digest wrote the same bytes and exit
codes on every run; diff the two outputs to compare a change with its
parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from phflow import cli  # noqa: E402
import scenarios  # noqa: E402

MODES = ("solve", "flow", "closedloop", "audit", "spectrum")
# the modes that write <name>_state.csv when output.full_state is set
FULL_STATE_MODES = ("flow", "closedloop")
# the modes whose output depends on the integrator's scheme
EULER_MODES = ("flow", "audit", "closedloop")
SEEDS = (0, 1, 2)


def runs(work: Path):
    """(run id, config path, mode or None) for every run of the digest."""
    gen = work / "generated"
    gen.mkdir(parents=True, exist_ok=True)
    for config in sorted((ROOT / "configs").glob("*.json")):
        for mode in MODES:
            yield f"configs/{config.name}:{mode}", config, mode
        for variant, section, key, value, modes in (
                ("full_state", "output", "full_state", True, FULL_STATE_MODES),
                ("implicit_euler", "integrator", "scheme", "implicit_euler", EULER_MODES)):
            cfg = json.loads(config.read_text())
            cfg.setdefault(section, {})[key] = value
            path = gen / f"{variant}-{config.name}"
            path.write_text(json.dumps(cfg), newline="\n")
            for mode in modes:
                yield f"configs/{config.name}:{mode}:{variant}", path, mode
    for workload, kinds in scenarios.WORKLOADS.items():
        for seed in SEEDS:
            for idx, kind in enumerate(kinds):
                run_id = f"{workload}:seed{seed}:kind{idx}"
                path = gen / f"{workload}-{seed}-{idx}.json"
                scenarios.write_config(scenarios.make_config(kind, seed, 0, idx), path)
                yield run_id, path, None


def digest(work: Path):
    for run_id, config, mode in runs(work):
        out = work / "out" / run_id.replace("/", "_").replace(":", "_")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(config, out, mode=mode)
        yield f"{run_id} exit={code}"
        manifest = out / "manifest.json"
        if manifest.is_file():
            files = json.loads(manifest.read_text())["files"]
            for name in sorted(files):
                yield f"{run_id} {name} {files[name]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", help="directory for configs and outputs "
                        "(default: a temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        for line in digest(work):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
