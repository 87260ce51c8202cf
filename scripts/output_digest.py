#!/usr/bin/env python3
"""Print the output digest of a fixed set of phflow runs.

Run from the repository root:

    python scripts/output_digest.py [--work DIR] > digest.txt
    python scripts/output_digest.py --values BASE_WORK HEAD_WORK

The runs are every ``configs/*.json`` in each of the five modes, the
same configs in the flow and closedloop modes with ``output.full_state``
set (so ``<name>_state.csv`` is checked too), the same configs in the
flow, audit and closedloop modes with ``integrator.scheme`` set to
``implicit_euler`` (so theta = 1 steps and audits are checked too),
plus round 0 of every
benchmark workload at seeds 0, 1 and 2 and rounds 1 to 49 of the
``nonlinear`` workload at seed 0 (the closed loops and logcosh flows that a
benchmark run of the workload reaches), built by
``perfbench/scenarios.make_config`` (read, never edited).  Each run goes
through ``phflow.cli.run`` of this checkout's ``src/`` with BLAS pinned
to one thread.  For every run the script prints its exit code and the
SHA-256 that the run's manifest records for each output file
(``manifest.json`` itself is excluded: it holds the wall-clock time).

Two checkouts that print the same digest wrote the same bytes and exit
codes on every run; diff the two outputs to compare a change with its
parent.  When they differ, ``--values`` reads the ``--work`` directories
of the two digest runs and says by how much: for every run and file
whose SHA-256 differs, a CSV prints the largest absolute change of its
numbers and that change relative to the largest magnitude of its column
in the base (for power_residual, which is roundoff itself, apart from
the other columns), and a text file prints its differing lines.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
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

import numpy as np  # noqa: E402

from phflow import cli  # noqa: E402
import scenarios  # noqa: E402

MODES = ("solve", "flow", "closedloop", "audit", "spectrum")
# the modes that write <name>_state.csv when output.full_state is set
FULL_STATE_MODES = ("flow", "closedloop")
# the modes whose output depends on the integrator's scheme
EULER_MODES = ("flow", "audit", "closedloop")
SEEDS = (0, 1, 2)
# the later rounds of the nonlinear workload, at seed 0
NONLINEAR_ROUNDS = range(1, 50)


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
    for round_idx in NONLINEAR_ROUNDS:
        for idx, kind in enumerate(scenarios.WORKLOADS["nonlinear"]):
            run_id = f"nonlinear:seed0:round{round_idx}:kind{idx}"
            path = gen / f"nonlinear-0-r{round_idx}-{idx}.json"
            scenarios.write_config(scenarios.make_config(kind, 0, round_idx, idx), path)
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


def _files(run: Path) -> dict:
    manifest = run / "manifest.json"
    return json.loads(manifest.read_text())["files"] if manifest.is_file() else {}


def _csv_changes(base: Path, head: Path):
    """The largest change of two CSVs' numbers: for the column that moved
    most relative to its largest base magnitude, and for power_residual,
    which is roundoff itself, on its own; (label, absolute, relative)."""
    (names, a, ta), (_, b, tb) = cli.read_table_csv(base), cli.read_table_csv(head)
    if a.shape != b.shape:
        yield "shape", f"{a.shape} -> {b.shape}", ""
        return
    columns = list(zip(names, a.T, b.T))
    if ta is not None and tb is not None and ta.shape == tb.shape:
        columns.append(("lambda0", ta, tb))  # the trailer row
    moved = {}
    for name, x, y in columns:
        change = np.max(np.abs(y - x), initial=0.0)
        if change > 0:
            scale = np.max(np.abs(x), initial=0.0)
            moved[name] = (change, change / scale if scale else np.inf)
    residual = moved.pop("power_residual", None)
    if moved:
        name = max(moved, key=lambda c: moved[c][1])
        change, rel = moved[name]
        yield f"{len(moved)} columns, most {name}", f"{change:.3e}", f"{rel:.3e}"
    if residual:
        yield "power_residual", f"{residual[0]:.3e}", f"{residual[1]:.3e}"


def values(base_work: Path, head_work: Path):
    """The lines of the --values table."""
    runs = sorted({p.name for w in (base_work, head_work) for p in (w / "out").iterdir()})
    for run in runs:
        base, head = base_work / "out" / run, head_work / "out" / run
        fa, fb = _files(base), _files(head)
        for name in sorted(set(fa) | set(fb)):
            if fa.get(name) == fb.get(name):
                continue
            if name not in fa or name not in fb:
                yield f"{run} {name} only in {'head' if name in fb else 'base'}"
            elif name.endswith(".csv"):
                for label, change, rel in _csv_changes(base / name, head / name):
                    yield f"{run} {name} {label}: abs {change} rel {rel}"
            else:
                old = (base / name).read_text().splitlines()
                new = (head / name).read_text().splitlines()
                for line in difflib.unified_diff(old, new, lineterm="", n=0):
                    if not line.startswith(("---", "+++", "@@")):
                        yield f"{run} {name} {line}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", help="directory for configs and outputs "
                        "(default: a temporary directory, removed afterwards)")
    parser.add_argument("--values", nargs=2, metavar=("BASE_WORK", "HEAD_WORK"),
                        help="compare the outputs of two --work directories")
    args = parser.parse_args(argv)
    if args.values:
        for line in values(*map(Path, args.values)):
            print(line)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        for line in digest(work):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
