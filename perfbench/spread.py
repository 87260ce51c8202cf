"""Run-to-run spread of the end-to-end metrics, over two sets of runs.

    python3 perfbench/spread.py            # report only
    python3 perfbench/spread.py --write    # also store perfbench/baseline.json

Runs ``run.py --trace 0`` on every workload of BENCHMARK.json for seeds
0-9 with ``--seconds`` set to its ``run_seconds``, one run at a time, and
then makes the same runs again as a second set.  For each set, workload
and end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  The benchmark
is steady when every spread is below a third of the metric's bound and
no second-set median is worse than the first-set median by more than
the bound.  ``--write`` also adds one traced run per workload on seed 0,
with its per-layer metrics and per-N step costs, and writes everything
to ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SEEDS = range(10)


def _run(workload: str, seed: int, seconds: int, trace: int):
    """One run.py run: its result line and the JSON of its labelled lines."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    extras = {ln.split(": ", 1)[0]: json.loads(ln.split(": ", 1)[1])
              for ln in lines[:-1] if ": {" in ln}
    return result, extras


def measure_set(label: str, spec: dict) -> tuple[dict, dict, bool]:
    """Ten runs per workload; per-metric statistics, environment, steady."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, env, steady = {}, {}, True
    for w in spec["workloads"]:
        workload, values, failed = w["name"], {}, 0
        for seed in SEEDS:
            result, extras = _run(workload, seed, spec["run_seconds"], 0)
            env = {k: v for k, v in extras["environment"].items() if k != "seed"}
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{label} {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        stats = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bounds[metric] / 3
            steady &= ok
            stats[metric] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[metric],
                             "values": vals}
            print(f"  {label} {workload:12s} {metric:16s} median {med:10.4g}  "
                  f"spread {spread:6.3f}  bound/3 {bounds[metric] / 3:6.3f}"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
        report[workload] = {"failed": failed, "metrics": stats}
    return report, env, steady


def compare(spec: dict, first: dict, second: dict) -> tuple[dict, bool]:
    """Change of each median from the first set to the second, as a share
    of the first, signed so that positive is worse."""
    changes, agree = {}, True
    for m in spec["end_to_end"]:
        sign = 1.0 if m["better"] == "lower" else -1.0
        for workload in first:
            a = first[workload]["metrics"][m["name"]]["median"]
            b = second[workload]["metrics"][m["name"]]["median"]
            worse = sign * (b - a) / a
            ok = worse <= m["bound"]
            agree &= ok
            changes.setdefault(workload, {})[m["name"]] = worse
            print(f"  {workload:12s} {m['name']:16s} second set worse by "
                  f"{worse:+7.3f}  bound {m['bound']:5.2f}"
                  f"{'' if ok else '  BEYOND BOUND'}")
    return changes, agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="store the results in perfbench/baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, env, steady_1 = measure_set("first", spec)
    second, _, steady_2 = measure_set("second", spec)
    changes, agree = compare(spec, first, second)
    steady = steady_1 and steady_2 and agree
    if args.write:
        traced = {}
        for w in spec["workloads"]:
            result, extras = _run(w["name"], SEEDS[0], spec["run_seconds"], 1)
            traced[w["name"]] = {
                "seed": SEEDS[0],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "step_us_by_N": extras["step_us by N (computed from spans)"],
            }
        report = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
                  "environment": env, "first_set": first, "second_set": second,
                  "second_set_worse_by": changes, "steady": steady,
                  "traced": traced}
        (BENCH / "baseline.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
