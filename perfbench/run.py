"""Scenario benchmark for phflow.

    python3 perfbench/run.py --workload lq-flow --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the repository root.  One process runs one scenario at a time
through ``phflow.cli.run`` (a closed loop with one client, no ``--jobs``),
with BLAS pinned to ``BLAS_THREADS`` threads.  Whole rounds of the
workload's scenario kinds (see ``scenarios.py``) repeat for about
``--seconds``, and every scenario's files are checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
scenario twice, through ``cli.run`` and through the traced runners of
``traced.py``, checks that both write byte-identical files, prints the
per-layer metrics and writes the spans to ``perfbench/.out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload with and without tracing and prints every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# A run stops mid-round once it has used this many times --seconds, so a
# much slower program still ends in bounded time.
HARD_STOP_FACTOR = 3.0
# fresh-interpreter set-up probes per run; setup_s is their median.  They
# are spread evenly over the run, so that they sample the same machine
# phases as the scenarios, and are not timed as part of the rounds.
SETUP_PROBES = 9

# the keys of scenarios.WORKLOADS; that module imports numpy, which must
# not load before a setup probe starts its clock
WORKLOAD_NAMES = ("lq-flow", "nonlinear", "diagnostics")

# span name -> per-layer "<name>.s" metric (self seconds per traced scenario)
TIMED_SPANS = (
    "cli.build_ocp", "cli.write",
    "ocp.kkt_solve",
    "optimizer.assemble_optimizer", "optimizer.integrate_flow",
    "optimizer.convergence_report",
    "phcore.power_balance_audit", "phcore.shifted_passivity_audit",
    "phcore.accretivity_probe",
    "closedloop.assemble_plant", "closedloop.couple",
    "closedloop.simulate_closed_loop",
    "analysis.spectral_abscissa", "analysis.lyapunov_certificate",
    "analysis.saddle_blocks", "analysis.metric_generator",
    "analysis.nonnormality",
)
STEPPED_SPANS = ("optimizer.integrate_flow", "closedloop.simulate_closed_loop")


def _pin_blas():
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _probe_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_probe(config: str):
    """Child side of setup_s: import phflow.cli, load and build one config."""
    t0 = time.perf_counter()
    from phflow import cli

    cli.build_ocp(cli.load_config(config)["ocp"])
    print(repr(time.perf_counter() - t0))


def setup_probe_s(config: Path) -> float:
    """setup_s of one fresh interpreter (see setup_probe)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", str(config)],
        env=_probe_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "load": "closed loop, one client: one process runs one scenario at a time",
    }


def _call(fn, *args) -> tuple[int, str]:
    """Run one scenario with its console output captured; (exit code, log)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = fn(*args)
    except Exception:
        return -1, buf.getvalue() + traceback.format_exc()
    return code, buf.getvalue()


def _same_files(a: Path, b: Path) -> bool:
    """a and b hold the same files with identical bytes; the manifest holds
    a wall-clock time, so only its checksums are compared."""
    names_a = sorted(p.name for p in a.iterdir())
    if names_a != sorted(p.name for p in b.iterdir()):
        return False
    for name in names_a:
        if name == "manifest.json":
            files_a = json.loads((a / name).read_text())["files"]
            if files_a != json.loads((b / name).read_text())["files"]:
                return False
        elif (a / name).read_bytes() != (b / name).read_bytes():
            return False
    return True


def _kind_name(kind: dict) -> str:
    return (f"{kind['mode']} N={kind['N']} n={kind['n']} m={kind['m']} "
            f"steps={kind['steps']}")


def _scenario(cli, tracer, cfg, path: Path, work: Path, sid: int):
    """Run one scenario untraced (and traced, with a tracer) and check it.

    Returns the untraced wall time, the traced wall time and the failed
    checks as (layer, message) pairs; layer None marks a failure that
    the tracer has already counted at the layer that raised it.
    """
    from scenarios import check_outputs
    from traced import run_traced

    out, t_out = work / f"s{sid}", work / f"t{sid}"
    timed = {}

    def untraced():
        t = time.perf_counter()
        timed["code"], timed["log"] = _call(cli.run, path, out)
        timed["dt"] = time.perf_counter() - t

    def traced():
        tracer.start_scenario(sid, cfg["mode"], cfg["ocp"]["N"])
        t = time.perf_counter()
        timed["tcode"], timed["tlog"] = _call(run_traced, tracer, path, t_out)
        timed["traced_dt"] = time.perf_counter() - t

    # alternate which goes first, so neither gains from the other's caches
    order = (untraced, traced) if sid % 2 == 0 else (traced, untraced)
    for step in order if tracer else (untraced,):
        step()
    traced_failed = tracer is not None and timed["tcode"] != 0
    if timed["code"] != 0:
        problems = [(None if traced_failed else "cli",
                     f"exit code {timed['code']}\n{timed['log']}")]
    else:
        problems = check_outputs(cfg, out)
    if traced_failed:
        problems.append((None, f"traced run exit {timed['tcode']}\n{timed['tlog']}"))
    elif tracer and not problems and not _same_files(out, t_out):
        problems.append(("cli", "traced files differ from cli.run files"))
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(t_out, ignore_errors=True)
    return timed["dt"], timed.get("traced_dt", 0.0), problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from phflow import cli
    from scenarios import WORKLOADS, make_config, write_config
    from traced import Tracer

    kinds = WORKLOADS[name]
    tracer = Tracer() if trace else None
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    errors = defaultdict(int)
    times, setup_times = [], []
    kind_times = defaultdict(list)
    traced_total = untraced_total = 0.0
    attempted = failed = verified = 0
    try:
        first = write_config(make_config(kinds[0], seed, 0, 0), work / "s0.json")
        if not trace:
            setup_probe_s(first)  # warm-up: fills the OS file cache
        # in-process set-up, measured by setup_s and not timed again
        cli.build_ocp(cli.load_config(first)["ocp"])

        def probe_until(count):
            while not trace and len(setup_times) < count:
                setup_times.append(setup_probe_s(first))

        # whole rounds, as long as the next one is expected to end less
        # than half a round past --seconds
        timed_s, round_s, round_idx = 0.0, 0.0, 0
        while timed_s + 0.5 * round_s < seconds:
            round_s = 0.0
            for k, kind in enumerate(kinds):
                t_scenario = time.perf_counter()
                sid = round_idx * len(kinds) + k
                cfg = make_config(kind, seed, round_idx, k)
                path = write_config(cfg, work / f"s{sid}.json")
                dt, traced_dt, problems = _scenario(cli, tracer, cfg, path, work, sid)
                attempted += 1
                times.append(dt)
                kind_times[_kind_name(kind)].append(dt)
                untraced_total += dt
                traced_total += traced_dt
                if problems:
                    failed += 1
                    for layer, msg in problems:
                        if layer:
                            errors[layer] += 1
                        print(f"scenario {sid} ({kind['mode']} N={kind['N']}): "
                              f"{layer or 'traced'}: {msg}", file=sys.stderr)
                else:
                    verified += 1
                round_s += time.perf_counter() - t_scenario
                if timed_s + round_s > HARD_STOP_FACTOR * seconds:
                    break
                probe_until(SETUP_PROBES * min(1.0, (timed_s + round_s) / seconds))
            timed_s += round_s
            round_idx += 1
        probe_until(SETUP_PROBES)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    env = environment(seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {name}: {attempted} scenarios in {round_idx} rounds, "
          f"{timed_s:.2f} s timed, {failed} failed")
    print("median scenario_s by kind: " + json.dumps(
        {k: round(statistics.median(v), 4) for k, v in kind_times.items()}))
    if not trace:
        result["metrics"] = {
            "scenarios_per_s": {"value": verified / timed_s, "unit": "1/s"},
            "scenario_s.p50": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
            "pass_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        return result

    for layer, count in errors.items():
        tracer.errors[layer] += count
    metrics, by_n = layer_metrics(tracer, attempted)
    metrics["trace.overhead_s"] = ((traced_total - untraced_total) / attempted, "s")
    metrics["fail_frac"] = (failed / attempted, "ratio")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print("step_us by N (computed from spans): " + json.dumps(by_n, sort_keys=True))
    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "environment": env, "workload": name,
        "step_us_by_N": by_n, "spans": tracer.spans,
    }))
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return result


def layer_metrics(tracer, scenarios: int):
    """Per-layer metrics from the spans: self seconds per scenario, step
    counts and costs, computed sizes and per-layer error counts."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for s, child in zip(spans, covered):
        total_s[s["name"]] += s["end"] - s["start"]
        self_s[s["name"]] += s["end"] - s["start"] - child

    def largest(key, names=None):
        return max((s.get(key, 0) for s in spans
                    if names is None or s["name"] in names), default=0)

    m = {f"{name}.s": (self_s[name] / scenarios, "s") for name in TIMED_SPANS}
    by_n = {}
    for name in STEPPED_SPANS:
        steps = sum(s.get("steps", 0) for s in spans if s["name"] == name)
        m[f"{name}.steps"] = (steps / scenarios, "count")
        m[f"{name}.step_us"] = (1e6 * total_s[name] / steps if steps else 0.0, "us")
        per_n = defaultdict(lambda: [0.0, 0])
        for s in spans:
            if s["name"] == name:
                per_n[s["N"]][0] += s["end"] - s["start"]
                per_n[s["N"]][1] += s.get("steps", 0)
        by_n[name] = {str(n): round(1e6 * t / k, 3)
                      for n, (t, k) in sorted(per_n.items()) if k}
    m["optimizer.integrate_flow.state_bytes"] = (
        largest("state_bytes", ("optimizer.integrate_flow",)), "B-computed")
    m["optimizer.jacobian_bytes"] = (largest("jacobian_bytes"), "B-computed")
    m["closedloop.coupling_bytes"] = (largest("coupling_bytes"), "B-computed")
    m["ocp.constraint_nnz"] = (largest("constraint_nnz"), "count-computed")
    m["cli.write.bytes"] = (sum(s.get("bytes", 0) for s in spans) / scenarios,
                            "B-computed")
    for layer, count in tracer.errors.items():
        m[f"{layer}.errors"] = (count, "count")
    return m, by_n


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print(f"== {name} (trace {trace})")
            print("\n".join(lines[:-1]))
            for metric, v in result["metrics"].items():
                print(f"  {metric:42s} {v['value']:>16.6g} {v['unit']}")
                combined["metrics"][f"{name}:{metric}"] = v
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="CONFIG", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "phflow" / "cli.py").is_file():
        print(f"phflow sources not found under {SRC}", file=sys.stderr)
        return 2
    _pin_blas()
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
