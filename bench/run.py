"""Benchmark of the xaimeta meta-evaluation sweep.

    python3 bench/run.py --workload desk --seed 1 --seconds 55 --trace 0

Runs whole meta-evaluations of one workload (bench/workloads.py) in this
single process for about `--seconds` seconds, each with its own master
seed derived from `--seed`, and checks every output.  End-to-end times are
scaled to a reference machine speed sampled while they run (bench/speed.py).
The last line of standard output is one JSON object: with `--trace 0` it carries the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run
(bench/tracer.py), measured on meta-evaluations that alternate with
untraced ones of the same seed.  Exits non-zero, printing no result, when
the program cannot be imported from `src/` next to this directory.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from speed import Speedometer, scale
from tracer import Tracer, patched
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_UNITS = 3
IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import numpy, xaimeta; from xaimeta import report, runner; "
    "print(time.perf_counter() - start)"
)
EXIT_NO_PROGRAM = 2
ADVERSARY_EXACT = (1.0, 0.0, 1.0, 0.0)
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "estimates_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}
# failed_frac is printed, but not gated as a metric: it is 0 on a healthy
# commit, and the result's "attempted" and "failed" carry it exactly
GATED = ("setup_s", "wall_s", "estimates_per_s", "peak_rss_mb")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import numpy and xaimeta from ROOT/src; returns the import time in seconds."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    src = ROOT / "src"
    started = time.perf_counter()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import xaimeta
    from xaimeta import report, runner  # noqa: F401

    if Path(xaimeta.__file__).resolve().parent.parent != src:
        raise ImportError(f"xaimeta imported from {xaimeta.__file__}, not from {src}")
    return time.perf_counter() - started


def import_s(speedometer):
    """Median time to import numpy and xaimeta in a fresh interpreter, scaled."""
    times = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(scale(float(probe.stdout), speedometer.checkpoint()))
    return statistics.median(times)


def environment():
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "jobs": 1,
    }


def unit_seed(seed, index):
    """Master seed of the index-th meta-evaluation of a run."""
    return seed * 1000 + index


def timed(fn, sink):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)

    return wrapper


def run_unit(workload, master_seed, out_dir, tracer=None):
    """One meta-evaluation plus report write; returns its timings and checks."""
    from xaimeta import report, runner
    from xaimeta.runconfig import config_to_tables

    config = workload.config(master_seed)
    cells = [f"{e}/{t}" for e in config.estimators for t in config.tests]
    setup_times = []
    results, rows, paths, error = {}, [], {}, None
    with tracer.installed() if tracer else nullcontext():
        with patched(runner, "build_setup", timed(runner.build_setup, setup_times)):
            start = time.perf_counter()
            try:
                if workload.sanity is None:
                    results, paths = runner.run_benchmark(config, jobs=1, out_dir=out_dir)
                else:
                    k, iterations = workload.sanity
                    outcome = runner.run_sanity(config, jobs=1, k=k, iterations=iterations)
                    results, rows = outcome.results, outcome.rows
                    paths = report.write_report(
                        results,
                        config_echo=config_to_tables(config),
                        master_seed=master_seed,
                        out_dir=out_dir,
                    )
            except Exception as exc:  # a failed meta-evaluation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
    setup_s = sum(setup_times)
    wall_s = elapsed - setup_s
    estimates = sum(sum(cell.diagnostics["total"]) for cell in results.values())
    failures = check_outputs(cells, results, paths, error)
    summary = Path(paths["summary"]) if "summary" in paths else None
    return {
        "seed": master_seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "estimates": estimates,
        "cells": cells,
        "failures": failures,
        "summary_sha256": hashlib.sha256(summary.read_bytes()).hexdigest()
        if summary and summary.is_file()
        else None,
        "mc": {f"{e}/{t}": cell.mean.mc for (e, t), cell in sorted(results.items())},
        "sanity": {f"{r['estimator']}/{r['test']}/{r['criterion']}": r["value"] for r in rows},
        "window_misses": [f"{r['estimator']}/{r['test']}/{r['criterion']}" for r in rows if not r["ok"]],
    }


def check_outputs(cells, results, paths, error):
    """Cell -> reason, for every cell that raised or broke an output check."""
    if error is not None:
        return dict.fromkeys(cells, error)
    missing = [name for name in ("results", "summary", "areagraph") if not _written(paths.get(name))]
    if missing:
        return dict.fromkeys(cells, f"report files not written: {missing}")
    failures = {}
    for name in cells:
        cell = results.get(tuple(name.split("/")))
        if cell is None:
            failures[name] = "no result"
            continue
        for vector in (cell.mean, *cell.per_iteration):
            values = (*vector.entries(), vector.mc)
            if not all(0.0 <= v <= 1.0 for v in values):
                failures[name] = f"criterion or MC outside [0, 1]: {values}"
        if cell.estimator_id == "adversarial_deterministic":
            got = tuple(float(v) for v in cell.mean.entries())
            if got != ADVERSARY_EXACT:
                failures[name] = f"perturbation-blind adversary scored {got}, not {ADVERSARY_EXACT}"
    return failures


def _written(path):
    return path is not None and Path(path).is_file() and Path(path).stat().st_size > 0


def measure(workload, seed, seconds, trace, out_root, speedometer):
    """Run meta-evaluations for about `seconds`; returns (units, traced units, tracer)."""
    deadline = time.perf_counter() + seconds
    units, traced, tracer, steps = [], [], None, []
    if trace:
        tracer = Tracer(run_id=f"{workload.name}-{seed}-{os.getpid()}")
    index = 0
    while True:
        step_started = time.perf_counter()
        seed_i = unit_seed(seed, index)
        with speedometer.sampling() as samples:
            unit = run_unit(workload, seed_i, out_root / f"unit{index}")
        unit["task_s"] = statistics.median(samples)
        units.append(unit)
        if trace:
            traced.append(run_unit(workload, seed_i, out_root / f"unit{index}-traced", tracer))
        index += 1
        steps.append(time.perf_counter() - step_started)
        enough = len(units) >= (1 if trace else MIN_UNITS)
        if enough and time.perf_counter() + statistics.median(steps) > deadline:
            break
    return units, traced, tracer


def end_to_end(units, import_s):
    """The end-to-end figures, with times scaled to the reference speed."""
    failed = sum(len(u["failures"]) for u in units)
    attempted = sum(len(u["cells"]) for u in units)

    def scaled(unit, name):
        return scale(unit[name], unit["task_s"])

    return {
        "setup_s": import_s + statistics.median(scaled(u, "setup_s") for u in units),
        "wall_s": statistics.median(scaled(u, "wall_s") for u in units),
        "estimates_per_s": statistics.median(u["estimates"] / scaled(u, "wall_s") for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        first_import_s = load_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    speedometer = Speedometer()
    imports = import_s(speedometer)
    out_root = OUT / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        units, traced, tracer = measure(workload, args.seed, args.seconds, args.trace, out_root, speedometer)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    for untraced, twin in zip(units, traced):
        if twin["summary_sha256"] != untraced["summary_sha256"]:
            twin["failures"] = dict.fromkeys(twin["cells"], "summary.csv differs from the untraced run")
    for i, unit in enumerate(units):
        print("unit " + json.dumps(unit, sort_keys=True))
        if traced:
            print("traced " + json.dumps(traced[i], sort_keys=True))
    failures = sum(len(u["failures"]) for u in units + traced)
    attempted = sum(len(u["cells"]) for u in units + traced)
    misses = sum(len(u["window_misses"]) for u in units)
    figures = end_to_end(units, imports)
    print(
        f"{workload.name} seed {args.seed}: {len(units)} meta-evaluations"
        + (f" (+{len(traced)} traced)" if traced else "")
        + f", {attempted} cells, {failures} failed, first import {first_import_s:.3f} s"
        + (f", {misses} sanity rows outside SANITY_EXPECTATIONS (recorded, not failed)" if misses else "")
    )
    for name, value in figures.items():
        print(f"  {name:<16} {value:>14.6f} {UNITS[name]}")
    print(
        f"  times scaled to the reference speed; median task_s "
        f"{statistics.median(u['task_s'] for u in units):.6f} s, "
        f"unscaled wall_s {statistics.median(u['wall_s'] for u in units):.6f} s"
    )

    if args.trace:
        overhead = statistics.median(t["wall_s"] / u["wall_s"] for u, t in zip(units, traced)) - 1.0
        layers = tracer.metrics(units=len(traced))
        layers["trace.overhead_frac"] = (overhead, "ratio")
        for name in ("trace.overhead_frac", "net.self_s", "explain.self_s", "estimators.self_s"):
            print(f"  {name:<16} {layers[name][0]:>14.6f} {layers[name][1]}")
        trace_file = OUT / f"trace-{workload.name}-{args.seed}.jsonl"
        write_trace(trace_file, env, tracer, layers, units, traced)
        print(f"  trace written to {trace_file.relative_to(ROOT)}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": figures[name], "unit": UNITS[name]} for name in GATED}
    result = {"correct": failures == 0, "attempted": attempted, "failed": failures, "metrics": metrics}
    print(json.dumps(result))
    return 0


def write_trace(path, env, tracer, layers, units, traced):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "env", "run": tracer.run_id, **env}) + "\n")
        for unit in units:
            handle.write(json.dumps({"type": "unit", "run": tracer.run_id, **unit}) + "\n")
        for unit in traced:
            handle.write(json.dumps({"type": "traced_unit", "run": tracer.run_id, **unit}) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps({"type": "span", **span}) + "\n")
        for row in tracer.layer_table():
            handle.write(json.dumps({"type": "function", "run": tracer.run_id, **row}) + "\n")
        handle.write(
            json.dumps({"type": "metrics", "run": tracer.run_id, **{k: v for k, (v, _) in layers.items()}})
            + "\n"
        )


if __name__ == "__main__":
    sys.exit(main())
