#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports the package from ``src/`` of the
same checkout.  With ``--trace 0`` it prints the end-to-end metrics of a
timed run, with ``--trace 1`` the per-layer metrics of a traced run; the
metric names and units are those listed in ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-ups measured per timed run; the median is reported.
SETUP_REPEATS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: do the set-up of one run and exit (timed by the parent)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure_setup(args) -> float:
    """Median wall time of fresh processes doing a run's set-up.

    Each covers interpreter start, imports, model build and the simulation of
    the first call's inputs.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def result_line(correct: bool, attempted: int, failed: int,
                values: dict[str, float], units: dict[str, str]) -> str:
    """The final JSON line; a missing, extra or non-finite metric makes it incorrect."""
    if set(values) != set(units):
        print(f"metric set differs from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
        correct = False
    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            print(f"{name} is not finite")
            correct, value = False, 0.0
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def print_table(values: dict[str, float], units: dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"{name:34s} {values.get(name, float('nan')):>16.6g} {unit}")


def timed(args, workload, work_dir: Path) -> str:
    from perfbench import workloads

    setup_s = measure_setup(args)
    run = workloads.run_timed(workload, args.seed, args.seconds, work_dir, setup_s)
    units = metric_units("end_to_end")
    values = run.metrics(workload)
    reps = run.reps
    failed = sum(not r.ok for r in reps)
    latencies = [v for c in run.calls for v in c.latencies]
    _, pct, count = workloads.tail_percentile(latencies)
    print(f"workload {workload.name} seed {args.seed}: {len(run.calls)} calls, "
          f"{len(reps)} replications, {failed} failed "
          f"(failed_frac {failed / len(reps):.6g})")
    for i, call in enumerate(run.calls):
        print(f"call {i}: {call.wall_s:.3f} s, {sum(r.ok for r in call.reps)} of "
              f"{len(call.reps)} replications ok")
    for i, rep in enumerate(reps):
        if not rep.ok:
            print(f"replication {i} failed: {rep.message}")
    print(f"step_s_tail is the p{pct:.4g} of {count} step latencies")
    print_table(values, units)
    return result_line(failed == 0, len(reps), failed, values, units)


def traced(args, workload, work_dir: Path) -> str:
    from perfbench import tracing

    spans = OUT / "spans" / f"{workload.name}-seed{args.seed}.npz"
    units = metric_units("per_layer")
    try:
        run = tracing.run_traced(workload, args.seed, work_dir, spans)
    except Exception:  # an entry call raised: every replication failed
        traceback.print_exc()
        print("INVALID: an entry call of the traced run raised")
        return result_line(False, workload.replications, workload.replications, {}, units)
    print(f"workload {workload.name} seed {args.seed}: traced run, spans in {spans}")
    for problem in run.problems:
        print(f"INVALID: {problem}")
    print_table(run.metrics, units)
    return result_line(run.valid, run.attempted, run.failed, run.metrics, units)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fbsdefilter" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.prepare(workload, args.seed, 0)
        return 0
    work_dir = OUT / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        line = (traced if args.trace else timed)(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
