"""Workload definitions, output checks and the timed (untraced) runs.

The benchmark drives the package only through its public entry points:
``run_experiment`` for the two experiment workloads and ``run_filter`` for
the wide filter workload.  Each run is a closed loop of entry calls, one
after another.  Call 0 always uses the workload's fixed accuracy panel, so
``err_vs_oracle`` is the same number on every seed of one commit; later calls
take their inputs from ``--seed`` (see README.md for why).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fbsdefilter as fb
from fbsdefilter.harness import ExperimentConfig, FilterSettings, GridSettings

# Seed of the fixed accuracy panel that call 0 of every run uses.
PANEL_SEED = 20240521
# A replication whose median scaled error exceeds this many oracle standard
# deviations fails the output checks.
ERR_GATE = 1.0
# Calls every run makes: the accuracy panel plus at least one seeded call.
MIN_CALLS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    """One fixed filter shape and the public entry point that runs it."""

    name: str
    model: str
    entry: str  # "run_experiment" or "run_filter"
    n_particles: int
    mc_samples: int
    n_kernels: int
    sgd_steps: int
    variant: str = "right_point_fixed_point"
    steps: int = 10
    replications: int = 1  # per entry call

    def grid(self) -> fb.TimeGrid:
        return fb.TimeGrid.uniform(horizon=1.0, steps=self.steps)

    def experiment_config(self, seed: int, out_dir: Path, threads: int) -> ExperimentConfig:
        return ExperimentConfig(
            model=self.model, seed=seed, out_dir=str(out_dir),
            grid=GridSettings(horizon=1.0, steps=self.steps),
            filter=FilterSettings(n_particles=self.n_particles,
                                  mc_samples=self.mc_samples,
                                  n_kernels=self.n_kernels,
                                  sgd_steps=self.sgd_steps, variant=self.variant),
            replications=self.replications, threads=threads)

    def filter_config(self, seed: int) -> fb.FilterConfig:
        return fb.FilterConfig(
            grid=self.grid(), n_particles=self.n_particles, n_kernels=self.n_kernels,
            predict=fb.PredictConfig(mc_samples=self.mc_samples, variant=self.variant),
            train=fb.TrainConfig(sgd_steps=self.sgd_steps), seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("crit7-linear1d", "linear1d", "run_experiment", n_particles=2000,
             mc_samples=64, n_kernels=32, sgd_steps=4000, replications=2),
    # Runnable by name but not listed in BENCHMARK.json: its step times follow
    # the host's memory bandwidth and spread past the 0.25 bound between runs
    # of the same code (see README.md).
    Workload("wide-linear2d", "linear2d", "run_filter", n_particles=10000,
             mc_samples=32, n_kernels=32, sgd_steps=4000),
    # left_point: under the default variant 4 of 8 seeds abort with
    # ContractionError, and a workload must not reward aborting.
    Workload("experiment-doublewell", "doublewell1d", "run_experiment",
             n_particles=400, mc_samples=32, n_kernels=24, sgd_steps=2000,
             variant="left_point", replications=2),
)}


def input_seed(workload: Workload, seed: int, call: int, purpose: str) -> int:
    """64-bit seed of one input of one call; call 0 is the accuracy panel."""
    base = PANEL_SEED if call == 0 else seed
    tag = f"{workload.name}|{base}|{call}|{purpose}".encode("ascii")
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "little")


@dataclass
class CallInputs:
    """What the program receives for one entry call."""

    model: fb.StateSpaceModel
    seed: int                               # experiment seed or filter seed
    observations: np.ndarray | None = None  # run_filter only


def prepare(workload: Workload, seed: int, call: int) -> CallInputs:
    """Generate the inputs of one call (model build and ``simulate_truth``).

    For the experiment workloads ``run_experiment`` simulates its own data
    from the experiment seed; the paths are simulated here as well so that
    set-up time covers ``simulate_truth`` for every workload.
    """
    model = fb.get_model(workload.model)
    grid = workload.grid()
    if workload.entry == "run_filter":
        _, obs = fb.simulate_truth(model, grid, input_seed(workload, seed, call, "obs"))
        return CallInputs(model, input_seed(workload, seed, call, "filter"), obs)
    exp_seed = input_seed(workload, seed, call, "experiment")
    for rep in range(workload.replications):
        fb.simulate_truth(model, grid, fb.derive_seed(exp_seed, "replication", rep))
    return CallInputs(model, exp_seed)


# --- output checks ----------------------------------------------------------------

@dataclass
class RepResult:
    """Checked outputs of one replication."""

    ok: bool
    errors: list[float] = field(default_factory=list)  # scaled error, steps 1..K
    message: str = ""


def scaled_errors(post_means: np.ndarray, oracle_means: np.ndarray,
                  oracle_stds: np.ndarray) -> list[float]:
    """max_j |posterior mean_j - oracle mean_j| / oracle std_j for steps 1..K."""
    err = np.abs(post_means[1:] - oracle_means[1:]) / oracle_stds[1:]
    return [float(v) for v in err.max(axis=1)]


def _judge(errors: list[float], acceptance: np.ndarray, post_means: np.ndarray) -> str:
    """Empty string when a replication's outputs pass, else the reason."""
    if not np.all(np.isfinite(post_means)):
        return "non-finite posterior mean"
    if not np.all((acceptance > 0.0) & (acceptance <= 1.0)):
        return f"acceptance rate outside (0, 1]: {acceptance.tolist()}"
    if not errors or not all(math.isfinite(e) for e in errors):
        return "no finite error against the oracle"
    median = statistics.median(errors)
    if median >= ERR_GATE:
        return f"median scaled error {median:.3g} >= {ERR_GATE}"
    return ""


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def _columns(table: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    keys = sorted(k for k in table if k.startswith(prefix))
    return np.stack([table[k] for k in keys], axis=1)


def checkpoint_names(steps: int) -> set[str]:
    """Files ``write_checkpoint`` leaves for steps 0..K (no mixture at step 0)."""
    names = set()
    for k in range(steps + 1):
        tag = f"{k:04d}"
        names |= {f"particles_step_{tag}.csv", f"diagnostics_step_{tag}.json"}
        if k:
            names.add(f"kd_step_{tag}.txt")
    return names


def check_experiment(workload: Workload, out_dir: Path) -> tuple[list[RepResult], list[float]]:
    """Check every replication directory; also return per-step latencies.

    A step's latency is the gap between the modification times of two
    consecutive diagnostics files, which ``write_checkpoint`` writes last.
    """
    k_max = workload.steps
    error_table = out_dir / "errors_vs_oracle.csv"
    if not error_table.is_file() or _read_csv(error_table)["k"].size != k_max + 1:
        return [RepResult(False, message="errors_vs_oracle.csv missing or short")] \
            * workload.replications, []
    wanted = checkpoint_names(k_max)
    results, latencies = [], []
    for rep in range(workload.replications):
        rep_dir = out_dir / f"rep_{rep:03d}"
        try:
            missing = wanted - {p.name for p in rep_dir.iterdir()}
            if missing:
                results.append(RepResult(False, message=f"{len(missing)} checkpoint files missing"))
                continue
            table = _read_csv(rep_dir / "summary.csv")
            post = _columns(table, "post_mean_x")
            errors = scaled_errors(post, _columns(table, "oracle_mean_x"),
                                   _columns(table, "oracle_std_x"))
            message = _judge(errors, table["acceptance_rate"][1:], post)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            results.append(RepResult(False, message=f"unreadable outputs: {exc!r}"))
            continue
        results.append(RepResult(not message, errors, message))
        stamps = [os.stat(rep_dir / f"diagnostics_step_{k:04d}.json").st_mtime_ns
                  for k in range(k_max + 1)]
        latencies += [(b - a) * 1e-9 for a, b in zip(stamps, stamps[1:])]
    return results, latencies


def posterior_means(states) -> np.ndarray:
    """Mixture means after each step (the initial cloud mean at step 0)."""
    rows = [states[0].cloud.locations.mean(axis=0)]
    rows += [s.density.moments()[0] for s in states[1:]]
    return np.stack(rows)


def check_filter(workload: Workload, inputs: CallInputs, states) -> RepResult:
    if len(states) != workload.steps + 1:
        return RepResult(False, message=f"{len(states)} states for {workload.steps} steps")
    try:
        post = posterior_means(states)
    except fb.FilterError as exc:
        return RepResult(False, message=f"posterior moments failed: {exc}")
    kal = fb.kalman_filter(inputs.model.linear, workload.grid(), inputs.observations)
    errors = scaled_errors(post, kal.means, kal.stds())
    acceptance = np.array([s.diagnostics.acceptance_rate for s in states[1:]])
    message = _judge(errors, acceptance, post)
    return RepResult(not message, errors, message)


# --- timed runs -----------------------------------------------------------------------

@dataclass
class CallResult:
    wall_s: float
    reps: list[RepResult]
    latencies: list[float]


def timed_call(workload: Workload, inputs: CallInputs, out_dir: Path,
               threads: int) -> CallResult:
    """One entry call, timed with tracing off, then its outputs checked.

    An exception from the call fails every replication it covered.
    """
    stamps: list[float] = []
    start = time.perf_counter()
    try:
        if workload.entry == "run_filter":
            states = fb.run_filter(inputs.model, inputs.observations,
                                   workload.filter_config(inputs.seed),
                                   on_step=lambda s: stamps.append(time.perf_counter()))
        else:
            fb.run_experiment(workload.experiment_config(inputs.seed, out_dir, threads))
    except Exception as exc:  # the benchmark records the failure and carries on
        wall = time.perf_counter() - start
        traceback.print_exc()
        failed = RepResult(False, message=f"entry call raised {exc!r}")
        return CallResult(wall, [failed] * workload.replications, [])
    wall = time.perf_counter() - start
    if workload.entry == "run_filter":
        rep = check_filter(workload, inputs, states)
        return CallResult(wall, [rep], list(np.diff(stamps)))
    reps, latencies = check_experiment(workload, out_dir)
    return CallResult(wall, reps, latencies)


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with fewer than eleven samples
    no percentile qualifies and the maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


@dataclass
class TimedRun:
    calls: list[CallResult]
    setup_s: float
    peak_rss_mb: float

    @property
    def reps(self) -> list[RepResult]:
        return [r for c in self.calls for r in c.reps]

    def metrics(self, workload: Workload) -> dict[str, float]:
        ok_reps = sum(r.ok for r in self.reps)
        wall = sum(c.wall_s for c in self.calls)
        latencies = [v for c in self.calls for v in c.latencies]
        panel = [e for r in self.calls[0].reps for e in r.errors]
        tail, _, _ = tail_percentile(latencies)
        return {
            "setup_s": self.setup_s,
            "steps_per_s": ok_reps * workload.steps / wall,
            "step_s_p50": statistics.median(latencies) if latencies else 0.0,
            "step_s_tail": tail,
            "err_vs_oracle": statistics.median(panel) if panel else 0.0,
            "ok_frac": ok_reps / len(self.reps),
            "peak_rss_mb": self.peak_rss_mb,
        }


def peak_rss_mb() -> float:
    """Peak resident set size of this process alone (children excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workload: Workload, seed: int, seconds: float, work_dir: Path,
              setup_s: float) -> TimedRun:
    """Entry calls one after another until ``seconds`` have passed.

    Every run makes at least MIN_CALLS calls: call 0 on the accuracy panel
    and the rest on inputs from ``seed``.  Inputs are generated before each
    call's clock starts; outputs are checked after it stops.
    """
    calls: list[CallResult] = []
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < seconds:
        call = len(calls)
        inputs = prepare(workload, seed, call)
        out_dir = work_dir / f"call_{call:03d}"
        calls.append(timed_call(workload, inputs, out_dir, nproc()))
        shutil.rmtree(out_dir, ignore_errors=True)
    return TimedRun(calls, setup_s, peak_rss_mb())
