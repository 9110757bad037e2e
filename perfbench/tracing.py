"""Traced runs: per-layer times and counts, measured from outside the package.

A traced run repeats the public calls one filter step makes (``predict_cloud``,
``Likelihood``, ``bayes_update``, ``denominator_mc``, ``sgd_fit``,
``metropolis_resample``) and, for the experiment workloads, the rest of a
replication (``simulate_truth``, ``write_checkpoint``, ``bootstrap_pf`` and
the oracle).  It records a span around each call, wraps ``substream`` in the
package's modules to count and time stream construction, and passes a timed
wrapper of ``density.eval`` to the calls that evaluate a mixture.  The traced
states or checkpoint files must equal those of an untraced run bit for bit;
when they do not, the per-layer numbers are marked invalid.
"""

from __future__ import annotations

import statistics
import sys
import time
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fbsdefilter as fb
from fbsdefilter.filtering import StepDiagnostics
from fbsdefilter.reference import grid_filter

from .workloads import Workload, check_experiment, check_filter, nproc, prepare

# Substring of a package warning's message -> per-layer counter name.
WARNING_KINDS = (
    ("negative kernel mass fraction", "filtering.negative_mass_warnings"),
    ("fixed point may not contract", "filtering.contraction_warnings"),
    ("bootstrap filter weight collapse", "filtering.pf_collapse_warnings"),
)
OTHER_WARNINGS = "warnings.other"

# The call of a run whose inputs the traced run uses (the first seeded call).
TRACED_CALL = 1


class Tracer:
    """Spans kept in memory: name, start, end, parent span and replication id.

    Self time of a span is its duration minus the time its child spans cover;
    it is accumulated per span name as spans close.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.rep = array("l")
        self.rep_id = -1
        self.counts: dict[str, float] = {}
        self._self_s: dict[int, float] = {}
        self._open: list[list] = []  # [span index, time covered by children]

    def begin(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._open[-1][0] if self._open else -1)
        self.rep.append(self.rep_id)
        self.end.append(0.0)
        self._open.append([len(self.start), 0.0])
        self.start.append(time.perf_counter())

    def finish(self) -> None:
        now = time.perf_counter()
        index, covered = self._open.pop()
        self.end[index] = now
        duration = now - self.start[index]
        nid = self.name_id[index]
        self._self_s[nid] = self._self_s.get(nid, 0.0) + duration - covered
        if self._open:
            self._open[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.finish()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self._self_s.get(nid, 0.0)

    def span_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else sum(1 for v in self.name_id if v == nid)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent), rep=np.array(self.rep))


@contextmanager
def traced_substream(tracer: Tracer):
    """Replace ``substream`` in every loaded package module by a timed wrapper."""
    original = fb.rngs.substream

    def substream(seed, purpose, *indices):
        tracer.begin("rngs.substream")
        try:
            return original(seed, purpose, *indices)
        finally:
            tracer.finish()

    patched = [mod for name, mod in list(sys.modules.items())
               if name.split(".")[0] == "fbsdefilter"
               and getattr(mod, "substream", None) is original]
    for mod in patched:
        mod.substream = substream
    try:
        yield substream
    finally:
        for mod in patched:
            mod.substream = original


class TracedDensity:
    """A density whose ``eval`` records a span and counts evaluated points."""

    def __init__(self, density, tracer: Tracer, points_counter: str | None = None):
        self._density = density
        self._tracer = tracer
        self._points_counter = points_counter
        self._kde = isinstance(density, fb.KernelDensity)

    def eval(self, x):
        n = len(x)  # predict and resample pass (n, dim) arrays
        tracer = self._tracer
        if self._points_counter:
            tracer.add(self._points_counter, n)
        if self._kde:
            tracer.add("kde.eval_points", n)
            # bytes of the (n, L, d) float64 difference array eval allocates
            temp = 8 * n * self._density.n_components * self._density.dim
            tracer.counts["kde.temp_bytes_max"] = max(
                tracer.counts.get("kde.temp_bytes_max", 0), temp)
        tracer.begin("kde.eval" if self._kde else "model.initial_density")
        try:
            return self._density.eval(x)
        finally:
            tracer.finish()

    def __getattr__(self, name):
        return getattr(self._density, name)


@dataclass
class LayerStats:
    final_losses: list[float] = field(default_factory=list)
    clamps: int = 0
    sgd_steps: int = 0
    accepted: int = 0
    proposed: int = 0


def traced_filter(model, observations, cfg: fb.FilterConfig, tracer: Tracer,
                  substream, stats: LayerStats, on_step=None) -> list:
    """The filter loop of ``run_filter`` rebuilt from the public step calls."""
    grid = cfg.grid
    with tracer.span("filtering.initialize"):
        state = fb.initialize(model, cfg)
    states = [state]
    if on_step is not None:
        on_step(state)
    for k in range(1, grid.steps + 1):
        prev = TracedDensity(state.density, tracer, "predict.density_points")
        with tracer.span("predict.predict_cloud"):
            prior = fb.predict_cloud(state.cloud, prev.eval, model, grid, k,
                                     cfg.predict, cfg.seed)
        with tracer.span("bayes.update"):
            lik = fb.Likelihood(observations[k - 1], observations[k], grid.dt(k),
                                model.obs_map, model.obs_noise(grid.time(k)))
            posterior = fb.bayes_update(prior, lik)
            denominator = fb.denominator_mc(prior, lik)
        rng = substream(cfg.seed, "sgd", k)
        with tracer.span("learn.sgd_fit"):
            kd, report = fb.sgd_fit(posterior, cfg.n_kernels, cfg.train, rng)
        stats.final_losses.append(report.final_loss)
        stats.clamps += report.bandwidth_clamps
        stats.sgd_steps += cfg.train.sgd_steps
        with tracer.span("filtering.resample"):
            cloud = fb.metropolis_resample(
                posterior, TracedDensity(kd, tracer),
                lambda pid: substream(cfg.seed, "resample", k, pid))
        # a Metropolis proposal equal to the incumbent has probability zero
        moved = int(np.any(cloud.locations != posterior.locations, axis=1).sum())
        stats.accepted += moved
        stats.proposed += cloud.n_particles
        diag = StepDiagnostics(denominator=denominator,
                               acceptance_rate=moved / cloud.n_particles,
                               negative_mass_fraction=kd.negative_mass_fraction(),
                               kd_mass=kd.mass())
        state = fb.FilterState(k=k, cloud=cloud, density=kd, diagnostics=diag)
        states.append(state)
        if on_step is not None:
            on_step(state)
    return states


def traced_experiment(cfg, out_dir: Path, tracer: Tracer, substream,
                      stats: LayerStats) -> None:
    """The replications of ``run_experiment``, serially, from public calls.

    Writes the same per-step checkpoint files into ``out_dir/rep_NNN``.
    """
    model = fb.get_model(cfg.model)
    grid = cfg.grid.build()
    for rep in range(cfg.replications):
        tracer.rep_id = rep
        rep_seed = fb.derive_seed(cfg.seed, "replication", rep)
        with tracer.span("model.simulate_truth"):
            _, obs = fb.simulate_truth(model, grid, rep_seed)
        rep_dir = out_dir / f"rep_{rep:03d}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        fcfg = cfg.filter_config(seed=rep_seed)

        def checkpoint(state, rep_dir=rep_dir):
            with tracer.span("filtering.checkpoint"):
                fb.write_checkpoint(state, rep_dir)
            tag = f"{state.k:04d}"
            tracer.add("filtering.checkpoint_bytes", sum(
                p.stat().st_size for p in rep_dir.glob(f"*_step_{tag}.*")))

        traced_filter(model, obs, fcfg, tracer, substream, stats, on_step=checkpoint)
        with tracer.span("filtering.bootstrap_pf"):
            fb.bootstrap_pf(model, grid, obs, fcfg.n_particles, rep_seed)
        if model.linear is not None:
            with tracer.span("filtering.kalman"):
                fb.kalman_filter(model.linear, grid, obs)
        else:
            with tracer.span("reference.grid_filter"):
                grid_filter(model, grid, obs)


# --- bit-identity checks -------------------------------------------------------------

def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def states_identical(expected: list, actual: list) -> str:
    """Empty string when two state sequences agree bit for bit, else the first difference."""
    if len(expected) != len(actual):
        return f"{len(actual)} states, expected {len(expected)}"
    for exp, act in zip(expected, actual):
        pairs = [("ids", exp.cloud.ids, act.cloud.ids),
                 ("locations", exp.cloud.locations, act.cloud.locations),
                 ("values", exp.cloud.values, act.cloud.values),
                 ("diagnostics", list(vars(exp.diagnostics).values()),
                  list(vars(act.diagnostics).values()))]
        if isinstance(exp.density, fb.KernelDensity):
            for name in ("centers", "weights", "bandwidths"):
                pairs.append((name, getattr(exp.density, name),
                              getattr(act.density, name, None)))
        for name, a, b in pairs:
            if not _same(a, b):
                return f"step {exp.k}: {name} differ"
    return ""


def dirs_identical(expected: Path, actual: Path, skip=()) -> str:
    """Empty string when the files under ``actual`` equal those under ``expected``.

    Both trees must hold the same files with equal bytes, apart from files
    whose names are listed in ``skip``.
    """
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.name not in skip}

    ours, theirs = files(actual), files(expected)
    if ours != theirs:
        return f"file sets differ: {sorted(map(str, ours ^ theirs))[:4]}"
    for rel in sorted(ours):
        if (expected / rel).read_bytes() != (actual / rel).read_bytes():
            return f"{rel} differs"
    return ""


# --- the traced run ---------------------------------------------------------------------

def count_warnings(records) -> dict[str, int]:
    counts = {name: 0 for _, name in WARNING_KINDS}
    counts[OTHER_WARNINGS] = 0
    for rec in records:
        text = str(rec.message)
        name = next((n for key, n in WARNING_KINDS
                     if key in text and issubclass(rec.category, UserWarning)),
                    OTHER_WARNINGS)
        counts[name] += 1
    return counts


@contextmanager
def recorded_warnings():
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        yield records


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@dataclass
class TracedRun:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]

    @property
    def valid(self) -> bool:
        return not self.problems


def run_traced(workload: Workload, seed: int, work_dir: Path,
               spans_path: Path) -> TracedRun:
    """Untraced reference run(s), then the traced run, then the comparison.

    run_filter: one untraced call, then the traced loop; states compared.
    run_experiment: a pooled call (threads = nproc) and a serial call, whose
    artifacts must match byte for byte, then the traced replications, whose
    checkpoint files must match the pooled call's.
    """
    inputs = prepare(workload, seed, TRACED_CALL)
    tracer = Tracer()
    stats = LayerStats()
    problems: list[str] = []
    layer = {"harness.run_experiment_s": 0.0, "harness.thread_speedup": 0.0}

    if workload.entry == "run_filter":
        cfg = workload.filter_config(inputs.seed)
        with recorded_warnings() as records:
            expected, base_wall = _timed(
                lambda: fb.run_filter(inputs.model, inputs.observations, cfg))
        reps = [check_filter(workload, inputs, expected)]
        with traced_substream(tracer) as substream:
            tracer.rep_id = 0
            actual, traced_wall = _timed(lambda: traced_filter(
                inputs.model, inputs.observations, cfg, tracer, substream, stats))
        diff = states_identical(expected, actual)
        if diff:
            problems.append(f"traced states differ from run_filter: {diff}")
    else:
        pooled_dir, serial_dir, traced_dir = (work_dir / "pooled", work_dir / "serial",
                                              work_dir / "traced")
        pooled_cfg = workload.experiment_config(inputs.seed, pooled_dir, nproc())
        with recorded_warnings() as records:
            _, pooled_wall = _timed(lambda: fb.run_experiment(pooled_cfg))
        reps, _ = check_experiment(workload, pooled_dir)
        serial_cfg = workload.experiment_config(inputs.seed, serial_dir, 1)
        _, base_wall = _timed(lambda: fb.run_experiment(serial_cfg))
        diff = dirs_identical(serial_dir, pooled_dir, skip={"config.json"})
        if diff:
            problems.append(f"pooled and serial artifacts differ: {diff}")
        layer["harness.run_experiment_s"] = pooled_wall
        layer["harness.thread_speedup"] = base_wall / pooled_wall
        with traced_substream(tracer) as substream:
            _, traced_wall = _timed(lambda: traced_experiment(
                serial_cfg, traced_dir, tracer, substream, stats))
        diff = dirs_identical(pooled_dir, traced_dir,
                              skip={"summary.csv", "config.json", "errors_vs_oracle.csv"})
        if diff:
            problems.append(f"traced checkpoints differ from run_experiment: {diff}")

    tracer.write(spans_path)
    failed = sum(not r.ok for r in reps)
    problems += [f"replication {i}: {r.message}" for i, r in enumerate(reps) if not r.ok]
    sgd_s = tracer.self_s("learn.sgd_fit")
    layer.update({
        "rngs.substream_calls": tracer.span_count("rngs.substream"),
        "rngs.substream_s": tracer.self_s("rngs.substream"),
        "predict.predict_cloud_s": tracer.self_s("predict.predict_cloud"),
        "predict.density_points": tracer.counts.get("predict.density_points", 0),
        "kde.eval_s": tracer.self_s("kde.eval"),
        "kde.eval_calls": tracer.span_count("kde.eval"),
        "kde.eval_points": tracer.counts.get("kde.eval_points", 0),
        "kde.temp_bytes_max": tracer.counts.get("kde.temp_bytes_max", 0),
        "bayes.update_s": tracer.self_s("bayes.update"),
        "learn.sgd_fit_s": sgd_s,
        "learn.us_per_sgd_step": 1e6 * sgd_s / max(stats.sgd_steps, 1),
        "learn.final_loss_median": (statistics.median(stats.final_losses)
                                    if stats.final_losses else 0.0),
        "learn.bandwidth_clamps": stats.clamps,
        "filtering.resample_s": tracer.self_s("filtering.resample"),
        "filtering.acceptance_rate": stats.accepted / max(stats.proposed, 1),
        "filtering.checkpoint_s": tracer.self_s("filtering.checkpoint"),
        "filtering.checkpoint_bytes": tracer.counts.get("filtering.checkpoint_bytes", 0),
        "filtering.bootstrap_pf_s": tracer.self_s("filtering.bootstrap_pf"),
        "filtering.kalman_s": tracer.self_s("filtering.kalman"),
        "reference.grid_filter_s": tracer.self_s("reference.grid_filter"),
        "trace.overhead_frac": traced_wall / base_wall - 1.0,
        "trace.valid": 0 if problems else 1,
    })
    layer.update(count_warnings(records))
    return TracedRun(layer, len(reps), failed, problems)
