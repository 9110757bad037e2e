"""Experiment runner: rate studies, recurrence diagnostic, artifact bundles.

Replications and sweep points are independent jobs; they may run in forked
worker processes, and reports are assembled by an ordered reduce, so outputs
are byte-identical for any worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict, is_dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .artifacts import coordinate_columns, write_csv, write_json
from .bayes import DENSITY_FLOOR, denominator_mc, likelihood_density, step_likelihood
from .errors import ConfigurationError, DegenerateObservationError, FilterError, \
    check_count, check_positive
from .filtering import FilterConfig, bootstrap_pf, kalman_filter, run_filter, \
    write_checkpoint
from .kde import KernelDensity, mse_rate_exponent, parzen_estimate
from .learn import LossReport, TrainConfig
from .model import StateSpaceModel, TimeGrid, advance, backward_sample, \
    check_drift_divergence, euler_step, get_model, ou_exact_coupled_step, simulate_truth
from .predict import ParticleCloud, PredictConfig, check_contraction, predict_value
from .reference import denominator_oracle, grid_filter, \
    prediction_oracle_left_point
from .rngs import derive_seed, substream

Array = np.ndarray

AXES = ("L", "M", "N", "dt")

# Fewest replications behind a slope claim.
REPLICATION_FLOOR = 50


def check_slope_claim(replications: int) -> None:
    """Refuse a study with fewer than ``REPLICATION_FLOOR`` replications, too
    few to carry a slope claim, or a count of them that is not an integer."""
    check_count("replications", replications, low=None)
    if replications < REPLICATION_FLOOR:
        raise ConfigurationError(
            f"a rate study needs replications >= {REPLICATION_FLOOR} for a slope "
            f"claim (got {replications})")


def check_sweep_grid(values, axis: str | None = None, horizon: float | None = None,
                     in_order: bool = False) -> list:
    """``values`` in increasing order, refused unless a slope can be fitted on them.

    The slope is fitted in log-log space, so the grid needs at least 4 distinct,
    finite, positive values.  On a count axis (L, M, N) each value must pass
    ``check_count``; on the dt axis each step must divide ``horizon``.  With no
    ``axis`` only the axis-free part is checked.  ``in_order`` also refuses
    values not given in increasing order.
    """
    if axis in ("L", "M", "N"):
        values = [int(check_count(f"{axis} sweep value", v)) for v in values]
    else:
        values = [check_positive("sweep values", v) for v in values]
    grid, given = sorted(values), ", ".join(f"{v:g}" for v in values)
    if len(grid) < 4 or len(set(grid)) < len(grid):
        raise ConfigurationError(f"sweep grid needs >= 4 points, all distinct; got {given}")
    if in_order and grid != values:
        raise ConfigurationError(f"sweep grid must be in increasing order, got {given}")
    if axis == "dt":
        for dt in grid:
            steps = horizon / dt
            if not (1 <= steps < math.inf and math.isclose(steps, round(steps),
                                                            rel_tol=1e-9)):
                raise ConfigurationError(
                    f"dt sweep step {dt:g} does not divide the horizon {horizon:g}")
    return grid


class LoglogFit(NamedTuple):
    slope: float
    intercept: float
    half_width: float


def fit_loglog_slope(xs, ys) -> LoglogFit:
    """Least-squares line through (log x, log y).

    ``half_width`` is twice the standard error of the slope; inputs must be
    positive.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 3:
        raise ConfigurationError("need at least 3 matching points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ConfigurationError("log-log fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    lx_c = lx - lx.mean()
    sxx = float((lx_c * lx_c).sum())
    slope = float((lx_c * ly).sum() / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    se = math.sqrt(float((resid * resid).sum()) / (xs.size - 2) / sxx)
    return LoglogFit(slope=slope, intercept=intercept, half_width=2.0 * se)


@dataclass
class ConvergenceReport:
    """One swept axis: its raw table, and the errors and rate derived from it.

    The inputs are ``axis``, ``values``, ``raw``, ``statistic``,
    ``theory_slope``, ``notes`` and ``g_hat``.  ``errors``, ``stderrs``,
    ``replications``, ``slope``, ``intercept`` and ``slope_half_width`` are
    derived from ``raw``, so the report cannot disagree with its own table.
    """

    axis: str
    values: Array
    raw: Array  # (replications, len(values)) squared errors
    statistic: str  # "mse" or "rmse"
    theory_slope: float
    notes: str = ""
    g_hat: float | None = None
    errors: Array = field(init=False)
    stderrs: Array = field(init=False)
    replications: int = field(init=False)
    slope: float = field(init=False)
    intercept: float = field(init=False)
    slope_half_width: float = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.raw = np.asarray(self.raw, dtype=float)
        if self.axis not in AXES:
            raise ConfigurationError(f"axis must be one of {AXES}")
        if self.raw.ndim != 2 or self.raw.shape[1] != self.values.size:
            raise ConfigurationError("raw data must be (replications, len(values))")
        self.replications = self.raw.shape[0]
        check_slope_claim(self.replications)
        check_sweep_grid(self.values, in_order=True)
        mse = self.raw.mean(axis=0)
        mse_se = self.raw.std(axis=0, ddof=1) / math.sqrt(self.replications)
        if self.statistic == "mse":
            self.errors, self.stderrs = mse, mse_se
        elif self.statistic == "rmse":
            self.errors = np.sqrt(mse)
            self.stderrs = mse_se / (2.0 * np.maximum(self.errors, 1e-300))
        else:
            raise ConfigurationError("statistic must be 'mse' or 'rmse'")
        self.slope, self.intercept, self.slope_half_width = \
            fit_loglog_slope(self.values, self.errors)


# The jobs of the pool this worker process was forked for.
_worker_jobs: list[Callable[[], object]] = []


def _init_worker(jobs: list[Callable[[], object]]) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _run_job(job: Callable[[], object]):
    """One job: its result or error, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = job(), None
        except Exception as exc:  # raised again by the caller, in job order
            result, error = None, (exc, traceback.format_exc())
    return result, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _run_worker_job(index: int):
    return _run_job(_worker_jobs[index])


def _reemit(records) -> None:
    """Warn in this process as the worker's ``warnings.warn`` calls would have."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in records:
        module = modules.get(filename)
        warnings.warn_explicit(
            message, category, filename, lineno,
            module=getattr(module, "__name__", None),
            registry=vars(module).setdefault("__warningregistry__", {}) if module else None)


def _run_jobs(jobs: list[Callable[[], object]], workers: int) -> list:
    """Run independent jobs and return their results in job order.

    With at most one worker or one job, the jobs run here, one after another.
    Otherwise ``min(workers, len(jobs))`` forked processes run them.  They are
    forked, not spawned, so that they inherit ``jobs``: jobs are closures over
    models, which cannot be pickled; only job indices go out and results come
    back.  Either way every job runs; then every job's warnings are re-emitted
    here in job order, and the error of the lowest-index failed job is raised,
    so a failing batch leaves the same side effects for any worker count.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        outcomes = [_run_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker, initargs=(jobs,)) as pool:
            outcomes = list(pool.map(_run_worker_job, range(len(jobs))))
    for _result, _error, records in outcomes:
        _reemit(records)
    for _result, error, _records in outcomes:
        if error is not None:
            exc, job_traceback = error
            if workers <= 1:
                raise exc
            raise exc from RuntimeError(f"in a worker process:\n{job_traceback}")
    return [result for result, _error, _records in outcomes]


# --- axis studies -------------------------------------------------------------

def kde_rate_study(sample_counts=(250, 1000, 4000, 16000), dim: int = 1,
                   replications: int = 200, seed: int = 0,
                   threads: int = 1) -> ConvergenceReport:
    """Pointwise error of the fixed-bandwidth estimator at the origin.

    Samples come from the standard normal in ``dim`` dimensions, whose value
    at the origin is known exactly, so the only error source is the
    estimator itself.
    """
    check_count("seed", seed, None)
    check_count("dim", dim)
    if dim > 2:
        raise ConfigurationError("kernel-rate study supports dim <= 2")
    check_slope_claim(replications)
    counts = check_sweep_grid(sample_counts, "L")
    truth = (2.0 * math.pi) ** (-dim / 2.0)
    query = np.zeros((1, dim))

    def one_rep(rep: int) -> Array:
        rng = substream(seed, "kde-rate", rep)
        out = np.empty(len(counts))
        for j, n in enumerate(counts):
            est = parzen_estimate(rng.standard_normal((n, dim)), query, truth)[0]
            out[j] = (est - truth) ** 2
        return out

    raw = np.stack(_run_jobs([lambda r=r: one_rep(r) for r in range(replications)],
                             threads))
    return ConvergenceReport(axis="L", values=counts, raw=raw, statistic="mse",
                             theory_slope=-mse_rate_exponent(dim),
                             notes=f"standard normal target, dim={dim}, query at origin")


def _probe_points(mean: float | Array, std: float | Array) -> Array:
    return mean + std * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _initial_moments(model: StateSpaceModel, what: str) -> tuple[float, float]:
    """Mean and standard deviation of a scalar linear model's initial law."""
    lin = model.linear
    if lin is None:
        raise ConfigurationError(f"{what} study needs initial-law moments")
    return float(lin.mean0[0]), math.sqrt(float(lin.cov0[0, 0]))


def prediction_rate_study(mc_counts=(16, 64, 256, 1024), replications: int = 200,
                          seed: int = 0, model: StateSpaceModel | None = None,
                          dt: float = 0.1, threads: int = 1) -> ConvergenceReport:
    """One-step explicit prediction against its quadrature value.

    The previous density is the model's exact initial law, so the only error
    left is the reverse-sample average; its mean squared error at fixed probe
    points is pure Monte Carlo variance.
    """
    check_count("seed", seed, None)
    dt = check_positive("dt", dt)
    model = model if model is not None else get_model("ou1d")
    if model.dim_state != 1:
        raise ConfigurationError("prediction study needs a scalar-state model")
    check_slope_claim(replications)
    counts = check_sweep_grid(mc_counts, "M")
    mean0, std0 = _initial_moments(model, "prediction")
    probes = _probe_points(mean0, std0)
    t_k = dt
    oracle = np.array([
        prediction_oracle_left_point(model.initial_density, model, t_k, x, dt)
        for x in probes])
    g_hat = float(np.max(np.abs(model.drift_divergence(probes[:, None]))))

    def one_rep(rep: int) -> Array:
        out = np.empty(len(counts))
        for j, m in enumerate(counts):
            cfg = PredictConfig(mc_samples=m, variant="left_point")
            sq = 0.0
            for p, x in enumerate(probes):
                rng = substream(seed, "pred-rate", rep, j, p)
                est = predict_value(model.initial_density, model, t_k, np.array([x]),
                                    dt, cfg, rng)
                sq += (est - oracle[p]) ** 2
            out[j] = sq / probes.size
        return out

    raw = np.stack(_run_jobs([lambda r=r: one_rep(r) for r in range(replications)],
                             threads))
    return ConvergenceReport(axis="M", values=counts, raw=raw, statistic="mse",
                             theory_slope=-1.0,
                             notes="one-step explicit prediction vs quadrature",
                             g_hat=g_hat)


def denominator_rate_study(particle_counts=(100, 1000, 10000, 100000),
                           replications: int = 200, seed: int = 0,
                           model: StateSpaceModel | None = None, dt: float = 0.1,
                           threads: int = 1) -> ConvergenceReport:
    """Observation-normalizer sample mean against its quadrature integral."""
    check_count("seed", seed, None)
    dt = check_positive("dt", dt)
    model = model if model is not None else get_model("ou1d")
    if model.dim_state != 1 or model.dim_obs != 1:
        raise ConfigurationError("denominator study needs scalar state and observation")
    check_slope_claim(replications)
    counts = check_sweep_grid(particle_counts, "N")
    mean0, std0 = _initial_moments(model, "denominator")
    # a fixed, mildly informative observation increment
    obs_prev = np.zeros(1)
    obs_now = np.array([float(model.obs_map(np.array([mean0 + 0.5 * std0]))[0]) * dt])
    lik = step_likelihood(model, TimeGrid.uniform(dt, 1), 1, obs_prev, obs_now)
    truth = denominator_oracle(lik, model.initial_density, mean0, std0)

    def one_rep(rep: int) -> Array:
        out = np.empty(len(counts))
        for j, n in enumerate(counts):
            rng = substream(seed, "den-rate", rep, j)
            locations = model.initial_sampler(n, rng)
            cloud = ParticleCloud(locations=locations, values=np.ones(n), stage="prior")
            out[j] = (denominator_mc(cloud, lik) - truth) ** 2
        return out

    raw = np.stack(_run_jobs([lambda r=r: one_rep(r) for r in range(replications)],
                             threads))
    return ConvergenceReport(axis="N", values=counts, raw=raw, statistic="rmse",
                             theory_slope=-0.5,
                             notes="likelihood normalizer vs quadrature integral")


def dt_rate_study(step_sizes=(0.1, 0.05, 0.025, 0.0125), replications: int = 2000,
                  seed: int = 0, model: StateSpaceModel | None = None,
                  horizon: float = 1.0, threads: int = 1) -> ConvergenceReport:
    """Strong error of explicit stepping against the exact coupled solution.

    Uses the mean-reverting scalar model, whose transition can be sampled
    exactly and coupled to the Euler increments; with time-only diffusion the
    explicit scheme already coincides with the higher-order correction, so
    the observed slope sits near 1 even though the guaranteed floor is 0.5.
    """
    check_count("seed", seed, None)
    model = model if model is not None else get_model("ou1d")
    lin = model.linear
    if model.dim_state != 1 or lin is None:
        raise ConfigurationError("step-size study needs a scalar linear-drift model")
    theta = -float(lin.drift_matrix[0, 0])
    sigma = float(lin.diffusion[0, 0])
    if theta <= 0:
        raise ConfigurationError("step-size study needs mean reversion (theta > 0)")
    check_slope_claim(replications)
    horizon = check_positive("horizon", horizon)
    dts = check_sweep_grid(step_sizes, "dt", horizon)
    x0 = float(lin.mean0[0]) + math.sqrt(float(lin.cov0[0, 0]))

    def one_dt(j: int) -> Array:
        dt = dts[j]
        n_steps = int(round(horizon / dt))
        rng = substream(seed, "dt-rate", j)
        euler = np.full((replications, 1), x0)
        exact = np.full((replications, 1), x0)
        for k in range(n_steps):
            dW = math.sqrt(dt) * rng.standard_normal((replications, 1))
            extra = rng.standard_normal((replications, 1))
            euler = euler_step(model, k * dt, euler, dt, dW)
            exact = ou_exact_coupled_step(theta, sigma, exact, dt, dW, extra)
        return ((euler - exact) ** 2)[:, 0]

    sq_by_dt = _run_jobs([lambda j=j: one_dt(j) for j in range(len(dts))], threads)
    raw = np.stack(sq_by_dt, axis=1)
    return ConvergenceReport(
        axis="dt", values=dts, raw=raw, statistic="rmse", theory_slope=1.0,
        notes=("explicit vs exact coupled paths; time-only diffusion makes the "
               "explicit scheme coincide with the higher-order scheme, so the "
               "additive-noise slope is near 1 (guaranteed floor 0.5)"))


# --- experiment configuration ---------------------------------------------------

@dataclass
class GridSettings:
    horizon: float = 1.0
    steps: int = 10

    def build(self) -> TimeGrid:
        return TimeGrid.uniform(horizon=self.horizon, steps=self.steps)


@dataclass
class FilterSettings:
    n_particles: int = 400
    mc_samples: int = 32
    n_kernels: int = 24
    sgd_steps: int = 2000
    variant: str = PredictConfig.variant


@dataclass
class SweepSettings:
    """Grid of the axis a rate study sweeps; empty keeps the study's own grid."""

    values: tuple = ()


@dataclass
class ExperimentConfig:
    model: str = "linear1d"
    seed: int = 0
    out_dir: str = "out"
    grid: GridSettings = field(default_factory=GridSettings)
    filter: FilterSettings = field(default_factory=FilterSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    replications: int = 1
    threads: int = 1

    def __post_init__(self):
        check_count("replications", self.replications)
        check_count("threads", self.threads)
        self.filter_config()  # checks the grid, the filter section and the seed
        if len(self.sweep.values):
            check_sweep_grid(self.sweep.values)

    def filter_config(self, seed: int | None = None) -> FilterConfig:
        fs = self.filter
        return FilterConfig(
            grid=self.grid.build(),
            n_particles=fs.n_particles,
            n_kernels=fs.n_kernels,
            predict=PredictConfig(mc_samples=fs.mc_samples, variant=fs.variant),
            train=TrainConfig(sgd_steps=fs.sgd_steps),
            seed=self.seed if seed is None else seed,
        )


# What a config value of each scalar field type must be; a bool is no number.
_VALUE_KINDS = {int: "an integer", float: "a number", str: "a string",
                tuple: "a list of numbers"}


def _fits(value, kind) -> bool:
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, float) for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_fields(cls, data: dict, where: str) -> None:
    """Refuse a field ``cls`` lacks, or a value its field's type does not fit."""
    hints = get_type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ConfigurationError(f"unknown field {key!r} {where}")
        kind = hints[key]
        if kind in _VALUE_KINDS and not _fits(value, kind):
            raise ConfigurationError(f"field {key!r} {where} must be "
                                     f"{_VALUE_KINDS[kind]}, got {value!r}")


def _build_section(cls, data, section: str):
    if not isinstance(data, dict):
        raise ConfigurationError(f"section {section!r} must be an object, "
                                 f"got {type(data).__name__}")
    _check_fields(cls, data, f"in section {section!r}")
    return cls(**data)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be an object")
    _check_fields(ExperimentConfig, data, "at config root")
    kwargs = dict(data)
    for section, cls in get_type_hints(ExperimentConfig).items():
        if is_dataclass(cls) and section in kwargs:
            kwargs[section] = _build_section(cls, kwargs[section], section)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """The experiment config in the JSON file at ``path``; a file that cannot
    be read, or is not UTF-8 JSON, is a ``ConfigurationError`` naming it.
    ``NaN``, ``Infinity`` and ``-Infinity``, which ``json`` reads by default
    though JSON has no such numbers, are refused too."""
    def refuse_constant(token: str):
        raise ConfigurationError(f"{path}: invalid config: {token} is not a JSON number")

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=refuse_constant)
    except OSError as err:
        raise ConfigurationError(
            f"cannot read config {str(path)!r}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise ConfigurationError(
            f"config {str(path)!r} is not UTF-8 text: {err.reason} at byte "
            f"{err.start}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(
            f"{path}:{err.lineno}:{err.colno}: invalid config: {err.msg}") from err
    return config_from_dict(data)


def run_rate_study(axis: str, cfg: ExperimentConfig) -> ConvergenceReport:
    """Sweep ``axis`` over ``cfg.sweep.values``, or the study's own grid if empty."""
    if axis not in AXES:
        raise ConfigurationError(f"axis must be one of {AXES}")
    model = get_model(cfg.model)
    sweep = (cfg.sweep.values,) if len(cfg.sweep.values) else ()
    common = {"seed": cfg.seed, "threads": cfg.threads, "replications": cfg.replications}
    if axis == "L":
        return kde_rate_study(*sweep, dim=model.dim_state, **common)
    if axis == "M":
        return prediction_rate_study(*sweep, model=model, dt=cfg.grid.build().max_dt,
                                     **common)
    if axis == "N":
        return denominator_rate_study(*sweep, model=model, dt=cfg.grid.build().max_dt,
                                      **common)
    return dt_rate_study(*sweep, model=model, horizon=cfg.grid.horizon, **common)


# --- recurrence diagnostic ------------------------------------------------------

@dataclass
class RecurrenceDiagnostic:
    """Error-amplification estimate, largest drift divergence, ratio per step."""

    r_hat: float
    g_hat: float
    per_step_ratios: Array


def estimate_recurrence_coefficient(model: StateSpaceModel, grid: TimeGrid,
                                    observations: Array, seed: int = 0,
                                    n_samples: int = 20000,
                                    n_backward: int = 1024) -> RecurrenceDiagnostic:
    """Monte Carlo estimate of the error-amplification coefficient.

    The numerator takes the largest mean likelihood over reverse samples from
    a probe set; the denominator is the mean likelihood over forward-
    propagated samples of the running prior.  The result scales the ratio by
    2 sqrt(1 + horizon^2 G^2) with G the largest observed drift divergence.
    This is a diagnostic reading of the condition, not a certified bound.
    An underflowed forward likelihood mean is a ``DegenerateObservationError``.
    """
    check_count("n_samples", n_samples)
    check_count("n_backward", n_backward)
    check_count("seed", seed, None)
    observations = grid.observation_rows(observations)
    states = np.asarray(model.initial_sampler(n_samples,
                                              substream(seed, "recur-init")), dtype=float)
    g_hat = float(np.max(np.abs(model.drift_divergence(states))))
    ratios = np.empty(grid.steps)
    for k in range(1, grid.steps + 1):
        states = advance(model, grid, k, states, substream(seed, "recur-fwd", k))
        g_hat = max(g_hat, float(np.max(np.abs(model.drift_divergence(states)))))
        lik = step_likelihood(model, grid, k, observations[k - 1], observations[k])
        denom = float(np.mean(likelihood_density(lik, states)))
        if denom <= DENSITY_FLOOR:
            raise DegenerateObservationError(
                f"forward likelihood mean underflowed at step {k}")
        # probe 5 * axis + j moves the mean by (j - 2) sds along that axis
        mean_k, probes = states.mean(axis=0), np.arange(5 * model.dim_state)
        anchors = np.tile(mean_k, (probes.size, 1, 1))
        anchors[probes, 0, probes // 5] = _probe_points(
            mean_k[:, None], states.std(axis=0)[:, None]).ravel()
        dt = grid.dt(k)
        dW = math.sqrt(dt) * np.stack([substream(seed, "recur-bwd", k, p).standard_normal(
            (n_backward, model.dim_noise)) for p in range(probes.size)])
        back = backward_sample(model, grid.time(k), anchors, dt, dW)
        liks = likelihood_density(lik, back.reshape(-1, back.shape[-1]))
        ratios[k - 1] = float(np.max(liks.reshape(probes.size, -1).mean(axis=1))) / denom
    r_hat = 2.0 * math.sqrt(1.0 + grid.horizon ** 2 * g_hat ** 2) * float(np.max(ratios))
    return RecurrenceDiagnostic(r_hat=r_hat, g_hat=g_hat, per_step_ratios=ratios)


# --- full experiment ------------------------------------------------------------

def save_report(report: ConvergenceReport, out_dir) -> None:
    """Report JSON of every field but ``raw``, plus ``raw`` as the table that
    reproduces it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / f"rates_{report.axis}.json",
               {key: value for key, value in asdict(report).items() if key != "raw"})
    reps, n_values = report.raw.shape
    write_csv(out / f"rates_{report.axis}_raw.csv",
              {"replication": np.repeat(np.arange(reps), n_values).tolist(),
               "axis_value": np.tile(report.values, reps).tolist(),
               "squared_error": report.raw.ravel().tolist()})


def _posterior_mean_std(state) -> tuple[Array, Array]:
    if isinstance(state.density, KernelDensity):
        mean, cov, _mass = state.density.moments()
        return mean, np.sqrt(np.maximum(np.diag(cov), 0.0))
    mean = state.cloud.locations.mean(axis=0)
    std = state.cloud.locations.std(axis=0)
    return mean, std


def _run_single_replication(model: StateSpaceModel, cfg: FilterConfig,
                            rep: int, out: Path) -> dict:
    rep_seed = derive_seed(cfg.seed, "replication", rep)
    grid = cfg.grid
    rep_dir = out / f"rep_{rep:03d}"
    fcfg = replace(cfg, seed=rep_seed)
    try:
        truth, obs = simulate_truth(model, grid, rep_seed)
        rep_dir.mkdir(parents=True, exist_ok=True)
        states = run_filter(model, obs, fcfg,
                            on_step=lambda s: write_checkpoint(s, rep_dir))

        moments = [_posterior_mean_std(s) for s in states]
        post_mean = np.stack([mean for mean, _std in moments])
        post_std = np.stack([std for _mean, std in moments])
        pf = bootstrap_pf(model, grid, obs, fcfg.n_particles, rep_seed)

        oracle = {}
        if model.linear is not None:
            kal = kalman_filter(model.linear, grid, obs)
            oracle = {"oracle_mean": kal.means, "oracle_std": kal.stds()}
        elif model.dim_state == 1:
            ref = grid_filter(model, grid, obs)
            oracle = {"oracle_mean": ref.means[:, None], "oracle_std": ref.stds[:, None]}
    except FilterError as err:
        raise type(err)(f"replication {rep}: {err}") from err

    columns = {"k": list(range(grid.steps + 1)), "t": grid.knots.tolist()}
    for prefix, series in (("truth_x", truth), ("obs_o", obs), ("post_mean_x", post_mean),
                           ("post_std_x", post_std), ("pf_mean_x", pf.means),
                           *((f"{name}_x", table) for name, table in oracle.items())):
        columns.update(coordinate_columns(prefix, series))
    no_fit = dict.fromkeys((f.name for f in fields(LossReport)), math.nan)
    records = [{**asdict(s.diagnostics), **(asdict(s.fit) if s.fit else no_fit)}
               for s in states]
    for name in records[0]:
        columns[name] = [float(record[name]) for record in records]
    write_csv(rep_dir / "summary.csv", columns)
    return {"post_mean": post_mean, "pf_mean": pf.means, **oracle}


def run_experiment(cfg: ExperimentConfig) -> Path | None:
    """Simulate, filter, compare against the available oracle, write artifacts.

    Returns the path of ``errors_vs_oracle.csv`` under ``cfg.out_dir``, or
    ``None`` for a model with no oracle, which gets no error table.

    Every replication is an independent deterministic job keyed by the
    experiment seed; ``cfg.threads`` worker processes run them, and output
    files are identical for any worker count.  The model name, the filter
    settings, the model's drift divergence and, for a linear model, the step
    bound of the right-point recursion are checked before anything is written.
    A ``FilterError`` raised in a replication is raised again with its message
    prefixed by ``replication <rep>: ``.
    """
    model = get_model(cfg.model)
    fcfg = cfg.filter_config()
    check_drift_divergence(model)
    check_contraction(model, fcfg.predict, fcfg.grid.max_dt)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", asdict(cfg))

    jobs = [lambda rep=rep: _run_single_replication(model, fcfg, rep, out)
            for rep in range(cfg.replications)]
    results = _run_jobs(jobs, cfg.threads)

    if "oracle_mean" not in results[0]:
        return None
    # (replications, steps + 1, d) each
    stacked = {key: np.stack([r[key] for r in results]) for key in results[0]}
    fbsde_err = np.abs(stacked["post_mean"] - stacked["oracle_mean"]).max(axis=2)
    pf_err = np.abs(stacked["pf_mean"] - stacked["oracle_mean"]).max(axis=2)
    scale = stacked["oracle_std"].max(axis=2)
    error_path = out / "errors_vs_oracle.csv"
    write_csv(error_path, {
        "k": list(range(fcfg.grid.steps + 1)),
        "fbsde_abs_err_median": np.median(fbsde_err, axis=0).tolist(),
        "pf_abs_err_median": np.median(pf_err, axis=0).tolist(),
        "fbsde_err_over_oracle_std_median":
            np.median(fbsde_err / np.maximum(scale, 1e-300), axis=0).tolist()})
    return error_path
