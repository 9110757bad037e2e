"""Filter orchestration: predict, update, learn, resample, plus baselines.

A filter instance advances sequentially in the step index; all randomness is
addressed by (seed, purpose, step, particle id), so reruns and permuted or
parallel executions reproduce the same numbers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .artifacts import coordinate_columns, write_csv, write_json
from .bayes import DENSITY_FLOOR, bayes_update, denominator_mc, likelihood_density, \
    step_likelihood
from .errors import ConfigurationError, DegenerateObservationError, FilterError, \
    check_count, check_points
from .kde import KernelDensity
from .learn import LossReport, TrainConfig, sgd_fit
from .model import StateSpaceModel, TimeGrid, advance, check_drift_divergence
from .predict import ParticleCloud, PredictConfig, check_contraction, predict_cloud
from .rngs import substream

Array = np.ndarray

# A learned mixture whose negative-weight mass exceeds this share of its
# absolute mass triggers a warning after the step.
NEGATIVE_MASS_WARN = 0.05


@dataclass
class FilterConfig:
    """Sizes, variant switches, and the seed of one filter run."""

    grid: TimeGrid
    n_particles: int
    n_kernels: int
    predict: PredictConfig
    train: TrainConfig
    seed: int = 0

    def __post_init__(self):
        check_count("n_particles", self.n_particles)
        check_count("n_kernels", self.n_kernels, 1, self.n_particles, "n_particles")
        check_count("seed", self.seed, None)


@dataclass
class StepDiagnostics:
    kd_mass: float = math.nan
    acceptance_rate: float = math.nan
    denominator: float = math.nan
    negative_mass_fraction: float = math.nan


@dataclass
class InitialDensity:
    """Exact initial-law wrapper carried by the filter at step zero."""

    model: StateSpaceModel

    def eval(self, x: Array) -> Array:
        return self.model.initial_density(check_points("x", x, self.model.dim_state))


@dataclass
class FilterState:
    k: int
    cloud: ParticleCloud
    density: KernelDensity | InitialDensity
    diagnostics: StepDiagnostics = field(default_factory=StepDiagnostics)
    fit: LossReport | None = None


def initialize(model: StateSpaceModel, cfg: FilterConfig) -> FilterState:
    """Draw the starting cloud from the initial law; density is exact there.

    The model's drift divergence is cross-checked before any draw, and so is
    a linear model's bound on the step of the right-point recursion
    (``check_contraction``).
    """
    check_drift_divergence(model)
    check_contraction(model, cfg.predict, cfg.grid.max_dt)
    locations = model.initial_sampler(cfg.n_particles, substream(cfg.seed, "init"))
    locations = np.asarray(locations, dtype=float)
    if locations.shape != (cfg.n_particles, model.dim_state):
        raise ConfigurationError(
            f"initial sampler returned shape {locations.shape}, expected "
            f"{(cfg.n_particles, model.dim_state)}")
    values = np.asarray(model.initial_density(locations), dtype=float)
    cloud = ParticleCloud(locations=locations, values=np.maximum(values, 0.0),
                          stage="posterior")
    return FilterState(k=0, cloud=cloud, density=InitialDensity(model))


def metropolis_resample(cloud: ParticleCloud, kd: KernelDensity,
                        stream_for: Callable[[int], np.random.Generator]
                        ) -> ParticleCloud:
    """Move each particle to a fresh mixture draw with an accept test.

    The proposal is a draw from the mixture itself and the acceptance
    probability is min(1, new value / old value); the ratio is unchanged by
    any positive rescaling of the mixture weights.  Old values are floored at
    the underflow constant before dividing, a zero-valued proposal keeps the
    incumbent, and every surviving particle carries the mixture's value at
    its location, floored at zero.

    ``stream_for`` maps a particle id to that particle's own generator, which
    draws, in this order, the component uniform, the ``dim`` standard normals
    that place the proposal (``KernelDensity.inverse_sample``) and the accept
    uniform; the outcome for a particle is therefore independent of storage
    order and of every other particle.  Each id's generator is used up before
    the next id is asked for.
    """
    u, accept_u = [], []
    z = np.empty((cloud.n_particles, kd.dim))
    for pid, z_row in zip(cloud.ids.tolist(), z):
        rng = stream_for(pid)
        u.append(rng.random())
        rng.standard_normal(out=z_row)
        accept_u.append(rng.random())
    proposals = kd.inverse_sample(np.array(u), z)
    old_vals = kd.eval(cloud.locations)
    prop_vals = kd.eval(proposals)
    ratio = np.maximum(prop_vals, 0.0) / np.maximum(old_vals, DENSITY_FLOOR)
    accept = np.array(accept_u) < np.minimum(1.0, ratio)
    # each value is a sum over its own row: the survivor's value at its
    # location is the one already computed there
    return ParticleCloud(locations=np.where(accept[:, None], proposals, cloud.locations),
                         values=np.maximum(np.where(accept, prop_vals, old_vals), 0.0),
                         stage="posterior", ids=cloud.ids.copy())


def step(state: FilterState, model: StateSpaceModel, obs_prev: Array,
         obs_now: Array, cfg: FilterConfig) -> FilterState:
    """Advance the filter by one observation interval.

    Composes prediction, Bayesian update, mixture learning, and resampling;
    the learned mixture is both the carried density and the value source for
    the resampled cloud.  The acceptance rate is the share of particles the
    move relocated: a proposal equal to its incumbent has probability zero.
    """
    k = state.k + 1
    try:
        prior = predict_cloud(state.cloud, state.density.eval, model, cfg.grid, k,
                              cfg.predict, cfg.seed)
        lik = step_likelihood(model, cfg.grid, k, obs_prev, obs_now)
        posterior = bayes_update(prior, lik)
        denominator = denominator_mc(prior, lik)
        kd, fit = sgd_fit(posterior, cfg.n_kernels, cfg.train,
                          substream(cfg.seed, "sgd", k))
        cloud = metropolis_resample(
            posterior, kd, lambda pid: substream(cfg.seed, "resample", k, pid))
    except FilterError as err:
        raise type(err)(f"step {k}: {err}") from err

    neg_frac = kd.negative_mass_fraction()
    if neg_frac > NEGATIVE_MASS_WARN:
        warnings.warn(
            f"step {k}: negative kernel mass fraction {neg_frac!r} exceeds "
            f"{NEGATIVE_MASS_WARN!r}", stacklevel=2)
    moved = int(np.any(cloud.locations != posterior.locations, axis=1).sum())
    diag = StepDiagnostics(kd_mass=kd.mass(), acceptance_rate=moved / cloud.n_particles,
                           denominator=denominator, negative_mass_fraction=neg_frac)
    return FilterState(k=k, cloud=cloud, density=kd, diagnostics=diag, fit=fit)


def run_filter(model: StateSpaceModel, observations: Array, cfg: FilterConfig,
               on_step: Callable[[FilterState], None] | None = None
               ) -> list[FilterState]:
    """Consume an observation sequence and return the state after every step.

    ``observations`` has one row per grid knot (row 0 is the starting value
    of the cumulative observation; the filter never generates data itself).
    """
    observations = cfg.grid.observation_rows(observations)
    state = initialize(model, cfg)
    states = [state]
    if on_step is not None:
        on_step(state)
    for k in range(1, cfg.grid.steps + 1):
        state = step(state, model, observations[k - 1], observations[k], cfg)
        states.append(state)
        if on_step is not None:
            on_step(state)
    return states


def write_checkpoint(state: FilterState, out_dir) -> None:
    """Per-step artifacts: the mixture table ``c0..c{d-1},weight,bandwidth``, one
    row per component (none at step 0, whose density is exact), the particle
    table ``index,x0..x{d-1},value`` and the diagnostics record."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{state.k:04d}"
    kd = state.density
    if isinstance(kd, KernelDensity):
        write_csv(out / f"kd_step_{tag}.txt",
                  {**coordinate_columns("c", kd.centers), "weight": kd.weights.tolist(),
                   "bandwidth": kd.bandwidths.tolist()})
    cloud = state.cloud
    write_csv(out / f"particles_step_{tag}.csv",
              {"index": cloud.ids.tolist(), **coordinate_columns("x", cloud.locations),
               "value": cloud.values.tolist()})
    write_json(out / f"diagnostics_step_{tag}.json",
               {"k": state.k, **asdict(state.diagnostics)})


# --- baselines ----------------------------------------------------------------

@dataclass
class KalmanResult:
    means: Array
    covs: Array

    def stds(self) -> Array:
        return np.sqrt(np.einsum("kii->ki", self.covs))


def kalman_update(mean: Array, cov: Array, z: Array, design: Array,
                  noise_cov: Array) -> tuple[Array, Array]:
    """Conjugate Gaussian measurement update."""
    mean = np.asarray(mean, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    design = np.atleast_2d(np.asarray(design, dtype=float))
    innovation_cov = design @ cov @ design.T + np.atleast_2d(noise_cov)
    try:
        np.linalg.cholesky(innovation_cov)
    except np.linalg.LinAlgError:
        raise FilterError("innovation covariance lost positive definiteness") from None
    gain = cov @ design.T @ np.linalg.inv(innovation_cov)
    resid = np.asarray(z, dtype=float) - design @ mean
    new_mean = mean + gain @ resid
    eye = np.eye(cov.shape[0])
    new_cov = (eye - gain @ design) @ cov
    return new_mean, 0.5 * (new_cov + new_cov.T)


def kalman_filter(linear, grid: TimeGrid, observations: Array) -> KalmanResult:
    """Exact posterior recursion for the discretized linear-Gaussian chain.

    The chain is the same explicit discretization the particle machinery
    uses: transition matrix I + F dt, process covariance diffusion
    diffusion^T dt, measurement = observation increment with design H dt and
    noise covariance r r^T dt.
    """
    if linear is None:
        raise ConfigurationError("model has no linear-Gaussian coefficients")
    observations = grid.observation_rows(observations)
    d = linear.mean0.size
    means = np.empty((grid.steps + 1, d))
    covs = np.empty((grid.steps + 1, d, d))
    mean, cov = linear.mean0.copy(), linear.cov0.copy()
    means[0], covs[0] = mean, cov
    eye = np.eye(d)
    for k in range(1, grid.steps + 1):
        dt = grid.dt(k)
        trans = eye + linear.drift_matrix * dt
        proc = linear.diffusion @ linear.diffusion.T * dt
        mean = trans @ mean
        cov = trans @ cov @ trans.T + proc
        design = linear.obs_matrix * dt
        noise_cov = linear.obs_noise @ linear.obs_noise.T * dt
        z = observations[k] - observations[k - 1]
        mean, cov = kalman_update(mean, cov, z, design, noise_cov)
        means[k], covs[k] = mean, cov
    return KalmanResult(means=means, covs=covs)


@dataclass
class BootstrapResult:
    """Weighted moments of each step's cloud before resampling, and its ESS."""

    means: Array  # (steps + 1, d)
    stds: Array   # (steps + 1, d)
    ess: Array    # (steps + 1,)


def bootstrap_pf(model: StateSpaceModel, grid: TimeGrid, observations: Array,
                 n_particles: int, seed: int) -> BootstrapResult:
    """Plain propagate / weight / multinomially-resample particle filter.

    Only the current cloud is held; each step records its weighted mean and
    standard deviation per coordinate, and the effective sample size.
    """
    check_count("n_particles", n_particles)
    check_count("seed", seed, None)
    observations = grid.observation_rows(observations)
    means = np.empty((grid.steps + 1, model.dim_state))
    stds = np.empty_like(means)
    ess = np.empty(grid.steps + 1)
    current = np.asarray(model.initial_sampler(n_particles, substream(seed, "pf-init")),
                         dtype=float)
    means[0], stds[0], ess[0] = current.mean(axis=0), current.std(axis=0), n_particles
    for k in range(1, grid.steps + 1):
        current = advance(model, grid, k, current, substream(seed, "pf-noise", k))
        lik = step_likelihood(model, grid, k, observations[k - 1], observations[k])
        w = likelihood_density(lik, current)
        if np.all(w <= DENSITY_FLOOR):
            raise DegenerateObservationError(
                f"step {k}: all particle likelihoods underflowed")
        w = w / w.sum()
        means[k] = (w[:, None] * current).sum(axis=0)
        stds[k] = np.sqrt(w @ (current - means[k]) ** 2)
        ess[k] = 1.0 / float((w * w).sum())
        if ess[k] < 0.05 * n_particles:
            warnings.warn(
                f"bootstrap filter weight collapse at step {k}: effective sample "
                f"size {ess[k]:.1f} of {n_particles}", stacklevel=2)
        u = substream(seed, "pf-resample", k).random(n_particles)
        # searched in sorted order, the uniforms walk the cumulative weights
        # once; scattered back, each keeps the index of the unsorted search
        order, idx = np.argsort(u), np.empty(n_particles, dtype=np.intp)
        idx[order] = np.searchsorted(np.cumsum(w), u[order], side="right")
        current = current[np.minimum(idx, n_particles - 1)]
        del u, order, idx  # freed before the next step's propagation peaks
    return BootstrapResult(means=means, stds=stds, ess=ess)
