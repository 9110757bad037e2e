"""Prior density values at forward samples via reverse-time Monte Carlo.

Density callables used here take an ``(n, dim_state)`` array and return ``n``
values.  Per-particle noise comes from streams addressed by particle id, so
results are independent of evaluation order and of how work is split across
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ContractionError, FilterError, ModelBlowUpError, \
    check_count, check_points, check_positive
from .model import StateSpaceModel, TimeGrid, backward_sample, euler_step
from .rngs import substream

Array = np.ndarray

VARIANTS = ("right_point_fixed_point", "left_point")


@dataclass
class ParticleCloud:
    """Locations with attached density values.

    ``ids`` label particles independently of storage order; all per-particle
    randomness is keyed on them, which makes every stage equivariant under
    permutations of the storage order.
    """

    locations: Array
    values: Array
    stage: str
    ids: Array | None = None

    def __post_init__(self):
        self.locations = check_points("locations", self.locations)
        self.values = np.asarray(self.values, dtype=float).ravel()
        n = self.locations.shape[0]
        if self.values.shape != (n,):
            raise ConfigurationError("locations and values must have equal length")
        if self.stage not in ("prior", "posterior"):
            raise ConfigurationError(f"unknown stage {self.stage!r}")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("particle values must be finite")
        if np.any(self.values < 0):
            raise ConfigurationError("particle values must be nonnegative")
        if self.ids is None:
            self.ids = np.arange(n)
        else:
            ids = check_count("particle ids", np.asarray(self.ids).ravel(), low=None)
            self.ids = ids.astype(np.int64, copy=False)
            if self.ids.shape != (n,) or np.unique(self.ids).size != n:
                raise ConfigurationError("ids must be unique and align with locations")

    @property
    def n_particles(self) -> int:
        return int(self.values.size)

    @property
    def dim(self) -> int:
        return int(self.locations.shape[1])


@dataclass(frozen=True)
class PredictConfig:
    """Sample count and discretization variant of the prediction stage.

    ``left_point``, the default, takes one explicit step.
    ``right_point_fixed_point`` follows the published recipe, feeding the
    running average over the first m reverse samples into iterate m; it
    aborts with ``ContractionError`` where ``|div * dt| >= 1`` at a particle.
    """

    mc_samples: int
    variant: str = "left_point"

    def __post_init__(self):
        check_count("mc_samples", self.mc_samples)
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}")


def check_contraction(model: StateSpaceModel, cfg: PredictConfig, dt: float) -> None:
    """Refuse a step too large for the right-point recursion of a linear model.

    Only ``right_point_fixed_point`` iterates.  A linear model's divergence is
    the constant trace of its drift matrix, so there the bound is exact and
    checked before any work starts.  Any other model is checked particle by
    particle where the recursion runs (``ContractionError``).
    """
    if cfg.variant != "right_point_fixed_point" or model.linear is None:
        return
    bound = abs(float(np.trace(model.linear.drift_matrix)))
    if dt * bound >= 0.5:
        raise ConfigurationError(
            f"dt * divergence bound = {dt * bound:.3g} >= 0.5; shrink the time step")


def _density_values(f: Callable[[Array], Array], points: Array, ids: Array,
                    what: str) -> Array:
    """``f`` at ``(n * m, dim)`` points, m per particle of ``ids``, checked.

    A wrong output shape is a configuration error; a non-finite value names
    the particle ids it belongs to.
    """
    vals = np.asarray(f(points), dtype=float)
    if vals.shape != points.shape[:1]:
        raise ConfigurationError(
            f"density must map (n, dim) points to n values; got shape "
            f"{vals.shape} for {points.shape[0]} points")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        rows = np.unique(bad // (vals.size // ids.size))
        raise FilterError(
            f"density returned non-finite values at the {what} of particle ids "
            f"{ids[rows][:8].tolist()}, first at {points[bad[0]]}")
    return vals


def _prior_values(f: Callable[[Array], Array], model: StateSpaceModel, t_k: float,
                  anchors: Array, dt: float, noise: Array, cfg: PredictConfig,
                  ids: Array) -> Array:
    """Prior values at ``(n, dim)`` anchors from an ``(n, m, d_w)`` normal block.

    ``cfg.variant`` picks the discretization.  Every reduction runs along the
    sample axis of one row, so a row's value does not depend on how many
    anchors share the call.
    """
    dt = check_positive("dt", dt, zero_ok=True)
    n, m = noise.shape[:2]
    try:
        points = backward_sample(model, t_k, anchors[:, None, :], dt,
                                 math.sqrt(dt) * noise)
    except ModelBlowUpError as err:
        raise ModelBlowUpError(
            f"non-finite reverse samples for particle ids "
            f"{ids[np.unique(err.rows // m)][:8].tolist()}") from err
    flat = points.reshape(n * m, -1)
    vals = _density_values(f, flat, ids, "reverse samples").reshape(n, m)
    if cfg.variant == "left_point":
        div = np.asarray(model.drift_divergence(flat), dtype=float).reshape(n, m)
        return vals.mean(axis=1) - (div * vals).mean(axis=1) * dt

    # right point: damped fixed-point recursion started at f(anchor), which
    # contracts exactly where |div * dt| < 1
    y = _density_values(f, anchors, ids, "forward locations")
    div = np.asarray(model.drift_divergence(anchors), dtype=float)
    bad = np.flatnonzero(~(np.abs(div * dt) < 1.0))
    if bad.size:
        raise ContractionError(
            f"fixed-point iteration diverged (|divergence * dt| >= 1) at particle "
            f"ids {ids[bad][:8].tolist()}; reduce the step size")
    prefix = np.cumsum(vals, axis=1) / np.arange(1, m + 1)
    for j in range(m):
        y = prefix[:, j] - div * y * dt
    return y


def predict_value(prev_density: Callable[[Array], Array], model: StateSpaceModel,
                  t_k: float, x_k: Array, dt: float, cfg: PredictConfig,
                  rng: np.random.Generator) -> float:
    """Prior value at x_k from the discretization ``cfg.variant`` names.

    ``right_point_fixed_point`` (implicit) starts the recursion at the
    previous density evaluated at x_k itself and damps it with the drift
    divergence at x_k.  ``left_point`` (explicit) takes both expectations over
    the same reverse samples: the mean of the previous density minus dt times
    the mean of divergence-weighted values.  This is ``predict_cloud``'s path
    for the single anchor x_k, with particle id 0.
    """
    noise = rng.standard_normal((1, cfg.mc_samples, model.dim_noise))
    anchor = np.asarray(x_k, dtype=float).reshape(1, -1)
    return float(_prior_values(prev_density, model, t_k, anchor, dt, noise, cfg,
                               np.zeros(1, dtype=np.int64))[0])


def predict_cloud(prev_cloud: ParticleCloud, prev_density: Callable[[Array], Array],
                  model: StateSpaceModel, grid: TimeGrid, k: int,
                  cfg: PredictConfig, seed: int) -> ParticleCloud:
    """Advance a posterior cloud one step and attach prior density values.

    Locations move forward by an explicit Euler step; values follow the
    configured variant through the same path as ``predict_value``, so each
    particle's value is bit-identical to its value on the same streams.
    Values are clamped at zero only here, at the stage boundary.
    """
    dt = grid.dt(k)
    n = prev_cloud.n_particles
    d_w = model.dim_noise
    m = cfg.mc_samples

    fwd_noise = np.empty((n, d_w))
    bwd_noise = np.empty((n, m, d_w))
    for pid, fwd_row, bwd_row in zip(prev_cloud.ids.tolist(), fwd_noise, bwd_noise):
        substream(seed, "predict-forward", k, pid).standard_normal(out=fwd_row)
        substream(seed, "predict-backward", k, pid).standard_normal(out=bwd_row)

    try:
        forward = euler_step(model, grid.time(k - 1), prev_cloud.locations, dt,
                             math.sqrt(dt) * fwd_noise)
    except ModelBlowUpError as err:
        raise ModelBlowUpError(
            f"forward propagation produced non-finite states for particle ids "
            f"{prev_cloud.ids[err.rows][:8].tolist()}") from err
    values = _prior_values(prev_density, model, grid.time(k), forward, dt, bwd_noise,
                           cfg, prev_cloud.ids)
    return ParticleCloud(locations=forward, values=np.maximum(values, 0.0),
                         stage="prior", ids=prev_cloud.ids.copy())
