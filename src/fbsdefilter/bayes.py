"""Gaussian observation likelihood and the self-normalized Bayesian update.

Likelihoods are evaluated in log space and floored at exp(-700) so that far
tails underflow gracefully instead of producing zeros; the update detects the
fully degenerate case and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DegenerateObservationError, check_points, \
    check_positive
from .model import StateSpaceModel, TimeGrid, matvec
from .predict import ParticleCloud

Array = np.ndarray

LOG_FLOOR = -700.0
DENSITY_FLOOR = math.exp(LOG_FLOOR)


@dataclass
class Likelihood:
    """One-step observation likelihood.

    Given the previous and current cumulative observations, the current
    observation is Gaussian around ``obs_prev + obs_map(x) * dt`` with
    covariance ``obs_noise obs_noise^T dt``.
    """

    obs_prev: Array
    obs_now: Array
    dt: float
    obs_map: Callable[[Array], Array]
    obs_noise: Array

    def __post_init__(self):
        self.obs_prev = np.asarray(self.obs_prev, dtype=float).ravel()
        self.obs_now = np.asarray(self.obs_now, dtype=float).ravel()
        self.obs_noise = np.atleast_2d(np.asarray(self.obs_noise, dtype=float))
        if self.obs_prev.shape != self.obs_now.shape:
            raise ConfigurationError("observation vectors must have equal length")
        self.dt = check_positive("dt", self.dt)
        d = self.obs_prev.size
        if self.obs_noise.shape != (d, d):
            raise ConfigurationError("obs_noise must be a square matrix matching d_obs")
        cov = self.obs_noise @ self.obs_noise.T * self.dt
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigurationError(
                "observation covariance (noise noise^T dt) is not positive definite"
            ) from None
        self._precision = np.linalg.inv(cov)
        self._log_norm = -0.5 * (d * math.log(2.0 * math.pi)
                                 + 2.0 * float(np.log(np.diag(chol)).sum()))


def step_likelihood(model: StateSpaceModel, grid: TimeGrid, k: int, obs_prev: Array,
                    obs_now: Array) -> Likelihood:
    """Likelihood of step k's observation increment, at t_k over dt_k."""
    return Likelihood(obs_prev, obs_now, grid.dt(k), model.obs_map,
                      model.obs_noise(grid.time(k)))


def likelihood_density(lik: Likelihood, x: Array) -> Array:
    """Gaussian observation density ``(n,)`` at ``(n, dim)`` states.

    Evaluated in log space, with the log density floored at -700.
    """
    x = check_points("x", x)
    mean = lik.obs_prev + np.asarray(lik.obs_map(x), dtype=float) * lik.dt
    diff = lik.obs_now - mean
    quad = (matvec(lik._precision, diff) * diff).sum(axis=-1)
    return np.exp(np.maximum(lik._log_norm - 0.5 * quad, LOG_FLOOR))


def _id_ordered_mean(values: Array, ids: Array) -> float:
    """Mean accumulated in id order, so the result ignores storage order."""
    return float(np.mean(values[np.argsort(ids)]))


def _cloud_likelihoods(cloud: ParticleCloud, lik: Likelihood) -> Array:
    if cloud.n_particles == 0:
        raise ConfigurationError("empty particle cloud")
    return likelihood_density(lik, cloud.locations)


def denominator_mc(prior: ParticleCloud, lik: Likelihood) -> float:
    """Sample mean of the likelihood over prior particle locations."""
    vals = _cloud_likelihoods(prior, lik)
    return _id_ordered_mean(vals, prior.ids)


def bayes_update(prior: ParticleCloud, lik: Likelihood) -> ParticleCloud:
    """Scale prior values by likelihood over its particle average.

    Locations are untouched; scaling every likelihood by a positive constant
    cancels exactly, and uniform prior values keep mean one by construction.
    """
    if prior.stage != "prior":
        raise ConfigurationError("bayes_update expects a prior-stage cloud")
    liks = _cloud_likelihoods(prior, lik)
    if np.all(liks <= DENSITY_FLOOR):
        raise DegenerateObservationError(
            "all particle likelihoods underflowed; the observation is "
            "incompatible with the predicted cloud")
    denom = _id_ordered_mean(liks, prior.ids)
    values = prior.values * liks / denom
    return ParticleCloud(locations=prior.locations, values=values, stage="posterior",
                         ids=prior.ids.copy())
