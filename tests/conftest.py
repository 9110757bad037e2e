import math

import numpy as np
import pytest

from fbsdefilter.errors import ConfigurationError
from fbsdefilter.kde import KernelDensity
from fbsdefilter.model import StateSpaceModel


def make_model_1d(drift, divergence=None, sigma=1.0, obs_map=None, obs_noise=1.0,
                  mean0=0.0, var0=1.0):
    """Compact scalar-model builder for tests."""
    norm = 1.0 / math.sqrt(2.0 * math.pi * var0)

    def density(x):
        z = np.asarray(x, dtype=float)[..., 0] - mean0
        return norm * np.exp(-0.5 * z * z / var0)

    def sampler(n, rng):
        return mean0 + math.sqrt(var0) * rng.standard_normal((n, 1))

    return StateSpaceModel(
        dim_state=1,
        dim_obs=1,
        drift=drift,
        drift_divergence=divergence,
        diffusion=lambda t: np.array([[sigma]]),
        obs_map=obs_map if obs_map is not None else (lambda x: np.asarray(x, dtype=float)),
        obs_noise=lambda t: np.array([[obs_noise]]),
        initial_density=density,
        initial_sampler=sampler,
    )


def load_density(path) -> KernelDensity:
    """Read a mixture written by ``kde.save_density``: one component per line."""
    centers, weights, bandwidths = [], [], []
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 3:
                raise ConfigurationError(f"malformed kernel record: {line!r}")
            values = [float(p) for p in parts]
            centers.append(values[:-2])
            weights.append(values[-2])
            bandwidths.append(values[-1])
    if not centers:
        raise ConfigurationError(f"no kernel components found in {path}")
    return KernelDensity(np.array(centers), np.array(weights), np.array(bandwidths))


def ou_exact_moments(theta: float, sigma: float, x0: float, t: float) -> tuple[float, float]:
    """Mean and variance of dX = -theta X dt + sigma dW at time t from x0."""
    mean = x0 * math.exp(-theta * t)
    var = sigma * sigma * (1.0 - math.exp(-2.0 * theta * t)) / (2.0 * theta)
    return mean, var


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)
