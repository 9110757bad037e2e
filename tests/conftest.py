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
    """Read the mixture table of ``filtering.write_checkpoint``: a header
    ``c0,...,c{d-1},weight,bandwidth``, then one component per row."""
    with open(path, "r", encoding="ascii") as handle:
        header, *rows = [line.rstrip("\n").split(",") for line in handle]
    dim = len(header) - 2
    if dim < 1 or header != [f"c{j}" for j in range(dim)] + ["weight", "bandwidth"]:
        raise ConfigurationError(f"not a mixture table header: {header!r}")
    if not rows or any(len(row) != len(header) for row in rows):
        raise ConfigurationError(f"malformed kernel records in {path}")
    table = np.array([[float(cell) for cell in row] for row in rows])
    return KernelDensity(table[:, :dim], table[:, dim], table[:, dim + 1])


def write_csv_rows(path, header, rows) -> None:
    """The row-at-a-time table writer that ``artifacts.write_csv`` replaced: ``int``
    and ``str`` cells via ``str``, every other cell via ``repr(float(v))``.  Tests
    compare the column writer's bytes against it."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(c) if isinstance(c, (int, str)) else repr(float(c))
                                  for c in row) + "\n")


def ou_exact_moments(theta: float, sigma: float, x0: float, t: float) -> tuple[float, float]:
    """Mean and variance of dX = -theta X dt + sigma dW at time t from x0."""
    mean = x0 * math.exp(-theta * t)
    var = sigma * sigma * (1.0 - math.exp(-2.0 * theta * t)) / (2.0 * theta)
    return mean, var


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)
