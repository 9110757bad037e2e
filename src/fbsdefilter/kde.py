"""Gaussian kernel mixtures and the classical fixed-bandwidth estimator.

The learned density is a weighted sum of unnormalized Gaussian bumps
``exp(-|x - center|^2 / bw^2)``; the weights absorb all normalization.
Weights may go transiently negative during gradient descent, so evaluation
is unconstrained and consumers clamp where they need nonnegativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EmptyDensityError

Array = np.ndarray

SQRT_PI = math.sqrt(math.pi)

# Rows of query points per block in ``KernelDensity.eval``: each block's
# (rows, L) temporaries stay in cache, and memory no longer grows with the
# number of points.
EVAL_BLOCK_ROWS = 2048


def _as_points(x: Array, dim: int) -> Array:
    """``x`` as a float array, checked to be ``(n, dim)`` points."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ConfigurationError(
            f"expected (n, dim) points with dim={dim}; got shape {x.shape}")
    return x


def _sq_dists(points: Array, centers: Array) -> Array:
    """Squared distances ``(..., L)`` of ``(..., d)`` points to ``(L, d)`` centers."""
    diff = points[..., None, :] - centers
    return (diff * diff).sum(axis=-1)


def _bumps(points: Array, centers: Array, bandwidths) -> tuple[Array, Array]:
    """Squared distances and bumps of ``(..., d)`` points against ``(L, d)`` centers.

    Both have shape ``(..., L)``; this is the one place the bump is computed.
    """
    sq = _sq_dists(points, centers)
    return sq, np.exp(-sq / bandwidths ** 2)


@dataclass
class KernelDensity:
    """Weighted Gaussian-bump mixture; immutable after construction."""

    centers: Array
    weights: Array
    bandwidths: Array

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        self.bandwidths = np.asarray(self.bandwidths, dtype=float).ravel()
        n = self.centers.shape[0]
        if n < 1:
            raise ConfigurationError("need at least one kernel component")
        if self.weights.shape != (n,) or self.bandwidths.shape != (n,):
            raise ConfigurationError("centers, weights, bandwidths must align")
        if not np.all(self.bandwidths > 0):
            raise ConfigurationError("bandwidths must be positive")
        if not (np.all(np.isfinite(self.centers)) and np.all(np.isfinite(self.weights))
                and np.all(np.isfinite(self.bandwidths))):
            raise ConfigurationError("kernel parameters must be finite")

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    @property
    def dim(self) -> int:
        return int(self.centers.shape[1])

    def eval(self, x: Array) -> Array:
        """Mixture values ``(n,)`` at ``(n, dim)`` points.

        Points are evaluated ``EVAL_BLOCK_ROWS`` at a time; each value is a
        sum over its own row, so blocking leaves every value unchanged.
        """
        pts = _as_points(x, self.dim)
        vals = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], EVAL_BLOCK_ROWS):
            rows = slice(start, start + EVAL_BLOCK_ROWS)
            _sq, bumps = _bumps(pts[rows], self.centers, self.bandwidths)
            vals[rows] = (bumps * self.weights).sum(axis=-1)
        return vals

    def component_integrals(self) -> Array:
        """Integral of each (unweighted) bump: (bandwidth * sqrt(pi))^dim."""
        return (self.bandwidths * SQRT_PI) ** self.dim

    def mass(self) -> float:
        """Signed total integral of the mixture (closed form)."""
        return float((self.weights * self.component_integrals()).sum())

    def negative_mass_fraction(self) -> float:
        """|mass carried by negative weights| / |total absolute mass|."""
        contrib = self.weights * self.component_integrals()
        total = np.abs(contrib).sum()
        if total == 0.0:
            return 0.0
        return float(np.abs(contrib[contrib < 0]).sum() / total)

    def inverse_sample(self, u: Array, z: Array) -> Array:
        """Mixture draws from ``(n,)`` uniforms and ``(n, dim)`` standard normals.

        Negative-weight components are ignored: ``u`` picks a component with
        probability proportional to its positive mass, then ``z`` places the
        point around its center with per-axis variance bandwidth^2 / 2 (the
        normal law matching the bump's exponent).  Each row depends only on
        its own ``u`` and ``z``.
        """
        masses = np.where(self.weights > 0, self.weights, 0.0) * self.component_integrals()
        total = masses.sum()
        if total <= 0:
            raise EmptyDensityError("no positive-weight component to sample from")
        cum = np.cumsum(masses / total)
        comp = np.minimum(np.searchsorted(cum, u, side="right"), self.n_components - 1)
        return self.centers[comp] + (self.bandwidths[comp, None] / math.sqrt(2.0)) * z

    def moments(self) -> tuple[Array, Array, float]:
        """Signed-mixture mean, covariance, and total mass."""
        contrib = self.weights * self.component_integrals()
        mass = contrib.sum()
        if abs(mass) < 1e-300:
            raise EmptyDensityError("mixture mass is numerically zero")
        mean = (contrib[:, None] * self.centers).sum(axis=0) / mass
        second = np.zeros((self.dim, self.dim))
        for l in range(self.n_components):
            c = self.centers[l]
            second += contrib[l] * (np.outer(c, c)
                                    + 0.5 * self.bandwidths[l] ** 2 * np.eye(self.dim))
        cov = second / mass - np.outer(mean, mean)
        return mean, cov, float(mass)


def save_density(kd: KernelDensity, path) -> None:
    """Write one component per line: center coords, weight, bandwidth.

    Floats are written with ``repr`` so the file round-trips exactly.
    """
    with open(path, "w", encoding="ascii") as handle:
        for l in range(kd.n_components):
            row = [*kd.centers[l], kd.weights[l], kd.bandwidths[l]]
            handle.write(" ".join(repr(float(v)) for v in row) + "\n")


# --- classical fixed-bandwidth estimator ------------------------------------

def mse_rate_exponent(dim: int) -> float:
    """Decay exponent of the estimator's mean-squared error in the sample count."""
    return 4.0 / (4 + dim)


def gaussian_bandwidth(n: int, dim: int, density_sup: float) -> float:
    """AMISE-optimal bandwidth of the standard normal kernel for n samples.

    The rule of Wand & Jones, *Kernel Smoothing* (1995), for a second-order
    kernel; ``density_sup`` bounds the target density.  The Holder step uses
    p = q = 2, whose factor ``(q + 1)^(2/q)`` is 3.
    """
    if n < 1 or dim < 1:
        raise ConfigurationError("n and dim must be positive")
    if density_sup <= 0:
        raise ConfigurationError("density_sup must be positive")
    # E[(sum_i |Z_i|)^2] for a standard normal vector
    abs_moment_sq = dim + dim * (dim - 1) * (2.0 / math.pi)
    moment = abs_moment_sq ** 2 / 3.0
    roughness = density_sup * (4.0 * math.pi) ** (-dim / 2.0)
    return (roughness * dim / (4.0 * n * moment)) ** (1.0 / (4 + dim))


def parzen_estimate(samples: Array, x: Array, density_sup: float) -> Array:
    """Fixed-bandwidth average-of-kernels density estimate ``(n,)`` at ``(n, dim)`` x.

    ``samples`` is ``(n_samples, dim)``.  Uses the standard normal kernel,
    i.e. the normalised bump at bandwidth ``sqrt(2) * h``, with
    ``h = gaussian_bandwidth(n_samples, dim, density_sup)``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ConfigurationError(
            f"expected (n, dim) samples; got shape {samples.shape}")
    n, dim = samples.shape
    query = _as_points(x, dim)
    h = gaussian_bandwidth(n, dim, density_sup)
    _sq, bumps = _bumps(query, samples, math.sqrt(2.0) * h)
    kernel_norm = (2.0 * math.pi) ** (-dim / 2.0)
    return (kernel_norm * bumps).mean(axis=1) / h ** dim
