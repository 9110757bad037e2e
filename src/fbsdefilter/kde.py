"""Gaussian kernel mixtures and the classical fixed-bandwidth estimator.

The learned density is a weighted sum of unnormalized Gaussian bumps
``phi(x | center, bw) = exp(-|x - center|^2 / bw^2)``; the weights absorb all
normalization.  Weights may go transiently negative during gradient descent,
so evaluation is unconstrained and consumers clamp where they need
nonnegativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigurationError, EmptyDensityError

Array = np.ndarray

SQRT_PI = math.sqrt(math.pi)


def _as_points(x, dim: int) -> tuple[Array, bool]:
    """Normalize query input to (n, dim); returns (points, was_single_point).

    For dim == 1 a python scalar or 0-d array is a single point and a 1-d
    array is a batch; for dim > 1 a 1-d array of length dim is a single point.
    """
    x = np.asarray(x, dtype=float)
    if dim == 1:
        if x.ndim == 0:
            return x.reshape(1, 1), True
        if x.ndim == 1:
            return x[:, None], False
        if x.ndim == 2 and x.shape[1] == 1:
            return x, False
    else:
        if x.ndim == 1 and x.shape[0] == dim:
            return x[None, :], True
        if x.ndim == 2 and x.shape[1] == dim:
            return x, False
    raise ConfigurationError(f"cannot interpret points of shape {x.shape} in dimension {dim}")


def _bumps(points: Array, centers: Array, bandwidths) -> tuple[Array, Array]:
    """Squared distances and bumps of ``(..., d)`` points against ``(L, d)`` centers.

    Both have shape ``(..., L)``; this is the one place the bump is computed.
    """
    diff = points[..., None, :] - centers
    sq = (diff * diff).sum(axis=-1)
    return sq, np.exp(-sq / bandwidths ** 2)


def phi(x, center, bandwidth: float):
    """Unnormalized Gaussian bump exp(-|x - center|^2 / bandwidth^2) around one center."""
    center = np.asarray(center, dtype=float).reshape(1, -1)
    _sq, bump = _bumps(np.atleast_1d(np.asarray(x, dtype=float)), center, float(bandwidth))
    return bump[..., 0]


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

    def eval(self, x):
        """Mixture value at x; scalar in, scalar out, batch in, batch out."""
        pts, single = _as_points(x, self.dim)
        _sq, bumps = _bumps(pts, self.centers, self.bandwidths)
        vals = (bumps * self.weights).sum(axis=-1)
        return float(vals[0]) if single else vals

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

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from the mixture, ignoring negative-weight components.

        Draws the component uniforms, then the standard normals, and places
        them with ``inverse_sample``.
        """
        n = 1 if size is None else int(size)
        u = rng.random(n)
        pts = self.inverse_sample(u, rng.standard_normal((n, self.dim)))
        return pts[0] if size is None else pts

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


def load_density(path) -> KernelDensity:
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


# --- classical fixed-bandwidth estimator ------------------------------------

@dataclass(frozen=True)
class BandwidthSpec:
    """Inputs of the closed-form mean-square-optimal bandwidth.

    ``moment_constant`` is the squared kernel-moment factor, and
    ``roughness_constant`` is the kernel roughness scaled by the sup of the
    target density; both enter the optimal bandwidth
    ``h = (roughness * dim / (2 * order * n * sobolev^2 * moment))^(1/(2*order+dim))``.
    """

    n: int
    dim: int
    kernel_order: int = 2
    moment_constant: float = 1.0
    roughness_constant: float = 1.0
    sobolev_bound: float = 1.0
    density_sup: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.dim < 1 or self.kernel_order < 1:
            raise ConfigurationError("n, dim and kernel_order must be positive")
        if min(self.moment_constant, self.roughness_constant, self.sobolev_bound,
               self.density_sup) <= 0:
            raise ConfigurationError("bandwidth constants must be positive")

    @property
    def bandwidth(self) -> float:
        m = self.kernel_order
        num = self.roughness_constant * self.dim
        den = 2.0 * m * self.n * self.sobolev_bound ** 2 * self.moment_constant
        return (num / den) ** (1.0 / (2 * m + self.dim))

    @property
    def rate_exponent(self) -> float:
        """Mean-squared-error decay exponent in the sample count."""
        m = self.kernel_order
        return 2.0 * m / (2.0 * m + self.dim)

    @property
    def shape_factor(self) -> float:
        m, d = self.kernel_order, self.dim
        p = 2.0 * m / (2 * m + d)
        return (2 * m + d) / ((2.0 * m) ** p * d ** (d / (2 * m + d)))

    @property
    def error_constant(self) -> float:
        """Leading constant of the optimal mean-squared error."""
        m, d = self.kernel_order, self.dim
        a = self.sobolev_bound ** 2 * self.moment_constant
        return self.shape_factor * a ** (d / (2 * m + d)) \
            * self.roughness_constant ** (2.0 * m / (2 * m + d))

    @classmethod
    def gaussian(cls, n: int, dim: int, density_sup: float) -> "BandwidthSpec":
        """Constants for the standard normal kernel (order 2).

        ``density_sup`` has no observable truth in practice; the documented
        plug-in heuristic is the largest observed density value.  The Sobolev
        bound is 1, and the Holder step uses p = q = 2, whose factor
        ``(q + 1)^(2/q)`` is 3.
        """
        # E[(sum_i |Z_i|)^2] for a standard normal vector
        abs_moment_sq = dim + dim * (dim - 1) * (2.0 / math.pi)
        moment = abs_moment_sq ** 2 / 3.0
        roughness = density_sup * (4.0 * math.pi) ** (-dim / 2.0)
        return cls(n=n, dim=dim, kernel_order=2, moment_constant=moment,
                   roughness_constant=roughness, density_sup=density_sup)


def plugin_density_sup(values: Iterable[float]) -> float:
    """Plug-in estimate of the density sup: the largest observed value."""
    sup = float(np.max(np.asarray(list(values), dtype=float)))
    if sup <= 0:
        raise ConfigurationError("observed density values must include a positive one")
    return sup


def parzen_estimate(samples: Array, spec: BandwidthSpec, x):
    """Fixed-bandwidth average-of-kernels density estimate at x.

    Uses the standard normal kernel, i.e. the normalised bump at bandwidth
    ``sqrt(2) * h``, with the closed-form bandwidth ``h`` from ``spec``;
    ``spec.n`` must match the number of samples.
    """
    pts, _ = _as_points(samples, spec.dim)
    if pts.shape[0] != spec.n:
        raise ConfigurationError(f"spec.n={spec.n} but {pts.shape[0]} samples given")
    query, single = _as_points(x, spec.dim)
    h = spec.bandwidth
    _sq, bumps = _bumps(query, pts, math.sqrt(2.0) * h)
    kernel_norm = (2.0 * math.pi) ** (-spec.dim / 2.0)
    out = (kernel_norm * bumps).mean(axis=1) / h ** spec.dim
    return float(out[0]) if single else out
