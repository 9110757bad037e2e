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

from .errors import ConfigurationError, EmptyDensityError, check_count, check_points, \
    check_positive

Array = np.ndarray

SQRT_PI = math.sqrt(math.pi)

# Query points per block in ``KernelDensity.eval``.  Its two (L, rows)
# buffers are allocated once per call, so memory grows with the number of
# points only through the output.  Chosen by timing 2048-12288 rows at
# (points, L) = (128 000, 32) and (12 800, 24) on a Xeon with 2 MB of L2 per
# core: 8192 was fastest, where one buffer takes 1.5-2 MB.
EVAL_BLOCK_ROWS = 8192


def _sq_dists(points: Array, centers: Array, out: Array | None = None,
              diff: Array | None = None) -> Array:
    """Squared distances ``(..., L)`` of ``(..., d)`` points to ``(L, d)`` centers.

    Coordinates are added one at a time, left to right, which is the order
    numpy's sum over a last axis shorter than 8 takes.  The first
    coordinate's difference is squared in ``out`` itself and the later ones
    go through ``diff``; both are optional ``(..., L)`` buffers.
    """
    shape = points.shape[:-1] + centers.shape[:1]
    out = np.empty(shape) if out is None else out
    np.subtract(points[..., 0, None], centers[:, 0], out)
    np.multiply(out, out, out)
    for j in range(1, centers.shape[1]):
        diff = np.empty(shape) if diff is None else diff
        np.subtract(points[..., j, None], centers[:, j], diff)
        np.add(out, np.multiply(diff, diff, diff), out)
    return out


def _bumps(points: Array, centers: Array, bandwidths) -> tuple[Array, Array]:
    """Squared distances and bumps of ``(..., d)`` points against ``(L, d)`` centers.

    Both have shape ``(..., L)``.  This is the bump of the Hessian, the
    Parzen estimate and the gradient of the fit's closing full-sample pass;
    the descent step and ``KernelDensity.eval`` form the same bits in their
    own buffers, which tests pin against this helper.
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
        self.centers = np.asarray(self.centers, dtype=float)
        if self.centers.ndim != 2 or self.centers.shape[1] < 1:
            raise ConfigurationError(
                f"centers must be an (L, dim) array with dim >= 1; got shape "
                f"{self.centers.shape}")
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

        Points are evaluated ``EVAL_BLOCK_ROWS`` at a time, component-major:
        the block's terms are an ``(L, rows)`` array, so every elementwise
        step runs along contiguous rows against one scalar per component.
        Its squared distances come from ``_sq_dists`` with centers and points
        swapped, which changes only the sign of each difference.  Dividing
        by ``-(bandwidth^2)`` gives the bits of ``_bumps``'s ``-sq / bw^2``,
        since IEEE division is symmetric in sign.  Each value is its weighted
        bumps added in component order, starting from +0.0 (so -0.0 terms sum
        to +0.0): it depends only on its own point, whatever the block or the
        batch.
        """
        pts = check_points("x", x, self.dim)
        n = pts.shape[0]
        vals = np.empty(n)
        terms = np.empty((self.n_components, min(n, EVAL_BLOCK_ROWS)))
        work = np.empty_like(terms)
        neg_bw2 = -(self.bandwidths ** 2)[:, None]
        weights = self.weights[:, None]
        for start in range(0, n, EVAL_BLOCK_ROWS):
            block = pts[start:start + EVAL_BLOCK_ROWS]
            rows = block.shape[0]
            # squared distances, then bumps, then weighted bumps, in place
            block_terms = _sq_dists(self.centers, block, terms[:, :rows], work[:, :rows])
            np.divide(block_terms, neg_bw2, block_terms)
            np.exp(block_terms, block_terms)
            np.multiply(block_terms, weights, block_terms)
            block_vals = vals[start:start + rows]
            np.add(block_terms[0], 0.0, block_vals)
            for term in block_terms[1:]:
                np.add(block_vals, term, block_vals)
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
        # the rounded cumulative mass can end below 1; a uniform above it
        # takes the last component with positive mass
        last = np.flatnonzero(masses > 0)[-1]
        comp = np.minimum(np.searchsorted(cum, u, side="right"), last)
        return self.centers[comp] + (self.bandwidths[comp, None] / math.sqrt(2.0)) * z

    def moments(self) -> tuple[Array, Array, float]:
        """Signed-mixture mean, covariance, and total mass."""
        contrib = self.weights * self.component_integrals()
        mass = contrib.sum()
        if abs(mass) < 1e-300:
            raise EmptyDensityError("mixture mass is numerically zero")
        mean = (contrib[:, None] * self.centers).sum(axis=0) / mass
        # einsum without ``optimize`` sums in its own loops, not BLAS, so the
        # bits do not depend on the BLAS thread count
        spread = 0.5 * self.bandwidths[:, None, None] ** 2 * np.eye(self.dim)
        second = np.einsum("l,lij->ij", contrib,
                           self.centers[:, :, None] * self.centers[:, None, :] + spread)
        cov = second / mass - np.outer(mean, mean)
        return mean, cov, float(mass)


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
    check_count("n", n)
    check_count("dim", dim)
    density_sup = check_positive("density_sup", density_sup)
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
    samples = check_points("samples", samples)
    n, dim = samples.shape
    query = check_points("x", x, dim)
    h = gaussian_bandwidth(n, dim, density_sup)
    _sq, bumps = _bumps(query, samples, math.sqrt(2.0) * h)
    kernel_norm = (2.0 * math.pi) ** (-dim / 2.0)
    return (kernel_norm * bumps).mean(axis=1) / h ** dim
