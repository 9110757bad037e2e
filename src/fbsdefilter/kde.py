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

from .errors import ConfigurationError, EmptyDensityError, check_count

Array = np.ndarray

SQRT_PI = math.sqrt(math.pi)

# Query points per block in ``KernelDensity.eval``.  Its two (L, rows)
# buffers are allocated once per call, so memory grows with the number of
# points only through the output.  Chosen by timing 2048-12288 rows at
# (points, L) = (128 000, 32) and (12 800, 24) on a Xeon with 2 MB of L2 per
# core: 8192 was fastest, where one buffer takes 1.5-2 MB.
EVAL_BLOCK_ROWS = 8192


def _as_points(x: Array, dim: int) -> Array:
    """``x`` as a float array, checked to be ``(n, dim)`` points."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ConfigurationError(
            f"expected (n, dim) points with dim={dim}; got shape {x.shape}")
    return x


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


def _pairwise_sum(terms: Array, out: Array) -> None:
    """``out`` = sum over the first axis of ``(n, rows)`` ``terms``, clobbering them.

    The terms are added in the order numpy's ``add.reduce`` adds an n-long
    contiguous row, so each column's sum has the bits of that row's sum:
    below 8 terms in order; up to 128 in 8 running partials over blocks of
    8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder
    in order; above 128 the two halves split at n/2 rounded down to a
    multiple of 8.  Partials are kept in the rows they start in.
    """
    n = terms.shape[0]
    if n < 8:
        np.copyto(out, terms[0])
        for row in terms[1:]:
            np.add(out, row, out)
    elif n <= 128:
        partials = terms[:8]
        stop = n - n % 8
        for start in range(8, stop, 8):
            np.add(partials, terms[start:start + 8], partials)
        np.add(partials[0::2], partials[1::2], partials[0::2])
        np.add(partials[0::4], partials[2::4], partials[0::4])
        np.add(partials[0], partials[4], out)
        for row in terms[stop:]:
            np.add(out, row, out)
    else:
        half = n // 2 - (n // 2) % 8
        _pairwise_sum(terms[half:], terms[half])
        _pairwise_sum(terms[:half], out)
        np.add(out, terms[half], out)


def _bumps(points: Array, centers: Array, bandwidths) -> tuple[Array, Array]:
    """Squared distances and bumps of ``(..., d)`` points against ``(L, d)`` centers.

    Both have shape ``(..., L)``.  This is the bump of the Hessian, the
    Parzen estimate and the fit's closing full-sample pass; the descent step
    and ``KernelDensity.eval`` form the same bits in their own buffers, which
    tests pin against this helper.
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
        since IEEE division is symmetric in sign.  ``_pairwise_sum`` adds
        each column in numpy's order for an L-long row, and the sum starts
        from numpy's identity 0.0 (so -0.0 terms sum to +0.0): every value
        has the bits of the row-major one-shot formula, whatever the block.
        """
        pts = _as_points(x, self.dim)
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
            _pairwise_sum(block_terms, block_vals)
            np.add(block_vals, 0.0, block_vals)  # numpy's sum starts from 0.0
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
    check_count("n", n)
    check_count("dim", dim)
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
