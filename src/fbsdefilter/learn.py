"""Single-sample gradient descent fit of the kernel mixture to particle values.

The training loop works on id-sorted copies of the cloud, so a permutation of
particle storage order reproduces the same fit exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergentLearningError
from .kde import SQRT_PI, KernelDensity, _bumps, _sq_dists
from .predict import ParticleCloud

Array = np.ndarray

# Bandwidths are clamped at this fraction of the initial bandwidth, since the
# bandwidth gradient grows like the inverse cube and unguarded descent can
# collapse a component.
BANDWIDTH_FLOOR_FRAC = 1e-3


@dataclass(frozen=True)
class TrainConfig:
    """Step count and learning rates of the fit.

    Rates decay as ``rate / (1 + s / s0)`` with ``s0`` half the step count
    (at least 1).  Every bandwidth starts at the median pairwise distance
    between the selected centers and is clamped at ``BANDWIDTH_FLOOR_FRAC``
    times that start.
    """

    sgd_steps: int
    rate_weights: float = 0.05
    rate_bandwidths: float = 0.02

    def __post_init__(self):
        if self.sgd_steps < 1:
            raise ConfigurationError("sgd_steps must be >= 1")
        if self.rate_weights <= 0 or self.rate_bandwidths <= 0:
            raise ConfigurationError("learning rates must be positive")

    def rate_at(self, step: int | Array) -> tuple:
        """Weight and bandwidth rates at a step, or at an array of steps."""
        s0 = max(self.sgd_steps / 2.0, 1.0)
        damp = 1.0 / (1.0 + step / s0)
        return self.rate_weights * damp, self.rate_bandwidths * damp


@dataclass
class LossReport:
    """Per-step trace of the fit.

    ``trace[0]`` is the full-sample loss at initialization; ``trace[s]`` for
    s >= 1 is the single-sample loss seen at step s before the update, with
    the matching entry of ``sample_indices`` (-1 at step 0).
    """

    trace: Array
    sample_indices: Array
    final_loss: float
    final_grad_norm: float
    bandwidth_clamps: int = 0


def _select_center_rows(n: int, n_kernels: int, rng: np.random.Generator) -> Array:
    """Sorted distinct center rows, a uniform subsample of the ``n`` rows."""
    if not 1 <= n_kernels <= n:
        raise ConfigurationError(f"need 1 <= n_kernels <= {n}, got {n_kernels}")
    rows = rng.choice(n, size=n_kernels, replace=False)
    return np.sort(rows)  # stable order by particle index


def _pair_gradients(neg_sq: Array, two_sq: Array, y: float, params: tuple,
                    grads: tuple, bumps: Array, scratch: Array) -> float:
    """Residual at one training pair; gradients go to ``grads``, bumps to ``bumps``.

    ``params`` is ``(weights, bandwidths)`` and ``grads`` receives the weight
    gradient ``2 r bump`` and the bandwidth gradient, which multiplies it by
    the weight and ``2 |x - center|^2 / bandwidth^3``.  ``neg_sq`` and
    ``two_sq`` are minus and twice the squared distances of the pair to the
    centers.  All arrays are ``(L,)``; ``scratch`` is a work buffer.
    """
    weights, bandwidths = params
    grad_w, grad_b = grads
    # np.square and np.power(., 3) are what ``b ** 2`` and ``b ** 3`` call, so
    # the bumps equal ``_bumps``'s and the results match the unbuffered formulas
    np.divide(neg_sq, np.square(bandwidths, scratch), bumps)
    np.exp(bumps, bumps)
    resid = float(np.add.reduce(np.multiply(weights, bumps, scratch))) - y
    np.multiply(bumps, 2.0 * resid, grad_w)
    np.multiply(grad_w, weights, grad_b)
    np.divide(two_sq, np.power(bandwidths, 3, scratch), scratch)
    np.multiply(grad_b, scratch, grad_b)
    return resid


def _single_pair(kd: KernelDensity, x, y) -> tuple[float, Array, Array, Array, Array]:
    """Residual, both gradients, squared distances and bumps at one pair."""
    sq = _sq_dists(np.asarray(x, dtype=float).ravel(), kd.centers)
    grads = (np.empty(kd.n_components), np.empty(kd.n_components))
    bumps = np.empty(kd.n_components)
    resid = _pair_gradients(-sq, 2.0 * sq, float(np.squeeze(y)),
                            (kd.weights, kd.bandwidths), grads, bumps,
                            np.empty(kd.n_components))
    return resid, *grads, sq, bumps


def loss_and_gradients(kd: KernelDensity, x, y: float) -> tuple[float, Array, Array]:
    """Squared residual at one training pair and its analytic gradients.

    Returns ``(loss, d loss / d weights, d loss / d bandwidths)`` with the
    bandwidth gradient carrying the factor ``2 |x - center|^2 / bandwidth^3``.
    """
    resid, grad_w, grad_b, _, _ = _single_pair(kd, x, y)
    return resid * resid, grad_w, grad_b


def full_loss(kd: KernelDensity, locations: Array, targets: Array) -> float:
    """Average squared residual over the whole training set."""
    resid = kd.eval(locations) - np.asarray(targets, dtype=float)
    return float(np.mean(resid * resid))


def full_gradient_norm(kd: KernelDensity, locations: Array, targets: Array) -> float:
    """Euclidean norm of the average-loss gradient over both parameter blocks."""
    sq, bumps = _bumps(locations, kd.centers, kd.bandwidths)
    resid = (bumps * kd.weights).sum(axis=1) - np.asarray(targets, dtype=float)
    grad_w = 2.0 * (resid[:, None] * bumps).mean(axis=0)
    grad_b = 2.0 * (resid[:, None] * bumps * (2.0 * sq / kd.bandwidths ** 3)
                    ).mean(axis=0) * kd.weights
    return float(np.sqrt((grad_w * grad_w).sum() + (grad_b * grad_b).sum()))


def _initial_bandwidth(centers: Array, locations: Array) -> float:
    if centers.shape[0] >= 2:
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        vals = dist[np.triu_indices(centers.shape[0], k=1)]
    else:
        diff = locations - centers[0]
        vals = np.sqrt((diff * diff).sum(axis=-1))
    width = float(np.median(vals))
    return width if width > 0 else 1.0


def sgd_fit(training: ParticleCloud, n_kernels: int, cfg: TrainConfig,
            rng: np.random.Generator) -> tuple[KernelDensity, LossReport]:
    """Fit a kernel mixture to (location, value) training pairs.

    Centers are a subsample of the cloud; initial weights make the mixture
    roughly interpolate the values at the centers.  Each step picks one
    training pair, evaluates the residual and both gradients at the current
    parameters, then updates weights and bandwidths simultaneously and clamps
    bandwidths at the floor.  The loop works in preallocated buffers, on
    distances to the centers computed for all picked pairs before it starts.
    """
    order = np.argsort(training.ids)
    locations = training.locations[order]
    targets = training.values[order]
    n = targets.size

    rows = _select_center_rows(n, n_kernels, rng)
    centers = locations[rows].copy()
    width0 = _initial_bandwidth(centers, locations)
    dim = centers.shape[1]
    weights = targets[rows] / (n_kernels * (width0 * SQRT_PI) ** dim)
    bandwidths = np.full(n_kernels, float(width0))
    floor = BANDWIDTH_FLOOR_FRAC * width0

    steps = cfg.sgd_steps
    trace = np.empty(steps + 1)
    picks = np.full(steps + 1, -1, dtype=np.int64)
    trace[0] = full_loss(KernelDensity(centers, weights.copy(), bandwidths.copy()),
                         locations, targets)
    clamps = 0

    # one call draws the same pair indices as one scalar draw per step
    picks[1:] = rng.integers(n, size=steps)
    # centers do not move, so every picked pair's distances are known up front
    sq = _sq_dists(locations[picks[1:]], centers)
    neg_sq, two_sq = -sq, 2.0 * sq
    rates = np.stack(cfg.rate_at(np.arange(1, steps + 1)), axis=1)[:, :, None]
    # weights over bandwidths; descent updates them in place
    params = np.stack([weights, bandwidths])
    grads, update = np.empty_like(params), np.empty_like(params)
    param_rows, grad_rows = tuple(params), tuple(grads)
    bandwidths = param_rows[1]
    bumps, scratch = np.empty(n_kernels), np.empty(n_kernels)
    low, finite = np.empty(n_kernels, dtype=bool), np.empty(params.shape, dtype=bool)
    for s, y, neg, two, rate in zip(range(1, steps + 1), targets[picks[1:]].tolist(),
                                    neg_sq, two_sq, rates):
        resid = _pair_gradients(neg, two, y, param_rows, grad_rows, bumps, scratch)
        trace[s] = resid * resid
        np.subtract(params, np.multiply(rate, grads, update), params)
        n_low = np.count_nonzero(np.less(bandwidths, floor, low))
        if n_low:
            clamps += n_low
            np.maximum(bandwidths, floor, out=bandwidths)
        if np.count_nonzero(np.isfinite(params, finite)) != params.size:
            raise DivergentLearningError(
                f"non-finite kernel parameters at descent step {s}; "
                "lower the learning rates")

    kd = KernelDensity(centers, params[0].copy(), params[1].copy())
    report = LossReport(
        trace=trace,
        sample_indices=picks,
        final_loss=full_loss(kd, locations, targets),
        final_grad_norm=full_gradient_norm(kd, locations, targets),
        bandwidth_clamps=clamps,
    )
    return kd, report


def hessian(kd: KernelDensity, x, y: float, asymptotic: bool = False) -> Array:
    """Second derivatives of the single-pair squared loss, as a 2L x 2L matrix.

    Parameter order is all weights then all bandwidths.  With
    ``asymptotic=True`` every term carrying the residual is dropped (the
    regime where the mixture already interpolates the data), leaving exactly
    twice the outer product of the first-derivative factor vector.
    """
    resid, _, _, sq, bumps = _single_pair(kd, x, y)
    dist_factor = 2.0 * sq / kd.bandwidths ** 3
    bw_sens = kd.weights * bumps * dist_factor

    block_ww = 2.0 * np.outer(bumps, bumps)
    block_bb = 2.0 * np.outer(bw_sens, bw_sens)
    block_wb = 2.0 * np.outer(bumps, bw_sens)
    if not asymptotic:
        curvature = dist_factor ** 2 - 6.0 * sq / kd.bandwidths ** 4
        block_bb[np.diag_indices_from(block_bb)] += \
            2.0 * resid * kd.weights * bumps * curvature
        block_wb[np.diag_indices_from(block_wb)] += 2.0 * resid * bumps * dist_factor

    top = np.hstack([block_ww, block_wb])
    bottom = np.hstack([block_wb.T, block_bb])
    return np.vstack([top, bottom])
