"""Single-sample gradient descent fit of the kernel mixture to particle values.

The training loop works on id-sorted copies of the cloud, so a permutation of
particle storage order reproduces the same fit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentLearningError, check_count, check_positive
from .kde import SQRT_PI, KernelDensity, _bumps, _sq_dists
from .predict import ParticleCloud

Array = np.ndarray

# Bandwidths are clamped at this fraction of the initial bandwidth, since the
# bandwidth gradient grows like the inverse cube and unguarded descent can
# collapse a component.
BANDWIDTH_FLOOR_FRAC = 1e-3
# The exponent of ``np.power(bandwidths, 3)`` as a float array: the same
# float64 power loop runs, without converting a Python int at every step.
_THREE = np.array(3.0)
_THREE.flags.writeable = False


@dataclass(frozen=True)
class TrainConfig:
    """Step count and learning rates of the fit.

    Rates decay as ``rate / (1 + s / s0)`` with ``s0`` half the step count
    (at least 1).  Every bandwidth starts at the median pairwise distance
    between the selected centers divided by the square root of the state
    dimension, and is clamped at ``BANDWIDTH_FLOOR_FRAC`` times that start.
    """

    sgd_steps: int
    rate_weights: float = 0.05
    rate_bandwidths: float = 0.02

    def __post_init__(self):
        check_count("sgd_steps", self.sgd_steps)
        check_positive("rate_weights", self.rate_weights)
        check_positive("rate_bandwidths", self.rate_bandwidths)

    def rate_at(self, step: int | Array) -> tuple:
        """Weight and bandwidth rates at a step, or at an array of steps."""
        s0 = max(self.sgd_steps / 2.0, 1.0)
        damp = 1.0 / (1.0 + step / s0)
        return self.rate_weights * damp, self.rate_bandwidths * damp


@dataclass
class LossReport:
    """Full-sample loss, gradient norm and bandwidth clamp count of the fit."""

    final_loss: float
    final_grad_norm: float
    bandwidth_clamps: int = 0


def _select_center_rows(n: int, n_kernels: int, rng: np.random.Generator) -> Array:
    """Sorted distinct center rows, a uniform subsample of the ``n`` rows."""
    check_count("n_kernels", n_kernels, high=n)
    rows = rng.choice(n, size=n_kernels, replace=False)
    return np.sort(rows)  # stable order by particle index


def _descend(params: Array, grads: Array, pairs: Array, ys, rates: Array,
             floors: Array) -> tuple[float, int]:
    """Descent steps over the pairs; the one place the pair update is computed.

    ``params`` is ``(2, L)``, weights over bandwidths, updated in place, and
    ``grads`` receives each step's gradients: the weight gradient
    ``2 r bump`` and the bandwidth gradient, which multiplies it by the weight
    and ``2 |x - center|^2 / bandwidth^3``.  ``pairs`` holds each step's
    ``(2, L)`` minus and twice the squared distances to the centers, divided
    by the square and the cube of the bandwidths in one call; ``rates`` is
    ``(steps, 2, L)``.  Bandwidths below ``floors`` are raised to it.
    Returns the last residual and the number of clamped bandwidths.  Nothing
    here checks finiteness: a non-finite parameter stays non-finite through
    every later step (the clamp turns only ``-inf`` into the floor), so the
    caller scans once at the end.
    """
    weights, bandwidths = params
    grad_w, grad_b = grads
    n_kernels = bandwidths.size
    powers, quotients = np.empty((2, n_kernels)), np.empty((2, n_kernels))
    band_sq, band_cube = powers
    bumps, ratio = quotients
    scratch, update = np.empty(n_kernels), np.empty_like(params)
    two_resid = np.empty(())
    low = np.empty(n_kernels, dtype=bool)
    # the ufuncs as locals: a step makes twelve calls on arrays of L values,
    # so two attribute lookups per call are a measurable share of its cost
    square, power, divide, exp = np.square, np.power, np.divide, np.exp
    multiply, subtract, less, add_reduce = np.multiply, np.subtract, np.less, np.add.reduce
    resid, clamps = math.nan, 0
    for y, pair, rate in zip(ys, pairs, rates):
        # np.square and np.power(., 3) are what ``b ** 2`` and ``b ** 3`` call,
        # so the bumps equal ``_bumps``'s and the results match the unbuffered
        # formulas
        square(bandwidths, band_sq)
        power(bandwidths, _THREE, band_cube)
        divide(pair, powers, quotients)
        exp(bumps, bumps)
        resid = float(add_reduce(multiply(weights, bumps, scratch))) - y
        # a 0-d array skips the conversion of a Python float in the multiply
        two_resid[()] = 2.0 * resid
        multiply(bumps, two_resid, grad_w)
        multiply(grad_w, weights, grad_b)
        multiply(grad_b, ratio, grad_b)
        subtract(params, multiply(rate, grads, update), params)
        # a bool array's bytes are 0 and 1, so bytes.count counts it without
        # np.count_nonzero's Python wrapper
        n_low = less(bandwidths, floors, low).tobytes().count(1)
        if n_low:
            clamps += n_low
            np.maximum(bandwidths, floors, out=bandwidths)
    return resid, clamps


def _single_pair(kd: KernelDensity, x, y) -> tuple[float, Array, Array]:
    """Residual and both gradients at one pair: one descent step at rate zero."""
    sq = _sq_dists(np.asarray(x, dtype=float).ravel(), kd.centers)
    params = np.stack([kd.weights, kd.bandwidths])
    grads = np.empty_like(params)
    no_floor = np.full(kd.n_components, -math.inf)
    resid, _ = _descend(params, grads, np.stack([-sq, 2.0 * sq])[None],
                        [float(np.squeeze(y))], np.zeros((1,) + params.shape),
                        no_floor)
    return resid, *grads


def loss_and_gradients(kd: KernelDensity, x, y: float) -> tuple[float, Array, Array]:
    """Squared residual at one training pair and its analytic gradients.

    Returns ``(loss, d loss / d weights, d loss / d bandwidths)`` with the
    bandwidth gradient carrying the factor ``2 |x - center|^2 / bandwidth^3``.
    """
    resid, grad_w, grad_b = _single_pair(kd, x, y)
    return resid * resid, grad_w, grad_b


def _full_loss_and_gradient_norm(kd: KernelDensity, locations: Array,
                                 targets: Array) -> tuple[float, float]:
    """Average squared residual over the training set, and the Euclidean norm
    of its gradient over both parameter blocks.

    The residual is ``kd.eval`` at the locations, the mixture the filter
    carries; the gradient takes one pass over the bumps.
    """
    resid = kd.eval(locations) - targets
    sq, bumps = _bumps(locations, kd.centers, kd.bandwidths)
    grad_w = 2.0 * (resid[:, None] * bumps).mean(axis=0)
    grad_b = 2.0 * (resid[:, None] * bumps * (2.0 * sq / kd.bandwidths ** 3)
                    ).mean(axis=0) * kd.weights
    return (float(np.mean(resid * resid)),
            float(np.sqrt((grad_w * grad_w).sum() + (grad_b * grad_b).sum())))


def _initial_bandwidth(centers: Array, locations: Array) -> float:
    if centers.shape[0] >= 2:
        sq = _sq_dists(centers, centers)[np.triu_indices(centers.shape[0], k=1)]
    else:
        sq = _sq_dists(locations, centers).ravel()
    # the median distance grows like sqrt(d) times the spread of one axis
    width = float(np.median(np.sqrt(sq))) / math.sqrt(centers.shape[1])
    return width if width > 0 else 1.0


def sgd_fit(training: ParticleCloud, n_kernels: int, cfg: TrainConfig,
            rng: np.random.Generator) -> tuple[KernelDensity, LossReport]:
    """Fit a kernel mixture to (location, value) training pairs.

    Centers are a subsample of the cloud; every bandwidth starts at their
    median pairwise distance over the square root of the dimension (a
    per-axis width, which leaves d = 1 as it is), and initial weights make
    the mixture roughly interpolate the values at the centers.  Each step
    picks one training pair, evaluates the residual and both gradients at the
    current parameters, then updates weights and bandwidths simultaneously
    and clamps bandwidths at the floor.  The loop works in preallocated buffers, on
    distances to the centers computed for all picked pairs before it starts.
    Finiteness is checked once, after the last step; when it fails, the fit
    is replayed step by step to name the first step that diverged.
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
    # one call draws the same pair indices as one scalar draw per step
    picks = rng.integers(n, size=steps)
    # centers do not move, so every picked pair's distances are known up front
    sq = _sq_dists(locations[picks], centers)
    dists = np.empty((steps, 2, n_kernels))
    np.negative(sq, dists[:, 0])
    np.multiply(sq, 2.0, dists[:, 1])
    # each step's rates spelled out over the (2, L) parameters: a (2, 1) row
    # broadcast in the update costs more than the product itself
    rates = np.empty_like(dists)
    rates[...] = np.stack(cfg.rate_at(np.arange(1, steps + 1)), axis=1)[:, :, None]
    ys = targets[picks].tolist()
    floors = np.full(n_kernels, floor)
    # weights over bandwidths; descent updates them in place
    params = np.stack([weights, bandwidths])
    grads = np.empty_like(params)
    _, clamps = _descend(params, grads, dists, ys, rates, floors)
    if not np.isfinite(params).all():
        # replay from the start, one step at a time, to name the first step
        # that left a parameter non-finite; the first pass warned already
        params[:] = weights, bandwidths
        with np.errstate(all="ignore"):
            for s in range(1, steps + 1):
                _descend(params, grads, dists[s - 1:s], ys[s - 1:s],
                         rates[s - 1:s], floors)
                if not np.isfinite(params).all():
                    raise DivergentLearningError(
                        f"non-finite kernel parameters at descent step {s}; "
                        "lower the learning rates")

    kd = KernelDensity(centers, params[0].copy(), params[1].copy())
    return kd, LossReport(*_full_loss_and_gradient_norm(kd, locations, targets),
                          bandwidth_clamps=clamps)


def hessian(kd: KernelDensity, x, y: float, asymptotic: bool = False) -> Array:
    """Second derivatives of the single-pair squared loss, as a 2L x 2L matrix.

    Parameter order is all weights then all bandwidths.  With
    ``asymptotic=True`` every term carrying the residual is dropped (the
    regime where the mixture already interpolates the data), leaving exactly
    twice the outer product of the first-derivative factor vector.
    """
    resid, _, _ = _single_pair(kd, x, y)
    sq, bumps = _bumps(np.asarray(x, dtype=float).ravel(), kd.centers, kd.bandwidths)
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
