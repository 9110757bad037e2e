"""Single-sample gradient descent fit of the kernel mixture to particle values.

The training loop works on id-sorted copies of the cloud, so a permutation of
particle storage order reproduces the same fit exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .errors import ConfigurationError, DivergentLearningError
from .kde import SQRT_PI, KernelDensity, _bumps
from .predict import ParticleCloud

Array = np.ndarray

CENTER_RULES = ("uniform_subsample", "weighted_subsample")

# Bandwidths are clamped at this fraction of the initial bandwidth, since the
# bandwidth gradient grows like the inverse cube and unguarded descent can
# collapse a component.
BANDWIDTH_FLOOR_FRAC = 1e-3


@dataclass(frozen=True)
class TrainConfig:
    """Step count, learning-rate schedule, and initialization knobs.

    Rates decay as ``rate / (1 + s / decay_steps)``; ``decay_steps=None``
    uses half the step count.  ``init_bandwidth=None`` starts every bandwidth
    at the median pairwise distance between the selected centers.
    Bandwidths are clamped at ``BANDWIDTH_FLOOR_FRAC`` times the initial
    bandwidth.
    """

    sgd_steps: int
    rate_weights: float = 0.05
    rate_bandwidths: float = 0.02
    decay_steps: float | None = None
    center_rule: str = "uniform_subsample"
    init_bandwidth: float | None = None

    def __post_init__(self):
        if self.sgd_steps < 1:
            raise ConfigurationError("sgd_steps must be >= 1")
        if self.rate_weights <= 0 or self.rate_bandwidths <= 0:
            raise ConfigurationError("learning rates must be positive")
        if self.center_rule not in CENTER_RULES:
            raise ConfigurationError(f"center_rule must be one of {CENTER_RULES}")
        if self.decay_steps is not None and self.decay_steps <= 0:
            raise ConfigurationError("decay_steps must be positive")

    def rate_at(self, step: int | Array) -> tuple:
        """Weight and bandwidth rates at a step, or at an array of steps."""
        s0 = self.decay_steps if self.decay_steps is not None else max(self.sgd_steps / 2.0, 1.0)
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

    def to_csv(self, path) -> None:
        write_csv(path, ["step", "sample_index", "loss"],
                  ([step, int(idx), loss]
                   for step, (idx, loss) in enumerate(zip(self.sample_indices, self.trace))))


def _select_center_rows(values: Array, n_kernels: int, rule: str,
                        rng: np.random.Generator) -> Array:
    n = values.size
    if not 1 <= n_kernels <= n:
        raise ConfigurationError(f"need 1 <= n_kernels <= {n}, got {n_kernels}")
    if rule == "uniform_subsample":
        rows = rng.choice(n, size=n_kernels, replace=False)
    elif rule == "weighted_subsample":
        total = values.sum()
        if total <= 0:
            raise ConfigurationError(
                "weighted center selection needs a positive total value")
        rows = rng.choice(n, size=n_kernels, replace=False, p=values / total)
    else:
        raise ConfigurationError(f"center_rule must be one of {CENTER_RULES}")
    return np.sort(rows)  # stable order by particle index


def select_centers(cloud: ParticleCloud, n_kernels: int, rule: str,
                   rng: np.random.Generator) -> Array:
    """Pick kernel center locations from a particle cloud.

    ``uniform_subsample`` draws distinct particles uniformly;
    ``weighted_subsample`` draws without replacement with probability
    proportional to the attached values.  Ties in ordering resolve by
    particle id.
    """
    order = np.argsort(cloud.ids)
    rows = _select_center_rows(cloud.values[order], n_kernels, rule, rng)
    return cloud.locations[order][rows]


def _pair_gradients(x: Array, y: float, centers: Array, weights: Array,
                    bandwidths: Array) -> tuple[float, Array, Array, Array, Array]:
    """Residual at one training pair, its two gradients, squared distances and bumps.

    The weight gradient is ``2 r bump``; the bandwidth gradient multiplies it
    by the weight and ``2 |x - center|^2 / bandwidth^3``.
    """
    sq, bumps = _bumps(x, centers, bandwidths)
    resid = float((weights * bumps).sum() - y)
    grad_w = 2.0 * resid * bumps
    grad_b = grad_w * weights * (2.0 * sq / bandwidths ** 3)
    return resid, grad_w, grad_b, sq, bumps


def loss_and_gradients(kd: KernelDensity, x, y: float) -> tuple[float, Array, Array]:
    """Squared residual at one training pair and its analytic gradients.

    Returns ``(loss, d loss / d weights, d loss / d bandwidths)`` with the
    bandwidth gradient carrying the factor ``2 |x - center|^2 / bandwidth^3``.
    """
    resid, grad_w, grad_b, _, _ = _pair_gradients(
        np.asarray(x, dtype=float).ravel(), float(np.squeeze(y)),
        kd.centers, kd.weights, kd.bandwidths)
    return resid * resid, grad_w, grad_b


def full_loss(kd: KernelDensity, locations: Array, targets: Array) -> float:
    """Average squared residual over the whole training set."""
    resid = kd.eval(locations) - np.asarray(targets, dtype=float)
    return float(np.mean(resid * resid))


def full_gradient_norm(kd: KernelDensity, locations: Array, targets: Array) -> float:
    """Euclidean norm of the average-loss gradient over both parameter blocks."""
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
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
    bandwidths at the floor.
    """
    order = np.argsort(training.ids)
    locations = training.locations[order]
    targets = training.values[order]
    n = targets.size

    rows = _select_center_rows(targets, n_kernels, cfg.center_rule, rng)
    centers = locations[rows].copy()
    width0 = cfg.init_bandwidth if cfg.init_bandwidth is not None \
        else _initial_bandwidth(centers, locations)
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
    rates_w, rates_b = cfg.rate_at(np.arange(1, steps + 1))
    for s, idx, rate_w, rate_b in zip(range(1, steps + 1), picks[1:].tolist(),
                                      rates_w.tolist(), rates_b.tolist()):
        resid, grad_w, grad_b, _, _ = _pair_gradients(
            locations[idx], targets[idx], centers, weights, bandwidths)
        trace[s] = resid * resid
        weights = weights - rate_w * grad_w
        bandwidths = bandwidths - rate_b * grad_b
        low = bandwidths < floor
        if low.any():
            clamps += int(low.sum())
            bandwidths = np.where(low, floor, bandwidths)
        if not (np.isfinite(weights).all() and np.isfinite(bandwidths).all()):
            raise DivergentLearningError(
                f"non-finite kernel parameters at descent step {s}; "
                "lower the learning rates")

    kd = KernelDensity(centers, weights, bandwidths)
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
    resid, _, _, sq, bumps = _pair_gradients(
        np.asarray(x, dtype=float).ravel(), float(np.squeeze(y)),
        kd.centers, kd.weights, kd.bandwidths)
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
