"""Dense-grid quadrature references used as ground truth in tests and studies.

Everything here is restricted to scalar state, where trapezoid quadrature on
a wide grid resolves Gaussian integrands to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bayes import DENSITY_FLOOR, Likelihood, likelihood_density, step_likelihood
from .errors import ConfigurationError, DegenerateObservationError, check_positive
from .model import StateSpaceModel, TimeGrid, advance
from .rngs import substream

Array = np.ndarray

# Node counts and half-widths of the trapezoid rules in gaussian_expectation
# (in standard deviations), denominator_oracle (in spreads) and grid_filter
# (its domain padding factor).
EXPECTATION_NODES, EXPECTATION_SPAN = 4097, 8.0
DENOMINATOR_NODES, DENOMINATOR_SPAN = 8193, 10.0
GRID_NODES, GRID_SPAN = 4096, 8.0
# grid_filter's transition cutoff, in transition standard deviations, and the
# target nodes per slab of its banded transition
BAND_SDS = 12.0
GRID_BLOCK_ROWS = 128
# Relative tolerance within which a step's (dt, var) reuses grid_filter's
# held transition.  Knot rounding alone moves a uniform grid's step lengths
# by a few ulps (about 1e-15 relative), far below it; any step length or
# variance a model or grid sets on purpose differs by far more.
TRANSITION_RTOL = 1e-12


def normal_pdf(x: Array, mean: float | Array, var: float) -> Array:
    """``exp(-0.5 (x - mean)^2 / var) / sqrt(2 pi var)``, broadcast.

    Every operation after the subtraction runs in the subtraction's output,
    in the formula's order, so a ``(block, band)`` slab of the grid filter is
    allocated once.
    """
    out = np.asarray(np.subtract(np.asarray(x, dtype=float), mean))
    np.square(out, out)
    np.multiply(-0.5, out, out)
    np.divide(out, var, out)
    np.exp(out, out)
    np.divide(out, math.sqrt(2.0 * math.pi * var), out)
    return out


def _require_scalar_state(model: StateSpaceModel, what: str) -> None:
    if model.dim_state != 1:
        raise ConfigurationError(f"{what} quadrature oracle needs a 1-d state")


def _backward_law(model: StateSpaceModel, t_k: float, x: float,
                  dt: float) -> tuple[float, float]:
    """Mean and variance of a reverse-time sample drawn from x."""
    dt = check_positive("dt", dt, zero_ok=True)
    point = np.array([x])
    mean = float((point - model.drift(point) * dt)[0])
    sig = float(np.asarray(model.diffusion(t_k))[0, 0])
    return mean, sig * sig * dt


def gaussian_expectation(f: Callable[[Array], Array], mean: float, var: float) -> float:
    """Trapezoid value of E[f(Z)] for Z ~ N(mean, var).

    The nodes cover mean +- EXPECTATION_SPAN std; ``f`` maps a 1-d array of
    nodes to values.  With zero variance Z is the point ``mean``, and the
    value is ``f(mean)``.
    """
    if var == 0:
        return float(np.asarray(f(np.array([mean])), dtype=float)[0])
    std = math.sqrt(var)
    xs = np.linspace(mean - EXPECTATION_SPAN * std, mean + EXPECTATION_SPAN * std,
                     EXPECTATION_NODES)
    return float(np.trapezoid(np.asarray(f(xs), dtype=float)
                              * normal_pdf(xs, mean, var), xs))


def _left_point_term(prev_density: Callable[[Array], Array], model: StateSpaceModel,
                     dt: float) -> Callable[[Array], Array]:
    """One reverse-sample term of the explicit estimator, prev - dt div prev."""
    def term(xs: Array) -> Array:
        pts = xs[:, None]
        vals = np.asarray(prev_density(pts), dtype=float)
        div = np.asarray(model.drift_divergence(pts), dtype=float)
        return vals - div * vals * dt

    return term


def prediction_oracle_left_point(prev_density: Callable[[Array], Array],
                                 model: StateSpaceModel, t_k: float, x: float,
                                 dt: float) -> float:
    """Exact one-step prior value targeted by the explicit prediction variant.

    Evaluates E[prev(Z)] - dt * E[divergence(Z) prev(Z)] over the reverse
    sampling law by dense quadrature; the expectations here are what the
    Monte Carlo estimator approximates, so the comparison isolates the
    sample-count error.
    """
    _require_scalar_state(model, "prediction")
    mean, var = _backward_law(model, t_k, x, dt)
    return gaussian_expectation(_left_point_term(prev_density, model, dt), mean, var)


def prediction_oracle_right_point(prev_density: Callable[[Array], Array],
                                  model: StateSpaceModel, t_k: float, x: float,
                                  dt: float) -> float:
    """Fixed-point limit of the implicit variant: E[prev] / (1 + divergence(x) dt)."""
    _require_scalar_state(model, "prediction")
    mean, var = _backward_law(model, t_k, x, dt)
    expectation = gaussian_expectation(lambda xs: prev_density(xs[:, None]), mean, var)
    div = float(model.drift_divergence(np.array([x])))
    return expectation / (1.0 + div * dt)


def prediction_estimator_variance(prev_density: Callable[[Array], Array],
                                  model: StateSpaceModel, t_k: float, x: float,
                                  dt: float) -> float:
    """Variance of a single reverse-sample term of the explicit estimator.

    The M-sample estimator is an i.i.d. average, so its mean squared error
    against the quadrature oracle is exactly this value divided by M.
    """
    _require_scalar_state(model, "prediction")
    mean, var = _backward_law(model, t_k, x, dt)
    term = _left_point_term(prev_density, model, dt)
    first = gaussian_expectation(term, mean, var)
    second = gaussian_expectation(lambda xs: term(xs) ** 2, mean, var)
    return max(second - first * first, 0.0)


def denominator_oracle(lik: Likelihood, prior_density: Callable[[Array], Array],
                       center: float, spread: float) -> float:
    """Quadrature value of the observation normalizer integral.

    Integrates likelihood(x) * prior(x) over center +- DENOMINATOR_SPAN * spread.
    """
    xs = np.linspace(center - DENOMINATOR_SPAN * spread,
                     center + DENOMINATOR_SPAN * spread, DENOMINATOR_NODES)
    pts = xs[:, None]
    vals = likelihood_density(lik, pts) * np.asarray(prior_density(pts), dtype=float)
    return float(np.trapezoid(vals, xs))


@dataclass
class GridFilterResult:
    """Posterior means and stds of the discrete-time chain, from a fixed grid."""

    xs: Array
    means: Array
    stds: Array


def _transition_slabs(model: StateSpaceModel, xs: Array, dt: float,
                      var: float) -> list[tuple[int, int, Array, Array]]:
    """Banded one-step transition on the nodes ``xs``, as row-block slabs.

    Each entry is ``(start, stop, cols, kernel)``: the Gaussian transition
    densities from the source nodes ``cols`` to the target nodes
    ``start:stop``.  The sources are those whose drifted position
    ``x + drift(x) dt`` lies within ``BAND_SDS`` standard deviations of the
    block, picked by a mask because the drifted positions need not be
    monotone in ``x`` (for the double well, ``x + (x - x^3) dt`` turns back
    for ``|x|`` beyond about 2.1).
    """
    drift_to = xs + np.asarray(model.drift(xs[:, None]), dtype=float)[:, 0] * dt
    reach = BAND_SDS * math.sqrt(var)
    slabs = []
    for start in range(0, xs.size, GRID_BLOCK_ROWS):
        stop = min(start + GRID_BLOCK_ROWS, xs.size)
        cols = np.flatnonzero((drift_to >= xs[start] - reach)
                              & (drift_to <= xs[stop - 1] + reach))
        slabs.append((start, stop, cols,
                      normal_pdf(xs[start:stop, None], drift_to[None, cols], var)))
    return slabs


def _normalized(density: Array, xs: Array, k: int) -> Array:
    """``density`` on the nodes ``xs`` over its mass, refused unless finite and positive."""
    mass = np.trapezoid(density, xs)
    if not 0.0 < mass < math.inf:
        raise DegenerateObservationError(f"grid filter mass at step {k} is {mass}")
    return density / mass


def grid_filter(model: StateSpaceModel, grid: TimeGrid,
                observations: Array) -> GridFilterResult:
    """Exact (to quadrature accuracy) filter for the discretized 1-d chain.

    Propagates the density through the one-step Gaussian transition of the
    explicit scheme and applies the Bayesian update on a fixed grid, holding
    only the current density and recording each step's first two moments;
    serves as ground truth for nonlinear scalar models.

    The transition is truncated at ``BAND_SDS`` standard deviations and held
    as slabs of ``GRID_BLOCK_ROWS`` target nodes (see ``_transition_slabs``);
    the dropped terms are below exp(-72) of the kernel's peak.  The slabs
    depend on the step only through ``(dt, var)``, since the drift takes no
    time.  They are kept while a step's pair agrees with the pair they were
    built for to within ``TRANSITION_RTOL`` relative, which absorbs the knot
    rounding of a uniform grid, so its slabs are built once; any other pair
    replaces them, so one step length's slabs are held at a time (15 MB for
    the double well on the default grid).  Each slab is applied to the
    weighted posterior as a BLAS matrix-vector product.  Against the full
    transition at each step's own ``(dt, var)``, means and stds move by a
    few ulps of the oracle std.
    """
    _require_scalar_state(model, "grid filter")
    observations = grid.observation_rows(observations)

    # deterministic domain probe: a cheap path bundle plus the initial law
    probe_rng = substream(20_240_601, "grid-domain")
    n_probe = 512
    states = model.initial_sampler(n_probe, probe_rng)
    lo = float(states.min())
    hi = float(states.max())
    for k in range(1, grid.steps + 1):
        states = advance(model, grid, k, states, probe_rng)
        lo = min(lo, float(states.min()))
        hi = max(hi, float(states.max()))
    pad = 0.35 * GRID_SPAN * max(hi - lo, 1.0)
    xs = np.linspace(lo - pad, hi + pad, GRID_NODES)
    weight = np.gradient(xs)

    post = _normalized(np.asarray(model.initial_density(xs[:, None]), dtype=float), xs, 0)
    powers = np.stack([xs, xs ** 2])
    moments = np.empty((grid.steps + 1, 2))  # mean, second moment
    moments[0] = np.trapezoid(post * powers, xs)
    prior = np.empty(GRID_NODES)
    built_dt, built_var, slabs = math.nan, math.nan, []
    for k in range(1, grid.steps + 1):
        dt = grid.dt(k)
        sig = float(np.asarray(model.diffusion(grid.time(k - 1)))[0, 0])
        var = sig * sig * dt
        if not (math.isclose(dt, built_dt, rel_tol=TRANSITION_RTOL)
                and math.isclose(var, built_var, rel_tol=TRANSITION_RTOL)):
            slabs = []  # drop the previous step length's slabs before building
            slabs = _transition_slabs(model, xs, dt, var)
            built_dt, built_var = dt, var
        weighted = post * weight
        for start, stop, cols, kernel in slabs:
            prior[start:stop] = kernel @ weighted[cols]
        lik = likelihood_density(step_likelihood(model, grid, k, observations[k - 1],
                                                 observations[k]), xs[:, None])
        if np.all(lik <= DENSITY_FLOOR):
            raise DegenerateObservationError(f"step {k}: all node likelihoods underflowed")
        post = _normalized(prior * lik, xs, k)
        moments[k] = np.trapezoid(post * powers, xs)

    means, seconds = moments.T
    stds = np.sqrt(np.maximum(seconds - means ** 2, 0.0))
    return GridFilterResult(xs=xs, means=means, stds=stds)
