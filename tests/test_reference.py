import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from fbsdefilter import reference
from fbsdefilter.bayes import Likelihood, likelihood_density
from fbsdefilter.errors import ConfigurationError, DegenerateObservationError
from fbsdefilter.filtering import kalman_filter
from fbsdefilter.harness import GridSettings, _run_jobs
from fbsdefilter.model import TimeGrid, get_model, simulate_truth
from fbsdefilter.reference import grid_filter, normal_pdf, \
    prediction_estimator_variance, prediction_oracle_right_point

SEEDS = range(4)


def dense_grid_filter(model, grid, observations, xs):
    """The grid filter with the full (n_nodes, n_nodes) transition, on given nodes.

    This is the recursion ``grid_filter`` ran before its transition was
    truncated, kept as the reference the banded one is checked against.
    """
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    n_nodes = xs.size
    weight = np.gradient(xs)
    post = np.asarray(model.initial_density(xs[:, None]), dtype=float)
    post = post / np.trapezoid(post, xs)
    posteriors = np.empty((grid.steps + 1, n_nodes))
    posteriors[0] = post
    for k in range(1, grid.steps + 1):
        dt = grid.dt(k)
        sig = float(np.asarray(model.diffusion(grid.time(k - 1)))[0, 0])
        var = sig * sig * dt
        drift_to = xs + np.asarray(model.drift(xs[:, None]), dtype=float)[:, 0] * dt
        weighted = post * weight
        prior = np.empty(n_nodes)
        block = 256
        for start in range(0, n_nodes, block):
            stop = min(start + block, n_nodes)
            kernel = normal_pdf(xs[start:stop, None], drift_to[None, :], var)
            prior[start:stop] = (kernel * weighted[None, :]).sum(axis=1)
        lik = Likelihood(observations[k - 1], observations[k], dt,
                         model.obs_map, model.obs_noise(grid.time(k)))
        post = prior * likelihood_density(lik, xs[:, None])
        post = post / np.trapezoid(post, xs)
        posteriors[k] = post
    means = np.trapezoid(posteriors * xs[None, :], xs, axis=1)
    seconds = np.trapezoid(posteriors * xs[None, :] ** 2, xs, axis=1)
    stds = np.sqrt(np.maximum(seconds - means ** 2, 0.0))
    return means, stds


def one_expression_normal_pdf(x, mean, var):
    """``normal_pdf`` as one numpy expression, the formula it must equal bit
    for bit."""
    return np.exp(-0.5 * (np.asarray(x, dtype=float) - mean) ** 2 / var) \
        / math.sqrt(2.0 * math.pi * var)


@pytest.mark.parametrize("cols", [1, 37, 700])
def test_normal_pdf_equals_the_one_expression_formula_on_slabs(cols):
    # the grid filter's slab shape: (block, 1) targets against (1, band) sources
    rng = np.random.default_rng(cols)
    targets = rng.standard_normal((128, 1)) * 4.0
    sources = rng.standard_normal((1, cols)) * 4.0
    for var in (1e-4, 0.09, 2.5):
        got = normal_pdf(targets, sources, var)
        assert got.shape == (128, cols)
        assert got.tobytes() == one_expression_normal_pdf(targets, sources, var).tobytes()


def _oracle_paths(name):
    model = get_model(name)
    grid = GridSettings().build()
    return model, grid, [simulate_truth(model, grid, seed)[1] for seed in SEEDS]


def _drift_from_dense(model, grid, obs):
    """Largest change of oracle means and stds against the dense transition,
    in oracle stds."""
    banded = grid_filter(model, grid, obs)
    means, stds = dense_grid_filter(model, grid, obs, banded.xs)
    return max(np.max(np.abs(banded.means - means) / stds),
               np.max(np.abs(banded.stds - stds) / stds))


def _ramped_doublewell():
    """The double well with a diffusion that grows in time: equal step
    lengths then still have different transition variances."""
    return dataclasses.replace(get_model("doublewell1d"),
                               diffusion=lambda t: np.array([[0.3 + 0.4 * t]]))


@pytest.mark.slow
@pytest.mark.parametrize("name", ["doublewell1d", "ou1d"])
def test_banded_transition_matches_dense(name):
    # the terms the band drops are below exp(-72) of the kernel's peak, so
    # only the summation order differs: a few ulps, far below 1e-12
    model, grid, paths = _oracle_paths(name)
    drifts = _run_jobs([lambda obs=obs: _drift_from_dense(model, grid, obs)
                        for obs in paths], len(os.sched_getaffinity(0)))
    assert max(drifts) < 1e-12, drifts


def _rebuild_cases():
    """A grid whose every step length differs, and a time-dependent diffusion
    on the uniform grid: every step has its own (dt, var)."""
    uneven = TimeGrid(np.concatenate([[0.0], np.cumsum(0.05 + 0.01 * np.arange(10))]))
    assert np.unique(uneven.dts).size == uneven.steps
    return [(get_model("doublewell1d"), uneven),
            (_ramped_doublewell(), GridSettings().build())]


def test_transition_is_rebuilt_whenever_step_or_variance_changes():
    # the banded transition is reused while (dt, var) stays put: in these
    # cases a stale transition would be far off the dense one
    drifts = _run_jobs([lambda m=m, g=g: _drift_from_dense(m, g, simulate_truth(m, g, 0)[1])
                        for m, g in _rebuild_cases()], len(os.sched_getaffinity(0)))
    assert max(drifts) < 1e-12, drifts


def _transition_builds(monkeypatch, model, grid):
    """How many times ``grid_filter`` builds its transition on one path."""
    builds, build = [], reference._transition_slabs
    monkeypatch.setattr(reference, "_transition_slabs",
                        lambda *args: builds.append(args) or build(*args))
    grid_filter(model, grid, simulate_truth(model, grid, 0)[1])
    monkeypatch.undo()
    return len(builds)


def test_transition_is_built_once_per_uniform_grid(monkeypatch):
    # knot rounding leaves the uniform grid several floating-point step
    # lengths, all within TRANSITION_RTOL of one another; a step length or
    # variance that really changes is built anew at every step
    uniform = GridSettings().build()
    assert np.unique(uniform.dts).size > 1
    assert _transition_builds(monkeypatch, get_model("doublewell1d"), uniform) == 1
    for model, grid in _rebuild_cases():
        assert _transition_builds(monkeypatch, model, grid) == grid.steps


def test_transition_memory_is_one_step_length():
    # the slabs of a step length replace the previous ones: 40 distinct step
    # lengths peak about as high as the uniform grid's few
    model = get_model("doublewell1d")

    def peak(grid):
        obs = simulate_truth(model, grid, 0)[1]
        tracemalloc.start()
        try:
            grid_filter(model, grid, obs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    uneven = TimeGrid(np.concatenate([[0.0], np.cumsum(0.09 + 5e-4 * np.arange(40))]))
    assert np.unique(uneven.dts).size == 40
    peaks = peak(uneven), peak(GridSettings().build())
    assert peaks[0] < 2 * peaks[1], peaks


@pytest.mark.parametrize("name", ["linear1d", "ou1d"])
def test_grid_filter_matches_kalman_on_linear_models(name):
    # both are exact for the same explicit Euler chain; trapezoid quadrature
    # of Gaussian integrands on the grid's span converges spectrally, so the
    # two agree far below 1e-9 of the posterior std
    model, grid, paths = _oracle_paths(name)
    for obs in paths:
        grid_result = grid_filter(model, grid, obs)
        kalman = kalman_filter(model.linear, grid, obs)
        kalman_stds = np.sqrt(kalman.covs[:, 0, 0])
        np.testing.assert_array_less(
            np.abs(grid_result.means - kalman.means[:, 0]) / kalman_stds, 1e-9)
        np.testing.assert_array_less(
            np.abs(grid_result.stds - kalman_stds) / kalman_stds, 1e-9)


@pytest.mark.parametrize("x", [-1.3, 0.4])
def test_oracles_without_noise_evaluate_at_the_point(x):
    # at dt = 0 the reverse sample is x itself: one term has no spread, and
    # the right-point limit is prev(x)
    model = get_model("ou1d")
    prev = model.initial_density
    assert prediction_estimator_variance(prev, model, 0.0, x, 0.0) == 0.0
    assert prediction_oracle_right_point(prev, model, 0.0, x, 0.0) \
        == prev(np.array([[x]]))[0]
    # a negative step is refused, as the Monte Carlo estimator refuses it
    with pytest.raises(ConfigurationError, match="nonnegative"):
        prediction_estimator_variance(prev, model, 0.0, x, -0.1)


@pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
def test_grid_filter_refuses_an_initial_law_without_mass(value):
    # the initial law is normalised like every later posterior: a mass that is
    # not finite and positive stops the oracle instead of giving NaN moments
    model = dataclasses.replace(
        get_model("doublewell1d"),
        initial_density=lambda x: np.full(np.asarray(x).shape[:-1], value))
    grid = TimeGrid.uniform(horizon=1.0, steps=4)
    obs = simulate_truth(model, grid, 0)[1]
    with pytest.raises(DegenerateObservationError,
                       match=rf"^grid filter mass at step 0 is {value}$"):
        grid_filter(model, grid, obs)

