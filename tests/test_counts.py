"""The count rule: every size, count and count-axis sweep value is an integer in bounds,
and every seed an integer.  The real-number rule: every step, horizon, rate and bound
is finite and positive.  The point rule: every batch of points is an (n, dim) array."""

import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fbsdefilter.bayes import Likelihood, likelihood_density
from fbsdefilter.errors import ConfigurationError
from fbsdefilter.filtering import FilterConfig, InitialDensity, bootstrap_pf
from fbsdefilter.harness import ExperimentConfig, FilterSettings, GridSettings, \
    SweepSettings, check_sweep_grid, denominator_rate_study, dt_rate_study, \
    estimate_recurrence_coefficient, kde_rate_study, prediction_rate_study, run_experiment, \
    run_rate_study, save_report
from fbsdefilter.kde import KernelDensity, gaussian_bandwidth, parzen_estimate
from fbsdefilter.learn import TrainConfig, sgd_fit
from fbsdefilter.model import TimeGrid, backward_sample, euler_step, get_model, simulate_truth
from fbsdefilter.predict import ParticleCloud, PredictConfig, predict_value
from fbsdefilter.reference import prediction_oracle_left_point
from fbsdefilter.rngs import substream

MODEL = get_model("linear1d")
GRID = TimeGrid.uniform(horizon=1.0, steps=4)
OBS = np.zeros((GRID.steps + 1, 1))
CLOUD = ParticleCloud(locations=np.linspace(-1.0, 1.0, 50)[:, None], values=np.ones(50),
                      stage="posterior")


def filter_config(**sizes) -> FilterConfig:
    return FilterConfig(**{"grid": GRID, "n_particles": 50, "n_kernels": 8,
                           "predict": PredictConfig(mc_samples=4),
                           "train": TrainConfig(sgd_steps=10), **sizes})


def sweep(axis: str, value):
    cfg = ExperimentConfig(model="ou1d", replications=50,
                           sweep=SweepSettings(values=(value, 8, 16, 32)))
    return run_rate_study(axis, cfg)


# Each entry point that takes a count: the field its refusal names, and a call
# that passes the count.  ``sgd_fit`` gets no generator, so a draw made before
# the check fails with an AttributeError.
ENTRY_POINTS = {
    "FilterConfig-n_particles": ("n_particles", lambda v: filter_config(n_particles=v)),
    "FilterConfig-n_kernels": ("n_kernels", lambda v: filter_config(n_kernels=v)),
    "bootstrap_pf": ("n_particles", lambda v: bootstrap_pf(MODEL, GRID, OBS, v, seed=0)),
    "TrainConfig": ("sgd_steps", lambda v: TrainConfig(sgd_steps=v)),
    "sgd_fit": ("n_kernels", lambda v: sgd_fit(CLOUD, v, TrainConfig(sgd_steps=10), None)),
    "PredictConfig": ("mc_samples", lambda v: PredictConfig(mc_samples=v)),
    "StateSpaceModel-dim_state": ("dim_state", lambda v: replace(MODEL, dim_state=v)),
    "StateSpaceModel-dim_obs": ("dim_obs", lambda v: replace(MODEL, dim_obs=v)),
    "TimeGrid.uniform": ("steps", lambda v: TimeGrid.uniform(horizon=1.0, steps=v)),
    "ExperimentConfig-replications": ("replications",
                                      lambda v: ExperimentConfig(replications=v)),
    "ExperimentConfig-threads": ("threads", lambda v: ExperimentConfig(threads=v)),
    "rate_study-replications": ("replications", lambda v: kde_rate_study(replications=v)),
    "kde_rate_study-dim": ("dim", lambda v: kde_rate_study(dim=v, replications=50)),
    "gaussian_bandwidth-n": ("n", lambda v: gaussian_bandwidth(v, 1, 1.0)),
    "gaussian_bandwidth-dim": ("dim", lambda v: gaussian_bandwidth(100, v, 1.0)),
    "rates-L": ("sweep value", lambda v: sweep("L", v)),
    "rates-M": ("sweep value", lambda v: sweep("M", v)),
    "rates-N": ("sweep value", lambda v: sweep("N", v)),
    "recurrence-n_samples": ("n_samples", lambda v: estimate_recurrence_coefficient(
        MODEL, GRID, OBS, n_samples=v)),
    "recurrence-n_backward": ("n_backward", lambda v: estimate_recurrence_coefficient(
        MODEL, GRID, OBS, n_backward=v)),
}


@pytest.fixture
def no_draws_no_files(monkeypatch, tmp_path):
    """Fail on any stream drawn, or any file written in the working directory."""
    def draw(*address):
        raise AssertionError(f"stream {address} drawn before the counts were checked")
    for name, module in list(sys.modules.items()):
        if name.startswith("fbsdefilter.") and hasattr(module, "substream"):
            monkeypatch.setattr(module, "substream", draw)
    monkeypatch.chdir(tmp_path)
    yield
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", [2.5, True, 0], ids=["fraction", "bool", "zero"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_count_is_refused_by_name_before_any_work(no_draws_no_files, entry, value):
    field, call = ENTRY_POINTS[entry]
    with pytest.raises(ConfigurationError, match=rf"\b{re.escape(field)}s?\b"):
        call(value)


def test_numpy_integers_are_counts(tmp_path):
    assert filter_config(n_particles=np.int64(50), n_kernels=np.int64(50)).n_kernels == 50
    assert TimeGrid.uniform(horizon=1.0, steps=np.int64(4)).steps == 4
    PredictConfig(mc_samples=np.int64(4))
    TrainConfig(sgd_steps=np.uint16(10))
    replace(MODEL, dim_state=np.int64(1), dim_obs=np.int32(1))
    ExperimentConfig(replications=np.int64(2), threads=np.int64(1))
    assert gaussian_bandwidth(np.int64(100), np.int8(1), 1.0) == \
        gaussian_bandwidth(100, 1, 1.0)
    np.testing.assert_array_equal(bootstrap_pf(MODEL, GRID, OBS, np.int64(50), seed=0).means,
                                  bootstrap_pf(MODEL, GRID, OBS, 50, seed=0).means)
    by_array, by_tuple = (kde_rate_study(counts, replications=50)
                          for counts in (np.array([50, 100, 200, 400]), (50, 100, 200, 400)))
    for name, report in (("array", by_array), ("tuple", by_tuple)):
        save_report(report, tmp_path / name)
    assert (tmp_path / "array" / "rates_L.json").read_bytes() == \
        (tmp_path / "tuple" / "rates_L.json").read_bytes()
    np.testing.assert_array_equal(by_array.raw, by_tuple.raw)


def test_numpy_integers_write_the_files_of_python_integers(tmp_path, monkeypatch):
    # the same relative out_dir under two working directories, so even
    # config.json must match byte for byte
    files = []
    for sizes in ({"seed": np.int64(3), "replications": np.int64(2), "threads": np.int32(1)},
                  {"seed": 3, "replications": 2, "threads": 1}):
        where = tmp_path / type(sizes["seed"]).__name__
        where.mkdir()
        monkeypatch.chdir(where)
        run_experiment(ExperimentConfig(
            out_dir="out", grid=GridSettings(steps=2), **sizes,
            filter=FilterSettings(n_particles=20, mc_samples=2, n_kernels=4, sgd_steps=10)))
        files.append({path.relative_to(where): path.read_bytes()
                      for path in sorted(where.rglob("*")) if path.is_file()})
    assert files[0] == files[1]
    assert Path("out/config.json") in files[0]


# Each entry point that takes a seed, called with it.
SEED_ENTRY_POINTS = {
    "FilterConfig": lambda s: filter_config(seed=s),
    "ExperimentConfig": lambda s: ExperimentConfig(seed=s),
    "bootstrap_pf": lambda s: bootstrap_pf(MODEL, GRID, OBS, 50, s),
    "simulate_truth": lambda s: simulate_truth(MODEL, GRID, s),
    "recurrence": lambda s: estimate_recurrence_coefficient(MODEL, GRID, OBS, seed=s),
    "kde_rate_study": lambda s: kde_rate_study(replications=50, seed=s),
    "prediction_rate_study": lambda s: prediction_rate_study(replications=50, seed=s),
    "denominator_rate_study": lambda s: denominator_rate_study(replications=50, seed=s),
    "dt_rate_study": lambda s: dt_rate_study(replications=50, seed=s),
}


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
def test_each_seed_is_refused_unless_an_integer_before_any_work(no_draws_no_files, entry,
                                                                 value):
    # 2.5 would address seed 2's streams and True seed 1's
    with pytest.raises(ConfigurationError, match=r"\bseed must be an integer\b"):
        SEED_ENTRY_POINTS[entry](value)


def test_every_integer_is_a_seed():
    for seed in (0, -3, 2**64, np.int64(-3), np.uint64(2**64 - 1)):
        filter_config(seed=seed)
        ExperimentConfig(seed=seed)
    truth, obs = simulate_truth(MODEL, GRID, np.int64(-3))
    np.testing.assert_array_equal(truth, simulate_truth(MODEL, GRID, -3)[0])
    np.testing.assert_array_equal(bootstrap_pf(MODEL, GRID, obs, 50, np.int64(-3)).means,
                                  bootstrap_pf(MODEL, GRID, obs, 50, -3).means)
    # a seed is its decimal address: no two integers share a stream
    draws = {seed: substream(seed, "x").random() for seed in (0, 2**64, -3, 3)}
    assert len(set(draws.values())) == 4


# Each entry point that takes a real-valued setting: the name its refusal gives,
# whether a zero passes (a step of length zero does), and a call that passes
# the value.  ``predict_value`` draws its reverse-sample noise before the step
# is checked, so it gets a generator of its own rather than a ``substream``.
POSITIVE_ENTRY_POINTS = {
    "Likelihood-dt": ("dt", False, lambda v: Likelihood(
        np.zeros(1), np.zeros(1), v, lambda s: s, np.eye(1))),
    "TrainConfig-rate_weights": ("rate_weights", False,
                                 lambda v: TrainConfig(sgd_steps=10, rate_weights=v)),
    "TrainConfig-rate_bandwidths": ("rate_bandwidths", False,
                                    lambda v: TrainConfig(sgd_steps=10, rate_bandwidths=v)),
    "gaussian_bandwidth-density_sup": ("density_sup", False,
                                       lambda v: gaussian_bandwidth(100, 1, v)),
    "parzen_estimate-density_sup": ("density_sup", False, lambda v: parzen_estimate(
        np.zeros((10, 1)), np.zeros((1, 1)), v)),
    "TimeGrid.uniform-horizon": ("horizon", False,
                                 lambda v: TimeGrid.uniform(horizon=v, steps=4)),
    "TimeGrid-knots": ("time step 2", False, lambda v: TimeGrid([0.0, 0.5, 0.5 + v])),
    "ExperimentConfig-horizon": ("horizon", False,
                                 lambda v: ExperimentConfig(grid=GridSettings(horizon=v))),
    "check_sweep_grid": ("sweep values", False, lambda v: check_sweep_grid((v, 1, 2, 3))),
    "rates-dt": ("sweep values", False, lambda v: sweep("dt", v)),
    "prediction_rate_study-dt": ("dt", False,
                                 lambda v: prediction_rate_study(replications=50, dt=v)),
    "denominator_rate_study-dt": ("dt", False,
                                  lambda v: denominator_rate_study(replications=50, dt=v)),
    "dt_rate_study-horizon": ("horizon", False,
                              lambda v: dt_rate_study(replications=50, horizon=v)),
    "euler_step-dt": ("dt", True, lambda v: euler_step(
        MODEL, 0.0, np.zeros((1, 1)), v, np.zeros((1, 1)))),
    "backward_sample-dt": ("dt", True, lambda v: backward_sample(
        MODEL, 0.1, np.zeros((1, 1)), v, np.zeros((1, 1)))),
    "predict_value-dt": ("dt", True, lambda v: predict_value(
        MODEL.initial_density, MODEL, 0.1, np.zeros(1), v, PredictConfig(mc_samples=4),
        np.random.default_rng(0))),
    "prediction_oracle_left_point-dt": ("dt", True, lambda v: prediction_oracle_left_point(
        MODEL.initial_density, MODEL, 0.1, 0.0, v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0],
                         ids=["nan", "inf", "-inf", "negative", "zero"])
@pytest.mark.parametrize("entry", POSITIVE_ENTRY_POINTS)
def test_each_real_setting_is_refused_by_name_unless_finite_and_positive(
        no_draws_no_files, entry, value):
    name, zero_ok, call = POSITIVE_ENTRY_POINTS[entry]
    if value == 0.0 and zero_ok:
        call(value)  # a step of length zero
        return
    sign = "nonnegative" if zero_ok else "positive"
    with pytest.raises(ConfigurationError,
                       match=rf"^{re.escape(name)} must be finite and {sign}, got {value:g}$"):
        call(value)


@pytest.mark.parametrize("value", [True, "0.1", None], ids=["bool", "string", "none"])
@pytest.mark.parametrize("entry", [entry for entry in POSITIVE_ENTRY_POINTS
                                   if entry != "TimeGrid-knots"])
def test_each_real_setting_is_refused_by_name_unless_a_number(no_draws_no_files, entry,
                                                               value):
    # True would read as 1.0; knots are data, read as one float array
    name, _zero_ok, call = POSITIVE_ENTRY_POINTS[entry]
    with pytest.raises(ConfigurationError,
                       match=rf"^{re.escape(name)} must be a real number, got "):
        call(value)


# Each entry point that takes a batch of points: the argument its refusal
# names, and a call that passes the batch.
POINT_ENTRY_POINTS = {
    "KernelDensity.eval": ("x", lambda x: KernelDensity([[0.0]], [1.0], [1.0]).eval(x)),
    "likelihood_density": ("x", lambda x: likelihood_density(
        Likelihood(np.zeros(1), np.zeros(1), 0.1, lambda s: s, np.eye(1)), x)),
    "ParticleCloud": ("locations", lambda x: ParticleCloud(
        locations=x, values=np.ones(len(x)), stage="prior")),
    "parzen_estimate-samples": ("samples", lambda x: parzen_estimate(x, np.zeros((1, 1)), 1.0)),
    "parzen_estimate-x": ("x", lambda x: parzen_estimate(np.zeros((10, 1)), x, 1.0)),
    "InitialDensity.eval": ("x", lambda x: InitialDensity(MODEL).eval(x)),
}


@pytest.mark.parametrize("shape", [(3,), (3, 1, 1)], ids=["1d", "3d"])
@pytest.mark.parametrize("entry", POINT_ENTRY_POINTS)
def test_each_batch_of_points_is_refused_by_name_unless_n_by_dim(entry, shape):
    name, call = POINT_ENTRY_POINTS[entry]
    with pytest.raises(ConfigurationError,
                       match=rf"^{name} must be an \(n, dim\) array.*; "
                             rf"got shape {re.escape(str(shape))}$"):
        call(np.zeros(shape))
