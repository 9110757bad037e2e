import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbsdefilter.errors import (
    ConfigurationError,
    ContractionError,
    FilterError,
    ModelBlowUpError,
)
from fbsdefilter.harness import fit_loglog_slope
from fbsdefilter.model import TimeGrid, backward_sample, euler_step, get_model
from fbsdefilter.predict import (
    ParticleCloud,
    PredictConfig,
    _prior_values,
    predict_cloud,
    predict_value,
)
from fbsdefilter.reference import (
    gaussian_expectation,
    prediction_estimator_variance,
    prediction_oracle_left_point,
    prediction_oracle_right_point,
)
from fbsdefilter.rngs import substream

from conftest import make_model_1d


def gauss_density(mean, var):
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    return lambda pts: norm * np.exp(-0.5 * (np.asarray(pts, dtype=float)[:, 0] - mean) ** 2 / var)


def reverse_mean(f, model, t_k, x_k, dt, mc_samples, rng):
    """Plain Monte Carlo mean of f over reverse-time samples from x_k.

    Draws the noise block the scalar prediction draws, shaped as it shapes it.
    """
    noise = rng.standard_normal((1, mc_samples, model.dim_noise))
    anchor = np.asarray(x_k, dtype=float).reshape(1, 1, -1)
    points = backward_sample(model, t_k, anchor, dt, math.sqrt(dt) * noise)
    return float(f(points.reshape(mc_samples, -1)).reshape(1, mc_samples).mean(axis=1)[0])


def left_point(mc_samples):
    return PredictConfig(mc_samples=mc_samples, variant="left_point")


class TestMcConditionalExpectation:
    # the plain Monte Carlo mean over reverse samples: the left-point value at
    # zero divergence, or ``reverse_mean``

    def test_constant_integrand(self):
        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float) - 0.4)
        for m in (1, 7, 64):
            val = predict_value(lambda pts: np.full(len(pts), 3.0),
                                model, 0.1, np.array([0.4]), 0.1, left_point(m),
                                substream(0, "mc", m))
            assert val == 3.0

    def test_degenerate_dynamics_evaluate_at_point(self):
        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float), sigma=0.0)
        f = gauss_density(0.0, 1.0)
        val = predict_value(f, model, 0.1, np.array([0.7]), 0.1, left_point(16),
                            substream(1, "mc-degenerate"))
        assert val == pytest.approx(float(f(np.array([[0.7]]))[0]), rel=1e-15)

    def test_variance_scales_inversely_with_samples(self):
        model = make_model_1d(drift=lambda x: -0.5 * np.asarray(x, dtype=float))
        f = gauss_density(0.0, 1.0)
        counts = [16, 64, 256, 1024]
        variances = []
        for j, m in enumerate(counts):
            vals = [reverse_mean(f, model, 0.1, np.array([0.8]), 0.1,
                                 m, substream(2, "mc-var", j, rep))
                    for rep in range(200)]
            variances.append(np.var(vals, ddof=1))
        fit = fit_loglog_slope(counts, variances)
        assert fit.slope == pytest.approx(-1.0, abs=0.15)

    def test_nonfinite_integrand_reports_sample(self):
        model = make_model_1d(drift=lambda x: -np.asarray(x, dtype=float))

        def bad(pts):
            out = np.ones(len(pts))
            out[0] = np.nan
            return out

        with pytest.raises(FilterError, match="reverse sample"):
            predict_value(bad, model, 0.1, np.array([0.0]), 0.1, left_point(8),
                          substream(3, "mc-bad"))


class TestRightPoint:
    def test_zero_divergence_reduces_to_expectation(self):
        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float) + 0.3)
        f = gauss_density(0.2, 0.8)
        x, dt = np.array([0.5]), 0.1
        want = reverse_mean(f, model, 0.1, x, dt, 32, substream(4, "rp-zero-div"))
        coupled = predict_value(
            f, model, 0.1, x, dt, PredictConfig(mc_samples=32),
            substream(4, "rp-zero-div"))
        # running average ends at the same mean up to summation order
        assert coupled == pytest.approx(want, rel=1e-12)

    def test_geometric_sequence_example(self):
        # constant expectation 1 and unit divergence converge to 1/(1 + dt)
        model = make_model_1d(drift=lambda x: np.asarray(x, dtype=float),
                              divergence=lambda x: np.ones(np.asarray(x).shape[:-1]))
        const = lambda pts: np.ones(len(pts))
        dt = 0.1
        values = [predict_value(
            const, model, 0.1, np.array([0.0]), dt,
            PredictConfig(mc_samples=m), substream(5, "rp-geo", m))
            for m in (1, 2, 3, 12)]
        assert values[0] == pytest.approx(0.9, abs=1e-15)
        assert values[1] == pytest.approx(0.91, abs=1e-15)
        assert values[2] == pytest.approx(0.909, abs=1e-15)
        assert values[3] == pytest.approx(1.0 / 1.1, abs=1e-6)

    def test_geometric_contraction_is_exact(self):
        damping = 0.35  # divergence * dt
        model = make_model_1d(drift=lambda x: np.asarray(x, dtype=float),
                              divergence=lambda x: np.full(np.asarray(x).shape[:-1], damping / 0.1))
        const = lambda pts: np.full(len(pts), 0.7)
        vals = [predict_value(
            const, model, 0.1, np.array([0.0]), 0.1,
            PredictConfig(mc_samples=m), substream(6, "rp-ratio", m))
            for m in range(1, 11)]
        y0 = 0.7
        diff1 = abs(vals[0] - y0)
        for m in range(2, 11):
            diff = abs(vals[m - 1] - vals[m - 2])
            assert diff == pytest.approx(damping ** (m - 1) * diff1, rel=1e-10)

    def test_zero_dt_returns_expectation(self):
        model = make_model_1d(drift=lambda x: np.asarray(x, dtype=float),
                              divergence=lambda x: np.full(np.asarray(x).shape[:-1], 50.0))
        f = gauss_density(0.0, 1.0)
        got = predict_value(f, model, 0.1, np.array([0.3]), 0.0,
                            PredictConfig(mc_samples=16), substream(7, "rp-dt0"))
        want = reverse_mean(f, model, 0.1, np.array([0.3]), 0.0, 16,
                            substream(7, "rp-dt0"))
        assert got == want

    def test_divergent_iteration_raises(self):
        model = make_model_1d(drift=lambda x: np.asarray(x, dtype=float),
                              divergence=lambda x: np.full(np.asarray(x).shape[:-1], 500.0))
        const = lambda pts: np.ones(len(pts))
        with pytest.raises(ContractionError, match="step size"):
            predict_value(const, model, 0.1, np.array([0.0]), 0.1,
                          PredictConfig(mc_samples=64), substream(8, "rp-diverge"))

    def test_cloud_just_inside_the_contraction_region_keeps_the_capped_loop_bits(self):
        # the recursion as it ran under the former growth cap (iterates beyond
        # 1e6 times the data scale raised); the check before the loop must
        # leave the values of a cloud it lets through bit for bit unchanged
        def capped_loop(vals, y, div, dt):
            m = vals.shape[1]
            prefix = np.cumsum(vals, axis=1) / np.arange(1, m + 1)
            cap = 1e6 * max(float(np.max(np.abs(y))), float(np.max(np.abs(vals))), 1e-300)
            for j in range(m):
                y = prefix[:, j] - div * y * dt
                assert not np.any(np.abs(y) > cap)
            return y

        model = get_model("doublewell1d")  # divergence 1 - 3 x^2
        dt, t_k, m = 0.1, 0.1, 64
        edge = math.sqrt(11.0 / 3.0) * (1.0 - 1e-7)  # |div * dt| just below 1
        anchors = np.array([[-edge], [-1.0], [0.0], [0.5], [1.2], [edge]])
        div = model.drift_divergence(anchors)
        assert 0.99999 < np.max(np.abs(div * dt)) < 1.0
        noise = substream(12, "rp-capped").standard_normal((anchors.shape[0], m, 1))
        f = gauss_density(0.3, 1.5)
        ids = np.arange(anchors.shape[0])
        got = _prior_values(f, model, t_k, anchors, dt, noise, PredictConfig(mc_samples=m), ids)
        points = backward_sample(model, t_k, anchors[:, None, :], dt, math.sqrt(dt) * noise)
        vals = f(points.reshape(-1, 1)).reshape(anchors.shape[0], m)
        want = capped_loop(vals, f(anchors), div, dt)
        assert got.tobytes() == want.tobytes()


class TestLeftPoint:
    def test_zero_divergence_matches_expectation_bitwise(self):
        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float) + 0.2)
        f = gauss_density(-0.3, 1.4)
        cfg = PredictConfig(mc_samples=48, variant="left_point")
        got = predict_value(f, model, 0.1, np.array([0.1]), 0.2, cfg,
                            substream(9, "lp-zero-div"))
        want = reverse_mean(f, model, 0.1, np.array([0.1]), 0.2, 48,
                            substream(9, "lp-zero-div"))
        assert got == want

    def test_constants_factor_out_exactly(self):
        # dyadic constants keep the arithmetic exact in floating point
        c, dt = 0.5, 0.25
        model = make_model_1d(drift=lambda x: np.asarray(x, dtype=float),
                              divergence=lambda x: np.full(np.asarray(x).shape[:-1], c))
        const = lambda pts: np.ones(len(pts))
        got = predict_value(const, model, 0.1, np.array([0.0]), dt,
                            PredictConfig(mc_samples=13, variant="left_point"),
                            substream(10, "lp-const"))
        assert got == 1.0 - c * dt

    def test_mse_matches_single_sample_variance(self):
        # the estimator is an i.i.d. average, so MSE * M equals the
        # quadrature variance of one term
        model = get_model("ou1d")
        prev = model.initial_density
        x, dt, m = 0.5, 0.1, 1024
        oracle = prediction_oracle_left_point(prev, model, dt, x, dt)
        single_var = prediction_estimator_variance(prev, model, dt, x, dt)
        cfg = PredictConfig(mc_samples=m, variant="left_point")
        sq = [
            (predict_value(prev, model, dt, np.array([x]), dt, cfg,
                           substream(11, "lp-mse", rep)) - oracle) ** 2
            for rep in range(200)
        ]
        mse = float(np.mean(sq))
        assert 0.6 < mse * m / single_var < 1.5
        horizon_bound = 2.0 * (1.0 + 1.0 ** 2 * 1.0 ** 2)  # T = G = 1 for this model
        var_density = prediction_estimator_variance(
            lambda pts: prev(pts), make_model_1d(drift=model.drift, sigma=1.0), dt, x, dt)
        assert mse <= horizon_bound * max(single_var, var_density) / m

    def test_mse_rate_in_sample_count(self):
        model = get_model("ou1d")
        prev = model.initial_density
        x, dt = 0.3, 0.1
        oracle = prediction_oracle_left_point(prev, model, dt, x, dt)
        counts = [16, 64, 256, 1024]
        mses = []
        for j, m in enumerate(counts):
            cfg = PredictConfig(mc_samples=m, variant="left_point")
            sq = [(predict_value(prev, model, dt, np.array([x]), dt, cfg,
                                 substream(12, "lp-rate", j, rep)) - oracle) ** 2
                  for rep in range(150)]
            mses.append(np.mean(sq))
        fit = fit_loglog_slope(counts, mses)
        assert fit.slope == pytest.approx(-1.0, abs=0.15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(slope=st.floats(-3.0, 3.0), dt=st.floats(0.001, 0.15))
    def test_outputs_finite_for_bounded_density(self, slope, dt):
        assume(abs(slope) * dt < 0.45)
        model = make_model_1d(drift=lambda x: slope * np.asarray(x, dtype=float))
        f = gauss_density(0.0, 1.0)
        for variant in ("left_point", "right_point_fixed_point"):
            cfg = PredictConfig(mc_samples=8, variant=variant)
            val = predict_value(f, model, dt, np.array([0.5]), dt, cfg,
                                substream(13, "finite", int(slope * 1000), int(dt * 1e5)))
            assert np.isfinite(val)


class TestPredictCloud:
    def _grid(self):
        return TimeGrid.uniform(horizon=1.0, steps=10)

    def test_static_single_particle_keeps_density_value(self):
        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float), sigma=0.0)
        f = gauss_density(0.0, 1.0)
        cloud = ParticleCloud(locations=[[0.6]], values=[0.2], stage="posterior")
        out = predict_cloud(cloud, f, model, self._grid(), 1,
                            PredictConfig(mc_samples=4), seed=0)
        assert out.stage == "prior"
        assert out.locations[0, 0] == 0.6
        assert out.values[0] == pytest.approx(float(f(np.array([[0.6]]))[0]), rel=1e-15)

    def test_permutation_equivariance_is_exact(self):
        model = get_model("linear1d")
        rng = substream(14, "cloud-perm")
        n = 40
        locations = rng.standard_normal((n, 1))
        values = np.abs(rng.standard_normal(n))
        cloud = ParticleCloud(locations=locations, values=values, stage="posterior")
        perm = rng.permutation(n)
        shuffled = ParticleCloud(locations=locations[perm], values=values[perm],
                                 stage="posterior", ids=np.arange(n)[perm])
        f = gauss_density(0.0, 1.0)
        cfg = PredictConfig(mc_samples=8)
        base = predict_cloud(cloud, f, model, self._grid(), 1, cfg, seed=21)
        moved = predict_cloud(shuffled, f, model, self._grid(), 1, cfg, seed=21)
        assert np.array_equal(moved.locations, base.locations[perm])
        assert np.array_equal(moved.values, base.values[perm])
        assert np.array_equal(moved.ids, base.ids[perm])

    def test_batched_values_match_scalar_entry_points(self):
        grid = self._grid()
        dt = grid.dt(1)
        n = 6
        for name, f in (("linear1d", gauss_density(0.1, 0.9)),
                        ("linear2d", get_model("linear2d").initial_density)):
            model = get_model(name)
            d_w = model.dim_noise
            rng = substream(15, "cloud-scalar", model.dim_state)
            cloud = ParticleCloud(locations=rng.standard_normal((n, model.dim_state)),
                                  values=np.abs(rng.standard_normal(n)), stage="posterior")
            for variant in ("right_point_fixed_point", "left_point"):
                cfg = PredictConfig(mc_samples=16, variant=variant)
                out = predict_cloud(cloud, f, model, grid, 1, cfg, seed=33)
                for row in range(n):
                    fwd_noise = substream(33, "predict-forward", 1, row).standard_normal(d_w)
                    forward = euler_step(model, grid.time(0), cloud.locations[row], dt,
                                         math.sqrt(dt) * fwd_noise)
                    scalar = predict_value(f, model, grid.time(1), forward, dt, cfg,
                                           substream(33, "predict-backward", 1, row))
                    assert np.array_equal(out.locations[row], forward)
                    assert out.values[row] == max(scalar, 0.0)

    def test_one_step_values_against_quadrature(self):
        model = get_model("ou1d")
        grid = self._grid()
        prev = model.initial_density
        n, m = 64, 1024
        locations = model.initial_sampler(n, substream(16, "cloud-quad-init"))
        cloud = ParticleCloud(locations=locations,
                              values=prev(locations), stage="posterior")
        cfg = PredictConfig(mc_samples=m, variant="left_point")
        out = predict_cloud(cloud, prev, model, grid, 1, cfg, seed=77)
        dt = grid.dt(1)
        errs, bounds = [], []
        for row in range(n):
            x = out.locations[row, 0]
            oracle = prediction_oracle_left_point(prev, model, grid.time(1), x, dt)
            errs.append((out.values[row] - oracle) ** 2)
            bounds.append(prediction_estimator_variance(prev, model, grid.time(1), x, dt))
        # across particles, squared errors average to single-term variance / M
        assert np.mean(errs) <= 3.0 * np.mean(bounds) / m

    def test_one_step_right_point_values_against_quadrature(self):
        # the recursion y <- prefix_j - div dt y starts from prev(x) and
        # contracts by |div dt| = 0.1 per iterate, so after M iterates it sits
        # near mean / (1 + div dt), where mean averages prev over M reverse
        # samples (the early, noisier prefixes are damped by powers of 0.1):
        # the squared error averages to Var prev(Z) / (M (1 + div dt)^2)
        model = get_model("ou1d")
        grid = self._grid()
        prev = model.initial_density
        n, m = 64, 1024
        locations = model.initial_sampler(n, substream(17, "cloud-quad-right-init"))
        cloud = ParticleCloud(locations=locations,
                              values=prev(locations), stage="posterior")
        cfg = PredictConfig(mc_samples=m)
        out = predict_cloud(cloud, prev, model, grid, 1, cfg, seed=78)
        dt = grid.dt(1)
        var = float(model.diffusion(grid.time(1))[0, 0]) ** 2 * dt
        f = lambda xs: prev(xs[:, None])
        errs, bounds = [], []
        for row in range(n):
            x = out.locations[row]
            oracle = prediction_oracle_right_point(prev, model, grid.time(1), x[0], dt)
            errs.append((out.values[row] - oracle) ** 2)
            mean = float((x - model.drift(x) * dt)[0])
            single_var = (gaussian_expectation(lambda xs: f(xs) ** 2, mean, var)
                          - gaussian_expectation(f, mean, var) ** 2)
            bounds.append(single_var / (1.0 + float(model.drift_divergence(x)) * dt) ** 2)
        assert np.mean(errs) <= 3.0 * np.mean(bounds) / m

    def test_mismatched_density_shape_rejected(self):
        model = get_model("linear1d")
        cloud = ParticleCloud(locations=[[0.0]], values=[1.0], stage="posterior")
        with pytest.raises(ConfigurationError, match="values"):
            predict_cloud(cloud, lambda pts: np.ones((len(pts), 2)), model,
                          self._grid(), 1, PredictConfig(mc_samples=4), seed=0)


    def _cloud(self, locations, ids):
        return ParticleCloud(locations=locations, values=np.ones(len(ids)),
                             stage="posterior", ids=ids)

    def test_nonfinite_density_at_forward_location_names_particle(self):
        model = get_model("linear1d")
        cloud = self._cloud([[0.0], [0.5], [1.0]], [5, 9, 2])

        def nan_at_second_anchor(pts):
            out = np.ones(len(pts))
            if len(pts) == 3:  # the forward locations, not the 3 * 4 reverse samples
                out[1] = np.nan
            return out

        with pytest.raises(FilterError, match=r"forward locations of particle ids \[9\]"):
            predict_cloud(cloud, nan_at_second_anchor, model, self._grid(), 1,
                          PredictConfig(mc_samples=4), seed=0)

    def test_nonfinite_density_at_reverse_samples_names_particle(self):
        model = get_model("linear1d")
        cloud = self._cloud([[0.0], [0.5], [1.0]], [5, 9, 2])

        def nan_in_last_block(pts):
            out = np.ones(len(pts))
            out[-1] = np.nan
            return out

        with pytest.raises(FilterError, match=r"reverse samples of particle ids \[2\], first at "):
            predict_cloud(cloud, nan_in_last_block, model, self._grid(), 1,
                          PredictConfig(mc_samples=4, variant="left_point"), seed=0)

    def test_non_contracting_particles_are_named(self):
        # a nonlinear model, so nothing is refused before the step; the
        # recursion contracts where |div * dt| < 1, and a NaN divergence is
        # outside that region too
        def divergence(x):
            x = np.asarray(x, dtype=float)[..., 0]
            return np.where(x > 5.0, 10.0, np.where(x < -5.0, np.nan, 1.0))

        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float),
                              divergence=divergence, sigma=0.0)
        assert model.linear is None and self._grid().dt(1) * 10.0 == 1.0
        for locations, ids, named in (
                ([[0.0], [10.0], [-10.0], [0.5]], [7, 3, 11, 5], r"\[3, 11\]"),
                ([[-10.0], [0.0]], [4, 9], r"\[4\]")):
            with pytest.raises(ContractionError,
                               match=rf"^fixed-point iteration diverged .* particle ids "
                                     rf"{named}; reduce the step size$"):
                predict_cloud(self._cloud(locations, ids), gauss_density(0.0, 1.0), model,
                              self._grid(), 1, PredictConfig(mc_samples=4), seed=0)

    def test_nonfinite_forward_state_names_particle(self):
        model = make_model_1d(drift=lambda x: np.where(np.asarray(x) > 5.0, np.inf, 0.0))
        cloud = self._cloud([[0.0], [10.0], [1.0]], [3, 7, 1])
        with pytest.raises(ModelBlowUpError, match=r"forward .* particle ids \[7\]$"):
            predict_cloud(cloud, gauss_density(0.0, 1.0), model, self._grid(), 1,
                          PredictConfig(mc_samples=4), seed=0)

    def test_nonfinite_reverse_sample_names_particle(self):
        # finite forward step, but the drift overflows at the forward location
        model = make_model_1d(drift=lambda x: np.where(np.asarray(x) > 0.5, np.inf, 1.0),
                              sigma=0.0)
        cloud = self._cloud([[0.0], [0.45]], [4, 8])
        with pytest.raises(ModelBlowUpError, match=r"reverse samples for particle ids \[8\]"):
            predict_cloud(cloud, gauss_density(0.0, 1.0), model, self._grid(), 1,
                          PredictConfig(mc_samples=4), seed=0)


class TestParticleCloud:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ParticleCloud(locations=[[0.0], [1.0]], values=[1.0], stage="prior")

    @pytest.mark.parametrize("locations, values", [
        (np.array([0.1, 0.2, 0.3]), np.ones(3)),  # not one particle in 3-d
        (np.array([0.1]), np.ones(1)),  # not one particle in 1-d either
    ])
    def test_locations_other_than_n_by_dim_rejected(self, locations, values):
        with pytest.raises(ConfigurationError, match=r"\(n, dim\)"):
            ParticleCloud(locations=locations, values=values, stage="prior")

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ParticleCloud(locations=[[0.0]], values=[-0.1], stage="prior")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            ParticleCloud(locations=[[0.0], [1.0]], values=[1.0, 2.0],
                          stage="prior", ids=[3, 3])

    @pytest.mark.parametrize("ids", [[3.9, 7.2], [True, False]], ids=["fractional", "bool"])
    def test_ids_other_than_integers_rejected(self, ids):
        with pytest.raises(ConfigurationError, match="particle ids must be an integer"):
            ParticleCloud(locations=[[0.0], [1.0]], values=[1.0, 2.0],
                          stage="prior", ids=ids)

    def test_empty_cloud_constructs_with_empty_ids(self):
        cloud = ParticleCloud(locations=np.empty((0, 1)), values=[], stage="prior", ids=[])
        assert cloud.n_particles == 0 and cloud.ids.dtype == np.int64

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PredictConfig(mc_samples=0)
        with pytest.raises(ConfigurationError):
            PredictConfig(mc_samples=4, variant="midpoint")
