import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fbsdefilter.errors import ConfigurationError, ModelBlowUpError
from fbsdefilter.model import (
    MODEL_ZOO,
    LinearGaussian,
    TimeGrid,
    _gaussian_law,
    _linear_gaussian_model,
    backward_sample,
    check_drift_divergence,
    euler_step,
    finite_difference_divergence,
    get_model,
    matvec,
    ou_exact_coupled_step,
    simulate_truth,
)
from fbsdefilter.rngs import substream

from conftest import make_model_1d, ou_exact_moments

# Each zoo model's declared Gaussian coefficients: observation matrix,
# diffusion, observation noise, initial mean and initial covariance.
DECLARED = {
    "linear1d": ([[1.0]], [[0.5]], [[0.5]], [0.5], [[0.25]]),
    "ou1d": ([[1.0]], [[1.0]], [[1.0]], [0.0], [[0.5]]),
    "doublewell1d": ([[1.0]], [[0.5]], [[0.5]], [1.0], [[0.25]]),
    "linear2d": (np.eye(2), 0.4 * np.eye(2), 0.5 * np.eye(2), [0.0, 0.0], 0.25 * np.eye(2)),
    "linear4d": (np.eye(4), 0.5 * np.eye(4), 0.5 * np.eye(4), np.full(4, 0.5),
                 0.25 * np.eye(4)),
}
ZOO = list(MODEL_ZOO)


class TestEulerStep:
    def test_update_rule_arithmetic(self):
        model = make_model_1d(drift=lambda x: -np.asarray(x, dtype=float))
        out = euler_step(model, 0.0, np.array([1.0]), 0.1, np.array([0.05]))
        assert out[0] == pytest.approx(0.95, abs=1e-15)

    def test_identity_with_no_dynamics(self):
        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float), sigma=0.0)
        for dt in (0.01, 0.5, 3.0):
            out = euler_step(model, 0.0, np.array([0.0]), dt, np.array([1.3]))
            assert out[0] == 0.0

    def test_empirical_mean_matches_exact_transition(self):
        # mean-reverting unit model from x0=1: exact mean at t=1 is e^{-1}
        model = make_model_1d(drift=lambda x: -np.asarray(x, dtype=float))
        n_paths, n_steps = 100_000, 1000
        dt = 1.0 / n_steps
        rng = substream(5, "ou-mean-test")
        x = np.ones((n_paths, 1))
        for k in range(n_steps):
            dW = math.sqrt(dt) * rng.standard_normal((n_paths, 1))
            x = euler_step(model, k * dt, x, dt, dW)
        exact_mean, exact_var = ou_exact_moments(1.0, 1.0, 1.0, 1.0)
        stderr = math.sqrt(exact_var / n_paths)
        assert abs(x[:, 0].mean() - exact_mean) < 3.0 * stderr

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_blow_up_reports_state(self):
        model = make_model_1d(drift=lambda x: np.asarray(x, dtype=float) * np.inf)
        with pytest.raises(ModelBlowUpError, match="non-finite"):
            euler_step(model, 0.0, np.array([0.0]), 0.1, np.array([0.0]))

    @settings(max_examples=50, derandomize=True)
    @given(x=st.floats(-10, 10), dt=st.floats(0.001, 1.0), dw=st.floats(-3, 3))
    def test_deterministic_and_exact_for_trivial_drift(self, x, dt, dw):
        model = make_model_1d(drift=lambda v: 0.0 * np.asarray(v, dtype=float))
        first = euler_step(model, 0.0, np.array([x]), dt, np.array([dw]))
        second = euler_step(model, 0.0, np.array([x]), dt, np.array([dw]))
        assert first[0] == second[0] == x + dw


class TestBackwardSample:
    def test_update_rule_arithmetic(self):
        model = make_model_1d(drift=lambda x: -np.asarray(x, dtype=float))
        out = backward_sample(model, 0.1, np.array([0.95]), 0.1, np.array([-0.05]))
        assert out[0] == pytest.approx(0.95 + 0.095 - 0.05, abs=1e-15)

    def test_no_dynamics_returns_input(self):
        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float), sigma=0.0)
        out = backward_sample(model, 0.0, np.array([1.7]), 0.3, np.array([2.0]))
        assert out[0] == 1.7

    def test_distribution_matches_direct_gaussian_sampler(self):
        # reverse samples from fixed x are N(x - drift(x) dt, sigma^2 dt)
        a, sigma, dt, x = -0.4, 0.8, 0.2, 1.3
        model = make_model_1d(drift=lambda v: a * np.asarray(v, dtype=float), sigma=sigma)
        rng = substream(11, "backward-ks")
        n = 4000
        dW = math.sqrt(dt) * rng.standard_normal((n, 1))
        drawn = np.array([backward_sample(model, 0.0, np.array([x]), dt, dW[i])[0]
                          for i in range(n)])
        direct = (x - a * x * dt) + sigma * math.sqrt(dt) * rng.standard_normal(n)
        assert stats.ks_2samp(drawn, direct).pvalue > 0.01


class TestSimulateTruth:
    def test_zero_obs_map_gives_zero_observations(self):
        model = make_model_1d(drift=lambda x: -np.asarray(x, dtype=float),
                              obs_map=lambda x: 0.0 * np.asarray(x, dtype=float),
                              obs_noise=0.0)
        grid = TimeGrid.uniform(horizon=1.0, steps=10)
        _, obs = simulate_truth(model, grid, seed=0)
        assert np.all(obs == 0.0)

    def test_deterministic_unit_state_integrates_time(self):
        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float),
                              sigma=0.0, obs_noise=0.0, mean0=1.0, var0=1.0)
        model.initial_sampler = lambda n, rng: np.ones((n, 1))
        grid = TimeGrid.uniform(horizon=1.0, steps=4)
        states, obs = simulate_truth(model, grid, seed=0)
        assert np.all(states == 1.0)
        np.testing.assert_allclose(obs[:, 0], grid.knots, atol=1e-15)

    def test_observation_variance_matches_discrete_chain_formula(self):
        a, sigma, h, r = -0.5, 0.6, 1.0, 0.4
        mean0, var0 = 0.3, 0.25
        model = make_model_1d(drift=lambda x: a * np.asarray(x, dtype=float),
                              sigma=sigma, obs_map=lambda x: h * np.asarray(x, dtype=float),
                              obs_noise=r, mean0=mean0, var0=var0)
        n_steps, dt = 4, 0.25
        grid = TimeGrid.uniform(horizon=1.0, steps=n_steps)

        # brute-force variance of O_K for the exact discrete chain
        A = 1.0 + a * dt
        from_s0 = h * dt * sum(A ** j for j in range(1, n_steps + 1))
        var = var0 * from_s0 ** 2
        for i in range(1, n_steps + 1):
            coeff = h * dt * sum(A ** (j - i) for j in range(i, n_steps + 1))
            var += sigma ** 2 * dt * coeff ** 2
        var += n_steps * r ** 2 * dt

        n_rep = 10_000
        finals = np.array([simulate_truth(model, grid, seed=s)[1][-1, 0]
                           for s in range(n_rep)])
        observed = finals.var(ddof=1)
        stderr = var * math.sqrt(2.0 / (n_rep - 1))
        assert abs(observed - var) < 4.0 * stderr

    def test_same_seed_reproduces(self):
        model = get_model("linear1d")
        grid = TimeGrid.uniform(horizon=1.0, steps=6)
        s1, o1 = simulate_truth(model, grid, seed=9)
        s2, o2 = simulate_truth(model, grid, seed=9)
        assert np.array_equal(s1, s2) and np.array_equal(o1, o2)


class TestDriftDivergence:
    @pytest.mark.parametrize("name", ZOO)
    def test_zoo_divergence_consistent_with_finite_differences(self, name):
        check_drift_divergence(get_model(name))

    def test_fallback_matches_analytic_for_cubic_drift(self):
        model = make_model_1d(drift=lambda x: np.asarray(x, dtype=float) ** 3)
        pts = np.linspace(-2, 2, 9)[:, None]
        np.testing.assert_allclose(model.drift_divergence(pts), 3.0 * pts[:, 0] ** 2,
                                   rtol=1e-6, atol=1e-8)

    def test_check_catches_wrong_divergence(self):
        model = make_model_1d(drift=lambda x: -np.asarray(x, dtype=float),
                              divergence=lambda x: np.full(np.asarray(x).shape[:-1], 2.0))
        with pytest.raises(ConfigurationError, match="disagrees"):
            check_drift_divergence(model)

    def test_finite_difference_batched(self):
        div = finite_difference_divergence(lambda x: x - x ** 3,
                                           np.array([[0.0], [1.0], [2.0]]))
        np.testing.assert_allclose(div, [1.0, -2.0, -11.0], rtol=1e-6)


class TestTimeGrid:
    def test_uniform_grid_properties(self):
        grid = TimeGrid.uniform(horizon=2.0, steps=8)
        assert grid.steps == 8
        assert grid.time(0) == 0.0 and grid.horizon == 2.0
        assert grid.max_dt == pytest.approx(0.25)
        assert grid.dt(1) == pytest.approx(0.25)

    def test_irregular_grid_max_dt(self):
        grid = TimeGrid(np.array([0.0, 0.1, 0.4, 0.5]))
        assert grid.max_dt == pytest.approx(0.3)

    def test_nonincreasing_knots_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_uniform_grid_refuses_a_horizon_not_finite_and_positive(self, horizon):
        # refused before np.linspace, which warns on a non-finite end
        with pytest.raises(ConfigurationError,
                           match=f"^horizon must be finite and positive, got {horizon:g}$"):
            TimeGrid.uniform(horizon=horizon, steps=4)


class TestInitialLaw:
    @pytest.mark.parametrize("name", ZOO)
    def test_density_nonnegative_and_sampler_moments(self, name):
        model = get_model(name)
        rng = substream(3, f"init-law-{name}")
        draws = model.initial_sampler(100_000, rng)
        assert np.all(model.initial_density(draws) >= 0)
        *_, mean0, cov0 = DECLARED[name]
        np.testing.assert_allclose(model.initial_density(draws[:100]),
                                   stats.multivariate_normal(mean0, cov0).pdf(draws[:100]),
                                   rtol=1e-12)
        var0 = np.diag(cov0)
        for j in range(model.dim_state):
            se_mean = math.sqrt(var0[j] / draws.shape[0])
            assert abs(draws[:, j].mean() - mean0[j]) < 4.0 * se_mean
            se_var = var0[j] * math.sqrt(2.0 / draws.shape[0])
            assert abs(draws[:, j].var(ddof=1) - var0[j]) < 4.0 * se_var

    def test_linear_model_refuses_correlated_initial_law(self):
        # the sampler draws coordinates independently and would not follow
        # the Kalman prior
        lin = LinearGaussian(drift_matrix=-np.eye(2), obs_matrix=np.eye(2),
                             diffusion=np.eye(2), obs_noise=np.eye(2),
                             mean0=[0.0, 0.0], cov0=[[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ConfigurationError, match="diagonal"):
            _linear_gaussian_model("correlated", lin)


class TestZooCoefficients:
    @pytest.mark.parametrize("name", ZOO)
    def test_maps_equal_the_declared_coefficients_bit_for_bit(self, name):
        model = get_model(name)
        obs_matrix, diffusion, obs_noise, mean0, cov0 = DECLARED[name]
        # every declared observation matrix is the identity, so the exact
        # product is the state itself; a -0.0 state would come back as +0.0
        states = np.linspace(-2.05, 1.95, 9 * model.dim_state).reshape(9, -1)
        assert not np.any(np.signbit(states) & (states == 0))
        np.testing.assert_array_equal(obs_matrix, np.eye(model.dim_state))
        assert np.array_equal(model.obs_map(states), states)
        for t in (0.0, 0.35, 2.0):
            assert np.array_equal(model.diffusion(t), diffusion)
            assert np.array_equal(model.obs_noise(t), obs_noise)
        density, _sampler = _gaussian_law(mean0, np.diag(cov0))
        assert np.array_equal(model.initial_density(states), density(states))
        lin = model.linear
        if lin is not None:
            for declared, recorded in ((obs_matrix, lin.obs_matrix),
                                       (diffusion, lin.diffusion),
                                       (obs_noise, lin.obs_noise), (mean0, lin.mean0),
                                       (cov0, lin.cov0)):
                assert np.array_equal(recorded, declared)
            assert np.array_equal(model.drift(states), states @ lin.drift_matrix.T)


class TestModelRegistry:
    def test_unknown_name_lists_available(self):
        from fbsdefilter.model import MODEL_ZOO
        with pytest.raises(ConfigurationError, match="linear1d"):
            get_model("nope")
        assert set(MODEL_ZOO) >= {"linear1d", "ou1d", "doublewell1d", "linear2d"}

    def test_custom_registration(self):
        from fbsdefilter.model import MODEL_ZOO, register_model
        name = "custom-test-entry"
        try:
            register_model(name, lambda: make_model_1d(
                drift=lambda x: -np.asarray(x, dtype=float)))
            assert get_model(name).dim_state == 1
        finally:
            MODEL_ZOO.pop(name, None)


class TestStrongStepError:
    def test_explicit_step_error_decays_at_least_sqrt(self):
        # additive noise: observed order is near 1, guaranteed floor is 1/2
        from fbsdefilter.harness import dt_rate_study
        report = dt_rate_study(replications=500, seed=2)
        assert report.slope >= 0.5
        assert report.slope <= 1.3

    def test_coupled_exact_step_matches_moments(self):
        theta, sigma, dt, x0 = 1.0, 1.0, 0.25, 0.7
        rng = substream(8, "coupled-moments")
        n = 200_000
        dW = math.sqrt(dt) * rng.standard_normal(n)
        extra = rng.standard_normal(n)
        out = ou_exact_coupled_step(theta, sigma, np.full(n, x0), dt, dW, extra)
        mean, var = ou_exact_moments(theta, sigma, x0, dt)
        assert abs(out.mean() - mean) < 4.0 * math.sqrt(var / n)
        assert abs(out.var(ddof=1) - var) < 4.0 * var * math.sqrt(2.0 / n)


@pytest.mark.parametrize("d_in", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("batch", [(), (7,), (1000,), (13, 5), (3, 4, 2)])
def test_matvec_has_the_bits_of_the_broadcast_sum(d_in, batch):
    rng = substream(4, "matvec", d_in, len(batch))
    for d_out in (1, 2, 3, 4):
        mat = rng.standard_normal((d_out, d_in))
        # magnitudes over many binades, so every rounding of the sum shows
        vec = rng.standard_normal(batch + (d_in,)) * np.exp(rng.uniform(-20, 20, d_in))
        expected = (mat * vec[..., None, :]).sum(axis=-1)
        assert matvec(mat, vec).tobytes() == expected.tobytes()
        # every product is -0.0, and the broadcast sum of them is +0.0
        zero, negative = np.zeros_like(mat), -np.abs(vec)
        assert matvec(zero, negative).tobytes() == \
            (zero * negative[..., None, :]).sum(axis=-1).tobytes()
