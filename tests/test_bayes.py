import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fbsdefilter.bayes import (
    DENSITY_FLOOR,
    Likelihood,
    bayes_update,
    denominator_mc,
    likelihood_density,
    step_likelihood,
)
from fbsdefilter.errors import ConfigurationError, DegenerateObservationError
from fbsdefilter.harness import fit_loglog_slope
from fbsdefilter.model import TimeGrid, get_model, matvec, simulate_truth
from fbsdefilter.predict import ParticleCloud
from fbsdefilter.reference import denominator_oracle
from fbsdefilter.rngs import substream


def identity_map(x):
    return np.asarray(x, dtype=float)


def make_likelihood(obs_prev=0.0, obs_now=0.1, dt=0.1, noise=1.0, obs_map=identity_map):
    return Likelihood(np.atleast_1d(obs_prev), np.atleast_1d(obs_now), dt,
                      obs_map, np.atleast_2d(noise))


class TestLikelihoodDensity:
    def test_hand_computed_value(self):
        # mean 0.1, variance 0.1, observation at the mean: peak density
        lik = make_likelihood(obs_prev=0.0, obs_now=0.1, dt=0.1, noise=1.0)
        val = likelihood_density(lik, np.array([[1.0]]))[0]
        assert val == pytest.approx((2 * math.pi * 0.1) ** -0.5, rel=1e-12)
        assert val == pytest.approx(1.26157, abs=5e-6)

    def test_zero_map_mode_value(self):
        dt, r = 0.2, 0.7
        lik = make_likelihood(obs_prev=0.3, obs_now=0.3, dt=dt, noise=r,
                              obs_map=lambda x: 0.0 * np.asarray(x, dtype=float))
        val = likelihood_density(lik, np.array([[5.0]]))[0]
        assert val == pytest.approx((2 * math.pi * dt) ** -0.5 / r, rel=1e-12)

    def test_integrates_to_one_over_observation(self):
        lik_builder = lambda o: make_likelihood(obs_prev=0.0, obs_now=o, dt=0.15,
                                                noise=0.8)
        x = np.array([[0.4]])
        total, err = quad(lambda o: likelihood_density(lik_builder(o), x)[0], -10, 10,
                          epsabs=1e-12)
        assert abs(total - 1.0) < 1e-8

    def test_non_spd_covariance_rejected(self):
        with pytest.raises(ConfigurationError, match="positive definite"):
            make_likelihood(noise=0.0)

    def test_floor_prevents_zero(self):
        lik = make_likelihood(obs_prev=0.0, obs_now=100.0, dt=0.01, noise=0.1)
        val = likelihood_density(lik, np.array([[0.0]]))[0]
        assert val == DENSITY_FLOOR

    @pytest.mark.parametrize("states", [np.array([1.0]), np.array(1.0)])
    def test_states_other_than_n_by_dim_rejected(self, states):
        lik = make_likelihood()
        with pytest.raises(ConfigurationError, match=r"\(n, dim\)"):
            likelihood_density(lik, states)


class TestBayesUpdate:
    def _prior(self, values, locations=None):
        values = np.asarray(values, dtype=float)
        if locations is None:
            locations = np.linspace(-1, 1, values.size)[:, None]
        return ParticleCloud(locations=locations, values=values, stage="prior")

    def test_uniform_likelihood_preserves_values(self):
        prior = self._prior([0.3, 0.8, 1.2])
        lik = make_likelihood(obs_map=lambda x: 0.0 * np.asarray(x, dtype=float))
        post = bayes_update(prior, lik)
        np.testing.assert_allclose(post.values, prior.values, rtol=1e-14)
        assert post.stage == "posterior"

    def test_hand_evaluated_two_particle_update(self):
        # likelihood ratio 1:3 with priors 2:1 gives denominator 2
        prior = self._prior([2.0, 1.0], locations=[[0.0], [1.0]])
        lik = make_likelihood()
        values = np.array([1.0, 3.0])
        import fbsdefilter.bayes as bayes_mod
        orig = bayes_mod._cloud_likelihoods
        bayes_mod._cloud_likelihoods = lambda cloud, lk: values
        try:
            post = bayes_update(prior, lik)
            denom = denominator_mc(prior, lik)
        finally:
            bayes_mod._cloud_likelihoods = orig
        assert denom == 2.0
        np.testing.assert_allclose(post.values, [1.0, 1.5], rtol=1e-15)

    def test_unit_priors_keep_mean_one(self):
        rng = substream(1, "bayes-mean-one")
        prior = self._prior(np.ones(64), locations=rng.standard_normal((64, 1)))
        lik = make_likelihood(obs_now=0.25)
        post = bayes_update(prior, lik)
        assert np.mean(post.values) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=40, derandomize=True)
    @given(scale=st.floats(1e-3, 1e3))
    def test_scaling_likelihood_cancels(self, scale):
        rng = substream(2, "bayes-scale")
        locations = rng.standard_normal((16, 1))
        prior = self._prior(np.abs(rng.standard_normal(16)) + 0.1, locations=locations)
        lik = make_likelihood(obs_now=0.2)
        base = bayes_update(prior, lik)
        import fbsdefilter.bayes as bayes_mod
        orig = bayes_mod._cloud_likelihoods
        bayes_mod._cloud_likelihoods = lambda cloud, lk: orig(cloud, lk) * scale
        try:
            scaled = bayes_update(prior, lik)
        finally:
            bayes_mod._cloud_likelihoods = orig
        np.testing.assert_allclose(scaled.values, base.values, rtol=1e-9)

    def test_permutation_equivariance(self):
        rng = substream(3, "bayes-perm")
        n = 32
        locations = rng.standard_normal((n, 1))
        values = np.abs(rng.standard_normal(n)) + 0.05
        prior = ParticleCloud(locations=locations, values=values, stage="prior")
        perm = rng.permutation(n)
        shuffled = ParticleCloud(locations=locations[perm], values=values[perm],
                                 stage="prior", ids=np.arange(n)[perm])
        lik = make_likelihood(obs_now=0.3)
        base = bayes_update(prior, lik)
        moved = bayes_update(shuffled, lik)
        assert np.array_equal(moved.values, base.values[perm])

    def test_degenerate_observation_raises(self):
        prior = self._prior([1.0, 1.0], locations=[[0.0], [0.1]])
        lik = make_likelihood(obs_prev=0.0, obs_now=500.0, dt=0.01, noise=0.1)
        with pytest.raises(DegenerateObservationError):
            bayes_update(prior, lik)

    def test_posterior_stage_required(self):
        cloud = ParticleCloud(locations=[[0.0]], values=[1.0], stage="posterior")
        with pytest.raises(ConfigurationError):
            bayes_update(cloud, make_likelihood())


class TestDenominator:
    def test_constant_likelihood(self):
        prior = ParticleCloud(locations=[[0.0], [2.0], [5.0]],
                              values=[1.0, 1.0, 1.0], stage="prior")
        lik = make_likelihood(obs_map=lambda x: 0.0 * np.asarray(x, dtype=float),
                              obs_prev=0.1, obs_now=0.1, dt=0.5, noise=2.0)
        expected = (2 * math.pi * 0.5) ** -0.5 / 2.0
        assert denominator_mc(prior, lik) == pytest.approx(expected, rel=1e-12)

    def test_two_particle_hand_value(self):
        import fbsdefilter.bayes as bayes_mod
        prior = ParticleCloud(locations=[[0.0], [1.0]], values=[1.0, 1.0],
                              stage="prior")
        orig = bayes_mod._cloud_likelihoods
        bayes_mod._cloud_likelihoods = lambda cloud, lk: np.array([1.0, 3.0])
        try:
            assert denominator_mc(prior, make_likelihood()) == 2.0
        finally:
            bayes_mod._cloud_likelihoods = orig

    def test_rmse_rate_against_quadrature(self):
        model = get_model("ou1d")
        dt = 0.1
        lik = Likelihood(np.zeros(1), np.array([0.05]), dt, model.obs_map,
                         model.obs_noise(dt))
        truth = denominator_oracle(lik, model.initial_density, 0.0, math.sqrt(0.5))
        counts = [100, 1000, 10000, 100000]
        rmses = []
        for j, n in enumerate(counts):
            sq = []
            for rep in range(60):
                locs = model.initial_sampler(n, substream(4, "denom-rate", j, rep))
                cloud = ParticleCloud(locations=locs, values=np.ones(n),
                                      stage="prior")
                sq.append((denominator_mc(cloud, lik) - truth) ** 2)
            rmses.append(math.sqrt(np.mean(sq)))
        fit = fit_loglog_slope(counts, rmses)
        assert fit.slope == pytest.approx(-0.5, abs=0.1)


def test_observation_law_has_one_meaning_in_simulator_likelihood_and_kalman():
    # one step of linear2d: the simulator's increment, the likelihood and the
    # Kalman filter's design H dt and noise r r^T dt spell the same Gaussian law
    model = get_model("linear2d")
    lin = model.linear
    grid = TimeGrid.uniform(horizon=1.0, steps=10)
    seed, k = 3, 4
    states, obs = simulate_truth(model, grid, seed)
    rng = substream(seed, "truth-obs")
    for _ in range(k):
        z = rng.standard_normal(model.dim_obs)
    dt = grid.dt(k)
    np.testing.assert_array_equal(
        obs[k], obs[k - 1] + matvec(lin.obs_matrix, states[k]) * dt
        + matvec(lin.obs_noise, math.sqrt(dt) * z))

    design = lin.obs_matrix * dt
    noise_cov = lin.obs_noise @ lin.obs_noise.T * dt
    xs = states[k] + np.linspace(-3.0, 3.0, 7)[:, None] * np.array([1.0, -0.5])
    resid = obs[k] - (obs[k - 1] + xs @ design.T)
    quad = (resid * np.linalg.solve(noise_cov, resid.T).T).sum(axis=1)
    expected = np.exp(-0.5 * quad) / math.sqrt(np.linalg.det(2.0 * math.pi * noise_cov))
    lik = step_likelihood(model, grid, k, obs[k - 1], obs[k])
    np.testing.assert_allclose(likelihood_density(lik, xs), expected, rtol=1e-13)
