import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdefilter import kde
from fbsdefilter.errors import ConfigurationError, EmptyDensityError
from fbsdefilter.kde import (
    EVAL_BLOCK_ROWS,
    KernelDensity,
    _bumps,
    gaussian_bandwidth,
    mse_rate_exponent,
    parzen_estimate,
)
from fbsdefilter.filtering import FilterState, write_checkpoint
from fbsdefilter.predict import ParticleCloud
from fbsdefilter.rngs import substream

from conftest import load_density, write_csv_rows

SQRT_PI = math.sqrt(math.pi)


def bump(x, center, bandwidth):
    """The Gaussian bump exp(-|x - center|^2 / bandwidth^2) at one point x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kd = KernelDensity([np.atleast_1d(center)], [1.0], [bandwidth])
    return kd.eval(x[None, :])[0]


def draw(kd, rng, n):
    """n mixture draws from the component uniforms, then the standard normals."""
    return kd.inverse_sample(rng.random(n), rng.standard_normal((n, kd.dim)))


class TestPhi:
    def test_unit_at_center(self):
        assert bump(np.array([0.3, -0.2]), np.array([0.3, -0.2]), 0.7) == 1.0

    def test_unit_scaled_distance(self):
        assert bump(1.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_two_dim_hand_norm(self):
        # displacement (3, 4) with width 5: squared distance 25 over 25
        val = bump(np.array([3.0, 4.0]), np.array([0.0, 0.0]), 5.0)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-12)

    @settings(max_examples=60, derandomize=True)
    @given(x=st.floats(-20, 20), c=st.floats(-20, 20), bw=st.floats(1.6, 50))
    def test_range_is_half_open_unit_interval(self, x, c, bw):
        # bw floor keeps the exponent above the float64 underflow threshold
        val = bump(x, c, bw)
        assert 0.0 < val <= 1.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_equals_single_component_mixture_bitwise(self, dim):
        # the one bump helper and the unit-weight mixture agree to the bit
        rng = substream(30, "phi-vs-eval", dim)
        c = rng.standard_normal(dim)
        b = 0.3 + rng.random()
        x = 2.0 * rng.standard_normal((25, dim))
        kd = KernelDensity([c], [1.0], [b])
        _sq, bumps = _bumps(x, c[None, :], b)
        assert np.array_equal(bumps[:, 0], kd.eval(x))
        assert bumps[0, 0] == kd.eval(x[:1])[0]


class TestEval:
    def test_single_component_at_center(self):
        kd = KernelDensity([[1.0]], [1.0], [0.5])
        assert kd.eval(np.array([[1.0]]))[0] == 1.0

    def test_zero_weights_everywhere_zero(self):
        kd = KernelDensity([[0.0], [2.0]], [0.0, 0.0], [1.0, 1.0])
        assert np.all(kd.eval(np.linspace(-5, 5, 11)[:, None]) == 0.0)

    def test_symmetric_pair_is_even_function(self):
        kd = KernelDensity([[-1.5], [1.5]], [0.7, 0.7], [0.9, 0.9])
        xs = np.linspace(0.0, 4.0, 23)[:, None]
        np.testing.assert_allclose(kd.eval(xs), kd.eval(-xs), rtol=1e-14)

    @settings(max_examples=40, derandomize=True)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linear_in_weights(self, a, b):
        centers, bws = [[-0.5], [1.0]], [0.8, 1.3]
        xs = np.linspace(-2, 2, 7)[:, None]
        combined = KernelDensity(centers, [a + b, a - b], bws).eval(xs)
        first = KernelDensity(centers, [a, a], bws).eval(xs)
        second = KernelDensity(centers, [b, -b], bws).eval(xs)
        np.testing.assert_allclose(combined, first + second, rtol=1e-12, atol=1e-12)

    @staticmethod
    def _one_shot(kd, x):
        """Every point against every center at once: the (n, L) weighted
        bumps, added one component at a time from 0.0."""
        diff = x[:, None, :] - kd.centers
        sq = (diff * diff).sum(axis=-1)
        terms = np.exp(-sq / kd.bandwidths ** 2) * kd.weights
        vals = np.zeros(x.shape[0])
        for column in terms.T:
            vals = vals + column
        return vals

    @staticmethod
    def _mixture(rng, n_kernels, dim):
        return KernelDensity(rng.standard_normal((n_kernels, dim)),
                             rng.uniform(-1.0, 1.0, n_kernels),
                             rng.uniform(0.3, 2.0, n_kernels))

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_blocked_eval_equals_one_shot_formula(self, dim, monkeypatch):
        # small blocks give two full blocks and a partial one
        monkeypatch.setattr(kde, "EVAL_BLOCK_ROWS", 64)
        for n_kernels in (1, 5, 8, 24, 32, 129, 200):
            rng = substream(31, "eval-blocks", dim, n_kernels)
            kd = self._mixture(rng, n_kernels, dim)
            x = 2.0 * rng.standard_normal((2 * 64 + 3, dim))
            one_shot = self._one_shot(kd, x)
            vals = kd.eval(x)
            assert vals.shape == (x.shape[0],)
            assert vals.tobytes() == one_shot.tobytes(), n_kernels
            # one point is the batch of one: same bits as its row in the batch
            singles = np.concatenate([kd.eval(x[i:i + 1]) for i in range(x.shape[0])])
            assert singles.tobytes() == one_shot.tobytes(), n_kernels

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_last_block_of_one_row_equals_its_batch_of_one(self, dim, monkeypatch):
        # a one-row block sums an (L, 1) column; a reduction over that axis
        # would add it pairwise from L = 8 on, unlike the same point in a
        # larger block
        monkeypatch.setattr(kde, "EVAL_BLOCK_ROWS", 64)
        for n_kernels in (1, 8, 24, 32, 129, 200):
            rng = substream(31, "eval-last-row", dim, n_kernels)
            kd = self._mixture(rng, n_kernels, dim)
            x = 2.0 * rng.standard_normal((2 * 64 + 1, dim))
            one_shot = self._one_shot(kd, x)
            assert kd.eval(x).tobytes() == one_shot.tobytes(), n_kernels
            assert kd.eval(x[-1:]).tobytes() == one_shot[-1:].tobytes(), n_kernels

    @pytest.mark.parametrize("n_kernels", [24, 32])
    def test_eval_at_its_block_size_equals_one_shot_formula(self, n_kernels):
        # the benchmark mixtures, over two full blocks of the real size
        rng = substream(31, "eval-blocks-full", n_kernels)
        kd = self._mixture(rng, n_kernels, 1)
        x = 2.0 * rng.standard_normal((2 * EVAL_BLOCK_ROWS + 3, 1))
        assert kd.eval(x).tobytes() == self._one_shot(kd, x).tobytes()

    def test_eval_of_negative_zero_terms_is_positive_zero(self):
        # the sum starts from 0.0: negative weights whose bumps underflow
        # give -0.0 terms, which sum to +0.0
        for n_kernels in (3, 12, 200):
            kd = KernelDensity(np.zeros((n_kernels, 1)), -np.ones(n_kernels),
                               np.full(n_kernels, 0.01))
            vals = kd.eval(np.array([[100.0], [0.0]]))
            assert vals.tobytes() == np.array([0.0, -float(n_kernels)]).tobytes()

    def test_eval_memory_is_its_buffers_and_output(self):
        n, n_kernels = 200_000, 32
        rng = substream(32, "eval-memory")
        kd = KernelDensity(rng.standard_normal((n_kernels, 1)),
                           rng.uniform(-1.0, 1.0, n_kernels),
                           rng.uniform(0.3, 2.0, n_kernels))
        x = rng.standard_normal((n, 1))
        tracemalloc.start()
        try:
            vals = kd.eval(x)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two (L, rows) buffers, with room for small temporaries, but no
        # (L, rows) temporary per block
        block_bytes = n_kernels * EVAL_BLOCK_ROWS * 8
        assert peak < 4 * block_bytes + vals.nbytes

    @pytest.mark.parametrize("points", [np.array([0.1, 0.2]), np.array(0.1),
                                        np.zeros((3, 2)), np.zeros((2, 1, 1))])
    def test_points_other_than_n_by_dim_rejected(self, points):
        # a 1-d array is not read as n points in 1-d (nor as one point in 2-d)
        kd = KernelDensity([[0.0]], [1.0], [1.0])
        with pytest.raises(ConfigurationError, match=r"\(n, dim\)"):
            kd.eval(points)


class TestConstruction:
    @pytest.mark.parametrize("centers, n_kernels", [
        (np.array([0.1, 0.2, 0.3]), 3),  # not one center in 3-d
        (np.array([0.5]), 1),  # not one center in 1-d either
        (np.empty((2, 0)), 2),  # points with no coordinates
    ])
    def test_centers_other_than_l_by_dim_rejected(self, centers, n_kernels):
        with pytest.raises(ConfigurationError, match=r"\(L, dim\)"):
            KernelDensity(centers, np.ones(n_kernels), np.ones(n_kernels))


class TestMass:
    def test_normalized_single_kernel(self):
        kd = KernelDensity([[0.0]], [1.0 / SQRT_PI], [1.0])
        assert kd.mass() == pytest.approx(1.0, rel=1e-14)

    def test_zero_weight_zero_mass(self):
        kd = KernelDensity([[3.0]], [0.0], [2.0])
        assert kd.mass() == 0.0

    def test_matches_trapezoid_quadrature_1d(self):
        kd = KernelDensity([[-1.0], [0.5], [2.0]], [0.4, -0.1, 0.25], [0.7, 1.1, 0.5])
        xs = np.linspace(-20.0, 20.0, 40001)
        quad = np.trapezoid(kd.eval(xs[:, None]), xs)
        assert abs(kd.mass() - quad) < 1e-8

    def test_matches_quadrature_2d(self):
        kd = KernelDensity([[0.0, 0.5], [-1.0, 1.0]], [0.3, 0.2], [0.8, 1.2])
        xs = np.linspace(-12, 12, 601)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = kd.eval(grid).reshape(601, 601)
        quad = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
        assert abs(kd.mass() - quad) < 1e-8


class TestSample:
    def test_single_component_moments(self):
        center, bw = 1.5, 0.8
        kd = KernelDensity([[center]], [0.3], [bw])
        draws = draw(kd, substream(2, "kde-sample"), 100_000)
        var = bw * bw / 2.0
        se_mean = math.sqrt(var / draws.shape[0])
        assert abs(draws[:, 0].mean() - center) < 4.0 * se_mean
        assert abs(draws[:, 0].var(ddof=1) - var) < 0.05 * var

    def test_zero_weight_component_never_drawn(self):
        kd = KernelDensity([[0.0], [50.0]], [0.4, 0.0], [0.5, 0.5])
        draws = draw(kd, substream(3, "kde-sample-zero"), 2000)
        assert np.all(draws[:, 0] < 25.0)

    def test_symmetric_mixture_mean_near_midpoint(self):
        kd = KernelDensity([[-2.0], [2.0]], [0.5, 0.5], [0.6, 0.6])
        draws = draw(kd, substream(4, "kde-sample-sym"), 100_000)
        per_draw_var = 2.0 ** 2 + 0.6 ** 2 / 2.0
        se = math.sqrt(per_draw_var / draws.shape[0])
        assert abs(draws[:, 0].mean()) < 4.0 * se

    def test_negative_weights_ignored_and_all_nonpositive_rejected(self):
        kd = KernelDensity([[0.0], [40.0]], [0.5, -0.5], [0.5, 0.5])
        draws = draw(kd, substream(5, "kde-sample-neg"), 500)
        assert np.all(draws[:, 0] < 20.0)
        empty = KernelDensity([[0.0]], [-1.0], [1.0])
        with pytest.raises(EmptyDensityError):
            draw(empty, substream(6, "kde-sample-empty"), 1)

    def test_uniform_above_rounded_mass_takes_last_positive_component(self):
        # the cumulative positive mass rounds to 1 - 2^-52 here, so the
        # largest uniform below 1 lies above it; it must not reach the
        # negative component at 40
        kd = KernelDensity([[0.0], [1.0], [2.0], [40.0]], [0.1, 0.3, 0.2, -0.5],
                           [0.5, 0.5, 0.5, 0.5])
        u = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        masses = np.maximum(kd.weights, 0.0) * kd.component_integrals()
        assert np.cumsum(masses / masses.sum())[-1] < u[-1]
        draws = kd.inverse_sample(u, np.zeros((3, 1)))
        assert draws[:, 0].tolist() == [0.0, 1.0, 2.0]

    def test_moments_match_closed_form(self):
        kd = KernelDensity([[-1.0], [2.0]], [0.3, 0.6], [0.8, 1.1])
        mean, cov, mass = kd.moments()
        contrib = kd.weights * (kd.bandwidths * SQRT_PI)
        exp_mass = contrib.sum()
        exp_mean = (contrib * kd.centers[:, 0]).sum() / exp_mass
        exp_second = (contrib * (kd.centers[:, 0] ** 2 + kd.bandwidths ** 2 / 2)).sum() / exp_mass
        assert mass == pytest.approx(exp_mass, rel=1e-14)
        assert mean[0] == pytest.approx(exp_mean, rel=1e-14)
        assert cov[0, 0] == pytest.approx(exp_second - exp_mean ** 2, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("n_kernels", [1, 24, 128])
    def test_moments_equal_the_per_component_loop(self, n_kernels, dim):
        rng = substream(9, "kde-moments", n_kernels, dim)
        kd = KernelDensity(rng.standard_normal((n_kernels, dim)),
                           rng.uniform(0.1, 1.0, n_kernels),
                           rng.uniform(0.3, 2.0, n_kernels))
        contrib = kd.weights * kd.component_integrals()
        ref_mass = contrib.sum()
        ref_mean = (contrib[:, None] * kd.centers).sum(axis=0) / ref_mass
        second = np.zeros((dim, dim))
        for l in range(n_kernels):
            c = kd.centers[l]
            second += contrib[l] * (np.outer(c, c)
                                    + 0.5 * kd.bandwidths[l] ** 2 * np.eye(dim))
        ref_cov = second / ref_mass - np.outer(ref_mean, ref_mean)
        mean, cov, mass = kd.moments()
        assert mass == ref_mass
        assert mean.tobytes() == ref_mean.tobytes()
        np.testing.assert_allclose(cov, ref_cov, rtol=1e-12)
        assert np.array_equal(cov, cov.T)


class TestSerialization:
    def test_exact_round_trip(self, tmp_path):
        # a checkpoint's mixture table reads back bit for bit; its cells are
        # the row writer's repr(float(.)) of each center coordinate, weight
        # and bandwidth, the cells of the space-separated file it replaced
        rng = substream(7, "kde-io")
        kd = KernelDensity(rng.standard_normal((5, 3)),
                           rng.standard_normal(5),
                           np.abs(rng.standard_normal(5)) + 0.1)
        cloud = ParticleCloud(locations=rng.standard_normal((4, 3)), values=np.ones(4),
                              stage="posterior")
        write_checkpoint(FilterState(k=1, cloud=cloud, density=kd), tmp_path)
        path = tmp_path / "kd_step_0001.txt"
        write_csv_rows(tmp_path / "rows.csv", ["c0", "c1", "c2", "weight", "bandwidth"],
                       [[*kd.centers[l], kd.weights[l], kd.bandwidths[l]] for l in range(5)])
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
        back = load_density(path)
        assert np.array_equal(back.centers, kd.centers)
        assert np.array_equal(back.weights, kd.weights)
        assert np.array_equal(back.bandwidths, kd.bandwidths)

    def test_malformed_record_rejected(self, tmp_path):
        # the headerless space-separated format, and a row one cell short
        path = tmp_path / "bad.txt"
        for text in ("0.5 1.0 0.3\n", "c0,weight,bandwidth\n0.5,1.0\n"):
            path.write_text(text)
            with pytest.raises(ConfigurationError):
                load_density(path)


class TestBandwidthSpec:
    def test_closed_form_value(self):
        # dim 1: (density_sup / sqrt(4 pi) / (4 n / 3))^(1/5)
        h = gaussian_bandwidth(n=1000, dim=1, density_sup=0.4)
        want = (0.4 / math.sqrt(4 * math.pi) / (4000.0 / 3.0)) ** 0.2
        assert h == pytest.approx(want, rel=1e-12)
        assert h == pytest.approx(0.15329, abs=5e-6)
        with pytest.raises(ConfigurationError):
            gaussian_bandwidth(n=0, dim=1, density_sup=0.4)
        with pytest.raises(ConfigurationError):
            gaussian_bandwidth(n=10, dim=1, density_sup=0.0)

    def test_rate_exponent(self):
        assert mse_rate_exponent(1) == pytest.approx(0.8)
        assert mse_rate_exponent(2) == pytest.approx(2.0 / 3.0)

    def test_gaussian_constants_positive_and_scale(self):
        h = gaussian_bandwidth(n=500, dim=1, density_sup=0.4)
        assert h > 0
        # doubling n shrinks h by 2^{-1/5}
        h2 = gaussian_bandwidth(n=1000, dim=1, density_sup=0.4)
        assert h2 / h == pytest.approx(2 ** -0.2, rel=1e-12)


class TestParzenEstimate:
    def test_single_sample_at_query_point(self):
        h = gaussian_bandwidth(n=1, dim=1, density_sup=0.4)
        val = parzen_estimate(np.array([[0.4]]), np.array([[0.4]]), 0.4)[0]
        assert val == pytest.approx((2 * math.pi) ** -0.5 / h, rel=1e-12)

    def test_samples_other_than_n_by_dim_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\(n, dim\)"):
            parzen_estimate(np.array([0.4, 0.5]), np.array([[0.4]]), 0.4)

    def test_pointwise_error_shrinks_with_samples(self):
        truth = (2 * math.pi) ** -0.5
        rng = substream(8, "parzen")
        errs = []
        for n in (400, 12800):
            sq = 0.0
            for _ in range(40):
                est = parzen_estimate(rng.standard_normal((n, 1)), np.zeros((1, 1)), truth)
                sq += (est[0] - truth) ** 2
            errs.append(sq / 40)
        assert errs[1] < errs[0] * 0.2
