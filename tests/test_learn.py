import math

import numpy as np
import pytest

from fbsdefilter.errors import ConfigurationError, DivergentLearningError
from fbsdefilter.kde import SQRT_PI, KernelDensity, _bumps
from fbsdefilter.learn import (
    BANDWIDTH_FLOOR_FRAC,
    LossReport,
    TrainConfig,
    _initial_bandwidth,
    _select_center_rows,
    hessian,
    loss_and_gradients,
    sgd_fit,
)
from fbsdefilter.predict import ParticleCloud
from fbsdefilter.rngs import substream


def random_mixture(rng, n_components, dim):
    return KernelDensity(
        rng.standard_normal((n_components, dim)),
        rng.uniform(-1.0, 1.0, n_components),
        rng.uniform(0.3, 2.5, n_components),
    )


def fd_gradients(kd, x, y, step=1e-6):
    """Central-difference loss gradients; the independent check."""
    grad_w = np.empty(kd.n_components)
    grad_b = np.empty(kd.n_components)

    def loss_with(weights, bandwidths):
        shifted = KernelDensity(kd.centers, weights, bandwidths)
        return loss_and_gradients(shifted, x, y)[0]

    for l in range(kd.n_components):
        w_hi, w_lo = kd.weights.copy(), kd.weights.copy()
        w_hi[l] += step
        w_lo[l] -= step
        grad_w[l] = (loss_with(w_hi, kd.bandwidths) - loss_with(w_lo, kd.bandwidths)) / (2 * step)
        b_hi, b_lo = kd.bandwidths.copy(), kd.bandwidths.copy()
        b_hi[l] += step
        b_lo[l] -= step
        grad_b[l] = (loss_with(kd.weights, b_hi) - loss_with(kd.weights, b_lo)) / (2 * step)
    return grad_w, grad_b


def max_relative_gradient_error(kd, x, y, step=1e-6, rtol=1e-5):
    loss, gw, gb = loss_and_gradients(kd, x, y)
    fw, fb = fd_gradients(kd, x, y, step=step)
    analytic = np.concatenate([gw, gb])
    numeric = np.concatenate([fw, fb])
    # central differences of the loss carry ~eps * loss / step of absolute
    # cancellation noise; components below that floor are compared in
    # absolute terms at 16x the noise level instead of their own magnitude
    noise = 16.0 * np.finfo(float).eps * max(1.0, loss) / step
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), noise / rtol)
    return float((np.abs(analytic - numeric) / scale).max())


def reference_start(training, n_kernels, rng):
    """Id-sorted locations and targets, and the mixture the fit starts from."""
    order = np.argsort(training.ids)
    locations = training.locations[order]
    targets = training.values[order]
    rows = _select_center_rows(targets.size, n_kernels, rng)
    centers = locations[rows].copy()
    width0 = _initial_bandwidth(centers, locations)
    weights = targets[rows] / (n_kernels * (width0 * SQRT_PI) ** centers.shape[1])
    return locations, targets, KernelDensity(centers, weights, np.full(n_kernels, width0))


def reference_sgd_fit(training, n_kernels, cfg, rng):
    """The descent loop as one fresh array per operation; the bit-level reference."""
    locations, targets, start = reference_start(training, n_kernels, rng)
    centers, weights, bandwidths = start.centers, start.weights, start.bandwidths
    floor = BANDWIDTH_FLOOR_FRAC * bandwidths[0]
    clamps = 0
    rates_w, rates_b = cfg.rate_at(np.arange(1, cfg.sgd_steps + 1))
    for s, rate_w, rate_b in zip(range(1, cfg.sgd_steps + 1), rates_w.tolist(),
                                 rates_b.tolist()):
        idx = int(rng.integers(targets.size))
        sq, bumps = _bumps(locations[idx], centers, bandwidths)
        resid = float((weights * bumps).sum() - targets[idx])
        grad_w = 2.0 * resid * bumps
        grad_b = grad_w * weights * (2.0 * sq / bandwidths ** 3)
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
    resid = kd.eval(locations) - targets
    sq, bumps = _bumps(locations, centers, bandwidths)
    grad_w = 2.0 * (resid[:, None] * bumps).mean(axis=0)
    grad_b = 2.0 * (resid[:, None] * bumps * (2.0 * sq / bandwidths ** 3)
                    ).mean(axis=0) * weights
    return kd, LossReport(
        final_loss=float(np.mean(resid * resid)),
        final_grad_norm=float(np.sqrt((grad_w * grad_w).sum() + (grad_b * grad_b).sum())),
        bandwidth_clamps=clamps)


class TestSelectCenters:
    def test_full_selection_returns_all_locations(self):
        rows = _select_center_rows(9, 9, substream(2, "c2"))
        assert rows.tolist() == list(range(9))

    def test_too_many_centers_rejected(self):
        with pytest.raises(ConfigurationError):
            _select_center_rows(3, 4, substream(5, "c5"))


class TestLossAndGradients:
    def test_zero_residual_zeroes_gradients(self):
        kd = random_mixture(substream(6, "g1"), 3, 2)
        x = np.array([0.4, -0.2])
        y = kd.eval(x[None, :])[0]
        loss, gw, gb = loss_and_gradients(kd, x, y)
        assert loss == 0.0
        assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_query_at_center_kills_bandwidth_gradient(self):
        kd = KernelDensity([[0.7]], [0.9], [0.6])
        loss, gw, gb = loss_and_gradients(kd, np.array([0.7]), 0.2)
        assert gb[0] == 0.0
        assert gw[0] == pytest.approx(2 * (0.9 - 0.2), rel=1e-12)

    def test_matches_finite_differences(self):
        rng = substream(7, "g2")
        for _ in range(20):
            kd = random_mixture(rng, 3, 2)
            x = rng.standard_normal(2)
            y = 0.5 * rng.standard_normal()
            assert max_relative_gradient_error(kd, x, y) < 1e-5


class TestSgdFit:
    def _cloud_from(self, locations, values):
        return ParticleCloud(k=1, locations=locations, values=values, stage="posterior")

    def test_exact_fixed_point_keeps_parameters(self):
        # a component centred on the one pair with the pair's value as weight
        # interpolates it exactly: zero residual and zero gradients, so no
        # descent step moves it
        kd = KernelDensity([[0.8]], [0.37], [1.0 / SQRT_PI])
        loss, grad_w, grad_b = loss_and_gradients(kd, np.array([0.8]), 0.37)
        assert loss == 0.0
        assert np.all(grad_w == 0.0) and np.all(grad_b == 0.0)

    def test_single_pair_converges_to_value(self):
        cloud = self._cloud_from([[0.3]], [0.85])
        cfg = TrainConfig(sgd_steps=500, rate_weights=0.4)
        kd, report = sgd_fit(cloud, 1, cfg, substream(9, "fit-single"))
        assert report.final_loss < 1e-10
        assert kd.weights[0] == pytest.approx(0.85, abs=1e-5)

    def test_gaussian_target_fit_reaches_small_loss(self):
        rng = substream(10, "fit-gauss")
        n = 500
        locations = rng.standard_normal((n, 1))
        targets = np.exp(-0.5 * locations[:, 0] ** 2) / math.sqrt(2 * math.pi)
        cloud = self._cloud_from(locations, targets)
        cfg = TrainConfig(sgd_steps=4000)
        kd, report = sgd_fit(cloud, 25, cfg, substream(11, "fit-gauss-run"))
        assert report.final_loss < 1e-3
        resid = kd.eval(locations) - targets
        assert report.final_loss == float(np.mean(resid * resid))

    def test_realizable_targets_loss_decreases_in_windows(self):
        rng = substream(12, "fit-window")
        truth = KernelDensity([[-1.0], [0.5], [1.5]], [0.3, 0.5, 0.2], [0.9, 0.8, 1.1])
        locations = rng.uniform(-3, 3, (400, 1))
        values = truth.eval(locations)
        cloud = self._cloud_from(locations, values)
        kd, report = sgd_fit(cloud, 3, TrainConfig(sgd_steps=3000),
                             substream(13, "fit-window-run"))
        _, _, start = reference_start(cloud, 3, substream(13, "fit-window-run"))
        start_resid = start.eval(locations) - values
        assert report.final_loss < np.mean(start_resid * start_resid)

    def test_permutation_of_cloud_reproduces_fit_exactly(self):
        rng = substream(14, "fit-perm")
        n = 60
        locations = rng.standard_normal((n, 1))
        values = np.abs(rng.standard_normal(n)) + 0.1
        cloud = ParticleCloud(k=1, locations=locations, values=values, stage="posterior")
        perm = rng.permutation(n)
        shuffled = ParticleCloud(k=1, locations=locations[perm], values=values[perm],
                                 stage="posterior", ids=np.arange(n)[perm])
        cfg = TrainConfig(sgd_steps=400)
        kd_a, _ = sgd_fit(cloud, 8, cfg, substream(15, "fit-perm-run"))
        kd_b, _ = sgd_fit(shuffled, 8, cfg, substream(15, "fit-perm-run"))
        assert np.array_equal(kd_a.centers, kd_b.centers)
        assert np.array_equal(kd_a.weights, kd_b.weights)
        assert np.array_equal(kd_a.bandwidths, kd_b.bandwidths)

    # the last two are the fit shapes of the benchmark workloads
    # (experiment-doublewell and crit7-linear1d)
    @pytest.mark.parametrize("dim, rate_b, expect_clamps, n, n_kernels, steps", [
        (1, 0.02, False, 200, 12, 1500), (2, 0.02, False, 200, 12, 1500),
        (1, 20.0, True, 200, 12, 1500),
        (1, 0.02, False, 400, 24, 2000), (1, 0.02, False, 2000, 32, 4000),
    ], ids=["1-uniform_subsample-0.02-False", "2-uniform_subsample-0.02-False",
            "1-uniform_subsample-20.0-True", "1-n400-L24-2000steps",
            "1-n2000-L32-4000steps"])
    def test_buffered_loop_equals_reference_loop(self, dim, rate_b, expect_clamps,
                                                 n, n_kernels, steps):
        rng = substream(23, "fit-ref", dim)
        locations = rng.standard_normal((n, dim))
        values = np.exp(-(locations * locations).sum(axis=1)) + 0.05
        cloud = ParticleCloud(k=1, locations=locations, values=values,
                              stage="posterior", ids=rng.permutation(n))
        cfg = TrainConfig(sgd_steps=steps, rate_bandwidths=rate_b)
        kd, report = sgd_fit(cloud, n_kernels, cfg, substream(24, "fit-ref-run", dim))
        ref_kd, ref = reference_sgd_fit(cloud, n_kernels, cfg,
                                        substream(24, "fit-ref-run", dim))
        for name in ("centers", "weights", "bandwidths"):
            assert getattr(kd, name).tobytes() == getattr(ref_kd, name).tobytes(), name
        assert report.final_loss == ref.final_loss
        assert report.final_grad_norm == ref.final_grad_norm
        assert report.bandwidth_clamps == ref.bandwidth_clamps
        assert (report.bandwidth_clamps > 0) == expect_clamps
        # the fit hands out arrays of its own, not views of the loop's buffers
        for arr in (kd.weights, kd.bandwidths):
            base = arr
            while base.base is not None:
                base = base.base
            assert base.nbytes == arr.nbytes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_rate_raises_with_step_index(self):
        rng = substream(16, "fit-diverge")
        locations = rng.standard_normal((50, 1))
        cloud = self._cloud_from(locations, np.abs(rng.standard_normal(50)) + 0.5)
        cfg = TrainConfig(sgd_steps=3000, rate_weights=500.0, rate_bandwidths=500.0)
        with pytest.raises(DivergentLearningError, match="step") as ours:
            sgd_fit(cloud, 10, cfg, substream(17, "fit-diverge-run"))
        with pytest.raises(DivergentLearningError) as ref:
            reference_sgd_fit(cloud, 10, cfg, substream(17, "fit-diverge-run"))
        assert str(ours.value) == str(ref.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("steps", [100, 14],
                             ids=["bandwidth_overflow", "divergence_on_last_step"])
    def test_bandwidth_overflow_raises_with_reference_message(self, steps):
        # targets far above the initial mixture make the residual negative, so
        # the bandwidth gradient is negative; at a bandwidth rate of 1e308 one
        # bandwidth overflows to +inf (at step 14 of both fits) while the
        # weights and every later residual stay finite, since an infinite
        # bandwidth gives a bump of one and a bandwidth gradient of zero
        rng = substream(8, "fit-bw-overflow")
        cloud = ParticleCloud(k=1, locations=rng.standard_normal((60, 1)),
                              values=30.0 * (np.abs(rng.standard_normal(60)) + 0.1),
                              stage="posterior")
        cfg = TrainConfig(sgd_steps=steps, rate_bandwidths=1e308)
        with pytest.raises(DivergentLearningError) as ours:
            sgd_fit(cloud, 10, cfg, substream(108, "fit-bw-overflow-run"))
        with pytest.raises(DivergentLearningError) as ref:
            reference_sgd_fit(cloud, 10, cfg, substream(108, "fit-bw-overflow-run"))
        assert str(ours.value) == str(ref.value)
        assert "descent step 14;" in str(ref.value)


class TestHessian:
    def test_rank_one_structure_single_component(self):
        kd = KernelDensity([[0.4]], [0.7], [0.9])
        x = np.array([1.1])
        h = hessian(kd, x, 0.3, asymptotic=True)
        sq = (x[0] - 0.4) ** 2
        bump = math.exp(-sq / 0.9 ** 2)
        v = np.array([bump, 0.7 * bump * 2 * sq / 0.9 ** 3])
        np.testing.assert_allclose(h, 2 * np.outer(v, v), rtol=1e-14)
        eigs = np.linalg.eigvalsh(h)
        assert abs(eigs[0]) < 1e-12 * abs(eigs[1])
        assert eigs[1] == pytest.approx(2 * (v * v).sum(), rel=1e-12)

    def test_all_two_by_two_minors_vanish(self):
        rng = substream(19, "hess-minor")
        kd = random_mixture(rng, 4, 1)
        h = hessian(kd, rng.standard_normal(1), 0.2, asymptotic=True)
        size = h.shape[0]
        for r1 in range(size):
            for r2 in range(r1 + 1, size):
                for c1 in range(size):
                    for c2 in range(c1 + 1, size):
                        minor = h[np.ix_([r1, r2], [c1, c2])]
                        det = minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
                        scale = max(abs(minor).max() ** 2, 1e-300)
                        assert abs(det) < 1e-12 * scale

    @pytest.mark.parametrize("n_components", [1, 2, 4, 8])
    def test_asymptotic_hessian_is_psd(self, n_components):
        rng = substream(20, "hess-psd", n_components)
        kd = random_mixture(rng, n_components, 2)
        h = hessian(kd, rng.standard_normal(2), 0.4, asymptotic=True)
        norm = np.linalg.norm(h, 2)
        assert np.linalg.eigvalsh(h)[0] >= -1e-10 * norm

    def test_full_hessian_near_fit_is_almost_psd(self):
        cloud = ParticleCloud(k=1, locations=[[0.3]], values=[0.8], stage="posterior")
        kd, report = sgd_fit(cloud, 1, TrainConfig(sgd_steps=600, rate_weights=0.4),
                             substream(21, "hess-fit"))
        assert report.final_loss < 1e-6
        h = hessian(kd, np.array([0.3]), 0.8, asymptotic=False)
        norm = np.linalg.norm(h, 2)
        assert np.linalg.eigvalsh(h)[0] >= -1e-4 * norm

    def test_residual_terms_present_only_in_full_hessian(self):
        rng = substream(22, "hess-resid")
        kd = random_mixture(rng, 3, 1)
        x = rng.standard_normal(1)
        y = kd.eval(x[None, :])[0] + 0.5  # force a residual
        full = hessian(kd, x, y, asymptotic=False)
        asym = hessian(kd, x, y, asymptotic=True)
        diff = full - asym
        off_diag_rows = ~np.eye(6, dtype=bool)
        # corrections live on the two diagonals that touch one component
        block = diff[:3, 3:]
        assert np.all(diff[:3, :3] == 0.0)
        assert np.all(block[~np.eye(3, dtype=bool)] == 0.0)
        assert np.any(np.diag(block) != 0.0)
