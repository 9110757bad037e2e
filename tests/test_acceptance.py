"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they complete.  Every tolerance is pinned here; nothing is calibrated at
runtime.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from fbsdefilter.filtering import FilterConfig, kalman_filter, run_filter
from fbsdefilter.harness import (
    ExperimentConfig,
    FilterSettings,
    GridSettings,
    _run_jobs,
    denominator_rate_study,
    dt_rate_study,
    kde_rate_study,
    prediction_rate_study,
    run_experiment,
)
from fbsdefilter.kde import KernelDensity
from fbsdefilter.learn import TrainConfig, hessian, sgd_fit
from fbsdefilter.model import TimeGrid, get_model, simulate_truth
from fbsdefilter.predict import ParticleCloud, PredictConfig
from fbsdefilter.rngs import substream

from test_learn import max_relative_gradient_error


def _verdict(number: int, description: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: criterion {number}: {description} [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_kernel_estimator_rate():
    report_1d = kde_rate_study(sample_counts=(250, 1000, 4000, 16000), dim=1,
                               replications=200, seed=101)
    report_2d = kde_rate_study(sample_counts=(250, 1000, 4000, 16000), dim=2,
                               replications=200, seed=102)
    ok = (abs(report_1d.slope - (-0.8)) <= 0.15
          and abs(report_2d.slope - (-2.0 / 3.0)) <= 0.15)
    _verdict(1, "pointwise kernel-estimator MSE rate", ok,
             f"dim1 slope {report_1d.slope:.3f} (target -0.8 +- 0.15), "
             f"dim2 slope {report_2d.slope:.3f} (target -0.667 +- 0.15)")


def test_criterion_2_prediction_sample_rate():
    report = prediction_rate_study(mc_counts=(16, 64, 256, 1024),
                                   replications=200, seed=103)
    ok = abs(report.slope - (-1.0)) <= 0.15
    _verdict(2, "one-step prediction MSE rate in the reverse-sample count", ok,
             f"slope {report.slope:.3f} (target -1 +- 0.15)")


def test_criterion_3_normalizer_particle_rate():
    report = denominator_rate_study(particle_counts=(100, 1000, 10000, 100000),
                                    replications=200, seed=104)
    ok = abs(report.slope - (-0.5)) <= 0.1
    _verdict(3, "observation-normalizer RMSE rate in the particle count", ok,
             f"slope {report.slope:.3f} (target -0.5 +- 0.1)")


def test_criterion_4_step_size_rate():
    report = dt_rate_study(step_sizes=(0.1, 0.05, 0.025, 0.0125),
                           replications=2000, seed=105)
    ok = report.slope >= 0.5 and "near 1" in report.notes
    _verdict(4, "strong pathwise error rate in the step size", ok,
             f"slope {report.slope:.3f} (floor 0.5; additive noise sits near 1)")


def test_criterion_5_gradient_correctness():
    rng = substream(106, "acceptance-gradients")
    worst = 0.0
    for _ in range(100):
        n_components = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        kd = KernelDensity(rng.standard_normal((n_components, dim)),
                           rng.uniform(-1.0, 1.0, n_components),
                           rng.uniform(0.3, 2.5, n_components))
        x = rng.standard_normal(dim)
        y = 0.5 * rng.standard_normal()
        worst = max(worst, max_relative_gradient_error(kd, x, y))
    ok = worst < 1e-5
    _verdict(5, "analytic descent gradients vs central differences", ok,
             f"worst relative error {worst:.2e} over 100 instances (limit 1e-5)")


def test_criterion_6_hessian_structure():
    rng = substream(107, "acceptance-hessian")
    outer_dev = 0.0
    min_eig_ratio = 0.0
    for n_components in (1, 2, 4, 8):
        kd = KernelDensity(rng.standard_normal((n_components, 2)),
                           rng.uniform(-1.0, 1.0, n_components),
                           rng.uniform(0.4, 2.0, n_components))
        x = rng.standard_normal(2)
        h = hessian(kd, x, 0.3, asymptotic=True)
        diff = x[None, :] - kd.centers
        sq = (diff * diff).sum(axis=1)
        bumps = np.exp(-sq / kd.bandwidths ** 2)
        u = np.concatenate([bumps, kd.weights * bumps * 2.0 * sq / kd.bandwidths ** 3])
        target = 2.0 * np.outer(u, u)
        scale = max(np.abs(target).max(), 1e-300)
        outer_dev = max(outer_dev, float(np.abs(h - target).max() / scale))
        norm = np.linalg.norm(h, 2)
        min_eig_ratio = min(min_eig_ratio, float(np.linalg.eigvalsh(h)[0] / norm))

    # non-asymptotic curvature after an actual fit with tiny residuals
    cloud = ParticleCloud(locations=[[0.25]], values=[0.6], stage="posterior")
    kd_fit, report = sgd_fit(cloud, 1,
                             TrainConfig(sgd_steps=600, rate_weights=0.4),
                             substream(108, "acceptance-hessian-fit"))
    full = hessian(kd_fit, np.array([0.25]), 0.6, asymptotic=False)
    full_ratio = float(np.linalg.eigvalsh(full)[0] / np.linalg.norm(full, 2))

    ok = (outer_dev < 1e-12 and min_eig_ratio >= -1e-10
          and report.final_loss < 1e-6 and full_ratio >= -1e-4)
    _verdict(6, "asymptotic curvature is a scaled outer product and PSD", ok,
             f"outer dev {outer_dev:.1e}, min-eig ratio {min_eig_ratio:.1e}, "
             f"fitted loss {report.final_loss:.1e}, full min-eig ratio {full_ratio:.1e}")


@pytest.mark.slow
def test_criterion_7_linear_gaussian_oracle_equivalence():
    model = get_model("linear1d")
    grid = TimeGrid.uniform(horizon=1.0, steps=10)
    n_seeds = 20

    def seed_errors(seed):
        truth, obs = simulate_truth(model, grid, seed=seed)
        cfg = FilterConfig(grid=grid, n_particles=2000, n_kernels=32,
                           predict=PredictConfig(mc_samples=64),
                           train=TrainConfig(sgd_steps=4000), seed=seed)
        states = run_filter(model, obs, cfg)
        kal = kalman_filter(model.linear, grid, obs)
        stds = kal.stds()
        errors = np.empty(grid.steps)
        for k in range(1, grid.steps + 1):
            mean, _cov, _mass = states[k].density.moments()
            errors[k - 1] = abs(mean[0] - kal.means[k, 0]) / stds[k, 0]
        return errors

    scaled_errors = np.stack(_run_jobs([lambda s=s: seed_errors(s) for s in range(n_seeds)],
                                       len(os.sched_getaffinity(0))))
    medians = np.median(scaled_errors, axis=0)
    ok = bool(np.all(medians < 0.1))
    _verdict(7, "posterior mean tracks the exact linear-Gaussian recursion", ok,
             "per-step medians over 20 seeds: "
             + " ".join(f"{m:.3f}" for m in medians) + " (limit 0.1)")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_8_thread_count_determinism(tmp_path):
    common = dict(
        model="linear1d", seed=42,
        grid=GridSettings(horizon=0.5, steps=5),
        filter=FilterSettings(n_particles=200, mc_samples=16, n_kernels=16,
                              sgd_steps=500),
        replications=8)
    run_experiment(ExperimentConfig(out_dir=str(tmp_path / "serial"), threads=1,
                                    **common))
    run_experiment(ExperimentConfig(out_dir=str(tmp_path / "pooled"), threads=8,
                                    **common))
    serial = sorted(p for p in (tmp_path / "serial").rglob("*")
                    if p.is_file() and p.name != "config.json")
    pooled = sorted(p for p in (tmp_path / "pooled").rglob("*")
                    if p.is_file() and p.name != "config.json")
    names_match = [p.name for p in serial] == [p.name for p in pooled]
    bytes_match = names_match and all(a.read_bytes() == b.read_bytes()
                                      for a, b in zip(serial, pooled))
    _verdict(8, "byte-identical artifacts across 1-worker and 8-worker runs",
             bool(bytes_match), f"{len(serial)} files compared")


def test_criterion_9_property_suites_cover_module_invariants():
    # no headline experiment numbers exist to reproduce; the acceptance basis
    # is the rate slopes above plus the per-module property suites
    here = Path(__file__).parent
    suites = sorted(p.name for p in here.glob("test_*.py") if p.name != "test_acceptance.py")
    expected = {"test_bayes.py", "test_filtering.py", "test_harness.py",
                "test_kde.py", "test_learn.py", "test_model.py", "test_predict.py"}
    ok = expected.issubset(set(suites))
    _verdict(9, "rate-based acceptance plus full module property suites", ok,
             f"module suites present: {', '.join(suites)}")
