import json
import math
import os
import re
import time
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdefilter import harness
from fbsdefilter.bayes import Likelihood, likelihood_density
from fbsdefilter.cli import main as cli_main
from fbsdefilter.errors import ConfigurationError, ContractionError, \
    DegenerateObservationError, ModelBlowUpError
from fbsdefilter.filtering import StepDiagnostics, run_filter
from fbsdefilter.harness import (
    AXES,
    ConvergenceReport,
    ExperimentConfig,
    FilterSettings,
    GridSettings,
    SweepSettings,
    _run_jobs,
    config_from_dict,
    denominator_rate_study,
    dt_rate_study,
    estimate_recurrence_coefficient,
    fit_loglog_slope,
    kde_rate_study,
    load_config,
    prediction_rate_study,
    run_experiment,
    run_rate_study,
    save_report,
)
from fbsdefilter.learn import LossReport
from fbsdefilter.model import MODEL_ZOO, TimeGrid, backward_sample, euler_step, \
    get_model, register_model, simulate_truth
from fbsdefilter.rngs import substream

from conftest import make_model_1d, write_csv_rows


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        xs = np.array([10.0, 100.0, 1000.0, 10000.0])
        fit = fit_loglog_slope(xs, xs ** -0.8)
        assert fit.slope == pytest.approx(-0.8, abs=1e-12)
        assert fit.half_width < 1e-10

    def test_constant_series_has_zero_slope(self):
        fit = fit_loglog_slope([1.0, 2.0, 4.0, 8.0], [3.0, 3.0, 3.0, 3.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_inverse_law_recovered(self):
        rng = substream(1, "loglog-noise")
        xs = np.logspace(0, 3, 8)
        ys = 3.0 * xs ** -1.0 * (1.0 + 0.01 * rng.standard_normal(8))
        fit = fit_loglog_slope(xs, ys)
        assert -1.05 < fit.slope < -0.95

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -1.0, 2.0])
        with pytest.raises(ConfigurationError):
            fit_loglog_slope([0.0, 2.0, 3.0], [1.0, 1.0, 2.0])

    @settings(max_examples=30, derandomize=True)
    @given(power=st.floats(-3.0, 3.0), scale=st.floats(0.01, 100.0))
    def test_recovers_any_exact_power(self, power, scale):
        xs = np.array([1.0, 3.0, 9.0, 27.0, 81.0])
        fit = fit_loglog_slope(xs, scale * xs ** power)
        assert fit.slope == pytest.approx(power, abs=1e-9)


class TestConvergenceReport:
    def _raw(self, n_vals, reps=60):
        return np.abs(substream(2, "report-raw").standard_normal((reps, n_vals))) + 0.1

    def test_validation_rules(self):
        good = dict(axis="M", values=[1, 2, 4, 8], raw=self._raw(4), statistic="mse",
                    theory_slope=-1.0)
        ConvergenceReport(**good)
        with pytest.raises(ConfigurationError, match="increasing"):
            ConvergenceReport(**{**good, "values": [8, 4, 2, 1]})
        with pytest.raises(ConfigurationError, match="4 points"):
            ConvergenceReport(**{**good, "values": [1, 2, 4], "raw": self._raw(3)})
        with pytest.raises(ConfigurationError, match="replications"):
            ConvergenceReport(**{**good, "raw": self._raw(4, reps=10)})
        for raw in (self._raw(5), self._raw(4)[:, 0]):
            with pytest.raises(ConfigurationError, match=re.escape("(replications, len")):
                ConvergenceReport(**{**good, "raw": raw})

    def test_save_report_files(self, tmp_path):
        report = ConvergenceReport(
            axis="N", values=[1, 2, 4, 8], raw=self._raw(4, reps=50), statistic="rmse",
            theory_slope=-0.5)
        save_report(report, tmp_path)
        payload = json.loads((tmp_path / "rates_N.json").read_text())
        # the fitted line is the one through the report's own table
        fit = fit_loglog_slope(report.values, np.sqrt(report.raw.mean(axis=0)))
        assert payload["slope"] == fit.slope
        assert payload["replications"] == 50
        with pytest.raises(TypeError):
            ConvergenceReport(axis="N", values=[1, 2, 4, 8], raw=report.raw,
                              statistic="rmse", theory_slope=-0.5, slope=-0.5)
        lines = (tmp_path / "rates_N_raw.csv").read_text().splitlines()
        assert lines[0] == "replication,axis_value,squared_error"
        assert len(lines) == 1 + 50 * 4
        write_csv_rows(tmp_path / "rows.csv", ["replication", "axis_value", "squared_error"],
                       ([rep, v, report.raw[rep, j]] for rep in range(50)
                        for j, v in enumerate(report.values)))
        assert (tmp_path / "rates_N_raw.csv").read_bytes() \
            == (tmp_path / "rows.csv").read_bytes()


class TestRunRateStudy:
    def test_axis_dispatch_smoke(self):
        cfg = ExperimentConfig(
            model="ou1d", seed=3, replications=50,
            filter=FilterSettings(mc_samples=512),
            sweep=SweepSettings(values=(8, 16, 32, 64)))
        report = run_rate_study("M", cfg)
        assert report.axis == "M"
        assert report.slope == pytest.approx(-1.0, abs=0.3)
        cfg_l = replace(cfg, sweep=SweepSettings(values=(100, 200, 400, 800)))
        report_l = run_rate_study("L", cfg_l)
        assert report_l.axis == "L"
        assert report_l.theory_slope == pytest.approx(-0.8)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            run_rate_study("Q", ExperimentConfig())

    def test_slope_recomputable_from_raw_data(self):
        cfg = ExperimentConfig(model="ou1d", seed=7, replications=60,
                               sweep=SweepSettings(values=(8, 16, 32, 64)))
        report = run_rate_study("M", cfg)
        refit = fit_loglog_slope(report.values, report.raw.mean(axis=0))
        assert refit.slope == pytest.approx(report.slope, rel=1e-12)

    @pytest.mark.parametrize("study, kwargs, message", [
        (kde_rate_study, {"replications": 10}, "replications >= 50"),
        (dt_rate_study, {"step_sizes": (0.1, 0.05, 0.025)}, "4 points"),
        (kde_rate_study, {"dim": 2.5}, "dim must be an integer"),
        (kde_rate_study, {"dim": True}, "dim must be an integer"),
        (kde_rate_study, {"dim": 0}, "dim must be >= 1"),
        (dt_rate_study, {"step_sizes": (-0.1, 0.025, 0.05, 0.1)},
         "sweep values must be finite and positive, got -0.1"),
        (dt_rate_study, {"step_sizes": (0.0, 0.025, 0.05, 0.1)},
         "sweep values must be finite and positive, got 0"),
        # 0.3 would run its column to t = 0.9, and 3.0 to no step at all
        (dt_rate_study, {"step_sizes": (0.05, 0.1, 0.2, 0.3)},
         "dt sweep step 0.3 does not divide the horizon 1"),
        (dt_rate_study, {"step_sizes": (0.1, 0.2, 0.5, 3.0)},
         "dt sweep step 3 does not divide the horizon 1"),
        (dt_rate_study, {"step_sizes": (0.1, 0.05, math.nan, 0.0125)},
         "sweep values must be finite and positive, got nan"),
        (kde_rate_study, {"dim": 3}, "kernel-rate study supports dim <= 2"),
        # a zero step gives zero errors, which no log-log fit can take
        (prediction_rate_study, {"dt": 0.0}, "^dt must be finite and positive, got 0$"),
        (prediction_rate_study, {"dt": math.nan}, "^dt must be finite and positive, got nan$"),
        # refused as dt, not as the horizon of the one-step grid it builds
        (denominator_rate_study, {"dt": math.nan},
         "^dt must be finite and positive, got nan$"),
        (denominator_rate_study, {"dt": -1.0}, "^dt must be finite and positive, got -1$"),
        (dt_rate_study, {"horizon": math.inf},
         "^horizon must be finite and positive, got inf$"),
        (dt_rate_study, {"horizon": math.nan},
         "^horizon must be finite and positive, got nan$"),
    ], ids=["replications", "grid", "fractional_dim", "bool_dim", "zero_dim",
            "negative_step", "zero_step", "step_short_of_horizon", "step_past_horizon",
            "nan_step", "dim_3", "prediction_zero_dt", "prediction_nan_dt",
            "denominator_nan_dt", "denominator_negative_dt", "dt_inf_horizon",
            "dt_nan_horizon"])
    def test_study_refuses_before_its_first_job(self, monkeypatch, study, kwargs,
                                                message):
        def no_jobs(jobs, workers):
            raise AssertionError("a job ran before the study was checked")
        monkeypatch.setattr("fbsdefilter.harness._run_jobs", no_jobs)
        with pytest.raises(ConfigurationError, match=message):
            study(**kwargs)


class TestRecurrenceDiagnostic:
    def test_constant_likelihood_reduces_to_closed_form(self):
        model = make_model_1d(drift=lambda x: -0.5 * np.asarray(x, dtype=float),
                              divergence=lambda x: np.full(np.asarray(x).shape[:-1], -0.5),
                              obs_map=lambda x: 0.0 * np.asarray(x, dtype=float))
        grid = TimeGrid.uniform(horizon=1.0, steps=5)
        _truth, obs = simulate_truth(model, grid, seed=4)
        diag = estimate_recurrence_coefficient(model, grid, obs, seed=4,
                                               n_samples=5000, n_backward=256)
        assert max(diag.per_step_ratios) == pytest.approx(1.0, rel=1e-12)
        assert diag.r_hat == pytest.approx(2.0 * math.sqrt(1.0 + 0.25), rel=1e-12)

    def test_zero_drift_constant_likelihood_gives_two(self):
        model = make_model_1d(drift=lambda x: 0.0 * np.asarray(x, dtype=float),
                              divergence=lambda x: np.zeros(np.asarray(x).shape[:-1]),
                              obs_map=lambda x: 0.0 * np.asarray(x, dtype=float))
        grid = TimeGrid.uniform(horizon=1.0, steps=3)
        _truth, obs = simulate_truth(model, grid, seed=5)
        diag = estimate_recurrence_coefficient(model, grid, obs, seed=5,
                                               n_samples=2000, n_backward=128)
        assert diag.r_hat == pytest.approx(2.0, rel=1e-12)
        assert diag.g_hat == 0.0

    def test_reproducible_across_seeds(self):
        model = get_model("linear1d")
        grid = TimeGrid.uniform(horizon=1.0, steps=5)
        _truth, obs = simulate_truth(model, grid, seed=6)
        d1 = estimate_recurrence_coefficient(model, grid, obs, seed=101,
                                             n_samples=100_000)
        d2 = estimate_recurrence_coefficient(model, grid, obs, seed=202,
                                             n_samples=100_000)
        assert abs(d1.r_hat - d2.r_hat) / d1.r_hat < 0.05

    def test_underflow_reports_only_the_steps_computed(self):
        # an observation increment of 1e4 makes every likelihood at step 3
        # underflow; that stops the estimate, naming the step, as an
        # underflow stops the filter's own update
        model = get_model("linear1d")
        grid = TimeGrid.uniform(horizon=1.0, steps=5)
        _truth, obs = simulate_truth(model, grid, seed=7)
        jumped = obs.copy()
        jumped[3:] += 1e4
        with pytest.raises(DegenerateObservationError,
                           match="^forward likelihood mean underflowed at step 3$"):
            estimate_recurrence_coefficient(model, grid, jumped, seed=7,
                                            n_samples=2000, n_backward=128)

    def test_batched_probes_equal_the_per_probe_loop(self):
        # the 5 d reverse-sample probes are one batched call; on a 2-d model
        # (10 probes) every ratio keeps the bits of a loop that steps, draws
        # and averages one probe at a time
        model = get_model("linear2d")
        grid = TimeGrid.uniform(horizon=1.0, steps=4)
        _truth, obs = simulate_truth(model, grid, seed=8)
        seed, n_samples, n_backward = 8, 3000, 256
        states = model.initial_sampler(n_samples, substream(seed, "recur-init"))
        g_hat = float(np.max(np.abs(model.drift_divergence(states))))
        ratios = []
        for k in range(1, grid.steps + 1):
            dt = grid.dt(k)
            noise = math.sqrt(dt) * substream(seed, "recur-fwd", k).standard_normal(
                (n_samples, model.dim_noise))
            states = euler_step(model, grid.time(k - 1), states, dt, noise)
            g_hat = max(g_hat, float(np.max(np.abs(model.drift_divergence(states)))))
            lik = Likelihood(obs[k - 1], obs[k], dt, model.obs_map,
                             model.obs_noise(grid.time(k)))
            denom = float(np.mean(likelihood_density(lik, states)))
            mean_k, std_k = states.mean(axis=0), states.std(axis=0)
            best, probe_id = -math.inf, 0
            for axis in range(model.dim_state):
                for shift in (-2.0, -1.0, 0.0, 1.0, 2.0):
                    probe = mean_k.copy()
                    probe[axis] += shift * std_k[axis]
                    rng = substream(seed, "recur-bwd", k, probe_id)
                    probe_id += 1
                    dW = math.sqrt(dt) * rng.standard_normal((n_backward, model.dim_noise))
                    back = backward_sample(model, grid.time(k), probe, dt, dW)
                    best = max(best, float(np.mean(likelihood_density(lik, back))))
            ratios.append(best / denom)
        diag = estimate_recurrence_coefficient(model, grid, obs, seed=seed,
                                               n_samples=n_samples, n_backward=n_backward)
        assert diag.per_step_ratios.tobytes() == np.array(ratios).tobytes()
        assert diag.g_hat == g_hat
        assert diag.r_hat == 2.0 * math.sqrt(1.0 + grid.horizon ** 2 * g_hat ** 2) \
            * max(ratios)

    def test_overflowing_drift_raises_blow_up(self):
        # an overflowing forward step must stop the diagnostic, not leave
        # infinite states behind that read as a contraction certificate
        model = make_model_1d(drift=lambda x: 1e3 * np.asarray(x) ** 5)
        grid = TimeGrid.uniform(horizon=1.0, steps=5)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ModelBlowUpError, match="non-finite state"):
            estimate_recurrence_coefficient(model, grid, np.zeros((6, 1)),
                                            n_samples=2000)


class TestExperimentConfig:
    def test_unknown_fields_rejected_with_location(self):
        with pytest.raises(ConfigurationError, match="root"):
            config_from_dict({"mystery": 1})
        with pytest.raises(ConfigurationError, match="section 'filter'"):
            config_from_dict({"filter": {"particles": 10}})

    @pytest.mark.parametrize("section", [5, [["steps", 3]]], ids=["number", "pairs"])
    def test_section_that_is_not_an_object_rejected(self, section):
        # a list of pairs is not read as a mapping, and a number is no TypeError
        with pytest.raises(ConfigurationError, match="section 'grid' must be an object"):
            config_from_dict({"grid": section})

    @pytest.mark.parametrize("section", ["grid", "filter", "sweep"])
    def test_every_section_refuses_a_non_object_and_an_unknown_field(self, section):
        with pytest.raises(ConfigurationError,
                           match=f"^section '{section}' must be an object, got int$"):
            config_from_dict({section: 5})
        with pytest.raises(ConfigurationError,
                           match=f"^unknown field 'mystery' in section '{section}'$"):
            config_from_dict({section: {"mystery": 1}})

    @pytest.mark.parametrize("data, message", [
        ({"replications": "2"}, "field 'replications' at config root must be an integer"),
        ({"sweep": {"values": 5}},
         "field 'values' in section 'sweep' must be a list of numbers"),
        ({"filter": {"n_particles": "400"}},
         "field 'n_particles' in section 'filter' must be an integer"),
        ({"grid": {"steps": 2.5}}, "field 'steps' in section 'grid' must be an integer"),
        ({"threads": True}, "field 'threads' at config root must be an integer"),
    ], ids=["string_replications", "number_sweep_values", "string_particle_count",
            "fractional_grid_steps", "bool_threads"])
    def test_wrong_typed_value_rejected_with_location(self, data, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict(data)

    def test_integer_accepted_where_a_number_is_expected(self):
        cfg = config_from_dict({"grid": {"horizon": 2},
                                "sweep": {"values": [1, 2.5, 4, 8]}})
        assert cfg.grid.horizon == 2 and list(cfg.sweep.values) == [1, 2.5, 4, 8]

    def test_round_trip_through_json(self, tmp_path):
        cfg = ExperimentConfig(model="ou1d", seed=9,
                               grid=GridSettings(horizon=0.5, steps=5),
                               filter=FilterSettings(n_particles=100))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        back = load_config(path)
        assert back.model == "ou1d"
        assert back.grid.steps == 5
        assert back.filter.n_particles == 100

    def test_malformed_json_is_a_configuration_error_naming_its_place(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "model": "linear1d",\n  broken\n}\n')
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(str(path))}:3:3: invalid config: "):
            load_config(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_refused_naming_the_file(self, tmp_path, token):
        # json reads these tokens by default, though JSON has no such numbers
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"sweep": {{"values": [1, 2, 3, {token}]}}}}')
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: invalid "
                                                     f"config: {token} is not a JSON number$"):
            load_config(path)

    def test_sweep_grid_is_checked_when_the_config_is_built(self):
        for values, message in (((1, 2, 4), "needs >= 4 points"),
                                ((1, 2, 2, 4), "all distinct"),
                                ((1, 2, 4, math.inf), "finite and positive, got inf")):
            with pytest.raises(ConfigurationError, match=message):
                ExperimentConfig(sweep=SweepSettings(values=values))
        # unsorted is fine: each study sorts its grid
        ExperimentConfig(sweep=SweepSettings(values=(64, 16, 256, 1024)))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(replications=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(sweep=SweepSettings(values=(0, 1)))


class TestRunExperiment:
    def _smoke_cfg(self, tmp_path, **kwargs):
        defaults = dict(
            model="linear1d", seed=21, out_dir=str(tmp_path / "out"),
            grid=GridSettings(horizon=0.5, steps=5),
            filter=FilterSettings(n_particles=200, mc_samples=16, n_kernels=16,
                                  sgd_steps=500),
            replications=1, threads=1)
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("name", list(MODEL_ZOO))
    def test_every_zoo_model_runs_end_to_end_on_its_defaults(self, tmp_path, name):
        # the documented defaults, one replication; the right point, which
        # must be named, aborts doublewell1d at step 2
        out = tmp_path / name
        assert run_experiment(ExperimentConfig(model=name, out_dir=str(out))) == \
            out / "errors_vs_oracle.csv"
        assert len((out / "errors_vs_oracle.csv").read_text().splitlines()) > 1

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_smoke_run_completes_quickly_with_expected_artifacts(self, tmp_path):
        cfg = self._smoke_cfg(tmp_path)
        start = time.monotonic()
        error_path = run_experiment(cfg)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        assert error_path == Path(cfg.out_dir) / "errors_vs_oracle.csv"
        rep_dir = Path(cfg.out_dir) / "rep_000"
        summary = (rep_dir / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("k,t,truth_x0,obs_o0,post_mean_x0")
        assert len(summary) == 7

        def refuse(token):
            raise ValueError(f"{token} is not JSON")
        for k in range(6):
            assert (rep_dir / f"kd_step_{k:04d}.txt").exists() == (k > 0)
            assert (rep_dir / f"particles_step_{k:04d}.csv").exists()
            diag = json.loads((rep_dir / f"diagnostics_step_{k:04d}.json").read_text(),
                              parse_constant=refuse)
            assert set(diag) == {"k", "denominator", "acceptance_rate",
                                 "negative_mass_fraction", "kd_mass"}
        assert diag["kd_mass"] > 0
        assert json.loads((rep_dir / "diagnostics_step_0000.json").read_text())["kd_mass"] \
            is None

    def _summary_and_states(self, tmp_path, monkeypatch):
        """Replication 0's summary.csv header and named columns, and its states."""
        states = []

        def recording_run_filter(*args, **kwargs):
            states.extend(run_filter(*args, **kwargs))
            return states
        monkeypatch.setattr(harness, "run_filter", recording_run_filter)
        cfg = self._smoke_cfg(tmp_path)
        run_experiment(cfg)
        lines = (Path(cfg.out_dir) / "rep_000" / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        return header, {name: [float(line.split(",")[i]) for line in lines[1:]]
                        for i, name in enumerate(header)}, states

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_summary_ends_with_the_step_records_fields_in_order(self, tmp_path, monkeypatch):
        header, columns, states = self._summary_and_states(tmp_path, monkeypatch)
        step_fields = [f.name for record in (StepDiagnostics, LossReport)
                       for f in fields(record)]
        assert header[-len(step_fields):] == step_fields
        # the columns written before the records drove the writer keep their order
        assert step_fields[:4] == ["kd_mass", "acceptance_rate", "denominator",
                                   "negative_mass_fraction"]
        for name in step_fields[:len(fields(StepDiagnostics))]:
            np.testing.assert_array_equal(
                columns[name], [getattr(s.diagnostics, name) for s in states])

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_summary_fit_columns_are_each_steps_loss_report(self, tmp_path, monkeypatch):
        _header, columns, states = self._summary_and_states(tmp_path, monkeypatch)
        assert states[0].fit is None and len(states) == 6
        for f in fields(LossReport):
            assert math.isnan(columns[f.name][0])
            assert columns[f.name][1:] == [getattr(s.fit, f.name) for s in states[1:]]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_error_table_has_the_bytes_of_the_per_step_median_loop(self, tmp_path):
        # the oracle error table, recomputed from the replications' summary
        # columns one step at a time and written by the row writer
        cfg = self._smoke_cfg(tmp_path, model="doublewell1d", replications=3,
                              filter=FilterSettings(n_particles=200, mc_samples=16,
                                                    n_kernels=16, sgd_steps=500,
                                                    variant="left_point"))
        run_experiment(cfg)
        summaries = []
        for rep in range(3):
            lines = (Path(cfg.out_dir) / f"rep_{rep:03d}" / "summary.csv").read_text() \
                .splitlines()
            header = lines[0].split(",")
            summaries.append({name: np.array([float(line.split(",")[i]) for line in lines[1:]])
                              for i, name in enumerate(header)})
        rows = []
        for k in range(6):
            fbsde_err = np.array([abs(r["post_mean_x0"][k] - r["oracle_mean_x0"][k])
                                  for r in summaries])
            pf_err = np.array([abs(r["pf_mean_x0"][k] - r["oracle_mean_x0"][k])
                               for r in summaries])
            scale = np.array([r["oracle_std_x0"][k] for r in summaries])
            rows.append([k, float(np.median(fbsde_err)), float(np.median(pf_err)),
                         float(np.median(fbsde_err / np.maximum(scale, 1e-300)))])
        write_csv_rows(tmp_path / "rows.csv",
                       ["k", "fbsde_abs_err_median", "pf_abs_err_median",
                        "fbsde_err_over_oracle_std_median"], rows)
        assert (Path(cfg.out_dir) / "errors_vs_oracle.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = self._smoke_cfg(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = self._smoke_cfg(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        files_a = sorted(p for p in Path(cfg_a.out_dir).rglob("*") if p.is_file()
                         and p.name != "config.json")
        files_b = sorted(p for p in Path(cfg_b.out_dir).rglob("*") if p.is_file()
                         and p.name != "config.json")
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_pooled_jobs_run_in_worker_processes():
    caller = os.getpid()
    pooled = _run_jobs([os.getpid] * 2, 2)
    assert len(pooled) == 2 and caller not in pooled
    assert _run_jobs([os.getpid] * 2, 1) == [caller, caller]


def _warning_job(text: str, delay: float):
    def job():
        time.sleep(delay)
        warnings.warn(text, UserWarning)
        return text
    return job


def test_pooled_job_warnings_reach_the_caller():
    # job 0 finishes last, so completion order would put its warning second
    jobs = [_warning_job("first job's warning", 0.3), _warning_job("second job's warning", 0.0)]
    with pytest.warns(UserWarning) as record:
        assert _run_jobs(jobs, 2) == ["first job's warning", "second job's warning"]
    assert [str(w.message) for w in record] == ["first job's warning",
                                                "second job's warning"]
    # a filter on the emitting module applies as it would in this process
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", module=__name__)
        _run_jobs(jobs, 2)
    assert caught == []


@pytest.fixture
def steep_decay_model():
    """A registered model whose divergence -40 scales each right-point iterate
    by 40 dt; it is not linear, so the first prediction step refuses it."""
    register_model("steep-decay", lambda: make_model_1d(
        drift=lambda x: -40.0 * np.asarray(x, dtype=float),
        divergence=lambda x: np.full(np.asarray(x).shape[:-1], -40.0)))
    yield "steep-decay"
    MODEL_ZOO.pop("steep-decay")


def test_pooled_job_error_is_raised_as_in_a_serial_run(tmp_path, steep_decay_model):
    messages = []
    for threads in (1, 2):
        cfg = ExperimentConfig(
            model=steep_decay_model, seed=3, out_dir=str(tmp_path / f"threads{threads}"),
            grid=GridSettings(horizon=0.5, steps=3),
            filter=FilterSettings(n_particles=100, mc_samples=8, n_kernels=8,
                                  sgd_steps=200, variant="right_point_fixed_point"),
            replications=2, threads=threads)
        with pytest.raises(ContractionError) as info:
            run_experiment(cfg)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0] == ("replication 0: step 1: fixed-point iteration diverged "
                           "(|divergence * dt| >= 1) at particle ids "
                           "[0, 1, 2, 3, 4, 5, 6, 7]; reduce the step size")
    # every replication ran to its failure under either worker count
    files = [sorted(p.relative_to(tmp_path / f"threads{threads}").as_posix()
                    for p in (tmp_path / f"threads{threads}").rglob("*"))
             for threads in (1, 2)]
    assert files[0] == files[1]
    assert "rep_001/particles_step_0000.csv" in files[0]

    def failing(text):
        def job():
            raise ConfigurationError(text)
        return job
    with pytest.raises(ConfigurationError, match="^job 1$"):
        _run_jobs([lambda: 0, failing("job 1"), failing("job 2")], 2)


@pytest.fixture
def nan_initial_model():
    """linear1d with an initial density that reads NaN: every replication
    fails when its starting cloud is built."""
    register_model("nan-initial", lambda: replace(
        get_model("linear1d"),
        initial_density=lambda x: np.full(np.asarray(x).shape[:-1], np.nan)))
    yield "nan-initial"
    MODEL_ZOO.pop("nan-initial")


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_replication_is_named_in_the_error(tmp_path, capsys, nan_initial_model,
                                                  threads):
    cfg = ExperimentConfig(
        model=nan_initial_model, seed=3, out_dir=str(tmp_path / "run"),
        grid=GridSettings(horizon=0.5, steps=3),
        filter=FilterSettings(n_particles=100, mc_samples=8, n_kernels=8, sgd_steps=200),
        replications=2, threads=threads)
    with pytest.raises(ConfigurationError,
                       match="^replication 0: particle values must be finite$"):
        run_experiment(cfg)
    assert cli_main(["filter", "--model", nan_initial_model, "--replications", "2",
                     "--threads", str(threads), "--out", str(tmp_path / "cli")]) == 2
    assert "error: replication 0: particle values must be finite" \
        in capsys.readouterr().err


class TestCli:
    def test_names_come_from_their_registries(self, capsys):
        # --model's help lists a model registered after import, and --axis
        # offers exactly the study axes
        register_model("customwalk", lambda: get_model("ou1d"))
        try:
            names = ", ".join(sorted(MODEL_ZOO))
            with pytest.raises(SystemExit):
                cli_main(["rates", "--help"])
        finally:
            MODEL_ZOO.pop("customwalk")
        text = " ".join(capsys.readouterr().out.split())
        assert "customwalk" in names and f"zoo model name ({names})" in text
        assert f"--axis {{{','.join(AXES)}}}" in text

    def test_simulate_and_rates_and_diagnose(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        assert cli_main(["simulate", "--model", "ou1d", "--seed", "2",
                         "--out", out]) == 0
        truth_lines = (Path(out) / "truth.csv").read_text().splitlines()
        assert truth_lines[0] == "k,t,x0"
        assert len(truth_lines) == 12

        rates_out = str(tmp_path / "rates")
        assert cli_main(["rates", "--axis", "dt", "--model", "ou1d", "--seed", "0",
                        "--replications", "500", "--out", rates_out]) == 0
        payload = json.loads((Path(rates_out) / "rates_dt.json").read_text())
        assert payload["slope"] >= 0.5

        diag_out = str(tmp_path / "diag")
        assert cli_main(["diagnose", "--model", "linear1d", "--seed", "1",
                         "--out", diag_out]) == 0
        payload = json.loads((Path(diag_out) / "recurrence.json").read_text())
        assert payload["g_hat"] == pytest.approx(0.5)
        assert set(payload) == {"model", "r_hat", "g_hat", "per_step_ratios"}
        assert capsys.readouterr().out.splitlines()[-1] \
            == f"recurrence estimate {payload['r_hat']:.4f}"

    def test_corrupt_config_exits_nonzero_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "model": "linear1d",\n  broken\n}\n')
        code = cli_main(["filter", "--config", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:3" in err
        assert err.startswith(f"error: {bad}:3:3: invalid config: ")

    @pytest.mark.parametrize("command", [["simulate"], ["filter"], ["rates", "--axis", "dt"],
                                         ["diagnose"]], ids=lambda c: c[0])
    def test_every_command_refuses_a_bad_filter_section_before_any_output(
            self, tmp_path, capsys, command):
        bad = tmp_path / "bogus.json"
        bad.write_text('{"filter": {"variant": "bogus", "n_kernels": 5000}}')
        out = tmp_path / "out"
        assert cli_main([*command, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: variant must be one of")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["simulate", "--threads", "2"],
                                      ["diagnose", "--replications", "2"]],
                             ids=["simulate_threads", "diagnose_replications"])
    def test_commands_that_run_no_jobs_refuse_job_flags(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli_main([*argv, "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "out_is_a_file"])
    def test_unreadable_config_or_output_path_exits_naming_it(self, tmp_path, capsys,
                                                              case):
        path = tmp_path / "config.json"
        argv = ["filter", "--config", str(path), "--out", str(tmp_path / "out")]
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b'{"model": "\xff"}')
        elif case == "out_is_a_file":
            path.write_text("taken")
            argv = ["simulate", "--model", "ou1d", "--out", str(path)]
        before = sorted(tmp_path.rglob("*"))
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert str(path) in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
        if case == "out_is_a_file":
            assert path.read_text() == "taken"

    def test_rates_on_model_without_initial_moments_exits_nonzero(self, tmp_path,
                                                                   capsys):
        assert cli_main(["rates", "--axis", "N", "--model", "doublewell1d",
                         "--replications", "50", "--out", str(tmp_path)]) == 2
        assert "error: denominator study needs initial-law moments" \
            in capsys.readouterr().err

    def test_unknown_field_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad2.json"
        for text, message in (
                ('{"modle": "linear1d"}', "unknown field 'modle' at config root"),
                ('{"sweep": {"axis": "M", "values": [16, 64, 256, 1024]}}',
                 "unknown field 'axis' in section 'sweep'")):
            bad.write_text(text)
            assert cli_main(["filter", "--config", str(bad)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"grid": 5}', '{"grid": [["steps", 3]]}'],
                             ids=["number", "pairs"])
    def test_section_that_is_not_an_object_exits_nonzero(self, tmp_path, capsys, text):
        bad = tmp_path / "bad3.json"
        bad.write_text(text)
        out = tmp_path / "out"
        assert cli_main(["filter", "--config", str(bad), "--out", str(out)]) == 2
        assert "error: section 'grid' must be an object" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_typed_value_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad4.json"
        bad.write_text('{"filter": {"n_particles": "400"}}')
        out = tmp_path / "out"
        assert cli_main(["filter", "--config", str(bad), "--out", str(out)]) == 2
        assert ("error: field 'n_particles' in section 'filter' must be an integer"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"filter": {"variant": "bogus"}}', "variant must be one of"),
        ('{"filter": {"n_kernels": 500}}', "need 1 <= n_kernels <= n_particles"),
        ('{"grid": {"steps": 0}}', "steps must be >= 1"),
        # linear1d's divergence bound 0.5 times dt = 10 breaks the right-point
        # recursion's step bound
        ('{"grid": {"horizon": 20.0, "steps": 2},'
         ' "filter": {"variant": "right_point_fixed_point"}}',
         "dt * divergence bound = 5 >= 0.5"),
    ], ids=["variant", "n_kernels", "steps", "step_bound"])
    def test_bad_filter_settings_exit_before_any_output(self, tmp_path, capsys, text,
                                                        message):
        bad = tmp_path / "bad5.json"
        bad.write_text(text)
        out = tmp_path / "out"
        assert cli_main(["filter", "--config", str(bad), "--replications", "2",
                         "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_model_with_a_wrong_divergence_exits_before_any_output(self, tmp_path,
                                                                   capsys):
        register_model("wrong-divergence", lambda: make_model_1d(
            drift=lambda x: -np.asarray(x, dtype=float),
            divergence=lambda x: np.full(np.asarray(x).shape[:-1], 2.0)))
        out = tmp_path / "out"
        try:
            assert cli_main(["filter", "--model", "wrong-divergence",
                             "--replications", "2", "--out", str(out)]) == 2
        finally:
            MODEL_ZOO.pop("wrong-divergence")
        assert "error: drift_divergence disagrees with finite differences" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_rates_below_replication_floor_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "rates"
        assert cli_main(["rates", "--axis", "N", "--model", "ou1d",
                         "--replications", "10", "--out", str(out)]) == 2
        assert "replications >= 50" in capsys.readouterr().err
        assert not (out / "rates_N.json").exists()

    def test_rates_kernel_axis_runs_at_default_inner_sample_count(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text('{"sweep": {"values": [50, 100, 200, 400]}}')
        out = tmp_path / "rates"
        assert cli_main(["rates", "--axis", "L", "--config", str(cfg),
                         "--replications", "50", "--out", str(out)]) == 0
        payload = json.loads((out / "rates_L.json").read_text())
        assert payload["values"] == [50, 100, 200, 400]

    def test_rates_refuses_short_grid_before_any_study(self, tmp_path, capsys,
                                                       monkeypatch):
        def study(*args, **kwargs):
            raise AssertionError("study ran before the grid was checked")
        monkeypatch.setattr("fbsdefilter.harness.denominator_rate_study", study)
        cfg = tmp_path / "sweep.json"
        cfg.write_text('{"sweep": {"values": [100000, 200000, 400000]}}')
        out = tmp_path / "rates"
        assert cli_main(["rates", "--axis", "N", "--config", str(cfg),
                         "--replications", "50", "--out", str(out)]) == 2
        assert "sweep grid needs >= 4 points, all distinct; got 100000, 200000, 400000" \
            in capsys.readouterr().err
        assert not (out / "rates_N.json").exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["--axis", "M"], '{"sweep": {"values": [64, 16, 256]}}',
         "sweep grid needs >= 4 points, all distinct; got 64, 16, 256"),
        (["--axis", "N"], '{"sweep": {"values": [100, 0, 1000, 10000]}}',
         "sweep values must be finite and positive, got 0"),
        (["--axis", "M"], '{"sweep": {"values": [16, 64.5, 256, 1024]}}',
         "M sweep value must be an integer, got 64.5"),
        (["--axis", "dt"], '{"sweep": {"values": [0.05, 0.1, 0.2, 0.3]}}',
         "dt sweep step 0.3 does not divide the horizon 1"),
        (["--axis", "L", "--model", "linear4d"], "{}",
         "kernel-rate study supports dim <= 2"),
        (["--axis", "N", "--out", "taken"], "{}",
         "cannot make output directory 'taken': 'taken' is not a directory"),
        (["--axis", "N", "--out", "taken/sub"], "{}",
         "cannot make output directory 'taken/sub': 'taken' is not a directory"),
        (["--axis", "N"], '{"sweep": {"values": [100, 1000, 10000, NaN]}}',
         "invalid config: NaN is not a JSON number"),
        (["--axis", "dt"], '{"grid": {"horizon": Infinity}}',
         "invalid config: Infinity is not a JSON number"),
    ], ids=["short_unsorted", "zero", "fractional_count", "step_short_of_horizon",
            "L_on_linear4d", "out_is_a_file", "out_under_a_file", "nan", "infinity"])
    def test_rates_refuses_before_any_job_or_file(self, tmp_path, capsys, monkeypatch,
                                                  argv, config, message):
        def no_jobs(jobs, workers):
            raise AssertionError("a job ran before the study was checked")
        monkeypatch.setattr("fbsdefilter.harness._run_jobs", no_jobs)
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(config)
        Path("taken").write_text("a file")
        before = sorted(tmp_path.rglob("*"))
        assert cli_main(["rates", "--config", "cfg.json", "--replications", "50",
                         "--out", "out", *argv]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err
        assert sorted(tmp_path.rglob("*")) == before
        assert Path("taken").read_text() == "a file"

    def test_rates_sorts_a_config_grid(self, tmp_path):
        written = []
        for values in ([64, 16, 256, 1024], [16, 64, 256, 1024]):
            cfg, out = tmp_path / "cfg.json", tmp_path / "_".join(map(str, values))
            cfg.write_text(json.dumps({"sweep": {"values": values}}))
            assert cli_main(["rates", "--axis", "M", "--model", "ou1d", "--config",
                             str(cfg), "--replications", "50", "--out", str(out)]) == 0
            written.append([(out / name).read_bytes()
                            for name in ("rates_M.json", "rates_M_raw.csv")])
        assert written[0] == written[1]

    def test_rates_sweep_values_apply_to_the_axis_run(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text('{"sweep": {"values": [50, 100, 200, 400]}}')
        out = tmp_path / "rates"
        assert cli_main(["rates", "--axis", "N", "--config", str(cfg),
                         "--replications", "50", "--out", str(out)]) == 0
        payload = json.loads((out / "rates_N.json").read_text())
        assert payload["values"] == [50, 100, 200, 400]
        assert payload["replications"] == 50
