"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_bench.py

Covers each workload's timed and traced code paths, the traced run's
bit-identity checks and the JSON result line.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, tracing, workloads  # noqa: E402

TINY = {name: dataclasses.replace(w, n_particles=120, mc_samples=6, n_kernels=6,
                                  sgd_steps=150, steps=3)
        for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_checks_outputs_and_reports_every_metric(name, tmp_path):
    wl = TINY[name]
    timed = workloads.run_timed(wl, seed=3, seconds=0, work_dir=tmp_path, setup_s=0.5)
    assert len(timed.calls) == workloads.MIN_CALLS
    assert all(r.ok for r in timed.reps), [r.message for r in timed.reps]
    values = timed.metrics(wl)
    assert set(values) == set(run.metric_units("end_to_end"))
    assert all(v > 0 for v in values.values()), values
    assert len([v for c in timed.calls for v in c.latencies]) == \
        workloads.MIN_CALLS * wl.replications * wl.steps


def test_accuracy_panel_ignores_the_seed_and_later_calls_do_not():
    wl = TINY["wide-linear2d"]
    assert workloads.input_seed(wl, 1, 0, "obs") == workloads.input_seed(wl, 2, 0, "obs")
    assert workloads.input_seed(wl, 1, 1, "obs") != workloads.input_seed(wl, 2, 1, "obs")


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reproduces_the_untraced_run(name, tmp_path):
    wl = TINY[name]
    traced = tracing.run_traced(wl, seed=3, work_dir=tmp_path,
                                spans_path=tmp_path / "spans.npz")
    assert traced.valid, traced.problems
    assert traced.failed == 0
    assert set(traced.metrics) == set(run.metric_units("per_layer"))
    m = traced.metrics
    assert m["rngs.substream_calls"] > 3 * wl.n_particles * wl.steps
    assert m["kde.eval_calls"] > 0 and m["learn.sgd_fit_s"] > 0
    assert 0 < m["filtering.acceptance_rate"] <= 1
    if wl.entry == "run_experiment":
        assert m["harness.thread_speedup"] > 0 and m["filtering.checkpoint_bytes"] > 0
    spans = np.load(tmp_path / "spans.npz")
    assert spans["start"].size == spans["end"].size > m["rngs.substream_calls"]


def _states(wl, seed):
    inputs = workloads.prepare(wl, seed, 1)
    import fbsdefilter as fb
    return fb.run_filter(inputs.model, inputs.observations, wl.filter_config(inputs.seed))


def test_state_comparison_detects_a_one_bit_change():
    wl = TINY["wide-linear2d"]
    states = _states(wl, 5)
    assert tracing.states_identical(states, _states(wl, 5)) == ""
    changed = _states(wl, 5)
    values = changed[2].cloud.values
    values[7] = np.nextafter(values[7], np.inf)
    assert "values differ" in tracing.states_identical(states, changed)


def test_directory_comparison_detects_changed_and_missing_files(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "rep_000").mkdir(parents=True)
        (tmp_path / side / "rep_000" / "x.csv").write_text("1.0\n")
        (tmp_path / side / "config.json").write_text(side)
    a, b = tmp_path / "a", tmp_path / "b"
    assert tracing.dirs_identical(a, b, skip={"config.json"}) == ""
    assert "config.json" in tracing.dirs_identical(a, b)
    (b / "rep_000" / "x.csv").write_text("1.0000000000000002\n")
    assert "x.csv differs" in tracing.dirs_identical(a, b, skip={"config.json"})
    (b / "rep_000" / "x.csv").unlink()
    assert "file sets differ" in tracing.dirs_identical(a, b, skip={"config.json"})


def test_result_line_has_the_required_keys_and_flags_bad_metrics():
    units = {"a_s": "s", "b": "count"}
    line = json.loads(run.result_line(True, 4, 0, {"a_s": 1.25, "b": 3}, units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["metrics"]["a_s"] == {"value": 1.25, "unit": "s"}
    assert not json.loads(run.result_line(True, 4, 0, {"a_s": float("nan"), "b": 3},
                                          units))["correct"]
    assert not json.loads(run.result_line(True, 4, 0, {"a_s": 1.0}, units))["correct"]


def test_listed_workloads_are_defined():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    value, pct, count = workloads.tail_percentile([float(i) for i in range(1, 41)])
    assert (value, pct, count) == (30.0, 75.0, 40)


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-linear2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
