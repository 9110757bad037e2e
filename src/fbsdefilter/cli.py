"""Command-line entry points: simulate, filter, rates, diagnose."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .artifacts import coordinate_columns, write_csv, write_json
from .errors import ConfigurationError, FilterError
from .harness import AXES, ExperimentConfig, FilterSettings, \
    estimate_recurrence_coefficient, load_config, run_experiment, run_rate_study, save_report
from .model import MODEL_ZOO, get_model, simulate_truth


# Override flags and the config field each one sets.
_OVERRIDES = {"model": "model", "seed": "seed", "out": "out_dir",
              "replications": "replications", "threads": "threads"}


def _load_cfg(args) -> ExperimentConfig:
    """The config, or the defaults, overridden by each flag the command has and was given.

    An output directory that cannot be made, because the nearest part of its
    path that exists is not a directory, is refused here, before any work.
    """
    cfg = load_config(args.config) if args.config is not None else ExperimentConfig()
    cfg = replace(cfg, **{field: getattr(args, flag) for flag, field in _OVERRIDES.items()
                          if getattr(args, flag, None) is not None})
    out = Path(cfg.out_dir)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigurationError(f"cannot make output directory {str(out)!r}: "
                                 f"{str(existing)!r} is not a directory")
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    model = get_model(cfg.model)
    grid = cfg.grid.build()
    truth, obs = simulate_truth(model, grid, cfg.seed)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for path, name, series in ((out / "truth.csv", "x", truth), (out / "obs.csv", "o", obs)):
        write_csv(path, {"k": list(range(grid.steps + 1)), "t": grid.knots.tolist(),
                         **coordinate_columns(name, series)})
    print(f"wrote {out / 'truth.csv'} and {out / 'obs.csv'}")
    return 0


def _cmd_filter(args) -> int:
    cfg = _load_cfg(args)
    error_path = run_experiment(cfg)
    print(f"experiment artifacts under {Path(cfg.out_dir)}")
    if error_path is not None:
        print(f"oracle error table: {error_path}")
    return 0


def _cmd_rates(args) -> int:
    cfg = _load_cfg(args)
    report = run_rate_study(args.axis, cfg)
    save_report(report, cfg.out_dir)
    print(f"axis {report.axis}: fitted slope {report.slope:.4f} "
          f"(+- {report.slope_half_width:.4f}), theory {report.theory_slope:.4f}")
    if report.notes:
        print(report.notes)
    return 0


def _cmd_diagnose(args) -> int:
    cfg = _load_cfg(args)
    model = get_model(cfg.model)
    grid = cfg.grid.build()
    _truth, obs = simulate_truth(model, grid, cfg.seed)
    diag = estimate_recurrence_coefficient(model, grid, obs, seed=cfg.seed)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "recurrence.json", {"model": cfg.model, **asdict(diag)})
    print(f"recurrence estimate {diag.r_hat:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbsdefilter",
        description="Kernel-learning FBSDE filter experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, runs_jobs: bool):
        p.add_argument("--model", type=str, default=None,
                       help=f"zoo model name ({', '.join(sorted(MODEL_ZOO))})")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config mirroring the experiment fields")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        if runs_jobs:
            p.add_argument("--replications", type=int, default=None)
            p.add_argument("--threads", type=int, default=None,
                           help="worker processes for replications and sweep points "
                                "(1 runs them in this process)")

    p_sim = sub.add_parser("simulate", help="simulate a hidden path and observations")
    common(p_sim, runs_jobs=False)
    p_sim.set_defaults(func=_cmd_simulate)

    p_filter = sub.add_parser(
        "filter", help="run the filter and baselines",
        description=f"Run the filter and its baselines. The default of "
                    f"{FilterSettings.n_kernels} kernels is too few at dim 4: run "
                    f'linear4d with the config {{"filter": {{"n_kernels": 128}}}}.')
    common(p_filter, runs_jobs=True)
    p_filter.set_defaults(func=_cmd_filter)

    p_rates = sub.add_parser("rates", help="empirical convergence-rate study")
    common(p_rates, runs_jobs=True)
    p_rates.add_argument("--axis", choices=AXES, required=True)
    p_rates.set_defaults(func=_cmd_rates)

    p_diag = sub.add_parser("diagnose", help="recurrence-coefficient diagnostic")
    common(p_diag, runs_jobs=False)
    p_diag.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # an OSError here is an output path that cannot be written, such as one
    # without write permission; an --out that names a file and an unreadable
    # config are FilterErrors
    except (FilterError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
