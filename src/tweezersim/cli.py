"""Command-line entry points: ``simulate`` runs an ensemble and writes the
per-cycle statistics, ``calibrate`` fits the reservoir depletion parameter
to a delivered-atom target.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys

from .config import ConfigError, ExperimentConfig, load_config
from .harness import (
    CalibrationError,
    calibrate_depletion,
    run_experiment,
    stream_events,
    write_outputs,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweezersim",
        description="Monte Carlo simulator for reservoir-based loading of "
        "single-atom tweezer arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an ensemble and report per-cycle statistics")
    sim.add_argument("--config", metavar="PATH", help="INI config file (defaults used if omitted)")
    # each override's dest is the ExperimentConfig field it sets
    sim.add_argument("--replicas", dest="n_replicas", metavar="N", type=int, help="override run.n_replicas")
    sim.add_argument("--cycles", dest="n_cycles", metavar="N", type=int, help="override run.n_cycles")
    sim.add_argument("--seed", dest="master_seed", metavar="S", type=int, help="override run.master_seed")
    sim.add_argument(
        "--out", metavar="DIR",
        help="write fig4.csv, events.csv and run_meta.json here; "
        "without it the statistics table goes to stdout only",
    )
    sim.add_argument(
        "--success-def", dest="success_definition", choices=("first", "maintained"),
        help="success counting: first achievement (default) or maintained completion",
    )
    sim.add_argument(
        "--p-stay-on-failure", dest="p_stay_on_failure", metavar="P", type=float,
        help="override stochastic.p_stay_on_failure: chance that a failed move "
        "keeps its atom in the source trap (0 loses it, 1 keeps it)",
    )

    cal = sub.add_parser("calibrate", help="fit the extraction ensemble mean to a delivery target")
    cal.add_argument("--config", metavar="PATH", help="INI config file (defaults used if omitted)")
    cal.add_argument(
        "--target-delivered", metavar="X", type=float, default=10.0,
        help="mean atoms delivered per realization to aim for (default 10)",
    )
    cal.add_argument(
        "--tolerance", metavar="T", type=float, default=0.5,
        help="accepted deviation from the target (default 0.5)",
    )
    cal.add_argument(
        "--replicas", metavar="N", type=int, default=500,
        help="ensemble size per objective evaluation (default 500)",
    )
    return parser


def _load(args) -> ExperimentConfig:
    if args.config is not None:
        return load_config(args.config)
    return ExperimentConfig()


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(config)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return dataclasses.replace(config, **overrides) if overrides else config


def _print_table(config: ExperimentConfig, stats) -> None:
    print(
        f"{config.n_replicas} replicas x {config.n_cycles} cycles, "
        f"seed {config.master_seed}"
    )
    print("cycle  success  +-ci     buffer_fill  +-ci     reservoir  +-std")
    for k in range(len(stats.cycles)):
        print(
            f"{stats.cycles[k]:5d}  {stats.success_rate[k]:.4f}  {stats.success_ci[k]:.4f}"
            f"   {stats.buffer_fill_mean[k]:.4f}       {stats.buffer_fill_ci[k]:.4f}"
            f"   {stats.reservoir_norm[k]:.4f}     {stats.reservoir_std[k]:.4f}"
        )
    print(f"mean atoms delivered per realization: {stats.mean_delivered:.3f}")


def _run_simulate(args) -> int:
    config = _apply_overrides(_load(args), args)
    # with --out, events.csv is open before the first replica runs and is
    # written while the ensemble runs
    events = stream_events(args.out) if args.out is not None else contextlib.nullcontext()
    with events as log:
        stats, log = run_experiment(config, log=log)
        _print_table(config, stats)
        if args.out is not None:
            paths = write_outputs(stats, log, args.out, config)
            for name in ("fig4", "events", "run_meta"):
                print(f"wrote {paths[name]}")
    return 0


def _run_calibrate(args) -> int:
    config = _load(args)
    result = calibrate_depletion(
        config,
        target_delivered=args.target_delivered,
        tolerance=args.tolerance,
        n_replicas=args.replicas,
    )
    print(
        f"mean_ensemble_at_full = {result.mean_ensemble_at_full:.4f} "
        f"(delivered {result.achieved_delivered:.3f} vs target "
        f"{args.target_delivered}, {result.evaluations} evaluations)"
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_simulate(args)
        return _run_calibrate(args)
    except (ConfigError, CalibrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
