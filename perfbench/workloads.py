"""The benchmark's four workloads: what each runs, how much engine work it
counts, and how its output is checked.

Every entry point is looked up on its module at call time (``harness.
run_experiment``, ``cli.main``), so the traced run's rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

from tweezersim import cli, harness
from tweezersim.config import ExperimentConfig, load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_INI = os.path.join(ROOT, "configs", "reference.ini")

# Acceptance bands of the reference operating point, (center, half-width).
FILL1 = (0.596, 0.015)
SUCC8 = (0.868, 0.05)
SUCC15 = (0.915, 0.05)
DELIVERED = (10.0, 0.5)

# calibrate_depletion's defaults, spelled out so the workload stays fixed.
CALIBRATION_TARGET = 10.0
CALIBRATION_TOLERANCE = 0.5
CALIBRATION_REPLICAS = 500

# Bands of the calibrate and steady_state workloads, (center, half-width).
# Over seeds 1-20, 42 and 601-610 the bisection always stopped at its sixth
# point, 13.1875; the steady-state bands are about six seed-to-seed
# standard deviations wide.
CALIBRATED_MEAN = (13.1875, 1.0)
CALIBRATION_EVALUATIONS = 6
STEADY_FILL = (0.949, 0.005)  # buffer fill, mean over all cycles
STEADY_RESERVOIR = (8.4, 2.0)  # normalized reservoir population, last cycle
STEADY_DELIVERED = (771.0, 40.0)


@dataclass(frozen=True)
class Outcome:
    """What the benchmark keeps of one workload execution."""

    digest: str  # sha256 of the statistics; identical runs give identical digests
    problems: tuple[str, ...]  # failed correctness checks; empty when correct
    replica_cycles: int  # replicas x engine cycles x objective evaluations
    artifacts: dict[str, str]  # sha256 of written files, for information only


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why each was chosen."""

    name: str
    config: Callable[[int], ExperimentConfig]  # seed -> config; set-up work
    execute: Callable[[ExperimentConfig, Any, str], Any]  # timed
    inspect: Callable[[ExperimentConfig, Any, Any, str], Outcome]  # untimed
    prepare: Callable[[ExperimentConfig, str], Any] = lambda config, workdir: None


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def stats_digest(stats: harness.ExperimentStats) -> str:
    return sha256_bytes(json.dumps(dataclasses.asdict(stats), sort_keys=True).encode())


def _outside(label: str, value: float, band: tuple[float, float]) -> list[str]:
    center, half = band
    if center - half <= value <= center + half:
        return []
    return [f"{label} {value:.4f} outside {center} +- {half}"]


def band_problems(stats: harness.ExperimentStats) -> list[str]:
    """Acceptance-band violations of a reference-point ensemble."""
    return (
        _outside("cycle-1 buffer fill", stats.buffer_fill_mean[0], FILL1)
        + _outside("cycle-8 success", stats.success_rate[7], SUCC8)
        + _outside("cycle-15 success", stats.success_rate[14], SUCC15)
        + _outside("mean delivered", stats.mean_delivered, DELIVERED)
    )


def calibration_problems(result: harness.CalibrationResult) -> list[str]:
    """Band violations of a calibration at the defaults."""
    problems = _outside("calibrated ensemble mean", result.mean_ensemble_at_full, CALIBRATED_MEAN)
    problems += _outside(
        "calibration delivered", result.achieved_delivered,
        (CALIBRATION_TARGET, CALIBRATION_TOLERANCE),
    )
    if result.evaluations != CALIBRATION_EVALUATIONS:
        problems.append(
            f"calibration took {result.evaluations} evaluations, expected {CALIBRATION_EVALUATIONS}"
        )
    return problems


def steady_problems(stats: harness.ExperimentStats, n_cycles: int) -> list[str]:
    """Violations of a steady_state ensemble: the reservoir-refill path
    keeps the reservoir, the buffers and the deliveries up."""
    rates = stats.success_rate
    problems = []
    if len(rates) != n_cycles:
        problems.append(f"{len(rates)} reported cycles, expected {n_cycles}")
    if any(later < earlier for earlier, later in zip(rates, rates[1:])):
        problems.append("success curve is not monotone")
    fill = sum(stats.buffer_fill_mean) / len(stats.buffer_fill_mean)
    return (
        problems
        + _outside("mean buffer fill", fill, STEADY_FILL)
        + _outside("last-cycle reservoir", stats.reservoir_norm[-1], STEADY_RESERVOIR)
        + _outside("mean delivered", stats.mean_delivered, STEADY_DELIVERED)
    )


def _engine_cycles(config: ExperimentConfig) -> int:
    # one extra engine cycle reads out the last reported one
    return config.n_cycles + 1


def _write_artifacts(stats, config, out_dir) -> dict[str, str]:
    paths = harness.write_outputs(stats, None, out_dir, config)
    return {os.path.basename(p): sha256_file(p) for p in paths.values()}


def _run_ensemble(config, context, out_dir):
    return harness.run_experiment(config)[0]


def _inspect_reference(config, context, stats, out_dir) -> Outcome:
    return Outcome(
        digest=stats_digest(stats),
        problems=tuple(band_problems(stats)),
        replica_cycles=config.n_replicas * _engine_cycles(config),
        artifacts=_write_artifacts(stats, config, out_dir),
    )


def _simulate_config(seed: int) -> ExperimentConfig:
    return dataclasses.replace(load_config(REFERENCE_INI), master_seed=seed)


def _simulate_prepare(config, workdir) -> bytes:
    # fig4.csv of the same config with events off, written by the harness
    stats = harness.run_experiment(config)[0]
    paths = harness.write_outputs(stats, None, os.path.join(workdir, "events_off"), config)
    with open(paths["fig4"], "rb") as fh:
        return fh.read()


def _simulate(config, context, out_dir) -> int:
    argv = [
        "simulate", "--config", REFERENCE_INI,
        "--seed", str(config.master_seed), "--out", out_dir,
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _inspect_simulate(config, reference_fig4, exit_code, out_dir) -> Outcome:
    problems = [] if exit_code == 0 else [f"simulate exited with status {exit_code}"]
    names = ("fig4.csv", "events.csv", "run_meta.json")
    artifacts = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            artifacts[name] = sha256_file(path)
        else:
            problems.append(f"simulate wrote no {name}")
    fig4 = os.path.join(out_dir, "fig4.csv")
    if os.path.exists(fig4):
        with open(fig4, "rb") as fh:
            if fh.read() != reference_fig4:
                problems.append("fig4.csv differs from the events-off ensemble's")
    return Outcome(
        digest=sha256_bytes("".join(artifacts.get(n, "") for n in names).encode()),
        problems=tuple(problems),
        replica_cycles=config.n_replicas * _engine_cycles(config),
        artifacts=artifacts,
    )


def _calibrate(config, context, out_dir):
    return harness.calibrate_depletion(
        config,
        target_delivered=CALIBRATION_TARGET,
        tolerance=CALIBRATION_TOLERANCE,
        n_replicas=CALIBRATION_REPLICAS,
    )


def _inspect_calibrate(config, context, result, out_dir) -> Outcome:
    return Outcome(
        digest=sha256_bytes(repr(result).encode()),
        problems=tuple(calibration_problems(result)),
        replica_cycles=CALIBRATION_REPLICAS * _engine_cycles(config) * result.evaluations,
        artifacts={},
    )


def _inspect_steady(config, context, stats, out_dir) -> Outcome:
    return Outcome(
        digest=stats_digest(stats),
        problems=tuple(steady_problems(stats, config.n_cycles)),
        replica_cycles=config.n_replicas * _engine_cycles(config),
        artifacts=_write_artifacts(stats, config, out_dir),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference_ensemble",
            lambda seed: ExperimentConfig(master_seed=seed),
            _run_ensemble,
            _inspect_reference,
        ),
        Workload(
            "simulate_out",
            _simulate_config,
            _simulate,
            _inspect_simulate,
            _simulate_prepare,
        ),
        Workload(
            "calibrate",
            lambda seed: ExperimentConfig(master_seed=seed),
            _calibrate,
            _inspect_calibrate,
        ),
        Workload(
            "steady_state",
            lambda seed: ExperimentConfig(
                master_seed=seed, n_replicas=16, n_cycles=2500, refill_rate=100.0
            ),
            _run_ensemble,
            _inspect_steady,
        ),
    )
}
