"""Tests of the benchmark's own parts. The Tier-1 suite does not collect
this directory; run it with

    python3 -m pytest -q perfbench
"""

import dataclasses
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tweezersim import harness  # noqa: E402
from tweezersim.config import ExperimentConfig  # noqa: E402


def _originals():
    return {
        (owner, attr): vars(owner)[attr]
        for owner, attr, _ in tracing.targets(tracing.Tracer())
    }


def _assert_restored(originals):
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_instrumented_rebinds_then_restores_every_attribute():
    originals = _originals()
    with tracing.instrumented(tracing.Tracer()):
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original
    _assert_restored(originals)


def test_instrumented_restores_when_the_block_raises():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracing.Tracer()):
            raise RuntimeError("workload failed")
    _assert_restored(originals)


def test_self_time_of_a_synthetic_nested_call():
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.span("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.span("outer", body)()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.total["outer"] == 10.0
    assert tracer.self_time["outer"] == 5.0
    assert tracer.total["inner"] == 5.0
    assert tracer.self_time["inner"] == 5.0


def test_traced_ensemble_matches_untraced_and_sees_every_call():
    config = ExperimentConfig(n_replicas=3, n_cycles=4)
    plain = harness.run_experiment(config)[0]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        traced = harness.run_experiment(config)[0]
    assert traced == plain
    engine_cycles = 3 * (4 + 1)
    assert tracer.calls["engine.run_realization"] == 3
    assert tracer.calls["engine.run_cycle"] == engine_cycles
    assert tracer.calls["planner.plan_target_fill"] == engine_cycles
    assert tracer.calls["stochastic.reservoir_decay"] == 3 * engine_cycles
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == {m for m in tracing.PER_LAYER if not m.startswith("trace.")}


def test_at_reference_speed_scales_by_the_kernel_slowdown():
    ref = speed.KERNEL_REFERENCE_S
    assert speed.at_reference_speed(3.0, ref, ref) == pytest.approx(3.0)
    # the kernel ran 1.5x slower around the interval: so did the machine
    assert speed.at_reference_speed(3.0, ref, 2 * ref) == pytest.approx(2.0)


def _stats(**changes):
    cycles = 15
    stats = harness.ExperimentStats(
        n_replicas=2500,
        cycles=tuple(range(1, cycles + 1)),
        success_rate=(0.9,) * cycles,
        success_ci=(0.0,) * cycles,
        buffer_fill_mean=(0.596,) * cycles,
        buffer_fill_ci=(0.0,) * cycles,
        reservoir_norm=(1.0,) * cycles,
        reservoir_std=(0.0,) * cycles,
        reservoir_baseline=80.0,
        mean_delivered=10.0,
    )
    return dataclasses.replace(stats, **changes)


def test_band_problems_name_the_out_of_band_value():
    assert workloads.band_problems(_stats()) == []
    problems = workloads.band_problems(_stats(mean_delivered=10.6))
    assert len(problems) == 1 and "mean delivered" in problems[0]


def test_an_out_of_band_result_counts_as_a_failure(tmp_path):
    out_of_band = _stats(buffer_fill_mean=(0.5,) * 15)
    fake = dataclasses.replace(
        workloads.WORKLOADS["reference_ensemble"],
        execute=lambda config, context, out_dir: out_of_band,
    )
    m = run.measure(fake, seed=1, seconds=0, trace=False, workdir=str(tmp_path))
    assert m.attempted == 1
    assert m.failed == 1
    assert m.walls == []
    assert any("cycle-1 buffer fill" in p for p in m.problems)
    assert "wall_s" not in run.result_metrics(m, trace=False)


def test_calibration_problems_catch_a_shifted_calibration():
    good = harness.CalibrationResult(13.1875, 10.156, 6)
    assert workloads.calibration_problems(good) == []
    shifted = workloads.calibration_problems(harness.CalibrationResult(15.625, 9.6, 5))
    assert len(shifted) == 2
    assert "calibrated ensemble mean" in shifted[0] and "5 evaluations" in shifted[1]


def test_steady_problems_catch_a_drained_reservoir():
    cycles = 2500
    steady = _stats(
        cycles=tuple(range(1, cycles + 1)),
        success_rate=(1.0,) * cycles,
        success_ci=(0.0,) * cycles,
        buffer_fill_mean=(0.949,) * cycles,
        buffer_fill_ci=(0.0,) * cycles,
        reservoir_norm=(8.0,) * cycles,
        reservoir_std=(0.0,) * cycles,
        mean_delivered=770.0,
    )
    assert workloads.steady_problems(steady, cycles) == []
    # without refill the reservoir empties and deliveries stop
    drained = dataclasses.replace(
        steady, reservoir_norm=(0.0,) * cycles, mean_delivered=10.0,
        buffer_fill_mean=(0.6,) * cycles,
    )
    problems = workloads.steady_problems(drained, cycles)
    assert [p.split(" ")[0:2] for p in problems] == [
        ["mean", "buffer"], ["last-cycle", "reservoir"], ["mean", "delivered"],
    ]

