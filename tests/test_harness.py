"""Ensemble harness: statistics, calibration, and output files."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tweezersim
from tweezersim import harness
from tweezersim.config import ConfigError, ExperimentConfig
from tweezersim.engine import EventLog, run_realization
from tweezersim.harness import (
    CalibrationError,
    binomial_halfwidth,
    calibrate_depletion,
    run_experiment,
    stream_events,
    wilson_halfwidth,
    write_outputs,
)

from conftest import hex_layout

SMALL = ExperimentConfig(n_replicas=60, n_cycles=6)


def test_binomial_halfwidth_closed_form():
    assert binomial_halfwidth(0.5, 100) == pytest.approx(0.05)
    assert binomial_halfwidth(0.0, 100) == 0.0
    assert binomial_halfwidth(1.0, 7) == 0.0
    with pytest.raises(ValueError):
        binomial_halfwidth(0.5, 0)


def test_wilson_halfwidth_properties():
    # positive even at the boundary rates, approaches the normal width for
    # large n at p = 1/2
    assert wilson_halfwidth(0.0, 50) > 0.0
    assert wilson_halfwidth(1.0, 50) > 0.0
    big = wilson_halfwidth(0.5, 10_000)
    assert big == pytest.approx(binomial_halfwidth(0.5, 10_000), rel=1e-3)
    # the closed form at z = 1
    p, n = 0.3, 40
    by_hand = math.sqrt(p * (1 - p) / n + 1 / (4 * n * n)) / (1 + 1 / n)
    assert wilson_halfwidth(p, n) == pytest.approx(by_hand)


class TestSuccessMatrix:
    @staticmethod
    def rates(flags_per_replica, definition="first-achievement"):
        complete = np.array(flags_per_replica, dtype=bool)
        return harness._success_matrix(complete, definition).mean(axis=0).tolist()

    def test_first_achievement_latches(self):
        assert self.rates([[False, True, False, False]]) == [0.0, 1.0, 1.0, 1.0]

    def test_maintained_drops_on_defect(self):
        assert self.rates([[False, True, False, True]], "maintained") == [0.0, 1.0, 0.0, 1.0]

    def test_ensemble_average(self):
        reps = [[False, True], [False, False], [True, True], [False, False]]
        assert self.rates(reps) == [0.25, 0.5]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 4),
    k=st.integers(1, 3),
    master_seed=st.integers(0, 2**31),
    n_cycles=st.integers(3, 6),
    lifetime_array_s=st.floats(2.0, 30.0),
    lifetime_reservoir_s=st.floats(2.0, 10.0),
    p_transport=st.floats(0.3, 1.0),
    p_stay_on_failure=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    p_blockade_plateau=st.floats(0.3, 0.7),
    mean_ensemble_at_full=st.floats(3.0, 20.0),
    reservoir_mean=st.floats(20.0, 120.0),
    refill_rate=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    fill_strategy=st.sampled_from(["global", "per-vacancy"]),
    t_image_loss=st.sampled_from([None, 0.100]),
    extra=st.integers(0, 70),
)
def test_growing_the_ensemble_keeps_earlier_replicas(n, k, extra, **values):
    # replica i draws from the (master_seed, i) stream alone, and engine
    # cycle c from the c-th row of that stream however many rows are drawn
    # at once, so the first n replicas of an ensemble of n + k log exactly
    # the rows of an ensemble of n, and its first cycles those of a run
    # longer by up to 70 cycles (past a 64-row chunk)
    cfg = ExperimentConfig(n_replicas=n, **values)
    _, small = run_experiment(cfg, log=EventLog())
    _, large = run_experiment(
        dataclasses.replace(cfg, n_replicas=n + k, n_cycles=cfg.n_cycles + extra),
        log=EventLog(),
    )
    assert {row[0] for row in large.rows} == set(range(n + k))
    last = cfg.engine_cycles  # the engine cycle reading out the last reported one
    assert small.rows == [row for row in large.rows if row[0] < n and row[1] <= last]


def test_each_replica_of_an_ensemble_is_its_own_realization():
    # replica i of an ensemble logs exactly the rows of run_realization's
    # replica i of the same config, however many replicas the ensemble has
    cfg = ExperimentConfig(n_replicas=6, n_cycles=4, master_seed=2024)
    _, ensemble = run_experiment(cfg, log=EventLog())
    _, grown = run_experiment(dataclasses.replace(cfg, n_replicas=9), log=EventLog())
    for i in range(cfg.n_replicas):
        alone = EventLog()
        run_realization(cfg, replica=i, log=alone)
        assert [row[2] for row in alone.rows[:2]] == ["init", "image"]
        assert [row for row in ensemble.rows if row[0] == i] == alone.rows
        assert [row for row in grown.rows if row[0] == i] == alone.rows


class GroupedStreams(harness.RngStream):
    """Streams whose groups record how many replicas they hold."""

    sizes = []

    @classmethod
    def draw_group(cls, master_seed, replicas, n_rows, form):
        cls.sizes.append(len(replicas))
        return super().draw_group(master_seed, replicas, n_rows, form)


# replicas of 16 engine cycles past two full groups; of 70 cycles, whose
# grouped first chunk of 64 rows is followed by each stream's own chunk
@pytest.mark.parametrize("n_cycles,n_groups,extra", [(15, 2, 5), (69, 2, 1), (15, 0, 1)],
                         ids=["two-groups-and-part", "past-a-chunk", "one-replica"])
def test_replicas_across_groups_are_their_own_realizations(
    monkeypatch, n_cycles, n_groups, extra
):
    group = harness._GROUP_ROWS // min(harness.ROW_CHUNK, n_cycles + 1)
    cfg = ExperimentConfig(
        n_replicas=n_groups * group + extra, n_cycles=n_cycles, master_seed=2024
    )
    records = {}

    def recorded(config, replica, log, rng):
        records[replica] = run_realization(config, replica, log, rng)
        return records[replica]

    GroupedStreams.sizes = []
    monkeypatch.setattr(harness, "RngStream", GroupedStreams)
    monkeypatch.setattr(harness, "run_realization", recorded)
    _, ensemble = run_experiment(cfg, log=EventLog())
    assert GroupedStreams.sizes == [group] * n_groups + [extra]
    assert sorted(records) == list(range(cfg.n_replicas))
    for i in range(cfg.n_replicas):
        alone = EventLog()
        assert records[i] == run_realization(cfg, replica=i, log=alone)
        assert [row for row in ensemble.rows if row[0] == i] == alone.rows


class TestRunExperiment:
    def test_shapes_and_axes(self):
        stats, log = run_experiment(SMALL)
        assert log is None
        assert stats.n_replicas == 60
        assert stats.cycles == tuple(range(1, 7))
        for arr in (
            stats.success_rate, stats.success_ci, stats.buffer_fill_mean,
            stats.buffer_fill_ci, stats.reservoir_norm, stats.reservoir_std,
        ):
            assert len(arr) == 6

    def test_reservoir_normalized_to_first_cycle(self):
        stats, _ = run_experiment(SMALL)
        assert stats.reservoir_norm[0] == pytest.approx(1.0)
        # cycle 1 is imaged after the first extraction round, so the
        # baseline is the initial load minus the first seven bites
        assert 10.0 < stats.reservoir_baseline < 40.0
        assert all(b <= a + 1e-12 for a, b in zip(stats.reservoir_norm,
                                                  stats.reservoir_norm[1:]))

    def test_first_cycle_shows_first_fill_only(self):
        stats, _ = run_experiment(SMALL)
        assert stats.success_rate[0] == 0.0
        assert stats.buffer_fill_mean[0] > 0.4

    def test_success_monotone_under_first_achievement(self):
        stats, _ = run_experiment(SMALL)
        assert all(
            b >= a for a, b in zip(stats.success_rate, stats.success_rate[1:])
        )

    def test_maintained_never_exceeds_first_achievement(self):
        first, _ = run_experiment(SMALL)
        kept, _ = run_experiment(
            dataclasses.replace(SMALL, success_definition="maintained")
        )
        for a, b in zip(kept.success_rate, first.success_rate):
            assert a <= b + 1e-12

    def test_deterministic(self):
        a, _ = run_experiment(SMALL)
        b, _ = run_experiment(SMALL)
        assert a == b

    def test_event_collection(self):
        stats, log = run_experiment(SMALL, log=EventLog())
        assert log is not None and len(log.rows) > 0
        replicas = {row[0] for row in log.rows}
        assert replicas == set(range(60))
        assert stats.mean_delivered > 0

    def test_each_config_builds_its_models_once(self, monkeypatch):
        # a run reads the config it is given; a calibrate evaluation builds
        # its one replaced config
        calls = []
        build = ExperimentConfig.build_models

        def counted(config):
            calls.append(config)
            return build(config)

        monkeypatch.setattr(ExperimentConfig, "build_models", counted)
        run_experiment(SMALL)
        assert calls == []
        harness._mean_delivered(SMALL, 10.0, 3)
        assert len(calls) == 1


class TestCalibration:
    def test_synthetic_root(self):
        res = calibrate_depletion(
            SMALL, target_delivered=10.0, tolerance=0.01,
            bracket=(1.0, 40.0), evaluate=lambda m: 20.0 / m,
        )
        assert res.mean_ensemble_at_full == pytest.approx(2.0, abs=0.05)
        assert abs(res.achieved_delivered - 10.0) <= 0.01
        assert res.evaluations >= 3

    def test_infinite_tolerance_returns_immediately(self):
        calls = []

        def g(m):
            calls.append(m)
            return 123.0

        res = calibrate_depletion(
            SMALL, target_delivered=10.0, tolerance=math.inf, evaluate=g
        )
        assert res.evaluations == 1
        assert calls == [1.0]
        assert res.achieved_delivered == 123.0

    def test_unbracketed_target_reports_extremes(self):
        with pytest.raises(CalibrationError, match="not bracketed"):
            calibrate_depletion(
                SMALL, target_delivered=0.0, tolerance=0.1,
                bracket=(1.0, 4.0), evaluate=lambda m: 20.0 / m,
            )

    def test_non_monotone_objective_is_reported(self):
        # a bump between the bracket ends: the first midpoint lies above both
        calls = []

        def g(m):
            calls.append(m)
            return 30.0 if 2.0 < m < 3.0 else 20.0 / m

        with pytest.raises(CalibrationError, match="not monotone") as info:
            calibrate_depletion(
                SMALL, target_delivered=10.0, tolerance=0.1,
                bracket=(1.0, 4.0), evaluate=g,
            )
        assert calls == [1.0, 4.0, 2.5]
        assert "30.000 at ensemble mean 2.5000" in str(info.value)
        assert "20.000 at 1.0000 and 5.000 at 4.0000" in str(info.value)

    def test_step_objective_reports_best(self):
        # jump straight over the target: no m ever lands inside tolerance
        with pytest.raises(CalibrationError, match="best delivered"):
            calibrate_depletion(
                SMALL, target_delivered=10.0, tolerance=0.1,
                bracket=(1.0, 4.0),
                evaluate=lambda m: 20.0 if m < 2.0 else 1.0,
            )

    def test_search_starts_at_the_least_mean_reaching_the_plateau(self):
        # at plateau 0.7 a mean below 1.24 cannot reach it, so the bracket's
        # lower end 1.0 is raised to the config's least mean
        config = ExperimentConfig(p_blockade_plateau=0.7)
        calls = []

        def g(m):
            calls.append(m)
            return 20.0 / m

        res = calibrate_depletion(config, target_delivered=10.0, tolerance=0.01, evaluate=g)
        assert calls[:2] == [config.min_ensemble_mean, 40.0]
        assert res.mean_ensemble_at_full == pytest.approx(2.0, abs=0.05)
        # and a least mean past the upper end leaves nothing to search
        with pytest.raises(CalibrationError, match=r"stochastic\.p_blockade_plateau 0\.98 "):
            calibrate_depletion(
                ExperimentConfig(p_blockade_plateau=0.98), bracket=(1.0, 4.0), evaluate=g
            )
        assert len(calls) == res.evaluations

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            calibrate_depletion(SMALL, tolerance=-1.0)
        with pytest.raises(ValueError):
            calibrate_depletion(SMALL, bracket=(5.0, 2.0))

    @pytest.mark.parametrize(
        "argument", [{"tolerance": math.nan}, {"target_delivered": math.nan}]
    )
    def test_nan_argument_rejected_before_any_evaluation(self, argument):
        calls = []

        def g(m):
            calls.append(m)
            return 20.0 / m

        with pytest.raises(ConfigError, match=next(iter(argument))):
            calibrate_depletion(SMALL, evaluate=g, **argument)
        assert calls == []

    def test_simulated_calibration_small(self):
        res = calibrate_depletion(
            SMALL, target_delivered=10.0, tolerance=1.5,
            bracket=(8.0, 20.0), n_replicas=80,
        )
        assert 8.0 <= res.mean_ensemble_at_full <= 20.0
        assert abs(res.achieved_delivered - 10.0) <= 1.5


class TestOutputs:
    def test_files_and_schema(self, tmp_path):
        stats, log = run_experiment(SMALL, log=EventLog())
        paths = write_outputs(stats, log, str(tmp_path / "out"), SMALL)
        header, first = Path(paths["fig4"]).read_text().splitlines()[:2]
        assert header == (
            "cycle,success_rate,success_ci,buffer_fill_mean,"
            "buffer_fill_ci,reservoir_norm,reservoir_std"
        )
        assert first.startswith("1,")
        meta = json.loads(Path(paths["run_meta"]).read_text())
        assert meta["results"]["n_replicas"] == 60
        assert meta["config"]["run"]["n_cycles"] == 6

    def test_byte_identical_outputs(self, tmp_path):
        stats, log = run_experiment(SMALL, log=EventLog())
        p1 = write_outputs(stats, log, str(tmp_path / "a"), SMALL)
        stats2, log2 = run_experiment(SMALL, log=EventLog())
        p2 = write_outputs(stats2, log2, str(tmp_path / "b"), SMALL)
        for name in ("fig4", "events", "run_meta"):
            assert Path(p1[name]).read_bytes() == Path(p2[name]).read_bytes()

    def test_header_only_events_without_log(self, tmp_path):
        stats, _ = run_experiment(SMALL)
        paths = write_outputs(stats, None, str(tmp_path / "out"), SMALL)
        lines = Path(paths["events"]).read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("replica,cycle,step,")


# -- CSV writer against the reference formatter ---------------------------

def reference_csv(header, rows) -> bytes:
    """The writer's reference: csv.writer over the rows, floats as
    ``.10g`` and every other value as ``str(v)``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format(v, ".10g") if isinstance(v, float) else str(v) for v in row]
        for row in rows
    )
    return buf.getvalue().encode("utf-8")


def written_csv(tmp_path, header, columns) -> bytes:
    path = tmp_path / "out.csv"
    with harness._CsvWriter(str(path), header) as writer:
        writer.write(columns)
    return path.read_bytes()


# values that compare equal but print differently, plus blanks and text
ADVERSARIAL = [True, 1, 1.0, 1e10, 10**10, 0.0, -0.0, math.nan, math.inf, "", "R"]


def adversarial_columns():
    n = len(ADVERSARIAL)
    mixed = [ADVERSARIAL[(k + shift) % n] for shift in range(n) for k in range(n)]
    rows = len(mixed)
    return [
        mixed,
        mixed[::-1],
        [0.0, -0.0, 1.5, -0.0, 0.0, math.nan, -math.inf, 1e10] * (rows // 8) + [2.5] * (rows % 8),
        [1, True, 1, "", False, 0] * (rows // 6) + [1] * (rows % 6),
        array("d", [0.0, -0.0, math.nan, 1e10, 1.0, 0.1]) * (rows // 6) + array("d", [3.0] * (rows % 6)),
        array("q", [1, 10**10, 0, -5]) * (rows // 4) + array("q", [7] * (rows % 4)),
        ['a,b', 'say "hi"', "two\nlines", "cr\r", " pad ", "R"] * (rows // 6) + ["x"] * (rows % 6),
    ]


@pytest.mark.parametrize("chunk_rows", [1, 3, 4096])
def test_writer_matches_reference_on_adversarial_values(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(harness, "_CHUNK_ROWS", chunk_rows)
    columns = adversarial_columns()
    header = ["mixed", "reversed", "floats", "ints,bools", "d", "q", 'quote"d']
    assert written_csv(tmp_path, header, columns) == reference_csv(header, zip(*columns))


def test_writer_keeps_equal_values_of_other_types_apart(tmp_path, monkeypatch):
    # one column whose type changes between blocks; each block shares a memo
    monkeypatch.setattr(harness, "_CHUNK_ROWS", 2)
    column = [1, 1, True, True, 1.0, 1.0, -0.0, 0.0, 10**10, 1e10]
    assert written_csv(tmp_path, ["v"], [column]) == reference_csv(["v"], zip(column))


def test_writer_single_column_blanks_and_empty_table(tmp_path):
    column = ["", "a", "", 0.0]
    assert written_csv(tmp_path, [""], [column]) == reference_csv([""], zip(column))
    header = ["a", "b"]
    assert written_csv(tmp_path, header, [(), ()]) == reference_csv(header, [])


def test_events_longer_than_a_chunk_match_reference(tmp_path):
    cfg = ExperimentConfig(n_replicas=300, n_cycles=3)
    stats, log = run_experiment(cfg, log=EventLog())
    assert len(log) > 2 * harness._CHUNK_ROWS
    paths = write_outputs(stats, log, str(tmp_path / "out"), cfg)
    with open(paths["events"], "rb") as fh:
        assert fh.read() == reference_csv(EventLog.COLUMNS, log.rows)
    fig4_rows = zip(
        stats.cycles, stats.success_rate, stats.success_ci, stats.buffer_fill_mean,
        stats.buffer_fill_ci, stats.reservoir_norm, stats.reservoir_std,
    )
    with open(paths["fig4"], "rb") as fh:
        fig4 = fh.read()
    assert fig4 == reference_csv(fig4.decode().splitlines()[0].split(","), fig4_rows)


def test_events_writer_keeps_one_block_of_replica_labels(tmp_path, monkeypatch):
    # each replica fills one run of rows, so its label's memo is dropped at
    # every block; a memo kept for the file would hold every replica
    monkeypatch.setattr(harness, "_CHUNK_ROWS", 64)
    held = []  # (labels kept, distinct labels in the block) per replica block

    class Recorded(harness._Texts):
        def render(self, values):
            texts = list(super().render(values))
            if self.name == "replica":
                held.append((len(self), len(set(values))))
            return texts

    monkeypatch.setattr(harness, "_Texts", Recorded)
    cfg = ExperimentConfig(n_replicas=40, n_cycles=2)
    with stream_events(str(tmp_path)) as log:
        stats, log = run_experiment(cfg, log=log)
        write_outputs(stats, log, str(tmp_path), cfg)
    assert len(held) >= 3
    assert all(kept == distinct for kept, distinct in held)
    assert max(distinct for _, distinct in held) < cfg.n_replicas


@pytest.mark.parametrize(
    "column,value",
    [("n_reservoir", True), ("n_reservoir", 3.0), ("truth_mask", np.int64(3)),
     ("clock_s", 1), ("step", 0), ("dist_um", 1), ("src", 1.0)],
)
def test_events_writer_refuses_values_outside_their_declared_kind(tmp_path, column, value):
    with pytest.raises(TypeError, match=column):
        with stream_events(str(tmp_path)) as log:
            log.add(0, 0, "image", 0.5, 4, 1, 1)
            log.columns[EventLog.COLUMNS.index(column)][0] = value
            log.close()


def test_event_groups_print_float_zeros_and_nan_as_written(tmp_path):
    # rows alike but for clock_s 0.0 / -0.0 and dist_um 0.0 / -0.0 / NaN: a
    # group memo that kept such a key would print one row's text for another
    assert sum(harness._EVENT_GROUPS, ()) == EventLog.COLUMNS
    log = EventLog()
    for clock in (0.0, -0.0, 0.0, -0.0):
        log.add(0, 0, "image", clock, 4, 1, 1)
        for dist in (0.0, -0.0, math.nan, -0.0, 0.0, math.nan):
            log.add(0, 0, "fill", clock, 4, 1, 1, 0, 7, dist, 0.01, "ok")
    with stream_events(str(tmp_path)) as events:
        events.sink.write(log.columns)
    assert (tmp_path / "events.csv").read_bytes() == reference_csv(EventLog.COLUMNS, log.rows)


# -- events.csv streamed while the ensemble runs ----------------------------

def hex_config(**overrides) -> ExperimentConfig:
    # 91 sites: the mask columns widen past 63 bits within every replica
    return ExperimentConfig(layout=hex_layout(), **overrides)


def assert_streamed_equals_in_memory(tmp_path, monkeypatch, cfg, chunk_rows):
    stats, whole = run_experiment(cfg, log=EventLog())
    expected = write_outputs(stats, whole, str(tmp_path / "whole"), cfg)
    if callable(chunk_rows):
        chunk_rows = chunk_rows(len(whole))
    monkeypatch.setattr(harness, "_CHUNK_ROWS", chunk_rows)
    out = str(tmp_path / "streamed")
    with stream_events(out) as log:
        stats_streamed, log = run_experiment(cfg, log=log)
        assert stats_streamed == stats
        assert len(log) == len(whole)
        assert len(log.rows) < chunk_rows  # flushed at every full block
        paths = write_outputs(stats, log, out, cfg)
    assert len(log) == len(whole) and log.rows == []
    for name in ("fig4", "events", "run_meta"):
        with open(paths[name], "rb") as got, open(expected[name], "rb") as want:
            assert got.read() == want.read(), name


# a block size that divides the log exactly, and one row either side
BLOCK_SIZES = [
    1, 3, 4096, lambda n: n, lambda n: n - 1, lambda n: n + 1, lambda n: n // 2,
]
BLOCK_IDS = ["1", "3", "4096", "n", "n-1", "n+1", "n/2"]


@pytest.mark.parametrize("chunk_rows", BLOCK_SIZES, ids=BLOCK_IDS)
def test_streamed_events_equal_the_in_memory_log(tmp_path, monkeypatch, chunk_rows):
    cfg = ExperimentConfig(n_replicas=12, n_cycles=4)
    assert_streamed_equals_in_memory(tmp_path, monkeypatch, cfg, chunk_rows)


@pytest.mark.parametrize("chunk_rows", [1, 3, 4096])
def test_streamed_events_equal_past_63_sites(tmp_path, monkeypatch, chunk_rows):
    cfg = hex_config(n_replicas=4, n_cycles=2)
    assert_streamed_equals_in_memory(tmp_path, monkeypatch, cfg, chunk_rows)


def test_streamed_log_must_finish_in_its_own_directory(tmp_path):
    with stream_events(str(tmp_path / "a")) as log:
        stats, log = run_experiment(SMALL, log=log)
        with pytest.raises(ValueError, match="streams to"):
            write_outputs(stats, log, str(tmp_path / "b"), SMALL)


def test_the_library_writes_nothing_of_its_own(tmp_path):
    # a caller that prints one result line last (as perfbench/run.py does)
    # needs the library silent on both streams, also at interpreter exit:
    # no print, warning or finalizer message of its own
    out = str(tmp_path / "out")
    code = (
        "from tweezersim.config import ExperimentConfig\n"
        "from tweezersim.harness import (\n"
        "    calibrate_depletion, run_experiment, stream_events, write_outputs)\n"
        "config = ExperimentConfig(n_replicas=3, n_cycles=2)\n"
        f"with stream_events({out!r}) as log:\n"
        "    stats, log = run_experiment(config, log)\n"
        f"    write_outputs(stats, log, {out!r}, config)\n"
        "result = calibrate_depletion(config, evaluate=lambda m: 20.0 / m)\n"
        "assert result.evaluations > 1\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tweezersim.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("", "")
    assert sorted(os.listdir(out)) == ["events.csv", "fig4.csv", "run_meta.json"]
