"""Cycle engine: timing, truth/belief bookkeeping, conservation, traces."""

import dataclasses
import gc
import math
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from tweezersim.config import ExperimentConfig
from tweezersim.engine import (
    EngineError,
    EventLog,
    PlanConflictError,
    SimulationModels,
    check_conservation,
    init_sequence,
    run_cycle,
    run_realization,
    step_fill_targets,
    step_image,
    step_refill_buffers,
)
from tweezersim.geometry import build_hex_grid, layout_from_site_rows
from tweezersim.planner import Move, MovePlan, plan_buffer_refill, plan_target_fill
from tweezersim.stochastic import RngStream


def models_with(**overrides):
    return dataclasses.replace(ExperimentConfig(), **overrides).build_models()


# All-success limit: transports and extractions never fail, nothing decays.
# The ensemble mean is large enough that every extraction sees atoms and the
# reservoir is deep enough that depletion never lowers the rate.
DEGENERATE = dict(
    p_transport=1.0,
    p_blockade_plateau=1.0,
    mean_ensemble_at_full=40.0,
    reservoir_mean=50_000.0,
    lifetime_array_s=math.inf,
    lifetime_reservoir_s=math.inf,
)


class TestTimingModel:
    def test_cycle_duration(self):
        assert models_with().timing.cycle_duration == pytest.approx(0.230)

    def test_init_duration(self):
        assert models_with().timing.init_duration == pytest.approx(1.86)

    def test_image_loss_window_defaults_to_image(self):
        t = models_with().timing
        assert t.image_loss_window == t.t_image
        assert dataclasses.replace(t, t_image_loss=0.1).image_loss_window == 0.1

    def test_negative_duration_names_key(self):
        with pytest.raises(ValueError, match="timing.t_image"):
            dataclasses.replace(models_with().timing, t_image=-0.1)


class TestSimulationModelsValidation:
    def test_bad_stay_probability(self):
        with pytest.raises(ValueError, match="p_stay_on_failure"):
            models_with(p_stay_on_failure=1.5)

    def test_bad_fill_strategy(self):
        with pytest.raises(ValueError, match="fill_strategy"):
            models_with(fill_strategy="closest-ish")

    def test_defaults_mixed(self):
        # a failed move draws between keeping and losing its atom
        m = models_with()
        assert m.p_stay_on_failure == pytest.approx(2 / 3)


def test_init_sequence_state():
    models = models_with()
    state = init_sequence(models, RngStream(1, 0))
    assert state.clock == pytest.approx(1.86)
    assert state.cycle_index == 0
    assert not any(state.truth.values())
    assert not any(state.belief.values())
    assert state.n_reservoir == state.n_initial_reservoir
    assert state.replica == 0
    assert init_sequence(models, RngStream(1, 7)).replica == 7


def test_init_sequence_population_statistics():
    models = models_with()
    draws = [
        init_sequence(models, RngStream(2, r)).n_initial_reservoir
        for r in range(300)
    ]
    mean = sum(draws) / len(draws)
    # Poisson(80): sigma of the mean over 300 draws ~ 0.52
    assert abs(mean - 80.0) < 2.6


def test_occupancy_mask():
    models = models_with()
    state = init_sequence(models, RngStream(3, 0))
    assert models.layout.occupancy_mask(state.truth) == 0
    state.truth[0] = True
    state.truth[12] = True
    idx0 = models.layout.index_of(0)
    idx12 = models.layout.index_of(12)
    assert models.layout.occupancy_mask(state.truth) == (1 << idx0) | (1 << idx12)


def test_step_image_syncs_belief():
    models = models_with(**DEGENERATE)
    rng = RngStream(4, 0)
    state = init_sequence(models, rng)
    state.truth[5] = True  # belief lags until the image
    clock0 = state.clock
    assert step_image(state, models, rng) is None
    assert state.belief == state.truth
    assert state.truth[5] is True
    assert state.clock == pytest.approx(clock0 + models.timing.t_image)


class TestFillStep:
    def test_conflict_on_believed_empty_source(self):
        models = models_with(**DEGENERATE)
        rng = RngStream(5, 0)
        state = init_sequence(models, rng)
        plan = MovePlan((Move(0, 7, 10.0),))
        with pytest.raises(PlanConflictError, match="belief marks empty"):
            step_fill_targets(state, plan, models, rng)

    def test_null_transport_when_source_truly_empty(self):
        models = models_with(**DEGENERATE)
        rng = RngStream(6, 0)
        state = init_sequence(models, rng)
        state.belief[0] = True  # stale belief, no atom in truth
        log = EventLog()
        plan = MovePlan((Move(0, 7, 10.0),))
        assert step_fill_targets(state, plan, models, rng, log) is None
        assert state.truth[7] is False
        assert state.belief[7] is True  # belief still assumes success
        assert log.rows[-1][-1] == "null"

    def test_lose_mode_drops_atom(self):
        models = models_with(**DEGENERATE | dict(p_transport=0.0, p_stay_on_failure=0.0))
        rng = RngStream(7, 0)
        state = init_sequence(models, rng)
        state.truth[0] = state.belief[0] = True
        plan = MovePlan((Move(0, 7, 10.0),))
        step_fill_targets(state, plan, models, rng)
        assert state.truth[0] is False and state.truth[7] is False
        assert state.counters.transport_loss == 1

    def test_stay_mode_keeps_atom_in_source(self):
        models = models_with(**DEGENERATE | dict(p_transport=0.0, p_stay_on_failure=1.0))
        rng = RngStream(8, 0)
        state = init_sequence(models, rng)
        state.truth[0] = state.belief[0] = True
        plan = MovePlan((Move(0, 7, 10.0),))
        step_fill_targets(state, plan, models, rng)
        assert state.truth[0] is True and state.truth[7] is False
        assert state.counters.transport_loss == 0
        # belief still claims the move happened; the next image corrects it
        assert state.belief[0] is False and state.belief[7] is True

    @pytest.mark.parametrize("p_stay,loss", [(1.0, 0), (0.0, 1)])
    def test_mixed_mode_extremes(self, p_stay, loss):
        # at 0 and 1 the outcome is certain, so no retention draw is taken
        models = models_with(**DEGENERATE | dict(
            p_transport=0.0, p_stay_on_failure=p_stay,
        ))
        draws = []

        class CountingStream(RngStream):
            def bernoulli(self, p):
                draws.append(p)
                return super().bernoulli(p)

        rng = CountingStream(9, 0)
        state = init_sequence(models, rng)
        state.truth[0] = state.belief[0] = True
        plan = MovePlan((Move(0, 7, 10.0),))
        step_fill_targets(state, plan, models, rng)
        assert state.counters.transport_loss == loss
        assert state.truth[0] is (loss == 0)
        assert draws == [0.0]  # the transport draw only

    def test_transport_into_occupied_site_raises(self):
        models = models_with(**DEGENERATE)
        rng = RngStream(10, 0)
        state = init_sequence(models, rng)
        state.truth[0] = state.belief[0] = True
        state.truth[7] = True  # desynced: belief says empty
        plan = MovePlan((Move(0, 7, 10.0),))
        with pytest.raises(EngineError, match="occupied site"):
            step_fill_targets(state, plan, models, rng)


class TestRefillStep:
    def test_conflict_on_believed_occupied(self):
        models = models_with(**DEGENERATE)
        rng = RngStream(11, 0)
        state = init_sequence(models, rng)
        state.belief[3] = True
        with pytest.raises(PlanConflictError, match="marks occupied"):
            step_refill_buffers(state, [3], models, rng)

    def test_skip_leaves_reservoir_alone(self):
        models = models_with(**DEGENERATE)
        rng = RngStream(12, 0)
        state = init_sequence(models, rng)
        state.truth[3] = True  # atom parked by an earlier failed retry
        n0 = state.n_reservoir
        log = EventLog()
        assert step_refill_buffers(state, [3], models, rng, log) is None
        assert state.n_reservoir == n0
        assert state.counters.extracted == 0
        assert log.rows[-1][-1] == "skip"

    def test_delivery_updates_truth_not_belief(self):
        models = models_with(**DEGENERATE)
        rng = RngStream(13, 0)
        state = init_sequence(models, rng)
        step_refill_buffers(state, [3, 4], models, rng)
        assert state.truth[3] is True and state.truth[4] is True
        assert state.belief[3] is False and state.belief[4] is False
        c = state.counters
        assert c.delivered == 2
        assert c.extracted >= 2
        assert c.blockade_loss == c.extracted - c.delivered


def test_check_conservation_detects_leak():
    models = models_with(**DEGENERATE)
    state = init_sequence(models, RngStream(14, 0))
    state.n_reservoir -= 1  # vanish an atom outside any channel
    with pytest.raises(EngineError, match="conservation"):
        check_conservation(state)


def test_run_cycle_first_record_is_empty_array():
    models = models_with()
    rng = RngStream(15, 0)
    state = init_sequence(models, rng)
    record = run_cycle(state, models, rng)
    assert record.cycle_index == 1
    assert record.n_buffer_filled == 0
    assert record.n_target_filled == 0
    assert record.target_complete is False
    assert record.clock_at_image == pytest.approx(1.86 + 0.130)


def test_cycle_clock_spacing():
    records = run_realization(ExperimentConfig(), seed=16, n_cycles=6)
    clocks = [r.clock_at_image for r in records]
    for a, b in zip(clocks, clocks[1:]):
        assert b - a == pytest.approx(0.230)


def test_run_realization_deterministic():
    cfg = ExperimentConfig()
    a = run_realization(cfg, seed=17, n_cycles=5, replica=3)
    b = run_realization(cfg, seed=17, n_cycles=5, replica=3)
    assert a == b
    c = run_realization(cfg, seed=17, n_cycles=5, replica=4)
    assert a != c


def test_run_realization_rejects_zero_cycles():
    with pytest.raises(ValueError):
        run_realization(ExperimentConfig(), seed=1, n_cycles=0)


def test_degenerate_trace_exact():
    cfg = dataclasses.replace(ExperimentConfig(), **DEGENERATE)
    records = run_realization(cfg, seed=18, n_cycles=4)
    by_cycle = [
        (r.n_buffer_filled, r.n_target_filled, r.target_complete)
        for r in records
    ]
    # image 1: empty array; image 2: buffers loaded; image 3: complete
    assert by_cycle[0] == (0, 0, False)
    assert by_cycle[1] == (7, 0, False)
    assert by_cycle[2] == (7, 6, True)
    assert by_cycle[3] == (7, 6, True)
    assert records[2].delivered_cum == 13  # 7 buffer loads + 6 backfills
    assert records[2].extracted_cum >= 13


def test_event_log_structure():
    log = EventLog()
    cfg = ExperimentConfig()
    run_realization(cfg, seed=19, n_cycles=2, log=log)
    assert log.COLUMNS[0] == "replica"
    steps = [row[2] for row in log.rows]
    assert steps[0] == "init"
    assert {"image", "fill", "refill"} <= set(steps)
    for row in log.rows:
        assert len(row) == len(log.COLUMNS)
    # belief equals truth on every imaging row
    for row in log.rows:
        if row[2] == "image":
            assert row[5] == row[6]


def test_fill_rows_carry_move_duration():
    # every move lasts the configured ramp-translate-ramp time; rows
    # without a move leave the field blank
    cfg = ExperimentConfig(t_ramp=100e-6, t_move=250e-6)
    log = EventLog()
    run_realization(cfg, seed=19, n_cycles=4, log=log)
    duration = cfg.build_models().transport.move_duration
    assert duration == pytest.approx(450e-6)
    moves = [row for row in log.rows if row[2] == "fill" and row[7] != ""]
    assert moves
    assert all(row[10] == duration for row in moves)
    assert all(row[10] == "" for row in log.rows if row[2] != "fill" or row[7] == "")


def test_refill_hook_feeds_reservoir():
    cfg = dataclasses.replace(ExperimentConfig(), refill_rate=20.0)
    log = EventLog()
    records = run_realization(cfg, seed=20, n_cycles=10, log=log)
    assert records[-1].n_reservoir > 0
    # conservation ran inside every cycle; the hook must have fired
    final_res = [row[4] for row in log.rows][-1]
    assert final_res >= 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_counters_monotone_and_reservoir_nonnegative(seed):
    log = EventLog()
    records = run_realization(ExperimentConfig(), seed=seed, n_cycles=4, log=log)
    assert len(records) == 4
    for prev, cur in zip(records, records[1:]):
        assert cur.extracted_cum >= prev.extracted_cum
        assert cur.delivered_cum >= prev.delivered_cum
        assert cur.reservoir_decay_cum >= prev.reservoir_decay_cum
        assert cur.n_reservoir >= 0
    for row in log.rows:
        assert row[4] >= 0


def test_event_log_retains_at_most_120_bytes_per_row():
    models = ExperimentConfig().build_models()
    replicas = range(300)
    for replica in replicas:  # fill the layout's plan memo before measuring
        run_realization(models, 5, 16, replica=replica)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = EventLog()
        for replica in replicas:
            run_realization(models, 5, 16, replica=replica, log=log)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) > 30_000
    assert retained / len(log) <= 120


def test_event_log_rows_keep_their_types():
    log = EventLog()
    run_realization(ExperimentConfig(), seed=19, n_cycles=6, log=log)
    rows = log.rows
    assert len(rows) == len(log)
    for row in rows:
        assert [type(v) for v in row[:7]] == [int, int, str, float, int, int, int]
    moves = [row for row in rows if row[2] == "fill" and row[7] != ""]
    refills = [row for row in rows if row[7] == "R"]
    blanks = [row for row in rows if row[2] in ("init", "image")]
    assert moves and refills and blanks
    assert all(type(row[10]) is float and type(row[9]) is float for row in moves)
    assert all(type(row[8]) is int and type(row[9]) is float and row[10] == "" for row in refills)
    assert all(row[7:] == ("",) * 5 for row in blanks)
    # the rows of one fill step share one duration object
    by_step = {}
    for row in moves:
        by_step.setdefault((row[0], row[1]), set()).add(id(row[10]))
    assert all(len(ids) == 1 for ids in by_step.values())


def big_hex_models():
    # 91 sites: more than a 63-bit mask can hold
    positions = build_hex_grid(5, 15.8)
    rows = [(k, p.x, p.y, "buffer" if p.x < 0 else "target") for k, p in enumerate(positions)]
    layout = layout_from_site_rows(
        rows, (-120.0, 0.0), scan_range=250.0, base_pitch=15.8, effective_pitch=15.8,
    )
    return ExperimentConfig(layout=layout).build_models()


def test_event_log_masks_exact_past_63_sites():
    models = big_hex_models()
    layout = models.layout
    assert len(layout.site_ids) > 63
    state = init_sequence(models, RngStream(3, 0))
    log = EventLog()
    log.add("init", state, layout)  # fits the unboxed column
    top, low = layout.site_ids[-1], layout.site_ids[0]
    state.truth[top] = state.truth[low] = True
    state.belief[low] = True
    state.cycle_index = 1
    log.add("image", state, layout)  # truth past 63 bits, belief not
    state.belief = dict(state.truth)
    log.add("image", state, layout)
    truth_masks = [row[5] for row in log.rows]
    belief_masks = [row[6] for row in log.rows]
    small = 1 << layout.index_of(low)
    big = (1 << layout.index_of(top)) | small
    assert truth_masks == [0, big, big]
    assert belief_masks == [0, small, big]
    assert len(log) == 3 and all(len(column) == 3 for column in log.columns)


class RecordingSink:
    def __init__(self):
        self.blocks, self.closed = [], False

    def write(self, columns):
        self.blocks.append([list(column) for column in columns])

    def close(self):
        self.closed = True


def test_streaming_event_log_starts_unboxed_after_a_widened_block():
    models = big_hex_models()
    layout = models.layout
    state = init_sequence(models, RngStream(3, 0))
    sink = RecordingSink()
    log = EventLog(sink)
    top = layout.site_ids[-1]
    state.truth[top] = True
    log.add("image", state, layout)  # widens the mask columns
    log.flush(2)  # one row buffered: kept
    assert sink.blocks == [] and len(log) == 1
    state.truth[top] = False
    log.add("image", state, layout)
    log.flush(2)
    assert len(sink.blocks) == 1 and len(log) == 2 and log.rows == []
    assert sink.blocks[0][5] == [1 << layout.index_of(top), 0]
    log.add("init", state, layout)  # a mask that fits: unboxed again
    assert type(log.columns[5]) is array and type(log.columns[6]) is array
    log.close()
    assert sink.closed and len(log) == 3
    assert [block[2] for block in sink.blocks] == [["image", "image"], ["init"]]


def test_event_log_masks_match_records_past_63_sites():
    models = big_hex_models()
    layout = models.layout
    target_bits = sum(1 << layout.index_of(t) for t in layout.target_ids)
    log = EventLog()
    records = run_realization(models, seed=8, n_cycles=4, log=log)
    images = [row for row in log.rows if row[2] == "image"]
    assert max(row[5] for row in images) >= 1 << 63
    for row, record in zip(images, records):
        assert row[5] == row[6]
        assert bin(row[5] & target_bits).count("1") == record.n_target_filled
