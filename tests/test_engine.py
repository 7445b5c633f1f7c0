"""Cycle engine: timing, truth/belief bookkeeping, conservation, traces."""

import dataclasses
import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tweezersim import engine
from tweezersim.config import ExperimentConfig
from tweezersim.engine import (
    Counters,
    CycleRecord,
    CycleSlots,
    DecayWindow,
    EngineError,
    EventLog,
    SystemState,
    check_conservation,
    init_sequence,
    run_cycle,
    run_realization,
    step_fill_targets,
    step_image,
    step_refill_buffers,
)
from tweezersim.planner import Move
from tweezersim.stochastic import RngStream, RowForm, survival_probability

from conftest import hex_layout, two_site_layout


def models_with(**overrides):
    return dataclasses.replace(ExperimentConfig(), **overrides)


def bits(models, *site_ids):
    """The occupancy bitmask of ``site_ids`` in the layout of ``models``."""
    return sum(models.layout.site_bits[sid] for sid in site_ids)


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


class TestDurations:
    def test_cycle_duration(self):
        assert models_with().cycle_duration == pytest.approx(0.230)

    def test_init_duration(self):
        assert models_with().init_duration == pytest.approx(1.86)

    def test_image_loss_window_defaults_to_image(self):
        models = models_with()
        assert models.image_window.length == models.t_image
        assert dataclasses.replace(models, t_image_loss=0.1).image_window.length == 0.1


class TestModelKeyValidation:
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


class TestDerivedModelValues:
    @staticmethod
    def expected_window(models, length):
        return DecayWindow(
            length,
            survival_probability(length, models.lifetime_array_s),
            survival_probability(length, models.lifetime_reservoir_s),
            models.refill_rate * length,
        )

    def test_window_survival_decided_once(self):
        models = models_with(t_image_loss=0.02, refill_rate=370.0)
        ensembles = models.ensembles
        assert (ensembles.mean_at_full, ensembles.n_reference) == (
            models.mean_ensemble_at_full, models.n_reference
        )
        for window, length in (
            (models.image_window, 0.02),
            (models.fill_window, models.t_analysis_fill),
            (models.refill_window, models.t_buffer_refill),
        ):
            # equality: every value bit for bit, the refill's split included
            assert window == self.expected_window(models, length)
            mean = 370.0 * length
            assert (window.refill_mean, window.refill_whole, window.refill_fraction) == (
                mean, int(mean), mean - int(mean)
            )
            assert window.refill_whole > 0
            # thinning at the window's loss probability, under the bundle's
            # one table budget
            assert window.thinning.p == 1.0 - window.reservoir_survival
            assert window.thinning.budget is ensembles.budget

    def test_window_survival_follows_replaced_timing(self):
        models = models_with()
        replaced = dataclasses.replace(
            models, t_image_loss=0.05, t_analysis_fill=0.08,
            t_buffer_refill=0.04, lifetime_reservoir_s=2.0, refill_rate=12.5,
        )
        assert replaced.image_window == self.expected_window(replaced, 0.05)
        assert replaced.fill_window == self.expected_window(replaced, 0.08)
        assert replaced.refill_window == self.expected_window(replaced, 0.04)
        assert replaced.fill_window.refill_mean == 12.5 * 0.08
        assert replaced.refill_window.reservoir_survival == survival_probability(0.04, 2.0)
        assert replaced.fill_window != models.fill_window

    @staticmethod
    def mask_slots(models):
        slots = models.slots
        windows = (models.image_window, models.fill_window, models.refill_window)
        firsts = (slots.image, slots.fill, slots.refill)
        return tuple((first + 2, w.array_survival) for first, w in zip(firsts, windows))

    @pytest.mark.parametrize("changes", [
        {"lifetime_array_s": 4.0},
        {"t_image": 0.2, "t_analysis_fill": 0.08, "t_buffer_refill": 0.05, "t_image_loss": 0.1},
    ])
    def test_replace_re_decides_the_mask_slots(self, changes):
        models = models_with()
        replaced = dataclasses.replace(models, **changes)
        assert replaced.slots is not models.slots
        assert replaced.slots.masks == self.mask_slots(replaced)
        # every window's survival moved, and its mask slot with it
        old, new = models.slots.masks, replaced.slots.masks
        assert [slot for slot, _ in new] == [slot for slot, _ in old]
        assert all(p != q for (_, p), (_, q) in zip(new, old))

    def test_replace_re_decides_the_offsets(self):
        models = models_with()
        replaced = dataclasses.replace(models, layout=hex_layout())
        slots = replaced.slots
        assert isinstance(slots, RowForm)
        assert (slots.n_moves, slots.fill, slots.refill, slots.length) == (40, 83, 166, 169)
        assert list(slots.buffers) == list(replaced.layout.buffer_ids)
        assert slots.width == 3 * 93 + 2 * 40 + 2 * 40 != models.slots.width
        assert slots.n_bits == 91
        assert slots.masks == self.mask_slots(replaced)

    @pytest.mark.parametrize(
        "owner,field",
        [
            (None, "reservoir_mean"),
            (None, "lifetime_array_s"),
            (None, "p_transport"),
            (None, "p_blockade"),
            (None, "t_image"),
            ("layout", "scan_range"),
            # the run keys: a run reads them as the checked config holds them
            (None, "n_cycles"),
            (None, "n_replicas"),
            (None, "ci_method"),
        ],
    )
    def test_models_are_frozen(self, owner, field):
        models = models_with()
        target = models if owner is None else getattr(models, owner)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, field, 1.0)

    def test_target_and_buffer_bits_cover_their_sites(self):
        layout = two_site_layout()
        assert (layout.buffer_bits, layout.target_bits) == (0b01, 0b10)
        reference = models_with()
        assert reference.layout.buffer_bits == bits(reference, *range(7)) == 0x7F
        assert reference.layout.target_bits == bits(reference, *range(7, 13)) == 0x1F80
        big = ExperimentConfig(layout=hex_layout())
        assert big.layout.buffer_bits & big.layout.target_bits == 0
        assert big.layout.buffer_bits | big.layout.target_bits == (1 << 91) - 1
        assert big.layout.target_bits == bits(big, *big.layout.target_ids)


def test_init_sequence_state():
    models = models_with()
    state = init_sequence(models, RngStream(1, 0))
    assert state.clock == pytest.approx(1.86)
    assert state.cycle_index == 0
    assert state.truth == 0
    assert state.belief == 0
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


def test_site_ids_need_not_start_at_zero():
    # ids shifted by one keep every order, so the run is the same
    reference = models_with(master_seed=21, n_cycles=5)
    layout = reference.layout
    shifted = dataclasses.replace(
        layout, sites=tuple(dataclasses.replace(s, id=s.id + 1) for s in layout.sites)
    )
    assert shifted.site_bits == {sid + 1: bit for sid, bit in layout.site_bits.items()}
    logs = EventLog(), EventLog()
    records = [
        run_realization(models, log=log)
        for models, log in zip((reference, dataclasses.replace(reference, layout=shifted)), logs)
    ]
    assert records[0] == records[1]
    assert [row[5:7] for row in logs[0].rows] == [row[5:7] for row in logs[1].rows]


def test_step_image_syncs_belief():
    models = models_with(**DEGENERATE)
    rng = RngStream(4, 0)
    state = init_sequence(models, rng)
    rng.next_row(models.slots)  # the cycle's row, as run_cycle draws it
    state.truth |= bits(models, 5)  # belief lags until the image
    assert state.belief == 0
    clock0 = state.clock
    assert step_image(state, models, rng) is None
    assert state.belief == state.truth
    assert state.truth == bits(models, 5)
    assert state.clock == pytest.approx(clock0 + models.t_image)


class TestFillStep:
    def test_lose_mode_drops_atom(self):
        models = models_with(**DEGENERATE | dict(p_transport=0.0, p_stay_on_failure=0.0))
        rng = RngStream(7, 0)
        state = init_sequence(models, rng)
        rng.next_row(models.slots)  # the cycle's row, as run_cycle draws it
        state.truth = state.belief = bits(models, 0)
        plan = (Move(0, 7, 10.0),)
        step_fill_targets(state, plan, models, rng)
        assert state.truth == 0
        assert state.counters.transport_loss == 1

    def test_stay_mode_keeps_atom_in_source(self):
        models = models_with(**DEGENERATE | dict(p_transport=0.0, p_stay_on_failure=1.0))
        rng = RngStream(8, 0)
        state = init_sequence(models, rng)
        rng.next_row(models.slots)  # the cycle's row, as run_cycle draws it
        state.truth = state.belief = bits(models, 0)
        plan = (Move(0, 7, 10.0),)
        step_fill_targets(state, plan, models, rng)
        assert state.truth == bits(models, 0)
        assert state.counters.transport_loss == 0
        # belief still claims the move happened; the next image corrects it
        assert state.belief == bits(models, 7)

    @pytest.mark.parametrize("p_stay,loss", [(1.0, 0), (0.0, 1)])
    def test_mixed_mode_extremes(self, p_stay, loss):
        # at 0 and 1 the outcome is certain, whatever the retention slot holds
        models = models_with(**DEGENERATE | dict(
            p_transport=0.0, p_stay_on_failure=p_stay,
        ))
        for retention in (0.0, 1.0 - 2.0**-53):
            rng = RngStream(9, 0)
            state = init_sequence(models, rng)
            row = list(rng.next_row(models.slots))
            row[models.slots.moves + 1] = retention
            rng.row = tuple(row)
            state.truth = state.belief = bits(models, 0)
            plan = (Move(0, 7, 10.0),)
            step_fill_targets(state, plan, models, rng)
            assert state.counters.transport_loss == loss
            assert state.truth == (bits(models, 0) if loss == 0 else 0)

    def test_transport_into_occupied_site_raises(self):
        # the step trusts its plan; a move into a truly full trap merges two
        # atoms into one, and the atom balance is the check that catches it
        models = models_with(**DEGENERATE)
        rng = RngStream(10, 0)
        state = init_sequence(models, rng)
        rng.next_row(models.slots)  # the cycle's row, as run_cycle draws it
        state.truth = state.belief = bits(models, 0)
        state.truth |= bits(models, 7)  # desynced: belief says empty
        state.n_initial_reservoir += 2  # both atoms supplied by the load
        check_conservation(state)
        plan = (Move(0, 7, 10.0),)
        step_fill_targets(state, plan, models, rng)
        supplied = state.n_initial_reservoir
        with pytest.raises(EngineError, match=(
            f"atom conservation violated: supplied {supplied} != accounted {supplied - 1} "
        )):
            check_conservation(state)


class TestRefillStep:
    def test_conflict_on_believed_occupied(self):
        # the step trusts its order, which the planner builds from believed-
        # empty buffers, and reads only truth for each listed site: a full
        # one is skipped, a stale-belief empty one is refilled; belief is
        # left as it was and the atom balance holds
        models = models_with(**DEGENERATE)
        rng = RngStream(11, 0)
        state = init_sequence(models, rng)
        rng.next_row(models.slots)  # the cycle's row, as run_cycle draws it
        state.truth = bits(models, 3)
        state.n_initial_reservoir += 1
        state.belief = bits(models, 3, 4)
        log = EventLog()
        step_refill_buffers(state, [3, 4], models, rng, log)
        assert [(row[8], row[11]) for row in log.rows] == [(3, "skip"), (4, "delivered")]
        assert state.truth == bits(models, 3, 4)
        assert state.belief == bits(models, 3, 4)
        assert state.counters.delivered == 1
        check_conservation(state)

    def test_skip_leaves_reservoir_alone(self):
        models = models_with(**DEGENERATE)
        rng = RngStream(12, 0)
        state = init_sequence(models, rng)
        rng.next_row(models.slots)  # the cycle's row, as run_cycle draws it
        state.truth |= bits(models, 3)  # atom parked by an earlier failed retry
        n0 = state.n_reservoir
        log = EventLog()
        assert step_refill_buffers(state, [3], models, rng, log) is None
        assert state.truth == bits(models, 3)
        assert state.n_reservoir == n0
        assert state.counters.extracted == 0
        assert log.rows[-1][-1] == "skip"

    def test_empty_reservoir_takes_no_draw(self, monkeypatch):
        models = models_with()
        rng = RngStream(15, 0)
        state = init_sequence(models, rng)
        rng.next_row(models.slots)  # the cycle's row, as run_cycle draws it
        state.n_reservoir = state.n_initial_reservoir = 0
        refill_list = list(models.layout.refill_order)

        def no_extraction(*args):
            raise AssertionError("an empty reservoir took an extraction draw")

        monkeypatch.setattr(engine, "sample_extraction", no_extraction)
        before = rng._gen.bit_generator.state
        log = EventLog()
        step_refill_buffers(state, refill_list, models, rng, log)
        assert rng._gen.bit_generator.state == before
        assert [(row[8], row[11]) for row in log.rows] == [
            (sid, "empty") for sid in refill_list
        ]
        assert state.counters == Counters()
        check_conservation(state)

    def test_delivery_updates_truth_not_belief(self):
        models = models_with(**DEGENERATE)
        rng = RngStream(13, 0)
        state = init_sequence(models, rng)
        rng.next_row(models.slots)  # the cycle's row, as run_cycle draws it
        step_refill_buffers(state, [3, 4], models, rng)
        assert state.truth == bits(models, 3, 4)
        assert state.belief == 0
        c = state.counters
        assert c.delivered == 2
        assert c.extracted >= 2
        assert c.blockade_loss == c.extracted - c.delivered


class FixedGenerator:
    """Hands out one given row of uniforms as its next ``(1, width)`` block."""

    def __init__(self, row):
        self.row = row

    def random(self, shape):
        assert shape == (1, len(self.row))
        return np.array([self.row])


@functools.cache
def layout_models(name):
    return models_with(**({"layout": hex_layout()} if name == "hex-91" else {}))


@pytest.mark.parametrize("name", ["reference", "hex-91"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loss_masks_apply_the_per_site_rule(name, data):
    # three windows of distinct survival probabilities; each uniform of the
    # row is a random one, exactly some window's p or the float just below it
    models = layout_models(name)
    n_sites = len(models.layout.site_ids)
    survivals = data.draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3, unique=True))
    form = CycleSlots(models.layout, [DecayWindow(1.0, p, 1.0, 0.0) for p in survivals])
    firsts = (form.image, form.fill, form.refill)
    edges = [v for p in survivals for v in (p, math.nextafter(p, 0.0))]
    pick = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    row = [
        edges[k] if k < len(edges) else u
        for k, u in zip(pick.integers(0, 2 * len(edges), form.width), pick.random(form.width))
    ]
    for first, p in zip(firsts, survivals):  # every window sees both edges
        column = form.columns[first + 2]
        row[column:column + 2] = p, math.nextafter(p, 0.0)
    truths = data.draw(st.lists(st.integers(0, (1 << n_sites) - 1), min_size=3, max_size=3))
    rng = RngStream(0)
    rng._gen = FixedGenerator(row)
    rng.next_row(form)
    state = SystemState(truth=0, belief=0, n_reservoir=0, clock=0.0, replica=0)
    for first, p, truth in zip(firsts, survivals, truths):
        column = form.columns[first + 2]
        kept = sum(
            1 << i for i in range(n_sites) if truth >> i & 1 and row[column + i] < p
        )
        lost = state.counters.array_decay_loss + (truth ^ kept).bit_count()
        state.truth = truth
        engine._decay_step(state, DecayWindow(1.0, p, 1.0, 0.0), rng, first)
        assert (state.truth, state.counters.array_decay_loss) == (kept, lost)


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


def test_cycle_record_is_an_immutable_tuple_of_fixed_fields():
    # the engine builds records positionally and the harness reads them
    # by transposition, so the field order is part of the contract
    assert CycleRecord._fields == (
        "cycle_index", "target_complete", "n_buffer_filled",
        "n_target_filled", "n_reservoir", "clock_at_image",
        "extracted_cum", "delivered_cum", "reservoir_decay_cum",
    )
    models = models_with()
    state = init_sequence(models, RngStream(3))
    record = run_cycle(state, models, RngStream(3))
    assert isinstance(record, tuple) and record[0] == record.cycle_index == 1
    with pytest.raises(AttributeError):
        record.n_reservoir = 0


def test_cycle_clock_spacing():
    records = run_realization(ExperimentConfig(master_seed=16, n_cycles=5))
    clocks = [r.clock_at_image for r in records]
    for a, b in zip(clocks, clocks[1:]):
        assert b - a == pytest.approx(0.230)


class RecordingGenerator:
    """A generator that keeps a copy of every uniform it draws."""

    def __init__(self, generator, uniforms):
        self.bit_generator = generator.bit_generator
        self._random = generator.random
        self._uniforms = uniforms

    def random(self, *shape):
        drawn = self._random(*shape)
        self._uniforms.extend(np.ravel(drawn).tolist())
        return drawn


class RecordingStream(RngStream):
    """A stream that keeps every uniform its generator draws and every row
    it hands out."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.uniforms, self.rows = [], []
        self._gen = RecordingGenerator(self._gen, self.uniforms)
        RecordingStream.made.append(self)

    def next_row(self, form):
        row = super().next_row(form)
        self.rows.append(row)
        return row


def recorded_stream(monkeypatch, models, replica=0):
    """The stream ``run_realization`` read, with the rows it handed out."""
    RecordingStream.made = []
    monkeypatch.setattr(engine, "RngStream", RecordingStream)
    run_realization(models, replica=replica)
    (rng,) = RecordingStream.made
    return rng


def row_by_the_per_site_rule(models, uniforms):
    """The row a cycle's ``uniforms`` hand out, built slot by slot: a loss
    mask sets bit ``i`` where an atom at occupancy bit ``i`` would not
    survive, its uniform not below the window's array survival."""
    slots, n_sites = models.slots, len(models.layout.site_ids)
    survival = {
        slots.image + 2: models.image_window.array_survival,
        slots.fill + 2: models.fill_window.array_survival,
        slots.refill + 2: models.refill_window.array_survival,
    }
    row, rest = [], iter(uniforms)
    for slot in range(slots.length):
        if slot in survival:
            sites = [next(rest) for _ in range(n_sites)]
            row.append(sum(1 << i for i, u in enumerate(sites) if not u < survival[slot]))
        else:
            row.append(next(rest))
    assert next(rest, None) is None
    return tuple(row)


@pytest.mark.parametrize(
    "overrides,width",
    [({}, 71), ({"layout": hex_layout()}, 3 * 93 + 2 * 40 + 2 * 40)],  # 40 buffers, 51 targets
)
@pytest.mark.parametrize("n_cycles", [2, 16, 130])
def test_realization_reads_one_leading_uniform_and_one_row_per_cycle(
    monkeypatch, overrides, width, n_cycles
):
    # n_cycles engine cycles, the least a config runs being 2; 130 cycles
    # take three chunks of rows: 64, 64 and 2
    models = models_with(**overrides, master_seed=42, n_cycles=n_cycles - 1)
    assert models.slots.width == width
    rng = recorded_stream(monkeypatch, models, replica=7)
    fresh = np.random.Generator(np.random.PCG64(np.random.SeedSequence((42, 7))))
    expected = fresh.random(1 + width * n_cycles).tolist()
    assert rng.cycle == len(rng.rows) == n_cycles
    assert rng.uniforms == expected
    # each row is handed out as the per-site rule reads its uniforms
    for cycle, row in enumerate(rng.rows):
        uniforms = expected[1 + width * cycle:1 + width * (cycle + 1)]
        assert row == row_by_the_per_site_rule(models, uniforms)
    # and no uniform beyond them was drawn
    assert rng._gen.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize(
    "outcomes",
    [
        ({"p_transport": 0.0}, {"p_transport": 1.0}),
        ({"lifetime_array_s": math.inf}, {"lifetime_array_s": 0.5}),
    ],
)
def test_configs_differing_in_outcomes_read_identical_rows(monkeypatch, outcomes):
    streams, records = [], []
    for overrides in outcomes:
        models = models_with(**overrides, master_seed=5, n_cycles=19)
        streams.append(recorded_stream(monkeypatch, models, replica=3))
        records.append(run_realization(models, replica=3))
    assert records[0] != records[1]  # the outcomes differ
    assert streams[0].uniforms == streams[1].uniforms
    assert streams[0]._gen.bit_generator.state == streams[1]._gen.bit_generator.state


def test_cycle_slots_tile_the_row():
    # every slot of the row belongs to exactly one draw, and every uniform
    # of the full row to exactly one slot
    for layout in (None, hex_layout()):
        models = models_with(**({} if layout is None else {"layout": layout}))
        slots, n_sites = models.slots, len(models.layout.site_ids)
        owned = []
        for first in (slots.image, slots.fill, slots.refill):
            owned += range(first, first + 3)
        owned += range(slots.moves, slots.moves + 2 * slots.n_moves)
        for first in slots.buffers.values():
            owned += (first, first + 1)
        assert sorted(owned) == list(range(slots.length))
        assert list(slots.buffers) == list(models.layout.buffer_ids)
        masks = {slots.image + 2, slots.fill + 2, slots.refill + 2}
        assert [slot for slot, _ in slots.masks] == sorted(masks)
        assert slots.n_bits == n_sites
        spans = [n_sites if slot in masks else 1 for slot in range(slots.length)]
        assert list(slots.columns) == [sum(spans[:slot]) for slot in range(slots.length)]
        assert slots.width == sum(spans)


def test_run_realization_deterministic():
    models = ExperimentConfig(master_seed=17, n_cycles=4)
    a = run_realization(models, replica=3)
    b = run_realization(models, replica=3)
    assert a == b
    c = run_realization(models, replica=4)
    assert a != c


def test_degenerate_trace_exact():
    cfg = models_with(**DEGENERATE, master_seed=18, n_cycles=3)
    records = run_realization(cfg)
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
    run_realization(ExperimentConfig(master_seed=19, n_cycles=1), log=log)
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
    models = ExperimentConfig(t_ramp=100e-6, t_move=250e-6, master_seed=19, n_cycles=3)
    log = EventLog()
    run_realization(models, log=log)
    duration = models.move_duration
    assert duration == pytest.approx(450e-6)
    moves = [row for row in log.rows if row[2] == "fill" and row[7] != ""]
    assert moves
    assert all(row[10] == duration for row in moves)
    assert all(row[10] == "" for row in log.rows if row[2] != "fill" or row[7] == "")


def test_refill_hook_feeds_reservoir():
    cfg = models_with(refill_rate=20.0, master_seed=20, n_cycles=9)
    log = EventLog()
    records = run_realization(cfg, log=log)
    assert records[-1].n_reservoir > 0
    # conservation ran inside every cycle; the hook must have fired
    final_res = [row[4] for row in log.rows][-1]
    assert final_res >= 0


# one buffer beside one target, and 91 sites whose masks pass 63 bits
KIND_LAYOUTS = {
    "two-site": two_site_layout(),
    "hex-91": hex_layout(),
}


@settings(max_examples=40, deadline=None)
@given(
    layout=st.sampled_from(sorted(KIND_LAYOUTS)),
    fill_strategy=st.sampled_from(["global", "per-vacancy"]),
    p_stay_on_failure=st.sampled_from([0.0, 0.6667, 1.0]),
    refill_rate=st.sampled_from([0.0, 20.0]),
    whole_second_preparation=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
    replica=st.integers(0, 2**20),
    n_cycles=st.integers(1, 5),
)
def test_log_values_have_exactly_their_declared_kind(
    layout, fill_strategy, p_stay_on_failure, refill_rate,
    whole_second_preparation, seed, replica, n_cycles,
):
    # the events writer memoises each column by value, which is sound only
    # while every value is a str or exactly the declared type: True == 1
    # and 1 == 1.0, yet each prints differently
    timing = dict(t_mot=2, t_molasses=0, t_reservoir_transfer=0) if whole_second_preparation else {}
    cfg = ExperimentConfig(
        layout=KIND_LAYOUTS[layout], fill_strategy=fill_strategy,
        p_stay_on_failure=p_stay_on_failure, refill_rate=refill_rate,
        master_seed=seed, n_cycles=n_cycles, **timing,
    )
    log = EventLog()
    run_realization(cfg, replica=replica, log=log)
    for (name, kind), column in zip(EventLog.KINDS.items(), log.columns):
        strays = [v for v in column if type(v) is not str and type(v) is not kind]
        assert not strays, (name, kind, strays[:3])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_counters_monotone_and_reservoir_nonnegative(seed):
    log = EventLog()
    records = run_realization(ExperimentConfig(master_seed=seed, n_cycles=3), log=log)
    assert len(records) == 4
    for prev, cur in zip(records, records[1:]):
        assert cur.extracted_cum >= prev.extracted_cum
        assert cur.delivered_cum >= prev.delivered_cum
        assert cur.reservoir_decay_cum >= prev.reservoir_decay_cum
        assert cur.n_reservoir >= 0
    for row in log.rows:
        assert row[4] >= 0


def test_event_log_retains_at_most_120_bytes_per_row():
    models = ExperimentConfig(master_seed=5)  # 16 engine cycles
    replicas = range(300)
    for replica in replicas:  # fill the layout's plan memo before measuring
        run_realization(models, replica=replica)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = EventLog()
        for replica in replicas:
            run_realization(models, replica=replica, log=log)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) > 30_000
    assert retained / len(log) <= 120


def test_event_log_rows_keep_their_types():
    log = EventLog()
    run_realization(ExperimentConfig(master_seed=19, n_cycles=5), log=log)
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
    return ExperimentConfig(layout=hex_layout())


def test_event_log_masks_exact_past_63_sites():
    models = big_hex_models()
    layout = models.layout
    assert len(layout.site_ids) > 63
    state = init_sequence(models, RngStream(3, 0))
    log = EventLog()
    log.add(*engine._state_row(state, "init"))  # fits the unboxed column
    top, low = layout.site_ids[-1], layout.site_ids[0]
    state.truth = bits(models, top, low)
    state.belief = bits(models, low)
    state.cycle_index = 1
    log.add(*engine._state_row(state, "image"))  # truth past 63 bits, belief not
    state.belief = state.truth
    log.add(*engine._state_row(state, "image"))
    truth_masks = [row[5] for row in log.rows]
    belief_masks = [row[6] for row in log.rows]
    small = layout.site_bits[low]
    big = layout.site_bits[top] | small
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


def test_streaming_event_log_hands_wide_masks_to_the_sink_exactly():
    models = big_hex_models()
    layout = models.layout
    state = init_sequence(models, RngStream(3, 0))
    sink = RecordingSink()
    log = EventLog(sink)
    top = layout.site_ids[-1]
    state.truth = bits(models, top)
    log.add(*engine._state_row(state, "image"))  # a truth mask past 63 bits
    memory = EventLog()
    memory.add(*engine._state_row(state, "image"))
    wide = layout.site_bits[top]
    assert memory.columns[5] == [wide] and memory.rows[0][5] == wide
    log.flush(2)  # one row buffered: kept
    assert sink.blocks == [] and len(log) == 1
    state.truth = 0
    log.add(*engine._state_row(state, "image"))
    log.flush(2)
    assert len(sink.blocks) == 1 and len(log) == 2 and log.rows == []
    assert sink.blocks[0][5] == [wide, 0]
    log.add(*engine._state_row(state, "init"))  # later rows stream as before
    log.close()
    assert sink.closed and len(log) == 3
    assert [block[2] for block in sink.blocks] == [["image", "image"], ["init"]]


def test_event_log_masks_match_records_past_63_sites():
    models = ExperimentConfig(layout=hex_layout(), master_seed=8, n_cycles=3)
    layout = models.layout
    target_bits = sum(layout.site_bits[t] for t in layout.target_ids)
    log = EventLog()
    records = run_realization(models, log=log)
    images = [row for row in log.rows if row[2] == "image"]
    assert max(row[5] for row in images) >= 1 << 63
    for row, record in zip(images, records):
        assert row[5] == row[6]
        assert bin(row[5] & target_bits).count("1") == record.n_target_filled
