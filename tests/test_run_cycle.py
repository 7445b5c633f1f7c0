"""``engine.run_cycle``, one pass over locals, against its scalar reference:
``oracles.reference_cycle``, the cycle composed of the engine's step
functions. Both run from equal states on equal streams and must agree bit
for bit, cycle by cycle, and raise the same errors."""

import dataclasses
import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from tweezersim import engine
from tweezersim.config import ExperimentConfig
from tweezersim.engine import (
    EngineError,
    EventLog,
    PlanConflictError,
    init_sequence,
    run_cycle,
)
from tweezersim.geometry import MaskOccupancy
from tweezersim.planner import Move, plan_target_fill
from tweezersim.stochastic import RngStream

from conftest import hex_layout, two_site_layout
from oracles import reference_cycle
from test_engine import DEGENERATE, bits

OUTCOMES = {"ok", "stay", "lost", "null", "delivered", "blocked", "empty", "skip"}


def fresh_reference_layout():
    """The reference layout as a new object, with memos of its own."""
    return dataclasses.replace(ExperimentConfig().layout)


@functools.cache
def chained_layout():
    """The reference layout with every global fill plan memoised, each
    followed where it leaves room by one more move: from the plan's first
    destination to a target the plan leaves empty. Belief marks that source
    occupied, so the move passes every check; truth holds no atom there when
    the first move failed, and the move runs as a null transport."""
    layout = fresh_reference_layout()
    bits = layout.site_bits
    n_moves = min(len(layout.target_ids), len(layout.buffer_ids))
    chained = {}
    for mask in range(1 << len(layout.site_ids)):
        plan = plan_target_fill(MaskOccupancy(layout, mask))
        after = mask
        for src, dst, _ in plan:
            after ^= bits[src] | bits[dst]
        empty = [t for t in layout.target_ids if not after & bits[t]]
        if plan and empty and len(plan) < n_moves:
            first = plan[0].dst
            plan += (Move(first, empty[0], layout.site_distance(first, empty[0])),)
        chained[mask, "global"] = plan
    layout.plan_memo.clear()
    layout.plan_memo.update(chained)
    return layout


LAYOUTS = {
    "reference": lambda: ExperimentConfig().layout,
    "chained": chained_layout,
    "two-site": two_site_layout,
    "hex-91": hex_layout,
}


@functools.cache
def layout_named(name):
    return LAYOUTS[name]()


def run_both(models, seed, replica, n_cycles, truth=0, log=True):
    """Run ``n_cycles`` of both cycles from equal states on equal streams
    and assert them equal after every cycle: the record, the whole state
    (its counters included) and, where ``run_cycle`` logs too, the event
    rows, each compared by ``repr`` so a value of another type or sign
    differs too. ``truth`` seeds both states' array, supplied as if by the
    initial load. Returns the reference's event log."""
    logs = (EventLog() if log else None, EventLog())
    runs = []
    for cycle, log_ in zip((run_cycle, reference_cycle), logs):
        rng = RngStream(seed, replica, n_rows=n_cycles)
        state = init_sequence(models, rng)
        state.truth = truth
        state.n_initial_reservoir += truth.bit_count()
        runs.append((cycle, state, rng, log_))
    for _ in range(n_cycles):
        records = [cycle(state, models, rng, log_) for cycle, state, rng, log_ in runs]
        assert repr(records[0]) == repr(records[1])
        assert repr(runs[0][1]) == repr(runs[1][1])
        if log:
            assert repr(logs[0].rows) == repr(logs[1].rows)
    return logs[1]


# Two fixed examples that between them make all eight outcomes, whatever
# the drawn ones make: failed first moves on the chained layout (stay, lost,
# null, then skip, delivered, blocked, empty) and successful ones (ok).
EXAMPLE = dict(
    lifetime_array_s=10.0, lifetime_reservoir_s=5.0, p_stay_on_failure=2 / 3,
    p_blockade_plateau=0.5, mean_ensemble_at_full=3.0, reservoir_mean=60.0,
    refill_rate=2.5, fill_strategy="global", t_image_loss=None,
    seed=7, replica=0, n_cycles=10, log=True,
)


def test_run_cycle_equals_the_reference_cycle():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @example(layout="chained", p_transport=0.0, start=0b111, **EXAMPLE)
    @example(layout="reference", p_transport=0.753, start=0, **EXAMPLE)
    @given(
        layout=st.sampled_from(sorted(LAYOUTS)),
        lifetime_array_s=st.floats(2.0, 30.0),
        lifetime_reservoir_s=st.floats(2.0, 10.0),
        p_transport=st.sampled_from([0.0, 0.753, 1.0]) | st.floats(0.3, 1.0),
        p_stay_on_failure=st.sampled_from([0.0, 2 / 3, 1.0]) | st.floats(0.0, 1.0),
        p_blockade_plateau=st.floats(0.3, 0.7),
        mean_ensemble_at_full=st.floats(3.0, 20.0),
        reservoir_mean=st.floats(20.0, 120.0),
        # 5 atoms/s and below leave every window's refill mean fractional
        refill_rate=st.sampled_from([0.0, 100.0]) | st.floats(0.0, 5.0),
        fill_strategy=st.sampled_from(["global", "per-vacancy"]),
        # 0 makes the image window a zero-length one
        t_image_loss=st.sampled_from([None, 0.1, 0.0]),
        seed=st.integers(0, 2**31 - 1),
        replica=st.integers(0, 2**20),
        n_cycles=st.integers(1, 10),
        start=st.integers(0, 2**91 - 1),
        log=st.booleans(),
    )
    def check(layout, seed, replica, n_cycles, start, log, **keys):
        if layout == "chained":
            keys["fill_strategy"] = "global"  # the strategy of the chained plans
        models = ExperimentConfig(layout=layout_named(layout), **keys)
        truth = start & ((1 << len(models.layout.site_ids)) - 1)
        rows = run_both(models, seed, replica, n_cycles, truth, log).rows
        seen.update(row[11] for row in rows if row[11])

    check()
    assert seen == OUTCOMES, OUTCOMES - seen


@pytest.mark.parametrize("t_image_loss,windows", [(0.0, 2), (0.1, 3)])
def test_a_zero_length_window_takes_no_decay_draw(monkeypatch, t_image_loss, windows):
    calls = []
    decay = engine.reservoir_decay

    def counted(rng, n_atoms, window, slot):
        calls.append(window.length)
        return decay(rng, n_atoms, window, slot)

    monkeypatch.setattr(engine, "reservoir_decay", counted)
    models = ExperimentConfig(t_image_loss=t_image_loss, refill_rate=7.0)
    rng = RngStream(3, 0, n_rows=4)
    state = init_sequence(models, rng)
    for _ in range(4):
        run_cycle(state, models, rng)
    assert len(calls) == 4 * windows and all(length > 0.0 for length in calls)


# -- the guards the single pass keeps -----------------------------------------

def guarded_models():
    """A lossless config on a layout of its own, whose memos a test may fill."""
    return ExperimentConfig(layout=fresh_reference_layout(), **DEGENERATE)


def first_cycle_errors(models, truth, error):
    """The errors the first cycle of each engine raises from a state whose
    array holds ``truth``."""
    texts = []
    for cycle in (run_cycle, reference_cycle):
        rng = RngStream(5, 0, n_rows=1)
        state = init_sequence(models, rng)
        state.truth = truth
        state.n_initial_reservoir += truth.bit_count()
        with pytest.raises(error) as raised:
            cycle(state, models, rng, EventLog())
        texts.append(str(raised.value))
    assert texts[0] == texts[1]
    return texts[0]


@pytest.mark.parametrize("occupied,plan,words", [
    ((), (Move(0, 7, 10.0),), "fill plan sources site 0 which belief marks empty"),
    ((0, 7), (Move(0, 7, 10.0),), "fill plan targets site 7 which belief marks occupied"),
    (range(7), tuple(Move(b, b + 6, 10.0) for b in range(7)),
     "fill plan has 7 moves; a cycle holds at most 6"),
], ids=["believed_empty_source", "believed_occupied_target", "too_many_moves"])
def test_run_cycle_refuses_a_bad_fill_plan(occupied, plan, words):
    models = guarded_models()
    truth = bits(models, *occupied)
    models.layout.plan_memo[truth, "global"] = plan
    assert first_cycle_errors(models, truth, PlanConflictError) == words


def test_run_cycle_refuses_a_believed_occupied_refill_site():
    models = guarded_models()
    layout = models.layout
    full = layout.buffer_bits | layout.target_bits  # nothing to fill
    layout.refill_memo[layout.buffer_bits] = (3,)
    text = first_cycle_errors(models, full, PlanConflictError)
    assert text == "refill list contains site 3 which belief marks occupied"


def test_run_cycle_checks_conservation_every_cycle(monkeypatch):
    # an extraction that delivers an atom it never removed keeps the atom
    # balance, so only the delivered <= extracted check catches it
    monkeypatch.setattr(engine, "sample_extraction", lambda *args: (0, True))
    text = first_cycle_errors(guarded_models(), 0, EngineError)
    assert text == "delivered exceeds extracted"
