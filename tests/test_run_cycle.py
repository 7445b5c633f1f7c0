"""``engine.run_cycle``, one pass over locals, against its scalar reference:
``oracles.reference_cycle``, the cycle composed of the engine's step
functions. Both run from equal states on equal streams and must agree bit
for bit, cycle by cycle, and raise the same errors."""

import dataclasses
import functools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from tweezersim import engine
from tweezersim.config import ExperimentConfig
from tweezersim.engine import EngineError, EventLog, init_sequence, run_cycle
from tweezersim.geometry import MaskOccupancy
from tweezersim.planner import Move, plan_target_fill
from tweezersim.stochastic import RngStream

from conftest import hex_layout, two_site_layout
from oracles import reference_cycle
from test_engine import DEGENERATE, bits

OUTCOMES = {"ok", "stay", "lost", "delivered", "blocked", "empty", "skip"}


def fresh_reference_layout():
    """The reference layout as a new object, with memos of its own."""
    return dataclasses.replace(ExperimentConfig().layout)


LAYOUTS = {
    "reference": lambda: ExperimentConfig().layout,
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


# Two fixed examples that between them make all seven outcomes, whatever
# the drawn ones make: failed moves out of a full start (stay, lost, then
# skip, delivered, blocked, empty) and successful ones (ok).
EXAMPLE = dict(
    lifetime_array_s=10.0, lifetime_reservoir_s=5.0, p_stay_on_failure=2 / 3,
    p_blockade_plateau=0.5, mean_ensemble_at_full=3.0, reservoir_mean=60.0,
    refill_rate=2.5, fill_strategy="global", t_image_loss=None,
    seed=7, replica=0, n_cycles=10, log=True,
)


def test_run_cycle_equals_the_reference_cycle():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @example(layout="reference", p_transport=0.0, start=0b111, **EXAMPLE)
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
        models = ExperimentConfig(layout=layout_named(layout), **keys)
        truth = start & ((1 << len(models.layout.site_ids)) - 1)
        rows = run_both(models, seed, replica, n_cycles, truth, log).rows
        seen.update(row[11] for row in rows if row[11])

    check()
    assert seen == OUTCOMES, OUTCOMES - seen


@pytest.mark.parametrize("t_image_loss,changes", [(0.0, False), (0.1, True)])
def test_a_zero_length_window_changes_nothing(t_image_loss, changes):
    # each cycle's record is read right after its image window: a
    # zero-length one, run with the refill on, leaves the array, the
    # reservoir and its decay ledger as the last cycle left them, where a
    # 0.1 s one loses and adds atoms
    models = ExperimentConfig(t_image_loss=t_image_loss, refill_rate=7.0)
    layout = models.layout
    rng = RngStream(3, 0, n_rows=40)
    state = init_sequence(models, rng)
    changed = []
    for _ in range(40):
        before = (
            (state.truth & layout.buffer_bits).bit_count(),
            (state.truth & layout.target_bits).bit_count(),
            state.n_reservoir, state.counters.reservoir_decay_loss,
        )
        record = run_cycle(state, models, rng)
        changed.append(before != (
            record.n_buffer_filled, record.n_target_filled,
            record.n_reservoir, record.reservoir_decay_cum,
        ))
    assert any(changed) == changes


def test_zero_length_windows_run_as_the_reference_and_decay_nothing():
    # every window of the cycle zero-length, the refill on: run_cycle runs
    # each window, the reference skips each one, and they agree; no atom
    # decays out of the array or the reservoir and the refill adds none
    models = ExperimentConfig(
        t_image=0.0, t_analysis_fill=0.0, t_buffer_refill=0.0, t_ramp=0.0,
        t_move=0.0, refill_rate=7.0,
    )
    windows = (models.image_window, models.fill_window, models.refill_window)
    assert all(window.length == 0.0 for window in windows)
    for replica in range(4):
        runs = []
        for cycle in (run_cycle, reference_cycle):
            rng, log = RngStream(11, replica, n_rows=30), EventLog()
            state = init_sequence(models, rng)
            records = [cycle(state, models, rng, log) for _ in range(30)]
            runs.append(repr((records, state, log.rows)))
            c = state.counters
            assert (c.array_decay_loss, c.reservoir_decay_loss, c.refilled) == (0, 0, 0)
            assert c.delivered > 0  # the cycles did load atoms
        assert runs[0] == runs[1]


# -- the checks the single pass keeps -----------------------------------------

def guarded_models(**keys):
    """A lossless config on a layout of its own, whose memos a test may fill."""
    return ExperimentConfig(layout=fresh_reference_layout(), **DEGENERATE | keys)


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


def chained(models, mask):
    """The planner's plan for ``mask`` and one more move, out of its first
    destination into a target it leaves empty: after a failed first move
    that source holds no atom."""
    layout, bits = models.layout, models.layout.site_bits
    plan = plan_target_fill(MaskOccupancy(layout, mask))
    filled = mask | sum(bits[m.dst] for m in plan)
    first = plan[0].dst
    empty = next(t for t in layout.target_ids if not filled & bits[t])
    return plan + (Move(first, empty, layout.site_distance(first, empty)),)


# Plans the planner refuses to make (tests/test_planner.py), planted in the
# memo: conservation, checked at the end of every cycle, is the backstop. A
# move out of an empty trap makes an atom, a move into a full one loses one.
@pytest.mark.parametrize("occupied,plan,p_transport,excess", [
    ((), (Move(0, 7, 10.0),), 1.0, 2),
    ((0, 7), (Move(0, 7, 10.0),), 1.0, -1),
    (range(7), tuple(Move(b, b + 6, 10.0) for b in range(7)), 1.0, -1),
    ((0, 1, 2), chained, 0.0, 1),
], ids=["believed_empty_source", "believed_occupied_target", "too_many_moves", "chained"])
def test_run_cycle_refuses_a_bad_fill_plan(occupied, plan, p_transport, excess):
    models = guarded_models(p_transport=p_transport)
    truth = bits(models, *occupied)
    if callable(plan):
        plan = plan(models, truth)
    models.layout.plan_memo[truth, "global"] = plan
    text = first_cycle_errors(models, truth, EngineError)
    supplied, accounted = map(int, re.match(
        r"atom conservation violated: supplied (\d+) != accounted (\d+) ", text
    ).groups())
    assert accounted - supplied == excess


def test_run_cycle_refuses_a_believed_occupied_refill_site():
    # a refill order naming a full buffer, planted in the memo: both cycles
    # skip the site without an extraction, and the atom balance holds
    models = guarded_models()
    layout = models.layout
    full = layout.buffer_bits | layout.target_bits  # nothing to fill
    layout.refill_memo[layout.buffer_bits] = (3,)
    rows = run_both(models, 5, 0, 1, full).rows
    refills = [row for row in rows if row[2] == "refill"]
    assert [(row[8], row[11]) for row in refills] == [(3, "skip")]
    assert refills[0][4] == rows[0][4]  # the reservoir untouched


def test_run_cycle_checks_conservation_every_cycle(monkeypatch):
    # an extraction that delivers an atom it never removed keeps the atom
    # balance, so only the delivered <= extracted check catches it
    monkeypatch.setattr(engine, "sample_extraction", lambda *args: (0, True))
    text = first_cycle_errors(guarded_models(), 0, EngineError)
    assert text == "delivered exceeds extracted"
