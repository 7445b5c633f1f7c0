"""Cycle engine: the loading pipeline as a state machine over stochastic draws.

A realization starts from an atom reservoir and an empty array, then repeats
image -> fill targets from buffers -> refill buffers from the reservoir.
Ground-truth and believed occupancy bitmasks are tracked separately:
belief is reset to truth at each imaging step, assumes success for planned
transports in between, and treats freshly refilled buffers as empty until the
next image confirms them. The engine runs the planner's plans unchecked:
the planner checks each fill plan against belief once, when it makes it
(:func:`~tweezersim.planner.check_fill_plan`), and builds each refill order
from the believed-empty buffers. Every atom is accounted for in integer
counters, and the exact conservation check after every cycle is the
backstop for a plan that breaks those guarantees. Every step reads its
model values from ``models``, a :class:`~tweezersim.config.ExperimentConfig`,
checked and frozen when it was built.

Each cycle is one pass of :func:`run_cycle` over local ints and floats,
read from the realization's :class:`SystemState` once and written back once.
The step functions :func:`step_image`, :func:`step_fill_targets` and
:func:`step_refill_buffers`, each with :func:`_decay_step`, and
:func:`check_conservation` do the same cycle step by step on the state.
They are its scalar reference: the tests compose them into
``reference_cycle`` and hold the two equal bit for bit. They stay in the
package only because the benchmark's tracer (``perfbench/tracing.py``)
binds their names.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .geometry import ArrayLayout, MaskOccupancy
from .planner import Move, plan_buffer_refill, plan_target_fill
from .stochastic import (
    DecayWindow,
    RngStream,
    RowForm,
    poisson_icdf,
    sample_extraction,
    sample_survival,  # unused here; perfbench/tracing.py rebinds this name
    sample_transport,
    reservoir_decay,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "DecayWindow",
    "CycleSlots",
    "Counters",
    "SystemState",
    "CycleRecord",
    "EventLog",
    "EngineError",
    "init_sequence",
    "step_image",
    "step_fill_targets",
    "step_refill_buffers",
    "run_cycle",
    "run_realization",
    "check_conservation",
]


class EngineError(RuntimeError):
    """An engine invariant was violated."""


class CycleSlots(RowForm):
    """Where an engine cycle reads each of its draws in the row of
    uniforms that ``RngStream.next_row`` hands out for the cycle, and the
    :class:`RowForm` it is handed out in, decided once per config
    from the layout and the cycle's three decay windows. The row holds, in
    the order the cycle reads them:

    - per decay window (``image``, ``fill``, ``refill``: the window's first
      slot) three slots: reservoir thinning, refill rounding, then the
      window's loss mask, one int standing for ``n_sites`` uniforms, one per
      site index: bit ``i`` is set where the uniform of the site of
      occupancy bit ``i`` is not below the window's ``array_survival``, so
      that atom is lost;
    - per fill-move position ``j < n_moves`` (from ``moves``) two slots,
      transport at ``moves + 2 j`` and retention after it;
    - per buffer (``buffers``: buffer id -> its first slot, in id order)
      two slots, ensemble size and then blockade.

    ``length`` is the row's length, ``9 + 2 n_moves + 2 n_buffers``: 35 for
    the reference layout. The row draws ``width = 3 (n_sites + 2) + 2
    n_moves + 2 n_buffers`` uniforms (71 for the reference), so a
    realization of ``n`` engine cycles reads ``1 + width n``; a draw's
    child generator is keyed by its slot's column among them.
    """

    def __init__(self, layout: ArrayLayout, windows: tuple):
        buffer_ids = layout.buffer_ids
        self.image, self.moves = 0, 3
        # the longest fill plan moves one atom into every target it can
        self.n_moves = min(len(layout.target_ids), len(buffer_ids))
        self.fill = 3 + 2 * self.n_moves
        first_buffer = self.fill + 3
        self.buffers = {b: first_buffer + 2 * i for i, b in enumerate(buffer_ids)}
        self.refill = first_buffer + 2 * len(buffer_ids)
        super().__init__(self.refill + 3, (
            (first + 2, window.array_survival)
            for first, window in zip((self.image, self.fill, self.refill), windows)
        ), len(layout.site_ids))


@dataclass
class Counters:
    """Cumulative atom bookkeeping over one realization (exact integers)."""

    extracted: int = 0  # atoms removed from the reservoir by extraction
    delivered: int = 0  # extractions that left one atom in a buffer trap
    blockade_loss: int = 0  # extracted atoms lost to pairwise collisions
    transport_loss: int = 0  # atoms lost in failed moves
    array_decay_loss: int = 0  # one-body loss out of array traps
    reservoir_decay_loss: int = 0  # one-body loss out of the reservoir
    refilled: int = 0  # atoms added to the reservoir by the refill hook


@dataclass
class SystemState:
    """Mutable state of one realization; the engine steps change it in
    place. ``truth`` and ``belief`` are occupancy bitmasks (bit k = k-th
    smallest site id); ``replica`` labels the realization's log rows."""

    truth: int
    belief: int
    n_reservoir: int
    clock: float
    replica: int
    cycle_index: int = 0
    n_initial_reservoir: int = 0
    counters: Counters = field(default_factory=Counters)

    @property
    def n_trapped(self) -> int:
        return self.truth.bit_count()


class CycleRecord(NamedTuple):
    """Per-cycle observables, snapshotted at this cycle's imaging step.

    The cumulative counters therefore cover everything up to but not
    including this cycle's fill and refill. An immutable tuple: the engine
    builds one per cycle, positionally.
    """

    cycle_index: int
    target_complete: bool
    n_buffer_filled: int
    n_target_filled: int
    n_reservoir: int
    clock_at_image: float
    extracted_cum: int
    delivered_cum: int
    reservoir_decay_cum: int


class EventLog:
    """Append-only step/move log for one or more realizations.

    Each row is (replica, cycle, step, clock_s, n_reservoir, truth_mask,
    belief_mask, src, dst, dist_um, duration_s, outcome). Steps without
    moves contribute one row with the move fields blank; fill and refill
    contribute one row per move. The masks are the state's occupancy
    bitmasks (bit i = i-th smallest site id).

    The log is stored by column, one plain list per column, holding the
    values as added, each a ``str`` or exactly its column's type in ``KINDS``
    (see :meth:`add`; a mask of any width is an exact int). ``columns`` hands
    the lists to a writer; ``rows`` builds the row tuples on demand.

    With a ``sink`` (an object with ``write(columns)`` and ``close()``, such
    as the CSV writer of :func:`tweezersim.harness.stream_events`), the log
    keeps only the rows not yet handed on: :meth:`flush` passes the buffered
    columns to the sink and starts a new buffer, :meth:`close` flushes the
    rest and closes the sink. ``len`` counts every row added, ``columns``
    and ``rows`` the buffered ones only.
    """

    KINDS = {
        "replica": int, "cycle": int, "step": str, "clock_s": float, "n_reservoir": int,
        "truth_mask": int, "belief_mask": int, "src": int, "dst": int,
        "dist_um": float, "duration_s": float, "outcome": str,
    }
    COLUMNS = tuple(KINDS)

    def __init__(self, sink=None):
        self.sink = sink
        self._flushed = 0  # rows already handed to the sink
        self._columns = [[] for _ in self.COLUMNS]

    def __len__(self) -> int:
        return self._flushed + len(self._columns[0])

    @property
    def columns(self) -> tuple:
        """One sequence per entry of ``COLUMNS``, all as long as the buffer."""
        return tuple(self._columns)

    @property
    def rows(self) -> list[tuple]:
        """The buffered rows as tuples, built afresh on each access."""
        return list(zip(*self._columns))

    def flush(self, min_rows: int = 0) -> None:
        """Hand the buffered rows to the sink, once there are at least
        ``min_rows`` of them, and start a new buffer; without a sink, keep
        them."""
        n = len(self._columns[0])
        if self.sink is not None and n and n >= min_rows:
            self.sink.write(self._columns)
            self._flushed += n
            self._columns = [[] for _ in self.COLUMNS]

    def close(self) -> None:
        """Flush every buffered row and close the sink, if there is one."""
        if self.sink is not None:
            self.flush()
            self.sink.close()

    def add(
        self,
        replica: int,
        cycle: int,
        step: str,
        clock_s: float,
        n_reservoir: int,
        truth_mask: int,
        belief_mask: int,
        src="",
        dst="",
        dist_um="",
        duration_s="",
        outcome="",
    ) -> None:
        """Append one row, its values in ``KINDS`` order, each a ``str`` or
        exactly its column's type in ``KINDS``: a writer memoises a column's
        texts by value, and ``True``, ``1`` and ``1.0`` are equal keys that
        print differently."""
        (replicas, cycles, steps, clocks, reservoirs, truths, beliefs,
         srcs, dsts, dists, durations, outcomes) = self._columns
        replicas.append(replica)
        cycles.append(cycle)
        steps.append(step)
        clocks.append(clock_s)
        reservoirs.append(n_reservoir)
        truths.append(truth_mask)
        beliefs.append(belief_mask)
        srcs.append(src)
        dsts.append(dst)
        dists.append(dist_um)
        durations.append(duration_s)
        outcomes.append(outcome)


def _state_row(state: SystemState, step: str) -> tuple:
    """The first seven values of a ``step`` row of ``state``, in
    ``EventLog.KINDS`` order: ``log.add(*_state_row(state, step), ...)``."""
    return (
        state.replica, state.cycle_index, step, state.clock,
        state.n_reservoir, state.truth, state.belief,
    )


def init_sequence(models: ExperimentConfig, rng: RngStream) -> SystemState:
    """Prepare a realization: cooled cloud transferred into the reservoir,
    all array sites empty, clock at the end of the preparation stages.

    The reservoir population is the Poisson value, at the configured mean,
    of the stream's leading uniform, which is read even at mean 0: read
    from ``models.initial_load``, or by :func:`poisson_icdf` at or above its
    last sum and above the search limit, where the table is empty. The
    state takes its replica label from ``rng``.
    """
    u = rng.random()
    cdfs = models.initial_load
    n0 = bisect_right(cdfs, u)
    if n0 == len(cdfs):
        n0 = poisson_icdf(u, models.reservoir_mean, rng, 0)
    return SystemState(
        truth=0,
        belief=0,
        n_reservoir=n0,
        clock=models.init_duration,
        replica=rng.replica,
        n_initial_reservoir=n0,
    )


# The scalar reference of run_cycle: the same cycle, step by step on a
# SystemState. run_cycle calls none of these; tests/oracles.py composes them
# into reference_cycle, and they stay here only because perfbench/tracing.py
# rebinds their names.


def _decay_step(
    state: SystemState, window: DecayWindow, rng: RngStream, slot: int
) -> None:
    """One-body losses over ``window`` for array atoms and the reservoir,
    plus the window's reservoir refill; a window of length 0 does nothing.

    Truth-only: the controller never sees decay until the next image. The
    window reads the current row from ``slot`` on (``ExperimentConfig.slots``,
    a :class:`CycleSlots`): its loss mask at ``slot + 2`` marks the atoms
    lost, so the trapped atom at occupancy bit ``i`` survives when its
    site's uniform falls below the window's array survival probability.
    The reservoir's thinning and refill read ``slot`` and ``slot + 1``
    (:func:`reservoir_decay`).
    """
    if window.length > 0.0:
        dead = state.truth & rng.row[slot + 2]
        if dead:
            state.truth ^= dead
            state.counters.array_decay_loss += dead.bit_count()
        lost, added = reservoir_decay(rng, state.n_reservoir, window, slot)
        if lost or added:  # most windows of a run find the reservoir empty
            state.n_reservoir += added - lost
            counters = state.counters
            counters.reservoir_decay_loss += lost
            counters.refilled += added


def step_image(
    state: SystemState,
    models: ExperimentConfig,
    rng: RngStream,
    log: EventLog | None = None,
) -> None:
    """Fluorescence image: decay over the imaging window, read from the
    row at ``models.slots.image``, then belief is reset to truth (perfect
    detection)."""
    _decay_step(state, models.image_window, rng, models.slots.image)
    state.clock += models.t_image
    state.belief = state.truth
    if log is not None:
        log.add(*_state_row(state, "image"))


def step_fill_targets(
    state: SystemState,
    plan: tuple[Move, ...],
    models: ExperimentConfig,
    rng: RngStream,
    log: EventLog | None = None,
) -> None:
    """Execute the fill plan move by move, then advance the analysis window.

    The plan is one the planner made and checked against this belief
    (:func:`~tweezersim.planner.check_fill_plan`), so each source holds
    its atom in truth and each target is truly empty. Belief assumes every
    move succeeds (source empty, destination occupied); truth records the
    sampled outcome. A failed transport returns the atom to the source
    with probability ``p_stay_on_failure`` and loses it otherwise. Move
    ``j`` of the plan reads its transport and retention uniforms from its
    two slots of the current row (``models.slots``, a :class:`CycleSlots`).
    Every move lasts the transport's fixed ramp-translate-ramp time.
    """
    counters = state.counters
    bits = models.layout.site_bits
    p_stay = models.p_stay_on_failure
    duration = models.move_duration  # one float shared by the rows
    slots = models.slots
    slot = slots.moves
    for src, dst, dist in plan:
        src_bit, dst_bit = bits[src], bits[dst]
        state.truth ^= src_bit
        if sample_transport(rng, models.p_transport, slot):
            state.truth |= dst_bit
            outcome = "ok"
        elif rng.row[slot + 1] < p_stay:
            state.truth |= src_bit
            outcome = "stay"
        else:
            counters.transport_loss += 1
            outcome = "lost"
        state.belief ^= src_bit | dst_bit  # source set, destination clear
        slot += 2
        if log is not None:
            log.add(*_state_row(state, "fill"), src, dst, dist, duration, outcome)
    if log is not None and not plan:
        log.add(*_state_row(state, "fill"))
    _decay_step(state, models.fill_window, rng, slots.fill)
    state.clock += models.t_analysis_fill


def step_refill_buffers(
    state: SystemState,
    order: tuple[int, ...],
    models: ExperimentConfig,
    rng: RngStream,
    log: EventLog | None = None,
) -> None:
    """One extraction attempt per buffer site in ``order``, then the refill window.

    Delivered atoms enter truth immediately but stay believed-empty until
    the next image, so the planner never sources an unverified refill. A
    listed site already holding an atom (possible when a failed transport
    kept its atom in the source trap) is skipped without touching the
    reservoir; an empty reservoir yields ``empty`` without an extraction
    draw. Each buffer reads its extraction from its own two slots of the
    current row (``models.slots``, a :class:`CycleSlots`).
    """
    counters = state.counters
    layout = models.layout
    slots = models.slots
    for sid in order:
        bit = layout.site_bits[sid]
        if state.truth & bit:
            outcome = "skip"
        elif state.n_reservoir == 0:
            outcome = "empty"
        else:
            removed, delivered = sample_extraction(
                rng, state.n_reservoir, models.ensembles, models.p_blockade,
                slots.buffers[sid],
            )
            state.n_reservoir -= removed
            counters.extracted += removed
            if delivered:
                state.truth |= bit
                counters.delivered += 1
                counters.blockade_loss += removed - 1
                outcome = "delivered"
            else:
                counters.blockade_loss += removed
                outcome = "empty" if removed == 0 else "blocked"
        if log is not None:
            log.add(
                *_state_row(state, "refill"), "R", sid,
                layout.reservoir_dist[sid], outcome=outcome,
            )
    if log is not None and not order:
        log.add(*_state_row(state, "refill"))
    _decay_step(state, models.refill_window, rng, slots.refill)
    state.clock += models.t_buffer_refill


def check_conservation(state: SystemState) -> None:
    """Exact integer atom balance; raises EngineError on any leak."""
    c = state.counters
    supplied = state.n_initial_reservoir + c.refilled
    accounted = (
        state.n_reservoir
        + state.n_trapped
        + c.blockade_loss
        + c.transport_loss
        + c.array_decay_loss
        + c.reservoir_decay_loss
    )
    if supplied != accounted:
        raise EngineError(
            f"atom conservation violated: supplied {supplied} != "
            f"accounted {accounted} ({c})"
        )
    if c.delivered > c.extracted:
        raise EngineError("delivered exceeds extracted")


def run_cycle(
    state: SystemState,
    models: ExperimentConfig,
    rng: RngStream,
    log: EventLog | None = None,
) -> CycleRecord:
    """One full cycle: image, fill targets, refill buffers.

    The returned record is the imaging observation at the START of the
    cycle, read from truth right after the image, where belief equals it;
    this cycle's fill and refill are only visible in the next one. The
    cycle starts by drawing its row of uniforms from ``rng``, handed out as
    ``models.slots`` says.

    One pass over locals: the state is read once, the blocks below run in
    engine order and the state is written back once, before the
    conservation check. Each block does what :func:`step_image`,
    :func:`step_fill_targets` with its :func:`_decay_step`,
    :func:`step_refill_buffers` and :func:`check_conservation` do, with the
    same draws from the same slots and the same errors; those functions are
    its scalar reference.
    """
    slots, layout = models.slots, models.layout
    row = rng.next_row(slots)
    cycle = state.cycle_index + 1
    truth, n_res, clock = state.truth, state.n_reservoir, state.clock
    c = state.counters
    extracted, delivered, blockade = c.extracted, c.delivered, c.blockade_loss
    transport_loss, array_decay = c.transport_loss, c.array_decay_loss
    reservoir_decay_loss, refilled = c.reservoir_decay_loss, c.refilled
    replica = state.replica
    bits = layout.site_bits

    # image: the image window's decay, then belief reset to truth (perfect
    # detection); the decay is truth-only, as in every window below
    window, slot = models.image_window, slots.image
    if window.length > 0.0:
        dead = truth & row[slot + 2]
        if dead:
            truth ^= dead
            array_decay += dead.bit_count()
        lost, added = reservoir_decay(rng, n_res, window, slot)
        if lost or added:
            n_res += added - lost
            reservoir_decay_loss += lost
            refilled += added
    clock += models.t_image
    belief = truth
    if log is not None:
        log.add(replica, cycle, "image", clock, n_res, truth, belief)

    # the record, read off truth at the image; tuple.__new__ skips the
    # named tuple's Python-level __new__, a fifth of a microsecond a cycle
    target_bits = layout.target_bits
    targets = truth & target_bits
    record = tuple.__new__(CycleRecord, (
        cycle, targets == target_bits,
        (truth & layout.buffer_bits).bit_count(), targets.bit_count(),
        n_res, clock, extracted, delivered, reservoir_decay_loss,
    ))

    # fill: the planner's checked plan, each move assumed to succeed in belief
    plan = plan_target_fill(MaskOccupancy(layout, belief), strategy=models.fill_strategy)
    p_transport, p_stay = models.p_transport, models.p_stay_on_failure
    duration = models.move_duration
    slot = slots.moves
    for src, dst, dist in plan:
        src_bit, dst_bit = bits[src], bits[dst]
        truth ^= src_bit
        if sample_transport(rng, p_transport, slot):
            truth |= dst_bit
            outcome = "ok"
        elif row[slot + 1] < p_stay:
            truth |= src_bit
            outcome = "stay"
        else:
            transport_loss += 1
            outcome = "lost"
        belief ^= src_bit | dst_bit  # source set, destination clear
        slot += 2
        if log is not None:
            log.add(
                replica, cycle, "fill", clock, n_res, truth, belief,
                src, dst, dist, duration, outcome,
            )
    if log is not None and not plan:
        log.add(replica, cycle, "fill", clock, n_res, truth, belief)
    window, slot = models.fill_window, slots.fill
    if window.length > 0.0:
        dead = truth & row[slot + 2]
        if dead:
            truth ^= dead
            array_decay += dead.bit_count()
        lost, added = reservoir_decay(rng, n_res, window, slot)
        if lost or added:
            n_res += added - lost
            reservoir_decay_loss += lost
            refilled += added
    clock += models.t_analysis_fill

    # refill: one extraction per believed-empty buffer, nearest first;
    # a delivered atom stays believed-empty until the next image
    order = plan_buffer_refill(belief, layout)
    buffer_slots, reservoir_dist = slots.buffers, layout.reservoir_dist
    for sid in order:
        bit = bits[sid]
        if truth & bit:
            outcome = "skip"
        elif n_res == 0:
            outcome = "empty"
        else:
            removed, caught = sample_extraction(
                rng, n_res, models.ensembles, models.p_blockade, buffer_slots[sid]
            )
            n_res -= removed
            extracted += removed
            if caught:
                truth |= bit
                delivered += 1
                blockade += removed - 1
                outcome = "delivered"
            else:
                blockade += removed
                outcome = "empty" if removed == 0 else "blocked"
        if log is not None:
            log.add(
                replica, cycle, "refill", clock, n_res, truth, belief,
                "R", sid, reservoir_dist[sid], outcome=outcome,
            )
    if log is not None and not order:
        log.add(replica, cycle, "refill", clock, n_res, truth, belief)
    window, slot = models.refill_window, slots.refill
    if window.length > 0.0:
        dead = truth & row[slot + 2]
        if dead:
            truth ^= dead
            array_decay += dead.bit_count()
        lost, added = reservoir_decay(rng, n_res, window, slot)
        if lost or added:
            n_res += added - lost
            reservoir_decay_loss += lost
            refilled += added
    clock += models.t_buffer_refill

    state.cycle_index, state.truth, state.belief = cycle, truth, belief
    state.n_reservoir, state.clock = n_res, clock
    c.extracted, c.delivered, c.blockade_loss = extracted, delivered, blockade
    c.transport_loss, c.array_decay_loss = transport_loss, array_decay
    c.reservoir_decay_loss, c.refilled = reservoir_decay_loss, refilled

    # conservation: the exact integer balance of check_conservation
    supplied = state.n_initial_reservoir + refilled
    accounted = (
        n_res + truth.bit_count() + blockade + transport_loss
        + array_decay + reservoir_decay_loss
    )
    if supplied != accounted:
        raise EngineError(
            f"atom conservation violated: supplied {supplied} != "
            f"accounted {accounted} ({c})"
        )
    if delivered > extracted:
        raise EngineError("delivered exceeds extracted")
    return record


def run_realization(
    config: ExperimentConfig,
    replica: int = 0,
    log: EventLog | None = None,
    rng: RngStream | None = None,
) -> list[CycleRecord]:
    """Run replica ``replica`` of the checked config ``config``, the model
    bundle: preparation plus ``config.engine_cycles`` cycles, drawn from
    the stream keyed by (``config.master_seed``, ``replica``).

    ``rng`` may give that stream, built for ``config.engine_cycles`` rows
    and with nothing handed out yet, such as one of
    :meth:`RngStream.draw_group`; any other stream is a ``ValueError``.
    Without it the realization builds its own. Deterministic given
    (config, replica); the records of two runs with identical arguments
    are identical.
    """
    n_cycles = config.engine_cycles
    if rng is None:
        rng = RngStream(config.master_seed, replica, n_rows=n_cycles)
    elif (rng.master_seed, rng.replica, rng.n_rows, rng.drawn, rng.cycle) != (
        config.master_seed, replica, n_cycles, 0, 0
    ):
        raise ValueError(
            f"replica {replica} of master seed {config.master_seed} runs on a "
            f"fresh stream of {n_cycles} rows, not {rng!r} of {rng.n_rows} rows "
            f"with {rng.drawn} leading uniforms and {rng.cycle} rows handed out"
        )
    state = init_sequence(config, rng)
    if log is not None:
        log.add(*_state_row(state, "init"))
    return [run_cycle(state, config, rng, log) for _ in range(n_cycles)]
