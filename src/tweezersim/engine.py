"""Cycle engine: the loading pipeline as a state machine over stochastic draws.

A realization starts from an atom reservoir and an empty array, then repeats
image -> fill targets from buffers -> refill buffers from the reservoir.
Ground-truth and believed occupancy bitmasks are tracked separately:
belief is reset to truth at each imaging step, assumes success for planned
transports in between, and treats freshly refilled buffers as empty until the
next image confirms them. Every atom is accounted for in integer counters so
conservation can be checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .geometry import ArrayLayout, MaskOccupancy
from .planner import Move, plan_buffer_refill, plan_target_fill
from .stochastic import (
    _MAX_POISSON_MEAN,
    RngStream,
    RowForm,
    sample_extraction,
    sample_survival,  # unused here; perfbench/tracing.py rebinds this name
    sample_transport,
    survival_probability,
    reservoir_decay,
)

__all__ = [
    "DecayWindow",
    "CycleSlots",
    "SimulationModels",
    "Counters",
    "SystemState",
    "CycleRecord",
    "EventLog",
    "EngineError",
    "PlanConflictError",
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


class PlanConflictError(EngineError):
    """A plan contradicts the belief it was supposedly built from."""


class DecayWindow(NamedTuple):
    """What one decay window of the cycle does to every atom in it, decided
    once per model bundle: the window's length in seconds, the survival
    probability of an array atom and of a reservoir atom over it, and the
    mean number of atoms the reservoir refill adds in it
    (``refill_rate * length``)."""

    length: float
    array_survival: float
    reservoir_survival: float
    refill_mean: float


class CycleSlots(RowForm):
    """Where an engine cycle reads each of its draws in the row of
    uniforms that ``RngStream.next_row`` hands out for the cycle, and the
    :class:`RowForm` it is handed out in, decided once per model bundle
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


@dataclass(frozen=True)
class SimulationModels:
    """Everything a realization needs besides its RNG stream: the layout
    and every ``[stochastic]``, ``[timing]`` and ``[engine]`` key of the
    config under its own name (times in seconds), as
    ``ExperimentConfig.build_models`` has checked them.

    Values derived from the keys are decided once here and take no part
    in equality, so ``dataclasses.replace`` decides them afresh: the
    ``init_duration``, ``cycle_duration`` and ``move_duration``; the
    ``p_blockade`` of a caught ensemble whose saturated fill, read out at
    the next image, is ``p_blockade_plateau``; the three decay
    windows of a cycle (``image_window`` over ``t_image_loss``, or
    ``t_image`` where that is ``None``, ``fill_window`` over
    ``t_analysis_fill``, ``refill_window`` over ``t_buffer_refill``, each
    a :class:`DecayWindow`); the bitmasks of all target and all buffer
    sites (``target_bits``, ``buffer_bits``); and the cycle's row of
    uniforms (``slots``, a :class:`CycleSlots`: the slot of each draw, and
    the ``RowForm`` the stream hands the row out in). Only checks across
    keys live here, each a ``ValueError``: an array atom must be able to
    survive from a refill to its readout, the plateau must be reachable
    with ``p_blockade`` at most 1, and the fill window must hold the
    longest fill plan.
    """

    layout: ArrayLayout
    lifetime_array_s: float  # math.inf disables a one-body loss channel
    lifetime_reservoir_s: float
    p_transport: float
    # A failed move leaves the atom in its source trap with this
    # probability and drops it otherwise; 0 and 1 take no draw.
    p_stay_on_failure: float
    p_blockade_plateau: float
    mean_ensemble_at_full: float
    n_reference: int
    reservoir_mean: float
    refill_rate: float
    t_mot: float
    t_molasses: float
    t_reservoir_transfer: float
    t_image: float
    t_analysis_fill: float
    t_buffer_refill: float
    t_ramp: float  # one intensity ramp; two per move
    t_move: float  # tweezer translation
    # Narrows the imaging decay window to the bare exposure when readout
    # overhead should not count as trap time, so it may not exceed
    # t_image; None uses t_image for both clock and losses.
    t_image_loss: float | None
    fill_strategy: str  # "global" or "per-vacancy"

    def __post_init__(self):
        derived = {
            "init_duration": self.t_mot + self.t_molasses + self.t_reservoir_transfer,
            "cycle_duration": self.t_image + self.t_analysis_fill + self.t_buffer_refill,
            "move_duration": 2.0 * self.t_ramp + self.t_move,
        }
        image = self.t_image if self.t_image_loss is None else self.t_image_loss
        # The plateau is the fill fraction read out one image after a
        # refill, so invert the decay accumulated over that window out of it.
        readout = self.t_buffer_refill + image
        observed = survival_probability(readout, self.lifetime_array_s)
        if observed == 0.0:
            key = "t_image" if self.t_image_loss is None else "t_image_loss"
            raise ValueError(
                f"no array atom survives the {readout:.4g} s from refill to "
                f"readout (timing.t_buffer_refill + timing.{key}) with "
                f"stochastic.lifetime_array_s {self.lifetime_array_s:.4g} s, so "
                f"stochastic.p_blockade_plateau cannot be read back"
            )
        # A caught ensemble (size >= 1, probability 1 - exp(-mean) at a
        # full reservoir) yields one atom with probability p_blockade. The
        # plateau at p_blockade 1 is 0 below a mean of about 1.1e-16.
        reachable = (1.0 - math.exp(-self.mean_ensemble_at_full)) * observed
        p_blockade = self.p_blockade_plateau / reachable if reachable else math.inf
        if p_blockade > 1.0:
            raise ValueError(
                f"stochastic.p_blockade_plateau {self.p_blockade_plateau} unreachable with "
                f"stochastic.mean_ensemble_at_full {self.mean_ensemble_at_full} "
                f"(requires p_blockade {p_blockade:.4g} > 1)"
            )
        derived["p_blockade"] = p_blockade
        windows = tuple(
            DecayWindow(
                length,
                survival_probability(length, self.lifetime_array_s),
                survival_probability(length, self.lifetime_reservoir_s),
                self.refill_rate * length,
            )
            for length in (image, self.t_analysis_fill, self.t_buffer_refill)
        )
        derived.update(zip(("image_window", "fill_window", "refill_window"), windows))
        layout = self.layout
        derived["slots"] = slots = CycleSlots(layout, windows)
        n_moves, move = slots.n_moves, derived["move_duration"]
        if n_moves * move > self.t_analysis_fill:
            raise ValueError(
                f"timing.t_analysis_fill {self.t_analysis_fill} s cannot "
                f"hold the longest fill plan: {n_moves} moves of {move:.4g} s"
            )
        bits = layout.site_bits
        derived["target_bits"] = sum(bits[t] for t in layout.target_ids)
        derived["buffer_bits"] = sum(bits[b] for b in layout.buffer_ids)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def check_supply(self, n_cycles: int) -> None:
        """Refuse a run of ``n_cycles`` engine cycles whose refill could grow
        the reservoir past 1e18 atoms, short of numpy's 64-bit counts: the
        initial mean, the refill over every cycle and one rounding atom per
        decay window."""
        supply = (
            self.reservoir_mean + 3 * n_cycles
            + self.refill_rate * n_cycles * self.cycle_duration
        )
        if self.refill_rate > 0 and not supply <= _MAX_POISSON_MEAN:
            raise ValueError(
                f"stochastic.refill_rate {self.refill_rate} atoms/s could bring "
                f"the reservoir to {supply:.3g} atoms in {n_cycles} engine "
                f"cycles, past {_MAX_POISSON_MEAN:g}"
            )


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
        step: str,
        state: SystemState,
        src="",
        dst="",
        dist_um="",
        duration_s="",
        outcome="",
    ) -> None:
        """Append one row, each value a ``str`` or exactly its column's type
        in ``KINDS``: a writer memoises a column's texts by value, and
        ``True``, ``1`` and ``1.0`` are equal keys that print differently."""
        (replicas, cycles, steps, clocks, reservoirs, truths, beliefs,
         srcs, dsts, dists, durations, outcomes) = self._columns
        replicas.append(state.replica)
        cycles.append(state.cycle_index)
        steps.append(step)
        clocks.append(state.clock)
        reservoirs.append(state.n_reservoir)
        truths.append(state.truth)
        beliefs.append(state.belief)
        srcs.append(src)
        dsts.append(dst)
        dists.append(dist_um)
        durations.append(duration_s)
        outcomes.append(outcome)


def _decay_step(
    state: SystemState, window: DecayWindow, rng: RngStream, slot: int
) -> None:
    """One-body losses over ``window`` for array atoms and the reservoir,
    plus the window's reservoir refill; a window of length 0 does nothing.

    Truth-only: the controller never sees decay until the next image. The
    window reads the current row from ``slot`` on (``SimulationModels.slots``,
    a :class:`CycleSlots`): its loss mask at ``slot + 2`` marks the atoms
    lost, so the trapped atom at occupancy bit ``i`` survives when its
    site's uniform falls below the window's array survival probability.
    The reservoir's thinning and refill read ``slot`` and ``slot + 1``
    (:func:`reservoir_decay`).
    """
    dt, _, p_reservoir, refill_mean = window
    if dt > 0.0:
        dead = state.truth & rng.row[slot + 2]
        if dead:
            state.truth ^= dead
            state.counters.array_decay_loss += dead.bit_count()
        lost, added = reservoir_decay(
            rng, state.n_reservoir, p_reservoir, refill_mean, slot
        )
        if lost or added:  # most windows of a run find the reservoir empty
            state.n_reservoir += added - lost
            counters = state.counters
            counters.reservoir_decay_loss += lost
            counters.refilled += added


def init_sequence(models: SimulationModels, rng: RngStream) -> SystemState:
    """Prepare a realization: cooled cloud transferred into the reservoir,
    all array sites empty, clock at the end of the preparation stages.

    The reservoir population is the Poisson value, at the configured mean,
    of the stream's leading uniform, which is read even at mean 0; the state
    takes its replica label from ``rng``.
    """
    n0 = rng.poisson(models.reservoir_mean)
    return SystemState(
        truth=0,
        belief=0,
        n_reservoir=n0,
        clock=float(models.init_duration),  # a float, as KINDS says
        replica=rng.replica,
        n_initial_reservoir=n0,
    )


def step_image(
    state: SystemState,
    models: SimulationModels,
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
        log.add("image", state)


def step_fill_targets(
    state: SystemState,
    plan: tuple[Move, ...],
    models: SimulationModels,
    rng: RngStream,
    log: EventLog | None = None,
) -> None:
    """Execute the fill plan move by move, then advance the analysis window.

    A move sourcing a site belief marks empty, or targeting one it marks
    occupied (as a self-loop or a repeated source or destination does),
    raises :class:`PlanConflictError`; this is the one check on a plan.
    Belief assumes every move succeeds (source empty, destination
    occupied); truth records the sampled outcome. A believed-occupied but
    truly empty source executes as a null transport. A failed transport
    returns the atom to the source with probability ``p_stay_on_failure``
    and loses it otherwise. Move ``j`` of the plan reads its transport and
    retention uniforms from its two slots of the current row
    (``models.slots``, a :class:`CycleSlots`). Every move lasts the
    transport's fixed ramp-translate-ramp time.
    """
    counters = state.counters
    bits = models.layout.site_bits
    p_stay = models.p_stay_on_failure
    duration = models.move_duration  # one float shared by the rows
    slots = models.slots
    if len(plan) > slots.n_moves:
        raise PlanConflictError(
            f"fill plan has {len(plan)} moves; a cycle holds at most {slots.n_moves}"
        )
    slot = slots.moves
    for src, dst, dist in plan:
        src_bit, dst_bit = bits[src], bits[dst]
        if not state.belief & src_bit:
            raise PlanConflictError(
                f"fill plan sources site {src} which belief marks empty"
            )
        if state.belief & dst_bit:
            raise PlanConflictError(
                f"fill plan targets site {dst} which belief marks occupied"
            )
        if state.truth & src_bit:
            state.truth ^= src_bit
            if sample_transport(rng, models.p_transport, slot):
                if state.truth & dst_bit:
                    raise EngineError(f"transport into occupied site {dst}")
                state.truth |= dst_bit
                outcome = "ok"
            else:
                if rng.row[slot + 1] < p_stay:
                    state.truth |= src_bit
                    outcome = "stay"
                else:
                    counters.transport_loss += 1
                    outcome = "lost"
        else:
            outcome = "null"
        state.belief ^= src_bit | dst_bit  # source set, destination clear
        slot += 2
        if log is not None:
            log.add(
                "fill", state, src=src, dst=dst,
                dist_um=dist, duration_s=duration, outcome=outcome,
            )
    if log is not None and not plan:
        log.add("fill", state)
    _decay_step(state, models.fill_window, rng, slots.fill)
    state.clock += models.t_analysis_fill


def step_refill_buffers(
    state: SystemState,
    refill_list: list[int],
    models: SimulationModels,
    rng: RngStream,
    log: EventLog | None = None,
) -> None:
    """One extraction attempt per listed buffer site, then the refill window.

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
    for sid in refill_list:
        bit = layout.site_bits[sid]
        if state.belief & bit:
            raise PlanConflictError(
                f"refill list contains site {sid} which belief marks occupied"
            )
        if state.truth & bit:
            outcome = "skip"
        elif state.n_reservoir == 0:
            outcome = "empty"
        else:
            removed, delivered = sample_extraction(
                rng, state.n_reservoir, models.mean_ensemble_at_full,
                models.n_reference, models.p_blockade, slots.buffers[sid],
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
                "refill", state, src="R", dst=sid,
                dist_um=layout.reservoir_dist[sid], outcome=outcome,
            )
    if log is not None and not refill_list:
        log.add("refill", state)
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
    models: SimulationModels,
    rng: RngStream,
    log: EventLog | None = None,
) -> CycleRecord:
    """One full cycle: image, fill targets, refill buffers.

    The returned record is the imaging observation at the START of the
    cycle, read from truth right after the image, where belief equals it;
    this cycle's fill and refill are only visible in the next one. The
    cycle starts by drawing its row of uniforms from ``rng``, handed out as
    ``models.slots`` says.
    """
    state.cycle_index += 1
    rng.next_row(models.slots)
    layout = models.layout
    step_image(state, models, rng, log)
    c = state.counters
    truth, target_bits = state.truth, models.target_bits
    targets = truth & target_bits
    record = CycleRecord(
        state.cycle_index, targets == target_bits,
        (truth & models.buffer_bits).bit_count(), targets.bit_count(),
        state.n_reservoir, state.clock,
        c.extracted, c.delivered, c.reservoir_decay_loss,
    )
    fill = models.fill_strategy
    plan = plan_target_fill(MaskOccupancy(layout, state.belief), layout, strategy=fill)
    step_fill_targets(state, plan, models, rng, log)
    refill_list = plan_buffer_refill(state.belief, layout)
    step_refill_buffers(state, refill_list, models, rng, log)
    check_conservation(state)
    return record


def run_realization(
    config,
    seed: int,
    n_cycles: int,
    replica: int = 0,
    log: EventLog | None = None,
) -> list[CycleRecord]:
    """Run one realization: preparation plus ``n_cycles`` cycles.

    ``config`` may be a :class:`SimulationModels` bundle or any object with
    a ``build_models()`` method. Deterministic given (config, seed,
    replica); the records of two runs with identical arguments are
    identical.
    """
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be at least 1, got {n_cycles}")
    models = config if isinstance(config, SimulationModels) else config.build_models()
    models.check_supply(n_cycles)
    rng = RngStream(seed, replica, n_rows=n_cycles)
    state = init_sequence(models, rng)
    if log is not None:
        log.add("init", state)
    return [run_cycle(state, models, rng, log) for _ in range(n_cycles)]
