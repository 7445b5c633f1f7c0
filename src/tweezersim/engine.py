"""Cycle engine: the loading pipeline as a state machine over stochastic draws.

A realization starts from an atom reservoir and an empty array, then repeats
image -> fill targets from buffers -> refill buffers from the reservoir.
Ground-truth occupancy and the controller's belief are tracked separately:
belief is reset to truth at each imaging step, assumes success for planned
transports in between, and treats freshly refilled buffers as empty until the
next image confirms them. Every atom is accounted for in integer counters so
conservation can be checked exactly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .geometry import ArrayLayout
from .planner import MovePlan, Occupancy, plan_buffer_refill, plan_target_fill
from .stochastic import (
    ExtractionModel,
    LossModel,
    RngStream,
    TransportModel,
    _check_nonnegative,
    _check_probability,
    sample_extraction,
    sample_survival,  # unused here; perfbench/tracing.py rebinds this name
    sample_transport,
    survival_probability,
    reservoir_decay,
)

__all__ = [
    "TimingModel",
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


@dataclass
class TimingModel:
    """Wall-clock durations of the sequence, in seconds.

    ``t_image_loss`` optionally narrows the decay window during imaging to
    the bare exposure when readout overhead should not count as trap time;
    ``None`` uses the full ``t_image`` for both clock and losses.
    """

    t_mot: float
    t_molasses: float
    t_reservoir_transfer: float
    t_image: float
    t_analysis_fill: float
    t_buffer_refill: float
    t_image_loss: float | None

    def __post_init__(self):
        for name in (
            "t_mot", "t_molasses", "t_reservoir_transfer", "t_image",
            "t_analysis_fill", "t_buffer_refill",
        ):
            _check_nonnegative(f"timing.{name}", getattr(self, name))
        if self.t_image_loss is not None:
            _check_nonnegative("timing.t_image_loss", self.t_image_loss)

    @property
    def cycle_duration(self) -> float:
        """One image + fill + refill round."""
        return self.t_image + self.t_analysis_fill + self.t_buffer_refill

    @property
    def init_duration(self) -> float:
        """Reservoir preparation before the first cycle."""
        return self.t_mot + self.t_molasses + self.t_reservoir_transfer

    @property
    def image_loss_window(self) -> float:
        return self.t_image if self.t_image_loss is None else self.t_image_loss


@dataclass
class SimulationModels:
    """Everything a realization needs besides its RNG stream."""

    layout: ArrayLayout
    loss: LossModel
    transport: TransportModel
    extraction: ExtractionModel
    timing: TimingModel
    reservoir_mean: float
    refill_rate: float
    # A failed move leaves the atom in its source trap with this
    # probability and drops it otherwise; 0 and 1 take no draw.
    p_stay_on_failure: float
    fill_strategy: str  # "global" or "per-vacancy"

    def __post_init__(self):
        _check_nonnegative("stochastic.reservoir_mean", self.reservoir_mean)
        _check_nonnegative("stochastic.refill_rate", self.refill_rate)
        _check_probability("stochastic.p_stay_on_failure", self.p_stay_on_failure)
        if self.fill_strategy not in ("global", "per-vacancy"):
            raise ValueError(
                f"engine.fill_strategy must be 'global' or 'per-vacancy', "
                f"got {self.fill_strategy!r}"
            )
        # the longest fill plan moves one atom into every target it can
        layout, move = self.layout, self.transport.move_duration
        n_moves = min(len(layout.target_ids), len(layout.buffer_ids))
        if n_moves * move > self.timing.t_analysis_fill:
            raise ValueError(
                f"timing.t_analysis_fill {self.timing.t_analysis_fill} s cannot "
                f"hold the longest fill plan: {n_moves} moves of {move:.4g} s"
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
    place. ``replica`` labels the realization's log rows."""

    truth: Occupancy
    belief: Occupancy
    n_reservoir: int
    clock: float
    replica: int
    cycle_index: int = 0
    n_initial_reservoir: int = 0
    counters: Counters = field(default_factory=Counters)

    @property
    def n_trapped(self) -> int:
        return sum(self.truth.values())


@dataclass(frozen=True)
class CycleRecord:
    """Per-cycle observables, snapshotted at this cycle's imaging step.

    The cumulative counters therefore cover everything up to but not
    including this cycle's fill and refill.
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
    contribute one row per move. Masks are occupancy bitmasks over sites in
    id order (bit i = i-th smallest site id).

    The log is stored by column: the integer columns unboxed in
    ``array("q")`` (the masks switch to Python ints once one no longer fits
    in 63 bits), ``clock_s`` in ``array("d")``, and the rest as lists of
    references to the few objects they repeat. ``columns`` hands the
    column sequences to a writer; ``rows`` builds the row tuples on demand.

    With a ``sink`` (an object with ``write(columns)`` and ``close()``, such
    as the CSV writer of :func:`tweezersim.harness.stream_events`), the log
    keeps only the rows not yet handed on: :meth:`flush` passes the buffered
    columns to the sink and starts a new buffer, :meth:`close` flushes the
    rest and closes the sink. ``len`` counts every row added, ``columns``
    and ``rows`` the buffered ones only.
    """

    COLUMNS = (
        "replica", "cycle", "step", "clock_s", "n_reservoir",
        "truth_mask", "belief_mask", "src", "dst", "dist_um",
        "duration_s", "outcome",
    )

    def __init__(self, sink=None):
        self.sink = sink
        self._flushed = 0  # rows already handed to the sink
        self._columns = self._empty_columns()
        # (layout, occupancy copy, mask) last seen for truth and for belief
        self._seen: list[tuple | None] = [None, None]

    @staticmethod
    def _empty_columns() -> list:
        return [
            array("q"), array("q"), [], array("d"), array("q"),
            array("q"), array("q"), [], [], [], [], [],
        ]

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
            self._columns = self._empty_columns()

    def close(self) -> None:
        """Flush every buffered row and close the sink, if there is one."""
        if self.sink is not None:
            self.flush()
            self.sink.close()

    def _mask(self, slot: int, occupancy: Occupancy, layout: ArrayLayout) -> int:
        # consecutive rows mostly repeat an occupancy (83 % of truth and
        # 87 % of belief rows in the reference log): reuse its mask
        seen = self._seen[slot]
        if seen is not None and seen[0] is layout and seen[1] == occupancy:
            return seen[2]
        mask = layout.occupancy_mask(occupancy)
        self._seen[slot] = (layout, dict(occupancy), mask)
        return mask

    def _widen_masks(self, truth: int, belief: int) -> None:
        # a mask past 63 bits: keep both mask columns as exact Python ints
        # until the next flush
        cols = self._columns
        n = len(cols[0])
        cols[5] = [*cols[5][:n], truth]
        cols[6] = [*cols[6][:n], belief]

    def add(
        self,
        step: str,
        state: SystemState,
        layout: ArrayLayout,
        src="",
        dst="",
        dist_um="",
        duration_s="",
        outcome="",
    ) -> None:
        truth = self._mask(0, state.truth, layout)
        belief = self._mask(1, state.belief, layout)
        (replicas, cycles, steps, clocks, reservoirs, truths, beliefs,
         srcs, dsts, dists, durations, outcomes) = self._columns
        try:
            truths.append(truth)
            beliefs.append(belief)
        except OverflowError:
            self._widen_masks(truth, belief)
        replicas.append(state.replica)
        cycles.append(state.cycle_index)
        steps.append(step)
        clocks.append(state.clock)
        reservoirs.append(state.n_reservoir)
        srcs.append(src)
        dsts.append(dst)
        dists.append(dist_um)
        durations.append(duration_s)
        outcomes.append(outcome)


def _decay_step(
    state: SystemState, dt: float, models: SimulationModels, rng: RngStream
) -> None:
    """One-body losses over ``dt`` for array atoms and the reservoir.

    Truth-only: the controller never sees decay until the next image.
    Each trapped atom takes one uniform, in site order, and survives when
    it falls below the window's survival probability.
    """
    if dt > 0.0:
        counters = state.counters
        truth = state.truth
        p = survival_probability(dt, models.loss.lifetime_array)
        trapped = [sid for sid, filled in truth.items() if filled]
        if trapped:  # no draw for an empty array: random(0) advances nothing
            for sid, u in zip(trapped, rng.uniforms(len(trapped))):
                if not u < p:
                    truth[sid] = False
                    counters.array_decay_loss += 1
        lost, added = reservoir_decay(
            rng, state.n_reservoir, dt, models.loss, models.refill_rate
        )
        state.n_reservoir += added - lost
        counters.reservoir_decay_loss += lost
        counters.refilled += added


def init_sequence(models: SimulationModels, rng: RngStream) -> SystemState:
    """Prepare a realization: cooled cloud transferred into the reservoir,
    all array sites empty, clock at the end of the preparation stages.

    The reservoir population is Poisson with the configured mean; the state
    takes its replica label from ``rng``.
    """
    n0 = rng.poisson(models.reservoir_mean) if models.reservoir_mean > 0 else 0
    empty = {sid: False for sid in models.layout.site_ids}
    return SystemState(
        truth=dict(empty),
        belief=dict(empty),
        n_reservoir=n0,
        clock=models.timing.init_duration,
        replica=rng.replica,
        n_initial_reservoir=n0,
    )


def step_image(
    state: SystemState,
    models: SimulationModels,
    rng: RngStream,
    log: EventLog | None = None,
) -> None:
    """Fluorescence image: decay over the imaging window, then belief is
    reset to truth (perfect detection)."""
    timing = models.timing
    _decay_step(state, timing.image_loss_window, models, rng)
    state.clock += timing.t_image
    state.belief = dict(state.truth)
    if log is not None:
        log.add("image", state, models.layout)


def step_fill_targets(
    state: SystemState,
    plan: MovePlan,
    models: SimulationModels,
    rng: RngStream,
    log: EventLog | None = None,
) -> None:
    """Execute the fill plan move by move, then advance the analysis window.

    Belief assumes every move succeeds (source empty, destination occupied);
    truth records the sampled outcome. A believed-occupied but truly empty
    source executes as a null transport. A failed transport returns the atom
    to the source with probability ``p_stay_on_failure`` and loses it
    otherwise; at 0 or 1 no retention draw is taken. Every move lasts the
    transport's fixed ramp-translate-ramp time.
    """
    counters = state.counters
    layout = models.layout
    p_stay = models.p_stay_on_failure
    duration = models.transport.move_duration  # one float shared by the rows
    for move in plan:
        if not state.belief.get(move.src, False):
            raise PlanConflictError(
                f"fill plan sources site {move.src} which belief marks empty"
            )
        if state.belief.get(move.dst, False):
            raise PlanConflictError(
                f"fill plan targets site {move.dst} which belief marks occupied"
            )
        if state.truth[move.src]:
            state.truth[move.src] = False
            if sample_transport(rng, models.transport):
                if state.truth[move.dst]:
                    raise EngineError(
                        f"transport into occupied site {move.dst}"
                    )
                state.truth[move.dst] = True
                outcome = "ok"
            else:
                if p_stay >= 1.0 or (p_stay > 0.0 and rng.bernoulli(p_stay)):
                    state.truth[move.src] = True
                    outcome = "stay"
                else:
                    counters.transport_loss += 1
                    outcome = "lost"
        else:
            outcome = "null"
        state.belief[move.src] = False
        state.belief[move.dst] = True
        if log is not None:
            log.add(
                "fill", state, layout, src=move.src, dst=move.dst,
                dist_um=move.dist, duration_s=duration, outcome=outcome,
            )
    if log is not None and not plan.moves:
        log.add("fill", state, layout)
    _decay_step(state, models.timing.t_analysis_fill, models, rng)
    state.clock += models.timing.t_analysis_fill


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
    reservoir.
    """
    counters = state.counters
    layout = models.layout
    for sid in refill_list:
        if state.belief[sid]:
            raise PlanConflictError(
                f"refill list contains site {sid} which belief marks occupied"
            )
        if state.truth[sid]:
            outcome = "skip"
        else:
            removed, delivered = sample_extraction(
                rng, state.n_reservoir, models.extraction
            )
            state.n_reservoir -= removed
            counters.extracted += removed
            if delivered:
                state.truth[sid] = True
                counters.delivered += 1
                counters.blockade_loss += removed - 1
                outcome = "delivered"
            else:
                counters.blockade_loss += removed
                outcome = "empty" if removed == 0 else "blocked"
        if log is not None:
            log.add(
                "refill", state, layout, src="R", dst=sid,
                dist_um=layout.reservoir_distance(sid), outcome=outcome,
            )
    if log is not None and not refill_list:
        log.add("refill", state, layout)
    _decay_step(state, models.timing.t_buffer_refill, models, rng)
    state.clock += models.timing.t_buffer_refill


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
    this cycle's fill and refill are only visible in the next one.
    """
    state.cycle_index += 1
    layout = models.layout
    step_image(state, models, rng, log)
    c = state.counters
    observed = state.truth.__getitem__
    targets = layout.target_ids
    record = CycleRecord(
        cycle_index=state.cycle_index,
        target_complete=all(map(observed, targets)),
        n_buffer_filled=sum(map(observed, layout.buffer_ids)),
        n_target_filled=sum(map(observed, targets)),
        n_reservoir=state.n_reservoir,
        clock_at_image=state.clock,
        extracted_cum=c.extracted,
        delivered_cum=c.delivered,
        reservoir_decay_cum=c.reservoir_decay_loss,
    )
    plan = plan_target_fill(state.belief, layout, strategy=models.fill_strategy)
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
        raise ValueError("run.n_cycles must be at least 1")
    models = config if isinstance(config, SimulationModels) else config.build_models()
    rng = RngStream(seed, replica)
    state = init_sequence(models, rng)
    if log is not None:
        log.add("init", state, models.layout)
    return [run_cycle(state, models, rng, log) for _ in range(n_cycles)]
