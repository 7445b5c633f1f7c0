"""Rearrangement planning: shortest-move target filling and buffer refill
ordering.

Plans are computed against the controller's *believed* occupancy, never the
ground truth; the cycle engine reconciles the two at each imaging step. The
planner checks each fill plan against its belief once, when it makes it
(:func:`check_fill_plan`), and the engine runs the plans it is handed
without checking them again.
"""

from __future__ import annotations

from typing import NamedTuple

from .geometry import ArrayLayout, MaskOccupancy

__all__ = [
    "Move",
    "PlanError",
    "check_fill_plan",
    "plan_target_fill",
    "plan_buffer_refill",
]


class PlanError(ValueError):
    """Raised when a plan request is inconsistent with the layout, or a
    plan with the belief it is made for."""


class Move(NamedTuple):
    """One single-atom transport from site ``src`` to site ``dst``."""

    src: int
    dst: int
    dist: float  # µm


# Most entries each of a layout's two memos keeps: 2^13, the number of
# believed occupancies of the 13-site reference layout. The fill memo is
# keyed by (belief mask, strategy), so the cap covers one strategy's 8,192
# reference masks; the refill memo is keyed by the mask's buffer bits.
# Both live on the layout object, so every bundle built on that object
# shares them. A full memo keeps what it has and plans the rest afresh.
MEMO_CAP = 8192


def plan_target_fill(belief: MaskOccupancy, *, strategy: str = "global") -> tuple[Move, ...]:
    """Shortest-move-first plan filling the empty target sites of
    ``belief.layout`` from its occupied buffers, as a tuple of moves.

    Each step takes the closest remaining (vacancy, source) pair, ties
    broken on smaller destination id, then smaller source id. The default
    ``global`` strategy weighs every remaining vacancy; ``per-vacancy``
    only the one with the smallest id, so vacancies are filled in id order,
    each from its nearest remaining source (kept for comparison runs).

    A plan is one pass over the layout's ``fill_orders[strategy]``, which
    holds every (buffer, target) pair in that rule's order: it takes each
    pair whose source is still occupied and whose target is still empty.
    A pair passed over never becomes usable again, so the first usable pair
    is always the rule's next choice. The plan always contains
    min(#vacancies, #occupied buffers) moves.

    Each plan is checked by :func:`check_fill_plan` once, when it is made,
    and then memoised on the layout by (belief mask, strategy). ``belief``
    is a :class:`MaskOccupancy` rather than the bitmask it reads only
    because the benchmark's tracer reads the fill's input as a mapping.
    """
    if type(belief) is not MaskOccupancy:
        raise PlanError(f"belief must be a MaskOccupancy, got {type(belief).__name__}")
    layout, mask = belief.layout, belief.mask
    plan = layout.plan_memo.get((mask, strategy))
    if plan is not None:
        return plan
    order = layout.fill_orders.get(strategy)
    if order is None:
        raise PlanError(f"unknown fill strategy {strategy!r}")
    bits = layout.site_bits
    n_moves = min(
        (mask & layout.buffer_bits).bit_count(), (~mask & layout.target_bits).bit_count()
    )
    moves: list[Move] = []
    # a set bit is an occupied site: a move clears its source's, sets its target's
    state = mask
    for src, dst, d in order:
        if len(moves) == n_moves:
            break
        if state & bits[src] and not state & bits[dst]:
            moves.append(Move(src, dst, d))
            state ^= bits[src] | bits[dst]
    plan = tuple(moves)
    check_fill_plan(plan, mask, layout)
    if len(layout.plan_memo) < MEMO_CAP:
        layout.plan_memo[mask, strategy] = plan
    return plan


def check_fill_plan(plan: tuple[Move, ...], mask: int, layout: ArrayLayout) -> None:
    """Raise :class:`PlanError`, naming the site, unless every move of
    ``plan`` takes a distinct buffer the belief bitmask ``mask`` marks
    occupied to a distinct target it marks empty.

    The engine runs a plan on this guarantee alone: each source holds the
    atom the image saw there and each target is empty, so a plan moves at
    most min(#targets, #buffers) atoms, one per move slot of the cycle.
    """
    bits = layout.site_bits
    sources = mask & layout.buffer_bits  # occupied buffers not yet moved
    vacancies = ~mask & layout.target_bits  # empty targets not yet filled
    for src, dst, _ in plan:
        bit = bits.get(src, 0)
        if not sources & bit:
            raise PlanError(f"fill plan sources site {src}, not a believed-occupied buffer left")
        sources ^= bit
        bit = bits.get(dst, 0)
        if not vacancies & bit:
            raise PlanError(f"fill plan targets site {dst}, not a believed-empty target left")
        vacancies ^= bit


def plan_buffer_refill(mask: int, layout: ArrayLayout) -> tuple[int, ...]:
    """Buffer sites the belief bitmask ``mask`` marks empty, ordered
    nearest-to-reservoir first (ties by site id); the destinations of the
    next extraction round.

    Filters the layout's fixed refill order, memoised on the layout by the
    mask's buffer bits; calls with the same buffer bits return the same
    tuple while the memo holds it."""
    memo = layout.refill_memo
    buffers = mask & layout.buffer_bits
    order = memo.get(buffers)
    if order is None:
        bits = layout.site_bits
        order = tuple(b for b in layout.refill_order if not mask & bits[b])
        if len(memo) < MEMO_CAP:
            memo[buffers] = order
    return order
