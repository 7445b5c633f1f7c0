"""Rearrangement planning: shortest-move target filling and buffer refill
ordering.

Plans are computed against the controller's *believed* occupancy, never the
ground truth; the cycle engine reconciles the two at each imaging step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import ArrayLayout, MaskOccupancy

__all__ = [
    "Move",
    "MovePlan",
    "PlanError",
    "plan_target_fill",
    "plan_buffer_refill",
]


class PlanError(ValueError):
    """Raised when a plan request is inconsistent with the layout."""


@dataclass(frozen=True, slots=True)
class Move:
    """One single-atom transport from site ``src`` to site ``dst``."""

    src: int
    dst: int
    dist: float  # µm

    def __post_init__(self):
        if self.src == self.dst:
            raise PlanError(f"move source and destination coincide (site {self.src})")


@dataclass(frozen=True)
class MovePlan:
    moves: tuple[Move, ...]

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))
        srcs = [m.src for m in self.moves]
        dsts = [m.dst for m in self.moves]
        if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
            raise PlanError("a site may appear at most once as source and once as destination")

    @property
    def total_distance(self) -> float:
        return sum(m.dist for m in self.moves)

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)


# Most fill plans the layout's memo keeps: 2^13, one per believed occupancy
# of the 13-site reference layout. A full memo keeps what it has and plans
# the rest afresh.
MEMO_CAP = 8192


def _belief_mask(belief: MaskOccupancy, layout: ArrayLayout) -> int:
    """The bitmask ``belief`` views, which must be a mask view of ``layout``
    or of a layout with the same site ids."""
    if type(belief) is not MaskOccupancy:
        raise PlanError(f"belief must be a MaskOccupancy, got {type(belief).__name__}")
    if belief.layout is layout or belief.layout.site_ids == layout.site_ids:
        return belief.mask
    missing = set(layout.site_ids) - set(belief)
    extra = set(belief) - set(layout.site_ids)
    raise PlanError(
        f"belief must cover exactly the layout sites "
        f"(missing {sorted(missing)}, extraneous {sorted(extra)})"
    )


def plan_target_fill(
    belief: MaskOccupancy,
    layout: ArrayLayout,
    *,
    strategy: str = "global",
) -> MovePlan:
    """Shortest-move-first plan filling empty target sites from occupied
    buffers.

    Each step takes the closest remaining (vacancy, source) pair, ties
    broken on smaller destination id, then smaller source id. The default
    ``global`` strategy weighs every remaining vacancy; ``per-vacancy``
    only the one with the smallest id, so vacancies are filled in id order,
    each from its nearest remaining source (kept for comparison runs).

    The plan always contains min(#vacancies, #occupied buffers) moves.
    Plans are memoised on the layout by (belief mask, strategy).
    """
    mask = _belief_mask(belief, layout)
    plan = layout.plan_memo.get((mask, strategy))
    if plan is not None:
        return plan
    if strategy not in ("global", "per-vacancy"):
        raise PlanError(f"unknown fill strategy {strategy!r}")
    bits = layout.site_bits
    vacancies = [t for t in layout.target_ids if not mask & bits[t]]
    sources = [b for b in layout.buffer_ids if mask & bits[b]]
    moves: list[Move] = []
    while vacancies and sources:
        d, dst, src = min(
            (layout.site_distance(s, v), v, s)
            for v in (vacancies if strategy == "global" else vacancies[:1])
            for s in sources
        )
        moves.append(Move(src, dst, d))
        vacancies.remove(dst)
        sources.remove(src)
    plan = MovePlan(tuple(moves))
    if len(layout.plan_memo) < MEMO_CAP:
        layout.plan_memo[mask, strategy] = plan
    return plan


def plan_buffer_refill(belief: MaskOccupancy, layout: ArrayLayout) -> list[int]:
    """Buffer sites believed empty, ordered nearest-to-reservoir first
    (ties by site id); the destinations of the next extraction round.

    Filters the layout's fixed refill order; every call returns a new list."""
    mask, bits = _belief_mask(belief, layout), layout.site_bits
    return [b for b in layout.refill_order if not mask & bits[b]]

