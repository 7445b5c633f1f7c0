"""Rearrangement planning: shortest-move target filling, buffer refill
ordering, and an exact minimum-cost assignment oracle for benchmarking the
heuristic.

Plans are computed against the controller's *believed* occupancy, never the
ground truth; the cycle engine reconciles the two at each imaging step.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayLayout, MaskOccupancy, Position, distance

__all__ = [
    "RESERVOIR",
    "Occupancy",
    "Move",
    "MovePlan",
    "PlanError",
    "plan_target_fill",
    "plan_buffer_refill",
    "optimal_assignment",
    "exhaustive_assignment",
    "Assignment",
]

# Sentinel source id for extraction moves out of the reservoir.
RESERVOIR = -1

# Believed occupancy: site id -> occupied? (a dict or a MaskOccupancy)
Occupancy = Mapping[int, bool]


class PlanError(ValueError):
    """Raised when a plan request is inconsistent with the layout."""


@dataclass(frozen=True, slots=True)
class Move:
    """One single-atom transport: ``src`` site (or RESERVOIR) to ``dst``."""

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


def _belief_mask(belief: Occupancy, layout: ArrayLayout) -> int:
    """Occupancy bitmask of ``belief``, which must name every layout site
    and nothing else; a mask view of ``layout`` hands over its mask."""
    if type(belief) is MaskOccupancy and belief.layout is layout:
        return belief.mask
    if len(belief) == len(layout.site_ids):
        try:
            return layout.occupancy_mask(belief)
        except KeyError:
            pass
    missing = set(layout.site_ids) - set(belief)
    extra = set(belief) - set(layout.site_ids)
    raise PlanError(
        f"belief must cover exactly the layout sites "
        f"(missing {sorted(missing)}, extraneous {sorted(extra)})"
    )


def plan_target_fill(
    belief: Occupancy,
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


def plan_buffer_refill(belief: Occupancy, layout: ArrayLayout) -> list[int]:
    """Buffer sites believed empty, ordered nearest-to-reservoir first
    (ties by site id); the destinations of the next extraction round.

    Filters the layout's fixed refill order; every call returns a new list."""
    mask, bits = _belief_mask(belief, layout), layout.site_bits
    return [b for b in layout.refill_order if not mask & bits[b]]


# -- assignment oracle --------------------------------------------------

@dataclass(frozen=True)
class Assignment:
    """A minimum-cost matching: (vacancy index, source index) pairs."""

    pairs: tuple[tuple[int, int], ...]
    total_distance: float


def _cost_matrix(vacancies: Sequence[Position], sources: Sequence[Position]) -> np.ndarray:
    return np.array(
        [[distance(v, s) for s in sources] for v in vacancies], dtype=float
    )


def exhaustive_assignment(
    vacancies: Sequence[Position], sources: Sequence[Position]
) -> Assignment:
    """Exact matching by enumerating every injection of the smaller side
    into the larger; only viable for small instances."""
    nv, ns = len(vacancies), len(sources)
    if nv == 0 or ns == 0:
        return Assignment((), 0.0)
    cost = _cost_matrix(vacancies, sources)
    swap = nv > ns
    if swap:
        cost = cost.T
    rows, cols = cost.shape
    best_total = float("inf")
    best: tuple[int, ...] = ()
    for perm in itertools.permutations(range(cols), rows):
        total = 0.0
        for r, c in enumerate(perm):
            total += cost[r, c]
            if total >= best_total:
                break
        else:
            best_total = total
            best = perm
    pairs = [(r, c) for r, c in enumerate(best)]
    if swap:
        pairs = [(c, r) for r, c in pairs]
    return Assignment(tuple(sorted(pairs)), float(best_total))


def optimal_assignment(
    vacancies: Sequence[Position], sources: Sequence[Position]
) -> Assignment:
    """Minimum-total-distance matching of size min(#vacancies, #sources).

    Solved exactly at every size by scipy's Hungarian-style solver;
    :func:`exhaustive_assignment` is the independent test oracle. scipy
    is imported here, not with the module, so simulating never loads it.
    """
    from scipy.optimize import linear_sum_assignment

    if len(vacancies) == 0 or len(sources) == 0:
        return Assignment((), 0.0)
    cost = _cost_matrix(vacancies, sources)
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple(sorted((int(r), int(c)) for r, c in zip(rows, cols)))
    return Assignment(pairs, float(cost[rows, cols].sum()))
