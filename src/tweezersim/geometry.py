"""Trap-array geometry: hexagonal lattices, the reference layout, and distances.

All coordinates are in micrometers in the trap plane. A layout's geometry is
immutable after construction and validated once. The layout also carries
the planner's memos (``plan_memo``, ``refill_memo``), which fill as runs
read them; sharing it between replicas and configs is still safe, because
a plan depends only on the layout, the belief mask and the strategy, so a
memoised plan is the one the planner would make afresh.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Position",
    "SiteRole",
    "TrapSite",
    "ArrayLayout",
    "MaskOccupancy",
    "LayoutError",
    "build_hex_grid",
    "reference_layout",
    "distance",
]


class LayoutError(ValueError):
    """Raised when a trap layout violates its geometric constraints: the
    message is the :class:`ArrayLayout` ``field`` at fault, then ``detail``."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"{field} {detail}")
        self.field, self.detail = field, detail


@dataclass(frozen=True)
class Position:
    """A point in the trap plane (µm)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"positions must be finite, got ({self.x}, {self.y})")
        # stored as floats: run_meta.json's writer refuses numpy scalars
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))

    def __iter__(self):
        yield self.x
        yield self.y


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two positions in µm."""
    return math.hypot(a.x - b.x, a.y - b.y)


class SiteRole(Enum):
    BUFFER = "buffer"
    TARGET = "target"


@dataclass(frozen=True)
class TrapSite:
    id: int
    pos: Position
    role: SiteRole

    def __post_init__(self):
        # stored as an int: run_meta.json's writer refuses numpy scalars
        object.__setattr__(self, "id", operator.index(self.id))


# Unit steps of the hexagonal lattice, flat sides facing +-x: site columns are
# spaced sqrt(3)/2 * pitch apart in x, sites within a column pitch apart in y.
_HEX_STEPS = (
    (math.sqrt(3.0) / 2.0, 0.5),  # 30 deg
    (0.0, 1.0),                   # 90 deg
)


def build_hex_grid(rings: int, pitch: float) -> list[Position]:
    """Generate a centered hexagonal lattice patch.

    Returns the center point plus 6*k points on ring k for k = 1..rings,
    1 + 3*rings*(rings+1) positions in total. Points are ordered ring by
    ring, each ring swept counterclockwise from its smallest polar angle.
    """
    if not 0 < pitch < math.inf:
        raise ValueError(f"pitch must be finite and positive, got {pitch}")
    if rings < 0:
        raise ValueError(f"rings must be nonnegative, got {rings}")
    (ux1, uy1), (ux2, uy2) = _HEX_STEPS
    points: list[tuple[int, float, Position]] = []
    for i in range(-rings, rings + 1):
        for j in range(-rings, rings + 1):
            ring = (abs(i) + abs(j) + abs(i + j)) // 2
            if ring > rings:
                continue
            x = pitch * (i * ux1 + j * ux2)
            y = pitch * (i * uy1 + j * uy2)
            angle = math.atan2(y, x) % (2.0 * math.pi)
            points.append((ring, angle, Position(x, y)))
    points.sort(key=lambda t: (t[0], t[1]))
    return [p for _, _, p in points]


@dataclass(frozen=True)
class ArrayLayout:
    """An immutable trap-array layout plus the reservoir position.

    ``scan_range`` is the half-width (µm) of the square region the transport
    tweezers can reach, centered on the centroid of the trap sites. Every
    site and the reservoir must lie inside it. A layout holds its geometry,
    the lookups decided from it, and the planner's memos.

    Construction sorts ``sites`` by id, builds every lookup and checks the
    geometry in one pass: id lists, distances (``reservoir_dist``, and each
    ordered site pair once, which the minimum-spacing check reads),
    ``site_bits`` (id -> occupancy bit, bit k for the k-th site), the
    bitmasks of all buffer and all target sites (``buffer_bits``,
    ``target_bits``), the refill order (buffers nearest the reservoir
    first, ties by id) and ``fill_orders``, the planner's two orders of
    every (buffer, target, distance) triple read from the pair distances:
    ``"global"`` by (distance, target id, buffer id), ``"per-vacancy"`` by
    (target id, distance, buffer id).
    ``plan_memo`` and ``refill_memo`` are where the planner memoises fill
    plans and refill orders for this layout; they hold derived values only
    and take no part in equality.
    """

    sites: tuple[TrapSite, ...]
    base_pitch: float
    effective_pitch: float
    reservoir_pos: Position
    scan_range: float

    def __post_init__(self):
        # in id order, so equal geometries compare equal however listed
        sites = tuple(sorted(self.sites, key=lambda s: s.id))
        ids = tuple(s.id for s in sites)
        bits = {sid: 1 << k for k, sid in enumerate(ids)}
        for kind, role in (("buffer", SiteRole.BUFFER), ("target", SiteRole.TARGET)):
            role_ids = tuple(s.id for s in sites if s.role is role)
            if not role_ids:
                raise LayoutError("sites", f"must contain at least one {role.value} site")
            object.__setattr__(self, f"_{kind}_ids", role_ids)
            object.__setattr__(self, f"{kind}_bits", sum(bits[i] for i in role_ids))
        by_id = {s.id: s for s in sites}
        if len(by_id) != len(ids):
            repeated = next(a for a, b in zip(ids, ids[1:]) if a == b)
            n = ids.count(repeated)
            raise LayoutError(
                "sites", f"must have unique ids, got id {repeated} "
                + ("twice" if n == 2 else f"{n} times")
            )
        for key in ("base_pitch", "effective_pitch", "scan_range"):
            if not 0 < getattr(self, key) < math.inf:
                raise LayoutError(key, f"must be finite and positive, got {getattr(self, key)}")
            object.__setattr__(self, key, float(getattr(self, key)))
        ratio = self.effective_pitch / self.base_pitch
        if not (math.isclose(ratio, 1.0, rel_tol=1e-9) or math.isclose(ratio, 2.0, rel_tol=1e-9)):
            raise LayoutError(
                "effective_pitch", f"must equal base_pitch or 2 x base_pitch, got ratio {ratio:.6g}"
            )
        min_allowed = self.effective_pitch * (1.0 - 1e-9)
        dist = {}
        for a in sites:
            for b in sites:
                d = dist[a.id, b.id] = distance(a.pos, b.pos)
                if a.id < b.id and d < min_allowed:
                    raise LayoutError(
                        "sites", f"must lie at least the effective pitch "
                        f"{self.effective_pitch:.4g} um apart, got {d:.4g} um between "
                        f"sites {a.id} and {b.id}"
                    )
        cx = sum(s.pos.x for s in sites) / len(sites)
        cy = sum(s.pos.y for s in sites) / len(sites)
        for key, label, pos in [("sites", f"site {s.id} at ", s.pos) for s in sites] + [
            ("reservoir_pos", "", self.reservoir_pos)
        ]:
            if abs(pos.x - cx) > self.scan_range or abs(pos.y - cy) > self.scan_range:
                raise LayoutError(
                    key, f"must lie within the {self.scan_range:.4g} um scan range around "
                    f"the layout centroid, got {label}({pos.x:.4g}, {pos.y:.4g})"
                )
        rdist = {s.id: distance(s.pos, self.reservoir_pos) for s in sites}
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "site_bits", bits)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_dist", dist)
        object.__setattr__(self, "reservoir_dist", rdist)
        object.__setattr__(self, "_site_ids", ids)
        object.__setattr__(
            self, "refill_order",
            tuple(sorted(self._buffer_ids, key=lambda b: (rdist[b], b))),
        )
        pairs = [(s, t, dist[s, t]) for s in self._buffer_ids for t in self._target_ids]
        object.__setattr__(self, "fill_orders", {
            "global": tuple(sorted(pairs, key=lambda p: (p[2], p[1], p[0]))),
            "per-vacancy": tuple(sorted(pairs, key=lambda p: (p[1], p[2], p[0]))),
        })
        object.__setattr__(self, "plan_memo", {})
        object.__setattr__(self, "refill_memo", {})

    # -- lookups --------------------------------------------------------

    @property
    def site_ids(self) -> tuple[int, ...]:
        return self._site_ids

    @property
    def buffer_ids(self) -> tuple[int, ...]:
        return self._buffer_ids

    @property
    def target_ids(self) -> tuple[int, ...]:
        return self._target_ids

    def site(self, site_id: int) -> TrapSite:
        return self._by_id[site_id]

    def site_distance(self, a_id: int, b_id: int) -> float:
        return self._dist[a_id, b_id]


class MaskOccupancy(Mapping):
    """Read-only ``site id -> occupied`` view of a layout's occupancy bitmask."""

    __slots__ = ("layout", "mask")

    def __init__(self, layout: ArrayLayout, mask: int):
        self.layout, self.mask = layout, mask

    def __getitem__(self, site_id: int) -> bool:
        return bool(self.mask & self.layout.site_bits[site_id])

    def __iter__(self):
        return iter(self.layout._site_ids)

    def __len__(self) -> int:
        return len(self.layout._site_ids)


# -- the reference layout -----------------------------------------------

_BASE_PITCH = 7.9  # µm, full lattice
_EFFECTIVE_PITCH = 15.8  # µm, every second lenslet masked off
_RESERVOIR_GAP = 41.0  # µm from the nearest buffer site
_SCAN_RANGE = 250.0  # µm transport reach half-width
_TARGET_OFFSET_COLUMNS = 4  # lattice columns between block centers


def reference_layout() -> ArrayLayout:
    """The frozen 13-site preset: a filled 7-site buffer hexagon next to the
    reservoir and a 6-site target ring (center unoccupied) four lattice
    columns further out.

    Buffer sites get ids 0..6 (0 = block center), target sites 7..12, both
    in ring sweep order. The reservoir sits on the -x axis at 41 µm from the
    closest buffer sites.

    The reference apparatus, for the record (the model uses none of these):
    array and reservoir trap depths 600(200) µK, waists 2.0(2) µm (array),
    14.6(1) µm (reservoir) and 2.2(1) µm (transport tweezer); two-body loss
    in the reservoir is folded into its lifetime constant.
    """
    pitch = _EFFECTIVE_PITCH
    column = pitch * math.sqrt(3.0) / 2.0
    buffer_positions = build_hex_grid(1, pitch)
    target_shift = _TARGET_OFFSET_COLUMNS * column
    target_positions = [
        Position(p.x + target_shift, p.y) for p in build_hex_grid(1, pitch)[1:]
    ]
    # Closest buffer sites to the -x axis sit at (-column, +-pitch/2); place
    # the reservoir on the axis exactly 41 µm from that pair.
    reservoir = Position(-(column + math.sqrt(_RESERVOIR_GAP**2 - (pitch / 2.0) ** 2)), 0.0)
    sites = [
        TrapSite(i, pos, SiteRole.BUFFER) for i, pos in enumerate(buffer_positions)
    ] + [
        TrapSite(7 + i, pos, SiteRole.TARGET) for i, pos in enumerate(target_positions)
    ]
    return ArrayLayout(
        sites=tuple(sites),
        base_pitch=_BASE_PITCH,
        effective_pitch=pitch,
        reservoir_pos=reservoir,
        scan_range=_SCAN_RANGE,
    )
