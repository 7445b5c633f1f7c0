"""Trap-array geometry: hexagonal lattices, layout presets, and distances.

All coordinates are in micrometers in the trap plane. A layout is immutable
after construction and validated once, so it can be shared freely between
concurrent simulation replicas.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
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
    "layout_from_preset",
    "PRESETS",
    "distance",
]


class LayoutError(ValueError):
    """Raised when a trap layout violates its geometric constraints."""


@dataclass(frozen=True)
class Position:
    """A point in the trap plane (µm)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"positions must be finite, got ({self.x}, {self.y})")

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
    if pitch <= 0:
        raise ValueError(f"pitch must be positive, got {pitch}")
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
    site and the reservoir must lie inside it. A layout carries geometry
    only.

    ``sites`` is kept sorted by id. Id lists, distances (``reservoir_dist``),
    ``site_bits`` (id -> occupancy bit, bit k for the k-th site) and the refill
    order (buffers nearest the reservoir first, ties by id) are computed once.
    ``plan_memo`` is where the planner memoises fill plans for this layout;
    it holds derived values only and takes no part in equality.
    """

    sites: tuple[TrapSite, ...]
    base_pitch: float
    effective_pitch: float
    reservoir_pos: Position
    scan_range: float

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        self._validate()
        # in id order, so equal geometries compare equal however listed
        object.__setattr__(self, "sites", tuple(sorted(self.sites, key=lambda s: s.id)))
        by_id = {s.id: s for s in self.sites}
        ids = tuple(sorted(by_id))
        dist = {(a.id, b.id): distance(a.pos, b.pos) for a in self.sites for b in self.sites}
        rdist = {s.id: distance(s.pos, self.reservoir_pos) for s in self.sites}
        object.__setattr__(self, "site_bits", {sid: 1 << k for k, sid in enumerate(ids)})
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_dist", dist)
        object.__setattr__(self, "reservoir_dist", rdist)
        object.__setattr__(self, "_site_ids", ids)
        for name, role in (("_buffer_ids", SiteRole.BUFFER), ("_target_ids", SiteRole.TARGET)):
            object.__setattr__(self, name, tuple(i for i in ids if by_id[i].role is role))
        object.__setattr__(
            self, "refill_order",
            tuple(sorted(self._buffer_ids, key=lambda b: (rdist[b], b))),
        )
        object.__setattr__(self, "plan_memo", {})

    def _validate(self) -> None:
        for role in SiteRole:
            if not any(s.role is role for s in self.sites):
                raise LayoutError(f"layout must contain at least one {role.value} site")
        ids = [s.id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise LayoutError("site ids must be unique within a layout")
        for key in ("base_pitch", "effective_pitch", "scan_range"):
            if not 0 < getattr(self, key) < math.inf:
                raise LayoutError(
                    f"layout.{key} must be finite and positive, got {getattr(self, key)}"
                )
        ratio = self.effective_pitch / self.base_pitch
        if not (math.isclose(ratio, 1.0, rel_tol=1e-9) or math.isclose(ratio, 2.0, rel_tol=1e-9)):
            raise LayoutError(
                f"effective_pitch must equal base_pitch or 2 x base_pitch, "
                f"got ratio {ratio:.6g}"
            )
        min_allowed = self.effective_pitch * (1.0 - 1e-9)
        for k, a in enumerate(self.sites):
            for b in self.sites[k + 1 :]:
                d = distance(a.pos, b.pos)
                if d < min_allowed:
                    raise LayoutError(
                        f"sites {a.id} and {b.id} are {d:.4g} um apart, "
                        f"closer than the effective pitch {self.effective_pitch:.4g}"
                    )
        cx = sum(s.pos.x for s in self.sites) / len(self.sites)
        cy = sum(s.pos.y for s in self.sites) / len(self.sites)
        for label, pos in [(f"site {s.id}", s.pos) for s in self.sites] + [
            ("reservoir", self.reservoir_pos)
        ]:
            if abs(pos.x - cx) > self.scan_range or abs(pos.y - cy) > self.scan_range:
                raise LayoutError(
                    f"{label} at ({pos.x:.4g}, {pos.y:.4g}) lies outside the "
                    f"{self.scan_range:.4g} um scan range around the layout centroid"
                )

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


# -- presets ------------------------------------------------------------

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


PRESETS = {
    "paper-hex-6": reference_layout,
}


def layout_from_preset(name: str) -> ArrayLayout:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise LayoutError(
            f"unknown layout preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
    return factory()


def layout_from_site_rows(
    rows: Iterable[tuple[int, float, float, str]],
    reservoir: tuple[float, float],
    scan_range: float,
    base_pitch: float,
    effective_pitch: float,
) -> ArrayLayout:
    """Build a layout from plain (id, x, y, role) rows, as read from a
    config file."""
    sites = []
    for sid, x, y, role in rows:
        try:
            parsed_role = SiteRole(role.strip().lower())
        except ValueError:
            raise LayoutError(
                f"site {sid}: role must be 'buffer' or 'target', got {role!r}"
            ) from None
        sites.append(TrapSite(int(sid), Position(float(x), float(y)), parsed_role))
    return ArrayLayout(
        sites=tuple(sites),
        base_pitch=base_pitch,
        effective_pitch=effective_pitch,
        reservoir_pos=Position(*reservoir),
        scan_range=scan_range,
    )
