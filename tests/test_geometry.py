"""Geometry layer: positions, hex grids, and the reference layout."""

import math

import pytest
from hypothesis import given, strategies as st

from tweezersim import geometry
from tweezersim.config import load_config
from tweezersim.geometry import (
    ArrayLayout,
    LayoutError,
    Position,
    SiteRole,
    TrapSite,
    build_hex_grid,
    distance,
    reference_layout,
)

from conftest import hex_layout

RING = math.sqrt(3.0) / 2.0  # hex ring x step per unit pitch


def test_position_rejects_nonfinite():
    with pytest.raises(ValueError):
        Position(math.nan, 0.0)
    with pytest.raises(ValueError):
        Position(0.0, math.inf)


def test_position_unpacks():
    x, y = Position(1.5, -2.0)
    assert (x, y) == (1.5, -2.0)


@given(
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
)
def test_distance_matches_hypot_and_symmetry(ax, ay, bx, by):
    a, b = Position(ax, ay), Position(bx, by)
    assert distance(a, b) == pytest.approx(math.hypot(ax - bx, ay - by))
    assert distance(a, b) == distance(b, a)


def test_hex_grid_ring_counts():
    assert len(build_hex_grid(0, 5.0)) == 1
    assert len(build_hex_grid(1, 5.0)) == 7
    assert len(build_hex_grid(2, 5.0)) == 19


@pytest.mark.parametrize("pitch", [0.0, -1.0, math.nan, math.inf])
def test_hex_grid_rejects_unusable_pitch(pitch):
    with pytest.raises(ValueError, match="pitch must be finite and positive"):
        build_hex_grid(1, pitch)


def test_hex_grid_nearest_neighbour_is_pitch():
    pts = build_hex_grid(2, 7.9)
    dmin = min(
        distance(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]
    )
    assert dmin == pytest.approx(7.9, rel=1e-12)


def test_hex_grid_first_ring_radius():
    pts = build_hex_grid(1, 10.0)
    center = pts[0]
    assert (center.x, center.y) == (0.0, 0.0)
    for p in pts[1:]:
        assert distance(center, p) == pytest.approx(10.0, rel=1e-12)


class TestReferenceLayout:
    def setup_method(self):
        self.layout = reference_layout()

    def test_site_counts_and_ids(self):
        assert len(self.layout.sites) == 13
        assert list(self.layout.buffer_ids) == list(range(7))
        assert list(self.layout.target_ids) == list(range(7, 13))

    def test_pitch_doubling(self):
        assert self.layout.base_pitch == pytest.approx(7.9)
        assert self.layout.effective_pitch == pytest.approx(15.8)

    def test_min_site_separation_is_effective_pitch(self):
        ids = self.layout.site_ids
        dmin = min(
            self.layout.site_distance(a, b)
            for i, a in enumerate(ids) for b in ids[i + 1:]
        )
        assert dmin == pytest.approx(15.8, rel=1e-9)

    def test_target_block_offset(self):
        # target ring = buffer ring (minus its center) shifted 4 ring steps in x
        shift = 4.0 * RING * 15.8
        ring = {
            (round(s.pos.x, 6), round(s.pos.y, 6))
            for s in self.layout.sites[:7]
            if (s.pos.x, s.pos.y) != (0.0, 0.0)
        }
        shifted = {
            (round(s.pos.x - shift, 6), round(s.pos.y, 6))
            for s in self.layout.sites[7:]
        }
        assert shifted == ring

    def test_reservoir_sits_41um_from_nearest_buffers(self):
        dists = sorted(
            (self.layout.reservoir_dist[b], b) for b in self.layout.buffer_ids
        )
        assert dists[0][0] == pytest.approx(41.0, abs=1e-9)
        assert dists[1][0] == pytest.approx(41.0, abs=1e-9)
        assert dists[2][0] > 41.0

    def test_reservoir_x_derivation(self):
        # closest ring sites are at (-ring_step, +-base_pitch), so the
        # reservoir x solves sqrt((x + ring_step)^2 + base^2) = 41
        ring_step = RING * 15.8
        expected = -(ring_step + math.sqrt(41.0**2 - 7.9**2))
        assert self.layout.reservoir_pos.x == pytest.approx(expected)
        assert self.layout.reservoir_pos.y == 0.0

    def test_sites_fit_in_scan_box(self):
        # scan_range is the half-width of the reachable square around the
        # site centroid; the reservoir must be reachable too
        xs = [s.pos.x for s in self.layout.sites]
        ys = [s.pos.y for s in self.layout.sites]
        cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
        for pos in [s.pos for s in self.layout.sites] + [self.layout.reservoir_pos]:
            assert abs(pos.x - cx) <= self.layout.scan_range
            assert abs(pos.y - cy) <= self.layout.scan_range

    def test_site_bits_are_dense_in_id_order(self):
        bits = [self.layout.site_bits[s] for s in self.layout.site_ids]
        assert bits == [1 << k for k in range(13)]


# n * n ordered site pairs plus n reservoir distances, for n = 13 and 91
@pytest.mark.parametrize(
    "build, calls", [(reference_layout, 182), (hex_layout, 8_372)], ids=["reference", "hex-91"]
)
def test_construction_computes_each_distance_once(build, calls, monkeypatch):
    # the spacing check reads the pair distances the lookups keep
    counted = []

    def counting(a, b):
        counted.append((a, b))
        return distance(a, b)

    monkeypatch.setattr(geometry, "distance", counting)
    build()
    assert len(counted) == calls


def _square_sites(n, pitch):
    out = []
    for i in range(n):
        role = SiteRole.BUFFER if i % 2 == 0 else SiteRole.TARGET
        out.append(TrapSite(i, Position(pitch * i, 0.0), role))
    return out


def test_layout_rejects_duplicate_ids():
    sites = _square_sites(3, 10.0)
    sites[2] = TrapSite(0, sites[2].pos, sites[2].role)
    with pytest.raises(LayoutError, match=r"^sites must have unique ids, got id 0 twice$"):
        ArrayLayout(
            sites=tuple(sites), reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=10.0, effective_pitch=10.0,
        )


def test_duplicate_ids_name_the_smallest_repeated_id():
    # ids 3, 3, 3 and 4, 4 listed out of order: the smallest repeated id is
    # named, with how often it occurs
    sites = _square_sites(6, 10.0)
    ids = [4, 3, 0, 3, 4, 3]
    sites = [TrapSite(i, s.pos, s.role) for i, s in zip(ids, sites)]
    with pytest.raises(LayoutError, match=r"^sites must have unique ids, got id 3 3 times$"):
        ArrayLayout(
            sites=tuple(sites), reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=10.0, effective_pitch=10.0,
        )


def test_layout_rejects_overlapping_sites():
    sites = _square_sites(3, 10.0) + [
        TrapSite(3, Position(0.5, 0.0), SiteRole.TARGET)
    ]
    with pytest.raises(LayoutError, match=(
        r"^sites must lie at least the effective pitch 10 um apart, "
        r"got 0\.5 um between sites 0 and 3$"
    )):
        ArrayLayout(
            sites=tuple(sites), reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=10.0, effective_pitch=10.0,
        )


def test_layout_rejects_pitch_ratio():
    with pytest.raises(LayoutError, match=r"^effective_pitch must equal base_pitch or 2 x"):
        ArrayLayout(
            sites=tuple(_square_sites(3, 10.0)),
            reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=10.0, effective_pitch=15.0,
        )


def test_layout_rejects_sites_outside_scan_box():
    # x spans 0..600 around centroid 300, beyond the 250 um half-width
    sites = _square_sites(3, 300.0)
    with pytest.raises(LayoutError, match=r"^sites must lie within .*, got site 0 at \(0, 0\)$"):
        ArrayLayout(
            sites=tuple(sites), reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=300.0, effective_pitch=300.0,
        )
    # a reservoir out of reach is the reservoir_pos field's fault
    with pytest.raises(LayoutError) as info:
        ArrayLayout(
            sites=tuple(_square_sites(3, 10.0)), reservoir_pos=Position(-300.0, 0.0),
            scan_range=250.0, base_pitch=10.0, effective_pitch=10.0,
        )
    assert (info.value.field, info.value.detail) == (
        "reservoir_pos",
        "must lie within the 250 um scan range around the layout centroid, got (-300, 0)",
    )


def test_site_rows_round_trip(tmp_path):
    # the reference written out as [layout] site rows reads back as itself
    ref = reference_layout()
    rows = "".join(f"\n    {s.id} {s.pos.x!r} {s.pos.y!r} {s.role.value}" for s in ref.sites)
    ini = tmp_path / "rows.ini"
    ini.write_text(
        f"[layout]\nsites ={rows}\nreservoir = {ref.reservoir_pos.x!r} {ref.reservoir_pos.y!r}\n"
        f"scan_range = {ref.scan_range!r}\nbase_pitch = {ref.base_pitch!r}\n"
        f"effective_pitch = {ref.effective_pitch!r}\n"
    )
    assert load_config(str(ini)).layout == ref


@pytest.mark.parametrize("role", list(SiteRole))
def test_layout_needs_a_site_of_each_role(role):
    # a single-role layout has nothing to fill from or nothing to fill
    sites = [TrapSite(s.id, s.pos, role) for s in _square_sites(3, 10.0)]
    with pytest.raises(LayoutError, match="at least one"):
        ArrayLayout(
            sites=tuple(sites), reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=10.0, effective_pitch=10.0,
        )


@pytest.mark.parametrize("key", ["base_pitch", "effective_pitch", "scan_range"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
def test_layout_rejects_unusable_sizes_naming_the_key(key, value):
    # inf passes a positive check, and an infinite pitch would be reported as
    # a pitch ratio of 0
    sizes = dict(scan_range=250.0, base_pitch=10.0, effective_pitch=10.0)
    sizes[key] = value
    with pytest.raises(LayoutError, match=rf"^{key} must be finite and positive") as info:
        ArrayLayout(
            sites=tuple(_square_sites(3, 10.0)), reservoir_pos=Position(-50.0, 0.0), **sizes
        )
    assert info.value.field == key
