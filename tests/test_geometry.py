"""Geometry layer: positions, hex grids, and the reference layout."""

import math

import pytest
from hypothesis import given, strategies as st

from tweezersim.geometry import (
    ArrayLayout,
    LayoutError,
    Position,
    SiteRole,
    TrapSite,
    build_hex_grid,
    distance,
    layout_from_preset,
    layout_from_site_rows,
    reference_layout,
)

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

    def test_preset_lookup(self):
        via_preset = layout_from_preset("paper-hex-6")
        assert via_preset.site_ids == self.layout.site_ids
        for sid in self.layout.site_ids:
            assert via_preset.site(sid).pos == self.layout.site(sid).pos

    def test_unknown_preset(self):
        with pytest.raises(LayoutError):
            layout_from_preset("no-such-preset")


def _square_sites(n, pitch):
    out = []
    for i in range(n):
        role = SiteRole.BUFFER if i % 2 == 0 else SiteRole.TARGET
        out.append(TrapSite(i, Position(pitch * i, 0.0), role))
    return out


def test_layout_rejects_duplicate_ids():
    sites = _square_sites(3, 10.0)
    sites[2] = TrapSite(0, sites[2].pos, sites[2].role)
    with pytest.raises(LayoutError):
        ArrayLayout(
            sites=tuple(sites), reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=10.0, effective_pitch=10.0,
        )


def test_layout_rejects_overlapping_sites():
    sites = _square_sites(3, 10.0) + [
        TrapSite(3, Position(0.5, 0.0), SiteRole.TARGET)
    ]
    with pytest.raises(LayoutError):
        ArrayLayout(
            sites=tuple(sites), reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=10.0, effective_pitch=10.0,
        )


def test_layout_rejects_pitch_ratio():
    with pytest.raises(LayoutError):
        ArrayLayout(
            sites=tuple(_square_sites(3, 10.0)),
            reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=10.0, effective_pitch=15.0,
        )


def test_layout_rejects_sites_outside_scan_box():
    # x spans 0..600 around centroid 300, beyond the 250 um half-width
    sites = _square_sites(3, 300.0)
    with pytest.raises(LayoutError):
        ArrayLayout(
            sites=tuple(sites), reservoir_pos=Position(-50.0, 0.0),
            scan_range=250.0, base_pitch=300.0, effective_pitch=300.0,
        )


def test_site_rows_round_trip():
    ref = reference_layout()
    rows = [(s.id, s.pos.x, s.pos.y, s.role.value) for s in ref.sites]
    rebuilt = layout_from_site_rows(
        rows,
        (ref.reservoir_pos.x, ref.reservoir_pos.y),
        scan_range=ref.scan_range,
        base_pitch=ref.base_pitch,
        effective_pitch=ref.effective_pitch,
    )
    assert rebuilt.site_ids == ref.site_ids
    assert rebuilt.buffer_ids == ref.buffer_ids
    for sid in ref.site_ids:
        assert rebuilt.site_distance(sid, ref.site_ids[0]) == pytest.approx(
            ref.site_distance(sid, ref.site_ids[0])
        )


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
    with pytest.raises(LayoutError, match=rf"^layout\.{key} must be finite and positive"):
        ArrayLayout(
            sites=tuple(_square_sites(3, 10.0)), reservoir_pos=Position(-50.0, 0.0), **sizes
        )
