"""Helpers shared by the test modules."""

from tweezersim.geometry import ArrayLayout, Position, SiteRole, TrapSite, build_hex_grid


def two_site_layout():
    """One buffer beside one target, the smallest layout the engine accepts."""
    return ArrayLayout(
        sites=(
            TrapSite(0, Position(0.0, 0.0), SiteRole.BUFFER),
            TrapSite(1, Position(15.8, 0.0), SiteRole.TARGET),
        ),
        reservoir_pos=Position(-41.0, 0.0), scan_range=250.0, base_pitch=7.9, effective_pitch=15.8,
    )


def hex_layout():
    """91 sites, more than a 63-bit mask holds: a 5-ring hexagon with the
    sites left of its centre column as buffers, the rest as targets."""
    sites = tuple(
        TrapSite(k, p, SiteRole.BUFFER if p.x < 0 else SiteRole.TARGET)
        for k, p in enumerate(build_hex_grid(5, 15.8))
    )
    return ArrayLayout(
        sites=sites, reservoir_pos=Position(-120.0, 0.0),
        scan_range=250.0, base_pitch=15.8, effective_pitch=15.8,
    )
