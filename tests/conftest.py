"""Helpers shared by the test modules."""

from tweezersim.geometry import build_hex_grid, layout_from_site_rows


def hex_layout():
    """91 sites, more than a 63-bit mask holds: a 5-ring hexagon with the
    sites left of its centre column as buffers, the rest as targets."""
    rows = [
        (k, p.x, p.y, "buffer" if p.x < 0 else "target")
        for k, p in enumerate(build_hex_grid(5, 15.8))
    ]
    return layout_from_site_rows(
        rows, (-120.0, 0.0), scan_range=250.0, base_pitch=15.8, effective_pitch=15.8,
    )
