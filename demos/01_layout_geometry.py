"""Print the reference trap layout: a 7-site hexagonal buffer cluster, a
6-site hexagonal target ring, and the reservoir pickup point off to the
side. Run from anywhere after installing the package."""

from tweezersim.geometry import reference_layout

layout = reference_layout()

print(f"sites: {len(layout.site_ids)}  "
      f"(buffers {layout.buffer_ids}, targets {layout.target_ids})")
print(f"reservoir pickup at ({layout.reservoir_pos.x:.1f}, "
      f"{layout.reservoir_pos.y:.1f}) um\n")

print(" id  role    x/um     y/um   d(reservoir)/um")
for sid in layout.site_ids:
    site = layout.site(sid)
    print(f"{sid:3d}  {site.role.value:<6s}{site.pos.x:8.2f} {site.pos.y:8.2f}"
          f"  {layout.reservoir_dist[sid]:10.2f}")

# pairwise minimum separation, the number the interference constraint cares about
pairs = [
    (a, b)
    for i, a in enumerate(layout.site_ids)
    for b in layout.site_ids[i + 1:]
]
closest = min(pairs, key=lambda p: layout.site_distance(*p))
print(f"\nclosest pair: {closest} at "
      f"{layout.site_distance(*closest):.2f} um")

# refill order for a completely empty buffer cluster
from tweezersim.planner import plan_buffer_refill

belief = {sid: False for sid in layout.site_ids}
order = plan_buffer_refill(belief, layout)
print(f"refill order (empty array): {order}")
print("  -> nearest buffers to the reservoir are served first")
