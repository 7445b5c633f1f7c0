"""Walk through one simulated loading sequence cycle by cycle.

Shows the per-cycle imaging records (what the experiment would see) plus a
short excerpt of the underlying event log.
"""

from tweezersim.config import ExperimentConfig
from tweezersim.engine import EventLog, run_realization

# 11 reported cycles at seed 7: 12 engine cycles, the last image reading
# out the 11th
config = ExperimentConfig(master_seed=7, n_cycles=11)
log = EventLog()
records = run_realization(config, log=log)

print("cycle  clock/s  reservoir  buffers  targets  extracted  delivered  complete")
for rec in records:
    print(f"{rec.cycle_index:5d}  {rec.clock_at_image:7.2f}  {rec.n_reservoir:9d}"
          f"  {rec.n_buffer_filled:7d}  {rec.n_target_filled:7d}"
          f"  {rec.extracted_cum:9d}  {rec.delivered_cum:9d}"
          f"  {'yes' if rec.target_complete else ''}")

print("\n(cycle 1 images the freshly prepared, still empty array; the"
      "\n reported ensemble curves start at the following image)")

done = next((r.cycle_index for r in records if r.target_complete), None)
if done is None:
    print("\ntarget pattern not completed in this realization")
else:
    print(f"\ntarget pattern first seen complete at cycle {done}")

# the log keeps every step; show the first fill round with actual moves
moves = [r for r in log.rows if r[2] == "fill" and r[7] != ""]
if moves:
    first_cycle = moves[0][1]
    print(f"\nfill round of cycle {first_cycle}:")
    for row in moves:
        if row[1] != first_cycle:
            break
        src, dst, dist, dur, outcome = row[7:12]
        print(f"  move {src:>2} -> {dst:>2}  {dist:6.2f} um  "
              f"{dur * 1e6:6.0f} us  {outcome}")
