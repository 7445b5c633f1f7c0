"""Reference speed of the machine, for the end-to-end times.

On a shared host the same execution can take from 1x to 1.8x its usual
time, in spells lasting tens of seconds to minutes, so the median over one
run cannot remove them. Every timed interval (a workload execution, a
set-up probe) is therefore bracketed by a fixed reference kernel, and the
benchmark reports ``interval * KERNEL_REFERENCE_S / kernel time``: how long
the interval would have taken with the machine at its reference speed.

The kernel is a miniature of the engine's loop, written here and using no
tweezersim code: a seeded generator per replica, dict occupancy over 13
sites, sorted id lists, greedy nearest pairing, scalar draws and a frozen
record per cycle. A change to the program moves the scaled times and
leaves the kernel alone.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# A typical kernel time on the 2-vCPU Intel Xeon host the bounds were set
# on, so that there scaled and measured times are of the same size.
KERNEL_REFERENCE_S = 0.025
KERNEL_REPEATS = 9

_SITES = range(13)
# distances of an arbitrary fixed geometry; only the access pattern matters
_DIST = {(a, b): abs(a - b) * 1.5 + (a * b) % 7 for a in _SITES for b in _SITES}


@dataclass(frozen=True)
class _Record:
    cycle: int
    complete: bool
    n_buffer: int
    n_reservoir: int


def _kernel_once(replicas: int = 60, cycles: int = 16) -> int:
    records = []
    for replica in range(replicas):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, replica))))
        truth = {s: False for s in _SITES}
        reservoir = int(rng.poisson(80.0))
        for cycle in range(cycles):
            for site, full in truth.items():
                if full and not rng.random() < 0.985:
                    truth[site] = False
            reservoir = int(rng.binomial(reservoir, 0.97)) if reservoir else 0
            targets = sorted(s for s in truth if s >= 7)
            buffers = sorted(s for s in truth if s < 7)
            vacancies = [t for t in targets if not truth[t]]
            sources = [b for b in buffers if truth[b]]
            while vacancies and sources:
                _, dst, src = min((_DIST[(s, v)], v, s) for v in vacancies for s in sources)
                vacancies.remove(dst)
                sources.remove(src)
                truth[src] = False
                truth[dst] = rng.random() < 0.75
            for b in sorted(buffers, key=lambda b: (_DIST[(b, 0)], b)):
                if not truth[b] and reservoir:
                    taken = min(int(rng.poisson(13.0 * min(1.0, reservoir / 80))), reservoir)
                    reservoir -= taken
                    truth[b] = taken >= 1 and rng.random() < 0.6
            records.append(_Record(
                cycle,
                all(truth[t] for t in targets),
                sum(truth[b] for b in buffers),
                reservoir,
            ))
    return len(records)


def kernel_seconds() -> float:
    """Median wall time of a few kernel runs."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel_once()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Scale an interval by the kernel times measured right around it."""
    return seconds * KERNEL_REFERENCE_S / (0.5 * (kernel_before + kernel_after))
