"""Ensemble execution and reduction to the headline observables: cumulative
defect-free success rate, mean buffer fill fraction, and normalized reservoir
signal per cycle, plus calibration of the reservoir depletion parameter and
CSV/JSON output writing.

Reported cycle k covers the k-th full rearrangement round; its observables
are read from the imaging step that opens round k+1, which is the first
image that can see round k's fills and refills. Each realization therefore
runs ``engine_cycles``, one engine cycle beyond the reported range.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .engine import EventLog, run_realization
from .stochastic import ROW_CHUNK, RngStream

__all__ = [
    "ExperimentStats",
    "CalibrationResult",
    "CalibrationError",
    "run_experiment",
    "binomial_halfwidth",
    "wilson_halfwidth",
    "calibrate_depletion",
    "stream_events",
    "write_outputs",
]


@dataclass(frozen=True)
class ExperimentStats:
    """Per-cycle ensemble statistics; all tuples share the cycle axis.

    ``success_ci`` and ``buffer_fill_ci`` are 1-sigma half-widths. The
    reservoir signal is normalized to its cycle-1 ensemble mean
    (``reservoir_baseline`` atoms), so it starts at 1 by construction;
    ``reservoir_std`` is the ensemble standard deviation, not an error of
    the mean.
    """

    n_replicas: int
    cycles: tuple[int, ...]
    success_rate: tuple[float, ...]
    success_ci: tuple[float, ...]
    buffer_fill_mean: tuple[float, ...]
    buffer_fill_ci: tuple[float, ...]
    reservoir_norm: tuple[float, ...]
    reservoir_std: tuple[float, ...]
    reservoir_baseline: float
    mean_delivered: float


def binomial_halfwidth(p: float, n: int) -> float:
    """Normal-approximation 1-sigma half-width of a binomial rate."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.sqrt(p * (1.0 - p) / n)


def wilson_halfwidth(p: float, n: int) -> float:
    """Wilson-score 1-sigma (z = 1) half-width; stays sensible at p near 0
    or 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / (1.0 + 1.0 / n)


def _success_matrix(complete: np.ndarray, definition: str) -> np.ndarray:
    """Per-replica success flags by cycle from completion observations.

    first-achievement: success at cycle k once completion was observed at
    any cycle <= k. maintained: complete at k itself, which implies the
    first.
    """
    if definition == "maintained":
        return complete
    return np.maximum.accumulate(complete, axis=1)


# An ensemble's replicas run in groups of consecutive replicas whose
# streams hold at most this many rows ahead (RngStream.draw_group): 8
# replicas of 16 engine cycles, 2 of a run past ROW_CHUNK cycles. Groups
# of 8 ran the reference ensemble as fast as groups of 16 and calibrate
# faster, at half the rows held ahead; 32 were slower.
_GROUP_ROWS = 128


def run_experiment(
    config: ExperimentConfig, log: EventLog | None = None
) -> tuple[ExperimentStats, EventLog | None]:
    """Run the full ensemble and reduce it to per-cycle statistics.

    Every replica's steps and moves are added to ``log`` when one is given,
    and the log is returned beside the statistics. A log with a sink (see
    :func:`stream_events`) is flushed at replica boundaries once it holds a
    block of rows, so it never holds more than a block plus one replica.

    The replicas run on ``config`` itself, the model bundle it became when
    it was built and checked, in groups of consecutive replicas: a group's
    streams are built together by :meth:`RngStream.draw_group`, each
    replica runs on its own, and the group's columns of observables are
    kept. Deterministic for a fixed config: replica i always draws from the
    stream keyed by (master_seed, i), the same values whatever its group,
    so enlarging the ensemble never perturbs earlier replicas.
    """
    n_buffers = len(config.layout.buffer_ids)
    n_rep, n_cycles = config.n_replicas, config.engine_cycles
    shape = (n_rep, n_cycles)
    complete = np.zeros(shape, dtype=bool)
    buffer_counts = np.zeros(shape, dtype=np.int64)
    reservoir_counts = np.zeros(shape, dtype=np.int64)
    delivered = np.zeros(n_rep, dtype=np.int64)
    group = max(1, _GROUP_ROWS // min(ROW_CHUNK, n_cycles))
    for start in range(0, n_rep, group):
        replicas = range(start, min(start + group, n_rep))
        streams = RngStream.draw_group(config.master_seed, replicas, n_cycles, config.slots)
        kept = []
        for i, rng in zip(replicas, streams):
            records = run_realization(config, i, log, rng)
            # one transposition of the records into CycleRecord's columns
            _, done, buffers, _, reservoir, _, _, cum, _ = zip(*records)
            kept.append((done, buffers, reservoir, cum[-1]))
            if log is not None:
                log.flush(_CHUNK_ROWS)
        rows = slice(start, replicas.stop)
        complete[rows], buffer_counts[rows], reservoir_counts[rows], delivered[rows] = zip(*kept)
    success = _success_matrix(complete, config.success_definition).mean(axis=0)[1:]
    halfwidth = binomial_halfwidth if config.ci_method == "normal" else wilson_halfwidth
    success_ci = [halfwidth(float(p), n_rep) for p in success]
    fill = buffer_counts[:, 1:] / n_buffers
    fill_mean = fill.mean(axis=0)
    if n_rep > 1:
        fill_ci = fill.std(axis=0, ddof=1) / math.sqrt(n_rep)
    else:
        fill_ci = np.zeros(fill.shape[1])
    baseline = float(reservoir_counts[:, 1].mean())
    if baseline > 0:
        norm = reservoir_counts[:, 1:] / baseline
        norm_mean = norm.mean(axis=0)
        norm_std = norm.std(axis=0, ddof=1) if n_rep > 1 else np.zeros(norm.shape[1])
    else:
        norm_mean = np.zeros(config.n_cycles)
        norm_std = np.zeros(config.n_cycles)
    stats = ExperimentStats(
        n_replicas=n_rep,
        cycles=tuple(range(1, config.n_cycles + 1)),
        success_rate=tuple(float(x) for x in success),
        success_ci=tuple(float(x) for x in success_ci),
        buffer_fill_mean=tuple(float(x) for x in fill_mean),
        buffer_fill_ci=tuple(float(x) for x in fill_ci),
        reservoir_norm=tuple(float(x) for x in norm_mean),
        reservoir_std=tuple(float(x) for x in norm_std),
        reservoir_baseline=baseline,
        mean_delivered=float(delivered.mean()),
    )
    return stats, log


# -- calibration --------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    mean_ensemble_at_full: float
    achieved_delivered: float
    evaluations: int


class CalibrationError(RuntimeError):
    """The delivered-atom target cannot be met inside the search bracket."""


def _mean_delivered(config: ExperimentConfig, ensemble_mean: float, n_replicas: int) -> float:
    cfg = dataclasses.replace(
        config, mean_ensemble_at_full=ensemble_mean, n_replicas=n_replicas
    )
    return run_experiment(cfg)[0].mean_delivered


def calibrate_depletion(
    config: ExperimentConfig,
    target_delivered: float = 10.0,
    tolerance: float = 0.5,
    bracket: tuple[float, float] = (1.0, 40.0),
    n_replicas: int = 500,
    evaluate=None,
) -> CalibrationResult:
    """Find the extraction ensemble mean that delivers the target number of
    atoms per realization, by bisection.

    Mean delivered per realization decreases as the ensemble mean grows
    (bigger bites drain the reservoir sooner), so the root is bracketed by
    evaluating both ends first. The lower end is raised to the config's
    ``min_ensemble_mean`` where that is larger: below it no mean reaches
    ``p_blockade_plateau``. Every evaluation reuses the same master
    seed (common random numbers), which keeps the response monotone in
    practice; a midpoint whose value falls outside the values at the current
    bracket ends raises :class:`CalibrationError` rather than being bisected
    through. ``evaluate`` may override the objective, mainly for tests.
    """
    if not tolerance >= 0:
        raise ConfigError(f"tolerance must be nonnegative, got {tolerance}")
    if not math.isfinite(target_delivered):
        raise ConfigError(f"target_delivered must be finite, got {target_delivered}")
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ConfigError(f"invalid bracket {bracket}")
    least = config.min_ensemble_mean
    if least >= hi:
        raise CalibrationError(
            f"stochastic.p_blockade_plateau {config.p_blockade_plateau} needs "
            f"stochastic.mean_ensemble_at_full at least {least:.4g}, past the "
            f"bracket's upper end {hi}"
        )
    lo = max(lo, least)
    if evaluate is None:
        def evaluate(m: float) -> float:
            return _mean_delivered(config, m, n_replicas)

    evaluations = 0

    def measure(m: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return evaluate(m)

    g_lo = measure(lo)
    if abs(g_lo - target_delivered) <= tolerance:
        return CalibrationResult(lo, g_lo, evaluations)
    g_hi = measure(hi)
    if abs(g_hi - target_delivered) <= tolerance:
        return CalibrationResult(hi, g_hi, evaluations)
    if (g_lo - target_delivered) * (g_hi - target_delivered) > 0:
        raise CalibrationError(
            f"target {target_delivered} not bracketed: delivered "
            f"{g_lo:.3f} at ensemble mean {lo} and {g_hi:.3f} at {hi}"
        )
    best = (lo, g_lo) if abs(g_lo - target_delivered) < abs(g_hi - target_delivered) else (hi, g_hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g_mid = measure(mid)
        if abs(g_mid - target_delivered) < abs(best[1] - target_delivered):
            best = (mid, g_mid)
        if abs(g_mid - target_delivered) <= tolerance:
            return CalibrationResult(mid, g_mid, evaluations)
        if not min(g_lo, g_hi) <= g_mid <= max(g_lo, g_hi):
            raise CalibrationError(
                f"objective is not monotone: delivered {g_mid:.3f} at ensemble "
                f"mean {mid:.4f} lies outside {g_lo:.3f} at {lo:.4f} and "
                f"{g_hi:.3f} at {hi:.4f}"
            )
        if (g_lo - target_delivered) * (g_mid - target_delivered) <= 0:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
        if hi - lo < 1e-3:
            break
    raise CalibrationError(
        f"bisection converged without reaching target {target_delivered} "
        f"+- {tolerance}; best delivered {best[1]:.3f} at ensemble mean {best[0]:.4f}"
    )


# -- output files -------------------------------------------------------

# Rows the CSV writer joins and writes at a time, and the most distinct
# texts one memo keeps; past that, new values are rendered but not kept.
_CHUNK_ROWS = 4096
_TEXT_CAP = 1 << 16
_FIG4_HEADER = (
    "cycle", "success_rate", "success_ci", "buffer_fill_mean",
    "buffer_fill_ci", "reservoir_norm", "reservoir_std",
)


def _field(value) -> str:
    """One CSV field: a float as ``.10g``, any other value as ``str(v)``,
    quoted where ``csv.writer`` would quote it (text with a character it
    may treat specially goes through ``csv.writer`` itself)."""
    text = format(value, ".10g") if isinstance(value, float) else str(value)
    if any(c in text for c in ',"\n\r\0'):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text])
        text = buf.getvalue()[:-1]
    return text


class _Texts(dict):
    """Text by key for a group of ``EventLog.KINDS`` columns, ``kinds`` (name
    -> kind), whose values are ``str`` or exactly their column's kind, so
    equal keys print alike. A key is the group's values in one row, as a
    tuple, or the value itself for a one-column group; its text is their
    :func:`_field` texts joined by commas. A key is rendered on first sight,
    and refused then if a value is of another type, naming its column. Keys
    holding a float zero or NaN are not kept (``0.0 == -0.0`` yet they print
    differently), nor more than ``_TEXT_CAP`` keys. A ``per_block`` memo is
    emptied at every block. ``name`` is the group's header text."""

    def __init__(self, kinds: dict, per_block: bool):
        self.kinds, self.per_block = kinds, per_block
        self.name = ",".join(kinds)

    def render(self, values):
        if self.per_block:
            self.clear()
        return map(self.__getitem__, values)

    def __missing__(self, key):
        values = (key,) if len(self.kinds) == 1 else key
        for (name, kind), value in zip(self.kinds.items(), values):
            if type(value) is not kind and type(value) is not str:
                raise TypeError(f"column {name} holds str and {kind.__name__}, got {value!r}")
        text = ",".join(map(_field, values))
        if len(self) < _TEXT_CAP and all(
            not isinstance(v, float) or (v != 0 and v == v) for v in values
        ):
            self[key] = text
        return text


def _lines(cells) -> str:
    """CSV lines of equal-length iterables of field texts, one per column."""
    if len(cells) == 1:  # a lone empty field is written as ""
        cells = [[t or '""' for t in cells[0]]]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


class _CsvWriter:
    """An open CSV file under ``header``, written block by block, byte for
    byte what ``csv.writer`` writes for the rows of :func:`_field` texts.

    ``groups`` splits the columns, in order, into groups, each given as its
    width and its block renderer, such as :meth:`_Texts.render`; by default
    each column is its own group, rendered by :func:`_field` value by value.
    A renderer takes one key per row of the block, the column's value for a
    one-column group and else the tuple of the group's values, and gives
    the group's text in that row. Rows are joined and written
    ``_CHUNK_ROWS`` at a time, so no column of text is ever held whole. A
    failed open, write or close raises ``OSError("writing <path> failed:
    ...")``; leaving a ``with`` block closes the file, also on an error.
    """

    def __init__(self, path: str, header, groups=None):
        self.path = path
        try:
            self._fh = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise self._failed(exc) from exc
        self._groups, at = [], 0  # (first column, width, render) per group
        for width, render in groups or [(1, lambda values: map(_field, values))] * len(header):
            self._groups.append((at, width, render))
            at += width
        self._write([[_field(name)] for name in header])

    def _failed(self, exc: OSError) -> OSError:
        return OSError(f"writing {self.path} failed: {exc.strerror}")

    def _write(self, cells) -> None:
        try:
            self._fh.write(_lines(cells))
        except OSError as exc:
            raise self._failed(exc) from exc

    def write(self, columns) -> None:
        """Append equal-length ``columns`` as rows."""
        n_rows = len(columns[0]) if columns else 0
        for start in range(0, n_rows, _CHUNK_ROWS):
            block = [column[start:start + _CHUNK_ROWS] for column in columns]
            self._write([
                render(block[at] if width == 1 else zip(*block[at:at + width]))
                for at, width, render in self._groups
            ])

    def close(self) -> None:
        """Flush and close the file; a second call does nothing."""
        try:
            self._fh.close()
        except OSError as exc:
            raise self._failed(exc) from exc

    def __enter__(self) -> "_CsvWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # keep the error in flight, not one from closing
            with contextlib.suppress(OSError):
                self._fh.close()


def _make_out_dir(out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc


# events.csv's column groups, each rendered through one memo: the masks stay
# apart, as the pair has about three times as many distinct values as both
# masks together
_EVENT_GROUPS = (
    ("replica",),
    ("cycle", "step", "clock_s", "n_reservoir"),
    ("truth_mask",),
    ("belief_mask",),
    ("src", "dst", "dist_um", "duration_s", "outcome"),
)


@contextlib.contextmanager
def stream_events(out_dir: str):
    """Create ``out_dir`` and open its ``events.csv``; yield an
    :class:`EventLog` that writes its rows there block by block.

    Pass the log to :func:`run_experiment` and then to
    :func:`write_outputs`, which finishes the file. Leaving the block
    closes the file whatever happened inside it. Each row is five texts,
    one per group of ``_EVENT_GROUPS``, each looked up in a :class:`_Texts`
    memo of that group. ``replica``'s memo lasts one block, as each of its
    values fills one run of rows; the others are kept for the file. For the
    310,351-row reference log at seed 42 they end at 718 keys for
    (cycle, step, clock_s, n_reservoir), 4,063 for ``truth_mask``, 3,076
    for ``belief_mask`` and 155 for the move group (src, dst, dist_um,
    duration_s, outcome); ``_TEXT_CAP`` bounds every memo anyway.
    """
    _make_out_dir(out_dir)
    with _CsvWriter(os.path.join(out_dir, "events.csv"), EventLog.COLUMNS, [
        (len(group), _Texts({name: EventLog.KINDS[name] for name in group},
                            group == ("replica",)).render)
        for group in _EVENT_GROUPS
    ]) as sink:
        yield EventLog(sink)


def write_outputs(
    stats: ExperimentStats,
    log: EventLog | None,
    out_dir: str,
    config: ExperimentConfig,
) -> dict[str, str]:
    """Write fig4.csv, events.csv, and run_meta.json into ``out_dir``.

    ``events.csv`` holds the rows of ``log``: an in-memory log is written
    here, a log from :func:`stream_events` on the same directory is
    finished (its last rows flushed and the file closed), and ``None``
    gives the header alone. Outputs are byte-stable for identical inputs:
    fixed float formatting, sorted JSON keys, no timestamps. Returns the
    written paths by name.
    """
    _make_out_dir(out_dir)
    paths = {
        "fig4": os.path.join(out_dir, "fig4.csv"),
        "events": os.path.join(out_dir, "events.csv"),
        "run_meta": os.path.join(out_dir, "run_meta.json"),
    }
    with _CsvWriter(paths["fig4"], _FIG4_HEADER) as fig4:
        fig4.write((
            stats.cycles, stats.success_rate, stats.success_ci,
            stats.buffer_fill_mean, stats.buffer_fill_ci,
            stats.reservoir_norm, stats.reservoir_std,
        ))
    if log is not None and log.sink is not None:
        if os.path.abspath(log.sink.path) != os.path.abspath(paths["events"]):
            raise ValueError(
                f"the event log streams to {log.sink.path}, not {paths['events']}"
            )
        log.close()
    else:  # an in-memory log, or none for the header alone
        with stream_events(out_dir) as events:
            if log is not None:
                events.sink.write(log.columns)
    meta = {
        "version": __version__,
        "config": config.resolved(),
        "results": {
            "n_replicas": stats.n_replicas,
            "mean_delivered": stats.mean_delivered,
            "reservoir_baseline": stats.reservoir_baseline,
        },
    }
    try:
        with open(paths["run_meta"], "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"writing {paths['run_meta']} failed: {exc.strerror}") from exc
    return paths
