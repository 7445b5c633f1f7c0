"""Ensemble execution and reduction to the headline observables: cumulative
defect-free success rate, mean buffer fill fraction, and normalized reservoir
signal per cycle, plus calibration of the reservoir depletion parameter and
CSV/JSON output writing.

Reported cycle k covers the k-th full rearrangement round; its observables
are read from the imaging step that opens round k+1, which is the first
image that can see round k's fills and refills. Each realization therefore
runs one extra engine cycle beyond the reported range.
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
    any cycle <= k. maintained: additionally still complete at k itself.
    """
    achieved = np.maximum.accumulate(complete, axis=1)
    if definition == "maintained":
        return achieved & complete
    return achieved


def run_experiment(
    config: ExperimentConfig, log: EventLog | None = None
) -> tuple[ExperimentStats, EventLog | None]:
    """Run the full ensemble and reduce it to per-cycle statistics.

    Every replica's steps and moves are added to ``log`` when one is given,
    and the log is returned beside the statistics. A log with a sink (see
    :func:`stream_events`) is flushed at replica boundaries once it holds a
    block of rows, so it never holds more than a block plus one replica.

    Deterministic for a fixed config: replica i always draws from the
    stream keyed by (master_seed, i), so enlarging the ensemble never
    perturbs earlier replicas.
    """
    models = config.build_models()
    n_buffers = len(models.layout.buffer_ids)
    n_rep = config.n_replicas
    n_engine_cycles = config.n_cycles + 1
    complete = np.zeros((n_rep, n_engine_cycles), dtype=bool)
    buffer_counts = np.zeros((n_rep, n_engine_cycles), dtype=np.int64)
    reservoir_counts = np.zeros((n_rep, n_engine_cycles), dtype=np.int64)
    delivered = np.zeros(n_rep, dtype=np.int64)
    for i in range(n_rep):
        records = run_realization(
            models, config.master_seed, n_engine_cycles, replica=i, log=log
        )
        # one transposition of the records into CycleRecord's columns
        (_, complete[i], buffer_counts[i], _, reservoir_counts[i],
         *_) = zip(*records)
        delivered[i] = records[-1].delivered_cum
        if log is not None:
            log.flush(_CHUNK_ROWS)
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
        norm_mean = np.zeros(n_engine_cycles - 1)
        norm_std = np.zeros(n_engine_cycles - 1)
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
    evaluating both ends first. Every evaluation reuses the same master
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
    """Field text by value for a column of ``EventLog.KINDS``, whose values
    are ``str`` or exactly ``kind``, so equal keys print alike. A value is
    rendered on first sight, and refused then if of another type. Float
    zeros and NaN are not kept (``0.0 == -0.0`` yet they print
    differently). A ``per_block`` memo is emptied at every block."""

    def __init__(self, name: str, kind: type, per_block: bool):
        self.name, self.kind, self.per_block = name, kind, per_block

    def render(self, values):
        if self.per_block:
            self.clear()
        return map(self.__getitem__, values)

    def __missing__(self, value):
        if type(value) is not self.kind and type(value) is not str:
            raise TypeError(f"column {self.name} holds str and {self.kind.__name__}, got {value!r}")
        text = _field(value)
        if len(self) < _TEXT_CAP and (
            not isinstance(value, float) or (value != 0 and value == value)
        ):
            self[value] = text
        return text


def _lines(cells) -> str:
    """CSV lines of equal-length iterables of field texts, one per column."""
    if len(cells) == 1:  # a lone empty field is written as ""
        cells = [[t or '""' for t in cells[0]]]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


class _CsvWriter:
    """An open CSV file under ``header``, written block by block, byte for
    byte what ``csv.writer`` writes for the rows of :func:`_field` texts.

    ``renders`` gives each column's block renderer, such as
    :meth:`_Texts.render`, by default :func:`_field` value by value. Rows are
    joined and written ``_CHUNK_ROWS`` at a time, so no column of text is
    ever held whole. A failed open, write or close raises ``OSError("writing
    <path> failed: ...")``; leaving a ``with`` block closes the file, also on
    an error.
    """

    def __init__(self, path: str, header, renders=None):
        self.path = path
        try:
            self._fh = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise self._failed(exc) from exc
        self._renders = renders or [lambda values: map(_field, values)] * len(header)
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
            stop = start + _CHUNK_ROWS
            self._write([
                render(column[start:stop])
                for render, column in zip(self._renders, columns)
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


@contextlib.contextmanager
def stream_events(out_dir: str):
    """Create ``out_dir`` and open its ``events.csv``; yield an
    :class:`EventLog` that writes its rows there block by block.

    Pass the log to :func:`run_experiment` and then to
    :func:`write_outputs`, which finishes the file. Leaving the block
    closes the file whatever happened inside it. Each column is rendered
    through a memo of its declared kind, kept for the file; ``replica``'s
    lasts one block, as each of its values fills one run of rows. The
    others stay file-long because per-block memos made writing the
    310,351-row reference log about 40 % slower, while the largest
    file-long memos, the masks', end there at 4,063 and 3,076 texts, which
    ``_TEXT_CAP`` bounds anyway.
    """
    _make_out_dir(out_dir)
    with _CsvWriter(os.path.join(out_dir, "events.csv"), EventLog.COLUMNS, [
        _Texts(name, kind, name == "replica").render for name, kind in EventLog.KINDS.items()
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
