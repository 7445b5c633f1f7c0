"""Experiment configuration: defaults, INI-file parsing, validation, and
the derived values that make a checked config the model bundle a run needs.

The file format is INI (configparser dialect, ``#``/``;`` inline comments)
with sections [run], [layout], [stochastic], [timing], [engine]; every key
is optional and falls back to the measured reference values baked in here.
Validation errors always name the offending ``section.key``.
"""

from __future__ import annotations

import configparser
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .engine import CycleSlots
from .geometry import ArrayLayout, LayoutError, Position, SiteRole, TrapSite, reference_layout
from .stochastic import (
    _MAX_POISSON_MEAN, DecayWindow, EnsembleIndex, poisson_table, survival_probability,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "DEFAULT_ENSEMBLE_MEAN",
    "DEFAULT_STAY_ON_FAILURE",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# Ensemble size drawn per extraction at a full reservoir, recorded from the
# calibration routine at the reference defaults so a realization delivers
# ~10 atoms on average.
DEFAULT_ENSEMBLE_MEAN = 13.56

# Probability that a failed move left the atom in its source trap (failed
# pickup) rather than dropping it in flight. Fixed together with the
# ensemble mean so the cumulative success curve lands on the measured
# values; pure loss undershoots them and pure retention overshoots.
DEFAULT_STAY_ON_FAILURE = 2 / 3

# The one name ``[layout] preset`` takes: the layout of reference_layout().
_PRESET = "paper-hex-6"

_SUCCESS_DEFINITIONS = {
    "first": "first-achievement",
    "first-achievement": "first-achievement",
    "maintained": "maintained",
}


# annotated type of a field -> the values it takes (never a bool), their name,
# and the type the config stores them as (a numpy scalar would reach the
# writers otherwise)
_KINDS = {
    "int": (numbers.Integral, "an integer", int),
    "float": (numbers.Real, "a number", float),
    "float | None": (numbers.Real, "a number or None", float),
    "str": (str, "a string", str),
}

# The ranges a key is held to: the words its error says, and a test written
# so that NaN fails it.
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
_POSITIVE = ("positive", lambda v: v > 0)
_FINITE = ("finite and nonnegative", lambda v: 0 <= v < math.inf)
_PROBABILITY = ("within [0, 1]", lambda v: 0 <= v <= 1)
_POISSON_MEAN = (f"at most {_MAX_POISSON_MEAN:g}", lambda v: v <= _MAX_POISSON_MEAN)


def _one_of(*choices):
    return " or ".join(map(repr, choices)), lambda v: v in choices


def _key(section: str, default, *rules):
    """A config field read from the INI ``[section]`` under its own name,
    whose value ``build_models`` holds to ``rules``."""
    return field(default=default, metadata={"section": section, "rules": rules})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run parameters, defaults matching the reference setup;
    frozen, checked once when built, and the model bundle the engine reads.

    Each field tagged by :func:`_key` is one INI key (times in seconds): the
    tag gives its section and its range, the annotation its type, which
    the value is stored as (an ``np.int64`` as an ``int``), so no numpy
    scalar reaches the writers.
    :meth:`build_models` checks every key and decides onto the config, as
    plain attributes outside equality that ``dataclasses.replace`` decides
    afresh, what the engine derives from the keys: the ``init_duration``,
    ``cycle_duration``, ``move_duration`` and ``engine_cycles`` (``n_cycles``
    and the one whose image reads out the last); the ``p_blockade`` of a
    caught ensemble whose saturated fill, read out at the next image, is
    ``p_blockade_plateau``, and ``min_ensemble_mean``, the least
    ``mean_ensemble_at_full`` that reaches it; the three decay windows of a cycle
    (``image_window`` over ``t_image_loss``, or ``t_image`` where that is
    ``None``, ``fill_window`` over ``t_analysis_fill``, ``refill_window``
    over ``t_buffer_refill``, each a :class:`DecayWindow`); the extraction's
    ensemble tables by reservoir count (``ensembles``, an ``EnsembleIndex``
    with a table bound of its own, as each window's thinning index has);
    the Poisson table of the initial load at ``reservoir_mean``
    (``initial_load``); and the cycle's row of uniforms (``slots``, a
    :class:`CycleSlots`: the slot of each draw, and the ``RowForm`` the
    stream hands the row out in).
    """

    n_replicas: int = _key("run", 2500, _AT_LEAST_1)
    n_cycles: int = _key("run", 15, _AT_LEAST_1)
    master_seed: int = _key("run", 42, _NONNEGATIVE)
    success_definition: str = _key("run", "first-achievement", _one_of(*_SUCCESS_DEFINITIONS))
    ci_method: str = _key("run", "normal", _one_of("normal", "wilson"))
    # [layout] is parsed by hand; see _parse_layout_section
    layout: ArrayLayout = field(default_factory=reference_layout)
    # math.inf disables a one-body loss channel
    lifetime_array_s: float = _key("stochastic", 10.0, _POSITIVE)
    lifetime_reservoir_s: float = _key("stochastic", 5.0, _POSITIVE)
    p_transport: float = _key("stochastic", 0.753, _PROBABILITY)
    # A failed move leaves the atom in its source trap with this
    # probability and drops it otherwise; 0 and 1 take no draw.
    p_stay_on_failure: float = _key("stochastic", DEFAULT_STAY_ON_FAILURE, _PROBABILITY)
    p_blockade_plateau: float = _key("stochastic", 0.596, _PROBABILITY)
    mean_ensemble_at_full: float = _key("stochastic", DEFAULT_ENSEMBLE_MEAN, _POSITIVE, _POISSON_MEAN)
    n_reference: int = _key("stochastic", 80, _POSITIVE)
    reservoir_mean: float = _key("stochastic", 80.0, _FINITE, _POISSON_MEAN)
    refill_rate: float = _key("stochastic", 0.0, _FINITE)
    t_mot: float = _key("timing", 1.8, _FINITE)
    t_molasses: float = _key("timing", 0.040, _FINITE)
    t_reservoir_transfer: float = _key("timing", 0.020, _FINITE)
    t_image: float = _key("timing", 0.130, _FINITE)
    t_analysis_fill: float = _key("timing", 0.065, _FINITE)
    t_buffer_refill: float = _key("timing", 0.035, _FINITE)
    t_ramp: float = _key("timing", 130e-6, _FINITE)  # one intensity ramp; two per move
    t_move: float = _key("timing", 310e-6, _FINITE)  # tweezer translation
    # Narrows the imaging decay window to the bare exposure when readout
    # overhead should not count as trap time, so it may not exceed t_image;
    # None uses t_image for both clock and losses.
    t_image_loss: float | None = _key("timing", None, _FINITE)
    fill_strategy: str = _key("engine", "global", _one_of("global", "per-vacancy"))

    def __post_init__(self):
        self.build_models()
        object.__setattr__(
            self, "success_definition", _SUCCESS_DEFINITIONS[self.success_definition]
        )

    def _section(self, name: str) -> dict:
        return {key: getattr(self, key) for key in _SECTIONS[name]}

    def build_models(self) -> ExperimentConfig:
        """Check every key, decide the derived values onto the config, and
        return it; construction runs it once.

        Each error is a :class:`ConfigError` that names the offending
        ``section.key``; an int too long for Python to write out is refused
        first, by its size in bits. Checks across keys: the run's arrays
        must be ones numpy can index, an array atom must survive from a
        refill to its readout, the plateau must be reachable with
        ``p_blockade`` at most 1, the fill window must hold the longest fill
        plan, and a refilled reservoir must stay short of 1e18 atoms.
        """
        if not isinstance(self.layout, ArrayLayout):
            raise ConfigError(f"layout must be an ArrayLayout, got {self.layout!r}")
        # the most digits Python writes an int out in (0: no limit)
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        too_long = 10**digits if digits else math.inf
        for f in _TAGGED:
            name, value = f"{f.metadata['section']}.{f.name}", getattr(self, f.name)
            if value is None and f.type == "float | None":
                continue
            if isinstance(value, int) and abs(value) >= too_long:
                raise ConfigError(
                    f"{name} must have at most {digits} digits, got an int of "
                    f"{value.bit_length()} bits"
                )
            kinds, noun, cast = _KINDS[f.type]
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
            for words, test in f.metadata["rules"]:
                if not test(value):
                    raise ConfigError(f"{name} must be {words}, got {value!r}")
            try:
                value = cast(value)
            except OverflowError:  # an int past the largest float
                raise ConfigError(
                    f"{name} must fit in a float, got an int of {value.bit_length()} bits"
                ) from None
            object.__setattr__(self, f.name, value)
        if self.t_image_loss is not None and not self.t_image_loss <= self.t_image:
            raise ConfigError(
                f"timing.t_image_loss {self.t_image_loss} s must not exceed "
                f"timing.t_image {self.t_image} s"
            )
        derived = {
            "init_duration": self.t_mot + self.t_molasses + self.t_reservoir_transfer,
            "cycle_duration": self.t_image + self.t_analysis_fill + self.t_buffer_refill,
            "move_duration": 2.0 * self.t_ramp + self.t_move,
            "engine_cycles": self.n_cycles + 1,
        }
        # run_experiment counts each engine cycle of each replica in int64
        # arrays, whose size in bytes numpy holds in an intp
        n_bytes = self.n_replicas * derived["engine_cycles"] * np.dtype(np.int64).itemsize
        if n_bytes > (most := np.iinfo(np.intp).max):
            raise ConfigError(
                f"run.n_replicas {self.n_replicas} x run.n_cycles + 1 = "
                f"{derived['engine_cycles']} engine cycles of int64 counts is "
                f"{n_bytes} bytes, past the {most} bytes numpy can index"
            )
        image = self.t_image if self.t_image_loss is None else self.t_image_loss
        # The plateau is the fill fraction read out one image after a
        # refill, so invert the decay accumulated over that window out of it.
        readout = self.t_buffer_refill + image
        observed = survival_probability(readout, self.lifetime_array_s)
        if observed == 0.0:
            key = "t_image" if self.t_image_loss is None else "t_image_loss"
            raise ConfigError(
                f"no array atom survives the {readout:.4g} s from refill to "
                f"readout (timing.t_buffer_refill + timing.{key}) with "
                f"stochastic.lifetime_array_s {self.lifetime_array_s:.4g} s, so "
                f"stochastic.p_blockade_plateau cannot be read back"
            )

        def p_blockade_at(mean: float) -> float:
            # A caught ensemble (size >= 1, probability 1 - exp(-mean) at a
            # full reservoir) yields one atom with probability p_blockade.
            # The plateau at p_blockade 1 is 0 below a mean of about 1.1e-16.
            reachable = (1.0 - math.exp(-mean)) * observed
            return self.p_blockade_plateau / reachable if reachable else math.inf

        derived["p_blockade"] = p_blockade = p_blockade_at(self.mean_ensemble_at_full)
        if p_blockade > 1.0:
            raise ConfigError(
                f"stochastic.p_blockade_plateau {self.p_blockade_plateau} unreachable with "
                f"stochastic.mean_ensemble_at_full {self.mean_ensemble_at_full} "
                f"(requires p_blockade {p_blockade:.4g} > 1)"
            )
        # The least mean the rule above admits, bisected between 0, which it
        # refuses, and the configured mean, which it admits.
        refused, least = 0.0, self.mean_ensemble_at_full
        while refused < (mid := 0.5 * (refused + least)) < least:
            if p_blockade_at(mid) > 1.0:
                refused = mid
            else:
                least = mid
        derived["min_ensemble_mean"] = least
        derived["ensembles"] = EnsembleIndex(self.mean_ensemble_at_full, self.n_reference)
        windows = tuple(
            DecayWindow(
                length,
                survival_probability(length, self.lifetime_array_s),
                survival_probability(length, self.lifetime_reservoir_s),
                self.refill_rate * length,
            )
            for length in (image, self.t_analysis_fill, self.t_buffer_refill)
        )
        derived.update(zip(("image_window", "fill_window", "refill_window"), windows))
        derived["slots"] = slots = CycleSlots(self.layout, windows)
        n_moves, move = slots.n_moves, derived["move_duration"]
        if n_moves * move > self.t_analysis_fill:
            raise ConfigError(
                f"timing.t_analysis_fill {self.t_analysis_fill} s cannot "
                f"hold the longest fill plan: {n_moves} moves of {move:.4g} s"
            )
        # The most atoms a refilled run could bring into the reservoir, held
        # short of numpy's 64-bit counts: the initial mean, the refill over
        # every engine cycle and one rounding atom per decay window.
        n_cycles = derived["engine_cycles"]
        supply = (
            self.reservoir_mean + 3 * n_cycles
            + self.refill_rate * n_cycles * derived["cycle_duration"]
        )
        if self.refill_rate > 0 and not supply <= _MAX_POISSON_MEAN:
            raise ConfigError(
                f"stochastic.refill_rate {self.refill_rate} atoms/s could bring "
                f"the reservoir to {supply:.3g} atoms in {n_cycles} engine "
                f"cycles, past {_MAX_POISSON_MEAN:g}"
            )
        derived["initial_load"] = poisson_table(self.reservoir_mean)
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        return self

    def resolved(self) -> dict:
        """Plain nested dict of every effective parameter, for run metadata.

        The layout is always expanded to explicit site rows so the record
        is self-contained; ``preset`` is ``"paper-hex-6"`` when the layout
        equals the reference layout, and ``None`` otherwise.
        An infinite lifetime is the string ``"inf"``, which strict JSON
        allows and ``[stochastic]`` reads back.
        """
        layout = self.layout
        resolved = {
            name: {k: "inf" if v == math.inf else v for k, v in self._section(name).items()}
            for name in _SECTIONS
        }
        resolved["layout"] = {
            "preset": _PRESET if layout == reference_layout() else None,
            "sites": [[s.id, s.pos.x, s.pos.y, s.role.value] for s in layout.sites],
            "reservoir": [layout.reservoir_pos.x, layout.reservoir_pos.y],
            "scan_range": layout.scan_range,
            "base_pitch": layout.base_pitch,
            "effective_pitch": layout.effective_pitch,
        }
        return resolved


# The fields that are INI keys, and INI section -> key -> annotated type,
# read off the field tags.
_TAGGED = tuple(f for f in fields(ExperimentConfig) if "section" in f.metadata)
_SECTIONS: dict[str, dict[str, str]] = {}
for _f in _TAGGED:
    _SECTIONS.setdefault(_f.metadata["section"], {})[_f.name] = _f.type

_INLINE_LAYOUT_KEYS = ("sites", "reservoir", "scan_range", "base_pitch", "effective_pitch")
_LAYOUT_KEYS = ("preset",) + _INLINE_LAYOUT_KEYS


def _convert(section: str, key: str, raw: str, kind: str = "float"):
    """``raw`` as ``kind``: "str", "int", "float" or "finite" (a finite
    float); an error names ``section.key``."""
    raw = raw.strip()
    if kind == "str":
        return raw
    try:
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:
        value = None
    if value is None or kind == "finite" and not math.isfinite(value):
        noun = {"int": "an integer", "finite": "a finite number"}.get(kind, "a number")
        raise ConfigError(f"{section}.{key} must be {noun}, got {raw!r}")
    return value


def _parse_layout_section(section: configparser.SectionProxy) -> ArrayLayout:
    given, missing = [], []
    for key in _INLINE_LAYOUT_KEYS:
        (given if key in section else missing).append(f"layout.{key}")
    if "preset" in section:
        if given:
            raise ConfigError(f"layout.preset excludes inline keys ({', '.join(given)})")
        preset = _convert("layout", "preset", section["preset"], "str")
        if preset != _PRESET:
            raise ConfigError(
                f"layout.preset: unknown layout preset {preset!r}; available: {[_PRESET]}"
            )
    if "preset" in section or not given:
        return reference_layout()
    if missing:
        raise ConfigError(
            f"{missing[0]} is required for an inline layout (given {', '.join(given)})"
        )
    sites = []
    for lineno, line in enumerate(section["sites"].strip().splitlines(), start=1):
        key, parts = f"sites line {lineno}", line.split()
        if len(parts) != 4:
            raise ConfigError(f"layout.{key} must be 'id x y role', got {line.strip()!r}")
        sid = _convert("layout", key, parts[0], "int")
        x, y = (_convert("layout", key, v, "finite") for v in parts[1:3])
        role = parts[3].lower()
        if role not in ("buffer", "target"):
            raise ConfigError(f"layout.{key} must have role 'buffer' or 'target', got {parts[3]!r}")
        sites.append(TrapSite(sid, Position(x, y), SiteRole(role)))
    reservoir = section["reservoir"].split()
    if len(reservoir) != 2:
        raise ConfigError("layout.reservoir must be 'x y'")
    reservoir = Position(*(_convert("layout", "reservoir", v, "finite") for v in reservoir))
    # ArrayLayout holds the sizes to their range and names the field at fault
    sizes = {k: _convert("layout", k, section[k]) for k in _INLINE_LAYOUT_KEYS[2:]}
    try:
        return ArrayLayout(sites=tuple(sites), reservoir_pos=reservoir, **sizes)
    except LayoutError as exc:
        key = "reservoir" if exc.field == "reservoir_pos" else exc.field
        raise ConfigError(f"layout.{key} {exc.detail}") from None


def load_config(path: str) -> ExperimentConfig:
    """Read an INI config file; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    kwargs = {}
    # configparser reads [DEFAULT] into every section; refuse it like any other
    for section in (["DEFAULT"] if parser.defaults() else []) + parser.sections():
        keys = _LAYOUT_KEYS if section == "layout" else _SECTIONS.get(section)
        if keys is None:
            raise ConfigError(
                f"unknown config section [{section}]; expected one of "
                f"{sorted([*_SECTIONS, 'layout'])}"
            )
        for key in parser[section]:
            if key not in keys:
                raise ConfigError(
                    f"unknown key {section}.{key}; expected one of {sorted(keys)}"
                )
            if section != "layout":
                kwargs[key] = _convert(section, key, parser[section][key], keys[key])
    if parser.has_section("layout"):
        kwargs["layout"] = _parse_layout_section(parser["layout"])
    return ExperimentConfig(**kwargs)
