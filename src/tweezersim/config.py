"""Experiment configuration: defaults, INI-file parsing, validation, and
construction of the model bundle a run needs.

The file format is INI (configparser dialect, ``#``/``;`` inline comments)
with sections [run], [layout], [stochastic], [timing], [engine]; every key
is optional and falls back to the measured reference values baked in here.
Validation errors always name the offending ``section.key``.
"""

from __future__ import annotations

import configparser
import math
import numbers
from dataclasses import dataclass, field, fields

from .engine import SimulationModels, TimingModel
from .geometry import (
    PRESETS,
    ArrayLayout,
    layout_from_preset,
    layout_from_site_rows,
    reference_layout,
)
from .stochastic import ExtractionModel, LossModel, TransportModel

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

_SUCCESS_DEFINITIONS = {
    "first": "first-achievement",
    "first-achievement": "first-achievement",
    "maintained": "maintained",
}


# annotated type of a field -> the values it takes (never a bool) and their name
_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "float | None": (numbers.Real, "a number or None"),
    "str": (str, "a string"),
}


def _key(section: str, default):
    """A config field read from the INI ``[section]`` under its own name."""
    return field(default=default, metadata={"section": section})


@dataclass
class ExperimentConfig:
    """Fully resolved run parameters; defaults match the reference setup.

    Each field tagged by :func:`_key` is one INI key: the tag gives its
    section and the annotation its type. Range and choice checks live in the
    models ``build_models`` assembles; only the ``[run]`` keys, which no
    model sees, are checked here.
    """

    n_replicas: int = _key("run", 2500)
    n_cycles: int = _key("run", 15)
    master_seed: int = _key("run", 42)
    success_definition: str = _key("run", "first-achievement")
    ci_method: str = _key("run", "normal")
    # [layout] is parsed by hand; see _parse_layout_section
    layout: ArrayLayout = field(default_factory=reference_layout)
    lifetime_array_s: float = _key("stochastic", 10.0)
    lifetime_reservoir_s: float = _key("stochastic", 5.0)
    p_transport: float = _key("stochastic", 0.753)
    p_stay_on_failure: float = _key("stochastic", DEFAULT_STAY_ON_FAILURE)
    p_blockade_plateau: float = _key("stochastic", 0.596)
    mean_ensemble_at_full: float = _key("stochastic", DEFAULT_ENSEMBLE_MEAN)
    n_reference: int = _key("stochastic", 80)
    reservoir_mean: float = _key("stochastic", 80.0)
    refill_rate: float = _key("stochastic", 0.0)
    t_mot: float = _key("timing", 1.8)
    t_molasses: float = _key("timing", 0.040)
    t_reservoir_transfer: float = _key("timing", 0.020)
    t_image: float = _key("timing", 0.130)
    t_analysis_fill: float = _key("timing", 0.065)
    t_buffer_refill: float = _key("timing", 0.035)
    t_ramp: float = _key("timing", 130e-6)
    t_move: float = _key("timing", 310e-6)
    t_image_loss: float | None = _key("timing", None)
    fill_strategy: str = _key("engine", "global")

    def __post_init__(self):
        if not isinstance(self.layout, ArrayLayout):
            raise ConfigError(f"layout must be an ArrayLayout, got {self.layout!r}")
        for section, keys in _SECTIONS.items():
            for key, kind in keys.items():
                value = getattr(self, key)
                if value is None and kind == "float | None":
                    continue
                if not isinstance(value, _KINDS[kind][0]) or isinstance(value, bool):
                    raise ConfigError(
                        f"{section}.{key} must be {_KINDS[kind][1]}, got {value!r}"
                    )
        for key in ("n_replicas", "n_cycles"):
            if not getattr(self, key) >= 1:
                raise ConfigError(f"run.{key} must be at least 1")
        if not self.master_seed >= 0:
            raise ConfigError(
                f"run.master_seed must be nonnegative, got {self.master_seed}"
            )
        try:
            self.success_definition = _SUCCESS_DEFINITIONS[self.success_definition]
        except KeyError:
            raise ConfigError(
                f"run.success_definition must be 'first-achievement' or "
                f"'maintained', got {self.success_definition!r}"
            ) from None
        if self.ci_method not in ("normal", "wilson"):
            raise ConfigError(
                f"run.ci_method must be 'normal' or 'wilson', got {self.ci_method!r}"
            )
        self.build_models()

    def _section(self, name: str) -> dict:
        return {key: getattr(self, key) for key in _SECTIONS[name]}

    def build_models(self) -> SimulationModels:
        """Assemble the validated model bundle for the engine.

        The models check every value they take; their errors name the
        offending ``section.key`` and are raised here as :class:`ConfigError`.
        """
        try:
            loss = LossModel(self.lifetime_array_s, self.lifetime_reservoir_s)
            timing = self._section("timing")
            transport = TransportModel(
                self.p_transport, timing.pop("t_ramp"), timing.pop("t_move")
            )
            timing = TimingModel(**timing)
            # The plateau is the fill fraction read out one image after a
            # refill, so invert the decay accumulated over that window out of it.
            window = timing.t_buffer_refill + timing.image_loss_window
            observed = math.exp(-window / loss.lifetime_array)
            if observed == 0.0:
                image = "t_image" if timing.t_image_loss is None else "t_image_loss"
                raise ConfigError(
                    f"no array atom survives the {window:.4g} s from refill to "
                    f"readout (timing.t_buffer_refill + timing.{image}) with "
                    f"stochastic.lifetime_array_s {loss.lifetime_array:.4g} s, so "
                    f"stochastic.p_blockade_plateau cannot be read back"
                )
            extraction = ExtractionModel.from_plateau(
                self.p_blockade_plateau,
                self.mean_ensemble_at_full,
                self.n_reference,
                observation_survival=observed,
            )
            models = SimulationModels(
                layout=self.layout,
                loss=loss,
                transport=transport,
                extraction=extraction,
                timing=timing,
                reservoir_mean=self.reservoir_mean,
                refill_rate=self.refill_rate,
                p_stay_on_failure=self.p_stay_on_failure,
                **self._section("engine"),
            )
            models.check_supply(self.n_cycles + 1)  # the reported cycles and one more
            return models
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def resolved(self) -> dict:
        """Plain nested dict of every effective parameter, for run metadata.

        The layout is always expanded to explicit site rows so the record
        is self-contained; ``preset`` names the preset it equals, if any.
        An infinite lifetime is the string ``"inf"``, which strict JSON
        allows and ``[stochastic]`` reads back.
        """
        layout = self.layout
        resolved = {
            name: {k: "inf" if v == math.inf else v for k, v in self._section(name).items()}
            for name in _SECTIONS
        }
        resolved["layout"] = {
            "preset": next((n for n, make in PRESETS.items() if make() == layout), None),
            "sites": [
                [s.id, s.pos.x, s.pos.y, s.role.value]
                for s in sorted(layout.sites, key=lambda s: s.id)
            ],
            "reservoir": [layout.reservoir_pos.x, layout.reservoir_pos.y],
            "scan_range": layout.scan_range,
            "base_pitch": layout.base_pitch,
            "effective_pitch": layout.effective_pitch,
        }
        return resolved


# INI section -> key -> annotated type, read off the field tags.
_SECTIONS: dict[str, dict[str, str]] = {}
for _f in fields(ExperimentConfig):
    if "section" in _f.metadata:
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
    preset = section.get("preset", "").strip()
    given, missing = [], []
    for key in _INLINE_LAYOUT_KEYS:
        (given if key in section else missing).append(f"layout.{key}")
    if preset and given:
        raise ConfigError(f"layout.preset excludes inline keys ({', '.join(given)})")
    if preset:
        try:
            return layout_from_preset(preset)
        except ValueError as exc:
            raise ConfigError(f"layout.preset: {exc}") from None
    if not given:
        return reference_layout()
    if missing:
        raise ConfigError(
            f"{missing[0]} is required for an inline layout (given {', '.join(given)})"
        )
    rows = []
    for lineno, line in enumerate(section["sites"].strip().splitlines(), start=1):
        key, parts = f"sites line {lineno}", line.split()
        if len(parts) != 4:
            raise ConfigError(f"layout.{key} must be 'id x y role', got {line.strip()!r}")
        sid = _convert("layout", key, parts[0], "int")
        x, y = (_convert("layout", key, v, "finite") for v in parts[1:3])
        rows.append((sid, x, y, parts[3]))
    reservoir = section["reservoir"].split()
    if len(reservoir) != 2:
        raise ConfigError("layout.reservoir must be 'x y'")
    reservoir = tuple(_convert("layout", "reservoir", v, "finite") for v in reservoir)
    sizes = {k: _convert("layout", k, section[k], "finite") for k in _INLINE_LAYOUT_KEYS[2:]}
    try:
        return layout_from_site_rows(rows, reservoir, **sizes)
    except ValueError as exc:
        raise ConfigError(str(exc) if str(exc).startswith("layout.") else f"layout: {exc}") from None


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
    for section in parser.sections():
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
