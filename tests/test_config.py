"""Configuration parsing, validation, and model assembly."""

import dataclasses
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tweezersim.config import (
    _SECTIONS,
    DEFAULT_ENSEMBLE_MEAN,
    DEFAULT_STAY_ON_FAILURE,
    ConfigError,
    ExperimentConfig,
    load_config,
)
from tweezersim.geometry import ArrayLayout, Position, SiteRole, TrapSite, reference_layout
from tweezersim.stochastic import poisson_table


def write_ini(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text(body)
    return p


def test_defaults_build():
    cfg = ExperimentConfig()
    assert cfg.build_models() is cfg
    assert cfg.layout.site_ids == reference_layout().site_ids
    assert cfg.p_transport == 0.753
    assert cfg.p_stay_on_failure == DEFAULT_STAY_ON_FAILURE


# a legal value other than the default for every key the engine reads
MODEL_KEY_VALUES = {
    "lifetime_array_s": 4.0,
    "lifetime_reservoir_s": 2.0,
    "p_transport": 0.5,
    "p_stay_on_failure": 0.25,
    "p_blockade_plateau": 0.4,
    "mean_ensemble_at_full": 20.0,
    "n_reference": 60,
    "reservoir_mean": 120.0,
    "refill_rate": 3.5,
    "t_mot": 1.5,
    "t_molasses": 0.05,
    "t_reservoir_transfer": 0.03,
    "t_image": 0.2,
    "t_analysis_fill": 0.08,
    "t_buffer_refill": 0.05,
    "t_ramp": 100e-6,
    "t_move": 250e-6,
    "t_image_loss": 0.1,
    "fill_strategy": "per-vacancy",
}


def test_models_hold_every_model_key_under_its_name():
    keys = [*_SECTIONS["stochastic"], *_SECTIONS["timing"], *_SECTIONS["engine"]]
    assert list(MODEL_KEY_VALUES) == keys


def derived_values(models):
    """Every value the config decides from its keys."""
    slots = models.slots
    return (
        models.init_duration, models.cycle_duration, models.move_duration,
        models.image_window, models.fill_window, models.refill_window,
        models.p_blockade, models.initial_load, slots.masks, slots.columns,
    )


@pytest.mark.parametrize("key,value", MODEL_KEY_VALUES.items(), ids=list(MODEL_KEY_VALUES))
def test_replaced_models_equal_models_of_the_replaced_config(key, value):
    cfg = ExperimentConfig()
    replaced = dataclasses.replace(cfg, **{key: value})
    built = ExperimentConfig(**{key: value})
    assert getattr(replaced, key) == value
    assert replaced == built
    assert derived_values(replaced) == derived_values(built)
    # the keys the engine reads only as they are decide nothing
    read_as_is = key in (
        "p_transport", "p_stay_on_failure", "n_reference", "fill_strategy"
    )
    assert (derived_values(replaced) == derived_values(cfg)) == read_as_is


def test_a_replaced_config_never_reads_its_parents_tables():
    # each calibration evaluation runs dataclasses.replace(config,
    # mean_ensemble_at_full=m, ...): once the parent has read its ensemble
    # entry, the replaced bundle must still index tables of its own
    cfg = ExperimentConfig()
    assert cfg.ensembles[cfg.n_reference] == poisson_table(cfg.mean_ensemble_at_full)
    replaced = dataclasses.replace(cfg, mean_ensemble_at_full=20.0, n_replicas=500)

    def indices(models):
        windows = (models.image_window, models.fill_window, models.refill_window)
        return [models.ensembles, *(w.thinning for w in windows)]

    assert not {id(index) for index in indices(cfg)} & {id(index) for index in indices(replaced)}
    assert replaced.ensembles[replaced.n_reference] == poisson_table(20.0)


@pytest.mark.parametrize("key,value,message", [
    ("p_transport", 7.0, "stochastic.p_transport must be within [0, 1], got 7.0"),
    ("t_image", -1.0, "timing.t_image must be finite and nonnegative, got -1.0"),
    ("n_reference", 0, "stochastic.n_reference must be positive, got 0"),
    ("fill_strategy", "nearest",
     "engine.fill_strategy must be 'global' or 'per-vacancy', got 'nearest'"),
])
def test_replacing_a_key_of_the_models_is_checked(key, value, message):
    # the models are the config, so a replaced value meets the config's checks
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(ExperimentConfig().build_models(), **{key: value})


def test_plateau_inversion_in_build():
    cfg = ExperimentConfig()
    window = cfg.t_buffer_refill + cfg.t_image
    surv = math.exp(-window / cfg.lifetime_array_s)
    expected = 0.596 / ((1 - math.exp(-DEFAULT_ENSEMBLE_MEAN)) * surv)
    assert cfg.p_blockade == pytest.approx(expected)


def test_image_loss_override_changes_inversion():
    short = ExperimentConfig(t_image_loss=0.0)
    full = ExperimentConfig()
    assert short.p_blockade < full.p_blockade


def test_success_definition_aliases():
    assert ExperimentConfig(success_definition="first").success_definition == (
        "first-achievement"
    )
    assert ExperimentConfig(
        success_definition="maintained"
    ).success_definition == "maintained"
    with pytest.raises(ConfigError, match="success_definition"):
        ExperimentConfig(success_definition="sticky")


@pytest.mark.parametrize(
    "field,value,key",
    [
        ("n_replicas", 0, "run.n_replicas"),
        ("n_cycles", 0, "run.n_cycles"),
        ("master_seed", -1, "run.master_seed"),
        ("p_transport", 1.5, "stochastic.p_transport"),
        ("p_stay_on_failure", -0.1, "stochastic.p_stay_on_failure"),
        ("lifetime_array_s", 0.0, "stochastic.lifetime_array_s"),
        ("n_reference", 0, "stochastic.n_reference"),
        ("refill_rate", -1.0, "stochastic.refill_rate"),
        ("t_image", -0.1, "timing.t_image"),
        ("fill_strategy", "none", "engine.fill_strategy"),
        ("t_mot", math.nan, "timing.t_mot"),
        ("t_image_loss", math.nan, "timing.t_image_loss"),
        ("t_ramp", math.nan, "timing.t_ramp"),
        ("refill_rate", math.nan, "stochastic.refill_rate"),
        ("reservoir_mean", math.nan, "stochastic.reservoir_mean"),
        ("lifetime_reservoir_s", math.nan, "stochastic.lifetime_reservoir_s"),
        ("mean_ensemble_at_full", math.nan, "stochastic.mean_ensemble_at_full"),
        ("n_replicas", math.nan, "run.n_replicas"),
        ("n_replicas", 2.5, "run.n_replicas"),
        ("n_cycles", 2.5, "run.n_cycles"),
        ("master_seed", 1.5, "run.master_seed"),
        ("n_reference", 2.5, "stochastic.n_reference"),
        ("t_image_loss", 0.131, "timing.t_image_loss"),
        # non-finite values and Poisson means past numpy's 64-bit counts
        ("t_image", math.inf, "timing.t_image"),
        ("refill_rate", math.inf, "stochastic.refill_rate"),
        ("reservoir_mean", math.inf, "stochastic.reservoir_mean"),
        ("reservoir_mean", 1e19, "stochastic.reservoir_mean"),
        ("mean_ensemble_at_full", math.inf, "stochastic.mean_ensemble_at_full"),
        # a refill that could grow the reservoir past 1e18 atoms in the
        # run's 16 engine cycles of 0.23 s
        ("refill_rate", 1e300, "stochastic.refill_rate"),
        ("refill_rate", 2.8e17, "stochastic.refill_rate"),
        # no atom survives from refill to readout: the readout survival
        # underflows to 0, and the keys that set it are named
        ("t_buffer_refill", 1e6, "timing.t_buffer_refill"),
        ("lifetime_array_s", 1e-4, "stochastic.lifetime_array_s"),
        ("t_image", 1e6, "timing.t_image"),
        # 6 moves of 2 x 130 us + 11 ms outlast the 65 ms fill window
        ("t_move", 0.011, "timing.t_analysis_fill"),
        ("lifetime_reservoir_s", -1.0, "stochastic.lifetime_reservoir_s"),
        ("mean_ensemble_at_full", 0.0, "stochastic.mean_ensemble_at_full"),
        # 1 - exp(-mean) rounds to 0: no ensemble is ever nonempty
        ("mean_ensemble_at_full", 1e-17, "stochastic.mean_ensemble_at_full"),
        ("mean_ensemble_at_full", 1e-300, "stochastic.mean_ensemble_at_full"),
        ("p_blockade_plateau", 1.5, "stochastic.p_blockade_plateau"),
        ("t_molasses", -0.1, "timing.t_molasses"),
        ("t_reservoir_transfer", math.nan, "timing.t_reservoir_transfer"),
        ("t_analysis_fill", math.inf, "timing.t_analysis_fill"),
    ],
)
def test_validation_names_offending_key(field, value, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value,key,noun",
    [
        ("p_transport", "0.5", "stochastic.p_transport", "a number"),
        ("reservoir_mean", True, "stochastic.reservoir_mean", "a number"),
        ("refill_rate", None, "stochastic.refill_rate", "a number"),
        ("t_ramp", np.True_, "timing.t_ramp", "a number"),
        ("t_image_loss", "0.1", "timing.t_image_loss", "a number or None"),
        ("t_image_loss", False, "timing.t_image_loss", "a number or None"),
        ("success_definition", ["x"], "run.success_definition", "a string"),
        ("fill_strategy", None, "engine.fill_strategy", "a string"),
        ("n_replicas", True, "run.n_replicas", "an integer"),
        ("layout", "paper-hex-6", "layout", "an ArrayLayout"),
        ("layout", None, "layout", "an ArrayLayout"),
    ],
)
def test_wrongly_typed_values_name_their_key(field, value, key, noun):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be {noun}, got"):
        ExperimentConfig(**{field: value})


TAGGED = [f for f in dataclasses.fields(ExperimentConfig) if "section" in f.metadata]
TINY = math.ulp(0.0)  # the smallest positive double
# a numeric rule's words -> (its edge values, values just past it)
RULE_EDGES = {
    "at least 1": ([1], [0]),
    "nonnegative": ([0], [-1]),
    "positive": ([TINY], [0.0, -TINY]),
    "finite and nonnegative": ([0.0], [-TINY, math.inf]),
    "within [0, 1]": ([0.0, 1.0], [-TINY, math.nextafter(1.0, 2.0)]),
    "at most 1e+18": ([1e18], [math.nextafter(1e18, math.inf)]),
}
# edge values that pass their own rule but not a check across keys
CROSS_KEY_REFUSALS = {
    # no array atom survives the readout window
    ("lifetime_array_s", TINY): "no array atom survives",
    # 1 - exp(-mean) rounds to 0, so no atom is ever delivered
    ("mean_ensemble_at_full", TINY): "unreachable",
    # the plateau folds in decay, so p_blockade would exceed 1
    ("p_blockade_plateau", 1.0): "unreachable",
    # the longest fill plan needs 6 moves of 570 us
    ("t_analysis_fill", 0.0): "cannot hold the longest fill plan",
}


def rule_cases(f):
    """(edge values, values just past) of every rule of field ``f``."""
    for words, _ in f.metadata["rules"]:
        if f.type == "str":  # one of the quoted choices
            yield re.findall(r"'([^']*)'", words), ["x"], words
        elif f.type == "int" and words == "positive":
            yield [1], [0], words
        else:
            yield *RULE_EDGES[words], words


@pytest.mark.parametrize("f", TAGGED, ids=[f.name for f in TAGGED])
def test_every_key_is_held_to_its_rules(f):
    key = f"{f.metadata['section']}.{f.name}"
    assert f.metadata["rules"], f"{key} has no range"
    for edges, pasts, words in rule_cases(f):
        for value in pasts:
            refused = rf"^{re.escape(key)} must be {re.escape(words)}, got"
            with pytest.raises(ConfigError, match=refused):
                ExperimentConfig(**{f.name: value})
        for value in edges:
            refusal = CROSS_KEY_REFUSALS.get((f.name, value))
            if refusal is None:
                ExperimentConfig(**{f.name: value})  # accepted
            else:
                with pytest.raises(ConfigError, match=refusal):
                    ExperimentConfig(**{f.name: value})
    if f.type != "str":
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
            ExperimentConfig(**{f.name: math.nan})


@pytest.mark.parametrize(
    "field,value",
    [
        ("reservoir_mean", 80),
        ("p_transport", np.float64(0.5)),
        ("n_replicas", np.int64(3)),
        ("t_image_loss", None),
        ("t_image_loss", np.float32(0.1)),
    ],
)
def test_ints_and_numpy_scalars_are_taken(field, value):
    assert getattr(ExperimentConfig(**{field: value}), field) == value


def test_refill_supply_bound_counts_the_run_length():
    # 2.7e17 atoms/s x 16 cycles x 0.23 s = 9.9e17 atoms: legal; one more
    # reported cycle takes the supply past 1e18
    assert ExperimentConfig(refill_rate=2.7e17).refill_rate == 2.7e17
    with pytest.raises(ConfigError, match=r"stochastic\.refill_rate .* 17 engine cycles"):
        ExperimentConfig(refill_rate=2.7e17, n_cycles=16)
    # 1e18 atoms/s x 2 engine cycles x 0.23 s = 4.6e17: legal; 5 engine
    # cycles could supply 1.15e18
    assert ExperimentConfig(n_cycles=1, refill_rate=1e18).engine_cycles == 2
    with pytest.raises(ConfigError, match=r"stochastic\.refill_rate .* 5 engine cycles"):
        ExperimentConfig(n_cycles=4, refill_rate=1e18)
    with pytest.raises(ConfigError, match=r"stochastic\.refill_rate"):
        ExperimentConfig(refill_rate=1e18, lifetime_reservoir_s=math.inf)
    # without a refill the reservoir only shrinks: no bound past the mean's
    cfg = ExperimentConfig(reservoir_mean=1e18, n_cycles=10**6)
    assert cfg.reservoir_mean == 1e18


@pytest.mark.parametrize(
    "values,low,high",
    [
        ({}, 0.931, 0.932),
        ({"p_blockade_plateau": 0.7}, 1.243, 1.244),
        ({"p_blockade_plateau": 0.95, "lifetime_array_s": 50.0}, 3.06, 3.07),
        ({"t_image_loss": 0.01}, 0.913, 0.914),
        # an empty plateau: any ensemble that is ever nonempty, where
        # 1 - exp(-mean) first rounds above 0
        ({"p_blockade_plateau": 0.0}, 5e-17, 6e-17),
        # the whole readout survival: only a mean at which 1 - exp(-mean)
        # rounds to 1
        ({"p_blockade_plateau": 1.0, "lifetime_array_s": math.inf,
          "mean_ensemble_at_full": 40.0}, 37.0, 38.0),
    ],
    ids=["defaults", "plateau-0.7", "plateau-0.95", "t_image_loss-0.01", "plateau-0", "plateau-1"],
)
def test_min_ensemble_mean_is_the_least_mean_reaching_the_plateau(values, low, high):
    cfg = ExperimentConfig(**values)
    least = cfg.min_ensemble_mean
    assert low < least < high
    reached = dataclasses.replace(cfg, mean_ensemble_at_full=least)
    assert reached.p_blockade <= 1.0 and reached.min_ensemble_mean == least
    # the next mean below reaches the plateau only with p_blockade > 1
    with pytest.raises(ConfigError, match=r"p_blockade_plateau .* unreachable"):
        dataclasses.replace(cfg, mean_ensemble_at_full=math.nextafter(least, 0.0))


def test_infinite_lifetimes_stay_legal():
    cfg = ExperimentConfig(lifetime_array_s=math.inf, lifetime_reservoir_s=math.inf)
    assert cfg.lifetime_array_s == math.inf


def test_unreachable_plateau_is_config_error():
    with pytest.raises(ConfigError, match="p_blockade_plateau"):
        ExperimentConfig(mean_ensemble_at_full=0.5)


def test_resolved_covers_every_section():
    r = ExperimentConfig().resolved()
    assert set(r) == {"run", "layout", "stochastic", "timing", "engine"}
    assert r["stochastic"]["p_stay_on_failure"] == pytest.approx(2 / 3)
    assert len(r["layout"]["sites"]) == 13
    assert r["layout"]["preset"] == "paper-hex-6"


def test_every_resolved_layout_key_is_accepted(tmp_path):
    # what resolved() writes under "layout" must be readable back from
    # [layout]; a key load_config rejects cannot round-trip
    for key in ExperimentConfig(layout=CUSTOM_LAYOUT).resolved()["layout"]:
        path = write_ini(tmp_path, f"[layout]\n{key} = 1\n", name=f"{key}.ini")
        try:
            load_config(path)
        except ConfigError as exc:
            assert "unknown key" not in str(exc), key


INLINE_LAYOUT = """
[layout]
sites =
    0 0.0 0.0 buffer
    1 20.0 0.0 buffer
    2 40.0 0.0 target
reservoir = -50.0 0.0
base_pitch = 20.0
effective_pitch = 20.0
scan_range = 250.0
"""


class TestLoadConfig:
    def test_minimal_file(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, "[run]\nn_replicas = 10\n"))
        assert cfg.n_replicas == 10
        assert cfg.n_cycles == 15  # untouched defaults survive

    def test_full_sections(self, tmp_path):
        body = """
[run]
n_replicas = 50
n_cycles = 4
master_seed = 9
success_definition = maintained
[layout]
preset = paper-hex-6
[stochastic]
p_transport = 0.9
p_stay_on_failure = 0.5
mean_ensemble_at_full = 12.0
[timing]
t_image = 0.1
[engine]
fill_strategy = per-vacancy
"""
        cfg = load_config(write_ini(tmp_path, body))
        assert cfg.master_seed == 9
        assert cfg.success_definition == "maintained"
        assert cfg.p_stay_on_failure == 0.5
        assert cfg.t_image == 0.1
        assert cfg.fill_strategy == "per-vacancy"

    def test_inline_comments(self, tmp_path):
        cfg = load_config(
            write_ini(tmp_path, "[stochastic]\np_transport = 0.5  # halved\n")
        )
        assert cfg.p_transport == 0.5

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(write_ini(tmp_path, "[quantum]\nx = 1\n"))

    @pytest.mark.parametrize(
        "body",
        [
            "[DEFAULT]\nn_replicas = 5\n",
            "[DEFAULT]\nbogus = 1\n",
            "[DEFAULT]\nn_cycles = 3\n[run]\nn_replicas = 5\n",
        ],
        ids=["run-key-alone", "unknown-key", "beside-run"],
    )
    def test_default_section_is_unknown(self, tmp_path, body):
        # configparser would copy [DEFAULT]'s keys into every section
        with pytest.raises(ConfigError) as info:
            load_config(write_ini(tmp_path, body))
        assert str(info.value) == (
            "unknown config section [DEFAULT]; expected one of "
            "['engine', 'layout', 'run', 'stochastic', 'timing']"
        )

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_ini(tmp_path, "[run]\nreplicas = 10\n"))

    def test_failure_mode_key_is_gone(self, tmp_path):
        # the retention probability alone decides what a failed move does
        body = "[engine]\ntransport_failure = stay\n"
        with pytest.raises(ConfigError, match=r"unknown key engine\.transport_failure"):
            load_config(write_ini(tmp_path, body))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_ini(tmp_path, "[run]\nn_replicas = soon\n"))

    @pytest.mark.parametrize("key", ["t_image_loss", "t_mot"])
    def test_unreadable_float_says_a_number(self, tmp_path, key):
        with pytest.raises(ConfigError) as info:
            load_config(write_ini(tmp_path, f"[timing]\n{key} = abc\n"))
        assert str(info.value) == f"timing.{key} must be a number, got 'abc'"

    def test_out_of_range_value(self, tmp_path):
        with pytest.raises(ConfigError, match="p_transport"):
            load_config(write_ini(tmp_path, "[stochastic]\np_transport = 2.0\n"))

    def test_inline_layout(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, INLINE_LAYOUT))
        assert cfg.resolved()["layout"]["preset"] is None
        assert list(cfg.layout.site_ids) == [0, 1, 2]
        assert list(cfg.layout.buffer_ids) == [0, 1]
        assert cfg.layout.reservoir_pos.x == -50.0

    def test_preset_lookup(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, "[layout]\npreset = paper-hex-6\n"))
        assert cfg.layout == reference_layout()
        assert cfg.resolved()["layout"]["preset"] == "paper-hex-6"

    def test_unknown_preset(self, tmp_path):
        body = "[layout]\npreset = no-such-preset\n"
        with pytest.raises(ConfigError) as info:
            load_config(write_ini(tmp_path, body))
        assert str(info.value) == (
            "layout.preset: unknown layout preset 'no-such-preset'; "
            "available: ['paper-hex-6']"
        )

    def test_preset_and_sites_conflict(self, tmp_path):
        body = """
[layout]
preset = paper-hex-6
sites =
    0 0.0 0.0 buffer
"""
        with pytest.raises(ConfigError, match="layout"):
            load_config(write_ini(tmp_path, body))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("[layout]\npreset =\n",
             "layout.preset: unknown layout preset ''; available: ['paper-hex-6']"),
            (INLINE_LAYOUT + "preset =\n",
             "layout.preset excludes inline keys (layout.sites, layout.reservoir, "
             "layout.scan_range, layout.base_pitch, layout.effective_pitch)"),
        ],
        ids=["alone", "beside-inline-keys"],
    )
    def test_empty_preset_is_a_value(self, tmp_path, body, message):
        # an empty preset is read like any other empty value, not as absent
        with pytest.raises(ConfigError) as info:
            load_config(write_ini(tmp_path, body))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("reservoir = -50.0 0.0", "reservoir = abc 0.0",
             "layout.reservoir must be a finite number, got 'abc'"),
            ("reservoir = -50.0 0.0", "reservoir = 0.0 nan",
             "layout.reservoir must be a finite number, got 'nan'"),
            ("1 20.0 0.0 buffer", "1 nan 0.0 buffer",
             "layout.sites line 2 must be a finite number, got 'nan'"),
            ("2 40.0 0.0 target", "2 40.0 -inf target",
             "layout.sites line 3 must be a finite number, got '-inf'"),
            ("1 20.0 0.0 buffer", "one 20.0 0.0 buffer",
             "layout.sites line 2 must be an integer, got 'one'"),
            ("scan_range = 250.0", "scan_range = far",
             "layout.scan_range must be a number, got 'far'"),
            ("scan_range = 250.0", "scan_range = inf",
             "layout.scan_range must be finite and positive, got inf"),
            ("base_pitch = 20.0", "base_pitch = inf",
             "layout.base_pitch must be finite and positive, got inf"),
            ("effective_pitch = 20.0", "effective_pitch = nan",
             "layout.effective_pitch must be finite and positive, got nan"),
            ("scan_range = 250.0", "scan_range = 0",
             "layout.scan_range must be finite and positive, got 0.0"),
            ("base_pitch = 20.0", "base_pitch = -20.0",
             "layout.base_pitch must be finite and positive, got -20.0"),
            ("2 40.0 0.0 target", "2 40.0 0.0 middle",
             "layout.sites line 3 must have role 'buffer' or 'target', got 'middle'"),
            ("2 40.0 0.0 target", "2 40.0 0.0 buffer",
             "layout.sites must contain at least one target site"),
            ("2 40.0 0.0 target", "1 40.0 0.0 target",
             "layout.sites must have unique ids, got id 1 twice"),
            ("2 40.0 0.0 target", "2 30.0 0.0 target",
             "layout.sites must lie at least the effective pitch 20 um apart, "
             "got 10 um between sites 1 and 2"),
            ("effective_pitch = 20.0", "effective_pitch = 30.0",
             "layout.effective_pitch must equal base_pitch or 2 x base_pitch, got ratio 1.5"),
            ("reservoir = -50.0 0.0", "reservoir = -300.0 0.0",
             "layout.reservoir must lie within the 250 um scan range around the layout "
             "centroid, got (-300, 0)"),
            ("2 40.0 0.0 target", "2 40.0 400.0 target",
             "layout.sites must lie within the 250 um scan range around the layout "
             "centroid, got site 2 at (40, 400)"),
        ],
        ids=["reservoir-text", "reservoir-nan", "site-nan", "site-inf", "site-id", "scan_range",
             "scan_range-inf", "base_pitch-inf", "effective_pitch-nan", "scan_range-zero",
             "base_pitch-negative", "site-role", "one-role", "site-id-twice", "site-spacing",
             "pitch-ratio", "reservoir-out-of-range", "site-out-of-range"],
    )
    def test_inline_layout_value_names_its_key(self, tmp_path, old, new, message):
        body = INLINE_LAYOUT.replace(old, new)
        assert body != INLINE_LAYOUT
        with pytest.raises(ConfigError) as info:
            load_config(write_ini(tmp_path, body))
        assert str(info.value) == message

    def test_pitch_without_sites(self, tmp_path):
        with pytest.raises(ConfigError, match=r"layout\.base_pitch"):
            load_config(write_ini(tmp_path, "[layout]\nbase_pitch = 5\n"))

    def test_pitch_with_preset(self, tmp_path):
        body = "[layout]\npreset = paper-hex-6\neffective_pitch = 5\n"
        with pytest.raises(ConfigError, match=r"layout\.effective_pitch"):
            load_config(write_ini(tmp_path, body))


def test_reference_ini_matches_defaults():
    cfg = load_config("configs/reference.ini").resolved()
    d = ExperimentConfig().resolved()
    # the INI rounds the retention probability to 4 decimals
    stay = cfg["stochastic"].pop("p_stay_on_failure")
    assert stay == pytest.approx(d["stochastic"].pop("p_stay_on_failure"), abs=1e-4)
    assert cfg == d


# -- INI round trip ---------------------------------------------------------

# A layout given as an object, not through an INI file; sites in id order,
# as resolved() lists them.
CUSTOM_LAYOUT = ArrayLayout(
    sites=(
        TrapSite(0, Position(0.0, 0.0), SiteRole.BUFFER),
        TrapSite(1, Position(20.0, 0.0), SiteRole.BUFFER),
        TrapSite(2, Position(40.0, 0.0), SiteRole.TARGET),
        TrapSite(3, Position(60.5, 10.25), SiteRole.TARGET),
    ),
    reservoir_pos=Position(-50.0, 0.0),
    scan_range=250.0,
    base_pitch=20.0,
    effective_pitch=20.0,
)


def resolved_as_ini(resolved):
    """INI text for a resolved() dict; floats by repr, so they read back
    exactly, and unset keys left out."""
    lines = []
    for section, values in resolved.items():
        lines.append(f"[{section}]")
        if section == "layout":
            if values["preset"] is not None:
                lines.append(f"preset = {values['preset']}")
                continue
            lines.append("sites =")
            lines += [f"    {sid} {x!r} {y!r} {role}" for sid, x, y, role in values["sites"]]
            lines.append("reservoir = {!r} {!r}".format(*values["reservoir"]))
            for key in ("scan_range", "base_pitch", "effective_pitch"):
                lines.append(f"{key} = {values[key]!r}")
            continue
        for key, value in values.items():
            if value is not None:
                lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def round_trip(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "resolved.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(resolved_as_ini(cfg.resolved()))
        return load_config(path)


def test_ini_round_trip_defaults():
    cfg = ExperimentConfig()
    assert round_trip(cfg) == cfg


def test_ini_round_trip_custom_layout():
    cfg = ExperimentConfig(layout=CUSTOM_LAYOUT)
    assert cfg.resolved()["layout"]["preset"] is None
    assert round_trip(cfg) == cfg


def reversed_reference_layout():
    ref = reference_layout()
    return dataclasses.replace(ref, sites=ref.sites[::-1])


def test_layout_equality_ignores_site_order():
    assert reversed_reference_layout() == reference_layout()


def test_reordered_reference_layout_resolves_to_preset():
    cfg = ExperimentConfig(layout=reversed_reference_layout())
    assert cfg.resolved()["layout"]["preset"] == "paper-hex-6"


def test_ini_round_trip_reordered_layout():
    cfg = ExperimentConfig(layout=reversed_reference_layout())
    assert round_trip(cfg) == cfg


@settings(max_examples=60, deadline=None)
@given(
    p_stay=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    # the imaging decay window may narrow t_image but not outlast it
    t_image_loss=st.one_of(st.none(), st.floats(0.0, ExperimentConfig.t_image)),
    fill_strategy=st.sampled_from(["global", "per-vacancy"]),
    ci_method=st.sampled_from(["normal", "wilson"]),
    success_definition=st.sampled_from(["first-achievement", "maintained"]),
    p_transport=st.floats(0.3, 1.0),
    # inf turns a loss channel off; resolved() writes it as "inf"
    lifetime_array_s=st.one_of(st.just(math.inf), st.floats(2.0, 30.0)),
    lifetime_reservoir_s=st.one_of(st.just(math.inf), st.floats(2.0, 30.0)),
    refill_rate=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    n_cycles=st.integers(3, 10),
    layout=st.sampled_from(["preset", "custom"]),
)
def test_ini_round_trip_soak_space(layout, **values):
    values["p_stay_on_failure"] = values.pop("p_stay")
    if layout == "custom":
        values["layout"] = CUSTOM_LAYOUT
    cfg = ExperimentConfig(**values)
    assert round_trip(cfg) == cfg
