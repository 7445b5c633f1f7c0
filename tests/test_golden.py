"""Golden outputs: sha256 of fig4.csv and events.csv for small seeded runs,
and of run_meta.json for the inline layouts.

The hashes pin every byte the simulator writes, so a change meant to keep
results identical (a cache, a bulk draw, a faster writer) is checked against
the exact output of the code it replaced, not against statistical bands.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from tweezersim import stochastic
from tweezersim.config import ExperimentConfig
from tweezersim.engine import EventLog
from tweezersim.geometry import ArrayLayout, Position, SiteRole, TrapSite
from tweezersim.harness import run_experiment, write_outputs

from conftest import hex_layout, two_site_layout

GOLDEN = {
    "default": (
        {},
        "4da87cc2e5b4269ecb8e584a45f967121b5ceb2cca8660758d064edd113b178c",
        "e8133c568a519f60e52d1b9e58ef333f76f0a5d9b3a0fd28bb3ebd00d2eb91bc",
    ),
    # a failed move always loses its atom, then always keeps it
    "lose": (
        {"p_stay_on_failure": 0.0},
        "b2486384650698e6b8f1b25d5f24798b42f72a45bf82b3f19bcfd0c369ca35f4",
        "f7238973f9deeefc14a7a97f36a4ef31e891759b47f8012b1bdb527c1607c437",
    ),
    "stay": (
        {"p_stay_on_failure": 1.0},
        "832eb8306b8c29697681830effd35611fc8ea2d60204b915c8ccec1764671d4f",
        "7cc6c92d300b7129ea411a6094204d0e2a888bda6e05ad661cda395d56a221c0",
    ),
    "per-vacancy": (
        {"fill_strategy": "per-vacancy"},
        "d5126d9110c12fd50cdfc9d0253160c2f13a0395832273940a0e59fe307a63a6",
        "ddd05a69eae15be61fe3873d05bdaf4c2e51d03c8b992b448e2c586e59341469",
    ),
    "refill": (
        {"refill_rate": 100.0},
        "05c7f6236d9bd1a5e720280fa7a1966a8bbe171f08fe8d190499d04a4e1f45c1",
        "aeb3ed9dab3a59b33d2068366b1d6310ea432f58eaf76da67ab70d2643774ab2",
    ),
    "image-loss": (
        {"t_image_loss": 0.02},
        "3d2ecaeb339b6f8e17be5030dde53585206791dbed9f82fd4cc58069585a99a7",
        "2ecb4929f081549168fa2d437c5db623b5384e80c0636607fb99ac3753b7e560",
    ),
    # survival is certain: the rows are the default's, no site slot loses an atom
    "lossless-array": (
        {"lifetime_array_s": math.inf},
        "381b6956af251ecbf93f076028523f61123dcfffdc8e9acec756a1336c760101",
        "652ef820a01db18b18dfba25c8032a9a3cae12f5f26248ac544165c4568e4e84",
    ),
    # over a third of the decay windows that hold atoms lose one
    "short-lifetime": (
        {"lifetime_array_s": 0.5},
        "8190706641a61bcd4b37ab650243787f984d5a7f044508415ffbc2ba024e872b",
        "abc89d0eb9c70cc8791c28127921dccf619c06d0f2679154575839bb57a1334a",
    ),
    # most refill attempts find the reservoir empty
    "dry-reservoir": (
        {"reservoir_mean": 5.0},
        "b6e7bdbf4c173893110dcfe7f2e8a3d269fdefa93ce83406e4e7f7e06e747ccc",
        "cdceac5222536042c5857ece66d6d73666c049d2a3b24fa7c5144f91dfcd142a",
    ),
    "two-site": (
        {"layout": two_site_layout()},
        "8e11381f1548f976053ba97557560efdeaf7356aeff45c3f214ee6eef6a084fa",
        "e5f807912f44911a556af80e7be8bc68bcc70f392dc42eb9f91e7589570630b5",
    ),
    # 91 sites: masks past 63 bits go through decay, fill, refill and the log
    "hex-91": (
        {"layout": hex_layout()},
        "6c1b445810b08dffbbe0c724e89a6d78843fbfd9464399185a5b4b7ec8e60539",
        "5c65601eb76dc6de78d5412a99fdb736ecc5873a9310f9513c1c9ddbe020978e",
    ),
}


# run_meta.json of the layouts given inline (preset null): every site row,
# the reservoir and the sizes exactly as resolved() writes them
RUN_META = {
    "two-site": "69261ed49cc167158e0cfe7f32db2727c2f09dac812d492c0d7f8b055146339a",
    "hex-91": "15235d896798d7d790431436aa951bf20ed450cf21126449393bd422c5b24cd6",
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_hashes(case, tmp_path):
    overrides, fig4, events = GOLDEN[case]
    cfg = ExperimentConfig(n_replicas=30, n_cycles=8, master_seed=11, **overrides)
    stats, log = run_experiment(cfg, log=EventLog())
    paths = write_outputs(stats, log, str(tmp_path), cfg)
    assert (sha256(paths["fig4"]), sha256(paths["events"])) == (fig4, events)
    if case in RUN_META:
        assert sha256(paths["run_meta"]) == RUN_META[case]


def test_numpy_scalars_write_the_bytes_of_equal_python_values(tmp_path):
    # the config stores each key as its annotated type and a layout its
    # sizes and coordinates as floats, its ids as ints, so no numpy scalar
    # reaches a writer: the equal Python-typed run writes the same bytes
    # (every real here is a float32 exactly)
    def layout(real, integer):
        return ArrayLayout(
            sites=(
                TrapSite(integer(0), Position(real(0.0), real(0.0)), SiteRole.BUFFER),
                TrapSite(integer(1), Position(real(15.75), real(0.0)), SiteRole.TARGET),
            ),
            reservoir_pos=Position(real(-41.0), real(0.0)),
            scan_range=real(250.0), base_pitch=real(15.75), effective_pitch=real(15.75),
        )

    def written(name, real, integer):
        cfg = ExperimentConfig(
            n_replicas=integer(3), n_cycles=integer(4), master_seed=integer(11),
            n_reference=integer(80), reservoir_mean=integer(80),
            p_transport=real(0.75), t_image=real(0.125), t_image_loss=real(0.0625),
            t_ramp=real(2**-13), refill_rate=real(40.0), layout=layout(real, integer),
        )
        stats, log = run_experiment(cfg, log=EventLog())
        paths = write_outputs(stats, log, str(tmp_path / name), cfg)
        return {key: (tmp_path / name / path).read_bytes() for key, path in paths.items()}

    assert written("numpy", np.float32, np.int64) == written("python", float, int)
    assert written("float64", np.float64, np.int32) == written("python", float, int)


def test_draws_above_the_search_limit_match_golden_hashes(tmp_path, monkeypatch):
    # a reservoir of 1e5 atoms and ensembles of 600 take numpy's samplers on
    # child generators: the initial load, thinning in every decay window and
    # extraction at every buffer, each keyed by its column in the cycle's
    # full row of 71 uniforms (image thinning 0, fill 27, refill 56,
    # buffers 42-54)
    keys = Counter()
    child = stochastic.RngStream.child

    def counted(rng, slot):
        generator = child(rng, slot)
        cycle, column = generator.bit_generator.seed_seq.spawn_key
        keys[(cycle > 0, column)] += 1
        return generator

    monkeypatch.setattr(stochastic.RngStream, "child", counted)
    cfg = ExperimentConfig(
        n_replicas=30, n_cycles=8, master_seed=11,
        reservoir_mean=1e5, mean_ensemble_at_full=600.0,
    )
    stats, log = run_experiment(cfg, log=EventLog())
    paths = write_outputs(stats, log, str(tmp_path), cfg)
    assert (sha256(paths["fig4"]), sha256(paths["events"])) == (
        "8a380fcfd2b39413f8689384c55e97a981445866ec786ed8b4d47158a131bc53",
        "a36d5a805a85c2afd61f75fdcd883e38a2f54a2b258dcbf823b102740ed7edf9",
    )
    assert set(keys) == {(False, 0), *((True, c) for c in (0, 27, 56, *range(42, 56, 2)))}
    assert sum(keys.values()) == 1441
