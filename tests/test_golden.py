"""Golden outputs: sha256 of fig4.csv and events.csv for small seeded runs.

The hashes pin every byte the simulator writes, so a change meant to keep
results identical (a cache, a bulk draw, a faster writer) is checked against
the exact output of the code it replaced, not against statistical bands.
"""

import hashlib
import math

import pytest

from tweezersim.config import ExperimentConfig
from tweezersim.engine import EventLog
from tweezersim.geometry import layout_from_site_rows
from tweezersim.harness import run_experiment, write_outputs

from conftest import hex_layout

# one buffer beside one target, the smallest layout the engine accepts
TWO_SITE = layout_from_site_rows(
    [(0, 0.0, 0.0, "buffer"), (1, 15.8, 0.0, "target")],
    reservoir=(-41.0, 0.0), scan_range=250.0, base_pitch=7.9, effective_pitch=15.8,
)

GOLDEN = {
    "default": (
        {},
        "72c323683986066670865d4cb9ed63a11ecb17cc5c6db483fdd2d6d3fae817a6",
        "7f8d946aaf71f37d7ed37a0747721732c9c33333595ce3ac2c4e777257adf21f",
    ),
    # a failed move always loses its atom, then always keeps it
    "lose": (
        {"p_stay_on_failure": 0.0},
        "2ab2e9e6b51fb83053fd2aa699324031e45b88e98ce348964809bdfe65b3f226",
        "3bfa20b91ee0a29797fb8a7dd8a85bf3e1cd31bc5e729f643edddbe8032f7334",
    ),
    "stay": (
        {"p_stay_on_failure": 1.0},
        "172f7235399322143961aeecf5899fbe89bed5eda9bbbdc3a10bce326dd4b7f5",
        "ec713dd9665a6f374151f4a3088315dad38ba6972c7d231d40b3cf265dc85cee",
    ),
    "per-vacancy": (
        {"fill_strategy": "per-vacancy"},
        "72c323683986066670865d4cb9ed63a11ecb17cc5c6db483fdd2d6d3fae817a6",
        "e919a30d1c379a6308fbcfc971b8cf3517f19022f6b81c48fa23f37d0c907752",
    ),
    "refill": (
        {"refill_rate": 100.0},
        "53862ebe456d4d94ae42d6bf835daa2dfe5c57bc146c29e399c752661b9ac143",
        "6922c286849a43ae8c919816bb33b12dbaa52fd2db663562512d8d054d54648d",
    ),
    "image-loss": (
        {"t_image_loss": 0.02},
        "30eef4a420ef39196f232c305b7abfee582da7c9beb27d46545db023323a663e",
        "bb5872e112ba44e8cd4042d3973e6efd25bd7be7d83f846baed31fce79d600b2",
    ),
    # survival is certain, yet every trapped atom still consumes its draw
    "lossless-array": (
        {"lifetime_array_s": math.inf},
        "e3545098d8c8b39ba836d6055c27dd643307c821d0ec8be823997c5adde33540",
        "cfbfa50a7698d451dc128eb79a2aaa9de14e484a9e47af1602315b553390b520",
    ),
    # over a third of the decay windows that hold atoms lose one
    "short-lifetime": (
        {"lifetime_array_s": 0.5},
        "eca73729a3b2be935fc5264281cf6664f63d63e31e86b249ca2511635e28fe54",
        "a54f857084172a6a4075f509910b7c1f1f60afb29146e574e7ec1f9e0c6d90be",
    ),
    # most refill attempts find the reservoir empty
    "dry-reservoir": (
        {"reservoir_mean": 5.0},
        "355e20095addaf7d7763846f4eeaf1a6b3cca400a4da64c1c34296ff24578de0",
        "a0b04719189fb56289b22dcd66b64aa2b1fcd8e29be4b1f4533a1187602a7225",
    ),
    "two-site": (
        {"layout": TWO_SITE},
        "550efba90dc41da7ad1006b0cda23a35a359e5d8b23694f184928e942d9c72de",
        "60ac0d4d1a4bdb053859bd6ad2872d512f3c9716df261cbc8c8a16cabbc184ff",
    ),
    # 91 sites: masks past 63 bits go through decay, fill, refill and the log
    "hex-91": (
        {"layout": hex_layout()},
        "f42f38bad9338a5e581456f7f8b5f3ca71c20196b35136bafb77bea4d0c8848d",
        "c59e2e447dd8364a641a4cc982b5f128324bd1184e00dcd9c51ff050427b7c00",
    ),
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
