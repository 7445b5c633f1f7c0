"""Golden outputs: sha256 of fig4.csv and events.csv for small seeded runs.

The hashes pin every byte the simulator writes, so a change meant to keep
results identical (a cache, a bulk draw, a faster writer) is checked against
the exact output of the code it replaced, not against statistical bands.
"""

import hashlib
import math

import pytest

from tweezersim.config import ExperimentConfig
from tweezersim.harness import run_experiment, write_outputs

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
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_match_golden_hashes(case, tmp_path):
    overrides, fig4, events = GOLDEN[case]
    cfg = ExperimentConfig(n_replicas=30, n_cycles=8, master_seed=11, **overrides)
    stats, log = run_experiment(cfg, collect_events=True)
    paths = write_outputs(stats, log, str(tmp_path), cfg)
    assert (sha256(paths["fig4"]), sha256(paths["events"])) == (fig4, events)
