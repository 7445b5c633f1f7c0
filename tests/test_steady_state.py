"""Continuous operation against its closed form: with the refill on and the
buffers covering every vacancy, the share of complete images is
``pi**n_targets`` (``oracles.steady_complete_fraction``), a reference from
outside the engine at the reference layout."""

import math

import numpy as np
import pytest

from tweezersim.config import ExperimentConfig
from tweezersim.engine import run_realization

from oracles import steady_complete_fraction

# 64 replicas x 1,100 engine cycles at refill 100 atoms/s; the first 100
# cycles are burn-in. A batch of 100 cycles is far longer than a target's
# correlation time, 1 / (1 - s + p s): 1.3 cycles at defaults and 2.0 at
# p_transport 0.5, the longest of the cases below.
SEED, N_REPLICAS, N_CYCLES, BURN_IN, BATCH = 11, 64, 1_100, 100, 100


@pytest.mark.parametrize(
    "overrides, closed",
    [({}, 0.83311), ({"p_transport": 0.5}, 0.76117), ({"lifetime_array_s": 3.0}, 0.54688)],
    ids=["defaults", "p_transport-0.5", "lifetime_array_s-3"],
)
def test_complete_fraction_matches_the_closed_form(overrides, closed):
    models = ExperimentConfig(refill_rate=100.0, **overrides).build_models()
    expected = steady_complete_fraction(models)
    assert expected == pytest.approx(closed, abs=5e-6)
    n_targets = len(models.layout.target_ids)
    complete, short = [], 0
    for replica in range(N_REPLICAS):
        records = run_realization(models, SEED, N_CYCLES, replica=replica)[BURN_IN:]
        complete.append([r.target_complete for r in records])
        short += sum(r.n_buffer_filled < n_targets - r.n_target_filled for r in records)
    batches = np.array(complete, dtype=float).reshape(N_REPLICAS, -1, BATCH).mean(axis=2)
    mean = batches.mean()
    se = batches.std(ddof=1) / math.sqrt(batches.size)
    # the premise, checked: images whose buffers fell short of the
    # vacancies are fewer than one standard error's worth
    assert short < se * N_REPLICAS * (N_CYCLES - BURN_IN), short
    z = (mean - expected) / se
    assert abs(z) < 4, f"{mean:.5f} +- {se:.5f} against {expected:.5f}: z = {z:.2f}"
