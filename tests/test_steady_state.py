"""Continuous operation against its closed form: with the refill on and the
buffers covering every vacancy, the share of complete images is
``pi**n_targets`` (``oracles.steady_complete_fraction``), a reference from
outside the engine at the reference layout."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tweezersim.config import ExperimentConfig
from tweezersim.engine import run_realization

from oracles import steady_complete_fraction

# 64 replicas x 1,100 engine cycles at refill 100 atoms/s; the first 100
# cycles are burn-in. A batch of 100 cycles is far longer than a target's
# correlation time, 1 / (1 - s + p s): 1.3 cycles at defaults and 2.0 at
# p_transport 0.5, the longest of the cases below.
SEED, N_REPLICAS, N_CYCLES, BURN_IN, BATCH = 11, 64, 1_100, 100, 100


def measure(models, n_replicas, n_cycles, batch):
    """Share of complete images after the burn-in, its standard error from
    batch means, the number of images whose buffers fell short of the
    vacancies, and the number of images."""
    n_targets = len(models.layout.target_ids)
    run = dataclasses.replace(models, master_seed=SEED, n_cycles=n_cycles - 1)
    complete, short = [], 0
    for replica in range(n_replicas):
        records = run_realization(run, replica=replica)[BURN_IN:]
        complete.append([r.target_complete for r in records])
        short += sum(r.n_buffer_filled < n_targets - r.n_target_filled for r in records)
    batches = np.array(complete, dtype=float).reshape(n_replicas, -1, batch).mean(axis=2)
    se = batches.std(ddof=1) / math.sqrt(batches.size)
    return batches.mean(), se, short, n_replicas * (n_cycles - BURN_IN)


def check_closed_form(models, n_replicas, n_cycles, batch):
    expected = steady_complete_fraction(models)
    mean, se, short, n_images = measure(models, n_replicas, n_cycles, batch)
    # the premise, checked: images whose buffers fell short of the
    # vacancies are fewer than one standard error's worth
    assert short < se * n_images, short
    z = (mean - expected) / se
    assert abs(z) < 4, f"{mean:.5f} +- {se:.5f} against {expected:.5f}: z = {z:.2f}"


@pytest.mark.parametrize(
    "overrides, closed",
    [({}, 0.83311), ({"p_transport": 0.5}, 0.76117), ({"lifetime_array_s": 3.0}, 0.54688)],
    ids=["defaults", "p_transport-0.5", "lifetime_array_s-3"],
)
def test_complete_fraction_matches_the_closed_form(overrides, closed):
    models = ExperimentConfig(refill_rate=100.0, **overrides)
    assert steady_complete_fraction(models) == pytest.approx(closed, abs=5e-6)
    check_closed_form(models, N_REPLICAS, N_CYCLES, BATCH)


# 32 replicas x 600 engine cycles in 50-cycle batches per example; at the
# shortest lifetime and longest windows drawn a target's correlation time is
# still about 2 cycles
@settings(max_examples=5, deadline=None, derandomize=True)
@given(
    p_transport=st.floats(0.5, 1.0),
    lifetime_array_s=st.floats(5.0, 30.0),
    t_image_loss=st.floats(0.0, 0.13),
    t_analysis_fill=st.floats(0.01, 0.1),
    t_buffer_refill=st.floats(0.01, 0.1),
)
def test_drawn_parameters_match_the_closed_form(**drawn):
    models = ExperimentConfig(refill_rate=100.0, **drawn)
    check_closed_form(models, 32, 600, 50)


def test_supply_limited_run_falls_short_of_the_closed_form():
    # at 1 atom/s the reservoir cannot keep the buffers full: the complete
    # share lies far below pi**6, and the images whose buffers fell short
    # of the vacancies put the run outside the formula's premise
    models = ExperimentConfig(refill_rate=1.0)
    mean, se, short, n_images = measure(models, 32, 1_000, 100)
    assert steady_complete_fraction(models) - 0.3 - mean > 4 * se, (mean, se)
    assert short > se * n_images, short
