"""Acceptance suite: eight end-to-end checks of the reference pipeline.

Each test prints one `ACCEPTANCE n (...): PASS/FAIL` line (visible with
``pytest -s`` or in captured output) and asserts the same condition.
"""

import dataclasses
import math
import random
import time
from pathlib import Path

import pytest

from tweezersim.config import ExperimentConfig
from tweezersim.engine import EventLog, run_realization
from tweezersim.harness import calibrate_depletion, run_experiment, write_outputs
from tweezersim.geometry import MaskOccupancy, reference_layout
from tweezersim.planner import plan_target_fill
from tweezersim.stochastic import RngStream, sample_survival

from oracles import exhaustive_assignment

# measured reference values and their acceptance bands
FILL1 = (0.596, 0.015)
DELIVERED = (10.0, 0.5)
SUCC8 = (0.868, 0.05)
SUCC15 = (0.915, 0.05)

LAYOUT = reference_layout()
TARGET_BITS = sum(LAYOUT.site_bits[t] for t in LAYOUT.target_ids)
BUFFER_BITS = sum(LAYOUT.site_bits[b] for b in LAYOUT.buffer_ids)


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num} {name}: {detail}"


def _in_band(value, band):
    center, half = band
    return center - half <= value <= center + half


@pytest.fixture(scope="session")
def full_ensemble():
    """Default 2500-replica ensemble, shared by the statistical criteria."""
    cfg = ExperimentConfig()
    t0 = time.perf_counter()
    stats, _ = run_experiment(cfg)
    return cfg, stats, time.perf_counter() - t0


def test_acceptance_1_buffer_fill_plateau(full_ensemble):
    cfg, stats, seconds = full_ensemble
    fill1 = stats.buffer_fill_mean[0]
    ok = cfg.n_replicas == 2500 and _in_band(fill1, FILL1) and seconds < 10.0
    _report(
        1, "buffer fill plateau", ok,
        f"cycle-1 fill {fill1:.4f} vs {FILL1[0]} +- {FILL1[1]}, "
        f"{cfg.n_replicas} replicas in {seconds:.2f}s (< 10s)",
    )


def test_acceptance_2_calibrated_atom_budget():
    cfg = ExperimentConfig()
    assert cfg.reservoir_mean == 80.0
    fit = calibrate_depletion(cfg, target_delivered=10.0, tolerance=0.5)
    tuned = dataclasses.replace(cfg, mean_ensemble_at_full=fit.mean_ensemble_at_full)
    stats, _ = run_experiment(tuned)
    ok = _in_band(stats.mean_delivered, DELIVERED)
    _report(
        2, "calibrated atom budget", ok,
        f"mean delivered {stats.mean_delivered:.3f} vs {DELIVERED[0]} +- "
        f"{DELIVERED[1]} at ensemble mean {fit.mean_ensemble_at_full:.4f} "
        f"from reservoir mean {cfg.reservoir_mean:.0f}",
    )


def test_acceptance_3_cumulative_success(full_ensemble):
    _, stats, _ = full_ensemble
    s8, s15 = stats.success_rate[7], stats.success_rate[14]
    ok = _in_band(s8, SUCC8) and _in_band(s15, SUCC15)
    _report(
        3, "cumulative success", ok,
        f"cycle 8: {s8:.4f} vs {SUCC8[0]} +- {SUCC8[1]}; "
        f"cycle 15: {s15:.4f} vs {SUCC15[0]} +- {SUCC15[1]}",
    )


def test_acceptance_4_timing(full_ensemble):
    cfg, _, _ = full_ensemble
    models = cfg.build_models()
    records = run_realization(cfg, seed=cfg.master_seed, n_cycles=6)
    gaps = [
        b.clock_at_image - a.clock_at_image
        for a, b in zip(records, records[1:])
    ]
    start = records[0].clock_at_image - models.t_image
    ok = (
        all(abs(g - 0.230) <= 1e-3 for g in gaps)
        and abs(models.cycle_duration - 0.230) <= 1e-3
        and abs(start - 1.86) < 1e-9
        and abs(models.init_duration - 1.86) < 1e-9
    )
    _report(
        4, "timing", ok,
        f"cycle wall-clock {models.cycle_duration * 1e3:.3f} ms (230 +- 1), "
        f"start clock {start:.3f} s (1.86)",
    )


def test_acceptance_5_planner_oracle():
    rng = random.Random(20240817)
    t0 = time.perf_counter()
    n_single = 0
    worst_gap = 0.0
    for i in range(1000):
        n_vac = 1 if i % 5 == 0 else rng.randint(1, 6)
        n_src = rng.randint(1, 7)
        vac_ids = rng.sample(list(LAYOUT.target_ids), n_vac)
        src_ids = rng.sample(list(LAYOUT.buffer_ids), n_src)
        occupied = (set(LAYOUT.target_ids) - set(vac_ids)) | set(src_ids)
        belief = MaskOccupancy(LAYOUT, sum(LAYOUT.site_bits[sid] for sid in occupied))
        heur = sum(m.dist for m in plan_target_fill(belief, LAYOUT))
        _, oracle = exhaustive_assignment(
            [LAYOUT.site(v).pos for v in vac_ids],
            [LAYOUT.site(s).pos for s in src_ids],
        )
        assert heur >= oracle - 1e-9
        if n_vac == 1:
            n_single += 1
            assert heur == pytest.approx(oracle)
        else:
            worst_gap = max(worst_gap, heur - oracle)
    seconds = time.perf_counter() - t0
    ok = seconds < 5.0 and n_single >= 200
    _report(
        5, "planner oracle", ok,
        f"1000 instances, heuristic >= optimal throughout (worst excess "
        f"{worst_gap:.2f} um), equality on {n_single} single-vacancy "
        f"instances, {seconds:.2f}s (< 5s)",
    )


def test_acceptance_6_survival_statistics():
    n = 100_000
    points = [(0.230, 10.0), (0.230, 5.0), (0.130, 10.0), (0.065, 10.0), (1.0, 5.0)]
    rng = RngStream(31415, 0)
    details = []
    ok = True
    for dt, tau in points:
        p = math.exp(-dt / tau)
        alive = sum(sample_survival(rng, dt, tau) for _ in range(n))
        sigma = math.sqrt(p * (1.0 - p) / n)
        pulls = abs(alive / n - p) / sigma
        details.append(f"({dt:g},{tau:g}): {pulls:.2f} sigma")
        ok = ok and pulls <= 3.0
    _report(6, "survival statistics", ok, "; ".join(details))


def _random_soak_config(rng):
    return ExperimentConfig(
        n_replicas=1,
        n_cycles=rng.randint(3, 10),
        lifetime_array_s=rng.uniform(2.0, 30.0),
        lifetime_reservoir_s=rng.uniform(2.0, 10.0),
        p_transport=rng.uniform(0.3, 1.0),
        p_stay_on_failure=rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]),
        p_blockade_plateau=rng.uniform(0.3, 0.7),
        mean_ensemble_at_full=rng.uniform(3.0, 20.0),
        reservoir_mean=rng.uniform(20.0, 120.0),
        refill_rate=rng.choice([0.0, rng.uniform(0.0, 5.0)]),
        fill_strategy=rng.choice(["global", "per-vacancy"]),
        t_image_loss=rng.choice([None, 0.100]),
    )


def test_acceptance_7_invariant_soak(tmp_path_factory):
    rng = random.Random(555)
    # 200 randomized realizations: conservation is checked inside every
    # cycle, masks must agree at each image, each cycle record must read
    # its image row's truth mask, counters must be monotone
    for replica in range(200):
        cfg = _random_soak_config(rng)
        log = EventLog()
        records = run_realization(cfg, seed=rng.randint(0, 2**31), n_cycles=cfg.n_cycles, log=log)
        for row in log.rows:
            assert row[4] >= 0  # reservoir population
            if row[2] == "image":
                assert row[5] == row[6]  # belief equals truth after imaging
            assert bin(row[5]).count("1") <= len(LAYOUT.site_ids)
        images = [row for row in log.rows if row[2] == "image"]
        assert len(images) == len(records)
        for row, record in zip(images, records):
            targets = row[5] & TARGET_BITS
            assert record.target_complete == (targets == TARGET_BITS)
            assert record.n_target_filled == bin(targets).count("1")
            assert record.n_buffer_filled == bin(row[5] & BUFFER_BITS).count("1")
        for a, b in zip(records, records[1:]):
            assert b.extracted_cum >= a.extracted_cum
            assert b.delivered_cum >= a.delivered_cum
    # fixed-config 200-replica ensemble: monotone success curve and
    # byte-identical outputs on a full re-run
    cfg = ExperimentConfig(n_replicas=200, n_cycles=8, master_seed=777)
    out1 = tmp_path_factory.mktemp("soak_a")
    out2 = tmp_path_factory.mktemp("soak_b")
    stats1, log1 = run_experiment(cfg, log=EventLog())
    stats2, log2 = run_experiment(cfg, log=EventLog())
    p1 = write_outputs(stats1, log1, str(out1), cfg)
    p2 = write_outputs(stats2, log2, str(out2), cfg)
    monotone = all(
        b >= a for a, b in zip(stats1.success_rate, stats1.success_rate[1:])
    )
    identical = all(
        Path(p1[k]).read_bytes() == Path(p2[k]).read_bytes()
        for k in ("fig4", "events", "run_meta")
    )
    ok = monotone and identical
    _report(
        7, "invariant soak", ok,
        "200 randomized realizations conserved atoms and synced belief at "
        f"images; success curve monotone: {monotone}; CSV byte-identical "
        f"on re-run: {identical}",
    )


def test_acceptance_8_degenerate_trace():
    cfg = ExperimentConfig(
        p_transport=1.0,
        p_blockade_plateau=1.0,
        mean_ensemble_at_full=40.0,
        reservoir_mean=50_000.0,
        lifetime_array_s=math.inf,
        lifetime_reservoir_s=math.inf,
    )
    hits = 0
    for replica in range(100):
        records = run_realization(cfg, seed=97, n_cycles=4, replica=replica)
        flags = [r.target_complete for r in records]
        if flags == [False, False, True, True]:
            hits += 1
    ok = hits == 100
    _report(
        8, "degenerate-limit trace", ok,
        f"completion first observed at cycle 3's imaging in {hits}/100 replicas",
    )
