"""Committed benchmark records (BENCH_*.json at the repository root) carry
what a speed claim needs: the machine, and per workload and seed the
medians, quartiles and win counts of parent/change pairs, consistent with
the per-run values they were taken from."""

import glob
import json
import os
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def summary(values):
    """Median and quartiles, the quartiles by the inclusive method."""
    if len(values) == 1:
        return values[0], [values[0], values[0]]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, [q1, q3]


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_bench_record_is_complete_and_consistent(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    machine = record["machine"]
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
    assert machine["python"] and machine["numpy"]
    runs = record["runs"]
    claim = record["claim"]
    claimed = [r for r in runs if r["workload"] == claim["workload"]]
    assert {r["seed"] for r in claimed} >= set(claim["seeds"])
    for run in runs:
        pairs = run["pairs"]
        assert pairs >= 1
        assert "wall_s" in run["metrics"]
        for name, metric in run["metrics"].items():
            assert metric["better"] in ("lower", "higher"), name
            sides = {}
            for side in ("parent", "change"):
                entry = metric[side]
                assert len(entry["values"]) == pairs, (name, side)
                median, iqr = summary(entry["values"])
                assert entry["median"] == pytest.approx(median), (name, side)
                assert entry["iqr"] == pytest.approx(iqr), (name, side)
                if name == "wall_s":
                    assert len(entry["raw_values"]) == pairs
                    assert entry["raw_median"] == pytest.approx(
                        statistics.median(entry["raw_values"])
                    )
                sides[side] = entry["values"]
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
            assert metric["wins"] == wins, name
