"""Command-line interface: flags, outputs, and error reporting."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import tweezersim
from tweezersim import cli
from tweezersim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_prints_table(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--replicas", "40", "--cycles", "3", "--seed", "7"
    )
    assert code == 0 and err == ""
    assert "40 replicas x 3 cycles, seed 7" in out
    assert "mean atoms delivered per realization" in out
    # one table row per cycle, numbered from 1 (rows are right-aligned)
    rows = [
        l for l in out.splitlines()
        if l.startswith(" ") and l.lstrip()[0].isdigit()
    ]
    assert len(rows) == 3
    assert rows[0].split()[0] == "1"


def test_simulate_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "res"
    code, out, _ = run_cli(
        capsys, "simulate", "--replicas", "25", "--cycles", "2",
        "--out", str(out_dir),
    )
    assert code == 0
    for name in ("fig4.csv", "events.csv", "run_meta.json"):
        assert (out_dir / name).exists()
        assert name in out
    meta = json.loads((out_dir / "run_meta.json").read_text())
    assert meta["config"]["run"]["n_replicas"] == 25


def test_run_meta_is_strict_json_with_infinite_lifetimes(tmp_path, capsys):
    # inf turns a loss channel off; strict JSON has no Infinity token
    ini = tmp_path / "lossless.ini"
    ini.write_text(
        "[run]\nn_replicas = 3\nn_cycles = 2\n"
        "[stochastic]\nlifetime_array_s = inf\nlifetime_reservoir_s = inf\n"
    )
    code, _, _ = run_cli(capsys, "simulate", "--config", str(ini), "--out", str(tmp_path))

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    assert code == 0
    with open(tmp_path / "run_meta.json", encoding="utf-8") as fh:
        stochastic = json.load(fh, parse_constant=refuse)["config"]["stochastic"]
    assert stochastic["lifetime_array_s"] == stochastic["lifetime_reservoir_s"] == "inf"


def test_unusable_out_exits_2_before_any_replica(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: ran.append(a))
    code, out, err = run_cli(
        capsys, "simulate", "--replicas", "40", "--cycles", "3", "--out", str(taken)
    )
    assert code == 2
    assert err.startswith("error:") and str(taken) in err
    assert out == "" and ran == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_event_write_names_the_file(tmp_path, capsys):
    # enough rows that events.csv is written while the ensemble runs
    out_dir = tmp_path / "res"
    out_dir.mkdir()
    (out_dir / "events.csv").symlink_to("/dev/full")
    code, out, err = run_cli(
        capsys, "simulate", "--replicas", "400", "--cycles", "3", "--out", str(out_dir)
    )
    assert code == 2
    assert err == (
        f"error: writing {out_dir / 'events.csv'} failed: No space left on device\n"
    )


def traced_peak_of_simulate(out_dir, n_replicas) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", "--replicas", str(n_replicas), "--out", str(out_dir)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_simulate_out_memory_is_flat_in_the_ensemble_size(tmp_path):
    # events.csv is streamed, so 4x the replicas adds only the statistics
    # arrays, the plan memo and the writer's value memos: 0.7 MiB measured,
    # where a log held whole until the end adds 5.9 MiB
    traced_peak_of_simulate(tmp_path / "warm", 5)  # one-time allocations first
    small = traced_peak_of_simulate(tmp_path / "small", 150)
    large = traced_peak_of_simulate(tmp_path / "large", 600)
    assert large - small < 1 << 20


def test_simulate_accepts_mode_flags(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--replicas", "20", "--cycles", "2",
        "--success-def", "maintained", "--p-stay-on-failure", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    config = json.loads((tmp_path / "run_meta.json").read_text())["config"]
    assert config["run"]["success_definition"] == "maintained"
    assert config["stochastic"]["p_stay_on_failure"] == 1.0
    assert "transport_failure" not in config["engine"]


def test_simulate_reads_config_file(tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[run]\nn_replicas = 15\nn_cycles = 2\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(ini))
    assert code == 0
    assert "15 replicas x 2 cycles" in out


def test_cli_overrides_beat_config(tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[run]\nn_replicas = 15\nn_cycles = 2\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(ini), "--replicas", "5"
    )
    assert code == 0
    assert "5 replicas x 2 cycles" in out


def test_calibrate_reports_fit(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--target-delivered", "10",
        "--tolerance", "2.0", "--replicas", "60",
    )
    assert code == 0
    assert "mean_ensemble_at_full = " in out
    assert "evaluations" in out


def test_calibrate_reaches_a_plateau_the_bracket_end_cannot(tmp_path, capsys):
    # at plateau 0.7 no ensemble mean below 1.24 reaches the plateau, so
    # the search starts there, not at the bracket's lower end 1.0
    ini = tmp_path / "plateau.ini"
    ini.write_text("[stochastic]\np_blockade_plateau = 0.7\n")
    code, out, err = run_cli(
        capsys, "calibrate", "--config", str(ini), "--tolerance", "1.0", "--replicas", "40",
    )
    assert code == 0 and err == ""
    mean = float(out.split("mean_ensemble_at_full = ")[1].split()[0])
    assert 1.24 < mean <= 40.0


def test_bad_config_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nn_replicas = -3\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(ini))
    assert code == 2
    assert err.startswith("error:")
    assert "n_replicas" in err


INLINE_LAYOUT = """[layout]
sites =
    0 0.0 0.0 buffer
    1 20.0 0.0 target
reservoir = -50.0 0.0
base_pitch = 20.0
effective_pitch = 20.0
"""


@pytest.mark.parametrize(
    "body,key",
    [
        ("[timing]\nt_mot = nan\n", "timing.t_mot"),
        ("[timing]\nt_ramp = nan\n", "timing.t_ramp"),
        ("[stochastic]\nrefill_rate = nan\n", "stochastic.refill_rate"),
        (INLINE_LAYOUT + "scan_range = nan\n", "layout.scan_range"),
    ],
    ids=["t_mot", "t_ramp", "refill_rate", "scan_range"],
)
def test_nan_config_value_exits_2(tmp_path, capsys, body, key):
    assert_config_exits_2(tmp_path, capsys, body, key)


@pytest.mark.parametrize(
    "body,key",
    [
        ("[stochastic]\nrefill_rate = inf\n", "stochastic.refill_rate"),
        ("[stochastic]\nreservoir_mean = inf\n", "stochastic.reservoir_mean"),
        ("[timing]\nt_image = inf\n", "timing.t_image"),
        # an infinite scan range would run and write Infinity into run_meta.json
        (INLINE_LAYOUT + "scan_range = inf\n", "layout.scan_range"),
        (INLINE_LAYOUT.replace("base_pitch = 20.0", "base_pitch = inf")
         + "scan_range = 250.0\n", "layout.base_pitch"),
        (INLINE_LAYOUT.replace("effective_pitch = 20.0", "effective_pitch = -inf")
         + "scan_range = 250.0\n", "layout.effective_pitch"),
    ],
    ids=["refill_rate", "reservoir_mean", "t_image", "scan_range", "base_pitch",
         "effective_pitch"],
)
def test_infinite_config_value_exits_2(tmp_path, capsys, body, key):
    # inf passes a NaN-only check; each must be refused, key named, before
    # any replica runs
    assert_config_exits_2(tmp_path, capsys, body, key)


@pytest.mark.parametrize(
    "body,key",
    [
        (INLINE_LAYOUT.replace("-50.0 0.0", "abc 0.0") + "scan_range = 250.0\n",
         "layout.reservoir"),
        (INLINE_LAYOUT.replace("-50.0 0.0", "nan 0.0") + "scan_range = 250.0\n",
         "layout.reservoir"),
        (INLINE_LAYOUT.replace("1 20.0 0.0", "1 nan 0.0") + "scan_range = 250.0\n",
         "layout.sites line 2"),
        (INLINE_LAYOUT.replace("1 20.0 0.0", "1 10.0 0.0") + "scan_range = 250.0\n",
         "layout.sites must lie at least the effective pitch"),
        (INLINE_LAYOUT.replace("target", "middle") + "scan_range = 250.0\n",
         "layout.sites line 2 must have role"),
        # 1e300 atoms/s would outgrow numpy's 64-bit reservoir count mid-run
        ("[stochastic]\nrefill_rate = 1e300\n", "stochastic.refill_rate"),
        # 1 - exp(-1e-17) rounds to 0, which the plateau would be divided by
        ("[stochastic]\nmean_ensemble_at_full = 1e-17\n", "stochastic.mean_ensemble_at_full"),
    ],
    ids=["reservoir-text", "reservoir-nan", "site-nan", "spacing", "role", "refill_supply",
         "tiny-ensemble-mean"],
)
def test_unusable_config_value_exits_2(tmp_path, capsys, body, key):
    assert_config_exits_2(tmp_path, capsys, body, key)


def assert_config_exits_2(tmp_path, capsys, body, key):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nn_replicas = 3\nn_cycles = 2\n" + body)
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(ini), "--out", str(tmp_path / "res")
    )
    assert code == 2
    assert err.startswith("error:")
    assert key in err
    assert not (tmp_path / "res").exists()


def test_fill_window_shorter_than_longest_plan_exits_2(tmp_path, capsys):
    # the reference plan takes 6 moves of 570 us, 3.42 ms in all
    ini = tmp_path / "slow.ini"
    ini.write_text("[run]\nn_replicas = 3\nn_cycles = 2\n[timing]\nt_analysis_fill = 0.003\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(ini))
    assert code == 2
    assert err.startswith("error:")
    assert "timing.t_analysis_fill" in err
    assert out == ""


def test_simulating_never_imports_scipy():
    # scipy is a test dependency only: a fresh interpreter in which scipy
    # cannot be imported loads the CLI, runs an ensemble and a small
    # calibration (5 evaluations of 20 replicas), and pulls in no scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(tweezersim.__file__)))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import tweezersim.cli\n"
        "from tweezersim import ExperimentConfig, run_experiment\n"
        "from tweezersim.harness import calibrate_depletion\n"
        "run_experiment(ExperimentConfig(n_replicas=2, n_cycles=3))\n"
        "fit = calibrate_depletion(\n"
        "    ExperimentConfig(n_cycles=3), target_delivered=6.0, tolerance=0.3, n_replicas=20\n"
        ")\n"
        "assert fit.evaluations > 2, fit\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("role", ["buffer", "target"])
def test_layout_without_a_role_exits_2(tmp_path, capsys, role):
    # every site of one role: no buffer to fill targets from, or no target
    ini = tmp_path / "one_role.ini"
    ini.write_text(
        "[run]\nn_replicas = 3\nn_cycles = 2\n"
        + INLINE_LAYOUT.replace("buffer", role).replace("target", role)
        + "scan_range = 250.0\n"
    )
    code, out, err = run_cli(capsys, "simulate", "--config", str(ini))
    assert code == 2
    missing = "target" if role == "buffer" else "buffer"
    assert err == f"error: layout.sites must contain at least one {missing} site\n"
    assert out == ""


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", "/no/such/file.ini")
    assert code == 2
    assert err.startswith("error:")


def test_negative_seed_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--replicas", "5", "--seed", "-1")
    assert code == 2
    assert err.startswith("error:")
    assert "run.master_seed" in err


@pytest.mark.parametrize(
    "flag,value,key",
    [
        ("--replicas", "0", "n_replicas"),
        ("--tolerance", "-1", "tolerance"),
        ("--tolerance", "nan", "tolerance"),
        ("--target-delivered", "nan", "target_delivered"),
    ],
)
def test_bad_calibrate_argument_exits_2(capsys, flag, value, key):
    code, _, err = run_cli(capsys, "calibrate", flag, value)
    assert code == 2
    assert err.startswith("error:")
    assert key in err


def test_unbracketed_calibration_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "calibrate", "--target-delivered", "0",
        "--tolerance", "0.1", "--replicas", "40",
    )
    assert code == 2
    assert "not bracketed" in err


def test_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["transmogrify"])
