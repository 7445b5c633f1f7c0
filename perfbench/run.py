"""tweezersim benchmark: end-to-end metrics per workload, or a traced run
with per-layer metrics.

    python3 perfbench/run.py                      # all four workloads, each in a fresh process
    python3 perfbench/run.py --trace 1            # the same, traced
    python3 perfbench/run.py --workload calibrate --seed 7 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed or built. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
in this directory for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from speed import at_reference_speed, kernel_seconds
from tracing import PER_LAYER, Tracer, instrumented, layer_metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

DEFAULT_SEED = 42  # the seed the acceptance bands were set at
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median

END_TO_END = {
    "wall_s": "s",
    "replica_cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Measurement:
    """Everything one benchmark run observed of its workload. Untraced
    times are kept as measured and scaled to the reference speed."""

    attempted: int = 0
    failed: int = 0
    setups: list = field(default_factory=list)  # measured set-up seconds
    walls: list = field(default_factory=list)  # measured untraced wall seconds
    scaled_setups: list = field(default_factory=list)
    scaled_walls: list = field(default_factory=list)
    scaled_rates: list = field(default_factory=list)  # replica-cycles per scaled second
    traced_walls: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # per-layer values per traced execution
    peak_rss_mib: float | None = None  # after the first execution
    digest: str | None = None
    artifacts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _execute(workload, config, context, workdir, m: Measurement, tracer=None) -> None:
    """Run, time and check one execution, untraced and bracketed by the
    speed kernel, or traced. A failed one is counted and not timed."""
    m.attempted += 1
    out_dir = tempfile.mkdtemp(dir=workdir)
    try:
        kernel_before = kernel_seconds() if tracer is None else None
        with instrumented(tracer) if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            output = workload.execute(config, context, out_dir)
            wall = time.perf_counter() - start
        kernel_after = kernel_seconds() if tracer is None else None
        outcome = workload.inspect(config, context, output, out_dir)
    except Exception:  # a failing execution is a result, not a crash
        m.failed += 1
        m.problems.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
        return
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems = list(outcome.problems)
    if m.digest is None:
        m.digest, m.artifacts = outcome.digest, outcome.artifacts
    elif outcome.digest != m.digest:
        kind = "repeated" if tracer is None else "traced"
        problems.append(f"{kind} execution's statistics digest differs from the first")
    if problems:
        m.failed += 1
        m.problems.extend(problems)
    elif tracer is None:
        scaled = at_reference_speed(wall, kernel_before, kernel_after)
        m.walls.append(wall)
        m.scaled_walls.append(scaled)
        m.scaled_rates.append(outcome.replica_cycles / scaled)
    else:
        m.traced_walls.append(wall)
        m.layers.append(layer_metrics(tracer))


def measure(
    workload, seed: int, seconds: float, trace: bool, workdir: str, setup_probes: int = 0
) -> Measurement:
    """Set-up probes (untraced runs only), then executions until one more
    would end further from ``seconds`` than the last did, at least one.
    Traced runs pair each untraced execution with a traced one."""
    m = Measurement()
    if not trace:
        for _ in range(setup_probes):
            kernel_before = kernel_seconds()
            setup = probe_setup(workload.name, seed)
            m.setups.append(setup)
            m.scaled_setups.append(at_reference_speed(setup, kernel_before, kernel_seconds()))
    config = workload.config(seed)
    context = workload.prepare(config, workdir)
    start = time.perf_counter()
    rounds = 0
    while True:
        _execute(workload, config, context, workdir, m)
        if m.peak_rss_mib is None:
            m.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            _execute(workload, config, context, workdir, m, Tracer())
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 > seconds:
            return m


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until it is ready for the
    workload's first realization."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def run_seconds() -> float:
    """The measuring time of one run, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def _setup_probe(workload, seed: int) -> int:
    workload.config(seed).build_models()
    # CLOCK_MONOTONIC is shared by all processes on the machine
    print(repr(time.monotonic()))
    return 0


def _git_commit() -> str:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else None


def result_metrics(m: Measurement, trace: bool) -> dict:
    """The metrics of the result line: end-to-end without trace, per-layer
    with it. A metric with no successful sample is left out."""
    if trace:
        # median_low keeps counts whole: each value is one execution's
        values = {
            name: statistics.median_low([layer[name] for layer in m.layers])
            for name in PER_LAYER if not name.startswith("trace.")
        } if m.layers else {}
        traced, untraced = _median(m.traced_walls), _median(m.walls)
        values["trace.wall_s"] = traced
        values["trace.overhead_s"] = None if None in (traced, untraced) else traced - untraced
        units = PER_LAYER
    else:
        values = {
            "wall_s": _median(m.scaled_walls),
            "replica_cycles_per_s": _median(m.scaled_rates),
            "setup_s": _median(m.scaled_setups),
            "peak_rss_mib": m.peak_rss_mib,
        }
        units = END_TO_END
    return {name: {"value": v, "unit": units[name]} for name, v in values.items() if v is not None}


def _spread(values) -> str:
    if not values:
        return "no successful sample"
    return (f"median {statistics.median(values):.4f} of {len(values)}, "
            f"range {min(values):.4f} .. {max(values):.4f}")


def report(name: str, trace: bool, info: dict, m: Measurement, metrics: dict) -> None:
    print(f"workload {name}, trace {int(trace)}: {m.attempted} executions")
    print("  " + " | ".join(f"{k} {v}" for k, v in info.items()))
    notes = {
        "wall_s": "measured " + _spread(m.walls),
        "setup_s": "measured " + _spread(m.setups),
        "trace.wall_s": _spread(m.traced_walls),
    }
    for metric, entry in metrics.items():
        note = notes.get(metric, "")
        print(f"  {metric:36s} {entry['value']!r:>24} {entry['unit']:6s} {note}")
    print(f"  {'failed_fraction':36s} {m.failed / m.attempted!r:>24} {'ratio':6s} "
          f"{m.failed} of {m.attempted}")
    for problem in m.problems:
        print(f"  FAILED: {problem}")
    print(f"  statistics sha256 {m.digest}")
    for file_name, digest in m.artifacts.items():
        print(f"  {file_name} sha256 {digest}")


def run_one(workload, seed: int, seconds: float, trace: bool) -> int:
    info = machine_info(seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
            m = measure(workload, seed, seconds, trace, workdir, SETUP_PROBES)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    metrics = result_metrics(m, trace)
    report(workload.name, trace, info, m, metrics)
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, one after another."""
    results = {}
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print("summary")
    for name, result in results.items():
        if result is None:
            print(f"  {name}: benchmark process failed")
            continue
        fraction = result["failed"] / result["attempted"]
        shown = ", ".join(
            f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
            if trace is False or k.startswith("trace.")
        )
        print(f"  {name}: {shown}, failed_fraction {fraction:.6g}")
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload only (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (default 42)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tweezersim", "__init__.py")):
        print(f"error: tweezersim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        return _setup_probe(workloads.WORKLOADS[args.workload], args.seed)
    seconds = run_seconds() if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(list(workloads.WORKLOADS), args.seed, seconds, bool(args.trace))
    return run_one(workloads.WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
