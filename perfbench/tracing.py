"""Outside-in tracing of tweezersim's layers, for the traced benchmark run.

Nothing under ``src/`` is changed. Each span wraps a public function of a
layer by rebinding its name where the caller looks it up at call time: the
engine imported ``plan_target_fill`` and the stochastic draws by name, the
harness imported ``run_realization`` and the CLI imported the harness and
config entry points, so those modules' attributes are the ones rebound.
Patching ``tweezersim.planner.plan_target_fill`` alone would miss every call.
Methods and properties are rebound on their class. :func:`instrumented`
restores every original attribute when it exits.

Spans are aggregated in memory by name (calls, total and self seconds)
rather than kept one by one, because a traced ensemble makes millions of
calls. A span's self time is its duration minus the time of the spans
that ran inside it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "targets", "instrumented", "layer_metrics", "PER_LAYER"]


class Tracer:
    """Aggregated spans and counts of one traced workload execution."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.tally: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        # Child time accumulated by each open span; the bottom entry
        # collects time spent in top-level spans.
        self._children = [0.0]

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` in a timed span; ``observe(tracer, args, kwargs,
        result)`` runs after a successful call, outside the span."""
        clock, children = self.clock, self._children
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - inner
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        """Wrap ``fn`` to count its calls only; its time stays with the
        calling span."""
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted


def _observe_fill(tracer, args, kwargs, result):
    belief = args[0]
    tracer.distinct["fill_inputs"].add(
        (tuple(belief.items()), kwargs.get("strategy", "global"))
    )


def _observe_extraction(tracer, args, kwargs, result):
    tracer.tally["extraction_delivered"] += bool(result[1])


def _observe_write(tracer, args, kwargs, result):
    log = args[1] if len(args) > 1 else kwargs.get("log")
    tracer.tally["event_rows"] += len(log) if log is not None else 0
    tracer.tally["write_bytes"] += sum(os.path.getsize(p) for p in result.values())


_DRAW_KINDS = ("random", "bernoulli", "poisson", "binomial")


def targets(tracer: Tracer):
    """``(owner, attribute, make_wrapper)`` for every patched name."""
    from tweezersim import cli, config, engine, geometry, harness, stochastic

    def span(name, observe=None):
        return lambda fn: tracer.span(name, fn, observe)

    def count(name):
        return lambda fn: tracer.counter(name, fn)

    layout = geometry.ArrayLayout
    return [
        (layout, "site_ids", span("geometry.id_lists")),
        (layout, "buffer_ids", span("geometry.id_lists")),
        (layout, "target_ids", span("geometry.id_lists")),
        (layout, "site_distance", count("geometry.site_distance")),
        (engine, "plan_target_fill", span("planner.plan_target_fill", _observe_fill)),
        (engine, "plan_buffer_refill", span("planner.plan_buffer_refill")),
        (engine, "sample_survival", span("stochastic.sample_survival")),
        (engine, "sample_extraction", span("stochastic.sample_extraction", _observe_extraction)),
        (engine, "reservoir_decay", span("stochastic.reservoir_decay")),
        (engine, "sample_transport", count("stochastic.sample_transport")),
        *(
            (stochastic.RngStream, kind, count(f"stochastic.rng_draws.{kind}"))
            for kind in _DRAW_KINDS
        ),
        (harness, "run_realization", span("engine.run_realization")),
        (engine, "run_cycle", span("engine.run_cycle")),
        (engine, "step_image", span("engine.step_image")),
        (engine, "step_fill_targets", span("engine.step_fill_targets")),
        (engine, "step_refill_buffers", span("engine.step_refill_buffers")),
        (engine, "check_conservation", span("engine.check_conservation")),
        (engine.EventLog, "add", span("engine.EventLog.add")),
        (harness, "run_experiment", span("harness.run_experiment")),
        (cli, "run_experiment", span("harness.run_experiment")),
        (harness, "_mean_delivered", span("harness.calibrate")),
        (cli, "write_outputs", span("harness.write_outputs", _observe_write)),
        (cli, "load_config", span("config.load_config")),
        (config.ExperimentConfig, "build_models", span("config.build_models")),
        (cli, "main", span("cli.main")),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind every target name to its traced wrapper for the duration of
    the block, then restore the originals, also when the block raises."""
    saved = []
    try:
        for owner, attr, wrap in targets(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, property):
                setattr(owner, attr, property(wrap(original.fget)))
            else:
                setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "geometry.id_lists.calls": "count",
    "geometry.id_lists.self_s": "s",
    "geometry.site_distance.calls": "count",
    "planner.plan_target_fill.calls": "count",
    "planner.plan_target_fill.self_s": "s",
    "planner.plan_buffer_refill.calls": "count",
    "planner.plan_buffer_refill.self_s": "s",
    "planner.fill_distinct_inputs": "count",
    "planner.fill_repeat_ratio": "ratio",
    "stochastic.sample_survival.calls": "count",
    "stochastic.sample_survival.self_s": "s",
    "stochastic.sample_extraction.calls": "count",
    "stochastic.sample_extraction.self_s": "s",
    "stochastic.reservoir_decay.calls": "count",
    "stochastic.reservoir_decay.self_s": "s",
    "stochastic.sample_transport.calls": "count",
    "stochastic.rng_draws": "count",
    "stochastic.rng_draws.random": "count",
    "stochastic.rng_draws.bernoulli": "count",
    "stochastic.rng_draws.poisson": "count",
    "stochastic.rng_draws.binomial": "count",
    "stochastic.extraction_yield": "ratio",
    "engine.run_realization.self_s": "s",
    "engine.run_cycle.self_s": "s",
    "engine.step_image.self_s": "s",
    "engine.step_fill_targets.self_s": "s",
    "engine.step_refill_buffers.self_s": "s",
    "engine.check_conservation.self_s": "s",
    "engine.EventLog.add.calls": "count",
    "engine.EventLog.add.self_s": "s",
    "engine.event_rows": "count",
    "harness.run_experiment.self_s": "s",
    "harness.calibrate.evaluations": "count",
    "harness.calibrate.self_s": "s",
    "harness.write_outputs.s": "s",
    "harness.write_outputs.bytes": "bytes",
    "config.load_config.s": "s",
    "config.build_models.s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced execution; the ``trace.*`` metrics
    are left to the caller, which timed the execution.

    ``<span>.calls``, ``<span>.self_s`` and ``<span>.s`` (total time) are
    read off the span of that name; the rest are derived below."""
    calls, self_time, total = tracer.calls, tracer.self_time, tracer.total
    by_field = {"calls": calls, "self_s": self_time, "s": total}
    values = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field in by_field:
            values[metric] = by_field[field][span]
    draws = {kind: calls[f"stochastic.rng_draws.{kind}"] for kind in _DRAW_KINDS}
    fill_calls = calls["planner.plan_target_fill"]
    distinct = len(tracer.distinct["fill_inputs"])
    values.update({
        "planner.fill_distinct_inputs": distinct,
        "planner.fill_repeat_ratio": 1.0 - _ratio(distinct, fill_calls),
        "stochastic.rng_draws": sum(draws.values()),
        **{f"stochastic.rng_draws.{kind}": n for kind, n in draws.items()},
        "stochastic.extraction_yield": _ratio(
            tracer.tally["extraction_delivered"], calls["stochastic.sample_extraction"]
        ),
        "engine.event_rows": tracer.tally["event_rows"],
        "harness.calibrate.evaluations": calls["harness.calibrate"],
        "harness.write_outputs.bytes": tracer.tally["write_bytes"],
    })
    return values
