"""``fig1-reproduce``: ``run_experiment("fig1")`` through the serial engine.

Figure 1 is the heaviest figure users reproduce: fifteen synthetic
workloads, each generated and fed through the stack-distance profiler,
then fitted.  It uses no HTTP and no store.  The result must match
``tests/goldens/fig1.json`` at the golden tolerances.

Figure 1's input is the experiment's own fixed specification, so the
seed does not change it.  An operation is one shard (one workload's
miss curve): the latencies are per shard, the throughput is simulated
accesses per second.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from .common import fresh_interpreter_seconds, self_peak_rss_mb
from .pace import SEGMENT_S, Pace
from .spans import Tracer, layer_share, self_times
from .stats import Tally, median, percentile, repeat_within

EXPERIMENT = "fig1"
#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUPS = 5
_SETUP_PROGRAM = ("from repro.experiments.runner import "
                  "resolve_experiment_id, experiment_module; "
                  f"experiment_module(resolve_experiment_id({EXPERIMENT!r}))")


def _setup_seconds(work_dir: str, pace: Pace) -> List[float]:
    """Paced seconds from a fresh interpreter until the experiment is
    resolved and imported."""
    times = []
    for _ in range(SETUPS):
        _, _, paced = pace.time(lambda: fresh_interpreter_seconds(
            _SETUP_PROGRAM, (), work_dir))
        times.append(paced)
    return times


def _reproduce(golden: Any, tally: Tally,
               tracer: Optional[Tracer] = None) -> float:
    """One serial-engine reproduction, checked against the golden the
    way ``tests/test_goldens.py`` checks it; returns its wall seconds."""
    from repro.experiments.engine import SweepEngine
    from tests.goldens import regen
    from tests.test_goldens import assert_jsonable_equal

    started = time.perf_counter()
    with (tracer.span("bench.reproduce") if tracer is not None
          else nullcontext()):
        result = SweepEngine(max_workers=1).run(
            [EXPERIMENT]).results[EXPERIMENT]
    wall = time.perf_counter() - started
    try:
        assert_jsonable_equal(
            regen.build_payload(EXPERIMENT, result)["result"],
            golden["result"])
    except AssertionError as error:
        tally.wrong += 1
        print(f"fig1 differs from its golden: {error}", file=sys.stderr)
    else:
        tally.ok += 1
    return wall


def _count_shards_and_accesses(patches: Tracer, pace: Pace,
                               shards: List[Tuple[float, float]],
                               accesses: List[int]) -> None:
    """Per-shard wall and paced seconds, with a probe after each shard
    (and inside it: :func:`probe_inside_profiler`), and an exact access
    count: one call per shard and per stream, nothing per access."""
    from repro.experiments import fig01
    from repro.workloads.stack_distance import StackDistanceProfiler

    run_shard = fig01.run_shard
    record_stream = StackDistanceProfiler.record_stream

    def timed_shard(*args, **kwargs):
        wall_before, paced_before = pace.totals()
        result = run_shard(*args, **kwargs)
        pace.mark()
        wall, paced = pace.totals()
        shards.append((wall - wall_before, paced - paced_before))
        return result

    def counted_stream(self, *args, **kwargs):
        before = self.accesses
        record_stream(self, *args, **kwargs)
        accesses.append(self.accesses - before)

    patches.replace(fig01, "run_shard", timed_shard)
    patches.replace(StackDistanceProfiler, "record_stream", counted_stream)
    probe_inside_profiler(patches, pace)


def probe_inside_profiler(patches: Tracer, pace: Pace) -> None:
    """Probe between the profiler's batches of accesses, once
    :data:`SEGMENT_S` has passed: a shard or a trace chunk is one long
    call, and the host's speed changes within it.

    The batches go through ``StackDistanceProfiler._record_lines``, a
    private method; where a version of the program has none, stretches
    end only between shards and chunks.
    """
    from repro.workloads.stack_distance import StackDistanceProfiler

    record_lines = getattr(StackDistanceProfiler, "_record_lines", None)
    if record_lines is None:
        return

    def paced_record_lines(self, *args, **kwargs):
        result = record_lines(self, *args, **kwargs)
        pace.mark(SEGMENT_S)
        return result

    patches.replace(StackDistanceProfiler, "_record_lines",
                    paced_record_lines)


def install_profiler_spans(tracer: Tracer) -> None:
    """Spans for generating and profiling streams and reading curves.

    The traced ``record_stream`` first drains the stream into a list
    (``workloads.generate``) and then profiles that list
    (``workloads.stack_distance.profile``), so generator and profiler
    time separate.
    """
    from repro.workloads.stack_distance import StackDistanceProfiler

    record_stream = StackDistanceProfiler.record_stream

    def traced_record_stream(self, stream, *args, **kwargs):
        with tracer.span("workloads.generate") as span:
            accesses = list(stream)
            span.attrs["accesses"] = len(accesses)
        with tracer.span("workloads.stack_distance.profile"):
            return record_stream(self, accesses, *args, **kwargs)

    tracer.replace(StackDistanceProfiler, "record_stream",
                   traced_record_stream)
    tracer.patch(StackDistanceProfiler, "miss_curve",
                 "workloads.stack_distance.curve")


def layer_seconds(tracer: Tracer) -> Dict[str, float]:
    """The workloads/analysis/experiments metrics from recorded spans."""
    own = self_times(tracer.spans)

    def total(name: str) -> float:
        return sum(span.duration_ns for span in tracer.named(name)) / 1e9

    return {
        "workloads.generate_s": total("workloads.generate"),
        "workloads.stack_distance.profile_s":
            total("workloads.stack_distance.profile"),
        "workloads.stack_distance.curve_s":
            total("workloads.stack_distance.curve"),
        "analysis.fit_s": total("analysis.fit"),
        "experiments.self_s": sum(
            own[span.span_id] for span in tracer.spans
            if span.name.startswith("experiments.")) / 1e9,
        "workloads.accesses": float(sum(
            span.attrs["accesses"]
            for span in tracer.named("workloads.generate"))),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: str) -> Dict[str, Any]:
    from tests.goldens import regen

    golden = regen.load_golden(EXPERIMENT)
    tally = Tally()
    if trace:
        return _traced(golden, tally)
    pace = Pace()
    setups = _setup_seconds(work_dir, pace)
    shards: List[Tuple[float, float]] = []
    accesses: List[int] = []
    times: List[float] = []
    patches = Tracer()
    _count_shards_and_accesses(patches, pace, shards, accesses)

    def reproduction() -> float:
        """One reproduction, probed after each shard; records its paced
        seconds."""
        wall, _, paced = pace.time(lambda: _reproduce(golden, tally))
        times.append(paced)
        return wall

    try:
        walls = repeat_within(seconds, reproduction)
    finally:
        patches.restore()
    shard_seconds = [paced for _, paced in shards]
    p50, _ = percentile(shard_seconds, 50)
    p99, beyond = percentile(shard_seconds, 99)
    return {
        "tally": tally,
        "metrics": {
            "setup_s": median(setups),
            "wall_s": median(times),
            "throughput_per_s": sum(accesses) / sum(times),
            "latency_p50_ms": p50 * 1e3,
            "latency_p99_ms": p99 * 1e3,
            "peak_rss_mb": self_peak_rss_mb(),
        },
        "detail": {"setups_s": setups, "reproduction_times_s": times,
                   "reproduction_walls_s": walls,
                   "accesses_per_reproduction": sum(accesses) // len(walls),
                   "shard_samples": len(shard_seconds),
                   "shard_times_s": shard_seconds,
                   "p99_samples_beyond": beyond,
                   "probes_s": pace.probes},
    }


def _traced(golden: Any, tally: Tally) -> Dict[str, Any]:
    from repro.experiments import fig01, runner

    untraced_wall = _reproduce(golden, tally)
    tracer = Tracer()
    tracer.patch(runner, "run_experiment", "experiments.run")
    tracer.patch(fig01, "run_shard", "experiments.shard")
    tracer.patch(fig01, "merge_shards", "experiments.merge")
    tracer.patch(fig01, "measure_miss_curve", "analysis.measure_miss_curve")
    tracer.patch(fig01, "fit_miss_curve", "analysis.fit")
    install_profiler_spans(tracer)
    try:
        traced_wall = _reproduce(golden, tally, tracer)
    finally:
        tracer.restore()
    layers = layer_seconds(tracer)
    layers["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    layers["trace.self_time_share"] = layer_share(tracer.spans, traced_wall)
    return {"tally": tally, "metrics": layers, "tracers": [tracer],
            "detail": {"untraced_wall_s": untraced_wall,
                       "traced_wall_s": traced_wall}}
