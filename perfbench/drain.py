"""``jobs-drain``: a backlog of all four job kinds drained by one worker.

Each drain submits the seeded backlog to a fresh ``JobStore`` and runs
one in-process ``Worker.run_forever(once=True)`` until the queue is
empty.  It is the only workload with durable writes (lease, checkpoint
and finish per chunk) beside compute, and it runs every branch of the
per-kind spec and executor dispatch.

The seed picks one of the :data:`VARIANTS` specs of each kind, all of
equal size, and the submission order.  An operation is one job: it must
end SUCCEEDED, with no chunk retried, and with an artifact whose SHA-256
equals the reference in ``perfbench/data/job_digests.json``; those
references come from ``serial_artifact``, the chunkless path
(``make_digests.py``).  A drain's latency is what a user who submits the
backlog waits: from the first submission until every job has ended.
Set-up is a fresh worker process's: imports, a new store, the backlog
submitted.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .common import HERE, fresh_interpreter_seconds, self_peak_rss_mb
from .fig1 import (install_profiler_spans, layer_seconds,
                   probe_inside_profiler)
from .pace import SEGMENT_S, Pace
from .spans import Tracer, layer_share
from .stats import Tally, median, percentile, ratio, repeat_within

DIGESTS = os.path.join(HERE, "data", "job_digests.json")
#: Fresh worker processes timed per run; ``setup_s`` is their median.
SETUPS = 5
#: A fresh interpreter until a worker could start on the backlog:
#: imports, a new store, the backlog submitted, a Worker built.
_SETUP_PROGRAM = """
import json, sys
from repro.jobs.executor import chunk_count
from repro.jobs.spec import JobSpec
from repro.jobs.store import JobStore
from repro.jobs.worker import Worker

store = JobStore(sys.argv[1])
for constructor, params in json.loads(sys.argv[2]):
    spec = getattr(JobSpec, constructor)(**params)
    store.submit(spec, chunks_total=chunk_count(spec))
Worker(store)
"""
#: Interchangeable specs per job kind; the seed picks one of each.
VARIANTS = {"sweep": 4, "optimize": 4, "trace": 4, "experiments": 1}

#: Closed-form experiments: an experiments job of cheap chunks, so its
#: cost is the job machinery's.
_ANALYTIC_EXPERIMENTS = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig15", "fig16", "fig17",
    "table2", "ext-het", "ext-roadmap", "ext-smt", "ext-amdahl",
    "ext-overheads", "ext-wall", "ext-power",
)


def variant_params(kind: str, variant: int) -> Dict[str, Any]:
    """Keyword arguments of the ``JobSpec`` constructor for one variant.

    Variants of a kind change values, never the amount of work: the
    grid is shifted, the design point moved, the trace reseeded.  The
    experiments job has one variant; its ids, order and chunking fix
    its cost, and the seed still moves it in the submission order.
    """
    if kind == "sweep":
        return {"ceas": [16.0 + 4.0 * k + variant for k in range(48)],
                "budgets": [0.5, 1.0, 2.0, 4.0], "alpha": 0.5,
                "techniques": ["DRAM=8"], "chunk_size": 4}
    if kind == "optimize":
        return {"ceas": 64.0 + 8.0 * variant, "budget": 1.0, "alpha": 0.5,
                "strategy": "exhaustive",
                "space": {"line_unused": [0.0, 0.4],
                          "filter_unused": [0.0, 0.4],
                          "core_area_fraction": [1.0, 1.0 / 9.0],
                          "sharing_fraction": [0.0, 0.5]},
                "chunk_size": 256}
    if kind == "trace":
        return {"source": "powerlaw", "units": [0.36, 0.62],
                "accesses": 50_000, "seed": variant}
    if kind == "experiments":
        return {"ids": list(_ANALYTIC_EXPERIMENTS), "chunk_size": 1}
    raise KeyError(kind)


_CONSTRUCTORS = {"sweep": "sweep", "optimize": "optimize",
                 "trace": "trace_job", "experiments": "experiments"}
KINDS = tuple(_CONSTRUCTORS)


def backlog(seed: int) -> List[Tuple[str, str, Dict[str, Any]]]:
    """``(name, kind, params)`` per job, in the seed's submission order."""
    rng = random.Random(f"jobs-backlog-{seed}")
    jobs = []
    for kind in KINDS:
        variant = rng.randrange(VARIANTS[kind])
        jobs.append((f"{kind}-{variant}", kind,
                     variant_params(kind, variant)))
    rng.shuffle(jobs)
    return jobs


def build_spec(kind: str, params: Dict[str, Any]) -> Any:
    from repro.jobs.spec import JobSpec

    return getattr(JobSpec, _CONSTRUCTORS[kind])(**params)


def _setup_seconds(jobs: List[Tuple[str, str, Dict[str, Any]]],
                   work_dir: str, pace: Pace) -> List[float]:
    """Paced seconds of each fresh worker set-up."""
    backlog = json.dumps([[_CONSTRUCTORS[kind], params]
                          for _, kind, params in jobs])
    times = []
    for index in range(SETUPS):
        state_dir = os.path.join(work_dir, f"setup-{index}")
        _, _, paced = pace.time(lambda: fresh_interpreter_seconds(
            _SETUP_PROGRAM, (state_dir, backlog), work_dir))
        times.append(paced)
        shutil.rmtree(state_dir)
    return times


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _drain(jobs: List[Tuple[str, str, Dict[str, Any]]], state_dir: str,
           digests: Dict[str, str], tally: Tally,
           tracer: Any = None, pace: Optional[Pace] = None
           ) -> Dict[str, Any]:
    """Submit the backlog to a fresh store and drain it once; with
    ``pace``, probe between chunks."""
    from repro.core import memo
    from repro.jobs import executor
    from repro.jobs.store import SUCCEEDED, JobStore
    from repro.jobs.worker import Worker

    memo.clear_cache()  # every drain computes its backlog afresh
    begun = time.perf_counter()
    store = JobStore(state_dir)
    submitted = []
    for name, kind, params in jobs:
        spec = build_spec(kind, params)
        record = store.submit(spec, chunks_total=executor.chunk_count(spec))
        submitted.append((name, record.id))
    submit = time.perf_counter() - begun
    chunks: List[float] = []
    execute_chunk = executor.execute_chunk
    if tracer is not None:
        for method in ("lease", "checkpoint", "finish", "get",
                       "checkpoints", "renew_lease", "release"):
            tracer.patch(store, method, f"jobs.store.{method}")

        def execute_chunk(spec, index):
            with tracer.span(f"jobs.chunk.{spec.kind}"):
                return executor.execute_chunk(spec, index)

    def on_chunk(seconds: float) -> None:
        chunks.append(seconds)
        if pace is not None:
            pace.mark(SEGMENT_S)

    worker = Worker(store, worker_id="perfbench", poll_interval=0.01,
                    execute_chunk=execute_chunk, on_chunk=on_chunk)
    probing = pace.probing if pace is not None else 0.0
    started = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span("bench.drain"):
                worker.run_forever(threading.Event(), once=True)
        else:
            worker.run_forever(threading.Event(), once=True)
        ended = time.perf_counter()
        if pace is not None:  # the probes between chunks are not the drain's
            probing = pace.probing - probing
            started += probing
            begun += probing
    finally:
        if tracer is not None:
            tracer.restore()
    for name, job_id in submitted:
        record = store.get(job_id)
        # A retried chunk is a failure even when the retry succeeded.
        if (record is None or record.status != SUCCEEDED
                or record.failures):
            tally.failed += 1
        elif digest(record.result_text) != digests[name]:
            tally.wrong += 1
        else:
            tally.ok += 1
    retries = store.retries_total()
    store.close()
    shutil.rmtree(state_dir)
    return {"submit": submit, "wall": ended - started,
            "latency": ended - begun, "chunks": len(chunks),
            "retries": retries}


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: str) -> Dict[str, Any]:
    with open(DIGESTS) as handle:
        digests = json.load(handle)
    jobs = backlog(seed)
    tally = Tally()
    if trace:
        return _traced(jobs, digests, tally, work_dir)
    pace = Pace()
    setups = _setup_seconds(jobs, work_dir, pace)
    # The first drain in a process also pays one-off imports and lazy
    # set-up (``setup_s`` covers a fresh process); time warm drains.
    _drain(jobs, os.path.join(work_dir, "drain-warm"), digests, tally)
    pace.reprobe()
    drains: List[Dict[str, Any]] = []

    def one_drain() -> float:
        drain, wall, paced = pace.time(lambda: _drain(
            jobs, os.path.join(work_dir, f"drain-{len(drains)}"), digests,
            tally, pace=pace))
        # Probes inside the drain are out of its own times; scale those
        # as the whole drain was scaled.
        drain["scale"] = paced / wall
        drains.append(drain)
        return wall

    patches = Tracer()
    probe_inside_profiler(patches, pace)
    try:
        repeat_within(seconds, one_drain)
    finally:
        patches.restore()
    walls = [drain["wall"] * drain["scale"] for drain in drains]
    chunks = sum(drain["chunks"] for drain in drains)
    latencies = [drain["latency"] * drain["scale"] for drain in drains]
    p50, _ = percentile(latencies, 50)
    p99, beyond = percentile(latencies, 99)
    return {
        "tally": tally,
        "metrics": {
            "setup_s": median(setups),
            # Drain times wander with the shared host's speed from one
            # drain to the next; their mean held steadier than their median.
            "wall_s": sum(walls) / len(walls),
            "throughput_per_s": chunks / sum(walls),
            "latency_p50_ms": p50 * 1e3,
            "latency_p99_ms": p99 * 1e3,
            "peak_rss_mb": self_peak_rss_mb(),
        },
        "detail": {"jobs": [name for name, _, _ in jobs], "setups_s": setups,
                   "submit_s": median([drain["submit"] for drain in drains]),
                   "drains": len(drains), "drain_times_s": walls,
                   "probes_s": pace.probes,
                   "chunks_per_drain": chunks // len(drains),
                   "latency_samples": len(latencies),
                   "p99_samples_beyond": beyond,
                   "retries": sum(drain["retries"] for drain in drains)},
    }


def _traced(jobs: List[Tuple[str, str, Dict[str, Any]]],
            digests: Dict[str, str], tally: Tally, work_dir: str
            ) -> Dict[str, Any]:
    from repro.analysis import fitting
    from repro.experiments import runner
    from repro.jobs import executor
    from repro.optimize import search
    from repro.traces import pipeline

    # The first drain in a process also pays one-off imports and lazy
    # set-up; compare the traced drain with a second, warm one.
    _drain(jobs, os.path.join(work_dir, "drain-warm"), digests, tally)
    untraced = _drain(jobs, os.path.join(work_dir, "drain-untraced"),
                      digests, tally)
    tracer = Tracer()
    tracer.patch(executor, "assemble_artifact", "jobs.assemble")
    tracer.patch(executor, "encode_artifact", "jobs.encode")
    tracer.patch(search, "execute_optimize_chunk", "optimize.chunk",
                 annotate=lambda span, args, result: span.attrs.update(
                     evaluated=result["evaluated"]))
    tracer.patch(pipeline, "simulate_trace", "traces.simulate")
    tracer.patch(pipeline, "fit_yavits", "traces.fit")
    tracer.patch(fitting, "fit_miss_curve", "analysis.fit")
    tracer.patch(runner, "run_experiment", "experiments.run")
    install_profiler_spans(tracer)
    traced = _drain(jobs, os.path.join(work_dir, "drain-traced"), digests,
                    tally, tracer)
    spans = tracer.spans

    def durations(name: str) -> List[float]:
        return [span.duration_ns / 1e9 for span in tracer.named(name)]

    def median_ms(name: str) -> float:
        return median(durations(name)) * 1e3

    store_seconds = sum(span.duration_ns for span in spans
                        if span.name.startswith("jobs.store.")) / 1e9
    assemble = [a + e for a, e in zip(durations("jobs.assemble"),
                                      durations("jobs.encode"))]
    optimize_seconds = sum(durations("optimize.chunk"))
    layers = layer_seconds(tracer)
    layers.update({
        "jobs.store.lease_ms": median_ms("jobs.store.lease"),
        "jobs.store.checkpoint_ms": median_ms("jobs.store.checkpoint"),
        "jobs.store.finish_ms": median_ms("jobs.store.finish"),
        "jobs.store.share": store_seconds / traced["wall"],
        "jobs.assemble_ms": median(assemble) * 1e3,
        "jobs.chunks": float(sum(
            1 for span in spans if span.name.startswith("jobs.chunk."))),
        "jobs.retries": float(untraced["retries"] + traced["retries"]),
        "optimize.points_per_s": ratio(
            sum(span.attrs["evaluated"]
                for span in tracer.named("optimize.chunk")),
            optimize_seconds),
        "trace.overhead_share": traced["wall"] / untraced["wall"] - 1.0,
        "trace.self_time_share": layer_share(spans, traced["wall"]),
    })
    for kind in KINDS:
        layers[f"jobs.chunk_s.{kind}"] = median(
            durations(f"jobs.chunk.{kind}"))
    return {"tally": tally, "metrics": layers, "tracers": [tracer],
            "detail": {"jobs": [name for name, _, _ in jobs],
                       "untraced_wall_s": untraced["wall"],
                       "traced_wall_s": traced["wall"]}}
