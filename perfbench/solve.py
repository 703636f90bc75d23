"""``solve-keepalive`` and ``solve-prefork``: POST /v1/solve under load.

Both drive a real ``bandwidth-wall serve`` subprocess from this process
with a closed loop of clients, each sending its next request only once
the previous reply is read.  The request stream is seeded and skewed:
scenario popularity follows a Zipf law over :data:`DISTINCT` scenarios,
four times the service's 1024-entry response cache, so hits and the
miss/insert path both run.

* ``solve-keepalive`` — the default single-process server, two
  persistent HTTP/1.1 connections (how a keep-alive client calls it).
* ``solve-prefork`` — ``serve --processes 2`` over the shared sqlite
  tier, one client with a fresh connection per request, so the kernel
  spreads the requests over both children.  The server and the client
  run on one core: across two cores each request and reply waits for
  the other core to be woken, and on a shared host that wait wandered
  with the host's load, which no probe of either core's speed followed.

Before timing, untimed requests fill every server process's response
cache until it has evicted, so the timed requests run against a full
cache; then requests in the timed shape run untimed for
:data:`SETTLE_S`.  Every response body must equal the in-process
encoding of the same scenario, and every server start is an operation
too: one that aborts counts as failed.  The traced pass also replays
the stream through an in-process ``BandwidthWallService.dispatch`` with
spans around each layer, and probes the shared tier directly.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .common import ROOT, child_pids, process_peak_rss_mb, program_env
from .pace import Pace, all_cores
from .spans import Tracer, layer_share
from .stats import (Tally, classify_http, median, pass_percentile, ratio,
                    repeat_within, samples_for_tail)

#: The service's response-cache bound (``ServiceConfig.cache_maxsize``).
CACHE_ENTRIES = 1024
#: Distinct scenarios in a stream: four times the response cache.  An
#: assumption, like the exponent and the grid below: no measured request
#: log of the service exists to take them from.
DISTINCT = 4 * CACHE_ENTRIES
#: Zipf exponent of scenario popularity (assumed; see DISTINCT).
ZIPF_EXPONENT = 1.0
#: Closed-loop clients of the untimed warm-up, one connection each.
WARM_CONNECTIONS = 2
#: Requests per timed pass: enough for ten samples beyond the p99 (1000).
PASS_REQUESTS = samples_for_tail(99)
#: A paced pass probes the host's speed after every this many requests.
SEGMENT_REQUESTS = PASS_REQUESTS // 4
#: Untimed requests are sent in batches of this many, over fresh
#: connections, until every server process's response cache has evicted.
WARM_BATCH = CACHE_ENTRIES // 2
#: Untimed requests after which a cache that has not evicted is an error.
WARM_LIMIT = 16 * CACHE_ENTRIES
#: Seconds of untimed requests in the timed shape after the warm-up: the
#: first seconds after it ran slower (pre-fork p99 up to 2.5x the rest).
SETTLE_S = 4.0
#: Requests per batch of the settling run.
SETTLE_BATCH = 50
#: Server boots per run; ``setup_s`` is their median.
BOOTS = 5
#: Spawns tried per boot before the run gives up.
BOOT_ATTEMPTS = 3
#: Requests replayed in-process by the traced pass after its warm-up.
REPLAY_REQUESTS = 3000
#: Fresh connections tried to reach every server process once.
PROBE_ATTEMPTS = 64
#: Distinct keys written to and read from the tier by the tier probe.
TIER_PROBE_KEYS = 512

_HEADERS = {"Content-Type": "application/json"}
_CEAS = tuple(16.0 + 4.0 * k for k in range(64))
_ALPHAS = (0.25, 0.36, 0.48, 0.5, 0.62, 0.75)
_BUDGETS = (0.5, 1.0, 1.5, 2.0, 4.0)
_TECHNIQUES: Tuple[Tuple[str, ...], ...] = (
    (), ("DRAM=8",), ("CC=2",), ("LC=2",), ("3D",), ("CC=2", "LC=2"),
    ("Fltr=0.4",), ("SmCo=40",),
)


@dataclass(frozen=True)
class Shape:
    processes: int
    keepalive: bool
    #: Closed-loop clients, one connection each; at most ``nproc``.
    connections: int
    #: Whether the server and its clients all run on one core once the
    #: warm-up is done.
    one_core: bool
    #: Whether request times are paced (``pace.py``).  Keep-alive
    #: requests mostly wait on a 40 ms TCP timer (``FINDINGS.md``,
    #: finding 1) that the host's speed does not scale: their times are
    #: wall times.
    paced: bool


SHAPES = {
    "solve-keepalive": Shape(processes=1, keepalive=True, connections=2,
                             one_core=False, paced=False),
    # One client: with two, two clients and two children shared two
    # cores, and the p99 measured the scheduler (spread 0.31 over ten
    # seeds).
    "solve-prefork": Shape(processes=2, keepalive=False, connections=1,
                           one_core=True, paced=True),
}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def scenario_bodies(seed: int) -> List[bytes]:
    """:data:`DISTINCT` request bodies, most popular first."""
    grid = [(ceas, alpha, budget, techniques)
            for ceas in _CEAS for alpha in _ALPHAS for budget in _BUDGETS
            for techniques in _TECHNIQUES]
    chosen = random.Random(f"solve-pool-{seed}").sample(grid, DISTINCT)
    return [json.dumps({"ceas": ceas, "alpha": alpha, "budget": budget,
                        "techniques": list(techniques)}).encode("utf-8")
            for ceas, alpha, budget, techniques in chosen]


class KeyStream:
    """Endless seeded sequence of scenario indices, Zipf-distributed.

    Each ``purpose`` (warm-up, timed, replay) draws from a stream of its
    own, so how many warm-up requests a run needs does not change the
    requests it times.
    """

    def __init__(self, seed: int, purpose: str) -> None:
        self._rng = random.Random(f"solve-stream-{purpose}-{seed}")
        total = 0.0
        self._cumulative = []
        for rank in range(1, DISTINCT + 1):
            total += rank ** -ZIPF_EXPONENT
            self._cumulative.append(total)
        self._population = range(DISTINCT)

    def take(self, count: int) -> List[int]:
        return self._rng.choices(self._population,
                                 cum_weights=self._cumulative, k=count)


def expected_bodies(bodies: Sequence[bytes]) -> List[bytes]:
    """The in-process encoding of each scenario: what the server must send."""
    from repro.analysis.export import dumps_strict
    from repro.core import memo
    from repro.core.scenario import (ScenarioRequest, scenario_payload,
                                     solve_scenario)

    expected = []
    for body in bodies:
        fields = json.loads(body)
        request = ScenarioRequest(
            ceas=float(fields["ceas"]), alpha=float(fields["alpha"]),
            budget=float(fields["budget"]),
            techniques=tuple(fields["techniques"]),
        )
        text = dumps_strict(scenario_payload(solve_scenario(request)),
                            indent=2) + "\n"
        expected.append(text.encode("utf-8"))
    memo.clear_cache()
    return expected


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------

_LISTENING = re.compile(r"listening on http://[^:/]+:(\d+)")
_CACHE_LINE = re.compile(
    r"^service_response_cache_(evictions|size)(?:_total)?\s+(\S+)$",
    re.MULTILINE)


class Server:
    """One ``bandwidth-wall serve`` subprocess at a time."""

    def __init__(self, work_dir: str, processes: int) -> None:
        self.work_dir = work_dir
        self.processes = processes
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self._boots = 0
        self._log = None
        self.boot_failures = 0
        self.stops: List[float] = []

    def boot(self, tally: Tally) -> float:
        """Start a server; seconds from the first spawn until /healthz
        answers 200.

        Each spawn is an operation in ``tally``.  Two pre-forked
        children that open a fresh state directory at once can race on
        sqlite's switch to WAL ("database is locked"), and the group
        then aborts.  Such a spawn counts as failed (and in
        :attr:`boot_failures`) and is retried with a fresh directory, so
        the run still measures; its time stays in the boot's total.
        """
        started = time.perf_counter()
        for _ in range(BOOT_ATTEMPTS):
            if self._start(started):
                tally.ok += 1
                return time.perf_counter() - started
            tally.failed += 1
            self.boot_failures += 1
            self.process.wait()
            self._log.close()
            self.process = None
            with open(self._log.name) as handle:
                tail = handle.read().strip().splitlines()[-2:]
            print("server boot failed, retrying: " + " | ".join(tail),
                  file=sys.stderr)
        raise RuntimeError(f"server failed {BOOT_ATTEMPTS} boots")

    def _start(self, started: float) -> bool:
        """Spawn once; True when healthy, False when the server exited."""
        self._boots += 1
        base = os.path.join(self.work_dir, f"server-{self._boots}")
        os.makedirs(base)
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--state-dir", os.path.join(base, "jobs")]
        if self.processes > 1:
            command += ["--processes", str(self.processes),
                        "--shared-cache-dir", os.path.join(base, "shared")]
        log_path = os.path.join(base, "server.log")
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=program_env(self.work_dir),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = started + 60.0
        self.port = 0
        while not self.port:
            if not self._alive(deadline):
                return False
            with open(log_path) as handle:
                found = _LISTENING.search(handle.read())
            if found:
                self.port = int(found.group(1))
            else:
                time.sleep(0.005)
        while self._alive(deadline):
            try:
                status, _ = http_get(self.port, "/healthz", timeout=1.0)
            except OSError:
                status = None
            if status == 200:
                return True
            time.sleep(0.005)
        return False

    def _alive(self, deadline: float) -> bool:
        if time.perf_counter() > deadline:
            raise RuntimeError(f"server not healthy after 60 s; see "
                               f"{self._log.name}")
        return self.process.poll() is None

    def pids(self) -> List[int]:
        return [self.process.pid] + child_pids(self.process.pid)

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the server's process group."""
        return sum(process_peak_rss_mb(pid) for pid in self.pids())

    def response_caches(self) -> Dict[int, Dict[str, int]]:
        """Response-cache ``evictions`` and ``size`` of every serving
        process, by pid.

        Each probe asks ``/healthz`` (which names the pre-forked child)
        and ``/metrics`` over one connection, so both come from the same
        process; fresh connections are tried until every process has
        answered.
        """
        caches: Dict[int, Dict[str, int]] = {}
        for _ in range(PROBE_ATTEMPTS):
            connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=30)
            try:
                connection.request("GET", "/healthz")
                health = json.loads(connection.getresponse().read())
                connection.request("GET", "/metrics")
                text = connection.getresponse().read().decode("utf-8")
            finally:
                connection.close()
            pid = health.get("scaleout", {}).get("pid", self.process.pid)
            caches[pid] = {name: int(float(value)) for name, value in
                           _CACHE_LINE.findall(text)}
            if len(caches) == self.processes:
                return caches
        raise RuntimeError(f"reached {len(caches)} of {self.processes} "
                           f"server processes in {PROBE_ATTEMPTS} probes")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill whatever lingers."""
        if self.process is None:
            return
        started = time.perf_counter()
        children = child_pids(self.process.pid)
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            for pid in children:
                _kill(pid)
            self.process.kill()
            self.process.wait()
        for pid in children:  # reaped by the supervisor unless it was killed
            _await_exit(pid)
        self._log.close()
        self.process = None
        self.port = 0
        self.stops.append(time.perf_counter() - started)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _await_exit(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return  # a zombie has ended; its reaper owns it now
        except OSError:
            return
        time.sleep(0.01)
    _kill(pid)


def http_get(port: int, path: str, timeout: float = 30.0
             ) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Closed-loop HTTP load
# ----------------------------------------------------------------------


class Load:
    """Closed-loop clients of ``POST /v1/solve``, one connection each."""

    def __init__(self, port: int, bodies: Sequence[bytes],
                 expected: Sequence[bytes], keepalive: bool,
                 connections: int) -> None:
        self.port = port
        self.bodies = bodies
        self.expected = expected
        self.keepalive = keepalive
        self._connections: List[Optional[http.client.HTTPConnection]] = \
            [None] * connections

    def run(self, indices: Sequence[int]
            ) -> Tuple[float, List[float], Tally]:
        """Send every index once; returns wall seconds, latencies, tally."""
        cursor = iter(indices)
        lock = threading.Lock()
        results: List[Any] = [None] * len(self._connections)

        def client(slot: int) -> None:
            latencies: List[float] = []
            tally = Tally()
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    break
                started = time.perf_counter()
                self._send(slot, index, tally)
                latencies.append(time.perf_counter() - started)
            results[slot] = (latencies, tally)

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(len(self._connections))]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        latencies: List[float] = []
        tally = Tally()
        for result in results:
            if result is None:
                raise RuntimeError("a load client thread died")
            latencies += result[0]
            tally = tally.merge(result[1])
        return wall, latencies, tally

    def _send(self, slot: int, index: int, tally: Tally) -> None:
        connection = self._connections[slot]
        if connection is None:
            connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=30)
        try:
            connection.request("POST", "/v1/solve", self.bodies[index],
                               _HEADERS)
            response = connection.getresponse()
            body = response.read()
        except ConnectionRefusedError:
            tally.refused += 1
            body = None
        except (OSError, http.client.HTTPException):
            tally.failed += 1
            body = None
        if body is None or not self.keepalive:
            connection.close()
            connection = None
        self._connections[slot] = connection
        if body is not None:
            classify_http(tally, response.status, body,
                          self.expected[index])

    def close(self) -> None:
        for connection in self._connections:
            if connection is not None:
                connection.close()
        self._connections = [None] * len(self._connections)


def warm_up(server: Server, load: Load, stream: KeyStream
            ) -> Tuple[int, float, Tally, Dict[int, Dict[str, int]]]:
    """Untimed batches until every server process's response cache has
    evicted; returns requests sent, their seconds, tally, cache states."""
    sent, wall, tally = 0, 0.0, Tally()
    while True:
        batch_wall, _, batch = load.run(stream.take(WARM_BATCH))
        sent += WARM_BATCH
        wall += batch_wall
        tally = tally.merge(batch)
        caches = server.response_caches()
        if all(cache["evictions"] > 0 for cache in caches.values()):
            return sent, wall, tally, caches
        if sent >= WARM_LIMIT:
            raise RuntimeError(f"response caches {caches} have not evicted "
                               f"after {sent} requests")


def settle(load: Load, stream: KeyStream) -> Tally:
    """Untimed requests in the timed shape for :data:`SETTLE_S`."""
    tally = Tally()
    started = time.perf_counter()
    while time.perf_counter() - started < SETTLE_S:
        tally = tally.merge(load.run(stream.take(SETTLE_BATCH))[2])
    return tally


def pin(pids: Sequence[int], core: int) -> None:
    """Run every thread of ``pids``, and this thread (and the threads it
    starts), on ``core``."""
    for pid in pids:
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(task), {core})
            except ProcessLookupError:
                pass  # the thread ended
    os.sched_setaffinity(0, {core})


def timed_passes(load: Load, stream: KeyStream, seconds: float,
                 pace: Optional[Pace]
                 ) -> Tuple[List[float], List[List[float]], Tally]:
    """Whole passes of :data:`PASS_REQUESTS` within ``seconds``; there is
    always one.  Returns each pass's seconds and latencies (paced when
    ``pace`` is given, wall otherwise) and the tally."""
    times: List[float] = []
    latencies: List[List[float]] = []
    tallies: List[Tally] = []

    def one_pass() -> float:
        started = time.perf_counter()
        indices = stream.take(PASS_REQUESTS)
        if pace is None:
            pass_time, pass_latencies, pass_tally = load.run(indices)
        else:
            pass_time, pass_latencies, pass_tally = paced_pass(
                load, indices, pace)
        times.append(pass_time)
        latencies.append(pass_latencies)
        tallies.append(pass_tally)
        return time.perf_counter() - started

    repeat_within(seconds, one_pass)
    return times, latencies, functools.reduce(Tally.merge, tallies)


def paced_pass(load: Load, indices: Sequence[int], pace: Pace
               ) -> Tuple[float, List[float], Tally]:
    """One pass in segments of :data:`SEGMENT_REQUESTS` with a probe
    after each; a segment's time and latencies are scaled by the scale
    of the stretch it ends.  Returns paced seconds, paced latencies and
    the tally."""
    paced = 0.0
    latencies: List[float] = []
    tally = Tally()
    pace.begin()
    for first in range(0, len(indices), SEGMENT_REQUESTS):
        wall, segment_latencies, segment_tally = load.run(
            indices[first:first + SEGMENT_REQUESTS])
        scale = pace.mark()
        paced += wall * scale
        latencies += [latency * scale for latency in segment_latencies]
        tally = tally.merge(segment_tally)
    return paced, latencies, tally


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: str) -> Dict[str, Any]:
    shape = SHAPES[workload]
    started = time.perf_counter()
    bodies = scenario_bodies(seed)
    expected = expected_bodies(bodies)
    expected_s = time.perf_counter() - started
    tally = Tally()
    server = Server(work_dir, shape.processes)
    # A booting server and this process share every core.
    pace = Pace(all_cores())

    def boot() -> float:
        """Paced seconds of one boot (a server start is CPU-bound)."""
        _, _, paced = pace.time(lambda: server.boot(tally))
        return paced

    try:
        boots = [boot()]
        if not trace:
            for _ in range(BOOTS - 1):
                server.stop()
                boots.append(boot())
        warm_sent, warm_wall, warm_tally, caches = warm_up(
            server, Load(server.port, bodies, expected, keepalive=False,
                         connections=WARM_CONNECTIONS),
            KeyStream(seed, "warm"))
        if shape.one_core:
            pin(server.pids(), all_cores()[-1])
        # Requests run on the cores this process now may use.
        pass_pace = Pace(all_cores())
        load = Load(server.port, bodies, expected, shape.keepalive,
                    shape.connections)
        try:
            settled = settle(load, KeyStream(seed, "settle"))
            pass_pace.reprobe()
            times, latencies, timed = timed_passes(
                load, KeyStream(seed, "timed"),
                seconds / 2 if trace else seconds,
                # Spans are wall times: so is the traced pass's client p50.
                pass_pace if shape.paced and not trace else None)
        finally:
            load.close()
        tally = tally.merge(warm_tally).merge(settled).merge(timed)
        status, metrics_text = http_get(server.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        pids = server.pids()
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    p50, _ = pass_percentile(latencies, 50)
    p99, p99_beyond = pass_percentile(latencies, 99)
    result: Dict[str, Any] = {
        "tally": tally,
        "server_pids": pids,
        "detail": {
            "boots_s": boots, "boot_failures": server.boot_failures,
            "stops_s": server.stops, "expected_bodies_s": expected_s,
            "pass_times_s": times, "paced": shape.paced,
            "boot_probes_s": pace.probes, "probes_s": pass_pace.probes,
            "latency_samples_per_pass": PASS_REQUESTS,
            "p99_samples_beyond_per_pass": p99_beyond,
            "warm_requests": warm_sent, "warm_wall_s": warm_wall,
            "response_caches_after_warm_up": caches,
            "distinct_scenarios": DISTINCT, "zipf_exponent": ZIPF_EXPONENT,
            "connections": shape.connections,
            "keepalive": shape.keepalive,
            "processes": shape.processes,
        },
    }
    if not trace:
        result["metrics"] = {
            "setup_s": median(boots),
            "wall_s": median(times),
            "throughput_per_s": PASS_REQUESTS / median(times),
            "latency_p50_ms": p50 * 1e3,
            "latency_p99_ms": p99 * 1e3,
            "peak_rss_mb": peak_rss,
        }
        return result
    result["metrics"], result["tracers"], replay = _traced_layers(
        shape, bodies, expected, seed, work_dir, tally, p50 * 1e3,
        metrics_text)
    result["detail"].update(replay)
    return result


def _replay(shape: Shape, bodies: Sequence[bytes],
            expected: Sequence[bytes], warm: Any,
            measured: Sequence[int], state_dir: str, tally: Tally,
            tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Dispatch the stream through a fresh in-process service.

    ``warm`` requests go first, untimed.  When ``warm`` is a
    :class:`KeyStream`, batches from it are sent until the response
    cache has evicted, and the result's ``"warm"`` lists them so the
    next replay can repeat them.
    """
    import repro.service.app as app
    from repro.core import memo

    memo.clear_cache()
    config = app.ServiceConfig(
        job_workers=0, state_dir=os.path.join(state_dir, "jobs"),
        shared_cache_dir=(os.path.join(state_dir, "shared")
                          if shape.processes > 1 else None),
    )
    service = app.BandwidthWallService(config)

    def dispatch_all(indices: Sequence[int]) -> List[Any]:
        return [service.dispatch("POST", "/v1/solve", bodies[index],
                                 _HEADERS) for index in indices]

    try:
        if isinstance(warm, KeyStream):
            warm, stream = [], warm
            while not service.response_cache.stats().evictions:
                if len(warm) >= WARM_LIMIT:
                    raise RuntimeError("in-process response cache has not "
                                       f"evicted after {len(warm)} requests")
                batch = stream.take(WARM_BATCH)
                _classify_all(tally, dispatch_all(batch), batch, expected)
                warm += batch
        else:
            _classify_all(tally, dispatch_all(warm), warm, expected)
        cache_before = service.response_cache.stats()
        memo_before = memo.stats_snapshot()
        if tracer is not None:
            _install_spans(tracer, service, app)
        durations, responses = [], []
        started = time.perf_counter()
        try:
            with (tracer.span("bench.replay") if tracer is not None
                  else nullcontext()):
                for number, index in enumerate(measured):
                    with (tracer.request(number) if tracer is not None
                          else nullcontext()):
                        begun = time.perf_counter()
                        responses.append(service.dispatch(
                            "POST", "/v1/solve", bodies[index], _HEADERS))
                        durations.append(time.perf_counter() - begun)
            wall = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.restore()
        cache_after = service.response_cache.stats()
        memo_after = memo.stats_snapshot()
        _classify_all(tally, responses, measured, expected)
    finally:
        service.shutdown_jobs(deadline=5.0)
    served = ((cache_after.hits - cache_before.hits)
              + (cache_after.coalesced - cache_before.coalesced))
    lookups = cache_after.lookups - cache_before.lookups
    return {
        "warm": warm,
        "wall": wall,
        "dispatch_p50": median(durations),
        "cache_hit_ratio": ratio(served, lookups),
        "memo_hit_ratio": ratio(memo_after.hits - memo_before.hits,
                                memo_after.lookups - memo_before.lookups),
        "cache_at_start": {"evictions": cache_before.evictions,
                           "size": cache_before.size},
    }


def _classify_all(tally: Tally, responses: Sequence[Any],
                  indices: Sequence[int], expected: Sequence[bytes]) -> None:
    for response, index in zip(responses, indices):
        classify_http(tally, response.status, response.body,
                      expected[index])


def _install_spans(tracer: Tracer, service: Any, app: Any) -> None:
    """Spans around the calls into each layer the solve route crosses."""
    from repro.core import memo

    tracer.patch(service, "dispatch", "service.dispatch")
    tracer.patch(service, "_parse_json", "service.parse_json")
    tracer.patch(app, "validate_solve_request", "service.validate")
    tracer.patch(app, "solve_scenario", "core.solve_scenario")
    tracer.patch(app, "scenario_payload", "core.scenario_payload")
    tracer.patch(app, "dumps_strict", "service.encode")
    cache = service.response_cache
    get_or_compute = cache.get_or_compute

    def traced_get_or_compute(key, compute, wait_timeout=None):
        with tracer.span("service.response_cache") as span:
            value, outcome = get_or_compute(
                key, tracer.wrap("service.response_cache.compute", compute),
                wait_timeout)
            span.attrs["outcome"] = outcome
            return value, outcome

    tracer.replace(cache, "get_or_compute", traced_get_or_compute)
    tier = service.shared_tier
    if tier is not None:
        for method in ("get", "put", "put_many", "get_many", "bump",
                       "bump_many"):
            tracer.patch(tier, method, f"scaleout.tier.{method}")
        shared_memo = memo.global_cache()
        for method in ("lookup", "lookup_many", "store", "store_many"):
            tracer.patch(shared_memo, method, f"scaleout.memo.{method}")


def _traced_layers(shape: Shape, bodies: Sequence[bytes],
                   expected: Sequence[bytes], seed: int,
                   work_dir: str, tally: Tally, client_p50_ms: float,
                   metrics_text: bytes
                   ) -> Tuple[Dict[str, float], List[Tracer], Dict[str, Any]]:
    measured = KeyStream(seed, "replay").take(REPLAY_REQUESTS)
    untraced = _replay(shape, bodies, expected,
                       KeyStream(seed, "replay-warm"), measured,
                       os.path.join(work_dir, "replay-untraced"), tally,
                       None)
    tracer = Tracer()
    traced = _replay(shape, bodies, expected, untraced["warm"], measured,
                     os.path.join(work_dir, "replay-traced"), tally, tracer)
    spans = tracer.spans

    def durations_us(name: str, outcome: Optional[str] = None
                     ) -> List[float]:
        return [span.duration_ns / 1e3 for span in spans
                if span.name == name and (
                    outcome is None or span.attrs.get("outcome") == outcome)]

    validate_by_request: Dict[int, float] = {}
    for span in spans:
        if span.name in ("service.parse_json", "service.validate"):
            validate_by_request[span.request_id] = (
                validate_by_request.get(span.request_id, 0.0)
                + span.duration_ns / 1e3)
    compute_ns: Dict[int, int] = {}
    for span in spans:
        if span.name == "service.response_cache.compute":
            compute_ns[span.parent_id] = (compute_ns.get(span.parent_id, 0)
                                          + span.duration_ns)
    miss_overhead = [
        (span.duration_ns - compute_ns.get(span.span_id, 0)) / 1e3
        for span in spans
        if span.name == "service.response_cache"
        and span.attrs.get("outcome") == "miss"
    ]
    layers = {
        # Client p50 over the wire minus the p50 of the same dispatch
        # in-process: what the transport adds.
        "service.transport_ms": (client_p50_ms
                                 - untraced["dispatch_p50"] * 1e3),
        "service.dispatch_us": median(durations_us("service.dispatch")),
        "service.validate_us": median(list(validate_by_request.values())),
        "service.response_cache.hit_us": _median_or_zero(
            durations_us("service.response_cache", "hit")),
        "service.response_cache.miss_overhead_us": _median_or_zero(
            miss_overhead),
        "service.response_cache.hit_ratio": traced["cache_hit_ratio"],
        "service.encode_us": median(durations_us("service.encode")),
        "core.solve_us": _median_or_zero(durations_us("core.solve_scenario")),
        "core.memo.hit_ratio": traced["memo_hit_ratio"],
        "trace.overhead_share": traced["wall"] / untraced["wall"] - 1.0,
        "trace.self_time_share": layer_share(spans, traced["wall"]),
    }
    tracers = [tracer]
    if shape.processes > 1:
        probe = Tracer()
        layers.update(_tier_probe(probe, bodies, expected, measured,
                                  os.path.join(work_dir, "tier-probe")))
        layers.update(_tier_hit_ratios(metrics_text))
        tracers.append(probe)
    replay = {"replay_warm_requests": len(untraced["warm"]),
              "replay_requests": len(measured),
              "replay_cache_at_start": traced["cache_at_start"],
              "replay_walls_s": {"untraced": untraced["wall"],
                                 "traced": traced["wall"]}}
    return layers, tracers, replay


def _median_or_zero(values: Sequence[float]) -> float:
    return median(values) if values else 0.0


def _tier_probe(tracer: Tracer, bodies: Sequence[bytes],
                expected: Sequence[bytes], measured: Sequence[int],
                cache_dir: str) -> Dict[str, float]:
    """Direct ``SharedCacheTier.put``/``get`` on the workload's keys."""
    from repro.scaleout.shared_cache import (DEFAULT_RESPONSE_ENTRIES,
                                             RESPONSE_NAMESPACE,
                                             SharedCacheTier, encode_key)
    from repro.service.validation import validate_solve_request

    keys: List[int] = []
    for index in measured:
        if index not in keys:
            keys.append(index)
        if len(keys) == TIER_PROBE_KEYS:
            break
    tier = SharedCacheTier(cache_dir)
    try:
        put = tracer.wrap("scaleout.tier.put", tier.put)
        get = tracer.wrap("scaleout.tier.get", tier.get)
        encoded = {index: encode_key(("solve", validate_solve_request(
            json.loads(bodies[index])))) for index in keys}
        with tracer.span("bench.tier_probe"):
            for index in keys:
                put(RESPONSE_NAMESPACE, encoded[index],
                    json.loads(expected[index]),
                    max_entries=DEFAULT_RESPONSE_ENTRIES)
            for index in keys:
                if get(RESPONSE_NAMESPACE, encoded[index],
                       ttl=300.0) != json.loads(expected[index]):
                    raise RuntimeError("shared tier returned another value")
    finally:
        tier.close()
    return {
        "scaleout.tier.get_us": median(
            [s.duration_ns / 1e3 for s in tracer.named("scaleout.tier.get")]),
        "scaleout.tier.put_us": median(
            [s.duration_ns / 1e3 for s in tracer.named("scaleout.tier.put")]),
    }


_METRIC_LINE = re.compile(r"^scaleout_shared_cache_total\{([^}]*)\}\s+(\S+)")


def _tier_hit_ratios(metrics_text: bytes) -> Dict[str, float]:
    """Group-wide tier hit ratios from the server's /metrics page."""
    counts: Dict[Tuple[str, str], float] = {}
    for line in metrics_text.decode("utf-8").splitlines():
        found = _METRIC_LINE.match(line)
        if found:
            labels = dict(re.findall(r'(\w+)="([^"]*)"', found.group(1)))
            counts[(labels["namespace"], labels["event"])] = \
                float(found.group(2))
    if not counts:
        raise RuntimeError("/metrics has no scaleout_shared_cache_total")

    def hit_ratio(namespace: str) -> float:
        hits = counts.get((namespace, "hit"), 0.0)
        return ratio(hits, hits + counts.get((namespace, "miss"), 0.0))

    return {"scaleout.tier.response_hit_ratio": hit_ratio("response"),
            "scaleout.tier.memo_hit_ratio": hit_ratio("memo")}
