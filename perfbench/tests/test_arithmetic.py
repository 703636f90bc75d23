"""The benchmark's own arithmetic: percentiles, self times, error shares,
paced seconds.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from perfbench import pace  # noqa: E402
from perfbench.spans import (Span, Tracer, layer_share,  # noqa: E402
                             self_times, union_length)
from perfbench.stats import (MIN_TAIL, Tally, classify_http,  # noqa: E402
                             pass_percentile, percentile, samples_for_tail)


class TestPercentile:
    def test_p99_of_1000_has_ten_beyond(self):
        value, beyond = percentile([float(i) for i in range(1, 1001)], 99)
        assert value == 990.0
        assert beyond == MIN_TAIL

    def test_p99_of_999_has_fewer_than_ten_beyond(self):
        _, beyond = percentile([float(i) for i in range(999)], 99)
        assert beyond == 9

    def test_samples_for_tail(self):
        assert samples_for_tail(99) == 1000
        assert samples_for_tail(50) == 20
        for q in (50, 90, 99, 99.9):
            n = samples_for_tail(q)
            assert percentile(range(n), q)[1] >= MIN_TAIL
            assert percentile(range(n - 1), q)[1] < MIN_TAIL

    def test_median_and_order_independence(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(values, 50) == (3.0, 2)
        assert percentile(values, 100) == (5.0, 0)

    def test_pass_percentile_is_the_median_pass(self):
        quiet = [float(i) for i in range(1, 1001)]
        slow = [2 * value for value in quiet]
        # One slow pass of three leaves the median pass's p99 alone,
        # where pooling every sample would let it raise the p99.
        assert pass_percentile([quiet, slow, quiet], 99) == (990.0, 10)
        assert percentile(quiet * 2 + slow, 99)[0] > 990.0
        assert pass_percentile([quiet, quiet[:999]], 99)[1] == 9

    def test_single_sample(self):
        assert percentile([7.0], 99) == (7.0, 0)

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


def span(span_id, parent, start, end, name="s"):
    return Span(span_id, parent, name, None, start, end)


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span(1, None, 10, 40)]) == {1: 30}

    def test_nested_children_subtract_and_tree_sums_to_root(self):
        spans = [span(1, None, 0, 100), span(2, 1, 10, 50),
                 span(3, 2, 20, 30), span(4, 1, 60, 70)]
        own = self_times(spans)
        assert own == {1: 50, 2: 30, 3: 10, 4: 10}
        assert sum(own.values()) == 100

    def test_overlapping_children_count_once(self):
        spans = [span(1, None, 0, 100), span(2, 1, 10, 60),
                 span(3, 1, 40, 80)]
        own = self_times(spans)
        assert own[1] == 100 - 70
        assert own[2] == 50 and own[3] == 40

    def test_children_are_clipped_to_their_parent(self):
        spans = [span(1, None, 10, 50), span(2, 1, 0, 20),
                 span(3, 1, 45, 90)]
        assert self_times(spans)[1] == 40 - 10 - 5

    def test_layer_share_leaves_out_bench_roots(self):
        # A 100 ns pass: layer spans cover 10..50 and 60..70, the rest
        # is the benchmark's own root and counts as unaccounted.
        spans = [span(1, None, 0, 100, "bench.pass"),
                 span(2, 1, 10, 50, "layer.a"), span(3, 2, 20, 30, "layer.b"),
                 span(4, 1, 60, 70, "layer.c")]
        assert layer_share(spans, 100e-9) == pytest.approx(0.5)
        spans[0] = span(1, None, 0, 100, "layer.root")
        assert layer_share(spans, 100e-9) == pytest.approx(1.0)

    def test_union_length(self):
        assert union_length([]) == 0
        assert union_length([(0, 10), (5, 15), (20, 25), (25, 30)]) == 25
        assert union_length([(0, 100), (10, 20)]) == 100

    def test_tracer_nests_and_stamps_request_ids(self):
        tracer = Tracer()
        with tracer.request(7):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        inner, outer = tracer.spans
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.request_id == outer.request_id == 7
        own = self_times(tracer.spans)
        assert own[outer.span_id] + own[inner.span_id] \
            == outer.duration_ns

    def test_patch_and_restore(self):
        class Owner:
            def method(self, value):
                return value + 1

        tracer = Tracer()
        instance = Owner()
        tracer.patch(Owner, "method", "owner.method")
        assert instance.method(1) == 2
        tracer.patch(instance, "method", "instance.method")
        assert instance.method(2) == 3
        tracer.restore()
        assert "method" not in vars(instance)
        assert Owner.method.__qualname__.endswith("Owner.method")
        assert [s.name for s in tracer.spans] == [
            "owner.method", "owner.method", "instance.method"]


class TestErrorShare:
    def test_counts_refused_failed_and_wrong(self):
        tally = Tally()
        classify_http(tally, 200, b"ok", b"ok")
        classify_http(tally, 200, b"ok", b"ok")
        classify_http(tally, 200, b"other", b"ok")   # wrong output
        classify_http(tally, 429, b"", b"ok")        # refused
        classify_http(tally, 503, b"", b"ok")        # refused
        classify_http(tally, 500, b"", b"ok")        # failed
        classify_http(tally, 422, b"", b"ok")        # failed
        tally.refused += 1                           # connection refused
        tally.failed += 1                            # transport error
        assert (tally.ok, tally.refused, tally.failed, tally.wrong) \
            == (2, 3, 3, 1)
        assert tally.attempted == 9
        assert tally.errors == 7
        assert tally.error_share == pytest.approx(7 / 9)

    def test_no_attempts_is_no_error_share(self):
        assert Tally().error_share == 0.0

    def test_merge_adds_buckets(self):
        merged = Tally(1, 2, 3, 4).merge(Tally(10, 20, 30, 40))
        assert (merged.ok, merged.refused, merged.failed, merged.wrong) \
            == (11, 22, 33, 44)


class FakeClock:
    """``perf_counter`` that moves only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


class TestPace:
    def test_scale_is_reference_over_mean_probe(self):
        ref = pace.REFERENCE_PROBE_S
        assert pace.scale(ref, ref) == pytest.approx(1.0)
        assert pace.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
        assert pace.scale(ref, 3 * ref) == pytest.approx(0.5)

    def test_stretches_scale_by_their_own_probes(self, monkeypatch):
        # Probes read the reference, then twice it, then the reference
        # again; each probe takes 1 s of wall time, which no operation
        # may count.
        clock = FakeClock()
        readings = iter([1.0, 2.0, 1.0, 1.0])

        def fake_probe(cores):
            clock.now += 1.0
            return next(readings) * pace.REFERENCE_PROBE_S

        monkeypatch.setattr(pace, "time", clock)
        monkeypatch.setattr(pace, "probe", fake_probe)
        timer = pace.Pace()
        assert timer.probing == 0.0  # the first probe precedes any timing

        def operation():
            clock.now += 3.0          # 3 s between probes 1.0 and 2.0
            assert timer.mark() == pytest.approx(1 / 1.5)
            clock.now += 0.1          # too short a stretch: no probe
            assert timer.mark(at_least=0.5) is None
            clock.now += 1.9          # 2 s between probes 2.0 and 1.0
            return "done"

        result, wall, paced = timer.time(operation)
        assert result == "done"
        assert wall == pytest.approx(5.0)
        assert paced == pytest.approx(3.0 / 1.5 + 2.0 / 1.5)
        assert timer.probing == pytest.approx(2.0)
        assert timer.probes == [1.0 * pace.REFERENCE_PROBE_S,
                                2.0 * pace.REFERENCE_PROBE_S,
                                1.0 * pace.REFERENCE_PROBE_S]

    def test_consecutive_operations_share_a_probe(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(pace, "time", clock)
        monkeypatch.setattr(pace, "probe",
                            lambda cores: pace.REFERENCE_PROBE_S)
        timer = pace.Pace()

        def two_seconds():
            clock.now += 2.0

        for _ in range(3):
            _, wall, paced = timer.time(two_seconds)
            assert wall == paced == pytest.approx(2.0)
        assert len(timer.probes) == 4
        timer.reprobe()
        assert len(timer.probes) == 5

    def test_probe_on_each_core_restores_affinity(self):
        allowed = os.sched_getaffinity(0)
        assert pace.probe(pace.all_cores()) > 0
        assert os.sched_getaffinity(0) == allowed
