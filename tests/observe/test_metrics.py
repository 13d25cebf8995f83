"""The live-metrics registry: exactness, exposition, worker deltas.

Three layers under test.  The registry itself must deliver *exact*
totals under concurrency (threads share one registry; worker processes
hand their deltas back with each task result and the parent folds them
in).  The
Prometheus exposition must be byte-deterministic — sorted families,
sorted samples, escaped labels, cumulative buckets — so the golden
text below and the CI greps never flap.  And the snapshot round-trips
(payload JSON, Prometheus text) must be lossless, because the CLI and
the dashboard rebuild snapshots from both.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ConfigError, ObservabilityError
from repro.observe.metrics import (
    DEFAULT_TIME_BUCKETS,
    HistogramValue,
    MetricsRegistry,
    MetricsSnapshot,
    get_metrics,
    histogram_quantile,
    load_metrics,
    log_buckets,
    parse_prometheus,
    render_prometheus,
    set_metrics_enabled,
)


@pytest.fixture
def registry():
    """A private registry — tests never pollute the process-wide one."""
    return MetricsRegistry()


class TestRegistration:
    def test_reregistration_is_idempotent(self, registry):
        first = registry.counter("repro_test_total", "Help.", ("kind",))
        second = registry.counter("repro_test_total", "Help.", ("kind",))
        assert first is second

    def test_kind_mismatch_fails_loudly(self, registry):
        registry.counter("repro_test_total", "Help.")
        with pytest.raises(ConfigError, match="already registered"):
            registry.gauge("repro_test_total", "Help.")

    def test_label_mismatch_fails_loudly(self, registry):
        registry.counter("repro_test_total", "Help.", ("kind",))
        with pytest.raises(ConfigError, match="already registered"):
            registry.counter("repro_test_total", "Help.", ("outcome",))

    def test_bucket_mismatch_fails_loudly(self, registry):
        registry.histogram("repro_test_seconds", "Help.", buckets=(1.0, 2.0))
        with pytest.raises(ConfigError, match="already registered"):
            registry.histogram(
                "repro_test_seconds", "Help.", buckets=(1.0, 3.0)
            )

    def test_invalid_metric_name_rejected(self, registry):
        with pytest.raises(ConfigError, match="invalid metric name"):
            registry.counter("0bad-name", "Help.")

    def test_le_label_reserved_for_histograms(self, registry):
        with pytest.raises(ConfigError, match="invalid label name"):
            registry.histogram("repro_test_seconds", "Help.", ("le",))

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ConfigError, match="strictly increasing"):
            registry.histogram(
                "repro_test_seconds", "Help.", buckets=(2.0, 1.0)
            )


class TestInstrumentSemantics:
    def test_counter_is_monotonic(self, registry):
        counter = registry.counter("repro_test_total", "Help.")
        counter.inc()
        counter.inc(2.5)
        with pytest.raises(ConfigError, match="only increase"):
            counter.inc(-1)
        assert registry.snapshot().value("repro_test_total") == 3.5

    def test_labeled_children_are_independent(self, registry):
        counter = registry.counter("repro_test_total", "Help.", ("kind",))
        counter.labels(kind="a").inc(3)
        counter.labels("b").inc(4)  # positional spelling, same family
        snapshot = registry.snapshot()
        assert snapshot.value("repro_test_total", kind="a") == 3
        assert snapshot.value("repro_test_total", kind="b") == 4

    def test_label_validation(self, registry):
        counter = registry.counter("repro_test_total", "Help.", ("kind",))
        with pytest.raises(ConfigError, match="expects labels"):
            counter.labels(flavor="a")
        with pytest.raises(ConfigError, match="label value"):
            counter.labels("a", "b")
        with pytest.raises(ConfigError, match="no labels"):
            registry.gauge("repro_test_depth", "Help.").labels("x")
        with pytest.raises(ConfigError, match="call .labels"):
            counter.inc()

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("repro_test_depth", "Help.")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert registry.snapshot().value("repro_test_depth") == 3

    def test_histogram_buckets_are_le_inclusive(self, registry):
        histogram = registry.histogram(
            "repro_test_seconds", "Help.", buckets=(1.0, 2.0)
        )
        for value in (0.5, 1.0, 1.5, 9.0):
            histogram.observe(value)
        sample = registry.snapshot().value("repro_test_seconds")
        assert isinstance(sample, HistogramValue)
        # 1.0 lands in the le="1.0" bucket (<=), 9.0 overflows to +Inf.
        assert sample.counts == (2, 1, 1)
        assert sample.count == 4
        assert sample.total == pytest.approx(12.0)

    def test_disabled_registry_is_a_noop(self, registry):
        counter = registry.counter("repro_test_total", "Help.")
        registry.enabled = False
        counter.inc(7)
        registry.enabled = True
        assert registry.snapshot().value("repro_test_total") == 0

    def test_reset_zeroes_but_keeps_families(self, registry):
        counter = registry.counter("repro_test_total", "Help.")
        counter.inc(9)
        registry.reset()
        assert registry.snapshot().value("repro_test_total") == 0
        counter.inc()  # the pre-reset handle still feeds the family
        assert registry.snapshot().value("repro_test_total") == 1

    def test_global_toggle_returns_previous(self):
        previous = set_metrics_enabled(False)
        try:
            assert set_metrics_enabled(True) is False
        finally:
            set_metrics_enabled(previous if previous is not None else True)
        assert get_metrics().enabled


class TestBucketsAndQuantiles:
    def test_default_time_buckets_are_log_spaced(self):
        assert DEFAULT_TIME_BUCKETS == log_buckets(-4, 2)
        assert len(DEFAULT_TIME_BUCKETS) == 19
        assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_TIME_BUCKETS[-1] == pytest.approx(100.0)
        assert all(
            b > a
            for a, b in zip(DEFAULT_TIME_BUCKETS, DEFAULT_TIME_BUCKETS[1:])
        )

    def test_quantile_nearest_rank_upper_edge(self):
        buckets = (1.0, 2.0, 4.0)
        # 10 observations: 5 in le=1, 3 in le=2, 2 in le=4.
        value = HistogramValue(counts=(5, 3, 2, 0), total=0.0, count=10)
        assert histogram_quantile(value, buckets, 0.5) == 1.0
        assert histogram_quantile(value, buckets, 0.8) == 2.0
        assert histogram_quantile(value, buckets, 0.99) == 4.0

    def test_quantile_overflow_clamps_to_last_edge(self):
        value = HistogramValue(counts=(0, 0, 0, 3), total=0.0, count=3)
        assert histogram_quantile(value, (1.0, 2.0, 4.0), 0.5) == 4.0

    def test_quantile_empty_histogram_is_zero(self):
        value = HistogramValue(counts=(0, 0), total=0.0, count=0)
        assert histogram_quantile(value, (1.0,), 0.5) == 0.0

    def test_quantile_validates_q(self):
        value = HistogramValue(counts=(1, 0), total=0.5, count=1)
        with pytest.raises(ConfigError):
            histogram_quantile(value, (1.0,), 0.0)
        with pytest.raises(ConfigError):
            histogram_quantile(value, (1.0,), 1.5)


GOLDEN_EXPOSITION = """\
# HELP repro_test_depth Queue depth.
# TYPE repro_test_depth gauge
repro_test_depth 3
# HELP repro_test_seconds Latency.
# TYPE repro_test_seconds histogram
repro_test_seconds_bucket{kind="tune",le="1"} 2
repro_test_seconds_bucket{kind="tune",le="2"} 3
repro_test_seconds_bucket{kind="tune",le="+Inf"} 4
repro_test_seconds_sum{kind="tune"} 12.5
repro_test_seconds_count{kind="tune"} 4
# HELP repro_test_total A label with "quotes", back\\\\slash, new\\nline.
# TYPE repro_test_total counter
repro_test_total{kind="a",who="plain"} 2
repro_test_total{kind="b\\"quoted\\"",who="esc\\\\aped\\n"} 1
"""


def golden_registry() -> MetricsRegistry:
    """The registry whose exposition is pinned byte-for-byte above."""
    registry = MetricsRegistry()
    counter = registry.counter(
        "repro_test_total",
        'A label with "quotes", back\\slash, new\nline.',
        ("kind", "who"),
    )
    counter.labels(kind="a", who="plain").inc(2)
    counter.labels(kind='b"quoted"', who="esc\\aped\n").inc()
    registry.gauge("repro_test_depth", "Queue depth.").set(3)
    histogram = registry.histogram(
        "repro_test_seconds", "Latency.", ("kind",), buckets=(1.0, 2.0)
    )
    for value in (0.5, 1.0, 2.0, 9.0):
        histogram.labels(kind="tune").observe(value)
    return registry


class TestExposition:
    def test_golden_text(self):
        text = render_prometheus(golden_registry().snapshot())
        assert text == GOLDEN_EXPOSITION

    def test_buckets_are_cumulative_and_inf_equals_count(self):
        text = render_prometheus(golden_registry().snapshot())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_test_seconds_bucket")
        ]
        assert counts == sorted(counts)
        count_line = next(
            line
            for line in text.splitlines()
            if line.startswith("repro_test_seconds_count")
        )
        assert counts[-1] == int(count_line.rsplit(" ", 1)[1])

    def test_parse_round_trips_byte_identically(self):
        snapshot = golden_registry().snapshot()
        reparsed = parse_prometheus(render_prometheus(snapshot))
        assert render_prometheus(reparsed) == GOLDEN_EXPOSITION

    def test_rendering_is_deterministic_across_insert_order(self):
        forward = golden_registry().snapshot()
        backward = MetricsRegistry()
        histogram = backward.histogram(
            "repro_test_seconds", "Latency.", ("kind",), buckets=(1.0, 2.0)
        )
        for value in (0.5, 1.0, 2.0, 9.0):
            histogram.labels(kind="tune").observe(value)
        backward.gauge("repro_test_depth", "Queue depth.").set(3)
        counter = backward.counter(
            "repro_test_total",
            'A label with "quotes", back\\slash, new\nline.',
            ("kind", "who"),
        )
        counter.labels(kind='b"quoted"', who="esc\\aped\n").inc()
        counter.labels(kind="a", who="plain").inc(2)
        assert render_prometheus(backward.snapshot()) == render_prometheus(
            forward
        )


class TestSnapshots:
    def test_merge_sums_counters_and_histograms(self):
        a = golden_registry().snapshot()
        b = golden_registry().snapshot()
        merged = a.merge(b)
        assert merged.value("repro_test_total", kind="a", who="plain") == 4
        sample = merged.value("repro_test_seconds", kind="tune")
        assert sample.count == 8
        # Gauges are level readings: last write wins, no summing.
        assert merged.value("repro_test_depth") == 3

    def test_merge_rejects_kind_conflicts(self):
        a = MetricsRegistry()
        a.counter("repro_test_total", "Help.").inc()
        b = MetricsRegistry()
        b.gauge("repro_test_total", "Help.").set(1)
        with pytest.raises(ConfigError, match="kind"):
            a.snapshot().merge(b.snapshot())

    def test_payload_round_trip(self):
        snapshot = golden_registry().snapshot()
        rebuilt = MetricsSnapshot.from_payload(
            json.loads(json.dumps(snapshot.to_payload()))
        )
        assert render_prometheus(rebuilt) == GOLDEN_EXPOSITION

    def test_counter_totals_flatten_for_the_ledger(self):
        totals = golden_registry().snapshot().counter_totals()
        assert totals['repro_test_total{kind="a",who="plain"}'] == 2
        # Gauges and histograms stay out of the ledger counters.
        assert not any("depth" in name for name in totals)

    def test_load_metrics_merges_files(self, tmp_path):
        pretty = tmp_path / "snap.json"
        pretty.write_text(
            json.dumps(golden_registry().snapshot().to_payload(), indent=2)
        )
        compact = tmp_path / "snap2.json"
        compact.write_text(
            json.dumps(golden_registry().snapshot().to_payload())
        )
        merged = load_metrics([pretty, compact])
        assert merged.value("repro_test_total", kind="a", who="plain") == 4

    def test_load_metrics_rejects_jsonl_records(self, tmp_path):
        """Only saved snapshots load; a JSONL of delta records is not
        one."""
        records = tmp_path / "records.jsonl"
        payload = golden_registry().snapshot().to_payload()
        payload["type"] = "metrics"
        records.write_text((json.dumps(payload) + "\n") * 2)
        with pytest.raises(ObservabilityError, match="no metrics snapshot"):
            load_metrics([records])


class TestThreadExactness:
    def test_hammered_registry_keeps_exact_totals(self, registry):
        counter = registry.counter("repro_test_total", "Help.", ("worker",))
        histogram = registry.histogram(
            "repro_test_seconds", "Help.", buckets=(0.5, 1.0)
        )
        n_threads, n_iterations = 8, 2_000

        def hammer(index: int) -> None:
            child = counter.labels(worker=str(index))
            for i in range(n_iterations):
                child.inc()
                histogram.observe((i % 3) * 0.4)

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.snapshot()
        for index in range(n_threads):
            assert (
                snapshot.value("repro_test_total", worker=str(index))
                == n_iterations
            )
        sample = snapshot.value("repro_test_seconds")
        assert sample.count == n_threads * n_iterations
        assert sum(sample.counts) == sample.count


def _worker_bump(amount, trace=None):
    """Module-level (PROC002) worker: grow a counter, return the pid.

    The process backend's task wrapper installs worker metrics before
    the call and hands the delta back with the result — this body only
    has to do the counting.  The family is registered here, in the
    worker, and nowhere in the parent.
    """
    import os

    from repro.observe.metrics import get_metrics

    get_metrics().counter(
        "repro_test_worker_total", "Worker-exactness probe."
    ).inc(amount)
    return os.getpid()


def _worker_bump_then_fail(amount, trace=None):
    """Module-level worker: grow a counter, then raise."""
    _worker_bump(amount)
    raise ValueError(f"task {amount} failed")


class TestWorkerDeltas:
    def test_process_backend_deltas_merge_exactly(self):
        from repro.parallel.backends import ProcessBackend

        registry = get_metrics()
        before = registry.snapshot().value("repro_test_worker_total") or 0.0
        amounts = list(range(1, 9))
        pids = ProcessBackend(n_workers=2).map_tasks(
            _worker_bump, [(amount,) for amount in amounts]
        )
        after = registry.snapshot().value("repro_test_worker_total")
        assert after - before == sum(amounts)
        # Workers really were separate processes, not in-process calls.
        import os

        assert os.getpid() not in pids

    def test_failed_task_still_reports_its_counts(self):
        """A task that raises hands its delta back with the exception;
        the caller still sees the original exception type."""
        from repro.parallel.backends import ProcessBackend

        def task_seconds_count():
            value = get_metrics().snapshot().value(
                "repro_backend_task_seconds", backend="process"
            )
            return 0 if value is None else value.count

        registry = get_metrics()
        before = registry.snapshot().value("repro_test_worker_total") or 0.0
        seconds_before = task_seconds_count()
        with pytest.raises(ValueError, match="task 3 failed"):
            ProcessBackend(n_workers=2).map_tasks(
                _worker_bump_then_fail, [(3,)]
            )
        after = registry.snapshot().value("repro_test_worker_total")
        assert after - before == 3
        assert task_seconds_count() - seconds_before == 1

    def test_take_deltas_then_absorb_is_exact(self):
        """Deltas carry counter and histogram growth once; absorbing
        them registers missing families and adds to existing ones."""
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        counter = worker.counter("repro_test_total", "Help.", ("kind",))
        histogram = worker.histogram(
            "repro_test_seconds", "Help.", buckets=(1.0, 2.0)
        )
        worker.gauge("repro_test_depth", "Help.").set(4)
        counter.labels(kind="a").inc(2)
        histogram.observe(1.5)
        parent.absorb(worker.take_deltas())
        counter.labels(kind="a").inc(3)
        histogram.observe(9.0)
        parent.absorb(worker.take_deltas())
        assert worker.take_deltas().families == {}
        snapshot = parent.snapshot()
        assert snapshot.value("repro_test_total", kind="a") == 5
        assert snapshot.value("repro_test_seconds") == HistogramValue(
            counts=(0, 1, 1), total=10.5, count=2
        )
        # Gauges are levels, not growth: they never travel.
        assert "repro_test_depth" not in snapshot.families

    def test_rebase_drops_inherited_growth(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "Help.").inc(7)
        registry.rebase()
        registry.counter("repro_test_total", "Help.").inc(2)
        deltas = registry.take_deltas()
        assert deltas.value("repro_test_total") == 2


class TestCliSurface:
    def test_metrics_command_renders_snapshot_files(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps(golden_registry().snapshot().to_payload())
        )
        assert main(["metrics", str(path), "--format", "prom"]) == 0
        assert capsys.readouterr().out == GOLDEN_EXPOSITION
        assert main(["metrics", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "repro_test_total" in payload["families"]
        assert main(["metrics", str(path)]) == 0
        assert "repro_test_total" in capsys.readouterr().out

    def test_metrics_command_unreachable_server_exits_two(self, capsys):
        from repro.__main__ import main

        # A port from the dynamic range nothing in CI listens on.
        assert main(["metrics", "--port", "1", "--host", "127.0.0.1"]) == 2
        assert "cannot read metrics" in capsys.readouterr().err

    def test_metrics_command_bad_file_exits_two(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["metrics", str(path)]) == 2
        assert "cannot read metrics" in capsys.readouterr().err
