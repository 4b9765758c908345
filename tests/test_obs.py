"""The observability layer: trace primitives, metrics, router piggyback,
supervision timing, and the chaos flight-recorder acceptance path."""

import json
import threading

import pytest

from repro.obs.metrics import (
    MetricsFlush,
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
    snapshot_empty,
)
from repro.obs.reader import load_trace, slowest_spans, summarize_runs, to_chrome_trace
from repro.obs.runtime import (
    get_metrics,
    get_recorder,
    recorder_for_spec,
    set_recorder,
    take_metrics_flush,
    tracing,
)
from repro.obs.trace import (
    NULL_RECORDER,
    ChunkProgress,
    TraceRecorder,
    TraceSpec,
    TraceWriter,
)
from repro.parallel.progress import ProgressRouter
from repro.parallel.supervision import RetryPolicy, RunReport, ShardFailure


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts with the null recorder and a zeroed registry."""
    set_recorder(None)
    get_metrics().clear()
    yield
    set_recorder(None)
    get_metrics().clear()


# ---------------------------------------------------------------------------
# trace primitives
# ---------------------------------------------------------------------------


class TestTraceWriter:
    def test_span_event_metrics_records_round_trip(self, tmp_path):
        recorder = TraceRecorder(tmp_path, trace_id="t1")
        with recorder.span("outer", {"a": 1}) as outer:
            recorder.event("ping", {"b": 2})
            with recorder.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        recorder.metrics({"counters": {"x": 3}, "gauges": {}, "histograms": {}})
        recorder.close()

        trace = load_trace(tmp_path)
        assert trace.torn_lines == 0
        names = sorted(s["name"] for s in trace.spans)
        assert names == ["inner", "outer"]
        (event,) = trace.events
        assert event["name"] == "ping"
        assert event["parent"] == next(
            s["id"] for s in trace.spans if s["name"] == "outer"
        )
        assert trace.merged_metrics()["counters"] == {"x": 3}

    def test_torn_tail_line_is_skipped_not_fatal(self, tmp_path):
        recorder = TraceRecorder(tmp_path, trace_id="t2")
        recorder.event("kept")
        recorder.close()
        (trace_file,) = list(tmp_path.glob("trace-*.jsonl"))
        with trace_file.open("a") as handle:
            handle.write('{"kind": "event", "name": "torn')  # no newline, torn

        trace = load_trace(tmp_path)
        assert trace.torn_lines == 1
        assert [e["name"] for e in trace.events] == ["kept"]

    def test_one_writer_per_directory(self, tmp_path):
        assert TraceWriter.for_dir(tmp_path) is TraceWriter.for_dir(tmp_path)

    def test_error_exit_marks_span_status(self, tmp_path):
        recorder = TraceRecorder(tmp_path, trace_id="t3")
        with pytest.raises(RuntimeError):
            with recorder.span("doomed"):
                raise RuntimeError("boom")
        recorder.close()
        (span,) = load_trace(tmp_path).spans
        assert span["status"] == "error"
        assert "boom" in span["attrs"]["error"]

    def test_anchored_timestamps_are_monotonic_offsets(self, tmp_path):
        recorder = TraceRecorder(tmp_path, trace_id="t4")
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            pass
        recorder.close()
        spans = load_trace(tmp_path).spans
        by_name = {s["name"]: s for s in spans}
        assert by_name["a"]["ts"] <= by_name["b"]["ts"]
        assert all(s["dur"] >= 0.0 for s in spans)


class TestNullRecorder:
    def test_every_call_is_a_noop(self):
        recorder = NULL_RECORDER
        assert recorder.enabled is False
        span = recorder.span("x", {"k": 1})
        with span as s:
            s.set("k", 2)
        assert span.span_id is None
        recorder.event("x")
        recorder.metrics({})
        assert recorder.spec() is None
        assert recorder.current_span_id() is None
        recorder.close()

    def test_null_span_is_shared(self):
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")


class TestTraceSpec:
    def test_worker_side_rebuild_memoizes(self, tmp_path):
        spec = TraceSpec(path=str(tmp_path), trace_id="shared", parent="p-1")
        first = recorder_for_spec(spec)
        second = recorder_for_spec(spec)
        assert first is second
        assert first.trace_id == "shared"

    def test_spec_resolves_to_active_recorder_in_process(self, tmp_path):
        with tracing(tmp_path) as recorder:
            spec = recorder.spec()
            assert spec.recorder() is recorder

    def test_spec_is_picklable(self, tmp_path):
        import pickle

        spec = TraceSpec(path=str(tmp_path), trace_id="t", parent="p")
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestChunkProgress:
    def test_emits_cumulative_and_delta_attrs(self, tmp_path):
        recorder = TraceRecorder(tmp_path, trace_id="c1")
        seen = []
        progress = ChunkProgress(recorder, "parent-1", inner=lambda a, t: seen.append((a, t)))
        progress(3, 10)
        progress(5, 20)
        recorder.close()
        chunks = load_trace(tmp_path).named("chunk")
        assert [c["attrs"]["chunk_trials"] for c in chunks] == [10, 10]
        assert [c["attrs"]["chunk_accepted"] for c in chunks] == [3, 2]
        assert all(c["parent"] == "parent-1" for c in chunks)
        assert seen == [(3, 10), (5, 20)]  # inner always forwarded

    def test_pings_and_regressions_forward_without_spans(self, tmp_path):
        recorder = TraceRecorder(tmp_path, trace_id="c2")
        seen = []
        progress = ChunkProgress(recorder, None, inner=lambda a, t: seen.append((a, t)))
        progress(0, 0)  # no trials: not a chunk
        progress(4, 8)
        progress(0, -1)  # chaos torn partial: regressive
        recorder.close()
        chunks = load_trace(tmp_path).named("chunk")
        assert len(chunks) == 1
        assert seen == [(0, 0), (4, 8), (0, -1)]


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", bounds=(0.1, 1.0)).observe(0.05)
        registry.histogram("h").observe(5.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0, 1]
        assert snap["histograms"]["h"]["count"] == 2

    def test_snapshot_and_reset_keeps_instruments_live(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        counter.inc()
        gauge.set(7.0)
        first = registry.snapshot_and_reset()
        assert first["counters"] == {"c": 1}
        counter.inc(5)  # the cached handle still feeds the registry
        second = registry.snapshot_and_reset()
        assert second["counters"] == {"c": 5}
        assert second["gauges"] == {"g": 7.0}  # gauges survive resets

    def test_merge_adds_counters_and_histogram_buckets(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.merge(a.snapshot())
        b.merge(a.snapshot())
        snap = b.snapshot()
        assert snap["counters"] == {"c": 4}
        assert snap["histograms"]["h"]["counts"] == [2, 0]
        assert snap["histograms"]["h"]["count"] == 2

    def test_mismatched_histogram_bounds_fold_into_moments(self):
        a = MetricsRegistry()
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", bounds=(2.0, 4.0)).observe(3.0)
        b.merge(a.snapshot())
        data = b.snapshot()["histograms"]["h"]
        assert data["count"] == 2  # never silently dropped
        assert data["sum"] == pytest.approx(3.5)

    def test_snapshot_empty_and_diff(self):
        registry = MetricsRegistry()
        assert snapshot_empty(registry.snapshot())
        before = registry.snapshot()
        registry.counter("c").inc(2)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["counters"] == {"c": 2}
        assert not snapshot_empty(delta)
        assert merge_snapshots(delta, delta)["counters"] == {"c": 4}

    def test_take_metrics_flush_is_none_when_empty(self):
        assert take_metrics_flush() is None
        get_metrics().counter("c").inc()
        flush = take_metrics_flush()
        assert flush is not None and flush.metrics["counters"] == {"c": 1}
        assert take_metrics_flush() is None  # drained


# ---------------------------------------------------------------------------
# runtime seam
# ---------------------------------------------------------------------------


class TestTracingContext:
    def test_installs_and_restores_recorder(self, tmp_path):
        assert get_recorder() is NULL_RECORDER
        with tracing(tmp_path) as recorder:
            assert get_recorder() is recorder
            assert recorder.enabled
        assert get_recorder() is NULL_RECORDER

    def test_writes_metrics_delta_on_exit(self, tmp_path):
        get_metrics().counter("pre").inc(100)  # pre-existing: not in the delta
        with tracing(tmp_path):
            get_metrics().counter("during").inc(3)
        merged = load_trace(tmp_path).merged_metrics()
        assert merged["counters"] == {"during": 3}

    def test_restores_previous_recorder_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with tracing(tmp_path):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER


# ---------------------------------------------------------------------------
# router piggyback + stats (satellite 1)
# ---------------------------------------------------------------------------


class _DrainableQueue:
    """A stand-in queue the router can drain without multiprocessing."""

    def __init__(self):
        import queue as _q

        self._q = _q.Queue()

    def get(self):
        return self._q.get()

    def put(self, item):
        self._q.put(item)


def _settled(router, predicate, timeout=5.0):
    import time as _t

    deadline = _t.monotonic() + timeout
    while _t.monotonic() < deadline:
        if predicate():
            return True
        _t.sleep(0.005)
    return predicate()


class TestProgressRouterStats:
    def test_stats_keys_and_counting(self):
        q = _DrainableQueue()
        router = ProgressRouter(q)
        seen = []
        router.subscribe(7, lambda *update: seen.append(update))
        q.put((7, 0, 3, 10))  # good
        q.put((99, 0, 1, 1))  # unknown run
        q.put(("garbage",))  # malformed
        q.put((7, 0, 0, 4))  # regressed vs 10: stale
        assert _settled(router, lambda: router.stale_updates == 1)
        router.close()
        stats = router.stats()
        assert stats["unknown"] == 1
        assert stats["stale"] == 1
        assert stats["malformed"] == 1
        assert stats["drain_thread_leaked"] == 0
        assert set(stats) == {
            "unknown",
            "stale",
            "malformed",
            "callback_errors",
            "metrics_flushes",
            "drain_thread_leaked",
        }
        # The stale update was still dispatched: the router only counts it.
        assert seen == [(0, 3, 10), (0, 0, 4)]

    def test_metrics_flushes_merge_into_the_global_registry(self):
        q = _DrainableQueue()
        router = ProgressRouter(q)
        router.subscribe(1, lambda *a: None)
        q.put(MetricsFlush(metrics={"counters": {"w": 2}}))
        q.put(MetricsFlush(metrics={"counters": {"w": 3}}))
        q.put(MetricsFlush(metrics={"counters": {"w": 10}}))
        assert _settled(router, lambda: router.metrics_flushes == 3)
        router.close()
        assert get_metrics().snapshot()["counters"]["w"] == 15


# ---------------------------------------------------------------------------
# RunReport monotonic timing (satellite 2)
# ---------------------------------------------------------------------------


class TestRunReportTiming:
    def test_report_dict_carries_both_clocks(self):
        report = RunReport(
            attempts={0: 1},
            failures=(),
            quarantined=(),
            started_unix=100.0,
            finished_unix=101.0,
            duration_sec=0.5,
        )
        data = report.as_dict()
        assert data["started_unix"] == 100.0
        assert data["finished_unix"] == 101.0
        assert data["duration_sec"] == 0.5

    def test_shard_failure_elapsed_in_dict(self):
        failure = ShardFailure(0, 0, "error", "boom", elapsed_sec=0.25)
        assert failure.as_dict()["elapsed_sec"] == 0.25

    def test_duration_uses_injected_monotonic_clock(self):
        """A wall-clock step cannot corrupt duration_sec: the supervisor's
        injectable clock is the only timing source for it."""
        from repro.parallel.executors import SerialExecutor, _run_shard
        from repro.parallel.shards import ShardPlanner
        from repro.parallel.spec import PlanSpec
        from repro.parallel.supervision import ShardSupervisor

        ticks = iter(x * 0.01 for x in range(10_000))
        clock = lambda: next(ticks)  # noqa: E731
        spec = PlanSpec.of("repro.parallel.factories:compiled_spanning_tree", node_count=8)
        plan = spec.resolve()
        shards = ShardPlanner(shard_count=1).plan(32, 1)
        options = {
            "seed": 0,
            "rng_mode": "vector",
        }
        payloads = [(plan, shard, options) for shard in shards]
        with SerialExecutor() as executor:
            supervisor = ShardSupervisor(
                executor, _run_shard, payloads, policy=RetryPolicy(max_retries=0),
                clock=clock,
            )
            results, report = supervisor.run()
        assert len(results) == 1
        assert report.duration_sec > 0.0
        assert report.finished_unix >= report.started_unix


# ---------------------------------------------------------------------------
# reader + chrome export
# ---------------------------------------------------------------------------


class TestReader:
    def test_slowest_spans_orders_by_duration(self, tmp_path):
        recorder = TraceRecorder(tmp_path, trace_id="s1")
        recorder.write_span("fast", start=0.0, end=0.1)
        recorder.write_span("slow", start=0.0, end=2.0)
        recorder.close()
        trace = load_trace(tmp_path)
        top = slowest_spans(trace, top=1)
        assert top[0]["name"] == "slow"

    def test_chrome_export_shape(self, tmp_path):
        recorder = TraceRecorder(tmp_path, trace_id="s2")
        with recorder.span("run"):
            recorder.event("mark")
        recorder.close()
        payload = to_chrome_trace(load_trace(tmp_path))
        events = payload["traceEvents"]
        assert {e["ph"] for e in events} == {"X", "i"}
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["ts"] >= 0 and complete["dur"] >= 0
        json.dumps(payload)  # serializable

    def test_missing_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope")


# ---------------------------------------------------------------------------
# acceptance: chaos campaign flight recorder (ISSUE 9 criterion)
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestChaosFlightRecorder:
    def _traced_chaos_campaign(self, tmp_path, policy_spec, max_retries=4):
        from repro.parallel import cli as parallel_cli

        trace_dir = tmp_path / "trace"
        out = tmp_path / "out.jsonl"
        rc = parallel_cli.main(
            [
                "campaign",
                "--workloads", "spanning-tree",
                "--size", "node_count=16",
                "--trials", "64",
                "--chaos-spec", policy_spec,
                "--max-retries", str(max_retries),
                "--trace", str(trace_dir),
                "--out", str(out),
            ]
        )
        assert rc == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        return load_trace(trace_dir), records

    def test_report_reconstructs_attempts_retries_and_faults(self, tmp_path):
        # seed=3,crash=0.5 injects 2 crashes on shard 0 before succeeding
        # (pinned by FaultPolicy determinism; the chaos suite relies on the
        # same schedule stability).
        trace, records = self._traced_chaos_campaign(tmp_path, "seed=3,crash=0.5")
        (record,) = records
        supervision = record["supervision"]
        (run,) = summarize_runs(trace)

        # Every shard attempt the supervisor recorded is in the trace.
        assert run["dispatches"] == sum(supervision["attempts"].values())
        assert run["retries"] == supervision["retries"]
        assert run["timeouts"] == supervision["timeouts"]
        assert run["quarantined"] == len(supervision["quarantined"])
        assert len(run["failures"]) == len(supervision["failures"])
        # Every injected fault is an auditable chaos.inject event.
        assert sum(run["faults"].values()) > 0
        assert run["faults"] == {"crash": supervision["retries"]}
        # The run still produced the full, unfaulted estimate.
        assert record["trials"] == 64
        assert run["trials"] == 64
        # Supervision timing satellite: both clocks present.
        assert supervision["duration_sec"] > 0.0
        assert supervision["finished_unix"] >= supervision["started_unix"]

    def test_chrome_export_is_valid_trace_event_json(self, tmp_path):
        trace, _records = self._traced_chaos_campaign(tmp_path, "seed=3,crash=0.5")
        payload = json.loads(json.dumps(to_chrome_trace(trace)))
        assert isinstance(payload["traceEvents"], list) and payload["traceEvents"]
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "i")
            assert isinstance(event["ts"], (int, float))
            assert "pid" in event and "tid" in event
