"""The chaos-injection harness: seeded faults, torn messages, sink errors.

The harness is only trustworthy if it is *deterministic*: the same
:class:`FaultPolicy` seed must produce the same fault schedule, run after
run, so a chaos failure reproduces from its seed alone.  That determinism
is asserted directly here (same policy twice, equal ``injected``
schedules), alongside the individual fault kinds:

- torn progress messages — regressive partials and garbage queue items —
  are shrugged off by the supervisor and counted and dropped by the router,
  never raised;
- sink write failures are deterministic and leave previously written
  records intact;
- mid-file torn JSON-lines are skipped (with a warning and a count) on
  resume, and ``fsync=True`` still produces readable records;
- on the process backend (``chaos`` marker, ``make test-chaos``), a
  SIGKILLed worker breaks the pool, supervision repairs it, and the merged
  estimate is still bit-identical to the undisturbed run.
"""

import json
import multiprocessing
import queue as queue_module
import threading
import time

import pytest

from repro.engine import estimate_acceptance_fast
from repro.parallel import (
    Campaign,
    Cell,
    ChaosExecutor,
    ChaosSink,
    ChaosSinkError,
    FaultPolicy,
    JsonlSink,
    MemorySink,
    ProcessExecutor,
    ProgressRouter,
    RetryPolicy,
    SerialExecutor,
    estimate_acceptance_sharded,
    run_campaign,
    workload_spec,
)
from repro.parallel.spec import clear_process_caches

TRIALS = 300
SEED = 11


@pytest.fixture(autouse=True)
def _fresh_spec_caches():
    clear_process_caches()
    yield
    clear_process_caches()


def small_spec(rng_mode="vector"):
    return workload_spec(
        "spanning-tree", rng_mode=rng_mode, node_count=14, extra_edges=4, seed=1
    )


def noisy_spec(rng_mode="vector"):
    return workload_spec(
        "noisy-spanning-tree", rng_mode=rng_mode, node_count=18, flip_milli=4
    )


def _single(spec, trials=TRIALS):
    return estimate_acceptance_fast(spec.resolve(), trials, seed=SEED)


# ---------------------------------------------------------------------------
# FaultPolicy: a pure, seeded decision function
# ---------------------------------------------------------------------------


class TestFaultPolicy:
    def test_decide_is_pure_and_seeded(self):
        policy = FaultPolicy(seed=7, crash_rate=0.2, hang_rate=0.2, slow_rate=0.2)
        grid = [(i, a) for i in range(16) for a in range(4)]
        schedule = [policy.decide(i, a) for i, a in grid]
        # Purity: the same policy value yields the same schedule.
        again = FaultPolicy(seed=7, crash_rate=0.2, hang_rate=0.2, slow_rate=0.2)
        assert [again.decide(i, a) for i, a in grid] == schedule
        # A different seed yields a different schedule (overwhelmingly).
        other = FaultPolicy(seed=8, crash_rate=0.2, hang_rate=0.2, slow_rate=0.2)
        assert [other.decide(i, a) for i, a in grid] != schedule

    def test_zero_rates_never_fault(self):
        policy = FaultPolicy(seed=1)
        assert all(
            policy.decide(i, a) is None for i in range(32) for a in range(4)
        )

    def test_certain_crash_always_faults(self):
        policy = FaultPolicy(seed=1, crash_rate=1.0)
        assert all(
            policy.decide(i, a) == "crash" for i in range(32) for a in range(4)
        )

    def test_every_kind_reachable_under_mixed_rates(self):
        policy = FaultPolicy(
            seed=2, crash_rate=0.2, kill_rate=0.2, hang_rate=0.2,
            slow_rate=0.2, torn_rate=0.2,
        )
        kinds = {policy.decide(i, 0) for i in range(200)}
        assert kinds == {"crash", "kill", "hang", "slow", "torn"}

    def test_sink_decisions_are_deterministic(self):
        policy = FaultPolicy(seed=9, sink_error_rate=0.5)
        schedule = [policy.decide_sink(n) for n in range(64)]
        assert schedule == [policy.decide_sink(n) for n in range(64)]
        assert any(schedule) and not all(schedule)
        assert not any(
            FaultPolicy(seed=9).decide_sink(n) for n in range(64)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"crash_rate": 1.5},
            {"crash_rate": 0.7, "hang_rate": 0.7},  # rates sum past 1
            {"sink_error_rate": 2.0},
            {"slow_delay": -1.0},
            {"hang_limit": 0.0},
        ],
    )
    def test_invalid_policies_raise(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(seed=0, **kwargs)


class TestFaultPolicyParse:
    def test_parse_full_spec(self):
        policy = FaultPolicy.parse(
            "seed=7, crash=0.25, kill=0.1, hang=0.05, slow=0.2, torn=0.1, "
            "sink=0.5, delay=0.01, hang-limit=3"
        )
        assert policy == FaultPolicy(
            seed=7, crash_rate=0.25, kill_rate=0.1, hang_rate=0.05,
            slow_rate=0.2, torn_rate=0.1, sink_error_rate=0.5,
            slow_delay=0.01, hang_limit=3.0,
        )

    def test_parse_tolerates_empty_segments(self):
        assert FaultPolicy.parse("seed=3,,crash=0.5,") == FaultPolicy(
            seed=3, crash_rate=0.5
        )

    @pytest.mark.parametrize("spec", ["pow=0.5", "crash", "crash:0.5"])
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPolicy.parse(spec)

    def test_parsed_rates_are_validated(self):
        with pytest.raises(ValueError):
            FaultPolicy.parse("crash=0.8,hang=0.8")


# ---------------------------------------------------------------------------
# ChaosExecutor: deterministic schedules over a real backend
# ---------------------------------------------------------------------------


class TestChaosExecutor:
    def _run(self, policy):
        chaos = ChaosExecutor(SerialExecutor(), policy)
        sharded = estimate_acceptance_sharded(
            noisy_spec(), TRIALS, seed=SEED, executor=chaos, shard_count=8,
            retry_policy=RetryPolicy(max_retries=6, backoff_base=0.001,
                                     backoff_max=0.005),
        )
        return sharded, chaos

    def test_same_seed_same_injected_schedule(self):
        policy = FaultPolicy(seed=3, crash_rate=0.4, slow_rate=0.2,
                             slow_delay=0.001)
        first, chaos_a = self._run(policy)
        second, chaos_b = self._run(policy)
        assert chaos_a.injected == chaos_b.injected
        assert chaos_a.injected  # non-vacuous: faults were injected
        assert first.estimate == second.estimate == _single(noisy_spec())

    def test_different_seed_different_schedule(self):
        base = dict(crash_rate=0.4, slow_rate=0.2, slow_delay=0.001)
        _, chaos_a = self._run(FaultPolicy(seed=3, **base))
        _, chaos_b = self._run(FaultPolicy(seed=4, **base))
        assert chaos_a.injected != chaos_b.injected

    def test_wrapper_delegates_identity_attributes(self):
        inner = SerialExecutor()
        chaos = ChaosExecutor(inner, FaultPolicy(seed=0))
        assert chaos.name == "chaos+serial"
        assert chaos.workers == 1
        assert chaos.in_process is True
        with pytest.raises(AttributeError):
            chaos.repair()  # serial backend has no pool to repair

    def test_faultless_policy_is_transparent(self):
        sharded, chaos = self._run(FaultPolicy(seed=0))
        assert chaos.injected == []
        assert sharded.estimate == _single(noisy_spec())
        assert sharded.report.ok and not sharded.report.failures


class TestTornProgress:
    def test_torn_partials_do_not_corrupt_streamed_counts(self):
        # Every first attempt emits a regressive partial before running
        # normally; they are heartbeats only and never reach the counts.
        policy = FaultPolicy(seed=1, torn_rate=1.0)
        chaos = ChaosExecutor(SerialExecutor(), policy)
        sharded = estimate_acceptance_sharded(
            small_spec(), TRIALS, seed=SEED, executor=chaos, shard_count=4,
            retry_policy=RetryPolicy(max_retries=2, backoff_base=0.001),
        )
        assert all(kind == "torn" for _, _, kind in chaos.injected)
        assert sharded.estimate == _single(small_spec())
        assert sharded.report.ok


# ---------------------------------------------------------------------------
# ProgressRouter hardening: unknown runs, stale runs, garbage items
# ---------------------------------------------------------------------------


class TestProgressRouterHardening:
    def _wait_for(self, predicate, timeout=2.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.005)
        return False

    def test_unknown_and_malformed_items_counted_and_dropped(self):
        channel = queue_module.Queue()
        router = ProgressRouter(channel)
        received = []
        router.subscribe(1, lambda *update: received.append(update))
        channel.put((1, 0, 5, 10))  # good
        channel.put((99, 0, 5, 10))  # unknown run id
        channel.put(("torn-progress-message",))  # torn tuple
        channel.put("garbage")  # not a tuple at all
        channel.put(([], 0, 5, 10))  # unhashable run id
        channel.put((1, 1, 7, 14))  # good again: the drain loop survived
        assert self._wait_for(lambda: len(received) == 2)
        assert received == [(0, 5, 10), (1, 7, 14)]
        assert router.unknown_run_updates == 1
        assert router.malformed_items == 3
        router.close()

    def test_stale_run_updates_after_unsubscribe_are_dropped(self):
        channel = queue_module.Queue()
        router = ProgressRouter(channel)
        received = []
        router.subscribe(7, lambda *update: received.append(update))
        channel.put((7, 0, 1, 2))
        assert self._wait_for(lambda: len(received) == 1)
        router.unsubscribe(7)
        channel.put((7, 0, 2, 4))  # late partial of a finished run
        assert self._wait_for(lambda: router.unknown_run_updates == 1)
        assert received == [(0, 1, 2)]
        router.close()

    def test_raising_subscriber_does_not_kill_drain_loop(self):
        channel = queue_module.Queue()
        router = ProgressRouter(channel)
        received = []

        def explode(*update):
            raise RuntimeError("bad subscriber")

        router.subscribe(1, explode)
        router.subscribe(2, lambda *update: received.append(update))
        channel.put((1, 0, 1, 2))
        channel.put((2, 0, 3, 6))
        assert self._wait_for(lambda: len(received) == 1)
        assert router.callback_errors == 1
        router.close()

    def test_wedged_queue_close_surfaces_leaked_drain_thread(self):
        # A queue whose get() blocks forever models the wedged-pipe case
        # (worker died holding the pipe): the close() sentinel never reaches
        # the drain loop, the join times out, and the leak must be surfaced
        # (counter + warning), not silently swallowed.
        release = threading.Event()

        class WedgedQueue:
            def get(self):
                release.wait()
                return None  # the router sentinel: lets the thread exit

            def put(self, item):
                pass  # drops the sentinel — the wedge

        router = ProgressRouter(WedgedQueue(), join_timeout=0.1)
        router.subscribe(1, lambda *update: None)
        with pytest.warns(RuntimeWarning, match="did not exit"):
            router.close()
        assert router.drain_thread_leaked == 1
        router.close()  # idempotent: no second join, no second warning
        assert router.drain_thread_leaked == 1
        release.set()  # unwedge so the daemon thread exits before teardown

    def test_clean_close_does_not_count_a_leak(self):
        channel = queue_module.Queue()
        router = ProgressRouter(channel)
        router.subscribe(1, lambda *update: None)
        router.close()
        assert router.drain_thread_leaked == 0


# ---------------------------------------------------------------------------
# ChaosSink + the campaign degradation paths
# ---------------------------------------------------------------------------


class TestChaosSink:
    def test_deterministic_write_failures(self):
        policy = FaultPolicy(seed=9, sink_error_rate=0.5)
        expected = [policy.decide_sink(n) for n in range(8)]
        sink = ChaosSink(MemorySink(), policy)
        outcomes = []
        for n in range(8):
            try:
                sink.write({"cell_key": f"k{n}", "n": n})
                outcomes.append(False)
            except ChaosSinkError:
                outcomes.append(True)
        assert outcomes == expected
        assert sink.writes == 8
        assert sink.failed_writes == sum(expected)
        # Failed writes never reached the wrapped sink.
        assert len(sink.records) == 8 - sum(expected)

    def test_sink_failure_surfaces_from_campaign(self):
        # Sink errors are data loss, not cell failures: on_cell_error does
        # not swallow them — the campaign aborts with the records already
        # written intact.
        policy = FaultPolicy(seed=1, sink_error_rate=1.0)
        sink = ChaosSink(MemorySink(), policy)
        campaign = Campaign(
            name="sink-chaos",
            cells=(Cell(name="only", spec=small_spec(), trials=64, seed=SEED),),
        )
        with pytest.raises(ChaosSinkError):
            run_campaign(campaign, sink=sink, on_cell_error="skip")
        assert sink.records == []


class TestJsonlTornLines:
    def _record(self, key, cell="c"):
        return {"cell_key": key, "cell": cell, "status": "ok"}

    def test_mid_file_torn_lines_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        lines = [
            json.dumps(self._record("a")),
            '{"cell_key": "b", "cell": "torn-mid',  # torn mid-file
            json.dumps(self._record("c")),
            '{"cell_key": "d"',  # torn tail
        ]
        path.write_text("\n".join(lines) + "\n")
        sink = JsonlSink(path)
        err = capsys.readouterr().err
        assert sink.torn_lines == 2
        assert [r["cell_key"] for r in sink.records] == ["a", "c"]
        assert "skipping torn record on line 2" in err
        assert "skipping torn record on line 4" in err
        # Resume proceeds from the intact records: new appends still work.
        sink.write(self._record("e"))
        reloaded = JsonlSink(path)
        assert reloaded.torn_lines == 2
        assert [r["cell_key"] for r in reloaded.records] == ["a", "c", "e"]

    def test_fsync_writes_are_readable(self, tmp_path):
        path = tmp_path / "fsync.jsonl"
        sink = JsonlSink(path, fsync=True)
        sink.write(self._record("a"))
        sink.write(self._record("b"))
        assert [
            json.loads(line)["cell_key"] for line in path.read_text().splitlines()
        ] == ["a", "b"]


# ---------------------------------------------------------------------------
# the CLI surface of the chaos harness
# ---------------------------------------------------------------------------


class TestCliChaos:
    def test_estimate_with_chaos_and_retries_recovers(self, capsys):
        from repro.parallel.cli import main as cli_main

        code = cli_main(
            ["estimate", "--workload", "spanning-tree", "--trials", "96",
             "--size", "node_count=12", "--shards", "3",
             "--chaos-spec", "seed=3,crash=0.4", "--max-retries", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(96 trials)" in out  # full budget despite injected crashes
        assert "supervision:" in out and "quarantined=0" in out

    def test_bad_chaos_spec_is_a_usage_error(self):
        from repro.parallel.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(
                ["estimate", "--workload", "spanning-tree", "--trials", "8",
                 "--chaos-spec", "pow=0.5"]
            )


# ---------------------------------------------------------------------------
# the real thing: SIGKILLed workers on the process backend
# ---------------------------------------------------------------------------


def _kill_policy(shard_count, retries):
    """A chaos seed whose schedule kills >= 1 first attempt and nothing else.

    Found by walking the pure schedule — no trial and error at run time.
    """
    def fits(seed):
        policy = FaultPolicy(seed=seed, kill_rate=0.3)
        return any(
            policy.decide(i, 0) == "kill" for i in range(shard_count)
        ) and all(
            policy.decide(i, a) is None
            for i in range(shard_count)
            for a in range(1, retries + 1)
        )

    seed = next(s for s in range(1000) if fits(s))
    return FaultPolicy(seed=seed, kill_rate=0.3)


@pytest.mark.chaos
class TestProcessBackendChaos:
    def test_sigkilled_worker_repairs_pool_and_preserves_estimate(self):
        spec = noisy_spec()
        single = _single(spec)
        policy = _kill_policy(shard_count=4, retries=6)
        with ProcessExecutor(workers=2) as inner:
            chaos = ChaosExecutor(inner, policy)
            sharded = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor=chaos, shard_count=4,
                retry_policy=RetryPolicy(max_retries=6, backoff_base=0.01,
                                         backoff_max=0.05),
            )
            assert any(kind == "kill" for _, _, kind in chaos.injected)
            assert sharded.estimate == single
            assert sharded.report.ok
            assert sharded.report.pool_repairs >= 1
            assert inner.repairs >= 1
        assert multiprocessing.active_children() == []

    def test_torn_worker_messages_counted_by_router(self):
        spec = small_spec()
        policy = FaultPolicy(seed=1, torn_rate=1.0)
        with ProcessExecutor(workers=2) as inner:
            chaos = ChaosExecutor(inner, policy)
            sharded = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor=chaos, shard_count=4,
                retry_policy=RetryPolicy(max_retries=2, backoff_base=0.01),
            )
            assert sharded.estimate == _single(spec)
            assert sharded.report.ok
            # Every shard put one malformed item on the progress queue; the
            # router survived them all (allow queue latency on the last).
            deadline = time.monotonic() + 2.0
            while inner._router.malformed_items < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert multiprocessing.active_children() == []
