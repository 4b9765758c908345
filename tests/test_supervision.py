"""Worker supervision, deterministic retry, and campaign degradation (PR 6).

The load-bearing properties:

- **Crash identity** — under any injected crash/hang/retry schedule the
  supervised merged estimate is bit-identical to the undisturbed
  single-process run: shards are counter ranges, re-execution is pure, and
  one result per shard reaches the merge (partials are heartbeats only).
  Pinned for 1/2/8 shards across rng modes against seeded chaos schedules.
- **Deadlines** — a shard with no heartbeat within ``shard_timeout`` is
  declared failed (kind ``"timeout"``), its dispatch stopped, and a retry
  dispatched; a late completion from an abandoned attempt is accepted as
  free (bit-identical) work.
- **Quarantine** — a shard exhausting ``max_retries`` is quarantined with
  its failure history; siblings keep running; ``report.ok`` is False and
  the estimate merges only completed shards.
- **Campaign degradation** — ``on_cell_error="skip"/"retry"`` records a
  ``status="failed"`` cell and keeps running siblings; failed records
  never mark a cell complete, so resume re-attempts exactly those cells;
  ``KeyboardInterrupt`` always propagates and leaves a resumable ordered
  prefix with no zombie workers.

Process-backend tests carry ``parallel_proc``; ``make test-chaos`` forces
them (and the chaos-marked worker-kill tests of ``test_chaos.py``) on.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.engine import estimate_acceptance_fast
from repro.parallel import (
    Campaign,
    Cell,
    ChaosExecutor,
    ChaosWorkerCrash,
    FaultPolicy,
    JsonlSink,
    PlanSpec,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    ShardPlanner,
    ShardResult,
    ShardSupervisor,
    estimate_acceptance_sharded,
    run_campaign,
    workload_spec,
)
from repro.parallel.factories import compiled_spanning_tree
from repro.parallel.spec import clear_process_caches

from concurrent_serial import ConcurrentSerialExecutor

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


# A transient-failure workload factory for the campaign degradation tests:
# fails its next ``remaining`` resolutions, then behaves like the real
# spanning-tree factory.  Module-level (PlanSpec factories must be
# importable), state reset per test by the fixture below.
_FLAKY = {"remaining": 0}


def flaky_spanning_tree(**kwargs):
    if _FLAKY["remaining"] > 0:
        _FLAKY["remaining"] -= 1
        raise RuntimeError("transient workload failure")
    return compiled_spanning_tree(**kwargs)


@pytest.fixture(autouse=True)
def _reset_flaky():
    _FLAKY["remaining"] = 0
    yield
    _FLAKY["remaining"] = 0


def flaky_cell(name="flaky", trials=64):
    return Cell(
        name=name,
        spec=PlanSpec.of(flaky_spanning_tree, node_count=14, extra_edges=4, seed=1),
        trials=trials,
        seed=SEED,
    )


# ---------------------------------------------------------------------------
# RetryPolicy: validation and the deterministic backoff schedule
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.shard_timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"shard_timeout": 0.0},
            {"shard_timeout": -1.0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"kill_grace": 0.0},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.02, backoff_factor=2.0, backoff_max=0.05)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(2) == pytest.approx(0.04)
        assert policy.backoff(3) == pytest.approx(0.05)  # capped
        assert policy.backoff(10) == pytest.approx(0.05)
        # The schedule is a pure function: same policy, same delays.
        assert [policy.backoff(n) for n in (1, 2, 3)] == [
            policy.backoff(n) for n in (1, 2, 3)
        ]

    def test_retry_numbers_are_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


# ---------------------------------------------------------------------------
# supervised runs without faults: pure overhead, identical results
# ---------------------------------------------------------------------------


class TestSupervisedIdentity:
    @pytest.mark.parametrize("shard_count", [1, 2, 8])
    @pytest.mark.parametrize(
        "spec_maker",
        [
            lambda: small_spec("vector"),
            lambda: noisy_spec("vector"),
            lambda: noisy_spec("compat"),
            lambda: small_spec("compat"),
        ],
    )
    def test_supervised_serial_equals_single_process(self, spec_maker, shard_count):
        spec = spec_maker()
        sharded = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial",
            shard_count=shard_count, max_retries=2,
        )
        assert sharded.estimate == _single(spec)
        report = sharded.report
        assert report is not None and report.ok
        assert report.retries == 0 and report.timeouts == 0
        assert report.attempts == {index: 1 for index in range(shard_count)}

    def test_supervised_concurrent_equals_single_process(self):
        spec = noisy_spec()
        with ConcurrentSerialExecutor(2) as executor:
            sharded = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor=executor, shard_count=8,
                max_retries=2,
            )
        assert sharded.estimate == _single(spec)
        assert sharded.report.ok

    def test_supervised_streamed_run_is_observational(self):
        # Progress updates double as heartbeats; the streamed estimate (and
        # its update counts' meaning) must not change.
        spec = small_spec()
        sharded = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=4,
            max_retries=2,
        )
        assert sharded.estimate == _single(spec)
        assert sharded.progress_updates > 0 and sharded.report.ok

    def test_retry_policy_conflicts_with_shorthands(self):
        with pytest.raises(ValueError):
            estimate_acceptance_sharded(
                small_spec(), TRIALS, seed=SEED, executor="serial",
                retry_policy=RetryPolicy(), max_retries=3,
            )


# ---------------------------------------------------------------------------
# the crash-identity theorem: faults + retry never change the estimate
# ---------------------------------------------------------------------------


def _chaos_run(spec, policy, shard_count=8, trials=TRIALS, **kwargs):
    """One supervised run over a chaos-wrapped serial executor."""
    chaos = ChaosExecutor(SerialExecutor(), policy)
    sharded = estimate_acceptance_sharded(
        spec, trials, seed=SEED, executor=chaos, shard_count=shard_count,
        retry_policy=kwargs.pop(
            "retry_policy",
            RetryPolicy(max_retries=6, backoff_base=0.001, backoff_max=0.005),
        ),
        **kwargs,
    )
    return sharded, chaos


class TestCrashIdentity:
    @pytest.mark.parametrize("shard_count", [1, 2, 8])
    @pytest.mark.parametrize(
        "spec_maker",
        [
            lambda: small_spec("vector"),
            lambda: noisy_spec("vector"),
            lambda: noisy_spec("compat"),
            lambda: small_spec("compat"),
        ],
    )
    def test_crash_schedule_preserves_estimate(self, spec_maker, shard_count):
        spec = spec_maker()
        policy = FaultPolicy(seed=3, crash_rate=0.4)
        sharded, chaos = _chaos_run(spec, policy, shard_count=shard_count)
        assert sharded.estimate == _single(spec)
        assert sharded.report.ok
        crashes = [entry for entry in chaos.injected if entry[2] == "crash"]
        assert sharded.report.retries == len(crashes)
        assert all(f.kind == "error" for f in sharded.report.failures)

    def test_eight_shard_run_actually_retried(self):
        # Guard against a vacuous theorem: seed 3 at rate 0.4 must inject
        # at least one crash over 8 first attempts (asserted, not assumed).
        policy = FaultPolicy(seed=3, crash_rate=0.4)
        assert any(policy.decide(i, 0) == "crash" for i in range(8))
        sharded, chaos = _chaos_run(noisy_spec(), policy)
        assert sharded.report.retries > 0
        assert sharded.estimate == _single(noisy_spec())

    def test_slow_faults_are_observational(self):
        policy = FaultPolicy(seed=5, slow_rate=1.0, slow_delay=0.001)
        sharded, chaos = _chaos_run(small_spec(), policy)
        assert sharded.estimate == _single(small_spec())
        assert sharded.report.ok and not sharded.report.failures
        assert all(kind == "slow" for _, _, kind in chaos.injected)

    def test_hang_with_timeout_recovers_and_preserves_estimate(self):
        # Pick (purely, by walking the seeded schedule) a chaos seed that
        # hangs at least one first attempt and nothing on retry, then let
        # the heartbeat deadline reclaim it.
        def schedule_fits(seed):
            policy = FaultPolicy(seed=seed, hang_rate=0.3, hang_limit=5.0)
            return any(
                policy.decide(i, 0) == "hang" for i in range(8)
            ) and all(policy.decide(i, 1) is None for i in range(8))

        seed = next(s for s in range(500) if schedule_fits(s))
        policy = FaultPolicy(seed=seed, hang_rate=0.3, hang_limit=5.0)
        spec = noisy_spec()
        sharded, chaos = _chaos_run(
            spec, policy,
            retry_policy=RetryPolicy(
                max_retries=3, shard_timeout=0.05,
                backoff_base=0.001, backoff_max=0.005, kill_grace=5.0,
            ),
        )
        assert sharded.estimate == _single(spec)
        assert sharded.report.ok
        assert sharded.report.timeouts >= 1
        assert any(f.kind == "timeout" for f in sharded.report.failures)

    def test_wilson_stop_still_satisfied_under_chaos(self, set_chunk):
        # The Wilson stop composes with supervision: the stopped estimate
        # must satisfy the stop rule it claims, crashes and all, and the
        # booked prefix is the single-process stop.
        policy = FaultPolicy(seed=3, crash_rate=0.3)
        set_chunk(32)
        sharded, chaos = _chaos_run(
            small_spec(), policy, shard_count=8, trials=4000,
            stop_halfwidth=0.05, min_trials=64,
        )
        assert sharded.stopped_early
        assert sharded.estimate.trials < 4000
        low, high = sharded.estimate.interval
        assert high - low <= 2 * 0.05
        assert sharded.prefix == estimate_acceptance_fast(
            small_spec().resolve(), 4000, seed=SEED, stop_halfwidth=0.05, min_trials=64
        )

    def test_zero_retries_propagates_crash_from_estimator(self):
        chaos = ChaosExecutor(SerialExecutor(), FaultPolicy(seed=1, crash_rate=1.0))
        with pytest.raises(ChaosWorkerCrash):
            estimate_acceptance_sharded(
                small_spec(), TRIALS, seed=SEED, executor=chaos, shard_count=4
            )

    def test_quarantine_merges_completed_shards_only(self):
        # Shard attempts always crash: every shard quarantines, the merge
        # covers zero trials, and the report says so instead of raising.
        policy = FaultPolicy(seed=1, crash_rate=1.0)
        sharded, chaos = _chaos_run(
            small_spec(), policy, shard_count=4,
            retry_policy=RetryPolicy(max_retries=1, backoff_base=0.001),
        )
        report = sharded.report
        assert not report.ok
        assert len(report.quarantined) == 4
        assert all(q.attempts == 2 for q in report.quarantined)
        assert sharded.estimate.trials == 0
        assert sharded.stopped_early  # short of the requested budget
        payload = report.as_dict()
        assert payload["ok"] is False
        assert json.dumps(payload)  # reports are JSON-serializable


# ---------------------------------------------------------------------------
# the supervisor in isolation: deadlines, late completions, quarantine
# ---------------------------------------------------------------------------


def _toy_payloads(shard_count=2, trials_per_shard=10):
    shards = ShardPlanner(shard_count=shard_count).plan(
        shard_count * trials_per_shard, shard_count
    )
    return [(None, shard, {}) for shard in shards]


def _complete(shard):
    return ShardResult(shard=shard, accepted=shard.trials, trials=shard.trials)


class TestShardSupervisor:
    def test_timeout_then_retry_succeeds(self):
        # Attempt 0 of shard 0 hangs cooperatively; the deadline abandons
        # it, the hung body observes its stop and dies, the retry completes.
        attempts = {}

        def body(payload, should_stop, publish=None):
            _, shard, _ = payload
            attempt = attempts.get(shard.index, 0)
            attempts[shard.index] = attempt + 1
            if shard.index == 0 and attempt == 0:
                while not should_stop():
                    time.sleep(0.005)
                raise RuntimeError("hung attempt stopped")
            return _complete(shard)

        supervisor = ShardSupervisor(
            SerialExecutor(), body, _toy_payloads(shard_count=2),
            policy=RetryPolicy(
                max_retries=2, shard_timeout=0.05,
                backoff_base=0.001, backoff_max=0.005, kill_grace=10.0,
            ),
            tick=0.005,
        )
        results, report = supervisor.run()
        assert sorted(results) == [0, 1]
        assert report.ok
        assert report.timeouts == 1 and report.retries == 1
        timeout_failures = [f for f in report.failures if f.kind == "timeout"]
        assert [f.shard_index for f in timeout_failures] == [0]

    def test_late_completion_from_abandoned_attempt_is_accepted(self):
        # The attempt ignores its stop and finishes anyway after the
        # deadline: bit-identical work, so the supervisor keeps it instead
        # of re-running the shard.
        def body(payload, should_stop, publish=None):
            _, shard, _ = payload
            time.sleep(0.15)
            return _complete(shard)

        supervisor = ShardSupervisor(
            SerialExecutor(), body, _toy_payloads(shard_count=1),
            policy=RetryPolicy(
                max_retries=3, shard_timeout=0.03,
                backoff_base=0.001, backoff_max=0.005, kill_grace=10.0,
            ),
            tick=0.005,
        )
        results, report = supervisor.run()
        assert sorted(results) == [0]
        assert report.timeouts == 1
        assert report.attempts[0] == 1  # the late result beat the retry

    def test_quarantine_keeps_siblings(self):
        def body(payload, should_stop, publish=None):
            _, shard, _ = payload
            if shard.index == 1:
                raise RuntimeError("poisoned shard")
            return _complete(shard)

        supervisor = ShardSupervisor(
            SerialExecutor(), body, _toy_payloads(shard_count=3),
            policy=RetryPolicy(max_retries=1, backoff_base=0.001),
            tick=0.005,
        )
        results, report = supervisor.run()
        assert sorted(results) == [0, 2]
        assert not report.ok
        assert [q.shard.index for q in report.quarantined] == [1]
        assert report.attempts[1] == 2  # 1 dispatch + 1 retry
        assert len(report.quarantined[0].failures) == 2

    def test_request_stop_skips_unstarted_shards(self):
        started = []
        release = threading.Event()

        def body(payload, should_stop, publish=None):
            _, shard, _ = payload
            started.append(shard.index)
            release.wait(2.0)
            return _complete(shard)

        supervisor = ShardSupervisor(
            SerialExecutor(), body, _toy_payloads(shard_count=4), tick=0.005
        )

        def stop_soon():
            while not started:
                time.sleep(0.002)
            supervisor.request_stop()
            release.set()

        stopper = threading.Thread(target=stop_soon)
        stopper.start()
        results, report = supervisor.run()
        stopper.join()
        # The serial backend runs one dispatch at a time: the stop landed
        # while shard 0 was in flight, so later shards never started.
        assert report.ok
        assert len(started) < 4

    def test_request_stop_reaches_in_flight_dispatch_at_once(self):
        seen = []

        def body(payload, should_stop, publish=None):
            _, shard, _ = payload
            supervisor.request_stop()  # a stop while the shard runs
            seen.append(should_stop())  # no tick later: already stopped
            return ShardResult(shard=shard, accepted=1, trials=1)

        supervisor = ShardSupervisor(SerialExecutor(), body, _toy_payloads(shard_count=3))
        results, report = supervisor.run()
        assert seen == [True]  # later shards were never dispatched
        assert sorted(results) == [0] and report.ok

    def test_converged_partial_result_is_accepted(self):
        # Shard 0 that stopped on the run's rule is short of its range but
        # complete: no failure, no retry.  Every publish is a heartbeat.
        def body(payload, should_stop, publish=None):
            _, shard, _ = payload
            publish(shard.index, 1, 1)
            publish(shard.index, 2, 2)
            if shard.index == 0:
                return ShardResult(shard=shard, accepted=2, trials=2, converged=True)
            return _complete(shard)

        supervisor = ShardSupervisor(SerialExecutor(), body, _toy_payloads(shard_count=3))
        results, report = supervisor.run()
        assert sorted(results) == [0, 1, 2] and results[0].trials == 2
        assert report.ok and not report.failures and report.retries == 0
        assert supervisor.progress_updates == 6

    def test_zero_retries_propagates_the_shard_exception(self):
        def body(payload, should_stop, publish=None):
            _, shard, _ = payload
            if shard.index == 1:
                raise KeyError("poisoned shard")
            return _complete(shard)

        supervisor = ShardSupervisor(
            SerialExecutor(), body, _toy_payloads(shard_count=3),
            policy=RetryPolicy(max_retries=0),
        )
        with pytest.raises(KeyError, match="poisoned shard"):
            supervisor.run()

    def test_zero_retries_still_quarantines_a_timeout(self):
        def body(payload, should_stop, publish=None):
            _, shard, _ = payload
            if shard.index == 0:
                while not should_stop():
                    time.sleep(0.005)
                raise RuntimeError("hung attempt stopped")
            return _complete(shard)

        with ConcurrentSerialExecutor(2) as executor:
            supervisor = ShardSupervisor(
                executor, body, _toy_payloads(shard_count=2),
                policy=RetryPolicy(
                    max_retries=0, shard_timeout=0.05, kill_grace=5.0
                ),
                tick=0.005,
            )
            results, report = supervisor.run()
        assert sorted(results) == [1]
        assert [q.shard.index for q in report.quarantined] == [0]
        assert report.timeouts == 1

    def test_duplicate_shard_indices_rejected(self):
        payloads = _toy_payloads(shard_count=1) * 2
        with pytest.raises(ValueError):
            ShardSupervisor(SerialExecutor(), lambda *a: None, payloads)


# ---------------------------------------------------------------------------
# campaign degradation: skip / retry / resume / interrupt
# ---------------------------------------------------------------------------


def _campaign_with_poisoned_cell():
    good = Cell(name="good", spec=small_spec(), trials=64, seed=SEED)
    bad = Cell(
        name="bad",
        spec=PlanSpec.of(compiled_spanning_tree, bogus_size=3),
        trials=64,
        seed=SEED,
    )
    tail = Cell(name="tail", spec=noisy_spec(), trials=64, seed=SEED)
    return Campaign(name="degrade", cells=(good, bad, tail))


class TestCampaignDegradation:
    @pytest.mark.parametrize("cell_parallelism", [1, 2])
    def test_skip_records_failure_and_runs_siblings(self, tmp_path, cell_parallelism):
        campaign = _campaign_with_poisoned_cell()
        sink = JsonlSink(tmp_path / "degrade.jsonl")
        records = run_campaign(
            campaign, sink=sink, on_cell_error="skip",
            cell_parallelism=cell_parallelism,
        )
        assert [r["cell"] for r in records] == ["good", "bad", "tail"]
        statuses = [r.get("status") for r in records]
        assert statuses == ["ok", "failed", "ok"]
        failed = records[1]
        assert failed["error"]["type"] == "TypeError"
        assert failed["requested_trials"] == 64
        # The sink file holds all three records, in declaration order.
        lines = [json.loads(line) for line in sink.path.read_text().splitlines()]
        assert [r["cell"] for r in lines] == ["good", "bad", "tail"]

    def test_resume_reattempts_only_failed_cells(self, tmp_path):
        cells = (
            Cell(name="good", spec=small_spec(), trials=64, seed=SEED),
            flaky_cell(),
        )
        campaign = Campaign(name="resume-failed", cells=cells)
        path = tmp_path / "resume.jsonl"
        _FLAKY["remaining"] = 1  # the flaky cell fails its first campaign
        first = run_campaign(campaign, sink=JsonlSink(path), on_cell_error="skip")
        assert [r.get("status") for r in first] == ["ok", "failed"]
        # Resume: the good cell is complete, the failed cell re-runs and
        # succeeds now that the transient failure cleared.
        second = run_campaign(campaign, sink=JsonlSink(path), on_cell_error="skip")
        assert [r["cell"] for r in second] == ["flaky"]
        assert second[0]["status"] == "ok"
        # Third resume: nothing left.
        third = run_campaign(campaign, sink=JsonlSink(path), on_cell_error="skip")
        assert third == []

    def test_retry_policy_recovers_transient_failure(self):
        campaign = Campaign(name="retry", cells=(flaky_cell(),))
        _FLAKY["remaining"] = 1
        records = run_campaign(campaign, on_cell_error="retry", cell_retries=1)
        assert [r.get("status") for r in records] == ["ok"]

    def test_retry_budget_exhaustion_degrades_to_skip(self):
        campaign = Campaign(name="retry-exhausted", cells=(flaky_cell(),))
        _FLAKY["remaining"] = 5
        records = run_campaign(campaign, on_cell_error="retry", cell_retries=1)
        assert [r.get("status") for r in records] == ["failed"]
        assert records[0]["error"]["type"] == "RuntimeError"

    def test_raise_policy_is_the_default(self, tmp_path):
        campaign = _campaign_with_poisoned_cell()
        with pytest.raises(TypeError):
            run_campaign(campaign, sink=JsonlSink(tmp_path / "raise.jsonl"))

    def test_invalid_policy_arguments(self):
        campaign = Campaign(name="args", cells=(flaky_cell(),))
        with pytest.raises(ValueError):
            run_campaign(campaign, on_cell_error="ignore")
        with pytest.raises(ValueError):
            run_campaign(campaign, on_cell_error="retry", cell_retries=-1)

    def test_failed_records_survive_jsonl_round_trip(self, tmp_path):
        campaign = _campaign_with_poisoned_cell()
        path = tmp_path / "roundtrip.jsonl"
        run_campaign(campaign, sink=JsonlSink(path), on_cell_error="skip")
        reloaded = JsonlSink(path)
        assert reloaded.torn_lines == 0
        assert [r.get("status") for r in reloaded.records] == ["ok", "failed", "ok"]
        # The failed record does not mark its cell complete after reload.
        assert not reloaded.completed(campaign.cells[1])
        assert reloaded.completed(campaign.cells[0])


class _InterruptingSink:
    """Delegate to a real sink, raising KeyboardInterrupt on write N."""

    def __init__(self, inner, interrupt_at):
        self.inner = inner
        self.interrupt_at = interrupt_at
        self.writes = 0

    def completed(self, cell):
        return self.inner.completed(cell)

    def write(self, record):
        if self.writes == self.interrupt_at:
            raise KeyboardInterrupt()
        self.writes += 1
        self.inner.write(record)


class TestInterruptLeavesResumableSink:
    def _campaign(self):
        return Campaign(
            name="interrupt",
            cells=tuple(
                Cell(name=f"cell-{i}", spec=small_spec(), trials=64, seed=i)
                for i in range(3)
            ),
        )

    @pytest.mark.parametrize("executor,workers,parallelism", [
        ("serial", None, 1),
        ("serial", None, 2),
        ("concurrent", None, 2),
    ])
    def test_interrupt_mid_campaign_is_resumable(
        self, tmp_path, executor, workers, parallelism
    ):
        if executor == "concurrent":
            executor = ConcurrentSerialExecutor(2)
        campaign = self._campaign()
        path = tmp_path / "interrupted.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                campaign,
                executor=executor,
                workers=workers,
                sink=_InterruptingSink(JsonlSink(path), interrupt_at=1),
                cell_parallelism=parallelism,
                on_cell_error="skip",  # the interrupt must override the policy
            )
        # The ordered prefix survived intact and parseable.
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["cell"] for r in lines] == ["cell-0"]
        # Resume completes exactly the missing cells.
        resumed = run_campaign(
            campaign, executor=executor, workers=workers,
            sink=JsonlSink(path), cell_parallelism=parallelism,
        )
        assert [r["cell"] for r in resumed] == ["cell-1", "cell-2"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parallel_proc
    def test_interrupt_mid_campaign_process_backend(self, tmp_path):
        campaign = self._campaign()
        path = tmp_path / "interrupted-proc.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                campaign,
                executor="process",
                workers=2,
                sink=_InterruptingSink(JsonlSink(path), interrupt_at=1),
                cell_parallelism=2,
            )
        # The owned pool was closed on the interrupt path: no zombies.
        assert multiprocessing.active_children() == []
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["cell"] for r in lines] == ["cell-0"]
        resumed = run_campaign(
            campaign, executor="process", workers=2, sink=JsonlSink(path)
        )
        assert [r["cell"] for r in resumed] == ["cell-1", "cell-2"]
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the CLI surface of supervision
# ---------------------------------------------------------------------------


class TestCliSupervision:
    def test_estimate_prints_supervision_summary(self, capsys):
        from repro.parallel.cli import main as cli_main

        code = cli_main(
            ["estimate", "--workload", "spanning-tree", "--trials", "96",
             "--size", "node_count=12", "--shards", "3", "--max-retries", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(96 trials)" in out
        assert "supervision: attempts=3 retries=0 timeouts=0" in out

    def test_campaign_skip_policy_reports_failures(self, tmp_path, capsys):
        from repro.parallel.cli import main as cli_main

        # Certain-crash chaos with no retry budget: every cell fails, the
        # skip policy records each failure, and the run still exits 0.
        argv = [
            "campaign", "--workloads", "spanning-tree", "--rng-modes",
            "vector,compat", "--trials", "64", "--size", "node_count=12",
            "--chaos-spec", "seed=1,crash=1", "--on-cell-error", "skip",
            "--out", str(tmp_path / "skip.jsonl"), "--fsync",
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "FAILED ChaosWorkerCrash" in out
        assert "2 cells run, 0 resumed as complete, 2 failed" in out
        lines = [
            json.loads(line)
            for line in (tmp_path / "skip.jsonl").read_text().splitlines()
        ]
        assert [r.get("status") for r in lines] == ["failed", "failed"]
        # Failed cells never mark complete: the resume re-attempts both.
        assert cli_main(argv) == 0
        assert "2 cells run, 0 resumed as complete, 2 failed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the process backend: exception-path reaping, repair, supervised identity
# ---------------------------------------------------------------------------


@pytest.mark.parallel_proc
class TestProcessExecutorLifecycle:
    def test_exit_reaps_workers_on_exception_path(self):
        # Regression: a raise inside the with-block must still tear the
        # pool down — no worker outlives the executor.
        with pytest.raises(RuntimeError):
            with ProcessExecutor(workers=2) as executor:
                estimate_acceptance_sharded(
                    small_spec(), 64, seed=SEED, executor=executor, shard_count=2
                )
                raise RuntimeError("caller bug")
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent_and_repair_after_close_raises(self):
        executor = ProcessExecutor(workers=2)
        executor.close()
        executor.close()  # second close is a no-op, not an error
        with pytest.raises(RuntimeError):
            executor.repair()
        assert multiprocessing.active_children() == []

    def test_repair_replaces_pool_and_preserves_results(self):
        spec = small_spec()
        single = _single(spec)
        with ProcessExecutor(workers=2) as executor:
            before = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor=executor, shard_count=4
            )
            executor.repair()
            assert executor.repairs == 1
            after = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor=executor, shard_count=4
            )
        assert before.estimate == single
        assert after.estimate == single
        assert multiprocessing.active_children() == []

    def test_supervised_process_run_equals_single_process(self):
        spec = noisy_spec()
        with ProcessExecutor(workers=2) as executor:
            sharded = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor=executor, shard_count=8,
                max_retries=2, shard_timeout=30.0,
            )
        assert sharded.estimate == _single(spec)
        assert sharded.report.ok
        assert multiprocessing.active_children() == []
