"""Progressive shard streaming + concurrent campaign cells (PR 5).

The load-bearing properties:

- **Observational streaming** — with no stop rule, a streamed run's merged
  counts equal the single-process estimate bit for bit, for 1/2/8 shards on
  every backend and every rng mode: the progress channel never changes
  which trials run or what they decide.
- **Mid-shard stop** — with ``stop_halfwidth`` set, a run stops its
  in-flight shards between chunks once its booked prefix converges, well
  before the budget; every shard's counts stay an exact counter prefix.
- **Concurrent cells** — a cell-parallel campaign writes records to the
  sink in campaign declaration order, identical (minus wall-clock) to the
  serial-cell run; errors propagate and never corrupt the ordered prefix.
- **Zero-trial estimates** — ``probability``/``interval`` are ``nan``, not
  exceptions, so a pre-satisfied stop can produce empty estimates safely.

Process-backend tests carry the ``parallel_proc`` marker; `make
test-stream` forces them on (mirroring ``make test-parallel``).
"""

import json
import math
import multiprocessing
import sys
import threading
import time

import pytest

from repro.engine import estimate_acceptance_fast
from repro.parallel import (
    Campaign,
    Cell,
    JsonlSink,
    PlanSpec,
    ProcessExecutor,
    estimate_acceptance_sharded,
    run_campaign,
    workload_spec,
)
from repro.parallel.factories import compiled_spanning_tree
from repro.parallel.progress import RunHandle, StopToken
from repro.parallel.spec import clear_process_caches
from repro.simulation.metrics import AcceptanceEstimate

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


def _single(spec):
    return estimate_acceptance_fast(spec.resolve(), TRIALS, seed=SEED)


class SlowPlan:
    """A plan whose chunks take real wall-clock — the synthetic slow workload.

    Delegates everything to a genuine compiled plan but sleeps before each
    chunk, so stop-granularity differences translate into measurable trial
    counts without needing a big budget.
    """

    def __init__(self, plan, delay=0.001):
        self._plan = plan
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._plan, name)

    def prepare(self):
        self._plan.prepare()
        return self

    def trial_verdicts(self, seeds, *args, **kwargs):
        time.sleep(self._delay)
        return self._plan.trial_verdicts(seeds, *args, **kwargs)


# ---------------------------------------------------------------------------
# the progress hook of estimate_acceptance_fast
# ---------------------------------------------------------------------------


class TestProgressHook:
    def test_progress_reports_cumulative_counts_per_chunk(self, set_chunk):
        plan = small_spec().resolve()
        updates = []
        set_chunk(32)
        estimate = estimate_acceptance_fast(
            plan, 100, seed=SEED,
            progress=lambda accepted, done: updates.append((accepted, done)),
        )
        assert [done for _, done in updates] == [32, 64, 96, 100]
        assert updates[-1] == (estimate.accepted, estimate.trials)
        # Cumulative, monotone counts: each update is a valid prefix estimate.
        for (prev_acc, prev_done), (acc, done) in zip(updates, updates[1:]):
            assert acc >= prev_acc and done > prev_done
            assert acc - prev_acc <= done - prev_done

    def test_progress_is_observational(self):
        plan = noisy_spec().resolve()
        with_channel = estimate_acceptance_fast(
            plan, TRIALS, seed=SEED, progress=lambda a, n: None
        )
        without = estimate_acceptance_fast(plan, TRIALS, seed=SEED)
        assert with_channel == without

    def test_constant_verdict_publishes_degenerate_counts(self):
        class ConstantPlan:
            rng_mode = "vector"
            vector_ready = False
            constant_verdict = False

        updates = []
        estimate = estimate_acceptance_fast(
            ConstantPlan(), 50, progress=lambda a, n: updates.append((a, n))
        )
        assert updates == [(0, 50)]
        assert (estimate.accepted, estimate.trials) == (0, 50)


# ---------------------------------------------------------------------------
# no-stop streamed determinism: merged == single-process on every backend
# ---------------------------------------------------------------------------


class TestStreamedDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("rng_mode", ["compat", "vector"])
    def test_serial_streamed_matches_single_process(self, shards, rng_mode):
        spec = small_spec(rng_mode=rng_mode)
        streamed = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=shards,
        )
        assert streamed.estimate == _single(spec)
        assert streamed.progress_updates > 0
        assert not streamed.stopped_early

    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("rng_mode", ["compat", "vector"])
    def test_concurrent_streamed_matches_single_process(self, shards, rng_mode):
        spec = small_spec(rng_mode=rng_mode)
        streamed = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor=ConcurrentSerialExecutor(2),
            shard_count=shards,
        )
        assert streamed.estimate == _single(spec)
        assert streamed.progress_updates > 0

    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("executor", ["serial", "concurrent"])
    def test_scalar_counter_path_streams_exactly(self, executor, shards):
        # vector mode without a kernel (the noisy channel): scalar CounterRng
        # draws, two-sided verdicts, streamed in-process with one shard in
        # flight (serial) and two (concurrent).
        spec = noisy_spec("vector")
        assert spec.resolve().kernel_path == "scalar"
        if executor == "concurrent":
            executor = ConcurrentSerialExecutor(2)
        streamed = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor=executor, shard_count=shards,
        )
        assert streamed.estimate == _single(spec)
        assert streamed.progress_updates > 0

    def test_two_sided_streamed_counts_merge_exactly(self):
        spec = noisy_spec()
        single = _single(spec)
        assert 0 < single.accepted < single.trials
        streamed = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=8,
        )
        assert streamed.estimate == single


@pytest.mark.parallel_proc
class TestProcessStreaming:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("rng_mode", ["compat", "vector"])
    def test_process_streamed_matches_single_process(self, shards, rng_mode):
        spec = small_spec(rng_mode=rng_mode)
        with ProcessExecutor(workers=2) as executor:
            streamed = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor=executor, shard_count=shards,
            )
        assert streamed.estimate == _single(spec)
        assert streamed.progress_updates > 0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_process_streamed_scalar_counter_path(self, shards):
        # The CounterRng scalar path across the pickle boundary: workers
        # rebuild the noisy plan and replay the parent's counter-addressed trials.
        spec = noisy_spec("vector")
        with ProcessExecutor(workers=2) as executor:
            streamed = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor=executor, shard_count=shards,
            )
        assert streamed.estimate == _single(spec)
        assert multiprocessing.active_children() == []

    def test_process_streamed_stop_saves_trials(self):
        spec = small_spec()
        with ProcessExecutor(workers=2) as executor:
            streamed = estimate_acceptance_sharded(
                spec, 20000, seed=SEED, executor=executor, shard_count=16,
                stop_halfwidth=0.05, min_trials=100,
            )
        assert streamed.stopped_early
        assert streamed.estimate.trials < 20000
        assert multiprocessing.active_children() == []

    def test_slot_recycling_across_sequential_runs(self):
        # Each run borrows a stop-board slot; finished runs must hand it
        # back, or a long campaign would exhaust the fixed board.
        spec = small_spec()
        with ProcessExecutor(workers=2) as executor:
            for _ in range(5):
                estimate_acceptance_sharded(
                    spec, 128, seed=SEED, executor=executor, shard_count=2,
                )
            assert len(executor._free_slots) == len(executor._board)
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the stop halts shards mid-range
# ---------------------------------------------------------------------------


class TestChunkGranularStop:
    def test_streamed_stop_saves_trials_on_serial(self, set_chunk):
        # Serial is fully deterministic: shard 0 stops on the first trial
        # whose Wilson interval is narrow enough, well before the first
        # 1000-trial shard completes — a pure function of inputs.
        spec = small_spec()
        set_chunk(32)
        kwargs = dict(
            seed=SEED, executor="serial", shard_count=4,
            stop_halfwidth=0.05, min_trials=64,
        )
        streamed = estimate_acceptance_sharded(spec, 4000, **kwargs)
        assert streamed.stopped_early
        assert streamed.estimate.trials < 1000
        # Trial-exact: the run is the single-process stop.
        assert streamed.estimate == streamed.prefix == estimate_acceptance_fast(
            spec.resolve(), 4000, seed=SEED, stop_halfwidth=0.05, min_trials=64
        )
        # Deterministic: the stop point reproduces exactly.
        again = estimate_acceptance_sharded(spec, 4000, **kwargs)
        assert again.estimate == streamed.estimate

    def test_streamed_stop_on_slow_synthetic_plan_concurrent_shards(self, set_chunk):
        # The synthetic slow plan makes chunks take real time, so the
        # mid-shard stop observably cancels in-flight shards when two run
        # at once as well (counts here are timing-dependent; the assertions
        # are the guarantees, not the exact stop point).
        plan = SlowPlan(small_spec().resolve(), delay=0.002)
        set_chunk(25)
        streamed = estimate_acceptance_sharded(
            plan, 4000, seed=SEED, executor=ConcurrentSerialExecutor(2), shard_count=8,
            stop_halfwidth=0.05, min_trials=50,
        )
        assert streamed.stopped_early
        assert streamed.estimate.trials < 4000
        # Every executed trial kept its verdict (all-accept workload).
        assert streamed.estimate.accepted == streamed.estimate.trials

    def test_stop_under_thread_contention_keeps_counts_exact(self, set_chunk):
        # More workers than cores and a tiny switch interval: stops racing
        # dispatches and partials must still merge exact per-shard prefixes,
        # and the booked prefix satisfies the stop rule the run claims.
        spec = noisy_spec()
        plan = spec.resolve()
        set_chunk(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for seed in range(2):
                sharded = estimate_acceptance_sharded(
                    spec, 2000, seed=seed, executor=ConcurrentSerialExecutor(8),
                    shard_count=16, stop_halfwidth=0.05, min_trials=64,
                )
                assert sharded.stopped_early and sharded.report.ok
                low, high = sharded.prefix.interval
                assert high - low <= 2 * 0.05
                for result in sharded.shard_results:
                    if result.trials:
                        replay = estimate_acceptance_fast(
                            plan, result.trials, seed=seed,
                            first_trial=result.shard.start,
                        )
                        assert replay == result.estimate
        finally:
            sys.setswitchinterval(interval)

    def test_streamed_never_worse_than_requested_budget_without_stop(self):
        spec = noisy_spec()
        streamed = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=4,
        )
        assert streamed.estimate.trials == TRIALS


# ---------------------------------------------------------------------------
# concurrent campaign cells
# ---------------------------------------------------------------------------


class TestConcurrentCells:
    def _campaign(self):
        return Campaign.sweep(
            "cells",
            ["spanning-tree", ("shared-coins", {"node_count": 12})],
            rng_modes=("vector",),
            trial_budgets=(64, 96),
        )

    @staticmethod
    def _stripped(path):
        """Sink records with the wall-clock fields removed."""
        records = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("elapsed_sec")
            for key in ("started_unix", "finished_unix", "duration_sec"):
                record["supervision"].pop(key)
            records.append(record)
        return records

    def test_concurrent_cells_match_serial_cells_byte_for_byte(self, tmp_path):
        campaign = self._campaign()
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        run_campaign(campaign, executor="serial", sink=JsonlSink(serial_path))
        run_campaign(campaign, executor="serial",
                     sink=JsonlSink(parallel_path), cell_parallelism=4)
        # Identical records in identical (campaign declaration) order —
        # the wall-clock fields are the only ones allowed to differ.
        assert self._stripped(serial_path) == self._stripped(parallel_path)

    def test_streamed_concurrent_cells_keep_exact_counts(self, tmp_path):
        campaign = self._campaign()
        sink = JsonlSink(tmp_path / "streamed.jsonl")
        records = run_campaign(
            campaign, executor="serial", sink=sink, cell_parallelism=3,
        )
        assert [r["cell"] for r in records] == [c.name for c in campaign.cells]
        for record, cell in zip(records, campaign.cells):
            single = estimate_acceptance_fast(
                cell.spec.resolve(), cell.trials, seed=cell.seed
            )
            assert (record["accepted"], record["trials"]) == (
                single.accepted, single.trials,
            ), record["cell"]

    def test_resume_skips_before_scheduling(self, tmp_path):
        campaign = self._campaign()
        path = tmp_path / "resume.jsonl"
        first = run_campaign(campaign, sink=JsonlSink(path), cell_parallelism=2)
        assert len(first) == len(campaign.cells)
        second = run_campaign(campaign, sink=JsonlSink(path), cell_parallelism=2)
        assert second == []
        assert len(path.read_text().splitlines()) == len(campaign.cells)

    def test_cell_failure_propagates_and_keeps_ordered_prefix(self, tmp_path):
        good = Cell(name="good", spec=small_spec(), trials=64)
        # A spec whose factory rejects its kwargs: resolution raises in the
        # scheduler thread and must surface in the caller.
        bad = Cell(
            name="bad",
            spec=PlanSpec.of(compiled_spanning_tree, bogus_size=3),
            trials=64,
        )
        campaign = Campaign(name="fails", cells=(good, bad))
        sink = JsonlSink(tmp_path / "fails.jsonl")
        with pytest.raises(TypeError):
            run_campaign(campaign, sink=sink, cell_parallelism=2)
        for line in (tmp_path / "fails.jsonl").read_text().splitlines():
            assert json.loads(line)["cell"] == "good"

    def test_invalid_cell_parallelism(self):
        with pytest.raises(ValueError):
            run_campaign(self._campaign(), cell_parallelism=0)

    def test_duplicate_key_cells_run_once(self):
        # Two cells with distinct names but one resume key (same
        # spec/trials/seed) must produce one record, serial or concurrent —
        # the key claim happens at scheduling, so the scheduler can never
        # race two copies of the same estimation job.
        cells = (
            Cell(name="first", spec=small_spec(), trials=64),
            Cell(name="copy", spec=small_spec(), trials=64),
        )
        campaign = Campaign(name="dup-key", cells=cells)
        for parallelism in (1, 2):
            records = run_campaign(campaign, cell_parallelism=parallelism)
            assert [r["cell"] for r in records] == ["first"]

    def test_sink_write_failure_propagates_from_scheduler(self):
        # Regression: a failing sink used to kill the scheduler thread
        # silently and run_campaign returned success with records lost.
        class ExplodingSink:
            def completed(self, cell):
                return False

            def write(self, record):
                raise IOError("disk full")

        with pytest.raises(IOError):
            run_campaign(self._campaign(), sink=ExplodingSink(),
                         cell_parallelism=2)

    def test_adaptive_concurrent_cells_match_serial_cells(self):
        # The adaptive rounds share the fixed path's round scheduler: at any
        # cell parallelism, the serial executor books the same installments.
        campaign = Campaign(
            name="adaptive-cells",
            cells=self._campaign().cells
            + (Cell(name="noisy", spec=noisy_spec(), trials=64),),
        )
        kwargs = dict(executor="serial", global_budget=4000, target_halfwidth=0.03)
        serial = run_campaign(campaign, cell_parallelism=1, **kwargs)
        concurrent = run_campaign(campaign, cell_parallelism=4, **kwargs)

        def stripped(records):
            return [
                {k: v for k, v in record.items() if k != "elapsed_sec"}
                for record in records
            ]

        assert stripped(concurrent) == stripped(serial)
        assert [r["cell"] for r in serial] == [c.name for c in campaign.cells]
        assert serial[-1]["allocation"]["rounds"] > 1

    @pytest.mark.parametrize(
        "cause,budget",
        [
            ("cell", {}),
            ("cell", {"global_budget": 2000, "target_halfwidth": 0.05}),
            ("sink", {}),
        ],
        ids=["fixed-cell", "adaptive-cell", "fixed-sink"],
    )
    def test_failed_campaign_leaves_no_cell_threads(self, cause, budget):
        class ExplodingSink:
            def completed(self, cell):
                return False

            def write(self, record):
                raise IOError("disk full")

        good = tuple(
            Cell(name=f"good-{seed}", spec=small_spec(), trials=96, seed=seed)
            for seed in range(4)
        )
        bad = Cell(
            name="bad",
            spec=PlanSpec.of(compiled_spanning_tree, bogus_size=3),
            trials=64,
        )
        cells = good[:1] + (bad,) + good[1:] if cause == "cell" else good
        sink = ExplodingSink() if cause == "sink" else None
        # Holding the traceback keeps run_campaign's frame alive: the round
        # must be closed and its team joined before the call returns.
        with pytest.raises((TypeError, IOError)) as raised:
            run_campaign(
                Campaign(name="fails", cells=cells),
                sink=sink,
                cell_parallelism=2,
                on_cell_error="raise",
                **budget,
            )
        alive = [t.name for t in threading.enumerate() if t.name.startswith("repro-cell")]
        assert alive == [], raised.traceback


class TestRunHandleStop:
    """A run's own handle stops it in flight: later shards never start."""

    def test_request_stop_cancels_in_flight_run(self, set_chunk):
        from repro.parallel import SerialExecutor
        from repro.parallel.executors import _run_shard
        from repro.parallel.shards import ShardPlanner

        spec = small_spec()
        plan = spec.resolve().prepare()
        executor = SerialExecutor()
        set_chunk(64)
        options = {"seed": SEED, "rng_mode": None}
        shards = ShardPlanner(shard_count=4).plan(256)
        handle = executor.start_run(
            _run_shard, [(plan, shard, options) for shard in shards]
        )
        results = handle.results()
        next(results)  # first shard done
        handle.request_stop()  # the run's own stop, mid-run
        remaining = list(results)
        # Shards after the stop were skipped, not run.
        assert len(remaining) < len(shards) - 1 or all(
            r.trials == 0 for r in remaining
        )

    def _stop_one_run(self, executor, payload_target):
        from repro.parallel.executors import _run_shard
        from repro.parallel.shards import ShardPlanner

        options = {"seed": SEED, "rng_mode": None}
        shards = ShardPlanner(shard_count=4).plan(256)
        with executor.start_run(
            _run_shard, [(payload_target, shard, options) for shard in shards]
        ) as handle:
            results = handle.results()
            next(results)
            handle.request_stop()
            list(results)

    def test_serial_executor_usable_after_request_stop(self):
        from repro.parallel import SerialExecutor

        spec = small_spec()
        with SerialExecutor() as executor:
            self._stop_one_run(executor, spec.resolve().prepare())
            sharded = estimate_acceptance_sharded(
                spec, 128, seed=SEED, executor=executor, shard_count=2
            )
        # A stopped run's stop must not stick to the executor's next run.
        assert sharded.estimate.trials == 128

    def test_concurrent_executor_usable_after_request_stop(self):
        spec = small_spec()
        with ConcurrentSerialExecutor(2) as executor:
            self._stop_one_run(executor, spec.resolve().prepare())
            sharded = estimate_acceptance_sharded(
                spec, 128, seed=SEED, executor=executor, shard_count=2
            )
        assert sharded.estimate.trials == 128

    @pytest.mark.parallel_proc
    def test_process_executor_usable_after_request_stop(self):
        # The stopped run's stop-board slot goes back to the free list and
        # the next run takes it: its flag must be cleared on reuse.
        spec = small_spec()
        with ProcessExecutor(workers=2) as executor:
            self._stop_one_run(executor, spec)
            sharded = estimate_acceptance_sharded(
                spec, 128, seed=SEED, executor=executor, shard_count=2
            )
        assert sharded.estimate.trials == 128
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# zero-trial estimates (the cooperative-stop edge case)
# ---------------------------------------------------------------------------


class TestZeroTrialEstimate:
    def test_probability_and_interval_are_nan(self):
        empty = AcceptanceEstimate(0, 0)
        assert math.isnan(empty.probability)
        assert all(math.isnan(bound) for bound in empty.interval)

    def test_nan_estimates_format_and_certify_nothing(self):
        empty = AcceptanceEstimate(0, 0)
        assert "0 trials" in str(empty)  # __str__ no longer raises
        assert not empty.at_least(0.0)
        assert not empty.at_most(1.0)

    def test_merge_identity_still_holds(self):
        merged = AcceptanceEstimate.merge([AcceptanceEstimate(0, 0)])
        assert merged == AcceptanceEstimate(0, 0)
        assert math.isnan(merged.probability)

    def test_pre_satisfied_stop_produces_nan_record_not_crash(self):
        # A should_stop that is true before the first chunk yields the
        # zero-trial estimate; formatting and records must survive it.
        plan = small_spec().resolve()
        estimate = estimate_acceptance_fast(
            plan, 100, seed=SEED, should_stop=lambda: True
        )
        assert (estimate.accepted, estimate.trials) == (0, 0)
        assert math.isnan(estimate.probability)
        json.dumps({"probability": estimate.probability})  # nan-safe via float


# ---------------------------------------------------------------------------
# RunHandle lifecycle (PR 8): a handle that is never iterated must still
# release its backend resources — closing the result generator alone cannot,
# because a never-started generator's body (and finally) does not run.
# ---------------------------------------------------------------------------


class TestRunHandleLifecycle:
    def _handle(self):
        released = []
        started = []
        token = StopToken()

        def shard_results():
            started.append(True)
            yield "shard-0"
            yield "shard-1"

        handle = RunHandle(
            shard_results(), token, on_finish=lambda: released.append(True)
        )
        return handle, token, released, started

    def test_never_iterated_close_releases_and_requests_stop(self):
        handle, token, released, started = self._handle()
        handle.close()
        assert released == [True]  # on_finish ran, exactly once
        assert token.stopped  # this run's workers were asked to stop
        assert started == []  # the generator body never executed

    def test_close_is_idempotent(self):
        handle, _, released, _ = self._handle()
        handle.close()
        handle.close()
        assert released == [True]

    def test_close_after_completed_iteration_is_noop(self):
        handle, token, released, _ = self._handle()
        assert list(handle.results()) == ["shard-0", "shard-1"]
        assert released == [True]
        handle.close()
        assert released == [True]
        assert not token.stopped  # a completed run is never stop-requested

    def test_context_manager_releases_without_iteration(self):
        handle, token, released, _ = self._handle()
        with handle:
            pass
        assert released == [True]
        assert token.stopped

    def test_context_manager_releases_on_error_before_first_result(self):
        handle, token, released, _ = self._handle()
        with pytest.raises(RuntimeError, match="died before"):
            with handle:
                raise RuntimeError("died before the first next()")
        assert released == [True]
        assert token.stopped

    def test_abandoned_results_generator_releases_once(self):
        handle, _, released, _ = self._handle()
        results = handle.results()
        next(results)
        results.close()  # the started-generator finally path
        assert released == [True]
        handle.close()  # and close() afterwards stays a no-op
        assert released == [True]


@pytest.mark.parallel_proc
class TestProcessHandleRelease:
    def _payloads(self, spec, shard_count=2, trials=128):
        from repro.parallel.shards import ShardPlanner

        options = {"seed": SEED, "rng_mode": spec.rng_mode}
        shards = ShardPlanner(shard_count=shard_count).plan(trials)
        return [(spec, shard, options) for shard in shards]

    def test_never_iterated_handle_frees_slot_and_subscription(self):
        from repro.parallel.executors import STOP_SLOTS, _run_shard

        spec = small_spec()
        with ProcessExecutor(workers=2) as executor:
            handle = executor.start_run(
                _run_shard, self._payloads(spec), on_progress=lambda *update: None
            )
            handle.close()  # abandoned: results() never called
            assert len(executor._free_slots) == STOP_SLOTS
            assert executor._router._subscribers == {}
            # The pool survived the teardown: a full run still works.
            sharded = estimate_acceptance_sharded(
                spec, 128, seed=SEED, executor=executor, shard_count=2
            )
            assert sharded.estimate.trials == 128
        assert multiprocessing.active_children() == []

    def test_refused_submission_frees_slot_and_subscription(self):
        from repro.parallel.executors import STOP_SLOTS, _run_shard

        spec = small_spec()
        with ProcessExecutor(workers=1) as executor:
            executor._pool.shutdown(wait=True)  # submissions now raise
            with pytest.raises(RuntimeError):
                executor.start_run(
                    _run_shard, self._payloads(spec), on_progress=lambda *a: None
                )
            assert len(executor._free_slots) == STOP_SLOTS
            assert executor._router._subscribers == {}
        assert multiprocessing.active_children() == []

    def test_stop_after_release_spares_the_next_run_in_its_slot(self):
        from repro.parallel.executors import _run_shard

        spec = small_spec()
        with ProcessExecutor(workers=2) as executor:
            first = executor.start_run(
                _run_shard, self._payloads(spec, shard_count=1, trials=64)
            )
            assert [r.trials for r in first.results()] == [64]
            # The next run takes the slot the first one just released.
            second = executor.start_run(
                _run_shard, self._payloads(spec, shard_count=1, trials=20000)
            )
            first.request_stop()  # stale: must not reach the new owner
            assert [r.trials for r in second.results()] == [20000]
        assert multiprocessing.active_children() == []

    def test_error_before_iteration_frees_slot_via_context_manager(self):
        from repro.parallel.executors import STOP_SLOTS, _run_shard

        spec = small_spec()
        with ProcessExecutor(workers=2) as executor:
            with pytest.raises(RuntimeError, match="caller died"):
                with executor.start_run(_run_shard, self._payloads(spec)):
                    raise RuntimeError("caller died before iterating")
            assert len(executor._free_slots) == STOP_SLOTS
