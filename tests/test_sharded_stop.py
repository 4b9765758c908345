"""The trial-exact sharded stop: booked counts equal the single-process stop.

A sharded run has one stop: its contiguous counter prefix satisfying the
single-process rule.  Shard 0 runs
:func:`~repro.engine.montecarlo.estimate_acceptance_fast` with the run's
``stop_halfwidth`` and ``prior``; the parent scans each later shard's
per-trial verdicts once, as the shard joins the prefix, and stops the run
the moment the rule holds.  The run books exactly what the single-process
estimator with the same ``stop_halfwidth`` reports.
Pinned here:

- the one stop predicate (``wilson_stop_holds``) and its ``min_trials``
  gate in the allocator;
- the layout-independence contract: a converged adaptive-campaign record
  equals the single-process Wilson stop on every backend, shard layout and
  cell parallelism, for table, parity, scalar ``vector`` and compat cells;
- a standalone sharded stop within its budget books the single-process
  stop on every backend and shard layout, with or without a ``prior``;
- the scalar-path heartbeat at the engine's chunk sizes;
- the executed path on every campaign record.
"""

import itertools
import multiprocessing

import numpy as np
import pytest

from repro.core.seeding import trial_seed_slice
from repro.engine import estimate_acceptance_fast
from repro.engine.montecarlo import DEFAULT_CHUNK, MIN_STOP_TRIALS, SCALAR_CHUNK
from repro.engine.specs import get_spec
from repro.obs.reader import load_trace
from repro.obs.runtime import tracing
from repro.parallel import (
    Campaign,
    CampaignAllocator,
    Cell,
    PlanSpec,
    ProcessExecutor,
    SerialExecutor,
    ShardPlanner,
    ShardResult,
    estimate_acceptance_sharded,
    run_campaign,
    workload_spec,
)
from repro.parallel.cli import main as cli_main
from repro.parallel.executors import _PrefixBook, _run_shard
from repro.parallel.shards import Shard
from repro.parallel.spec import clear_process_caches
from repro.simulation.metrics import AcceptanceEstimate, wilson_stop_holds
from concurrent_serial import ConcurrentSerialExecutor
from spec_matrix import matrix_workload

TARGET = 0.03
BUDGET = 100_000


@pytest.fixture(autouse=True)
def _fresh_spec_caches():
    clear_process_caches()
    yield
    clear_process_caches()


def proof_fault(name):
    """A registered spec's clean workload with one label bit flipped."""
    _, scheme, configuration, labels = matrix_workload(name, "proof-fault")
    return scheme, configuration, labels


def fault_spec(name, rng_mode):
    return PlanSpec.of(
        proof_fault, name, randomness=get_spec(name).randomness, rng_mode=rng_mode
    )


def noisy_spec():
    # The scalar hook path in vector mode, with two-sided acceptance.
    return workload_spec(
        "noisy-spanning-tree", rng_mode="vector", node_count=8, flip_milli=10
    )


#: One cell per execution path: table and parity kernels, the scalar
#: CounterRng path, the compat replay, and a compile-time verdict.
CELLS = (
    ("table", fault_spec("coloring", "vector")),
    ("parity", fault_spec("shared-coins", "vector")),
    ("scalar", noisy_spec()),
    ("compat", fault_spec("coloring", "compat")),
    ("constant", fault_spec("eulerian", "vector")),
)


BACKENDS = {
    "serial": SerialExecutor,
    "concurrent": lambda: ConcurrentSerialExecutor(2),
    "process": lambda: ProcessExecutor(workers=2),
}


def single_stop(spec, seed, trials=BUDGET, halfwidth=TARGET):
    stopped = estimate_acceptance_fast(
        spec.resolve(), trials, seed=seed, stop_halfwidth=halfwidth
    )
    return stopped.accepted, stopped.trials


class TestOneStopPredicate:
    def test_predicate_gates_on_min_trials(self):
        assert wilson_stop_holds(0, 100, 0.02)
        assert not wilson_stop_holds(0, 100, 0.02, min_trials=128)
        assert wilson_stop_holds(0, 128, 0.02, min_trials=128)
        assert not wilson_stop_holds(0, 0, 0.4)

    def test_settle_honours_the_min_trials_gate(self):
        # (0, 100) is narrow enough at 0.02, but below MIN_STOP_TRIALS no
        # stop rule accepts it: the allocator must not converge the cell.
        allocator = CampaignAllocator(["c"], 10_000, 0.02)
        allocator.grants()
        allocator.settle("c", 0, 128, 0, 100)
        assert not allocator.cells["c"].converged
        allocator.settle("c", 100, 28, 0, 28)
        assert allocator.cells["c"].converged

    def test_constant_plan_honours_the_stop(self):
        # A compile-time verdict runs no trials, but reports the prefix the
        # stop rule keeps, exactly as the trial loop would.
        plan = fault_spec("eulerian", "vector").resolve()
        assert plan.constant_verdict is False
        stopped = estimate_acceptance_fast(plan, BUDGET, seed=0, stop_halfwidth=TARGET)
        assert stopped.accepted == 0 and stopped.trials < BUDGET
        assert wilson_stop_holds(0, stopped.trials, TARGET, MIN_STOP_TRIALS)
        assert not wilson_stop_holds(0, stopped.trials - 1, TARGET, MIN_STOP_TRIALS)


def _layout_campaign(executor, planner, cell_parallelism, seed):
    campaign = Campaign(
        name="layouts",
        cells=tuple(
            Cell(name=name, spec=spec, trials=BUDGET, seed=seed) for name, spec in CELLS
        ),
    )
    return run_campaign(
        campaign,
        executor=executor,
        planner=planner,
        cell_parallelism=cell_parallelism,
        global_budget=BUDGET,
        target_halfwidth=TARGET,
    )


class TestLayoutIndependence:
    """Converged adaptive records equal the single-process Wilson stop."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_records_equal_the_single_process_stop(self, backend):
        seed = 5
        expected = {name: single_stop(spec, seed) for name, spec in CELLS}
        with BACKENDS[backend]() as executor:
            for planner in (None, ShardPlanner(shard_count=1)):
                for cell_parallelism in (1, 2):
                    records = _layout_campaign(executor, planner, cell_parallelism, seed)
                    layout = (planner is None, cell_parallelism)
                    for record in records:
                        assert record["status"] == "ok", (layout, record)
                        assert record["stopped_early"], (layout, record["cell"])
                        got = (record["accepted"], record["trials"])
                        assert got == expected[record["cell"]], (layout, record["cell"])
        assert multiprocessing.active_children() == []

    def test_default_planner_splits_installments(self):
        # The contract above is only interesting if installments really run
        # on several shards under the default planner.
        with ConcurrentSerialExecutor(2) as executor:
            records = _layout_campaign(executor, None, 1, seed=5)
        assert any(
            record["shards"] > len(record["allocation"]["installments"])
            for record in records
        )


class TestStandaloneStop:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_prefix_is_the_single_process_stop(self, backend):
        # Every shard layout, the default planner included, and an
        # installment that follows a prior prefix.
        with BACKENDS[backend]() as executor:
            for name, spec in CELLS[1:3]:
                plan = spec.resolve()
                for seed in range(2):
                    accepted, trials = single_stop(spec, seed, trials=4000)
                    head = estimate_acceptance_fast(plan, trials // 2, seed=seed)
                    for shards in (1, 3, 8, None):
                        for prior in ((0, 0), (head.accepted, head.trials)):
                            sharded = estimate_acceptance_sharded(
                                spec, 4000 - prior[1], seed=seed, executor=executor,
                                shard_count=shards, stop_halfwidth=TARGET,
                                first_trial=prior[1], prior=prior,
                            )
                            case = (name, seed, shards, prior)
                            assert sharded.stopped_early, case
                            assert sharded.prefix == AcceptanceEstimate(
                                accepted - prior[0], trials - prior[1]
                            ), case

    def test_satisfying_prior_dispatches_nothing(self):
        # The prior prefix already meets the rule: no shard runs and the
        # call books nothing, exactly like the single-process stop.
        spec = CELLS[0][1]
        plan = spec.resolve()
        prior = single_stop(spec, 1, trials=4000)
        assert estimate_acceptance_fast(
            plan, 4000, seed=1, stop_halfwidth=TARGET, first_trial=prior[1], prior=prior
        ) == AcceptanceEstimate(0, 0)
        sharded = estimate_acceptance_sharded(
            spec, 4000, seed=1, shard_count=4, stop_halfwidth=TARGET,
            first_trial=prior[1], prior=prior,
        )
        assert sharded.shard_results == () and sharded.report.attempts == {}
        assert sharded.prefix == sharded.estimate == AcceptanceEstimate(0, 0)
        assert sharded.stopped_early

    def test_prior_scans_the_cumulative_counts(self):
        # An installment that starts after an unconverged prefix books the
        # same trial the single-process stop lands on.
        spec = CELLS[1][1]
        plan = spec.resolve()
        accepted, trials = single_stop(spec, 2)
        first = trials // 2
        head = estimate_acceptance_fast(plan, first, seed=2)
        sharded = estimate_acceptance_sharded(
            spec, 4000, seed=2, executor="serial", shard_count=4,
            stop_halfwidth=TARGET, first_trial=first,
            prior=(head.accepted, head.trials),
        )
        assert sharded.prefix == AcceptanceEstimate(accepted - head.accepted, trials - first)

    @pytest.mark.parametrize(
        "shards, trials, halfwidth", [(1, 20_000, 0.006), (2, 12_000, 0.004)]
    )
    def test_scan_crosses_kernel_chunk_windows(self, shards, trials, halfwidth):
        # A stop past the first DEFAULT_CHUNK trials of the shard it lies
        # in: shard 0's estimator crosses a kernel chunk, or the parent's
        # scan of shard 1 crosses a verdict window, and either lands on the
        # single-process trial.  Shard 0 ends on that trial in its worker.
        spec = CELLS[0][1]
        expected = single_stop(spec, 0, trials=trials, halfwidth=halfwidth)
        sharded = estimate_acceptance_sharded(
            spec, trials, seed=0, shard_count=shards, stop_halfwidth=halfwidth
        )
        head, last = sharded.shard_results[0], sharded.shard_results[-1]
        assert len(sharded.shard_results) == shards
        assert DEFAULT_CHUNK < expected[1] - last.shard.start < 2 * DEFAULT_CHUNK
        assert head.trials == min(expected[1], head.shard.trials)
        assert head.converged == (shards == 1)
        assert (sharded.prefix.accepted, sharded.prefix.trials) == expected

    def test_no_stop_books_the_contiguous_prefix(self):
        spec = CELLS[0][1]
        sharded = estimate_acceptance_sharded(spec, 1000, seed=1, shard_count=4)
        assert sharded.prefix == sharded.estimate
        for result in sharded.shard_results:
            assert result.verdicts is None and not result.converged

    def test_scan_inputs_ride_only_with_a_stop_rule(self):
        # Shard 0 runs the rule in its worker; later shards ship their
        # verdicts for the parent.  min_trials=300 keeps the rule from
        # holding before the end, so every shard runs and none stops.
        spec = CELLS[2][1]
        sharded = estimate_acceptance_sharded(
            spec, 300, seed=1, shard_count=3, stop_halfwidth=0.45, min_trials=300
        )
        head, *tail = sharded.shard_results
        assert head.verdicts is None and not head.converged
        for result in tail:
            verdicts = np.concatenate(list(result.verdict_windows()))
            assert len(verdicts) == result.trials
            assert int(verdicts.sum()) == result.accepted
        assert sharded.prefix == sharded.estimate

    def test_constant_shards_ship_their_verdicts(self):
        # A compile-time verdict runs no trials, but its shards still hand
        # their chunks to the scan: here the stop lies in shard 2.
        spec, halfwidth = CELLS[4][1], 0.0032
        assert spec.resolve().constant_verdict is False
        expected = single_stop(spec, 0, trials=1000, halfwidth=halfwidth)
        assert 500 < expected[1] < 750
        sharded = estimate_acceptance_sharded(
            spec, 1000, seed=0, shard_count=4, stop_halfwidth=halfwidth
        )
        for result in sharded.shard_results[1:]:
            assert len(result.verdicts) == (result.trials + 7) // 8
        assert (sharded.prefix.accepted, sharded.prefix.trials) == expected

    def test_shipped_verdicts_are_the_trial_verdicts_one_bit_each(self, set_chunk):
        # Chunks of 5 trials do not end on a byte: the packer carries the
        # odd bits into the next chunk, and the result still unpacks to
        # exactly the shard's per-trial verdicts.
        spec = CELLS[2][1]
        plan = spec.resolve()
        set_chunk(5)
        sharded = estimate_acceptance_sharded(
            spec, 300, seed=1, shard_count=2, stop_halfwidth=0.45, min_trials=300,
        )
        tail = sharded.shard_results[1]
        assert len(tail.verdicts) == (tail.trials + 7) // 8
        expected = list(
            plan.trial_verdicts(
                trial_seed_slice(1, tail.shard.start, tail.shard.stop), plan.rng_mode
            )
        )
        assert np.concatenate(list(tail.verdict_windows())).tolist() == expected


class TestEnginePrior:
    @pytest.mark.parametrize("name, spec", CELLS)
    def test_prior_stops_on_the_trial_of_the_whole_run(self, name, spec):
        # A call that follows a prior prefix stops on the trial the whole
        # run stops on, on every execution path.
        plan = spec.resolve()
        accepted, trials = single_stop(spec, 4, trials=4000)
        assert wilson_stop_holds(accepted, trials, TARGET, MIN_STOP_TRIALS)
        head = estimate_acceptance_fast(plan, trials // 2, seed=4)
        tail = estimate_acceptance_fast(
            plan, 4000 - head.trials, seed=4, stop_halfwidth=TARGET,
            first_trial=head.trials, prior=(head.accepted, head.trials),
        )
        assert tail == AcceptanceEstimate(accepted - head.accepted, trials - head.trials)

    @pytest.mark.parametrize("prior", [(5, 3), (-1, 0), (0, -2)])
    def test_invalid_prior_rejected(self, prior):
        with pytest.raises(ValueError):
            estimate_acceptance_fast(CELLS[0][1].resolve(), 10, prior=prior)


class TestPrefixBook:
    def test_any_arrival_order_books_the_stop_reading_each_shard_once(self, monkeypatch):
        # The stop lies in shard 2 of 4.  Whatever order the results
        # arrive in, the book converges when shards 0-2 have all arrived,
        # books the single-process stop, and unpacks shards 1 and 2 once.
        spec, halfwidth = CELLS[0][1], 0.006
        plan = spec.resolve()
        expected = single_stop(spec, 0, trials=8000, halfwidth=halfwidth)
        assert 4000 < expected[1] < 6000
        options = {
            "seed": 0, "rng_mode": spec.rng_mode,
            "stop": ((0, 0), halfwidth, MIN_STOP_TRIALS),
        }
        results = [
            _run_shard((plan, shard, options), lambda: False)
            for shard in ShardPlanner(shard_count=4).plan(8000)
        ]
        assert not results[0].converged and results[0].trials == 2000
        reads = []
        windows = ShardResult.verdict_windows

        def counted(result):
            reads.append(result.shard.index)
            return windows(result)

        monkeypatch.setattr(ShardResult, "verdict_windows", counted)
        for order in itertools.permutations(results):
            reads.clear()
            book = _PrefixBook((0, 0), halfwidth, MIN_STOP_TRIALS)
            fired = [book.add(result) for result in order]
            joined = max(order.index(result) for result in results[:3])
            assert fired == [index == joined for index in range(4)], order
            assert book.converged and (book.accepted, book.trials) == expected
            assert sorted(reads) == [1, 2]

    def test_a_short_shard_ends_the_prefix(self):
        # Without a rule the prefix runs up to and through the first shard
        # short of its range; shards past it are not booked.
        shards = ShardPlanner(shard_count=3).plan(300)
        book = _PrefixBook((0, 0), None, MIN_STOP_TRIALS)
        for result in (
            ShardResult(shard=shards[2], accepted=100, trials=100),
            ShardResult(shard=shards[1], accepted=10, trials=50),
            ShardResult(shard=shards[0], accepted=60, trials=100),
        ):
            assert not book.add(result)
        assert (book.accepted, book.trials) == (70, 150) and not book.converged


class TestFixedBudgetStop:
    """A fixed-budget stop cell records the single-process Wilson stop."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_records_equal_the_single_process_stop(self, backend):
        seed, trials = 3, 4000
        cells = tuple(
            Cell(name=name, spec=spec, trials=trials, seed=seed, stop_halfwidth=TARGET)
            for name, spec in CELLS
        )
        expected = {name: single_stop(spec, seed, trials) for name, spec in CELLS}
        with BACKENDS[backend]() as executor:
            for planner in (None, ShardPlanner(shard_count=1)):
                for cell_parallelism in (1, 2):
                    records = run_campaign(
                        Campaign(name="fixed", cells=cells), executor=executor,
                        planner=planner, cell_parallelism=cell_parallelism,
                    )
                    layout = (planner is None, cell_parallelism)
                    for record in records:
                        assert record["status"] == "ok", (layout, record)
                        assert record["stopped_early"], (layout, record["cell"])
                        got = (record["accepted"], record["trials"])
                        assert got == expected[record["cell"]], (layout, record["cell"])
        assert multiprocessing.active_children() == []

    def test_a_later_shard_never_stops_the_run(self):
        # The staggered executor starts shard 0 only after shard 1 has run
        # its whole range, whose counts alone satisfy the rule.  The run
        # still stops on its counter prefix, in one run.
        from test_controller import STAGGER_SEED, _StaggeredExecutor

        cell = Cell(
            name="staggered", spec=noisy_spec(), trials=1024, seed=STAGGER_SEED,
            stop_halfwidth=0.05,
        )
        with _StaggeredExecutor() as executor:
            (record,) = run_campaign(
                Campaign(name="staggered", cells=(cell,)), executor=executor,
                planner=ShardPlanner(shard_count=4),
            )
        shard_1 = executor.results[1]
        assert shard_1.trials == shard_1.shard.trials
        assert wilson_stop_holds(shard_1.accepted, shard_1.trials, 0.05, MIN_STOP_TRIALS)
        assert record["shards"] == 4 and record["supervision"]["ok"]
        assert (record["accepted"], record["trials"]) == single_stop(
            cell.spec, STAGGER_SEED, 1024, 0.05
        )

    def test_cli_estimate_prints_the_booked_stop(self, capsys):
        spec = noisy_spec()
        expected = AcceptanceEstimate(*single_stop(spec, 2, 4000))
        assert cli_main(
            [
                "estimate", "--workload", "noisy-spanning-tree", "--rng-mode",
                "vector", "--size", "node_count=8", "--size", "flip_milli=10",
                "--trials", "4000", "--seed", "2", "--executor", "serial",
                "--shards", "4", "--stop-halfwidth", str(TARGET),
            ]
        ) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert f"-> {expected} over " in first


class TestHeartbeat:
    def test_scalar_shard_publishes_at_most_scalar_chunk_apart(self):
        # A scalar shard runs SCALAR_CHUNK-trial chunks, not the kernels'
        # DEFAULT_CHUNK, so it beats every 64 trials — the supervisor's
        # heartbeat.
        spec = CELLS[2][1]
        assert spec.resolve().kernel_path == "scalar"
        totals = []
        options = {"seed": 0, "rng_mode": spec.rng_mode}
        _run_shard(
            (spec, Shard(index=0, start=0, stop=300), options),
            lambda: False,
            lambda index, accepted, trials: totals.append(trials),
        )
        steps = [b - a for a, b in zip([0] + totals, totals)]
        assert totals[-1] == 300
        assert max(steps) <= SCALAR_CHUNK == 64

    def test_kernel_chunks_keep_their_full_size(self):
        spec = CELLS[0][1]
        assert spec.resolve().kernel_path == "table"
        totals = []
        estimate_acceptance_fast(
            spec.resolve(), 5000, seed=0,
            progress=lambda accepted, trials: totals.append(trials),
        )
        assert totals == [DEFAULT_CHUNK, 5000]


class TestKernelPathRecords:
    def test_records_name_the_path_their_shard_spans_report(self, tmp_path):
        cells = (
            ("table", workload_spec("spanning-tree", rng_mode="vector", node_count=12)),
            ("parity", workload_spec("shared-coins", rng_mode="vector", node_count=12)),
            ("scalar", noisy_spec()),
        )
        campaign = Campaign(
            name="paths",
            cells=tuple(Cell(name=name, spec=spec, trials=256) for name, spec in cells),
        )
        with ProcessExecutor(workers=2) as executor, tracing(tmp_path / "trace"):
            records = run_campaign(
                campaign, executor=executor, planner=ShardPlanner(shard_count=2)
            )
        trace = load_trace(tmp_path / "trace")
        spans = {}
        for shard in trace.named("shard"):
            cell = trace.ancestor(shard, "cell")["attrs"]["key"]
            spans.setdefault(cell, set()).add(shard["attrs"]["kernel_path"])
        assert {record["cell"]: {record["kernel_path"]} for record in records} == spans
        assert spans == {"table": {"table"}, "parity": {"parity"}, "scalar": {"scalar"}}
        assert multiprocessing.active_children() == []
