"""The trial-exact sharded stop: booked counts equal the single-process stop.

A sharded run stops its *compute* between chunks, but it *books* exactly
what :func:`~repro.engine.montecarlo.estimate_acceptance_fast` with the same
``stop_halfwidth`` reports: the contiguous counter prefix is scanned with the
single-process rule, shard 0 in its worker and later shards in the parent
from the per-trial verdicts they return.
Pinned here:

- the one stop predicate (``wilson_stop_holds``) and its ``min_trials``
  gate in the allocator;
- the layout-independence contract: a converged adaptive-campaign record
  equals the single-process Wilson stop on every backend, shard layout and
  cell parallelism, for table, parity, scalar ``vector`` and compat cells;
- a standalone sharded stop books the single-process stop whenever the
  rule held on its prefix, and otherwise a prefix no trial of which
  satisfies the rule;
- the scalar-path heartbeat under the default chunk policy;
- the executed path on every campaign record.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.seeding import trial_seed_slice
from repro.engine import estimate_acceptance_fast
from repro.engine.montecarlo import (
    DEFAULT_CHUNK,
    MIN_STOP_TRIALS,
    SCALAR_CHUNK,
    FixedChunkPolicy,
)
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
    StreamingAggregator,
    ThreadExecutor,
    estimate_acceptance_sharded,
    run_campaign,
    workload_spec,
)
from repro.parallel.cli import main as cli_main
from repro.parallel.spec import clear_process_caches
from repro.simulation.metrics import AcceptanceEstimate, wilson_stop_holds
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
    "thread": lambda: ThreadExecutor(workers=2),
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

    def test_settle_agrees_with_the_streamed_rule(self):
        # (0, 100) is narrow enough at 0.02, but below MIN_STOP_TRIALS no
        # stop rule accepts it: the allocator must not converge the cell.
        allocator = CampaignAllocator(["c"], 10_000, 0.02)
        allocator.grants()
        allocator.settle("c", 0, 128, 0, 100)
        aggregator = StreamingAggregator(stop_halfwidth=0.02, min_trials=MIN_STOP_TRIALS)
        aggregator.update(0, 0, 100)
        assert not allocator.cells["c"].converged
        assert not aggregator.satisfied
        allocator.settle("c", 100, 28, 0, 28)
        aggregator.update(0, 0, 128)
        assert allocator.cells["c"].converged
        assert aggregator.satisfied

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
        with ThreadExecutor(workers=2) as executor:
            records = _layout_campaign(executor, None, 1, seed=5)
        assert any(
            record["shards"] > len(record["allocation"]["installments"])
            for record in records
        )


class TestStandaloneStop:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_prefix_is_the_single_process_stop_or_short_of_the_rule(self, backend):
        fired = 0
        with BACKENDS[backend]() as executor:
            for name, spec in CELLS[1:3]:
                plan = spec.resolve()
                for seed in range(2):
                    single = single_stop(spec, seed, trials=4000)
                    for shards in (1, 3, 8):
                        sharded = estimate_acceptance_sharded(
                            spec, 4000, seed=seed, executor=executor,
                            shard_count=shards, stop_halfwidth=TARGET,
                        )
                        prefix = sharded.prefix
                        case = (name, seed, shards)
                        # Always a counter prefix, whatever ran past it.
                        # It is empty when shard 0 started after the
                        # merged stop had fired (process pool).
                        if prefix.trials:
                            assert prefix == estimate_acceptance_fast(
                                plan, prefix.trials, seed=seed
                            ), case
                        if wilson_stop_holds(
                            prefix.accepted, prefix.trials, TARGET, MIN_STOP_TRIALS
                        ):
                            fired += 1
                            assert (prefix.accepted, prefix.trials) == single, case
                        else:
                            # The first satisfying trial lies past the prefix.
                            assert single[1] > prefix.trials, case
        assert fired > 0

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

    def test_scan_crosses_kernel_chunk_windows(self):
        # A stop past the first DEFAULT_CHUNK trials of a shard: the scan
        # walks the shard's verdicts window by window and still lands on
        # the single-process trial.
        spec, halfwidth = CELLS[0][1], 0.006
        expected = single_stop(spec, 0, trials=20_000, halfwidth=halfwidth)
        assert DEFAULT_CHUNK < expected[1] < 2 * DEFAULT_CHUNK
        sharded = estimate_acceptance_sharded(
            spec, 20_000, seed=0, shard_count=1, stop_halfwidth=halfwidth
        )
        assert sharded.shard_results[0].trials == 2 * DEFAULT_CHUNK
        assert (sharded.prefix.accepted, sharded.prefix.trials) == expected

    def test_no_stop_books_the_contiguous_prefix(self):
        spec = CELLS[0][1]
        sharded = estimate_acceptance_sharded(spec, 1000, seed=1, shard_count=4)
        assert sharded.prefix == sharded.estimate
        for result in sharded.shard_results:
            assert result.verdicts is None and result.stop_at is None

    def test_scan_inputs_ride_only_with_a_stop_rule(self):
        # Shard 0 is scanned in its worker; later shards ship their
        # verdicts for the parent.  min_trials=300 keeps the rule from
        # holding before the end, so every shard runs and none stops.
        spec = CELLS[2][1]
        sharded = estimate_acceptance_sharded(
            spec, 300, seed=1, shard_count=3, stop_halfwidth=0.45, min_trials=300
        )
        head, *tail = sharded.shard_results
        assert head.verdicts is None and head.stop_at is None
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

    def test_shipped_verdicts_are_the_trial_verdicts_one_bit_each(self):
        # Chunks of 5 trials do not end on a byte: the packer carries the
        # odd bits into the next chunk, and the result still unpacks to
        # exactly the shard's per-trial verdicts.
        spec = CELLS[2][1]
        plan = spec.resolve()
        sharded = estimate_acceptance_sharded(
            spec, 300, seed=1, shard_count=2, stop_halfwidth=0.45, min_trials=300,
            chunk_policy=FixedChunkPolicy(5),
        )
        tail = sharded.shard_results[1]
        assert len(tail.verdicts) == (tail.trials + 7) // 8
        expected = list(
            plan.trial_verdicts(
                trial_seed_slice(1, tail.shard.start, tail.shard.stop), plan.rng_mode
            )
        )
        assert np.concatenate(list(tail.verdict_windows())).tolist() == expected


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

    def test_a_cut_prefix_continues_to_the_single_process_stop(self):
        # The staggered executor stops the first run with shard 0 one chunk
        # in and shard 1 further along: its prefix (64 trials) is short of
        # the rule, so the cell runs on from counter 64.
        from test_controller import NON_PREFIX_SEED, _StaggeredExecutor

        cell = Cell(
            name="cut", spec=noisy_spec(), trials=20_000, seed=NON_PREFIX_SEED,
            stop_halfwidth=0.05,
        )
        with _StaggeredExecutor() as executor:
            (record,) = run_campaign(
                Campaign(name="cut", cells=(cell,)), executor=executor,
                planner=ShardPlanner(shard_count=4),
            )
        earlier = record["supervision"]["earlier_runs"]
        assert len(earlier) >= 1 and all(run["ok"] for run in earlier)
        assert (record["accepted"], record["trials"]) == single_stop(
            cell.spec, NON_PREFIX_SEED, 20_000, 0.05
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
        # Under the default (4096-trial) chunk policy a scalar shard still
        # beats every SCALAR_CHUNK trials — the supervisor's heartbeat.
        spec = CELLS[2][1]
        assert spec.resolve().kernel_path == "scalar"
        totals = []
        estimate_acceptance_sharded(
            spec, 300, seed=0, shard_count=1,
            progress_observer=lambda accepted, trials: totals.append(trials),
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
