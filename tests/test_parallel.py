"""The sharded executor + campaign subsystem (:mod:`repro.parallel`).

The load-bearing properties:

- **Seed-partition determinism** — sharded runs (1/2/8 shards, any
  backend) produce per-shard verdict counts whose merge *equals* the
  single-process estimate, in every rng mode the plan supports, because a
  trial's verdict is a pure function of its counter.
- **Merge algebra** — :meth:`AcceptanceEstimate.merge` is exact, associative,
  order-independent, with the zero-trial estimate as identity.
- **Cooperative early exit** — the shared stop flag stops shards at chunk
  granularity and never alters an executed trial's verdict.
- **Spec resolution** — :class:`PlanSpec` round-trips through pickle, and
  the per-process caches hand back the same compiled plan for the same spec.
- **No worker leaks** — closing a process executor leaves no children.

Process-backend tests carry the ``parallel_proc`` marker (see
``tests/conftest.py``); everything else runs in tier-1 on any machine.
"""

import json
import multiprocessing
import pickle
import random

import pytest

from repro.engine import PlanCache, estimate_acceptance_fast
from repro.parallel import (
    EXECUTORS,
    Campaign,
    Cell,
    JsonlSink,
    MemorySink,
    PlanSpec,
    ProcessExecutor,
    SerialExecutor,
    Shard,
    ShardPlanner,
    estimate_acceptance_sharded,
    resolve_executor,
    run_campaign,
    workload_spec,
)
from repro.parallel.cli import main as cli_main
from repro.parallel.factories import WORKLOADS, compiled_spanning_tree
from repro.parallel.shards import MIN_SHARD_TRIALS, SHARDS_PER_WORKER
from repro.parallel.spec import clear_process_caches, resolve_factory
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
    # Two-sided acceptance (generic plan path): nontrivial per-shard counts.
    return workload_spec(
        "noisy-spanning-tree", rng_mode=rng_mode, node_count=18, flip_milli=4
    )


def shared_spec(rng_mode="vector"):
    return workload_spec(
        "shared-coins", rng_mode=rng_mode, node_count=14, extra_edges=4, seed=1
    )


# ---------------------------------------------------------------------------
# ShardPlanner
# ---------------------------------------------------------------------------


class TestShardPlanner:
    def test_partition_is_disjoint_and_complete(self):
        for trials in (1, 2, 7, 64, 100, 1001):
            for workers in (1, 3, 8):
                shards = ShardPlanner().plan(trials, workers)
                covered = []
                for shard in shards:
                    covered.extend(range(shard.start, shard.stop))
                assert covered == list(range(trials)), (trials, workers)

    def test_shard_count_respected_and_capped_by_trials(self):
        shards = ShardPlanner(shard_count=8).plan(100, workers=2)
        assert len(shards) == 8
        assert ShardPlanner(shard_count=8).resolve_count(3, 2) == 3

    def test_sizes_differ_by_at_most_one(self):
        shards = ShardPlanner(shard_count=7).plan(100, workers=1)
        sizes = [shard.trials for shard in shards]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # big shards first

    def test_deterministic_layout(self):
        assert ShardPlanner().plan(977, 4) == ShardPlanner().plan(977, 4)

    def test_default_policy_bounds(self):
        planner = ShardPlanner()
        # Small budgets do not shatter into per-trial shards...
        assert planner.resolve_count(100, workers=8) == 1
        # ...and large budgets are capped by workers * SHARDS_PER_WORKER.
        assert planner.resolve_count(10**6, workers=8) == 8 * SHARDS_PER_WORKER == 32

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ShardPlanner(shard_count=0)
        with pytest.raises(ValueError):
            ShardPlanner().plan(0, 1)
        with pytest.raises(ValueError):
            ShardPlanner().resolve_count(10, 0)
        with pytest.raises(ValueError):
            Shard(index=0, start=5, stop=3)

    # -- degenerate budgets: the shapes the adaptive allocator produces ----

    def test_fewer_trials_than_workers(self):
        # The default policy folds a tiny budget into one shard...
        assert [
            (s.start, s.stop) for s in ShardPlanner().plan(3, workers=8)
        ] == [(0, 3)]
        # ...while a fixed count above the budget shatters it into 1-trial
        # shards, never producing an empty shard.
        shards = ShardPlanner(shard_count=8).plan(3, workers=8)
        assert [(s.start, s.stop) for s in shards] == [(0, 1), (1, 2), (2, 3)]

    def test_per_worker_cap_rounding(self):
        planner = ShardPlanner()
        assert (MIN_SHARD_TRIALS, SHARDS_PER_WORKER) == (64, 4)
        # 600 trials / min 64 -> 9 shards (floor), below the 16-slot cap.
        assert planner.resolve_count(600, workers=4) == 9
        sizes = [s.trials for s in planner.plan(600, workers=4)]
        assert sizes == [67] * 6 + [66] * 3  # big-first, remainder spread
        assert sum(sizes) == 600
        # A huge budget is capped at workers * SHARDS_PER_WORKER.
        assert planner.resolve_count(10**4, workers=4) == 16

    def test_zero_remainder_split_is_exact(self):
        shards = ShardPlanner(shard_count=4).plan(100, workers=4)
        assert [s.trials for s in shards] == [25, 25, 25, 25]
        covered = [t for s in shards for t in range(s.start, s.stop)]
        assert covered == list(range(100))


# ---------------------------------------------------------------------------
# AcceptanceEstimate.merge
# ---------------------------------------------------------------------------


class TestMerge:
    def test_counts_add(self):
        merged = AcceptanceEstimate.merge(
            [AcceptanceEstimate(2, 10), AcceptanceEstimate(5, 20)]
        )
        assert merged == AcceptanceEstimate(7, 30)

    def test_identity_and_empty(self):
        empty = AcceptanceEstimate.merge([])
        assert empty == AcceptanceEstimate(0, 0)
        one = AcceptanceEstimate(3, 9)
        assert AcceptanceEstimate.merge([one, empty]) == one

    def test_associative_and_order_independent(self):
        rng = random.Random(4)
        for _ in range(50):
            parts = [
                AcceptanceEstimate(rng.randint(0, n), n)
                for n in (rng.randint(1, 50) for _ in range(rng.randint(2, 6)))
            ]
            direct = AcceptanceEstimate.merge(parts)
            shuffled = parts[:]
            rng.shuffle(shuffled)
            assert AcceptanceEstimate.merge(shuffled) == direct
            split = rng.randrange(1, len(parts))
            nested = AcceptanceEstimate.merge(
                [
                    AcceptanceEstimate.merge(parts[:split]),
                    AcceptanceEstimate.merge(parts[split:]),
                ]
            )
            assert nested == direct

    def test_merge_of_shard_partition_equals_whole(self):
        plan = noisy_spec().resolve()
        whole = estimate_acceptance_fast(plan, TRIALS, seed=SEED)
        for count in (2, 3, 8):
            parts = [
                estimate_acceptance_fast(
                    plan, shard.trials, seed=SEED, first_trial=shard.start
                )
                for shard in ShardPlanner(shard_count=count).plan(TRIALS)
            ]
            assert AcceptanceEstimate.merge(parts) == whole


# ---------------------------------------------------------------------------
# PlanSpec
# ---------------------------------------------------------------------------


class TestPlanSpec:
    def test_of_accepts_callable_and_string(self):
        a = PlanSpec.of(compiled_spanning_tree, node_count=12)
        b = PlanSpec.of(
            "repro.parallel.factories:compiled_spanning_tree", node_count=12
        )
        assert a == b
        assert resolve_factory(a.factory) is compiled_spanning_tree

    def test_rejects_non_importable_factory(self):
        def local_factory():  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(ValueError):
            PlanSpec.of(local_factory)
        with pytest.raises((ImportError, AttributeError, ValueError)):
            PlanSpec.of("repro.parallel.factories:no_such_thing")

    def test_pickle_round_trip(self):
        spec = small_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.key() == spec.key()

    def test_describe_is_json_friendly(self):
        payload = json.dumps(noisy_spec().describe(), sort_keys=True)
        assert "noisy_spanning_tree" in payload

    def test_resolution_caches_within_a_process(self):
        spec = small_spec()
        plan_a = spec.resolve()
        plan_b = spec.resolve()
        assert plan_a is plan_b  # workload memo + PlanCache hit
        other_mode = small_spec(rng_mode="compat")
        assert other_mode.resolve() is not plan_a  # rng_mode is plan identity

    def test_resolution_with_explicit_cache(self):
        cache = PlanCache(maxsize=4)
        spec = small_spec()
        plan = spec.resolve(cache)
        assert spec.resolve(cache) is plan
        assert cache.stats()["hits"] == 1

    def test_workload_spec_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            workload_spec("no-such-workload")

    @pytest.mark.parametrize("rng_mode", ["fast", "turbo"])
    def test_unknown_rng_mode_rejected_in_the_parent(self, rng_mode):
        # Construction fails with the valid modes listed, before any
        # worker could resolve the spec.
        with pytest.raises(ValueError, match="choose from compat, vector"):
            PlanSpec.of(compiled_spanning_tree, node_count=12, rng_mode=rng_mode)
        with pytest.raises(ValueError, match="choose from compat, vector"):
            workload_spec("spanning-tree", rng_mode=rng_mode)
        with pytest.raises(ValueError, match="choose from compat, vector"):
            PlanSpec(factory="repro.parallel.factories:compiled_spanning_tree",
                     rng_mode=rng_mode)

    def test_registry_factories_all_resolve(self):
        for name in WORKLOADS:
            spec = workload_spec(name, rng_mode="compat")
            scheme, configuration, labels = spec.build_workload()
            assert configuration.graph.nodes and labels


# ---------------------------------------------------------------------------
# sharded determinism: merged == single-process, every backend
# ---------------------------------------------------------------------------


def _single(spec, rng_mode=None):
    plan = spec.resolve()
    return estimate_acceptance_fast(plan, TRIALS, seed=SEED, rng_mode=rng_mode)


class TestShardedDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    @pytest.mark.parametrize("rng_mode", ["compat", "vector"])
    def test_serial_matches_single_process(self, shards, rng_mode):
        spec = small_spec(rng_mode=rng_mode)
        sharded = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=shards
        )
        assert sharded.estimate == _single(spec)
        assert sharded.shards == shards
        assert not sharded.stopped_early

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_scalar_counter_path_matches_single_process(self, shards):
        # vector mode on a plan with no kernel: the scalar hook path draws
        # from CounterRng, and its trials are addressed by counter, so any
        # shard split replays the same two-sided verdicts.
        spec = noisy_spec("vector")
        assert spec.resolve().kernel_path == "scalar"
        single = _single(spec)
        assert 0 < single.accepted < single.trials
        sharded = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=shards
        )
        assert sharded.estimate == single
        assert sharded.shards == shards

    @pytest.mark.parametrize("shards", [2, 8])
    def test_concurrent_matches_single_process(self, shards):
        # Two shards in flight in-process: results arrive out of order.
        spec = small_spec()
        sharded = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor=ConcurrentSerialExecutor(2),
            shard_count=shards,
        )
        assert sharded.estimate == _single(spec)

    def test_two_sided_counts_merge_exactly(self):
        # Mid-range acceptance: the counts are nontrivial, so this would
        # catch an off-by-one shard boundary that all-accept runs mask.
        spec = noisy_spec()
        single = _single(spec)
        assert 0 < single.accepted < single.trials
        sharded = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=8
        )
        assert sharded.estimate == single

    def test_shared_coins_parity_workload(self):
        spec = shared_spec()
        sharded = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=4
        )
        assert sharded.estimate == _single(spec)

    def test_prebuilt_plan_target(self):
        spec = small_spec()
        plan = spec.resolve()
        sharded = estimate_acceptance_sharded(
            plan, TRIALS, seed=SEED, executor="serial", shard_count=4
        )
        assert sharded.estimate == estimate_acceptance_fast(plan, TRIALS, seed=SEED)

    @pytest.mark.parametrize(
        "workload,kwargs",
        [
            ("biconnectivity", {"node_count": 16}),
            ("mis", {"node_count": 16, "extra_edges": 5}),
            ("hamiltonicity", {"node_count": 12, "extra_edges": 5}),
        ],
        ids=["fingerprint", "parity", "threshold"],
    )
    def test_spec_zoo_one_scheme_per_kernel_family(self, workload, kwargs):
        """The verdict-spec zoo shards exactly like the original workloads:
        one representative scheme per kernel family (fingerprint / parity /
        threshold, see repro.engine.specs), merged == single-process."""
        spec = workload_spec(workload, **kwargs)
        sharded = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=4
        )
        assert sharded.estimate == _single(spec)

    def test_spec_zoo_nondegenerate_fault_merges_exactly(self):
        """A proof-faulted parity-kernel plan (0 < p < 1): per-shard counts
        are nontrivial, and the merge must still be count-exact."""
        from spec_matrix import matrix_plan

        plan = matrix_plan("mis", "proof-fault", "vector")
        single = estimate_acceptance_fast(plan, TRIALS, seed=SEED)
        assert 0 < single.accepted < TRIALS
        sharded = estimate_acceptance_sharded(
            plan, TRIALS, seed=SEED, executor="serial", shard_count=5
        )
        assert sharded.estimate == single

    def test_shard_results_carry_provenance(self):
        sharded = estimate_acceptance_sharded(
            small_spec(), TRIALS, seed=SEED, shard_count=3
        )
        assert [r.shard.index for r in sharded.shard_results] == [0, 1, 2]
        assert sum(r.trials for r in sharded.shard_results) == TRIALS
        assert sharded.requested_trials == TRIALS


@pytest.mark.parallel_proc
class TestProcessSharding:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_process_matches_single_process_every_hook_scheme(self, shards):
        # The acceptance bar: verdict-count identity between the process-
        # sharded vector-mode run and the single-process run, per hook
        # workload (fingerprint Horner and shared-coins parity kernels).
        for spec in (small_spec(), shared_spec()):
            sharded = estimate_acceptance_sharded(
                spec,
                TRIALS,
                seed=SEED,
                executor="process",
                workers=2,
                shard_count=shards,
            )
            assert sharded.estimate == _single(spec), spec.factory

    def test_process_two_sided_counts(self):
        spec = noisy_spec()
        single = _single(spec)
        sharded = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="process", workers=2, shard_count=8
        )
        assert sharded.estimate == single

    def test_process_rejects_compiled_plan(self):
        plan = small_spec().resolve()
        with ProcessExecutor(workers=1) as executor:
            with pytest.raises(TypeError):
                estimate_acceptance_sharded(
                    plan, TRIALS, executor=executor, shard_count=2
                )

    def test_no_worker_leak_after_close(self):
        with ProcessExecutor(workers=2) as executor:
            estimate_acceptance_sharded(
                small_spec(), TRIALS, seed=SEED, executor=executor, shard_count=4
            )
        assert multiprocessing.active_children() == []

    def test_campaign_through_process_executor(self, tmp_path):
        campaign = Campaign.sweep(
            "proc",
            [("spanning-tree", {"node_count": 12})],
            rng_modes=("vector",),
            trial_budgets=(128,),
        )
        sink = JsonlSink(tmp_path / "proc.jsonl")
        records = run_campaign(campaign, executor="process", workers=2, sink=sink)
        assert len(records) == 1 and records[0]["trials"] == 128
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# cooperative early exit
# ---------------------------------------------------------------------------


class TestEarlyExit:
    def test_should_stop_hook_stops_at_chunk_granularity(self, set_chunk):
        plan = small_spec().resolve()
        calls = []

        def stop_after_two_chunks():
            calls.append(None)
            return len(calls) > 2

        set_chunk(50)
        estimate = estimate_acceptance_fast(
            plan, 1000, seed=SEED, should_stop=stop_after_two_chunks
        )
        assert estimate.trials == 100  # two chunks ran, third was refused

    def test_should_stop_before_first_chunk_returns_empty(self):
        plan = small_spec().resolve()
        estimate = estimate_acceptance_fast(
            plan, 100, seed=SEED, should_stop=lambda: True
        )
        assert (estimate.accepted, estimate.trials) == (0, 0)

    def test_sharded_wilson_stop_runs_fewer_trials(self):
        spec = small_spec()
        sharded = estimate_acceptance_sharded(
            spec,
            5000,
            seed=SEED,
            executor="serial",
            shard_count=10,
            stop_halfwidth=0.05,
            min_trials=100,
        )
        assert sharded.stopped_early
        assert sharded.estimate.trials < 5000
        # Every trial that did run kept its verdict: all-accept workload.
        assert sharded.estimate.accepted == sharded.estimate.trials

    def test_stopped_prefix_is_reproducible(self):
        # Re-running with trials set to the reported count reproduces the
        # estimate exactly — the early exit changed which prefix ran, not
        # any decision.  The serial backend consumes shards in order, so
        # the consumed trials are exactly the prefix [0, done).
        spec = noisy_spec()
        stopped = estimate_acceptance_sharded(
            spec,
            4000,
            seed=SEED,
            executor="serial",
            shard_count=4,
            stop_halfwidth=0.08,
            min_trials=64,
        )
        assert stopped.stopped_early
        rerun = estimate_acceptance_sharded(
            spec, stopped.estimate.trials, seed=SEED, executor="serial", shard_count=1
        )
        assert rerun.estimate == stopped.estimate

    @pytest.mark.parallel_proc
    def test_process_stop_cancels_outstanding_shards(self):
        spec = small_spec()
        sharded = estimate_acceptance_sharded(
            spec,
            20000,
            seed=SEED,
            executor="process",
            workers=2,
            shard_count=20,
            stop_halfwidth=0.05,
            min_trials=100,
        )
        assert sharded.stopped_early
        assert sharded.estimate.trials < 20000


# ---------------------------------------------------------------------------
# executor plumbing
# ---------------------------------------------------------------------------


class TestExecutors:
    def test_resolve_by_name_and_instance(self):
        executor, owned = resolve_executor("serial")
        assert isinstance(executor, SerialExecutor) and owned
        with SerialExecutor() as instance:
            resolved, owned = resolve_executor(instance)
            assert resolved is instance and not owned

    def test_unknown_name_raises(self):
        assert sorted(EXECUTORS) == ["process", "serial"]
        with pytest.raises(ValueError):
            resolve_executor("gpu")
        with pytest.raises(ValueError):
            resolve_executor("thread")

    def test_worker_count_conflict_raises(self):
        with SerialExecutor() as instance:
            with pytest.raises(ValueError):
                resolve_executor(instance, workers=4)

    def test_serial_name_with_workers_raises_like_instance(self):
        # Regression: the string path used to silently drop the worker
        # count while the instance path raised — both must raise now.
        with pytest.raises(ValueError):
            resolve_executor("serial", workers=4)
        executor, owned = resolve_executor("serial", workers=1)
        assert isinstance(executor, SerialExecutor) and owned

    def test_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            ProcessExecutor(workers=0)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_sweep_crosses_all_axes(self):
        campaign = Campaign.sweep(
            "sweep",
            ["spanning-tree", ("shared-coins", {"node_count": 12})],
            rng_modes=("compat", "vector"),
            trial_budgets=(64, 128),
            seeds=(0, 1),
        )
        assert len(campaign) == 2 * 2 * 2 * 2
        assert len({cell.name for cell in campaign.cells}) == len(campaign)

    def test_duplicate_cell_names_rejected(self):
        cell = Cell(name="x", spec=small_spec(), trials=10)
        with pytest.raises(ValueError):
            Campaign(name="dup", cells=(cell, cell))

    @pytest.mark.parametrize("halfwidth", [-1.0, 0.0, 0.9])
    def test_cell_stop_halfwidth_validated(self, halfwidth):
        with pytest.raises(ValueError, match="stop_halfwidth"):
            Cell(name="x", spec=small_spec(), trials=64, stop_halfwidth=halfwidth)

    def test_cell_key_covers_results_not_speed(self):
        a = Cell(name="a", spec=small_spec(), trials=64, seed=0)
        b = Cell(name="b", spec=small_spec(), trials=64, seed=0)
        assert a.key() == b.key()  # display name is not identity
        assert a.key() != Cell(name="a", spec=small_spec(), trials=65).key()
        assert a.key() != Cell(name="a", spec=small_spec(), trials=64, seed=1).key()

    def test_run_campaign_records(self):
        campaign = Campaign.sweep(
            "demo",
            [("spanning-tree", {"node_count": 12})],
            rng_modes=("vector",),
            trial_budgets=(96,),
        )
        sink = MemorySink()
        records = run_campaign(campaign, executor="serial", sink=sink)
        assert len(records) == 1
        record = records[0]
        assert record["trials"] == 96 and record["probability"] == 1.0
        for field in (
            "campaign", "cell", "cell_key", "factory", "rng_mode", "randomness",
            "accepted", "wilson_low", "wilson_high", "shards", "executor",
            "workers", "elapsed_sec",
        ):
            assert field in record, field
        json.dumps(record)  # records must serialize as-is

    def test_jsonl_sink_resumes(self, tmp_path):
        path = tmp_path / "results.jsonl"
        campaign = Campaign.sweep(
            "resume",
            [("spanning-tree", {"node_count": 12})],
            rng_modes=("compat", "vector"),
            trial_budgets=(64,),
        )
        first = run_campaign(campaign, sink=JsonlSink(path))
        assert len(first) == 2
        # A fresh sink on the same file resumes: nothing reruns.
        second = run_campaign(campaign, sink=JsonlSink(path))
        assert second == []
        assert len(path.read_text().splitlines()) == 2

    def test_jsonl_sink_ignores_torn_tail_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        campaign = Campaign.sweep(
            "torn", [("spanning-tree", {"node_count": 12})],
            rng_modes=("vector",), trial_budgets=(64,),
        )
        run_campaign(campaign, sink=JsonlSink(path))
        with path.open("a") as handle:
            handle.write('{"cell_key": "half-writ')  # simulated crash
        sink = JsonlSink(path)
        assert len(sink.records) == 1  # torn line dropped, valid one kept
        assert run_campaign(campaign, sink=sink) == []

    def test_no_resume_truncates(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        campaign = Campaign.sweep(
            "trunc", [("spanning-tree", {"node_count": 12})],
            rng_modes=("vector",), trial_budgets=(64,),
        )
        run_campaign(campaign, sink=JsonlSink(path))
        rerun = run_campaign(campaign, sink=JsonlSink(path, resume=False))
        assert len(rerun) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "spanning-tree" in out and "process" in out

    def test_estimate(self, capsys):
        code = cli_main(
            [
                "estimate", "--workload", "spanning-tree", "--trials", "96",
                "--size", "node_count=12", "--shards", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 shards" in out and "(96 trials)" in out

    @pytest.mark.parametrize("shards", ["0", "-3"])
    def test_nonpositive_shards_rejected(self, shards):
        # --shards 0 is a shard count like any other, not "no --shards":
        # it must not fall through to the default planner.
        with pytest.raises(SystemExit, match="shard_count must be positive"):
            cli_main(
                ["estimate", "--workload", "spanning-tree", "--trials", "200",
                 "--size", "node_count=12", "--shards", shards]
            )

    def test_campaign_with_resume(self, tmp_path, capsys):
        out_path = str(tmp_path / "cli.jsonl")
        argv = [
            "campaign", "--workloads", "spanning-tree", "--rng-modes", "vector",
            "--trials", "64", "--size", "node_count=12", "--out", out_path,
        ]
        assert cli_main(argv) == 0
        assert "1 cells run" in capsys.readouterr().out
        assert cli_main(argv) == 0
        assert "0 cells run, 1 resumed" in capsys.readouterr().out

    def test_bad_size_pair(self):
        with pytest.raises(SystemExit):
            cli_main(
                ["estimate", "--workload", "spanning-tree", "--trials", "8",
                 "--size", "node_count"]
            )

    def test_mixed_campaign_ignores_non_applicable_sizes(self, capsys):
        # Regression: one shared --size used to crash any workload whose
        # factory didn't accept the key; now it applies where it can and
        # warns where it can't.
        code = cli_main(
            ["campaign", "--workloads", "spanning-tree,k-flow", "--rng-modes",
             "vector", "--trials", "32", "--size", "node_count=12"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "2 cells run" in captured.out
        assert "does not apply to workload 'k-flow'" in captured.err

    def test_per_workload_sizes(self, capsys):
        code = cli_main(
            ["campaign", "--workloads", "spanning-tree,k-flow", "--rng-modes",
             "vector", "--trials", "32",
             "--size", "spanning-tree:node_count=12", "--size", "k-flow:k=2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spanning-tree(node_count=12)" in out and "k-flow(k=2)" in out

    def test_scoped_size_typos_fail_fast(self):
        # A scope naming a workload outside the sweep...
        with pytest.raises(SystemExit):
            cli_main(
                ["campaign", "--workloads", "spanning-tree", "--trials", "8",
                 "--size", "bogus:node_count=12"]
            )
        # ...or a key the scoped factory does not take.
        with pytest.raises(SystemExit):
            cli_main(
                ["campaign", "--workloads", "k-flow", "--trials", "8",
                 "--size", "k-flow:node_count=12"]
            )

    def test_single_workload_size_typo_fails_fast(self):
        # With one workload there is no mixed-sweep ambiguity: an
        # inapplicable key is a typo, not something to warn-and-drop.
        with pytest.raises(SystemExit):
            cli_main(
                ["estimate", "--workload", "spanning-tree", "--trials", "8",
                 "--size", "node_cuont=12"]
            )
        with pytest.raises(SystemExit):
            cli_main(
                ["campaign", "--workloads", "spanning-tree", "--trials", "8",
                 "--size", "node_cuont=12"]
            )

    def test_config_contradictions_exit_cleanly(self):
        # ValueErrors from the executor/campaign layers surface as usage
        # errors at the CLI boundary, not raw tracebacks.
        with pytest.raises(SystemExit):
            cli_main(
                ["estimate", "--workload", "spanning-tree", "--trials", "8",
                 "--workers", "4"]  # default executor is serial
            )
        with pytest.raises(SystemExit):
            cli_main(
                ["campaign", "--workloads", "spanning-tree", "--trials", "8",
                 "--cell-parallelism", "0"]
            )

    def test_rng_mode_validated_at_cli_boundary(self):
        with pytest.raises(SystemExit):
            cli_main(
                ["estimate", "--workload", "spanning-tree", "--trials", "8",
                 "--rng-mode", "turbo"]
            )
        with pytest.raises(SystemExit):
            cli_main(
                ["campaign", "--workloads", "spanning-tree", "--trials", "8",
                 "--rng-modes", "vector,turbo"]
            )
        # The retired third mode fails the same way, in either flag.
        with pytest.raises(SystemExit):
            cli_main(
                ["estimate", "--workload", "spanning-tree", "--trials", "8",
                 "--rng-mode", "fast"]
            )
        with pytest.raises(SystemExit):
            cli_main(
                ["campaign", "--workloads", "spanning-tree", "--trials", "8",
                 "--rng-modes", "compat,fast"]
            )

    def test_campaign_cell_parallelism_and_streaming_flags(self, tmp_path, capsys):
        out_path = str(tmp_path / "stream.jsonl")
        code = cli_main(
            ["campaign", "--workloads", "spanning-tree", "--rng-modes",
             "compat,vector", "--trials", "48", "--size", "node_count=12",
             "--executor", "serial", "--cell-parallelism", "2",
             "--out", out_path]
        )
        assert code == 0
        assert "2 cells run" in capsys.readouterr().out
        lines = [json.loads(line) for line in
                 (tmp_path / "stream.jsonl").read_text().splitlines()]
        assert [record["trials"] for record in lines] == [48, 48]
        assert all("streamed" not in record for record in lines)

    def test_estimate_stream_progress_flag(self, capsys):
        # Streaming is how every sharded estimate runs; there is no flag.
        with pytest.raises(SystemExit):
            cli_main(
                ["estimate", "--workload", "spanning-tree", "--trials", "96",
                 "--size", "node_count=12", "--shards", "3", "--stream-progress"]
            )
        code = cli_main(
            ["estimate", "--workload", "spanning-tree", "--trials", "96",
             "--size", "node_count=12", "--shards", "3"]
        )
        assert code == 0
        assert "supervision: attempts=3" in capsys.readouterr().out
