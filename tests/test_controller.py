"""Adaptive budget controller suite: chunk sizes, installments, allocator.

Pins the decision-validity contract of :mod:`repro.parallel.controller`:
chunking and budget allocation only decide *future counter ranges*, so the
per-trial verdicts are bit-identical to a one-shot run over the same range.
Covers the layers the controller threads through:

- the engine's chunk size and the halfwidth helpers;
- ``estimate_acceptance_sharded``'s ``first_trial``/``prior`` seam;
- :class:`CampaignAllocator` rounds and the global-budget campaign loop,
  end to end through ``run_campaign`` and the CLI.
"""

import functools
import json
import math
import multiprocessing
import threading

import pytest

from repro.engine import estimate_acceptance_fast
from repro.engine.montecarlo import MIN_STOP_TRIALS, validate_halfwidth
from repro.parallel import (
    Campaign,
    CampaignAllocator,
    Cell,
    JsonlSink,
    MemorySink,
    ShardPlanner,
    controller,
    estimate_acceptance_sharded,
    run_campaign,
    workload_spec,
)
from repro.parallel.cli import main as cli_main
from repro.parallel.controller import observed_halfwidth
from repro.parallel.factories import compiled_spanning_tree
from repro.parallel.spec import PlanSpec
from repro.simulation.metrics import AcceptanceEstimate, wilson_interval, wilson_stop_holds

from concurrent_serial import ConcurrentSerialExecutor


def easy_spec():
    # Honest spanning-tree run: every trial accepts, converges in the probe.
    return workload_spec("spanning-tree", rng_mode="vector", node_count=12)


def noisy_spec():
    # Two-sided acceptance: nontrivial interval, needs real budget.
    return workload_spec(
        "noisy-spanning-tree", rng_mode="vector", node_count=18, flip_milli=4
    )


# ---------------------------------------------------------------------------
# the chunk size and the halfwidth helpers
# ---------------------------------------------------------------------------


class TestChunkPolicies:
    def test_engine_clamps_oversized_chunks(self, set_chunk):
        spec = noisy_spec()
        base = estimate_acceptance_sharded(spec, 100, seed=3, executor="serial")
        set_chunk(10**6)
        huge = estimate_acceptance_sharded(spec, 100, seed=3, executor="serial")
        assert huge.estimate == base.estimate

    def test_validate_halfwidth_bounds(self):
        assert validate_halfwidth(0.05) == 0.05
        assert controller.validate_halfwidth is validate_halfwidth
        for bad in (0.0, -0.1, 0.5, 0.7, math.nan):
            with pytest.raises(ValueError):
                validate_halfwidth(bad)

    def test_observed_halfwidth_matches_wilson(self):
        low, high = wilson_interval(40, 100)
        assert observed_halfwidth(40, 100) == pytest.approx((high - low) / 2)
        assert observed_halfwidth(0, 0) == math.inf


# ---------------------------------------------------------------------------
# installments through estimate_acceptance_sharded
# ---------------------------------------------------------------------------


class TestInstallments:
    def test_installments_merge_to_the_one_shot_run(self):
        spec = noisy_spec()
        whole = estimate_acceptance_sharded(spec, 300, seed=11, executor="serial")
        first = estimate_acceptance_sharded(spec, 120, seed=11, executor="serial")
        prior = (first.estimate.accepted, first.estimate.trials)
        second = estimate_acceptance_sharded(
            spec, 180, seed=11, executor="serial", first_trial=120, prior=prior
        )
        assert second.estimate.trials == 180  # the call's own counts only
        merged = AcceptanceEstimate.merge([first.estimate, second.estimate])
        assert merged == whole.estimate

    def test_prior_drives_the_cumulative_stop(self):
        # The prefix already satisfies the stop rule, so the follow-up
        # installment stops far short of its grant.
        sharded = estimate_acceptance_sharded(
            easy_spec(), 512, seed=0, executor="serial",
            stop_halfwidth=0.05,
            first_trial=256, prior=(256, 256),
        )
        assert sharded.stopped_early
        assert sharded.estimate.trials < 512

    def test_first_trial_rejects_negative(self):
        with pytest.raises(ValueError):
            estimate_acceptance_sharded(
                easy_spec(), 10, executor="serial", first_trial=-1
            )

    @pytest.mark.parametrize("prior", [(5, 3), (-1, 0)])
    def test_invalid_prior_rejected(self, prior):
        with pytest.raises(ValueError):
            estimate_acceptance_sharded(
                easy_spec(), 10, executor="serial", prior=prior
            )


# ---------------------------------------------------------------------------
# the campaign allocator
# ---------------------------------------------------------------------------


class TestAllocator:
    def make(self, **kwargs):
        defaults = dict(
            names=["a", "b"],
            global_budget=1000,
            target_halfwidth=0.05,
        )
        defaults.update(kwargs)
        return CampaignAllocator(**defaults)

    def test_probe_round_splits_fairly_and_caps(self):
        allocator = self.make()
        assert allocator.grants() == {"a": 128, "b": 128}

    def test_tiny_pool_still_grants_something(self):
        allocator = self.make(global_budget=3)
        assert allocator.grants() == {"a": 2, "b": 1}

    def test_converged_cells_are_starved(self):
        allocator = self.make()
        allocator.grants()
        # "a" converges in its probe (lopsided: 128/128 accepted), "b" stays
        # wide (64/128 is the worst case).
        allocator.settle("a", first_trial=0, granted=128, accepted=128, trials=128)
        allocator.settle("b", first_trial=0, granted=128, accepted=64, trials=128)
        assert allocator.cells["a"].converged
        second = allocator.grants()
        assert "a" not in second and "b" in second

    def test_wider_cell_gets_the_larger_grant(self):
        allocator = self.make(
            names=["wide", "narrow"], global_budget=10_000, target_halfwidth=0.01
        )
        allocator.grants()
        allocator.settle("wide", first_trial=0, granted=128, accepted=64, trials=128)
        allocator.settle(
            "narrow", first_trial=0, granted=128, accepted=127, trials=128
        )
        grants = allocator.grants()
        assert grants["wide"] > grants["narrow"]

    def test_grants_never_exceed_pool(self):
        allocator = self.make(global_budget=300)
        while True:
            grants = allocator.grants()
            if not grants:
                break
            assert sum(grants.values()) <= allocator.global_budget
            for name, granted in grants.items():
                prior = allocator.counts(name)
                # Worst-case consumption: everything granted, never converges.
                allocator.settle(
                    name,
                    first_trial=prior[1],
                    granted=granted,
                    accepted=granted // 2,
                    trials=granted,
                )
        assert allocator.consumed_total <= allocator.global_budget
        assert allocator.remaining == allocator.global_budget - allocator.consumed_total

    def test_termination_under_simulated_consumption(self):
        allocator = self.make(global_budget=5000, target_halfwidth=0.02)
        rounds = 0
        while rounds < 1000:
            grants = allocator.grants()
            if not grants:
                break
            rounds += 1
            for name, granted in grants.items():
                prior = allocator.counts(name)
                accepted = granted if name == "a" else granted // 2
                allocator.settle(
                    name, first_trial=prior[1], granted=granted,
                    accepted=accepted, trials=granted,
                )
        assert rounds < 1000  # the loop drained the pool or converged
        assert allocator.consumed_total <= allocator.global_budget

    def test_unspent_grant_returns_to_the_pool(self):
        allocator = self.make()
        allocator.grants()
        # The Wilson stop fired 100 trials into a 128-trial grant: only
        # the consumed part is charged.
        allocator.settle("a", first_trial=0, granted=128, accepted=100, trials=100)
        allocator.settle("b", first_trial=0, granted=128, accepted=64, trials=128)
        assert allocator.consumed_total == 228
        assert allocator.remaining == 1000 - 228

    def test_settle_enforces_contiguous_installments(self):
        allocator = self.make()
        allocator.grants()
        with pytest.raises(ValueError):
            allocator.settle("a", first_trial=5, granted=64, accepted=3, trials=5)
        with pytest.raises(ValueError):
            allocator.settle("a", first_trial=0, granted=64, accepted=9, trials=5)

    def test_failed_cells_get_nothing(self):
        allocator = self.make()
        allocator.grants()
        allocator.settle("b", first_trial=0, granted=128, accepted=64, trials=128)
        allocator.fail("a")
        assert set(allocator.grants()) == {"b"}

    def test_history_records_the_counter_prefix(self):
        allocator = self.make()
        allocator.grants()
        allocator.settle("a", first_trial=0, granted=256, accepted=200, trials=200)
        history = allocator.history("a")
        assert history["global_budget"] == 1000
        assert history["target_halfwidth"] == 0.05
        assert history["consumed"] == 200
        assert history["converged"] is True
        assert history["installments"] == [
            {
                "round": 1,
                "first_trial": 0,
                "granted": 256,
                "trials": 200,
                "accepted": 200,
            }
        ]
        summary = allocator.summary()
        assert summary["consumed"] == 200 and summary["converged_cells"] == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(names=[]),
            dict(names=["a", "a"]),
            dict(global_budget=0),
            dict(target_halfwidth=0.5),
            dict(target_halfwidth=0.0),
            dict(target_halfwidth=math.nan),
            dict(target_halfwidth=-0.1),
            dict(global_budget=-5),
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            self.make(**kwargs)


# ---------------------------------------------------------------------------
# the global-budget campaign loop
# ---------------------------------------------------------------------------


def adaptive_campaign():
    return Campaign(
        name="adaptive",
        cells=(
            Cell(name="easy", spec=easy_spec(), trials=64, seed=0),
            Cell(name="hard", spec=noisy_spec(), trials=64, seed=0),
        ),
    )


def assert_contiguous(allocation):
    consumed = 0
    for installment in allocation["installments"]:
        assert installment["first_trial"] == consumed
        consumed += installment["trials"]
    assert consumed == allocation["consumed"]


#: A master seed whose shard 1 of the staggered campaigns below satisfies
#: the stop rule on its own counts.
STAGGER_SEED = 3


class _StaggeredExecutor(ConcurrentSerialExecutor):
    """Four in-process shards in flight; shard 0 is held back until shard 1
    has finished.

    Shard 1 (and any later shard) runs while no earlier counter has been
    booked, so only a stop on merged, non-contiguous counts could cut it
    short.  ``results`` keeps each shard index's last result.
    """

    def __init__(self):
        super().__init__(workers=4)
        self._shard_1_done = threading.Event()
        self.results = {}

    def _body(self, fn, payload, should_stop, publish=None):
        index = payload[1].index
        if index == 0:
            assert self._shard_1_done.wait(10)
        result = fn(payload, should_stop, publish)
        self.results[index] = result
        if index == 1:
            self._shard_1_done.set()
        return result

    def start_run(self, fn, payloads, on_progress=None):
        return super().start_run(
            functools.partial(self._body, fn), payloads, on_progress=on_progress
        )


class TestAdaptiveCampaign:
    def test_serial_adaptive_campaign(self):
        records = run_campaign(
            adaptive_campaign(),
            executor="serial",
            sink=MemorySink(),
            global_budget=4000,
            target_halfwidth=0.05,
        )
        assert [record["cell"] for record in records] == ["easy", "hard"]
        total = 0
        for record in records:
            assert record["status"] == "ok"
            allocation = record["allocation"]
            assert allocation["converged"] is True
            assert record["stopped_early"] is True
            assert_contiguous(allocation)
            assert record["trials"] == allocation["consumed"]
            # The stop contract: the recorded cumulative interval satisfies
            # the target halfwidth.
            width = record["wilson_high"] - record["wilson_low"]
            assert width <= 2 * 0.05
            total += allocation["consumed"]
            json.dumps(record)  # records must serialize as-is
        assert total <= 4000
        # The lopsided cell converged inside its probe grant; the noisy cell
        # needed more.
        easy, hard = records
        assert easy["allocation"]["consumed"] <= 128
        assert hard["allocation"]["consumed"] > easy["allocation"]["consumed"]

    def test_adaptive_counts_are_a_reproducible_prefix(self):
        # Decision-validity: re-running the plain fixed path over exactly the
        # consumed prefix reproduces every recorded count bit for bit.
        records = run_campaign(
            adaptive_campaign(),
            executor="serial",
            sink=MemorySink(),
            global_budget=4000,
            target_halfwidth=0.05,
        )
        campaign = adaptive_campaign()
        cells = {cell.name: cell for cell in campaign.cells}
        for record in records:
            cell = cells[record["cell"]]
            replay = estimate_acceptance_sharded(
                cell.spec, record["trials"], seed=cell.seed, executor="serial"
            )
            assert replay.estimate.accepted == record["accepted"]
            assert replay.estimate.trials == record["trials"]

    def test_a_later_shard_never_stops_the_run(self, monkeypatch):
        # The first 4-shard installment runs shard 1's whole range, whose
        # counts alone satisfy the rule, before shard 0 starts.  Only the
        # counter prefix may stop the run: the one installment books the
        # single-process stop.  A 1024-trial probe gives shard 1 a range
        # long enough to satisfy the rule by itself.
        monkeypatch.setattr(controller, "PROBE_TRIALS", 1024)
        cell = Cell(name="hard", spec=noisy_spec(), trials=64, seed=STAGGER_SEED)
        with _StaggeredExecutor() as executor:
            (record,) = run_campaign(
                Campaign(name="staggered", cells=(cell,)),
                executor=executor,
                planner=ShardPlanner(shard_count=4),
                global_budget=20000,
                target_halfwidth=0.05,
            )
        shard_1 = executor.results[1]
        assert shard_1.trials == shard_1.shard.trials
        assert wilson_stop_holds(shard_1.accepted, shard_1.trials, 0.05, MIN_STOP_TRIALS)
        (installment,) = record["allocation"]["installments"]
        assert installment["granted"] == 1024
        expected = estimate_acceptance_fast(
            cell.spec.resolve(), 20000, seed=cell.seed, stop_halfwidth=0.05
        )
        assert (record["accepted"], record["trials"]) == (
            expected.accepted,
            expected.trials,
        )

    def test_adaptive_campaign_resumes_from_sink(self, tmp_path):
        path = tmp_path / "adaptive.jsonl"
        kwargs = dict(global_budget=2000, target_halfwidth=0.05)
        first = run_campaign(
            adaptive_campaign(), executor="serial", sink=JsonlSink(path), **kwargs
        )
        assert len(first) == 2
        second = run_campaign(
            adaptive_campaign(), executor="serial", sink=JsonlSink(path), **kwargs
        )
        assert second == []

    def test_global_budget_requires_target_halfwidth(self):
        with pytest.raises(ValueError):
            run_campaign(
                adaptive_campaign(), executor="serial", sink=MemorySink(),
                global_budget=1000,
            )
        with pytest.raises(ValueError):
            run_campaign(
                adaptive_campaign(), executor="serial", sink=MemorySink(),
                target_halfwidth=0.05,
            )

    def test_poisoned_cell_degrades_to_failed_record(self):
        campaign = Campaign(
            name="degrade",
            cells=(
                Cell(
                    name="bad",
                    spec=PlanSpec.of(compiled_spanning_tree, bogus_size=3),
                    trials=64,
                    seed=0,
                ),
                Cell(name="good", spec=easy_spec(), trials=64, seed=0),
            ),
        )
        records = run_campaign(
            campaign,
            executor="serial",
            sink=MemorySink(),
            global_budget=2000,
            target_halfwidth=0.05,
            on_cell_error="skip",
        )
        by_name = {record["cell"]: record for record in records}
        assert by_name["bad"]["status"] == "failed"
        assert "allocation" in by_name["bad"]
        assert by_name["good"]["status"] == "ok"
        assert by_name["good"]["allocation"]["converged"] is True

    @pytest.mark.parallel_proc
    def test_process_backend_with_cell_parallelism(self):
        records = run_campaign(
            adaptive_campaign(),
            executor="process",
            workers=2,
            cell_parallelism=2,
            sink=MemorySink(),
            global_budget=3000,
            target_halfwidth=0.05,
        )
        assert {record["status"] for record in records} == {"ok"}
        for record in records:
            assert_contiguous(record["allocation"])
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCliAdaptive:
    def test_adaptive_campaign_cli(self, tmp_path, capsys):
        code = cli_main(
            [
                "campaign", "--workloads", "spanning-tree", "--rng-modes", "vector",
                "--trials", "64", "--size", "node_count=12",
                "--out", str(tmp_path / "cli.jsonl"),
                "--global-budget", "2000", "--target-halfwidth", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "global budget:" in out
        assert "cells reached halfwidth 0.05" in out

    def test_target_halfwidth_requires_global_budget(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "campaign", "--workloads", "spanning-tree", "--rng-modes",
                    "vector", "--trials", "64", "--out", str(tmp_path / "x.jsonl"),
                    "--target-halfwidth", "0.05",
                ]
            )

    def test_global_budget_requires_target_halfwidth(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "campaign", "--workloads", "spanning-tree", "--rng-modes",
                    "vector", "--trials", "64", "--out", str(tmp_path / "x.jsonl"),
                    "--global-budget", "1000",
                ]
            )

    def test_nonpositive_global_budget_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "campaign", "--workloads", "spanning-tree", "--rng-modes",
                    "vector", "--trials", "64", "--out", str(tmp_path / "x.jsonl"),
                    "--global-budget", "0", "--target-halfwidth", "0.05",
                ]
            )

    @pytest.mark.parametrize("value", ["0", "-0.1", "0.5", "0.7", "nan"])
    def test_halfwidth_flags_reject_out_of_range(self, value):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "estimate", "--workload", "spanning-tree", "--trials", "64",
                    "--stop-halfwidth", value,
                ]
            )

    def test_chunk_size_flag_refused(self):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "estimate", "--workload", "spanning-tree", "--trials", "64",
                    "--chunk-size", "32",
                ]
            )
