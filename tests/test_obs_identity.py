"""Tracing is observational: traced runs are bit-identical to untraced runs.

The telemetry layer hangs off read-only seams (the ``progress`` callback,
events around dispatch, counters beside existing ledgers), so switching a
trace on must change *nothing* about the computation: not the merged
estimate, not any single trial's verdict, not the campaign records a sink
persists.  These tests pin that contract for one scheme per kernel family
(fingerprint / parity / threshold) in every rng mode each supports —
the same axes the determinism suite in ``test_parallel.py`` covers, now
crossed with tracing.
"""

import copy

import pytest

from repro.engine import estimate_acceptance_fast
from repro.obs.reader import load_trace, summarize_runs
from repro.obs.runtime import get_metrics, set_recorder, tracing
from repro.parallel import (
    Campaign,
    MemorySink,
    estimate_acceptance_sharded,
    run_campaign,
    workload_spec,
)
from repro.parallel.spec import clear_process_caches

TRIALS = 192
SEED = 11

# One representative workload per verdict-kernel family, plus the noisy
# channel: two-sided, on the scalar hook path in every rng mode (its
# certificates carry flips no kernel tabulates).
FAMILIES = [
    ("spanning-tree", {"node_count": 14, "extra_edges": 4, "seed": 1}),  # fingerprint
    ("shared-coins", {"node_count": 14, "extra_edges": 4, "seed": 1}),  # parity
    ("boosted-spanning-tree", {"node_count": 12, "extra_edges": 4, "seed": 1}),  # threshold
    ("noisy-spanning-tree", {"node_count": 12, "extra_edges": 4, "seed": 1}),  # scalar
]
RNG_MODES = ["compat", "vector"]


@pytest.fixture(autouse=True)
def _clean_obs_state():
    set_recorder(None)
    get_metrics().clear()
    clear_process_caches()
    yield
    set_recorder(None)
    get_metrics().clear()
    clear_process_caches()


def _strip_timing(record):
    """Drop the only fields allowed to differ between two identical runs."""
    record = copy.deepcopy(record)
    record.pop("elapsed_sec", None)
    supervision = record.get("supervision")
    if supervision:
        for key in ("started_unix", "finished_unix", "duration_sec"):
            supervision.pop(key, None)
        supervision["failures"] = [
            {k: v for k, v in failure.items() if k != "elapsed_sec"}
            for failure in supervision.get("failures", [])
        ]
    return record


class TestShardedEstimateIdentity:
    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    @pytest.mark.parametrize(
        "workload,kwargs", FAMILIES, ids=[f[0] for f in FAMILIES]
    )
    def test_traced_equals_untraced_per_family_per_mode(
        self, tmp_path, workload, kwargs, rng_mode
    ):
        spec = workload_spec(workload, rng_mode=rng_mode, **kwargs)
        untraced = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="serial", shard_count=4
        )
        with tracing(tmp_path / "trace"):
            traced = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor="serial", shard_count=4
            )
        assert traced.estimate == untraced.estimate
        assert traced.estimate.accepted == untraced.estimate.accepted
        assert traced.estimate.trials == untraced.estimate.trials
        assert [r.estimate for r in traced.shard_results] == [
            r.estimate for r in untraced.shard_results
        ]
        # And the trace really was on: one run span, four shard spans.
        trace = load_trace(tmp_path / "trace")
        assert len(trace.named("run")) == 1
        assert len(trace.named("shard")) == 4

    @pytest.mark.parametrize(
        "workload,rng_mode,path",
        [
            ("spanning-tree", "vector", "table"),
            ("spanning-tree", "compat", "scalar"),
            ("shared-coins", "vector", "parity"),
            ("noisy-spanning-tree", "compat", "scalar"),
            ("shared-coins", "compat", "scalar"),
            ("boosted-spanning-tree", "vector", "table"),
            ("boosted-spanning-tree", "compat", "scalar"),
            ("noisy-spanning-tree", "vector", "scalar"),
        ],
    )
    def test_shard_spans_name_the_kernel_path(self, tmp_path, workload, rng_mode, path):
        # Honest plans fold to no dirty pair but still run their kernel:
        # the path is a property of the plan's hooks, not of its labels.
        spec = workload_spec(workload, rng_mode=rng_mode, node_count=12)
        with tracing(tmp_path / "trace"):
            estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor="serial", shard_count=2
            )
        trace = load_trace(tmp_path / "trace")
        assert [s["attrs"]["kernel_path"] for s in trace.named("shard")] == [path] * 2
        assert trace.merged_metrics()["counters"][f"engine.path.{path}"] == 2

    @pytest.mark.parallel_proc
    def test_process_backend_identity_shared_coins(self, tmp_path):
        spec = workload_spec("shared-coins", node_count=14, extra_edges=4, seed=1)
        untraced = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="process", workers=2, shard_count=4
        )
        with tracing(tmp_path / "trace"):
            traced = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor="process", workers=2, shard_count=4
            )
        assert traced.estimate == untraced.estimate

    @pytest.mark.parallel_proc
    def test_process_backend_identity(self, tmp_path):
        spec = workload_spec("spanning-tree", node_count=14, extra_edges=4, seed=1)
        untraced = estimate_acceptance_sharded(
            spec, TRIALS, seed=SEED, executor="process", workers=2, shard_count=4
        )
        with tracing(tmp_path / "trace"):
            traced = estimate_acceptance_sharded(
                spec,
                TRIALS,
                seed=SEED,
                executor="process",
                workers=2,
                shard_count=4,
            )
        assert traced.estimate == untraced.estimate
        # Worker processes wrote their own trace files across the pickle
        # boundary; the parent contributes one more.
        trace = load_trace(tmp_path / "trace")
        assert len({s["pid"] for s in trace.spans}) >= 2
        assert len(trace.named("shard")) == 4


class TestPerTrialVerdictIdentity:
    """Chunks of one trial (``set_chunk(1)``) turn the progress stream into a
    per-trial verdict stream: cumulative counts advance by exactly one trial per callback, so
    the accepted-delta sequence *is* the verdict bit sequence."""

    def _untraced_verdicts(self, spec, rng_mode, vectorize=None):
        plan = spec.resolve()
        verdicts, last = [], (0, 0)
        def capture(accepted, trials):
            nonlocal last
            verdicts.append(accepted - last[0])
            last = (accepted, trials)
        estimate = estimate_acceptance_fast(
            plan, TRIALS, seed=SEED, progress=capture, vectorize=vectorize,
        )
        assert len(verdicts) == TRIALS
        assert sum(verdicts) == estimate.accepted
        return verdicts

    def _traced_verdicts(self, trace):
        """Reassemble the global trial order from chunk spans: shards sorted
        by their first_trial, chunks within a shard by cumulative trials."""
        shard_spans = {s["id"]: s for s in trace.named("shard")}
        keyed = []
        for chunk in trace.named("chunk"):
            shard = shard_spans[chunk["parent"]]
            keyed.append(
                (
                    shard["attrs"]["first_trial"],
                    chunk["attrs"]["trials"],
                    chunk["attrs"]["chunk_accepted"],
                    chunk["attrs"]["chunk_trials"],
                )
            )
        keyed.sort()
        assert all(chunk_trials == 1 for _, _, _, chunk_trials in keyed)
        return [accepted for _, _, accepted, _ in keyed]

    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    @pytest.mark.parametrize(
        "workload,kwargs", FAMILIES, ids=[f[0] for f in FAMILIES]
    )
    def test_every_trial_verdict_matches(
        self, tmp_path, set_chunk, workload, kwargs, rng_mode
    ):
        set_chunk(1)
        spec = workload_spec(workload, rng_mode=rng_mode, **kwargs)
        expected = self._untraced_verdicts(spec, rng_mode)
        with tracing(tmp_path / "trace"):
            traced = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor="serial", shard_count=2,
            )
        got = self._traced_verdicts(load_trace(tmp_path / "trace"))
        assert got == expected
        assert sum(got) == traced.estimate.accepted

    @pytest.mark.parametrize(
        "workload,kwargs", FAMILIES, ids=[f[0] for f in FAMILIES]
    )
    def test_vector_verdicts_match_the_scalar_counter_path(
        self, tmp_path, set_chunk, workload, kwargs
    ):
        # The traced vector run takes each plan's own path (a kernel where
        # the plan has one); the reference forces the scalar CounterRng
        # path.  Same counter stream, so the same verdict per trial.
        set_chunk(1)
        spec = workload_spec(workload, rng_mode="vector", **kwargs)
        expected = self._untraced_verdicts(spec, "vector", vectorize=False)
        with tracing(tmp_path / "trace"):
            traced = estimate_acceptance_sharded(
                spec, TRIALS, seed=SEED, executor="serial", shard_count=2,
            )
        trace = load_trace(tmp_path / "trace")
        paths = {s["attrs"]["kernel_path"] for s in trace.named("shard")}
        assert paths == {spec.resolve().kernel_path}
        got = self._traced_verdicts(trace)
        assert got == expected
        assert sum(got) == traced.estimate.accepted


class TestCampaignRecordIdentity:
    def _campaign(self):
        return Campaign.sweep(
            "identity",
            [("spanning-tree", {"node_count": 12}), ("shared-coins", {"node_count": 12})],
            rng_modes=("compat", "vector"),
            trial_budgets=(96,),
        )

    def test_sink_records_identical_minus_timing(self, tmp_path):
        untraced_sink = MemorySink()
        run_campaign(self._campaign(), executor="serial", sink=untraced_sink)
        traced_sink = MemorySink()
        with tracing(tmp_path / "trace"):
            run_campaign(self._campaign(), executor="serial", sink=traced_sink)

        untraced = [_strip_timing(r) for r in untraced_sink.records]
        traced = [_strip_timing(r) for r in traced_sink.records]
        assert traced == untraced
        assert len(traced) == 4
        # The trace carries the full campaign → cell → run hierarchy.
        trace = load_trace(tmp_path / "trace")
        assert len(trace.named("campaign")) == 1
        assert len(trace.named("cell")) == 4
        assert len(trace.named("run")) == 4

    def test_adaptive_campaign_runs_nest_under_cells(self, tmp_path):
        # Every installment of an adaptive campaign opens a cell span parented
        # on the campaign span, even on the scheduler's threads.
        campaign = self._campaign()
        with tracing(tmp_path / "trace"):
            run_campaign(
                campaign,
                executor="serial",
                cell_parallelism=2,
                global_budget=4000,
                target_halfwidth=0.01,
            )
        trace = load_trace(tmp_path / "trace")
        runs = trace.named("run")
        assert len(runs) > len(campaign.cells)  # more than one round
        for run in runs:
            assert trace.ancestor(run, "cell") is not None
            assert trace.ancestor(run, "campaign") is not None
        labels = [rollup["label"] for rollup in summarize_runs(trace)]
        assert len(labels) == len(runs)
        assert set(labels) == {cell.name for cell in campaign.cells}
