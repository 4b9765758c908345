#!/usr/bin/env python3
"""Smoke-run every engine-hooked benchmark workload in a few seconds.

The full benchmarks gather statistical evidence; this harness only asserts
the *wiring* they depend on, so a hook regression fails fast (it runs in
tier-1 via ``tests/test_bench_smoke.py``, and standalone via
``make bench-smoke``).  For each workload it checks that:

- the compiled plan takes the engine fast path (labels parsed once; no
  legacy-oracle fallback);
- a handful of per-trial decisions are bit-identical to the one-shot
  reference oracle in compat mode;
- where the scheme supports a numpy chunk kernel (fingerprint Horner or
  shared-coins parity), the vectorized decisions match the scalar ones per
  trial in every rng mode — including the counter-based ``vector`` mode,
  whose scalar CounterRng path must agree with the batched draw kernel;
- a short :func:`~repro.engine.estimate_acceptance_fast` run completes and,
  for one-sided schemes, completeness holds (every trial accepts on the
  legal state); the two-sided noisy channel skips that check;
- honest labels never reach a kernel's lookup (an honest plan has no dirty
  pair), so one pinned single-bit proof fault per kernel family
  (fingerprint, threshold, parity) must leave the kernel state
  non-constant, and its vectorized decisions must match the scalar ones
  per trial in every rng mode;
- the parallel subsystem wiring holds end to end: a tiny campaign runs
  through the **process executor**, the sharded merge equals the
  single-process estimate verdict-count for verdict-count, and the pool
  tears down without leaking worker processes;
- the bench-history regression gate (``repro.benchhistory``) passes over
  the *committed* ``BENCH_engine.json`` + ``benchmarks/history/`` files —
  a pure file comparison, so a failure is a recorded degradation, never
  measurement flake.

Run:  python benchmarks/smoke.py      (or: make bench-smoke)
"""

import contextlib
import io
import multiprocessing
import pathlib
import sys

from repro.core.bitstrings import BitString
from repro.core.boosting import BoostedRPLS
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.noise import NoisyChannelRPLS
from repro.core.seeding import derive_trial_seed
from repro.core.shared import SharedCoinsCompiledRPLS
from repro.core.verifier import verify_randomized
from repro.engine import VerificationPlan, estimate_acceptance_fast
from repro.engine.kernels import vector_state
from repro.graphs.generators import (
    flow_configuration,
    mst_configuration,
    spanning_tree_configuration,
)
from repro.graphs.workloads import distance_configuration
from repro.schemes.spanning_tree import SpanningTreePLS
from repro.schemes.distance import distance_rpls
from repro.schemes.flow import k_flow_rpls
from repro.schemes.mst import mst_rpls
from repro.simulation.runner import format_table

SMOKE_TRIALS = 6
ORACLE_TRIALS = 3


def workloads():
    """Every engine-hooked (scheme, configuration) pair the benchmarks use."""
    spanning = spanning_tree_configuration(16, 5, seed=1)
    yield ("compiled(spanning-tree)", FingerprintCompiledRPLS(SpanningTreePLS()), spanning, "edge")
    yield (
        "boosted(compiled, t=3)",
        BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 3),
        spanning,
        "edge",
    )
    yield ("compiled(mst)", mst_rpls(), mst_configuration(14, seed=2), "edge")
    yield (
        "compiled(k-flow)",
        k_flow_rpls(),
        flow_configuration(2, path_length=3, decoy_edges=2, seed=3),
        "edge",
    )
    yield (
        "compiled(distance)",
        distance_rpls(weighted=True),
        distance_configuration(14, 5, seed=4, weighted=True),
        "edge",
    )
    yield (
        "shared-coins(spanning-tree)",
        SharedCoinsCompiledRPLS(SpanningTreePLS()),
        spanning,
        "shared",
    )
    yield (
        "noisy(compiled, p=0.002)",
        NoisyChannelRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 0.002),
        spanning,
        "edge",
    )


def smoke_workload(name, scheme, configuration, randomness):
    """Run one workload's checks; returns its report row."""
    labels = scheme.prover(configuration)
    plan = VerificationPlan.compile(
        scheme, configuration, labels=labels, randomness=randomness
    )
    assert plan.uses_fast_path, f"{name}: plan fell back to the generic path"

    for trial in range(ORACLE_TRIALS):
        trial_seed = derive_trial_seed(0, trial)
        reference = verify_randomized(
            scheme, configuration, seed=trial_seed, labels=labels,
            randomness=randomness,
        ).accepted
        assert plan.run_trial(trial_seed) == reference, (
            f"{name}: trial {trial} diverged from the reference oracle"
        )
        if plan.vector_ready:
            scalar = plan.run_trial(trial_seed, "vector")
            vector = bool(plan.run_trials([trial_seed], rng_mode="vector", vectorize=True))
            assert vector == scalar, (
                f"{name}: vectorized decision diverged on trial {trial}"
            )

    estimate = estimate_acceptance_fast(plan, SMOKE_TRIALS)
    assert estimate.probability == 1.0 or not scheme.one_sided, (
        f"{name}: one-sided completeness violated ({estimate})"
    )
    if plan.vector_ready:
        vector_estimate = estimate_acceptance_fast(
            plan, SMOKE_TRIALS, rng_mode="vector", vectorize=True
        )
        assert vector_estimate.probability == 1.0, (
            f"{name}: vector-rng completeness violated ({vector_estimate})"
        )
    return [name, plan.half_edge_count, plan.kernel_path, "ok"]


#: One pinned single-bit proof fault per kernel family, on the smoke's
#: spanning tree: (name, scheme, randomness, (victim, flipped bit)).  Each
#: flip leaves the stored replica at one pair different from its sender.
FAULT_WORKLOADS = (
    ("fault:fingerprint", lambda: FingerprintCompiledRPLS(SpanningTreePLS()), "edge", (0, 0)),
    (
        "fault:threshold",
        lambda: BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 3),
        "edge",
        (0, 0),
    ),
    ("fault:parity", lambda: SharedCoinsCompiledRPLS(SpanningTreePLS()), "shared", (0, 0)),
)
FAULT_TRIALS = 16


def smoke_fault(name, make_scheme, randomness, flip):
    """One pinned proof fault through the kernel lookup; returns its row."""
    configuration = spanning_tree_configuration(16, 5, seed=1)
    scheme = make_scheme()
    labels = dict(scheme.prover(configuration))
    victim, bit = flip
    label = labels[victim]
    labels[victim] = BitString(label.value ^ (1 << bit), label.length)
    plan = VerificationPlan.compile(
        scheme, configuration, labels=labels, randomness=randomness
    )
    assert plan.constant_verdict is None and plan.vector_ready, (
        f"{name}: the pinned flip no longer reaches the kernel"
    )
    state = vector_state(plan)
    dirty = state.dirty_pairs
    assert not state.constant_false and dirty, (
        f"{name}: the pinned flip folds to a constant kernel state"
    )
    seeds = [derive_trial_seed(0, trial) for trial in range(FAULT_TRIALS)]
    scalar = [plan.run_trial(seed, "vector") for seed in seeds]
    chunk = plan.run_trials(seeds, rng_mode="vector", vectorize=True)
    singles = [
        bool(plan.run_trials([seed], rng_mode="vector", vectorize=True))
        for seed in seeds
    ]
    assert singles == scalar and chunk == sum(scalar), (
        f"{name}: vectorized decisions diverged from the scalar path"
    )
    return [name, plan.half_edge_count, f"numpy, {dirty} dirty", "ok"]


def smoke_spec_registry():
    """Every registered verdict spec, wired end to end, in one report row.

    Iterates :func:`repro.engine.specs.iter_specs` (the same registry the
    differential matrix is generated from), so a newly registered scheme is
    smoke-covered automatically: fast-path compilation on the spec's clean
    workload and a reference-oracle-identical trial, per spec.
    """
    from repro.engine.specs import clean_configuration, iter_specs, scheme_for

    checked = []
    for spec in iter_specs():
        scheme = scheme_for(spec)
        configuration = clean_configuration(spec, seed=1)
        labels = scheme.prover(configuration)
        plan = VerificationPlan.compile(
            scheme, configuration, labels=labels, randomness=spec.randomness
        )
        assert plan.uses_fast_path, f"spec {spec.name}: generic-path fallback"
        trial_seed = derive_trial_seed(0, 0)
        reference = verify_randomized(
            scheme, configuration, seed=trial_seed, labels=labels,
            randomness=spec.randomness,
        ).accepted
        assert plan.run_trial(trial_seed) == reference, (
            f"spec {spec.name}: diverged from the reference oracle"
        )
        checked.append(spec.name)
    assert checked, "verdict-spec registry is empty"
    return [[f"verdict-specs[{len(checked)} schemes]", "-", "registry", "ok"]]


def smoke_parallel():
    """One tiny campaign through the process executor; returns report rows.

    Covers the PR 4 wiring the unit tests mark ``parallel_proc``: spec
    pickling into real worker processes, per-worker plan resolution, the
    sharded merge's verdict-count identity with the single-process run, and
    — the worker-leak regression guard — an empty ``active_children()``
    after the pool closes.  Falls back to the serial backend (still
    exercising the campaign layer) only where the sandbox forbids forking.
    """
    from repro.engine import estimate_acceptance_fast
    from repro.parallel import Campaign, estimate_acceptance_sharded, workload_spec

    campaign = Campaign.sweep(
        "smoke",
        [("spanning-tree", {"node_count": 12, "extra_edges": 3})],
        rng_modes=("compat", "vector"),
        trial_budgets=(32,),
    )
    backend = "process"
    try:
        records = _run_smoke_campaign(campaign, backend)
    # OSError/PermissionError: fork/pipe syscalls refused outright.
    # RuntimeError covers concurrent.futures BrokenProcessPool — workers
    # spawned but killed by the sandbox (seccomp/cgroups) mid-run.
    except (OSError, PermissionError, RuntimeError) as exc:  # pragma: no cover
        print(f"process executor unavailable ({exc}); smoke falls back to serial")
        backend = "serial"
        records = _run_smoke_campaign(campaign, backend)

    assert len(records) == len(campaign.cells), "campaign skipped cells unexpectedly"
    for record in records:
        assert record["probability"] == 1.0, (
            f"campaign cell {record['cell']}: completeness violated"
        )

    # Verdict-count identity through the chosen backend on a nontrivial
    # (two-sided) workload — the sharded determinism contract end to end.
    spec = workload_spec("noisy-spanning-tree", rng_mode="vector", node_count=12)
    single = estimate_acceptance_fast(spec.resolve(), 64, seed=1)
    sharded = estimate_acceptance_sharded(
        spec, 64, seed=1, executor=backend, workers=_workers(backend), shard_count=4
    )
    assert sharded.estimate == single, "sharded merge diverged from single-process"

    streamed_rows = _smoke_streamed_campaign(backend)
    chaos_rows = _smoke_chaos_recovery(backend)
    adaptive_rows = _smoke_adaptive_campaign(backend)

    leaked = multiprocessing.active_children()
    assert not leaked, f"worker processes leaked past executor close: {leaked}"
    return (
        [[f"campaign[{record['cell']}]", "-", backend, "ok"] for record in records]
        + [[f"sharded-merge(noisy, {sharded.shards} shards)", "-", backend, "ok"]]
        + streamed_rows
        + chaos_rows
        + adaptive_rows
    )


def _workers(backend):
    """The serial backend runs exactly one worker; asking for more raises."""
    return 2 if backend != "serial" else None


def _smoke_streamed_campaign(backend):
    """One cell-parallel mini-campaign over the streamed shard channel.

    Two concurrent cells stream partial shard counts over the shared pool;
    the no-stop cells must land on the exact single-process counts
    (streaming is observational), and the teardown must leave no worker
    processes behind — the same leak guard as the plain campaign above.
    """
    from repro.engine import estimate_acceptance_fast
    from repro.parallel import Campaign, MemorySink, run_campaign, workload_spec

    campaign = Campaign.sweep(
        "smoke-streamed",
        [("spanning-tree", {"node_count": 12, "extra_edges": 3})],
        rng_modes=("compat", "vector"),
        trial_budgets=(48,),
    )
    records = run_campaign(
        campaign,
        executor=backend,
        workers=_workers(backend),
        sink=MemorySink(),
        cell_parallelism=2,
    )
    assert len(records) == len(campaign.cells), "streamed campaign dropped cells"
    # Deterministic sink order: records arrive in campaign declaration order
    # even though the cells ran concurrently.
    assert [r["cell"] for r in records] == [c.name for c in campaign.cells], (
        "concurrent cells wrote records out of campaign order"
    )
    for record, cell in zip(records, campaign.cells):
        single = estimate_acceptance_fast(cell.spec.resolve(), cell.trials, seed=cell.seed)
        assert record["trials"] == single.trials, record["cell"]
        assert record["accepted"] == single.accepted, (
            f"streamed cell {record['cell']}: counts diverged from single-process"
        )
    leaked = multiprocessing.active_children()
    assert not leaked, f"worker processes leaked past streamed campaign: {leaked}"
    return [
        [f"streamed[{record['cell']}]", "-", f"{backend} x2 cells", "ok"]
        for record in records
    ]


def _smoke_adaptive_campaign(backend):
    """One tiny global-budget campaign — the PR 10 wiring.

    Two cells of very different hardness share one trial budget; the
    allocator must converge both inside it, every recorded count must be an
    exact reproducible prefix of the cell's deterministic trial sequence
    (decision validity: allocation never touches a verdict), and teardown
    must leave no worker processes behind — the same leak guard as the
    other campaign smokes.
    """
    from repro.parallel import (
        Campaign,
        Cell,
        MemorySink,
        estimate_acceptance_sharded,
        run_campaign,
        workload_spec,
    )

    campaign = Campaign(
        name="smoke-adaptive",
        cells=(
            Cell(
                name="easy",
                spec=workload_spec("spanning-tree", rng_mode="vector", node_count=12),
                trials=32,
                seed=0,
            ),
            Cell(
                name="hard",
                spec=workload_spec(
                    "noisy-spanning-tree", rng_mode="vector", node_count=12,
                    flip_milli=5,
                ),
                trials=32,
                seed=0,
            ),
        ),
    )
    records = run_campaign(
        campaign,
        executor=backend,
        workers=_workers(backend),
        sink=MemorySink(),
        cell_parallelism=2,
        global_budget=3000,
        target_halfwidth=0.05,
    )
    assert len(records) == len(campaign.cells), "adaptive campaign dropped cells"
    consumed = 0
    cells = {cell.name: cell for cell in campaign.cells}
    for record in records:
        allocation = record["allocation"]
        assert allocation["converged"], (
            f"adaptive cell {record['cell']} missed the target halfwidth"
        )
        consumed += allocation["consumed"]
        replay = estimate_acceptance_sharded(
            cells[record["cell"]].spec, record["trials"],
            seed=cells[record["cell"]].seed, executor="serial",
        )
        assert replay.estimate.accepted == record["accepted"], (
            f"adaptive cell {record['cell']}: counts are not a reproducible prefix"
        )
    assert consumed <= 3000, "allocator overspent the global budget"
    leaked = multiprocessing.active_children()
    assert not leaked, f"worker processes leaked past adaptive campaign: {leaked}"
    return [
        [
            f"adaptive[{record['cell']}]",
            f"{record['allocation']['consumed']} trials",
            f"{backend} global-budget",
            "ok",
        ]
        for record in records
    ]


def _smoke_chaos_recovery(backend):
    """Kill a worker mid-run; supervision must still merge the exact counts.

    The PR 6 wiring: on the process backend the chaos harness SIGKILLs a
    real worker (breaking the pool) and the supervisor's retry + pool
    repair must reproduce the undisturbed single-process estimate bit for
    bit.  On the serial fallback the kill degrades to an injected crash —
    the same retry path, minus the repair.  Either way the estimate is the
    identity check, not a tolerance.
    """
    from repro.engine import estimate_acceptance_fast
    from repro.parallel import (
        ChaosExecutor,
        FaultPolicy,
        RetryPolicy,
        estimate_acceptance_sharded,
        resolve_executor,
        workload_spec,
    )

    shard_count, retries = 4, 6
    # Walk the pure fault schedule for a seed that kills at least one first
    # attempt and leaves every retry clean — deterministic, no flakiness.
    def fits(seed):
        policy = FaultPolicy(seed=seed, kill_rate=0.3)
        return any(
            policy.decide(i, 0) == "kill" for i in range(shard_count)
        ) and all(
            policy.decide(i, a) is None
            for i in range(shard_count)
            for a in range(1, retries + 1)
        )

    policy = FaultPolicy(seed=next(s for s in range(1000) if fits(s)), kill_rate=0.3)
    spec = workload_spec("noisy-spanning-tree", rng_mode="vector", node_count=12)
    single = estimate_acceptance_fast(spec.resolve(), 64, seed=1)
    inner, _owned = resolve_executor(backend, _workers(backend))
    try:
        chaos = ChaosExecutor(inner, policy)
        sharded = estimate_acceptance_sharded(
            spec, 64, seed=1, executor=chaos, shard_count=shard_count,
            retry_policy=RetryPolicy(
                max_retries=retries, backoff_base=0.01, backoff_max=0.05
            ),
        )
    finally:
        inner.close()
    assert any(kind == "kill" for _, _, kind in chaos.injected), (
        "chaos smoke injected no kill fault"
    )
    assert sharded.report is not None and sharded.report.ok, (
        f"chaos smoke quarantined shards: {sharded.report.as_dict()}"
    )
    assert sharded.estimate == single, (
        "killed-worker run diverged from the single-process estimate"
    )
    leaked = multiprocessing.active_children()
    assert not leaked, f"worker processes leaked past chaos recovery: {leaked}"
    mode = "worker kill + repair" if backend == "process" else "injected crash"
    return [[f"chaos-recovery({mode})", "-", backend, "ok"]]


def _run_smoke_campaign(campaign, backend):
    from repro.parallel import MemorySink, run_campaign

    return run_campaign(
        campaign, executor=backend, workers=_workers(backend), sink=MemorySink()
    )


def smoke_bench_history():
    """The perf-regression gate as a tier-1 invariant; returns its report row.

    Runs ``python -m repro.benchhistory gate`` (in process) over the
    *committed* ``BENCH_engine.json`` snapshot and ``benchmarks/history/``
    store — a pure, deterministic file comparison, no measurement, so it
    cannot flake.  The gate passing means the current commit has not
    degraded any recorded kernel beyond its noise threshold; it skips
    cleanly (still exit 0) where there is nothing sound to compare — no
    recorded baseline yet, or a cpu_count mismatch with the machine that
    recorded the baseline (the established bench posture on the 1-CPU
    container).  A non-zero exit is a recorded speed win lost: fail loudly.
    """
    from repro.benchhistory.cli import main as benchhistory_main

    repo = pathlib.Path(__file__).parent.parent
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = benchhistory_main(
            [
                "gate",
                "--input", str(repo / "BENCH_engine.json"),
                "--history", str(repo / "benchmarks" / "history"),
            ]
        )
    output = buffer.getvalue()
    assert code == 0, f"bench-history gate failed:\n{output}"
    skipped = "gate: skipped" in output
    status = output.strip().splitlines()[-1] if skipped else "ok"
    return [["bench-history gate", "-", "history", status]]


def smoke_observability():
    """The telemetry layer end to end in one temp dir; returns report rows.

    The PR 9 wiring: a tiny traced campaign must (a) write records identical
    to the untraced run modulo wall-clock fields — tracing is observational —
    (b) produce a trace directory that ``python -m repro.obs report`` reads
    with exit 0, (c) export valid Chrome trace-event JSON, and (d) leave the
    bench-history gate above unperturbed when it runs *inside* a trace
    context (telemetry must never turn a passing gate red).
    """
    import json
    import tempfile

    from repro.benchhistory.cli import main as benchhistory_main
    from repro.obs.cli import main as obs_main
    from repro.obs.runtime import tracing
    from repro.parallel import Campaign, MemorySink, run_campaign

    def tiny_campaign():
        return Campaign.sweep(
            "smoke-obs",
            [("spanning-tree", {"node_count": 12, "extra_edges": 3})],
            rng_modes=("vector",),
            trial_budgets=(32,),
        )

    def strip_timing(record):
        record = {k: v for k, v in record.items() if k != "elapsed_sec"}
        supervision = record.get("supervision")
        if supervision:
            record["supervision"] = {
                k: v
                for k, v in supervision.items()
                if k not in ("started_unix", "finished_unix", "duration_sec")
            }
        return record

    untraced_sink = MemorySink()
    run_campaign(tiny_campaign(), executor="serial", sink=untraced_sink)

    with tempfile.TemporaryDirectory() as tmp:
        trace_dir = pathlib.Path(tmp) / "trace"
        traced_sink = MemorySink()
        with tracing(trace_dir):
            run_campaign(tiny_campaign(), executor="serial", sink=traced_sink)
        assert [strip_timing(r) for r in traced_sink.records] == [
            strip_timing(r) for r in untraced_sink.records
        ], "tracing perturbed campaign records"

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = obs_main(["report", str(trace_dir)])
        report = buffer.getvalue()
        assert code == 0, f"obs report failed:\n{report}"
        assert "trials=32" in report, f"obs report missing run rollup:\n{report}"
        assert "worker.trials = 32" in report, f"obs report missing metrics:\n{report}"

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = obs_main(["export", str(trace_dir), "--chrome"])
        assert code == 0, "obs chrome export failed"
        payload = json.loads(buffer.getvalue())
        assert payload["traceEvents"], "chrome export produced no events"
        assert all(e["ph"] in ("X", "i") for e in payload["traceEvents"])

        # The bench gate under tracing: same committed-file comparison as
        # smoke_bench_history, now with the recorder installed.
        repo = pathlib.Path(__file__).parent.parent
        gate_dir = pathlib.Path(tmp) / "gate-trace"
        buffer = io.StringIO()
        with tracing(gate_dir), contextlib.redirect_stdout(buffer):
            code = benchhistory_main(
                [
                    "gate",
                    "--input", str(repo / "BENCH_engine.json"),
                    "--history", str(repo / "benchmarks" / "history"),
                ]
            )
        assert code == 0, f"bench gate failed under tracing:\n{buffer.getvalue()}"

    return [
        ["traced-campaign identity", "-", "obs", "ok"],
        ["obs report + chrome export", "-", "obs", "ok"],
        ["bench gate under tracing", "-", "obs", "ok"],
    ]


def main() -> int:
    rows = [smoke_workload(*workload) for workload in workloads()]
    rows.extend(smoke_fault(*workload) for workload in FAULT_WORKLOADS)
    rows.extend(smoke_spec_registry())
    rows.extend(smoke_parallel())
    rows.extend(smoke_bench_history())
    rows.extend(smoke_observability())
    print(format_table(["workload", "half-edges", "kernel", "status"], rows))
    print(f"\n{len(rows)} engine-hooked workloads smoke-tested ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
