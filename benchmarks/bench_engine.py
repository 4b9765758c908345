"""E20 — the batched verification engine: trials/sec, legacy vs batched.

Every soundness experiment in this repository is a Monte-Carlo loop over
repeated verification rounds, so trials-per-second is the throughput metric
that bounds how much statistical evidence any benchmark can gather.  This
experiment measures it on seven proof-faulted workloads (one label bit
flipped, chosen by the ranked search of ``tests/spec_matrix.py``: an
honest plan has no dirty pair, so its kernel is a constant) — the paper's
headline Theorem 3.1 compiled spanning-tree scheme (200 nodes), the same
with footnote-1 certificate boosting (t=3), the compiled Borůvka-trace MST
scheme (96 nodes, the largest-label workload in the library), the Section 6
shared-coins compiler on the 200-node spanning tree (the packed-parity
kernel workload), and one verdict-spec zoo representative per kernel
family (:mod:`repro.engine.specs`): compiled biconnectivity (fingerprint),
shared-coins MIS (parity), boosted Hamiltonicity (threshold) — for three
execution paths:

- **legacy** — the reference per-trial loop ``estimate_acceptance``;
- **engine compat** — ``VerificationPlan`` + ``estimate_acceptance_fast``
  with the legacy-identical RNG streams (bit-for-bit the same accept/reject
  decisions, asserted below);
- **engine vector** — ``rng_mode="vector"``: the counter-based SplitMix64
  stream, with the trial chunks executed by the vectorized kernels of
  :mod:`repro.engine.kernels` (agree-row lookups for fingerprint schemes,
  packed-``uint64`` GF(2) popcounts for the shared-coins scheme), where
  the draws too evaluate as one uint64 array op per chunk
  (decision-identical to the scalar CounterRng path per trial, asserted
  below).

A fourth measurement shards the vector-mode run across worker processes
(:mod:`repro.parallel`) on the spanning-tree and shared-coins workloads —
the PR 4 axis: once the per-trial arithmetic is array ops, the remaining
ceiling is one Python process.  Worker count comes from ``--workers`` /
``BENCH_WORKERS`` (default 4, the satellite target); the recorded results
carry the box's CPU count so a 1-core container's ~1x is interpretable.
The >= 2x speedup bar is asserted only when >= 4 CPUs are actually
available.

Results are persisted machine-readably twice: the ``BENCH_engine.json``
snapshot at the repository root (the convenient "latest" view, written
atomically), and an append-only per-commit profile in
``benchmarks/history/`` — one record per workload x mode x backend with
per-repeat throughput samples — which is what the noise-aware regression
gate (``python -m repro.benchhistory gate``) compares against, so a PR can
never silently record over a speed win.  Run standalone (no pytest) for
just the sharded comparison:

    PYTHONPATH=src python benchmarks/bench_engine.py --workers 4 --executor process
"""

import argparse
import json
import os
import pathlib
import sys
import time

from repro.core.boosting import BoostedRPLS
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.seeding import derive_trial_seed
from repro.core.shared import SharedCoinsCompiledRPLS
from repro.core.verifier import estimate_acceptance, verify_randomized
from repro.engine import VerificationPlan, estimate_acceptance_fast
from repro.graphs.generators import mst_configuration, spanning_tree_configuration
from repro.parallel import (
    EXECUTORS,
    available_cpus,
    estimate_acceptance_sharded,
    resolve_executor,
    workload_spec,
)
from repro.schemes.mst import mst_rpls
from repro.schemes.spanning_tree import SpanningTreePLS
from repro.simulation.runner import format_table

TRAJECTORY_PATH = pathlib.Path(__file__).parent.parent / "BENCH_engine.json"
HISTORY_DIR = pathlib.Path(__file__).parent / "history"
TESTS_DIR = pathlib.Path(__file__).parent.parent / "tests"


def write_trajectory(payload, history_dir=HISTORY_DIR):
    """Persist one bench run: atomic snapshot + append-only history profile.

    The ``BENCH_engine.json`` snapshot is replaced atomically (a torn
    snapshot would poison the regression gate that reads it), and the same
    payload is flattened into per-kernel records and appended to the
    ``benchmarks/history/`` store — the overwritten snapshot stops being
    the only record of the repo's speed wins.  Returns the payload.
    """
    from repro.benchhistory import (
        HistoryStore,
        atomic_write_text,
        profile_from_snapshot,
    )

    atomic_write_text(TRAJECTORY_PATH, json.dumps(payload, indent=2) + "\n")
    profile_id, records = profile_from_snapshot(payload)
    recorded = HistoryStore(history_dir).record(records, profile_id=profile_id)
    print(f"\nrecorded bench profile {recorded} ({len(records)} kernels)")
    return payload

NODE_COUNT = 200
EXTRA_EDGES = 60
MST_NODE_COUNT = 96
REQUIRED_SPEEDUP = 5.0
# The vector-mode numpy kernels must beat the scalar compat path on every
# kernel workload's best case, and on the shared-coins workload, by at least
# this factor (measured in the hundreds; the bar is low to absorb noise).
REQUIRED_VECTOR_SPEEDUP = 1.5
# Process sharding must buy >= 2x wall-clock with 4 workers on the 200-node
# spanning-tree workload — asserted only where 4 cores actually exist.
REQUIRED_SHARDED_SPEEDUP = 2.0
DEFAULT_WORKERS = int(os.environ.get("BENCH_WORKERS", "4"))

# The sharded workloads, at bench size, as picklable specs (the process
# executor rebuilds plans in its workers; see repro.parallel.spec).
SHARDED_WORKLOADS = [
    (
        "compiled(spanning-tree)",
        workload_spec(
            "spanning-tree",
            rng_mode="vector",
            node_count=NODE_COUNT,
            extra_edges=EXTRA_EDGES,
            seed=1,
        ),
        4000,
    ),
    (
        "shared-coins(spanning-tree)",
        workload_spec(
            "shared-coins",
            rng_mode="vector",
            node_count=NODE_COUNT,
            extra_edges=EXTRA_EDGES,
            seed=1,
        ),
        20000,
    ),
]


# Coarse perf_counter backends can report a zero (or sub-resolution) delta
# on a fast kernel with a small budget — dividing by it is a
# ZeroDivisionError (or a garbage rate).  Measurements below the floor
# re-run with a doubled budget until the delta is measurable; the clamp is
# the last resort if the timer never moves at all.
MIN_MEASURABLE_SEC = 1e-6
MAX_TIMER_DOUBLINGS = 20


def _timed_rate(run, trials):
    """One measured trials/sec figure, never divided by a zero delta."""
    elapsed = 0.0
    for _ in range(MAX_TIMER_DOUBLINGS):
        start = time.perf_counter()
        run(trials)
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_MEASURABLE_SEC:
            return trials / elapsed
        trials *= 2
    return trials / max(elapsed, MIN_MEASURABLE_SEC)


def _throughput(run, trials, repeats=3):
    """Best-of-``repeats`` trials/sec (best-of defeats scheduler noise).

    Returns ``(best, samples)`` — the raw per-repeat rates ride into the
    recorded profiles so the history gate (:mod:`repro.benchhistory`) can
    estimate each kernel's noise floor from its repeat variance.
    """
    samples = [round(_timed_rate(run, trials), 1) for _ in range(repeats)]
    return max(samples), samples


def measure_sharded(workers=DEFAULT_WORKERS, executor_name="process", repeats=3):
    """Single-process vs sharded wall-clock on the sharded workloads.

    One executor instance (one warm pool, warm per-worker plan caches)
    serves every repeat — pool startup and first-shard plan compilation are
    deliberately excluded by a warm-up run, since the steady state is what
    a long campaign pays.  Returns one record per workload; the sharded
    estimate is asserted equal to the single-process one (the determinism
    contract), so the speedup column can never come from dropped trials.
    """
    records = []
    instance, owned = resolve_executor(executor_name, workers)
    try:
        for name, spec, trials in SHARDED_WORKLOADS:
            plan = spec.resolve()
            single, single_samples = _throughput(
                lambda n: estimate_acceptance_fast(
                    plan, n, seed=0, rng_mode="vector", vectorize=True
                ),
                trials,
                repeats,
            )
            sharded_estimate = estimate_acceptance_sharded(
                spec, trials, seed=0, executor=instance
            )  # warm-up: pool spin-up + worker-side compiles
            reference = estimate_acceptance_fast(
                plan, trials, seed=0, rng_mode="vector", vectorize=True
            )
            assert sharded_estimate.estimate == reference, name
            sharded, sharded_samples = _throughput(
                lambda n: estimate_acceptance_sharded(
                    spec, n, seed=0, executor=instance
                ),
                trials,
                repeats,
            )
            records.append(
                {
                    "scheme": name,
                    "trials": trials,
                    "workers": instance.workers,
                    "executor": instance.name,
                    "single_trials_per_sec": round(single, 1),
                    "sharded_trials_per_sec": round(sharded, 1),
                    "sharded_speedup": round(sharded / single, 2),
                    "samples": {"single": single_samples, "sharded": sharded_samples},
                    "verdict_identical": True,
                }
            )
    finally:
        if owned:
            instance.close()
    return records


# The adaptive-budget comparison campaign (PR 10): one lopsided cell that
# converges in its probe and one genuinely noisy cell that needs real
# budget — the shape where a fixed equal per-cell split wastes the most.
ADAPTIVE_TARGET_HALFWIDTH = 0.04
ADAPTIVE_CELLS = [
    (
        "compiled(spanning-tree)",
        workload_spec(
            "spanning-tree", rng_mode="vector", node_count=NODE_COUNT,
            extra_edges=EXTRA_EDGES, seed=1,
        ),
    ),
    (
        "noisy(spanning-tree)",
        workload_spec("noisy-spanning-tree", rng_mode="vector", node_count=24),
    ),
]


def measure_adaptive(
    instance, target_halfwidth=ADAPTIVE_TARGET_HALFWIDTH, probe_budget=60000
):
    """Global-budget allocation vs fixed per-cell budgets, same target.

    First measures each cell's *actual* need: a solo run to the
    target halfwidth.  A fixed equal per-cell split cannot size cells
    individually, so it must provision every cell at the worst cell's need
    — ``fixed_provision = n_cells * max(need)``.  Then one adaptive
    campaign runs with exactly that budget as its global pool; the
    recorded ``speedup`` is ``fixed_provision / adaptive_total`` (>= 1
    when reallocation starves converged cells instead of burning their
    share).  The record shape feeds the history gate's integral check
    through its ``speedup`` column (see repro.benchhistory).
    """
    from repro.parallel import Campaign, Cell, MemorySink, run_campaign

    needs = {}
    for name, spec in ADAPTIVE_CELLS:
        solo = estimate_acceptance_sharded(
            spec, probe_budget, seed=0, executor=instance,
            stop_halfwidth=target_halfwidth,
        )
        assert solo.stopped_early, f"{name}: raise probe_budget"
        needs[name] = solo.estimate.trials
    fixed_provision = len(ADAPTIVE_CELLS) * max(needs.values())

    campaign = Campaign(
        name="bench-adaptive",
        cells=tuple(
            Cell(name=name, spec=spec, trials=64, seed=0)
            for name, spec in ADAPTIVE_CELLS
        ),
    )
    records = run_campaign(
        campaign,
        executor=instance,
        sink=MemorySink(),
        global_budget=fixed_provision,
        target_halfwidth=target_halfwidth,
    )
    per_cell = {
        record["cell"]: {
            "fixed_need_trials": needs[record["cell"]],
            "consumed_trials": record["allocation"]["consumed"],
            "installments": len(record["allocation"]["installments"]),
            "converged": record["allocation"]["converged"],
        }
        for record in records
    }
    adaptive_total = sum(cell["consumed_trials"] for cell in per_cell.values())
    return [
        {
            "scheme": "adaptive-campaign(mixed)",
            "target_halfwidth": target_halfwidth,
            "executor": instance.name,
            "workers": instance.workers,
            "cells": len(ADAPTIVE_CELLS),
            "global_budget": fixed_provision,
            "fixed_provision_trials": fixed_provision,
            "adaptive_total_trials": adaptive_total,
            "trials_saved": fixed_provision - adaptive_total,
            "speedup": round(fixed_provision / adaptive_total, 2),
            "all_converged": all(c["converged"] for c in per_cell.values()),
            "per_cell": per_cell,
        }
    ]


SHARDED_TABLE_HEADER = ["sharded workload", "workers", "single/s", "sharded/s", "speedup"]
ADAPTIVE_TABLE_HEADER = [
    "adaptive campaign", "halfwidth", "fixed trials", "adaptive trials", "saved",
]


def _adaptive_rows(records):
    return [
        [
            record["scheme"],
            f"{record['target_halfwidth']:.3f}",
            record["fixed_provision_trials"],
            record["adaptive_total_trials"],
            f"{record['trials_saved']} ({record['speedup']:.2f}x)",
        ]
        for record in records
    ]


def _sharded_rows(records):
    """The E20 report rows for a measure_sharded result set (one format,
    shared by the pytest table and the standalone CLI)."""
    return [
        [
            record["scheme"],
            record["workers"],
            f"{record['single_trials_per_sec']:.1f}",
            f"{record['sharded_trials_per_sec']:.1f}",
            f"{record['sharded_speedup']:.2f}x",
        ]
        for record in records
    ]


def _measure(scheme, configuration, labels, randomness, legacy_trials, engine_trials):
    """Throughput of every execution path; returns ``(plan, rates, samples)``.

    ``rates`` maps the history-profile mode names
    (:mod:`repro.benchhistory`) to best-of-repeats trials/sec; ``samples``
    maps them to the raw per-repeat rates the noise-floor estimate uses.
    """
    plan = VerificationPlan.compile(
        scheme, configuration, labels=labels, randomness=randomness
    )
    runs = [
        ("legacy", legacy_trials, lambda n: estimate_acceptance(
            scheme, configuration, trials=n, seed=0, labels=labels,
            randomness=randomness,
        )),
        ("engine-compat", engine_trials, lambda n: estimate_acceptance_fast(
            plan, n, seed=0
        )),
        ("engine-vector", engine_trials, lambda n: estimate_acceptance_fast(
            plan, n, seed=0, rng_mode="vector", vectorize=True
        )),
    ]
    rates, samples = {}, {}
    for mode, trials, run in runs:
        rates[mode], samples[mode] = _throughput(run, trials)
    return plan, rates, samples


def _proof_fault(scheme, configuration, randomness, name):
    """The ranked single-bit flip of the honest labels; must reach a kernel.

    The row names carry a ``fault:`` prefix so the history gate sees new
    columns rather than the honest rows jumping.
    """
    if str(TESTS_DIR) not in sys.path:
        sys.path.insert(0, str(TESTS_DIR))
    from spec_matrix import kernel_draws_coins, ranked_flip

    labels = ranked_flip(
        scheme, configuration, scheme.prover(configuration), randomness,
        kernel_draws=True,
    )
    assert labels is not None and kernel_draws_coins(
        VerificationPlan.compile(scheme, configuration, labels=labels, randomness=randomness)
    ), f"{name}: no single-bit flip keeps the kernel drawing coins"
    return labels


def _assert_bit_identical(
    scheme, configuration, labels, plan, randomness, trials=25, seed=0
):
    """Per-trial accept/reject equality across every execution path.

    Compat mode (scalar) must match the one-shot reference oracle; in
    vector mode the numpy kernel must match the scalar CounterRng path
    (each mode is its own probability-space point).
    """
    for trial in range(trials):
        trial_seed = derive_trial_seed(seed, trial)
        reference = verify_randomized(
            scheme, configuration, seed=trial_seed, labels=labels,
            randomness=randomness,
        ).accepted
        assert plan.run_trial(trial_seed) == reference, trial
        scalar = plan.run_trial(trial_seed, rng_mode="vector")
        vectorized = bool(
            plan.run_trials([trial_seed], rng_mode="vector", vectorize=True)
        )
        assert vectorized == scalar, trial
    return True


def test_engine_throughput(benchmark, report):
    spanning = spanning_tree_configuration(NODE_COUNT, EXTRA_EDGES, seed=1)
    mst = mst_configuration(MST_NODE_COUNT, seed=1)
    rows = []
    results = []

    workloads = [
        (
            "compiled(spanning-tree)",
            FingerprintCompiledRPLS(SpanningTreePLS()),
            spanning,
            "edge",
            20,
            200,
        ),
        (
            "boosted(compiled, t=3)",
            BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 3),
            spanning,
            "edge",
            12,
            120,
        ),
        ("compiled(mst)", mst_rpls(), mst, "edge", 6, 60),
        (
            "shared-coins(spanning-tree)",
            SharedCoinsCompiledRPLS(SpanningTreePLS()),
            spanning,
            "shared",
            20,
            400,
        ),
    ]
    # One verdict-spec zoo scheme per kernel family, through the same
    # factories the campaign sweeps use (repro.parallel.factories).
    from repro.parallel.factories import (
        boosted_hamiltonicity,
        compiled_biconnectivity,
        shared_coins_mis,
    )

    for name, factory, randomness, legacy_trials, engine_trials in [
        ("compiled(biconnectivity)", lambda: compiled_biconnectivity(node_count=72), "edge", 8, 80),
        ("shared-coins(mis)", lambda: shared_coins_mis(node_count=96, extra_edges=30), "shared", 20, 300),
        ("boosted(hamiltonicity, t=2)", lambda: boosted_hamiltonicity(node_count=48, extra_edges=20), "edge", 8, 80),
    ]:
        scheme, configuration = factory()
        workloads.append(
            (name, scheme, configuration, randomness, legacy_trials, engine_trials)
        )
    for name, scheme, configuration, randomness, legacy_trials, engine_trials in workloads:
        name = f"fault:{name}"
        labels = _proof_fault(scheme, configuration, randomness, name)
        plan, rates, samples = _measure(
            scheme, configuration, labels, randomness, legacy_trials, engine_trials
        )
        legacy, compat, vector = (
            rates["legacy"], rates["engine-compat"], rates["engine-vector"],
        )
        assert plan.uses_fast_path and plan.vector_ready
        identical = _assert_bit_identical(
            scheme, configuration, labels, plan, randomness
        )
        rows.append(
            [
                name,
                plan.half_edge_count,
                f"{legacy:.1f}",
                f"{compat:.1f}",
                f"{vector:.1f}",
                f"{compat / legacy:.1f}x",
                f"{vector / compat:.1f}x",
            ]
        )
        results.append(
            {
                "scheme": name,
                "randomness": randomness,
                "half_edges": plan.half_edge_count,
                "legacy_trials_per_sec": round(legacy, 1),
                "engine_compat_trials_per_sec": round(compat, 1),
                "engine_vector_rng_trials_per_sec": round(vector, 1),
                "speedup_compat": round(compat / legacy, 2),
                "speedup_vector_rng": round(vector / legacy, 2),
                "vector_vs_compat": round(vector / compat, 2),
                "samples": samples,
                "bit_identical": identical,
            }
        )

    sharded_results = measure_sharded()
    instance, owned = resolve_executor("process", DEFAULT_WORKERS)
    try:
        adaptive_results = measure_adaptive(instance)
    finally:
        if owned:
            instance.close()

    report(
        "E20_engine",
        format_table(
            [
                "scheme",
                "half-edges",
                "legacy/s",
                "compat/s",
                "vector/s",
                "compat",
                "vector gain",
            ],
            rows,
        )
        + "\n\n"
        + format_table(SHARDED_TABLE_HEADER, _sharded_rows(sharded_results))
        + "\n\n"
        + format_table(ADAPTIVE_TABLE_HEADER, _adaptive_rows(adaptive_results)),
    )

    write_trajectory(
        {
            "experiment": "engine_throughput",
            "workload": {
                "node_count": NODE_COUNT,
                "extra_edges": EXTRA_EDGES,
                "generator": "spanning_tree_configuration(seed=1)",
                "mst_node_count": MST_NODE_COUNT,
                "mst_generator": "mst_configuration(seed=1)",
            },
            "python": sys.version.split()[0],
            "required_speedup": REQUIRED_SPEEDUP,
            "required_vector_speedup": REQUIRED_VECTOR_SPEEDUP,
            "required_sharded_speedup": REQUIRED_SHARDED_SPEEDUP,
            "cpu_count": available_cpus(),
            "workers": sharded_results[0]["workers"] if sharded_results else 0,
            "results": results,
            "sharded_results": sharded_results,
            "adaptive_results": adaptive_results,
        }
    )

    # The acceptance bar: the bit-identical batched path clears 5x on at
    # least one workload, the vector-mode numpy kernels clear their margin
    # over the scalar compat path, and every workload agrees with the
    # reference oracle decision-for-decision on every path.
    assert all(result["bit_identical"] for result in results)
    assert max(result["speedup_compat"] for result in results) >= REQUIRED_SPEEDUP
    assert (
        max(result["vector_vs_compat"] for result in results)
        >= REQUIRED_VECTOR_SPEEDUP
    )
    # The shared-coins popcount kernel must beat the scalar compat path.
    shared_result = next(r for r in results if r["randomness"] == "shared")
    assert shared_result["vector_vs_compat"] >= REQUIRED_VECTOR_SPEEDUP

    # Sharding: every sharded run was verdict-identical to single-process
    # (asserted inside measure_sharded); the wall-clock bar only applies
    # where the hardware can physically provide it.
    assert all(record["verdict_identical"] for record in sharded_results)

    # Adaptive budgets: every cell reached the target halfwidth, and the
    # global budget spent no more than the fixed per-cell provision it
    # replaced (the allocator can only save trials, never add them).
    assert all(record["all_converged"] for record in adaptive_results)
    assert all(
        record["adaptive_total_trials"] <= record["fixed_provision_trials"]
        for record in adaptive_results
    )
    if available_cpus() >= 4 and all(r["workers"] >= 4 for r in sharded_results):
        assert (
            max(r["sharded_speedup"] for r in sharded_results)
            >= REQUIRED_SHARDED_SPEEDUP
        )

    # pytest-benchmark row: one vectorized engine chunk on the faulted
    # compiled scheme, counter-based draws.
    scheme = FingerprintCompiledRPLS(SpanningTreePLS())
    labels = _proof_fault(scheme, spanning, "edge", "benchmark row")
    plan = VerificationPlan.compile(scheme, spanning, labels=labels)
    benchmark(
        lambda: estimate_acceptance_fast(
            plan, 10, seed=2, rng_mode="vector", vectorize=True
        )
    )


def main(argv=None) -> int:
    """Standalone entry: just the sharded single-vs-multi comparison.

    The pytest run above regenerates the whole trajectory; this path is for
    quickly probing worker scaling on a given box:

        PYTHONPATH=src python benchmarks/bench_engine.py --workers 4 --executor process
    """
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument(
        "--executor", choices=sorted(EXECUTORS), default="process"
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    # The serial backend runs exactly one worker; passing the multi-worker
    # default through would (rightly) be rejected by resolve_executor.
    workers = args.workers if args.executor != "serial" else None
    records = measure_sharded(workers, args.executor, args.repeats)
    print(format_table(SHARDED_TABLE_HEADER, _sharded_rows(records)))
    instance, owned = resolve_executor(args.executor, workers)
    try:
        adaptive = measure_adaptive(instance)
    finally:
        if owned:
            instance.close()
    print()
    print(format_table(ADAPTIVE_TABLE_HEADER, _adaptive_rows(adaptive)))
    print(f"\ncpu_count={available_cpus()} executor={args.executor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
