"""``zoo-campaign``: an adaptive, supervised campaign over the whole scheme zoo.

Why: most cells converge within a few hundred to a few thousand trials and
state-fault cells fold to constants, so dispatch, progress routing,
supervision, allocator rounds and per-worker compiles dominate while the
kernels do little.  This is where collapsing the duplicated orchestration
paths should show.

Every registered ``VerdictSpec`` runs at its default small size: one pinned
single-bit proof-fault cell (where a flip that draws coins exists) and one
state-fault cell.  One pass is one ``run_campaign`` with a global trial
budget and a target halfwidth, on a ``ProcessExecutor`` of ``min(2, nproc)``
workers created (and its workers started) during set-up, with
``shard_timeout`` set so every shard runs supervised, one shard per
installment and as many cells in flight as workers.  Each pass uses its
own master seed.  The first pass compiles every plan in the workers; later
passes hit the worker plan caches.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from functools import partial
from typing import Dict, List, Tuple

from repro.engine import VerificationPlan, estimate_acceptance_fast, get_spec, spec_names
from repro.obs import get_metrics, tracing
from repro.parallel import (
    Campaign,
    Cell,
    PlanSpec,
    ProcessExecutor,
    SerialExecutor,
    ShardPlanner,
    available_cpus,
    estimate_acceptance_sharded,
    run_campaign,
    workload_spec,
)

from perfbench import metrics
from perfbench.workloads import ZOO_FLIPS, guard, zoo_proof_fault, zoo_state_fault

NAME = "zoo-campaign"
MIN_PASSES = 5
WORKERS = min(2, available_cpus())

TARGET_HALFWIDTH = 0.02
#: Far above what the campaign consumes: every cell must converge.
GLOBAL_BUDGET = 10_000_000
#: Generous: no healthy shard comes near it, but it puts every shard under
#: the heartbeat supervisor.
SHARD_TIMEOUT = 30.0

#: One shard per installment, with as many cells in flight as workers.  An
#: installment split over several shards that the streamed Wilson stop
#: cuts short consumes a part of each shard's range, not a prefix of the
#: installment, yet the allocator books it as a prefix: the record's counts
#: then differ from the counter prefix it claims (the recount check below
#: catches it, in about one pass in ten).  One shard per installment keeps
#: every answer exact.
ONE_SHARD = ShardPlanner(shard_count=1)

#: Router counters that lose information.  ``unknown`` updates are partials
#: arriving after their shard's result was merged, so they lose nothing.
LOSSY_ROUTER_COUNTERS = ("stale", "malformed", "callback_errors")


def zoo_cells() -> List[Tuple[str, PlanSpec]]:
    cells = []
    for name in spec_names():
        randomness = get_spec(name).randomness
        if name in ZOO_FLIPS:
            cells.append((f"proof/{name}", PlanSpec.of(
                zoo_proof_fault, name, randomness=randomness, rng_mode="vector")))
        cells.append((f"state/{name}", PlanSpec.of(
            zoo_state_fault, name, randomness=randomness, rng_mode="vector")))
    return cells


def _plan(spec: PlanSpec) -> VerificationPlan:
    """Compile a cell's plan in this process without touching the
    per-process PlanSpec caches (forked workers would inherit them warm)."""
    scheme, configuration, labels = spec.build_workload()
    return VerificationPlan.compile(scheme, configuration, labels=labels,
                                    randomness=spec.randomness, rng_mode=spec.rng_mode)


def start_executor() -> ProcessExecutor:
    """A fresh pool with its workers started by one tiny run."""
    executor = ProcessExecutor(workers=WORKERS)
    warm = estimate_acceptance_sharded(
        workload_spec("spanning-tree", node_count=4, extra_edges=0), 64, executor=executor
    )
    if executor.workers != WORKERS or warm.workers != WORKERS:
        executor.close()
        raise RuntimeError(f"asked for {WORKERS} workers, the pool has {warm.workers}")
    return executor


def setup(tiny: bool) -> Dict:
    cells = zoo_cells()
    plans = {}
    for name, spec in cells:
        plans[name] = _plan(spec)
        if name.startswith("proof/"):
            guard(plans[name], f"{NAME}/{name}")
    return {
        "cells": cells,
        "plans": plans,
        "target": 0.05 if tiny else TARGET_HALFWIDTH,
        "executor": start_executor(),
    }


def close(state: Dict) -> None:
    state["executor"].close()


def _campaign(state: Dict, seed: int) -> Campaign:
    return Campaign(NAME, tuple(
        Cell(name=name, spec=spec, trials=GLOBAL_BUDGET, seed=seed)
        for name, spec in state["cells"]
    ))


def _metric_totals() -> Dict[str, float]:
    """Counter values and histogram sums of this process's metrics registry."""
    snapshot = get_metrics().snapshot()
    totals = dict(snapshot["counters"])
    totals.update({name: data["sum"] for name, data in snapshot["histograms"].items()})
    return totals


def run_pass(state: Dict, seed: int, clock, executor=None, supervised: bool = True) -> Dict:
    executor = executor if executor is not None else state["executor"]
    router = getattr(executor, "progress_stats", dict)
    router_before, metrics_before = router(), _metric_totals()
    records, wall, seconds = clock.time(partial(
        run_campaign,
        _campaign(state, seed),
        executor=executor,
        global_budget=GLOBAL_BUDGET,
        target_halfwidth=state["target"],
        shard_timeout=SHARD_TIMEOUT if supervised else None,
        planner=ONE_SHARD,
        cell_parallelism=WORKERS,
    ))
    router_after, metrics_after = router(), _metric_totals()
    return {
        "seed": seed,
        "seconds": seconds,
        "wall_s": wall,
        "trials": sum(record.get("trials", 0) for record in records),
        "answers": [record.get("elapsed_sec", 0.0) * seconds / wall for record in records],
        "records": records,
        "router": {key: router_after[key] - router_before.get(key, 0) for key in router_after},
        "metrics": {key: value - metrics_before.get(key, 0)
                    for key, value in metrics_after.items()},
    }


def _check_records(state: Dict, answer: Dict, workers: int) -> Tuple[int, int]:
    """Each record is ok, converged, ran on the recorded pool, and its counts
    equal a single-process estimate over the same counter prefix."""
    attempted = failed = 0
    for record in answer["records"]:
        attempted += 1
        if record.get("workers") != workers:
            raise RuntimeError(
                f"{record['cell']} ran on {record.get('workers')} workers, "
                f"the benchmark records {workers}"
            )
        if record["status"] != "ok" or not record["stopped_early"]:
            failed += 1
            continue
        recount = estimate_acceptance_fast(
            state["plans"][record["cell"]], record["trials"], seed=answer["seed"]
        )
        if (recount.accepted, recount.trials) != (record["accepted"], record["trials"]):
            failed += 1
    return attempted, failed


def _lost(answer: Dict) -> int:
    """Quarantined shards and information-losing router drops of one pass."""
    return answer["metrics"].get("supervision.quarantined", 0) + sum(
        answer["router"].get(key, 0) for key in LOSSY_ROUTER_COUNTERS
    )


def check(state: Dict, passes: List[Dict]):
    attempted = failed = 0
    for answer in passes:
        cells_attempted, cells_failed = _check_records(state, answer, WORKERS)
        attempted += cells_attempted
        failed += cells_failed + _lost(answer)
    close(state)
    attempted += 1
    failed += state["executor"].progress_stats()["drain_thread_leaked"]
    return attempted, failed


def ledger(state: Dict, seed: int, tracer, out_dir) -> tuple:
    """The per-layer metrics of the parallel stack, from extra campaigns.

    The first campaign runs cold on the fresh set-up pool under
    ``repro.obs.tracing``, so worker-side counters (plan cache, shard
    seconds) flush home; later campaigns reuse the warm pool for the
    traced/untraced, supervised/unsupervised and serial comparisons.
    """
    clock = metrics.WallClock()
    starts = []
    for _ in range(3):
        with tracer.span("executors", "pool_start") as span:
            start_executor().close()
        starts.append(span["seconds"])

    trace_dir = tempfile.mkdtemp(prefix="obs-", dir=out_dir)
    try:
        with tracer.span("campaign", "traced-cold"):
            with tracing(trace_dir):
                cold = run_pass(state, seed, clock)
        plain, traced, unsupervised = [], [], []
        # Two rounds in opposite orders, so no variant always runs first.
        for order in (("plain", "traced", "unsupervised"), ("unsupervised", "traced", "plain")):
            for variant in order:
                with tracer.span("campaign", variant):
                    if variant == "traced":
                        with tracing(trace_dir):
                            traced.append(run_pass(state, seed, clock))
                    elif variant == "plain":
                        plain.append(run_pass(state, seed, clock))
                    else:
                        unsupervised.append(run_pass(state, seed, clock, supervised=False))
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    with tracer.span("campaign", "serial"), SerialExecutor() as serial_executor:
        serial = run_pass(state, seed, clock, executor=serial_executor)
    close(state)

    attempted = failed = 0
    for answer in [cold, serial] + plain + traced + unsupervised:
        cells_attempted, cells_failed = _check_records(
            state, answer, 1 if answer is serial else WORKERS)
        attempted += cells_attempted
        failed += cells_failed + _lost(answer)

    counters = cold["metrics"]
    records = cold["records"]
    plain_s = statistics.median([answer["seconds"] for answer in plain])
    shard_s = counters.get("worker.shard_seconds", 0.0)
    cell_s = [record["elapsed_sec"] for record in records]
    granted = counters.get("controller.granted_trials", 0)
    result = {
        "plan_cache.hits": counters.get("plan_cache.hits", 0),
        "plan_cache.misses": counters.get("plan_cache.misses", 0),
        "executors.pool_start_s": statistics.median(starts),
        "executors.shards": sum(record["shards"] for record in records),
        "executors.shard_s_sum": shard_s,
        "executors.worker_busy_share": shard_s / (WORKERS * cold["seconds"]),
        "executors.serial_solve_ratio": serial["seconds"] / plain_s,
        "progress.router_dropped": sum(
            cold["router"].get(key, 0)
            for key in ("unknown",) + LOSSY_ROUTER_COUNTERS
        ),
        "progress.drain_thread_leaked": state["executor"].progress_stats()["drain_thread_leaked"],
        "supervision.retries": counters.get("supervision.retries", 0),
        "supervision.timeouts": counters.get("supervision.timeouts", 0),
        "supervision.quarantined": counters.get("supervision.quarantined", 0),
        "supervision.overhead_ratio":
            plain_s / statistics.median([answer["seconds"] for answer in unsupervised]),
        "controller.rounds": counters.get("controller.rounds", 0),
        "controller.grants": counters.get("controller.grants", 0),
        "controller.granted_trials": granted,
        "controller.consumed_trials": counters.get("controller.consumed_trials", 0),
        "controller.useful_share":
            counters.get("controller.consumed_trials", 0) / granted if granted else 0.0,
        "campaign.cells": len(records),
        "campaign.installments": sum(
            len(record["allocation"]["installments"]) for record in records),
        "campaign.cell_s_p50": metrics.percentile(cell_s, 50),
        "campaign.cell_s_p90": metrics.percentile(cell_s, 90),
        f"obs.trace_overhead_ratio.{NAME}":
            statistics.median([answer["seconds"] for answer in traced]) / plain_s,
    }
    return result, attempted, failed
