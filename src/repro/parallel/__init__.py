"""Sharded parallel execution and experiment campaigns.

Why this package exists
-----------------------

PR 1-3 collapsed the per-trial cost of repeated verification into chunked
numpy array ops, leaving one Python process as the remaining wall-clock
ceiling.  The counter-addressed SplitMix64 derivation of
:mod:`repro.core.seeding` makes multi-process sharding *deterministic*: a
trial's verdict is a pure function of ``(master seed, trial counter)``, so
partitioning the counter range across workers reproduces the single-process
run bit for bit — same per-trial verdicts, same merged counts, in any shard
order, on any backend.

The two layers:

- **Sharded executor** — :class:`ShardPlanner` partitions a trial budget
  into counter ranges; :class:`SerialExecutor` / :class:`ProcessExecutor`
  run them; :func:`estimate_acceptance_sharded` merges per-shard counts
  through :meth:`~repro.simulation.metrics.AcceptanceEstimate.merge`
  (exact, by construction) with an optional cooperative Wilson early exit
  that cancels outstanding shards.  Process workers rebuild plans from picklable
  :class:`PlanSpec` values through per-process caches — compiled plans
  never cross the process boundary (:mod:`repro.parallel.spec`).
- **Campaign orchestrator** — declarative :class:`Campaign` / :class:`Cell`
  sweeps (workload family x rng mode x trial budget x seed) over one shared
  worker pool, streaming JSON-lines records into resumable sinks
  (:mod:`repro.parallel.campaign`), with a CLI front end
  (``python -m repro.parallel.cli``).

Fault tolerance rides on the same determinism: because a shard re-executes
bit-identically, retry is semantically free — :mod:`repro.parallel.supervision`
adds heartbeat deadlines, deterministic retry with backoff, pool repair and
quarantine (:class:`RetryPolicy` / :class:`RunReport`), campaigns degrade
gracefully per cell (``on_cell_error``), and the seeded chaos harness of
:mod:`repro.parallel.chaos` (:class:`FaultPolicy` / :class:`ChaosExecutor`)
makes every one of those guarantees testable and demonstrable.

See ``docs/parallel.md`` for the shard/seed-partition contract, the
executor matrix, the campaign record format, and the failure semantics;
``docs/robustness.md`` for the chaos harness guide.
"""

from repro.parallel.campaign import (
    Campaign,
    Cell,
    JsonlSink,
    MemorySink,
    run_campaign,
)
from repro.parallel.chaos import (
    ChaosExecutor,
    ChaosSink,
    ChaosSinkError,
    ChaosWorkerCrash,
    ChaosWorkerHang,
    FaultPolicy,
)
from repro.parallel.controller import CampaignAllocator
from repro.parallel.executors import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ShardedEstimate,
    ShardResult,
    available_cpus,
    estimate_acceptance_sharded,
    resolve_executor,
)
from repro.parallel.factories import WORKLOADS, workload_spec
from repro.parallel.progress import ProgressRouter, RunHandle, StopToken
from repro.parallel.shards import Shard, ShardPlanner
from repro.parallel.spec import PlanSpec
from repro.parallel.supervision import (
    QuarantinedShard,
    RetryPolicy,
    RunReport,
    ShardFailure,
    ShardSupervisor,
)

__all__ = [
    "EXECUTORS",
    "WORKLOADS",
    "Campaign",
    "CampaignAllocator",
    "Cell",
    "ChaosExecutor",
    "ChaosSink",
    "ChaosSinkError",
    "ChaosWorkerCrash",
    "ChaosWorkerHang",
    "FaultPolicy",
    "JsonlSink",
    "MemorySink",
    "PlanSpec",
    "ProcessExecutor",
    "ProgressRouter",
    "QuarantinedShard",
    "RetryPolicy",
    "RunHandle",
    "RunReport",
    "SerialExecutor",
    "Shard",
    "ShardFailure",
    "ShardPlanner",
    "ShardResult",
    "ShardSupervisor",
    "ShardedEstimate",
    "StopToken",
    "available_cpus",
    "estimate_acceptance_sharded",
    "resolve_executor",
    "run_campaign",
    "workload_spec",
]
