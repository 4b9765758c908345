"""Declarative experiment campaigns over the sharded executor.

A *campaign* is a list of *cells*, each one a fully-specified Monte-Carlo
estimation job: a picklable workload spec (:mod:`repro.parallel.spec`), a
trial budget, a master seed, and an optional Wilson stop.  Campaigns are
built either cell by cell or with :meth:`Campaign.sweep`, which crosses
workload families x rng modes x trial budgets x seeds — the shape of every
scaling experiment in this repository (and of the structured experiment
collections in the related perun project this layer borrows its
record-keeping from).

Results stream into a *sink* as JSON records, one per cell.  The
:class:`JsonlSink` is **resumable**: each record carries its cell's stable
key, a reopened sink loads the keys already present, and
:func:`run_campaign` skips those cells — so an interrupted overnight sweep
continues where it stopped instead of re-spending its budget.  Records are
flat JSON-lines on purpose: greppable, streamable, and safe under
append-only writes (a torn final line is detected and ignored on reload).

Cell identity covers the spec value, the trial budget, the master seed,
and the stop rule — not the executor backend, worker count, or shard
layout.  For **exhaustive** cells (no ``stop_halfwidth``) that is the full
result-determining set: rerunning with more workers resumes cleanly and
would produce bit-identical counts for the cells it reruns.  **Early-exit**
records are reproducible across backends and layouts as well: every run
stops when its counter prefix satisfies the rule and books exactly that
prefix (:attr:`~repro.parallel.executors.ShardedEstimate.prefix`), the
trial-exact single-process Wilson stop.  A converged record therefore
equals ``estimate_acceptance_fast(plan, budget, seed,
stop_halfwidth=target)`` on every backend, worker count, shard layout and
``cell_parallelism``; only a quarantined shard or an exhausted budget
leaves a shorter prefix.  The execution provenance (``executor``,
``workers``, ``shards``, ``stopped_early``, and the ``kernel_path`` the
shards ran) is stored in each record.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.montecarlo import validate_halfwidth
from repro.obs.runtime import get_recorder
from repro.parallel.controller import CampaignAllocator
from repro.parallel.executors import (
    ShardPlanner,
    estimate_acceptance_sharded,
    resolve_executor,
)
from repro.parallel.factories import workload_spec
from repro.parallel.spec import PlanSpec
from repro.simulation.metrics import AcceptanceEstimate


@dataclass(frozen=True)
class Cell:
    """One estimation job of a campaign."""

    name: str
    spec: PlanSpec
    trials: int
    seed: int = 0
    stop_halfwidth: Optional[float] = None

    def __post_init__(self):
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.stop_halfwidth is not None:
            validate_halfwidth(self.stop_halfwidth, "stop_halfwidth")

    def key(self) -> str:
        """The stable resume key of the cell.

        Exactly the cell's *statistical* identity.  For exhaustive cells it
        pins the result bit for bit, and so it does for early-exit cells,
        whose converged records equal the single-process Wilson stop on
        every backend and layout (see the module docstring).
        """
        return json.dumps(
            {
                "spec": self.spec.describe(),
                "trials": self.trials,
                "seed": self.seed,
                "stop_halfwidth": self.stop_halfwidth,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class Campaign:
    """A named collection of cells, run as one unit over one worker pool."""

    name: str
    cells: Tuple[Cell, ...]

    def __post_init__(self):
        names = [cell.name for cell in self.cells]
        if len(set(names)) != len(names):
            raise ValueError("cell names within a campaign must be unique")

    def __len__(self) -> int:
        return len(self.cells)

    @classmethod
    def sweep(
        cls,
        name: str,
        workloads: Sequence[Union[str, Tuple[str, Dict]]],
        rng_modes: Sequence[str] = ("vector",),
        trial_budgets: Sequence[int] = (1024,),
        seeds: Sequence[int] = (0,),
        stop_halfwidth: Optional[float] = None,
    ) -> "Campaign":
        """Cross workload families x rng modes x budgets x seeds into cells.

        ``workloads`` entries are registry names (see
        :data:`repro.parallel.factories.WORKLOADS`), optionally paired with
        size kwargs: ``("spanning-tree", {"node_count": 200})``.

        >>> len(Campaign.sweep("s", ["spanning-tree", "shared-coins"],
        ...                    rng_modes=("compat", "vector"),
        ...                    trial_budgets=(100, 1000)).cells)
        8
        """
        cells: List[Cell] = []
        for entry in workloads:
            workload, kwargs = entry if isinstance(entry, tuple) else (entry, {})
            for rng_mode in rng_modes:
                spec = workload_spec(workload, rng_mode=rng_mode, **kwargs)
                size = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
                sized = f"{workload}({size})" if size else workload
                for trials in trial_budgets:
                    for seed in seeds:
                        cells.append(
                            Cell(
                                name=f"{sized}/{rng_mode}/t{trials}/s{seed}",
                                spec=spec,
                                trials=trials,
                                seed=seed,
                                stop_halfwidth=stop_halfwidth,
                            )
                        )
        return cls(name=name, cells=tuple(cells))


def _record_completes(record: Dict) -> bool:
    """Whether a record marks its cell *done* for resume purposes.

    ``status="failed"`` records (graceful degradation, see
    :func:`run_campaign`) document the failure without claiming the cell:
    a resumed campaign re-attempts exactly those cells.  Records from
    before the ``status`` field existed are successes.
    """
    return record.get("status", "ok") != "failed"


class MemorySink:
    """An in-memory sink — the default for tests and interactive runs."""

    def __init__(self):
        self.records: List[Dict] = []
        self._keys = set()

    def completed(self, cell: Cell) -> bool:
        return cell.key() in self._keys

    def write(self, record: Dict) -> None:
        self.records.append(record)
        if _record_completes(record):
            self._keys.add(record.get("cell_key"))


class JsonlSink:
    """Append-only JSON-lines sink with resume support.

    ``resume=True`` (default) loads the cell keys already recorded so
    :func:`run_campaign` can skip them; ``resume=False`` truncates.  Torn
    lines — a process killed mid-append can tear the tail, and a crashed
    filesystem can tear lines mid-file — are skipped with a warning and
    counted in ``torn_lines``, never fatal: the sink's promise is that
    every *intact* record survives and resume proceeds from those.
    ``status="failed"`` records are loaded (they are provenance) but do
    not mark their cell complete, so resume re-attempts failed cells only.

    ``fsync=True`` fsyncs after every append — crash-consistent campaign
    logs at the cost of one ``fsync`` per cell (cells run for seconds;
    the sync is noise).
    """

    def __init__(self, path: Union[str, Path], resume: bool = True, fsync: bool = False):
        self.path = Path(path)
        self.fsync = fsync
        self.records: List[Dict] = []
        self.torn_lines = 0
        self._keys = set()
        if resume and self.path.exists():
            for number, line in enumerate(self.path.read_text().splitlines(), 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self.torn_lines += 1
                    print(
                        f"warning: {self.path}: skipping torn record on "
                        f"line {number}",
                        file=sys.stderr,
                    )
                    continue
                self.records.append(record)
                if _record_completes(record):
                    self._keys.add(record.get("cell_key"))
        elif not resume and self.path.exists():
            self.path.unlink()
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def completed(self, cell: Cell) -> bool:
        return cell.key() in self._keys

    def write(self, record: Dict) -> None:
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        self.records.append(record)
        if _record_completes(record):
            # .get: the sink also carries non-campaign records (the bench
            # history profiles of repro.benchhistory), which have no cell key.
            self._keys.add(record.get("cell_key"))


def _record(campaign: Campaign, cell: Cell, status: str, **fields) -> Dict:
    """The one campaign record builder: the cell identity, then ``fields``."""
    return {
        "campaign": campaign.name,
        "cell": cell.name,
        "cell_key": cell.key(),
        "status": status,
        **cell.spec.describe(),
        "requested_trials": cell.trials,
        **fields,
    }


def _ok_record(
    campaign: Campaign,
    cell: Cell,
    instance,
    estimate: AcceptanceEstimate,
    stopped_early: bool,
    shards: int,
    elapsed: float,
    kernel_path: Optional[str],
    **fields,
) -> Dict:
    """A ``status="ok"`` record: the estimate, its interval, and provenance.

    ``kernel_path`` is the path the cell's shards report they ran
    (:attr:`~repro.parallel.executors.ShardResult.executed_path`; ``None``
    when no shard ran).

    Zero-trial estimates report nan probability/interval directly (a
    pre-satisfied stop can legitimately produce them); no guards needed.
    """
    low, high = estimate.interval
    return _record(
        campaign,
        cell,
        "ok",
        trials=estimate.trials,
        accepted=estimate.accepted,
        probability=estimate.probability,
        wilson_low=low,
        wilson_high=high,
        stopped_early=stopped_early,
        shards=shards,
        executor=getattr(instance, "name", "?"),
        workers=getattr(instance, "workers", 1),
        elapsed_sec=round(elapsed, 6),
        kernel_path=kernel_path,
        **fields,
    )


def _failure_record(campaign: Campaign, cell: Cell, error: Exception, **fields) -> Dict:
    """The ``status="failed"`` record of a cell that ran out of attempts.

    Carries the cell identity and the error payload but never marks the
    cell complete (see :func:`_record_completes`): a resumed campaign
    re-attempts exactly the failed cells.
    """
    return _record(
        campaign,
        cell,
        "failed",
        error={"type": type(error).__name__, "message": str(error)},
        **fields,
    )


def _under_cell_policy(on_cell_error: str, cell_retries: int, attempt: Callable):
    """Call ``attempt()`` under the campaign's cell error policy.

    Returns ``(result, None)`` on success and ``(None, error)`` when the
    policy swallowed the failure (``skip``, or ``retry`` exhausted);
    ``on_cell_error="raise"`` propagates instead.  Only :class:`Exception`
    is ever swallowed — ``KeyboardInterrupt``/``SystemExit`` always
    propagate, so an interrupt cannot be degraded into a failure record.
    """
    attempts = 1 + (max(0, cell_retries) if on_cell_error == "retry" else 0)
    last_error: Optional[Exception] = None
    for _attempt in range(attempts):
        try:
            return attempt(), None
        except Exception as exc:
            if on_cell_error == "raise":
                raise
            last_error = exc
    return None, last_error


class _Installment(NamedTuple):
    """One grant of one round: ``trials`` more counters for ``cell``.

    The installment covers counters ``[prior[1], prior[1] + trials)`` and
    its stop rule applies to the cumulative interval seeded by ``prior``,
    the ``(accepted, trials)`` counts of the cell's consumed prefix.
    """

    cell: Cell
    trials: int
    stop_halfwidth: Optional[float]
    prior: Tuple[int, int] = (0, 0)


def _run_installment(
    campaign: Campaign,
    installment: _Installment,
    options: Dict,
    on_cell_error: str,
    cell_retries: int,
    trace_parent: Optional[str],
):
    """Run one installment on the shared executor under the cell policy.

    Returns ``((sharded, elapsed_sec), None)`` or, when the policy
    swallowed the failure, ``(None, error)`` (see :func:`_under_cell_policy`).
    ``options`` are the campaign-wide keyword arguments of
    :func:`~repro.parallel.executors.estimate_acceptance_sharded`.
    ``trace_parent`` is the campaign span's id, passed explicitly because
    concurrent installments run on scheduler threads where the recorder's
    thread-local span stack cannot see the campaign span.  The *cell* span
    opened here lives on the executing thread's stack, so the run span
    inside the estimator parents onto it automatically.
    """
    cell, trials, stop_halfwidth, prior = installment
    recorder = get_recorder()
    cell_attrs = None
    if recorder.enabled:
        cell_attrs = {
            "key": cell.name,
            "campaign": campaign.name,
            "trials": trials,
            "first_trial": prior[1],
            "seed": cell.seed,
        }

    def attempt():
        start = time.perf_counter()
        with recorder.span("cell", cell_attrs, parent=trace_parent) as cell_span:
            sharded = estimate_acceptance_sharded(
                cell.spec,
                trials,
                seed=cell.seed,
                stop_halfwidth=stop_halfwidth,
                first_trial=prior[1],
                prior=prior,
                **options,
            )
            cell_span.set("trials_run", sharded.estimate.trials)
            cell_span.set("stopped_early", sharded.stopped_early)
        return sharded, time.perf_counter() - start

    return _under_cell_policy(on_cell_error, cell_retries, attempt)


def _run_round(
    installments: Sequence[_Installment],
    cell_parallelism: int,
    run: Callable[[_Installment], Tuple],
) -> Iterator[Tuple]:
    """The round scheduler: yield ``run(installment)`` in declaration order.

    With ``cell_parallelism`` > 1 a thread team runs up to that many
    installments concurrently over the shared executor, and outcomes are
    yielded in order as they become available — a finished installment
    waits for every earlier one.  Close the generator (``closing``) on
    every exit path: closing cancels the installments not yet started and
    joins the team, so no cell thread outlives the caller's executor.
    """
    if cell_parallelism == 1 or len(installments) <= 1:
        for installment in installments:
            yield run(installment)
        return
    with ThreadPoolExecutor(
        max_workers=min(cell_parallelism, len(installments)),
        thread_name_prefix="repro-cell",
    ) as team:
        yield from team.map(run, installments)


def _fixed_record(campaign: Campaign, cell: Cell, instance, sharded, elapsed: float) -> Dict:
    """The record of a fixed-budget cell, with its run's supervision ledger.

    A stop cell records the run's booked
    :attr:`~repro.parallel.executors.ShardedEstimate.prefix`; a cell
    without one records everything the run executed.
    """
    booked = sharded.estimate if cell.stop_halfwidth is None else sharded.prefix
    supervision = sharded.report.as_dict()
    # Executor-lifetime router drop/leak counters (process backend; see
    # ProgressRouter.stats) — recorded, not warning-only.
    stats = getattr(instance, "progress_stats", None)
    if stats is not None:
        try:
            router_stats = stats()
        except Exception:
            router_stats = None
        if router_stats is not None:
            supervision["progress_router"] = router_stats
    return _ok_record(
        campaign,
        cell,
        instance,
        booked,
        sharded.stopped_early,
        sharded.shards,
        elapsed,
        sharded.kernel_path,
        supervision=supervision,
    )


def run_campaign(
    campaign: Campaign,
    executor: Union[str, object, None] = "serial",
    workers: Optional[int] = None,
    sink=None,
    planner: Optional[ShardPlanner] = None,
    cell_parallelism: int = 1,
    on_cell_error: str = "raise",
    cell_retries: int = 1,
    shard_timeout: Optional[float] = None,
    max_retries: int = 0,
    global_budget: Optional[int] = None,
    target_halfwidth: Optional[float] = None,
) -> List[Dict]:
    """Run every (not yet completed) cell; returns the new records.

    One executor instance — hence one warm worker pool and one set of
    per-process plan caches — serves the whole campaign.  Each record holds
    the cell identity, the merged estimate with its Wilson interval, the
    shard/worker provenance, and the wall-clock cost:

    ``campaign, cell, cell_key, factory, args, kwargs, randomness,
    rng_mode, requested_trials, trials, accepted, probability, wilson_low,
    wilson_high, stopped_early, shards, executor, workers, elapsed_sec,
    kernel_path``

    plus the run's ``supervision`` ledger (fixed budgets) or the cell's
    ``allocation`` history (adaptive budgets).

    Cells run as *installments* in *rounds*.  A fixed-budget campaign is a
    single round in which every cell is granted its own ``trials`` and
    ``stop_halfwidth``; its records are written as their ordered outcomes
    arrive.  ``cell_parallelism`` > 1 runs that many installments of a
    round concurrently over the *same* executor pool — the round scheduler
    keeps the pool saturated when individual cells are too small to fill
    it.  Ordering and resume semantics are unchanged: records reach the
    sink in campaign declaration order, cells are independent jobs with
    per-run stop tokens, and skip-on-resume happens before scheduling.
    Apart from wall-clock fields (``elapsed_sec`` and the supervision
    timing), concurrent-cell records are identical to a serial-cell run's.

    Graceful degradation (``on_cell_error``): with ``"raise"`` (default,
    the historical behaviour) the first failing cell aborts the campaign.
    ``"skip"`` records the failure in the sink as a ``status="failed"``
    record — error type and message attached — and keeps running sibling
    cells; ``"retry"`` re-attempts the cell up to ``cell_retries`` times
    first and then degrades like ``skip``.  Failed records never mark a
    cell complete, so a subsequent resume re-attempts exactly the failed
    cells.  ``KeyboardInterrupt`` always propagates regardless of policy
    (the ordered prefix already written stays resumable).

    ``shard_timeout`` / ``max_retries`` pass through to every cell's
    :func:`~repro.parallel.executors.estimate_acceptance_sharded` call —
    shard-level supervision (progress deadlines, deterministic retry,
    quarantine; see :mod:`repro.parallel.supervision`) underneath the
    cell-level policy above.

    Adaptive budgets (``global_budget`` + ``target_halfwidth``; see
    :mod:`repro.parallel.controller` and docs/parallel.md): instead of each
    cell spending its own ``trials`` budget, one global pool of trials is
    granted to cells over several rounds by a :class:`CampaignAllocator` —
    cells whose cumulative Wilson interval reaches the target halfwidth are
    starved, and their unspent budget flows to the widest remaining cells.
    Installments always extend a cell's consumed counter prefix (future
    ranges only — per-trial verdicts are untouched by allocation), and each
    cell's record carries its ``allocation`` history (per-installment
    ``first_trial``/``trials``) so a resumed or follow-up campaign can
    continue the exact counter range.
    """
    if cell_parallelism < 1:
        raise ValueError("cell_parallelism must be positive")
    if global_budget is not None and target_halfwidth is None:
        raise ValueError("global_budget requires target_halfwidth")
    if target_halfwidth is not None and global_budget is None:
        raise ValueError(
            "target_halfwidth requires global_budget (use the cells' "
            "stop_halfwidth for a per-cell stop rule)"
        )
    if on_cell_error not in ("raise", "skip", "retry"):
        raise ValueError(
            f"on_cell_error must be 'raise', 'skip' or 'retry', "
            f"got {on_cell_error!r}"
        )
    if cell_retries < 0:
        raise ValueError("cell_retries must be non-negative")
    if sink is None:
        sink = MemorySink()
    instance, owned = resolve_executor(executor, workers)
    new_records: List[Dict] = []
    # Claim keys as cells are scheduled: two cells sharing one resume key
    # (identical spec/trials/seed under different names) run once, exactly
    # as the old immediately-before-run completed() check deduplicated.
    claimed = set()
    pending = []
    for cell in campaign.cells:
        key = cell.key()
        if sink.completed(cell) or key in claimed:
            continue
        claimed.add(key)
        pending.append(cell)
    recorder = get_recorder()
    campaign_attrs = None
    if recorder.enabled:
        campaign_attrs = {
            "campaign": campaign.name,
            "cells": len(pending),
            "skipped": len(campaign.cells) - len(pending),
            "executor": getattr(instance, "name", "?"),
            "cell_parallelism": cell_parallelism,
        }
        if global_budget is not None:
            campaign_attrs["global_budget"] = global_budget
            campaign_attrs["target_halfwidth"] = target_halfwidth
    campaign_span = recorder.span("campaign", campaign_attrs)
    options = {
        "executor": instance,
        "planner": planner,
        "shard_timeout": shard_timeout,
        "max_retries": max_retries,
    }

    def run_installment(installment: _Installment):
        return _run_installment(
            campaign, installment, options, on_cell_error, cell_retries,
            campaign_span.span_id,
        )

    def run_round(installments: List[_Installment]):
        """The round's ordered outcomes, closed on every exit path."""
        return closing(_run_round(installments, cell_parallelism, run_installment))

    def write(record: Dict) -> None:
        sink.write(record)
        new_records.append(record)

    try:
        if global_budget is None:
            # A fixed budget is one round: each cell is granted its own
            # trials and its own stop rule.
            installments = [
                _Installment(cell, cell.trials, cell.stop_halfwidth)
                for cell in pending
            ]
            with run_round(installments) as outcomes:
                for cell, (outcome, error) in zip(pending, outcomes):
                    write(
                        _fixed_record(campaign, cell, instance, *outcome)
                        if error is None
                        else _failure_record(campaign, cell, error)
                    )
        elif pending:
            _run_adaptive_campaign(
                campaign, pending, run_round, write, instance, global_budget,
                target_halfwidth, campaign_span,
            )
    except BaseException as exc:
        campaign_span.__exit__(type(exc), exc, None)
        raise
    finally:
        if owned:
            instance.close()
    campaign_span.set("records", len(new_records))
    campaign_span.__exit__(None, None, None)
    return new_records


def _run_adaptive_campaign(
    campaign: Campaign,
    pending: List[Cell],
    run_round: Callable,
    write: Callable[[Dict], None],
    instance,
    global_budget: int,
    target_halfwidth: float,
    campaign_span,
) -> None:
    """The global-budget campaign loop: allocator rounds of installments.

    Each round the :class:`~repro.parallel.controller.CampaignAllocator`
    produces a grant table; every granted cell runs one installment over
    the next ``granted`` trials of its counter sequence (``first_trial`` =
    the consumed prefix, ``prior`` = the prefix's counts, so the Wilson
    stop applies to the cell's *cumulative* interval and fires as soon as
    the target halfwidth is reached mid-installment).  Only the
    installment's booked prefix
    (:attr:`~repro.parallel.executors.ShardedEstimate.prefix`) counts: its
    contiguous counter prefix, cut at the first trial where the Wilson rule
    holds on the cumulative counts.  Trials later shards ran past that
    trial are dropped rather than booked as if they were the next
    counters.  A converged record therefore equals the single-process
    Wilson stop, and a converged installment's unspent grant implicitly
    returns to the pool.

    Records are written after the budget is spent, one per cell in
    declaration order, each carrying the cell's full ``allocation``
    history.  ``on_cell_error="skip"``/``"retry"`` degrade a
    repeatedly-failing cell to a ``status="failed"`` record (its remaining
    budget serves the other cells); ``"raise"`` aborts.
    """
    allocator = CampaignAllocator(
        [cell.name for cell in pending], global_budget, target_halfwidth
    )
    cells = {cell.name: cell for cell in pending}
    elapsed = {cell.name: 0.0 for cell in pending}
    shard_totals = {cell.name: 0 for cell in pending}
    paths: Dict[str, Optional[str]] = {cell.name: None for cell in pending}
    errors: Dict[str, Exception] = {}

    while True:
        grants = allocator.grants()
        if not grants:
            break
        installments = [
            _Installment(cells[name], granted, target_halfwidth, allocator.counts(name))
            for name, granted in grants.items()
        ]
        progressed = False
        with run_round(installments) as outcomes:
            for installment, (outcome, error) in zip(installments, outcomes):
                name = installment.cell.name
                if error is not None:
                    allocator.fail(name)
                    errors[name] = error
                    progressed = True
                    continue
                sharded, spent = outcome
                prefix = sharded.prefix
                allocator.settle(
                    name,
                    first_trial=installment.prior[1],
                    granted=installment.trials,
                    accepted=prefix.accepted,
                    trials=prefix.trials,
                )
                elapsed[name] += spent
                shard_totals[name] += sharded.shards
                paths[name] = sharded.kernel_path or paths[name]
                if prefix.trials > 0:
                    progressed = True
        if not progressed:
            # A full round granted budget and booked nothing (wedged pool,
            # every shard quarantined, ...): stop granting instead of
            # spinning — the records below document the shortfall.
            break

    for cell in pending:
        history = allocator.history(cell.name)
        if cell.name in errors:
            write(_failure_record(campaign, cell, errors[cell.name], allocation=history))
        else:
            accepted, consumed = allocator.counts(cell.name)
            write(
                _ok_record(
                    campaign,
                    cell,
                    instance,
                    AcceptanceEstimate(accepted=accepted, trials=consumed),
                    history["converged"],
                    shard_totals[cell.name],
                    elapsed[cell.name],
                    paths[cell.name],
                    allocation=history,
                )
            )
    for key, value in allocator.summary().items():
        campaign_span.set(f"allocator.{key}", value)
