"""Shard execution backends and the sharded acceptance estimator.

Two interchangeable backends run the shards a
:class:`~repro.parallel.shards.ShardPlanner` lays out:

- :class:`SerialExecutor` — one shard at a time, in-process.  The reference
  backend: zero concurrency, zero pickling, and the baseline every
  determinism test compares against.
- :class:`ProcessExecutor` — a process pool, the backend that actually buys
  wall-clock on multi-core hardware.  Workers receive a picklable
  :class:`~repro.parallel.spec.PlanSpec` (never a compiled plan) and
  rebuild/cache plans per process; see :mod:`repro.parallel.spec`.

Cooperative early exit
----------------------

Every run gets its own stop token (:class:`~repro.parallel.progress.StopToken`),
so concurrent runs over one pool — campaign cells — stop independently.
:func:`estimate_acceptance_sharded` runs every shard under a
:class:`~repro.parallel.supervision.ShardSupervisor`; workers publish
partial cumulative counts after every chunk through a backend-appropriate
conduit (direct callback in-process, a ``multiprocessing`` queue plus
parent-side router for the process pool), which the supervisor reads as
heartbeats.

A stop rule has one trigger: the run's booked prefix converging.  Shard 0,
which follows the run's ``prior`` counts directly, runs the single-process
stop (:func:`~repro.engine.montecarlo.estimate_acceptance_fast` with
``stop_halfwidth`` and ``prior``) and ends in its worker on the first
trial where the rule holds.  Every later shard runs its range without a
rule and returns its per-trial verdicts, bit-packed (:class:`ShardResult`).
The parent scans each shard's verdicts once, as the shard joins the
contiguous counter prefix, and stops the run the moment the rule holds:
shards not yet started are skipped, running ones observe the stop between
chunks (the ``should_stop`` hook) and return their partial counts.
:attr:`ShardedEstimate.prefix` therefore equals what
:func:`~repro.engine.montecarlo.estimate_acceptance_fast` with the same
``stop_halfwidth`` reports, whatever the chunk size, backend or shard
layout.  Later shards that ran past that trial count in
:attr:`ShardedEstimate.estimate` (everything that ran) but are never
booked.  Chunk size only sets how often shards publish and poll, so every
layer runs the engine's :data:`~repro.engine.montecarlo.DEFAULT_CHUNK` on
the kernels; the scalar paths publish at least every
:data:`~repro.engine.montecarlo.SCALAR_CHUNK` trials.

Determinism contract
--------------------

Without a stop (``stop_halfwidth=None``), every backend runs every shard to
completion and the merged estimate **equals** the single-process
``estimate_acceptance_fast(plan, trials)`` — same ``accepted``, same
``trials`` — in every rng mode, because trial verdicts are pure functions
of the trial counter.  The test suite pins this for 1/2/8 shards on both
backends.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.engine.montecarlo import (
    DEFAULT_CHUNK,
    MIN_STOP_TRIALS,
    _kernel_prefix,
    check_prior,
    estimate_acceptance_fast,
    executed_path,
    validate_halfwidth,
)
from repro.engine.plan import VerificationPlan
from repro.obs.runtime import (
    get_metrics,
    get_recorder,
    record_event,
    reset_metrics,
    take_metrics_flush,
)
from repro.obs.trace import ChunkProgress, NULL_RECORDER
from repro.parallel.progress import ProgressRouter, RunHandle, StopToken
from repro.parallel.shards import Shard, ShardPlanner
from repro.parallel.spec import PlanSpec
from repro.parallel.supervision import RetryPolicy, RunReport, ShardSupervisor
from repro.simulation.metrics import AcceptanceEstimate, wilson_stop_holds


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware where possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ShardResult:
    """What one shard reports back: its range and the counts it ran.

    ``trials`` may be short of ``shard.trials`` when a cooperative stop
    fired mid-shard (always a whole number of chunks, possibly zero), or
    when shard 0 stopped on the run's rule: then ``converged`` is set, and
    the counts end on the first trial where the rule holds over the run's
    ``prior`` plus this shard's trials.  ``executed_path`` names the path
    the worker ran the trials on
    (:func:`~repro.engine.montecarlo.executed_path`).

    When the run has a stop rule, every later shard carries ``verdicts``:
    its ``trials`` per-trial verdicts, ``numpy.packbits``-packed as they
    arrive (one bit per trial), for the parent to scan a window at a time.
    """

    shard: Shard
    accepted: int
    trials: int
    executed_path: Optional[str] = None
    verdicts: Optional[bytes] = None
    converged: bool = False

    @property
    def estimate(self) -> AcceptanceEstimate:
        return AcceptanceEstimate(accepted=self.accepted, trials=self.trials)

    def verdict_windows(self) -> Iterator:
        """The unpacked verdicts, as bool arrays of ``DEFAULT_CHUNK`` trials."""
        import numpy as np

        packed = np.frombuffer(self.verdicts, dtype=np.uint8)
        for start in range(0, self.trials, DEFAULT_CHUNK):
            count = min(DEFAULT_CHUNK, self.trials - start)
            window = packed[start // 8 : (start + count + 7) // 8]
            yield np.unpackbits(window, count=count).view(bool)


class _VerdictPacker:
    """A shard's verdicts, bit-packed chunk by chunk as they arrive."""

    def __init__(self):
        self.packed = bytearray()
        self.carry = ()  # the last chunk's bits past a whole byte

    def feed(self, verdicts) -> None:
        import numpy as np

        bits = np.concatenate(
            [np.asarray(self.carry, dtype=bool), np.asarray(verdicts, dtype=bool)]
        )
        whole = len(bits) - len(bits) % 8
        self.packed += np.packbits(bits[:whole]).tobytes()
        self.carry = bits[whole:]

    def result(self) -> bytes:
        import numpy as np

        return bytes(self.packed) + np.packbits(np.asarray(self.carry, dtype=bool)).tobytes()


def _run_shard(
    payload,
    should_stop: Callable[[], bool],
    publish: Optional[Callable[[int, int, int], None]] = None,
) -> ShardResult:
    """The shard worker body — runs on every backend, in-process or not.

    ``publish``, when set, receives the shard's cumulative
    ``(shard_index, accepted, trials)`` after every chunk — the progress
    conduit of :mod:`repro.parallel.progress`, which the supervisor
    reads as the shard's heartbeat.  With ``options["stop"]`` set (the
    run's ``(prior, stop_halfwidth, min_trials)``), shard 0 runs the
    estimator's own stop from ``prior``, and later shards pack the
    verdicts the ``on_verdicts`` hook hands over after every chunk
    (:class:`ShardResult`).

    Tracing (``options["trace"]``, a picklable
    :class:`~repro.obs.trace.TraceSpec` parented on the run span) wraps
    the shard in a *shard* span and the ``progress`` callback in a
    :class:`~repro.obs.trace.ChunkProgress` — per-chunk spans over the
    same observational seam, the publish channel forwarded unchanged.
    The shard span's ``kernel_path`` attribute names the execution path
    its trials took (:func:`~repro.engine.montecarlo.executed_path`), and
    the ``engine.path.<path>`` counter counts shards per path.  The engine
    call itself is identical traced or not.
    """
    target, shard, options = payload
    plan = target.resolve() if isinstance(target, PlanSpec) else target
    progress = None
    if publish is not None:
        progress = lambda accepted, trials: publish(  # noqa: E731
            shard.index, accepted, trials
        )
    stop = options.get("stop")
    rule = {}
    packer = None
    if stop is not None and shard.index == 0:
        prior, stop_halfwidth, min_trials = stop
        rule = {"prior": prior, "stop_halfwidth": stop_halfwidth, "min_trials": min_trials}
    elif stop is not None:
        packer = _VerdictPacker()
    path = executed_path(plan, options["rng_mode"])
    spec = options.get("trace")
    recorder = spec.recorder() if spec is not None else NULL_RECORDER
    attrs = None
    start_mono = 0.0
    if recorder.enabled:
        attrs = {
            "shard": shard.index,
            "first_trial": shard.start,
            "planned_trials": shard.trials,
            "rng_mode": options["rng_mode"],
            "kernel_path": path,
        }
        start_mono = time.monotonic()
    with recorder.span(
        "shard", attrs, parent=spec.parent if spec is not None else None
    ) as span:
        if recorder.enabled:
            progress = ChunkProgress(recorder, span.span_id, inner=progress)
        estimate = estimate_acceptance_fast(
            plan,
            shard.trials,
            seed=options["seed"],
            rng_mode=options["rng_mode"],
            first_trial=shard.start,
            should_stop=should_stop,
            progress=progress,
            on_verdicts=None if packer is None else packer.feed,
            **rule,
        )
        span.set("accepted", estimate.accepted)
        span.set("trials", estimate.trials)
    if recorder.enabled:
        metrics = get_metrics()
        metrics.counter("worker.shards").inc()
        metrics.counter("worker.trials").inc(estimate.trials)
        metrics.counter(f"engine.path.{path}").inc()
        metrics.histogram("worker.shard_seconds").observe(
            time.monotonic() - start_mono
        )
    converged = bool(rule) and wilson_stop_holds(
        prior[0] + estimate.accepted, prior[1] + estimate.trials, stop_halfwidth, min_trials
    )
    return ShardResult(
        shard=shard,
        accepted=estimate.accepted,
        trials=estimate.trials,
        executed_path=path,
        verdicts=None if packer is None else packer.result(),
        converged=converged,
    )


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


class SerialExecutor:
    """Run shards one after another in the calling process.

    ``start_run`` is still safe under campaign cell parallelism: each run
    carries its own :class:`~repro.parallel.progress.StopToken` and executes
    lazily in whichever thread iterates its results, so concurrent cells
    sharing one SerialExecutor never share stop state.
    """

    name = "serial"
    workers = 1
    in_process = True  # payload targets stay in this process (plans shareable)

    def start_run(
        self,
        fn: Callable,
        payloads: Iterable,
        on_progress: Optional[Callable[[int, int, int], None]] = None,
    ) -> RunHandle:
        """Begin one run; shards execute lazily as results are iterated."""
        token = StopToken()
        payloads = list(payloads)
        record_event(
            "executor.start_run", {"executor": self.name, "shards": len(payloads)}
        )

        def results():
            for payload in payloads:
                if token.probe():
                    break
                yield fn(payload, token.probe, on_progress)

        return RunHandle(results(), token)

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _drain_futures(futures) -> Iterator:
    """Yield future results as they complete; cancel the rest on exit."""
    try:
        for future in concurrent.futures.as_completed(futures):
            if future.cancelled():
                continue
            yield future.result()
    finally:
        for future in futures:
            future.cancel()


# Worker-process globals, installed by the pool initializer.  With the fork
# start method children inherit the parent's module state anyway; with spawn
# they import this module fresh and the initializer is the only channel —
# either way the primitives arrive through initargs, the one path
# ProcessPoolExecutor guarantees for synchronization primitives.
#
# Two channels: the per-run stop *board* (a flat shared byte array — slot
# ``i`` nonzero means "run holding slot i, stop"), and the progress queue
# streamed updates travel on.
_WORKER_BOARD: Optional[object] = None
_WORKER_QUEUE: Optional[object] = None

# Concurrent-run capacity of one ProcessExecutor: the stop board is shared
# memory, so its size is fixed at pool start.  Far above any sane
# --cell-parallelism; exceeding it raises rather than silently sharing.
STOP_SLOTS = 64


def _init_shard_worker(stop_board=None, progress_queue=None) -> None:
    global _WORKER_BOARD, _WORKER_QUEUE
    _WORKER_BOARD = stop_board
    _WORKER_QUEUE = progress_queue
    # Fork-started workers inherit the parent's metrics registry values;
    # zero them so a worker flush never re-reports parent-side counts.
    reset_metrics()


def _invoke_in_worker_run(
    fn: Callable,
    payload,
    slot: int,
    run_id: int,
    stream: bool,
    flush_metrics: bool = False,
):
    """Worker body for ``start_run``: per-run stop slot + optional streaming.

    With ``flush_metrics`` (set by the parent iff a trace is live), the
    worker's accrued metrics delta rides home on the progress queue as a
    :class:`~repro.obs.metrics.MetricsFlush` after the shard — inside the
    per-shard ``finally`` so a raising shard still reports, and skipped
    entirely when the delta is empty (untraced runs put nothing extra on
    the queue).
    """
    board = _WORKER_BOARD

    def should_stop() -> bool:
        return board is not None and board[slot] != 0

    publish = None
    if stream and _WORKER_QUEUE is not None:
        queue = _WORKER_QUEUE

        def publish(shard_index: int, accepted: int, trials: int) -> None:
            queue.put((run_id, shard_index, accepted, trials))

    try:
        return fn(payload, should_stop, publish)
    finally:
        if flush_metrics and _WORKER_QUEUE is not None:
            flush = take_metrics_flush()
            if flush is not None:
                _WORKER_QUEUE.put(flush)


class ProcessExecutor:
    """Run shards on a process pool — true multi-core sharding.

    Payload targets must be :class:`~repro.parallel.spec.PlanSpec` values;
    compiled plans are rejected up front (see :mod:`repro.parallel.spec` for
    why plans never cross the boundary).  Workers start by ``fork`` (cheap,
    inherits the warm parent) where the platform has it, else by the
    platform default.

    Failure posture: one dead worker breaks a whole
    ``concurrent.futures.ProcessPoolExecutor`` — every in-flight future
    fails and new submissions are refused.  :meth:`repair` is the recovery
    path the supervision layer (:mod:`repro.parallel.supervision`) uses: it
    swaps in a fresh pool over the *same* shared stop/progress primitives
    and reaps the old pool's processes, so retried shards dispatch onto
    healthy workers without rebuilding the executor.  :meth:`close` is
    idempotent and always reaps — the context-manager exit path guarantees
    no worker process outlives the executor, exceptions or not.
    """

    name = "process"
    in_process = False  # payloads cross a process boundary (specs only)

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers if workers is not None else available_cpus()
        if self.workers < 1:
            raise ValueError("workers must be positive")
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            self._context = multiprocessing.get_context()
        # Per-run stop slots and the progress queue must exist before the
        # pool so the initializer can ship them to every worker (lock-free
        # shared memory: the parent is the only writer, and single-byte
        # reads are atomic).
        self._board = self._context.Array("b", STOP_SLOTS, lock=False)
        self._queue = self._context.Queue()
        self._router = ProgressRouter(self._queue)
        self._free_slots = list(range(STOP_SLOTS))
        self._run_counter = 0
        self._lock = threading.Lock()
        self._closed = False
        self.repairs = 0  # pool replacements performed by repair()
        self._pool = self._make_pool()

    def _make_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._context,
            initializer=_init_shard_worker,
            initargs=(self._board, self._queue),
        )

    @staticmethod
    def _reap_pool(pool, grace: float = 5.0) -> None:
        """Forcibly terminate and join any worker the pool left alive.

        Normal shutdown leaves nothing to do; this is the backstop for
        broken pools and hung workers (the one case ``shutdown`` cannot
        reclaim).  Reaches into the pool's process table — a private
        attribute, so every access is defensive."""
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            try:
                if process.is_alive():
                    process.terminate()
            except Exception:  # pragma: no cover - racing process exit
                pass
        for process in processes:
            try:
                process.join(timeout=grace)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=grace)
            except Exception:  # pragma: no cover - racing process exit
                pass

    def repair(self) -> None:
        """Replace the worker pool; shared stop/progress state survives.

        Builds the new pool *first*, swaps it in, then tears the old one
        down — concurrent ``start_run`` calls always find a usable pool.
        In-flight futures on the old pool fail (``BrokenProcessPool``)
        rather than block, which is exactly what the supervisor's retry
        path wants.  Hung or dead old workers are terminated and joined.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot repair a closed executor")
            old, self._pool = self._pool, self._make_pool()
            self.repairs += 1
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken-pool teardown races
            pass
        self._reap_pool(old)

    @staticmethod
    def _check_payloads(payloads) -> list:
        payloads = list(payloads)
        for payload in payloads:
            target = payload[0] if isinstance(payload, tuple) and payload else payload
            if isinstance(target, VerificationPlan):
                raise TypeError(
                    "ProcessExecutor shards take a PlanSpec, not a compiled "
                    "VerificationPlan — build one with PlanSpec.of(...)"
                )
        return payloads

    def start_run(
        self,
        fn: Callable,
        payloads: Iterable,
        on_progress: Optional[Callable[[int, int, int], None]] = None,
    ) -> RunHandle:
        """Submit one run's shards with a dedicated stop slot.

        With ``on_progress`` set, this run's workers stream partial counts
        onto the shared queue and the router dispatches them (by run id) to
        the callback — several concurrent runs stream without crosstalk.
        """
        payloads = self._check_payloads(payloads)
        with self._lock:
            if not self._free_slots:
                raise RuntimeError(
                    f"more than {STOP_SLOTS} concurrent runs on one "
                    "ProcessExecutor — lower the cell parallelism"
                )
            slot = self._free_slots.pop()
            run_id = self._run_counter
            self._run_counter += 1
        self._board[slot] = 0
        owned = True  # until release() hands the slot back
        stream = on_progress is not None
        if stream:
            self._router.subscribe(run_id, on_progress)

        def poke_slot():
            # A stop requested after release() must not land in a slot that
            # a later run may already hold.
            with self._lock:
                if owned:
                    self._board[slot] = 1

        token = StopToken(on_request=poke_slot)
        # Worker metrics only flush while a trace is live — the off path
        # puts zero extra items on the queue.
        flush_metrics = get_recorder().enabled
        record_event(
            "executor.start_run",
            {"executor": self.name, "shards": len(payloads), "run_id": run_id},
        )
        futures = []

        def release():
            # Teardown order matters.  (1) Unsubscribe — the router
            # dispatches under its own lock, so after this returns no late
            # update can poke this run's token/slot.  (2) Stop and wait out
            # this run's workers: pending futures cancel, already-running
            # shards see the slot flag at their next chunk.  Only then
            # (3) is the slot clean to hand to a concurrent run.
            nonlocal owned
            if stream:
                self._router.unsubscribe(run_id)
            self._board[slot] = 1
            for future in futures:
                future.cancel()
            concurrent.futures.wait(futures)
            with self._lock:
                owned = False
                self._board[slot] = 0
                self._free_slots.append(slot)

        try:
            for payload in payloads:
                futures.append(
                    self._pool.submit(
                        _invoke_in_worker_run,
                        fn,
                        payload,
                        slot,
                        run_id,
                        stream,
                        flush_metrics,
                    )
                )
        except BaseException:
            # A broken pool refuses submissions: hand back what this run
            # took before the caller (the supervisor) repairs and retries.
            release()
            raise
        return RunHandle(_drain_futures(futures), token, on_finish=release)

    def progress_stats(self) -> dict:
        """The router's drop/leak counters (see ``ProgressRouter.stats``)."""
        return self._router.stats()

    def close(self) -> None:
        """Tear down the pool and router; idempotent, and always reaps.

        Every exit path — normal completion, an exception inside a ``with``
        block, a double close — ends with no live worker process: after the
        orderly shutdown, any survivor (broken pool, hung worker) is
        terminated and joined by :meth:`_reap_pool`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool = self._pool
        # Pool first, router second: workers may still be publishing while
        # shutdown waits for them, and the drain thread must keep reading
        # or a full queue pipe would block worker exit (feeder-thread join)
        # and deadlock the shutdown.
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        finally:
            self._reap_pool(pool)
            self._router.close()

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}

Executor = Union[SerialExecutor, ProcessExecutor]


def resolve_executor(
    executor: Union[str, Executor, None], workers: Optional[int] = None
) -> Tuple[Executor, bool]:
    """An executor instance for a name-or-instance argument.

    Returns ``(executor, owned)`` — ``owned`` tells the caller whether it
    created (and must close) the instance.  Worker-leak discipline: every
    internal caller closes owned executors in a ``finally``; tests assert no
    child processes survive a close.

    A worker count that the named backend cannot honour raises the same
    :class:`ValueError` an instance mismatch does — ``("serial", workers=4)``
    is a contradiction, not a request to be silently downgraded.
    """
    if executor is None:
        executor = "serial"
    if isinstance(executor, str):
        try:
            factory = EXECUTORS[executor]
        except KeyError:
            raise ValueError(
                f"unknown executor {executor!r} (choose from {sorted(EXECUTORS)})"
            ) from None
        if factory is SerialExecutor:
            if workers not in (None, 1):
                raise ValueError(
                    f"workers={workers} conflicts with the serial executor's "
                    "workers=1 — pick the process backend for multi-worker "
                    "runs"
                )
            return SerialExecutor(), True
        return factory(workers=workers), True
    if workers is not None and getattr(executor, "workers", None) not in (None, workers):
        raise ValueError(
            f"workers={workers} conflicts with the provided executor's "
            f"workers={executor.workers}"
        )
    return executor, False


# ---------------------------------------------------------------------------
# the sharded estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedEstimate:
    """The merged estimate of a sharded run, with its per-shard provenance.

    ``report`` is the run's supervision ledger
    (:class:`~repro.parallel.supervision.RunReport`).  A report with
    quarantined shards means the estimate merges only the shards that
    completed — still exact over those counter ranges, but short of the
    requested budget; check ``report.ok``.  ``progress_updates`` counts the
    partial-count updates the supervisor received as heartbeats, plus one
    final update per shard result (on the process pool the last partials
    can arrive after the result) — provenance, never part of the estimate
    itself.

    ``estimate`` merges everything that ran; ``prefix`` is what the run
    books (see :class:`_PrefixBook`): exactly a single-process run over
    the first ``prefix.trials`` counters of the range, cut at the first
    trial where the stop rule holds.
    """

    estimate: AcceptanceEstimate
    shard_results: Tuple[ShardResult, ...]
    requested_trials: int
    executor: str
    workers: int
    stopped_early: bool
    report: RunReport
    prefix: AcceptanceEstimate
    progress_updates: int = 0

    @property
    def shards(self) -> int:
        return len(self.shard_results)

    @property
    def kernel_path(self) -> Optional[str]:
        """The path the shards ran on (``None`` when no shard ran)."""
        return self.shard_results[0].executed_path if self.shard_results else None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = " (stopped early)" if self.stopped_early else ""
        if self.estimate != self.prefix:
            tag += f", {self.estimate.trials} trials ran"
        return (
            f"{self.prefix} over {self.shards} shards "
            f"[{self.executor} x{self.workers}]{tag}"
        )


def estimate_acceptance_sharded(
    target: Union[PlanSpec, VerificationPlan],
    trials: int,
    seed: int = 0,
    executor: Union[str, Executor, None] = "serial",
    workers: Optional[int] = None,
    planner: Optional[ShardPlanner] = None,
    shard_count: Optional[int] = None,
    rng_mode: Optional[str] = None,
    stop_halfwidth: Optional[float] = None,
    min_trials: int = MIN_STOP_TRIALS,
    first_trial: int = 0,
    prior: Tuple[int, int] = (0, 0),
    shard_timeout: Optional[float] = None,
    max_retries: int = 0,
    retry_policy: Optional[RetryPolicy] = None,
) -> ShardedEstimate:
    """Estimate ``Pr[verifier accepts]`` with the trial range sharded.

    The multi-worker counterpart of
    :func:`~repro.engine.montecarlo.estimate_acceptance_fast`: the trial
    budget is partitioned into counter ranges (``planner`` /
    ``shard_count``), the ranges run on ``executor`` (a name from
    ``EXECUTORS`` or a ready instance; string names honour ``workers``), and
    the per-shard counts merge through
    :meth:`~repro.simulation.metrics.AcceptanceEstimate.merge`.

    ``target`` may be a compiled plan (serial backend) or a
    :class:`~repro.parallel.spec.PlanSpec` (any backend; required for
    processes).  With ``stop_halfwidth`` set, the run stops the moment its
    contiguous counter prefix satisfies the Wilson rule, and ``prefix``
    books exactly the trials the single-process stop would (see the module
    docstring).  Without it, the result is exactly the single-process
    estimate — see the module docstring's determinism contract.

    Adaptive-budget hooks (see :mod:`repro.parallel.controller`):

    - ``first_trial`` shifts the whole sharded range: the call covers
      counters ``[first_trial, first_trial + trials)``, exactly as the
      engine-level hook does for a single shard.  An *installment* run
      extending an earlier one passes the consumed prefix length here.
    - ``prior`` seeds the stop rule with cumulative ``(accepted, trials)``
      counts from the already-consumed prefix, so ``stop_halfwidth`` (and
      ``min_trials``) apply to the *cumulative* estimate across
      installments.  A ``prior`` that already satisfies the rule
      dispatches no shard and books nothing.  The returned estimate still
      reports only this call's counts — the caller owns the cumulative
      ledger.

    Every run goes through a
    :class:`~repro.parallel.supervision.ShardSupervisor`, configured by
    ``retry_policy`` or its ``shard_timeout`` / ``max_retries`` shorthands.
    With the default zero retries a shard's exception propagates, as from
    any function; with ``max_retries > 0`` failed shards retry with
    deterministic backoff (bit-identical re-execution, so any crash/retry
    schedule merges to the undisturbed estimate) and shards that exhaust
    the budget are quarantined.  ``shard_timeout`` is a progress deadline:
    a shard silent that long is timed out and retried or quarantined.  The
    returned estimate carries the
    :class:`~repro.parallel.supervision.RunReport` in ``report``.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if first_trial < 0:
        raise ValueError("first_trial must be non-negative")
    check_prior(prior)
    if stop_halfwidth is not None:
        validate_halfwidth(stop_halfwidth, "stop_halfwidth")
    if planner is not None and shard_count is not None:
        raise ValueError("pass either planner or shard_count, not both")
    if planner is None:
        planner = ShardPlanner(shard_count=shard_count)
    if retry_policy is None:
        retry_policy = RetryPolicy(max_retries=max_retries, shard_timeout=shard_timeout)
    elif shard_timeout is not None or max_retries:
        raise ValueError(
            "pass either retry_policy or shard_timeout/max_retries, not both"
        )
    book = _PrefixBook(prior, stop_halfwidth, min_trials)

    instance, owned = resolve_executor(executor, workers)
    recorder = get_recorder()
    run_attrs = None
    if recorder.enabled:
        run_attrs = {
            "executor": instance.name,
            "workers": instance.workers,
            "trials": trials,
            "seed": seed,
            "first_trial": first_trial,
        }
    run_span = recorder.span("run", run_attrs)
    try:
        # Chaos wrappers and other delegating executors advertise whether
        # payloads stay in-process via the `in_process` attribute; the bare
        # ProcessExecutor is the one stock backend that ships them out.
        in_process = getattr(instance, "in_process", True)
        if isinstance(target, PlanSpec):
            if rng_mode is None:
                rng_mode = target.rng_mode
            shard_target: Union[PlanSpec, VerificationPlan] = target
            if in_process:
                # Same process: resolve once and share the read-only plan.
                shard_target = target.resolve().prepare()
        else:
            if rng_mode is None:
                rng_mode = target.rng_mode
            shard_target = target.prepare()

        shards = () if book.converged else planner.plan(trials, instance.workers)
        if first_trial:
            # Installment runs extend an earlier consumed prefix: shift the
            # whole planned range so shard provenance records the *global*
            # counter positions the trials actually derive their seeds from.
            shards = tuple(
                Shard(
                    index=shard.index,
                    start=shard.start + first_trial,
                    stop=shard.stop + first_trial,
                )
                for shard in shards
            )
        options = {
            "seed": seed,
            "rng_mode": rng_mode,
            "stop": None if stop_halfwidth is None else (prior, stop_halfwidth, min_trials),
        }
        if recorder.enabled:
            run_span.set("rng_mode", rng_mode)
            run_span.set("shards", len(shards))
            # Workers rebuild a recorder from the spec (the PlanSpec move);
            # shard spans parent onto this run span across the boundary.
            options["trace"] = recorder.spec(parent=run_span.span_id)
        payloads = [(shard_target, shard, options) for shard in shards]

        def on_result(result: ShardResult) -> None:
            if book.add(result):
                supervisor.request_stop()

        supervisor = ShardSupervisor(
            instance, _run_shard, payloads, policy=retry_policy, on_result=on_result
        )
        result_map, report = supervisor.run()
    except BaseException as exc:
        # Close the run span on the error path (status="error"); the
        # success path closes it after the merge, with the final counts.
        run_span.__exit__(type(exc), exc, None)
        raise
    finally:
        if owned:
            instance.close()

    results = sorted(result_map.values(), key=lambda result: result.shard.index)
    merged = AcceptanceEstimate.merge(result.estimate for result in results)
    stopped_early = book.converged or merged.trials < trials
    run_span.set("trials_run", merged.trials)
    run_span.set("accepted", merged.accepted)
    run_span.set("stopped_early", stopped_early)
    run_span.__exit__(None, None, None)
    return ShardedEstimate(
        estimate=merged,
        shard_results=tuple(results),
        requested_trials=trials,
        executor=instance.name,
        workers=instance.workers,
        stopped_early=stopped_early,
        report=report,
        prefix=AcceptanceEstimate(accepted=book.accepted, trials=book.trials),
        progress_updates=supervisor.progress_updates + len(results),
    )


class _PrefixBook:
    """What a run books: its contiguous counter prefix, cut at the stop.

    Shard results arrive in any order.  :meth:`add` holds each one until
    every earlier shard has joined the prefix, then books it once: shard 0
    by its counts (its worker already ran the rule from ``prior``), a later
    shard by scanning its verdicts a window at a time with the
    single-process rule, from ``prior`` plus the counts booked so far.
    The prefix closes at the first trial where the rule holds
    (``converged``), or at a shard that ran short of its range: a stop
    from outside the rule, with a quarantined or cut shard leaving a gap.
    Without a stop rule every joining shard books its counts.
    """

    def __init__(self, prior: Tuple[int, int], stop_halfwidth: Optional[float], min_trials: int):
        self.prior = prior
        self.width = None if stop_halfwidth is None else 2 * stop_halfwidth
        self.min_trials = min_trials
        self.accepted = self.trials = 0
        self.converged = stop_halfwidth is not None and wilson_stop_holds(
            *prior, stop_halfwidth, min_trials
        )
        self._closed = self.converged
        self._next = 0  # the shard index that joins the prefix next
        self._waiting: Dict[int, ShardResult] = {}

    def add(self, result: ShardResult) -> bool:
        """Book what ``result`` adds to the prefix; true when that converges it."""
        if self._closed:
            return False
        self._waiting[result.shard.index] = result
        while not self._closed and self._next in self._waiting:
            result = self._waiting.pop(self._next)
            self._next += 1
            if result.shard.index == 0 or self.width is None:
                self.accepted += result.accepted
                self.trials += result.trials
                self.converged = result.converged
            else:
                for window in result.verdict_windows():
                    kept, ran, self.converged = _kernel_prefix(
                        window,
                        self.prior[0] + self.accepted,
                        self.prior[1] + self.trials,
                        self.width,
                        self.min_trials,
                    )
                    self.accepted += kept
                    self.trials += ran
                    if self.converged:
                        break
            self._closed = self.converged or result.trials < result.shard.trials
        return self.converged
