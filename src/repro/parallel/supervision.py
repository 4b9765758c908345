"""Worker supervision: shard deadlines, deterministic retry, quarantine.

The sharded executor of PR 4/5 assumes every dispatched shard eventually
reports.  One crashed worker (an exception, or a process killed outright),
one hung shard, and ``estimate_acceptance_sharded`` either raises mid-merge
or waits forever.  This module adds the layer that makes shard execution
*fault-tolerant* without touching its determinism contract:

- **Deadlines.** Every shard's progress updates — the cumulative
  partial counts it publishes after each chunk — double as heartbeats, and
  the dispatch itself counts as the first beat.  A shard that produces no
  heartbeat within ``shard_timeout`` is declared failed, its
  dispatch is stopped cooperatively, and on the process backend a worker
  that ignores the stop past ``kill_grace`` escalates to a pool repair
  (dead/hung processes reaped, replacements spawned —
  :meth:`~repro.parallel.executors.ProcessExecutor.repair`).

- **Deterministic retry.** A failed shard is re-dispatched with exponential
  backoff, up to ``max_retries`` times.  Because a shard is a counter range
  and every trial verdict is a pure function of ``(master seed, trial
  counter)``, the retried shard re-executes *bit-identically*.  Partial
  updates are heartbeats only, and one accepted result per shard reaches
  the merge, so the merged
  :class:`~repro.simulation.metrics.AcceptanceEstimate` is provably
  unchanged by any crash/retry schedule.

- **Quarantine.** A shard that fails ``max_retries + 1`` attempts is
  quarantined — execution continues for its siblings, and the structured
  :class:`RunReport` surfaces the shard, its attempt count, and every
  recorded failure, instead of one exception destroying the whole run.
  With ``max_retries=0`` there is no budget to exhaust: a shard's (or a
  dispatch's) exception stops the run and propagates from :meth:`run`,
  as from any function.  Timeouts are quarantined under every policy.

The supervisor is backend-agnostic: it only needs the executor's
``start_run`` contract (per-run stop tokens) and, optionally, a ``repair()``
method for the escalation path.  On the serial backend supervised shards
execute one at a time on watcher threads — serial *ordering* is preserved,
at the cost of the shards no longer running on the caller's thread (the
price of being able to time one out).

Known limitation, stated honestly: a worker that hangs *non-cooperatively*
(never polling ``should_stop`` between chunks) can only be reclaimed on the
process backend, where ``repair()`` terminates it.  A serial-backend shard
runs on a watcher thread, and CPython cannot kill a thread; the chaos
harness's hang fault is cooperative for exactly this reason.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.runtime import get_metrics, record_event
from repro.parallel.shards import Shard

# Main-loop wakeup period: outcome waits, deadline scans, and backoff
# release checks all happen at this granularity.
DEFAULT_TICK = 0.02


@dataclass(frozen=True)
class RetryPolicy:
    """When to give up on a shard attempt, and how to space the next one.

    ``max_retries`` bounds *re*-dispatches (0 = one attempt, no retry).
    ``shard_timeout`` is the heartbeat deadline in seconds (``None`` =
    never time out; crashes are still retried).  Backoff before retry
    ``n`` (1-based) is ``backoff_base * backoff_factor ** (n - 1)``,
    capped at ``backoff_max`` — deterministic, no jitter, so a retry
    schedule is reproducible.  ``kill_grace`` is how long a timed-out
    dispatch may ignore its cooperative stop before the supervisor
    escalates to a pool repair (process backend only).
    """

    max_retries: int = 2
    shard_timeout: Optional[float] = None
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    kill_grace: float = 1.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.kill_grace <= 0:
            raise ValueError("kill_grace must be positive")

    def backoff(self, retry: int) -> float:
        """Delay before retry number ``retry`` (1-based); deterministic."""
        if retry < 1:
            raise ValueError("retry numbers are 1-based")
        return min(self.backoff_base * self.backoff_factor ** (retry - 1),
                   self.backoff_max)


@dataclass(frozen=True)
class ShardFailure:
    """One recorded failure of one shard attempt.

    ``elapsed_sec`` is the monotonic offset from the supervised run's start
    to the moment the failure was recorded — retry spacing read off a
    report is therefore immune to wall-clock steps.
    """

    shard_index: int
    attempt: int  # 0-based attempt number that failed
    kind: str  # "error" (exception) | "timeout" (heartbeat deadline)
    message: str
    elapsed_sec: float = 0.0  # monotonic, from run start

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard_index": self.shard_index,
            "attempt": self.attempt,
            "kind": self.kind,
            "message": self.message,
            "elapsed_sec": self.elapsed_sec,
        }


@dataclass(frozen=True)
class QuarantinedShard:
    """A shard that exhausted its retry budget, with its failure history."""

    shard: Shard
    attempts: int
    failures: Tuple[ShardFailure, ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard.as_dict(),
            "attempts": self.attempts,
            "failures": [failure.as_dict() for failure in self.failures],
        }


@dataclass(frozen=True)
class RunReport:
    """The supervision ledger of one sharded run.

    ``attempts`` maps shard index to dispatch count; ``failures`` is every
    recorded failure in observation order; ``quarantined`` the shards that
    exhausted their budget.  ``ok`` means every non-skipped shard resolved
    — quarantine is the one outcome that makes a run not-ok (a cooperative
    stop skipping shards is normal operation).

    Timing carries both clocks: ``started_unix`` / ``finished_unix`` are
    wall-clock (for correlating with logs), ``duration_sec`` is a
    **monotonic** difference — a wall-clock step mid-run (NTP, suspend)
    shifts the unix pair but can never corrupt the duration, and the
    per-failure ``elapsed_sec`` offsets share the same monotonic origin.
    """

    attempts: Dict[int, int]
    failures: Tuple[ShardFailure, ...]
    quarantined: Tuple[QuarantinedShard, ...]
    retries: int = 0
    timeouts: int = 0
    pool_repairs: int = 0
    started_unix: float = 0.0
    finished_unix: float = 0.0
    duration_sec: float = 0.0  # monotonic, clock-step immune

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempts": dict(self.attempts),
            "failures": [failure.as_dict() for failure in self.failures],
            "quarantined": [shard.as_dict() for shard in self.quarantined],
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_repairs": self.pool_repairs,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "duration_sec": self.duration_sec,
            "ok": self.ok,
        }


class _Dispatch:
    """One in-flight attempt of one shard."""

    __slots__ = ("index", "attempt", "handle", "abandoned_at", "escalated")

    def __init__(self, index: int, attempt: int, handle):
        self.index = index
        self.attempt = attempt
        self.handle = handle
        self.abandoned_at: Optional[float] = None  # set when timed out
        self.escalated = False  # kill_grace repair already fired


class ShardSupervisor:
    """Run one set of shard payloads to completion under a retry policy.

    ``payloads`` are the sharded estimator's ``(target, shard, options)``
    tuples; each shard is dispatched as its *own* single-payload
    ``executor.start_run`` so it carries its own stop token — timing out
    one shard never disturbs its siblings.  A daemon watcher thread drains
    each dispatch and reports its outcome (result, exception, or nothing)
    onto an internal queue; the supervisor's main loop dispatches, applies
    deadlines, schedules retries, and quarantines.

    Every partial a shard publishes is that shard's heartbeat
    (``progress_updates`` counts them).  ``on_result`` fires on the supervisor thread for each
    accepted shard result: a complete one, one that stopped on the run's
    rule (``converged``), or a partial one once a stop was requested.
    ``request_stop`` is safe from any thread and synchronous: every
    in-flight dispatch is asked to stop before it returns, and nothing new
    starts.
    """

    def __init__(
        self,
        executor,
        fn: Callable,
        payloads,
        policy: Optional[RetryPolicy] = None,
        on_result: Optional[Callable[[object], None]] = None,
        tick: float = DEFAULT_TICK,
        clock: Callable[[], float] = time.monotonic,
    ):
        payloads = list(payloads)
        self._executor = executor
        self._fn = fn
        self._policy = policy if policy is not None else RetryPolicy()
        self._on_result = on_result
        self._tick = tick
        self._clock = clock
        self._payloads: Dict[int, object] = {}
        self._shards: Dict[int, Shard] = {}
        for payload in payloads:
            shard = payload[1]
            if shard.index in self._shards:
                raise ValueError(f"duplicate shard index {shard.index}")
            self._payloads[shard.index] = payload
            self._shards[shard.index] = shard
        self._outcomes: "queue.Queue" = queue.Queue()
        self._beat_lock = threading.Lock()
        self._beats: Dict[int, float] = {}
        self.progress_updates = 0
        self._stop_event = threading.Event()
        # In-flight dispatches; request_stop reads them from other threads.
        self._inflight_lock = threading.Lock()
        self._inflight: set = set()
        # Supervision ledger
        self._attempts: Dict[int, int] = {}
        self._failures: List[ShardFailure] = []
        self._failures_by_shard: Dict[int, List[ShardFailure]] = {}
        self._retries = 0
        self._timeouts = 0
        self._pool_repairs = 0
        self._start_mono = 0.0  # set by run(); failures record offsets from it
        # The serial backend runs a dispatch in the thread that iterates it
        # (our watcher), so more than one in-flight dispatch would introduce
        # concurrency the backend promises not to have.
        workers = getattr(executor, "workers", 1) or 1
        self._max_inflight = 1 if getattr(executor, "name", "") == "serial" else workers

    # -- progress / heartbeat -------------------------------------------------

    def _beat(self, shard_index: int, accepted: int, trials: int) -> None:
        with self._beat_lock:
            self._beats[shard_index] = self._clock()
            self.progress_updates += 1

    def _last_beat(self, shard_index: int) -> float:
        with self._beat_lock:
            return self._beats.get(shard_index, 0.0)

    # -- external stop ----------------------------------------------------------

    def request_stop(self) -> None:
        """Stop the whole run now; callable from any thread."""
        self._stop_event.set()
        with self._inflight_lock:
            inflight = list(self._inflight)
        for dispatch in inflight:
            dispatch.handle.request_stop()

    # -- internals -------------------------------------------------------------

    def _record_failure(self, index: int, attempt: int, kind: str, message: str) -> None:
        failure = ShardFailure(
            shard_index=index,
            attempt=attempt,
            kind=kind,
            message=message,
            elapsed_sec=self._clock() - self._start_mono,
        )
        self._failures.append(failure)
        self._failures_by_shard.setdefault(index, []).append(failure)
        record_event(
            "supervision.failure",
            {
                "shard": index,
                "attempt": attempt,
                "fail_kind": kind,
                "elapsed_sec": failure.elapsed_sec,
            },
        )

    def _try_repair(self) -> bool:
        repair = getattr(self._executor, "repair", None)
        if repair is None:
            return False
        try:
            repair()
        except Exception:
            return False
        self._pool_repairs += 1
        record_event("supervision.pool_repair", {"repairs": self._pool_repairs})
        return True

    def _watch(self, dispatch: _Dispatch) -> None:
        """Drain one dispatch on its own daemon thread; report the outcome."""
        result = None
        error: Optional[BaseException] = None
        try:
            for item in dispatch.handle.results():
                result = item
        except BaseException as exc:  # delivered to the main loop, not raised
            error = exc
        self._outcomes.put((dispatch, result, error))

    def _dispatch(self, index: int) -> Optional[Exception]:
        """Start one attempt of shard ``index``; the error if dispatch failed."""
        attempt = self._attempts.get(index, 0)
        self._attempts[index] = attempt + 1
        if attempt > 0:
            self._retries += 1
        record_event("supervision.dispatch", {"shard": index, "attempt": attempt})
        payload = self._payloads[index]
        handle = None
        for round_ in (0, 1):
            try:
                handle = self._executor.start_run(
                    self._fn, [payload], on_progress=self._beat
                )
                break
            except Exception as exc:
                # A broken process pool rejects submissions outright; repair
                # once and retry the dispatch before charging the shard.
                if round_ == 0 and self._try_repair():
                    continue
                self._record_failure(
                    index, attempt, "error", f"dispatch failed: {exc!r}"
                )
                return exc
        # The dispatch is the shard's first heartbeat.
        with self._beat_lock:
            self._beats[index] = self._clock()
        dispatch = _Dispatch(index, attempt, handle)
        with self._inflight_lock:
            self._inflight.add(dispatch)
        if self._stop_event.is_set():
            # A stop raced this dispatch (a sibling's partial fired it).
            handle.request_stop()
        threading.Thread(
            target=self._watch,
            args=(dispatch,),
            name=f"repro-supervise-{index}",
            daemon=True,
        ).start()
        return None

    def run(self) -> Tuple[Dict[int, object], RunReport]:
        """Supervise every shard to a result, quarantine, or stop-skip.

        Returns ``(results, report)`` where ``results`` maps shard index to
        the accepted :class:`~repro.parallel.executors.ShardResult` —
        complete or converged results always, partial results only once a
        global stop was requested (cancelled shards report the prefix they
        ran and never-started shards are skipped).  Under ``max_retries=0`` the
        first shard or dispatch exception stops the run and is re-raised
        here once every in-flight dispatch has wound down.
        """
        policy = self._policy
        self._start_mono = self._clock()
        started_unix = time.time()
        pending: List[int] = sorted(self._shards)  # eligible, FIFO by index
        not_before: Dict[int, float] = {}
        results: Dict[int, object] = {}
        quarantined: Dict[int, QuarantinedShard] = {}
        inflight = self._inflight
        fatal: List[BaseException] = []

        def retry_or_quarantine(index: int) -> None:
            failures = self._failures_by_shard.get(index, [])
            if self._stop_event.is_set():
                return  # stopping: no retries, the shard is skipped
            if len(failures) > policy.max_retries:
                quarantined[index] = QuarantinedShard(
                    shard=self._shards[index],
                    attempts=self._attempts.get(index, 0),
                    failures=tuple(failures),
                )
                record_event(
                    "supervision.quarantine",
                    {"shard": index, "attempts": self._attempts.get(index, 0)},
                )
                return
            backoff = policy.backoff(len(failures))
            not_before[index] = self._clock() + backoff
            pending.append(index)
            pending.sort()
            record_event(
                "supervision.retry",
                {
                    "shard": index,
                    "next_attempt": self._attempts.get(index, 0),
                    "backoff_sec": backoff,
                },
            )

        def charge_error(index: int, error: BaseException) -> None:
            if policy.max_retries == 0 and not fatal:
                fatal.append(error)
                self.request_stop()
            else:
                retry_or_quarantine(index)

        while True:
            now = self._clock()

            if self._stop_event.is_set():
                pending.clear()  # a stop drops everything not yet started

            # Dispatch eligible shards up to the in-flight cap.
            while (
                pending
                and len(inflight) < self._max_inflight
                and not self._stop_event.is_set()
            ):
                ready = [
                    index for index in pending if not_before.get(index, 0.0) <= now
                ]
                if not ready:
                    break
                index = ready[0]
                pending.remove(index)
                error = self._dispatch(index)
                if error is not None:
                    charge_error(index, error)

            if not inflight and not pending:
                # Every shard is resolved (result or quarantine) or was
                # dropped by a global stop — supervision is done.
                break

            # Wait for one outcome (or a tick, for deadline scans).
            try:
                dispatch, result, error = self._outcomes.get(timeout=self._tick)
            except queue.Empty:
                dispatch = result = error = None

            if dispatch is not None:
                with self._inflight_lock:
                    inflight.discard(dispatch)
                index = dispatch.index
                if index in results:
                    pass  # already resolved by a sibling attempt
                elif error is not None:
                    if dispatch.abandoned_at is None:
                        self._record_failure(
                            index, dispatch.attempt, "error", repr(error)
                        )
                        charge_error(index, error)
                    # abandoned dispatches already charged a timeout failure
                elif result is not None and (
                    result.trials == self._shards[index].trials
                    or result.converged
                    or self._stop_event.is_set()
                ):
                    # Complete, stopped on the rule, or partial under a
                    # global stop.  A late completion from an abandoned
                    # attempt is free (bit-identical) work.
                    quarantined.pop(index, None)
                    if index in pending:
                        pending.remove(index)
                    results[index] = result
                    if self._on_result is not None:
                        self._on_result(result)
                elif dispatch.abandoned_at is None:
                    # Partial (or empty) outcome without a stop: the attempt
                    # went nowhere — count it and retry.
                    self._record_failure(
                        index,
                        dispatch.attempt,
                        "error",
                        "attempt returned no complete result",
                    )
                    retry_or_quarantine(index)

            # Heartbeat deadlines + kill-grace escalation.
            if policy.shard_timeout is not None:
                now = self._clock()
                for dispatch in list(inflight):
                    index = dispatch.index
                    if dispatch.abandoned_at is None:
                        if now - self._last_beat(index) > policy.shard_timeout:
                            self._timeouts += 1
                            dispatch.abandoned_at = now
                            self._record_failure(
                                index,
                                dispatch.attempt,
                                "timeout",
                                f"no heartbeat within {policy.shard_timeout}s",
                            )
                            dispatch.handle.request_stop()
                            retry_or_quarantine(index)
                    elif (
                        not dispatch.escalated
                        and now - dispatch.abandoned_at > policy.kill_grace
                    ):
                        # The worker ignored its cooperative stop: reap it
                        # (process backend).  Its futures then fail and the
                        # watcher delivers the (already-charged) outcome.
                        dispatch.escalated = True
                        self._try_repair()

        if fatal:
            raise fatal[0]
        report = RunReport(
            attempts=dict(self._attempts),
            failures=tuple(self._failures),
            quarantined=tuple(
                quarantined[index] for index in sorted(quarantined)
            ),
            retries=self._retries,
            timeouts=self._timeouts,
            pool_repairs=self._pool_repairs,
            started_unix=started_unix,
            finished_unix=time.time(),
            duration_sec=self._clock() - self._start_mono,
        )
        # Mirror the ledger into the metrics registry so traces and
        # `repro.obs report` see supervision activity without re-parsing
        # supervision records.
        metrics = get_metrics()
        if self._retries:
            metrics.counter("supervision.retries").inc(self._retries)
        if self._timeouts:
            metrics.counter("supervision.timeouts").inc(self._timeouts)
        if self._pool_repairs:
            metrics.counter("supervision.pool_repairs").inc(self._pool_repairs)
        if quarantined:
            metrics.counter("supervision.quarantined").inc(len(quarantined))
        return results, report
