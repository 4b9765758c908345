"""Shard-progress streaming: stop tokens, run handles, the process-pool router.

Workers publish *partial* cumulative ``(accepted, trials)`` counts after
every chunk (the ``progress`` hook of
:func:`~repro.engine.montecarlo.estimate_acceptance_fast`).  The updates are
the shards' heartbeats under :mod:`repro.parallel.supervision`; they never
reach an estimate or a stop decision (a sharded run stops when its booked
prefix converges, see :mod:`repro.parallel.executors`).  With no stop rule
every shard runs to completion and the merged result equals the
single-process estimate bit for bit.

Conduits per backend
--------------------

- **Serial** — the publish callback is invoked in-process.
- **Process** — workers put ``(run_id, shard_index, accepted, trials)``
  tuples on a ``multiprocessing`` queue installed by the pool initializer;
  a single parent-side :class:`ProgressRouter` thread drains the queue and
  dispatches to each run's subscriber by run id, so several concurrent
  runs (campaign cells) can stream over one pool without crosstalk.
"""

from __future__ import annotations

import threading
import warnings
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsFlush
from repro.obs.runtime import get_metrics


class StopToken:
    """A per-run cooperative stop flag.

    Executors hand every run its own token so concurrent runs on one pool
    (campaign cells) stop independently.  ``on_request`` carries backend
    side effects (the process backend marks its shared stop-board slot so
    worker processes see the request).
    """

    def __init__(self, on_request: Optional[Callable[[], None]] = None):
        self._stopped = False
        self._on_request = on_request

    @property
    def stopped(self) -> bool:
        return self._stopped

    def request(self) -> None:
        self._stopped = True
        if self._on_request is not None:
            self._on_request()

    def probe(self) -> bool:
        """The ``should_stop`` hook workers poll between chunks."""
        return self._stopped


class RunHandle:
    """One sharded run in flight on an executor.

    ``results()`` yields shard results as they complete (exactly once);
    ``request_stop()`` asks *this run's* workers to stop at the next chunk
    boundary.  The handle releases backend resources (stop-board slot,
    progress subscription) when the result iteration finishes, normally or
    not — **and** via :meth:`close`, which is the path a caller that never
    iterates (or dies between ``start_run`` and the first ``next``) must
    take: relying on the generator's ``finally`` alone leaks both
    resources, because closing a never-started generator does not run its
    body.  ``close`` is idempotent, safe after a completed iteration, and
    the handle is a context manager (``with executor.start_run(...) as
    handle:``) so error paths release by construction.
    """

    def __init__(self, iterator, token: StopToken, on_finish=None):
        self._iterator = iterator
        self._token = token
        self._on_finish = on_finish
        self._finished = False

    def request_stop(self) -> None:
        self._token.request()

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            if self._on_finish is not None:
                self._on_finish()

    def close(self) -> None:
        """Release the run's backend resources; idempotent.

        For a run whose results were never (fully) iterated this stops the
        workers cooperatively first, then runs the release hook — the same
        teardown a completed iteration performs.  After a completed
        ``results()`` iteration it is a no-op.
        """
        if self._finished:
            return
        self._token.request()
        # Close the underlying iterator if it was started: _drain_futures'
        # own finally then cancels any pending futures before the release
        # hook waits out the running ones.
        close_iter = getattr(self._iterator, "close", None)
        if close_iter is not None:
            close_iter()
        self._finish()

    def results(self):
        try:
            for item in self._iterator:
                yield item
        finally:
            self._finish()

    def __enter__(self) -> "RunHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_ROUTER_SENTINEL = None


class ProgressRouter:
    """Parent-side dispatcher for a process pool's progress queue.

    One router (and one drain thread) per :class:`ProcessExecutor`; runs
    subscribe a callback under a fresh run id, worker updates arrive
    as ``(run_id, shard_index, accepted, trials)`` tuples, and the router
    forwards each to its run's subscriber.  Updates for finished
    (unsubscribed) runs are dropped — late partials carry no information
    the final shard results don't.

    The drain loop is the one thread every run on the pool shares, so it
    must survive anything the queue delivers: updates for unknown or stale
    run ids and malformed items (a worker dying mid-``put`` can tear a
    message) are *counted and dropped* — ``unknown_run_updates`` /
    ``malformed_items`` — never raised.  :meth:`stats` packages every
    drop/leak counter into one dict so campaign ``supervision`` records can
    carry them instead of warning-only.

    The queue double-duties as the worker→parent metrics conduit: a
    :class:`~repro.obs.metrics.MetricsFlush` item carries one worker's
    metrics delta; the router folds it into the parent's process-global
    registry so worker-side counters surface in
    trace metrics records.
    """

    def __init__(self, queue, join_timeout: float = 5.0):
        self._queue = queue
        self._join_timeout = join_timeout
        self._subscribers: Dict[int, Callable[[int, int, int], None]] = {}
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._last_trials: Dict[int, Dict[int, int]] = {}  # run -> shard -> trials
        self.callback_errors = 0  # raising subscribers, dropped not fatal
        self.unknown_run_updates = 0  # partials for finished/never-known runs
        self.stale_updates = 0  # regressive partials (superseded in transit)
        self.malformed_items = 0  # torn or garbage queue items
        self.metrics_flushes = 0  # worker metrics deltas folded in
        self.drain_thread_leaked = 0  # drain threads that outlived close()

    def subscribe(self, run_id: int, callback: Callable[[int, int, int], None]) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("progress router is closed")
            self._subscribers[run_id] = callback
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._drain, name="repro-progress", daemon=True
                )
                self._thread.start()

    def unsubscribe(self, run_id: int) -> None:
        with self._lock:
            self._subscribers.pop(run_id, None)
            self._last_trials.pop(run_id, None)

    def stats(self) -> Dict[str, int]:
        """Every drop/leak counter in one dict (for supervision records)."""
        return {
            "unknown": self.unknown_run_updates,
            "stale": self.stale_updates,
            "malformed": self.malformed_items,
            "callback_errors": self.callback_errors,
            "metrics_flushes": self.metrics_flushes,
            "drain_thread_leaked": self.drain_thread_leaked,
        }

    def _absorb_metrics(self, flush: MetricsFlush) -> None:
        with self._lock:
            self.metrics_flushes += 1
        # Outside the router lock: the global registry has its own.
        get_metrics().merge(flush.metrics)

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is _ROUTER_SENTINEL:
                return
            if isinstance(item, MetricsFlush):
                try:
                    self._absorb_metrics(item)
                except Exception:
                    self.malformed_items += 1
                continue
            try:
                run_id, shard_index, accepted, trials = item
            except Exception:
                # Torn/garbage item (chaos-injected, or a worker killed
                # mid-put): count it, keep draining.
                self.malformed_items += 1
                continue
            # Dispatch *under* the lock: unsubscribe() (same lock) then
            # cannot return while a dispatch for that run is in flight, so
            # a released run's slot can never be poked by a late update.
            # The callbacks (supervisor heartbeats) take no lock that could
            # reach back here.
            with self._lock:
                try:
                    callback = self._subscribers.get(run_id)
                except TypeError:  # unhashable run id: garbage in disguise
                    self.malformed_items += 1
                    continue
                if callback is None:
                    self.unknown_run_updates += 1
                    continue
                # Stale accounting: a cumulative partial whose trial count
                # regressed was superseded in transit (or torn by chaos).
                # Still dispatched: it is a heartbeat all the same.
                try:
                    per_shard = self._last_trials.setdefault(run_id, {})
                    if trials < per_shard.get(shard_index, 0):
                        self.stale_updates += 1
                    else:
                        per_shard[shard_index] = trials
                except TypeError:  # unhashable shard index: garbage
                    self.malformed_items += 1
                    continue
                try:
                    callback(shard_index, accepted, trials)
                except Exception:
                    # A raising subscriber must not kill the executor-wide
                    # drain thread: streaming degrades for that update
                    # only, never for every later run on the pool.
                    self.callback_errors += 1

    def close(self) -> None:
        """Stop the drain thread; a thread that outlives the join is *surfaced*.

        The join can time out when the queue is wedged (a worker died
        holding the pipe, or a subscriber callback blocks forever): the
        sentinel then never reaches the drain loop.  Silently ignoring that
        would leak one daemon thread per executor lifecycle — so it is
        counted in ``drain_thread_leaked`` and warned about instead, which
        is what the executor-teardown regression tests key on.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        if thread is not None:
            self._queue.put(_ROUTER_SENTINEL)
            thread.join(timeout=self._join_timeout)
            if thread.is_alive():
                self.drain_thread_leaked += 1
                warnings.warn(
                    f"progress drain thread {thread.name!r} did not exit "
                    f"within {self._join_timeout}s of close() — the progress "
                    "queue is wedged; leaking the (daemon) thread",
                    RuntimeWarning,
                    stacklevel=2,
                )
