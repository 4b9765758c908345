"""Trace spans: the span model, recorders, and the JSONL trace writer.

One *trace* is a directory of append-only JSON-lines files, one file per
process (``trace-<pid>.jsonl``), each line one record:

- ``kind="span"`` — a named, timed interval with a ``parent`` id, a
  ``status`` and structured ``attrs``.  Spans are written *at end* in a
  single line, so a crashed worker loses only its open spans (the
  supervisor's parent-side events recover the attempt history) and a torn
  tail line costs exactly that record — the reader skips torn lines the
  same way the campaign :class:`~repro.parallel.campaign.JsonlSink` does.
- ``kind="event"`` — a point-in-time marker (retry decisions, injected
  faults, executor dispatches).
- ``kind="metrics"`` — a :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot.

Timing is **monotonic-clock** based: durations are differences of
``time.monotonic()`` and cannot be disturbed by wall-clock steps.  For
cross-process alignment each writer records a one-shot anchor pair
(``wall0``, ``mono0``) at creation and renders every timestamp as
``wall0 + (mono - mono0)`` — a wall-anchored monotonic time, comparable
across the processes of one run without inheriting wall-clock jumps.

The span identity model mirrors the execution tree: *run* spans (one
sharded estimate) parent *shard* spans (one shard attempt, possibly
retried), which parent *chunk* spans (one engine chunk, emitted through the
observational ``progress`` seam of
:func:`~repro.engine.montecarlo.estimate_acceptance_fast` — tracing never
adds a hook to the engine loop itself).  Campaign traces add *campaign* and
*cell* spans above the runs.  Span ids embed the writing pid, so ids are
unique across the worker processes of a trace without coordination.

The off path is an always-on no-op: :data:`NULL_RECORDER` answers every
recorder call with constant no-ops (``enabled`` is False, ``span()``
returns a shared null span, ``spec()`` returns ``None``), so instrumented
code runs with zero allocation and no branching beyond one attribute
check.  Traced runs are *observational by contract*: every instrumentation
point only reads values the computation already produced — the trace-off
bit-identity suite (``tests/test_obs_identity.py``) pins this per trial.

Crossing the pickle boundary works like plans do
(:mod:`repro.parallel.spec`): a compiled recorder never pickles; workers
receive a tiny :class:`TraceSpec` (directory, trace id, parent span id)
and rebuild — or memo-hit — a process-local recorder from it.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional


class TraceWriter:
    """Per-process appender for one trace directory.

    One writer per directory per process (see :meth:`for_dir`); the writer
    owns ``<dir>/trace-<pid>.jsonl`` and re-opens under the current pid on
    first write after a fork, so a forked worker never appends to its
    parent's file.  Every record is one ``write()`` of one line, flushed —
    the torn-line-tolerant reader contract needs nothing stronger.
    """

    _registry: Dict[str, "TraceWriter"] = {}
    _registry_lock = threading.Lock()

    def __init__(self, path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        # The wall/monotonic anchor pair: monotonic offsets render as
        # wall-anchored timestamps without wall-clock step sensitivity.
        self.wall0 = time.time()
        self.mono0 = time.monotonic()
        self._pid: Optional[int] = None
        self._handle = None
        self._lock = threading.Lock()

    @classmethod
    def for_dir(cls, path) -> "TraceWriter":
        key = str(Path(path))
        with cls._registry_lock:
            writer = cls._registry.get(key)
            if writer is None:
                writer = cls(key)
                cls._registry[key] = writer
            return writer

    def anchored(self, mono: float) -> float:
        """Render a monotonic reading as a wall-anchored timestamp."""
        return self.wall0 + (mono - self.mono0)

    def _ensure_handle(self):
        pid = os.getpid()
        if pid != self._pid:
            if self._handle is not None:
                try:
                    self._handle.close()
                except Exception:  # pragma: no cover - inherited fd races
                    pass
            self._handle = (self.path / f"trace-{pid}.jsonl").open("a")
            self._pid = pid
        return self._handle

    def write(self, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            handle = self._ensure_handle()
            handle.write(line + "\n")
            handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                finally:
                    self._handle = None
                    self._pid = None


@dataclass(frozen=True)
class TraceSpec:
    """The picklable recipe a worker rebuilds its recorder from.

    Exactly like :class:`~repro.parallel.spec.PlanSpec` never ships a
    compiled plan, a run never ships a recorder: the spec carries the trace
    directory, the trace id, and the parent (run-) span id, and the worker
    side memoizes one recorder per ``(path, trace_id)`` per process.
    """

    path: str
    trace_id: str
    parent: Optional[str] = None

    def recorder(self) -> "TraceRecorder":
        from repro.obs.runtime import recorder_for_spec  # avoid import cycle

        return recorder_for_spec(self)


class Span:
    """One open span; written as a single record when it ends."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "status", "start_mono", "_recorder")

    def __init__(self, recorder, name, span_id, parent_id, attrs):
        self._recorder = recorder
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.status = "ok"
        self.start_mono = time.monotonic()

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", repr(exc))
        self._recorder._end_span(self)


class _NullSpan:
    """The shared no-op span of the disabled path."""

    __slots__ = ()
    span_id = None
    parent_id = None
    name = None
    status = "ok"

    def set(self, key, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The always-on no-op recorder: every call is a constant no-op.

    Instrumentation sites hold a recorder unconditionally and guard any
    non-trivial attribute construction behind ``recorder.enabled`` — with
    this recorder installed (the default), the traced code path costs one
    attribute read per site.
    """

    enabled = False
    path = None
    trace_id = None

    def span(self, name, attrs=None, parent=None) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name, attrs=None, parent=None) -> None:
        pass

    def metrics(self, snapshot) -> None:
        pass

    def spec(self, parent=None) -> None:
        return None

    def current_span_id(self) -> None:
        return None

    def close(self) -> None:
        pass


NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Record spans, events and metrics snapshots into a trace directory.

    Thread-safe: the span *stack* (which span is "current", for implicit
    parenting) is thread-local, so concurrent campaign cells on separate
    threads nest their spans correctly; the writer serializes record
    appends under its own lock.
    """

    enabled = True

    def __init__(self, path, trace_id: Optional[str] = None):
        self.path = str(Path(path))
        self.trace_id = trace_id if trace_id else os.urandom(6).hex()
        self._writer = TraceWriter.for_dir(self.path)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- identity ----------------------------------------------------------

    def _new_id(self) -> str:
        return f"{os.getpid():x}-{next(self._ids):x}"

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span_id(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def spec(self, parent: Optional[str] = None) -> TraceSpec:
        """The picklable worker-side handle onto this trace."""
        if parent is None:
            parent = self.current_span_id()
        return TraceSpec(path=self.path, trace_id=self.trace_id, parent=parent)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, attrs=None, parent: Optional[str] = None) -> Span:
        if parent is None:
            parent = self.current_span_id()
        span = Span(self, name, self._new_id(), parent, attrs)
        self._stack().append(span)
        return span

    def _end_span(self, span: Span) -> None:
        stack = self._stack()
        if span in stack:
            # Pop through (tolerates a caller that leaked an inner span).
            while stack and stack.pop() is not span:
                pass
        end = time.monotonic()
        self.write_span(
            span.name,
            start=span.start_mono,
            end=end,
            parent=span.parent_id,
            attrs=span.attrs,
            status=span.status,
            span_id=span.span_id,
        )

    def write_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        attrs=None,
        status: str = "ok",
        span_id: Optional[str] = None,
    ) -> None:
        """Write one already-timed span record (monotonic start/end)."""
        self._writer.write(
            {
                "kind": "span",
                "trace": self.trace_id,
                "id": span_id if span_id else self._new_id(),
                "parent": parent,
                "name": name,
                "ts": self._writer.anchored(start),
                "dur": max(0.0, end - start),
                "status": status,
                "attrs": attrs or {},
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            }
        )

    def event(self, name: str, attrs=None, parent: Optional[str] = None) -> None:
        if parent is None:
            parent = self.current_span_id()
        self._writer.write(
            {
                "kind": "event",
                "trace": self.trace_id,
                "id": self._new_id(),
                "parent": parent,
                "name": name,
                "ts": self._writer.anchored(time.monotonic()),
                "attrs": attrs or {},
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            }
        )

    def metrics(self, snapshot) -> None:
        """Write a metrics-registry snapshot record."""
        self._writer.write(
            {
                "kind": "metrics",
                "trace": self.trace_id,
                "ts": self._writer.anchored(time.monotonic()),
                "pid": os.getpid(),
                "metrics": snapshot,
            }
        )

    def close(self) -> None:
        self._writer.close()


class ChunkProgress:
    """Per-chunk spans over the engine's observational ``progress`` seam.

    Wraps the cumulative ``(accepted, trials)`` callback of
    :func:`~repro.engine.montecarlo.estimate_acceptance_fast`: every real
    update closes one *chunk* span covering the interval since the previous
    boundary, carrying both the cumulative counts and the chunk's own
    deltas.  The inner callback (the streaming publish channel) is always
    forwarded unchanged — tracing adds information, never filters it.

    Updates that do not advance the cumulative trial count (the chaos
    harness's torn fault sends regressive ones) are forwarded but get no
    span: a span for a non-chunk would make the trace lie about the trial
    sequence.
    """

    __slots__ = ("_recorder", "_parent", "_inner", "_last", "_prev")

    def __init__(self, recorder, parent: Optional[str], inner=None):
        self._recorder = recorder
        self._parent = parent
        self._inner = inner
        self._last = time.monotonic()
        self._prev = (0, 0)

    def __call__(self, accepted: int, trials: int) -> None:
        now = time.monotonic()
        prev_accepted, prev_trials = self._prev
        if trials > prev_trials:
            self._recorder.write_span(
                "chunk",
                start=self._last,
                end=now,
                parent=self._parent,
                attrs={
                    "accepted": accepted,
                    "trials": trials,
                    "chunk_accepted": accepted - prev_accepted,
                    "chunk_trials": trials - prev_trials,
                },
            )
            self._prev = (accepted, trials)
            self._last = now
        if self._inner is not None:
            self._inner(accepted, trials)
