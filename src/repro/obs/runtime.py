"""Process-global recorder/metrics state and the ``tracing()`` context.

This is the seam every instrumented layer talks to: ``get_recorder()``
returns the process's active recorder (the :data:`~repro.obs.trace.NULL_RECORDER`
no-op unless a trace is running) and ``get_metrics()`` the process's
:class:`~repro.obs.metrics.MetricsRegistry`.  Both are module-level on
purpose — instrumentation sites must not thread a recorder through seven
layers of call signatures, and the off path must stay a single attribute
read.

Worker processes never see ``set_recorder``: they rebuild recorders from
pickled :class:`~repro.obs.trace.TraceSpec` values via
:func:`recorder_for_spec`, which memoizes per ``(path, trace_id)`` per
process — and short-circuits to the installed global recorder when the
spec describes it, so the in-process (serial) backend never opens a
second writer onto its own trace file.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from repro.obs.metrics import (
    MetricsFlush,
    MetricsRegistry,
    diff_snapshots,
    snapshot_empty,
)
from repro.obs.trace import NULL_RECORDER, TraceRecorder, TraceSpec

_STATE_LOCK = threading.Lock()
_RECORDER = NULL_RECORDER
_METRICS = MetricsRegistry()
_SPEC_RECORDERS: Dict[Tuple[str, str], TraceRecorder] = {}


def get_recorder():
    """The process's active recorder (the shared no-op when tracing is off)."""
    return _RECORDER


def set_recorder(recorder) -> None:
    """Install ``recorder`` (or the null recorder when ``None``) globally."""
    global _RECORDER
    with _STATE_LOCK:
        _RECORDER = recorder if recorder is not None else NULL_RECORDER


def get_metrics() -> MetricsRegistry:
    """The process's metrics registry."""
    return _METRICS


def reset_metrics() -> None:
    """Zero the registry — pool initializers call this so forked workers
    don't re-flush counts inherited from the parent process."""
    _METRICS.clear()


def record_event(name: str, attrs=None, parent: Optional[str] = None) -> None:
    """Emit an event on the active recorder (no-op when tracing is off)."""
    recorder = _RECORDER
    if recorder.enabled:
        recorder.event(name, attrs, parent)


def recorder_for_spec(spec: TraceSpec):
    """Rebuild (or memo-hit) the recorder a :class:`TraceSpec` describes.

    If the spec points at the recorder already installed in this process
    (the serial backend hands shards the parent's own spec), the
    global recorder is returned directly; otherwise one recorder per
    ``(path, trace_id)`` is built and cached for the process lifetime,
    sharing the per-directory :class:`~repro.obs.trace.TraceWriter`.
    """
    active = _RECORDER
    if active.enabled and active.trace_id == spec.trace_id and active.path == spec.path:
        return active
    key = (spec.path, spec.trace_id)
    with _STATE_LOCK:
        recorder = _SPEC_RECORDERS.get(key)
        if recorder is None:
            recorder = TraceRecorder(spec.path, trace_id=spec.trace_id)
            _SPEC_RECORDERS[key] = recorder
        return recorder


def take_metrics_flush() -> Optional[MetricsFlush]:
    """Drain this process's metrics delta as a queue-ready flush item.

    Returns ``None`` when there is nothing to report, so untraced runs
    put zero extra items on the progress queue.  The payload is the delta
    from the empty snapshot — long-lived zero-valued instruments (cleared
    counters a previous run registered) are pruned, keeping the queue item
    minimal.
    """
    snapshot = diff_snapshots(None, _METRICS.snapshot_and_reset())
    if snapshot_empty(snapshot):
        return None
    return MetricsFlush(metrics=snapshot)


@contextmanager
def tracing(path, trace_id: Optional[str] = None):
    """Install a recorder for the duration of a ``with`` block.

    On exit the block's metrics *delta* (counters/histograms accrued while
    the trace was live) is written into the trace as a ``kind="metrics"``
    record, the previous recorder is restored, and the trace file handle
    is closed.  Nesting restores correctly but writes into the same
    process-wide metrics registry.
    """
    recorder = TraceRecorder(path, trace_id=trace_id)
    previous = _RECORDER
    set_recorder(recorder)
    baseline = _METRICS.snapshot()
    try:
        yield recorder
    finally:
        delta = diff_snapshots(baseline, _METRICS.snapshot())
        if not snapshot_empty(delta):
            recorder.metrics(delta)
        set_recorder(previous)
        recorder.close()
