"""A process-safe metrics registry: counters, gauges, fixed-bucket histograms.

Each process owns one registry (``repro.obs.runtime.get_metrics()``);
process safety comes from *merging snapshots*, not shared memory: worker
processes accumulate locally and flush a :class:`MetricsFlush` (a plain
picklable snapshot) through the executor's existing progress queue, where
the parent-side :class:`~repro.parallel.progress.ProgressRouter` merges it
into the parent's global registry.  The in-process backend skips the
queue entirely: its shards already increment the parent registry.

Instruments are *stable objects*: :meth:`MetricsRegistry.clear` and
:meth:`MetricsRegistry.snapshot_and_reset` zero the recorded values but
never drop the instrument, so a caller that cached
``registry.counter("plan_cache.hits")`` keeps a live handle across
flushes.  Counters and histograms reset to zero (flushes carry deltas);
gauges are level values and survive a reset (a flush reports the current
level, merging is last-write-wins).

Snapshots are JSON-friendly dicts — they ride the progress queue, land in
trace files as ``kind="metrics"`` records, and diff/merge with plain
functions (:func:`merge_snapshots`, :func:`diff_snapshots`), which is what
lets ``repro.obs report`` roll up cache and supervision counters without
importing any executor machinery.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds-flavoured; callers pin
#: their own).  The last implicit bucket is +inf.
DEFAULT_BOUNDS: Tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class Counter:
    """A monotonically increasing integer (within one flush window)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock):
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A level value: last write wins, survives resets."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A fixed-bucket histogram: counts per bound plus an overflow bucket."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, lock, bounds: Sequence[float]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a non-empty sorted sequence")
        self._lock = lock
        self.bounds = tuple(float(bound) for bound in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class MetricsRegistry:
    """Named instruments behind one lock; snapshot/merge value semantics."""

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = Counter(self._lock)
                self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = Gauge(self._lock)
                self._gauges[name] = instrument
            return instrument

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = Histogram(self._lock, bounds)
                self._histograms[name] = instrument
            return instrument

    # -- value semantics ---------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-friendly copy of every instrument's current value."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value for name, counter in self._counters.items()
                },
                "gauges": {name: gauge.value for name, gauge in self._gauges.items()},
                "histograms": {
                    name: {
                        "bounds": list(hist.bounds),
                        "counts": list(hist.counts),
                        "sum": hist.sum,
                        "count": hist.count,
                    }
                    for name, hist in self._histograms.items()
                },
            }

    def _reset_values(self) -> None:
        for counter in self._counters.values():
            counter.value = 0
        for hist in self._histograms.values():
            hist.counts = [0] * (len(hist.bounds) + 1)
            hist.sum = 0.0
            hist.count = 0

    def snapshot_and_reset(self) -> Dict:
        """Snapshot, then zero counters/histograms (gauges keep their level).

        The flush primitive: consecutive calls partition the counted
        activity, so merging every flush reconstructs the exact totals.
        """
        with self._lock:
            snapshot = self.snapshot()
            self._reset_values()
            return snapshot

    def clear(self) -> None:
        """Zero every instrument (values only — cached handles stay live)."""
        with self._lock:
            self._reset_values()
            for gauge in self._gauges.values():
                gauge.value = 0.0

    def merge(self, snapshot: Optional[Dict]) -> None:
        """Fold a snapshot in: counters/histograms add, gauges overwrite."""
        if not snapshot:
            return
        with self._lock:
            for name, value in (snapshot.get("counters") or {}).items():
                self.counter(name).value += value
            for name, value in (snapshot.get("gauges") or {}).items():
                self.gauge(name).value = value
            for name, data in (snapshot.get("histograms") or {}).items():
                hist = self.histogram(name, data.get("bounds") or DEFAULT_BOUNDS)
                counts = data.get("counts") or []
                if list(hist.bounds) == list(data.get("bounds") or ()) and len(
                    counts
                ) == len(hist.counts):
                    hist.counts = [a + b for a, b in zip(hist.counts, counts)]
                # Mismatched bounds still contribute to the sum/count
                # moments — coarser, never silently dropped.
                hist.sum += data.get("sum", 0.0)
                hist.count += data.get("count", 0)


@dataclass(frozen=True)
class MetricsFlush:
    """One worker's metrics delta, riding the progress queue."""

    metrics: Dict


def snapshot_empty(snapshot: Optional[Dict]) -> bool:
    """Whether a snapshot carries no information worth flushing."""
    if not snapshot:
        return True
    if any((snapshot.get("counters") or {}).values()):
        return False
    if snapshot.get("gauges"):
        return False
    for data in (snapshot.get("histograms") or {}).values():
        if data.get("count"):
            return False
    return True


def merge_snapshots(base: Optional[Dict], extra: Optional[Dict]) -> Dict:
    """Pure-dict merge of two snapshots (same rules as registry merge)."""
    registry = MetricsRegistry()
    registry.merge(base)
    registry.merge(extra)
    return registry.snapshot()


def diff_snapshots(before: Optional[Dict], after: Optional[Dict]) -> Dict:
    """``after - before`` for counters/histograms; gauges take ``after``.

    Used by the :func:`~repro.obs.runtime.tracing` context to write a
    per-trace metrics record from a process-lifetime registry.
    """
    before = before or {}
    after = after or {}
    counters = {}
    for name, value in (after.get("counters") or {}).items():
        delta = value - (before.get("counters") or {}).get(name, 0)
        if delta:
            counters[name] = delta
    histograms = {}
    for name, data in (after.get("histograms") or {}).items():
        prior = (before.get("histograms") or {}).get(name)
        if prior and list(prior.get("bounds") or ()) == list(data.get("bounds") or ()):
            counts = [
                a - b for a, b in zip(data.get("counts") or [], prior.get("counts") or [])
            ]
            entry = {
                "bounds": list(data.get("bounds") or ()),
                "counts": counts,
                "sum": data.get("sum", 0.0) - prior.get("sum", 0.0),
                "count": data.get("count", 0) - prior.get("count", 0),
            }
        else:
            entry = dict(data)
        if entry.get("count"):
            histograms[name] = entry
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges") or {}),
        "histograms": histograms,
    }
