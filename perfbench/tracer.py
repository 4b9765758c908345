"""The traced run's own span recorder: in memory, written out at the end.

Spans are recorded from the benchmark's files around calls into each
layer's public functions; the program itself is not instrumented.  A span's
self time is its duration minus the time its direct children cover, so
summing self time per layer splits a traced run's wall time by layer.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """Nested spans on one thread: ``with tracer.span(layer, name): ...``."""

    def __init__(self):
        self.spans: List[Dict] = []
        self._stack: List[Dict] = []

    @contextmanager
    def span(self, layer: str, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "layer": layer,
            "name": name,
            "attrs": attrs,
            "child_s": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record["start"] = start
            record["seconds"] = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1]["child_s"] += record["seconds"]

    def durations(self, layer: str, name: Optional[str] = None) -> List[float]:
        """Durations of the spans of one layer (and name), in record order."""
        return [
            span["seconds"] for span in self.spans
            if span["layer"] == layer and (name is None or span["name"] == name)
        ]

    def self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span["layer"]] = (
                totals.get(span["layer"], 0.0) + span["seconds"] - span["child_s"]
            )
        return totals

    def write(self, path) -> None:
        """Dump every span as one JSON line each."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")
