"""Noise-aware degradation detectors over benchmark-history profiles.

Two checks, miniatures of the perun ``check`` family:

- :func:`average_amount_threshold` — per-kernel: the relative change of
  trials/sec between the baseline and current record, judged against a
  *noise-aware* drop threshold.  The noise floor of a kernel is estimated
  from its per-repeat throughput samples (the best-of-N repeats the bench
  harness records): a kernel whose three repeats already spread 12% apart
  cannot be gated at 10%.  The applied threshold is
  ``max(min_rel_drop, noise_multiplier * max(noise(baseline), noise(current)))``.
- :func:`integral_comparison` — per mode x backend column: the sum of the
  speedup-over-legacy values across the workloads both profiles share (the
  discrete integral of the speedup curve).  Single-kernel jitter averages
  out in the integral, so a smaller relative drop is meaningful here; a
  real regression in a shared kernel (the agree-row lookup, the popcount
  kernel) drags the whole column down and is caught even when each
  individual workload's drop hides inside its own noise.

Both detectors are pure functions of their record inputs — a gate verdict
is a deterministic function of the two profiles, which is what lets the
tier-1 smoke assertion run them without flaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.benchhistory.store import KernelKey

#: Minimum relative trials/sec drop that is ever flagged, noise aside.
DEFAULT_MIN_REL_DROP = 0.15
#: The noise floor is scaled by this before gating (2 sigma-ish posture).
DEFAULT_NOISE_MULTIPLIER = 2.0
#: Assumed per-kernel relative noise when no repeat samples were recorded.
DEFAULT_NOISE_FLOOR = 0.05
#: Relative drop of a speedup-column integral that counts as degradation.
DEFAULT_INTEGRAL_DROP = 0.15


def relative_spread(samples: Sequence[float]) -> float:
    """``(max - min) / max`` of the positive samples; 0.0 when < 2 remain.

    >>> round(relative_spread([90.0, 100.0, 95.0]), 2)
    0.1
    >>> relative_spread([100.0])
    0.0
    """
    positive = [s for s in samples if s > 0]
    if len(positive) < 2:
        return 0.0
    top = max(positive)
    return (top - min(positive)) / top


def noise_floor(record: Dict, default: float = DEFAULT_NOISE_FLOOR) -> float:
    """A kernel record's relative noise estimate, never below ``default``.

    Uses the per-repeat throughput samples when the record carries them
    (``samples``: the raw trials/sec of each best-of-N repeat); records
    from before samples were stored get the default floor.
    """
    return max(relative_spread(record.get("samples") or ()), default)


@dataclass(frozen=True)
class KernelComparison:
    """The average-amount verdict for one workload x mode x backend kernel.

    ``change`` is the relative throughput change (negative = slower);
    ``threshold`` is the noise-aware drop bound that was applied.  The
    verdict is ``degraded`` / ``improved`` when ``change`` clears the
    threshold in either direction, ``ok`` inside the noise band, and
    ``new`` / ``missing`` when only one profile has the kernel (neither
    gates — a new kernel has no baseline to lose, and a removed workload
    is a bench-suite change, not a perf regression).
    """

    workload: str
    mode: str
    backend: str
    baseline: Optional[float]
    current: Optional[float]
    change: float
    threshold: float
    verdict: str

    @property
    def key(self) -> KernelKey:
        return (self.workload, self.mode, self.backend)

    def describe(self) -> str:
        if self.verdict in ("new", "missing"):
            return self.verdict
        return f"{self.change:+.1%} (gate at -{self.threshold:.0%})"


def average_amount_threshold(
    baseline: Optional[Dict],
    current: Optional[Dict],
    min_rel_drop: float = DEFAULT_MIN_REL_DROP,
    noise_multiplier: float = DEFAULT_NOISE_MULTIPLIER,
    noise_default: float = DEFAULT_NOISE_FLOOR,
) -> KernelComparison:
    """Compare one kernel's trials/sec across two profiles (perun's
    average-amount check, with the repeat-variance noise floor)."""
    record = current if current is not None else baseline
    if record is None:
        raise ValueError("at least one of baseline/current must be a record")
    workload, mode, backend = record["workload"], record["mode"], record["backend"]
    base_rate = baseline.get("trials_per_sec") if baseline is not None else None
    cur_rate = current.get("trials_per_sec") if current is not None else None
    if base_rate is None or cur_rate is None:
        return KernelComparison(
            workload=workload, mode=mode, backend=backend,
            baseline=base_rate, current=cur_rate,
            change=0.0, threshold=0.0,
            verdict="new" if base_rate is None else "missing",
        )
    noise = max(
        noise_floor(baseline, noise_default), noise_floor(current, noise_default)
    )
    threshold = max(min_rel_drop, noise_multiplier * noise)
    change = (cur_rate - base_rate) / base_rate if base_rate > 0 else 0.0
    if change < -threshold:
        verdict = "degraded"
    elif change > threshold:
        verdict = "improved"
    else:
        verdict = "ok"
    return KernelComparison(
        workload=workload, mode=mode, backend=backend,
        baseline=base_rate, current=cur_rate,
        change=change, threshold=threshold, verdict=verdict,
    )


@dataclass(frozen=True)
class IntegralComparison:
    """The integral verdict for one mode x backend speedup column."""

    mode: str
    backend: str
    baseline_integral: float
    current_integral: float
    change: float
    threshold: float
    workloads: int  # how many shared workloads the integral covers
    verdict: str

    def describe(self) -> str:
        return (
            f"{self.baseline_integral:.1f} -> {self.current_integral:.1f} "
            f"({self.change:+.1%} over {self.workloads} workloads)"
        )


def integral_comparison(
    baseline_kernels: Dict[KernelKey, Dict],
    current_kernels: Dict[KernelKey, Dict],
    threshold: float = DEFAULT_INTEGRAL_DROP,
) -> Tuple[IntegralComparison, ...]:
    """Compare the speedup-column integrals of two profiles.

    For every ``(mode, backend)`` column present in both profiles, sums the
    ``speedup`` values over the shared workloads and judges the relative
    change of the sums.  The ``legacy`` mode is excluded (its speedup is
    identically 1 — the column the others are measured against).
    """
    columns: Dict[Tuple[str, str], Tuple[float, float, int]] = {}
    for key, base in baseline_kernels.items():
        workload, mode, backend = key
        if mode == "legacy":
            continue
        cur = current_kernels.get(key)
        if cur is None:
            continue
        base_speedup = base.get("speedup")
        cur_speedup = cur.get("speedup")
        if base_speedup is None or cur_speedup is None:
            continue
        total_base, total_cur, count = columns.get((mode, backend), (0.0, 0.0, 0))
        columns[(mode, backend)] = (
            total_base + base_speedup, total_cur + cur_speedup, count + 1
        )
    results = []
    for (mode, backend), (total_base, total_cur, count) in sorted(columns.items()):
        change = (total_cur - total_base) / total_base if total_base > 0 else 0.0
        if change < -threshold:
            verdict = "degraded"
        elif change > threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        results.append(
            IntegralComparison(
                mode=mode, backend=backend,
                baseline_integral=total_base, current_integral=total_cur,
                change=change, threshold=threshold,
                workloads=count, verdict=verdict,
            )
        )
    return tuple(results)
