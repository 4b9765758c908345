"""Deterministic trial-range partitioning for the sharded executor.

A Monte-Carlo run over a compiled plan is a pure function of the trial
counter: trial ``i`` runs with seed ``derive_trial_seed(seed, i)`` (the
counter-addressed SplitMix64 mix of :mod:`repro.core.seeding`), and its
accept/reject verdict depends on nothing else.  Splitting the counter range
``[0, trials)`` into disjoint sub-ranges therefore splits the *work* without
touching the *probability space*: each shard derives exactly the seeds the
unsharded run derives for its positions, and the merged accept count equals
the single-process count bit for bit, in any shard order, on any backend.

:class:`ShardPlanner` owns the partitioning policy.  It is deliberately
boring — contiguous ranges, sizes as equal as possible, deterministic in its
inputs — because the partition is part of the reproducibility contract: a
campaign record stating ``shards=8`` must mean the same eight ranges on
every machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: The default layout's smallest shard: below it, per-shard overhead (plan
#: resolution, result shipping) would dominate.
MIN_SHARD_TRIALS = 64
#: The default layout's most shards per worker.
SHARDS_PER_WORKER = 4


@dataclass(frozen=True)
class Shard:
    """One contiguous trial-counter range ``[start, stop)`` of a run."""

    index: int
    start: int
    stop: int

    def __post_init__(self):
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid shard range [{self.start}, {self.stop})")

    @property
    def trials(self) -> int:
        return self.stop - self.start

    def as_dict(self) -> dict:
        """JSON-friendly form, for supervision reports and failure records."""
        return {"index": self.index, "start": self.start, "stop": self.stop}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"shard {self.index}: [{self.start}, {self.stop})"


class ShardPlanner:
    """Split a trial budget into deterministic counter ranges.

    ``shard_count`` fixes the number of shards outright; otherwise the
    planner targets one shard per worker, subdividing further (up to
    :data:`SHARDS_PER_WORKER` shards per worker) when the budget allows, so
    the cooperative early exit has shard boundaries to act on and a slow
    worker cannot strand a huge tail range, but never into shards of fewer
    than :data:`MIN_SHARD_TRIALS` trials.

    >>> [s.trials for s in ShardPlanner(shard_count=3).plan(10, workers=8)]
    [4, 3, 3]
    >>> ShardPlanner().plan(4096, workers=4)[0]
    Shard(index=0, start=0, stop=256)
    """

    def __init__(self, shard_count: Optional[int] = None):
        if shard_count is not None and shard_count < 1:
            raise ValueError("shard_count must be positive")
        self.shard_count = shard_count

    def resolve_count(self, trials: int, workers: int) -> int:
        """How many shards a budget of ``trials`` gets across ``workers``."""
        if trials < 1:
            raise ValueError("trials must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        if self.shard_count is not None:
            return min(self.shard_count, trials)
        by_size = max(1, trials // MIN_SHARD_TRIALS)
        return min(workers * SHARDS_PER_WORKER, by_size, trials)

    def plan(self, trials: int, workers: int = 1) -> Tuple[Shard, ...]:
        """The partition of ``[0, trials)`` — contiguous, disjoint, complete.

        The first ``trials % count`` shards carry one extra trial, so sizes
        differ by at most one and the layout is a pure function of
        ``(trials, count)``.
        """
        count = self.resolve_count(trials, workers)
        base, remainder = divmod(trials, count)
        shards = []
        start = 0
        for index in range(count):
            size = base + (1 if index < remainder else 0)
            shards.append(Shard(index=index, start=start, stop=start + size))
            start += size
        assert start == trials
        return tuple(shards)
