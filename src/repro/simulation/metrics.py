"""Statistics for Monte-Carlo verification experiments.

The randomized verifier is a Monte-Carlo algorithm, so benchmarks report
estimated acceptance probabilities with confidence intervals rather than bare
frequencies.  The Wilson score interval is used because acceptance
probabilities sit near 0 and 1 (one-sided schemes), where the normal
approximation interval degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

try:  # numpy backs wilson_widths only; the scalar interval never needs it
    import numpy as _np
except ImportError:  # pragma: no cover - the image ships numpy
    _np = None


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    >>> low, high = wilson_interval(90, 100)
    >>> 0.8 < low < 0.9 < high < 0.96
    True
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    proportion = successes / trials
    denominator = 1 + z * z / trials
    center = (proportion + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(
            proportion * (1 - proportion) / trials + z * z / (4 * trials * trials)
        )
        / denominator
    )
    return max(0.0, center - margin), min(1.0, center + margin)


def wilson_stop_holds(
    successes: int, trials: int, halfwidth: float, min_trials: int = 0
) -> bool:
    """The Wilson stop rule, the one predicate every stop site applies.

    True when at least ``max(1, min_trials)`` trials ran and the Wilson
    interval over them is at most ``2 * halfwidth`` wide.

    >>> wilson_stop_holds(0, 100, 0.02), wilson_stop_holds(0, 100, 0.02, 128)
    (True, False)
    """
    if trials <= 0 or trials < min_trials:
        return False
    low, high = wilson_interval(successes, trials)
    return high - low <= 2 * halfwidth


def wilson_widths(successes, trials, z: float = 1.96):
    """``high - low`` of :func:`wilson_interval`, elementwise over arrays.

    The vectorised companion the estimator scans a chunk's prefix counts
    with.  Same expression order and same ``[0, 1]`` clipping as the scalar
    interval, so every entry equals ``high - low`` bit for bit (IEEE
    arithmetic and ``sqrt`` are correctly rounded in both).  ``trials``
    holds positive integers below ``2**53`` and ``0 <= successes <=
    trials``; neither is checked.  Counts convert to ``float64``, which is
    exact there and cannot overflow in ``4 * trials * trials``.
    """
    successes = _np.asarray(successes, dtype=_np.float64)
    trials = _np.asarray(trials, dtype=_np.float64)
    proportion = successes / trials
    denominator = 1 + z * z / trials
    center = (proportion + z * z / (2 * trials)) / denominator
    margin = (
        z
        * _np.sqrt(proportion * (1 - proportion) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return _np.minimum(1.0, center + margin) - _np.maximum(0.0, center - margin)


@dataclass(frozen=True)
class AcceptanceEstimate:
    """A Monte-Carlo estimate of ``Pr[verifier accepts]``.

    The zero-trial estimate is a legitimate value, not an error: a
    cooperative stop that fires before a shard's first chunk reports
    ``AcceptanceEstimate(0, 0)`` (see :mod:`repro.parallel`), and merging
    treats it as the identity.  Its ``probability`` and ``interval`` are
    *undefined* rather than exceptional — they return ``nan`` /
    ``(nan, nan)``, which propagates honestly through records and
    formatting (every comparison with ``nan`` is false, so
    ``at_least``/``at_most`` decline to certify anything).
    """

    accepted: int
    trials: int

    @property
    def probability(self) -> float:
        if self.trials == 0:
            return float("nan")
        return self.accepted / self.trials

    @property
    def interval(self) -> Tuple[float, float]:
        if self.trials == 0:
            return (float("nan"), float("nan"))
        return wilson_interval(self.accepted, self.trials)

    def at_least(self, threshold: float) -> bool:
        """True if the upper confidence bound clears ``threshold``.

        Appropriate for asserting completeness-style guarantees
        (``p_accept >= 2/3``) without flaking on sampling noise.  A
        zero-trial estimate certifies nothing (``nan >= x`` is false).
        """
        return self.interval[1] >= threshold

    def at_most(self, threshold: float) -> bool:
        """True if the lower confidence bound stays under ``threshold``."""
        return self.interval[0] <= threshold

    @classmethod
    def merge(cls, estimates: Iterable["AcceptanceEstimate"]) -> "AcceptanceEstimate":
        """Pool estimates of the *same* acceptance probability into one.

        Counts simply add, so the merge is exact (not an approximation):
        merging the per-shard estimates of a partition of ``[0, trials)``
        reproduces the single-process estimate of the whole range, because
        each trial's verdict is a pure function of its trial seed.  Addition
        makes the operation associative and order-independent by
        construction — the sharded executor (:mod:`repro.parallel`) relies
        on both, since its shards complete in nondeterministic order.

        Zero-trial estimates (a shard cancelled before its first chunk) are
        legitimate identity elements; merging an empty iterable yields the
        empty estimate, whose ``probability``/``interval`` are ``nan`` /
        ``(nan, nan)`` until real trials are merged in.

        >>> AcceptanceEstimate.merge(
        ...     [AcceptanceEstimate(3, 4), AcceptanceEstimate(1, 6)]
        ... )
        AcceptanceEstimate(accepted=4, trials=10)
        """
        accepted = 0
        trials = 0
        for estimate in estimates:
            accepted += estimate.accepted
            trials += estimate.trials
        return cls(accepted=accepted, trials=trials)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        low, high = self.interval
        return f"{self.probability:.3f} [{low:.3f}, {high:.3f}] ({self.trials} trials)"


def doubling_ratio(values: Sequence[float]) -> float:
    """Mean ratio ``values[i+1] / values[i]`` — crude growth-shape probe.

    Benchmarks use this on bit counts measured at geometrically spaced ``n``:
    logarithmic growth gives ratios tending to 1, linear growth gives ratios
    near the spacing factor.
    """
    if len(values) < 2:
        raise ValueError("need at least two values")
    ratios = []
    for left, right in zip(values, values[1:]):
        if left <= 0:
            raise ValueError("values must be positive")
        ratios.append(right / left)
    return sum(ratios) / len(ratios)
