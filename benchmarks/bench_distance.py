"""E21 — SSSP-distance certification at Theta(log n) / O(log log n).

The distance scheme is the self-stabilization literature's bread-and-butter
predicate (routing-table audits; [1, 7, 23]): labels are ``(id(source),
dist(v))``, verification is the Lipschitz + progress squeeze, and the
Theorem 3.1 compiler shrinks the exchanged messages to ``O(log log n)``
bits.  This experiment sweeps n, measuring the deterministic label size
against the compiled randomized certificates, and runs the soundness side —
a single stale distance entry — entirely through the batched engine's
hook fast path (no legacy-oracle fallback).
"""

import math

from repro.core.verifier import verify_deterministic
from repro.engine import estimate_acceptance_fast
from repro.graphs.generators import reindex_ids
from repro.graphs.workloads import corrupt_distance, distance_configuration
from repro.schemes.distance import DistancePLS, distance_engine_plan, distance_rpls
from repro.simulation.runner import format_table

SIZES = (16, 32, 64, 128, 256)


def _workload(n: int, seed: int):
    """A weighted distance workload with a poly(n)-range identity space.

    Identities are the Theta(log n)-bit part of the distance label; drawing
    them from ``[16 n^2, 17 n^2)`` (any poly(n) address space works) makes
    that term visible at benchmark sizes instead of degenerating to the
    sequential ids' handful of bits.
    """
    configuration = distance_configuration(
        n, extra_edges=n // 3, seed=seed, weighted=True
    )
    return reindex_ids(configuration, offset=16 * n * n)


def test_distance_verification_complexity(benchmark, report):
    rows = []
    rand_bits_series = []
    for n in SIZES:
        configuration = _workload(n, seed=n)
        deterministic = DistancePLS(weighted=True)
        randomized = distance_rpls(weighted=True)
        det_bits = deterministic.verification_complexity(configuration)
        rand_bits = randomized.verification_complexity(configuration)
        rand_bits_series.append(rand_bits)

        legal = verify_deterministic(deterministic, configuration)
        assert legal.accepted

        # Completeness through the engine: the compiled scheme's hooks parse
        # every label at compile time; one-sided schemes accept w.p. 1.
        plan = distance_engine_plan(configuration, weighted=True)
        assert plan.uses_fast_path
        complete = estimate_acceptance_fast(plan, trials=8)
        assert complete.probability == 1.0

        # Soundness: one stale distance entry, honest relabeling.
        corrupted = corrupt_distance(configuration, seed=n + 1)
        det_reject = not verify_deterministic(
            deterministic, corrupted, labels=deterministic.prover(corrupted)
        ).accepted
        stale_plan = distance_engine_plan(
            corrupted, weighted=True, labels=randomized.prover(corrupted)
        )
        assert stale_plan.uses_fast_path
        rand_estimate = estimate_acceptance_fast(stale_plan, trials=12)
        rows.append(
            [n, det_bits, rand_bits, det_reject, f"{1 - rand_estimate.probability:.2f}"]
        )
        assert det_reject
        assert rand_estimate.probability < 0.5

    report(
        "E21_distance",
        format_table(
            ["n", "det bits (Theta(log n))", "rand bits (O(log log n))",
             "det rejects stale", "rand reject rate"],
            rows,
        ),
    )

    # Shapes: deterministic grows like log n (the identity term), randomized
    # stays near-flat, with a multiplicative separation at the largest size.
    det_series = [row[1] for row in rows]
    assert det_series[-1] > det_series[0]
    for n, bits in zip(SIZES, det_series):
        assert bits <= 20 * math.log2(n)
    assert rand_bits_series[-1] - rand_bits_series[0] <= 8
    assert det_series[-1] > 2 * rand_bits_series[-1]

    configuration = _workload(128, seed=0)
    plan = distance_engine_plan(configuration, weighted=True)
    assert plan.uses_fast_path
    benchmark(lambda: estimate_acceptance_fast(plan, 10, seed=5, rng_mode="vector"))
