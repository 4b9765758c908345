"""E8 — Theorem 5.1: MST verification at Theta(log log n).

Measures, across n: the deterministic Borůvka-trace labels (O(log^2 n)), the
compiled randomized certificates (O(log log n)), completeness on legal MSTs,
and rejection of tree-swap corruptions.  The lower-bound side (acyclicity on
lines-and-cycles) is exercised by E6/E7; here we check the upper bound's
shape and the soundness the theorem promises.
"""

import math

from repro.core.verifier import verify_deterministic
from repro.engine import estimate_acceptance_fast
from repro.graphs.generators import corrupt_mst_swap, mst_configuration
from repro.schemes.mst import MSTPLS, mst_engine_plan, mst_rpls
from repro.simulation.runner import format_table

SIZES = (16, 32, 64, 128, 256, 512)


def test_mst_verification_complexity(benchmark, report):
    rows = []
    rand_bits_series = []
    for n in SIZES:
        configuration = mst_configuration(n, seed=n)
        deterministic = MSTPLS()
        randomized = mst_rpls()
        det_bits = deterministic.verification_complexity(configuration)
        rand_bits = randomized.verification_complexity(configuration)
        rand_bits_series.append(rand_bits)

        legal = verify_deterministic(deterministic, configuration)
        assert legal.accepted

        corrupted = corrupt_mst_swap(configuration, seed=n + 1)
        det_reject = not verify_deterministic(
            deterministic, corrupted, labels=deterministic.prover(corrupted)
        ).accepted
        # The randomized side runs through the batched engine: the compiled
        # scheme's hooks parse every label at compile time, so no trial
        # falls back to the legacy one-shot oracle.
        plan = mst_engine_plan(corrupted, labels=randomized.prover(corrupted))
        assert plan.uses_fast_path
        rand_estimate = estimate_acceptance_fast(plan, trials=12)
        rows.append(
            [n, det_bits, rand_bits, det_reject, f"{1 - rand_estimate.probability:.2f}"]
        )
        assert det_reject
        assert rand_estimate.probability < 0.5

    report(
        "E8_mst",
        format_table(
            ["n", "det bits (O(log^2 n))", "rand bits (O(log log n))",
             "det rejects swap", "rand reject rate"],
            rows,
        ),
    )

    # Shapes: deterministic grows, randomized stays near-flat.
    det_series = [row[1] for row in rows]
    assert det_series[-1] > det_series[0]
    for n, bits in zip(SIZES, det_series):
        assert bits <= 20 * math.log2(n) ** 2
    assert rand_bits_series[-1] - rand_bits_series[0] <= 8
    # Exponential separation at the largest size.
    assert det_series[-1] > 15 * rand_bits_series[-1]

    configuration = mst_configuration(128, seed=0)
    plan = mst_engine_plan(configuration)
    assert plan.uses_fast_path
    benchmark(lambda: estimate_acceptance_fast(plan, 10, seed=5, rng_mode="vector"))
