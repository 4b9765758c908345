#!/usr/bin/env python3
"""Fault detection and recovery — the paper's motivating application.

Proof-labeling schemes come from self-stabilization ([1], [30], [9]): a
network periodically re-verifies its distributed data structure; any node
that outputs FALSE triggers recovery.  This example simulates that loop with
the randomized MST scheme:

1. a network maintains an MST with labels from the honest prover;
2. a transient fault silently corrupts the tree marking at runtime;
3. periodic randomized verification (tiny certificates!) detects it —
   with boosting, the detection probability per round is driven toward 1;
4. recovery recomputes the MST and fresh labels; verification goes green.

Run:  python examples/fault_detection.py
"""

from repro.core.boosting import BoostedRPLS, repetitions_for_delta
from repro.core.verifier import verify_randomized
from repro.engine import estimate_acceptance_batched
from repro.graphs.generators import corrupt_mst_swap, mst_configuration
from repro.schemes.mst import mst_rpls


def main() -> None:
    network = mst_configuration(80, seed=11)
    scheme = mst_rpls()
    labels = scheme.prover(network)
    print("phase 1: steady state")
    print(f"  verification round: accepted={verify_randomized(scheme, network, seed=1, labels=labels).accepted}")

    print("phase 2: transient fault corrupts the tree marking")
    faulty = corrupt_mst_swap(network, seed=5)
    # rng_mode="vector" draws the certificates from the counter-based stream
    # and runs the numpy kernel: statistically equivalent to the reference
    # verifier's draws, at a fraction of the cost (see docs/engine.md).
    single = estimate_acceptance_batched(
        scheme, faulty, trials=60, labels=labels, seed=2, rng_mode="vector"
    )
    print(f"  single-round acceptance of faulty state: {single}")
    print(f"  (each accept is a missed detection; one-sided schemes never false-alarm)")

    target_miss = 1e-4
    repetitions = repetitions_for_delta(target_miss)
    boosted = BoostedRPLS(scheme, repetitions=repetitions)
    boosted_estimate = estimate_acceptance_batched(
        boosted, faulty, trials=60, labels=labels, seed=3, rng_mode="vector"
    )
    print(f"phase 3: boosted verification ({repetitions} repetitions, "
          f"{boosted.verification_complexity(network)}-bit certificates)")
    print(f"  boosted acceptance of faulty state: {boosted_estimate} "
          f"(bound {boosted.error_upper_bound():.2e})")

    print("phase 4: recovery — recompute MST and labels")
    # Recovery: recompute the MST from scratch (generator with same seed
    # rebuilds the correct marking for this topology+weights).
    recovered = mst_configuration(80, seed=11)
    fresh_labels = scheme.prover(recovered)
    print(f"  verification round after recovery: "
          f"accepted={verify_randomized(scheme, recovered, seed=4, labels=fresh_labels).accepted}")


if __name__ == "__main__":
    main()
