#!/usr/bin/env python3
"""MST certification with O(log log n)-bit certificates (Theorem 5.1).

The headline concrete result of the paper: minimum spanning trees — which
need Omega(log^2 n)-bit labels deterministically [29, 31] — can be verified
randomized with certificates of O(log log n) bits.  This example builds a
weighted network, certifies its MST both ways, and shows the subtle
corruption (swap a tree edge for a heavier chord: still a spanning tree, no
longer minimum) being caught.

Run:  python examples/mst_verification.py
"""

from repro.core.verifier import verify_deterministic, verify_randomized
from repro.engine import estimate_acceptance_batched
from repro.graphs.generators import corrupt_mst_swap, mst_configuration
from repro.schemes.mst import MSTPLS, mst_rpls


def main() -> None:
    print(f"{'n':>6} {'det label bits':>15} {'rand cert bits':>15}")
    for node_count in (16, 32, 64, 128, 256):
        configuration = mst_configuration(node_count, seed=node_count)
        deterministic = MSTPLS()
        randomized = mst_rpls()
        det_bits = deterministic.verification_complexity(configuration)
        rand_bits = randomized.verification_complexity(configuration)
        print(f"{node_count:>6} {det_bits:>15} {rand_bits:>15}")

    print()
    configuration = mst_configuration(96, seed=1)
    scheme = mst_rpls()

    legal = verify_randomized(scheme, configuration, seed=0)
    print(f"legal MST accepted: {legal.accepted} "
          f"({legal.max_certificate_bits}-bit certificates)")

    corrupted = corrupt_mst_swap(configuration, seed=2)
    print("corruption: swapped one tree edge for a strictly heavier chord "
          "(still a spanning tree, not minimum)")

    deterministic_check = verify_deterministic(
        MSTPLS(), corrupted, labels=MSTPLS().prover(corrupted)
    )
    print(f"deterministic scheme rejects it: {not deterministic_check.accepted}")

    estimate = estimate_acceptance_batched(
        scheme, corrupted, trials=40, labels=scheme.prover(corrupted)
    )
    print(f"randomized acceptance on corrupted MST: {estimate}")


if __name__ == "__main__":
    main()
