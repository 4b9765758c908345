#!/usr/bin/env python3
"""Shared randomness: constant-size certificates (a Section 6 open question).

The paper proves (Theorem 4.7) that edge-independent randomized schemes for
MST need Omega(log log n)-bit certificates, and asks what happens if nodes
share randomness.  This example answers by running the public-coin compiler:
with shared coins, the equality sub-protocol inside Theorem 3.1 collapses to
GF(2) inner-product parities — t bits per certificate, for any n.

Run:  python examples/shared_coins.py
"""

from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.shared import SharedCoinsCompiledRPLS
from repro.core.verifier import verify_randomized
from repro.engine import estimate_acceptance_batched
from repro.graphs.generators import corrupt_mst_swap, mst_configuration
from repro.schemes.mst import MSTPLS


def main() -> None:
    print("MST certification, three models, growing n:\n")
    print(f"{'n':>5}  {'det labels':>10}  {'private coins':>13}  {'shared coins':>12}")
    for n in (32, 128, 512):
        network = mst_configuration(n, seed=n)
        base = MSTPLS()
        private = FingerprintCompiledRPLS(base)
        shared = SharedCoinsCompiledRPLS(base, repetitions=3)
        print(
            f"{n:>5}  {base.verification_complexity(network):>10}"
            f"  {private.verification_complexity(network):>13}"
            f"  {shared.verification_complexity(network):>12}"
        )

    print(
        "\nprivate-coin certificates obey the paper's Omega(log log n) floor;"
        "\nshared-coin certificates are a constant 3 bits — Theorem 4.7's"
        "\nedge-independence hypothesis is essential.\n"
    )

    network = mst_configuration(128, seed=1)
    shared = SharedCoinsCompiledRPLS(MSTPLS(), repetitions=3)
    run = verify_randomized(shared, network, seed=0, randomness="shared")
    print(f"legal MST accepted under shared coins: {run.accepted}")

    corrupted = corrupt_mst_swap(network, seed=2)
    estimate = estimate_acceptance_batched(
        shared,
        corrupted,
        trials=50,
        labels=shared.prover(corrupted),
        randomness="shared",
    )
    print(f"corrupted MST acceptance (3-bit certificates!): {estimate}")


if __name__ == "__main__":
    main()
