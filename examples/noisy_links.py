#!/usr/bin/env python3
"""Verification over unreliable links: two-sided error and majority voting.

The paper's concrete schemes are one-sided — legal configurations are never
rejected.  Real links flip bits.  This example pushes a randomized scheme's
certificates through a binary symmetric channel, watches completeness decay
to the paper's two-sided regime, and then applies footnote 1: repeat the
round ``t`` times and take the majority, driving the error down
exponentially on both sides.

Run:  python examples/noisy_links.py
"""

from repro.core.boosting import majority_decision
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.noise import NoisyChannelRPLS, flip_probability_for_completeness
from repro.engine import estimate_acceptance_batched
from repro.graphs.generators import (
    corrupt_spanning_tree,
    spanning_tree_configuration,
)
from repro.schemes.spanning_tree import SpanningTreePLS


def main() -> None:
    configuration = spanning_tree_configuration(node_count=48, extra_edges=20, seed=2)
    corrupted = corrupt_spanning_tree(configuration, seed=9)
    base = FingerprintCompiledRPLS(SpanningTreePLS())

    bits = NoisyChannelRPLS(base, 0.0).round_bits(configuration)
    print(f"one verification round ships {bits} certificate bits in total")

    print("\ncompleteness decay with channel noise:")
    for p in (0.0, 0.001, 0.01, 0.05):
        noisy = NoisyChannelRPLS(base, p)
        rate = estimate_acceptance_batched(noisy, configuration, trials=60).probability
        print(f"  flip probability {p:<6} -> accept legal with prob ~{rate:.2f}")

    # Calibrate the channel to the paper's two-sided regime (accept >= 3/4).
    p = flip_probability_for_completeness(0.75, bits)
    noisy = NoisyChannelRPLS(base, p)
    print(f"\ncalibrated flip probability for 3/4 completeness: {p:.6f}")

    print("\nfootnote 1 — majority over t repetitions (20 trials each):")
    stale = base.prover(configuration)
    for t in (1, 3, 7, 15):
        legal = sum(
            majority_decision(noisy, configuration, repetitions=t, seed=s)
            for s in range(20)
        )
        illegal = sum(
            majority_decision(noisy, corrupted, repetitions=t, seed=s, labels=stale)
            for s in range(20)
        )
        print(f"  t={t:>2}: legal accepted {legal}/20, corrupted accepted {illegal}/20")

    print("\nmajority voting recovers reliable verification from lossy links.")


if __name__ == "__main__":
    main()
