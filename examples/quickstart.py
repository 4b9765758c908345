#!/usr/bin/env python3
"""Quickstart: certify a spanning tree, deterministically and randomized.

The introduction's motivating example: a distributed algorithm computed a
spanning tree (every node knows its parent), and the network wants to verify
the result locally — one communication round, small messages.

Run:  python examples/quickstart.py
"""

from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.verifier import verify_deterministic, verify_randomized
from repro.engine import estimate_acceptance_batched
from repro.graphs.generators import corrupt_spanning_tree, spanning_tree_configuration
from repro.schemes.spanning_tree import SpanningTreePLS


def main() -> None:
    # A random 64-node connected network whose state claims a BFS spanning tree.
    configuration = spanning_tree_configuration(node_count=64, extra_edges=30, seed=7)

    # --- deterministic proof-labeling scheme (the classic (root, dist) labels)
    pls = SpanningTreePLS()
    run = verify_deterministic(pls, configuration)
    print(f"deterministic scheme accepts legal tree: {run.accepted}")
    print(f"  label size: {run.max_label_bits} bits "
          f"(total traffic {run.round_stats.total_bits} bits)")

    # --- the same scheme compiled into a randomized one (Theorem 3.1)
    rpls = FingerprintCompiledRPLS(pls)
    random_run = verify_randomized(rpls, configuration, seed=0)
    print(f"randomized scheme accepts legal tree: {random_run.accepted}")
    print(f"  certificate size: {random_run.max_certificate_bits} bits "
          f"(exponentially smaller than the labels)")

    # --- soundness: corrupt the tree, keep the old labels, and watch it burn
    corrupted = corrupt_spanning_tree(configuration, seed=3)
    forged = verify_deterministic(pls, corrupted, labels=pls.prover(configuration))
    print(f"deterministic scheme rejects corrupted tree: {not forged.accepted} "
          f"(rejecting nodes: {list(forged.rejecting_nodes)[:4]} ...)")

    estimate = estimate_acceptance_batched(
        rpls, corrupted, trials=50, labels=rpls.prover(configuration)
    )
    print(f"randomized scheme acceptance on corrupted tree: {estimate} "
          f"(one-sided error: legal instances are never rejected)")


if __name__ == "__main__":
    main()
