#!/usr/bin/env python3
"""Certifying shortest-path distances (a routing-table audit).

Scenario: a routing layer computed, at every node, its weighted distance to
a gateway.  Before trusting the tables, the network audits them locally —
one round, small messages.  The SSSP certification scheme labels each node
with ``(gateway id, claimed distance)`` and checks the Lipschitz + progress
conditions; the Theorem 3.1 compiler shrinks the exchanged messages to
``O(log log n)`` bits.

Run:  python examples/distance_certification.py
"""

from repro.core.verifier import verify_deterministic, verify_randomized
from repro.engine import estimate_acceptance_batched
from repro.graphs.workloads import corrupt_distance, distance_configuration
from repro.schemes.distance import DistancePLS, distance_rpls


def main() -> None:
    # A 96-node weighted network; node 0 is the gateway, and every node's
    # state carries its true Dijkstra distance.
    configuration = distance_configuration(
        node_count=96, extra_edges=40, seed=11, weighted=True
    )

    pls = DistancePLS(weighted=True)
    run = verify_deterministic(pls, configuration)
    print(f"deterministic audit accepts correct tables: {run.accepted}")
    print(f"  label size: {run.max_label_bits} bits")

    rpls = distance_rpls(weighted=True)
    random_run = verify_randomized(rpls, configuration, seed=0)
    print(f"randomized audit accepts correct tables: {random_run.accepted}")
    print(f"  certificate size: {random_run.max_certificate_bits} bits")

    # A single stale entry — one node's distance off by one hop-weight.
    corrupted = corrupt_distance(configuration, seed=5)
    stale = verify_deterministic(pls, corrupted, labels=pls.prover(corrupted))
    print(f"deterministic audit flags the stale entry: {not stale.accepted}")
    print(f"  first detecting nodes: {list(stale.rejecting_nodes)[:4]}")

    estimate = estimate_acceptance_batched(
        rpls, corrupted, trials=60, labels=rpls.prover(corrupted)
    )
    print(f"randomized audit acceptance on stale tables: {estimate}")
    print("  (soundness >= 1/2 per round; repeat or boost to taste)")


if __name__ == "__main__":
    main()
