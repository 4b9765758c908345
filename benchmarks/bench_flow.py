"""E14 — Section 5.2 remark: k-flow at O(k log n) / O(log k + log log n).

Sweeps k and n, measuring the deterministic path+residual labels and the
compiled randomized certificates; checks completeness on exact-k instances
and rejection of over-claimed k.
"""

import math

from repro.core.configuration import Configuration
from repro.core.verifier import verify_deterministic, verify_randomized
from repro.engine import estimate_acceptance_fast
from repro.graphs.generators import flow_configuration
from repro.schemes.flow import KFlowPLS, k_flow_engine_plan, k_flow_rpls
from repro.simulation.runner import format_table


def overclaim(configuration: Configuration, k: int) -> Configuration:
    states = {
        node: configuration.state(node).with_fields(k=k)
        for node in configuration.graph.nodes
    }
    return Configuration(configuration.graph, states)


def test_k_flow_bounds(benchmark, report):
    rows = []
    for k, length in ((1, 4), (2, 4), (4, 4), (8, 4), (8, 8)):
        configuration = flow_configuration(k, path_length=length, decoy_edges=k, seed=k)
        n = configuration.node_count
        deterministic = KFlowPLS()
        randomized = k_flow_rpls()
        det_bits = deterministic.verification_complexity(configuration)
        rand_bits = randomized.verification_complexity(configuration)
        assert verify_deterministic(deterministic, configuration).accepted
        assert verify_randomized(randomized, configuration, seed=0).accepted

        bad = overclaim(configuration, k + 1)
        # Engine path: compiled-scheme hooks, no legacy-oracle fallback.
        plan = k_flow_engine_plan(bad, labels=randomized.prover(configuration))
        assert plan.uses_fast_path
        reject = estimate_acceptance_fast(plan, trials=10)
        rows.append([k, n, det_bits, rand_bits, f"{1 - reject.probability:.2f}"])
        assert reject.probability < 0.5
        assert det_bits <= 30 * k * math.log2(n) + 60

    report(
        "E14_k_flow",
        format_table(
            ["k", "n", "det bits O(k log n)", "rand bits O(log k + log log n)",
             "overclaim reject rate"],
            rows,
        ),
    )

    # Deterministic grows ~linearly with k; randomized barely moves.
    det_at_k = {row[0]: row[2] for row in rows}
    rand_at_k = {row[0]: row[3] for row in rows}
    assert det_at_k[8] >= 3 * det_at_k[1]
    assert rand_at_k[8] - rand_at_k[1] <= 8

    configuration = flow_configuration(4, path_length=4, decoy_edges=4, seed=9)
    plan = k_flow_engine_plan(configuration)
    assert plan.uses_fast_path
    benchmark(lambda: estimate_acceptance_fast(plan, 10, seed=2, rng_mode="vector"))
