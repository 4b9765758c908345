"""Named, picklable workload factories for sharded and campaign runs.

Every factory is a module-level callable returning ``(scheme,
configuration)`` — the shape :class:`~repro.parallel.spec.PlanSpec`
requires — and is fully determined by its arguments (explicit seeds
everywhere), so the same spec rebuilds a decision-identical workload in
every worker process.  The :data:`WORKLOADS` registry maps the short names
the CLI and campaign sweeps use onto factories plus the randomness mode the
scheme actually runs under (the shared-coins compiler needs public coins;
everything else runs under edge randomness).

These mirror the engine benchmark workloads (``benchmarks/bench_engine.py``,
``benchmarks/smoke.py``) at caller-chosen sizes, so a campaign cell is
directly comparable to the recorded single-process trajectory in
``BENCH_engine.json``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.boosting import BoostedRPLS
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.noise import NoisyChannelRPLS
from repro.core.shared import SharedCoinsCompiledRPLS
from repro.graphs.generators import (
    flow_configuration,
    mst_configuration,
    spanning_tree_configuration,
)
from repro.graphs.workloads import distance_configuration
from repro.parallel.spec import PlanSpec
from repro.schemes.distance import distance_rpls
from repro.schemes.flow import k_flow_rpls
from repro.schemes.mst import mst_rpls
from repro.schemes.spanning_tree import SpanningTreePLS


def compiled_spanning_tree(node_count: int = 60, extra_edges: int = 15, seed: int = 1):
    """The Theorem 3.1 fingerprint compiler on a random spanning tree."""
    scheme = FingerprintCompiledRPLS(SpanningTreePLS())
    return scheme, spanning_tree_configuration(node_count, extra_edges, seed=seed)


def boosted_spanning_tree(
    node_count: int = 60, extra_edges: int = 15, seed: int = 1, t: int = 3
):
    """The footnote-1 boosted compiler (soundness error ``3**-t``)."""
    scheme = BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), t)
    return scheme, spanning_tree_configuration(node_count, extra_edges, seed=seed)


def compiled_mst(node_count: int = 48, seed: int = 1):
    """The Borůvka-trace MST scheme — the largest-label workload."""
    return mst_rpls(), mst_configuration(node_count, seed=seed)


def compiled_k_flow(k: int = 2, path_length: int = 4, decoy_edges: int = 3, seed: int = 3):
    """The k-flow certification scheme on a planted flow network."""
    return k_flow_rpls(), flow_configuration(
        k, path_length=path_length, decoy_edges=decoy_edges, seed=seed
    )


def compiled_distance(node_count: int = 32, extra_edges: int = 10, seed: int = 4):
    """Weighted single-source distance certification."""
    return distance_rpls(weighted=True), distance_configuration(
        node_count, extra_edges, seed=seed, weighted=True
    )


def shared_coins_spanning_tree(node_count: int = 60, extra_edges: int = 15, seed: int = 1):
    """The Section 6 shared-coins compiler (public coins; parity kernel)."""
    scheme = SharedCoinsCompiledRPLS(SpanningTreePLS())
    return scheme, spanning_tree_configuration(node_count, extra_edges, seed=seed)


# ---------------------------------------------------------------------------
# the verdict-spec zoo (repro.engine.specs): one factory per registered
# scheme that previously ran the legacy oracle only, at caller-chosen sizes
# ---------------------------------------------------------------------------


def compiled_acyclicity(node_count: int = 40, seed: int = 2):
    """The [31] root-distance forest scheme on a random tree."""
    from repro.graphs.generators import tree_only_configuration
    from repro.schemes.acyclicity import AcyclicityPLS

    return (
        FingerprintCompiledRPLS(AcyclicityPLS()),
        tree_only_configuration(node_count, seed=seed),
    )


def compiled_biconnectivity(node_count: int = 36, seed: int = 2):
    """The Theorem 5.2 DFS/lowpoint scheme on a random biconnected graph."""
    from repro.graphs.generators import random_biconnected_configuration
    from repro.schemes.biconnectivity import BiconnectivityPLS

    return (
        FingerprintCompiledRPLS(BiconnectivityPLS()),
        random_biconnected_configuration(node_count, seed=seed),
    )


def shared_coins_bipartiteness(
    left: int = 18, right: int = 18, extra_edges: int = 8, seed: int = 2
):
    """The planted 2-coloring witness under public coins (parity kernel)."""
    from repro.graphs.workloads import random_bipartite_configuration
    from repro.schemes.bipartiteness import BipartitenessPLS

    return (
        SharedCoinsCompiledRPLS(BipartitenessPLS(), repetitions=2),
        random_bipartite_configuration(left, right, extra_edges=extra_edges, seed=seed),
    )


def compiled_coloring(node_count: int = 40, colors: int = 4, seed: int = 2):
    """The intro proper-coloring warm-up on a greedily colored graph."""
    from repro.graphs.generators import colored_configuration
    from repro.schemes.coloring import ColoringPLS

    return (
        FingerprintCompiledRPLS(ColoringPLS()),
        colored_configuration(node_count, colors, proper=True, seed=seed),
    )


def compiled_cycle_length(
    node_count: int = 40, cycle_length: int = 12, c: int = 8, seed: int = 2
):
    """The Theorem 5.3 cycle-at-least-c scheme, witness planted and passed."""
    from repro.graphs.generators import planted_cycle_configuration
    from repro.schemes.cycle_length import CycleAtLeastPLS

    configuration, witness = planted_cycle_configuration(
        node_count, cycle_length, seed=seed
    )
    return FingerprintCompiledRPLS(CycleAtLeastPLS(c, witness=witness)), configuration


def compiled_eulerian(node_count: int = 30, seed: int = 2):
    """Zero-bit labels (kappa=0): the compiler's smallest-label workload."""
    from repro.graphs.workloads import eulerian_configuration
    from repro.schemes.eulerian import EulerianPLS

    return (
        FingerprintCompiledRPLS(EulerianPLS()),
        eulerian_configuration(node_count, seed=seed),
    )


def boosted_hamiltonicity(
    node_count: int = 24, extra_edges: int = 10, seed: int = 2, t: int = 2
):
    """Cycle-at-least-n boosted t-fold, witness planted and passed."""
    from repro.graphs.workloads import hamiltonian_configuration
    from repro.schemes.hamiltonicity import HamiltonicityPLS

    configuration, order = hamiltonian_configuration(
        node_count, extra_edges, seed=seed
    )
    scheme = BoostedRPLS(
        FingerprintCompiledRPLS(HamiltonicityPLS(witness=order)), t
    )
    return scheme, configuration


def compiled_leader(node_count: int = 36, extra_edges: int = 10, seed: int = 2):
    """Leader agreement via compiled id republication."""
    from repro.graphs.workloads import leader_configuration
    from repro.schemes.leader import leader_rpls

    return leader_rpls(), leader_configuration(node_count, extra_edges, seed=seed)


def shared_coins_mis(node_count: int = 36, extra_edges: int = 10, seed: int = 2):
    """1-bit MIS labels under the GF(2) parity kernel (public coins)."""
    from repro.graphs.workloads import mis_configuration
    from repro.schemes.mis import MISPLS

    return (
        SharedCoinsCompiledRPLS(MISPLS(), repetitions=2),
        mis_configuration(node_count, extra_edges, seed=seed),
    )


def direct_unif(node_count: int = 10, payload_bits: int = 24, seed: int = 2):
    """The Lemma C.3 direct Unif scheme on equal payloads (label-free)."""
    from repro.graphs.generators import uniform_configuration
    from repro.schemes.uniformity import DirectUnifRPLS

    return DirectUnifRPLS(), uniform_configuration(
        node_count, payload_bits, equal=True, seed=seed
    )


def compiled_symmetry(lam: int = 6, seed: int = 2):
    """Corollary 3.4's universal scheme on the Figure 4 Sym gadget (x == y)."""
    import random as _random

    from repro.core.bitstrings import BitString
    from repro.graphs.generators import sym_pair_configuration
    from repro.schemes.symmetry import sym_universal_rpls

    x = BitString(_random.Random(seed).getrandbits(lam), lam)
    configuration, _cut, _alice, _bob = sym_pair_configuration(x, x)
    return sym_universal_rpls(), configuration


def boosted_vertex_connectivity(
    path_count: int = 3, path_length: int = 3, decoy_edges: int = 2,
    seed: int = 2, t: int = 2,
):
    """s-t vertex connectivity, boosted t-fold."""
    from repro.graphs.generators import vertex_connectivity_configuration
    from repro.schemes.vertex_connectivity import STVertexConnectivityPLS

    scheme = BoostedRPLS(FingerprintCompiledRPLS(STVertexConnectivityPLS()), t)
    return scheme, vertex_connectivity_configuration(
        path_count, path_length=path_length, decoy_edges=decoy_edges, seed=seed
    )


def noisy_spanning_tree(
    node_count: int = 24, extra_edges: int = 6, seed: int = 1, flip_milli: int = 2
):
    """The compiled scheme over a noisy channel — *two-sided* acceptance.

    The one workload in the registry whose acceptance probability sits
    strictly between 0 and 1, which is what the sharded-merge tests need to
    observe nontrivial per-shard counts.  ``flip_milli`` is the per-bit flip
    probability in thousandths (spec arguments stay hashable integers).  The
    noisy wrapper delegates to the compiler's engine hooks and applies its
    flips through the compiler's message codec, so this workload runs the
    scalar hook path in every rng mode; it has no numpy kernel.
    """
    scheme = NoisyChannelRPLS(
        FingerprintCompiledRPLS(SpanningTreePLS()), flip_milli / 1000.0
    )
    return scheme, spanning_tree_configuration(node_count, extra_edges, seed=seed)


# name -> (factory, randomness the scheme runs under)
WORKLOADS: Dict[str, Tuple[object, str]] = {
    "spanning-tree": (compiled_spanning_tree, "edge"),
    "boosted-spanning-tree": (boosted_spanning_tree, "edge"),
    "mst": (compiled_mst, "edge"),
    "k-flow": (compiled_k_flow, "edge"),
    "distance": (compiled_distance, "edge"),
    "shared-coins": (shared_coins_spanning_tree, "shared"),
    "noisy-spanning-tree": (noisy_spanning_tree, "edge"),
    # the verdict-spec zoo (see repro.engine.specs): campaigns can sweep
    # every registered scheme, not just the original benchmark workloads
    "acyclicity": (compiled_acyclicity, "edge"),
    "biconnectivity": (compiled_biconnectivity, "edge"),
    "bipartiteness": (shared_coins_bipartiteness, "shared"),
    "coloring": (compiled_coloring, "edge"),
    "cycle-length": (compiled_cycle_length, "edge"),
    "eulerian": (compiled_eulerian, "edge"),
    "hamiltonicity": (boosted_hamiltonicity, "edge"),
    "leader": (compiled_leader, "edge"),
    "mis": (shared_coins_mis, "shared"),
    "symmetry": (compiled_symmetry, "edge"),
    "uniformity": (direct_unif, "edge"),
    "vertex-connectivity": (boosted_vertex_connectivity, "edge"),
}


def workload_spec(name: str, rng_mode: str = "vector", **kwargs) -> PlanSpec:
    """The :class:`PlanSpec` of a registry workload at the given size.

    >>> workload_spec("spanning-tree", node_count=16).randomness
    'edge'
    >>> workload_spec("shared-coins").randomness
    'shared'
    """
    try:
        factory, randomness = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (choose from {sorted(WORKLOADS)})"
        ) from None
    return PlanSpec.of(factory, randomness=randomness, rng_mode=rng_mode, **kwargs)
