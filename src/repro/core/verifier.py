"""One-round execution engines for deterministic and randomized schemes.

These engines wire the prover, the synchronous round of
:mod:`repro.simulation.network`, and the per-node verifiers together exactly
as Section 2.2 specifies:

- **Deterministic run** — each node ships its full label to every neighbor;
  the configuration is *accepted* iff every node outputs TRUE.
- **Randomized run** — labels stay put; each node derives an independent RNG
  per port (edge-independent randomness, Definition 4.5, or a node-shared RNG
  on request), generates one certificate per port, and only certificates
  travel.  Acceptance is again the conjunction of the node outputs.

A verifier that raises :class:`ValueError` while parsing a message is treated
as rejecting: forged labels are allowed to be arbitrary bit strings, and a
malformed one must not crash the network — it must be *detected*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Literal, Optional, Tuple

from repro.core.bitstrings import BitString
from repro.core.configuration import Configuration
from repro.core.scheme import (
    LabelView,
    ProofLabelingScheme,
    RandomizedScheme,
    SchemeParams,
    VerifierView,
    derive_rng,
    derive_shared_rng,
)
from repro.graphs.port_graph import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.metrics import AcceptanceEstimate
    from repro.simulation.network import RoundStats

# repro.simulation modules import repro.core, so the engine pulls its two
# simulation helpers in lazily (first call) to keep both package __init__
# orders importable.
_exchange_messages = None


def _exchange(graph, outbox):
    global _exchange_messages
    if _exchange_messages is None:
        from repro.simulation.network import exchange_messages

        _exchange_messages = exchange_messages
    return _exchange_messages(graph, outbox)

RandomnessMode = Literal["edge", "node", "shared"]


@dataclass
class DeterministicRun:
    """Outcome of one deterministic verification round."""

    accepted: bool
    node_outputs: Dict[Node, bool]
    labels: Dict[Node, BitString]
    max_label_bits: int
    round_stats: "RoundStats"

    @property
    def rejecting_nodes(self) -> Tuple[Node, ...]:
        return tuple(
            node for node, output in sorted(self.node_outputs.items(), key=repr)
            if not output
        )


@dataclass
class RandomizedRun:
    """Outcome of one randomized verification round."""

    accepted: bool
    node_outputs: Dict[Node, bool]
    labels: Dict[Node, BitString]
    certificates: Dict[Tuple[Node, int], BitString]
    max_certificate_bits: int
    round_stats: "RoundStats"

    @property
    def rejecting_nodes(self) -> Tuple[Node, ...]:
        return tuple(
            node for node, output in sorted(self.node_outputs.items(), key=repr)
            if not output
        )


def _guarded_verify(scheme, view: VerifierView) -> bool:
    """Run a node verifier, mapping parse failures to rejection."""
    try:
        return bool(scheme.verify_at(view))
    except ValueError:
        return False


def verify_deterministic(
    scheme: ProofLabelingScheme,
    configuration: Configuration,
    labels: Optional[Dict[Node, BitString]] = None,
) -> DeterministicRun:
    """Execute a PLS round.

    ``labels`` defaults to the honest prover's assignment; pass a forged
    assignment to exercise the soundness direction.
    """
    if labels is None:
        labels = scheme.prover(configuration)
    graph = configuration.graph
    params = SchemeParams.from_configuration(configuration)

    outbox = {
        (node, port): labels[node]
        for node in graph.nodes
        for port in range(graph.degree(node))
    }
    inbox, stats = _exchange(graph, outbox)

    node_outputs: Dict[Node, bool] = {}
    for node in graph.nodes:
        view = VerifierView(
            node=node,
            state=configuration.state(node),
            degree=graph.degree(node),
            params=params,
            own_label=labels[node],
            messages=tuple(
                inbox[(node, port)] for port in range(graph.degree(node))
            ),
        )
        node_outputs[node] = _guarded_verify(scheme, view)

    return DeterministicRun(
        accepted=all(node_outputs.values()),
        node_outputs=node_outputs,
        labels=labels,
        max_label_bits=max((label.length for label in labels.values()), default=0),
        round_stats=stats,
    )


def verify_randomized(
    scheme: RandomizedScheme,
    configuration: Configuration,
    seed: int = 0,
    labels: Optional[Dict[Node, BitString]] = None,
    randomness: RandomnessMode = "edge",
) -> RandomizedRun:
    """Execute one RPLS round with the given random seed.

    ``randomness="edge"`` gives each (node, port) pair its own RNG stream —
    the edge-independent model of Definition 4.5 under which all of the
    paper's upper bounds operate.  ``randomness="node"`` shares one stream per
    node across its ports, the relaxation mentioned among the open questions.
    ``randomness="shared"`` is the public-coin model of the same open
    question: every certificate call *and* every verifier sees a fresh
    generator over one global coin sequence (:func:`derive_shared_rng`).
    """
    if labels is None:
        labels = scheme.prover(configuration)
    graph = configuration.graph
    params = SchemeParams.from_configuration(configuration)

    certificates: Dict[Tuple[Node, int], BitString] = {}
    for node in graph.nodes:
        label_view = LabelView(
            node=node,
            state=configuration.state(node),
            degree=graph.degree(node),
            params=params,
            own_label=labels[node],
        )
        node_rng = derive_rng(seed, node, None) if randomness == "node" else None
        for port in range(graph.degree(node)):
            if randomness == "shared":
                rng = derive_shared_rng(seed)
            else:
                rng = node_rng if node_rng is not None else derive_rng(seed, node, port)
            try:
                certificates[(node, port)] = scheme.certificate(label_view, port, rng)
            except ValueError:
                # A forged label the node cannot even parse: it emits nothing
                # useful.  Receivers see a malformed certificate and reject;
                # the node itself rejects when verifying its own label.
                certificates[(node, port)] = BitString.empty()

    inbox, stats = _exchange(graph, certificates)

    node_outputs: Dict[Node, bool] = {}
    for node in graph.nodes:
        view = VerifierView(
            node=node,
            state=configuration.state(node),
            degree=graph.degree(node),
            params=params,
            own_label=labels[node],
            messages=tuple(
                inbox[(node, port)] for port in range(graph.degree(node))
            ),
            shared_rng=derive_shared_rng(seed) if randomness == "shared" else None,
        )
        node_outputs[node] = _guarded_verify(scheme, view)

    return RandomizedRun(
        accepted=all(node_outputs.values()),
        node_outputs=node_outputs,
        labels=labels,
        certificates=certificates,
        max_certificate_bits=max(
            (certificate.length for certificate in certificates.values()), default=0
        ),
        round_stats=stats,
    )


def estimate_acceptance(
    scheme: RandomizedScheme,
    configuration: Configuration,
    trials: int,
    seed: int = 0,
    labels: Optional[Dict[Node, BitString]] = None,
    randomness: RandomnessMode = "edge",
) -> "AcceptanceEstimate":
    """Monte-Carlo estimate of the acceptance probability — reference path.

    The prover runs once (labels are deterministic); each trial re-randomizes
    only the certificates, which is exactly the probability space of
    Section 2.2.

    Trial ``i`` runs with seed ``derive_trial_seed(seed, i)`` — the explicit
    SplitMix64 mix of :mod:`repro.core.seeding`, shared with the batched
    engine so both paths sample identical trial sequences.

    This loop deliberately stays unoptimized: it is the reference oracle the
    batched engine (:mod:`repro.engine`) is tested against.  For hot
    Monte-Carlo loops, compile a :class:`~repro.engine.plan.VerificationPlan`
    and use :func:`~repro.engine.montecarlo.estimate_acceptance_fast`, which
    produces identical per-trial decisions at a fraction of the cost.
    """
    from repro.core.seeding import derive_trial_seed
    from repro.simulation.metrics import AcceptanceEstimate  # lazy: import cycle

    if trials <= 0:
        raise ValueError("trials must be positive")
    if labels is None:
        labels = scheme.prover(configuration)
    accepted = 0
    for trial in range(trials):
        run = verify_randomized(
            scheme,
            configuration,
            seed=derive_trial_seed(seed, trial),
            labels=labels,
            randomness=randomness,
        )
        if run.accepted:
            accepted += 1
    return AcceptanceEstimate(accepted=accepted, trials=trials)
