"""``Unif`` — all nodes hold the same ``k``-bit payload (Lemma C.3).

This predicate is the cleanest showcase of what randomization buys:

- any deterministic PLS must effectively ship the payload: :class:`UnifPLS`
  uses ``k + O(log k)`` bits (and Lemma C.3 proves ``Omega(log k)`` is
  unavoidable even for RPLSs, via reduction from 2-party EQ);
- :class:`DirectUnifRPLS` uses **empty labels** and
  ``O(log k)``-bit certificates: each node fingerprints its *own state* per
  port and neighbors check the fingerprint against their own payload — the
  polynomial identity test of Lemma A.1 applied directly, without going
  through the Theorem 3.1 compiler.

``Unif`` is also one half of the Theorem 3.5 tightness construction
(``Unif ∧ Sym``), exercised by benchmark E5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.bitstrings import BitReader, BitString, BitWriter
from repro.core.configuration import Configuration
from repro.core.fingerprint import Fingerprinter, FingerprintVectorSpec
from repro.core.predicate import Predicate
from repro.core.scheme import (
    LabelView,
    ProofLabelingScheme,
    RandomizedScheme,
    VerifierView,
)
from repro.graphs.port_graph import Node


def _payload(state) -> BitString:
    payload = state.get("payload")
    if not isinstance(payload, BitString):
        raise ValueError("Unif states must carry a BitString 'payload' field")
    return payload


class UnifPredicate(Predicate):
    """True iff every node's ``payload`` state field is identical."""

    name = "unif"

    def holds(self, configuration: Configuration) -> bool:
        payloads = {
            _payload(configuration.state(node))
            for node in configuration.graph.nodes
        }
        return len(payloads) <= 1


class UnifPLS(ProofLabelingScheme):
    """The deterministic baseline: the label *is* the payload.

    Verification: my label equals my payload and every neighbor's label —
    by connectivity all payloads agree.  ``k + O(log k)`` bits (framing).
    """

    name = "unif-pls"

    def __init__(self) -> None:
        super().__init__(UnifPredicate())

    def prover(self, configuration: Configuration) -> Dict[Node, BitString]:
        labels = {}
        for node in configuration.graph.nodes:
            payload = _payload(configuration.state(node))
            writer = BitWriter()
            writer.write_varuint(payload.length)
            writer.write_bitstring(payload)
            labels[node] = writer.finish()
        return labels

    @staticmethod
    def _unpack(label: BitString) -> BitString:
        reader = BitReader(label)
        width = reader.read_varuint()
        payload = reader.read_bitstring(width)
        reader.expect_exhausted()
        return payload

    def verify_at(self, view: VerifierView) -> bool:
        own = self._unpack(view.own_label)
        if own != _payload(view.state):
            return False
        return all(self._unpack(message) == own for message in view.messages)


@dataclass(frozen=True)
class _UnifNodeContext:
    """Per-node trial-invariant state for the engine fast path."""

    payload_length: int
    coefficients: bytes  # payload polynomial, highest degree first
    fingerprinter: Fingerprinter
    degree: int


class DirectUnifRPLS(RandomizedScheme):
    """Labels empty; certificates are fingerprints of the sender's payload.

    The receiver evaluates its *own* payload's polynomial at the received
    point: equal payloads always agree (one-sided completeness), unequal
    payloads collide with probability < ``(1/3)^repetitions``.  Certificate
    size ``O(log k)``; together with Lemma C.3's ``Omega(log k)`` this pins
    the randomized verification complexity of ``Unif`` at ``Theta(log k)``.
    """

    name = "unif-direct-rpls"
    one_sided = True
    edge_independent = True

    def __init__(self, repetitions: int = 1):
        super().__init__(UnifPredicate())
        self.repetitions = repetitions

    def prover(self, configuration: Configuration) -> Dict[Node, BitString]:
        return {node: BitString.empty() for node in configuration.graph.nodes}

    def certificate(self, view: LabelView, port: int, rng: random.Random) -> BitString:
        payload = _payload(view.state)
        writer = BitWriter()
        writer.write_varuint(payload.length)
        writer.write_bitstring(
            Fingerprinter.shared(payload.length, repetitions=self.repetitions).make(
                payload, rng
            )
        )
        return writer.finish()

    def verify_at(self, view: VerifierView) -> bool:
        payload = _payload(view.state)
        fingerprinter = Fingerprinter.shared(
            payload.length, repetitions=self.repetitions
        )
        for message in view.messages:
            reader = BitReader(message)
            claimed_length = reader.read_varuint()
            if claimed_length != payload.length:
                return False
            fingerprint = reader.read_bitstring(reader.remaining)
            if not fingerprinter.check(payload, fingerprint):
                return False
        return True

    # -- batched-engine fast path ------------------------------------------------
    #
    # The payload and its fingerprinter are functions of the node state, so
    # the engine context pins them once per plan and certificates travel as
    # (claimed length, raw fingerprint) pairs.  See repro.engine.plan.

    def engine_node_context(self, view: LabelView) -> "_UnifNodeContext":
        payload = _payload(view.state)
        fingerprinter = Fingerprinter.shared(
            payload.length, repetitions=self.repetitions
        )
        return _UnifNodeContext(
            payload_length=payload.length,
            coefficients=fingerprinter.reversed_coefficients(payload),
            fingerprinter=fingerprinter,
            degree=view.degree,
        )

    def engine_certificate(self, context: "_UnifNodeContext", port: int, rng: random.Random):
        return (
            context.payload_length,
            context.fingerprinter.sample_raw(context.coefficients, rng),
        )

    def engine_verify(self, context: "_UnifNodeContext", messages, shared_rng) -> bool:
        length = context.payload_length
        coefficients = context.coefficients
        check_raw = context.fingerprinter.check_raw
        for claimed_length, raw_fingerprint in messages:
            if claimed_length != length:
                return False
            if not check_raw(coefficients, raw_fingerprint):
                return False
        return True

    def engine_vector_spec(
        self, context: "_UnifNodeContext"
    ) -> Optional[FingerprintVectorSpec]:
        """Describe this context to the agreement-table kernel.

        A node sends its payload's polynomial and checks every port's
        message against that same polynomial, so ``own`` is the payload's
        coefficients and every ``stored`` entry repeats them.  The claimed
        payload length rides as the ``header``: a receiver rejects another
        length before any arithmetic, even where both lengths share a
        fingerprint format.  ``None`` (scalar fallback) when the field is
        not vectorizable.
        """
        fingerprinter = context.fingerprinter
        if not fingerprinter.vectorizable():
            return None
        return FingerprintVectorSpec(
            prime=fingerprinter.params.prime,
            sub_points=fingerprinter.repetitions,
            certificate_bits=fingerprinter.certificate_bits,
            draws=fingerprinter.repetitions,
            own=context.coefficients,
            stored=(context.coefficients,) * context.degree,
            accepts_when_checks_pass=True,
            header=(context.payload_length,),
        )
