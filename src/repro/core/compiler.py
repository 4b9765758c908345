"""The Theorem 3.1 compiler: any PLS becomes an RPLS with ``O(log kappa)`` certificates.

Construction (Appendix A): given a deterministic scheme ``(p, v)`` with
verification complexity ``kappa``:

1. **Replication** — the new prover gives every node the vector
   ``l'(v) = (l(v), l(w_1), ..., l(w_d))`` of its own label and all of its
   neighbors' labels, ordered by port.
2. **Fingerprint exchange** — instead of shipping labels, each node ships a
   fingerprint ``(x, P_v(x))`` of its *own* label replica (Lemma A.1).  Here
   one independent fingerprint is drawn per port, so the scheme is
   edge-independent (Definition 4.5).
3. **Verification** — node ``v`` checks each received fingerprint against
   the copy of that neighbor's label stored in ``l'(v)``; if all match, it
   runs the original deterministic verifier on its stored copies.

Correctness: on a legal configuration with honest labels every stored copy
equals the neighbor's true label, fingerprints match with probability 1, and
the base verifier accepts — the compiled scheme is **one-sided**.  On an
illegal configuration, either all stored copies are consistent (then the base
verifier rejects somewhere, deterministically), or two adjacent nodes
disagree about some label, and the fingerprint check across that edge fails
with probability > 2/3 per Lemma A.1.

Sizes: base labels are padded to ``kappa`` bits and prefixed with their true
length, so the fingerprinted record has ``lam = kappa + ceil(log2(kappa+1))``
bits and the certificate ``2 * ceil(log2 p) = O(log kappa)`` bits for the
prime ``3*lam < p < 6*lam``.  The compiled *labels* grow to ``O(deg * kappa)``
bits, which Definition 2.1 does not charge for — only certificates travel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bitstrings import BitReader, BitString, BitWriter, bits_for_max
from repro.core.configuration import Configuration
from repro.core.fingerprint import Fingerprinter, FingerprintVectorSpec, RawFingerprint
from repro.core.scheme import (
    LabelView,
    ProofLabelingScheme,
    RandomizedScheme,
    VerifierView,
)
from repro.graphs.port_graph import Node


@dataclass(frozen=True)
class _CompiledNodeContext:
    """Per-node trial-invariant state for the engine fast path.

    Coefficients are stored highest-degree-first, one byte each — the shape
    the Horner loops of :meth:`Fingerprinter.sample_raw` /
    :meth:`~Fingerprinter.check_raw` consume directly.
    """

    fingerprinter: Fingerprinter
    own_coefficients: bytes
    stored_coefficients: Tuple[bytes, ...]
    base_accepts: bool


class FingerprintCompiledRPLS(RandomizedScheme):
    """The RPLS produced by applying Theorem 3.1 to a deterministic scheme.

    ``repetitions`` controls the epsilon-tuning of Section 1: ``t``
    independent fingerprints per certificate push the per-edge soundness
    error below ``(1/3)^t`` at a ``t``-fold certificate-size cost.
    """

    one_sided = True
    edge_independent = True

    def __init__(self, base: ProofLabelingScheme, repetitions: int = 1):
        super().__init__(base.predicate)
        if repetitions < 1:
            raise ValueError("need at least one repetition")
        self.base = base
        self.repetitions = repetitions
        self.name = f"compiled({base.name})"

    # -- label layout -----------------------------------------------------------
    #
    # compiled label := varuint(kappa) || replica_0 || replica_1 || ... || replica_d
    # replica       := uint(true_length, len_width) || label_bits || zero padding
    #
    # All replicas have the fixed width len_width + kappa, so a node that
    # knows its own degree can parse its label without further framing, and
    # equality of replicas (as bit strings) is equivalent to equality of the
    # underlying base labels.

    @staticmethod
    def _replica(label: BitString, kappa: int) -> BitString:
        len_width = bits_for_max(kappa)
        writer = BitWriter()
        writer.write_uint(label.length, len_width)
        writer.write_bitstring(label)
        writer.write_uint(0, kappa - label.length)
        return writer.finish()

    @staticmethod
    def _replica_width(kappa: int) -> int:
        return bits_for_max(kappa) + kappa

    @staticmethod
    def _unreplica(replica: BitString, kappa: int) -> BitString:
        len_width = bits_for_max(kappa)
        reader = BitReader(replica)
        true_length = reader.read_uint(len_width)
        if true_length > kappa:
            raise ValueError("replica claims a label longer than kappa")
        return replica.slice(len_width, true_length)

    def _parse_label(self, view: LabelView) -> Tuple[int, List[BitString]]:
        """Split a compiled label into ``kappa`` and ``degree + 1`` replicas."""
        reader = BitReader(view.own_label)
        kappa = reader.read_varuint()
        width = self._replica_width(kappa)
        replicas = [reader.read_bitstring(width) for _ in range(view.degree + 1)]
        reader.expect_exhausted()
        return kappa, replicas

    # -- scheme interface ----------------------------------------------------------

    def prover(self, configuration: Configuration) -> Dict[Node, BitString]:
        base_labels = self.base.prover(configuration)
        kappa = max((label.length for label in base_labels.values()), default=0)
        graph = configuration.graph
        compiled: Dict[Node, BitString] = {}
        for node in graph.nodes:
            writer = BitWriter()
            writer.write_varuint(kappa)
            writer.write_bitstring(self._replica(base_labels[node], kappa))
            for port in range(graph.degree(node)):
                neighbor = graph.neighbor(node, port)
                writer.write_bitstring(self._replica(base_labels[neighbor], kappa))
            compiled[node] = writer.finish()
        return compiled

    def _fingerprinter(self, kappa: int) -> Fingerprinter:
        return Fingerprinter.shared(
            self._replica_width(kappa), repetitions=self.repetitions
        )

    def certificate(self, view: LabelView, port: int, rng: random.Random) -> BitString:
        kappa, replicas = self._parse_label(view)
        return self._fingerprinter(kappa).make(replicas[0], rng)

    def verify_at(self, view: VerifierView) -> bool:
        kappa, replicas = self._parse_label(view)
        fingerprinter = self._fingerprinter(kappa)
        for port in range(view.degree):
            stored_copy = replicas[port + 1]
            if not fingerprinter.check(stored_copy, view.messages[port]):
                return False
        own_base_label = self._unreplica(replicas[0], kappa)
        neighbor_base_labels = tuple(
            self._unreplica(replicas[port + 1], kappa) for port in range(view.degree)
        )
        base_view = VerifierView(
            node=view.node,
            state=view.state,
            degree=view.degree,
            params=view.params,
            own_label=own_base_label,
            messages=neighbor_base_labels,
        )
        return self.base.verify_at(base_view)

    # -- batched-engine fast path ------------------------------------------------
    #
    # The compiled verifier re-parses its label on every certificate call and
    # every verification — all trial-invariant work.  The engine hooks parse
    # once per plan: the context caches the replicas, the fingerprinter, and
    # the *base verifier's verdict on the stored copies*, which is a pure
    # function of the label (only the fingerprint exchange is randomized).
    # See repro.engine.plan for the protocol contract.

    def _engine_parse(self, view: LabelView) -> Tuple[int, List[BitString], bool]:
        """Parse once and settle the trial-invariant base verdict.

        Shared by this class's hooks and the shared-coins subclass's.
        Raises :class:`ValueError` (from :meth:`_parse_label`) for labels
        the node cannot parse at all.
        """
        kappa, replicas = self._parse_label(view)
        try:
            own_base_label = self._unreplica(replicas[0], kappa)
            neighbor_base_labels = tuple(
                self._unreplica(replicas[port + 1], kappa)
                for port in range(view.degree)
            )
            base_view = VerifierView(
                node=view.node,
                state=view.state,
                degree=view.degree,
                params=view.params,
                own_label=own_base_label,
                messages=neighbor_base_labels,
            )
            base_accepts = bool(self.base.verify_at(base_view))
        except ValueError:
            # The one-shot verifier hits this after the fingerprint checks
            # and rejects; with or without matching fingerprints the node's
            # output is False, so a constant False verdict is equivalent.
            base_accepts = False
        return kappa, replicas, base_accepts

    def engine_node_context(self, view: LabelView) -> "_CompiledNodeContext":
        kappa, replicas, base_accepts = self._engine_parse(view)
        fingerprinter = self._fingerprinter(kappa)
        return _CompiledNodeContext(
            fingerprinter=fingerprinter,
            own_coefficients=fingerprinter.reversed_coefficients(replicas[0]),
            stored_coefficients=tuple(
                fingerprinter.reversed_coefficients(replica)
                for replica in replicas[1:]
            ),
            base_accepts=base_accepts,
        )

    def engine_certificate(
        self, context: "_CompiledNodeContext", port: int, rng: random.Random
    ):
        return context.fingerprinter.sample_raw(context.own_coefficients, rng)

    def engine_verify(self, context: "_CompiledNodeContext", messages, shared_rng) -> bool:
        check_raw = context.fingerprinter.check_raw
        for stored_copy, message in zip(context.stored_coefficients, messages):
            if not check_raw(stored_copy, message):
                return False
        return context.base_accepts

    # The message codec: a RawFingerprint and its packed certificate, both
    # ways.  Wrappers that act on the packed bits (the noisy channel) use it
    # to stay on the hook path.  The packing is Fingerprinter.make's: per
    # point, x then value, coordinate_bits each, big-endian.  Subclasses that
    # swap the certificate format (the shared-coins compiler) set both hooks
    # to None.

    def engine_encode_message(
        self, context: "_CompiledNodeContext", message: RawFingerprint
    ) -> BitString:
        packed_bits, points = message
        width = context.fingerprinter.params.coordinate_bits
        value = 0
        for x, claimed in points:
            value = (((value << width) | x) << width) | claimed
        return BitString(value, packed_bits)

    def engine_decode_message(
        self, context: "_CompiledNodeContext", packed: BitString
    ) -> RawFingerprint:
        fingerprinter = context.fingerprinter
        width = fingerprinter.params.coordinate_bits
        mask = (1 << width) - 1
        value = packed.value
        shift = packed.length
        points = []
        for _ in range(fingerprinter.repetitions):
            shift -= 2 * width
            points.append(((value >> (shift + width)) & mask, (value >> shift) & mask))
        return (packed.length, tuple(points))

    def engine_vector_spec(
        self, context: "_CompiledNodeContext"
    ) -> Optional[FingerprintVectorSpec]:
        """Describe this context to the vectorized trial-chunk kernel.

        Compiled certificates are pure polynomial fingerprints, so a node's
        entire per-trial behaviour is captured by its coefficient bytes plus
        the trial-invariant base verdict; :mod:`repro.engine.kernels` then
        replays whole Monte-Carlo chunks as lookups in agree rows it
        tabulates once per plan, with decisions identical to
        :meth:`engine_certificate` / :meth:`engine_verify`.  Returns
        ``None`` (scalar fallback) when numpy is unavailable or a subclass
        swapped the certificate format (the shared-coins compiler).
        """
        if not isinstance(context, _CompiledNodeContext):
            return None
        fingerprinter = context.fingerprinter
        if not fingerprinter.vectorizable():
            return None
        return FingerprintVectorSpec(
            prime=fingerprinter.params.prime,
            sub_points=fingerprinter.repetitions,
            certificate_bits=fingerprinter.certificate_bits,
            draws=fingerprinter.repetitions,
            own=context.own_coefficients,
            stored=context.stored_coefficients,
            accepts_when_checks_pass=context.base_accepts,
        )

    # -- reporting -------------------------------------------------------------------

    def label_complexity(self, configuration: Configuration) -> int:
        """Size of the compiled labels (not charged by Definition 2.1)."""
        labels = self.prover(configuration)
        return max((label.length for label in labels.values()), default=0)

    def soundness_error(self, configuration: Configuration) -> float:
        """Per-edge probability that an inconsistent replica slips through."""
        base_kappa = self.base.verification_complexity(configuration)
        return self._fingerprinter(base_kappa).soundness_error()
