"""Public-coin compilation: O(1)-bit certificates with shared randomness.

Section 6 of the paper asks: *"what about the model that allows shared
randomness between nodes?"* — in particular, whether the
``Omega(log log r / s)`` crossing bound of Theorem 4.7 (proved for
edge-independent schemes) survives.  This module answers constructively:
**it does not**.

With public coins the 2-party equality sub-protocol inside the Theorem 3.1
compiler no longer needs to ship the evaluation point ``x`` of Lemma A.1 —
or any field element at all.  The textbook public-coin EQ protocol is the
random inner product over GF(2): the coins name a uniformly random subset of
bit positions, each party sends the parity of its string on that subset, and
two different strings disagree with probability exactly 1/2 per coin draw.
``t`` parities give one-sided error ``2^-t`` at a certificate cost of
**t bits — independent of κ and of n**.

:class:`SharedCoinsCompiledRPLS` plugs this into the Theorem 3.1 replication
skeleton: labels still replicate the neighborhood, but certificates shrink
from ``2*ceil(log2 p) = O(log kappa)`` to the constant ``t``.  For MST this
sits far below the ``Omega(log log n)`` certificates any *edge-independent*
scheme must pay (Theorem 5.1) — exhibited in benchmark E17.

The scheme is deliberately **not** edge-independent (all certificates are
functions of the same coins), so it contradicts no theorem in the paper; it
marks out exactly where Definition 4.5 does work in the lower bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.bitstrings import BitString
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.configuration import Configuration
from repro.core.scheme import LabelView, ProofLabelingScheme, VerifierView
from repro.graphs.port_graph import Node


@dataclass(frozen=True)
class _SharedCoinsNodeContext:
    """Per-node trial-invariant state for the engine fast path."""

    width: int
    own_value: int
    stored_values: Tuple[int, ...]
    base_accepts: bool


@dataclass(frozen=True)
class ParityVectorSpec:
    """One node's description for the packed-``uint64`` parity chunk kernel.

    The GF(2) counterpart of
    :class:`~repro.core.fingerprint.FingerprintVectorSpec`: shared-coins
    certificates are inner products ``parity(value & mask)`` over the
    round's public masks, so a node's entire per-trial behaviour is its
    replica *values* (``own_value`` sent, ``stored_values[q]`` checked
    against port ``q``'s message) plus the trial-invariant base verdict.
    ``width`` is the replica bit-width the masks are drawn at and
    ``repetitions`` the number of masks (= certificate bits) per trial —
    the two quantities that fix the shared coin consumption.  See
    :mod:`repro.engine.kernels` for how specs compile into packed XOR-diff
    words.
    """

    width: int
    repetitions: int
    own_value: int
    stored_values: Tuple[int, ...]
    accepts_when_checks_pass: bool


def _parity(value: int) -> int:
    return bin(value).count("1") & 1


class SharedCoinsCompiledRPLS(FingerprintCompiledRPLS):
    """Theorem 3.1 replication + public-coin inner-product equality.

    Must be run under ``randomness="shared"`` (the engine then hands every
    sender the same coin stream and exposes it to verifiers via
    ``view.shared_rng``); running it under a private-coin mode fails loudly
    at verification, because the model mismatch would otherwise silently
    destroy soundness.
    """

    one_sided = True
    edge_independent = False

    def __init__(self, base: ProofLabelingScheme, repetitions: int = 2):
        super().__init__(base, repetitions=max(1, repetitions))
        self.name = f"shared-coins({base.name})"

    def _masks(self, rng: random.Random, width: int) -> list:
        """The round's ``t`` random GF(2) masks, identical at every node."""
        return [rng.getrandbits(width) if width else 0 for _ in range(self.repetitions)]

    def certificate(self, view: LabelView, port: int, rng: random.Random) -> BitString:
        _kappa, replicas = self._parse_label(view)
        own = replicas[0]
        masks = self._masks(rng, own.length)
        return BitString.from_bits(
            [_parity(own.value & mask) for mask in masks]
        )

    def verify_at(self, view: VerifierView) -> bool:
        if view.shared_rng is None:
            raise ValueError(
                "shared-coins scheme requires randomness='shared' "
                "(verifier received no public coin stream)"
            )
        kappa, replicas = self._parse_label(view)
        width = self._replica_width(kappa)
        masks = self._masks(view.shared_rng, width)
        for port in range(view.degree):
            stored_copy = replicas[port + 1]
            expected = BitString.from_bits(
                [_parity(stored_copy.value & mask) for mask in masks]
            )
            if view.messages[port] != expected:
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
    # Overrides the fingerprint compiler's hooks: certificates here are
    # GF(2) parities, not polynomial fingerprints.  The parent hook already
    # parses the label and precomputes the base verdict, so only the replica
    # values are retained.

    # Parity tuples are not RawFingerprints: no message codec, so a noisy
    # channel over this scheme runs the generic path.
    engine_encode_message = None
    engine_decode_message = None

    def engine_node_context(self, view: LabelView) -> _SharedCoinsNodeContext:
        kappa, replicas, base_accepts = self._engine_parse(view)
        return _SharedCoinsNodeContext(
            width=self._replica_width(kappa),
            own_value=replicas[0].value,
            stored_values=tuple(replica.value for replica in replicas[1:]),
            base_accepts=base_accepts,
        )

    def engine_certificate(
        self, context: _SharedCoinsNodeContext, port: int, rng: random.Random
    ) -> Tuple[int, ...]:
        masks = self._masks(rng, context.width)
        own_value = context.own_value
        return tuple(_parity(own_value & mask) for mask in masks)

    def engine_vector_spec(self, context) -> Optional[ParityVectorSpec]:
        """Describe this context to the packed-parity trial-chunk kernel.

        Public-coin certificates are GF(2) inner products, so the
        vectorized *fingerprint* kernel does not apply — instead the
        :class:`ParityVectorSpec` feeds the packed-``uint64`` popcount
        kernel of :mod:`repro.engine.kernels`, which batches every
        ``parity((own ^ stored) & mask)`` check of a Monte-Carlo chunk into
        a few array ops with per-trial verdicts identical to
        :meth:`engine_verify`.  Returns ``None`` (scalar fallback) for
        contexts another subclass produced."""
        if not isinstance(context, _SharedCoinsNodeContext):
            return None
        return ParityVectorSpec(
            width=context.width,
            repetitions=self.repetitions,
            own_value=context.own_value,
            stored_values=context.stored_values,
            accepts_when_checks_pass=context.base_accepts,
        )

    def engine_verify(self, context: _SharedCoinsNodeContext, messages, shared_rng) -> bool:
        if shared_rng is None:
            # Model mismatch: the one-shot verifier raises (and therefore
            # rejects) when run without public coins.
            return False
        masks = self._masks(shared_rng, context.width)
        for stored_value, message in zip(context.stored_values, messages):
            expected = tuple(_parity(stored_value & mask) for mask in masks)
            if message != expected:
                return False
        return context.base_accepts

    def verification_complexity(
        self, configuration: Configuration, seed: int = 0
    ) -> int:
        """Always exactly ``repetitions`` bits — the whole point."""
        return self.repetitions

    def soundness_error(self, configuration: Configuration) -> float:
        """Per-edge probability a differing replica passes all ``t`` parities."""
        return 0.5**self.repetitions
