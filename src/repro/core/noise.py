"""Two-sided schemes from channel noise.

Every concrete scheme in this library is one-sided (legal configurations are
accepted with probability 1), matching the paper's Section 5 remark.  The
paper's *two-sided* machinery — the 2/3-2/3 error model of Section 2.2, the
run-level majority boosting of footnote 1, and the ε-rounded-distribution
crossing attack of Proposition 4.6 — still needs genuinely two-sided objects
to exercise.  This module manufactures them the way they arise in practice:
**unreliable links**.

:class:`NoisyChannelRPLS` wraps any RPLS and flips each certificate bit
independently with probability ``flip_probability`` at the sender.  The
wrapped scheme is still a legitimate RPLS (the noise is just part of the
randomized certificate generator, and it stays edge-independent if the base
is), but it now errs on legal configurations: a single flipped bit usually
breaks a fingerprint match, so

    Pr[accept legal]  >=  (1 - p) ** B

where ``B`` is the total number of certificate bits shipped in the round
(:meth:`NoisyChannelRPLS.completeness_lower_bound` computes this exactly).
Choosing ``p`` small enough keeps the scheme inside the paper's
``p_accept >= 2/3`` regime, and footnote 1's majority vote
(:func:`repro.core.boosting.majority_decision`) then drives the error down —
the standard BPP-style amplification the tests verify end-to-end.

The wrapper has engine hooks (see :mod:`repro.engine.plan`) whenever its
base offers hooks plus a message codec, as the Theorem 3.1 compiler does.
The certificate is the base hook's message, then one ``rng.random()`` per
packed bit, the same draws :meth:`NoisyChannelRPLS.certificate` makes; a
non-zero flip mask is applied by packing the message, XOR-ing, and
unpacking.  Compat decisions therefore stay identical to the one-shot
oracle, and the counter-based ``vector`` rng mode runs too.  There is no
numpy kernel, so noisy plans run the scalar hook path.  A base without a
codec (``DirectUnifRPLS``, the shared-coins compiler) keeps the generic
plan path.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.bitstrings import BitString
from repro.core.configuration import Configuration
from repro.core.scheme import (
    LabelView,
    RandomizedScheme,
    SchemeParams,
    VerifierView,
    derive_rng,
    engine_hooks_available,
)
from repro.graphs.port_graph import Node


class NoisyChannelRPLS(RandomizedScheme):
    """A base RPLS whose certificates traverse a binary symmetric channel.

    ``flip_probability`` is the per-bit flip rate ``p`` of the channel.  The
    flips are sampled from the same per-(node, port) RNG stream as the base
    certificate, so Definition 4.5 edge-independence is preserved.
    """

    def __init__(self, base: RandomizedScheme, flip_probability: float):
        if not 0 <= flip_probability < 0.5:
            raise ValueError("flip probability must be in [0, 0.5)")
        super().__init__(base.predicate)
        self.base = base
        self.flip_probability = flip_probability
        self.one_sided = flip_probability == 0 and base.one_sided
        self.edge_independent = base.edge_independent
        self.name = f"noisy({base.name}, p={flip_probability})"

    def prover(self, configuration: Configuration) -> Dict[Node, BitString]:
        return self.base.prover(configuration)

    def certificate(self, view: LabelView, port: int, rng: random.Random) -> BitString:
        clean = self.base.certificate(view, port, rng)
        if self.flip_probability == 0 or clean.length == 0:
            return clean
        value = clean.value
        for position in range(clean.length):
            if rng.random() < self.flip_probability:
                value ^= 1 << position
        return BitString(value, clean.length)

    def verify_at(self, view: VerifierView) -> bool:
        return self.base.verify_at(view)

    # -- batched-engine fast path ------------------------------------------------
    #
    # The channel acts on packed bits, so the hook path needs the base's
    # message codec on top of its hooks: the certificate is the base hook's
    # message, one rng.random() per packed bit exactly as certificate()
    # draws them, and a non-zero flip mask applied through encode / decode.
    # Verification is the base hook's.

    def engine_ready(self) -> bool:
        base = self.base
        return (
            engine_hooks_available(base)
            and getattr(base, "engine_encode_message", None) is not None
            and getattr(base, "engine_decode_message", None) is not None
        )

    def engine_node_context(self, view: LabelView):
        return self.base.engine_node_context(view)

    def engine_certificate(self, context, port: int, rng: random.Random):
        message = self.base.engine_certificate(context, port, rng)
        flip_probability = self.flip_probability
        if flip_probability == 0:
            return message
        packed = self.base.engine_encode_message(context, message)
        draw = rng.random
        mask = 0
        for position in range(packed.length):
            if draw() < flip_probability:
                mask |= 1 << position
        if not mask:
            return message
        return self.base.engine_decode_message(
            context, BitString(packed.value ^ mask, packed.length)
        )

    def engine_verify(self, context, messages, shared_rng) -> bool:
        return self.base.engine_verify(context, messages, shared_rng)

    def round_bits(self, configuration: Configuration, seed: int = 0) -> int:
        """Total certificate bits shipped in one verification round (both
        directions of every edge)."""
        labels = self.base.prover(configuration)
        params = SchemeParams.from_configuration(configuration)
        total = 0
        for node in configuration.graph.nodes:
            view = LabelView(
                node=node,
                state=configuration.state(node),
                degree=configuration.graph.degree(node),
                params=params,
                own_label=labels[node],
            )
            for port in range(configuration.graph.degree(node)):
                rng = derive_rng(seed, node, port)
                total += self.base.certificate(view, port, rng).length
        return total

    def completeness_lower_bound(self, configuration: Configuration) -> float:
        """``(1 - p) ** B``: accept-probability floor on a legal configuration.

        A run with zero flipped bits is distributed exactly like the base
        scheme's run, which accepts legal configurations with probability 1
        (one-sided base) — so no-flips implies accept.
        """
        return (1.0 - self.flip_probability) ** self.round_bits(configuration)


def flip_probability_for_completeness(
    target: float, round_bits: int
) -> float:
    """The largest per-bit flip rate keeping ``(1-p)^B >= target``.

    >>> round(flip_probability_for_completeness(2/3, 100), 6)
    0.004046
    """
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    if round_bits <= 0:
        return 0.49
    return min(0.49, 1.0 - target ** (1.0 / round_bits))
