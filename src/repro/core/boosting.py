"""Error boosting — the paper's footnote 1.

"We can boost the probability of correctness to ``1 - delta`` by repeating
the verification procedure ``O(log(1/delta))`` times independently and
outputting the majority of outcomes."

Two flavours live here:

- :class:`BoostedRPLS` — *certificate-level* repetition for one-sided
  schemes: each certificate carries ``t`` independent sub-certificates and a
  node accepts only if every repetition accepts.  Legal configurations are
  still accepted with probability 1; an illegal configuration survives all
  ``t`` independent rounds with probability at most ``(1 - p_reject)^t <=
  2^-t``.  Every concrete scheme in this library is one-sided, so this is the
  flavour the benchmarks sweep.
- :func:`majority_decision` — *run-level* majority for two-sided schemes:
  the global verification outcome (a single accept/reject bit) is resampled
  ``t`` times and the majority wins.  This matches the footnote literally;
  it is a property of how the surrounding system consumes the verifier's
  output rather than of the message protocol, which is why it is a driver
  function and not a scheme wrapper.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Dict, Optional

from repro.core.bitstrings import BitReader, BitString, BitWriter
from repro.core.configuration import Configuration
from repro.core.fingerprint import FingerprintVectorSpec
from repro.core.scheme import (
    LabelView,
    RandomizedScheme,
    VerifierView,
    engine_hooks_available,
)
from repro.graphs.port_graph import Node


class BoostedRPLS(RandomizedScheme):
    """Certificate-level repetition of a one-sided RPLS.

    Certificates are framed with per-repetition varuint lengths so the
    receiver can split them without out-of-band agreement; the framing adds
    ``O(t log kappa)`` bits, preserving the asymptotics.
    """

    one_sided = True
    edge_independent = True

    def __init__(self, base: RandomizedScheme, repetitions: int):
        if repetitions < 1:
            raise ValueError("need at least one repetition")
        if not base.one_sided:
            raise ValueError(
                "certificate-level boosting requires a one-sided base scheme; "
                "use majority_decision for two-sided schemes"
            )
        super().__init__(base.predicate)
        self.base = base
        self.repetitions = repetitions
        self.name = f"boosted({base.name}, t={repetitions})"

    def prover(self, configuration: Configuration) -> Dict[Node, BitString]:
        return self.base.prover(configuration)

    def certificate(self, view: LabelView, port: int, rng: random.Random) -> BitString:
        writer = BitWriter()
        for _ in range(self.repetitions):
            sub_certificate = self.base.certificate(view, port, rng)
            writer.write_varuint(sub_certificate.length)
            writer.write_bitstring(sub_certificate)
        return writer.finish()

    def _split(self, certificate: BitString) -> list:
        reader = BitReader(certificate)
        parts = []
        for _ in range(self.repetitions):
            width = reader.read_varuint()
            parts.append(reader.read_bitstring(width))
        reader.expect_exhausted()
        return parts

    def verify_at(self, view: VerifierView) -> bool:
        split_messages = [self._split(message) for message in view.messages]
        for repetition in range(self.repetitions):
            round_view = VerifierView(
                node=view.node,
                state=view.state,
                degree=view.degree,
                params=view.params,
                own_label=view.own_label,
                messages=tuple(parts[repetition] for parts in split_messages),
            )
            if not self.base.verify_at(round_view):
                return False
        return True

    def error_upper_bound(self) -> float:
        """``Pr[accept an illegal configuration] <= (1/2)^t``."""
        return 0.5**self.repetitions

    # -- batched-engine fast path ------------------------------------------------
    #
    # Boosting is pure repetition, so the wrapper's fast path exists exactly
    # when the base scheme has one: the context is the base context, and a
    # certificate is the tuple of ``t`` base certificates drawn from one
    # stream (the same rng consumption order as the packed path).

    def engine_ready(self) -> bool:
        return engine_hooks_available(self.base)

    def engine_node_context(self, view: LabelView):
        return self.base.engine_node_context(view)

    def engine_certificate(self, context, port: int, rng: random.Random):
        base_certificate = self.base.engine_certificate
        return tuple(
            base_certificate(context, port, rng) for _ in range(self.repetitions)
        )

    def engine_verify(self, context, messages, shared_rng) -> bool:
        base_verify = self.base.engine_verify
        for repetition in range(self.repetitions):
            # The packed path rebuilds each repetition's view without the
            # public-coin stream, so the base verifier sees None there too.
            round_messages = tuple(message[repetition] for message in messages)
            if not base_verify(context, round_messages, None):
                return False
        return True

    def engine_vector_spec(self, context):
        """Boosting is ``t``-fold repetition, so the vectorized description
        is the base scheme's with ``t`` times the query-point draws per
        half-edge: the boosted certificate call draws all ``t``
        sub-certificates from one stream in sequence, and the boosted
        verifier accepts exactly when every sub-certificate point checks.
        Only fingerprint specs compose this way — a parity spec's coin
        consumption is re-derived by the *verifier*, which boosting runs
        without public coins (a degenerate always-reject); those plans stay
        on the scalar path."""
        spec_hook = getattr(self.base, "engine_vector_spec", None)
        if spec_hook is None:
            return None
        spec = spec_hook(context)
        if not isinstance(spec, FingerprintVectorSpec):
            return None
        return replace(spec, draws=spec.draws * self.repetitions)


def repetitions_for_delta(delta: float, per_round_error: float = 0.5) -> int:
    """Smallest ``t`` with ``per_round_error^t <= delta`` — the footnote's
    ``O(log(1/delta))``.

    >>> repetitions_for_delta(1e-3)
    10
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not 0 < per_round_error < 1:
        raise ValueError("per_round_error must be in (0, 1)")
    return max(1, math.ceil(math.log(delta) / math.log(per_round_error)))


def majority_decision(
    scheme: RandomizedScheme,
    configuration: Configuration,
    repetitions: int,
    seed: int = 0,
    labels: Optional[Dict[Node, BitString]] = None,
) -> bool:
    """Run-level majority vote over ``repetitions`` independent verifications.

    Implements footnote 1 for two-sided schemes: if a single run is correct
    with probability ``2/3``, a Chernoff bound puts the majority's error at
    ``exp(-Omega(t))``.  The votes are the engine's compat-mode trials,
    repetition ``r`` seeded by ``derive_trial_seed(seed, r)`` — each one the
    decision ``verify_randomized`` makes on that seed.
    """
    from repro.engine.montecarlo import estimate_acceptance_batched  # avoid cycle

    if repetitions < 1:
        raise ValueError("need at least one repetition")
    accepts = estimate_acceptance_batched(
        scheme, configuration, repetitions, seed=seed, labels=labels
    ).accepted
    return accepts * 2 > repetitions
