#!/usr/bin/env python3
"""Any predicate, O(log n + log k) random bits (Lemma 3.3 / Corollary 3.4).

The universal construction certifies *every* (decidable) predicate: the
label is a full description of the configuration, checked locally for
consistency and globally for the predicate.  Deterministically that costs
configuration-sized labels; the Theorem 3.1 compiler shrinks the traffic to
O(log n + log k) bits.

This example certifies a predicate with no bespoke scheme anywhere in the
library — "the graph is symmetric" (Sym, Figures 3-4) — and reports both
sizes on gadget graphs where Sym's truth is controlled by construction.

Run:  python examples/universal_scheme.py
"""

from repro.core.bitstrings import BitString
from repro.core.verifier import verify_deterministic, verify_randomized
from repro.engine import estimate_acceptance_batched
from repro.graphs.generators import sym_pair_configuration
from repro.schemes.symmetry import SymPredicate, sym_universal_rpls, sym_universal_scheme


def main() -> None:
    word = BitString.from_int(0b10110, 5)
    twisted = BitString.from_int(0b10111, 5)

    symmetric, _cut, _a, _b = sym_pair_configuration(word, word)
    asymmetric, *_ = sym_pair_configuration(word, twisted)
    predicate = SymPredicate()
    print(f"G(z, z) satisfies Sym:  {predicate.holds(symmetric)}")
    print(f"G(z, z') satisfies Sym: {predicate.holds(asymmetric)} (Claim C.2)\n")

    pls = sym_universal_scheme()
    run = verify_deterministic(pls, symmetric)
    print(f"universal PLS accepts G(z, z): {run.accepted}")
    print(f"  label size: {run.max_label_bits} bits "
          f"(the label is the whole configuration, n={symmetric.node_count})")

    rpls = sym_universal_rpls()
    random_run = verify_randomized(rpls, symmetric, seed=0)
    print(f"universal RPLS accepts G(z, z): {random_run.accepted}")
    print(f"  certificate size: {random_run.max_certificate_bits} bits — "
          f"O(log n + log k), Corollary 3.4\n")

    # Soundness: try to pass the asymmetric gadget off with the labels of the
    # symmetric one (they describe a different graph, so consistency breaks).
    estimate = estimate_acceptance_batched(
        rpls, asymmetric, trials=30, labels=rpls.prover(asymmetric)
    )
    print(f"universal RPLS acceptance on G(z, z'): {estimate}")


if __name__ == "__main__":
    main()
