"""Integration tests: full pipelines across packages.

These mirror how a downstream user strings the library together — generator
-> prover -> network round -> verifier -> attack — and assert the paper's
top-level story end to end.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.core.boosting import BoostedRPLS
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.verifier import verify_deterministic, verify_randomized
from repro.engine import estimate_acceptance_batched
from repro.graphs.generators import (
    corrupt_mst_swap,
    line_configuration,
    mst_configuration,
)
from repro.lowerbounds.bounds import deterministic_crossing_threshold
from repro.lowerbounds.crossing_attack import (
    deterministic_crossing_attack,
    path_gadgets,
)
from repro.lowerbounds.truncation import ModularAcyclicityPLS
from repro.schemes.acyclicity import AcyclicityPredicate
from repro.schemes.mst import MSTPLS, mst_rpls


def test_every_module_imports():
    """The whole package tree imports cleanly (no hidden cycles)."""
    failures = []
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            importlib.import_module(module_info.name)
        except Exception as error:  # pragma: no cover - diagnostic
            failures.append((module_info.name, error))
    assert not failures


def test_the_papers_story_on_mst():
    """The abstract, as a test: randomization reduces verification
    communication exponentially while soundness survives."""
    network = mst_configuration(200, seed=42)

    deterministic = MSTPLS()
    randomized = mst_rpls()

    det_run = verify_deterministic(deterministic, network)
    rand_run = verify_randomized(randomized, network, seed=0)
    assert det_run.accepted and rand_run.accepted

    # Exponential reduction: Theta(log^2 n) vs Theta(log log n).
    assert det_run.max_label_bits > 10 * rand_run.max_certificate_bits

    # Per-round traffic shrinks accordingly.
    assert det_run.round_stats.total_bits > 5 * rand_run.round_stats.total_bits

    # Soundness: the subtle corruption is caught with probability >= 1/2,
    # boostable to (1/2)^t.
    faulty = corrupt_mst_swap(network, seed=7)
    faulty_labels = randomized.prover(faulty)
    single = estimate_acceptance_batched(
        randomized, faulty, trials=20, labels=faulty_labels
    )
    assert single.probability < 0.5
    boosted = BoostedRPLS(randomized, repetitions=4)
    boosted_estimate = estimate_acceptance_batched(
        boosted, faulty, trials=20, labels=faulty_labels
    )
    assert boosted_estimate.probability <= single.probability


def test_upper_and_lower_bounds_meet():
    """Theorem 4.4 vs the honest scheme: the attack succeeds exactly where
    the paper says schemes cannot exist, and fails against a scheme sized
    above the bound."""
    configuration = line_configuration(240)
    gadgets = path_gadgets(configuration)
    threshold = deterministic_crossing_threshold(gadgets.r, gadgets.s)

    doomed = ModularAcyclicityPLS(int(threshold))
    result = deterministic_crossing_attack(doomed, gadgets)
    assert result.fooled
    assert not AcyclicityPredicate().holds(result.crossed_configuration)

    comfortable = ModularAcyclicityPLS(12)  # >> log2(n), labels unique
    result = deterministic_crossing_attack(comfortable, gadgets)
    assert not result.collision_found


def test_compiled_scheme_is_oblivious_to_epsilon():
    """Section 1: epsilon can be pushed arbitrarily down by tuning, with only
    constant-factor certificate growth."""
    network = mst_configuration(60, seed=3)
    sizes = []
    for repetitions in (1, 2, 4):
        scheme = FingerprintCompiledRPLS(MSTPLS(), repetitions=repetitions)
        assert verify_randomized(scheme, network, seed=1).accepted
        sizes.append(scheme.verification_complexity(network))
        assert scheme.soundness_error(network) < (1 / 3) ** repetitions
    assert sizes[1] == 2 * sizes[0]
    assert sizes[2] == 4 * sizes[0]


def test_randomness_modes_agree_on_completeness():
    """Edge-independent vs node-shared randomness: completeness holds either
    way for one-sided schemes (the open-question knob is exercised)."""
    network = mst_configuration(40, seed=9)
    scheme = mst_rpls()
    for mode in ("edge", "node"):
        run = verify_randomized(scheme, network, seed=2, randomness=mode)
        assert run.accepted, mode
