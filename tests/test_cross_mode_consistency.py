"""Cross-mode decision-consistency: compat / vector agree statistically.

The two ``rng_mode`` settings are *different points of the same
probability space*: the per-trial decisions legitimately differ, but the
acceptance probability they estimate must not.  A fast path that quietly
changed the distribution — a biased draw, a dropped check, a misaligned
counter — is exactly the "fast but wrong" regression these tests exist to
catch: for every scheme with an engine hook, both modes estimate the
same acceptance probability on a shared workload, asserted via
Wilson-interval overlap (each mode's interval must contain a point the
other's interval contains too).

Three workload classes per scheme where they apply:

- **legal** — one-sided completeness: every mode must measure exactly 1.0
  (no tolerance: a single rejecting trial in any mode is a bug);
- **proof fault** — a replica bit-flip detectable only by the randomized
  checks, so acceptance is strictly between 0 and 1 and the comparison is
  a real statistical statement;
- **illegal payloads** (Unif) — the classic nondegenerate soundness case.

The tier-1 core runs a few hundred trials per mode (vector mode is
vectorized, so this is cheap); the ``slow_stats`` tier re-runs the
comparison at 10x depth with tighter intervals via ``make test-stats``.
"""

import pytest

from repro.core.bitstrings import BitString
from repro.core.boosting import BoostedRPLS
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.noise import NoisyChannelRPLS
from repro.core.seeding import derive_trial_seed
from repro.core.shared import SharedCoinsCompiledRPLS
from repro.engine import VerificationPlan, estimate_acceptance_fast
from repro.engine.specs import clean_configuration, iter_specs, scheme_for
from repro.graphs.generators import (
    spanning_tree_configuration,
    uniform_configuration,
)
from repro.schemes.spanning_tree import SpanningTreePLS
from repro.schemes.uniformity import DirectUnifRPLS
from repro.simulation.metrics import wilson_interval

MODES = ("compat", "vector")


def proof_fault_labels(scheme, configuration, trial_count=80, seed=1):
    """Flip one label bit so acceptance is nondegenerate (0 < p < 1).

    Searches low bit positions of each node's label for a flip that leaves
    the plan randomized (no constant verdict) and produces a mixed
    accept/reject pattern — the regime where cross-mode comparison is a
    real statistical statement.  Deterministic for fixed inputs.
    """
    honest = scheme.prover(configuration)
    seeds = [derive_trial_seed(seed, t) for t in range(trial_count)]
    randomness = getattr(scheme, "_cross_mode_randomness", "edge")
    for victim in configuration.graph.nodes:
        label = honest[victim]
        for bit in range(min(label.length, 48)):
            labels = dict(honest)
            labels[victim] = BitString(label.value ^ (1 << bit), label.length)
            plan = VerificationPlan.compile(
                scheme, configuration, labels=labels, randomness=randomness
            )
            if plan.constant_verdict is not None:
                continue
            accepted = sum(plan.run_trial(s) for s in seeds)
            if 0 < accepted < trial_count:
                return labels
    raise AssertionError("no nondegenerate proof fault found")  # pragma: no cover


def estimates_by_mode(scheme, configuration, labels, randomness, trials, seed=3):
    plan = VerificationPlan.compile(
        scheme, configuration, labels=labels, randomness=randomness
    )
    assert plan.uses_fast_path, scheme.name
    return {
        mode: estimate_acceptance_fast(plan, trials, seed=seed, rng_mode=mode)
        for mode in MODES
    }


def assert_wilson_consistent(estimates, context):
    """Every pair of mode intervals overlaps — same underlying probability."""
    intervals = {
        mode: wilson_interval(est.accepted, est.trials)
        for mode, est in estimates.items()
    }
    for mode_a, (low_a, high_a) in intervals.items():
        for mode_b, (low_b, high_b) in intervals.items():
            assert low_a <= high_b and low_b <= high_a, (
                context,
                mode_a,
                intervals[mode_a],
                mode_b,
                intervals[mode_b],
            )


def hook_workloads():
    """Every registered verdict spec on its clean workload, plus the one
    randomness mode no spec covers.

    Iterating :func:`repro.engine.specs.iter_specs` (not a hand-maintained
    list) means a newly registered scheme joins the cross-mode comparison
    automatically.  The single manual row keeps ``randomness="node"``
    covered: the spec layer pins each kernel family to one randomness mode
    (fingerprint→edge), so node randomness is only reachable by compiling
    a scheme directly.
    """
    rows = [
        (spec.name, scheme_for(spec), clean_configuration(spec, seed=11), spec.randomness)
        for spec in iter_specs()
    ]
    rows.append(
        (
            "compiled-node",
            FingerprintCompiledRPLS(SpanningTreePLS()),
            spanning_tree_configuration(14, 4, seed=11),
            "node",
        )
    )
    return rows


class TestLegalCompleteness:
    """One-sided schemes accept legal states with probability exactly 1 in
    every rng mode — no statistical tolerance applies."""

    @pytest.mark.parametrize(
        "name,scheme,configuration,randomness",
        hook_workloads(),
        ids=[w[0] for w in hook_workloads()],
    )
    def test_all_modes_accept_legal_state(self, name, scheme, configuration, randomness):
        labels = scheme.prover(configuration)
        estimates = estimates_by_mode(
            scheme, configuration, labels, randomness, trials=60
        )
        for mode, estimate in estimates.items():
            assert estimate.probability == 1.0, (name, mode, estimate)


class TestNondegenerateConsistency:
    """Workloads with 0 < p < 1: the modes' Wilson intervals must overlap."""

    def test_compiled_proof_fault(self):
        config = spanning_tree_configuration(12, 4, seed=21)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = proof_fault_labels(scheme, config)
        estimates = estimates_by_mode(scheme, config, labels, "edge", trials=300)
        assert_wilson_consistent(estimates, "compiled-proof-fault")

    def test_shared_coins_proof_fault(self):
        config = spanning_tree_configuration(12, 4, seed=22)
        scheme = SharedCoinsCompiledRPLS(SpanningTreePLS(), repetitions=2)
        scheme._cross_mode_randomness = "shared"
        labels = proof_fault_labels(scheme, config)
        estimates = estimates_by_mode(scheme, config, labels, "shared", trials=300)
        assert_wilson_consistent(estimates, "shared-coins-proof-fault")

    def test_unif_unequal_payloads(self):
        config = uniform_configuration(10, 24, equal=False, seed=23)
        scheme = DirectUnifRPLS()
        labels = scheme.prover(config)
        estimates = estimates_by_mode(scheme, config, labels, "edge", trials=300)
        assert_wilson_consistent(estimates, "unif-unequal")

    def test_boosted_stale_state_rejects_in_every_mode(self):
        """Boosting squares the already-tiny single-bit collision rate
        (~1/p per repetition), so no proof fault yields a measurably
        nondegenerate p — instead pin the exact-zero side: honest labels on
        a corrupted state reject deterministically in every mode.  (The
        boosted wrapper's randomized behaviour is covered per trial by the
        bit-identity suite in test_engine.py.)"""
        from repro.graphs.generators import corrupt_spanning_tree

        config = spanning_tree_configuration(12, 4, seed=24)
        corrupted = corrupt_spanning_tree(config, seed=25)
        scheme = BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 2)
        labels = scheme.prover(config)
        estimates = estimates_by_mode(scheme, corrupted, labels, "edge", trials=60)
        for mode, estimate in estimates.items():
            assert estimate.probability == 0.0, (mode, estimate)


@pytest.mark.slow_stats
class TestDeepConsistency:
    """The same comparisons at 10x trials: tighter intervals, harder test."""

    @pytest.mark.parametrize(
        "name,scheme,configuration,randomness",
        hook_workloads(),
        ids=[w[0] for w in hook_workloads()],
    )
    def test_all_modes_accept_legal_state_deep(
        self, name, scheme, configuration, randomness
    ):
        labels = scheme.prover(configuration)
        estimates = estimates_by_mode(
            scheme, configuration, labels, randomness, trials=600
        )
        for mode, estimate in estimates.items():
            assert estimate.probability == 1.0, (name, mode, estimate)

    @pytest.mark.parametrize("master_seed", (5, 6, 7))
    def test_compiled_proof_fault_deep(self, master_seed):
        config = spanning_tree_configuration(14, 5, seed=25)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = proof_fault_labels(scheme, config)
        estimates = estimates_by_mode(
            scheme, config, labels, "edge", trials=3000, seed=master_seed
        )
        assert_wilson_consistent(estimates, ("compiled-deep", master_seed))

    @pytest.mark.parametrize("master_seed", (8, 9))
    def test_shared_coins_proof_fault_deep(self, master_seed):
        config = spanning_tree_configuration(14, 5, seed=26)
        scheme = SharedCoinsCompiledRPLS(SpanningTreePLS(), repetitions=3)
        scheme._cross_mode_randomness = "shared"
        labels = proof_fault_labels(scheme, config)
        estimates = estimates_by_mode(
            scheme, config, labels, "shared", trials=3000, seed=master_seed
        )
        assert_wilson_consistent(estimates, ("shared-coins-deep", master_seed))

    @pytest.mark.parametrize("master_seed", (10, 11))
    def test_noisy_channel_deep(self, master_seed):
        # Two-sided on honest labels: every mode runs the scalar hook path,
        # compat on string-seeded streams, vector on one counter stream.
        config = spanning_tree_configuration(24, 6, seed=1)
        scheme = NoisyChannelRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 0.002)
        estimates = estimates_by_mode(
            scheme, config, scheme.prover(config), "edge", trials=3000, seed=master_seed
        )
        for estimate in estimates.values():
            assert 0 < estimate.accepted < estimate.trials
        assert_wilson_consistent(estimates, ("noisy-deep", master_seed))
