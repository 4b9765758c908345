"""Tests for the batched verification engine (repro.engine).

The engine's load-bearing promise is *decision equivalence*: in the default
compat/mix modes, ``VerificationPlan.run_trial`` must reproduce the exact
accept/reject decision of the one-shot reference engine for every trial
seed, scheme, randomness mode, and label assignment — including forged and
outright malformed labels.  The property tests here drive that promise per
trial (not just on aggregate counts) across hook-bearing and generic-path
schemes.
"""

import random

import pytest

from repro.core.bitstrings import BitString
from repro.core.boosting import BoostedRPLS
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.noise import NoisyChannelRPLS
from repro.core.seeding import (
    derive_stream_seed,
    derive_trial_seed,
    splitmix64,
)
from repro.core.shared import SharedCoinsCompiledRPLS
from repro.core.verifier import estimate_acceptance, verify_randomized
from repro.engine import (
    PlanCache,
    VerificationPlan,
    estimate_acceptance_batched,
    estimate_acceptance_fast,
)
from repro.engine.plan import RNG_MODES
from repro.engine.specs import build_scheme, clean_configuration, get_spec, spec_names
from repro.graphs.generators import (
    corrupt_mst_swap,
    corrupt_spanning_tree,
    flow_configuration,
    mst_configuration,
    spanning_tree_configuration,
    uniform_configuration,
)
from repro.graphs.workloads import corrupt_distance, distance_configuration
from repro.schemes.distance import distance_engine_plan, distance_rpls
from repro.schemes.flow import k_flow_engine_plan, k_flow_rpls
from repro.schemes.mst import mst_engine_plan, mst_rpls
from repro.schemes.spanning_tree import SpanningTreePLS
from repro.schemes.uniformity import DirectUnifRPLS
from repro.substrates.gf import numpy_available

TRIALS = 30
MASTER_SEEDS = (0, 7)
ALL_MODES = ("edge", "node", "shared")


def _assert_trialwise_identical(scheme, configuration, labels, randomness, trials=TRIALS):
    """Every individual trial decision matches the reference oracle."""
    plan = VerificationPlan.compile(
        scheme, configuration, labels=labels, randomness=randomness
    )
    for master in MASTER_SEEDS:
        for trial in range(trials):
            trial_seed = derive_trial_seed(master, trial)
            reference = verify_randomized(
                scheme,
                configuration,
                seed=trial_seed,
                labels=labels,
                randomness=randomness,
            ).accepted
            assert plan.run_trial(trial_seed) == reference, (
                scheme.name,
                randomness,
                master,
                trial,
            )


class TestDecisionEquivalence:
    """Bit-identical accept/reject versus the legacy per-trial path."""

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_compiled_scheme_legal(self, randomness):
        config = spanning_tree_configuration(18, 6, seed=1)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = scheme.prover(config)
        _assert_trialwise_identical(scheme, config, labels, randomness)

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_compiled_scheme_stale_labels(self, randomness):
        """Legal labels on a corrupted configuration — the soundness side."""
        config = spanning_tree_configuration(18, 6, seed=2)
        corrupted = corrupt_spanning_tree(config, seed=3)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = scheme.prover(config)
        _assert_trialwise_identical(scheme, corrupted, labels, randomness)

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_unif_scheme_unequal_payloads(self, randomness):
        config = uniform_configuration(12, 6, equal=False, seed=4)
        scheme = DirectUnifRPLS()
        labels = scheme.prover(config)
        _assert_trialwise_identical(scheme, config, labels, randomness)

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_boosted_scheme(self, randomness):
        config = uniform_configuration(10, 6, equal=False, seed=5)
        scheme = BoostedRPLS(DirectUnifRPLS(), repetitions=3)
        labels = scheme.prover(config)
        _assert_trialwise_identical(scheme, config, labels, randomness)

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_boosted_compiled_scheme(self, randomness):
        config = spanning_tree_configuration(14, 4, seed=6)
        scheme = BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 2)
        labels = scheme.prover(config)
        _assert_trialwise_identical(scheme, config, labels, randomness)

    def test_shared_coins_scheme(self):
        config = spanning_tree_configuration(16, 5, seed=7)
        scheme = SharedCoinsCompiledRPLS(SpanningTreePLS())
        labels = scheme.prover(config)
        _assert_trialwise_identical(scheme, config, labels, "shared")

    def test_shared_coins_scheme_wrong_mode_rejects(self):
        """Model mismatch rejects identically through both paths."""
        config = spanning_tree_configuration(10, 3, seed=8)
        scheme = SharedCoinsCompiledRPLS(SpanningTreePLS())
        labels = scheme.prover(config)
        plan = VerificationPlan.compile(scheme, config, labels=labels, randomness="edge")
        trial_seed = derive_trial_seed(0, 0)
        assert plan.run_trial(trial_seed) is False
        assert not verify_randomized(
            scheme, config, seed=trial_seed, labels=labels, randomness="edge"
        ).accepted

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_generic_path_scheme(self, randomness):
        """A scheme without hooks exercises the generic (certificate-exact)
        path: a noisy channel over a base with hooks but no message codec."""
        config = uniform_configuration(10, 16, equal=True, seed=9)
        scheme = NoisyChannelRPLS(DirectUnifRPLS(), flip_probability=0.02)
        labels = scheme.prover(config)
        plan = VerificationPlan.compile(
            scheme, config, labels=labels, randomness=randomness
        )
        assert not plan.uses_fast_path
        _assert_trialwise_identical(scheme, config, labels, randomness)

    def test_fast_path_flags(self):
        config = uniform_configuration(6, 8, equal=True, seed=10)
        compiled = DirectUnifRPLS()
        assert VerificationPlan.compile(compiled, config).uses_fast_path
        noisy = NoisyChannelRPLS(compiled, 0.0)  # the base has no message codec
        assert not VerificationPlan.compile(noisy, config).uses_fast_path
        # A wrapper is only as fast as what it wraps.
        boosted_noisy = BoostedRPLS(noisy, 2)
        assert not VerificationPlan.compile(boosted_noisy, config).uses_fast_path
        boosted = BoostedRPLS(compiled, 2)
        assert VerificationPlan.compile(boosted, config).uses_fast_path

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_mst_scheme_hooks(self, randomness):
        """Theorem 5.1's compiled MST RPLS through the engine fast path."""
        config = mst_configuration(12, seed=40)
        scheme = mst_rpls()
        labels = scheme.prover(config)
        plan = VerificationPlan.compile(
            scheme, config, labels=labels, randomness=randomness
        )
        assert plan.uses_fast_path
        _assert_trialwise_identical(scheme, config, labels, randomness, trials=10)

    @pytest.mark.parametrize("randomness", ("edge", "shared"))
    def test_mst_scheme_stale_labels(self, randomness):
        """Soundness side: honest labels on a tree-swapped configuration."""
        config = mst_configuration(12, seed=41)
        corrupted = corrupt_mst_swap(config, seed=42)
        scheme = mst_rpls()
        labels = scheme.prover(config)
        _assert_trialwise_identical(scheme, corrupted, labels, randomness, trials=10)

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_flow_scheme_hooks(self, randomness):
        """Section 5.2's compiled k-flow RPLS through the engine fast path."""
        config = flow_configuration(2, path_length=3, decoy_edges=2, seed=43)
        scheme = k_flow_rpls()
        labels = scheme.prover(config)
        plan = VerificationPlan.compile(
            scheme, config, labels=labels, randomness=randomness
        )
        assert plan.uses_fast_path
        _assert_trialwise_identical(scheme, config, labels, randomness, trials=10)

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_distance_scheme_hooks(self, randomness):
        """The compiled SSSP-distance RPLS through the engine fast path."""
        config = distance_configuration(14, 5, seed=44, weighted=True)
        scheme = distance_rpls(weighted=True)
        labels = scheme.prover(config)
        plan = VerificationPlan.compile(
            scheme, config, labels=labels, randomness=randomness
        )
        assert plan.uses_fast_path
        _assert_trialwise_identical(scheme, config, labels, randomness, trials=10)

    @pytest.mark.parametrize("randomness", ("edge", "node"))
    def test_distance_scheme_stale_labels(self, randomness):
        """Honest relabeling of a corrupted distance claim — the engine must
        reproduce the oracle's (deterministic-reject) decisions exactly."""
        config = distance_configuration(14, 5, seed=45)
        corrupted = corrupt_distance(config, seed=46)
        scheme = distance_rpls()
        labels = scheme.prover(corrupted)
        _assert_trialwise_identical(scheme, corrupted, labels, randomness, trials=10)

    def test_engine_plan_helpers_take_fast_path(self):
        """The scheme-module plan helpers never fall back to the generic
        path — this is what keeps the MST/flow/distance benchmarks off the
        legacy oracle."""
        mst_plan = mst_engine_plan(mst_configuration(10, seed=47))
        flow_plan = k_flow_engine_plan(
            flow_configuration(2, path_length=3, decoy_edges=1, seed=48)
        )
        dist_plan = distance_engine_plan(distance_configuration(10, 3, seed=49))
        for plan in (mst_plan, flow_plan, dist_plan):
            assert plan.uses_fast_path
            assert plan.constant_verdict is None
            assert plan.run_trial(derive_trial_seed(0, 0)) is True


class TestMalformedLabels:
    """Forged labels that do not even parse must reject, not crash."""

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_garbage_labels_rejected_identically(self, randomness):
        config = spanning_tree_configuration(12, 4, seed=11)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = scheme.prover(config)
        rng = random.Random(12)
        victim = config.graph.nodes[rng.randrange(config.node_count)]
        forged = dict(labels)
        forged[victim] = BitString.from_int(rng.getrandbits(11), 17)
        plan = VerificationPlan.compile(
            scheme, config, labels=forged, randomness=randomness
        )
        for trial in range(10):
            trial_seed = derive_trial_seed(13, trial)
            reference = verify_randomized(
                scheme, config, seed=trial_seed, labels=forged, randomness=randomness
            )
            assert plan.run_trial(trial_seed) == reference.accepted
            assert not reference.accepted

    def test_malformed_certificate_rejects_through_engine(self):
        """Regression: a node whose label cannot produce certificates makes
        the engine reject the round (legacy semantics: the node ships empty
        certificates, neighbors reject them, and the node rejects itself)."""
        config = uniform_configuration(8, 8, equal=True, seed=14)
        scheme = DirectUnifRPLS()
        labels = scheme.prover(config)
        # A payload that is not a BitString breaks both the certificate
        # generator and the node's own verifier.
        victim = config.graph.nodes[0]
        broken = config.with_state(
            victim, config.state(victim).with_fields(payload="not-bits")
        )
        plan = VerificationPlan.compile(scheme, broken, labels=labels)
        assert plan.uses_fast_path
        for trial in range(5):
            trial_seed = derive_trial_seed(15, trial)
            assert plan.run_trial(trial_seed) is False
            assert not verify_randomized(
                scheme, broken, seed=trial_seed, labels=labels
            ).accepted


class TestEstimators:
    def test_estimate_matches_reference_counts(self):
        config = uniform_configuration(10, 6, equal=False, seed=16)
        scheme = DirectUnifRPLS()
        labels = scheme.prover(config)
        reference = estimate_acceptance(
            scheme, config, trials=60, seed=17, labels=labels
        )
        batched = estimate_acceptance_batched(
            scheme, config, trials=60, seed=17, labels=labels
        )
        assert (batched.accepted, batched.trials) == (
            reference.accepted,
            reference.trials,
        )

    def test_chunking_is_invisible(self, set_chunk):
        config = uniform_configuration(8, 6, equal=False, seed=20)
        scheme = DirectUnifRPLS()
        plan = VerificationPlan.compile(scheme, config)
        set_chunk(50)
        coarse = estimate_acceptance_fast(plan, 50, seed=21)
        set_chunk(7)
        fine = estimate_acceptance_fast(plan, 50, seed=21)
        assert (coarse.accepted, coarse.trials) == (fine.accepted, fine.trials)

    def test_early_exit_stops_on_tight_interval(self, set_chunk):
        # Completeness of a one-sided scheme: every trial accepts, the
        # Wilson interval collapses quickly, and the estimator stops at the
        # first eligible checkpoint.
        config = uniform_configuration(10, 32, equal=True, seed=22)
        scheme = DirectUnifRPLS()
        plan = VerificationPlan.compile(scheme, config)
        set_chunk(25)
        estimate = estimate_acceptance_fast(
            plan,
            10_000,
            seed=23,
            min_trials=50,
            stop_halfwidth=0.1,
        )
        assert estimate.trials == 50
        assert estimate.probability == 1.0

    def test_early_exit_decisions_are_a_prefix(self, set_chunk):
        config = uniform_configuration(10, 6, equal=False, seed=24)
        scheme = DirectUnifRPLS()
        plan = VerificationPlan.compile(scheme, config)
        set_chunk(50)
        full = estimate_acceptance_fast(plan, 200, seed=25)
        stopped = estimate_acceptance_fast(
            plan, 200, seed=25, min_trials=50, stop_halfwidth=0.2
        )
        assert stopped.trials <= full.trials
        # Re-running exactly stopped.trials trials reproduces the count.
        again = estimate_acceptance_fast(plan, stopped.trials, seed=25)
        assert again.accepted == stopped.accepted

    def test_validation(self):
        config = uniform_configuration(6, 4, equal=True, seed=26)
        plan = VerificationPlan.compile(DirectUnifRPLS(), config)
        with pytest.raises(ValueError):
            estimate_acceptance_fast(plan, 0)
        with pytest.raises(ValueError):
            estimate_acceptance_fast(plan, 10, stop_halfwidth=0.0)
        with pytest.raises(ValueError):
            plan.run_trial(0, rng_mode="nope")

    @pytest.mark.parametrize("halfwidth", [float("nan"), 0.0, -0.1, 0.5])
    def test_impossible_stop_halfwidth_rejected(self, halfwidth):
        # No interval is ever that narrow (or every interval is), so the
        # stop is a mistake, not a rule: both estimators refuse it before
        # running a trial rather than silently running the whole budget.
        from repro.parallel import estimate_acceptance_sharded

        config = uniform_configuration(6, 4, equal=True, seed=26)
        plan = VerificationPlan.compile(DirectUnifRPLS(), config)
        with pytest.raises(ValueError, match="stop_halfwidth"):
            estimate_acceptance_fast(plan, 300, stop_halfwidth=halfwidth)
        with pytest.raises(ValueError, match="stop_halfwidth"):
            estimate_acceptance_sharded(plan, 300, stop_halfwidth=halfwidth)


class TestVectorModeStatistics:
    """The counter-stream mode trades bit-compat for speed, not correctness."""

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_one_sided_completeness_preserved(self, randomness):
        config = spanning_tree_configuration(16, 5, seed=27)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        plan = VerificationPlan.compile(scheme, config, randomness=randomness)
        estimate = estimate_acceptance_fast(plan, 40, seed=28, rng_mode="vector")
        assert estimate.probability == 1.0

    def test_soundness_statistics_preserved(self):
        config = uniform_configuration(10, 64, equal=False, seed=29)
        scheme = DirectUnifRPLS()
        plan = VerificationPlan.compile(scheme, config)
        estimate = estimate_acceptance_fast(plan, 150, seed=30, rng_mode="vector")
        assert estimate.probability < 1 / 3 + 0.1


class TestRawFingerprints:
    """The unpacked fingerprint forms the engine ships between contexts."""

    def test_make_raw_matches_make(self):
        from repro.core.fingerprint import Fingerprinter

        fingerprinter = Fingerprinter(24, repetitions=3)
        data = BitString.from_int(0xABCDE5, 24)
        packed = fingerprinter.make(data, random.Random(9))
        packed_bits, points = fingerprinter.make_raw(data, random.Random(9))
        assert packed_bits == packed.length == fingerprinter.certificate_bits
        # Repacking the raw points reproduces make()'s output exactly.
        width = fingerprinter.params.coordinate_bits
        repacked = BitString.concat(
            [
                BitString.from_int(x, width) + BitString.from_int(value, width)
                for x, value in points
            ]
        )
        assert repacked == packed
        assert fingerprinter.check(data, packed)
        assert fingerprinter.check_raw(
            fingerprinter.reversed_coefficients(data), (packed_bits, points)
        )

    def test_check_raw_rejects_wrong_point_count(self):
        from repro.core.fingerprint import Fingerprinter

        fingerprinter = Fingerprinter(16, repetitions=2)
        data = BitString.from_int(0xBEEF, 16)
        coefficients = fingerprinter.reversed_coefficients(data)
        _bits, points = fingerprinter.make_raw(data, random.Random(3))
        assert fingerprinter.check_raw(coefficients, (fingerprinter.certificate_bits, points))
        # A certificate claiming the right packed width but carrying the
        # wrong number of points must not pass vacuously.
        assert not fingerprinter.check_raw(coefficients, (fingerprinter.certificate_bits, ()))
        assert not fingerprinter.check_raw(
            coefficients, (fingerprinter.certificate_bits, points[:1])
        )

    def test_raising_engine_certificate_is_a_rejection(self):
        """A hook whose certificate generator raises ValueError mid-trial is
        treated like the legacy raise-to-empty-message rule, not a crash."""
        config = uniform_configuration(6, 8, equal=True, seed=31)
        scheme = DirectUnifRPLS()

        class RaisingCertificates(DirectUnifRPLS):
            def engine_certificate(self, context, port, rng):
                raise ValueError("cannot produce a certificate")

        plan = VerificationPlan.compile(RaisingCertificates(), config,
                                        labels=scheme.prover(config))
        assert plan.uses_fast_path
        assert plan.run_trial(derive_trial_seed(0, 0)) is False


needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


def _assert_vector_identical(plan, seeds):
    """The vectorized kernel reproduces the vector-mode scalar (CounterRng)
    path's decision per trial; compat has no kernel and refuses one."""
    scalar = [plan.run_trial(seed, "vector") for seed in seeds]
    singles = [
        bool(plan.run_trials([seed], rng_mode="vector", vectorize=True))
        for seed in seeds
    ]
    assert singles == scalar
    # Chunking across the whole seed list is equally invisible.
    assert plan.run_trials(seeds, rng_mode="vector", vectorize=True) == sum(scalar)
    with pytest.raises(ValueError, match="rng_mode='vector'"):
        plan.run_trials(seeds, rng_mode="compat", vectorize=True)


class HooksOnlyUnif(DirectUnifRPLS):
    """DirectUnifRPLS without its vector spec: hook-fast, scalar only."""

    engine_vector_spec = None


@needs_numpy
class TestVectorizedKernels:
    """The numpy trial-chunk kernel: pure speed, identical decisions."""

    def test_vector_ready_flags(self):
        config = spanning_tree_configuration(10, 3, seed=50)
        compiled = FingerprintCompiledRPLS(SpanningTreePLS())
        assert VerificationPlan.compile(compiled, config).vector_ready
        boosted = BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 2)
        assert VerificationPlan.compile(boosted, config).vector_ready
        # Parity certificates run the packed-uint64 GF(2) kernel.
        shared = SharedCoinsCompiledRPLS(SpanningTreePLS())
        shared_plan = VerificationPlan.compile(
            shared, config, randomness="shared"
        )
        assert shared_plan.uses_fast_path and shared_plan.vector_ready
        # Boosting a parity scheme is a degenerate always-reject (the
        # boosted verifier runs the base without public coins); it stays on
        # the scalar path rather than pretending to have a kernel.
        boosted_shared = BoostedRPLS(SharedCoinsCompiledRPLS(SpanningTreePLS()), 2)
        boosted_shared_plan = VerificationPlan.compile(
            boosted_shared, config, randomness="shared"
        )
        assert boosted_shared_plan.uses_fast_path
        assert not boosted_shared_plan.vector_ready
        assert boosted_shared_plan.run_trial(derive_trial_seed(0, 0)) is False
        # Hooks without a vector spec stay scalar.
        unif_config = uniform_configuration(6, 8, equal=True, seed=51)
        unif_plan = VerificationPlan.compile(HooksOnlyUnif(), unif_config)
        assert unif_plan.uses_fast_path and not unif_plan.vector_ready
        assert VerificationPlan.compile(DirectUnifRPLS(), unif_config).vector_ready

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_compiled_scheme_vectorized_matches_oracle(self, randomness):
        config = spanning_tree_configuration(14, 5, seed=52)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = scheme.prover(config)
        plan = VerificationPlan.compile(
            scheme, config, labels=labels, randomness=randomness
        )
        assert plan.vector_ready
        seeds = [derive_trial_seed(0, trial) for trial in range(15)]
        # Compat (scalar) reproduces the one-shot oracle per trial.
        for seed in seeds:
            reference = verify_randomized(
                scheme, config, seed=seed, labels=labels, randomness=randomness
            ).accepted
            assert plan.run_trial(seed) == reference
        # Vector mode: vectorized and scalar share their probability point.
        _assert_vector_identical(plan, seeds)

    @pytest.mark.parametrize("randomness", ("edge", "node"))
    def test_boosted_scheme_vectorized(self, randomness):
        config = spanning_tree_configuration(12, 4, seed=53)
        scheme = BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 3)
        labels = scheme.prover(config)
        plan = VerificationPlan.compile(
            scheme, config, labels=labels, randomness=randomness
        )
        assert plan.vector_ready
        _assert_vector_identical(plan, [derive_trial_seed(1, t) for t in range(12)])

    def test_scheme_plans_vectorized(self):
        """MST, flow, and distance plans all run the numpy kernel with
        decisions identical to the scalar hook path."""
        plans = (
            mst_engine_plan(mst_configuration(10, seed=54)),
            k_flow_engine_plan(
                flow_configuration(2, path_length=3, decoy_edges=1, seed=55)
            ),
            distance_engine_plan(distance_configuration(10, 3, seed=56)),
        )
        seeds = [derive_trial_seed(2, trial) for trial in range(8)]
        for plan in plans:
            assert plan.vector_ready
            _assert_vector_identical(plan, seeds)

    def test_proof_fault_vectorized_matches_oracle(self):
        """A flipped stored-replica bit (the E19 proof-fault model) is only
        caught by the fingerprint test, so decisions are genuinely random —
        the vectorized kernel must reproduce every one of them."""
        config = spanning_tree_configuration(12, 4, seed=57)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = scheme.prover(config)
        victim = config.graph.nodes[3]
        label = labels[victim]
        flipped = dict(labels)
        flipped[victim] = BitString(label.value ^ (1 << (label.length // 2)), label.length)
        plan = VerificationPlan.compile(scheme, config, labels=flipped)
        if plan.constant_verdict is not None:  # pragma: no cover - bit landed in framing
            pytest.skip("flip corrupted the label framing; nothing randomized to test")
        assert plan.vector_ready
        seeds = [derive_trial_seed(3, trial) for trial in range(25)]
        for seed in seeds:
            reference = verify_randomized(
                scheme, config, seed=seed, labels=flipped
            ).accepted
            assert plan.run_trial(seed) == reference
        _assert_vector_identical(plan, seeds)

    @pytest.mark.parametrize("boosted", (False, True))
    def test_unif_payload_lengths_that_share_a_format_reject(self, boosted):
        """Two payload lengths can share a fingerprint format (field and
        packed width), but the scalar verifier rejects a claimed length
        other than its own first: the kernel folds such pairs to constant
        False instead of comparing the two polynomials."""
        from repro.core.fingerprint import Fingerprinter
        from repro.engine.kernels import run_chunk, vector_state

        length = next(
            k for k in range(8, 64)
            if Fingerprinter.shared(k).params.prime == Fingerprinter.shared(k + 1).params.prime
        )
        config = uniform_configuration(8, length, equal=True, seed=61)
        victim = config.graph.nodes[0]
        payload = config.state(victim).get("payload")
        config = config.with_state(victim, config.state(victim).with_fields(
            payload=BitString(payload.value << 1, length + 1)
        ))
        scheme = BoostedRPLS(DirectUnifRPLS(), 2) if boosted else DirectUnifRPLS()
        plan = VerificationPlan.compile(scheme, config, rng_mode="vector")
        state = vector_state(plan)
        assert plan.vector_ready and state.constant_false
        seeds = [derive_trial_seed(62, t) for t in range(200)]
        scalar = [plan.run_trial(seed) for seed in seeds]
        assert run_chunk(plan, seeds).tolist() == scalar
        assert not any(scalar)

    def test_estimator_vectorize_knob(self):
        config = spanning_tree_configuration(12, 4, seed=58)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        plan = VerificationPlan.compile(scheme, config)
        scalar = estimate_acceptance_fast(plan, 30, seed=59, rng_mode="vector", vectorize=False)
        vector = estimate_acceptance_fast(plan, 30, seed=59, rng_mode="vector", vectorize=True)
        auto = estimate_acceptance_fast(plan, 30, seed=59, rng_mode="vector")
        assert scalar.accepted == vector.accepted == auto.accepted
        # Explicitly requesting the kernel on an unsupported plan fails loudly.
        unif_plan = VerificationPlan.compile(
            HooksOnlyUnif(), uniform_configuration(6, 8, equal=True, seed=60),
            rng_mode="vector",
        )
        with pytest.raises(ValueError, match="no vectorized kernel"):
            estimate_acceptance_fast(unif_plan, 10, vectorize=True)

    def test_compat_refuses_the_kernel_before_any_trial(self, monkeypatch):
        """The kernels draw only the counter stream: compat plus
        vectorize=True raises at every entry point, before a trial runs."""
        from repro.engine.kernels import run_chunk
        from repro.engine.montecarlo import executed_path

        config = spanning_tree_configuration(12, 4, seed=58)
        plan = VerificationPlan.compile(FingerprintCompiledRPLS(SpanningTreePLS()), config)
        assert plan.vector_ready and plan.rng_mode == "compat"

        def forbidden(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(plan, "_run_trial_hooks", forbidden)
        seeds = [derive_trial_seed(1, t) for t in range(4)]
        for call in (
            lambda: plan.run_trials(seeds, vectorize=True),
            lambda: run_chunk(plan, seeds),
            lambda: run_chunk(plan, seeds, "compat"),
            lambda: estimate_acceptance_fast(plan, 10, vectorize=True),
            lambda: executed_path(plan, "compat", vectorize=True),
        ):
            with pytest.raises(ValueError, match="rng_mode='vector'"):
                call()
        # The default never asks compat for the kernel.
        assert executed_path(plan) == "scalar"
        assert executed_path(plan, "vector") == "table"

    def test_fingerprinter_eval_chunk_matches_scalar(self):
        from repro.core.fingerprint import Fingerprinter

        fingerprinter = Fingerprinter(24, repetitions=2)
        data = BitString.from_int(0xF00DED, 24)
        coefficients = fingerprinter.reversed_coefficients(data)
        xs = [[1, 5, 19], [0, 7, fingerprinter.params.prime - 1]]
        chunk = fingerprinter.eval_chunk(coefficients, xs)
        expected = fingerprinter.field.poly_eval_many(
            tuple(reversed(coefficients)), [x for row in xs for x in row]
        )
        assert chunk.reshape(-1).tolist() == expected


class TestConstantFalseShortCircuit:
    """Plans with an unparseable hook label have a compile-time verdict."""

    def _garbage_plan(self):
        config = spanning_tree_configuration(10, 3, seed=61)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = dict(scheme.prover(config))
        victim = config.graph.nodes[2]
        labels[victim] = BitString.from_int(0b1011, 13)  # unparseable forgery
        return scheme, config, labels

    def test_constant_verdict_is_compiled(self):
        scheme, config, labels = self._garbage_plan()
        plan = VerificationPlan.compile(scheme, config, labels=labels)
        assert plan.constant_verdict is False
        assert plan.run_trial(derive_trial_seed(0, 0)) is False
        # A healthy plan has no compile-time verdict.
        healthy = VerificationPlan.compile(scheme, config)
        assert healthy.constant_verdict is None

    def test_estimator_returns_zero_without_running_trials(self):
        scheme, config, labels = self._garbage_plan()
        plan = VerificationPlan.compile(scheme, config, labels=labels)
        calls = []
        scheme.engine_certificate = lambda *args, **kwargs: calls.append(1)  # type: ignore[method-assign]
        plan._run_trial_hooks = None  # any trial execution would now crash
        plan._run_trial_generic = None
        estimate = estimate_acceptance_fast(plan, 200, seed=62)
        assert (estimate.accepted, estimate.trials) == (0, 200)
        assert estimate.probability == 0.0
        assert not calls

    def test_short_circuit_decisions_match_oracle(self):
        scheme, config, labels = self._garbage_plan()
        plan = VerificationPlan.compile(scheme, config, labels=labels)
        for trial in range(5):
            trial_seed = derive_trial_seed(63, trial)
            assert not verify_randomized(
                scheme, config, seed=trial_seed, labels=labels
            ).accepted
            assert plan.run_trial(trial_seed) is False
        assert plan.run_trials([derive_trial_seed(63, t) for t in range(5)]) == 0


class TestPlanCache:
    def _workload(self, seed=64):
        config = spanning_tree_configuration(10, 3, seed=seed)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = scheme.prover(config)
        return scheme, config, labels

    def test_same_inputs_hit(self):
        scheme, config, labels = self._workload()
        cache = PlanCache(maxsize=4)
        first = cache.get(scheme, config, labels=labels)
        second = cache.get(scheme, config, labels=labels)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_value_equal_configuration_hits(self):
        """Recovery in the self-stabilization loop rebuilds an *equal* but
        distinct configuration; the cache must treat it as the same state."""
        from repro.core.configuration import Configuration

        scheme, config, labels = self._workload()
        rebuilt = Configuration(config.graph, dict(config.states))
        relabeled = dict(labels)
        cache = PlanCache(maxsize=4)
        first = cache.get(scheme, config, labels=labels)
        second = cache.get(scheme, rebuilt, labels=relabeled)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_mutated_configuration_misses(self):
        scheme, config, labels = self._workload()
        cache = PlanCache(maxsize=4)
        first = cache.get(scheme, config, labels=labels)
        victim = config.graph.nodes[0]
        mutated = config.with_state(
            victim, config.state(victim).with_fields(corrupted_marker=1)
        )
        second = cache.get(scheme, mutated, labels=labels)
        assert first is not second
        assert (cache.hits, cache.misses) == (0, 2)

    def test_mutated_labels_and_randomness_miss(self):
        scheme, config, labels = self._workload()
        cache = PlanCache(maxsize=8)
        first = cache.get(scheme, config, labels=labels)
        flipped = dict(labels)
        victim = config.graph.nodes[1]
        label = labels[victim]
        flipped[victim] = BitString(label.value ^ 1, label.length)
        assert cache.get(scheme, config, labels=flipped) is not first
        assert cache.get(scheme, config, labels=labels, randomness="node") is not first
        # The original is still cached.
        assert cache.get(scheme, config, labels=labels) is first
        assert cache.misses == 3

    def test_distinct_scheme_instances_miss(self):
        scheme, config, labels = self._workload()
        other = FingerprintCompiledRPLS(SpanningTreePLS())
        cache = PlanCache(maxsize=4)
        assert cache.get(scheme, config, labels=labels) is not cache.get(
            other, config, labels=labels
        )

    def test_lru_eviction(self):
        scheme, config, labels = self._workload()
        cache = PlanCache(maxsize=1)
        cache.get(scheme, config, labels=labels)
        cache.get(scheme, config, labels=labels, randomness="node")
        assert len(cache) == 1
        cache.get(scheme, config, labels=labels)  # evicted above: a miss
        assert cache.misses == 3 and cache.hits == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_mutable_field_values_are_never_cached(self):
        """A state field holding a shared mutable container could be mutated
        in place after compilation, drifting a cached plan away from its
        key — such configurations compile fresh on every call."""
        scheme, config, labels = self._workload()
        victim = config.graph.nodes[0]
        mutable = config.with_state(
            victim, config.state(victim).with_fields(audit_log=[1, 2])
        )
        cache = PlanCache(maxsize=4)
        first = cache.get(scheme, mutable, labels=labels)
        second = cache.get(scheme, mutable, labels=labels)
        assert first is not second
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 2)
        # The returned plans still verify normally.
        assert first.run_trial(derive_trial_seed(0, 0)) == second.run_trial(
            derive_trial_seed(0, 0)
        )

    def test_self_stabilization_reuses_plans(self):
        """The fault/recovery cycle hits the cache after the first cycle and
        produces the exact trace of the uncached loop."""
        from repro.graphs.generators import corrupt_spanning_tree as corrupt
        from repro.simulation.self_stabilization import (
            periodic_faults,
            run_self_stabilization,
        )
        from repro.substrates.bfs import bfs_layers

        config = spanning_tree_configuration(10, 3, seed=65)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())

        def recovery(corrupted):
            graph = corrupted.graph
            tree = bfs_layers(graph, graph.nodes[0])
            from repro.core.configuration import Configuration

            states = {
                node: corrupted.state(node).with_fields(
                    parent_port=tree.parent_port[node]
                )
                for node in graph.nodes
            }
            repaired = Configuration(graph, states)
            return repaired, scheme.prover(repaired)

        def run(plan_cache=None):
            return run_self_stabilization(
                scheme,
                config,
                recovery,
                fault_rounds=periodic_faults(
                    lambda c, r: corrupt(c, seed=7), period=6, total_rounds=36
                ),
                total_rounds=36,
                seed=66,
                plan_cache=plan_cache,
            )

        cache = PlanCache(maxsize=8)
        cached_trace = run(plan_cache=cache)
        baseline = run()
        assert cache.hits > 0
        assert [r.__dict__ for r in cached_trace.records] == [
            r.__dict__ for r in baseline.records
        ]


@needs_numpy
class TestVectorRngMode:
    """``rng_mode="vector"``: counter-based draws, scalar == numpy per trial."""

    def test_stream_scalar_matches_numpy(self):
        """The load-bearing identity: stream_word and the uint64 array
        kernel are the same function, including at the wraparound edges."""
        import numpy

        from repro.core.seeding import splitmix64_array, stream_word, stream_words

        seeds = [0, 1, 977, 2**63, 2**64 - 1]
        counters = list(range(9)) + [2**32, 2**63 - 1]
        table = stream_words(seeds, counters)
        for i, seed in enumerate(seeds):
            for j, counter in enumerate(counters):
                assert int(table[i, j]) == stream_word(seed, counter), (seed, counter)
        xs = [0, 5, 2**64 - 1, 2**63 + 12345]
        assert splitmix64_array(numpy.asarray(xs, dtype=numpy.uint64)).tolist() == [
            splitmix64(x) for x in xs
        ]

    def test_counter_rng_word_accounting(self):
        """randrange consumes one word, getrandbits ceil(k/64), and both
        read the stream at the address the vectorized kernels compute."""
        from repro.core.seeding import CounterRng, stream_word

        rng = CounterRng(404)
        assert rng.randrange(101) == stream_word(404, 0) % 101
        value = rng.getrandbits(130)  # words 1, 2, 3
        expected = (
            stream_word(404, 1)
            | (stream_word(404, 2) << 64)
            | (stream_word(404, 3) << 128)
        ) & ((1 << 130) - 1)
        assert value == expected
        assert rng.counter == 4
        assert rng.getrandbits(64) == stream_word(404, 4)
        rng.seed(404)  # re-seeding restarts the counter
        assert rng.randrange(101) == stream_word(404, 0) % 101
        with pytest.raises(ValueError):
            rng.randrange(0)
        with pytest.raises(ValueError):
            rng.getrandbits(0)

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_scalar_and_kernel_decisions_identical(self, randomness):
        """Legal workload, all randomness modes: CounterRng path == kernel."""
        config = spanning_tree_configuration(14, 5, seed=70)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        plan = VerificationPlan.compile(scheme, config, randomness=randomness)
        seeds = [derive_trial_seed(4, t) for t in range(10)]
        _assert_vector_identical(plan, seeds)
        # One-sided completeness holds at the vector probability point too.
        assert all(plan.run_trial(seed, "vector") for seed in seeds)

    def test_proof_fault_scalar_and_kernel_identical(self):
        """Under a randomized-only fault the decisions are genuinely random;
        the kernel must reproduce every one of the CounterRng path's."""
        config = spanning_tree_configuration(12, 4, seed=71)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = dict(scheme.prover(config))
        victim = config.graph.nodes[3]
        label = labels[victim]
        labels[victim] = BitString(label.value ^ (1 << (label.length // 2)), label.length)
        plan = VerificationPlan.compile(scheme, config, labels=labels)
        if plan.constant_verdict is not None:  # pragma: no cover - framing hit
            pytest.skip("flip corrupted the label framing")
        _assert_vector_identical(plan, [derive_trial_seed(5, t) for t in range(25)])

    def test_boosted_scheme_vector_mode(self):
        config = spanning_tree_configuration(12, 4, seed=72)
        scheme = BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 3)
        plan = VerificationPlan.compile(scheme, config)
        _assert_vector_identical(plan, [derive_trial_seed(6, t) for t in range(8)])

    def test_generic_path_rejects_vector_mode(self):
        from repro.core.noise import NoisyChannelRPLS

        config = uniform_configuration(8, 8, equal=True, seed=74)
        scheme = NoisyChannelRPLS(DirectUnifRPLS(), flip_probability=0.01)
        plan = VerificationPlan.compile(scheme, config, labels=scheme.prover(config))
        assert not plan.uses_fast_path
        with pytest.raises(ValueError, match="engine hook fast path.*rng_mode='compat'"):
            plan.run_trial(derive_trial_seed(0, 0), "vector")

    def test_plan_default_rng_mode(self):
        """A plan compiled for vector draws runs vector by default — and
        refuses unknown modes at compile time."""
        config = spanning_tree_configuration(10, 3, seed=75)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        plan = VerificationPlan.compile(scheme, config, rng_mode="vector")
        seed = derive_trial_seed(7, 0)
        assert plan.run_trial(seed) == plan.run_trial(seed, "vector")
        default = estimate_acceptance_fast(plan, 20, seed=8)
        explicit = estimate_acceptance_fast(plan, 20, seed=8, rng_mode="vector")
        assert default.accepted == explicit.accepted
        with pytest.raises(ValueError):
            VerificationPlan.compile(scheme, config, rng_mode="nope")

    def test_estimator_consumes_vector_mode(self):
        config = spanning_tree_configuration(12, 4, seed=76)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        plan = VerificationPlan.compile(scheme, config)
        scalar = estimate_acceptance_fast(
            plan, 30, seed=9, rng_mode="vector", vectorize=False
        )
        vector = estimate_acceptance_fast(
            plan, 30, seed=9, rng_mode="vector", vectorize=True
        )
        auto = estimate_acceptance_fast(plan, 30, seed=9, rng_mode="vector")
        assert scalar.accepted == vector.accepted == auto.accepted == 30


@needs_numpy
class TestParityKernel:
    """The shared-coins packed-uint64 popcount kernel."""

    def _fault_workload(self, seed=80, repetitions=2):
        """A shared-coins workload whose verdicts are genuinely random."""
        config = spanning_tree_configuration(12, 4, seed=seed)
        scheme = SharedCoinsCompiledRPLS(SpanningTreePLS(), repetitions=repetitions)
        honest = scheme.prover(config)
        seeds = [derive_trial_seed(1, t) for t in range(30)]
        for victim in config.graph.nodes:
            label = honest[victim]
            for bit in range(label.length):
                labels = dict(honest)
                labels[victim] = BitString(label.value ^ (1 << bit), label.length)
                plan = VerificationPlan.compile(
                    scheme, config, labels=labels, randomness="shared"
                )
                if plan.constant_verdict is not None:
                    continue
                accepted = sum(plan.run_trial(s) for s in seeds)
                if 0 < accepted < len(seeds):
                    return scheme, config, labels, plan
        raise AssertionError("no nondegenerate shared-coins fault found")  # pragma: no cover

    def test_legal_state_all_modes(self):
        config = spanning_tree_configuration(14, 5, seed=81)
        scheme = SharedCoinsCompiledRPLS(SpanningTreePLS())
        plan = VerificationPlan.compile(scheme, config, randomness="shared")
        assert plan.vector_ready
        seeds = [derive_trial_seed(2, t) for t in range(10)]
        _assert_vector_identical(plan, seeds)
        for seed in seeds:
            assert plan.run_trial(seed) is True

    def test_compat_scalar_matches_one_shot_oracle(self):
        scheme, config, labels, plan = self._fault_workload()
        for trial in range(15):
            trial_seed = derive_trial_seed(3, trial)
            reference = verify_randomized(
                scheme, config, seed=trial_seed, labels=labels, randomness="shared"
            ).accepted
            assert plan.run_trial(trial_seed) == reference
        with pytest.raises(ValueError, match="rng_mode='vector'"):
            plan.run_trials([derive_trial_seed(3, 0)], vectorize=True)

    def test_proof_fault_verdicts_identical_per_trial(self):
        """The satellite property: scalar vs popcount verdicts per trial,
        under proof-fault randomness, in vector mode."""
        _scheme, _config, _labels, plan = self._fault_workload()
        _assert_vector_identical(plan, [derive_trial_seed(4, t) for t in range(40)])

    def test_wide_masks_span_words(self):
        """Replicas wider than 64 bits exercise the multi-word packing and
        the top-word truncation; t=3 exercises mask-block addressing."""
        config = uniform_configuration(8, 90, equal=True, seed=82)
        # A >64-bit replica via the compiled spanning tree would need a big
        # graph; the Unif payload width is free, so compile Unif's PLS.
        from repro.schemes.uniformity import UnifPLS

        scheme = SharedCoinsCompiledRPLS(UnifPLS(), repetitions=3)
        plan = VerificationPlan.compile(scheme, config, randomness="shared")
        assert plan.vector_ready
        state = plan._vector_state
        assert state.mask_words >= 2
        _assert_vector_identical(plan, [derive_trial_seed(5, t) for t in range(8)])

    def test_private_coin_mismatch_folds_constant_false(self):
        """A shared-coins plan under edge randomness rejects every trial;
        the kernel must fold that, not crash or accept."""
        config = spanning_tree_configuration(10, 3, seed=83)
        scheme = SharedCoinsCompiledRPLS(SpanningTreePLS())
        plan = VerificationPlan.compile(scheme, config, randomness="edge")
        assert plan.vector_ready
        seeds = [derive_trial_seed(6, t) for t in range(6)]
        assert plan.run_trials(seeds, rng_mode="vector", vectorize=True) == 0
        _assert_vector_identical(plan, seeds)

    def test_forged_kappa_width_mismatch_falls_back_to_scalar(self):
        """A parseable label claiming a different kappa draws masks at a
        different width, so the uniform-width kernel must decline (scalar
        fallback) rather than compute the wrong masks."""
        from repro.core.bitstrings import BitWriter, bits_for_max

        config = spanning_tree_configuration(10, 3, seed=84)
        scheme = SharedCoinsCompiledRPLS(SpanningTreePLS())
        labels = dict(scheme.prover(config))
        victim = config.graph.nodes[1]
        degree = config.graph.degree(victim)
        kappa, _replicas = scheme._parse_label(
            # Borrow the plan's view machinery via a fresh compile.
            VerificationPlan.compile(
                scheme, config, labels=labels, randomness="shared"
            ).label_views[1]
        )
        forged_kappa = kappa + 1
        width = bits_for_max(forged_kappa) + forged_kappa
        writer = BitWriter()
        writer.write_varuint(forged_kappa)
        for _ in range(degree + 1):
            writer.write_uint(0, width)  # claims a 0-length base label
        labels[victim] = writer.finish()
        plan = VerificationPlan.compile(
            scheme, config, labels=labels, randomness="shared"
        )
        if plan.constant_verdict is None:
            assert not plan.vector_ready
            for trial in range(5):
                trial_seed = derive_trial_seed(7, trial)
                reference = verify_randomized(
                    scheme, config, seed=trial_seed, labels=labels,
                    randomness="shared",
                ).accepted
                assert plan.run_trial(trial_seed) == reference


@needs_numpy
class TestAgreementTable:
    """Kernels built around dirty pairs: clean pairs drop out, dirty pairs
    are looked up in agree rows tabulated once per plan.  The kernels run
    only rng_mode="vector"."""

    @staticmethod
    def _forbid_draws(monkeypatch):
        """Make the kernels' one randomness source raise."""
        import repro.engine.kernels as kernels

        def forbidden(*args, **kwargs):
            raise AssertionError("an honest chunk drew randomness")

        monkeypatch.setattr(kernels, "stream_words", forbidden)

    @staticmethod
    def _dirty_receivers(plan):
        from repro.engine.kernels import vector_state

        sources = {pair.source for pair in vector_state(plan).pairs}
        return {
            i for i, ports in enumerate(plan.incoming) for source in ports
            if source in sources
        }

    @pytest.mark.parametrize(
        "scheme, randomness",
        [
            (FingerprintCompiledRPLS(SpanningTreePLS()), "edge"),
            (SharedCoinsCompiledRPLS(SpanningTreePLS()), "shared"),
        ],
        ids=("fingerprint", "parity"),
    )
    def test_honest_plan_has_no_dirty_pair_and_draws_nothing(
        self, monkeypatch, scheme, randomness
    ):
        from repro.engine.kernels import run_chunk, vector_state

        config = spanning_tree_configuration(14, 5, seed=90)
        seeds = [derive_trial_seed(3, t) for t in range(64)]
        self._forbid_draws(monkeypatch)
        plan = VerificationPlan.compile(
            scheme, config, randomness=randomness, rng_mode="vector"
        )
        state = vector_state(plan)
        assert not state.constant_false
        assert plan.constant_verdict is None  # not folded at plan level
        assert state.dirty_pairs == 0
        assert run_chunk(plan, seeds).all()
        # Still a kernel-level constant: the Wilson stop lands where it
        # does when every pair is checked (the first all-accept prefix
        # narrow enough), not at the full budget.
        estimate = estimate_acceptance_fast(
            plan, 5000, seed=3, stop_halfwidth=0.01, vectorize=True
        )
        assert (estimate.accepted, estimate.trials) == (189, 189)

    def _three_receiver_forgery(self):
        """Two-bit replica flips at three nodes: three dirty pairs, each
        agreeing on 3 of the 37 points of its field."""
        config = spanning_tree_configuration(14, 5, seed=91)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = dict(scheme.prover(config))
        for victim in (0, 1, 2):
            label = labels[victim]
            labels[victim] = BitString(label.value ^ 0b101, label.length)
        return scheme, config, labels

    @pytest.mark.parametrize("randomness", ALL_MODES)
    def test_multi_receiver_forgery_matches_scalar(self, randomness):
        from repro.engine.kernels import run_chunk, vector_state

        scheme, config, labels = self._three_receiver_forgery()
        seeds = [derive_trial_seed(4, t) for t in range(120)]
        plan = VerificationPlan.compile(
            scheme, config, labels=labels, randomness=randomness, rng_mode="vector"
        )
        state = vector_state(plan)
        assert not state.constant_false
        assert len(state.pairs) >= 3
        assert len(self._dirty_receivers(plan)) >= 3
        verdicts = [bool(v) for v in run_chunk(plan, seeds)]
        assert verdicts == [plan.run_trial(seed) for seed in seeds]
        if randomness == "shared":
            # Every pair sees the same public point, so the three checks
            # pass together often enough for both verdicts to occur.
            assert 0 < sum(verdicts) < len(seeds)

    @staticmethod
    def _replace_context(plan, index, **changes):
        import dataclasses

        contexts = list(plan.contexts)
        contexts[index] = dataclasses.replace(contexts[index], **changes)
        plan.contexts = tuple(contexts)

    def test_rootless_difference_rejects_every_trial(self):
        """A stored replica off by a nonzero constant never agrees."""
        from repro.engine.kernels import run_chunk, vector_state

        config = spanning_tree_configuration(14, 5, seed=91)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        seeds = [derive_trial_seed(5, t) for t in range(40)]
        plan = VerificationPlan.compile(scheme, config, rng_mode="vector")
        context = plan.contexts[0]
        prime = context.fingerprinter.params.prime
        stored = list(context.stored_coefficients[0])
        stored[-1] = (stored[-1] + 1) % prime  # Q_r - A_s = 1
        self._replace_context(
            plan, 0,
            stored_coefficients=(tuple(stored),) + context.stored_coefficients[1:],
        )
        state = vector_state(plan).prepare()
        assert len(state.pairs) == 1 and not state.agree.any()
        assert not run_chunk(plan, seeds).any()
        assert not any(plan.run_trial(seed, mode) for seed in seeds for mode in RNG_MODES)

    def test_equal_coefficients_different_primes_is_dirty(self):
        """A receiver checking the right polynomial over the wrong field."""
        from repro.core.fingerprint import Fingerprinter
        from repro.engine.kernels import vector_state

        config = spanning_tree_configuration(14, 5, seed=91)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        plan = VerificationPlan.compile(scheme, config)
        honest = plan.contexts[0].fingerprinter
        lam = honest.params.lam
        while True:  # the next field with the same certificate width
            lam += 1
            other = Fingerprinter(lam, repetitions=honest.repetitions)
            if other.params.prime != honest.params.prime:
                break
        assert other.certificate_bits == honest.certificate_bits
        seeds = [derive_trial_seed(6, t) for t in range(60)]
        plan = VerificationPlan.compile(scheme, config, rng_mode="vector")
        self._replace_context(plan, 0, fingerprinter=other)
        state = vector_state(plan)
        assert not state.constant_false
        incoming = set(plan.incoming[0])
        dirty = [pair for pair in state.pairs if pair.source in incoming]
        assert len(dirty) == len(incoming)
        for pair in dirty:
            assert pair.receiver_prime != pair.sender_prime
            assert list(pair.stored) == list(pair.sent)
        self._assert_rows_match_check_raw(plan, state.prepare())
        _assert_vector_identical(plan, seeds)

    @staticmethod
    def _assert_rows_match_check_raw(plan, state):
        """Every agree row entry is the scalar check_raw verdict on its point
        (this plan's node 0 also sends over a larger field than its
        neighbours check, so the range conditions are exercised)."""
        receiver_of = {
            source: (i, port)
            for i, ports in enumerate(plan.incoming)
            for port, source in enumerate(ports)
        }
        owner = [i for i, degree in enumerate(plan.degrees) for _ in range(degree)]
        start = 0
        for pair in state.pairs:
            sender = plan.contexts[owner[pair.source]]
            i, port = receiver_of[pair.source]
            receiver = plan.contexts[i].fingerprinter
            row = state.agree[start:start + pair.sender_prime]
            start += pair.sender_prime
            for x in range(pair.sender_prime):
                claimed = 0
                for coefficient in sender.own_coefficients:
                    claimed = (claimed * x + coefficient) % pair.sender_prime
                expected = receiver.check_raw(
                    plan.contexts[i].stored_coefficients[port],
                    (receiver.certificate_bits, ((x, claimed),)),
                )
                assert bool(row[x]) == expected, (pair.source, x)
        assert start == len(state.agree)
        assert any(pair.sender_prime > pair.receiver_prime for pair in state.pairs)


@needs_numpy
class TestAgreementTableSetUp:
    """Where the field arithmetic runs: only in prepare(), and only once."""

    @staticmethod
    def _symmetry_fault_plan():
        import pathlib
        import sys

        root = str(pathlib.Path(__file__).resolve().parent.parent)
        if root not in sys.path:
            sys.path.insert(0, root)
        from perfbench.workloads import zoo_proof_fault

        from repro.engine import get_spec

        scheme, config, labels = zoo_proof_fault("symmetry")
        return VerificationPlan.compile(
            scheme, config, labels=labels,
            randomness=get_spec("symmetry").randomness, rng_mode="vector",
        )

    def test_vector_state_does_no_field_arithmetic(self, monkeypatch):
        import repro.engine.kernels as kernels

        plan = self._symmetry_fault_plan()

        def forbidden(*args, **kwargs):
            raise AssertionError("vector_state evaluated a polynomial")

        monkeypatch.setattr(kernels, "poly_eval_rows", forbidden)
        state = kernels.vector_state(plan)
        assert not state.constant_false and state.pairs
        assert max(pair.sender_prime for pair in state.pairs) == 4919
        assert state.agree is None

    def test_prepare_builds_the_rows_exactly_once(self, monkeypatch):
        import repro.engine.kernels as kernels

        plan = self._symmetry_fault_plan()
        calls = []
        agree_rows = kernels._agree_rows

        def counting(*args, **kwargs):
            calls.append(args)
            return agree_rows(*args, **kwargs)

        monkeypatch.setattr(kernels, "_agree_rows", counting)
        plan.prepare()
        assert len(calls) == 1
        agree = kernels.vector_state(plan).agree
        plan.prepare()
        accepted = kernels.run_chunk(plan, [derive_trial_seed(7, t) for t in range(64)])
        assert len(calls) == 1
        assert kernels.vector_state(plan).agree is agree
        assert len(accepted) == 64

    def test_concurrent_first_chunks_on_an_unprepared_plan(self):
        """Threads racing to build the rows may build them twice, but every
        chunk still sees complete rows and the scalar path's verdicts."""
        import sys
        import threading

        from repro.engine.kernels import run_chunk

        config = spanning_tree_configuration(14, 5, seed=91)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = dict(scheme.prover(config))
        label = labels[0]
        labels[0] = BitString(label.value ^ 0b101, label.length)
        seeds = [derive_trial_seed(8, t) for t in range(64)]
        reference = VerificationPlan.compile(
            scheme, config, labels=labels, randomness="shared", rng_mode="vector"
        )
        expected = [reference.run_trial(seed) for seed in seeds]
        assert 0 < sum(expected) < len(seeds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                plan = VerificationPlan.compile(
                    scheme, config, labels=labels, randomness="shared",
                    rng_mode="vector",
                )
                results = [None] * 6

                def worker(index, plan=plan, results=results):
                    results[index] = [bool(v) for v in run_chunk(plan, seeds)]

                threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert results == [expected] * 6
        finally:
            sys.setswitchinterval(interval)


def _two_polynomial_rows(pairs):
    """The agree rows by definition: both polynomials tabulated, each over
    its own field, and compared point by point.  The oracle the kernel's
    difference rows must reproduce."""
    import numpy as np

    from repro.substrates.gf import poly_eval_rows

    rows = []
    for pair in pairs:
        points = np.arange(pair.sender_prime, dtype=np.int64).reshape(1, -1)

        def values(coefficients, prime, points=points):
            matrix = np.asarray(list(coefficients), dtype=np.int64).reshape(1, -1)
            return poly_eval_rows(matrix, points, prime)[0]

        sent = values(pair.sent, pair.sender_prime)
        checked = values(pair.stored, pair.receiver_prime)
        rows.append(
            (points[0] < pair.receiver_prime)
            & (sent < pair.receiver_prime)
            & (checked == sent)
        )
    return np.concatenate(rows)


@needs_numpy
class TestDifferenceRows:
    """Same-field agree rows come from D = Q_r - A_s, stripped to its core;
    they must equal the two-polynomial rows on every input."""

    PRIMES = (2, 3, 23, 37, 53)

    @staticmethod
    def _shape(pair):
        """(D is zero, core length, j) of a same-field pair, computed naively."""
        p = pair.sender_prime
        width = max(len(pair.sent), len(pair.stored))
        stored = (0,) * (width - len(pair.stored)) + tuple(pair.stored)
        sent = (0,) * (width - len(pair.sent)) + tuple(pair.sent)
        difference = [(q - a) % p for q, a in zip(stored, sent)]
        nonzero = [k for k, c in enumerate(difference) if c]
        if not nonzero:
            return True, 0, 0
        return False, nonzero[-1] - nonzero[0] + 1, width - 1 - nonzero[-1]

    def _fuzz_pairs(self, seed, count):
        """Seeded pairs: a random polynomial and a structured edit of it."""
        from repro.engine.kernels import _DirtyPair

        rng = random.Random(seed)
        pairs = []
        for _ in range(count):
            p = rng.choice(self.PRIMES)
            # Stored coefficients reach past p: the kernel reduces them.
            sent = tuple(rng.randrange(3 * p) for _ in range(rng.randrange(0, 10)))
            stored = list(sent)
            edit = rng.choice(("zero", "one", "several", "tail", "longer", "shorter"))
            if edit == "zero":  # unequal tuples, D = 0 mod p
                stored = [c + p * rng.randrange(3) for c in stored]
                stored = [p * rng.randrange(1, 3)] * rng.randrange(3) + stored
            elif edit in ("one", "several", "tail") and stored:
                edits = 1 if edit == "one" else rng.randrange(2, 5)
                limit = len(stored) - (rng.randrange(1, len(stored) + 1) if edit == "tail" else 0)
                for _ in range(edits):
                    if limit <= 0:
                        break
                    k = rng.randrange(limit)
                    stored[k] += rng.randrange(1, p)
            elif edit == "longer":
                stored = [rng.randrange(3 * p) for _ in range(rng.randrange(1, 4))] + stored
            elif edit == "shorter" and stored:
                stored = stored[rng.randrange(1, len(stored) + 1):]
            receiver = p
            if rng.random() < 0.2:  # the mixed-field fallback
                receiver = rng.choice([q for q in self.PRIMES if q != p])
            pairs.append(_DirtyPair(0, p, sent, receiver, tuple(stored)))
        return pairs

    def test_fuzz_matches_the_two_polynomial_rows(self):
        from repro.engine.kernels import _agree_rows

        pairs = self._fuzz_pairs(seed=2015, count=600)
        seen = set()
        for pair in pairs:
            assert _agree_rows([pair]).tolist() == _two_polynomial_rows([pair]).tolist(), pair
            if pair.receiver_prime != pair.sender_prime:
                seen.add("mixed primes")
                continue
            zero, core, j = self._shape(pair)
            if zero:
                seen.add("D = 0" if pair.stored == pair.sent else "D = 0 mod p, unequal tuples")
            else:
                seen.add(("constant core" if core == 1 else "longer core", j > 0))
            if len(pair.stored) != len(pair.sent):
                seen.add("unequal lengths")
            if any(c >= pair.sender_prime for c in pair.stored):
                seen.add("stored coefficient >= p")
        # One call over every pair: rows concatenate in pair order, and
        # repeated pairs reuse one row.
        batch = pairs + pairs[:50]
        assert _agree_rows(batch).tolist() == _two_polynomial_rows(batch).tolist()
        assert seen >= {
            "mixed primes", "D = 0 mod p, unequal tuples", "unequal lengths",
            "stored coefficient >= p",
            ("constant core", False), ("constant core", True),
            ("longer core", False), ("longer core", True),
        }

    def test_zero_and_constant_cores_skip_horner(self, monkeypatch):
        import repro.engine.kernels as kernels

        def forbidden(*args, **kwargs):
            raise AssertionError("a Horner pass ran")

        monkeypatch.setattr(kernels, "poly_eval_rows", forbidden)
        pair = kernels._DirtyPair
        rows = kernels._agree_rows([
            pair(0, 37, (1, 2, 3), 37, (38, 2, 40)),   # D = 0 mod 37
            pair(0, 37, (1, 2, 3), 37, (1, 5, 3)),     # D = 3x
            pair(0, 37, (1, 2, 3), 37, (0, 1, 2, 4)),  # D = 1
        ]).tolist()
        assert rows[:37] == [True] * 37
        assert rows[37:74] == [True] + [False] * 36
        assert rows[74:] == [False] * 37

    def test_spec_proof_faults_match_the_two_polynomial_rows(self):
        """Every registered spec's proof-fault plan whose kernel has dirty
        fingerprint pairs (each a single-bit forgery)."""
        from spec_matrix import SCHEME_NAMES, matrix_plan

        from repro.engine.kernels import _VectorState, vector_state

        covered = []
        for name in SCHEME_NAMES:
            plan = matrix_plan(name, "proof-fault", rng_mode="vector")
            if plan is None or plan.constant_verdict is not None:
                continue
            state = vector_state(plan)
            if not isinstance(state, _VectorState) or not state.pairs:
                continue
            expected = _two_polynomial_rows(state.pairs).tolist()
            assert state.prepare().agree.tolist() == expected, name
            covered.append(name)
        assert len(covered) >= 10, covered


class TestPlanCacheRngMode:
    """rng_mode is plan state, so it must be cache-key state."""

    def _workload(self, seed=90):
        config = spanning_tree_configuration(10, 3, seed=seed)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        return scheme, config, scheme.prover(config)

    def test_rng_mode_keys_separately(self):
        scheme, config, labels = self._workload()
        cache = PlanCache(maxsize=8)
        compat = cache.get(scheme, config, labels=labels)
        vector = cache.get(scheme, config, labels=labels, rng_mode="vector")
        assert compat is not vector
        assert (compat.rng_mode, vector.rng_mode) == ("compat", "vector")
        # Same mode hits.
        assert cache.get(scheme, config, labels=labels, rng_mode="vector") is vector
        assert cache.get(scheme, config, labels=labels) is compat
        assert (cache.hits, cache.misses) == (2, 2)

    def test_vector_plan_never_served_to_compat_caller(self):
        """The regression the key fix exists for: a shared cache must not
        let a vector-mode self-stabilization run poison a later compat run
        — the compat trace must equal the uncached compat baseline."""
        from repro.graphs.generators import corrupt_spanning_tree as corrupt
        from repro.simulation.self_stabilization import (
            periodic_faults,
            run_self_stabilization,
        )
        from repro.substrates.bfs import bfs_layers

        config = spanning_tree_configuration(10, 3, seed=91)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())

        def recovery(corrupted):
            from repro.core.configuration import Configuration

            graph = corrupted.graph
            tree = bfs_layers(graph, graph.nodes[0])
            states = {
                node: corrupted.state(node).with_fields(
                    parent_port=tree.parent_port[node]
                )
                for node in graph.nodes
            }
            repaired = Configuration(graph, states)
            return repaired, scheme.prover(repaired)

        def run(rng_mode, plan_cache=None):
            return run_self_stabilization(
                scheme,
                config,
                recovery,
                fault_rounds=periodic_faults(
                    lambda c, r: corrupt(c, seed=5), period=6, total_rounds=24
                ),
                total_rounds=24,
                seed=92,
                rng_mode=rng_mode,
                plan_cache=plan_cache,
            )

        shared_cache = PlanCache(maxsize=16)
        vector_trace = run("vector", plan_cache=shared_cache)
        compat_cached = run("compat", plan_cache=shared_cache)
        compat_baseline = run("compat")
        assert [r.__dict__ for r in compat_cached.records] == [
            r.__dict__ for r in compat_baseline.records
        ]
        # Both modes detect the injected faults (sanity: the vector run is a
        # real run, not a vacuous pass-through).
        assert vector_trace.detection_latencies
        assert compat_cached.detection_latencies
        # And the shared cache did serve both modes from distinct entries.
        assert shared_cache.hits > 0
        modes = {plan.rng_mode for plan in shared_cache._plans.values()}
        assert {"compat", "vector"} <= modes


class TestSeeding:
    def test_splitmix64_reference_vector(self):
        # First outputs of the SplitMix64 stream seeded with 0 — the
        # published reference sequence (e.g. the xoshiro seeding test
        # vectors): mixing state 0, gamma, 2*gamma...
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_splitmix64_range_and_determinism(self):
        for x in (0, 1, 2**63, 2**64 - 1, 12345):
            value = splitmix64(x)
            assert 0 <= value < 2**64
            assert splitmix64(x) == value

    def test_trial_seeds_distinct(self):
        seeds = {derive_trial_seed(seed, trial) for seed in range(8) for trial in range(200)}
        assert len(seeds) == 8 * 200

    def test_trial_seed_negative_master(self):
        assert derive_trial_seed(-5, 3) == derive_trial_seed(-5, 3)
        assert derive_trial_seed(-5, 3) != derive_trial_seed(-5, 4)

    def test_stream_seeds_distinct_across_address_spaces(self):
        trial = derive_trial_seed(0, 0)
        seeds = {derive_stream_seed(trial, -1, -1)}
        for node_index in range(10):
            seeds.add(derive_stream_seed(trial, node_index, -1))
            for port in range(6):
                seeds.add(derive_stream_seed(trial, node_index, port))
        assert len(seeds) == 1 + 10 + 60


class TestIncrementalCompile:
    """The node-context memo: a recompile on one (scheme, configuration)
    rebuilds only the nodes whose view changed, with per-trial decisions
    identical to a from-scratch compile and to the reference oracle."""

    TRIALS = 48

    @staticmethod
    def _flip(labels, victim, bit=0):
        """Flip two label bits: on these plans a randomized, mixed verdict."""
        flipped = dict(labels)
        label = labels[victim]
        flipped[victim] = BitString(label.value ^ (0b101 << bit), label.length)
        return flipped

    @staticmethod
    def _truncate(labels, victim):
        """Drop the victim's last bit: a compiled label no longer parses."""
        truncated = dict(labels)
        label = labels[victim]
        truncated[victim] = BitString(label.value >> 1, label.length - 1)
        return truncated

    @staticmethod
    def _relabel(labels, victim):
        """A one-bit label where the honest label is empty (uniformity)."""
        relabeled = dict(labels)
        relabeled[victim] = BitString(1, 1)
        return relabeled

    def _sequence(self, scheme, config, parses_labels):
        """Honest, flip A, flip B, flip A again, unparseable, honest."""
        honest = scheme.prover(config)
        a, b = config.graph.nodes[0], config.graph.nodes[1]
        change = self._flip if parses_labels else self._relabel
        steps = [honest, change(honest, a), change(honest, b), change(honest, a)]
        if parses_labels:
            steps.append(self._truncate(honest, a))
        steps.append(honest)
        return steps

    CASES = {
        "fingerprint": (
            lambda: FingerprintCompiledRPLS(SpanningTreePLS()),
            lambda: spanning_tree_configuration(12, 4, seed=120), "edge", True,
        ),
        "parity": (
            lambda: SharedCoinsCompiledRPLS(SpanningTreePLS()),
            lambda: spanning_tree_configuration(12, 4, seed=121), "shared", True,
        ),
        "boosted": (
            lambda: BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), 2),
            lambda: spanning_tree_configuration(12, 4, seed=122), "node", True,
        ),
        "uniformity": (
            DirectUnifRPLS,
            lambda: uniform_configuration(10, 6, equal=True, seed=123), "edge", False,
        ),
        "generic": (
            lambda: NoisyChannelRPLS(DirectUnifRPLS(), flip_probability=0.005),
            lambda: uniform_configuration(10, 6, equal=True, seed=124), "edge", False,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sequence_is_trialwise_identical(self, case):
        from repro.engine.kernels import run_chunk
        from repro.engine.plan import _CONTEXT_MEMO

        make_scheme, make_config, randomness, parses_labels = self.CASES[case]
        scheme, config = make_scheme(), make_config()
        steps = self._sequence(scheme, config, parses_labels)
        seeds = [derive_trial_seed(5, t) for t in range(self.TRIALS)]
        # The generic path is compat-only.
        rng_modes = ("compat",) if case == "generic" else RNG_MODES
        mixed = False
        for rng_mode in rng_modes:
            for index, labels in enumerate(steps):
                plan = VerificationPlan.compile(
                    scheme, config, labels=labels, randomness=randomness,
                    rng_mode=rng_mode,
                )
                assert plan.uses_fast_path == (case != "generic")
                if parses_labels and index == len(steps) - 2:
                    assert plan.constant_verdict is False
                scalar = [plan.run_trial(seed) for seed in seeds]
                mixed = mixed or 0 < sum(scalar) < len(seeds)
                if rng_mode == "compat":
                    expected = [
                        verify_randomized(
                            scheme, config, seed=seed, labels=labels,
                            randomness=randomness,
                        ).accepted
                        for seed in seeds
                    ]
                else:  # a from-scratch compile: a fresh configuration object
                    fresh = VerificationPlan.compile(
                        scheme, config.copy(), labels=labels,
                        randomness=randomness, rng_mode=rng_mode,
                    )
                    expected = [fresh.run_trial(seed) for seed in seeds]
                assert scalar == expected, (case, rng_mode, index)
                if plan.vector_ready and rng_mode == "vector":
                    assert run_chunk(plan, seeds).tolist() == scalar, (
                        case, rng_mode, index,
                    )
        # Not vacuous: some plan of the sequence has mixed verdicts (the
        # uniformity scheme's context ignores labels: every trial accepts).
        assert mixed == (case != "uniformity")
        assert (id(scheme) in _CONTEXT_MEMO[config].slots) == (case != "generic")

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count engine_node_context calls of the fingerprint compiler."""
        calls = []
        original = FingerprintCompiledRPLS.engine_node_context

        def counting(scheme, view):
            calls.append(view.node)
            return original(scheme, view)

        monkeypatch.setattr(FingerprintCompiledRPLS, "engine_node_context", counting)
        return calls

    def test_only_changed_views_rebuild(self, counted, monkeypatch):
        """A one-node relabel parses that node and asks for that node's
        vector spec, nothing else; the lazy label views are the eager ones."""
        from repro.core.scheme import LabelView, SchemeParams
        from repro.engine.kernels import vector_state

        config = spanning_tree_configuration(12, 4, seed=125)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        honest = scheme.prover(config)
        a, b = config.graph.nodes[2], config.graph.nodes[5]
        described = []
        original_spec = FingerprintCompiledRPLS.engine_vector_spec

        def counting_spec(scheme, context):
            described.append(context)
            return original_spec(scheme, context)

        monkeypatch.setattr(FingerprintCompiledRPLS, "engine_vector_spec", counting_spec)

        def rebuilt(labels):
            counted.clear()
            described.clear()
            plan = VerificationPlan.compile(scheme, config, labels=labels)
            vector_state(plan)
            node_of = {id(context): node for node, context in zip(plan.nodes, plan.contexts)}
            params = SchemeParams.from_configuration(config)
            assert plan.label_views == tuple(
                LabelView(
                    node=node, state=config.state(node),
                    degree=config.graph.degree(node), params=params,
                    own_label=labels[node],
                )
                for node in config.graph.nodes
            )
            return sorted(counted), sorted(node_of[id(context)] for context in described)

        everyone = sorted(config.graph.nodes)
        assert rebuilt(honest) == (everyone, everyone)
        assert rebuilt(dict(honest)) == ([], [])
        assert rebuilt(self._flip(honest, a)) == ([a], [a])
        # Two slots per node: A reverts to its held honest slot, B changes.
        assert rebuilt(self._flip(honest, b)) == ([b], [b])
        # The unparseable outcome is memoized too (and has no spec).
        truncated = self._truncate(honest, b)
        assert rebuilt(truncated) == ([b], [])
        assert rebuilt(truncated) == ([], [])
        assert VerificationPlan.compile(scheme, config, labels=truncated).constant_verdict is False
        # The label-independent half is built once: plans share it.
        assert (
            VerificationPlan.compile(scheme, config).incoming
            is VerificationPlan.compile(scheme, config, labels=truncated).incoming
        )

    @staticmethod
    def _same_state(left, right):
        """Two kernel descriptions hold the same values, arrays included."""
        import dataclasses

        import numpy as np

        if left is None or right is None or type(left) is not type(right):
            return left is right
        for field in dataclasses.fields(left):
            a, b = getattr(left, field.name), getattr(right, field.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not (
                    isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                    and a.dtype == b.dtype and np.array_equal(a, b)
                ):
                    return False
            elif a != b:
                return False
        return True

    RELABELS = ("flip", "flip", "back", "same", "flip", "unparseable", "back")

    def _walk(self, rng, scheme, config, mutation):
        """Yield ``(action, labels)`` along a random relabel walk from the
        honest labels, with ``mutation`` applied to ``config`` halfway and
        the labels then re-proved where the prover still can."""
        honest = scheme.prover(config)
        labels = dict(honest)
        victim = None
        yield "honest", dict(labels)
        for action in self.RELABELS + (mutation, "reprove") + self.RELABELS:
            nodes = [node for node in config.graph.nodes if labels[node].length]
            if action in ("flip", "same", "unparseable") and not nodes:
                action = "relabel"  # empty labels everywhere (uniformity)
            if action in ("flip", "same"):
                if action == "flip" or victim not in nodes:
                    victim = rng.choice(nodes)
                label = labels[victim]
                labels[victim] = BitString(
                    label.value ^ (1 << rng.randrange(label.length)), label.length
                )
            elif action == "back":
                for node in rng.sample(sorted(labels, key=repr), 2):
                    labels[node] = honest.get(node, labels[node])
            elif action == "unparseable":
                labels.update(self._truncate(labels, rng.choice(nodes)))
            elif action == "relabel":
                labels.update(self._relabel(labels, rng.choice(config.graph.nodes)))
            elif action == "reprove":
                try:
                    honest = scheme.prover(config)
                except (ValueError, LookupError, AssertionError):
                    continue  # the provers cannot prove the mutated configuration
                labels = dict(honest)
            elif action == "replace_state":
                # An equal state under a new object: the skeleton is rebuilt
                # and keeps its held slots.
                node = config.graph.nodes[0]
                config.states[node] = config.state(node).with_fields()
            else:
                self._mutate(config, labels, action)
            yield action, dict(labels)

    @pytest.mark.parametrize("randomness", ALL_MODES)
    @pytest.mark.parametrize("name", spec_names())
    def test_relabel_walk_updates_the_kernel_state_in_place(self, name, randomness):
        """On every verdict spec and randomness mode, random walks of
        relabels, relabels back, repeated victims, unparseable labels and
        one skeleton rebuild each leave the in-place kernel state equal to
        a from-scratch build after every step, with kernel verdicts equal
        to the scalar path's."""
        from repro.engine.kernels import _build_vector_state, run_chunk, vector_state
        from repro.engine.plan import _CONTEXT_MEMO

        spec = get_spec(name)
        scheme = build_scheme(spec)
        rng = random.Random(f"{name}/{randomness}")
        seeds = [derive_trial_seed(13, t) for t in range(6)]
        in_place = walks = 0
        for mutation in self.MUTATIONS:
            config = clean_configuration(spec, seed=0)
            table = None
            # The walk mutates config as it goes: compile each step as it comes.
            for action, labels in self._walk(rng, scheme, config, mutation):
                try:
                    plan = VerificationPlan.compile(
                        scheme, config, labels=labels, randomness=randomness,
                        rng_mode="vector",
                    )
                except LookupError:
                    # A new port outran port-indexed state data (edge
                    # weights): the scheme cannot read this configuration.
                    assert mutation == "add_edge", (name, mutation)
                    break
                state = vector_state(plan)
                assert self._same_state(state, _build_vector_state(plan)), (name, action)
                kernel = _CONTEXT_MEMO[config].slots[id(scheme)].kernel
                in_place += table is not None and kernel is table
                table = kernel
                if state is not None and not state.constant_false and state.dirty_pairs:
                    scalar = [plan.run_trial(seed) for seed in seeds]
                    assert run_chunk(plan, seeds).tolist() == scalar, (name, action)
            else:
                walks += 1
        # Not vacuous: most steps updated the table rather than rebuilt it.
        assert walks >= len(self.MUTATIONS) - 1, name
        assert in_place >= 8 * walks, (name, in_place)

    def test_a_scan_candidate_parses_and_compares_only_its_victim(
        self, counted, monkeypatch
    ):
        """After warm-up, every single-bit candidate of a scan over the
        honest labels parses its victim once, describes it once, and
        re-checks exactly the pairs incident to it: the previous victim
        returns to its held honest slot, and its pairs to their held
        honest checks.  (A pair holds two checks, so two victims in a row
        that are neighbours evict their shared edge's honest checks, which
        the next candidate then repeats; this scan's victims in a row are
        never neighbours, as in a scan with evenly spaced victims.)"""
        from repro.engine import kernels

        config = spanning_tree_configuration(40, 12, seed=132)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        honest = scheme.prover(config)
        described, checked = [], []
        original_spec = FingerprintCompiledRPLS.engine_vector_spec
        original_check = kernels._check

        def counting_spec(scheme, context):
            described.append(context)
            return original_spec(scheme, context)

        def counting_check(kind, receiver, port, sender, source):
            checked.append(source)
            return original_check(kind, receiver, port, sender, source)

        monkeypatch.setattr(FingerprintCompiledRPLS, "engine_vector_spec", counting_spec)
        monkeypatch.setattr(kernels, "_check", counting_check)
        rng = random.Random(7)
        graph = config.graph
        pending, victims = list(graph.nodes), []
        while True:
            victim = next((node for node in pending if not any(
                node == last or graph.has_edge(node, last) for last in victims[-2:]
            )), None)
            if victim is None:
                break
            pending.remove(victim)
            victims.append(victim)
        assert len(victims) >= 30
        # Bits in a label's lower half flip replica bits, never the kappa
        # header, so every candidate parses and reaches the kernel.
        candidates = [(node, rng.randrange(honest[node].length // 2)) for node in victims]
        dirty = 0
        for index, (victim, bit) in enumerate([(None, 0)] + candidates):
            labels = dict(honest)
            if victim is not None:
                label = honest[victim]
                labels[victim] = BitString(label.value ^ (1 << bit), label.length)
            counted.clear()
            described.clear()
            checked.clear()
            plan = VerificationPlan.compile(
                scheme, config, labels=labels, rng_mode="vector"
            ).prepare()
            if index < 2:
                continue  # warm-up: the honest compile and a first victim
            i = plan.nodes.index(victim)
            start = sum(plan.degrees[:i])
            incident = sorted(plan.incoming[i] + tuple(range(start, start + plan.degrees[i])))
            assert counted == [victim], (victim, bit)
            assert [id(context) for context in described] == [id(plan.contexts[i])]
            assert sorted(checked) == incident, (victim, bit)
            dirty += kernels.vector_state(plan).dirty_pairs > 0
        assert dirty >= 3  # not only flips the base verifier rejects outright

    def test_a_width_changing_kappa_claim_leaves_the_table_standing(self):
        """A shared-coins label re-encoded under another kappa parses, but
        its masks have another width: the plan has no kernel, as from
        scratch, and the table stays in place for the next candidate."""
        from repro.core.bitstrings import BitWriter
        from repro.engine.kernels import _build_vector_state, vector_state
        from repro.engine.plan import _CONTEXT_MEMO

        config = spanning_tree_configuration(12, 4, seed=134)
        scheme = SharedCoinsCompiledRPLS(SpanningTreePLS())
        honest = scheme.prover(config)
        base = scheme.base.prover(config)
        victim = config.graph.nodes[2]
        kappa = max(label.length for label in base.values()) + 3
        writer = BitWriter()
        writer.write_varuint(kappa)
        for node in [victim] + [
            config.graph.neighbor(victim, port) for port in range(config.graph.degree(victim))
        ]:
            writer.write_bitstring(scheme._replica(base[node], kappa))
        widened = dict(honest)
        widened[victim] = writer.finish()

        def state_of(labels):
            plan = VerificationPlan.compile(
                scheme, config, labels=labels, randomness="shared", rng_mode="vector"
            )
            state = vector_state(plan)
            assert self._same_state(state, _build_vector_state(plan))
            return plan, state

        state_of(self._flip(honest, victim))
        table = _CONTEXT_MEMO[config].slots[id(scheme)].kernel
        plan, state = state_of(widened)
        assert plan.constant_verdict is None and state is None
        assert _CONTEXT_MEMO[config].slots[id(scheme)].kernel is table
        _plan, state = state_of(self._flip(honest, config.graph.nodes[5]))
        assert state is not None
        assert _CONTEXT_MEMO[config].slots[id(scheme)].kernel is table

    def test_each_node_holds_at_most_two_slots(self, counted):
        """A node holds its most recent slot and the one before it: a
        return to the older costs no parse and drops the newer, a third
        label re-parses and evicts the oldest."""
        from repro.engine.plan import _CONTEXT_MEMO

        config = spanning_tree_configuration(12, 4, seed=133)
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        honest = scheme.prover(config)
        victim = config.graph.nodes[3]
        index = config.graph.nodes.index(victim)
        flips = [self._flip(honest, victim, bit) for bit in range(4)]

        def parsed(labels):
            counted.clear()
            VerificationPlan.compile(scheme, config, labels=labels)
            held = _CONTEXT_MEMO[config].slots[id(scheme)].held
            assert all(len(slots) <= 2 for slots in held)
            return list(counted), len(held[index])

        assert parsed(honest) == (list(config.graph.nodes), 1)
        assert parsed(flips[0]) == ([victim], 2)
        assert parsed(honest) == ([], 1)  # back to the older: the forgery is dropped
        assert parsed(flips[0]) == ([victim], 2)
        for labels in flips[1:]:
            assert parsed(labels) == ([victim], 2)
        assert parsed(flips[2]) == ([], 1)
        assert parsed(flips[3]) == ([victim], 2)  # dropped on the way back
        assert parsed(honest) == ([victim], 2)  # evicted long ago
        assert parsed(flips[3]) == ([], 1)

    MUTATIONS = ("add_node", "add_edge", "graft", "rewire", "swap_ports", "replace_state")

    @staticmethod
    def _mutate(config, labels, mutation):
        """Change ``config`` in place (and extend ``labels`` to new nodes)."""
        from repro.core.configuration import NodeState
        from repro.graphs.port_graph import PortGraph, _swap_ports

        graph = config.graph
        nodes = graph.nodes
        template = config.state(nodes[0])

        def add_states(*new_nodes):
            for node in new_nodes:
                config.states[node] = NodeState(node, dict(template.fields))
                labels[node] = labels[nodes[0]]

        if mutation == "add_node":
            graph.add_node(100)
            add_states(100)
        elif mutation == "add_edge":
            u, v = next(
                (u, v) for u in nodes for v in nodes if u < v and not graph.has_edge(u, v)
            )
            graph.add_edge(u, v)
        elif mutation == "graft":
            graph.graft(PortGraph.from_edges([(100, 101), (101, 102)]))
            add_states(100, 101, 102)
        elif mutation == "rewire":
            # Cross two node-disjoint edges, ports preserved.
            edges = graph.edges()
            u, pu, v, pv = edges[0]
            x, px, y, py = next(e for e in edges if not {e[0], e[2]} & {u, v})
            graph.rewire(u, pu, y, py)
            graph.rewire(y, py, u, pu)
            graph.rewire(x, px, v, pv)
            graph.rewire(v, pv, x, px)
        elif mutation == "swap_ports":
            _swap_ports(graph, next(n for n in nodes if graph.degree(n) >= 2), 0, 1)
        elif mutation == "replace_state":
            # The deviant node takes the common payload: Unif now holds.
            payloads = [config.state(node).get("payload") for node in nodes]
            common = max(payloads, key=payloads.count)
            deviant = next(n for n, p in zip(nodes, payloads) if p != common)
            config.states[deviant] = config.state(deviant).with_fields(payload=common)
        else:  # pragma: no cover - parametrized over MUTATIONS
            raise ValueError(mutation)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_a_changed_configuration_rebuilds_the_skeleton(self, mutation):
        """After a compile, every PortGraph mutator and every replaced state
        entry makes the next compile equal a compile on a fresh copy, trial
        for trial, in both rng modes."""
        from repro.engine.plan import _CONTEXT_MEMO

        scheme = DirectUnifRPLS()
        config = uniform_configuration(10, 6, equal=False, seed=131)
        labels = dict(scheme.prover(config))
        seeds = [derive_trial_seed(9, t) for t in range(self.TRIALS)]

        def outcome(plan):
            verdicts = [plan.run_trial(seed) for seed in seeds]
            return plan.nodes, plan.incoming, plan.degrees, plan.params, verdicts

        before = {
            rng_mode: outcome(VerificationPlan.compile(
                scheme, config, labels=labels, rng_mode=rng_mode
            ))
            for rng_mode in RNG_MODES
        }
        skeleton = _CONTEXT_MEMO[config]
        self._mutate(config, labels, mutation)
        fresh_config = config.copy()
        for rng_mode in RNG_MODES:
            after = outcome(VerificationPlan.compile(
                scheme, config, labels=labels, rng_mode=rng_mode
            ))
            assert after == outcome(VerificationPlan.compile(
                scheme, fresh_config, labels=labels, rng_mode=rng_mode
            )), rng_mode
            # Not vacuous: a stale skeleton would have reproduced `before`.
            assert after != before[rng_mode], rng_mode
        assert _CONTEXT_MEMO[config] is not skeleton

    def test_scheme_instances_do_not_share_slots(self, counted):
        config = spanning_tree_configuration(10, 3, seed=126)
        first = FingerprintCompiledRPLS(SpanningTreePLS())
        second = FingerprintCompiledRPLS(SpanningTreePLS())
        VerificationPlan.compile(first, config)
        counted.clear()
        VerificationPlan.compile(second, config)
        assert len(counted) == config.node_count
        counted.clear()
        VerificationPlan.compile(first, config)
        assert counted == []

    def test_mutable_state_is_never_memoized(self, counted):
        """A state holding a mutable container could change under an equal
        view: its node rebuilds on every compile, and the state's encoded
        size is never cached."""
        base = spanning_tree_configuration(10, 3, seed=127)
        victim = base.graph.nodes[0]
        log = [1]
        config = base.with_state(
            victim, base.state(victim).with_fields(audit_log=log)
        )
        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        labels = scheme.prover(config)
        VerificationPlan.compile(scheme, config, labels=labels)
        counted.clear()
        before = VerificationPlan.compile(scheme, config, labels=labels)
        assert counted == [victim]
        log.extend(range(2, 60))  # grows the state's encoded size in place
        after = VerificationPlan.compile(scheme, config, labels=labels)
        assert after.params.state_bits > before.params.state_bits
        assert after.params == VerificationPlan.compile(
            scheme, config.copy(), labels=labels
        ).params

    def test_memo_does_not_pin_the_configuration(self):
        import gc
        import weakref

        from repro.engine.plan import _CONTEXT_MEMO

        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        config = spanning_tree_configuration(10, 3, seed=128)
        labels = self._flip(scheme.prover(config), config.graph.nodes[0])
        plan = VerificationPlan.compile(scheme, config, labels=labels).prepare()
        assert id(scheme) in _CONTEXT_MEMO[config].slots
        ref = weakref.ref(config)
        del config, plan
        gc.collect()
        assert ref() is None

    def test_compile_leaves_the_coefficient_cache_alone(self):
        from repro.core.fingerprint import Fingerprinter

        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        config = spanning_tree_configuration(12, 4, seed=129)
        honest = scheme.prover(config)
        fingerprinter = VerificationPlan.compile(scheme, config).contexts[0].fingerprinter
        assert fingerprinter is Fingerprinter.shared(fingerprinter.lam, repetitions=1)
        before = fingerprinter._coefficients.cache_info().currsize
        for victim in config.graph.nodes[:4]:
            forged = self._flip(honest, victim, 3)
            VerificationPlan.compile(scheme, config.copy(), labels=forged).prepare()
        assert fingerprinter._coefficients.cache_info().currsize == before

    def test_concurrent_compiles_see_their_own_views(self):
        """Threads recompiling one configuration under different forgeries
        race on the same slots and their specs; every plan still gets
        exactly the contexts and kernel pairs of a fresh compile of its own
        labels."""
        import sys
        import threading

        from repro.engine.kernels import vector_state

        scheme = FingerprintCompiledRPLS(SpanningTreePLS())
        config = spanning_tree_configuration(12, 4, seed=130)
        honest = scheme.prover(config)
        victims = config.graph.nodes[:4]
        forgeries = [honest] + [self._flip(honest, victim) for victim in victims]
        expected = []
        for labels in forgeries:
            plan = VerificationPlan.compile(scheme, config.copy(), labels=labels)
            expected.append((plan.contexts, vector_state(plan).pairs))
        mismatches = []

        def worker(offset):
            for step in range(30):
                index = (offset + step) % len(forgeries)
                plan = VerificationPlan.compile(scheme, config, labels=forgeries[index])
                if (plan.contexts, vector_state(plan).pairs) != expected[index]:
                    mismatches.append((offset, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
