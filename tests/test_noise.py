"""Tests for the two-sided noisy-channel wrapper (core.noise)."""

import pytest

from repro.core.boosting import majority_decision
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.noise import NoisyChannelRPLS, flip_probability_for_completeness
from repro.core.verifier import estimate_acceptance, verify_randomized
from repro.graphs.generators import (
    corrupt_spanning_tree,
    spanning_tree_configuration,
)
from repro.schemes.spanning_tree import SpanningTreePLS
from repro.schemes.uniformity import DirectUnifRPLS
from repro.graphs.generators import uniform_configuration


def compiled_tree_scheme():
    return FingerprintCompiledRPLS(SpanningTreePLS())


class TestWrapperMechanics:
    def test_zero_noise_is_transparent(self):
        config = spanning_tree_configuration(20, 8, seed=0)
        base = compiled_tree_scheme()
        noisy = NoisyChannelRPLS(base, 0.0)
        assert noisy.one_sided
        assert verify_randomized(noisy, config, seed=0).accepted

    def test_nonzero_noise_declares_two_sided(self):
        noisy = NoisyChannelRPLS(compiled_tree_scheme(), 0.01)
        assert not noisy.one_sided
        assert noisy.edge_independent

    def test_rejects_half_or_more(self):
        with pytest.raises(ValueError):
            NoisyChannelRPLS(compiled_tree_scheme(), 0.5)

    def test_certificate_length_unchanged(self):
        config = spanning_tree_configuration(20, 8, seed=1)
        base = compiled_tree_scheme()
        noisy = NoisyChannelRPLS(base, 0.05)
        assert noisy.verification_complexity(config) == base.verification_complexity(
            config
        )

    def test_round_bits_counts_both_directions(self):
        config = spanning_tree_configuration(10, 0, seed=2)
        noisy = NoisyChannelRPLS(compiled_tree_scheme(), 0.01)
        bits = noisy.round_bits(config)
        # 9 tree edges, two directions each, every certificate non-empty.
        assert bits >= 2 * 9


class TestTwoSidedBehaviour:
    def test_completeness_degrades_with_noise(self):
        config = spanning_tree_configuration(25, 10, seed=3)
        base = compiled_tree_scheme()
        quiet = NoisyChannelRPLS(base, 0.001)
        loud = NoisyChannelRPLS(base, 0.2)
        quiet_rate = estimate_acceptance(quiet, config, trials=60).probability
        loud_rate = estimate_acceptance(loud, config, trials=60).probability
        assert quiet_rate > loud_rate

    def test_calibrated_noise_meets_two_thirds(self):
        config = spanning_tree_configuration(25, 10, seed=4)
        base = compiled_tree_scheme()
        probe = NoisyChannelRPLS(base, 0.0)
        p = flip_probability_for_completeness(2 / 3, probe.round_bits(config))
        noisy = NoisyChannelRPLS(base, p)
        assert noisy.completeness_lower_bound(config) >= 2 / 3 - 1e-9
        rate = estimate_acceptance(noisy, config, trials=90).probability
        assert rate >= 0.55  # 2/3 minus sampling slack

    def test_soundness_survives_noise(self):
        """Noise only garbles certificates further; forged instances must
        still be rejected with good probability."""
        config = spanning_tree_configuration(25, 10, seed=5)
        corrupted = corrupt_spanning_tree(config, seed=6)
        base = compiled_tree_scheme()
        noisy = NoisyChannelRPLS(base, 0.02)
        estimate = estimate_acceptance(
            noisy, corrupted, trials=60, labels=base.prover(config)
        )
        assert estimate.probability < 0.4

    def test_direct_unif_scheme_wraps_too(self):
        config = uniform_configuration(16, payload_bits=64, seed=7)
        base = DirectUnifRPLS()
        probe = NoisyChannelRPLS(base, 0.0)
        p = flip_probability_for_completeness(2 / 3, probe.round_bits(config))
        noisy = NoisyChannelRPLS(base, p)
        rate = estimate_acceptance(noisy, config, trials=60).probability
        assert rate >= 0.55


class TestMajorityAmplification:
    def test_majority_restores_legal_acceptance(self):
        """Footnote 1 end-to-end: a calibrated two-sided scheme plus
        run-level majority accepts legal configurations reliably."""
        config = spanning_tree_configuration(20, 8, seed=8)
        base = compiled_tree_scheme()
        p = flip_probability_for_completeness(
            0.75, NoisyChannelRPLS(base, 0.0).round_bits(config)
        )
        noisy = NoisyChannelRPLS(base, p)
        votes = [
            majority_decision(noisy, config, repetitions=11, seed=seed)
            for seed in range(10)
        ]
        assert sum(votes) >= 9

    def test_majority_still_rejects_illegal(self):
        config = spanning_tree_configuration(20, 8, seed=9)
        corrupted = corrupt_spanning_tree(config, seed=10)
        base = compiled_tree_scheme()
        noisy = NoisyChannelRPLS(base, 0.01)
        votes = [
            majority_decision(
                noisy,
                corrupted,
                repetitions=11,
                seed=seed,
                labels=base.prover(config),
            )
            for seed in range(10)
        ]
        assert sum(votes) <= 1


class TestCalibration:
    def test_monotone_in_bits(self):
        assert flip_probability_for_completeness(
            2 / 3, 1000
        ) < flip_probability_for_completeness(2 / 3, 10)

    def test_zero_bits_caps(self):
        assert flip_probability_for_completeness(2 / 3, 0) == 0.49

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            flip_probability_for_completeness(1.5, 10)


class TestNoisyHookPath:
    """The noisy wrapper over the Theorem 3.1 compiler runs the engine hook
    path, with compat decisions identical to the one-shot oracle."""

    CONFIG = dict(node_count=14, extra_edges=4, seed=3)
    TRIALS = 24
    #: A compat trial (master seed 0, edge randomness) in which a flipped
    #: bit pushes a fingerprint coordinate to >= the prime at p = 0.002.
    OUT_OF_FIELD_TRIAL = 4

    def _views(self, scheme, config, labels):
        from repro.core.scheme import LabelView, SchemeParams

        params = SchemeParams.from_configuration(config)
        return [
            LabelView(
                node=node,
                state=config.state(node),
                degree=config.graph.degree(node),
                params=params,
                own_label=labels[node],
            )
            for node in config.graph.nodes
        ]

    @pytest.mark.parametrize("flip_probability", (0.0, 0.002, 0.2))
    @pytest.mark.parametrize("randomness", ("edge", "node", "shared"))
    def test_trialwise_identical_to_oracle(self, randomness, flip_probability):
        from repro.core.seeding import derive_trial_seed
        from repro.engine import VerificationPlan

        config = spanning_tree_configuration(**self.CONFIG)
        scheme = NoisyChannelRPLS(compiled_tree_scheme(), flip_probability)
        labels = scheme.prover(config)
        plan = VerificationPlan.compile(
            scheme, config, labels=labels, randomness=randomness
        )
        assert plan.uses_fast_path and plan.kernel_path == "scalar"
        decisions = []
        for trial in range(self.TRIALS):
            trial_seed = derive_trial_seed(0, trial)
            reference = verify_randomized(
                scheme, config, seed=trial_seed, labels=labels, randomness=randomness
            ).accepted
            assert plan.run_trial(trial_seed) == reference, (randomness, trial)
            decisions.append(reference)
        if flip_probability == 0.0:
            assert all(decisions)

    def test_out_of_field_coordinate_rejects_identically(self):
        from repro.core.scheme import derive_rng
        from repro.core.seeding import derive_trial_seed
        from repro.engine import VerificationPlan

        config = spanning_tree_configuration(**self.CONFIG)
        base = compiled_tree_scheme()
        scheme = NoisyChannelRPLS(base, 0.002)
        labels = scheme.prover(config)
        trial_seed = derive_trial_seed(0, self.OUT_OF_FIELD_TRIAL)
        out_of_field = 0
        for view in self._views(scheme, config, labels):
            context = scheme.engine_node_context(view)
            prime = context.fingerprinter.params.prime
            for port in range(view.degree):
                message = scheme.engine_certificate(
                    context, port, derive_rng(trial_seed, view.node, port)
                )
                # Certificate-exact: the hook message packs to the very bits
                # the reference certificate ships.
                reference = scheme.certificate(
                    view, port, derive_rng(trial_seed, view.node, port)
                )
                assert base.engine_encode_message(context, message) == reference
                if any(c >= prime for point in message[1] for c in point):
                    out_of_field += 1
        assert out_of_field, "the pinned trial no longer flips past the prime"
        plan = VerificationPlan.compile(scheme, config, labels=labels)
        oracle = verify_randomized(scheme, config, seed=trial_seed, labels=labels)
        assert plan.run_trial(trial_seed) is False
        assert oracle.accepted is False

    def test_certificate_draws_match_reference(self):
        # Same draw order and count as certificate(): after one call on
        # each path, the two generators are in the same state.
        import random

        config = spanning_tree_configuration(**self.CONFIG)
        for flip_probability in (0.0, 0.3):
            scheme = NoisyChannelRPLS(compiled_tree_scheme(), flip_probability)
            view = self._views(scheme, config, scheme.prover(config))[0]
            context = scheme.engine_node_context(view)
            hook_rng, reference_rng = random.Random(9), random.Random(9)
            message = scheme.engine_certificate(context, 0, hook_rng)
            reference = scheme.certificate(view, 0, reference_rng)
            assert hook_rng.getstate() == reference_rng.getstate()
            assert scheme.base.engine_encode_message(context, message) == reference

    def test_codec_round_trips(self):
        import random

        config = spanning_tree_configuration(**self.CONFIG)
        base = FingerprintCompiledRPLS(SpanningTreePLS(), repetitions=3)
        view = self._views(base, config, base.prover(config))[0]
        context = base.engine_node_context(view)
        message = base.engine_certificate(context, 0, random.Random(2))
        packed = base.engine_encode_message(context, message)
        assert packed == base.certificate(view, 0, random.Random(2))
        assert base.engine_decode_message(context, packed) == message

    @pytest.mark.parametrize("rng_mode", ("compat", "vector"))
    def test_runs_in_every_rng_mode(self, rng_mode):
        from repro.engine import VerificationPlan, estimate_acceptance_fast

        config = spanning_tree_configuration(**self.CONFIG)
        scheme = NoisyChannelRPLS(compiled_tree_scheme(), 0.002)
        plan = VerificationPlan.compile(scheme, config, rng_mode=rng_mode)
        assert plan.kernel_path == "scalar" and not plan.vector_ready
        estimate = estimate_acceptance_fast(plan, 256, seed=1)
        assert 0 < estimate.accepted < estimate.trials

    def test_counter_rng_random_uses_one_word_per_call(self):
        from repro.core.seeding import CounterRng, stream_word

        rng = CounterRng(12345)
        for call in range(200):
            value = rng.random()
            assert rng.counter == call + 1
            assert 0.0 <= value < 1.0
            assert value == (stream_word(12345, call) >> 11) * 2.0**-53

    def test_base_without_codec_stays_generic(self):
        from repro.core.shared import SharedCoinsCompiledRPLS
        from repro.engine import VerificationPlan

        uniform = uniform_configuration(8, 8, equal=True, seed=74)
        plan = VerificationPlan.compile(
            NoisyChannelRPLS(DirectUnifRPLS(), 0.01), uniform
        )
        assert plan.uses_fast_path is False and plan.kernel_path == "generic"
        config = spanning_tree_configuration(**self.CONFIG)
        shared = NoisyChannelRPLS(SharedCoinsCompiledRPLS(SpanningTreePLS()), 0.01)
        assert not VerificationPlan.compile(
            shared, config, randomness="shared"
        ).uses_fast_path
