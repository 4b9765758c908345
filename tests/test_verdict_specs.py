"""The differential identity matrix: every verdict spec vs the legacy oracle.

This suite is *generated from the registry* (:mod:`repro.engine.specs`):
the matrix rows are ``spec_names()``, not a hand-maintained list, so

- a scheme someone registers without oracle-identity coverage shows up
  here automatically and must pass;
- a scheme someone expects to be covered but forgets to register fails
  the :class:`TestRegistryContract` completeness check;
- a registered scheme whose engine decisions drift from
  ``verify_randomized`` — the deliberately unoptimized reference — fails
  the per-trial bit-identity cells.

Matrix axes:

- **scheme** — all registered specs (the seven originally hook-wired
  schemes plus the twelve that used to run the legacy oracle only);
- **workload kind** — clean (honest labels, legal state), proof-fault
  (one label bit flipped), state-fault (honest labels replayed against a
  violating configuration);
- **rng mode** — ``compat`` pinned bit-for-bit to the oracle;
  ``vector`` pinned scalar-vs-vectorized per trial, plus Wilson-interval
  cross-mode agreement on the estimated probability.

Also here: the spec-registry property tests (explicit
:class:`UnknownSchemeError` fallback, :class:`VerdictSpec` validation,
scheme memoization, :class:`PlanCache` keying on spec identity) and the
constant-verdict / zero-trial short-circuit contract for every newly
hooked scheme.
"""

import pytest
from spec_matrix import (
    RNG_MODES,
    SCHEME_NAMES,
    WORKLOAD_KINDS,
    matrix_plan,
    matrix_workload,
    scheme_case,
)

from repro.core.bitstrings import BitString
from repro.core.boosting import BoostedRPLS
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.seeding import derive_trial_seed
from repro.core.shared import SharedCoinsCompiledRPLS
from repro.core.verifier import verify_randomized
from repro.engine import (
    PlanCache,
    UnknownSchemeError,
    VerdictSpec,
    VerificationPlan,
    build_scheme,
    estimate_acceptance_fast,
    get_spec,
    iter_specs,
    register,
    scheme_for,
    spec_names,
    spec_plan,
)
from repro.simulation.metrics import wilson_interval

#: The full zoo.  This set is asserted *equal* to the registry: a scheme
#: added without registering a spec (or registered without extending the
#: matrix's expectations) fails tier-1 — coverage can only be changed
#: deliberately, in both places at once.
EXPECTED_SCHEMES = frozenset(
    {
        # originally hook-wired
        "fingerprint",
        "uniformity",
        "boosting",
        "shared-coins",
        "mst",
        "flow",
        "distance",
        # previously legacy-oracle-only
        "acyclicity",
        "biconnectivity",
        "bipartiteness",
        "coloring",
        "cycle-length",
        "eulerian",
        "hamiltonicity",
        "leader",
        "mis",
        "spanning-tree",
        "symmetry",
        "vertex-connectivity",
    }
)

#: registry name -> parallel-factories workload name, where they differ
#: (the factories predate the registry and keep their CLI-facing names).
SPEC_TO_WORKLOAD = {
    "fingerprint": "spanning-tree",
    "boosting": "boosted-spanning-tree",
    "flow": "k-flow",
}

MATRIX_TRIALS = 6
MASTER_SEEDS = (3, 11)

VACUOUS = "zero-bit labels (label-free scheme): no proof bit exists to flip"


class TestRegistryContract:
    """The registry is the single source of truth — pinned both ways."""

    def test_registry_matches_expected_matrix(self):
        registered = set(spec_names())
        assert registered == EXPECTED_SCHEMES, {
            "missing (expected but unregistered)": sorted(
                EXPECTED_SCHEMES - registered
            ),
            "unexpected (registered but not in the matrix)": sorted(
                registered - EXPECTED_SCHEMES
            ),
        }

    def test_iter_specs_is_name_ordered(self):
        assert tuple(spec.name for spec in iter_specs()) == spec_names()

    def test_all_three_kernel_families_are_exercised(self):
        assert {spec.family for spec in iter_specs()} == {
            "fingerprint",
            "parity",
            "threshold",
        }

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_spec_compiles_to_vector_ready_fast_path(self, name):
        plan = spec_plan(name)
        assert plan.uses_fast_path, name
        assert plan.constant_verdict is None, name
        assert plan.vector_ready, name

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_spec_declares_a_fault_workload(self, name):
        """Every spec ships a same-node-set violating configuration — the
        matrix's state-fault column is total by construction."""
        spec = get_spec(name)
        clean = spec.workload(0)
        fault = spec.fault(0)
        assert fault is not None, name
        assert set(fault.graph.nodes) == set(clean.graph.nodes), name

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_spec_has_a_parallel_workload_factory(self, name):
        """Campaign sweeps can shard every registered scheme: each spec maps
        to a :data:`repro.parallel.factories.WORKLOADS` entry running under
        the same randomness mode."""
        from repro.parallel.factories import WORKLOADS, workload_spec

        spec = get_spec(name)
        workload = SPEC_TO_WORKLOAD.get(name, name)
        assert workload in WORKLOADS, (name, workload)
        assert WORKLOADS[workload][1] == spec.randomness, name
        assert workload_spec(workload).randomness == spec.randomness


class TestDifferentialMatrix:
    """Per-trial decisions pinned to the reference oracle, per matrix cell."""

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_compat_bit_identity_with_oracle(self, name, kind):
        cell = matrix_workload(name, kind)
        if cell is None:
            pytest.skip(f"{name}: {VACUOUS}")
        spec, scheme, configuration, labels = cell
        plan = VerificationPlan.compile(
            scheme, configuration, labels=labels, randomness=spec.randomness
        )
        for master in MASTER_SEEDS:
            for trial in range(MATRIX_TRIALS):
                trial_seed = derive_trial_seed(master, trial)
                reference = verify_randomized(
                    scheme,
                    configuration,
                    seed=trial_seed,
                    labels=labels,
                    randomness=spec.randomness,
                ).accepted
                assert plan.run_trials([trial_seed]) == int(reference), (
                    name,
                    kind,
                    master,
                    trial,
                )

    @pytest.mark.parametrize("rng_mode", ("vector",))
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_scalar_vector_bit_identity(self, name, rng_mode):
        """In vector mode the numpy kernel and the scalar CounterRng path
        make identical per-trial decisions on every matrix cell."""
        seeds = [derive_trial_seed(7, t) for t in range(2 * MATRIX_TRIALS)]
        compared = 0
        for kind in WORKLOAD_KINDS:
            plan = matrix_plan(name, kind, rng_mode)
            if plan is None or plan.constant_verdict is not None:
                continue  # vacuous cell / compile-time verdict: no kernel runs
            assert plan.vector_ready, (name, kind)
            scalar = [plan.run_trials([s], vectorize=False) for s in seeds]
            vector = [plan.run_trials([s], vectorize=True) for s in seeds]
            assert scalar == vector, (name, kind, rng_mode)
            # chunked execution is the same decisions, just batched
            assert plan.run_trials(seeds, vectorize=True) == sum(scalar)
            compared += 1
        assert compared, f"{name}: no randomized cell compared"


    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_vector_estimates_are_counter_addressed(self, set_chunk, name):
        """A vector-mode estimate of trials ``[first, first + n)`` counts
        exactly the scalar CounterRng verdicts of those counters, on the
        plan's own path (kernel where it has one) and at any chunking, so
        shards and installments may cut the trial range anywhere."""
        trials, split = 3 * MATRIX_TRIALS, MATRIX_TRIALS + 1
        for kind in WORKLOAD_KINDS:
            plan = matrix_plan(name, kind, "vector")
            if plan is None:
                continue  # vacuous cell
            verdicts = [
                plan.run_trial(derive_trial_seed(7, t)) for t in range(trials)
            ]
            set_chunk(5)
            whole = estimate_acceptance_fast(plan, trials, seed=7)
            set_chunk(4)
            left = estimate_acceptance_fast(plan, split, seed=7)
            set_chunk(3)
            right = estimate_acceptance_fast(
                plan, trials - split, seed=7, first_trial=split
            )
            assert (whole.accepted, left.accepted, right.accepted) == (
                sum(verdicts), sum(verdicts[:split]), sum(verdicts[split:])
            ), (name, kind, plan.kernel_path)


class TestCrossModeAgreement:
    """compat / vector estimate the same acceptance probability."""

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_clean_completeness_every_mode(self, name):
        """One-sided completeness is exact: 60 clean trials accept in every
        mode with no statistical tolerance."""
        spec, scheme, clean, honest = scheme_case(name)
        plan = VerificationPlan.compile(
            scheme, clean, labels=honest, randomness=spec.randomness
        )
        for mode in RNG_MODES:
            estimate = estimate_acceptance_fast(plan, 60, seed=3, rng_mode=mode)
            assert estimate.probability == 1.0, (name, mode, estimate)

    @pytest.mark.parametrize("kind", ("proof-fault", "state-fault"))
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_fault_modes_agree(self, name, kind):
        """Fault cells: degenerate plans give the exact constant in every
        mode; randomized ones must have pairwise-overlapping Wilson
        intervals (same underlying probability, different sample points)."""
        cell = matrix_workload(name, kind)
        if cell is None:
            pytest.skip(f"{name}: {VACUOUS}")
        spec, scheme, configuration, labels = cell
        plan = VerificationPlan.compile(
            scheme, configuration, labels=labels, randomness=spec.randomness
        )
        if plan.constant_verdict is not None:
            expected = 1.0 if plan.constant_verdict else 0.0
            for mode in RNG_MODES:
                estimate = estimate_acceptance_fast(plan, 40, seed=5, rng_mode=mode)
                assert estimate.probability == expected, (name, kind, mode)
            # and the constant agrees with the oracle on a sample round
            sample = verify_randomized(
                scheme,
                configuration,
                seed=derive_trial_seed(5, 0),
                labels=labels,
                randomness=spec.randomness,
            ).accepted
            assert bool(sample) is plan.constant_verdict, (name, kind)
            return
        estimates = {
            mode: estimate_acceptance_fast(plan, 150, seed=5, rng_mode=mode)
            for mode in RNG_MODES
        }
        intervals = {
            mode: wilson_interval(est.accepted, est.trials)
            for mode, est in estimates.items()
        }
        for mode_a, (low_a, high_a) in intervals.items():
            for mode_b, (low_b, high_b) in intervals.items():
                assert low_a <= high_b and low_b <= high_a, (
                    name,
                    kind,
                    mode_a,
                    intervals[mode_a],
                    mode_b,
                    intervals[mode_b],
                )


class TestConstantVerdictShortCircuit:
    """Unparseable labels fold at compile time; estimators run zero trials."""

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_unparseable_labels_short_circuit(self, name, monkeypatch):
        spec, scheme, clean, honest = scheme_case(name)
        if all(honest[node].length == 0 for node in clean.graph.nodes):
            pytest.skip(f"{name}: {VACUOUS} — nothing can fail parsing")
        forged = {node: BitString(0, 1) for node in clean.graph.nodes}
        plan = VerificationPlan.compile(
            scheme, clean, labels=forged, randomness=spec.randomness
        )
        assert plan.constant_verdict is False, name

        calls = []
        real_run_trials = VerificationPlan.run_trials

        def counting_run_trials(self, *args, **kwargs):
            calls.append(args)
            return real_run_trials(self, *args, **kwargs)

        monkeypatch.setattr(VerificationPlan, "run_trials", counting_run_trials)
        updates = []
        estimate = estimate_acceptance_fast(
            plan, 33, seed=9, progress=lambda accepted, done: updates.append(
                (accepted, done)
            )
        )
        assert (estimate.accepted, estimate.trials) == (0, 33), name
        assert calls == [], f"{name}: degenerate estimate ran trials"
        assert updates == [(0, 33)], name

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_zero_trials_is_an_explicit_error(self, name):
        """No scheme silently returns an empty estimate: a zero/negative
        trial budget is rejected before any plan work happens."""
        _, scheme, clean, honest = scheme_case(name)
        spec = get_spec(name)
        plan = VerificationPlan.compile(
            scheme, clean, labels=honest, randomness=spec.randomness
        )
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials must be positive"):
                estimate_acceptance_fast(plan, trials, seed=1)


class TestRegistryProperties:
    """The spec layer's API contract: explicit fallback, validation, keying."""

    def test_unknown_scheme_is_an_explicit_error(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            get_spec("no-such-scheme")
        message = str(excinfo.value)
        assert "no-such-scheme" in message
        assert "legacy estimate_acceptance oracle" in message
        assert "acyclicity" in message  # the choices are listed

    def test_unknown_scheme_error_is_a_key_error(self):
        """Callers indexing the registry like a mapping still catch it."""
        with pytest.raises(KeyError):
            spec_plan("no-such-scheme")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(get_spec("fingerprint"))

    def test_spec_validation(self):
        donor = get_spec("fingerprint")
        with pytest.raises(ValueError, match="unknown kernel family"):
            VerdictSpec(name="x", family="nope", workload=donor.workload, base=donor.base)
        with pytest.raises(ValueError, match="exactly one of"):
            VerdictSpec(name="x", family="fingerprint", workload=donor.workload)
        with pytest.raises(ValueError, match="exactly one of"):
            VerdictSpec(
                name="x",
                family="fingerprint",
                workload=donor.workload,
                base=donor.base,
                scheme=donor.base,
            )
        with pytest.raises(ValueError, match="repetitions"):
            VerdictSpec(
                name="x",
                family="fingerprint",
                workload=donor.workload,
                base=donor.base,
                repetitions=0,
            )

    def test_family_randomness(self):
        assert get_spec("mis").randomness == "shared"
        assert get_spec("bipartiteness").randomness == "shared"
        assert get_spec("fingerprint").randomness == "edge"
        assert get_spec("hamiltonicity").randomness == "edge"

    def test_build_scheme_family_dispatch(self):
        assert isinstance(
            build_scheme(get_spec("biconnectivity")), FingerprintCompiledRPLS
        )
        assert isinstance(build_scheme(get_spec("mis")), SharedCoinsCompiledRPLS)
        assert isinstance(build_scheme(get_spec("hamiltonicity")), BoostedRPLS)

    def test_scheme_for_is_memoized_build_scheme_is_not(self):
        spec = get_spec("coloring")
        assert scheme_for(spec) is scheme_for(spec)
        assert build_scheme(spec) is not build_scheme(spec)

    def test_plan_cache_keys_on_spec_identity(self):
        """'fingerprint' and 'spanning-tree' wrap the *same* base parser
        over value-identical workloads — only the memoized scheme identity
        distinguishes them, and the cache must not alias the two."""
        cache = PlanCache()
        first = spec_plan("fingerprint", cache=cache)
        again = spec_plan("fingerprint", cache=cache)
        assert again is first
        assert (cache.hits, cache.misses) == (1, 1)

        other = spec_plan("spanning-tree", cache=cache)
        assert other is not first
        assert (cache.hits, cache.misses) == (1, 2)
        # distinct rng modes never share a compiled plan either
        vector = spec_plan("fingerprint", rng_mode="vector", cache=cache)
        assert vector is not first
        assert (cache.hits, cache.misses) == (1, 3)
