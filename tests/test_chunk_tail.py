"""Chunk-tail regression suite for the Monte-Carlo estimator.

The chunked trial loop of :func:`repro.engine.estimate_acceptance_fast` has
three boundary behaviours worth pinning exactly, because the sharded
executor's determinism contract (merged counts == single-process counts)
silently depends on all of them:

- the **final chunk** is truncated to the remaining trials — never padded,
  never overshot — for every (trials, chunk size) shape, on both the scalar
  and vectorized kernels;
- the **Wilson early exit** fires at the first eligible trial, wherever it
  falls in a chunk, and the reported trial count is the exact prefix of the
  deterministic trial sequence that counted (re-running with ``trials`` set
  to the reported count reproduces the estimate bit for bit);
- the **`first_trial` offset** shifts the counter range without changing
  any per-counter verdict, so a partition of ``[0, N)`` reproduces the
  whole — including when shard sizes collide with chunk tails.

Every assertion here pins counts against the per-trial oracle
(``plan.run_trial`` over explicit counter ranges), not against a second run
of the same code path.  Chunk sizes are engine constants; the ``set_chunk``
fixture (``conftest.py``) sets them small so boundaries fall inside these
budgets.
"""

import pytest

from repro.core.seeding import derive_trial_seed
from repro.engine import estimate_acceptance_fast
from repro.engine.montecarlo import DEFAULT_CHUNK, executed_path
from repro.parallel import workload_spec
from repro.simulation.metrics import AcceptanceEstimate, wilson_interval


@pytest.fixture(scope="module")
def noisy_plan():
    # Two-sided acceptance so accepted-counts are informative, scalar hook
    # path (no kernel tabulates the channel's flips).
    return workload_spec(
        "noisy-spanning-tree", rng_mode="vector", node_count=16, flip_milli=5
    ).resolve()


@pytest.fixture(scope="module")
def vector_plan():
    # Hook + numpy-kernel path, counter-based draws.
    return workload_spec(
        "spanning-tree", rng_mode="vector", node_count=14, extra_edges=4, seed=1
    ).resolve()


def oracle_counts(plan, seed, start, stop):
    """Per-trial reference: how many of counters [start, stop) accept."""
    return sum(
        1 for trial in range(start, stop)
        if plan.run_trial(derive_trial_seed(seed, trial))
    )


@pytest.mark.parametrize(
    "trials,chunk_size",
    [
        (1, 64),     # single trial, giant chunk
        (10, 64),    # chunk_size exceeds the whole budget
        (64, 64),    # exact single chunk
        (65, 64),    # one-trial tail
        (100, 33),   # ragged tail (100 = 3*33 + 1)
        (96, 32),    # exact multiple
    ],
)
def test_final_chunk_never_overshoots(noisy_plan, set_chunk, trials, chunk_size):
    set_chunk(chunk_size)
    estimate = estimate_acceptance_fast(noisy_plan, trials, seed=3)
    assert estimate.trials == trials
    assert estimate.accepted == oracle_counts(noisy_plan, 3, 0, trials)


@pytest.mark.parametrize("trials,chunk_size", [(10, 64), (65, 64), (100, 33)])
def test_vectorized_tail_matches_oracle(vector_plan, set_chunk, trials, chunk_size):
    set_chunk(chunk_size)
    estimate = estimate_acceptance_fast(vector_plan, trials, seed=3, vectorize=True)
    assert estimate.trials == trials
    assert estimate.accepted == oracle_counts(vector_plan, 3, 0, trials)


def test_early_exit_reports_the_exact_prefix(vector_plan, set_chunk):
    # All-accept workload + generous half-width: the stop rule fires at the
    # first eligible trial, min_trials=25, inside the third chunk of 10.
    set_chunk(10)
    estimate = estimate_acceptance_fast(
        vector_plan, 1000, seed=3, stop_halfwidth=0.2, min_trials=25
    )
    assert estimate.trials == 25
    assert estimate.accepted == oracle_counts(vector_plan, 3, 0, 25)


def test_early_exit_on_a_tail_chunk(noisy_plan, set_chunk):
    # trials=37, chunk=16 -> chunks of 16, 16, 5.  A stop rule that can
    # only fire after the tail (min_trials=37) must still report exactly 37.
    set_chunk(16)
    estimate = estimate_acceptance_fast(
        noisy_plan, 37, seed=5, stop_halfwidth=0.49, min_trials=37
    )
    assert estimate.trials == 37
    assert estimate.accepted == oracle_counts(noisy_plan, 5, 0, 37)


def test_early_exit_never_fires_below_min_trials(vector_plan):
    # Budget smaller than min_trials: the stop rule must stay silent and
    # the full (tail-truncated) budget must run.
    estimate = estimate_acceptance_fast(
        vector_plan, 50, seed=3, stop_halfwidth=0.01, min_trials=128
    )
    assert estimate.trials == 50


@pytest.mark.parametrize("split", [1, 10, 33, 64, 99])
def test_first_trial_partition_reproduces_whole(noisy_plan, set_chunk, split):
    trials = 100
    set_chunk(32)
    whole = estimate_acceptance_fast(noisy_plan, trials, seed=7)
    left = estimate_acceptance_fast(noisy_plan, split, seed=7)
    right = estimate_acceptance_fast(
        noisy_plan, trials - split, seed=7, first_trial=split
    )
    assert AcceptanceEstimate.merge([left, right]) == whole
    assert right.accepted == oracle_counts(noisy_plan, 7, split, trials)


def test_first_trial_offset_with_vector_kernel(vector_plan, set_chunk):
    set_chunk(16)
    offset = estimate_acceptance_fast(
        vector_plan, 40, seed=7, first_trial=23, vectorize=True
    )
    assert offset.trials == 40
    assert offset.accepted == oracle_counts(vector_plan, 7, 23, 63)


def test_first_trial_rejects_negative(vector_plan):
    with pytest.raises(ValueError):
        estimate_acceptance_fast(vector_plan, 10, first_trial=-1)


# One representative verdict-spec scheme per kernel family (see
# repro.engine.specs): the chunk-tail identity must hold for every kernel
# the spec layer routes schemes onto, not just the original benchmark pair.
SPEC_FAMILY_ROWS = ("biconnectivity", "mis", "hamiltonicity")


@pytest.mark.parametrize("name", SPEC_FAMILY_ROWS)
@pytest.mark.parametrize("trials,chunk_size", [(65, 64), (100, 33)])
def test_spec_scheme_tail_matches_oracle(set_chunk, name, trials, chunk_size):
    from spec_matrix import matrix_plan

    plan = matrix_plan(name, "proof-fault", "vector")
    assert plan is not None and plan.constant_verdict is None
    set_chunk(chunk_size)
    estimate = estimate_acceptance_fast(plan, trials, seed=3, vectorize=True)
    assert estimate.trials == trials
    assert estimate.accepted == oracle_counts(plan, 3, 0, trials)


@pytest.mark.parametrize("name", SPEC_FAMILY_ROWS)
def test_spec_scheme_partition_reproduces_whole(set_chunk, name):
    from spec_matrix import matrix_plan

    plan = matrix_plan(name, "proof-fault", "vector")
    trials, split = 100, 33
    set_chunk(32)
    whole = estimate_acceptance_fast(plan, trials, seed=7)
    left = estimate_acceptance_fast(plan, split, seed=7)
    right = estimate_acceptance_fast(plan, trials - split, seed=7, first_trial=split)
    assert AcceptanceEstimate.merge([left, right]) == whole
    assert right.accepted == oracle_counts(plan, 7, split, trials)


# Chunk sizes only re-partition a run's counter range into
# differently-sized prefixes, so the per-trial verdicts — and therefore the
# counts — must stay bit-identical to the 32-trial run.
CHUNK_SIZE_ROWS = [33, 7, 17]


@pytest.mark.parametrize("chunk_size", CHUNK_SIZE_ROWS)
@pytest.mark.parametrize("trials", [1, 10, 65, 100])
def test_chunk_size_tail_matches_oracle(noisy_plan, set_chunk, chunk_size, trials):
    set_chunk(chunk_size)
    estimate = estimate_acceptance_fast(noisy_plan, trials, seed=3)
    assert estimate.trials == trials
    assert estimate.accepted == oracle_counts(noisy_plan, 3, 0, trials)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZE_ROWS)
def test_chunk_size_partition_reproduces_whole(noisy_plan, set_chunk, chunk_size):
    trials, split = 100, 33
    set_chunk(32)
    whole = estimate_acceptance_fast(noisy_plan, trials, seed=7)
    set_chunk(chunk_size)
    left = estimate_acceptance_fast(noisy_plan, split, seed=7)
    right = estimate_acceptance_fast(
        noisy_plan, trials - split, seed=7, first_trial=split
    )
    assert AcceptanceEstimate.merge([left, right]) == whole


def test_chunk_size_on_vector_kernel(vector_plan, set_chunk):
    set_chunk(7)
    estimate = estimate_acceptance_fast(vector_plan, 100, seed=3, vectorize=True)
    assert estimate.trials == 100
    assert estimate.accepted == oracle_counts(vector_plan, 3, 0, 100)


def test_stopped_adaptive_run_is_an_exact_prefix(noisy_plan, set_chunk):
    # A run that stops early reports some prefix length; re-running that
    # exact budget under a *different* chunking must land on identical
    # counts — the stop decision never leaks into any verdict.
    set_chunk(7)
    stopped = estimate_acceptance_fast(
        noisy_plan, 5000, seed=9, stop_halfwidth=0.08, min_trials=16,
    )
    assert stopped.trials < 5000  # the stop rule actually fired
    set_chunk(17)
    replay = estimate_acceptance_fast(noisy_plan, stopped.trials, seed=9)
    assert (replay.accepted, replay.trials) == (stopped.accepted, stopped.trials)
    assert stopped.accepted == oracle_counts(noisy_plan, 9, 0, stopped.trials)


def test_constant_verdict_short_circuit_still_reports_requested(vector_plan, set_chunk):
    # The degenerate path reports the *requested* trials (no loop ran);
    # pinned so the sharded merge stays exact for constant-False plans.
    from repro.core.compiler import FingerprintCompiledRPLS
    from repro.core.bitstrings import BitString
    from repro.engine import VerificationPlan
    from repro.graphs.generators import spanning_tree_configuration
    from repro.schemes.spanning_tree import SpanningTreePLS

    scheme = FingerprintCompiledRPLS(SpanningTreePLS())
    configuration = spanning_tree_configuration(8, 2, seed=1)
    labels = scheme.prover(configuration)
    victim = configuration.graph.nodes[0]
    labels = dict(labels)
    labels[victim] = BitString(0, 1)  # unparseable: compile-time False
    plan = VerificationPlan.compile(scheme, configuration, labels=labels)
    assert plan.constant_verdict is False
    set_chunk(16)
    estimate = estimate_acceptance_fast(plan, 77, seed=0)
    assert (estimate.accepted, estimate.trials) == (0, 77)


# The Wilson stop is exact to the trial on every path: the stopped
# (accepted, trials) is the first prefix n >= min_trials whose interval is
# narrow enough, found here by walking the per-trial oracle, whatever the
# chunk size.  Each case has mixed verdicts and a stop that no tested chunk
# size divides, so a chunk-granular stop would land elsewhere.
def _noisy_generic_plan():
    from repro.core.noise import NoisyChannelRPLS
    from repro.engine import VerificationPlan
    from repro.graphs.generators import uniform_configuration
    from repro.schemes.uniformity import DirectUnifRPLS

    return VerificationPlan.compile(
        NoisyChannelRPLS(DirectUnifRPLS(), 0.01),
        uniform_configuration(8, 6, equal=True, seed=24),
    )


def _matrix_plan(name, rng_mode):
    from spec_matrix import matrix_plan

    return matrix_plan(name, "proof-fault", rng_mode)


STOP_CASES = {
    # case: (plan builder, the path the estimate runs)
    "table": (lambda: _matrix_plan("coloring", "vector"), "table"),
    "parity": (lambda: _matrix_plan("shared-coins", "vector"), "parity"),
    "scalar-vector": (
        lambda: workload_spec(
            "noisy-spanning-tree", rng_mode="vector", node_count=16, flip_milli=5
        ).resolve(),
        "scalar",
    ),
    "scalar-compat": (lambda: _matrix_plan("coloring", "compat"), "scalar"),
    "generic-compat": (_noisy_generic_plan, "generic"),
}
STOP_HALFWIDTH = 0.04
STOP_MIN_TRIALS = 16


def oracle_stop(plan, seed, halfwidth, min_trials):
    """(accepted, trials) at the first n >= min_trials with a narrow interval."""
    accepted = 0
    for n in range(1, 100_000):
        accepted += plan.run_trial(derive_trial_seed(seed, n - 1))
        if n >= min_trials:
            low, high = wilson_interval(accepted, n)
            if high - low <= 2 * halfwidth:
                return accepted, n
    raise AssertionError("the stop never fired")


@pytest.fixture(scope="module", params=sorted(STOP_CASES))
def stop_case(request):
    build, path = STOP_CASES[request.param]
    plan = build()
    assert executed_path(plan) == path
    accepted, trials = oracle_stop(plan, 3, STOP_HALFWIDTH, STOP_MIN_TRIALS)
    assert 0 < accepted < trials
    assert all(trials % size for size in (7, 64, DEFAULT_CHUNK))
    return plan, (accepted, trials)


@pytest.mark.parametrize("chunk_size", [1, 7, 64, DEFAULT_CHUNK])
def test_wilson_stop_is_exact_to_the_trial(stop_case, set_chunk, chunk_size):
    plan, expected = stop_case
    set_chunk(chunk_size)
    estimate = estimate_acceptance_fast(
        plan, 100_000, seed=3,
        stop_halfwidth=STOP_HALFWIDTH, min_trials=STOP_MIN_TRIALS,
    )
    assert (estimate.accepted, estimate.trials) == expected
