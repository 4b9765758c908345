"""Shared workload builders for the verdict-spec differential matrix.

The matrix suites (``test_verdict_specs.py``, the spec rows of
``test_chunk_tail.py`` / ``test_parallel.py``, and the registry-driven
``test_cross_mode_consistency.py``) all need the same three workload kinds
per registered scheme:

- **clean** — the spec's default legal configuration with honest labels
  (one-sided completeness: every mode accepts every trial);
- **proof-fault** — the clean configuration with one label bit flipped,
  searched so the plan stays randomized (and, where possible, acceptance
  is strictly between 0 and 1 — the regime where statistical comparisons
  bite; schemes whose randomized checks catch every single-bit flip
  deterministically keep a randomized-but-degenerate flip instead);
- **state-fault** — the spec's violating configuration (same node set)
  replayed against the honest labels — the classic stale-state workload.

Everything here is memoized per scheme name: the prover and the
proof-fault search run once per test session no matter how many matrix
cells consume them.
"""

from functools import lru_cache

from repro.core.bitstrings import BitString
from repro.core.seeding import derive_trial_seed
from repro.engine import VerificationPlan
from repro.engine.specs import (
    clean_configuration,
    fault_configuration,
    get_spec,
    scheme_for,
    spec_names,
)

RNG_MODES = ("compat", "vector")
WORKLOAD_KINDS = ("clean", "proof-fault", "state-fault")

#: every registered scheme, in the registry's canonical order — parametrize
#: over this so a newly registered spec joins every matrix automatically.
SCHEME_NAMES = spec_names()


@lru_cache(maxsize=None)
def scheme_case(name):
    """(spec, memoized scheme, clean configuration, honest labels)."""
    spec = get_spec(name)
    scheme = scheme_for(spec)
    clean = clean_configuration(spec, seed=0)
    return spec, scheme, clean, scheme.prover(clean)


@lru_cache(maxsize=None)
def proof_fault_labels(name, trial_count=30, seed=1):
    """The best single-bit label flip: randomized and mixed if one exists.

    Ranks candidate flips: a flip whose plan is randomized with mixed
    accept/reject decisions wins outright; otherwise any randomized flip;
    otherwise a constant-folding flip (still a legitimate identity cell —
    the engine's degenerate short-circuit must match the oracle too).
    Returns ``None`` only when the scheme has no label bits to flip
    (zero-bit labels: there is no proof to corrupt).

    The search is bounded on purpose: fingerprint-family schemes reject
    almost every flip with probability ``1 - O(1/p)``, so once a victim
    node yields *any* randomized flip (rank >= 1) further victims cannot
    realistically do better and the scan stops — each matrix session
    compiles at most a handful of candidate plans per scheme.
    """
    spec, scheme, clean, honest = scheme_case(name)
    return ranked_flip(scheme, clean, honest, spec.randomness, trial_count, seed)


def ranked_flip(
    scheme, configuration, honest, randomness, trial_count=30, seed=1,
    kernel_draws=False,
):
    """The search behind :func:`proof_fault_labels`, for any workload.

    Returns the flipped label assignment (or ``None`` for zero-bit labels).
    ``kernel_draws=True`` skips every flip whose numpy kernel state is a
    constant (no kernel, constant False, or no dirty pair) — what
    ``benchmarks/bench_engine.py`` asks for on its bench-size workloads.
    """
    seeds = [derive_trial_seed(seed, t) for t in range(trial_count)]
    best, best_rank = None, -1
    for victim in configuration.graph.nodes:
        label = honest[victim]
        for bit in range(min(label.length, 16)):
            labels = dict(honest)
            labels[victim] = BitString(label.value ^ (1 << bit), label.length)
            plan = VerificationPlan.compile(
                scheme, configuration, labels=labels, randomness=randomness
            )
            if kernel_draws and not kernel_draws_coins(plan):
                continue
            if plan.constant_verdict is not None:
                rank = 0
            else:
                accepted = sum(plan.run_trial(s) for s in seeds)
                rank = 2 if 0 < accepted < trial_count else 1
            if rank > best_rank:
                best, best_rank = labels, rank
            if best_rank == 2:
                return best
        if best_rank >= 1:
            break
    return best


def kernel_draws_coins(plan):
    """True when the plan's numpy kernel draws coins on every chunk."""
    from repro.engine.kernels import vector_state

    if plan.constant_verdict is not None:
        return False
    state = vector_state(plan)
    return state is not None and not state.constant_false and state.dirty_pairs > 0


def matrix_workload(name, kind):
    """One matrix cell's inputs: (spec, scheme, configuration, labels).

    Returns ``None`` for cells that are *provably* vacuous (a proof-fault
    on a zero-bit-label scheme) — callers skip those with the reason
    spelled out, never silently.
    """
    spec, scheme, clean, honest = scheme_case(name)
    if kind == "clean":
        return spec, scheme, clean, honest
    if kind == "proof-fault":
        labels = proof_fault_labels(name)
        if labels is None:
            return None
        return spec, scheme, clean, labels
    if kind == "state-fault":
        return spec, scheme, fault_configuration(spec, seed=0), honest
    raise ValueError(f"unknown workload kind {kind!r}")


def matrix_plan(name, kind, rng_mode="compat"):
    """The compiled plan of one matrix cell (None for vacuous cells)."""
    cell = matrix_workload(name, kind)
    if cell is None:
        return None
    spec, scheme, configuration, labels = cell
    return VerificationPlan.compile(
        scheme,
        configuration,
        labels=labels,
        randomness=spec.randomness,
        rng_mode=rng_mode,
    )
