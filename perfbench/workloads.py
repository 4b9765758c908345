"""Faulted workload builders: pinned single-bit proof faults and state faults.

Every factory here is module-level and returns ``(scheme, configuration,
labels)``, the shape :class:`repro.parallel.spec.PlanSpec` ships to process
workers by name.  Arguments are short strings, so a spec stays hashable and
its worker-side memo key stays cheap.

A proof fault is the honest prover's labels with one bit flipped.  The
flips are pinned as ``(victim, bit)`` constants so set-up never searches.
They were found once with :func:`search_flip` (``python3 perfbench/run.py
--search-flips`` repeats the search and prints the tables).  Each
pinned plan must still run coins: :func:`guard` rejects a plan whose
verdict is folded at compile time or whose kernel state is constant, since
a prover change could otherwise turn a workload into zero work without any
test noticing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.bitstrings import BitString
from repro.core.seeding import trial_seed_slice
from repro.engine import VerificationPlan, fault_configuration, get_spec, scheme_for, spec_names
from repro.engine.kernels import vector_state
from repro.parallel import factories

# -- estimate-long / forgery-search plans (bench size) ------------------------

#: name -> (factory, kwargs, randomness, rng_mode).  The sizes are those of
#: the engine benchmark (200-node spanning tree with 60 chords, 96-node MST).
BENCH_PLANS: Dict[str, Tuple[object, Dict, str, str]] = {
    "spanning-tree": (factories.compiled_spanning_tree,
                      {"node_count": 200, "extra_edges": 60, "seed": 1}, "edge", "vector"),
    "shared-coins": (factories.shared_coins_spanning_tree,
                     {"node_count": 200, "extra_edges": 60, "seed": 1}, "shared", "vector"),
    "mst": (factories.compiled_mst, {"node_count": 96, "seed": 1}, "edge", "vector"),
    "boosted": (factories.boosted_spanning_tree,
                {"node_count": 200, "extra_edges": 60, "seed": 1, "t": 3}, "edge", "vector"),
    # The one two-sided plan: honest labels over a noisy channel.  It has no
    # engine hooks, so it runs the generic scalar path in compat mode.
    "noisy": (factories.noisy_spanning_tree,
              {"node_count": 24, "extra_edges": 6, "seed": 1, "flip_milli": 2}, "edge", "compat"),
}

#: The proof-faulted bench plans: name -> (victim node, flipped bit).
BENCH_FLIPS: Dict[str, Tuple[object, int]] = {
    "spanning-tree": (0, 0),  # p ~ 0.019: one GF(53) fingerprint collision
    "shared-coins": (0, 0),   # p ~ 0.25: two GF(2) parity checks
    "mst": (0, 0),            # p ~ 0.0012: node 0 holds the largest label, 3372 bits
    "boosted": (0, 0),        # p ~ 0.019**3: three independent repetitions
}

#: Zoo proof faults on each spec's default clean workload (seed 0).  Two
#: specs have no entry: every single-bit flip of a bipartiteness or
#: Eulerian label folds to a constant, so no flip of theirs draws coins.
ZOO_FLIPS: Dict[str, Tuple[object, int]] = {
    "acyclicity": (6, 8),
    "biconnectivity": (0, 0),
    "boosting": (0, 0),
    "coloring": (0, 0),
    "cycle-length": (0, 0),
    "distance": (0, 0),
    "fingerprint": (0, 0),
    "flow": (0, 0),
    "hamiltonicity": (0, 12),
    "leader": (3, 0),
    "mis": (0, 0),
    "mst": (0, 0),
    "shared-coins": (0, 0),
    "spanning-tree": (0, 0),
    "symmetry": ((0, "t", 0), 0),
    "vertex-connectivity": (0, 0),
}


def flip(labels: Dict, victim, bit: int) -> Dict:
    """A copy of ``labels`` with bit ``bit`` of ``victim``'s label flipped."""
    flipped = dict(labels)
    label = labels[victim]
    flipped[victim] = BitString(label.value ^ (1 << bit), label.length)
    return flipped


def bench_fault(name: str):
    """A bench plan's workload, with its pinned flip applied if it has one."""
    factory, kwargs, _randomness, _mode = BENCH_PLANS[name]
    scheme, configuration = factory(**kwargs)
    labels = scheme.prover(configuration)
    if name in BENCH_FLIPS:
        labels = flip(labels, *BENCH_FLIPS[name])
    return scheme, configuration, labels


def bench_plan(name: str) -> VerificationPlan:
    """Build, compile and prepare one bench plan (the estimate-long set-up)."""
    _factory, _kwargs, randomness, rng_mode = BENCH_PLANS[name]
    scheme, configuration, labels = bench_fault(name)
    plan = VerificationPlan.compile(
        scheme, configuration, labels=labels, randomness=randomness, rng_mode=rng_mode
    )
    return plan.prepare()


def zoo_proof_fault(name: str):
    """A registered spec's clean workload with its pinned label flip."""
    spec = get_spec(name)
    scheme = scheme_for(spec)
    configuration = spec.workload(0)
    return scheme, configuration, flip(scheme.prover(configuration), *ZOO_FLIPS[name])


def zoo_state_fault(name: str):
    """A spec's violating configuration replayed against the honest labels."""
    spec = get_spec(name)
    scheme = scheme_for(spec)
    return scheme, fault_configuration(spec, 0), scheme.prover(spec.workload(0))


# -- the not-constant guard ----------------------------------------------------


def constant_reason(plan: VerificationPlan) -> Optional[str]:
    """Why a plan would do no per-trial work, or ``None`` if it runs coins."""
    if plan.constant_verdict is not None:
        return f"constant_verdict={plan.constant_verdict}"
    state = vector_state(plan)
    if state is None:
        return "no vectorized kernel state"
    if state.constant_false:
        return "kernel state is constant False"
    return None


def guard(plan: VerificationPlan, what: str) -> VerificationPlan:
    """Raise unless a pinned proof-fault plan still draws coins every trial."""
    reason = constant_reason(plan)
    if reason is not None:
        raise RuntimeError(
            f"pinned proof fault {what} folds to a constant ({reason}); "
            "re-run `python3 perfbench/run.py --search-flips` and re-pin the flip"
        )
    return plan


# -- the one-off ranked search -------------------------------------------------


def search_flip(scheme, configuration, labels, randomness, trials=512, bits=16):
    """The best single-bit flip of ``labels``: ``(victim, bit)`` or ``None``.

    Rank 2: the plan draws coins and ``trials`` vector-mode trials both
    accept and reject.  Rank 1: the plan draws coins.  Constant plans never
    qualify.  Victims are scanned in graph order and the first victim
    holding a rank-1 flip ends the scan (fingerprint schemes reject nearly
    every flip alike, so further victims rarely do better).
    """
    seeds = trial_seed_slice(1, 0, trials)
    best, best_rank = None, 0
    for victim in configuration.graph.nodes:
        for bit in range(min(labels[victim].length, bits)):
            plan = VerificationPlan.compile(
                scheme, configuration, labels=flip(labels, victim, bit),
                randomness=randomness, rng_mode="vector",
            )
            if constant_reason(plan) is not None:
                continue
            accepted = plan.run_trials(seeds, vectorize=True)
            rank = 2 if 0 < accepted < trials else 1
            if rank > best_rank:
                best, best_rank = (victim, bit), rank
            if rank == 2:
                return best
        if best_rank:
            return best
    return best


def search_all() -> None:
    """Repeat the ranked search for every pinned flip and print the tables."""
    print("BENCH_FLIPS = {")
    for name, (factory, kwargs, randomness, _mode) in BENCH_PLANS.items():
        if name == "noisy":
            continue
        scheme, configuration = factory(**kwargs)
        trials = 4096 if name == "mst" else 512
        pinned = search_flip(scheme, configuration, scheme.prover(configuration), randomness, trials)
        print(f"    {name!r}: {pinned!r},")
    print("}\nZOO_FLIPS = {")
    for name in spec_names():
        spec = get_spec(name)
        scheme = scheme_for(spec)
        configuration = spec.workload(0)
        labels = scheme.prover(configuration)
        pinned = search_flip(scheme, configuration, labels, spec.randomness)
        if pinned is not None:
            print(f"    {name!r}: {pinned!r},")
    print("}")
