"""Declarative verdict specs: the whole scheme zoo on the engine fast path.

Every randomized scheme in this repository reduces to one of three verdict
kernels the engine already vectorizes (:mod:`repro.engine.kernels`,
:mod:`repro.substrates.gf`):

- **fingerprint** — polynomial-identity fingerprints over ``GF(p)``
  (Lemma A.1): the Theorem 3.1 compiler and everything built on it,
  executed by the agreement-table kernel;
- **parity** — packed-``uint64`` GF(2) inner products: the Section 6
  shared-coins compiler, executed by the popcount-parity kernel (public
  coins, so ``randomness="shared"``);
- **threshold** — ``t``-fold repetition of a one-sided fingerprint base
  (footnote 1 boosting): accept iff every repetition accepts.

A :class:`VerdictSpec` names a scheme as *(label parser, kernel family,
parameters)*: the label parser is the deterministic base scheme whose
labels the kernel checks, the family picks the wrapper, and the parameters
(repetitions, workload builders) finish the description.  Registering a
spec is all it takes to put a scheme on the fast path — the registry is
what the differential identity matrix (``tests/test_verdict_specs.py``),
the cross-mode consistency suite, the campaign workload factories
(:mod:`repro.parallel.factories`), and the benchmark smoke harness iterate,
so a scheme missing from the registry (or drifting from its legacy oracle)
fails tier-1 by construction.

The registry never *replaces* the legacy oracle: ``verify_randomized`` /
``estimate_acceptance`` stay the unoptimized reference, and every spec's
engine decisions are pinned to it per trial.

Typical use::

    from repro.engine.specs import get_spec, scheme_for, spec_plan

    spec = get_spec("biconnectivity")
    plan = spec_plan("biconnectivity", configuration, rng_mode="vector")
    estimate = estimate_acceptance_fast(plan, 10_000)

Unknown names raise :class:`UnknownSchemeError` — the explicit fallback.
There is deliberately no silent degradation: a caller asking for an
unregistered scheme must either register a spec or route through the
legacy oracle on purpose.

Scheme instances are memoized per spec (:func:`scheme_for`), which is what
makes :class:`~repro.engine.cache.PlanCache` keying work on *spec
identity*: the cache keys schemes by ``id()``, so two resolutions of the
same spec share one scheme object and hit, while distinct specs (even over
the same base parser) never alias.

Workload builders take only primitive arguments and thread witnesses
internally (planted Hamiltonian cycles, planted long cycles), so every
entry point here is picklable and deterministic — the contract
:mod:`repro.parallel.spec` requires of anything a worker process rebuilds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.boosting import BoostedRPLS
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.scheme import RandomizedScheme, engine_hooks_available
from repro.core.shared import SharedCoinsCompiledRPLS
from repro.engine.plan import VerificationPlan, compile_fast_plan

FAMILIES = ("fingerprint", "parity", "threshold")

#: randomness mode each kernel family runs under (parity = public coins).
FAMILY_RANDOMNESS = {
    "fingerprint": "edge",
    "parity": "shared",
    "threshold": "edge",
}


class UnknownSchemeError(KeyError):
    """An unregistered scheme name — the explicit no-silent-fallback error."""


@dataclass(frozen=True)
class VerdictSpec:
    """One scheme as (label parser, kernel family, parameters).

    ``base`` is a zero-argument factory for the deterministic base scheme
    (the label parser); ``family`` selects the kernel wrapper around it.
    ``scheme`` overrides both for schemes that ship their own engine hooks
    pre-wired (``DirectUnifRPLS``, ``UniversalRPLS`` subclasses) — the
    family then documents which kernel the scheme's hooks feed.

    ``workload`` builds the spec's default *clean* configuration (predicate
    holds; the prover's labels are honest) from a seed; ``fault`` builds a
    *violating* configuration over the same node set, so honest labels can
    be replayed against it (the classic stale-state workload).  Both must
    be module-level and deterministic.
    """

    name: str
    family: str
    workload: Callable[[int], object]
    base: Optional[Callable[[], object]] = None
    scheme: Optional[Callable[[], RandomizedScheme]] = None
    repetitions: int = 1
    fault: Optional[Callable[[int], object]] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r} (choose from {FAMILIES})"
            )
        if (self.base is None) == (self.scheme is None):
            raise ValueError(
                f"spec {self.name!r} needs exactly one of base= or scheme="
            )
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def randomness(self) -> str:
        """The randomness mode this spec's scheme verifies under."""
        return FAMILY_RANDOMNESS[self.family]


def build_scheme(spec: VerdictSpec) -> RandomizedScheme:
    """Construct a fresh engine-ready scheme from a spec.

    Dispatch on the kernel family: fingerprint wraps the base parser in the
    Theorem 3.1 compiler, parity in the shared-coins compiler, threshold in
    certificate boosting over the compiled base.  The result always carries
    engine hooks — asserted here, so a wrapper losing its hooks fails at
    build time, not as a silent generic-path fallback.
    """
    if spec.scheme is not None:
        scheme = spec.scheme()
    elif spec.family == "fingerprint":
        scheme = FingerprintCompiledRPLS(spec.base(), repetitions=spec.repetitions)
    elif spec.family == "parity":
        scheme = SharedCoinsCompiledRPLS(spec.base(), repetitions=spec.repetitions)
    else:  # threshold
        scheme = BoostedRPLS(FingerprintCompiledRPLS(spec.base()), spec.repetitions)
    if not engine_hooks_available(scheme):
        raise RuntimeError(
            f"spec {spec.name!r} built a scheme without engine hooks"
        )
    return scheme


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, VerdictSpec] = {}
_SCHEME_MEMO: Dict[str, RandomizedScheme] = {}
_LOCK = threading.Lock()


def register(spec: VerdictSpec) -> VerdictSpec:
    """Add a spec to the registry; duplicate names are an error."""
    with _LOCK:
        if spec.name in _REGISTRY:
            raise ValueError(f"verdict spec {spec.name!r} already registered")
        _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> VerdictSpec:
    """The registered spec, or :class:`UnknownSchemeError` — never a guess."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSchemeError(
            f"no verdict spec registered for {name!r} "
            f"(choose from {sorted(_REGISTRY)}); register a VerdictSpec or "
            "use the legacy estimate_acceptance oracle explicitly"
        ) from None


def spec_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def iter_specs() -> Iterator[VerdictSpec]:
    """Specs in name order — the iteration order every generated matrix uses."""
    for name in spec_names():
        yield _REGISTRY[name]


def scheme_for(spec: VerdictSpec) -> RandomizedScheme:
    """The memoized scheme instance of a registered spec.

    One instance per spec name, process-wide: schemes are stateless after
    construction, and a stable identity is what lets
    :class:`~repro.engine.cache.PlanCache` (which keys schemes by ``id()``)
    key plans on spec identity.
    """
    with _LOCK:
        scheme = _SCHEME_MEMO.get(spec.name)
        if scheme is None:
            scheme = _SCHEME_MEMO[spec.name] = build_scheme(spec)
        return scheme


def clean_configuration(spec: VerdictSpec, seed: int = 0):
    """The spec's default legal workload (predicate holds)."""
    return spec.workload(seed)


def fault_configuration(spec: VerdictSpec, seed: int = 0):
    """The spec's violating workload over the same node set, if declared."""
    if spec.fault is None:
        return None
    return spec.fault(seed)


def spec_plan(
    name: str,
    configuration=None,
    labels=None,
    rng_mode: str = "compat",
    seed: int = 0,
    cache=None,
) -> VerificationPlan:
    """Compile a guaranteed-fast-path plan for a registered scheme.

    ``configuration=None`` uses the spec's default clean workload at
    ``seed``.  Pass a :class:`~repro.engine.cache.PlanCache` as ``cache``
    to resolve through it (keyed on the memoized scheme instance, i.e. on
    spec identity).  Unknown names raise :class:`UnknownSchemeError`.
    """
    spec = get_spec(name)
    scheme = scheme_for(spec)
    if configuration is None:
        configuration = clean_configuration(spec, seed)
    if cache is not None:
        return cache.get(
            scheme,
            configuration,
            labels=labels,
            randomness=spec.randomness,
            rng_mode=rng_mode,
        )
    return compile_fast_plan(
        scheme,
        configuration,
        labels=labels,
        randomness=spec.randomness,
        rng_mode=rng_mode,
    )


# ---------------------------------------------------------------------------
# workload builders (module-level: picklable, deterministic, primitive args)
# ---------------------------------------------------------------------------
#
# Scheme imports stay inside the builders: repro.schemes modules lazily
# import repro.engine for their *_engine_plan helpers, so module-level
# imports here would tie the packages into a cycle.


def _spanning_tree_clean(seed: int):
    from repro.graphs.generators import spanning_tree_configuration

    return spanning_tree_configuration(14, 4, seed=seed)


def _spanning_tree_fault(seed: int):
    from repro.graphs.generators import corrupt_spanning_tree

    return corrupt_spanning_tree(_spanning_tree_clean(seed), seed=seed + 1)


def _uniform_clean(seed: int):
    from repro.graphs.generators import uniform_configuration

    return uniform_configuration(10, 16, equal=True, seed=seed)


def _uniform_fault(seed: int):
    from repro.graphs.generators import uniform_configuration

    return uniform_configuration(10, 16, equal=False, seed=seed)


def _mst_clean(seed: int):
    from repro.graphs.generators import mst_configuration

    return mst_configuration(10, seed=seed)


def _mst_fault(seed: int):
    from repro.graphs.generators import corrupt_mst_swap

    return corrupt_mst_swap(_mst_clean(seed), seed=seed + 1)


def _flow_clean(seed: int):
    from repro.graphs.generators import flow_configuration

    return flow_configuration(2, path_length=3, decoy_edges=1, seed=seed)


def _flow_fault(seed: int):
    from repro.graphs.generators import corrupt_claimed_k

    return corrupt_claimed_k(_flow_clean(seed))


def _distance_clean(seed: int):
    from repro.graphs.workloads import distance_configuration

    return distance_configuration(10, 3, seed=seed, weighted=True)


def _distance_fault(seed: int):
    from repro.graphs.workloads import corrupt_distance

    return corrupt_distance(_distance_clean(seed), seed=seed + 1)


def _acyclicity_clean(seed: int):
    from repro.graphs.generators import tree_only_configuration

    return tree_only_configuration(12, seed=seed)


def _acyclicity_fault(seed: int):
    from repro.graphs.generators import spanning_tree_configuration

    # Same node set, three chords: every chord closes a cycle.
    return spanning_tree_configuration(12, 3, seed=seed)


def _biconnectivity_clean(seed: int):
    from repro.graphs.generators import random_biconnected_configuration

    return random_biconnected_configuration(12, seed=seed)


def _biconnectivity_fault(seed: int):
    from repro.graphs.generators import tree_only_configuration

    # A tree on the same nodes: every internal node is a cut vertex.
    return tree_only_configuration(12, seed=seed)


def _bipartiteness_clean(seed: int):
    from repro.graphs.workloads import random_bipartite_configuration

    return random_bipartite_configuration(6, 6, extra_edges=3, seed=seed)


def _bipartiteness_fault(seed: int):
    from repro.graphs.workloads import odd_cycle_configuration

    return odd_cycle_configuration(12, seed=seed)


def _coloring_clean(seed: int):
    from repro.graphs.generators import colored_configuration

    return colored_configuration(12, 3, proper=True, seed=seed)


def _coloring_fault(seed: int):
    from repro.graphs.generators import colored_configuration

    # Same graph (same seed draws), one planted color conflict.
    return colored_configuration(12, 3, proper=False, seed=seed)


def _cycle_length_clean(seed: int):
    from repro.graphs.generators import planted_cycle_configuration

    configuration, _witness = planted_cycle_configuration(12, 6, seed=seed)
    return configuration


def _cycle_length_fault(seed: int):
    from repro.graphs.generators import tree_only_configuration

    # A tree contains no cycle at all — cycle-at-least-c maximally false.
    return tree_only_configuration(12, seed=seed)


def _eulerian_clean(seed: int):
    from repro.graphs.workloads import eulerian_configuration

    return eulerian_configuration(10, seed=seed)


def _eulerian_fault(seed: int):
    from repro.graphs.workloads import non_eulerian_configuration

    return non_eulerian_configuration(10, seed=seed)


def _hamiltonicity_clean(seed: int):
    from repro.graphs.workloads import hamiltonian_configuration

    configuration, _order = hamiltonian_configuration(10, 4, seed=seed)
    return configuration


def _hamiltonicity_fault(seed: int):
    from repro.graphs.generators import tree_only_configuration

    return tree_only_configuration(10, seed=seed)


def _leader_clean(seed: int):
    from repro.graphs.workloads import leader_configuration

    return leader_configuration(10, 3, seed=seed)


def _leader_fault(seed: int):
    from repro.graphs.workloads import corrupt_leader_disagreement

    return corrupt_leader_disagreement(_leader_clean(seed), seed=seed + 1)


def _mis_clean(seed: int):
    from repro.graphs.workloads import mis_configuration

    return mis_configuration(10, 3, seed=seed)


def _mis_fault(seed: int):
    from repro.graphs.workloads import corrupt_mis_independence

    return corrupt_mis_independence(_mis_clean(seed), seed=seed + 1)


def _symmetry_pair(seed: int, equal: bool):
    import random

    from repro.core.bitstrings import BitString
    from repro.graphs.generators import sym_pair_configuration

    lam = 3
    rng = random.Random(seed)
    x = BitString(rng.getrandbits(lam), lam)
    y = x if equal else BitString(x.value ^ (1 << rng.randrange(lam)), lam)
    configuration, _cut, _alice, _bob = sym_pair_configuration(x, y)
    return configuration


def _symmetry_clean(seed: int):
    return _symmetry_pair(seed, equal=True)


def _symmetry_fault(seed: int):
    # G(x, y) with x != y on the same gadget nodes: Sym fails (Claim C.2).
    return _symmetry_pair(seed, equal=False)


def _vertex_connectivity_clean(seed: int):
    from repro.graphs.generators import vertex_connectivity_configuration

    return vertex_connectivity_configuration(2, path_length=3, decoy_edges=1, seed=seed)


def _vertex_connectivity_fault(seed: int):
    from repro.graphs.generators import corrupt_claimed_k

    return corrupt_claimed_k(_vertex_connectivity_clean(seed))


# base parsers / direct schemes (module-level zero-arg factories)


def _spanning_tree_pls():
    from repro.schemes.spanning_tree import SpanningTreePLS

    return SpanningTreePLS()


def _unif_scheme():
    from repro.schemes.uniformity import DirectUnifRPLS

    return DirectUnifRPLS()


def _mst_scheme():
    from repro.schemes.mst import mst_rpls

    return mst_rpls()


def _flow_scheme():
    from repro.schemes.flow import k_flow_rpls

    return k_flow_rpls()


def _distance_scheme():
    from repro.schemes.distance import distance_rpls

    return distance_rpls(weighted=True)


def _acyclicity_pls():
    from repro.schemes.acyclicity import AcyclicityPLS

    return AcyclicityPLS()


def _biconnectivity_pls():
    from repro.schemes.biconnectivity import BiconnectivityPLS

    return BiconnectivityPLS()


def _bipartiteness_pls():
    from repro.schemes.bipartiteness import BipartitenessPLS

    return BipartitenessPLS()


def _coloring_pls():
    from repro.schemes.coloring import ColoringPLS

    return ColoringPLS()


def _cycle_length_pls():
    from repro.schemes.cycle_length import CycleAtLeastPLS

    # c=4 against the planted 6-cycle; the prover searches the (planted,
    # hence cheap to find) witness itself, keeping the factory zero-arg.
    return CycleAtLeastPLS(4)


def _eulerian_pls():
    from repro.schemes.eulerian import EulerianPLS

    return EulerianPLS()


def _hamiltonicity_pls():
    from repro.schemes.hamiltonicity import HamiltonicityPLS

    return HamiltonicityPLS()


def _leader_pls():
    from repro.schemes.leader import LeaderAgreementPLS

    return LeaderAgreementPLS()


def _mis_pls():
    from repro.schemes.mis import MISPLS

    return MISPLS()


def _symmetry_scheme():
    from repro.schemes.symmetry import sym_universal_rpls

    return sym_universal_rpls()


def _vertex_connectivity_pls():
    from repro.schemes.vertex_connectivity import STVertexConnectivityPLS

    return STVertexConnectivityPLS()


# ---------------------------------------------------------------------------
# the registered zoo
# ---------------------------------------------------------------------------
#
# The seven schemes that had hand-wired engine hooks before the spec layer
# (fingerprint, uniformity, boosting, shared-coins, mst, flow, distance)
# plus the twelve that previously ran the legacy per-trial oracle only.
# tests/test_verdict_specs.py asserts this set exactly — removing an entry
# (or registering one the matrix does not expect) fails tier-1.

register(VerdictSpec(
    name="fingerprint",
    family="fingerprint",
    base=_spanning_tree_pls,
    workload=_spanning_tree_clean,
    fault=_spanning_tree_fault,
    note="Theorem 3.1 compiler exemplar (spanning-tree base)",
))
register(VerdictSpec(
    name="uniformity",
    family="fingerprint",
    scheme=_unif_scheme,
    workload=_uniform_clean,
    fault=_uniform_fault,
    note="Lemma C.3 direct Unif scheme (payload fingerprints on the table kernel)",
))
register(VerdictSpec(
    name="boosting",
    family="threshold",
    base=_spanning_tree_pls,
    repetitions=2,
    workload=_spanning_tree_clean,
    fault=_spanning_tree_fault,
    note="footnote-1 boosting, soundness error 3**-t",
))
register(VerdictSpec(
    name="shared-coins",
    family="parity",
    base=_spanning_tree_pls,
    repetitions=2,
    workload=_spanning_tree_clean,
    fault=_spanning_tree_fault,
    note="Section 6 public-coins compiler (GF(2) parity kernel)",
))
register(VerdictSpec(
    name="mst",
    family="fingerprint",
    scheme=_mst_scheme,
    workload=_mst_clean,
    fault=_mst_fault,
    note="Theorem 5.1 Borůvka-trace scheme",
))
register(VerdictSpec(
    name="flow",
    family="fingerprint",
    scheme=_flow_scheme,
    workload=_flow_clean,
    fault=_flow_fault,
    note="Section 5.2 k-flow certification",
))
register(VerdictSpec(
    name="distance",
    family="fingerprint",
    scheme=_distance_scheme,
    workload=_distance_clean,
    fault=_distance_fault,
    note="weighted SSSP distance certification",
))
register(VerdictSpec(
    name="acyclicity",
    family="fingerprint",
    base=_acyclicity_pls,
    workload=_acyclicity_clean,
    fault=_acyclicity_fault,
    note="root-distance forest certification ([31])",
))
register(VerdictSpec(
    name="biconnectivity",
    family="fingerprint",
    base=_biconnectivity_pls,
    workload=_biconnectivity_clean,
    fault=_biconnectivity_fault,
    note="Theorem 5.2 DFS/lowpoint scheme",
))
register(VerdictSpec(
    name="bipartiteness",
    family="parity",
    base=_bipartiteness_pls,
    repetitions=2,
    workload=_bipartiteness_clean,
    fault=_bipartiteness_fault,
    note="planted 2-coloring witness under public coins",
))
register(VerdictSpec(
    name="coloring",
    family="fingerprint",
    base=_coloring_pls,
    workload=_coloring_clean,
    fault=_coloring_fault,
    note="intro warm-up: proper c-coloring",
))
register(VerdictSpec(
    name="cycle-length",
    family="fingerprint",
    base=_cycle_length_pls,
    workload=_cycle_length_clean,
    fault=_cycle_length_fault,
    note="Theorem 5.3 cycle-at-least-c witness scheme",
))
register(VerdictSpec(
    name="eulerian",
    family="fingerprint",
    base=_eulerian_pls,
    workload=_eulerian_clean,
    fault=_eulerian_fault,
    note="zero-bit labels: the kappa=0 edge case of the compiler",
))
register(VerdictSpec(
    name="hamiltonicity",
    family="threshold",
    base=_hamiltonicity_pls,
    repetitions=2,
    workload=_hamiltonicity_clean,
    fault=_hamiltonicity_fault,
    note="cycle-at-least-n, boosted t=2",
))
register(VerdictSpec(
    name="leader",
    family="fingerprint",
    base=_leader_pls,
    workload=_leader_clean,
    fault=_leader_fault,
    note="leader agreement via compiled id republication",
))
register(VerdictSpec(
    name="mis",
    family="parity",
    base=_mis_pls,
    repetitions=2,
    workload=_mis_clean,
    fault=_mis_fault,
    note="1-bit MIS labels under the parity kernel",
))
register(VerdictSpec(
    name="spanning-tree",
    family="fingerprint",
    base=_spanning_tree_pls,
    workload=_spanning_tree_clean,
    fault=_spanning_tree_fault,
    note="the intro Theta(log n) scheme as a first-class zoo entry",
))
register(VerdictSpec(
    name="symmetry",
    family="fingerprint",
    scheme=_symmetry_scheme,
    workload=_symmetry_clean,
    fault=_symmetry_fault,
    note="Corollary 3.4 universal scheme on the Figure 4 Sym gadget",
))
register(VerdictSpec(
    name="vertex-connectivity",
    family="threshold",
    base=_vertex_connectivity_pls,
    repetitions=2,
    workload=_vertex_connectivity_clean,
    fault=_vertex_connectivity_fault,
    note="s-t vertex connectivity, boosted t=2",
))
