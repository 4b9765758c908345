"""Compiled verification plans: everything trial-invariant, computed once.

One randomized verification round (:func:`repro.core.verifier.verify_randomized`)
mixes two kinds of work:

- **trial-invariant** — running the prover, deriving :class:`SchemeParams`
  (which encodes every node state), building per-node label views, resolving
  the port-to-port wiring of :func:`repro.simulation.network.exchange_messages`,
  and parsing labels inside scheme verifiers;
- **per-trial** — deriving RNG streams, generating certificates, and
  evaluating the randomized checks.

Monte-Carlo drivers repeat the round hundreds of times with only the
randomness changing, so :class:`VerificationPlan` hoists the first kind of
work out of the loop.  ``plan.run_trial(trial_seed)`` then performs exactly
the per-trial work and returns the round's accept/reject decision —
bit-identical (same decision for the same ``trial_seed``) to
``verify_randomized(scheme, configuration, seed=trial_seed, ...)`` in the
default ``rng_mode="compat"``.

Scheme fast paths (the hook protocol)
-------------------------------------

A scheme may additionally expose three optional methods; when present the
plan parses every label **once at compile time** and ships unpacked
certificate objects between verifier contexts instead of bit strings:

``engine_node_context(view: LabelView) -> ctx``
    Called at compile time for each node whose view is not memoized (see
    below).  Returns an opaque per-node context holding whatever the
    scheme's ``certificate`` / ``verify_at`` would otherwise re-derive from
    the label on every call (parsed replicas, fingerprinters, precomputed
    sub-verdicts).  Must be a pure function of ``view``, and the context
    must not be mutated afterwards: plans compiled from equal views share
    it.  Must raise :class:`ValueError` for labels the node cannot parse —
    the plan then treats the node exactly as the one-shot engine does: its
    certificates are malformed and the node itself rejects.

``engine_certificate(ctx, port, rng) -> message``
    Per trial, per port.  Must consume ``rng`` in the same order as
    ``certificate`` so compat mode reproduces the legacy coin sequence,
    and must return an object that ``engine_verify`` decides on exactly as
    ``verify_at`` would decide on the packed equivalent.  May raise
    :class:`ValueError` for certificates the node cannot produce; the plan
    then delivers ``None``, which receivers reject — the hook analogue of
    the one-shot engine's raise-to-empty-bit-string rule.  ``rng`` is only
    valid for the duration of the call — the plan reuses one re-seeded
    generator across calls, so hooks must not retain it.

``engine_verify(ctx, messages, shared_rng) -> bool``
    Per trial, per node.  ``messages`` are the objects the port neighbors
    produced, indexed by port.  ``shared_rng`` is a fresh public-coin
    stream under ``randomness="shared"`` and ``None`` otherwise.

A scheme whose support is conditional (wrappers like
:class:`~repro.core.boosting.BoostedRPLS`, whose fast path exists only if
the wrapped scheme has one) additionally defines ``engine_ready() -> bool``.
Schemes without hooks run through a generic path that still skips the
prover, params, views, and wiring work — and is certificate-exact, not just
decision-exact, with respect to the legacy engine.

The contract every hook implementation must honour: **for each node, the
accept/reject output must equal the legacy output for the same coins.**
The test suite enforces this property against the reference oracle for all
hook-bearing schemes and all three randomness modes.  Certificate
generators must additionally draw *only* through ``rng.randrange`` /
``rng.getrandbits`` / ``rng.random`` — the three calls whose word
consumption is a pure function of the call sequence, which is what lets
``rng_mode="vector"`` substitute the counter-based
:class:`~repro.core.seeding.CounterRng` (and its whole-chunk numpy
equivalent) for ``random.Random``.

Wrappers that act on the packed bits of a certificate (the noisy channel
of :mod:`repro.core.noise`) need the base scheme's optional *message
codec*: ``engine_encode_message(ctx, message) -> BitString`` packs a hook
message exactly as ``certificate`` would, and
``engine_decode_message(ctx, bits) -> message`` unpacks any bit string of
that width into an object ``engine_verify`` decides on as ``verify_at``
decides on the bits.

Fourth, optional, for vectorization: ``engine_vector_spec(ctx)`` returns a
:class:`~repro.core.fingerprint.FingerprintVectorSpec` (or ``None``) for
schemes whose certificates are pure polynomial fingerprints; when every
context yields one, whole trial chunks execute through the numpy
agreement-table kernel of :mod:`repro.engine.kernels` with per-trial decisions
identical to the scalar hook path (``plan.vector_ready`` /
``run_trials(..., vectorize=True)``).  It must be a pure function of
``ctx``: the plan calls it once per context and keeps the spec next to
the context in the node's memo slot.

Compile-time constant folding
-----------------------------

A hook context that fails to parse means its node rejects every trial, so
the plan's verdict is settled before any trial runs:
``plan.constant_verdict`` is ``False`` (and ``None`` for plans whose
outcome actually depends on coins).  ``run_trial`` / ``run_trials`` return
the folded verdict immediately, and
:func:`~repro.engine.montecarlo.estimate_acceptance_fast` turns it into
the exact degenerate estimate with zero trials executed.

Plans are pure values of their inputs; drivers that repeatedly revisit the
same ``(scheme, configuration, labels, randomness)`` states (the
self-stabilization loop's fault/recovery cycle) should resolve them
through the value-keyed :class:`~repro.engine.cache.PlanCache` instead of
recompiling.

Incremental compile (the node-context memo)
-------------------------------------------

Drivers that recompile one configuration under labels that differ in a
node or two (a forgery search, a bit-flip ranking) pay only for the nodes
whose label changed.  The memo keeps, per live configuration, one
*skeleton*: the label-independent half of a compile — ``params``,
``nodes``, ``degrees``, the ``incoming`` wiring, ``half_edge_count``, the
half-edge owner list and the node states — and, per scheme, a memo
holding each node's last two slots ``(state, own_label, context, spec)``,
the last compile's labels and slots, and the kernel's pair table.  A
compile reuses the skeleton iff ``configuration.graph`` is the same object
with an unmoved :attr:`~repro.graphs.port_graph.PortGraph.mutations`
counter (every ``PortGraph`` mutator bumps it) and every node's state is
the identical, frozen object; otherwise it rebuilds the skeleton, which
keeps the old held slots (not the last compile or the pair table) only if
``params``, ``nodes`` and ``degrees`` are unchanged.

A compile looks up only the nodes whose label *object* differs from the
last compile's (one identity pass over the nodes).  Such a node reuses a
held slot iff ``slot.state is state`` and ``slot.own_label == label`` (the
skeleton fixes node, degree and params), and otherwise calls
``engine_node_context`` on a fresh :class:`~repro.core.scheme.LabelView`;
the new slot, the unparseable outcome included, becomes the most recent of
the two held, evicting the older one, and a return to the older drops the
newer.  Two are enough for a scan over one set of honest labels: the
previous candidate's victim returns to its held honest slot, so each
candidate parses its own victim only, and the abandoned forgery is not
kept.  The slot's ``spec`` is the context's ``engine_vector_spec``,
computed once, on the first :func:`~repro.engine.kernels.vector_state`
that needs it, and ``vector_state`` updates the pair table in place,
re-checking only the (receiver, port) pairs incident to a node whose slot
changed (see :mod:`repro.engine.kernels`).  A one-node relabel therefore parses one
node, describes one node and compares that node's pairs; what is left per
candidate is a few identity passes over the nodes.

Configurations are keyed weakly (the memo dies with its configuration) and
schemes by identity, as in ``PlanCache``; a scheme memo holds its scheme
strongly, so the ``id`` cannot be recycled while it lives.  A state that
holds a mutable container (:meth:`NodeState.frozen
<repro.core.configuration.NodeState.frozen>` is False) is never stored in a
slot, and a skeleton over one is rebuilt on every compile.  Memory is one
skeleton per live configuration plus, per scheme, at most two slots per
node, one pair table and two checks per pair (two slots only while a
node is away from its older label); plans share the skeleton's
tuples.  Generic-path schemes use the skeleton but build no slots, and
build ``plan.label_views`` on first use.
"""

from __future__ import annotations

import random
import threading
import weakref
from functools import cached_property
from itertools import compress, count, repeat
from operator import attrgetter, is_, is_not
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bitstrings import BitString
from repro.core.configuration import Configuration
from repro.core.scheme import (
    SHARED_RNG_SUFFIX,
    LabelView,
    RandomizedScheme,
    SchemeParams,
    VerifierView,
    engine_hooks_available,
    rng_stream_suffix,
)
from repro.core.seeding import CounterRng, derive_stream_seed
from repro.core.verifier import RandomnessMode
from repro.graphs.port_graph import Node

# "compat": legacy string-seeded random.Random streams, bit-identical to the
# one-shot oracle; scalar only.  "vector": the counter-based SplitMix64
# stream (repro.core.seeding), whose draws are a closed-form function of
# (stream seed, counter), so a chunk's draws batch as one numpy array op;
# its scalar (CounterRng) and numpy executions are decision-identical per
# trial.  The two modes are distinct points of the same probability space.
RngMode = str
RNG_MODES = ("compat", "vector")


def check_rng_mode(rng_mode: RngMode) -> None:
    """Raise :class:`ValueError` unless ``rng_mode`` is one of :data:`RNG_MODES`."""
    if rng_mode not in RNG_MODES:
        raise ValueError(
            f"unknown rng_mode {rng_mode!r} (choose from {', '.join(RNG_MODES)})"
        )


def check_kernel_mode(rng_mode: RngMode) -> None:
    """Raise :class:`ValueError` unless the numpy kernels can run ``rng_mode``.

    The kernels draw only the counter-based stream; compat mode's
    string-seeded ``random.Random`` streams run on the scalar path.
    """
    if rng_mode != "vector":
        raise ValueError(
            f"vectorize=True requires rng_mode='vector' (got {rng_mode!r}): "
            "the numpy kernels draw only the counter-based stream"
        )

_EMPTY = BitString.empty()

# The node-context memo: configuration -> its _Skeleton, whose ``slots``
# map id(scheme) -> that scheme's _SchemeMemo.  The lock covers memo and
# scheme-memo lookups only; a slot is immutable but for its lazily set spec,
# and every other memo entry is replaced as one object, so a reader always
# sees a matching (inputs, context) slot, and two racing compiles of equal
# inputs store one of two equal contexts.
_CONTEXT_MEMO: "weakref.WeakKeyDictionary[Configuration, _Skeleton]" = (
    weakref.WeakKeyDictionary()
)
_CONTEXT_MEMO_LOCK = threading.Lock()
_NO_SPEC = object()
_CONTEXT = attrgetter("context")


class _Slot:
    """One node's compile under one scheme: its inputs and their context.

    ``spec`` is the context's ``engine_vector_spec``, set on first use by
    :func:`repro.engine.kernels.vector_state`.
    """

    __slots__ = ("state", "own_label", "context", "spec")

    def __init__(self, state, own_label: BitString, context) -> None:
        self.state = state
        self.own_label = own_label
        self.context = context
        self.spec = _NO_SPEC

    def vector_spec(self, spec_hook):
        """``spec_hook(context)``, computed once per slot (racing first
        callers may both compute it; the hook is pure, so both store equal
        specs)."""
        spec = self.spec
        if spec is _NO_SPEC:
            spec = self.spec = spec_hook(self.context)
        return spec


class _SchemeMemo:
    """One scheme's compiles of one skeleton.

    ``held[i]`` holds node ``i``'s last two slots, the most recent first
    (see :meth:`_Skeleton._slot`); ``last`` is the last compile's
    ``(labels, slots)``, one entry per node; ``kernel`` is the kernel's
    pair table for the last described slots, owned by
    :mod:`repro.engine.kernels` and updated under ``lock``.
    """

    __slots__ = ("scheme", "held", "last", "kernel", "lock")

    def __init__(self, scheme: RandomizedScheme, held: List[tuple]) -> None:
        self.scheme = scheme
        self.held = held
        self.last: Optional[tuple] = None
        self.kernel = None
        self.lock = threading.Lock()


class _Skeleton:
    """The label-independent half of a compile, built once per configuration.

    Holds what every compile of one configuration computes alike — params,
    node order, degrees, the resolved port wiring and the node states — plus
    the per-scheme memos.  A skeleton is reused while :meth:`describes` the
    configuration.
    """

    __slots__ = (
        "graph", "mutations", "states", "frozen", "params", "nodes", "degrees",
        "incoming", "half_edge_count", "half_edge_owners", "slots",
    )

    def __init__(self, configuration: Configuration) -> None:
        graph = configuration.graph
        self.graph = graph
        self.mutations = graph.mutations
        self.params = SchemeParams.from_configuration(configuration)
        self.nodes: Tuple[Node, ...] = tuple(graph.nodes)
        self.states = tuple(configuration.state(node) for node in self.nodes)
        self.frozen = all(state.frozen() for state in self.states)
        node_index = {node: i for i, node in enumerate(self.nodes)}
        self.degrees: Tuple[int, ...] = tuple(graph.degree(node) for node in self.nodes)

        # Half-edge layout: certificates are generated in the same order the
        # one-shot engine uses (nodes in graph order, ports ascending), and
        # half-edge (node i, port q) lives at flat index offset[i] + q.
        offsets: List[int] = []
        owners: List[int] = []
        total = 0
        for i, degree in enumerate(self.degrees):
            offsets.append(total)
            owners.extend([i] * degree)
            total += degree
        self.half_edge_count = total
        self.half_edge_owners: Tuple[int, ...] = tuple(owners)

        # incoming[i][q] = flat index of the half-edge whose message arrives
        # on port q of node i — the entire exchange_messages round resolved
        # to index arithmetic.
        incoming: List[List[int]] = [[0] * degree for degree in self.degrees]
        for i, node in enumerate(self.nodes):
            for port, neighbor, reverse_port in graph.ports(node):
                incoming[node_index[neighbor]][reverse_port] = offsets[i] + port
        self.incoming: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(ports) for ports in incoming
        )
        self.slots: Dict[int, _SchemeMemo] = {}

    def describes(self, configuration: Configuration) -> bool:
        """True while the configuration is still the one this was built from:
        the same graph object, unmutated, and the identical frozen state
        object at every node.  A skeleton over a state that is not frozen
        never describes anything (the state could have changed in place)."""
        graph = configuration.graph
        return (
            self.frozen
            and graph is self.graph
            and graph.mutations == self.mutations
            and all(map(is_, self.states, map(configuration.states.get, self.nodes)))
        )

    def keeps_slots_of(self, other: "_Skeleton") -> bool:
        """True when ``other``'s slots are valid here: a context is a
        function of node, degree, params, state and label, and the slots
        check the last two themselves."""
        return (
            self.params == other.params
            and self.nodes == other.nodes
            and self.degrees == other.degrees
        )

    def scheme_memo(self, scheme: RandomizedScheme) -> _SchemeMemo:
        """``scheme``'s memo on this skeleton, created on first use."""
        with _CONTEXT_MEMO_LOCK:
            memo = self.slots.get(id(scheme))
            if memo is None:
                memo = self.slots[id(scheme)] = _SchemeMemo(
                    scheme, [()] * len(self.nodes)
                )
        return memo

    def node_slots(
        self, memo: _SchemeMemo, labels: Dict[Node, BitString]
    ) -> Tuple[_Slot, ...]:
        """Every node's slot for ``labels``.  Only the nodes whose label
        object differs from the last compile's are looked up, and of those
        only a node whose label matches neither of its two held slots is
        parsed."""
        current = tuple(map(labels.__getitem__, self.nodes))
        last = memo.last
        if last is None:
            changed = range(len(current))
            slots = [None] * len(current)
        else:
            last_labels, last_slots = last
            changed = list(compress(count(), map(is_not, current, last_labels)))
            if not changed:
                return last_slots
            slots = list(last_slots)
        for i in changed:
            slots[i] = self._slot(memo, i, current[i])
        slots = tuple(slots)
        if self.frozen:
            memo.last = (current, slots)
        return slots

    def _slot(self, memo: _SchemeMemo, i: int, label: BitString) -> _Slot:
        """Node ``i``'s slot for ``label``: a held one if its state and
        label match, else a fresh parse, which becomes the most recent of
        the two held slots (the unparseable outcome included).  Returning
        to the older held slot drops the newer: the node has left that
        label, as a scan's previous victim has left its forgery."""
        state = self.states[i]
        held = memo.held[i]
        for slot in held:
            if slot.state is state and (
                slot.own_label is label or slot.own_label == label
            ):
                if slot is not held[0]:
                    memo.held[i] = (slot,)
                return slot
        node = self.nodes[i]
        try:
            context = memo.scheme.engine_node_context(
                LabelView(node, state, self.degrees[i], self.params, label)
            )
        except ValueError:
            # Unparseable (forged) label: certificates are malformed and the
            # node itself rejects — see run_trial.
            context = None
        slot = _Slot(state, label, context)
        if state.frozen():
            memo.held[i] = (slot,) + held[:1]
        return slot


def _skeleton(configuration: Configuration) -> _Skeleton:
    """The configuration's skeleton, rebuilt (and stored) unless it still
    describes the configuration; a rebuilt skeleton keeps the old one's
    held slots when they stay valid (not its last compile or pair tables,
    which belong to the old wiring and states)."""
    with _CONTEXT_MEMO_LOCK:
        skeleton = _CONTEXT_MEMO.get(configuration)
    if skeleton is not None and skeleton.describes(configuration):
        return skeleton
    fresh = _Skeleton(configuration)
    if skeleton is not None and fresh.keeps_slots_of(skeleton):
        fresh.slots = {
            key: _SchemeMemo(memo.scheme, memo.held)
            for key, memo in skeleton.slots.items()
        }
    with _CONTEXT_MEMO_LOCK:
        _CONTEXT_MEMO[configuration] = fresh
    return fresh


def _certificate(engine_certificate, context, port, rng):
    """One hook certificate call with the legacy ValueError contract.

    The one-shot engine maps a raising ``certificate()`` to an empty (hence
    rejected) message; the hook path mirrors that by mapping a raising
    ``engine_certificate`` to ``None``, which every receiver rejects.
    """
    try:
        return engine_certificate(context, port, rng)
    except ValueError:
        return None


class VerificationPlan:
    """A ``(scheme, configuration, labels, randomness)`` tuple, precompiled.

    Build with :meth:`compile`; reuse across as many trials as needed.  The
    plan is read-only after compilation and holds no per-trial state, so a
    single plan may be shared by concurrent estimators.
    """

    def __init__(
        self,
        scheme: RandomizedScheme,
        configuration: Configuration,
        labels: Dict[Node, BitString],
        randomness: RandomnessMode,
        rng_mode: RngMode = "compat",
    ):
        check_rng_mode(rng_mode)
        self.scheme = scheme
        self.configuration = configuration
        self.labels = labels
        self.randomness = randomness
        # The plan's *default* rng mode: run_trial / run_trials / the
        # estimator use it when the caller passes none.  It is part of the
        # plan's identity (PlanCache keys on it) so a plan compiled for
        # vector draws is never served to a compat caller.
        self.rng_mode = rng_mode
        skeleton = _skeleton(configuration)
        self.params: SchemeParams = skeleton.params
        self.nodes: Tuple[Node, ...] = skeleton.nodes
        self.degrees: Tuple[int, ...] = skeleton.degrees
        self.half_edge_count: int = skeleton.half_edge_count
        self.half_edge_owners: Tuple[int, ...] = skeleton.half_edge_owners
        self.incoming: Tuple[Tuple[int, ...], ...] = skeleton.incoming
        self._states = skeleton.states

        # Scheme fast path: parse every label once (and, through the
        # node-context memo, only the labels that changed since this
        # configuration's last compile).  ``_compiled`` is the memo and the
        # contexts as compiled: the kernel's incremental pair table serves
        # this plan only while ``contexts`` is still that tuple.
        self._slots: Optional[Tuple[_Slot, ...]] = None
        self.contexts: Optional[Tuple[object, ...]] = None
        self._compiled: Optional[tuple] = None
        if engine_hooks_available(scheme):
            memo = skeleton.scheme_memo(scheme)
            self._slots = skeleton.node_slots(memo, labels)
            self.contexts = tuple(map(_CONTEXT, self._slots))
            self._compiled = (memo, self.contexts)

        # Compile-time constant folding: a node that cannot parse its own
        # label rejects every trial, so the whole plan's verdict is already
        # known — no trial of any seed or rng mode can accept.  Monte-Carlo
        # drivers consult this before running anything.
        self.constant_verdict: Optional[bool] = None
        if self.contexts is not None and any(map(is_, self.contexts, repeat(None))):
            self.constant_verdict = False

    @cached_property
    def label_views(self) -> Tuple[LabelView, ...]:
        """Every node's :class:`LabelView`, built on first use (the generic
        path's input; the hook path builds views only for the nodes it
        re-parses)."""
        return tuple(
            LabelView(
                node=node,
                state=state,
                degree=degree,
                params=self.params,
                own_label=self.labels[node],
            )
            for node, state, degree in zip(self.nodes, self._states, self.degrees)
        )

    # Compat-mode RNG seed strings: derive_rng seeds with the trial seed
    # followed by a per-stream suffix and re-hashes the whole string through
    # SHA-512 per construction; at least the invariant suffixes (format owned
    # by repro.core.scheme) are built once, on the first compat trial.

    @cached_property
    def port_suffixes(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(
            tuple(rng_stream_suffix(node, port) for port in range(degree))
            for node, degree in zip(self.nodes, self.degrees)
        )

    @cached_property
    def node_suffixes(self) -> Tuple[str, ...]:
        return tuple(rng_stream_suffix(node, None) for node in self.nodes)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def compile(
        scheme: RandomizedScheme,
        configuration: Configuration,
        labels: Optional[Dict[Node, BitString]] = None,
        randomness: RandomnessMode = "edge",
        rng_mode: RngMode = "compat",
    ) -> "VerificationPlan":
        """Precompute the trial-invariant half of repeated verification.

        ``labels`` defaults to the honest prover's assignment, mirroring
        :func:`~repro.core.verifier.verify_randomized`.  ``rng_mode`` sets
        the plan's default randomness derivation (see :data:`RNG_MODES`);
        callers may still override it per run_trial/run_trials call.
        """
        if labels is None:
            labels = scheme.prover(configuration)
        return VerificationPlan(scheme, configuration, labels, randomness, rng_mode)

    @property
    def uses_fast_path(self) -> bool:
        """True when the scheme supplied engine hooks (labels parsed once)."""
        return self.contexts is not None

    @property
    def kernel_path(self) -> str:
        """Which execution path this plan's trials can take at best.

        ``"constant"`` (a compile-time verdict, no trial runs),
        ``"generic"`` (no scheme hooks: labels re-parsed per trial),
        ``"table"`` / ``"parity"`` (the fingerprint agreement-table or
        packed-parity numpy kernel of :mod:`repro.engine.kernels`), or
        ``"scalar"`` (the hook path, one trial at a time).  Whether an
        estimate actually vectorizes also depends on its ``rng_mode`` and
        ``vectorize`` arguments; see
        :func:`repro.engine.montecarlo.executed_path`.
        """
        if self.constant_verdict is not None:
            return "constant"
        if self.contexts is None:
            return "generic"
        from repro.engine.kernels import vector_state

        state = vector_state(self)
        return "scalar" if state is None else state.kernel_path

    @property
    def vector_ready(self) -> bool:
        """True when this plan can run trials through the numpy chunk kernel.

        Requires numpy, the scheme's optional ``engine_vector_spec`` hook,
        and a vector spec from every node context — see
        :mod:`repro.engine.kernels`.  A plan that is not vector-ready simply
        runs the scalar hook (or generic) path; decisions never depend on
        which kernel executes them.
        """
        from repro.engine.kernels import vector_state

        return self.constant_verdict is None and vector_state(self) is not None

    def prepare(self) -> "VerificationPlan":
        """Force every lazily-built execution structure now; returns self.

        The vectorized kernel description (:func:`repro.engine.kernels.vector_state`)
        and the fingerprint kernel's agree rows are built on first use and
        memoized on the plan.  A plan shared by concurrent campaign cell
        threads (``run_campaign(cell_parallelism=...)``) would otherwise
        build them racily — harmlessly, since every builder computes the
        same value, but redundantly, once per thread.
        Executors call ``prepare()`` once before fanning a plan out so the
        workers only ever read.
        """
        if self.constant_verdict is None:
            from repro.engine.kernels import vector_state

            state = vector_state(self)  # builds and memoizes the state
            if state is not None:
                state.prepare()
        return self

    # -- per-trial RNG derivation ---------------------------------------------

    def _edge_rngs(self, trial_seed: int) -> List[random.Random]:
        """One compat generator per half-edge, flat-indexed."""
        Random = random.Random
        randomness = self.randomness
        rngs: List[random.Random] = []
        prefix = str(trial_seed)
        if randomness == "edge":
            for suffixes in self.port_suffixes:
                rngs.extend(Random(prefix + suffix) for suffix in suffixes)
        elif randomness == "node":
            for i, degree in enumerate(self.degrees):
                rng = Random(prefix + self.node_suffixes[i])
                rngs.extend(rng for _ in range(degree))
        elif randomness == "shared":
            shared_key = prefix + SHARED_RNG_SUFFIX
            rngs.extend(Random(shared_key) for _ in range(self.half_edge_count))
        else:  # pragma: no cover - guarded upstream
            raise ValueError(f"unknown randomness mode {randomness!r}")
        return rngs

    # -- execution -------------------------------------------------------------

    def run_trial(self, trial_seed: int, rng_mode: Optional[RngMode] = None) -> bool:
        """One verification round; True iff every node accepts.

        ``rng_mode=None`` uses the plan's compiled default (``"compat"``
        unless the plan was built otherwise).  ``"compat"`` derives the
        exact RNG streams of :func:`~repro.core.verifier.verify_randomized`,
        so the decision is bit-identical to
        ``verify_randomized(..., seed=trial_seed)``.  ``"vector"`` draws
        through the counter-based stream (:class:`~repro.core.seeding.CounterRng`
        here; one numpy array op per chunk in the vectorized kernels) — the
        same probability space at a *different* point for the same seed; it
        requires the hook fast path, whose certificate generators draw only
        via ``randrange``/``getrandbits``/``random``.
        """
        if rng_mode is None:
            rng_mode = self.rng_mode
        if self.constant_verdict is not None:
            return self.constant_verdict
        if self.contexts is not None:
            return self._run_trial_hooks(trial_seed, rng_mode)
        return self._run_trial_generic(trial_seed, rng_mode)

    def _run_trial_hooks(self, trial_seed: int, rng_mode: RngMode) -> bool:
        # Hook contracts allow the plan to reuse one Random instance,
        # re-seeded per stream: hook certificate generators may not retain
        # the rng beyond the call.  Re-seeding skips ~half a microsecond of
        # object construction per half-edge, which is material at thousands
        # of derivations per trial.
        scheme = self.scheme
        contexts = self.contexts
        engine_certificate = scheme.engine_certificate
        randomness = self.randomness
        certificates: List[object] = [None] * self.half_edge_count
        # Vector mode swaps the generator class, nothing else: CounterRng
        # replays, word for word, the counter-based stream the numpy chunk
        # kernels evaluate in one array op.
        rng = CounterRng() if rng_mode == "vector" else random.Random()
        reseed = rng.seed
        shared_key: object = None

        if rng_mode == "compat":
            prefix = str(trial_seed)
            if randomness == "edge":
                flat = 0
                for context, suffixes in zip(contexts, self.port_suffixes):
                    if context is None:
                        flat += len(suffixes)  # malformed label: stays None
                        continue
                    port = 0
                    for suffix in suffixes:
                        reseed(prefix + suffix)
                        certificates[flat] = _certificate(engine_certificate, context, port, rng)
                        flat += 1
                        port += 1
            elif randomness == "node":
                flat = 0
                for i, context in enumerate(contexts):
                    degree = self.degrees[i]
                    if context is None:
                        flat += degree
                        continue
                    reseed(prefix + self.node_suffixes[i])
                    for port in range(degree):
                        certificates[flat] = _certificate(engine_certificate, context, port, rng)
                        flat += 1
            elif randomness == "shared":
                shared_key = prefix + SHARED_RNG_SUFFIX
                flat = 0
                for context, degree in zip(contexts, self.degrees):
                    if context is None:
                        flat += degree
                        continue
                    for port in range(degree):
                        reseed(shared_key)  # every sender sees the same coins
                        certificates[flat] = _certificate(engine_certificate, context, port, rng)
                        flat += 1
            else:  # pragma: no cover - guarded upstream
                raise ValueError(f"unknown randomness mode {randomness!r}")
        elif rng_mode == "vector":
            if randomness in ("edge", "node"):
                # One counter-based stream feeds every certificate in
                # sequence.  Consecutive draws of one stream are as
                # independent as draws of derived per-port streams, so the
                # round's acceptance distribution is unchanged — only the
                # (seed -> coins) mapping differs from compat mode.  The
                # numpy kernels address the same stream, so their draws
                # line up with this loop position for position.
                reseed(derive_stream_seed(trial_seed, 0, 0))
                flat = 0
                for context, degree in zip(contexts, self.degrees):
                    if context is None:
                        flat += degree
                        continue
                    for port in range(degree):
                        certificates[flat] = _certificate(engine_certificate, context, port, rng)
                        flat += 1
            elif randomness == "shared":
                shared_key = derive_stream_seed(trial_seed, -1, -1)
                flat = 0
                for context, degree in zip(contexts, self.degrees):
                    if context is None:
                        flat += degree
                        continue
                    for port in range(degree):
                        reseed(shared_key)
                        certificates[flat] = _certificate(engine_certificate, context, port, rng)
                        flat += 1
            else:  # pragma: no cover - guarded upstream
                raise ValueError(f"unknown randomness mode {randomness!r}")
        else:
            raise ValueError(f"unknown rng_mode {rng_mode!r}")

        engine_verify = scheme.engine_verify
        shared = randomness == "shared"
        incoming = self.incoming
        for i, context in enumerate(contexts):
            if context is None:
                return False  # the node cannot parse its own label: rejects
            messages = [certificates[j] for j in incoming[i]]
            if None in messages:
                # A neighbor's certificate call raised: the legacy engine
                # delivers an empty bit string, which every hook-bearing
                # scheme's verifier rejects.
                return False
            if shared:
                reseed(shared_key)  # a fresh view over the round's coins
                shared_rng = rng
            else:
                shared_rng = None
            if not engine_verify(context, messages, shared_rng):
                return False
        return True

    def _run_trial_generic(self, trial_seed: int, rng_mode: RngMode) -> bool:
        if rng_mode != "compat":
            check_rng_mode(rng_mode)
            # Generic-path schemes may draw through any random.Random
            # method; the counter-based stream only guarantees replayable
            # word consumption for randrange/getrandbits/random, which is
            # what the hook contract restricts certificate generators to.
            raise ValueError(
                "rng_mode='vector' requires the engine hook fast path "
                f"({self.scheme.name} has no engine hooks); "
                "use rng_mode='compat'"
            )
        scheme = self.scheme
        rngs = self._edge_rngs(trial_seed)
        certificate = scheme.certificate

        certificates: List[BitString] = [_EMPTY] * self.half_edge_count
        flat = 0
        for view, degree in zip(self.label_views, self.degrees):
            for port in range(degree):
                try:
                    certificates[flat] = certificate(view, port, rngs[flat])
                except ValueError:
                    certificates[flat] = _EMPTY
                flat += 1

        verify_at = scheme.verify_at
        shared = self.randomness == "shared"
        params = self.params
        for i, view in enumerate(self.label_views):
            verifier_view = VerifierView(
                node=view.node,
                state=view.state,
                degree=view.degree,
                params=params,
                own_label=view.own_label,
                messages=tuple(certificates[j] for j in self.incoming[i]),
                shared_rng=(
                    random.Random(f"{trial_seed}{SHARED_RNG_SUFFIX}") if shared else None
                ),
            )
            try:
                accepted = bool(verify_at(verifier_view))
            except ValueError:
                accepted = False
            if not accepted:
                return False
        return True

    def trial_verdicts(
        self,
        trial_seeds: Sequence[int],
        rng_mode: Optional[RngMode] = None,
        vectorize: bool = False,
    ):
        """Per-trial verdicts of a chunk, in trial order: :meth:`run_trial`'s.

        ``vectorize=True`` returns a bool array from the numpy kernel of
        :mod:`repro.engine.kernels` (requires :attr:`vector_ready` and
        ``rng_mode="vector"``; compat raises :class:`ValueError`), and
        ``trial_seeds`` may be a ``uint64`` array.  The scalar paths return a
        lazy iterator, so a caller that stops early (the per-trial Wilson
        stop) runs no trial past the stop.
        """
        if rng_mode is None:
            rng_mode = self.rng_mode
        if not vectorize:
            return (self.run_trial(seed, rng_mode) for seed in trial_seeds)
        check_kernel_mode(rng_mode)
        if self.constant_verdict is not None:
            import numpy as np

            return np.full(len(trial_seeds), self.constant_verdict)
        from repro.engine.kernels import run_chunk

        return run_chunk(self, trial_seeds, rng_mode)

    def run_trials(
        self,
        trial_seeds: Sequence[int],
        rng_mode: Optional[RngMode] = None,
        vectorize: bool = False,
    ) -> int:
        """How many of :meth:`trial_verdicts` accept (same arguments)."""
        verdicts = self.trial_verdicts(trial_seeds, rng_mode, vectorize)
        return int(verdicts.sum()) if vectorize else sum(verdicts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<VerificationPlan {self.scheme.name!r} n={len(self.nodes)} "
            f"half_edges={self.half_edge_count} randomness={self.randomness!r} "
            f"{self.kernel_path}>"
        )


def compile_fast_plan(
    scheme: RandomizedScheme,
    configuration: Configuration,
    labels: Optional[Dict[Node, BitString]] = None,
    randomness: RandomnessMode = "edge",
    rng_mode: RngMode = "compat",
) -> VerificationPlan:
    """Compile a plan that is *guaranteed* to take the hook fast path.

    The shared body of the per-scheme entry points (``mst_engine_plan``,
    ``k_flow_engine_plan``, ``distance_engine_plan``): benchmarks route
    through these so a scheme that silently loses its engine hooks fails
    loudly instead of quietly dropping to the generic path.
    """
    plan = VerificationPlan.compile(
        scheme, configuration, labels=labels, randomness=randomness, rng_mode=rng_mode
    )
    if not plan.uses_fast_path:
        raise RuntimeError(
            f"{scheme.name}: plan unexpectedly fell back to the generic path"
        )
    return plan
