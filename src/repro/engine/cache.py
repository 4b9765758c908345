"""A keyed, bounded cache of compiled verification plans.

Long-running drivers — above all the self-stabilization loop of
:mod:`repro.simulation.self_stabilization` — verify a small set of
``(scheme, configuration, labels)`` states over and over: the legal state
between faults, each recurring corrupted state, the repaired state recovery
rebuilds after every detection.  Compiling a
:class:`~repro.engine.plan.VerificationPlan` is the expensive half of that
work (prover-label parsing, per-node base verification, coefficient
extraction), and it is a pure function of the inputs, so a cache turns every
fault/recovery cycle after the first into a lookup.

Keying is **by value**, not identity: two configurations built
independently but carrying the same graph wiring, the same node states, and
the same labels produce the same key.  That is exactly the shape of the
self-stabilization loop, where recovery constructs a *fresh* legal
configuration each cycle that is equal to — but not the same object as —
the previous one.  Mutating anything that feeds the key (a state field, a
label bit, the port wiring, the randomness mode, the plan's default
``rng_mode``) changes the key and misses, so a cached plan can never be
replayed against inputs it was not compiled for — in particular a plan
compiled for counter-based vector draws is never served to a compat
caller expecting the legacy coin streams.  (State fields holding *mutable* containers — which a later
in-place mutation could drift out from under a cached plan — make a
configuration uncacheable and simply compile fresh; see
:class:`Uncacheable`.)  Schemes are the one exception: they are keyed by identity
(``id``), because scheme instances are stateful objects with no value
semantics — reuse the same instance to share cache entries, as every driver
in this repository does.  (Entries hold a strong reference to their scheme
through the plan, so a live entry's ``id`` cannot be recycled.)

The cache is bounded LRU; ``hits`` / ``misses`` counters make reuse
observable in tests and experiment logs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import Dict, Optional, Tuple

from repro.core.bitstrings import BitString
from repro.core.configuration import Configuration
from repro.core.scheme import RandomizedScheme
from repro.core.verifier import RandomnessMode
from repro.engine.plan import VerificationPlan
from repro.graphs.port_graph import Node
from repro.obs.runtime import get_metrics


class Uncacheable(Exception):
    """Raised while keying a configuration that must not be cached.

    A compiled plan aliases the node states it was built from, so a *shared
    mutable container* inside a state field (a list a fault injector could
    later mutate in place) would let a key hit return a plan whose captured
    state no longer matches the key's value.  Immutable leaves cannot drift
    that way; mutable ones (:meth:`NodeState.frozen` is False — the same
    test the plan compiler's node-context memo applies) make the
    configuration uncacheable, and
    :meth:`PlanCache.get` then compiles fresh every time instead of risking
    a stale replay.  (Every generator in this repository uses tuples for
    per-port fields, so real workloads always cache.)
    """


def _freeze(value):
    """Recursively convert a frozen state-field value into a hashable
    equivalent (callers check :meth:`NodeState.frozen` first)."""
    if isinstance(value, MappingProxyType):
        return tuple(sorted((key, _freeze(value[key])) for key in value))
    if isinstance(value, tuple):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, frozenset):
        return frozenset(_freeze(item) for item in value)
    return value


def _frozen_fields(state):
    if not state.frozen():
        raise Uncacheable(f"state of node id {state.node_id} holds a mutable container")
    return _freeze(state.fields)


def configuration_key(configuration: Configuration) -> Tuple:
    """A hashable value-key of a configuration: wiring plus node states.

    Covers everything a plan compiles against — the port-numbered edge set
    (ports included: rewired edges change certificates' message routing) and
    every node's full state.  Cost is ``O(n + m)`` plus state sizes, orders
    of magnitude below one plan compilation.
    """
    graph = configuration.graph
    return (
        configuration.anonymous,
        tuple(
            (
                node,
                tuple(graph.ports(node)),
                configuration.state(node).node_id,
                _frozen_fields(configuration.state(node)),
            )
            for node in graph.nodes
        ),
    )


class PlanCache:
    """Bounded LRU cache of compiled plans, keyed by input values.

    >>> cache = PlanCache(maxsize=4)
    >>> # plan_a is compiled, plan_b is the same object (value-equal inputs)
    >>> # plan_a = cache.get(scheme, config, labels=labels)
    >>> # plan_b = cache.get(scheme, config, labels=labels)
    """

    def __init__(self, maxsize: int = 8):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._plans: "OrderedDict[Tuple, VerificationPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Campaign cell threads (run_campaign's cell_parallelism) resolve
        # plans through one shared cache concurrently; the lock covers the
        # lookup/insert/evict critical sections (compilation itself runs
        # unlocked — plans are pure values, so two racing compiles of the
        # same key just produce two equal plans and the second insert wins).
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def stats(self) -> Dict[str, int]:
        """A snapshot of the cache counters, for experiment telemetry.

        >>> PlanCache(maxsize=2).stats()
        {'size': 0, 'maxsize': 2, 'hits': 0, 'misses': 0}
        """
        with self._lock:
            return {
                "size": len(self._plans),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
            }

    def key(
        self,
        scheme: RandomizedScheme,
        configuration: Configuration,
        labels: Dict[Node, BitString],
        randomness: RandomnessMode,
        rng_mode: str = "compat",
    ) -> Tuple:
        """The cache key for one compile request (see module docstring).

        ``rng_mode`` is part of the key because it is part of the *plan*: a
        plan's compiled default rng mode decides which probability-space
        point ``plan.run_trial(seed)`` lands on, so a plan compiled for
        vector draws must never be served to a compat caller (or vice
        versa) — they would silently get each other's coin streams.
        """
        nodes = configuration.graph.nodes
        return (
            id(scheme),
            randomness,
            rng_mode,
            configuration_key(configuration),
            tuple((node, labels[node]) for node in nodes),
        )

    def get(
        self,
        scheme: RandomizedScheme,
        configuration: Configuration,
        labels: Optional[Dict[Node, BitString]] = None,
        randomness: RandomnessMode = "edge",
        rng_mode: str = "compat",
    ) -> VerificationPlan:
        """Return a plan for the inputs, compiling only on a key miss.

        ``labels`` defaults to the honest prover's assignment — note the
        prover then runs on *every* call (its output feeds the key); pass
        labels explicitly when the caller already holds them, as repeated-
        verification loops invariably do.
        """
        if labels is None:
            labels = scheme.prover(configuration)
        try:
            key = self.key(scheme, configuration, labels, randomness, rng_mode)
        except Uncacheable:
            # See Uncacheable: a state field holds a shared mutable
            # container, so memoizing would risk replaying a stale plan.
            with self._lock:
                self.misses += 1
            get_metrics().counter("plan_cache.misses").inc()
            return VerificationPlan(scheme, configuration, labels, randomness, rng_mode)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                get_metrics().counter("plan_cache.hits").inc()
                return plan
            self.misses += 1
        get_metrics().counter("plan_cache.misses").inc()
        plan = VerificationPlan(scheme, configuration, labels, randomness, rng_mode)
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
        return plan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PlanCache {len(self._plans)}/{self.maxsize} plans "
            f"hits={self.hits} misses={self.misses}>"
        )
