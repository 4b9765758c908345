"""Configurations: a port-numbered graph plus a state per node (Section 2.1).

A configuration ``Gs`` is a graph ``G = (V, E)`` together with a state
assignment ``s : V -> S``.  The state of a node holds *all local input*: its
identity, the weights of its incident edges (indexed by port), and any
algorithm output being verified (parent pointers, tree markings, colors,
flows, ...).

Conventions used across the library (every scheme documents which fields it
reads):

========================  =====================================================
state field               meaning
========================  =====================================================
``weights``               tuple, one integer weight per port (symmetric:
                          both endpoints of an edge see the same weight)
``tree``                  tuple of 0/1 per port — marks the edges of a claimed
                          spanning structure (symmetric)
``parent_port``           port of the claimed parent (or ``None`` at a root)
``color``                 claimed color for the coloring predicate
``payload``               opaque :class:`BitString` data for ``Unif``
                          (Lemma C.3's ``s'(u)``)
``source`` / ``target``   booleans marking ``s`` and ``t`` for flow predicates
``flow``                  tuple per port: signed flow on each incident edge
========================  =====================================================

``NodeState`` is immutable; corruption helpers produce modified copies, so a
legal configuration can never be mutated into an illegal one by accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Hashable, Iterable, Mapping, Optional, Tuple

from repro.core.bitstrings import bits_for_max
from repro.core.encoding import encode_value
from repro.graphs.port_graph import Node, PortGraph


_MUTABLE_CONTAINERS = (list, set, dict, bytearray)


def _frozen_value(value: Any) -> bool:
    """True when ``value`` holds no mutable container at any depth."""
    if isinstance(value, (tuple, frozenset)):
        return all(_frozen_value(item) for item in value)
    if isinstance(value, MappingProxyType):
        return all(_frozen_value(item) for item in value.values())
    return not isinstance(value, _MUTABLE_CONTAINERS)


@dataclass(frozen=True)
class NodeState:
    """The full local input of one node.

    ``node_id`` is the identity ``Id(v)`` (unique across the network unless
    the configuration is anonymous); ``fields`` carries everything else.
    """

    node_id: int
    fields: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", MappingProxyType(dict(self.fields)))

    def get(self, name: str, default: Any = None) -> Any:
        """Read a state field."""
        return self.fields.get(name, default)

    def with_fields(self, **updates: Any) -> "NodeState":
        """A copy with some fields replaced (used by corruption helpers)."""
        merged = dict(self.fields)
        merged.update(updates)
        return NodeState(self.node_id, merged)

    def encoded_bits(self) -> int:
        """Exact size of this state under the canonical codec — the ``k`` of
        Lemma 3.3 / Corollary 3.4.

        Memoized on frozen states (see :meth:`frozen`), so
        :class:`~repro.core.scheme.SchemeParams` of a configuration whose
        states outlive many plan compiles encodes each state once.  The
        cache lives outside the dataclass fields, so equality and hashing
        are untouched.
        """
        cached = getattr(self, "_encoded_bits", None)
        if cached is None:
            cached = encode_value(self.canonical_value()).length
            if self.frozen():
                object.__setattr__(self, "_encoded_bits", cached)
        return cached

    def frozen(self) -> bool:
        """True when no field holds a mutable container — memoized.

        ``NodeState`` copies its field mapping, but a field *value* may
        still be a list (or set, dict, bytearray) that someone mutates in
        place.  Caches keyed on a state's value (the encoded size above,
        the plan compiler's node-context memo) only trust frozen states.
        """
        cached = getattr(self, "_frozen", None)
        if cached is None:
            cached = all(_frozen_value(value) for value in self.fields.values())
            object.__setattr__(self, "_frozen", cached)
        return cached

    def canonical_value(self) -> Tuple[int, Dict[str, Any]]:
        """The codec-ready value: ``(id, fields)`` with plain containers."""
        return (self.node_id, {key: self.fields[key] for key in sorted(self.fields)})


class Configuration:
    """A graph plus its state assignment; the object every scheme consumes.

    The constructor validates that states cover exactly the node set and that
    identities are pairwise distinct (unless ``anonymous=True``; the paper
    notes PLS definitions do not require identities, and some predicates such
    as ``Unif`` make sense without them).
    """

    def __init__(
        self,
        graph: PortGraph,
        states: Mapping[Node, NodeState],
        anonymous: bool = False,
    ):
        if set(states) != set(graph.nodes):
            missing = set(graph.nodes) ^ set(states)
            raise ValueError(f"states must cover exactly the node set; mismatch on {missing}")
        if not anonymous:
            ids = [state.node_id for state in states.values()]
            if len(set(ids)) != len(ids):
                raise ValueError("node identities must be pairwise distinct")
        self.graph = graph
        self.states: Dict[Node, NodeState] = dict(states)
        self.anonymous = anonymous

    # -- sizes ----------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @property
    def id_bits(self) -> int:
        """Width sufficient to pack any identity in this configuration."""
        return max(bits_for_max(max(s.node_id for s in self.states.values())), 1)

    @property
    def port_bits(self) -> int:
        """Width sufficient to pack any port number (plus a null sentinel)."""
        return max(bits_for_max(self.graph.max_degree), 1)

    @property
    def state_bits(self) -> int:
        """``k`` — the maximum encoded state size, per Lemma 3.3."""
        return max(state.encoded_bits() for state in self.states.values())

    # -- access ----------------------------------------------------------------

    def state(self, node: Node) -> NodeState:
        return self.states[node]

    def node_id(self, node: Node) -> int:
        return self.states[node].node_id

    def node_by_id(self, node_id: int) -> Node:
        """Inverse identity lookup (O(n); used by provers, never verifiers)."""
        for node, state in self.states.items():
            if state.node_id == node_id:
                return node
        raise KeyError(f"no node with id {node_id}")

    def edge_weight(self, node: Node, port: int) -> int:
        """The weight of the edge on ``port`` of ``node`` (default 1)."""
        weights = self.states[node].get("weights")
        if weights is None:
            return 1
        return weights[port]

    def weight_key(self, node: Node, port: int) -> Tuple[int, int, int]:
        """Total-order tie-broken weight ``(w, min_id, max_id)``.

        Distinct keys for distinct edges make the MST unique, which the
        Borůvka-trace scheme relies on (see DESIGN.md).
        """
        neighbor = self.graph.neighbor(node, port)
        id_a, id_b = self.node_id(node), self.node_id(neighbor)
        return (
            self.edge_weight(node, port),
            min(id_a, id_b),
            max(id_a, id_b),
        )

    def is_tree_port(self, node: Node, port: int) -> bool:
        """True if the edge on ``port`` is marked as part of the claimed tree."""
        marks = self.states[node].get("tree")
        if marks is None:
            return False
        return bool(marks[port])

    def tree_edges(self) -> Iterable[Tuple[Node, int, Node, int]]:
        """All marked tree edges (asserts the marking is symmetric)."""
        for u, pu, v, pv in self.graph.edges():
            mark_u = self.is_tree_port(u, pu)
            mark_v = self.is_tree_port(v, pv)
            if mark_u != mark_v:
                raise ValueError(
                    f"asymmetric tree marking on edge {{{u!r}, {v!r}}}"
                )
            if mark_u:
                yield u, pu, v, pv

    # -- modification (copy-based) ----------------------------------------------

    def with_state(self, node: Node, new_state: NodeState) -> "Configuration":
        """A copy of the configuration with one node's state replaced."""
        states = dict(self.states)
        states[node] = new_state
        return Configuration(self.graph, states, anonymous=self.anonymous)

    def with_graph(self, new_graph: PortGraph) -> "Configuration":
        """Same states on a different (e.g. crossed) graph.

        Crossing preserves ports, so per-port state fields (weights, tree
        marks) remain well-formed — they now describe the crossed edges, which
        is exactly the semantics of crossing a *configuration* in Section 4.
        """
        return Configuration(new_graph, self.states, anonymous=self.anonymous)

    def copy(self) -> "Configuration":
        return Configuration(self.graph.copy(), dict(self.states), anonymous=self.anonymous)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Configuration(n={self.node_count}, m={self.edge_count}, "
            f"k={self.state_bits})"
        )


def simple_states(
    graph: PortGraph,
    ids: Optional[Mapping[Node, int]] = None,
    **common_fields: Any,
) -> Dict[Node, NodeState]:
    """States with sequential (or given) identities and shared extra fields.

    >>> from repro.graphs.port_graph import path_graph
    >>> graph = path_graph(3)
    >>> states = simple_states(graph)
    >>> sorted(state.node_id for state in states.values())
    [0, 1, 2]
    """
    states = {}
    for index, node in enumerate(graph.nodes):
        node_id = ids[node] if ids is not None else index
        states[node] = NodeState(node_id, dict(common_fields))
    return states
