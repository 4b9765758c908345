"""Port-numbered undirected graphs.

This is the network substrate of the whole library.  Each node has ports
``0..deg(v)-1``; port ``i`` of ``v`` is attached to exactly one edge, whose
other endpoint is some node ``w`` at some port ``j`` — and reciprocally,
port ``j`` of ``w`` leads back to ``(v, i)``.  An edge is therefore the pair
of half-edges ``(v, i) <-> (w, j)``.

Why ports and not plain adjacency: the crossing operation of Definition 4.2
rewires edges *while preserving port numbers at the surviving endpoints*, and
the verifier's input is ordered by port (Section 2.2: "the ordered set
{l(w_i) | i = 1..deg(v)}").  Port identity is observable to the algorithms we
verify, so it must be first-class in the substrate.

The class supports multi-edges structurally (two ports of ``v`` may both lead
to ``w``) because crossing arbitrary edge pairs can create them; the paper's
gadgets never do (independence of the crossed subgraphs rules it out), and
:meth:`PortGraph.validate` can assert simplicity.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

Node = Hashable
HalfEdge = Tuple[Node, int]


class PortGraph:
    """An undirected graph with explicit, reciprocal port numbering."""

    def __init__(self) -> None:
        # _ports[v][i] == (w, j)  <=>  port i of v is wired to port j of w.
        self._ports: Dict[Node, List[HalfEdge]] = {}
        # Bumped by every mutator below, so a cache of derived structure
        # (the plan compiler's per-configuration skeleton) can tell that the
        # same graph object no longer has the same wiring.
        self.mutations = 0

    # -- construction --------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Register an isolated node (idempotent)."""
        if node not in self._ports:
            self._ports[node] = []
            self.mutations += 1

    def add_edge(self, u: Node, v: Node) -> Tuple[int, int]:
        """Wire a new edge using the next free port at each endpoint.

        Returns the pair ``(port_at_u, port_at_v)``.  Port numbers are
        assigned in insertion order, which is how the generators build the
        "consistently ordered" cycles and paths the lower-bound gadgets need.
        """
        if u == v:
            raise ValueError(f"self-loop at {u!r} not allowed (Section 2.1)")
        self.add_node(u)
        self.add_node(v)
        port_u = len(self._ports[u])
        port_v = len(self._ports[v])
        self._ports[u].append((v, port_v))
        self._ports[v].append((u, port_u))
        self.mutations += 1
        return port_u, port_v

    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[Node, Node]], nodes: Iterable[Node] = ()
    ) -> "PortGraph":
        """Build a graph from an edge list (ports follow insertion order)."""
        graph = PortGraph()
        for node in nodes:
            graph.add_node(node)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @staticmethod
    def from_port_spec(spec: Dict[Node, Sequence[HalfEdge]]) -> "PortGraph":
        """Build a graph from an explicit port wiring.

        ``spec[v][i] == (w, j)`` wires port ``i`` of ``v`` to port ``j`` of
        ``w``.  The wiring is validated for reciprocity — this is how the
        universal scheme reconstructs a graph from its encoded representation,
        and a forged representation must fail loudly here.
        """
        graph = PortGraph()
        graph._ports = {node: list(half_edges) for node, half_edges in spec.items()}
        graph.validate(allow_multi_edges=True)
        return graph

    def copy(self) -> "PortGraph":
        """An independent structural copy."""
        clone = PortGraph()
        clone._ports = {node: list(half_edges) for node, half_edges in self._ports.items()}
        return clone

    # -- basic queries --------------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        """All nodes, sorted by repr for deterministic iteration."""
        return sorted(self._ports, key=repr)

    @property
    def node_count(self) -> int:
        return len(self._ports)

    @property
    def edge_count(self) -> int:
        return sum(len(half_edges) for half_edges in self._ports.values()) // 2

    def __contains__(self, node: Node) -> bool:
        return node in self._ports

    def degree(self, node: Node) -> int:
        """Number of ports (= incident edges) at ``node``."""
        return len(self._ports[node])

    @property
    def max_degree(self) -> int:
        if not self._ports:
            return 0
        return max(len(half_edges) for half_edges in self._ports.values())

    def neighbor(self, node: Node, port: int) -> Node:
        """The node reached through ``port`` of ``node``."""
        return self._ports[node][port][0]

    def reverse_port(self, node: Node, port: int) -> int:
        """The port number this edge carries at the *other* endpoint."""
        return self._ports[node][port][1]

    def half_edge(self, node: Node, port: int) -> HalfEdge:
        """``(neighbor, reverse_port)`` for a port."""
        return self._ports[node][port]

    def neighbors(self, node: Node) -> List[Node]:
        """Neighbors in port order (repeats possible for multi-edges)."""
        return [half_edge[0] for half_edge in self._ports[node]]

    def ports(self, node: Node) -> Iterator[Tuple[int, Node, int]]:
        """Iterate ``(port, neighbor, reverse_port)`` triples in port order."""
        for port, (neighbor, reverse_port) in enumerate(self._ports[node]):
            yield port, neighbor, reverse_port

    def port_to(self, node: Node, neighbor: Node) -> Optional[int]:
        """The first port of ``node`` leading to ``neighbor`` (None if absent)."""
        for port, (other, _reverse) in enumerate(self._ports[node]):
            if other == neighbor:
                return port
        return None

    def has_edge(self, u: Node, v: Node) -> bool:
        return self.port_to(u, v) is not None

    def edges(self) -> List[Tuple[Node, int, Node, int]]:
        """Every edge once, as ``(u, port_u, v, port_v)``.

        The representative orientation puts the endpoint with the smaller
        ``repr`` first (ties broken by port), so the list is deterministic.
        """
        seen: Set[Tuple[Node, int]] = set()
        result = []
        for u in self.nodes:
            for port_u, (v, port_v) in enumerate(self._ports[u]):
                if (u, port_u) in seen:
                    continue
                seen.add((u, port_u))
                seen.add((v, port_v))
                result.append((u, port_u, v, port_v))
        return result

    def edge_set(self) -> Set[FrozenSet[Node]]:
        """Node-pair view of the edges (collapses multi-edges)."""
        return {frozenset((u, v)) for u, _pu, v, _pv in self.edges()}

    # -- integrity -------------------------------------------------------------

    def validate(self, allow_multi_edges: bool = False) -> None:
        """Assert structural invariants; raise :class:`ValueError` on violation.

        Checks reciprocity (``v.port[i] == (w, j)`` implies
        ``w.port[j] == (v, i)``), absence of self-loops, and — unless
        ``allow_multi_edges`` — simplicity.
        """
        for v, half_edges in self._ports.items():
            neighbor_multiset: Dict[Node, int] = {}
            for i, (w, j) in enumerate(half_edges):
                if w == v:
                    raise ValueError(f"self-loop at {v!r}")
                if w not in self._ports:
                    raise ValueError(f"dangling edge {v!r}->{w!r}")
                if j >= len(self._ports[w]):
                    raise ValueError(f"port {j} out of range at {w!r}")
                back_node, back_port = self._ports[w][j]
                if (back_node, back_port) != (v, i):
                    raise ValueError(
                        f"reciprocity broken: {v!r}.{i} -> {w!r}.{j} "
                        f"but {w!r}.{j} -> {back_node!r}.{back_port}"
                    )
                neighbor_multiset[w] = neighbor_multiset.get(w, 0) + 1
            if not allow_multi_edges:
                for w, count in neighbor_multiset.items():
                    if count > 1:
                        raise ValueError(f"multi-edge between {v!r} and {w!r}")

    # -- traversal --------------------------------------------------------------

    def bfs_distances(self, source: Node) -> Dict[Node, int]:
        """Hop distance from ``source`` to every reachable node."""
        distances = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self.neighbors(current):
                if neighbor not in distances:
                    distances[neighbor] = distances[current] + 1
                    queue.append(neighbor)
        return distances

    def connected_components(self) -> List[Set[Node]]:
        """The node sets of the connected components (deterministic order)."""
        remaining = set(self._ports)
        components = []
        for node in self.nodes:
            if node not in remaining:
                continue
            reached = set(self.bfs_distances(node))
            components.append(reached)
            remaining -= reached
        return components

    def is_connected(self) -> bool:
        """True for the empty graph and any single-component graph."""
        if not self._ports:
            return True
        return len(self.bfs_distances(self.nodes[0])) == self.node_count

    # -- surgery (used by crossing) ----------------------------------------------

    def graft(self, other: "PortGraph") -> None:
        """Copy a node-disjoint graph into this one, wiring preserved verbatim.

        Used to assemble gadget families (e.g. the Figure 5 chain of cycles)
        from carefully port-numbered blocks without disturbing their port
        conventions.
        """
        overlap = set(self._ports) & set(other._ports)
        if overlap:
            raise ValueError(f"graft requires disjoint node sets; shared: {overlap}")
        for node, half_edges in other._ports.items():
            self._ports[node] = list(half_edges)
        self.mutations += 1

    def rewire(self, node: Node, port: int, new_neighbor: Node, new_reverse_port: int) -> None:
        """Point ``(node, port)`` at ``(new_neighbor, new_reverse_port)``.

        Low-level: callers are responsible for restoring reciprocity before
        the graph is used (``cross_edge_pairs`` always does).
        """
        self._ports[node][port] = (new_neighbor, new_reverse_port)
        self.mutations += 1

    def induced_edges(self, nodes: Set[Node]) -> List[Tuple[Node, int, Node, int]]:
        """Edges with *both* endpoints inside ``nodes``."""
        return [
            (u, pu, v, pv)
            for u, pu, v, pv in self.edges()
            if u in nodes and v in nodes
        ]

    def boundary_edges(self, nodes: Set[Node]) -> List[Tuple[Node, int, Node, int]]:
        """Edges with exactly one endpoint inside ``nodes``."""
        return [
            (u, pu, v, pv)
            for u, pu, v, pv in self.edges()
            if (u in nodes) != (v in nodes)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PortGraph(n={self.node_count}, m={self.edge_count})"


def path_graph(length: int, offset: int = 0) -> PortGraph:
    """A path ``offset, offset+1, ..., offset+length-1`` with consistent ports.

    Interior nodes use port 0 for the predecessor and port 1 for the
    successor, which makes any two interior edges port-preserving isomorphic —
    the property the Theorem 5.1 lower-bound gadget needs.
    """
    graph = PortGraph()
    for i in range(length):
        graph.add_node(offset + i)
    for i in range(length - 1):
        graph.add_edge(offset + i, offset + i + 1)
    return graph


def cycle_graph(length: int, offset: int = 0) -> PortGraph:
    """A cycle on ``length >= 3`` nodes with consistently ordered ports.

    Every node uses port 0 for its predecessor and port 1 for its successor
    (node 0's "predecessor" is node ``length-1``), the paper's "port numbers
    consistently ordered" convention for Figures 2 and 5.
    """
    if length < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    graph = PortGraph()
    for i in range(length):
        graph.add_node(offset + i)
    # Wire the wrap-around edge first so node 0 sees its predecessor on port 0.
    graph.add_edge(offset, offset + length - 1)
    for i in range(length - 1):
        graph.add_edge(offset + i, offset + i + 1)
    # Node 0 now has ports (predecessor, successor); every other node i got its
    # predecessor edge before its successor edge, so the convention holds
    # everywhere except that node length-1's ports are (successor, predecessor).
    # Normalize node length-1 by swapping its two ports.
    last = offset + length - 1
    _swap_ports(graph, last, 0, 1)
    return graph


def _swap_ports(graph: PortGraph, node: Node, port_a: int, port_b: int) -> None:
    """Exchange two ports of ``node``, fixing reciprocal references."""
    half_a = graph.half_edge(node, port_a)
    half_b = graph.half_edge(node, port_b)
    graph.rewire(node, port_a, *half_b)
    graph.rewire(node, port_b, *half_a)
    neighbor_b, reverse_b = half_b
    neighbor_a, reverse_a = half_a
    graph.rewire(neighbor_b, reverse_b, node, port_a)
    graph.rewire(neighbor_a, reverse_a, node, port_b)
