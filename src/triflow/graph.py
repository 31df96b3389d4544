"""Directed multigraph with integer max flow, residual SCCs and path extraction.

All flow arithmetic is plain integer arithmetic.  Callers that work with
half-integral reduced capacities pass them doubled (1 -> 2, 1.5 -> 3) so no
floats ever enter cut or flow comparisons.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InsufficientPaths, NotMaximum, UnknownNode


def order_key(value):
    """Total order over mixed node/edge identifiers, stable across runs."""
    if isinstance(value, tuple):
        return ("tuple", tuple(order_key(v) for v in value))
    return (type(value).__name__, value)


def sorted_ids(values):
    """Sort identifiers deterministically.

    Homogeneous collections (the normal case) sort natively, which matches
    `order_key` order exactly; mixed types fall back to the explicit key.
    """
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=order_key)


class Digraph:
    """Immutable directed multigraph. Edges carry unique ids; parallel edges
    between the same node pair are allowed, self-loops are not."""

    __slots__ = ("_nodes", "_nodes_sorted", "_ends", "_out", "_in", "_moves")

    def __init__(self, nodes: Iterable, edges: Iterable[tuple]):
        node_set = set(nodes)
        ends = {}
        out = {v: [] for v in node_set}
        into = {v: [] for v in node_set}
        for eid, tail, head in edges:
            if eid in ends:
                raise ValueError(f"duplicate edge id {eid!r}")
            if tail == head:
                raise ValueError(f"self-loop rejected on edge {eid!r}")
            if tail not in node_set or head not in node_set:
                raise UnknownNode(tail if tail not in node_set else head)
            ends[eid] = (tail, head)
            out[tail].append(eid)
            into[head].append(eid)
        self._nodes = frozenset(node_set)
        self._nodes_sorted = tuple(sorted_ids(node_set))
        self._ends = ends
        self._out = {v: tuple(sorted_ids(es)) for v, es in out.items()}
        self._in = {v: tuple(sorted_ids(es)) for v, es in into.items()}
        self._moves = None

    def residual_moves(self, node) -> tuple:
        """(edge, backward) moves out of `node`, lowest edge id first with
        forward before backward; cached since the graph is immutable."""
        if self._moves is None:
            moves = {}
            for u in self._nodes_sorted:
                cand = [(e, 0) for e in self._out[u]] + [(e, 1) for e in self._in[u]]
                try:
                    cand.sort()
                except TypeError:
                    cand.sort(key=lambda m: (order_key(m[0]), m[1]))
                moves[u] = tuple(cand)
            self._moves = moves
        return self._moves[node]

    @property
    def nodes(self) -> frozenset:
        return self._nodes

    @property
    def nodes_sorted(self) -> tuple:
        return self._nodes_sorted

    @property
    def edge_ids(self) -> tuple:
        return tuple(sorted_ids(self._ends))

    def __contains__(self, node) -> bool:
        return node in self._nodes

    def ends(self, eid) -> tuple:
        return self._ends[eid]

    def tail(self, eid):
        return self._ends[eid][0]

    def head(self, eid):
        return self._ends[eid][1]

    def out_arcs(self, node) -> tuple:
        return self._out[node]

    def in_arcs(self, node) -> tuple:
        return self._in[node]

    def edges(self):
        """Iterate (eid, tail, head) in edge-id order."""
        for eid in self.edge_ids:
            tail, head = self._ends[eid]
            yield eid, tail, head

    def subgraph(self, keep_edges, extra_nodes=()) -> "Digraph":
        """Restriction to `keep_edges`; nodes are their endpoints plus extras."""
        keep = set(keep_edges)
        nodes = set(extra_nodes)
        edges = []
        for eid in keep:
            tail, head = self._ends[eid]
            nodes.add(tail)
            nodes.add(head)
            edges.append((eid, tail, head))
        return Digraph(nodes, edges)

    def __repr__(self):
        return f"Digraph(|V|={len(self._nodes)}, |E|={len(self._ends)})"


@dataclass(frozen=True)
class FlowResult:
    """An s-t flow: total value and per-edge amounts (same integer units as
    the capacities it was computed against)."""

    value: int
    per_edge: Mapping
    augmentations: int = 0

    def support(self):
        return [e for e, f in self.per_edge.items() if f > 0]


@dataclass(frozen=True)
class CondensationDag:
    """SCCs of a residual graph in topological order: every residual arc goes
    within one component or from an earlier to a later one.  `successors[i]`
    holds the other components that residual arcs out of component i enter."""

    components: tuple
    component_of: Mapping
    successors: tuple


def max_flow(g: Digraph, cap: Mapping, s, t, limit: int | None = None) -> FlowResult:
    """Maximum s-t flow via shortest augmenting paths (BFS).

    Stops early once `value >= limit` when a limit is given.  Residual arcs at
    a node are tried lowest edge id first, forward before backward, which makes
    the result deterministic.
    """
    if s not in g:
        raise UnknownNode(s)
    if t not in g:
        raise UnknownNode(t)
    if s == t:
        raise ValueError("source equals target")

    flow = {e: 0 for e in g._ends}
    value = 0
    augmentations = 0
    while limit is None or value < limit:
        parent = {s: None}
        queue = deque([s])
        reached = False
        while queue and not reached:
            u = queue.popleft()
            for e, bw in g.residual_moves(u):
                if bw:
                    v = g.tail(e)
                    if v in parent or flow[e] <= 0:
                        continue
                else:
                    v = g.head(e)
                    if v in parent or flow[e] >= cap[e]:
                        continue
                parent[v] = (u, e, bw)
                if v == t:
                    reached = True
                    break
                queue.append(v)
        if not reached:
            break
        bottleneck = None
        v = t
        while v != s:
            u, e, bw = parent[v]
            room = flow[e] if bw else cap[e] - flow[e]
            bottleneck = room if bottleneck is None or room < bottleneck else bottleneck
            v = u
        v = t
        while v != s:
            u, e, bw = parent[v]
            flow[e] += -bottleneck if bw else bottleneck
            v = u
        value += bottleneck
        augmentations += 1
    return FlowResult(value=value, per_edge=flow, augmentations=augmentations)


def reach(out: Mapping, start) -> dict:
    """Breadth-first search from `start` over `out`, a map node -> [(via,
    node)].  Returns every reached node mapped to the `via` it was first
    reached by, `start` mapped to None, in FIFO visiting order."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        for via, v in out.get(queue.popleft(), ()):
            if v not in parent:
                parent[v] = via
                queue.append(v)
    return parent


def residual_scc_condensation(g: Digraph, cap: Mapping, flow: FlowResult, s, t) -> CondensationDag:
    """Condense the residual graph of a maximum flow into its SCC DAG.

    Raises NotMaximum if the residual graph still has an s-t path.  Components
    come out in a topological order (residual arcs go earlier -> later), so the
    target-side component is first and the source-side component last.
    """
    if s not in g or t not in g:
        raise UnknownNode(s if s not in g else t)
    # Residual successors of each node, lowest node id first; a move's `via`
    # is the node it leaves from.
    per_edge = flow.per_edge
    moves = {}
    for u in g.nodes_sorted:
        succ = []
        for e in g.out_arcs(u):
            if per_edge[e] < cap[e]:
                succ.append(g.head(e))
        for e in g.in_arcs(u):
            if per_edge[e] > 0:
                succ.append(g.tail(e))
        moves[u] = [(u, v) for v in sorted_ids(set(succ))]
    if t in reach(moves, s):
        raise NotMaximum("flow admits a residual source-target path")

    # Iterative Tarjan; emission order is reverse topological.
    index = {}
    low = {}
    on_stack = set()
    stack = []
    emitted = []
    counter = 0
    for root in g.nodes_sorted:
        if root in index:
            continue
        work = [(root, iter(moves[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            u, it = work[-1]
            advanced = False
            for _, v in it:
                if v not in index:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack.add(v)
                    work.append((v, iter(moves[v])))
                    advanced = True
                    break
                if v in on_stack:
                    low[u] = min(low[u], index[v])
            if advanced:
                continue
            work.pop()
            if work:
                pu = work[-1][0]
                low[pu] = min(low[pu], low[u])
            if low[u] == index[u]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == u:
                        break
                emitted.append(frozenset(comp))

    components = tuple(reversed(emitted))
    component_of = {}
    for i, comp in enumerate(components):
        for v in comp:
            component_of[v] = i
    successors = tuple(frozenset(component_of[v] for u in comp for _, v in moves[u]) - {i}
                       for i, comp in enumerate(components))
    return CondensationDag(components=components, component_of=component_of,
                           successors=successors)


def decompose_flow_to_paths(g: Digraph, flow: FlowResult, s, t) -> list:
    """Split a conserved flow into s-t paths with amounts.

    Any flow on directed cycles is cancelled first, so the returned path
    support is acyclic and the amounts sum to the flow value.
    """
    remaining = {e: f for e, f in flow.per_edge.items() if f > 0}

    def next_arc(u):
        for e in g.out_arcs(u):
            if remaining.get(e, 0) > 0:
                return e
        return None

    paths = []

    def walk_from(start, emit_paths):
        # Follows positive-flow arcs; cancels any cycle it closes.
        seq = []  # arcs walked
        at = {start: 0}  # node -> position in seq
        node = start
        while True:
            if emit_paths and node == t and seq:
                amount = min(remaining[e] for e in seq)
                for e in seq:
                    remaining[e] -= amount
                paths.append(([*seq], amount))
                return True
            e = next_arc(node)
            if e is None:
                if seq:
                    raise AssertionError("flow conservation violated during peel")
                return False
            head = g.head(e)
            if head in at:
                cyc = seq[at[head]:] + [e]
                amount = min(remaining[c] for c in cyc)
                for c in cyc:
                    remaining[c] -= amount
                del seq[at[head]:]
                for v in list(at):
                    if at[v] > len(seq):
                        del at[v]
                node = head
                if not emit_paths and not seq:
                    return True  # circulation removed
                continue
            seq.append(e)
            at[head] = len(seq)
            node = head

    while next_arc(s) is not None:
        if not walk_from(s, True):
            break
    # leftover circulations not reachable from s
    for u in g.nodes_sorted:
        while next_arc(u) is not None:
            walk_from(u, False)
    if any(v > 0 for v in remaining.values()):
        raise AssertionError("unpeeled flow remained")
    return paths


def cancel_cycles(g: Digraph, flow: FlowResult, s, t) -> FlowResult:
    """Equivalent flow with acyclic support (cycle components removed)."""
    per_edge = {e: 0 for e in flow.per_edge}
    for path, amount in decompose_flow_to_paths(g, flow, s, t):
        for e in path:
            per_edge[e] += amount
    return FlowResult(value=flow.value, per_edge=per_edge,
                      augmentations=flow.augmentations)


def edge_disjoint_paths(g: Digraph, s, t, want: int) -> list:
    """`want` pairwise arc-disjoint s-t paths (unit capacity per arc).

    Raises InsufficientPaths with the achievable count when fewer exist.
    """
    unit = {e: 1 for e in g.edge_ids}
    flow = max_flow(g, unit, s, t, limit=want)
    if flow.value < want:
        raise InsufficientPaths(flow.value, want)
    paths = [p for p, _ in decompose_flow_to_paths(g, flow, s, t)]
    if len(paths) != want:
        raise AssertionError("path peel disagrees with flow value")
    return paths
