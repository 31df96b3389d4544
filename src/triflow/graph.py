"""Directed multigraph with integer max flow, residual SCCs and path extraction.

All flow arithmetic is plain integer arithmetic.  Callers that work with
half-integral reduced capacities pass them doubled (1 -> 2, 1.5 -> 3) so no
floats ever enter cut or flow comparisons.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import eq
from typing import Iterable, Mapping

from .errors import InsufficientPaths, NotMaximum, UnknownNode


def order_key(value):
    """Total order over mixed node/edge identifiers, stable across runs."""
    if isinstance(value, tuple):
        return ("tuple", tuple(order_key(v) for v in value))
    return (type(value).__name__, value)


def sorted_ids(values):
    """Sort a collection of identifiers in `order_key` order.

    Ids that share one type other than tuple (the normal case) sort
    natively, which is the same order, only faster.  Since the order is one
    total order, any subset of a sorted collection is already in its own
    sorted order.
    """
    kinds = set(map(type, values))
    if len(kinds) == 1 and not issubclass(kinds.pop(), tuple):
        return sorted(values)
    return sorted(values, key=order_key)


class Digraph:
    """Immutable directed multigraph. Edges carry unique ids; parallel edges
    between the same node pair are allowed, self-loops are not.

    Ids are interned once, here, in `sorted_ids` order: node i is
    `nodes_sorted[i]`, edge e is `edge_ids[e]` and `_edge_index[edge_ids[e]]`,
    `_tail[e]` and `_head[e]` are node indices, and `_moves[i]` lists the
    residual moves out of node i as 2*e (forward along e) and 2*e + 1
    (backward along e).  Ascending ints are ascending edge ids, forward
    before backward.  Move m leads to node `_end[m]` (`_head[e]` at 2*e,
    `_tail[e]` at 2*e + 1) and leaves from `_end[m ^ 1]`.  A residual walk
    keeps a per-move `room` list: capacity minus flow at 2*e, the flow at
    2*e + 1, so m is usable iff `room[m] > 0` and a push along m moves room
    to m ^ 1.  Everything below runs on these lists and translates an edge
    id once, through `_edge_index`."""

    __slots__ = ("_nodes_sorted", "_index", "_edge_ids", "_edge_index",
                 "_tail", "_head", "_end", "_moves")

    def __init__(self, nodes: Iterable, edges: Iterable[tuple]):
        nodes, rows = dict.fromkeys(nodes), list(edges)
        try:  # the id, tail and head columns, unless a row is not three values
            ids, tails, heads = zip(*rows, strict=True) if rows else ((), (), ())
        except (TypeError, ValueError):
            ids = None
        if ids is None or not self._build(nodes, ids, tails, heads):
            seen = set()  # name the first bad row
            for eid, tail, head in rows:
                if eid in seen:
                    raise ValueError(f"duplicate edge id {eid!r}")
                if tail == head:
                    raise ValueError(f"self-loop rejected on edge {eid!r}")
                if tail not in nodes or head not in nodes:
                    raise UnknownNode(tail if tail not in nodes else head)
                seen.add(eid)

    def _build(self, nodes, ids: tuple, tails, heads) -> bool:
        """Intern edge ids[i]: tails[i] -> heads[i] by whole columns (linear on sorted
        input), or return False if an id repeats, an edge is a self-loop or an end is no node."""
        nodes_sorted = tuple(sorted_ids(dict.fromkeys(nodes)))
        index = dict(zip(nodes_sorted, range(len(nodes_sorted))))
        try:
            edge_index = dict(zip(ids, range(len(ids))))
            tails = list(map(index.__getitem__, tails))
            heads = list(map(index.__getitem__, heads))
        except (KeyError, TypeError):
            return False
        if len(edge_index) != len(ids) or any(map(eq, tails, heads)):
            return False
        edge_ids = tuple(sorted_ids(edge_index))
        if edge_ids != ids:
            order = list(map(edge_index.__getitem__, edge_ids))
            tails, heads = list(map(tails.__getitem__, order)), list(map(heads.__getitem__, order))
            edge_index.update(zip(edge_ids, range(len(ids))))
        self._intern(nodes_sorted, index, edge_ids, edge_index, tails, heads)
        return True

    def _intern(self, nodes_sorted, index, edge_ids, edge_index, tails, heads):
        self._nodes_sorted, self._index, self._edge_ids = nodes_sorted, index, edge_ids
        self._edge_index, self._tail, self._head = edge_index, tails, heads
        self._end = end = [0] * (2 * len(tails))
        end[::2] = heads
        end[1::2] = tails
        self._moves = moves = [[] for _ in nodes_sorted]
        for m, v in enumerate(end):  # m ^ 1 leaves v, in ascending order
            moves[v].append(m ^ 1)

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes_sorted)

    @property
    def nodes_sorted(self) -> tuple:
        return self._nodes_sorted

    @property
    def edge_ids(self) -> tuple:
        return self._edge_ids

    def __contains__(self, node) -> bool:
        return node in self._index

    def has_edge(self, eid) -> bool:
        return eid in self._edge_index

    def ends(self, eid) -> tuple:
        e = self._edge_index[eid]
        return self._nodes_sorted[self._tail[e]], self._nodes_sorted[self._head[e]]

    def edges(self):
        """Iterate (eid, tail, head) in edge-id order."""
        node = self._nodes_sorted.__getitem__
        return zip(self._edge_ids, map(node, self._tail), map(node, self._head))

    def degrees(self, arcs) -> tuple:
        """(out, in): Counters over node indices, of how many of `arcs` (arc
        ints 2·e + copy over this graph's edges) leave and enter each node.
        They hold only the nodes `arcs` touch, so a call costs O(len(arcs))."""
        edges = [a >> 1 for a in arcs]
        return (Counter(map(self._tail.__getitem__, edges)),
                Counter(map(self._head.__getitem__, edges)))

    def subgraph(self, keep_edges, extra_nodes=()) -> "Digraph":
        """Restriction to `keep_edges`; nodes are their endpoints plus extras.

        Raises KeyError for an unknown edge id or extra node.  The kept
        edges and nodes are filtered from this graph's interning by index:
        their order here is their sorted order, as in every subset.
        """
        keep = set(keep_edges)
        unknown = keep - self._edge_index.keys()
        if unknown:
            raise KeyError(min(unknown, key=order_key))
        used = [False] * len(self._nodes_sorted)
        for v in extra_nodes:
            used[self._index[v]] = True
        ids, tails, heads = self._edge_ids, self._tail, self._head
        kept = sorted(map(self._edge_index.__getitem__, keep))
        for e in kept:
            used[tails[e]] = used[heads[e]] = True
        old = [v for v, u in enumerate(used) if u]
        nodes_sorted = tuple(map(self._nodes_sorted.__getitem__, old))
        edge_ids = tuple(map(ids.__getitem__, kept))
        new = list(accumulate(used, initial=0))  # a used node's index in `old`
        sub = Digraph.__new__(Digraph)
        sub._intern(nodes_sorted, dict(zip(nodes_sorted, range(len(old)))), edge_ids,
                    dict(zip(edge_ids, range(len(kept)))),
                    [new[tails[e]] for e in kept], [new[heads[e]] for e in kept])
        return sub

    def __repr__(self):
        return f"Digraph(|V|={len(self._nodes_sorted)}, |E|={len(self._edge_ids)})"


@dataclass(frozen=True)
class FlowResult:
    """An s-t flow: total value and per-edge amounts (same integer units as
    the capacities it was computed against)."""

    value: int
    per_edge: Mapping
    augmentations: int = 0

    def support(self):
        return [e for e, f in self.per_edge.items() if f > 0]


def max_flow(g: Digraph, cap: Mapping, s, t, limit: int | None = None) -> FlowResult:
    """Maximum s-t flow via shortest augmenting paths (BFS).

    Stops early once `value >= limit` when a limit is given.  Residual arcs at
    a node are tried lowest edge id first, forward before backward, which makes
    the result deterministic.
    """
    if s not in g or t not in g:
        raise UnknownNode(s if s not in g else t)
    if s == t:
        raise ValueError("source equals target")

    ids, end, moves = g._edge_ids, g._end, g._moves
    si, ti = g._index[s], g._index[t]
    room = [0] * len(end)
    room[::2] = [cap[e] for e in ids]
    value = 0
    augmentations = 0
    while limit is None or value < limit:
        # parent[v]: the move that first reached v; the source is marked -1
        parent = [None] * len(moves)
        parent[si] = -1
        queue = [si]
        for u in queue:
            for m in moves[u]:
                v = end[m]
                if parent[v] is None and room[m] > 0:
                    parent[v] = m
                    if v == ti:
                        break
                    queue.append(v)
            if parent[ti] is not None:
                break
        if parent[ti] is None:
            break  # no augmenting path left
        path = []
        v = ti
        while v != si:
            m = parent[v]
            path.append(m)
            v = end[m ^ 1]
        bottleneck = min(map(room.__getitem__, path))
        for m in path:
            room[m] -= bottleneck
            room[m ^ 1] += bottleneck
        value += bottleneck
        augmentations += 1
    return FlowResult(value=value, per_edge=dict(zip(ids, room[1::2])),
                      augmentations=augmentations)


def reach(out: Mapping, start) -> dict:
    """Breadth-first search from `start` over `out`, a map node -> [(via,
    node)].  Returns every reached node mapped to the `via` it was first
    reached by, `start` mapped to None, in FIFO visiting order."""
    parent = {start: None}
    queue = [start]
    for u in queue:
        for via, v in out.get(u, ()):
            if v not in parent:
                parent[v] = via
                queue.append(v)
    return parent


def residual_scc_condensation(g: Digraph, room: list, s, t) -> tuple:
    """Condense the residual graph of a maximum flow into its SCC DAG.

    `room` is indexed by move (see `Digraph`).  Raises NotMaximum if the
    residual graph still has an s-t path.  Returns (components as lists of
    node indices, the component of each node index, the residual successors
    of each node index in move order, repeats kept).  Components come out
    in a topological order (residual arcs go earlier -> later), so the
    target-side component is first and the source-side component last.
    """
    if s not in g or t not in g:
        raise UnknownNode(s if s not in g else t)
    end = g._end
    succ = [[end[m] for m in ms if room[m] > 0] for ms in g._moves]
    si, ti = g._index[s], g._index[t]
    seen = [False] * len(succ)
    seen[si] = True
    queue = [si]
    for u in queue:
        for v in succ[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    if seen[ti]:
        raise NotMaximum("flow admits a residual source-target path")

    # Iterative Tarjan.  at[u] is the position of u's next successor to try;
    # comp_of[v] is -1 until v's component is emitted, so a visited node is
    # on the stack iff it has none.  Emission order is reverse topological.
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    at = [0] * n
    comp_of = [-1] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [root]
        while work:
            u = work[-1]
            nxt = succ[u]
            i = at[u]
            while i < len(nxt):
                v = nxt[i]
                i += 1
                if index[v] < 0:
                    at[u] = i
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    work.append(v)
                    break
                if comp_of[v] < 0 and index[v] < low[u]:
                    low[u] = index[v]
            else:
                work.pop()
                if low[u] == index[u]:
                    k = len(comps)
                    comp = []
                    while True:
                        w = stack.pop()
                        comp_of[w] = k
                        comp.append(w)
                        if w == u:
                            break
                    comps.append(comp)
                elif low[u] < low[work[-1]]:
                    low[work[-1]] = low[u]

    last = len(comps) - 1
    return comps[::-1], [last - k for k in comp_of], succ


def _is_path_sum(g: Digraph, per_edge: Mapping, s, t) -> bool:
    """Whether the flow `per_edge` (edge id -> amount; an edge without a key
    carries 0) is a sum of s-t paths in `g`: no flow enters s or leaves t,
    and Kahn's pass finds its support acyclic.  Raises AssertionError when it
    is no flow in `g` at all: positive on an id that is not an edge of `g`,
    negative anywhere, or unbalanced at a node other than s and t."""
    if any(per_edge[e] > 0 for e in per_edge.keys() - g._edge_index.keys()):
        raise AssertionError("positive flow on an id that is not an edge")
    if min(per_edge.values(), default=0) < 0:
        raise AssertionError("negative flow amount")
    tails, heads, end, moves = g._tail, g._head, g._end, g._moves
    flow = [per_edge.get(e, 0) for e in g._edge_ids]
    balance = [0] * len(moves)
    indegree = [0] * len(moves)
    for e, f in enumerate(flow):
        if f:
            u, v = tails[e], heads[e]
            balance[u] -= f
            balance[v] += f
            indegree[v] += 1
    si, ti = g._index[s], g._index[t]
    balance[si] = balance[ti] = 0
    if any(balance):
        raise AssertionError("flow unbalanced at a node other than source and target")
    carried = [0] * len(end)  # per move: the flow forward, 0 backward
    carried[::2] = flow
    if indegree[si] or any(map(carried.__getitem__, moves[ti])):
        return False
    queue = [v for v, d in enumerate(indegree) if not d]
    for u in queue:
        for m in moves[u]:
            if carried[m]:
                v = end[m]
                indegree[v] -= 1
                if not indegree[v]:
                    queue.append(v)
    return len(queue) == len(indegree)


def decompose_flow_to_paths(g: Digraph, flow: FlowResult, s, t) -> list:
    """Split a flow into s-t paths with amounts, in the order one walk from
    s finds them.  The walk follows each node's lowest edge id still
    carrying flow, cancels every cycle it closes and takes out a path each
    time it reaches t; the path support is acyclic and the amounts sum to
    the flow value.  Conservation leaves the walk stuck only at s, with no
    move walked.  Flow left over then is circulation and is dropped, unless
    some still enters s: that runs from t back to s.  Raises AssertionError
    for it and wherever `_is_path_sum` does."""
    _is_path_sum(g, flow.per_edge, s, t)
    ids, end, moves = g._edge_ids, g._end, g._moves
    # The flow left on each forward move (0 on backward ones).  It only ever
    # decreases, so a node's resume position passes a dry move for good.
    left = [0] * len(end)
    left[::2] = [flow.per_edge.get(e, 0) for e in ids]
    at = [0] * len(moves)  # per node: the position of its next move to try
    on = [-1] * len(moves)  # per node on the walk: how many moves led to it
    si, ti = g._index[s], g._index[t]
    on[si] = 0
    seq = []  # the moves walked from s
    node = si
    paths = []
    while True:
        ms, i = moves[node], at[node]
        while i < len(ms) and not left[ms[i]]:
            i += 1
        at[node] = i
        if i == len(ms):
            break
        m = ms[i]
        node = end[m]
        if node == ti:  # a path: take it out and walk again from s
            run, seq = seq + [m], []
        elif on[node] >= 0:  # a closed cycle: cancel it and walk on from node
            run = seq[on[node]:] + [m]
            del seq[on[node]:]
        else:
            seq.append(m)
            on[node] = len(seq)
            continue
        amount = min(map(left.__getitem__, run))
        for c in run:
            left[c] -= amount
            on[end[c]] = -1
        on[node] = len(seq)  # t's entry is never read: t ends a path first
        if node == ti:
            paths.append(([ids[c >> 1] for c in run], amount))
            node = si
    if any(left[m - 1] for m in moves[si] if m & 1):
        raise AssertionError("flow left entering the source runs from the target back to it")
    return paths


def cancel_cycles(g: Digraph, flow: FlowResult, s, t) -> FlowResult:
    """Equivalent flow with acyclic support: the sum of the paths that
    `decompose_flow_to_paths` peels, keyed as `flow` is.  A flow that
    `_is_path_sum` finds already a sum of s-t paths comes back as it is."""
    if _is_path_sum(g, flow.per_edge, s, t):
        return flow
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
    unit = dict.fromkeys(g.edge_ids, 1)
    flow = max_flow(g, unit, s, t, limit=want)
    if flow.value < want:
        raise InsufficientPaths(flow.value, want)
    paths = [p for p, _ in decompose_flow_to_paths(g, flow, s, t)]
    if len(paths) != want:
        raise AssertionError("path peel disagrees with flow value")
    return paths
