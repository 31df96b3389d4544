"""Brute-force and reference computations for small instances."""

from collections import deque
from itertools import combinations, product
from typing import NamedTuple

from triflow import Arc, CodingNetwork, CutChain, Digraph, decode, encode, max_flow
from triflow.errors import UnknownNode, UnverifiedPlan
from triflow.graph import FlowResult, order_key, reach, sorted_ids
from triflow.plan import LABELS


class TooLarge(Exception):
    """Instance exceeds the size bound of an exhaustive oracle."""


def reference_max_flow(g: Digraph, cap, s, t, limit=None) -> FlowResult:
    """The dict-keyed max flow that the interned `max_flow` replaced: the
    same BFS augmenting paths, over residual moves sorted node by node
    (lowest edge id first, forward before backward)."""
    if s not in g:
        raise UnknownNode(s)
    if t not in g:
        raise UnknownNode(t)
    if s == t:
        raise ValueError("source equals target")
    moves = {u: [] for u in g.nodes}
    for e, tail, head in g.edges():
        moves[tail].append((e, 0))
        moves[head].append((e, 1))
    for cand in moves.values():
        try:
            cand.sort()
        except TypeError:
            cand.sort(key=lambda m: (order_key(m[0]), m[1]))

    flow = {e: 0 for e in g.edge_ids}
    value = 0
    augmentations = 0
    while limit is None or value < limit:
        parent = {s: None}
        queue = deque([s])
        reached = False
        while queue and not reached:
            u = queue.popleft()
            for e, bw in moves[u]:
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


def cut_value(g: Digraph, cap, cut) -> int:
    return sum(cap[e] for e, tail, head in g.edges()
               if tail in cut and head not in cut)


def enumerate_min_cuts(g: Digraph, cap, s, t):
    """All node sets containing s, excluding t, of minimum crossing capacity.
    Exponential in |V|; callers keep instances tiny."""
    others = [v for v in g.nodes if v not in (s, t)]
    best = None
    cuts = []
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            cut = frozenset((s, *combo))
            val = cut_value(g, cap, cut)
            if best is None or val < best:
                best = val
                cuts = [cut]
            elif val == best:
                cuts.append(cut)
    return best, cuts


def min_cut_value(g: Digraph, cap, s, t) -> int:
    return enumerate_min_cuts(g, cap, s, t)[0]


def longest_min_cut_chain(g: Digraph, cap, s, t) -> int:
    """Length of a longest strictly nested chain of minimum cuts."""
    _, cuts = enumerate_min_cuts(g, cap, s, t)
    cuts = sorted(cuts, key=len)
    depth = {}
    best = 0
    for i, c in enumerate(cuts):
        d = 1
        for j in range(i):
            if cuts[j] < c and depth[j] + 1 > d:
                d = depth[j] + 1
        depth[i] = d
        best = max(best, d)
    return best


def is_conserved(g: Digraph, flow, s, t) -> bool:
    """Flow conservation at every node except the endpoints, plus bounds are
    the caller's job."""
    balance = {v: 0 for v in g.nodes}
    for e, tail, head in g.edges():
        balance[tail] -= flow[e]
        balance[head] += flow[e]
    return all(balance[v] == 0 for v in g.nodes if v not in (s, t))


def net_out_of(g: Digraph, flow, node) -> int:
    total = 0
    for e, tail, head in g.edges():
        if tail == node:
            total += flow[e]
        if head == node:
            total -= flow[e]
    return total


def support_is_acyclic(g: Digraph, flow) -> bool:
    adj = {}
    for e, tail, head in g.edges():
        if flow[e] > 0:
            adj.setdefault(tail, []).append(head)
    seen = {}
    for root in g.nodes:
        if root in seen:
            continue
        stack = [(root, iter(adj.get(root, ())))]
        seen[root] = "open"
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen[nxt] = "open"
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
                if seen[nxt] == "open":
                    return False
            if not advanced:
                seen[node] = "done"
                stack.pop()
    return True


def chain_cuts(chain: CutChain) -> list:
    """All cuts C_1 .. C_k of a chain, materialized (quadratic size)."""
    out = []
    acc = set()
    for part in chain.parts[:-1]:
        acc |= part
        out.append(frozenset(acc))
    return out


def _reaches(arcs, tails, heads, s, t) -> bool:
    out = {}
    for arc in arcs:
        out.setdefault(tails[arc], []).append((arc, heads[arc]))
    return t in reach(out, s)


def brute_force_feasible(cn: CodingNetwork) -> bool:
    """Definitional feasibility: 2 units still route after any single edge
    deletion (capacities c, not reduced)."""
    g = cn.graph
    cap = dict(cn.coding_cap)
    base = max_flow(g, cap, cn.source, cn.target, limit=2)
    if base.value < 2:
        return False
    for edge in g.edge_ids:
        rest = g.subgraph([e for e in g.edge_ids if e != edge],
                          extra_nodes=(cn.source, cn.target))
        if max_flow(rest, cap, cn.source, cn.target, limit=2).value < 2:
            return False
    return True


def brute_force_decomposition_exists(cn: CodingNetwork) -> bool:
    """Exhaustively search arc labelings of the auxiliary graph for a valid
    three-subflow plan.  Only for tiny instances (<= 12 arcs)."""
    g = cn.graph
    arcs = []
    tails = {}
    heads = {}
    for eid, tail, head in g.edges():
        for i in range(cn.coding_cap[eid]):
            arc = Arc(eid, i)
            arcs.append(arc)
            tails[arc] = tail
            heads[arc] = head
    if len(arcs) > 12:
        raise TooLarge(f"{len(arcs)} arcs exceed the exhaustive bound of 12")
    s, t = cn.source, cn.target
    edges = g.edge_ids

    # Dropping arcs never helps: every requirement is monotone in the sets,
    # so searching full labelings (no "unused" bucket) is enough.
    for assign in product(range(3), repeat=len(arcs)):
        sets = ([], [], [])
        for arc, lab in zip(arcs, assign):
            sets[lab].append(arc)
        if not all(_reaches(sets[i], tails, heads, s, t) for i in range(3)):
            continue
        ok = True
        for edge in edges:
            alive = 0
            for i in range(3):
                rest = [a for a in sets[i] if a.edge != edge]
                if _reaches(rest, tails, heads, s, t):
                    alive += 1
            if alive < 2:
                ok = False
                break
        if ok:
            return True
    return False


class ReferenceOutcome(NamedTuple):
    received_labels: frozenset
    decoded: tuple | None
    recovered_via: tuple | None
    arc_sends: dict


def _label_adjacency(cn: CodingNetwork, plan, label: str) -> dict:
    """tail -> [(arc, edge, head)] over one label's arcs, in `sorted_ids`
    arc order."""
    adj = {}
    for arc in sorted_ids(plan.subflows[label]):
        tail, head = cn.graph.ends(arc.edge)
        adj.setdefault(tail, []).append((arc, arc.edge, head))
    return adj


def _flood(adj: dict, source, failed_edge, sends: dict, label) -> set:
    """Nodes that get a copy of the packet; counts each `(label, arc)` sent
    into in `sends`, also on arcs of `failed_edge`, which drop what they get."""
    have = {source}
    queue = [source]
    while queue:
        for arc, edge, head in adj.get(queue.pop(), ()):
            sends[(label, arc)] = sends.get((label, arc), 0) + 1
            if edge == failed_edge:
                continue
            if head not in have:
                have.add(head)
                queue.append(head)
    return have


def reference_simulate_transmission(cn: CodingNetwork, plan, gen,
                                    failed_edge=None) -> ReferenceOutcome:
    """The single-failure simulation that flooded a per-label adjacency of
    `(arc, edge, head)` triples and counted sends into a dict as it went:
    every node holding a copy forwards it once onto each of its label arcs."""
    if plan.verification is None or not plan.verification.overall:
        raise UnverifiedPlan("plan has no passing verification report")
    arc_sends = {}
    arrived = {label for label in LABELS
               if cn.target in _flood(_label_adjacency(cn, plan, label),
                                      cn.source, failed_edge, arc_sends, label)}
    payloads = encode(gen.payload_a, gen.payload_b)
    received = {label: payloads[label] for label in LABELS if label in arrived}
    if len(received) < 2:
        return ReferenceOutcome(frozenset(received), None, None, arc_sends)
    if "A" in received and "B" in received:
        via = ("A", "B")
    elif "A" in received:
        via = ("A", "XOR")
    else:
        via = ("B", "XOR")
    return ReferenceOutcome(frozenset(received), decode(received), via, arc_sends)
