"""Brute-force and reference computations for small instances."""

import heapq
from collections import deque
from dataclasses import replace
from itertools import combinations, product
from typing import NamedTuple

from triflow import (Arc, CodingNetwork, ConditionedNetwork, CutChain, CutKind, Digraph,
                     FeasibilityKind, Network, RecoveryPlan, SegmentType, assign_roles,
                     build_cut_chain, classify_feasibility, decode,
                     derive_coding_capacities, encode, max_flow, verify_plan)
from triflow.cutchain import _KINDS, FLOW_TARGET_DOUBLED, REDUCED_DOUBLED, reduced_capacities
from triflow.errors import (BrokenChain, InsufficientPaths, MalformedCut, NotMaximum,
                            NotNetworkCodingClass, SegmentInfeasible, UnknownNode)
from triflow.graph import (FlowResult, decompose_flow_to_paths, edge_disjoint_paths,
                           order_key, reach, residual_scc_condensation, sorted_ids)
from triflow.plan import LABELS, NodeRole, Role


class TooLarge(Exception):
    """Instance exceeds the size bound of an exhaustive oracle."""


class Condensation(NamedTuple):
    """`residual_scc_condensation` read by id: node-id sets in topological
    order, each node's component and each component's successors."""

    components: tuple
    component_of: dict
    successors: tuple


def residual_room(g: Digraph, cap, per_edge) -> list:
    """The per-move room of a flow, from id-keyed capacities and flow:
    capacity minus flow at 2·e, the flow at 2·e + 1."""
    room = [0] * (2 * len(g.edge_ids))
    room[::2] = [cap[e] - per_edge[e] for e in g.edge_ids]
    room[1::2] = [per_edge[e] for e in g.edge_ids]
    return room


def condensation(g: Digraph, cap, flow: FlowResult, s, t) -> Condensation:
    """`residual_scc_condensation` called with id-keyed capacities and a
    `FlowResult`, its node indices translated back to ids and its nodes'
    residual successors gathered into each component's successor set."""
    comps, comp_of, succ = residual_scc_condensation(
        g, residual_room(g, cap, flow.per_edge), s, t)
    successors = [{comp_of[v] for u in comp for v in succ[u]} - {i}
                  for i, comp in enumerate(comps)]
    nodes = g.nodes_sorted
    return Condensation(tuple(frozenset(nodes[v] for v in comp) for comp in comps),
                        {v: comp_of[i] for i, v in enumerate(nodes)},
                        tuple(map(frozenset, successors)))


def reference_condensation(g: Digraph, cap: list, flow: list, s, t) -> tuple:
    """The list-of-lists `residual_scc_condensation` that the per-move walk
    replaced: residual arcs decoded edge by edge, a Tarjan pass over
    `(node, iterator)` work tuples and each component's successor set.

    `cap` and `flow` are indexed by edge.  Raises NotMaximum if the residual
    graph still has an s-t path.  Returns (components as lists of node
    indices, the component of each node index, the set of other components
    that residual arcs out of each component enter).  Components come out in
    a topological order (residual arcs go earlier -> later), so the
    target-side component is first and the source-side component last.
    """
    if s not in g or t not in g:
        raise UnknownNode(s if s not in g else t)
    tails, heads = g._tail, g._head
    room = [c - f for c, f in zip(cap, flow)]
    # Residual successors of each node in move order, repeats kept: the
    # components do not depend on the order the DFS takes them in.
    succ = []
    for ms in g._moves:
        nxt = []
        for m in ms:
            e = m >> 1
            if m & 1:
                if flow[e] > 0:
                    nxt.append(tails[e])
            elif room[e] > 0:
                nxt.append(heads[e])
        succ.append(nxt)
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

    # Iterative Tarjan; emission order is reverse topological.
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    emitted = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            u, it = work[-1]
            advanced = False
            for v in it:
                if index[v] < 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                    work.append((v, iter(succ[v])))
                    advanced = True
                    break
                if on_stack[v]:
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
                    on_stack[w] = False
                    comp.append(w)
                    if w == u:
                        break
                emitted.append(comp)

    emitted.reverse()
    comp_of = [0] * n
    for i, comp in enumerate(emitted):
        for v in comp:
            comp_of[v] = i
    successors = [{comp_of[v] for u in comp for v in succ[u]} - {i}
                  for i, comp in enumerate(emitted)]
    return emitted, comp_of, successors


def reference_cut_chain(g: Digraph, coding_cap, flow: FlowResult, s, t) -> CutChain:
    """`build_cut_chain` before its Kahn's heap counted condensation arcs:
    it reads `reference_condensation`'s successor sets and keeps a
    predecessor set per component.

    Expects zero-flow edges already removed and an acyclic flow support.  Each
    step of the chain adds exactly one residual SCC, successors first; ties are
    broken by the smallest node id inside the component, which is its
    smallest node index.  Raises BrokenChain for an edge that crosses a cut
    backward or unsaturated, and MalformedCut for a cut that is neither kind.
    """
    ids = g._edge_ids
    caps = [coding_cap[e] for e in ids]
    reduced = [REDUCED_DOUBLED[c] for c in caps]
    per_edge = [flow.per_edge[e] for e in ids]
    comps, comp_of, succs = reference_condensation(g, reduced, per_edge, s, t)
    n = len(comps)
    s_comp = comp_of[g._index[s]]
    t_comp = comp_of[g._index[t]]
    if s_comp == t_comp:
        raise BrokenChain("source and target share a residual component")

    preds = [set() for _ in range(n)]
    for a, bs in enumerate(succs):
        for b in bs:
            preds[b].add(a)

    if preds[t_comp]:
        raise BrokenChain("residual arcs enter the target component; support "
                          "is cyclic or zero-flow edges remain")

    min_key = list(map(min, comps))
    pending = [len(succs[i]) for i in range(n)]
    ready = [(min_key[i], i) for i in range(n) if pending[i] == 0 and i != t_comp]
    heapq.heapify(ready)

    order = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for p in preds[i]:
            pending[p] -= 1
            if pending[p] == 0 and p != t_comp:
                heapq.heappush(ready, (min_key[p], p))
    if len(order) != n - 1:
        raise BrokenChain("condensation did not linearize into a chain")
    if order and s_comp != order[0]:
        raise BrokenChain("first chain component does not contain the source")

    order.append(t_comp)
    part_of_comp = [0] * n
    for i, c in enumerate(order):
        part_of_comp[c] = i
    node_part = [part_of_comp[c] for c in comp_of]

    # Edge e from part a to part b > a crosses cuts a+1..b, each a minimum
    # cut, so it must be saturated; one from a later part to an earlier one
    # is flow crossing a minimum cut backward, since every edge carries flow.
    crossing = [[] for _ in range(n - 1)]  # crossing[i] crosses cut i + 1
    for e, (a, b) in enumerate(zip(map(node_part.__getitem__, g._tail),
                                   map(node_part.__getitem__, g._head))):
        if a < b:
            if reduced[e] != per_edge[e]:
                raise BrokenChain(f"cut {a + 1} is not saturated: edge {ids[e]!r} "
                                  f"carries {per_edge[e]} of {reduced[e]}")
            crossing[a].append(e)
            if b - a > 1:
                for i in range(a + 1, b):
                    crossing[i].append(e)
        elif a > b:
            raise BrokenChain(f"edge {ids[e]!r} crosses the cut chain backward")
    kinds = [_KINDS.get((len(edges), sum(map(caps.__getitem__, edges)))) for edges in crossing]
    if None in kinds:  # the first cut of neither kind raises, with its counts
        i = kinds.index(None)
        twos = sum(map(caps.__getitem__, crossing[i])) - len(crossing[i])
        raise MalformedCut(f"cut {i + 1} crosses {twos} capacity-2 and "
                           f"{len(crossing[i]) - twos} capacity-1 edges")
    return CutChain(kinds=tuple(kinds), node_part=node_part, crossing=crossing)


def reference_max_flow(g: Digraph, cap, s, t, limit=None) -> FlowResult:
    """The dict-keyed max flow that the interned `max_flow` replaced: the
    same BFS augmenting paths, over residual moves sorted node by node
    (lowest edge id in `order_key` order first, forward before backward)."""
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
                    v = g.ends(e)[0]
                    if v in parent or flow[e] <= 0:
                        continue
                else:
                    v = g.ends(e)[1]
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


# The flow peel as it was before it became one walk from the source: one
# walk per path, then a sweep from every node that cancels the leftover
# circulation and raises on any other leftover flow.

def reference_decompose_flow_to_paths(g: Digraph, flow: FlowResult, s, t) -> list:
    """Split a conserved flow into s-t paths with amounts.

    Any flow on directed cycles is cancelled first, so the returned path
    support is acyclic and the amounts sum to the flow value.
    """
    ids, end, moves = g._edge_ids, g._end, g._moves
    per_edge = flow.per_edge
    # The flow left on each forward move (0 on backward ones), and the moves
    # carrying it out of each node, lowest edge id last.  Flow only ever
    # decreases, so a move popped once it runs dry never returns.
    left = [0] * len(end)
    left[::2] = [per_edge.get(e, 0) for e in ids]
    out = [[m for m in reversed(ms) if left[m] > 0] for ms in moves]
    si, ti = g._index[s], g._index[t]
    paths = []

    def walk_from(start, emit_paths):
        # Follows positive-flow moves; cancels any cycle it closes.  False
        # once no flow leaves `start`.
        seq = []  # moves walked
        at = {start: 0}  # node -> position in seq
        node = start
        while True:
            if emit_paths and node == ti and seq:
                amount = min(map(left.__getitem__, seq))
                for m in seq:
                    left[m] -= amount
                paths.append(([ids[m >> 1] for m in seq], amount))
                return True
            moves_out = out[node]
            while moves_out and left[moves_out[-1]] <= 0:
                moves_out.pop()
            if not moves_out:
                if seq:
                    raise AssertionError("flow conservation violated during peel")
                return False
            m = moves_out[-1]
            head = end[m]
            if head in at:
                cyc = seq[at[head]:] + [m]
                amount = min(map(left.__getitem__, cyc))
                for c in cyc:
                    left[c] -= amount
                for c in seq[at[head]:]:  # the cut moves' heads leave the walk
                    del at[end[c]]
                del seq[at[head]:]
                node = head
                if not emit_paths and not seq:
                    return True  # circulation removed
                continue
            seq.append(m)
            at[head] = len(seq)
            node = head

    while walk_from(si, True):
        pass
    if max(left, default=0) > 0:
        # leftover circulations not reachable from s
        for u in range(len(moves)):
            while walk_from(u, False):
                pass
        if max(left) > 0:
            raise AssertionError("unpeeled flow remained")
    if not per_edge.keys() <= g._edge_index.keys() and any(
            per_edge[e] > 0 for e in per_edge.keys() - g._edge_index.keys()):
        raise AssertionError("unpeeled flow remained")
    return paths


def _reference_is_path_sum(g: Digraph, per_edge: dict, s, t) -> bool:
    """Whether `per_edge` is a sum of s-t paths in `g`: defined on exactly
    g's edges, nonnegative, conserved at every node but s and t, entering no
    s and leaving no t, with a support that Kahn's pass finds acyclic.  The
    peel in `reference_cancel_cycles` splits such a flow into paths that add
    back up to it, never raising."""
    if per_edge.keys() != g._edge_index.keys():
        return False
    flow = [per_edge[e] for e in g._edge_ids]
    if min(flow, default=0) < 0:
        return False
    tails, heads, end = g._tail, g._head, g._end
    si, ti = g._index[s], g._index[t]
    balance = [0] * len(g._moves)
    indegree = [0] * len(g._moves)
    for e, f in enumerate(flow):
        if f:
            u, v = tails[e], heads[e]
            if v == si or u == ti:
                return False
            balance[u] -= f
            balance[v] += f
            indegree[v] += 1
    balance[si] = balance[ti] = 0
    if any(balance):
        return False
    carried = [0] * len(end)  # per move: the flow forward, 0 backward
    carried[::2] = flow
    queue = [v for v, d in enumerate(indegree) if not d]
    for u in queue:
        for m in g._moves[u]:
            if carried[m]:
                v = end[m]
                indegree[v] -= 1
                if not indegree[v]:
                    queue.append(v)
    return len(queue) == len(indegree)


def reference_cancel_cycles(g: Digraph, flow: FlowResult, s, t) -> FlowResult:
    """Equivalent flow with acyclic support (cycle components removed).  A
    flow that is already a sum of s-t paths comes back as it is."""
    if _reference_is_path_sum(g, flow.per_edge, s, t):
        return flow
    per_edge = {e: 0 for e in flow.per_edge}
    for path, amount in reference_decompose_flow_to_paths(g, flow, s, t):
        for e in path:
            per_edge[e] += amount
    return FlowResult(value=flow.value, per_edge=per_edge,
                      augmentations=flow.augmentations)


def _reference_settle(graph: Digraph, coding_cap, s, t, flow=None):
    """Max flow, cycle cancellation and zero-flow pruning to a fixed point:
    every round after the first recomputes `max_flow` on the pruned graph."""
    while True:
        if flow is None:
            flow = max_flow(graph, reduced_capacities(graph, coding_cap), s, t)
        if flow.value != FLOW_TARGET_DOUBLED:
            raise NotNetworkCodingClass(f"reduced max flow is {flow.value}/2, expected 3")
        flow = reference_cancel_cycles(graph, flow, s, t)
        support = flow.support()
        if len(support) == len(graph.edge_ids):
            return graph, coding_cap, flow
        graph = graph.subgraph(support, extra_nodes=(s, t))
        coding_cap = {e: coding_cap[e] for e in graph.edge_ids}
        flow = None


def reference_condition_network(cn: CodingNetwork, flow=None) -> ConditionedNetwork:
    """The conditioning that settled to a fixed point: after each pruning it
    re-ran `max_flow` on the pruned graph until nothing more was pruned."""
    s, t = cn.source, cn.target
    graph, cap, flow = _reference_settle(cn.graph, dict(cn.coding_cap), s, t, flow)
    chain = build_cut_chain(graph, cap, flow, s, t)
    part = part_of(chain, graph)
    demoted = [e for e, tail, head in graph.edges() if cap[e] == 2 and part[tail] == part[head]]
    if demoted:
        for e in demoted:
            cap[e] = 1
        graph, cap, flow = _reference_settle(graph, cap, s, t)
        chain = build_cut_chain(graph, cap, flow, s, t)
    network = CodingNetwork(graph=graph, coding_cap=cap, source=s, target=t)
    return ConditionedNetwork(network=network, flow=flow, chain=chain)


def chain_parts(chain: CutChain, graph: Digraph) -> tuple:
    """The chain's parts as frozensets of the ids of `graph`, the graph it was
    built on: C_1 first, then each C_{i+1} \\ C_i, then the rest."""
    parts = [set() for _ in range(chain.k + 1)]
    for v, i in zip(graph.nodes_sorted, chain.node_part):
        parts[i].add(v)
    return tuple(map(frozenset, parts))


def part_of(chain: CutChain, graph: Digraph) -> dict:
    """{node id: index of its chain part}."""
    return {v: i for i, part in enumerate(chain_parts(chain, graph)) for v in part}


def aux_arc(aux, a) -> Arc:
    """Arc int `a` of an auxiliary graph as the `Arc(edge id, copy)` it is."""
    return Arc(aux.graph.edge_ids[a >> 1], a & 1)


def segment_arcs(seg) -> tuple:
    """Every arc int of a segment: the arcs with an end in its part or
    spanning it, in `aux.arcs` order, then the virtual arcs that bound it,
    if any."""
    aux = seg.aux
    part, i = aux.part, seg.index
    arcs = [a for a in aux.arcs if part[aux.tail[a]] <= i <= part[aux.head[a]]]
    if seg.entry_arcs is aux.source_arcs:
        arcs += aux.source_arcs
    if seg.exit_arcs is aux.sink_arcs:
        arcs += aux.sink_arcs
    return tuple(arcs)


def _kind(ones: int, twos: int, where: str) -> CutKind:
    # Coding capacities are 1 or 2; `twos` counts the crossing edges that are
    # not capacity 1.
    if ones == 0 and twos == 2:
        return CutKind.TWO_EDGE
    if ones == 3 and twos == 0:
        return CutKind.THREE_ARC
    raise MalformedCut(f"{where} crosses {twos} capacity-2 and {ones} capacity-1 edges")


def classify_cut(g: Digraph, coding_cap, cut) -> CutKind:
    """TWO_EDGE or THREE_ARC, from the capacities of the edges crossing the
    node set `cut`, by the chain's own rule."""
    caps = [coding_cap[eid] for eid, tail, head in g.edges()
            if tail in cut and head not in cut]
    ones = caps.count(1)
    return _kind(ones, len(caps) - ones, "cut")


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


def chain_cuts(chain: CutChain, graph: Digraph) -> list:
    """All cuts C_1 .. C_k of a chain built on `graph`, materialized
    (quadratic size)."""
    out = []
    acc = set()
    for part in chain_parts(chain, graph)[:-1]:
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


def reference_diversity_plan(net: Network) -> RecoveryPlan:
    """Plain diversity coding, built apart from the segment pipeline: three
    `edge_disjoint_paths` over the coding network of a diversity-coding
    `net`, labeled A, B and XOR in path order, as a verified plan."""
    cn = derive_coding_capacities(net)
    feas = classify_feasibility(cn)
    if feas.kind is not FeasibilityKind.DIVERSITY_CODING:
        raise ValueError(f"{feas.kind.value} network, not diversity coding")
    index = cn.graph._edge_index
    sets = [sorted(2 * index[e] for e in p)
            for p in edge_disjoint_paths(cn.graph, cn.source, cn.target, 3)]
    plan = assign_roles(cn, sets, None, replace(feas, probe=None))
    return plan.with_verification(verify_plan(cn, plan))


class ReferenceOutcome(NamedTuple):
    received_labels: frozenset
    decoded: tuple | None
    recovered_via: tuple | None
    arc_sends: dict


def reference_roles(g: Digraph, subflows) -> tuple:
    """The relay roles of three labeled arc sets over `g`, by id-keyed degree
    dicts: per label, a splitter at each node with two or more out-arcs and a
    merger at each with two or more in-arcs, arcs counted copy by copy;
    sorted by `order_key(node)`, then role, then label."""
    roles = []
    for label in LABELS:
        out_deg = {}
        in_deg = {}
        for arc in subflows[label]:
            tail, head = g.ends(arc.edge)
            out_deg[tail] = out_deg.get(tail, 0) + 1
            in_deg[head] = in_deg.get(head, 0) + 1
        roles += [NodeRole(node, Role.SPLITTER, label) for node, d in out_deg.items() if d >= 2]
        roles += [NodeRole(node, Role.MERGER, label) for node, d in in_deg.items() if d >= 2]
    roles.sort(key=lambda r: (order_key(r.node), r.role.value, r.label))
    return tuple(roles)


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
    arc_sends = {}
    arrived = {label for label in LABELS
               if cn.target in _flood(_label_adjacency(cn, plan, label),
                                      cn.source, failed_edge, arc_sends, label)}
    return _reference_outcome(arrived, encode(gen.payload_a, gen.payload_b), arc_sends)


def _reference_outcome(arrived, payloads: dict, arc_sends: dict) -> ReferenceOutcome:
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


def reference_failure_sweep(cn: CodingNetwork, plan, gen) -> dict:
    """The re-flood sweep that the bridge sweep replaced: each label is
    flooded once without a failure, and a failed edge re-floods only the
    labels whose subflow uses it.  Returns {edge: ReferenceOutcome} with
    empty `arc_sends`."""
    adjacency = {label: _label_adjacency(cn, plan, label) for label in LABELS}
    used = {label: {arc.edge for arc in plan.subflows[label]} for label in LABELS}

    def reaches(label, failed_edge=None) -> bool:
        return cn.target in _flood(adjacency[label], cn.source, failed_edge, {}, label)

    intact = [label for label in LABELS if reaches(label)]
    payloads = encode(gen.payload_a, gen.payload_b)
    return {edge: _reference_outcome(
                [label for label in intact if edge not in used[label] or reaches(label, edge)],
                payloads, {})
            for edge in cn.graph.edge_ids}


class _SegmentEnd:
    """Synthetic segment terminal, compared by identity only."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


SRC = _SegmentEnd("<seg-src>")
SNK = _SegmentEnd("<seg-snk>")


def virtual_arc(j: int) -> Arc:
    """The reference's name for virtual arc j: `~src0..2`, then `~snk0..2`."""
    return Arc(f"~src{j}", 0) if j < 3 else Arc(f"~snk{j - 3}", 0)


class ReferenceSegment(NamedTuple):
    index: int
    seg_type: SegmentType
    entry_arcs: tuple
    exit_arcs: tuple
    arcs: tuple      # `sorted_ids` order of the `Arc`s, virtual ones included
    tails: dict      # arc -> interior node or SRC
    heads: dict      # arc -> interior node or SNK


def reference_segments(conditioned) -> list:
    """The segments of a conditioned network as dict-keyed local graphs on
    `Arc`s, cut straight from the network's edges and the chain parts.  A
    run of consecutive pieces bounded by 3-arc cuts on both sides is one
    type-I segment, named by its first piece."""
    cn = conditioned.network
    chain = conditioned.chain
    s, t = cn.source, cn.target
    parts = chain_parts(chain, cn.graph)
    k = chain.k

    pieces = []
    if parts[0] != frozenset((s,)):
        pieces.append(0)
    pieces.extend(range(1, k))
    if parts[k] != frozenset((t,)) or not pieces:
        pieces.append(k)

    def kind(c):  # cut c; cuts 0 and k + 1 are the virtual 3-arc boundaries
        return CutKind.THREE_ARC if c in (0, k + 1) else chain.kinds[c - 1]

    # group[p]: the first piece of the segment that holds part p
    group = list(range(k + 1))
    for i in pieces:
        if i - 1 in pieces and kind(i - 1) is kind(i) is kind(i + 1) is CutKind.THREE_ARC:
            group[i] = group[i - 1]
    last = {group[i]: i for i in pieces}  # first piece -> last piece
    part = {v: group[i] for i, nodes in enumerate(parts) for v in nodes}

    entry = {i: [] for i in last}
    exit_ = {i: [] for i in last}
    interior = {i: [] for i in last}
    ends = {}
    for eid, tail, head in cn.graph.edges():
        for arc in (Arc(eid, c) for c in range(cn.coding_cap[eid])):
            ends[arc] = (tail, head)
            a, b = part[tail], part[head]
            if a == b:
                if a in last:
                    interior[a].append(arc)
                continue
            for i in sorted({group[p] for p in range(a, b + 1)} & last.keys()):
                if i != b:
                    exit_[i].append(arc)
                if i != a:
                    entry[i].append(arc)

    segments = []
    for i, end in last.items():
        tails = {}
        heads = {}
        ent = sorted_ids(set(entry[i]))
        exit_set = set(exit_[i])
        exi = sorted_ids(exit_set)
        for arc in ent:
            tails[arc] = SRC
            heads[arc] = SNK if arc in exit_set else ends[arc][1]
        for arc in exi:
            heads[arc] = SNK
            tails.setdefault(arc, ends[arc][0])
        for arc in interior[i]:
            tails[arc], heads[arc] = ends[arc]
        if i == 0:
            ent = [virtual_arc(j) for j in range(3)]
            for arc in ent:
                tails[arc] = SRC
                heads[arc] = s
        if end == k:
            exi = [virtual_arc(j) for j in range(3, 6)]
            for arc in exi:
                tails[arc] = t
                heads[arc] = SNK
        seg_type = {(CutKind.THREE_ARC, CutKind.THREE_ARC): SegmentType.I,
                    (CutKind.TWO_EDGE, CutKind.TWO_EDGE): SegmentType.II,
                    (CutKind.TWO_EDGE, CutKind.THREE_ARC): SegmentType.III,
                    (CutKind.THREE_ARC, CutKind.TWO_EDGE): SegmentType.IV,
                    }[(kind(i), kind(end + 1))]
        segments.append(ReferenceSegment(i, seg_type, tuple(ent), tuple(exi),
                                         tuple(sorted_ids(tails)), tails, heads))
    return segments


def _local_digraph(arcs, tails, heads):
    """The segment as a graph on ints: edge i is `arcs[i]`, node 0 is SRC,
    node 1 is SNK, and interior nodes follow in order of first appearance.
    Edge order is `arcs` order, so flows tie-break as on the arcs."""
    node = {SRC: 0, SNK: 1}
    edges = [(i, node.setdefault(tails[arc], len(node)), node.setdefault(heads[arc], len(node)))
             for i, arc in enumerate(arcs)]
    return Digraph(range(len(node)), edges)


def _path_nodes(path, tails, heads):
    nodes = []
    for arc in path:
        nodes.append(tails[arc])
    if path:
        nodes.append(heads[path[-1]])
    return nodes


def _find_path(arc_set, tails, heads, src, dst):
    """BFS path from src to dst using only arcs in `arc_set`."""
    out = {}
    for arc in sorted_ids(arc_set):
        out.setdefault(tails[arc], []).append((arc, heads[arc]))
    parent = reach(out, src)
    if dst not in parent:
        return None
    path = []
    v = dst
    while parent[v] is not None:
        arc = parent[v]
        path.append(arc)
        v = tails[arc]
    path.reverse()
    return path


def _solve_merge(seg_arcs, tails, heads):
    """Type III construction on a segment's own graph.  Returns (sets,
    merger node)."""
    local = _local_digraph(seg_arcs, tails, heads)
    flow = max_flow(local, dict.fromkeys(local.edge_ids, 1), 0, 1)
    if flow.value != 3:
        raise SegmentInfeasible(f"segment flow is {flow.value}, expected 3")
    paths = [[seg_arcs[i] for i in p] for p, _ in decompose_flow_to_paths(local, flow, 0, 1)]

    by_edge = {}
    for p in paths:
        by_edge.setdefault(p[0].edge, []).append(p)
    counts = sorted(by_edge, key=lambda e: (len(by_edge[e]), order_key(e)))
    if len(counts) != 2 or len(by_edge[counts[0]]) != 1 or len(by_edge[counts[1]]) != 2:
        raise SegmentInfeasible("entry arcs are not split 2+1 over two edges")
    g_edge, f_edge = counts
    p1, p2 = by_edge[f_edge]
    p3 = by_edge[g_edge][0]
    g_used = p3[0]
    g_other = next(arc for arc in seg_arcs
                   if arc.edge == g_edge and arc != g_used and tails[arc] is SRC)
    v = heads[g_used]
    if v is SNK:
        raise SegmentInfeasible("capacity-2 entry edge crosses the exit cut")
    tail_path = p3[1:]

    nodes1 = set(_path_nodes(p1, tails, heads)) - {SRC, SNK}
    nodes2 = set(_path_nodes(p2, tails, heads)) - {SRC, SNK}
    blocked = set(p1) | set(p2) | set(p3) | {g_other}
    walk = []
    if v not in nodes1 and v not in nodes2:
        tail_arcs = set(tail_path)
        fwd = {}
        bwd = {}
        for arc in seg_arcs:
            if arc in tail_arcs:
                bwd.setdefault(heads[arc], []).append(arc)
            elif arc not in blocked:
                fwd.setdefault(tails[arc], []).append(arc)
        parent = {v: None}
        frontier = [v]
        hit = None
        while frontier and hit is None:
            nxt = []
            hits = []
            for u in frontier:
                moves = [(arc, False) for arc in fwd.get(u, ())]
                moves += [(arc, True) for arc in bwd.get(u, ())]
                moves.sort(key=lambda m: (order_key(m[0]), m[1]))
                for arc, back in moves:
                    w = tails[arc] if back else heads[arc]
                    if w in parent or w is SNK or w is SRC:
                        continue
                    parent[w] = (arc, back, u)
                    if w in nodes1 or w in nodes2:
                        hits.append(w)
                    else:
                        nxt.append(w)
            if hits:
                hits.sort(key=lambda w: (w not in nodes2, order_key(w)))
                hit = hits[0]
            frontier = nxt
        if hit is None:
            raise SegmentInfeasible("no augmenting walk reaches the first two paths")
        w = hit
        while parent[w] is not None:
            arc, back, u = parent[w]
            walk.append((arc, back))
            w = u
        walk.reverse()
        m = hit
    else:
        m = v
    mpath, other = (p2, p1) if m in nodes2 else (p1, p2)

    regrown = set(tail_path)
    for arc, back in walk:
        if back:
            regrown.discard(arc)
        else:
            regrown.add(arc)
    q_exit = _find_path(regrown, tails, heads, v, SNK)
    if q_exit is None:
        raise SegmentInfeasible("regrown flow lost its exit path")
    q_merge = _find_path(regrown - set(q_exit), tails, heads, v, m)
    if q_merge is None and v != m:
        raise SegmentInfeasible("regrown flow lost its merger path")
    q_merge = q_merge or []

    e1 = frozenset(mpath) | {g_other} | frozenset(q_merge)
    e2 = frozenset(other)
    e3 = frozenset({g_used}) | frozenset(q_exit)
    return (e1, e2, e3), m


def _reverse_maps(seg: ReferenceSegment):
    tails = {}
    heads = {}
    swap = {SRC: SNK, SNK: SRC}
    for arc in seg.arcs:
        t0 = seg.tails[arc]
        h0 = seg.heads[arc]
        tails[arc] = swap.get(h0, h0)
        heads[arc] = swap.get(t0, t0)
    return tails, heads


def reference_solve_segment(seg: ReferenceSegment) -> tuple:
    """The per-segment `Digraph` solver: `max_flow` and the path peel on the
    segment's own small graph.  Returns (three frozensets of `Arc`s, the
    dominant one first for types II-IV; the merger node of type III or the
    splitter node of type IV, else None)."""
    if seg.seg_type in (SegmentType.I, SegmentType.II):
        want = 3 if seg.seg_type is SegmentType.I else 4
        local = _local_digraph(seg.arcs, seg.tails, seg.heads)
        try:
            paths = [[seg.arcs[i] for i in p] for p in edge_disjoint_paths(local, 0, 1, want)]
        except InsufficientPaths as exc:
            raise SegmentInfeasible(f"type {seg.seg_type.value} segment has only "
                                    f"{exc.found} paths") from exc
        if want == 3:
            return tuple(frozenset(p) for p in paths), None
        for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            union = paths[a] + paths[b]
            edges = [arc.edge for arc in union]
            if len(set(edges)) != len(edges):
                continue
            rest = [paths[i] for i in range(4) if i not in (a, b)]
            sets = (frozenset(union), frozenset(rest[0]), frozenset(rest[1]))
            return sets, None
        raise SegmentInfeasible("no valid dominant pair among the four paths")

    if seg.seg_type is SegmentType.III:
        return _solve_merge(seg.arcs, seg.tails, seg.heads)
    tails, heads = _reverse_maps(seg)
    return _solve_merge(seg.arcs, tails, heads)


def reference_digraph(nodes, edges) -> Digraph:
    """The per-edge `Digraph` constructor that the column build replaced:
    nodes deduplicated through a set, each edge row checked and stored as
    it is read, then the edges reordered through an id-keyed dict and each
    move appended to its node's list."""
    nodes_sorted = tuple(sorted_ids(set(nodes)))
    index = {v: i for i, v in enumerate(nodes_sorted)}
    ends = {}
    for eid, tail, head in edges:
        if eid in ends:
            raise ValueError(f"duplicate edge id {eid!r}")
        if tail == head:
            raise ValueError(f"self-loop rejected on edge {eid!r}")
        if tail not in index or head not in index:
            raise UnknownNode(tail if tail not in index else head)
        ends[eid] = (tail, head)
    edge_ids = tuple(sorted_ids(ends))
    pairs = list(map(ends.__getitem__, edge_ids))
    ends.update(zip(edge_ids, range(len(edge_ids))))  # now the edge index
    tails = [index[tail] for tail, _ in pairs]
    heads = [index[head] for _, head in pairs]
    moves = [[] for _ in nodes_sorted]
    for e, (u, v) in enumerate(zip(tails, heads)):
        moves[u].append(2 * e)
        moves[v].append(2 * e + 1)
    end = [0] * (2 * len(tails))
    end[::2] = heads
    end[1::2] = tails
    g = Digraph.__new__(Digraph)
    g._nodes_sorted, g._index, g._edge_ids, g._edge_index = nodes_sorted, index, edge_ids, ends
    g._tail, g._head, g._end, g._moves = tails, heads, end, moves
    return g


def reference_auxiliary(cn: CodingNetwork) -> tuple:
    """(arcs, arcs_at, tail, head) of `AuxiliaryGraph(cn)` as the per-edge
    loop built them: each edge's copies appended, in edge order, to the arc
    list and to both of its ends' lists."""
    g = cn.graph
    n, m = len(g.nodes_sorted), len(g.edge_ids)
    s, t = g._index[cn.source], g._index[cn.target]
    tail = [0] * (2 * m) + [n] * 6 + [t] * 6
    tail[:2 * m:2] = tail[1:2 * m:2] = g._tail
    head = [0] * (2 * m) + [s] * 6 + [n + 1] * 6
    head[:2 * m:2] = head[1:2 * m:2] = g._head
    arcs = []
    arcs_at = [[] for _ in range(n + 2)]
    for e, cap in enumerate(map(cn.coding_cap.__getitem__, g.edge_ids)):
        for a in range(2 * e, 2 * e + cap):
            arcs.append(a)
            arcs_at[tail[a]].append(a)
            arcs_at[head[a]].append(a)
    arcs_at[s] += (2 * m, 2 * m + 2, 2 * m + 4)
    arcs_at[t] += (2 * m + 6, 2 * m + 8, 2 * m + 10)
    return tuple(arcs), arcs_at, tail, head
