"""Brute-force and reference computations for small instances."""

from collections import deque
from itertools import combinations, product
from typing import NamedTuple

from triflow import (Arc, CodingNetwork, CutChain, CutKind, Digraph, SegmentSolution,
                     SegmentType, decode, decompose_flow_to_paths, edge_disjoint_paths,
                     encode, max_flow)
from triflow.errors import InsufficientPaths, SegmentInfeasible, UnknownNode, UnverifiedPlan
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
    `Arc`s, cut straight from the network's edges and the chain parts."""
    cn = conditioned.network
    chain = conditioned.chain
    s, t = cn.source, cn.target
    parts = chain.parts
    k = chain.k
    part_of = chain.part_of()

    pieces = []
    if parts[0] != frozenset((s,)):
        pieces.append(0)
    pieces.extend(range(1, k))
    if parts[k] != frozenset((t,)) or not pieces:
        pieces.append(k)
    piece_set = set(pieces)

    entry = {i: [] for i in pieces}
    exit_ = {i: [] for i in pieces}
    interior = {i: [] for i in pieces}
    ends = {}
    for eid, tail, head in cn.graph.edges():
        for arc in (Arc(eid, c) for c in range(cn.coding_cap[eid])):
            ends[arc] = (tail, head)
            a, b = part_of[tail], part_of[head]
            if a == b:
                if a in piece_set:
                    interior[a].append(arc)
                continue
            for i in range(a, b + 1):
                if i not in piece_set:
                    continue
                if i != b:
                    exit_[i].append(arc)
                if i != a:
                    entry[i].append(arc)

    segments = []
    for i in pieces:
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
            entry_kind = CutKind.THREE_ARC
        else:
            entry_kind = chain.kinds[i - 1]
        if i == k:
            exi = [virtual_arc(j) for j in range(3, 6)]
            for arc in exi:
                tails[arc] = t
                heads[arc] = SNK
            exit_kind = CutKind.THREE_ARC
        else:
            exit_kind = chain.kinds[i]
        seg_type = {(CutKind.THREE_ARC, CutKind.THREE_ARC): SegmentType.I,
                    (CutKind.TWO_EDGE, CutKind.TWO_EDGE): SegmentType.II,
                    (CutKind.TWO_EDGE, CutKind.THREE_ARC): SegmentType.III,
                    (CutKind.THREE_ARC, CutKind.TWO_EDGE): SegmentType.IV,
                    }[(entry_kind, exit_kind)]
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


def reference_solve_segment(seg: ReferenceSegment) -> SegmentSolution:
    """The per-segment `Digraph` solver: `max_flow` and the path peel on the
    segment's own small graph, sets of `Arc`s."""
    if seg.seg_type in (SegmentType.I, SegmentType.II):
        want = 3 if seg.seg_type is SegmentType.I else 4
        local = _local_digraph(seg.arcs, seg.tails, seg.heads)
        try:
            paths = [[seg.arcs[i] for i in p] for p in edge_disjoint_paths(local, 0, 1, want)]
        except InsufficientPaths as exc:
            raise SegmentInfeasible(f"type {seg.seg_type.value} segment has only "
                                    f"{exc.found} paths") from exc
        if want == 3:
            return SegmentSolution(sets=tuple(frozenset(p) for p in paths), dominant=None)
        for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            union = paths[a] + paths[b]
            edges = [arc.edge for arc in union]
            if len(set(edges)) != len(edges):
                continue
            rest = [paths[i] for i in range(4) if i not in (a, b)]
            sets = (frozenset(union), frozenset(rest[0]), frozenset(rest[1]))
            return SegmentSolution(sets=sets, dominant=0)
        raise SegmentInfeasible("no valid dominant pair among the four paths")

    if seg.seg_type is SegmentType.III:
        sets, m = _solve_merge(seg.arcs, seg.tails, seg.heads)
        return SegmentSolution(sets=sets, dominant=0, merger=m)
    tails, heads = _reverse_maps(seg)
    sets, m = _solve_merge(seg.arcs, tails, heads)
    return SegmentSolution(sets=sets, dominant=0, splitter=m)
