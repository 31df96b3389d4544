"""Split a conditioned network into segments between consecutive minimum
cuts, solve each segment locally, and glue the local arc sets into three
global subflows.

Each edge of capacity c contributes c parallel arcs to an auxiliary graph;
the subflows are arc sets there.  A segment lives between two consecutive
chain cuts: every node outside its part stands for the segment's source side
when an arc leaves it and for its sink side when an arc enters it.  Four
shapes occur, keyed by the bounding cut kinds:

* I   (3-arc / 3-arc): three arc-disjoint terminal paths.
* II  (2-edge / 2-edge): four arc-disjoint paths; one pair whose union never
  holds both copies of a capacity-2 edge becomes the dominant set.
* III (2-edge / 3-arc): two paths enter through one capacity-2 edge; the
  third path's tail is regrown by one augmenting step to a merger node on one
  of the first two paths, yielding a dominant set that crosses the entry cut
  on both edges.
* IV  (3-arc / 2-edge): type III on the arc-reversed segment.

When the first cut is bigger than {s} (or the last smaller than V minus t)
the stretch between the real terminal and the outermost cut behaves exactly
like a segment whose outer boundary is a synthetic 3-arc cut; three virtual
unit arcs represent it and are stripped after gluing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import count

from .conditioning import (CodingNetwork, ConditionedNetwork, Feasibility,
                           FeasibilityKind, Network, classify_feasibility,
                           condition_network, derive_coding_capacities)
from .cutchain import CutKind
from .errors import (BrokenChain, GlueMismatch, SegmentInfeasible, Unprotectable,
                     VerificationFailed)
# unused `max_flow` stays bound: perfbench's tracer tests look it up here
from .graph import edge_disjoint_paths, max_flow, order_key, reach  # noqa: F401
from .plan import LABELS, Arc, NodeRole, RecoveryPlan, Role


class AuxiliaryGraph:
    """The network with every edge replaced by `coding_cap` parallel unit
    arcs, as ints over the graph's interned edges.

    Arc 2·e + c is copy c of edge e, so ascending arcs are ascending (edge
    id, copy) and swapping the copies of an edge is `a ^ 1`.  Arcs 2·(E + j)
    for j < 6 lie outside that range and are virtual: three from a
    pseudo-source (node n) into s, then three from t into a pseudo-sink
    (node n + 1).

    `tail[a]` and `head[a]` are node indices and `arcs_at[v]` lists the arcs
    touching node v in ascending order.  `extract_segments` sets `part[v]`,
    v's chain part (-1 and k + 1 for the pseudo nodes).  `seen`, `via` and
    `flow` are scratch arrays that segment solves share: an entry counts only
    while it holds the current stamp, so no solve clears them.
    """

    __slots__ = ("graph", "arcs", "source_arcs", "sink_arcs", "tail", "head",
                 "arcs_at", "part", "seen", "via", "flow", "stamps")

    def __init__(self, cn: CodingNetwork):
        g = self.graph = cn.graph
        n, m = len(g.nodes_sorted), len(g.edge_ids)
        s, t = g._index[cn.source], g._index[cn.target]
        self.source_arcs = (2 * m, 2 * m + 2, 2 * m + 4)
        self.sink_arcs = (2 * m + 6, 2 * m + 8, 2 * m + 10)
        # each virtual arc has an unused odd slot after it
        tail = self.tail = [0] * (2 * m) + [n] * 6 + [t] * 6
        tail[:2 * m:2] = tail[1:2 * m:2] = g._tail
        head = self.head = [0] * (2 * m) + [s] * 6 + [n + 1] * 6
        head[:2 * m:2] = head[1:2 * m:2] = g._head
        arcs = []
        arcs_at = self.arcs_at = [[] for _ in range(n + 2)]
        for e, cap in enumerate(map(cn.coding_cap.__getitem__, g.edge_ids)):
            for a in range(2 * e, 2 * e + cap):
                arcs.append(a)
                arcs_at[tail[a]].append(a)
                arcs_at[head[a]].append(a)
        arcs_at[s] += self.source_arcs
        arcs_at[t] += self.sink_arcs
        self.arcs = tuple(arcs)
        self.part = None
        self.seen = [0] * (n + 2)
        self.via = [0] * (n + 2)
        self.flow = [0] * len(tail)
        self.stamps = count(1)

    def __len__(self):
        return len(self.arcs)

    def arc(self, a) -> Arc:
        return Arc(self.graph.edge_ids[a >> 1], a & 1)


def build_auxiliary(cn: CodingNetwork) -> AuxiliaryGraph:
    return AuxiliaryGraph(cn)


class SegmentType(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


_TYPE_BY_KINDS = {
    (CutKind.THREE_ARC, CutKind.THREE_ARC): SegmentType.I,
    (CutKind.TWO_EDGE, CutKind.TWO_EDGE): SegmentType.II,
    (CutKind.TWO_EDGE, CutKind.THREE_ARC): SegmentType.III,
    (CutKind.THREE_ARC, CutKind.TWO_EDGE): SegmentType.IV,
}


@dataclass(frozen=True)
class Segment:
    """Chain part `index` of `aux` with its arcs, as ascending arc ints."""

    index: int
    entry_kind: CutKind
    exit_kind: CutKind
    seg_type: SegmentType
    interior: frozenset
    entry_arcs: tuple
    exit_arcs: tuple
    arcs: tuple
    aux: AuxiliaryGraph = field(repr=False, compare=False)


@dataclass(frozen=True)
class SegmentSolution:
    sets: tuple               # three frozensets of arc ints
    dominant: int | None      # index of the set crossing 2-edge cuts twice
    merger: object = None     # type III/IV junction node, if any
    splitter: object = None


def extract_segments(conditioned: ConditionedNetwork, aux: AuxiliaryGraph) -> list:
    """Cut the auxiliary graph along the chain.  Returns the k-1 segments
    between consecutive cuts, preceded/followed by a virtual-boundary segment
    whenever nodes sit before the first or after the last cut.  Records
    each node's chain part in `aux.part`."""
    chain = conditioned.chain
    parts = chain.parts
    k = chain.k
    index = aux.graph._index
    part = [0] * len(aux.arcs_at)
    for i, nodes in enumerate(parts):
        for v in nodes:
            part[index[v]] = i
    part[-2], part[-1] = -1, k + 1
    aux.part = part

    pieces = []
    if parts[0] != frozenset((conditioned.network.source,)):
        pieces.append(0)
    pieces.extend(range(1, k))
    if parts[k] != frozenset((conditioned.network.target,)) or not pieces:
        pieces.append(k)

    arcs = [[] for _ in parts]
    entry = [[] for _ in parts]
    exit_ = [[] for _ in parts]
    tail, head = aux.tail, aux.head
    for a in aux.arcs:
        i, j = part[tail[a]], part[head[a]]
        if i > j:
            raise BrokenChain(f"arc {aux.arc(a)} crosses the cut chain backward")
        for x in range(i, j + 1):
            arcs[x].append(a)
            if x > i:
                entry[x].append(a)
            if x < j:
                exit_[x].append(a)
    entry[0] = aux.source_arcs
    arcs[0] += aux.source_arcs
    exit_[k] = aux.sink_arcs
    arcs[k] += aux.sink_arcs

    segments = []
    for i in pieces:
        entry_kind = chain.kinds[i - 1] if i else CutKind.THREE_ARC
        exit_kind = chain.kinds[i] if i < k else CutKind.THREE_ARC
        segments.append(Segment(i, entry_kind, exit_kind,
                                _TYPE_BY_KINDS[(entry_kind, exit_kind)], parts[i],
                                tuple(entry[i]), tuple(exit_[i]), tuple(arcs[i]), aux))
    return segments


def _paths(seg, entry, tail, head, limit=None):
    """Up to `limit` arc-disjoint source-sink paths of a segment entered by
    `entry` and oriented by `tail` and `head` (swapped for type IV), as
    `edge_disjoint_paths` finds them: unit-capacity BFS augmenting paths
    with the moves at each node tried lowest arc first, then a peel that
    takes the lowest flow-carrying arc out of each node."""
    aux = seg.aux
    piece, part, arcs_at, seen, via, flow = (
        seg.index, aux.part, aux.arcs_at, aux.seen, aux.via, aux.flow)
    mark = next(aux.stamps)  # flow[a] == mark: arc a carries flow
    found = 0
    while found != limit:
        visit = next(aux.stamps)
        last = None  # the arc that reaches the sink
        queue = []
        for a in entry:
            if flow[a] == mark:
                continue
            v = head[a]
            if part[v] != piece:
                last = a
                break
            if seen[v] != visit:
                seen[v] = visit
                via[v] = a
                queue.append(v)
        else:
            for u in queue:
                for a in arcs_at[u]:
                    if tail[a] == u:
                        if flow[a] == mark:
                            continue
                        v = head[a]
                        if part[v] != piece:
                            last = a
                            break
                    elif flow[a] != mark or part[v := tail[a]] != piece:
                        continue
                    if seen[v] != visit:
                        seen[v] = visit
                        via[v] = a
                        queue.append(v)
                if last is not None:
                    break
        if last is None:
            break
        flow[last] = mark
        v = tail[last]
        while part[v] == piece:
            a = via[v]
            forward = head[a] == v
            flow[a] = mark if forward else 0
            v = tail[a] if forward else head[a]
        found += 1

    # Conditioning leaves every edge on an acyclic flow, so the graph is a
    # DAG and no walk meets a node twice.  Unmarking each arc as it is taken
    # keeps a walk finite even if that ever failed.
    paths = []
    for first in entry:
        if flow[first] != mark:
            continue
        flow[first] = 0
        path = [first]
        v = head[first]
        while part[v] == piece:
            for a in arcs_at[v]:
                if tail[a] == v and flow[a] == mark:
                    break
            else:
                raise AssertionError("flow conservation violated during peel")
            flow[a] = 0
            path.append(a)
            v = head[a]
        paths.append(path)
    return paths


_SINK = -1  # every node behind the segment's exit, in `_find_path`


def _find_path(seg, arcs, tail, head, src, dst):
    """BFS path from src to dst using only `arcs`, lowest arc first."""
    piece, part = seg.index, seg.aux.part
    out = {}
    for a in sorted(arcs):
        w = head[a]
        out.setdefault(tail[a], []).append((a, w if part[w] == piece else _SINK))
    parent = reach(out, src)
    if dst not in parent:
        return None
    path = []
    while parent[dst] is not None:
        path.append(parent[dst])
        dst = tail[parent[dst]]
    path.reverse()
    return path


def _merge(seg, entry, tail, head):
    """Type III construction: entry is a 2-edge cut (four arcs over edges f
    and g), exit side is anything reachable from the merger walk.

    Returns (sets, merger node index).
    """
    piece, part = seg.index, seg.aux.part
    paths = _paths(seg, entry, tail, head)
    if len(paths) != 3:
        raise SegmentInfeasible(f"segment flow is {len(paths)}, expected 3")
    by_edge = {}
    for p in paths:
        by_edge.setdefault(p[0] >> 1, []).append(p)
    counts = sorted(by_edge, key=lambda e: (len(by_edge[e]), e))
    if len(counts) != 2 or len(by_edge[counts[0]]) != 1 or len(by_edge[counts[1]]) != 2:
        raise SegmentInfeasible("entry arcs are not split 2+1 over two edges")
    g_edge, f_edge = counts
    p1, p2 = by_edge[f_edge]
    p3 = by_edge[g_edge][0]
    g_used = p3[0]
    g_other = g_used ^ 1
    if g_other not in entry:
        raise SegmentInfeasible("capacity-2 entry edge enters on one copy only")
    v = head[g_used]
    if part[v] != piece:
        raise SegmentInfeasible("capacity-2 entry edge crosses the exit cut")
    tail_arcs = set(p3[1:])

    nodes1 = {tail[a] for a in p1[1:]}
    nodes2 = {tail[a] for a in p2[1:]}
    m = v
    walk = []
    if v not in nodes1 and v not in nodes2:
        # One augmenting step: forward on fresh arcs, backward along the tail
        # path, stopping at the first node touched by p1 or p2.
        blocked = tail_arcs.union(p1, p2, (g_used, g_other))
        arcs_at = seg.aux.arcs_at
        parent = {v: None}
        frontier = [v]
        hit = None
        while frontier and hit is None:
            nxt = []
            hits = []
            for u in frontier:
                for a in arcs_at[u]:
                    if tail[a] == u:
                        if a in blocked:
                            continue
                        w = head[a]
                    elif a in tail_arcs:
                        w = tail[a]
                    else:
                        continue
                    if w in parent or part[w] != piece:
                        continue
                    parent[w] = a
                    if w in nodes1 or w in nodes2:
                        hits.append(w)
                    else:
                        nxt.append(w)
            if hits:
                hit = min(hits, key=lambda w: (w not in nodes2, w))
            frontier = nxt
        if hit is None:
            raise SegmentInfeasible("no augmenting walk reaches the first two paths")
        m = w = hit
        while parent[w] is not None:
            a = parent[w]
            walk.append(a)
            w = head[a] if a in tail_arcs else tail[a]
    mpath, other = (p2, p1) if m in nodes2 else (p1, p2)

    regrown = tail_arcs.symmetric_difference(walk)
    q_exit = _find_path(seg, regrown, tail, head, v, _SINK)
    if q_exit is None:
        raise SegmentInfeasible("regrown flow lost its exit path")
    q_merge = _find_path(seg, regrown.difference(q_exit), tail, head, v, m)
    if q_merge is None:
        raise SegmentInfeasible("regrown flow lost its merger path")

    e1 = frozenset(mpath).union((g_other,), q_merge)
    e2 = frozenset(other)
    e3 = frozenset(q_exit).union((g_used,))
    return (e1, e2, e3), m


def solve_segment(seg: Segment) -> SegmentSolution:
    """Three arc-disjoint terminal-connecting sets for one segment."""
    aux = seg.aux
    if seg.seg_type in (SegmentType.I, SegmentType.II):
        want = 3 if seg.seg_type is SegmentType.I else 4
        paths = _paths(seg, seg.entry_arcs, aux.tail, aux.head, want)
        if len(paths) < want:
            raise SegmentInfeasible(f"type {seg.seg_type.value} segment has only "
                                    f"{len(paths)} paths")
        if want == 3:
            return SegmentSolution(sets=tuple(map(frozenset, paths)), dominant=None)
        for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            union = paths[a] + paths[b]
            edges = {arc >> 1 for arc in union}
            if len(edges) != len(union):
                continue  # pair holds both copies of one capacity-2 edge
            rest = [paths[i] for i in range(4) if i not in (a, b)]
            sets = (frozenset(union), frozenset(rest[0]), frozenset(rest[1]))
            return SegmentSolution(sets=sets, dominant=0)
        raise SegmentInfeasible("no valid dominant pair among the four paths")

    if seg.seg_type is SegmentType.III:
        sets, m = _merge(seg, seg.entry_arcs, aux.tail, aux.head)
        return SegmentSolution(sets=sets, dominant=0, merger=aux.graph.nodes_sorted[m])

    # Type IV: run the merge construction on the reversed segment.
    sets, m = _merge(seg, seg.exit_arcs, aux.head, aux.tail)
    return SegmentSolution(sets=sets, dominant=0, splitter=aux.graph.nodes_sorted[m])


def glue_segments(segments: list, solutions: list):
    """Join local solutions along shared boundary arcs.

    At a 3-arc boundary the three crossing arcs pair the sets one to one.  At
    a 2-edge boundary the copy indices of the next segment are renamed (the
    two copies of an edge are interchangeable) so that its dominant set enters
    exactly where the previous dominant exited.

    Returns (three global sets of `Arc`s, index of the globally dominant set
    or None) with virtual boundary arcs already stripped.
    """
    global_sets = [set(), set(), set()]
    dominant_global = None
    prev_owner = None  # exit arc of the previous segment -> its global set

    for seg, sol in zip(segments, solutions):
        local = sol.sets
        if prev_owner is not None:
            boundary = seg.entry_arcs
            if boundary != prev_exit:
                raise GlueMismatch(f"boundary arcs disagree at segment {seg.index}")
            if seg.entry_kind is CutKind.TWO_EDGE:
                dom_owner = _two_edge_dominant_owner(prev_owner)
                if sol.dominant is None:
                    raise GlueMismatch("2-edge boundary without a dominant set")
                flip = {a >> 1 for a in local[sol.dominant].intersection(boundary)
                        if prev_owner[a] != dom_owner}
                if flip:
                    local = [frozenset(a ^ 1 if a >> 1 in flip else a for a in s)
                             for s in local]
        where = {a: li for li, arcs in enumerate(local) for a in arcs}  # arc -> its set
        if prev_owner is None:
            mapping = [0, 1, 2]
        else:
            mapping = [None, None, None]
            for a in boundary:
                li = where.get(a)
                if li is None:
                    continue
                if mapping[li] is None:
                    mapping[li] = prev_owner[a]
                elif mapping[li] != prev_owner[a]:
                    raise GlueMismatch(f"set {li} of segment {seg.index} enters on arcs "
                                       f"owned by more than one global set")
            if None in mapping:
                raise GlueMismatch(f"set {mapping.index(None)} of segment {seg.index} "
                                   f"does not enter through the boundary")
            if len(set(mapping)) != 3:
                raise GlueMismatch(f"label matching at segment {seg.index} "
                                   f"is not a bijection")

        for arcs, owner in zip(local, mapping):
            global_sets[owner] |= arcs
        if sol.dominant is not None and dominant_global is None:
            dominant_global = mapping[sol.dominant]

        prev_exit = seg.exit_arcs
        if not all(map(where.__contains__, prev_exit)):
            raise GlueMismatch(f"segment {seg.index} leaves exit arcs unused")
        prev_owner = {a: mapping[where[a]] for a in prev_exit}

    edge_ids = segments[0].aux.graph.edge_ids if segments else ()
    real = 2 * len(edge_ids)
    stripped = [frozenset(Arc(edge_ids[a >> 1], a & 1) for a in s if a < real)
                for s in global_sets]
    return stripped, dominant_global


def _two_edge_dominant_owner(prev_owner):
    doms = [o for o, c in Counter(prev_owner.values()).items() if c == 2]
    if len(doms) != 1:
        raise GlueMismatch("previous segment does not cross the 2-edge cut 2+1+1")
    return doms[0]


def assign_roles(cn: CodingNetwork, sets: list, dominant: int | None,
                 feasibility: Feasibility) -> RecoveryPlan:
    """Label the sets (the dominant one carries the XOR stream) and mark every
    in-set branch point as splitter, every in-set join as merger."""
    order = [i for i in range(3) if i != dominant]
    if dominant is None:
        labeled = dict(zip(LABELS, sets))
    else:
        labeled = {"A": sets[order[0]], "B": sets[order[1]], "XOR": sets[dominant]}

    roles = []
    for label in LABELS:
        out_deg = {}
        in_deg = {}
        for arc in labeled[label]:
            tail, head = cn.graph.ends(arc.edge)
            out_deg[tail] = out_deg.get(tail, 0) + 1
            in_deg[head] = in_deg.get(head, 0) + 1
        for node, d in out_deg.items():
            if d >= 2:
                roles.append(NodeRole(node, Role.SPLITTER, label))
        for node, d in in_deg.items():
            if d >= 2:
                roles.append(NodeRole(node, Role.MERGER, label))
    roles.sort(key=lambda r: (order_key(r.node), r.role.value, r.label))
    return RecoveryPlan(subflows={k: frozenset(v) for k, v in labeled.items()},
                        roles=tuple(roles), feasibility=feasibility)


def decompose(net: Network) -> RecoveryPlan:
    """End-to-end pipeline: classify, then either route three edge-disjoint
    paths (plain diversity coding) or condition the network and run the
    segment constructions.  The returned plan carries a fresh verification
    report; a failing report is an internal error, not a result."""
    from .verify import verify_plan  # local import to keep module layering flat

    cn = derive_coding_capacities(net)
    feas = classify_feasibility(cn)
    if feas.kind is FeasibilityKind.DIVERSITY_CODING:
        paths = edge_disjoint_paths(cn.graph, cn.source, cn.target, 3)
        sets = [frozenset(Arc(e, 0) for e in p) for p in paths]
        plan = assign_roles(cn, sets, None, feas)
    elif feas.kind is FeasibilityKind.NETWORK_CODING:
        conditioned = condition_network(cn)
        aux = build_auxiliary(conditioned.network)
        segments = extract_segments(conditioned, aux)
        solutions = [solve_segment(seg) for seg in segments]
        sets, dominant = glue_segments(segments, solutions)
        plan = assign_roles(conditioned.network, sets, dominant, feas)
    else:
        raise Unprotectable(feas)

    report = verify_plan(cn, plan)
    if not report.overall:
        raise VerificationFailed(report)
    return plan.with_verification(report)
