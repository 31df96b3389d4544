"""Split a protectable network into segments between the minimum cuts of its
chain, solve each segment locally, and glue the local arc sets into three
global subflows.  A diversity-coding network is a chain with no cuts over
unit arcs, so one type-I segment.

Each edge of capacity c contributes c parallel arcs to an auxiliary graph;
the subflows are arc sets there.  A segment lives between two chain cuts:
every node outside its part stands for the segment's source side when an arc
leaves it and for its sink side when an arc enters it.  Four shapes occur,
keyed by the bounding cut kinds:

* I   (3-arc / 3-arc): three arc-disjoint terminal paths.  A maximal run of
  type-I pieces is one segment: its cuts are s-t cuts of three arcs or more,
  so by Menger's theorem three arc-disjoint paths cross the whole run, each
  arc of an inner 3-arc cut on exactly one of them; nothing is glued there.
* II  (2-edge / 2-edge): four arc-disjoint paths; one pair whose union never
  holds both copies of a capacity-2 edge becomes the dominant set.
* III (2-edge / 3-arc): two paths enter through one capacity-2 edge; the
  third path's tail is regrown by one augmenting step to a merger node on one
  of the first two paths, yielding a dominant set that crosses the entry cut
  on both edges.
* IV  (3-arc / 2-edge): type III on the arc-reversed segment.

A segment's solution is three arc lists, the dominant set first for types
II-IV; gluing takes them in chain order, as they are made, and labels arcs
in one owner array.

When the first cut is bigger than {s} (or the last smaller than V minus t)
the stretch between the real terminal and the outermost cut behaves exactly
like a segment whose outer boundary is a synthetic 3-arc cut; three virtual
unit arcs represent it and are stripped after gluing.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import count

from .conditioning import (CodingNetwork, Feasibility, FeasibilityKind, Network,
                           classify_feasibility, condition_network,
                           derive_coding_capacities)
from .cutchain import CutChain, CutKind
from .errors import GlueMismatch, SegmentInfeasible, Unprotectable, VerificationFailed
# unused `max_flow` stays bound: perfbench's tracer tests look it up here
from .graph import max_flow, reach  # noqa: F401
from .plan import LABELS, NodeRole, RecoveryPlan, Role, Subflows


class AuxiliaryGraph:
    """The network with every edge replaced by `coding_cap` parallel unit
    arcs, as ints over the graph's interned edges.

    Arc 2·e + c is copy c of edge e, so ascending arcs are ascending (edge
    id, copy) and swapping the copies of an edge is `a ^ 1`.  Arcs 2·(E + j)
    for j < 6 lie outside that range and are virtual: three from a
    pseudo-source (node n) into s, then three from t into a pseudo-sink
    (node n + 1).

    `arcs` lists the real arcs in ascending order, `tail[a]` and `head[a]` are
    node indices and `arcs_at[v]`, read off `g._moves[v]`, lists the arcs
    touching node v in ascending order.  `extract_segments` sets `part[v]`, the
    index of v's segment or chain part (-1 and k + 1 for the pseudo nodes);
    segment boundaries come from the chain's crossing lists.  `seen`, `via`
    and `flow` are scratch arrays that segment solves share: an entry counts
    only while it holds the current stamp, so no solve clears them.
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
        # copy 0 of edge e is both of its moves with the low bit cleared
        arcs_at = self.arcs_at = [[mv & -2 for mv in ms] for ms in g._moves] + [[], []]
        ones = [2 * e + 1 for e, eid in enumerate(g.edge_ids) if cn.coding_cap[eid] == 2]
        for a in ones:  # copy 1 sorts right after copy 0
            insort(arcs_at[tail[a]], a)
            insort(arcs_at[head[a]], a)
        arcs_at[s] += self.source_arcs
        arcs_at[t] += self.sink_arcs
        self.arcs = tuple(sorted([*range(0, 2 * m, 2), *ones]))
        self.part = None
        self.seen = [0] * (n + 2)
        self.via = [0] * (n + 2)
        self.flow = [0] * len(tail)
        self.stamps = count(1)

    def __len__(self):
        return len(self.arcs)


def build_auxiliary(cn: CodingNetwork) -> AuxiliaryGraph:
    return AuxiliaryGraph(cn)


class SegmentType(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


# [entry cut is 3-arc][exit cut is 3-arc]
_TYPES = ((SegmentType.II, SegmentType.III), (SegmentType.IV, SegmentType.I))


@dataclass(frozen=True)
class Segment:
    """Chain part `index` of `aux`, or the run of type-I parts it starts,
    bounded by the ascending arc ints that cross its entry and exit cuts.
    Consecutive segments share the tuple of the cut between them; its own
    nodes are those `v` with `aux.part[v] == index`."""

    index: int
    seg_type: SegmentType
    entry_arcs: tuple
    exit_arcs: tuple
    aux: AuxiliaryGraph = field(repr=False, compare=False)


def extract_segments(chain: CutChain, aux: AuxiliaryGraph) -> list:
    """Cut the auxiliary graph along the chain.  The pieces are the k-1
    parts between consecutive cuts, preceded/followed by a virtual-boundary
    piece whenever nodes sit before the first or after the last cut.  A
    maximal run of consecutive type-I pieces is one segment, indexed by its
    first piece; each other piece is a segment.  Sets `aux.part[v]` to v's
    chain part, or to its run's first piece.

    Cut c (1 <= c <= k) is crossed by the arcs of the edges in
    `chain.crossing[c - 1]`: both copies of the two edges of a 2-edge cut,
    copy 0 of the three edges of a 3-arc cut.  Cut 0 is the virtual source
    arcs and cut k + 1 the virtual sink arcs.  Piece i enters on cut i and
    exits on cut i + 1, so a chain with no cuts is one type-I segment."""
    k = chain.k
    node_part = chain.node_part

    # part 0 holds s and part k holds t; a part with more nodes is a piece
    pieces = list(range(0 if node_part.count(0) > 1 else 1, k))
    if node_part.count(k) > 1 or not pieces:
        pieces.append(k)

    three = (True, *[kind is CutKind.THREE_ARC for kind in chain.kinds], True)
    rename = list(range(k + 1))
    runs = []  # [index, type, entry cut, exit cut] per segment
    for i in pieces:  # consecutive, so runs[-1] ends at piece i - 1
        if three[i + 1] and runs and runs[-1][1] is SegmentType.I:
            runs[-1][3] = i + 1
            rename[i] = runs[-1][0]
        else:
            runs.append([i, _TYPES[three[i]][three[i + 1]], i, i + 1])
    aux.part = [*map(rename.__getitem__, node_part), -1, k + 1]

    # one arc tuple per boundary cut, shared by the segments on either side
    crossing = {0: aux.source_arcs, k + 1: aux.sink_arcs}
    for c in {runs[0][2], *[run[3] for run in runs]}.difference(crossing):
        if three[c]:
            e, f, g = chain.crossing[c - 1]
            crossing[c] = (2 * e, 2 * f, 2 * g)
        else:
            e, f = chain.crossing[c - 1]
            crossing[c] = (2 * e, 2 * e + 1, 2 * f, 2 * f + 1)
    return [Segment(i, seg_type, crossing[a], crossing[b], aux) for i, seg_type, a, b in runs]


def _paths(seg, entry, tail, head, limit=None):
    """Up to `limit` arc-disjoint source-sink paths of a segment entered by
    `entry` and oriented by `tail` and `head` (swapped for type IV), as
    `edge_disjoint_paths` finds them: unit-capacity BFS augmenting paths
    with the moves at each node tried lowest arc first, then a peel that
    takes the lowest flow-carrying arc out of each node and drops any flow
    cycle it closes."""
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

    # Augmentations keep flow conserved inside the part, so a walk can leave
    # each node it enters, and unmarking arcs as they are taken ends it at
    # the exit.  The diversity-coding segment, unlike a conditioned one, may
    # hold a flow cycle (an antiparallel pair, say): a walk back to a node of
    # its own drops the cycle, as `decompose_flow_to_paths` does.
    paths = []
    for first in entry:
        if flow[first] != mark:
            continue
        flow[first] = 0
        path = [first]
        v = head[first]
        walk = next(aux.stamps)  # seen[v] == walk: v is on the path
        while part[v] == piece:
            seen[v] = walk
            for a in arcs_at[v]:
                if tail[a] == v and flow[a] == mark:
                    break
            else:
                raise AssertionError("flow conservation violated during peel")
            flow[a] = 0
            v = head[a]
            if seen[v] != walk:
                path.append(a)
                continue
            while head[path[-1]] != v:
                seen[head[path.pop()]] = 0
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

    Returns three arc lists, the dominant one first: it joins at the merger
    node.
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

    return mpath + [g_other] + q_merge, other, [g_used] + q_exit


def solve_segment(seg: Segment) -> tuple:
    """Three arc-disjoint terminal-connecting arc lists for one segment; for
    types II-IV the dominant set comes first."""
    aux = seg.aux
    if seg.seg_type in (SegmentType.I, SegmentType.II):
        want = 3 if seg.seg_type is SegmentType.I else 4
        paths = _paths(seg, seg.entry_arcs, aux.tail, aux.head, want)
        if len(paths) < want:
            raise SegmentInfeasible(f"type {seg.seg_type.value} segment has only "
                                    f"{len(paths)} paths")
        if want == 3:
            return tuple(paths)
        for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            union = paths[a] + paths[b]
            if len({arc >> 1 for arc in union}) == len(union):  # never both copies of an edge
                return (union, *(paths[i] for i in range(4) if i not in (a, b)))
        raise SegmentInfeasible("no valid dominant pair among the four paths")

    if seg.seg_type is SegmentType.III:
        return _merge(seg, seg.entry_arcs, aux.tail, aux.head)
    # Type IV: run the merge construction on the reversed segment.
    return _merge(seg, seg.exit_arcs, aux.head, aux.tail)


def glue_segments(segments, solutions):
    """Join the local solutions of one chain's segments, taken in chain
    order, along their shared boundary arcs.

    `owner[a]` is the global set that holds arc a.  A segment's local sets
    take the owners of the entry arcs they hold.  At a 2-edge boundary the
    copies of the next segment's edges are renamed first (the two copies of
    an edge are interchangeable) so that its dominant set enters exactly
    where the previous dominant exited.

    Returns (three ascending lists of real arc ints over the segments'
    auxiliary graph, index of the globally dominant set or None).
    """
    owner = dominant = None
    for seg, sets in zip(segments, solutions):
        entry = seg.entry_arcs
        if owner is None:
            aux = seg.aux
            owner = [None] * len(aux.tail)
            mapping = [0, 1, 2]
        else:
            entered = [owner[a] for a in entry]
            if None in entered:
                raise GlueMismatch(f"segment {seg.index} enters on arcs no earlier segment holds")
            if seg.seg_type in (SegmentType.II, SegmentType.III):  # a 2-edge entry
                if sorted(map(entered.count, entered)) != [1, 1, 2, 2]:
                    raise GlueMismatch(f"segment {seg.index}'s 2-edge entry is not crossed 2+1+1")
                dom = max(entered, key=entered.count)
                flip = {a >> 1 for a in sets[0] if a in entry and owner[a] != dom}
                sets = [[a ^ 1 if a >> 1 in flip else a for a in arcs] for arcs in sets]
            mapping = []
            for li, arcs in enumerate(sets):
                labels = {owner[a] for a in arcs if a in entry}
                if len(labels) != 1:
                    raise GlueMismatch(f"set {li} of segment {seg.index} enters on arcs "
                                       f"of {len(labels)} global sets, not one")
                mapping += labels
            if len(set(mapping)) != 3:
                raise GlueMismatch(f"label matching at segment {seg.index} is not a bijection")

        for arcs, label in zip(sets, mapping):
            for a in arcs:
                owner[a] = label
        if None in [owner[a] for a in seg.exit_arcs]:
            raise GlueMismatch(f"segment {seg.index} leaves exit arcs unused")
        if dominant is None and seg.seg_type is not SegmentType.I:
            dominant = mapping[0]

    glued = [[], [], []]
    for a in aux.arcs:  # ascending, real arcs only
        if owner[a] is not None:
            glued[owner[a]].append(a)
    return glued, dominant


def assign_roles(cn: CodingNetwork, sets: list, dominant: int | None,
                 feasibility: Feasibility) -> RecoveryPlan:
    """Label the sets of sorted arc ints over `cn.graph` (the dominant one
    carries the XOR stream) and mark every in-set branch point as splitter,
    every in-set join as merger: a node with two or more out-arcs (in-arcs)
    of its label, counted copy by copy by `Digraph.degrees`, the rule
    `verify_plan` checks roles by."""
    order = [i for i in range(3) if i != dominant]
    if dominant is None:
        labeled = dict(zip(LABELS, sets))
    else:
        labeled = {"A": sets[order[0]], "B": sets[order[1]], "XOR": sets[dominant]}

    nodes, index = cn.graph.nodes_sorted, cn.graph._index
    roles = []
    for label in LABELS:
        for role, degree in zip(Role, cn.graph.degrees(labeled[label])):
            roles += [NodeRole(nodes[v], role, label) for v, d in degree.items() if d >= 2]
    roles.sort(key=lambda r: (index[r.node], r.role.value, r.label))  # index order is id order
    return RecoveryPlan(subflows=Subflows(labeled, cn.graph),
                        roles=tuple(roles), feasibility=feasibility)


def decompose(net: Network) -> RecoveryPlan:
    """End-to-end pipeline: classify, then run the segment constructions on
    the conditioned network and its chain, or, for plain diversity coding,
    on unit arcs and a chain with no cuts.  The returned plan carries a fresh
    verification report, made on the graph its arc ints index; a failing
    report is an internal error, not a result."""
    from .verify import verify_plan  # local import to keep module layering flat

    cn = derive_coding_capacities(net)
    feas = classify_feasibility(cn)
    kept = replace(feas, probe=None)  # plans drop the probe: 0.56 MB on an 8k ladder
    if feas.kind is FeasibilityKind.DIVERSITY_CODING:
        network = replace(cn, coding_cap=dict.fromkeys(cn.graph.edge_ids, 1))
        chain = CutChain((), [0] * len(cn.graph.nodes_sorted), [])
    elif feas.kind is FeasibilityKind.NETWORK_CODING:
        conditioned = condition_network(cn, feas.probe)
        network, chain = conditioned.network, conditioned.chain
    else:
        raise Unprotectable(feas)

    aux = build_auxiliary(network)
    segments = extract_segments(chain, aux)
    # each solution is glued, then dropped, as `map` makes it
    sets, dominant = glue_segments(segments, map(solve_segment, segments))
    if aux.graph is not cn.graph:
        # map the pruned copy's edge indices back; `Digraph.subgraph` keeps their order
        back = list(map(cn.graph._edge_index.__getitem__, aux.graph.edge_ids))
        sets = [[2 * back[a >> 1] | a & 1 for a in s] for s in sets]
    plan = assign_roles(cn, sets, dominant, kept)

    report = verify_plan(cn, plan)
    if not report.overall:
        raise VerificationFailed(report)
    return plan.with_verification(report)
