"""Split a conditioned network into segments between consecutive minimum
cuts, solve each segment locally, and glue the local arc sets into three
global subflows.

Each edge of capacity c contributes c parallel arcs to an auxiliary graph;
the subflows are arc sets there.  A segment lives between two consecutive
chain cuts, with crossing arcs re-rooted on synthetic terminals.  Four shapes
occur, keyed by the bounding cut kinds:

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

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .conditioning import (CodingNetwork, ConditionedNetwork, Feasibility,
                           FeasibilityKind, Network, classify_feasibility,
                           condition_network, derive_coding_capacities)
from .cutchain import CutKind
from .errors import (GlueMismatch, InsufficientPaths, SegmentInfeasible,
                     Unprotectable, VerificationFailed)
from .graph import (Digraph, decompose_flow_to_paths, edge_disjoint_paths,
                    max_flow, order_key, reach, sorted_ids)
from .plan import LABELS, Arc, NodeRole, RecoveryPlan, Role


class _SegmentEnd:
    """Synthetic segment terminal, compared by identity only."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


SRC = _SegmentEnd("<seg-src>")
SNK = _SegmentEnd("<seg-snk>")

_VIRTUAL_PREFIX = "~"


def _virtual_arcs(side: str) -> tuple:
    return tuple(Arc(f"{_VIRTUAL_PREFIX}{side}{i}", 0) for i in range(3))


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Every edge replaced by `coding_cap` parallel arcs."""

    arcs: tuple
    tails: Mapping
    heads: Mapping

    def __len__(self):
        return len(self.arcs)


def build_auxiliary(cn: CodingNetwork) -> AuxiliaryGraph:
    arcs = []
    tails = {}
    heads = {}
    for eid, tail, head in cn.graph.edges():
        if isinstance(eid, str) and eid.startswith(_VIRTUAL_PREFIX):
            raise ValueError(f"edge id {eid!r} collides with virtual arc namespace")
        for arc in (Arc(eid, i) for i in range(cn.coding_cap[eid])):
            arcs.append(arc)
            tails[arc] = tail
            heads[arc] = head
    return AuxiliaryGraph(arcs=tuple(arcs), tails=tails, heads=heads)


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
    index: int
    entry_kind: CutKind
    exit_kind: CutKind
    seg_type: SegmentType
    interior: frozenset
    entry_arcs: tuple
    exit_arcs: tuple
    arcs: tuple
    tails: Mapping   # arc -> interior node or SRC
    heads: Mapping   # arc -> interior node or SNK


@dataclass(frozen=True)
class SegmentSolution:
    sets: tuple               # three frozensets of arcs
    dominant: int | None      # index of the set crossing 2-edge cuts twice
    merger: object = None     # type III/IV junction node, if any
    splitter: object = None


def extract_segments(conditioned: ConditionedNetwork, aux: AuxiliaryGraph) -> list:
    """Cut the auxiliary graph along the chain.  Returns the k-1 segments
    between consecutive cuts, preceded/followed by a virtual-boundary segment
    whenever nodes sit before the first or after the last cut."""
    chain = conditioned.chain
    s = conditioned.network.source
    t = conditioned.network.target
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
    for arc in aux.arcs:
        a = part_of[aux.tails[arc]]
        b = part_of[aux.heads[arc]]
        if a == b:
            if a in piece_set:
                interior[a].append(arc)
            continue
        for i in range(a, b + 1):
            if i not in piece_set:
                continue
            if i == a:
                exit_[i].append(arc)
            elif i == b:
                entry[i].append(arc)
            else:
                entry[i].append(arc)
                exit_[i].append(arc)

    segments = []
    for i in pieces:
        tails = {}
        heads = {}
        ent = sorted_ids(set(entry[i]))
        exit_set = set(exit_[i])
        exi = sorted_ids(exit_set)
        inte = interior[i]
        for arc in ent:
            tails[arc] = SRC
            heads[arc] = SNK if arc in exit_set else aux.heads[arc]
        for arc in exi:
            heads[arc] = SNK
            tails.setdefault(arc, aux.tails[arc])
        for arc in inte:
            tails[arc] = aux.tails[arc]
            heads[arc] = aux.heads[arc]
        if i == 0:
            ent = list(_virtual_arcs("src"))
            for arc in ent:
                tails[arc] = SRC
                heads[arc] = s
            entry_kind = CutKind.THREE_ARC
        else:
            entry_kind = chain.kinds[i - 1]
        if i == k:
            exi = list(_virtual_arcs("snk"))
            for arc in exi:
                tails[arc] = t
                heads[arc] = SNK
            exit_kind = CutKind.THREE_ARC
        else:
            exit_kind = chain.kinds[i]
        all_arcs = tuple(sorted_ids(tails))
        segments.append(Segment(
            index=i,
            entry_kind=entry_kind,
            exit_kind=exit_kind,
            seg_type=_TYPE_BY_KINDS[(entry_kind, exit_kind)],
            interior=parts[i],
            entry_arcs=tuple(ent),
            exit_arcs=tuple(exi),
            arcs=all_arcs,
            tails=tails,
            heads=heads,
        ))
    return segments


def _local_digraph(arcs, tails, heads):
    """The segment as a graph on ints: edge i is `arcs[i]`, node 0 is SRC,
    node 1 is SNK, and interior nodes follow in order of first appearance.
    Edge order is `arcs` order, so flows tie-break as on the arcs."""
    node = {SRC: 0, SNK: 1}
    edges = [(i, node.setdefault(tails[arc], len(node)), node.setdefault(heads[arc], len(node)))
             for i, arc in enumerate(arcs)]
    return Digraph(range(len(node)), edges)


def _segment_paths(arcs, tails, heads, want):
    """`want` arc-disjoint SRC-SNK paths of a segment, as lists of arcs."""
    local = _local_digraph(arcs, tails, heads)
    return [[arcs[i] for i in path] for path in edge_disjoint_paths(local, 0, 1, want)]


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
    """Type III construction: entry is a 2-edge cut (four arcs over edges f
    and g), exit side is anything reachable from the merger walk.

    Returns (sets, merger_node).
    """
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
        # One augmenting step: forward on fresh arcs, backward along the tail
        # path, stopping at the first node touched by p1 or p2.
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


def _reverse_maps(seg: Segment):
    tails = {}
    heads = {}
    swap = {SRC: SNK, SNK: SRC}
    for arc in seg.arcs:
        t0 = seg.tails[arc]
        h0 = seg.heads[arc]
        tails[arc] = swap.get(h0, h0)
        heads[arc] = swap.get(t0, t0)
    return tails, heads


def solve_segment(seg: Segment) -> SegmentSolution:
    """Three arc-disjoint terminal-connecting sets for one segment."""
    if seg.seg_type in (SegmentType.I, SegmentType.II):
        want = 3 if seg.seg_type is SegmentType.I else 4
        try:
            paths = _segment_paths(seg.arcs, seg.tails, seg.heads, want)
        except InsufficientPaths as exc:
            raise SegmentInfeasible(f"type {seg.seg_type.value} segment has only "
                                    f"{exc.found} paths") from exc
        if want == 3:
            return SegmentSolution(sets=tuple(frozenset(p) for p in paths), dominant=None)
        for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            union = paths[a] + paths[b]
            edges = [arc.edge for arc in union]
            if len(set(edges)) != len(edges):
                continue  # pair holds both copies of one capacity-2 edge
            rest = [paths[i] for i in range(4) if i not in (a, b)]
            sets = (frozenset(union), frozenset(rest[0]), frozenset(rest[1]))
            return SegmentSolution(sets=sets, dominant=0)
        raise SegmentInfeasible("no valid dominant pair among the four paths")

    if seg.seg_type is SegmentType.III:
        sets, m = _solve_merge(seg.arcs, seg.tails, seg.heads)
        return SegmentSolution(sets=sets, dominant=0, merger=m)

    # Type IV: run the merge construction on the reversed segment.
    tails, heads = _reverse_maps(seg)
    sets, m = _solve_merge(seg.arcs, tails, heads)
    return SegmentSolution(sets=sets, dominant=0, splitter=m)


def _swap_copies(local_sets, edge):
    flip = {Arc(edge, 0): Arc(edge, 1), Arc(edge, 1): Arc(edge, 0)}
    return [frozenset(flip.get(arc, arc) for arc in s) for s in local_sets]


def glue_segments(segments: list, solutions: list):
    """Join local solutions along shared boundary arcs.

    At a 3-arc boundary the three crossing arcs pair the sets one to one.  At
    a 2-edge boundary the copy indices of the next segment are renamed (the
    two copies of an edge are interchangeable) so that its dominant set enters
    exactly where the previous dominant exited.

    Returns (three global arc sets, index of the globally dominant set or
    None) with virtual boundary arcs already stripped.
    """
    global_sets = [set(), set(), set()]
    dominant_global = None
    prev_owner = None

    for seg, sol in zip(segments, solutions):
        local = list(sol.sets)
        if prev_owner is None:
            mapping = list(range(3))
        else:
            boundary = frozenset(seg.entry_arcs)
            if boundary != frozenset(prev_owner):
                raise GlueMismatch(f"boundary arcs disagree at segment {seg.index}")
            if seg.entry_kind is CutKind.TWO_EDGE:
                dom_owner = _two_edge_dominant_owner(prev_owner)
                if sol.dominant is None:
                    raise GlueMismatch("2-edge boundary without a dominant set")
                prev_dom_arcs = {a for a, o in prev_owner.items() if o == dom_owner}
                next_dom_arcs = local[sol.dominant] & boundary
                for edge in {a.edge for a in boundary}:
                    pc = next(a.copy for a in prev_dom_arcs if a.edge == edge)
                    nc = next(a.copy for a in next_dom_arcs if a.edge == edge)
                    if pc != nc:
                        local = _swap_copies(local, edge)
            mapping = [None, None, None]
            for li, arcs in enumerate(local):
                owners = {prev_owner[a] for a in arcs & boundary}
                if len(owners) != 1:
                    raise GlueMismatch(
                        f"set {li} of segment {seg.index} enters on arcs owned "
                        f"by {len(owners)} global sets")
                mapping[li] = owners.pop()
            if sorted(mapping) != [0, 1, 2]:
                raise GlueMismatch(f"label matching at segment {seg.index} "
                                   f"is not a bijection")

        for li, arcs in enumerate(local):
            global_sets[mapping[li]] |= arcs
        if sol.dominant is not None and dominant_global is None:
            dominant_global = mapping[sol.dominant]

        exit_set = frozenset(seg.exit_arcs)
        prev_owner = {}
        for li, arcs in enumerate(local):
            for arc in arcs & exit_set:
                prev_owner[arc] = mapping[li]
        if len(prev_owner) != len(exit_set):
            raise GlueMismatch(f"segment {seg.index} leaves exit arcs unused")

    stripped = []
    for s in global_sets:
        stripped.append(frozenset(
            a for a in s
            if not (isinstance(a.edge, str) and a.edge.startswith(_VIRTUAL_PREFIX))))
    return stripped, dominant_global


def _two_edge_dominant_owner(prev_owner):
    counts = {}
    for owner in prev_owner.values():
        counts[owner] = counts.get(owner, 0) + 1
    doms = [o for o, c in counts.items() if c == 2]
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
