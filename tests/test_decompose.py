import dataclasses
import hashlib
import importlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from triflow import (Arc, CodingNetwork, CutKind, Digraph, FeasibilityKind, GenParams,
                     Network, NodeRole, Role, SegmentType, Structure, assign_roles,
                     build_auxiliary, classify_feasibility, condition_network,
                     decompose, files, generate)
from triflow.decompose import extract_segments, glue_segments, solve_segment
from triflow.errors import GenerationFailed, GlueMismatch, Unprotectable
from triflow.graph import _is_path_sum, order_key

import netfixtures
from netfixtures import (antiparallel_detour, chain2, coding, cyclic_probes, demotable5,
                         diamond2, ladder15, numeric_ids, parallel_capacity2, quadpath,
                         tripath, unit_chain, widefan)
from oracles import (aux_arc, chain_parts, reference_auxiliary, reference_diversity_plan,
                     reference_roles, reference_segments, reference_solve_segment,
                     segment_arcs, virtual_arc)
from test_golden import CORPUS, MIXED_CORPUS, mixed_ids
from test_graph import mixed_multigraphs

# `triflow.decompose` is the function, so the module goes by full name
segment_solver = importlib.import_module("triflow.decompose")

SRC = "segment source side"
SNK = "segment sink side"


def pipeline(net):
    cond = condition_network(coding(net))
    aux = build_auxiliary(cond.network)
    segments = extract_segments(cond.chain, aux)
    return cond, aux, segments


def local_ends(seg, a):
    """Tail and head of arc `a` inside `seg`, with every node outside the
    segment's part replaced by the terminal it stands for."""
    aux = seg.aux
    tail, head = aux.tail[a], aux.head[a]
    return (tail if aux.part[tail] == seg.index else SRC,
            head if aux.part[head] == seg.index else SNK)


def last_piece(cond, aux, seg):
    """The last chain piece that `seg` spans: its own, or its run's last."""
    return max(p for p, q in zip(cond.chain.node_part, aux.part) if q == seg.index)


def edge_by_ends(net, tail, head):
    return next(e for e, tl, hd in net.graph.edges() if (tl, hd) == (tail, head))


def test_auxiliary_counts():
    aux = build_auxiliary(coding(tripath()))
    assert len(aux) == 6
    assert all(aux_arc(aux, a).copy == 0 for a in aux.arcs)
    aux = build_auxiliary(coding(diamond2()))
    assert len(aux) == 8
    aux = build_auxiliary(coding(ladder15()))
    assert len(aux) == 28  # 16 thin edges + 6 thick ones doubled


def test_segments_diamond():
    cond, aux, segments = pipeline(diamond2())
    parts = chain_parts(cond.chain, aux.graph)
    assert [s.seg_type for s in segments] == [SegmentType.II, SegmentType.II]
    assert parts[segments[0].index] == frozenset("a")
    assert parts[segments[1].index] == frozenset("b")


def test_segments_tripath_all_type1():
    # three type-I pieces, one run: a single segment from the arcs out of s
    # to the arcs into t
    _, aux, segments = pipeline(tripath())
    assert [s.seg_type for s in segments] == [SegmentType.I]
    (seg,) = segments
    index = aux.graph._index
    assert [aux.tail[a] for a in seg.entry_arcs] == [index["s"]] * 3
    assert [aux.head[a] for a in seg.exit_arcs] == [index["t"]] * 3


def test_segments_ladder15_cover_all_types():
    cond, aux, segments = pipeline(ladder15())
    parts = chain_parts(cond.chain, aux.graph)
    assert [s.seg_type.name for s in segments] == ["IV", "II", "III", "IV"]
    assert parts[segments[0].index] == frozenset(["a0", "b0", "c0"])
    assert parts[segments[2].index] == frozenset(["a3", "c3", "b3"])


def test_segments_widefan_virtual_boundaries():
    cond, aux, segments = pipeline(widefan())
    # everything up to the only cut is one piece entered via virtual arcs;
    # the exit arcs of that piece already end at the target
    assert [s.seg_type.name for s in segments] == ["IV"]
    lead = segments[0]
    real = 2 * len(aux.graph.edge_ids)
    assert lead.entry_arcs == aux.source_arcs
    assert all(a >= real for a in lead.entry_arcs)
    assert {local_ends(lead, a) for a in lead.entry_arcs} == {(SRC, aux.graph._index["s"])}
    lead_part = chain_parts(cond.chain, aux.graph)[lead.index]
    assert lead_part == frozenset(widefan().graph.nodes) - {"t"}
    assert all(a < real for a in lead.exit_arcs)
    assert {local_ends(lead, a)[1] for a in lead.exit_arcs} == {SNK}
    assert {aux.graph.nodes_sorted[aux.head[a]] for a in lead.exit_arcs} == {"t"}


def golden_ladders():
    """ladder15 and the golden corpus's LADDER networks that reach segment
    solving."""
    nets = [ladder15()]
    for params in CORPUS:
        if params.structure is Structure.LADDER:
            try:
                nets.append(generate(params))
            except GenerationFailed:
                continue
    return [net for net in nets
            if classify_feasibility(coding(net)).kind is FeasibilityKind.NETWORK_CODING]


def test_consecutive_segments_share_their_boundary_tuple():
    # each cut's crossing arcs are one tuple: the exit of the segment before
    # it and the entry of the segment after it, which starts at the first
    # piece after the segment's last one
    nets = golden_ladders()
    pairs = 0
    for net in nets:
        cond, aux, segments = pipeline(net)
        for seg, nxt in zip(segments, segments[1:]):
            assert nxt.index == last_piece(cond, aux, seg) + 1
            assert seg.exit_arcs is nxt.entry_arcs
            pairs += 1
    assert pairs > len(nets)


def local_connects(seg, arcs, drop=frozenset()):
    live = [a for a in arcs if a not in drop]
    adj = {}
    for a in live:
        tail, head = local_ends(seg, a)
        adj.setdefault(tail, []).append(head)
    seen = {SRC}
    stack = [SRC]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v is SNK:
                return True
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def assert_locally_feasible(seg, sets):
    sets = list(map(frozenset, sets))
    for i in range(3):
        for j in range(i + 1, 3):
            assert not (sets[i] & sets[j])
    for s in sets:
        assert local_connects(seg, s)
    by_edge = {}
    for a in segment_arcs(seg):
        by_edge.setdefault(a >> 1, []).append(a)
    for edge, arcs in by_edge.items():
        drop = frozenset(arcs)
        alive = sum(local_connects(seg, s, drop) for s in sets)
        assert alive >= 2, f"edge {edge} kills too many sets in segment {seg.index}"


def test_solve_segment_local_feasibility_on_fixtures():
    for net in (diamond2(), tripath(), ladder15(), widefan(), demotable5(),
                parallel_capacity2()):
        _, _, segments = pipeline(net)
        for seg in segments:
            assert_locally_feasible(seg, solve_segment(seg))


def test_solve_type2_dominant_pair_valid():
    _, _, segments = pipeline(diamond2())
    for seg in segments:
        dominant = solve_segment(seg)[0]
        edges = [a >> 1 for a in dominant]
        assert len(edges) == len(set(edges))  # never both copies of one edge
        # dominant crosses each bounding cut once per capacity-2 edge
        entries = {a >> 1 for a in dominant if a in seg.entry_arcs}
        exits = {a >> 1 for a in dominant if a in seg.exit_arcs}
        assert len(entries) == 2 and len(exits) == 2


def test_solve_type2_exhaustive_pair_count():
    # at most 4 capacity-2 edges each rule out one of the 6 pairs
    _, aux, segments = pipeline(diamond2())
    for seg in segments:
        paths = segment_solver._paths(seg, seg.entry_arcs, aux.tail, aux.head, 4)
        assert len(paths) == 4
        valid = 0
        for a in range(4):
            for b in range(a + 1, 4):
                edges = [arc >> 1 for arc in paths[a] + paths[b]]
                if len(edges) == len(set(edges)):
                    valid += 1
        assert valid >= 2


def junction(seg, dominant):
    """The node id where a type III segment's dominant set joins (two in-arcs
    inside the segment) or a type IV segment's forks (two out-arcs); None
    for types I and II."""
    if seg.seg_type not in (SegmentType.III, SegmentType.IV):
        return None
    aux = seg.aux
    ends = aux.head if seg.seg_type is SegmentType.III else aux.tail
    degree = Counter(ends[a] for a in dominant)
    nodes = [v for v, d in degree.items() if d >= 2 and aux.part[v] == seg.index]
    assert len(nodes) == 1, f"segment {seg.index} has junctions {nodes}"
    return aux.graph.nodes_sorted[nodes[0]]


def test_solve_type3_merger_structure_in_ladder15():
    cond, _, segments = pipeline(ladder15())
    seg = segments[2]
    assert seg.seg_type is SegmentType.III
    sets = solve_segment(seg)
    assert junction(seg, sets[0]) == "b3"
    # exits of the three sets are pairwise distinct
    exits = [next(a for a in s if a in seg.exit_arcs) for s in sets]
    assert len({a >> 1 for a in exits}) == 3
    # dominant set enters through both capacity-2 edges
    dom_entries = {a >> 1 for a in sets[0] if a in seg.entry_arcs}
    assert len(dom_entries) == 2


def test_solve_type4_splitter_structure_in_ladder15():
    _, _, segments = pipeline(ladder15())
    seg = segments[3]
    assert seg.seg_type is SegmentType.IV
    sets = solve_segment(seg)
    assert junction(seg, sets[0]) == "a4"
    dom_exits = {a >> 1 for a in sets[0] if a in seg.exit_arcs}
    assert len(dom_exits) == 2


def test_glue_single_segment_identity():
    cond, aux, segments = pipeline(demotable5())
    assert len(segments) == 1
    sols = [solve_segment(s) for s in segments]
    sets, dominant = glue_segments(segments, sols)
    # types II-IV put the dominant set first
    assert dominant == (None if segments[0].seg_type is SegmentType.I else 0)
    assert sets[0] == sorted(sols[0][0])


def test_glue_multi_segment_disjoint_and_connected():
    for net in (tripath(), diamond2(), ladder15(), widefan()):
        cond, aux, segments = pipeline(net)
        sols = [solve_segment(s) for s in segments]
        sets, dominant = glue_segments(segments, sols)
        assert all(s == sorted(s) for s in sets)
        all_arcs = [aux_arc(aux, a) for s in sets for a in s]
        assert len(all_arcs) == len(set(all_arcs))
        # virtual arcs are stripped: every arc is a copy of a real edge
        assert all(a.copy < cond.network.coding_cap.get(a.edge, 0) for a in all_arcs)


def test_glue_takes_solutions_as_a_one_shot_iterator():
    # `decompose` streams the solutions, so each is glued as it is made
    for net in golden_ladders():
        _, _, segments = pipeline(net)
        glued = glue_segments(segments, [solve_segment(s) for s in segments])
        assert glue_segments(segments, map(solve_segment, segments)) == glued


# ladder15's segments 1-4 (types IV, II, III, IV) solve to these arc sets,
# dominant first; boundaries are (0, 2, 4), (10, 11, 12, 13),
# (22, 23, 24, 25), (30, 32, 38) and (40, 41, 42, 43)
LADDER15_SOLUTIONS = [
    [[2, 6, 8, 11, 13], [0, 10], [4, 12]],
    [[10, 12, 14, 18, 22, 25], [11, 16, 24], [13, 20, 23]],
    [[22, 25, 26, 28, 32], [23, 30], [24, 38]],
    [[30, 34, 36, 40, 43], [38, 41], [32, 42]],
]


def move(sets, arc, to=None):
    """Take `arc` out of its set and add it to set `to` (None drops it)."""
    next(s for s in sets if arc in s).remove(arc)
    if to is not None:
        sets[to].append(arc)


@pytest.mark.parametrize("tamper, refusal", [
    pytest.param(lambda segs, sols: move(sols[0], 10), "segment 1 leaves exit arcs unused",
                 id="exit-arc-dropped"),
    pytest.param(lambda segs, sols: move(sols[3], 38, 0),
                 "set 0 of segment 4 enters on arcs of 2 global sets, not one",
                 id="set-enters-on-two-labels"),
    pytest.param(lambda segs, sols: move(sols[3], 38),
                 "set 1 of segment 4 enters on arcs of 0 global sets, not one",
                 id="set-does-not-enter"),
    # segment 3 leaves two exit arcs on one label, which segment 4's sets
    # then enter on separately
    pytest.param(lambda segs, sols: move(sols[2], 38, 1),
                 "label matching at segment 4 is not a bijection", id="not-a-bijection"),
    # segment 1 crosses the 2-edge cut with labels 0, 1, 1, 0
    pytest.param(lambda segs, sols: move(sols[0], 12, 1),
                 "segment 2's 2-edge entry is not crossed 2\\+1\\+1",
                 id="two-edge-cut-crossed-2+2"),
    pytest.param(lambda segs, sols: segs.__setitem__(
                     1, dataclasses.replace(segs[1], entry_arcs=segs[1].exit_arcs)),
                 "segment 2 enters on arcs no earlier segment holds",
                 id="entry-arcs-never-held"),
])
def test_glue_refuses_mismatched_solutions(tamper, refusal):
    _, _, segments = pipeline(ladder15())
    sols = [[list(s) for s in solve_segment(seg)] for seg in segments]
    assert [[sorted(s) for s in sets] for sets in sols] == LADDER15_SOLUTIONS
    glue_segments(segments, sols)
    tamper(segments, sols)
    with pytest.raises(GlueMismatch, match=refusal):
        glue_segments(segments, sols)


def test_decompose_tripath_plain_paths():
    plan = decompose(tripath())
    assert plan.feasibility.kind is FeasibilityKind.NETWORK_CODING
    assert plan.roles == ()
    for label, arcs in plan.subflows.items():
        assert len(arcs) == 2


def test_decompose_quadpath_uses_diversity_fallback():
    plan = decompose(quadpath())
    assert plan.feasibility.kind is FeasibilityKind.DIVERSITY_CODING
    assert plan.verification.overall
    assert plan.roles == ()
    # three edge-disjoint simple paths
    for label, arcs in plan.subflows.items():
        assert all(a.copy == 0 for a in arcs)


def test_decompose_ladder15_pinned_roles():
    plan = decompose(ladder15())
    assert plan.verification.overall
    net = ladder15()
    roles = {(r.node, r.role, r.label) for r in plan.roles}
    assert ("b0", Role.SPLITTER, "XOR") in roles
    assert ("b3", Role.MERGER, "XOR") in roles
    # the relay with two XOR in-arcs is fed by a3->b3 and c3->b3
    xor = plan.subflows["XOR"]
    feeders = {net.graph.ends(a.edge) for a in xor if net.graph.ends(a.edge)[1] == "b3"}
    assert feeders == {("a3", "b3"), ("c3", "b3")}


def test_decompose_diamond_roles():
    plan = decompose(diamond2())
    roles = {(r.node, r.role, r.label) for r in plan.roles}
    assert roles == {("s", Role.SPLITTER, "XOR"), ("t", Role.MERGER, "XOR")}


def test_roles_match_the_id_keyed_reference():
    # plain, int/float and int/str node ids: whatever the id types, node and
    # edge indices are `order_key` order, so roles sorted by node index are
    # sorted by node id
    params = ([GenParams(n, seed, Structure.LADDER) for n in (8, 16, 64, 200)
               for seed in range(4)]
              + [GenParams(n, seed, Structure.RANDOM_DAG, target)
                 for n in (7, 10, 16, 32, 64) for seed in range(8)
                 for target in (None, FeasibilityKind.NETWORK_CODING)])
    with_roles = {structure: 0 for structure in (Structure.LADDER, Structure.RANDOM_DAG)}
    for p in params:
        try:
            base = generate(p)
        except GenerationFailed:
            continue
        for net in (base, numeric_ids(base), mixed_ids(base)):
            g = net.graph
            assert g.nodes_sorted == tuple(sorted(g.nodes, key=order_key))
            assert g.edge_ids == tuple(sorted(g.edge_ids, key=order_key))
            try:
                plan = decompose(net)
            except Unprotectable:
                continue
            assert plan.roles == reference_roles(g, plan.subflows)
            with_roles[p.structure] += bool(plan.roles)
    assert all(count >= 30 for count in with_roles.values()), with_roles
    # no decomposed label holds both copies of an edge; such a label counts both
    cn = CodingNetwork(graph=Digraph("sat", [("sa", "s", "a"), ("at", "a", "t")]),
                       coding_cap={"sa": 2, "at": 1}, source="s", target="t")
    sa, at = cn.graph._edge_index["sa"], cn.graph._edge_index["at"]
    sets = [sorted((2 * sa, 2 * sa + 1, 2 * at)), [], []]
    plan = assign_roles(cn, sets, None, None)
    assert plan.subflows["A"] == {Arc("sa", 0), Arc("sa", 1), Arc("at", 0)}
    assert plan.roles == reference_roles(cn.graph, plan.subflows) == (
        NodeRole("a", Role.MERGER, "A"), NodeRole("s", Role.SPLITTER, "A"))


def test_plans_do_not_depend_on_unrelated_edge_ids():
    # edge ids alternate int and float; one disconnected str-id edge added
    # must change neither the plan nor the refusal
    def answer(base, extra_edges):
        edge = {e: i if i % 2 == 0 else i + 0.5 for i, e in enumerate(base.graph.edge_ids)}
        edges = [(edge[e], tail, head) for e, tail, head in base.graph.edges()]
        caps = {edge[e]: k for e, k in base.free_cap.items()}
        caps.update((e, 1) for e, _, _ in extra_edges)
        nodes = base.graph.nodes.union(*(ends for _, *ends in extra_edges))
        net = Network(graph=Digraph(nodes, edges + extra_edges), free_cap=caps,
                      source=base.source, target=base.target)
        try:
            return dict(decompose(net).subflows)
        except Unprotectable as exc:
            return exc.feasibility

    for structure in (Structure.LADDER, Structure.RANDOM_DAG):
        for n in (8, 16, 24):
            for seed in range(6):
                base = generate(GenParams(n, seed, structure))
                assert answer(base, [("z", "u", "v")]) == answer(base, []), (structure, n, seed)


def test_decompose_rejects_unprotectable():
    with pytest.raises(Unprotectable) as err:
        decompose(chain2())
    assert err.value.feasibility.kind is FeasibilityKind.UNPROTECTED_2FLOW
    with pytest.raises(Unprotectable) as err:
        decompose(unit_chain())
    assert err.value.feasibility.kind is FeasibilityKind.INFEASIBLE


def test_decompose_is_deterministic():
    a = decompose(ladder15())
    b = decompose(ladder15())
    assert a.subflows == b.subflows
    assert a.roles == b.roles


def test_merge_type_segments_have_distinct_exits_across_ladders():
    seen = 0
    for seed in range(10):
        net = generate(GenParams(node_count=30, seed=seed))
        _, _, segments = pipeline(net)
        for seg in segments:
            if seg.seg_type not in (SegmentType.III, SegmentType.IV):
                continue
            exits = [{a >> 1 for a in s if a in seg.exit_arcs} for s in solve_segment(seg)]
            if seg.seg_type is SegmentType.III:
                # one-to-one correspondence with the three exit arcs
                assert [len(x) for x in exits] == [1, 1, 1]
                assert len(exits[0] | exits[1] | exits[2]) == 3
            seen += 1
    assert seen >= 4


def test_plan_bandwidth_on_comparison_fixture():
    # 3-connected comparison instance: protecting both halves with 1+1
    # duplication needs four 2-hop paths (8 edge units); the three-subflow
    # plan ships the same data on 6.
    plan = decompose(quadpath())
    plan_units = sum(len(arcs) for arcs in plan.subflows.values())
    one_plus_one_units = 2 * (2 + 2)
    assert plan_units == 6 < one_plus_one_units


def test_plan_capacity_usage_never_exceeds_coding_capacity():
    for net in (ladder15(), diamond2(), widefan(), demotable5()):
        plan = decompose(net)
        cn = coding(net)
        usage = {}
        for arcs in plan.subflows.values():
            for a in arcs:
                usage[a.edge] = usage.get(a.edge, 0) + 1
        assert all(usage[e] <= cn.coding_cap[e] for e in usage)


def named(seg, arcs):
    """Arc ints as the reference names them: real arcs as `Arc`s, virtual
    arc 2·(E + j) as `virtual_arc(j)`."""
    real = 2 * len(seg.aux.graph.edge_ids)
    return [aux_arc(seg.aux, a) if a < real else virtual_arc((a - real) // 2) for a in arcs]


def assert_solver_matches_reference(net):
    cond = condition_network(coding(net))
    segments = extract_segments(cond.chain, build_auxiliary(cond.network))
    refs = reference_segments(cond)
    assert [(s.index, s.seg_type) for s in segments] == [(r.index, r.seg_type) for r in refs]
    for seg, ref in zip(segments, refs):
        assert tuple(named(seg, segment_arcs(seg))) == ref.arcs
        assert tuple(named(seg, seg.entry_arcs)) == ref.entry_arcs
        assert tuple(named(seg, seg.exit_arcs)) == ref.exit_arcs
        assert_solution_matches(seg, ref)
    return segments


def assert_solution_matches(seg, ref):
    """The segment's sets equal the reference's, and so does the merger or
    splitter node, read from the dominant set's arcs."""
    sets = solve_segment(seg)
    ref_sets, ref_node = reference_solve_segment(ref)
    assert tuple(frozenset(named(seg, s)) for s in sets) == ref_sets, f"segment {seg.index}"
    assert junction(seg, sets[0]) == ref_node, f"segment {seg.index}"


def network_coding_corpus():
    """The golden corpus, its mixed-id relabelling and the pinned fixtures,
    keeping the networks that reach segment solving."""
    nets = []
    for corpus, relabel in ((CORPUS, None), (MIXED_CORPUS, mixed_ids)):
        for params in corpus:
            try:
                net = generate(params)
            except GenerationFailed:
                continue
            nets.append(relabel(net) if relabel else net)
    nets += [getattr(netfixtures, name)() for name in
             ("tripath", "quadpath", "diamond2", "chain2", "unit_chain", "ladder15",
              "widefan", "demotable5", "parallel_capacity2")]
    return [net for net in nets
            if classify_feasibility(coding(net)).kind is FeasibilityKind.NETWORK_CODING]


def test_segment_solver_matches_per_segment_digraph_reference():
    # every segment's sets, merger and splitter equal those of the reference
    # that builds a Digraph per segment and runs max_flow on it
    seen = {t: 0 for t in SegmentType}
    for net in network_coding_corpus():
        for seg in assert_solver_matches_reference(net):
            seen[seg.seg_type] += 1
    assert all(seen.values()), seen


def test_segment_solver_matches_reference_with_ids_sorting_after_virtual_names():
    # the reference names virtual arcs "~src0".."~snk2"; edge ids above "~"
    # sort after them there and before them as ints, which changes no solution
    nets = [generate(GenParams(n, seed, Structure.RANDOM_DAG))
            for n, seed in ((7, 0), (7, 35), (32, 37), (64, 8), (64, 34))] + [widefan()]
    reordered = 0
    for net in nets:
        g = net.graph
        rename = {e: f"\u00e9{i:03d}" if i % 2 else f"\x7f{i:03d}"
                  for i, e in enumerate(g.edge_ids)}
        relabeled = Network(
            graph=Digraph(g.nodes, [(rename[e], tail, head) for e, tail, head in g.edges()]),
            free_cap={rename[e]: k for e, k in net.free_cap.items()},
            source=net.source, target=net.target)
        cond = condition_network(coding(relabeled))
        segments = extract_segments(cond.chain, build_auxiliary(cond.network))
        for seg, ref in zip(segments, reference_segments(cond)):
            arcs = named(seg, segment_arcs(seg))
            assert set(arcs) == set(ref.arcs)
            reordered += tuple(arcs) != ref.arcs
            assert_solution_matches(seg, ref)
    assert reordered == 7  # every segment with a virtual boundary


def random_digraphs(count, seed, kind=FeasibilityKind.NETWORK_CODING):
    """`count` seeded random digraphs of class `kind`, with parallel,
    antiparallel and dead-end edges and cycles."""
    rng = random.Random(seed)
    nets = []
    while len(nets) < count:
        n = rng.randint(4, 16)
        nodes = list(range(n))
        edges = [(i, *rng.sample(nodes, 2)) for i in range(rng.randint(n, 4 * n))]
        net = Network(graph=Digraph(nodes, edges),
                      free_cap={i: rng.randint(1, 2) for i, _, _ in edges},
                      source=0, target=n - 1)
        if classify_feasibility(coding(net)).kind is kind:
            nets.append(net)
    return nets


def test_segment_solver_matches_reference_on_general_digraphs():
    seen = {t: 0 for t in SegmentType}
    for net in [*random_digraphs(400, 20143), *cyclic_probes()]:
        for seg in assert_solver_matches_reference(net):
            seen[seg.seg_type] += 1
    assert all(seen.values()), seen


def assert_auxiliary_matches(cn):
    aux = build_auxiliary(cn)
    assert (aux.arcs, aux.arcs_at, aux.tail, aux.head) == reference_auxiliary(cn)


def test_auxiliary_graph_matches_the_per_edge_build():
    # conditioned LADDER and RANDOM_DAG networks, capacity-2 edges included,
    # and diversity-coding networks on unit arcs, as `decompose` builds them
    nets = [condition_network(coding(net)).network for net in network_coding_corpus()]
    nets += [dataclasses.replace(coding(net), coding_cap=dict.fromkeys(net.graph.edge_ids, 1))
             for net in random_digraphs(100, 20147, FeasibilityKind.DIVERSITY_CODING)]
    for cn in nets:
        assert_auxiliary_matches(cn)
    assert sum(2 in cn.coding_cap.values() for cn in nets) >= 50


@settings(max_examples=200, deadline=None)
@given(mixed_multigraphs())
def test_auxiliary_graph_matches_the_per_edge_build_on_multigraphs(instance):
    g, caps, s, t, _ = instance
    assert_auxiliary_matches(CodingNetwork(g, {e: 2 if k > 1 else 1 for e, k in caps.items()},
                                           s, t))


# sha256 of each `cyclic_probes()` plan's JSON, as the peel with a walk per
# path and a sweep from every node wrote it
CYCLIC_PROBE_DIGESTS = [
    "768fa8759970a83bc65879c616f38deabe318b34c23ed732cce02f273c5ffc03",
    "958530c35ad3f88a548bf890cd4328a46877823c8f9297cf7b0279af49086287",
    "bbe56bf529585d1df7394b4c4c26970ed9dcc0935d56e8c234db7c13bc576674",
]


def test_plans_from_a_probe_that_the_peel_splits():
    # the probe holds flow on cycles, so conditioning runs the peel
    for net, digest in zip(cyclic_probes(), CYCLIC_PROBE_DIGESTS, strict=True):
        cn = coding(net)
        probe = classify_feasibility(cn).probe
        assert not _is_path_sum(cn.graph, probe.per_edge, cn.source, cn.target)
        plan = decompose(net)
        assert plan.verification.overall
        text = files.dumps(files.plan_to_json(plan))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_diversity_plans_match_the_edge_disjoint_paths_reference():
    # A diversity-coding network is one type-I segment over unit arcs; its
    # plan is the one three `edge_disjoint_paths` give, byte for byte.
    # `antiparallel_detour` pins a flow cycle that the peel must drop.
    nets = [quadpath(), antiparallel_detour(),
            *random_digraphs(500, 20145, FeasibilityKind.DIVERSITY_CODING)]
    shapes = Counter()
    for net in nets:
        assert (files.dumps(files.plan_to_json(decompose(net)))
                == files.dumps(files.plan_to_json(reference_diversity_plan(net))))
        ends = list(map(net.graph.ends, net.graph.edge_ids))
        shapes["parallel"] += len(set(ends)) < len(ends)
        shapes["antiparallel"] += not set(ends).isdisjoint((h, t) for t, h in ends)
        shapes["target out-edge"] += any(t == net.target for t, _ in ends)
    assert len(shapes) == 3 and min(shapes.values()) >= 50, shapes


def test_type1_run_paths_cross_every_inner_cut_once():
    # a type-I segment spans a run of pieces; its three paths are
    # arc-disjoint and share out each inner 3-arc cut's arcs, one per path
    runs = inner = 0
    for net in golden_ladders() + random_digraphs(200, 20144):
        cond, aux, segments = pipeline(net)
        for seg in segments:
            if seg.seg_type is not SegmentType.I:
                continue
            paths = solve_segment(seg)
            used = [a for p in paths for a in p]
            assert len(paths) == 3 and len(used) == len(set(used))
            last = last_piece(cond, aux, seg)
            for c in range(seg.index + 1, last + 1):  # cut c lies between parts c - 1 and c
                assert cond.chain.kinds[c - 1] is CutKind.THREE_ARC
                cut = [2 * e for e in cond.chain.crossing[c - 1]]
                assert sorted(sum(a in p for p in paths) for a in cut) == [1, 1, 1]
                assert all(len(set(p) & set(cut)) == 1 for p in paths)
                inner += 1
            runs += last > seg.index
    assert runs and inner > runs


def test_parallel_paths_network_is_one_segment():
    for n in (5, 12, 200):
        net = generate(GenParams(n, 1, Structure.PARALLEL_PATHS))
        _, _, segments = pipeline(net)
        assert [s.seg_type for s in segments] == [SegmentType.I]
        assert_locally_feasible(segments[0], solve_segment(segments[0]))


def test_no_two_consecutive_segments_are_type1():
    pairs = 0
    for net in golden_ladders() + random_digraphs(200, 20144):
        _, _, segments = pipeline(net)
        for seg, nxt in zip(segments, segments[1:]):
            assert not seg.seg_type is nxt.seg_type is SegmentType.I
            pairs += 1
    assert pairs
