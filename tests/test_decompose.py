import importlib
import random

import pytest

from triflow import (Digraph, FeasibilityKind, GenParams, Network, Role,
                     SegmentSolution, SegmentType, Structure, build_auxiliary,
                     classify_feasibility, condition_network, decompose,
                     extract_segments, generate, glue_segments, solve_segment)
from triflow.errors import GenerationFailed, Unprotectable

import netfixtures
from netfixtures import (chain2, coding, demotable5, diamond2, ladder15,
                         parallel_capacity2, quadpath, tripath, unit_chain,
                         widefan)
from oracles import reference_segments, reference_solve_segment, virtual_arc
from test_golden import CORPUS, MIXED_CORPUS, mixed_ids

# `triflow.decompose` is the function, so the module goes by full name
segment_solver = importlib.import_module("triflow.decompose")

SRC = "segment source side"
SNK = "segment sink side"


def pipeline(net):
    cond = condition_network(coding(net))
    aux = build_auxiliary(cond.network)
    segments = extract_segments(cond, aux)
    return cond, aux, segments


def local_ends(seg, a):
    """Tail and head of arc `a` inside `seg`, with every node outside the
    segment's part replaced by the terminal it stands for."""
    aux = seg.aux
    tail, head = aux.tail[a], aux.head[a]
    return (tail if aux.part[tail] == seg.index else SRC,
            head if aux.part[head] == seg.index else SNK)


def edge_by_ends(net, tail, head):
    return next(e for e, tl, hd in net.graph.edges() if (tl, hd) == (tail, head))


def test_auxiliary_counts():
    aux = build_auxiliary(coding(tripath()))
    assert len(aux) == 6
    assert all(aux.arc(a).copy == 0 for a in aux.arcs)
    aux = build_auxiliary(coding(diamond2()))
    assert len(aux) == 8
    aux = build_auxiliary(coding(ladder15()))
    assert len(aux) == 28  # 16 thin edges + 6 thick ones doubled


def test_segments_diamond():
    _, _, segments = pipeline(diamond2())
    assert [s.seg_type for s in segments] == [SegmentType.II, SegmentType.II]
    assert segments[0].interior == frozenset("a")
    assert segments[1].interior == frozenset("b")


def test_segments_tripath_all_type1():
    _, _, segments = pipeline(tripath())
    assert all(s.seg_type is SegmentType.I for s in segments)
    assert len(segments) == 3


def test_segments_ladder15_cover_all_types():
    _, _, segments = pipeline(ladder15())
    assert [s.seg_type.name for s in segments] == ["IV", "II", "III", "IV"]
    assert segments[0].interior == frozenset(["a0", "b0", "c0"])
    assert segments[2].interior == frozenset(["a3", "c3", "b3"])


def test_segments_widefan_virtual_boundaries():
    _, aux, segments = pipeline(widefan())
    # everything up to the only cut is one piece entered via virtual arcs;
    # the exit arcs of that piece already end at the target
    assert [s.seg_type.name for s in segments] == ["IV"]
    lead = segments[0]
    real = 2 * len(aux.graph.edge_ids)
    assert lead.entry_arcs == aux.source_arcs
    assert all(a >= real for a in lead.entry_arcs)
    assert {local_ends(lead, a) for a in lead.entry_arcs} == {(SRC, aux.graph._index["s"])}
    assert lead.interior == frozenset(widefan().graph.nodes) - {"t"}
    assert all(a < real for a in lead.exit_arcs)
    assert {local_ends(lead, a)[1] for a in lead.exit_arcs} == {SNK}
    assert {aux.graph.nodes_sorted[aux.head[a]] for a in lead.exit_arcs} == {"t"}


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


def assert_locally_feasible(seg, sol):
    sets = sol.sets
    for i in range(3):
        for j in range(i + 1, 3):
            assert not (sets[i] & sets[j])
    for s in sets:
        assert local_connects(seg, s)
    by_edge = {}
    for a in seg.arcs:
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
        sol = solve_segment(seg)
        assert sol.dominant == 0
        dominant = sol.sets[0]
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


def test_solve_type3_merger_structure_in_ladder15():
    cond, _, segments = pipeline(ladder15())
    seg = segments[2]
    assert seg.seg_type is SegmentType.III
    sol = solve_segment(seg)
    assert sol.merger == "b3"
    # exits of the three sets are pairwise distinct
    exits = [next(a for a in s if a in seg.exit_arcs) for s in sol.sets]
    assert len({a >> 1 for a in exits}) == 3
    # dominant set enters through both capacity-2 edges
    dom_entries = {a >> 1 for a in sol.sets[0] if a in seg.entry_arcs}
    assert len(dom_entries) == 2


def test_solve_type4_splitter_structure_in_ladder15():
    _, _, segments = pipeline(ladder15())
    seg = segments[3]
    assert seg.seg_type is SegmentType.IV
    sol = solve_segment(seg)
    assert sol.splitter == "a4"
    dom_exits = {a >> 1 for a in sol.sets[0] if a in seg.exit_arcs}
    assert len(dom_exits) == 2


def test_glue_single_segment_identity():
    cond, aux, segments = pipeline(demotable5())
    assert len(segments) == 1
    sols = [solve_segment(s) for s in segments]
    sets, dominant = glue_segments(segments, sols)
    i = sols[0].dominant or 0
    assert sets[i] == frozenset(map(aux.arc, sols[0].sets[i]))
    assert dominant == sols[0].dominant


def test_glue_multi_segment_disjoint_and_connected():
    for net in (tripath(), diamond2(), ladder15(), widefan()):
        cond, aux, segments = pipeline(net)
        sols = [solve_segment(s) for s in segments]
        sets, dominant = glue_segments(segments, sols)
        all_arcs = [a for s in sets for a in s]
        assert len(all_arcs) == len(set(all_arcs))
        # virtual arcs are stripped: every arc is a copy of a real edge
        assert all(a.copy < cond.network.coding_cap.get(a.edge, 0) for a in all_arcs)


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
            sol = solve_segment(seg)
            exits = [{a >> 1 for a in s if a in seg.exit_arcs} for s in sol.sets]
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
    return [seg.aux.arc(a) if a < real else virtual_arc((a - real) // 2) for a in arcs]


def assert_solver_matches_reference(net):
    cond = condition_network(coding(net))
    segments = extract_segments(cond, build_auxiliary(cond.network))
    refs = reference_segments(cond)
    assert [(s.index, s.seg_type) for s in segments] == [(r.index, r.seg_type) for r in refs]
    for seg, ref in zip(segments, refs):
        assert tuple(named(seg, seg.arcs)) == ref.arcs
        assert tuple(named(seg, seg.entry_arcs)) == ref.entry_arcs
        assert tuple(named(seg, seg.exit_arcs)) == ref.exit_arcs
        sol = solve_segment(seg)
        got = SegmentSolution(sets=tuple(frozenset(named(seg, s)) for s in sol.sets),
                              dominant=sol.dominant, merger=sol.merger,
                              splitter=sol.splitter)
        assert got == reference_solve_segment(ref), f"segment {seg.index}"
    return segments


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
    # every segment's sets, dominant, merger and splitter equal those of the
    # reference that builds a Digraph per segment and runs max_flow on it
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
        segments = extract_segments(cond, build_auxiliary(cond.network))
        for seg, ref in zip(segments, reference_segments(cond)):
            assert set(named(seg, seg.arcs)) == set(ref.arcs)
            reordered += tuple(named(seg, seg.arcs)) != ref.arcs
            sol = solve_segment(seg)
            got = SegmentSolution(sets=tuple(frozenset(named(seg, s)) for s in sol.sets),
                                  dominant=sol.dominant, merger=sol.merger,
                                  splitter=sol.splitter)
            assert got == reference_solve_segment(ref)
    assert reordered == 7  # every segment with a virtual boundary


def random_network_coding_digraphs(count, seed):
    """`count` seeded random digraphs in the network-coding class, with
    parallel, antiparallel and dead-end edges and cycles."""
    rng = random.Random(seed)
    nets = []
    while len(nets) < count:
        n = rng.randint(4, 16)
        nodes = list(range(n))
        edges = [(i, *rng.sample(nodes, 2)) for i in range(rng.randint(n, 4 * n))]
        net = Network(graph=Digraph(nodes, edges),
                      free_cap={i: rng.randint(1, 2) for i, _, _ in edges},
                      source=0, target=n - 1)
        if classify_feasibility(coding(net)).kind is FeasibilityKind.NETWORK_CODING:
            nets.append(net)
    return nets


def test_segment_solver_matches_reference_on_general_digraphs():
    seen = {t: 0 for t in SegmentType}
    for net in random_network_coding_digraphs(400, 20143):
        for seg in assert_solver_matches_reference(net):
            seen[seg.seg_type] += 1
    assert all(seen.values()), seen
