import pytest

from triflow import (FeasibilityKind, Role, SegmentType, build_auxiliary,
                     condition_network, decompose, extract_segments,
                     glue_segments, solve_segment)
from triflow.decompose import SNK, SRC
from triflow.errors import Unprotectable

from netfixtures import (chain2, coding, demotable5, diamond2, ladder15,
                         parallel_capacity2, quadpath, tripath, unit_chain,
                         widefan)


def pipeline(net):
    cond = condition_network(coding(net))
    aux = build_auxiliary(cond.network)
    segments = extract_segments(cond, aux)
    return cond, aux, segments


def edge_by_ends(net, tail, head):
    return next(e for e, tl, hd in net.graph.edges() if (tl, hd) == (tail, head))


def test_auxiliary_counts():
    aux = build_auxiliary(coding(tripath()))
    assert len(aux) == 6
    assert all(arc.copy == 0 for arc in aux.arcs)
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
    _, _, segments = pipeline(widefan())
    # everything up to the only cut is one piece entered via virtual arcs;
    # the exit arcs of that piece already end at the target
    assert [s.seg_type.name for s in segments] == ["IV"]
    lead = segments[0]
    assert all(str(a.edge).startswith("~") for a in lead.entry_arcs)
    assert lead.interior == frozenset(widefan().graph.nodes) - {"t"}
    assert {lead.heads[a] for a in lead.exit_arcs} == {SNK}


def local_connects(seg, arcs, drop=frozenset()):
    live = [a for a in arcs if a not in drop]
    adj = {}
    for a in live:
        adj.setdefault(seg.tails[a], []).append(seg.heads[a])
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
        by_edge.setdefault(a.edge, []).append(a)
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
        edges = [a.edge for a in dominant]
        assert len(edges) == len(set(edges))  # never both copies of one edge
        # dominant crosses each bounding cut once per capacity-2 edge
        entries = {a.edge for a in dominant if a in seg.entry_arcs}
        exits = {a.edge for a in dominant if a in seg.exit_arcs}
        assert len(entries) == 2 and len(exits) == 2


def test_solve_type2_exhaustive_pair_count():
    # at most 4 capacity-2 edges each rule out one of the 6 pairs
    from triflow.decompose import _segment_paths

    _, _, segments = pipeline(diamond2())
    for seg in segments:
        paths = _segment_paths(seg.arcs, seg.tails, seg.heads, 4)
        valid = 0
        for a in range(4):
            for b in range(a + 1, 4):
                edges = [arc.edge for arc in paths[a] + paths[b]]
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
    assert len({a.edge for a in exits}) == 3
    # dominant set enters through both capacity-2 edges
    dom_entries = {a.edge for a in sol.sets[0] if a in seg.entry_arcs}
    assert len(dom_entries) == 2


def test_solve_type4_splitter_structure_in_ladder15():
    _, _, segments = pipeline(ladder15())
    seg = segments[3]
    assert seg.seg_type is SegmentType.IV
    sol = solve_segment(seg)
    assert sol.splitter == "a4"
    dom_exits = {a.edge for a in sol.sets[0] if a in seg.exit_arcs}
    assert len(dom_exits) == 2


def test_glue_single_segment_identity():
    cond, aux, segments = pipeline(demotable5())
    assert len(segments) == 1
    sols = [solve_segment(s) for s in segments]
    sets, dominant = glue_segments(segments, sols)
    assert sets[sols[0].dominant or 0] == sols[0].sets[sols[0].dominant or 0]
    assert dominant == sols[0].dominant


def test_glue_multi_segment_disjoint_and_connected():
    for net in (tripath(), diamond2(), ladder15(), widefan()):
        cond, aux, segments = pipeline(net)
        sols = [solve_segment(s) for s in segments]
        sets, dominant = glue_segments(segments, sols)
        all_arcs = [a for s in sets for a in s]
        assert len(all_arcs) == len(set(all_arcs))
        assert all(not str(a.edge).startswith("~") for a in all_arcs)


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
    from triflow import GenParams, generate

    seen = 0
    for seed in range(10):
        net = generate(GenParams(node_count=30, seed=seed))
        _, _, segments = pipeline(net)
        for seg in segments:
            if seg.seg_type not in (SegmentType.III, SegmentType.IV):
                continue
            sol = solve_segment(seg)
            exits = [{a.edge for a in s if a in seg.exit_arcs} for s in sol.sets]
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
