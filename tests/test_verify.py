import random

import pytest

from triflow import (Arc, CodingNetwork, Digraph, Feasibility, FeasibilityKind,
                     Network, RecoveryPlan, classify_feasibility, decompose,
                     derive_coding_capacities, survivability_by_removal, verify_plan)
from triflow.errors import PlanReferenceError, Unprotectable
from triflow.graph import reach

from netfixtures import (chain2, coding, diamond2, ladder15, quadpath,
                         tripath, unit_chain, widefan)
from oracles import TooLarge, brute_force_decomposition_exists, brute_force_feasible


def _edge(net, tail, head):
    return next(e for e, tl, hd in net.graph.edges() if (tl, hd) == (tail, head))


def handmade_ladder15_plan():
    """Transcription of the known-good ladder15 solution: A rides the upper
    rail and splits near the end, B rides the lower rail, XOR splits right
    after the source and merges at b3.  Checked by hand, arc by arc."""
    net = ladder15()
    e = lambda tl, hd: _edge(net, tl, hd)
    a_arcs = {Arc(e("s", "a0"), 0), Arc(e("a0", "a1"), 0), Arc(e("a1", "a2"), 0),
              Arc(e("a2", "a3"), 0), Arc(e("a3", "a4"), 0),
              Arc(e("a4", "b4"), 0), Arc(e("a4", "d4"), 0),
              Arc(e("d4", "t"), 1), Arc(e("b4", "t"), 0)}
    b_arcs = {Arc(e("s", "c0"), 0), Arc(e("c0", "c1"), 1), Arc(e("c1", "c2"), 0),
              Arc(e("c2", "c3"), 1), Arc(e("c3", "d4"), 0), Arc(e("d4", "t"), 0)}
    xor_arcs = {Arc(e("s", "b0"), 0), Arc(e("b0", "a0"), 0), Arc(e("b0", "c0"), 0),
                Arc(e("a0", "a1"), 1), Arc(e("c0", "c1"), 0),
                Arc(e("a1", "c2"), 0), Arc(e("c1", "a2"), 0),
                Arc(e("a2", "a3"), 1), Arc(e("c2", "c3"), 0),
                Arc(e("a3", "b3"), 0), Arc(e("c3", "b3"), 0),
                Arc(e("b3", "b4"), 0), Arc(e("b4", "t"), 1)}
    plan = RecoveryPlan(
        subflows={"A": frozenset(a_arcs), "B": frozenset(b_arcs),
                  "XOR": frozenset(xor_arcs)},
        roles=(),
        feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6),
    )
    return net, plan


def test_verify_handmade_reference_plan():
    net, plan = handmade_ladder15_plan()
    assert sum(len(s) for s in plan.subflows.values()) == 28  # uses every arc
    report = verify_plan(coding(net), plan)
    assert report.overall
    assert report.disjointness_ok and report.capacity_ok
    assert all(report.connectivity.values())
    assert all(len(v) >= 2 for v in report.survivability.values())
    assert report.violations == ()


def test_verify_computed_plans():
    for net in (ladder15(), diamond2(), tripath(), widefan(), quadpath()):
        plan = decompose(net)
        report = verify_plan(coding(net), plan)
        assert report.overall
        assert all(len(v) >= 2 for v in report.survivability.values())


def test_verify_detects_shared_arc():
    net, plan = handmade_ladder15_plan()
    arc = next(iter(plan.subflows["A"]))
    tampered = RecoveryPlan(
        subflows={"A": plan.subflows["A"],
                  "B": plan.subflows["B"] | {arc},
                  "XOR": plan.subflows["XOR"]},
        roles=(), feasibility=plan.feasibility)
    report = verify_plan(coding(net), tampered)
    assert not report.disjointness_ok
    assert not report.overall
    assert any(v.kind == "disjointness" for v in report.violations)


def test_verify_detects_missing_label():
    # 1+1 style: A duplicated on two disjoint paths, B never routed
    net = tripath()
    e = lambda tl, hd: _edge(net, tl, hd)
    plan = RecoveryPlan(
        subflows={"A": frozenset({Arc(e("s", "m1"), 0), Arc(e("m1", "t"), 0)}),
                  "B": frozenset(),
                  "XOR": frozenset({Arc(e("s", "m2"), 0), Arc(e("m2", "t"), 0)})},
        roles=(), feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6))
    report = verify_plan(coding(net), plan)
    assert not report.connectivity["B"]
    assert not report.overall


def test_verify_reports_an_absent_label():
    net = tripath()
    e = lambda tl, hd: _edge(net, tl, hd)
    plan = RecoveryPlan(
        subflows={"A": frozenset({Arc(e("s", "m1"), 0), Arc(e("m1", "t"), 0)}),
                  "B": frozenset({Arc(e("s", "m2"), 0), Arc(e("m2", "t"), 0)})},
        roles=(), feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6))
    report = verify_plan(coding(net), plan)
    assert report.connectivity == {"A": True, "B": True, "XOR": False}
    assert report.disjointness_ok and report.capacity_ok and not report.overall
    assert ("connectivity", "subflow XOR does not connect source to target") in {
        (v.kind, v.detail) for v in report.violations}


def test_verify_detects_capacity_overuse():
    net = tripath()
    e = lambda tl, hd: _edge(net, tl, hd)
    plan = RecoveryPlan(
        subflows={"A": frozenset({Arc(e("s", "m1"), 0), Arc(e("m1", "t"), 0)}),
                  "B": frozenset({Arc(e("s", "m1"), 1), Arc(e("m1", "t"), 1)}),
                  "XOR": frozenset({Arc(e("s", "m3"), 0), Arc(e("m3", "t"), 0)})},
        roles=(), feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6))
    with pytest.raises(PlanReferenceError):
        verify_plan(coding(net), plan)


def test_verify_rejects_unknown_edge():
    net, plan = handmade_ladder15_plan()
    bad = RecoveryPlan(
        subflows={"A": plan.subflows["A"] | {Arc("ghost", 0)},
                  "B": plan.subflows["B"], "XOR": plan.subflows["XOR"]},
        roles=(), feasibility=plan.feasibility)
    with pytest.raises(PlanReferenceError):
        verify_plan(coding(net), bad)


def test_survivability_matches_removal_oracle():
    for net in (ladder15(), diamond2(), tripath(), widefan(), quadpath()):
        cn = coding(net)
        plan = decompose(net)
        fast = verify_plan(cn, plan).survivability
        slow = survivability_by_removal(cn, plan)
        assert fast == slow


def test_brute_force_feasible_fixtures():
    assert brute_force_feasible(coding(ladder15()))
    assert brute_force_feasible(coding(tripath()))
    assert brute_force_feasible(coding(diamond2()))
    assert brute_force_feasible(coding(widefan()))
    assert not brute_force_feasible(coding(chain2()))
    assert not brute_force_feasible(coding(unit_chain()))


def test_brute_force_decomposition_fixtures():
    assert brute_force_decomposition_exists(coding(diamond2()))
    assert brute_force_decomposition_exists(coding(tripath()))
    assert not brute_force_decomposition_exists(coding(chain2()))
    assert not brute_force_decomposition_exists(coding(unit_chain()))


def test_brute_force_decomposition_size_bound():
    with pytest.raises(TooLarge):
        brute_force_decomposition_exists(coding(ladder15()))


def test_decompose_agrees_with_exhaustive_witness_search():
    from triflow import Digraph, Network, derive_coding_capacities
    from triflow.errors import Unprotectable
    import random

    rng = random.Random(7)
    checked_feasible = 0
    for trial in range(60):
        n = rng.randint(2, 4)
        nodes = [f"n{i}" for i in range(n)]
        m = rng.randint(1, 5)
        edges = []
        caps = {}
        for i in range(m):
            tail = rng.choice(nodes)
            head = rng.choice([v for v in nodes if v != tail])
            edges.append((i, tail, head))
            caps[i] = rng.choice((1, 1, 2))
        net = Network(graph=Digraph(nodes, edges), free_cap=caps,
                      source="n0", target=nodes[-1])
        cn = derive_coding_capacities(net)
        if sum(cn.coding_cap.values()) > 12:
            continue
        witness = brute_force_decomposition_exists(cn)
        try:
            plan = decompose(net)
            produced = True
        except Unprotectable:
            produced = False
        assert produced == witness
        checked_feasible += witness
    assert checked_feasible >= 1


def _label_reaches(g, arcs, s, t):
    out = {}
    for arc in arcs:
        tail, head = g.ends(arc.edge)
        out.setdefault(tail, []).append((arc, head))
    return t in reach(out, s)


def _random_plan_case(rng):
    """A general digraph of 2-9 nodes (cycles, antiparallel and parallel
    edges, mixed int/str ids) and three labels drawn arc by arc, so labels
    may be empty, disconnected, overlapping or use both copies of an edge."""
    n = rng.randint(2, 9)
    nodes = [rng.choice((i, f"v{i}")) for i in range(n)]
    edges, cap = [], {}
    for i in range(rng.randint(0, 3 * n)):
        tail, head = rng.sample(nodes, 2)
        eid = rng.choice((i, f"e{i}"))
        edges.append((eid, tail, head))
        cap[eid] = rng.randint(1, 2)
    s, t = nodes[0], nodes[-1]
    roll = rng.random()
    if roll < 0.05:
        s = "outside"
    elif roll < 0.10:
        t = "outside"
    elif roll < 0.12:
        t = s
    arcs = [Arc(eid, copy) for eid in cap for copy in range(cap[eid])]
    subflows = {}
    for label in ("A", "B", "XOR"):
        p = rng.choice((0.0, 0.4, 0.7, 0.9))
        subflows[label] = frozenset(a for a in arcs if rng.random() < p)
    cn = CodingNetwork(graph=Digraph(nodes, edges), coding_cap=cap,
                       source=s, target=t)
    plan = RecoveryPlan(subflows=subflows, roles=(),
                        feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6))
    return cn, plan


def test_survivability_matches_removal_on_general_digraphs():
    rng = random.Random(20141)
    connected = cut = 0
    for _ in range(3000):
        cn, plan = _random_plan_case(rng)
        report = verify_plan(cn, plan)
        assert report.survivability == survivability_by_removal(cn, plan)
        for label in ("A", "B", "XOR"):
            ok = _label_reaches(cn.graph, plan.subflows[label], cn.source, cn.target)
            assert report.connectivity[label] == ok
            connected += ok
            cut += ok and any(label not in v for v in report.survivability.values())
    assert connected >= 2000 and cut >= 1000


def _one_label_plan(arcs):
    return RecoveryPlan(subflows={"A": frozenset(arcs), "B": frozenset(),
                                  "XOR": frozenset()},
                        roles=(), feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6))


def test_bridges_through_a_two_cycle():
    # the only s-t route is s->a->b->t; b->a closes a 2-cycle on it
    edges = [("sa", "s", "a"), ("ab", "a", "b"), ("ba", "b", "a"), ("bt", "b", "t")]
    cn = CodingNetwork(graph=Digraph(["s", "a", "b", "t"], edges),
                       coding_cap={e: 1 for e, _, _ in edges}, source="s", target="t")
    report = verify_plan(cn, _one_label_plan(Arc(e, 0) for e, _, _ in edges))
    assert report.connectivity["A"]
    assert {e for e, v in report.survivability.items() if "A" not in v} == {"sa", "ab", "bt"}


def test_both_copies_of_one_edge_fail_together():
    edges = [("sa", "s", "a"), ("at", "a", "t"), ("st", "s", "t")]
    cn = CodingNetwork(graph=Digraph(["s", "a", "t"], edges),
                       coding_cap={"sa": 2, "at": 2, "st": 1}, source="s", target="t")
    plan = _one_label_plan([Arc("sa", 0), Arc("sa", 1), Arc("at", 0)])
    report = verify_plan(cn, plan)
    assert report.connectivity["A"]
    assert "A" not in report.survivability["sa"]
    assert "A" not in report.survivability["at"]
    assert "A" in report.survivability["st"]


def general_digraph_networks():
    """3k seeded general digraphs of 3-8 nodes and n-5n edges (cycles,
    antiparallel and parallel edges) with free capacities 0-3."""
    rng = random.Random(20142)
    for _ in range(3000):
        n = rng.randint(3, 8)
        nodes = list(range(n))
        edges = [(i, *rng.sample(nodes, 2)) for i in range(rng.randint(n, 5 * n))]
        yield Network(graph=Digraph(nodes, edges),
                      free_cap={i: rng.randint(0, 3) for i, _, _ in edges},
                      source=0, target=n - 1)


def test_decompose_on_general_digraphs_agrees_with_classifier():
    protected = 0
    for net in general_digraph_networks():
        cn = derive_coding_capacities(net)
        try:
            plan = decompose(net)
        except Unprotectable:
            plan = None
        assert (plan is not None) == classify_feasibility(cn).protectable
        if plan is not None:
            protected += 1
            assert plan.verification.survivability == survivability_by_removal(cn, plan)
    assert protected >= 500
