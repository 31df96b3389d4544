import pytest

from triflow import (Arc, Feasibility, FeasibilityKind, RecoveryPlan,
                     decompose, survivability_by_removal, verify_plan)
from triflow.errors import PlanReferenceError

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
