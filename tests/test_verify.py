import dataclasses
import random
import time

import pytest

from triflow import (Arc, CodingNetwork, Digraph, Feasibility, FeasibilityKind,
                     Network, NodeRole, RecoveryPlan, Role, classify_feasibility,
                     decompose, derive_coding_capacities, files,
                     survivability_by_removal, verify_plan)
from triflow import verify
from triflow.plan import Subflows, Violation
from triflow.netgen import GenParams, generate
from triflow.simulate import Generation, failure_sweep, simulate_transmission
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
        subflows=Subflows.from_arcs({"A": a_arcs, "B": b_arcs, "XOR": xor_arcs}, net.graph),
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
        subflows=Subflows.from_arcs({"A": plan.subflows["A"],
                                     "B": plan.subflows["B"] | {arc},
                                     "XOR": plan.subflows["XOR"]}, net.graph),
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
        subflows=Subflows.from_arcs(
            {"A": {Arc(e("s", "m1"), 0), Arc(e("m1", "t"), 0)}, "B": set(),
             "XOR": {Arc(e("s", "m2"), 0), Arc(e("m2", "t"), 0)}}, net.graph),
        roles=(), feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6))
    report = verify_plan(coding(net), plan)
    assert not report.connectivity["B"]
    assert not report.overall


def test_verify_reports_an_absent_label():
    net = tripath()
    e = lambda tl, hd: _edge(net, tl, hd)
    plan = RecoveryPlan(
        subflows=Subflows.from_arcs(
            {"A": {Arc(e("s", "m1"), 0), Arc(e("m1", "t"), 0)},
             "B": {Arc(e("s", "m2"), 0), Arc(e("m2", "t"), 0)}}, net.graph),
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
        subflows=Subflows.from_arcs(
            {"A": {Arc(e("s", "m1"), 0), Arc(e("m1", "t"), 0)},
             "B": {Arc(e("s", "m1"), 1), Arc(e("m1", "t"), 1)},
             "XOR": {Arc(e("s", "m3"), 0), Arc(e("m3", "t"), 0)}}, net.graph),
        roles=(), feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6))
    with pytest.raises(PlanReferenceError):
        verify_plan(coding(net), plan)


def test_verify_rejects_unknown_edge():
    net, plan = handmade_ladder15_plan()
    # a plan cannot hold an edge its graph lacks: the smallest such arc is named
    ghosts = {"A": plan.subflows["A"] | {Arc("ghost", 0)},
              "B": plan.subflows["B"] | {Arc("boo", 1), Arc("ghost", 2)}}
    with pytest.raises(PlanReferenceError, match="^plan references unknown edge 'boo'$"):
        Subflows.from_arcs(ghosts, net.graph)
    with pytest.raises(PlanReferenceError, match="'boo'"):
        dataclasses.replace(plan, subflows=ghosts)
    # nor be verified against a graph without one of its edges
    cn = coding(net)
    gone = sorted(arc.edge for arc in plan.subflows["B"])[:2]
    smaller = dataclasses.replace(cn, graph=net.graph.subgraph(
        [e for e in net.graph.edge_ids if e not in gone], extra_nodes=net.graph.nodes))
    with pytest.raises(PlanReferenceError,
                       match=f"^plan references unknown edge {gone[0]!r}$"):
        verify_plan(smaller, plan)


def test_verify_checks_roles():
    net = ladder15()
    cn = coding(net)
    plan = decompose(net)
    assert plan.roles and plan.verification.overall
    # a plan file whose roles were replaced by three copies of one bogus role
    data = files.plan_to_json(plan)
    data["roles"] = [{"node": "t", "role": "splitter", "label": "A"}] * 3
    report = verify_plan(cn, files.plan_from_json(data, net))
    assert not report.overall
    assert [v.kind for v in report.violations] == ["roles"] * 3
    assert "A splitter at node 't' has 0 out-arcs of its label" in report.violations[0].detail
    assert "is listed more than once" in report.violations[1].detail
    # each valid role passes once and fails when listed twice
    role = plan.roles[0]
    twice = verify_plan(cn, dataclasses.replace(plan, roles=(role, *plan.roles)))
    assert [v.kind for v in twice.violations] == ["roles"]
    # the same node with the other role, or under another label, is checked apart
    other = Role.MERGER if role.role is Role.SPLITTER else Role.SPLITTER
    moved = [NodeRole(role.node, other, role.label),
             NodeRole(role.node, role.role, next(l for l in ("A", "B", "XOR")
                                                 if l != role.label))]
    assert all(not verify_plan(cn, dataclasses.replace(plan, roles=(r,))).overall
               for r in moved)


def test_roles_count_both_copies_of_an_edge():
    edges = [("sa", "s", "a"), ("at", "a", "t")]
    cn = CodingNetwork(graph=Digraph(["s", "a", "t"], edges),
                       coding_cap={"sa": 2, "at": 1}, source="s", target="t")
    plan = dataclasses.replace(
        _one_label_plan(cn.graph, [Arc("sa", 0), Arc("sa", 1), Arc("at", 0)]),
        roles=(NodeRole("s", Role.SPLITTER, "A"), NodeRole("a", Role.MERGER, "A"),
               NodeRole("a", Role.SPLITTER, "A")))
    roles = [v.detail for v in verify_plan(cn, plan).violations if v.kind == "roles"]
    assert roles == ["A splitter at node 'a' has 1 out-arcs of its label"]


def test_a_role_outside_role_is_checked_apart():
    net = ladder15()
    cn = coding(net)
    plan = decompose(net)
    # a plain string role, listed twice: no degree to read, then a duplicate
    bogus = NodeRole("s", "splitter", "XOR")
    report = verify_plan(cn, dataclasses.replace(plan, roles=(bogus, bogus)))
    assert [v.detail for v in report.violations] == [
        "XOR splitter at node 's' has 0 arcs of its label",
        "XOR splitter at node 's' is listed more than once"]
    # nor is it a duplicate of a `Role` role at the same place, whatever it is
    role = plan.roles[0]
    for other in (0, 1, role.role.value):
        mixed = (role, NodeRole(role.node, other, role.label))
        details = [v.detail for v in verify_plan(
            cn, dataclasses.replace(plan, roles=mixed)).violations]
        assert details == [f"{role.label} {other} at node {role.node!r} "
                           "has 0 arcs of its label"]


def count_route_builds(monkeypatch) -> list:
    """A list that gets the `Subflows` of each route index built from now on."""
    builds = []
    routes = Subflows.routes.fget
    monkeypatch.setattr(Subflows, "routes", property(
        lambda self: (self._routes is None and builds.append(self)) or routes(self)))
    return builds


def test_route_index_follows_the_plan_and_the_graph(monkeypatch):
    net, plan = handmade_ladder15_plan()
    cn = coding(net)
    builds = count_route_builds(monkeypatch)
    report = verify_plan(cn, plan)
    assert report.overall and builds == [plan.subflows]
    assert list(plan.subflows.survivors) == [(cn.source, cn.target)]
    with pytest.raises(TypeError):
        plan.subflows["XOR"] = frozenset()
    # a verified plan shares the subflows and what they keep; a plan given
    # other subflows starts without them, so the verified plan's index
    # cannot answer for them
    gen = Generation(seq=1, payload_a=b"\x01", payload_b=b"\x02")
    verified = plan.with_verification(report)
    assert verified.subflows is plan.subflows
    swept = failure_sweep(cn, verified, gen)
    xor = sorted(verified.subflows["XOR"])
    dropped = dataclasses.replace(verified, subflows={**verified.subflows,
                                                      "XOR": frozenset(xor[1:])})
    assert dropped.subflows.graph is cn.graph and dropped.subflows.survivors == {}
    assert not verify_plan(cn, dropped).overall
    assert failure_sweep(cn, dropped, gen) != swept
    assert builds == [plan.subflows, dropped.subflows]
    # a second graph object with the same ids is interned anew on each call,
    # and the plan keeps nothing for it: here its edge from a0 to a1 runs
    # the other way, which cuts A off
    flipped = CodingNetwork(
        graph=Digraph(net.graph.nodes,
                      [(e, *((hd, tl) if (tl, hd) == ("a0", "a1") else (tl, hd)))
                       for e, tl, hd in net.graph.edges()]),
        coding_cap=cn.coding_cap, source=cn.source, target=cn.target)
    assert not verify_plan(flipped, plan).connectivity["A"]
    assert not verify_plan(flipped, plan).connectivity["A"]
    assert len(builds) == 4 and all(b.graph is flipped.graph for b in builds[2:])
    assert verify_plan(cn, plan) == report
    assert len(builds) == 4 and list(plan.subflows.survivors) == [(cn.source, cn.target)]


def test_route_index_is_built_once_per_plan(monkeypatch):
    net = generate(GenParams(node_count=40, seed=1))
    cn = coding(net)
    builds = count_route_builds(monkeypatch)
    plan = decompose(net)  # its own verification builds the index
    assert verify_plan(cn, plan) == plan.verification
    gen = Generation(seq=3, payload_a=b"\x01", payload_b=b"\x02")
    edges = random.Random(13).sample(net.graph.edge_ids, 24)
    outcomes = [simulate_transmission(cn, plan, gen, failed_edge=e) for e in edges]
    failure_sweep(cn, plan, gen)
    assert builds == [plan.subflows]
    assert all(o.decoded == (gen.payload_a, gen.payload_b) for o in outcomes)


def test_route_index_of_a_wide_fan_builds_in_linear_time():
    # label A holds copy 0 of 40k parallel s->t edges, so one node has 40k
    # out-edges in one label; an index quadratic in that takes seconds
    k = 40000
    net = Network(graph=Digraph(["s", "t"], [(e, "s", "t") for e in range(k)]),
                  free_cap=dict.fromkeys(range(k), 1), source="s", target="t")
    plan = files.plan_from_json(
        {"class": "network_coding",
         "subflows": {"A": [{"edge": e, "copy": 0} for e in range(k)], "B": [], "XOR": []}},
        net)
    started = time.perf_counter()
    routes = plan.subflows.routes
    assert time.perf_counter() - started < 1.0
    s, t = net.graph._index["s"], net.graph._index["t"]
    assert list(routes["A"][s]) == [(e, t) for e in range(k)]
    assert not routes["A"][t] and not any(routes["B"]) and not any(routes["XOR"])
    assert plan.subflows._indegrees["A"][t] == k


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
    plan = RecoveryPlan(subflows=Subflows.from_arcs(subflows, cn.graph), roles=(),
                        feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6))
    return cn, plan


def test_survivability_matches_removal_on_general_digraphs():
    rng = random.Random(20141)
    connected = cut = cyclic = 0
    for _ in range(3000):
        cn, plan = _random_plan_case(rng)
        report = verify_plan(cn, plan)
        assert report.survivability == survivability_by_removal(cn, plan)
        flagged = {v.detail.split()[1] for v in report.violations if v.kind == "acyclicity"}
        for label in ("A", "B", "XOR"):
            ok = _label_reaches(cn.graph, plan.subflows[label], cn.source, cn.target)
            assert report.connectivity[label] == ok
            connected += ok
            cut += ok and any(label not in v for v in report.survivability.values())
            # a cycle runs through an arc iff its head reaches its tail
            ends = list(map(cn.graph.ends, (arc.edge for arc in plan.subflows[label])))
            out = {}
            for tail, head in ends:
                out.setdefault(tail, []).append((None, head))
            loop = any(tail in reach(out, head) for tail, head in ends)
            assert (label in flagged) == loop
            cyclic += loop
    assert connected >= 2000 and cut >= 1000 and 1000 <= cyclic <= 8000


def _one_label_plan(graph, arcs):
    return RecoveryPlan(subflows=Subflows.from_arcs({"A": set(arcs), "B": (), "XOR": ()},
                                                    graph),
                        roles=(), feasibility=Feasibility(FeasibilityKind.NETWORK_CODING, 6))


def test_bridges_through_a_two_cycle():
    # the only s-t route is s->a->b->t; b->a closes a 2-cycle on it
    edges = [("sa", "s", "a"), ("ab", "a", "b"), ("ba", "b", "a"), ("bt", "b", "t")]
    cn = CodingNetwork(graph=Digraph(["s", "a", "b", "t"], edges),
                       coding_cap={e: 1 for e, _, _ in edges}, source="s", target="t")
    report = verify_plan(cn, _one_label_plan(cn.graph, (Arc(e, 0) for e, _, _ in edges)))
    assert report.connectivity["A"]
    assert {e for e, v in report.survivability.items() if "A" not in v} == {"sa", "ab", "bt"}
    # the 2-cycle itself is a violation, and the only one of its kind
    assert [v for v in report.violations if v.kind == "acyclicity"] == [
        Violation("acyclicity", "subflow A holds a directed cycle")]
    assert not report.overall


def test_both_copies_of_one_edge_fail_together():
    edges = [("sa", "s", "a"), ("at", "a", "t"), ("st", "s", "t")]
    cn = CodingNetwork(graph=Digraph(["s", "a", "t"], edges),
                       coding_cap={"sa": 2, "at": 2, "st": 1}, source="s", target="t")
    plan = _one_label_plan(cn.graph, [Arc("sa", 0), Arc("sa", 1), Arc("at", 0)])
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


def _ladder15_plan_data():
    net = ladder15()
    return net, files.plan_to_json(decompose(net))


@pytest.mark.parametrize("corrupt,error,message", [
    pytest.param(lambda a, b: a[0].update(edge="zz"), PlanReferenceError,
                 "subflow A references unknown edge 'zz'", id="unknown-edge"),
    pytest.param(lambda a, b: a[0].pop("copy"), files.FormatError,
                 "subflows[A][0] must have an integer or string edge and an integer copy",
                 id="entry-shape"),
])
def test_plan_loader_messages(corrupt, error, message):
    net, data = _ladder15_plan_data()
    corrupt(data["subflows"]["A"], data["subflows"]["B"])
    with pytest.raises(error) as err:
        files.plan_from_json(data, net)
    assert str(err.value) == message


@pytest.mark.parametrize("copy", [1])
def test_copy_out_of_range_is_reported_by_the_verifier(copy):
    # copies other than 0 and 1 are refused at load (tests/test_files.py)
    net, data = _ladder15_plan_data()
    cap = coding(net).coding_cap
    arcs = data["subflows"]["A"]
    # the smallest arc of A on a capacity-1 edge, so copy 1 is out of range too
    arc = min((a for a in arcs if cap[a["edge"]] == 1), key=lambda a: a["edge"])
    arc["copy"] = copy
    plan = files.plan_from_json(data, net)
    with pytest.raises(PlanReferenceError) as err:
        verify_plan(coding(net), plan)
    assert str(err.value) == f"copy {copy} out of range for edge {arc['edge']!r}"


def test_arc_in_two_labels_is_reported_by_the_verifier():
    net, data = _ladder15_plan_data()
    shared = data["subflows"]["A"][0]
    data["subflows"]["B"].append(dict(shared))
    report = verify_plan(coding(net), files.plan_from_json(data, net))
    arc = Arc(shared["edge"], shared["copy"])
    assert not report.disjointness_ok and not report.capacity_ok
    assert [(v.kind, v.detail) for v in report.violations[:2]] == [
        ("disjointness", f"A and B share arcs [{arc!r}]"),
        ("capacity", f"edge {arc.edge!r} uses 2 arcs, capacity 1")]


def test_decomposed_plan_arrives_with_its_index(monkeypatch):
    net = generate(GenParams(node_count=40, seed=2))
    cn = coding(net)
    plan = decompose(net)
    assert plan.subflows.graph is cn.graph
    assert list(plan.subflows.survivors) == [(cn.source, cn.target)]
    builds = count_route_builds(monkeypatch)
    calls = []
    bridges = verify._bridges
    monkeypatch.setattr(verify, "_bridges", lambda *a: calls.append(a) or bridges(*a))
    gen = Generation(seq=3, payload_a=b"\x01", payload_b=b"\x02")
    assert verify_plan(cn, plan) == plan.verification
    failure_sweep(cn, plan, gen)
    simulate_transmission(cn, plan, gen, failed_edge=net.graph.edge_ids[0])
    assert builds == calls == []


def test_bridges_are_swept_once_per_plan_and_endpoints(monkeypatch):
    net = generate(GenParams(node_count=40, seed=2))
    cn = coding(net)
    decomposed = decompose(net)
    # fresh subflows, which keep nothing yet
    plan = dataclasses.replace(decomposed, subflows=Subflows(decomposed.subflows.ints,
                                                             cn.graph))
    calls = []
    bridges = verify._bridges
    monkeypatch.setattr(verify, "_bridges", lambda *a: calls.append(a) or bridges(*a))
    report = verify_plan(cn, plan)
    sweep = failure_sweep(cn, plan, Generation(seq=3, payload_a=b"\x01", payload_b=b"\x02"))
    assert len(calls) == 3
    assert {e: o.received_labels for e, o in sweep.items()} == report.survivability
