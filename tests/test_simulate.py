import dataclasses
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from triflow import (Arc, Digraph, FeasibilityKind, Generation, Network,
                     RecoveryPlan, decode, decompose, derive_coding_capacities,
                     encode, failure_sweep, generate, simulate_transmission,
                     survivability_by_removal, verify_plan)
from triflow.errors import (GenerationFailed, InsufficientLabels, LengthMismatch,
                            PlanReferenceError, Unprotectable)
from triflow.netgen import GenParams, Structure
from triflow import simulate
from triflow.plan import Subflows

from netfixtures import coding, diamond2, ladder15, tripath
from oracles import reference_failure_sweep, reference_simulate_transmission
from test_golden import MIXED_CORPUS, mixed_ids
from test_verify import general_digraph_networks


def test_encode_identities():
    assert encode(b"\x00\x00", b"\xab\xcd")["XOR"] == b"\xab\xcd"
    assert encode(b"\x55\x55", b"\x55\x55")["XOR"] == b"\x00\x00"
    assert encode(b"\xf0", b"\x0f")["XOR"] == b"\xff"


def test_encode_length_mismatch():
    with pytest.raises(LengthMismatch):
        encode(b"\x00", b"\x00\x00")


def test_decode_rules():
    assert decode({"A": b"\x12", "B": b"\x34"}) == (b"\x12", b"\x34")
    assert decode({"A": b"\x12", "XOR": b"\x37"}) == (b"\x12", b"\x25")
    assert decode({"B": b"\x25", "XOR": b"\x37"}) == (b"\x12", b"\x25")


def test_decode_insufficient():
    with pytest.raises(InsufficientLabels):
        decode({"XOR": b"\x00"})
    with pytest.raises(InsufficientLabels):
        decode({})


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.binary(min_size=0, max_size=64))
def test_decode_encode_roundtrip_any_two_labels(a, b):
    if len(a) != len(b):
        a = a[:min(len(a), len(b))]
        b = b[:len(a)]
    packets = encode(a, b)
    for drop in ("A", "B", "XOR"):
        received = {k: v for k, v in packets.items() if k != drop}
        assert decode(received) == (a, b)


def test_simulation_without_failure():
    net = ladder15()
    plan = decompose(net)
    gen = Generation(seq=1, payload_a=b"\x01\x02", payload_b=b"\xfe\xff")
    outcome = simulate_transmission(coding(net), plan, gen)
    assert outcome.received_labels == frozenset(("A", "B", "XOR"))
    assert outcome.decoded == (b"\x01\x02", b"\xfe\xff")
    assert outcome.recovered_via == ("A", "B")


def test_simulation_does_not_read_the_plan_report():
    # a plan is simulated as it is; whether it is sound is `verify_plan`'s call
    net = ladder15()
    plan = decompose(net)
    gen = Generation(seq=0, payload_a=b"\x01", payload_b=b"\x02")
    bare = plan.with_verification(None)
    assert failure_sweep(coding(net), bare, gen) == failure_sweep(coding(net), plan, gen)
    for edge in net.graph.edge_ids:
        assert (simulate_transmission(coding(net), bare, gen, failed_edge=edge)
                == simulate_transmission(coding(net), plan, gen, failed_edge=edge))


def test_simulation_rejects_unknown_plan_edge():
    net = ladder15()
    plan = decompose(net)
    ghost = {**plan.subflows, "B": plan.subflows["B"] | {Arc("ghost", 0)}}
    with pytest.raises(PlanReferenceError, match="ghost"):
        dataclasses.replace(plan, subflows=ghost)
    # the plan simulated on a graph without one of its edges
    gone = min(arc.edge for arc in plan.subflows["B"])
    cn = dataclasses.replace(coding(net), graph=net.graph.subgraph(
        [e for e in net.graph.edge_ids if e != gone], extra_nodes=net.graph.nodes))
    gen = Generation(seq=0, payload_a=b"\x00", payload_b=b"\x00")
    with pytest.raises(PlanReferenceError, match=repr(gone)):
        simulate_transmission(cn, plan, gen)
    with pytest.raises(PlanReferenceError, match=repr(gone)):
        failure_sweep(cn, plan, gen)


def test_failing_a_non_edge_is_no_failure():
    net = ladder15()
    gen = Generation(seq=0, payload_a=b"\x01", payload_b=b"\x02")
    outcome = simulate_transmission(coding(net), decompose(net), gen,
                                    failed_edge="no-such-edge")
    assert outcome.received_labels == frozenset(("A", "B", "XOR"))
    assert outcome.recovered_via == ("A", "B")


def test_simulation_failure_on_single_label_edge():
    net = ladder15()
    cn = coding(net)
    plan = decompose(net)
    gen = Generation(seq=0, payload_a=b"\xaa\x01", payload_b=b"\x55\x02")
    survivors = plan.verification.survivability
    edge = next(e for e in net.graph.edge_ids
                if survivors[e] == frozenset(("B", "XOR")))
    outcome = simulate_transmission(cn, plan, gen, failed_edge=edge)
    assert outcome.received_labels == frozenset(("B", "XOR"))
    assert outcome.recovered_via == ("B", "XOR")
    assert outcome.decoded == (gen.payload_a, gen.payload_b)


def test_sweep_matches_survivability_map():
    for net in (ladder15(), diamond2(), tripath()):
        cn = coding(net)
        plan = decompose(net)
        gen = Generation(seq=3, payload_a=b"\x10\x20\x30", payload_b=b"\x0a\x0b\x0c")
        outcomes = failure_sweep(cn, plan, gen)
        assert set(outcomes) == set(net.graph.edge_ids)
        for edge, outcome in outcomes.items():
            assert outcome.received_labels == plan.verification.survivability[edge]
            assert outcome.decoded == (gen.payload_a, gen.payload_b)
    # the verifier shares one set object per distinct survivor set
    survivability = verify_plan(coding(ladder15()), decompose(ladder15())).survivability
    assert len(set(map(id, survivability.values()))) == len(set(survivability.values())) == 4


def _twin_arc_plan():
    """A hand-made verified plan whose A subflow uses both copies of the
    capacity-2 edge 0 (no decomposed plan in the corpus does)."""
    edges = [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "c"), ("c", "t")]
    net = Network(graph=Digraph(["s", "a", "b", "c", "t"],
                                [(i, u, v) for i, (u, v) in enumerate(edges)]),
                  free_cap={0: 2, 1: 2, 2: 1, 3: 1, 4: 1, 5: 1},
                  source="s", target="t")
    cn = coding(net)
    plan = RecoveryPlan(
        subflows=Subflows.from_arcs({"A": {Arc(0, 0), Arc(0, 1), Arc(1, 0)},
                                     "B": {Arc(2, 0), Arc(3, 0)},
                                     "XOR": {Arc(4, 0), Arc(5, 0)}}, cn.graph),
        roles=(), feasibility=None)
    return cn, plan.with_verification(verify_plan(cn, plan))


def _sweep_corpus():
    """(coding network, verified plan): pinned networks, seeded LADDER and
    RANDOM_DAG networks of 8-64 nodes, and the twin-arc plan."""
    nets = [ladder15(), diamond2(), tripath()]
    for i, size in enumerate(range(8, 65, 8)):
        nets.append(generate(GenParams(node_count=size, seed=100 + i)))
        kind = (FeasibilityKind.NETWORK_CODING, FeasibilityKind.DIVERSITY_CODING)[i % 2]
        nets.append(generate(GenParams(node_count=size, seed=200 + i,
                                       structure=Structure.RANDOM_DAG,
                                       target_class=kind)))
    yield from ((coding(net), decompose(net)) for net in nets)
    yield _twin_arc_plan()


def test_sweep_matches_single_failure_simulation():
    gen = Generation(seq=5, payload_a=b"\x3c\x5a", payload_b=b"\xc3\xa5")
    shared = both_copies = 0
    for cn, plan in _sweep_corpus():
        assert plan.verification.overall
        for edge, swept in failure_sweep(cn, plan, gen).items():
            alone = simulate_transmission(cn, plan, gen, failed_edge=edge)
            assert swept == alone, edge  # arc_sends is left out of ==
            assert swept.received_labels == plan.verification.survivability[edge]
            uses = [sum(arc.edge == edge for arc in arcs) for arcs in plan.subflows.values()]
            shared += sum(n > 0 for n in uses) >= 2
            both_copies += 2 in uses
    # the re-flood bookkeeping is exercised where it can go wrong: an edge
    # shared by two labels, and one label on both copies of an edge
    assert shared and both_copies


def test_cached_route_index_matches_a_fresh_one():
    # every outcome on a plan whose index is kept equals the outcome on a
    # copy with fresh subflows that builds its own, send counts included
    gen = Generation(seq=8, payload_a=b"\x66\x01", payload_b=b"\x99\x02")

    def seen(o):  # arc_sends in its order too
        return o.received_labels, o.decoded, o.recovered_via, list(o.arc_sends.items())

    compared = 0
    for cn, plan in _sweep_corpus():
        assert verify_plan(cn, plan) == plan.verification  # caches the index
        for edge in (None, *cn.graph.edge_ids):
            cached = simulate_transmission(cn, plan, gen, failed_edge=edge)
            copy = dataclasses.replace(plan, subflows=Subflows(plan.subflows.ints, cn.graph))
            fresh = simulate_transmission(cn, copy, gen, failed_edge=edge)
            assert seen(cached) == seen(fresh), edge
            assert cached._forwarded[0] is plan.subflows
            assert fresh._forwarded[0] is copy.subflows
            compared += 1
    assert compared > 1000


def _simulation_corpus():
    """The sweep corpus plus the golden test's networks relabelled to mixed
    int/str node and edge ids."""
    yield from _sweep_corpus()
    for params in MIXED_CORPUS:
        try:
            net = mixed_ids(generate(params))
            plan = decompose(net)
        except (GenerationFailed, Unprotectable):
            continue
        yield coding(net), plan


def _assert_matches_reference(cn, plan, gen):
    """Every single failure of `plan`, no failure and a non-edge's give the
    reference simulation's outcome and send counts."""
    for failed in (None, *cn.graph.edge_ids, "no-such-edge"):
        got = simulate_transmission(cn, plan, gen, failed_edge=failed)
        want = reference_simulate_transmission(cn, plan, gen, failed_edge=failed)
        assert (got.received_labels, got.decoded, got.recovered_via) == (
            want.received_labels, want.decoded, want.recovered_via), failed
        assert got.arc_sends == want.arc_sends, failed


def test_simulation_matches_reference():
    gen = Generation(seq=7, payload_a=b"\x0f\xf0", payload_b=b"\x33\xcc")
    mixed = 0
    for cn, plan in _simulation_corpus():
        _assert_matches_reference(cn, plan, gen)
        mixed += len({type(e) for e in cn.graph.edge_ids}) > 1
    assert mixed


def _handmade_plan(edges, subflows, violations=()):
    """A plan on unit-capacity `edges` [(id, tail, head)] from s to t, with
    subflows given as label -> edge ids (copy 0 of each), and its report,
    whose violations are exactly of the kinds `violations`, in order."""
    nodes = {v for _, tail, head in edges for v in (tail, head)}
    net = Network(graph=Digraph(nodes, edges), free_cap={e: 1 for e, _, _ in edges},
                  source="s", target="t")
    cn = coding(net)
    plan = RecoveryPlan(
        subflows=Subflows.from_arcs({label: [Arc(e, 0) for e in ids]
                                     for label, ids in subflows.items()}, cn.graph),
        roles=(), feasibility=None)
    plan = plan.with_verification(verify_plan(cn, plan))
    assert [v.kind for v in plan.verification.violations] == list(violations)
    return cn, plan


def _cyclic_label_plan():
    """A's edges hold the directed cycle a -> b -> c -> a, which the verifier
    refuses, and A reaches t from b and from c, so only sa and ab cut A
    off."""
    edges = [("sa", "s", "a"), ("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a"),
             ("bt", "b", "t"), ("ct", "c", "t"),
             ("sd", "s", "d"), ("dt", "d", "t"), ("se", "s", "e"), ("et", "e", "t")]
    return _handmade_plan(edges, {"A": ["sa", "ab", "bc", "ca", "bt", "ct"],
                                  "B": ["sd", "dt"], "XOR": ["se", "et"]},
                          violations=["acyclicity"])


def _parallel_edge_plan():
    """A uses the parallel edges p and q from s to a, so neither cuts A
    off; only at does."""
    edges = [("p", "s", "a"), ("q", "s", "a"), ("at", "a", "t"),
             ("sd", "s", "d"), ("dt", "d", "t"), ("se", "s", "e"), ("et", "e", "t")]
    return _handmade_plan(edges, {"A": ["p", "q", "at"],
                                  "B": ["sd", "dt"], "XOR": ["se", "et"]})


def _a_plan(edges, violations=()):
    """A plan whose A subflow is all of `edges` and whose B and XOR are one
    s-t path each, through d and e."""
    side = [("sd", "s", "d"), ("dt", "d", "t"), ("se", "s", "e"), ("et", "e", "t")]
    return _handmade_plan(edges + side, {"A": [e for e, _, _ in edges],
                                         "B": ["sd", "dt"], "XOR": ["se", "et"]}, violations)


def _chain_end_plans():
    """Hand-made plans whose A subflow puts a chain end where a junction
    walk can miss it."""
    # s has one in-edge and one out-edge of A: a flood must still start there
    yield _a_plan([("xs", "x", "s"), ("sa", "s", "a"), ("at", "a", "t")])
    yield _a_plan([("sa", "s", "a"), ("ab", "a", "b"), ("bs", "b", "s"), ("at", "a", "t")],
                  ["acyclicity"])
    # t has out-edges of A: a walk must stop at t, not run through it
    yield _a_plan([("sa", "s", "a"), ("at", "a", "t"), ("tc", "t", "c"), ("cf", "c", "f")])
    yield _a_plan([("sa", "s", "a"), ("at", "a", "t"), ("tc", "t", "c"), ("ct", "c", "t")],
                  ["acyclicity"])
    # a chain from j runs back into j; another leaves j for t
    yield _a_plan([("sj", "s", "j"), ("jx", "j", "x"), ("xy", "x", "y"), ("yj", "y", "j"),
                   ("jt", "j", "t")], ["acyclicity"])
    # a cycle of A that s cannot reach, with no junction on it
    yield _a_plan([("sa", "s", "a"), ("at", "a", "t"),
                   ("c1", "u", "v"), ("c2", "v", "w"), ("c3", "w", "u")], ["acyclicity"])
    # A is one s-t path: every failure of it, first, middle and last edge
    yield _a_plan([("p0", "s", "a1"), ("p1", "a1", "a2"), ("p2", "a2", "a3"),
                   ("p3", "a3", "a4"), ("p4", "a4", "t")])


def test_simulation_matches_reference_on_odd_label_shapes():
    gen = Generation(seq=10, payload_a=b"\x5a\x01\x02", payload_b=b"\xa5\x03\x04")
    plans = [_cyclic_label_plan(), _parallel_edge_plan(), _twin_arc_plan(),
             *_chain_end_plans()]
    for cn, plan in plans:
        _assert_matches_reference(cn, plan, gen)
    # the chain-end plans lose A exactly where their s-t walk breaks
    lost = {}
    for cn, plan in plans[3:]:
        lost.update((e, "A" not in simulate_transmission(cn, plan, gen, failed_edge=e)
                     .received_labels) for e in cn.graph.edge_ids if e.startswith(("p", "c")))
    assert lost == {"p0": True, "p1": True, "p2": True, "p3": True, "p4": True,
                    "c1": False, "c2": False, "c3": False, "cf": False, "ct": False}


def test_simulation_matches_reference_on_general_digraphs():
    gen = Generation(seq=11, payload_a=b"\x01", payload_b=b"\x02")
    plans = 0
    for net in islice(general_digraph_networks(), 1500):
        try:
            plan = decompose(net)
        except Unprotectable:
            continue
        _assert_matches_reference(derive_coding_capacities(net), plan, gen)
        plans += 1
    assert plans >= 400


def test_junction_index_is_built_once_per_plan_and_endpoints(monkeypatch):
    net = generate(GenParams(node_count=40, seed=2))
    cn = coding(net)
    gen = Generation(seq=3, payload_a=b"\x01", payload_b=b"\x02")
    built = []  # every index `_junctions` returns
    junctions = simulate._junctions
    monkeypatch.setattr(simulate, "_junctions",
                        lambda *a: built.append(junctions(*a)) or built[-1])
    plan = decompose(net)
    # neither `verify_plan` nor `failure_sweep` builds or reads it
    report = verify_plan(cn, plan)
    sweep = failure_sweep(cn, plan, gen)
    fresh = dataclasses.replace(plan, subflows=Subflows(plan.subflows.ints, cn.graph))
    assert verify_plan(cn, fresh) == report
    assert failure_sweep(cn, fresh, gen) == sweep
    assert not built and not plan.subflows.junctions and not fresh.subflows.junctions
    # 24 single failures and another sweep build it once
    for edge in random.Random(3).sample(cn.graph.edge_ids, 24):
        assert simulate_transmission(cn, plan, gen, failed_edge=edge) == sweep[edge]
    assert failure_sweep(cn, plan, gen) == sweep
    g = cn.graph
    assert len(built) == 24 and all(index is built[0] for index in built)
    assert plan.subflows.junctions == {(g._index[cn.source], g._index[cn.target]): built[0]}
    # other subflows, or other endpoints, build their own
    simulate_transmission(cn, fresh, gen)
    assert built[-1] is not built[0]
    middle = g._nodes_sorted[len(g.nodes) // 2]
    assert middle not in (cn.source, cn.target)
    simulate_transmission(dataclasses.replace(cn, target=middle), plan, gen)
    simulate_transmission(dataclasses.replace(cn, target=middle), plan, gen)
    assert built[-1] is built[-2] not in (built[0], built[24])
    assert len(plan.subflows.junctions) == 2


def test_xor_matches_the_bytewise_generator():
    rng = random.Random(7)
    odd = rng.randbytes(33)
    cases = [(b"", b""), (odd, rng.randbytes(33)), (odd, odd), (b"\x00\x01", b"\x00\x00")]
    for a, b in cases:
        assert simulate._xor(a, b) == bytes(x ^ y for x, y in zip(a, b))
    assert encode(b"", b"") == {"A": b"", "B": b"", "XOR": b""}
    assert encode(odd, odd)["XOR"] == bytes(33)


def test_sweep_matches_reference_sweep():
    gen = Generation(seq=4, payload_a=b"\x5a\x01", payload_b=b"\xa5\x02")
    handmade = [_cyclic_label_plan(), _parallel_edge_plan(), _twin_arc_plan()]
    for cn, plan in (*_simulation_corpus(), *handmade):
        got = failure_sweep(cn, plan, gen)
        want = reference_failure_sweep(cn, plan, gen)
        assert list(got) == list(want) == list(cn.graph.edge_ids)
        for edge, outcome in got.items():
            assert (outcome.received_labels, outcome.decoded, outcome.recovered_via) == (
                want[edge].received_labels, want[edge].decoded,
                want[edge].recovered_via), edge
    cyclic, parallel, _ = (failure_sweep(cn, plan, gen) for cn, plan in handmade)
    assert {e for e, o in cyclic.items() if "A" not in o.received_labels} == {"sa", "ab"}
    assert {e for e, o in parallel.items() if "A" not in o.received_labels} == {"at"}


def test_sweep_matches_removal_on_general_digraphs():
    gen = Generation(seq=6, payload_a=b"\x01", payload_b=b"\x02")
    plans = 0
    for net in general_digraph_networks():
        try:
            plan = decompose(net)
        except Unprotectable:
            continue
        cn = derive_coding_capacities(net)
        removal = survivability_by_removal(cn, plan)
        assert {e: o.received_labels for e, o in failure_sweep(cn, plan, gen).items()} == removal
        plans += 1
    assert plans >= 500


def test_twin_arc_sends():
    cn, plan = _twin_arc_plan()
    gen = Generation(seq=1, payload_a=b"\x01", payload_b=b"\x02")
    sends = simulate_transmission(cn, plan, gen).arc_sends
    assert sends[("A", Arc(0, 0))] == sends[("A", Arc(0, 1))] == 1
    assert len(sends) == 7
    # a failed link still counts what was sent into it
    failed1 = simulate_transmission(cn, plan, gen, failed_edge=1)
    assert failed1.received_labels == frozenset(("B", "XOR"))
    assert failed1.arc_sends == sends
    # nothing reaches A's arc beyond a failed edge 0
    failed0 = simulate_transmission(cn, plan, gen, failed_edge=0).arc_sends
    assert failed0[("A", Arc(0, 0))] == failed0[("A", Arc(0, 1))] == 1
    assert ("A", Arc(1, 0)) not in failed0
    assert len(failed0) == 6


def test_arc_sends_built_on_first_read():
    net = ladder15()
    cn = coding(net)
    plan = decompose(net)
    gen = Generation(seq=2, payload_a=b"\x01", payload_b=b"\x02")
    edge = net.graph.edge_ids[0]
    outcome = simulate_transmission(cn, plan, gen, failed_edge=edge)
    swept = failure_sweep(cn, plan, gen)[edge]
    assert "arc_sends" not in vars(outcome)
    assert outcome == swept and hash(outcome) == hash(swept)
    assert repr(outcome) == repr(swept)
    sends = outcome.arc_sends
    assert sends and outcome.arc_sends is sends and swept.arc_sends == {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.arc_sends = {}


def test_no_arc_carries_a_generation_twice():
    net = ladder15()
    cn = coding(net)
    plan = decompose(net)
    gen = Generation(seq=9, payload_a=b"\x01", payload_b=b"\x02")
    outcome = simulate_transmission(cn, plan, gen)
    assert outcome.arc_sends
    assert all(count == 1 for count in outcome.arc_sends.values())
    # every planned arc carried the packet exactly once in the failure-free run
    planned = sum(len(arcs) for arcs in plan.subflows.values())
    assert len(outcome.arc_sends) == planned


def test_generation_checks_lengths():
    with pytest.raises(LengthMismatch):
        Generation(seq=0, payload_a=b"\x00", payload_b=b"\x00\x01")
    gen = Generation(seq=0, payload_a=b"\x12", payload_b=b"\x25")
    assert encode(gen.payload_a, gen.payload_b)["XOR"] == b"\x37"


def test_bulk_random_roundtrip():
    rng = random.Random(2024)
    for _ in range(500):
        size = rng.randint(0, 32)
        a = rng.randbytes(size)
        b = rng.randbytes(size)
        packets = encode(a, b)
        drop = rng.choice(("A", "B", "XOR"))
        received = {k: v for k, v in packets.items() if k != drop}
        assert decode(received) == (a, b)
