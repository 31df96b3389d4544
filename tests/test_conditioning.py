import importlib

import pytest
from hypothesis import given, settings, strategies as st

from triflow import (Digraph, FeasibilityKind, GenParams, Network, Structure,
                     classify_feasibility, condition_network, decompose,
                     derive_coding_capacities, generate)
from triflow.cutchain import reduced_capacities
from triflow.errors import NotNetworkCodingClass, Unprotectable

from netfixtures import (chain2, coding, cyclic_probes, demotable5, diamond2, ladder15,
                         quadpath, tripath, unit_chain, widefan)
from oracles import (brute_force_feasible, is_conserved, part_of,
                     reference_condition_network, support_is_acyclic)
from test_decompose import random_digraphs
from test_verify import general_digraph_networks


def test_derive_clamps_and_drops():
    g = Digraph(["s", "a", "t"], [(0, "s", "a"), (1, "a", "t"), (2, "s", "t")])
    net = Network(graph=g, free_cap={0: 5, 1: 1, 2: 0}, source="s", target="t")
    cn = derive_coding_capacities(net)
    assert cn.coding_cap == {0: 2, 1: 1}
    assert 2 not in cn.graph.edge_ids
    assert cn.graph.nodes == net.graph.nodes


def test_derive_all_unit_is_identity():
    net = tripath()
    cn = derive_coding_capacities(net)
    assert cn.coding_cap == {e: 1 for e in net.graph.edge_ids}
    assert set(cn.graph.edge_ids) == set(net.graph.edge_ids)
    assert cn.graph is net.graph


def test_derive_ladder15_thick_thin_pattern():
    net = ladder15()
    cn = derive_coding_capacities(net)
    assert cn.coding_cap == {e: net.free_cap[e] for e in net.graph.edge_ids}
    assert sorted(cn.coding_cap.values()).count(2) == 6


def test_reduced_mapping_is_doubled_half_integers():
    cn = coding(ladder15())
    reduced = reduced_capacities(cn.graph, cn.coding_cap)
    assert all(reduced[e] == {1: 2, 2: 3}[cn.coding_cap[e]] for e in reduced)


CLASSES = [
    (ladder15(), FeasibilityKind.NETWORK_CODING),
    (tripath(), FeasibilityKind.NETWORK_CODING),
    (diamond2(), FeasibilityKind.NETWORK_CODING),
    (widefan(), FeasibilityKind.NETWORK_CODING),
    (quadpath(), FeasibilityKind.DIVERSITY_CODING),
    (chain2(), FeasibilityKind.UNPROTECTED_2FLOW),
    (unit_chain(), FeasibilityKind.INFEASIBLE),
]


@pytest.mark.parametrize("net,kind", CLASSES)
def test_classification(net, kind):
    assert classify_feasibility(coding(net)).kind is kind


@pytest.mark.parametrize("net,kind", CLASSES)
def test_classification_carries_its_probe(net, kind):
    # the probe measured the reduced value; a refusal keeps it, a plan does not
    feas = classify_feasibility(coding(net))
    assert feas.probe.value == feas.reduced_value
    if feas.protectable:
        plan = decompose(net)
        assert plan.feasibility == feas and plan.feasibility.probe is None
        return
    with pytest.raises(Unprotectable) as refused:
        decompose(net)
    kept = refused.value.feasibility
    assert kept == feas
    assert (kept.probe.value, kept.probe.per_edge) == (feas.probe.value, feas.probe.per_edge)


def test_classification_values():
    assert classify_feasibility(coding(ladder15())).reduced_value == 6
    assert classify_feasibility(coding(quadpath())).reduced_value >= 7
    assert classify_feasibility(coding(chain2())).reduced_value == 3  # 1.5 doubled


def test_condition_rejects_other_classes():
    with pytest.raises(NotNetworkCodingClass):
        condition_network(coding(quadpath()))
    with pytest.raises(NotNetworkCodingClass):
        condition_network(coding(unit_chain()))


def test_condition_diamond_flow_values():
    cond = condition_network(coding(diamond2()))
    # conservation forces 1.5 units on every edge
    assert all(v == 3 for v in cond.flow.per_edge.values())


def test_condition_ladder15_properties():
    cond = condition_network(coding(ladder15()))
    net = cond.network
    flow = cond.flow
    assert set(flow.per_edge.values()) <= {1, 2, 3}
    assert is_conserved(net.graph, flow.per_edge, net.source, net.target)
    assert support_is_acyclic(net.graph, flow.per_edge)
    # every capacity-2 edge crosses some chain cut
    part = part_of(cond.chain, net.graph)
    for e in net.graph.edge_ids:
        if net.coding_cap[e] == 2:
            tail, head = net.graph.ends(e)
            assert part[tail] < part[head]
    # nothing pruned or demoted on this already-tight instance
    assert set(net.graph.edge_ids) == set(ladder15().graph.edge_ids)
    assert sorted(net.coding_cap.values()).count(2) == 6


def test_condition_demotes_interior_capacity2_edge():
    net = demotable5()
    cn = coding(net)
    eid = next(e for e, (tl, hd) in ((e, cn.graph.ends(e)) for e in cn.graph.edge_ids)
               if (tl, hd) == ("b0", "a0"))
    assert cn.coding_cap[eid] == 2
    cond = condition_network(cn)
    assert cond.network.coding_cap[eid] == 1
    demoted = classify_feasibility(cond.network)
    assert demoted.kind is FeasibilityKind.NETWORK_CODING


def test_condition_is_idempotent():
    for net in (ladder15(), diamond2(), tripath(), widefan(), demotable5()):
        once = condition_network(coding(net))
        twice = condition_network(once.network)
        assert twice.network == once.network
        assert twice.flow == once.flow
        assert twice.chain == once.chain


def _seeded_networks():
    """LADDER and network-coding RANDOM_DAG networks of 8-2,000 nodes."""
    for n in (8, 12, 20, 40, 100, 400, 2000):
        for seed in range(4 if n < 2000 else 2):
            yield generate(GenParams(node_count=n, seed=seed))
            yield generate(GenParams(node_count=n, seed=seed, structure=Structure.RANDOM_DAG,
                                     target_class=FeasibilityKind.NETWORK_CODING))


def _demoted(cn, cond) -> bool:
    return any(cond.network.coding_cap[e] < cn.coding_cap[e]
               for e in cond.network.graph.edge_ids)


def test_condition_matches_the_fixed_point_reference():
    # pruning the probe's flow once gives what re-running max_flow on the
    # pruned graph until it pruned nothing more gave, and what a fresh max
    # flow gives (for this class the probe ran to completion, so handing it
    # over changes nothing); conditioning the result again keeps its flow
    checked = demoted = 0
    for net in [*general_digraph_networks(), *random_digraphs(400, 20143),
                *_seeded_networks(), *cyclic_probes()]:
        cn = coding(net)
        feas = classify_feasibility(cn)
        if feas.kind is not FeasibilityKind.NETWORK_CODING:
            continue
        cond = condition_network(cn, feas.probe)
        for other in (reference_condition_network(cn), condition_network(cn)):
            assert cond.network.graph.edge_ids == other.network.graph.edge_ids
            assert cond.network.coding_cap == other.network.coding_cap
            assert cond.flow.per_edge == other.flow.per_edge
            assert cond.chain == other.chain
            assert cond.chain.node_part == other.chain.node_part
        assert condition_network(cond.network).flow.per_edge == cond.flow.per_edge
        checked += 1
        demoted += _demoted(cn, cond)
    # 52 seeded networks and 3 cyclic probes, all three demoted
    assert (checked, demoted) == (629 + 52 + 3, 366 + 3)


@pytest.mark.parametrize("params,calls", [
    (GenParams(node_count=40, seed=1), 1),
    (GenParams(node_count=40, seed=0, structure=Structure.RANDOM_DAG,
               target_class=FeasibilityKind.NETWORK_CODING), 2),
], ids=["pruned-ladder", "demoting-dag"])
def test_decompose_max_flow_calls(monkeypatch, params, calls):
    # the classify probe's flow is pruned once; only a demotion takes a
    # second max flow
    net = generate(params)
    cn = coding(net)
    cond = condition_network(cn)
    assert len(cond.network.graph.edge_ids) < len(cn.graph.edge_ids)
    assert _demoted(cn, cond) == (calls == 2)
    modules = [importlib.import_module(f"triflow.{name}")
               for name in ("graph", "conditioning", "decompose")]
    original = modules[0].max_flow
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "max_flow", counted)
    decompose(net)
    assert count[0] == calls


def test_condition_recomputed_reduced_flow_is_exactly_three():
    for net in (ladder15(), diamond2(), widefan(), demotable5()):
        cond = condition_network(coding(net))
        feas = classify_feasibility(cond.network)
        assert feas.kind is FeasibilityKind.NETWORK_CODING
        assert feas.reduced_value == 6


def test_no_backward_edges_across_chain_after_conditioning():
    for net in (ladder15(), diamond2(), widefan(), demotable5(), tripath()):
        cond = condition_network(coding(net))
        part = part_of(cond.chain, cond.network.graph)
        for e, tail, head in cond.network.graph.edges():
            assert part[tail] <= part[head]


@st.composite
def coding_networks(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    nodes = [f"n{i}" for i in range(n)]
    m = draw(st.integers(min_value=1, max_value=12))
    edges = []
    caps = {}
    for i in range(m):
        tail = draw(st.sampled_from(nodes))
        head = draw(st.sampled_from([v for v in nodes if v != tail]))
        edges.append((i, tail, head))
        caps[i] = draw(st.integers(min_value=0, max_value=4))
    net = Network(graph=Digraph(nodes, edges), free_cap=caps,
                  source="n0", target=nodes[-1])
    return derive_coding_capacities(net)


@settings(max_examples=150, deadline=None)
@given(coding_networks())
def test_classification_matches_definitional_oracle(cn):
    feas = classify_feasibility(cn)
    assert feas.protectable == brute_force_feasible(cn)
