from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from triflow import (CutChain, CutKind, Digraph, FeasibilityKind, GenParams, Structure,
                     cancel_cycles, classify_feasibility, condition_network, generate,
                     max_flow)
from triflow.cutchain import build_cut_chain, reduced_capacities
from triflow.errors import BrokenChain, GenerationFailed, MalformedCut, NotMaximum
from triflow.graph import FlowResult

from netfixtures import coding, diamond2, ladder15, numeric_ids, tripath, widefan
from oracles import (_reference_settle, chain_cuts, chain_parts, classify_cut, condensation,
                     cut_value, enumerate_min_cuts, longest_min_cut_chain,
                     reference_condensation, reference_cut_chain)
from test_decompose import random_digraphs
from test_golden import CORPUS
from test_graph import NUMERIC_AND_MIXED_IDS, mixed_multigraphs


def conditioned(net):
    return condition_network(coding(net))


def test_diamond_chain():
    cond = conditioned(diamond2())
    chain = cond.chain
    assert chain_cuts(chain, cond.network.graph) == [
        frozenset("s"), frozenset(("s", "a")), frozenset(("s", "a", "b"))]
    assert all(k is CutKind.TWO_EDGE for k in chain.kinds)
    # a, b, s, t relabelled 0, 1.5, 2, 3.5: the tie between a and b goes to
    # b, first in `order_key` order (floats before ints) and so in node index
    cond = conditioned(numeric_ids(diamond2()))
    chain = cond.chain
    assert chain_parts(chain, cond.network.graph) == (
        frozenset([2]), frozenset([1.5]), frozenset([0]), frozenset([3.5]))
    assert all(k is CutKind.TWO_EDGE for k in chain.kinds)


def test_tripath_chain_is_maximal():
    cond = conditioned(tripath())
    chain = cond.chain
    cuts = chain_cuts(chain, cond.network.graph)
    assert chain.k == 4
    assert cuts[0] == frozenset("s")
    assert cuts[-1] == frozenset(("s", "m1", "m2", "m3"))
    assert all(k is CutKind.THREE_ARC for k in chain.kinds)
    # m1, m2, m3, s, t relabelled 0, 1.5, 2, 3.5, 4: the floats come first,
    # in `order_key` order as in node index order
    cond = conditioned(numeric_ids(tripath()))
    assert chain_parts(cond.chain, cond.network.graph) == (
        frozenset([3.5]), frozenset([1.5]), frozenset([0]), frozenset([2]), frozenset([4]))


def test_ladder15_chain_pinned():
    cond = conditioned(ladder15())
    chain = cond.chain
    assert chain.k == 5
    cuts = chain_cuts(chain, cond.network.graph)
    assert cuts[0] == frozenset(["s"])
    assert cuts[1] == frozenset(["s", "a0", "b0", "c0"])
    assert cuts[2] == frozenset(["s", "a0", "b0", "c0", "a1", "c1", "a2", "c2"])
    assert cuts[3] == cuts[2] | {"a3", "c3", "b3"}
    assert cuts[4] == frozenset(ladder15().graph.nodes) - {"t"}
    assert [k.name for k in chain.kinds] == [
        "THREE_ARC", "TWO_EDGE", "TWO_EDGE", "THREE_ARC", "TWO_EDGE"]


def test_widefan_single_cut():
    cond = conditioned(widefan())
    assert cond.chain.k == 1
    assert cond.chain.kinds == (CutKind.TWO_EDGE,)
    cut = chain_cuts(cond.chain, cond.network.graph)[0]
    assert cut == frozenset(widefan().graph.nodes) - {"t"}


def test_every_chain_cut_is_a_minimum_cut():
    for net in (diamond2(), tripath(), ladder15(), widefan()):
        cond = conditioned(net)
        g = cond.network.graph
        reduced = reduced_capacities(cond.network.graph, cond.network.coding_cap)
        for cut in chain_cuts(cond.chain, g):
            assert cut_value(g, reduced, cut) == 6


def test_chain_length_matches_bruteforce_maximal_chain():
    for net in (diamond2(), tripath(), widefan()):
        cond = conditioned(net)
        g = cond.network.graph
        reduced = reduced_capacities(cond.network.graph, cond.network.coding_cap)
        assert cond.chain.k == longest_min_cut_chain(
            g, reduced, cond.network.source, cond.network.target)


def test_chain_parts_are_residual_sccs():
    for net in (ladder15(), diamond2(), widefan()):
        cond = conditioned(net)
        g = cond.network.graph
        reduced = reduced_capacities(cond.network.graph, cond.network.coding_cap)
        scc = condensation(g, reduced, cond.flow,
                           cond.network.source, cond.network.target)
        groups = {frozenset(c) for c in scc.components}
        for part in chain_parts(cond.chain, g):
            assert part in groups


def test_classify_cut_fixtures():
    diamond = conditioned(diamond2())
    assert classify_cut(diamond.network.graph, diamond.network.coding_cap,
                        frozenset("s")) is CutKind.TWO_EDGE
    tri = conditioned(tripath())
    assert classify_cut(tri.network.graph, tri.network.coding_cap,
                        frozenset("s")) is CutKind.THREE_ARC
    ladder = conditioned(ladder15())
    c2 = chain_cuts(ladder.chain, ladder.network.graph)[1]
    assert classify_cut(ladder.network.graph, ladder.network.coding_cap,
                        c2) is CutKind.TWO_EDGE
    crossing = [(tl, hd) for e, tl, hd in ladder.network.graph.edges()
                if tl in c2 and hd not in c2]
    assert sorted(crossing) == [("a0", "a1"), ("c0", "c1")]


def test_classify_cut_rejects_malformed():
    g = Digraph(["s", "a", "t"],
                [(0, "s", "a"), (1, "s", "a"), (2, "s", "a"), (3, "s", "a"),
                 (4, "a", "t")])
    caps = {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    with pytest.raises(MalformedCut):
        classify_cut(g, caps, frozenset("s"))


def test_build_chain_requires_maximum_flow():
    cn = coding(tripath())
    zero = FlowResult(value=0, per_edge={e: 0 for e in cn.graph.edge_ids})
    with pytest.raises(NotMaximum):
        build_cut_chain(cn.graph, cn.coding_cap, zero, "s", "t")


def test_build_chain_names_a_cut_of_neither_kind():
    # two unit paths: a maximum reduced flow of 2, whose first cut crosses
    # two capacity-1 edges
    g = Digraph(["s", "a", "b", "t"],
                [(0, "s", "a"), (1, "a", "t"), (2, "s", "b"), (3, "b", "t")])
    caps = dict.fromkeys(range(4), 1)
    flow = FlowResult(value=4, per_edge=dict.fromkeys(range(4), 2))
    with pytest.raises(MalformedCut, match="^cut 1 crosses 0 capacity-2 and 2 capacity-1 edges$"):
        build_cut_chain(g, caps, flow, "s", "t")


def test_build_chain_rejects_unpruned_zero_flow_edges():
    # maximum flow, but a dangling zero-flow edge breaks the chain structure
    g = Digraph(["s", "a", "b", "t"],
                [(0, "s", "a"), (1, "a", "t"), (2, "a", "b")])
    caps = {0: 1, 1: 1, 2: 1}
    flow = FlowResult(value=2, per_edge={0: 2, 1: 2, 2: 0})
    with pytest.raises(BrokenChain):
        build_cut_chain(g, caps, flow, "s", "t")


def test_no_minimum_cut_between_consecutive_chain_cuts():
    # maximality, checked against full enumeration on small fixtures
    for net in (diamond2(), tripath(), widefan()):
        cond = conditioned(net)
        g = cond.network.graph
        reduced = reduced_capacities(cond.network.graph, cond.network.coding_cap)
        _, all_cuts = enumerate_min_cuts(g, reduced, cond.network.source,
                                         cond.network.target)
        cuts = chain_cuts(cond.chain, g)
        for earlier, later in zip(cuts, cuts[1:]):
            for candidate in all_cuts:
                assert not (earlier < candidate < later)


def test_build_chain_rejects_an_edge_crossing_the_chain_backward():
    # a maximum flow whose cuts {s} and {s, a} are saturated 3-arc cuts, but
    # the unpruned zero-flow edge t -> s crosses both from behind
    g = Digraph(["s", "a", "t"],
                [(0, "s", "a"), (1, "s", "a"), (2, "s", "a"),
                 (3, "a", "t"), (4, "a", "t"), (5, "a", "t"), (6, "t", "s")])
    caps = dict.fromkeys(range(7), 1)
    flow = FlowResult(value=6, per_edge={**dict.fromkeys(range(6), 2), 6: 0})
    with pytest.raises(BrokenChain, match="edge 6 crosses the cut chain backward"):
        build_cut_chain(g, caps, flow, "s", "t")


def test_crossing_lists_each_cuts_edges():
    # the golden corpus's and the general-digraph corpus's network-coding
    # networks; edges that cross several cuts sit in each of their lists
    nets = []
    for params in CORPUS:
        try:
            nets.append(generate(params))
        except GenerationFailed:
            continue
    nets = [net for net in nets
            if classify_feasibility(coding(net)).kind is FeasibilityKind.NETWORK_CODING]
    nets += random_digraphs(400, 20143)
    spanning = 0
    for net in nets:
        cond = conditioned(net)
        chain, g, caps = cond.chain, cond.network.graph, cond.network.coding_cap
        edges = list(g.edges())
        assert len(chain.crossing) == chain.k
        for cut, crossing, kind in zip(chain_cuts(chain, g), chain.crossing, chain.kinds):
            assert crossing == [e for e, (_, tail, head) in enumerate(edges)
                                if tail in cut and head not in cut]
            widths = [caps[edges[e][0]] for e in crossing]
            assert widths == {CutKind.TWO_EDGE: [2, 2], CutKind.THREE_ARC: [1, 1, 1]}[kind]
        assert sum(map(len, chain.crossing)) <= 3 * chain.k
        spanning += sum(n > 1 for n in Counter(e for c in chain.crossing for e in c).values())
    assert spanning > len(nets)


def _outcome(call, *args):
    """What `call(*args)` gives: its value, or its refusal's type and text."""
    try:
        return call(*args)
    except (BrokenChain, MalformedCut, NotMaximum) as exc:
        return type(exc), str(exc)


def assert_chain_matches_reference(g, coding_cap, flow, s, t):
    """`build_cut_chain` and `residual_scc_condensation` give what the
    list-of-lists references give, refusals included; returns the chain."""
    reduced = reduced_capacities(g, coding_cap)
    scc = _outcome(condensation, g, reduced, flow, s, t)
    ref = _outcome(reference_condensation, g, [reduced[e] for e in g.edge_ids],
                   [flow.per_edge[e] for e in g.edge_ids], s, t)
    if isinstance(ref[0], type):
        assert scc == ref
    else:
        nodes = g.nodes_sorted
        assert scc.components == tuple(frozenset(nodes[v] for v in comp) for comp in ref[0])
        assert list(scc.component_of.values()) == ref[1]
        assert list(scc.successors) == ref[2]
    chain = _outcome(build_cut_chain, g, coding_cap, flow, s, t)
    ref = _outcome(reference_cut_chain, g, coding_cap, flow, s, t)
    if isinstance(ref, CutChain):
        assert (chain.kinds, chain.node_part, chain.crossing) == \
            (ref.kinds, ref.node_part, ref.crossing)
    else:
        assert chain == ref
    return chain


@settings(max_examples=300, deadline=None)
@given(mixed_multigraphs(NUMERIC_AND_MIXED_IDS), st.booleans())
def test_chain_matches_the_reference_on_general_digraphs(instance, prune):
    # coding capacities 1 or 2 and a (possibly limited) maximum reduced flow,
    # its cycles cancelled and, if `prune`, its zero-flow edges dropped
    g, caps, s, t, limit = instance
    coding_cap = {e: 1 + c % 2 for e, c in caps.items()}
    flow = max_flow(g, reduced_capacities(g, coding_cap), s, t, limit=limit)
    flow = cancel_cycles(g, flow, s, t)
    if prune:
        g = g.subgraph(flow.support(), extra_nodes=(s, t))
        coding_cap = {e: coding_cap[e] for e in g.edge_ids}
        flow = FlowResult(flow.value, {e: flow.per_edge[e] for e in g.edge_ids})
    assert_chain_matches_reference(g, coding_cap, flow, s, t)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Structure.LADDER, Structure.RANDOM_DAG]),
       st.integers(8, 300), st.integers(0, 10_000))
def test_conditioned_chains_match_the_reference(structure, node_count, seed):
    # the settled network's chain, then the conditioned one after demotion
    try:
        net = generate(GenParams(node_count, seed, structure, FeasibilityKind.NETWORK_CODING))
    except GenerationFailed:
        assume(False)
    cn = coding(net)
    s, t = cn.source, cn.target
    g, cap, flow = _reference_settle(cn.graph, dict(cn.coding_cap), s, t)
    assert isinstance(assert_chain_matches_reference(g, cap, flow, s, t), CutChain)
    cond = condition_network(cn)
    net = cond.network
    chain = assert_chain_matches_reference(net.graph, net.coding_cap, cond.flow, s, t)
    assert chain == cond.chain
