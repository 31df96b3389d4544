import time

import pytest
from hypothesis import example, given, settings, strategies as st

from triflow import Digraph, cancel_cycles, max_flow
from triflow.errors import InsufficientPaths, NotMaximum, UnknownNode
from triflow.cutchain import reduced_capacities
from triflow.graph import (FlowResult, decompose_flow_to_paths, edge_disjoint_paths, order_key,
                           reach)

from netfixtures import coding, diamond2, ladder15, tripath
from oracles import (condensation, is_conserved, min_cut_value, reference_cancel_cycles,
                     reference_decompose_flow_to_paths, reference_digraph,
                     reference_max_flow, support_is_acyclic)


def reduced(net):
    cn = coding(net)
    return cn.graph, reduced_capacities(cn.graph, cn.coding_cap), cn.source, cn.target


def test_digraph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Digraph(["a"], [(0, "a", "a")])
    with pytest.raises(ValueError):
        Digraph(["a", "b"], [(0, "a", "b"), (0, "b", "a")])
    with pytest.raises(UnknownNode):
        Digraph(["a"], [(0, "a", "b")])


def test_subgraph_rejects_unknown_ids():
    g = tripath().graph
    with pytest.raises(KeyError):
        g.subgraph([g.edge_ids[0], "ghost"])
    with pytest.raises(KeyError):
        g.subgraph(g.edge_ids, extra_nodes=("ghost",))


def test_digraph_allows_parallel_edges():
    g = Digraph(["a", "b"], [(0, "a", "b"), (1, "a", "b")])
    assert list(g.edges()) == [(0, "a", "b"), (1, "a", "b")]


def test_max_flow_tripath():
    g, caps, s, t = reduced(tripath())
    assert max_flow(g, caps, s, t).value == 6


def test_max_flow_diamond_matches_cut_enumeration():
    g, caps, s, t = reduced(diamond2())
    assert min_cut_value(g, caps, s, t) == 6
    assert max_flow(g, caps, s, t).value == 6


def test_max_flow_ladder15_is_exactly_three_units():
    g, caps, s, t = reduced(ladder15())
    assert max_flow(g, caps, s, t).value == 6


def test_max_flow_limit_stops_early():
    g, caps, s, t = reduced(tripath())
    flow = max_flow(g, caps, s, t, limit=2)
    assert 2 <= flow.value < 6
    assert flow.augmentations == 1


def test_max_flow_unknown_node():
    g, caps, s, t = reduced(tripath())
    with pytest.raises(UnknownNode):
        max_flow(g, caps, "nope", t)


def test_condensation_tripath_orders_target_side_first():
    g, caps, s, t = reduced(tripath())
    flow = max_flow(g, caps, s, t)
    cond = condensation(g, caps, flow, s, t)
    # all edges saturated: only reversal arcs remain, every node is its own SCC
    assert len(cond.components) == 5
    assert cond.component_of[t] < cond.component_of[s]
    assert cond.components[0] == frozenset(["t"])
    assert cond.components[-1] == frozenset(["s"])


def test_condensation_diamond_all_singletons():
    g, caps, s, t = reduced(diamond2())
    flow = max_flow(g, caps, s, t)
    cond = condensation(g, caps, flow, s, t)
    assert sorted(len(c) for c in cond.components) == [1, 1, 1, 1]


def test_condensation_ladder15_components_are_the_rungs():
    g, caps, s, t = reduced(ladder15())
    flow = max_flow(g, caps, s, t)
    cond = condensation(g, caps, flow, s, t)
    groups = {frozenset(c) for c in cond.components}
    assert frozenset(["a0", "b0", "c0"]) in groups
    assert frozenset(["a1", "c1", "a2", "c2"]) in groups
    assert frozenset(["a3", "c3", "b3"]) in groups
    assert frozenset(["a4", "b4", "d4"]) in groups
    assert len(cond.components) == 6


def test_condensation_requires_maximum_flow():
    g, caps, s, t = reduced(tripath())
    zero = FlowResult(value=0, per_edge={e: 0 for e in g.edge_ids})
    with pytest.raises(NotMaximum):
        condensation(g, caps, zero, s, t)


def residual_arc_pairs(g, caps, flow):
    for e, tail, head in g.edges():
        if flow.per_edge[e] < caps[e]:
            yield tail, head
        if flow.per_edge[e] > 0:
            yield head, tail


def test_condensation_topological_order_is_valid():
    g, caps, s, t = reduced(ladder15())
    flow = max_flow(g, caps, s, t)
    cond = condensation(g, caps, flow, s, t)
    for u, v in residual_arc_pairs(g, caps, flow):
        assert cond.component_of[u] <= cond.component_of[v]


def test_edge_disjoint_paths_tripath():
    g, _, s, t = reduced(tripath())
    paths = edge_disjoint_paths(g, s, t, 3)
    used = [e for p in paths for e in p]
    assert len(paths) == 3
    assert len(used) == len(set(used)) == 6


def test_edge_disjoint_paths_on_doubled_diamond():
    # each diamond edge doubled into two parallel arcs: four disjoint routes
    nodes = ["s", "a", "b", "t"]
    layout = [("s", "a"), ("s", "a"), ("s", "b"), ("s", "b"),
              ("a", "t"), ("a", "t"), ("b", "t"), ("b", "t")]
    g = Digraph(nodes, [(i, u, v) for i, (u, v) in enumerate(layout)])
    assert max_flow(g, {e: 1 for e in g.edge_ids}, "s", "t").value == 4
    paths = edge_disjoint_paths(g, "s", "t", 4)
    assert len(paths) == 4


def test_edge_disjoint_paths_insufficient():
    g = Digraph(["s", "a", "t"], [(0, "s", "a"), (1, "a", "t")])
    with pytest.raises(InsufficientPaths) as err:
        edge_disjoint_paths(g, "s", "t", 2)
    assert err.value.found == 1


def test_flow_decomposition_zero_flow():
    g, caps, s, t = reduced(tripath())
    zero = FlowResult(value=0, per_edge={e: 0 for e in g.edge_ids})
    assert decompose_flow_to_paths(g, zero, s, t) == []


def test_flow_decomposition_tripath():
    g, caps, s, t = reduced(tripath())
    flow = max_flow(g, caps, s, t)
    paths = decompose_flow_to_paths(g, flow, s, t)
    assert len(paths) == 3
    assert all(amount == 2 for _, amount in paths)


def test_flow_decomposition_cancels_embedded_cycle():
    # hand-built 2-unit flow with a 1-unit cycle u -> w -> u riding on it
    nodes = ["s", "u", "v", "w", "t"]
    layout = [("s", "u"), ("u", "t"), ("s", "v"), ("v", "t"), ("u", "w"), ("w", "u")]
    g = Digraph(nodes, [(i, a, b) for i, (a, b) in enumerate(layout)])
    per_edge = {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
    flow = FlowResult(value=2, per_edge=per_edge)
    paths = decompose_flow_to_paths(g, flow, "s", "t")
    assert sorted(p for p, _ in paths) == [[0, 1], [2, 3]]
    clean = cancel_cycles(g, flow, "s", "t")
    assert clean.value == 2
    assert clean.per_edge[4] == 0 and clean.per_edge[5] == 0
    assert is_conserved(g, clean.per_edge, "s", "t")
    assert support_is_acyclic(g, clean.per_edge)


@st.composite
def flow_instances(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    nodes = [f"n{i}" for i in range(n)]
    m = draw(st.integers(min_value=1, max_value=14))
    edges = []
    for i in range(m):
        tail = draw(st.sampled_from(nodes))
        head = draw(st.sampled_from([v for v in nodes if v != tail]))
        edges.append((i, tail, head))
    caps = {i: draw(st.integers(min_value=1, max_value=6)) for i in range(m)}
    return Digraph(nodes, edges), caps, "n0", nodes[-1]


@settings(max_examples=120, deadline=None)
@given(flow_instances())
def test_max_flow_properties(instance):
    g, caps, s, t = instance
    flow = max_flow(g, caps, s, t)
    assert is_conserved(g, flow.per_edge, s, t)
    assert all(0 <= flow.per_edge[e] <= caps[e] for e in g.edge_ids)
    assert flow.value == min_cut_value(g, caps, s, t)
    cond = condensation(g, caps, flow, s, t)
    entered = [set() for _ in cond.components]
    for e, tail, head in g.edges():
        if flow.per_edge[e] < caps[e]:
            assert cond.component_of[tail] <= cond.component_of[head]
            entered[cond.component_of[tail]].add(cond.component_of[head])
        if flow.per_edge[e] > 0:
            assert cond.component_of[head] <= cond.component_of[tail]
            entered[cond.component_of[head]].add(cond.component_of[tail])
    assert list(cond.successors) == [frozenset(c - {i}) for i, c in enumerate(entered)]


@settings(max_examples=80, deadline=None)
@given(flow_instances())
def test_flow_decomposition_properties(instance):
    g, caps, s, t = instance
    flow = max_flow(g, caps, s, t)
    paths = decompose_flow_to_paths(g, flow, s, t)
    assert sum(amount for _, amount in paths) == flow.value
    for path, _ in paths:
        assert g.ends(path[0])[0] == s and g.ends(path[-1])[1] == t
        for prev, nxt in zip(path, path[1:]):
            assert g.ends(prev)[1] == g.ends(nxt)[0]
    rebuilt = cancel_cycles(g, flow, s, t)
    assert support_is_acyclic(g, rebuilt.per_edge)
    assert is_conserved(g, rebuilt.per_edge, s, t)
    # whether or not the peel ran, the result is the sum of the peeled paths
    peeled = dict.fromkeys(flow.per_edge, 0)
    for path, amount in paths:
        for e in path:
            peeled[e] += amount
    assert rebuilt.per_edge == peeled


def _path_with_loops(length):
    """A unit s-t path 0 -> ... -> length with a unit 2-cycle i -> c_i -> i at
    every inner node; the cycle edges have the lower ids, so the peel walks
    into each cycle before it goes on along the path."""
    edges = []
    for i in range(1, length):
        edges += [(2 * i, i, length + i), (2 * i + 1, length + i, i)]
    edges += [(2 * length + i, i, i + 1) for i in range(length)]
    g = Digraph(range(2 * length), edges)
    return g, FlowResult(value=1, per_edge={e: 1 for e, _, _ in edges})


def test_peel_cuts_closed_cycles_in_linear_time():
    times = {}
    for length in (2000, 16000):
        g, flow = _path_with_loops(length)
        runs = []
        for _ in range(3):
            started = time.perf_counter()
            paths = decompose_flow_to_paths(g, flow, 0, length)
            runs.append(time.perf_counter() - started)
        times[length] = min(runs)
        assert paths == [([2 * length + i for i in range(length)], 1)]
        cancelled = cancel_cycles(g, flow, 0, length).per_edge
        assert all(cancelled[e] == (e >= 2 * length) for e in g.edge_ids)
    # the walk closes one cycle per inner node: rescanning the walk on each
    # cut made this ratio about 60 for 8x the length
    assert times[16000] <= 20 * times[2000], times


def test_cancel_cycles_still_rejects_flows_that_are_not_path_sums():
    g, caps, s, t = reduced(tripath())
    flow = max_flow(g, caps, s, t)
    off_graph = FlowResult(value=flow.value, per_edge={**flow.per_edge, "ghost": 1})
    with pytest.raises(AssertionError):
        cancel_cycles(g, off_graph, s, t)
    first = g.edge_ids[0]  # s -> m1 only: m1 keeps what it receives
    stuck = FlowResult(value=2, per_edge={e: 2 if e == first else 0 for e in g.edge_ids})
    with pytest.raises(AssertionError):
        cancel_cycles(g, stuck, s, t)
    # conserved and acyclic, but it runs from t back into s
    back = Digraph(["s", "b", "t"], [(0, "s", "t"), (1, "t", "b"), (2, "b", "s")])
    with pytest.raises(AssertionError):
        cancel_cycles(back, FlowResult(value=0, per_edge={0: 0, 1: 1, 2: 1}), "s", "t")


@st.composite
def peel_instances(draw):
    """A max flow of `flow_instances` plus unit circulations on added edges,
    through s, through t or neither (never both), and at times one defect: one edge's
    amount raised by 1, an added t -> s path, an amount set to -1 or an
    off-graph key.  Edge ids are shuffled, so the walk meets the added edges
    before, between and after the others.  Returns (g, flow, s, t, defect)."""
    g, caps, s, t = draw(flow_instances())
    flow = max_flow(g, caps, s, t)
    nodes = list(g.nodes_sorted)
    arcs = [(tail, head, flow.per_edge[e]) for e, tail, head in g.edges()]
    inner = [v for v in nodes if v not in (s, t)]
    for through in draw(st.lists(st.sampled_from([s, t, None]), max_size=3)):
        pool = inner + [through] * (through is not None)
        if len(pool) < 2:
            continue
        ring = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4, unique=True))
        if through is not None and through not in ring:
            ring[0] = through
        arcs += [(u, v, 1) for u, v in zip(ring, ring[1:] + ring[:1])]
    defect = draw(st.sampled_from([None, "raised", "t to s", "negative", "off-graph"]))
    if defect == "t to s":
        via = draw(st.sampled_from(nodes))
        arcs += [(t, s, 1)] if via in (s, t) else [(t, via, 1), (via, s, 1)]
    elif defect in ("raised", "negative"):
        i = draw(st.integers(0, len(arcs) - 1))
        tail, head, amount = arcs[i]
        arcs[i] = (tail, head, amount + 1 if defect == "raised" else -1)
    ids = draw(st.permutations(range(len(arcs))))
    per_edge = {e: amount for e, (_, _, amount) in zip(ids, arcs)}
    if defect == "off-graph":
        per_edge["ghost"] = draw(st.integers(0, 2))
    g = Digraph(nodes, [(e, tail, head) for e, (tail, head, _) in zip(ids, arcs)])
    return g, FlowResult(value=flow.value, per_edge=per_edge), s, t, defect


def _answer(call, *args):
    """What `call(*args)` returns, or AssertionError if it raises that."""
    try:
        return call(*args)
    except AssertionError:
        return AssertionError


@settings(max_examples=300, deadline=None)
@given(peel_instances())
def test_peel_matches_the_reference_peel(instance):
    # the one walk from s gives the paths, amounts and cancelled flow of the
    # reference's walk per path and sweep from every node, or both refuse;
    # only a negative amount, which the reference may skip, is now refused
    g, flow, s, t, defect = instance
    paths = _answer(decompose_flow_to_paths, g, flow, s, t)
    cancelled = _answer(cancel_cycles, g, flow, s, t)
    if defect == "negative":
        assert paths is cancelled is AssertionError
        return
    assert paths == _answer(reference_decompose_flow_to_paths, g, flow, s, t)
    assert cancelled == _answer(reference_cancel_cycles, g, flow, s, t)


def test_peel_drops_unit_cycles_through_the_source_and_the_target():
    # flow entering s or leaving t only marks a flow as no path sum; it is
    # refused only if some of it still enters s after the walk
    g = Digraph(["s", "a", "b", "t"], [(0, "s", "t"), (1, "s", "a"), (2, "a", "s"),
                                       (3, "t", "b"), (4, "b", "t")])
    flow = FlowResult(value=1, per_edge=dict.fromkeys(range(5), 1))
    assert decompose_flow_to_paths(g, flow, "s", "t") == [([0], 1)]
    assert cancel_cycles(g, flow, "s", "t").per_edge == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
    assert cancel_cycles(g, flow, "s", "t") == reference_cancel_cycles(g, flow, "s", "t")


# Ids of three types that never compare with each other, so every sort of a
# mixed set needs `order_key`.
MIXED_IDS = st.one_of(st.integers(-3, 30), st.sampled_from("abcdefgh"),
                      st.tuples(st.integers(0, 3), st.sampled_from("xy")))


@st.composite
def mixed_multigraphs(draw, id_values=MIXED_IDS):
    nodes = draw(st.lists(id_values, min_size=2, max_size=7, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=12))
    # repeated pairs are parallel edges, reversed ones antiparallel
    extra = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=6))
    pairs += [(head, tail) if flip else (tail, head) for (tail, head), flip in extra]
    ids = draw(st.lists(id_values, min_size=len(pairs), max_size=len(pairs), unique=True))
    caps = {e: draw(st.integers(0, 5)) for e in ids}
    s, t = draw(st.permutations(nodes))[:2]
    limit = draw(st.one_of(st.none(), st.integers(1, 8)))
    graph = Digraph(nodes, [(e, tail, head) for e, (tail, head) in zip(ids, pairs)])
    return graph, caps, s, t, limit


ID_KINDS = {"int": st.integers(-3, 30), "str": st.sampled_from("abcdefgh"),
            "tuple": st.tuples(st.integers(0, 3), st.sampled_from("xy")), "mixed": MIXED_IDS}
FAULTS = (None, "duplicate id", "self-loop", "unknown tail", "unknown head")


@st.composite
def digraph_rows(draw):
    """(nodes, edge rows) as a caller may pass them: int, str, tuple or mixed
    ids, nodes unsorted and repeated, maybe no edge at all, and at most one
    bad row (a duplicate id, a self-loop or an unknown end) put anywhere."""
    values = ID_KINDS[draw(st.sampled_from(sorted(ID_KINDS)))]
    nodes = draw(st.lists(values, min_size=2, max_size=8))
    known = list(dict.fromkeys(nodes))
    if len(known) < 2:
        return nodes, []
    pair = st.tuples(st.sampled_from(known), st.sampled_from(known)).filter(
        lambda p: p[0] != p[1])
    ids = draw(st.lists(values, max_size=10, unique=True))
    rows = [(e, *draw(pair)) for e in ids]
    fault = draw(st.sampled_from(FAULTS))
    if fault is not None:
        eid = draw(values)
        tail, head = draw(pair)
        unknown = draw(st.sampled_from(["zz", 99, ("z", 9)]))
        at = draw(st.integers(0, len(rows)))
        if fault == "duplicate id" and ids:
            eid = draw(st.sampled_from(ids))
        elif fault == "self-loop":
            head = tail
        elif fault == "unknown tail":
            tail = unknown
        elif fault == "unknown head":
            head = unknown
        rows.insert(at, (eid, tail, head))
    return nodes, rows


def built(make, *args):
    """The interned lists `make(*args)` builds, or its exception's type and text."""
    try:
        g = make(*args)
    except Exception as exc:  # the two builds must fail alike
        return type(exc), str(exc)
    return [getattr(g, attr) for attr in Digraph.__slots__]


@settings(max_examples=400, deadline=None)
@given(digraph_rows())
def test_column_build_matches_the_per_edge_constructor(instance):
    nodes, rows = instance
    assert built(Digraph, nodes, rows) == built(reference_digraph, nodes, rows)
    # a sorted, deduplicated input goes the same way
    g = reference_digraph(nodes, [])
    assert built(Digraph, g.nodes_sorted, sorted(rows, key=order_key)) == \
        built(reference_digraph, g.nodes_sorted, sorted(rows, key=order_key))


# Ids mixing natively comparable types (int and float) with incomparable ones
# (str and tuple): int and float sort by value natively but not in
# `order_key` order, which is the one order that every sort must follow.
NUMERIC_AND_MIXED_IDS = st.one_of(MIXED_IDS, st.sampled_from([0.5, 1.5, 2.5, 7.5]))


@settings(max_examples=300, deadline=None)
@given(mixed_multigraphs(NUMERIC_AND_MIXED_IDS), st.data())
def test_subgraph_matches_a_fresh_build(instance, data):
    g, _, s, t, _ = instance
    keep = data.draw(st.lists(st.sampled_from(g.edge_ids), unique=True))
    sub = g.subgraph(keep, extra_nodes=(s, t))
    fresh = Digraph({s, t}.union(*map(g.ends, keep)), [(e, *g.ends(e)) for e in keep])
    for attr in Digraph.__slots__:
        assert getattr(sub, attr) == getattr(fresh, attr), attr


# Int and float edge ids between s and t, with and without an unrelated str
# edge: which of them one unit takes may not depend on the str edge.
TWO_PARALLEL = Digraph(["s", "t"], [(0, "s", "t"), (0.5, "s", "t")])
WITH_STR_EDGE = Digraph(["s", "t", "u", "v"],
                        [(0, "s", "t"), (0.5, "s", "t"), ("a", "u", "v")])


@settings(max_examples=300, deadline=None)
@given(mixed_multigraphs(NUMERIC_AND_MIXED_IDS))
@example((TWO_PARALLEL, dict.fromkeys(TWO_PARALLEL.edge_ids, 1), "s", "t", 1))
@example((WITH_STR_EDGE, dict.fromkeys(WITH_STR_EDGE.edge_ids, 1), "s", "t", 1))
def test_max_flow_matches_reference(instance):
    g, caps, s, t, limit = instance
    for lim in (None, limit):
        flow = max_flow(g, caps, s, t, limit=lim)
        ref = reference_max_flow(g, caps, s, t, limit=lim)
        assert (flow.value, flow.per_edge, flow.augmentations) == \
            (ref.value, ref.per_edge, ref.augmentations)


def test_augmentation_bound_for_doubled_capacities():
    for net in (tripath(), diamond2(), ladder15()):
        g, caps, s, t = reduced(net)
        assert set(caps.values()) <= {2, 3}
        flow = max_flow(g, caps, s, t, limit=6)
        assert flow.augmentations <= 6


def test_reach_is_fifo_breadth_first():
    out = {"s": [("e0", "a"), ("e1", "b")],
           "a": [("e2", "c"), ("e3", "b")],
           "b": [("e4", "c"), ("e5", "d")],
           "c": [("e6", "s")]}
    parent = reach(out, "s")
    assert parent == {"s": None, "a": "e0", "b": "e1", "c": "e2", "d": "e5"}
    assert list(parent) == ["s", "a", "b", "c", "d"]
    assert reach(out, "x") == {"x": None}
