"""`files.dumps` writes exactly what `json.dumps(indent=2, sort_keys=True)`
writes, on every shape the program emits and on arbitrary JSON values, and
`files.plan_from_json` refuses a copy other than 0 and 1."""

import enum
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from triflow import (Digraph, GenParams, Network, Structure, decompose, files,
                     generate, verify_plan)
from triflow.cli import main
from triflow.errors import PlanReferenceError, Unprotectable

from netfixtures import coding, diamond2, ladder15, quadpath, tripath
from oracles import reference_digraph
from test_golden import mixed_ids
from test_graph import built, digraph_rows

ODD_TEXT = ["}", ",", '"', "\\", "\n", "\t", "\x00", "\x7f", "é", "日",
            "\U0001f600", "", " ", ": ", '\\"', "%s", "{", "]"]


def reference(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def odd_ids(net: Network) -> Network:
    """Relabel nodes and edges with ids holding JSON-significant, control and
    non-ASCII characters; every third edge keeps an int id."""
    node = {v: f"{ODD_TEXT[i % len(ODD_TEXT)]}n{i}" for i, v in enumerate(net.graph.nodes_sorted)}
    edge = {e: i if i % 3 == 0 else f"e{i}{ODD_TEXT[i % len(ODD_TEXT)]}"
            for i, e in enumerate(net.graph.edge_ids)}
    graph = Digraph(node.values(),
                    [(edge[e], node[tail], node[head]) for e, tail, head in net.graph.edges()])
    return Network(graph=graph, free_cap={edge[e]: k for e, k in net.free_cap.items()},
                   source=node[net.source], target=node[net.target])


def networks():
    base = [tripath(), quadpath(), diamond2(), ladder15(),
            generate(GenParams(64, 3, Structure.LADDER)),
            generate(GenParams(32, 37, Structure.RANDOM_DAG))]
    return base + [mixed_ids(n) for n in base] + [odd_ids(n) for n in base]


def test_dumps_matches_json_on_plans_reports_and_networks():
    plans = 0
    for net in networks():
        data = files.network_to_json(net)
        assert files.dumps(data) == reference(data)
        try:
            plan = decompose(net)
        except Unprotectable:
            continue
        plans += 1
        data = files.plan_to_json(plan)
        assert files.dumps(data) == reference(data)
        report = files.report_to_json(verify_plan(coding(net), plan))
        assert files.dumps(report) == reference(report)
    assert plans == 18


def test_edge_ids_starting_with_tilde_load_and_decompose():
    # virtual boundary arcs are ints outside the edge range, so no edge id
    # is reserved for them
    data = files.network_to_json(ladder15())
    for e in data["edges"]:
        e["id"] = f"~{e['id']}"
    plan = decompose(files.network_from_json(data))
    assert plan.verification.overall
    assert all(str(a.edge).startswith("~") for arcs in plan.subflows.values() for a in arcs)


def test_dumps_matches_json_on_analyze_output(tmp_path, capsys):
    for i, net in enumerate(networks()):
        path = tmp_path / f"net{i}.json"
        path.write_text(files.dumps(files.network_to_json(odd_ids(net))))
        main(["analyze", "--json", str(path)])
        out = capsys.readouterr().out
        assert out == reference(json.loads(out))


def test_dumps_matches_json_on_empty_and_irregular_shapes():
    cases = [
        {}, [], "", 0, -1.5, None, True, math.inf, -math.inf, [[]], [{}], {"a": []},
        {"a": {}}, [[], []], [{}, {}],
        # records with empty, repeated and type-ambiguous label lists
        {"survivability": [{"edge": 1, "survivors": []},
                           {"edge": "x}", "survivors": ["A", "B"]},
                           {"edge": 2, "survivors": ["A", "B"]}],
         "violations": []},
        [{"s": [1]}, {"s": [True]}, {"s": [1.0]}, {"s": [None]}],
        [[1], [True], [1.0]],
        # records whose keys differ, nest or hold odd text
        [{"a": 1}, {"b": 2}], [{"a": 1}, {"a": 1, "b": 2}],
        [{"k": {"x": [1, 2]}}, {"k": {"x": []}}],
        [{t: t} for t in ODD_TEXT],
        {t: [t, {t: t}] for t in ODD_TEXT},
        [1, "a", None, [2], {"b": 3}],
        # shapes `json` handles alone: tuples and non-str keys
        {"t": (1, 2)}, {1: "a", 2: "b"}, [{"a": (1,)}, {"a": (2,)}],
        # subclasses of the scalar types, alone, in a column or as a key
        Level.HIGH, [Level.LOW] * 9, Text("x"), [Text("y")] * 9, {Text("k"): 1},
        # columns and record lists on both sides of the whole-column encoder
        *([[1, True, 2.5, None, "a%s"][i % 5] for i in range(n)] for n in (7, 8, 9)),
        *([{"edge": i, "copy": i % 2} for i in range(n)] for n in (7, 8, 9)),
    ]
    for data in cases:
        assert files.dumps(data) == reference(data), data
    nan = files.dumps([{"v": math.nan}, {"v": 0.1}])
    assert nan == reference([{"v": math.nan}, {"v": 0.1}])


def test_dumps_lays_out_shared_and_equal_lists_by_identity():
    # survivor lists are laid out once per list object: one object shared by
    # many records, equal lists that are distinct objects, and a shared list
    # holding non-str values next to str lists
    shared, other, odd = ["A", "B"], ["A", "B"], [1, None, "A"]
    cases = [
        [{"edge": i, "survivors": shared} for i in range(12)],
        [{"edge": i, "survivors": ["A", "XOR"]} for i in range(12)],
        [{"edge": i, "survivors": [shared, other, odd, []][i % 4]} for i in range(12)],
        [shared, other, shared, odd, odd, [], shared] * 3,
        {"survivability": [{"edge": i, "survivors": odd if i % 3 else shared}
                           for i in range(9)]},
        [[shared, odd], [shared, odd], [odd]],
    ]
    for data in cases:
        assert files.dumps(data) == reference(data), data


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


class Text(str):
    pass


texts = st.lists(st.sampled_from(ODD_TEXT + ["a", "b", "A"]), max_size=3).map("".join)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts
# subclasses of the scalar types go to `json`; `True` among ints does not
subclassed = st.sampled_from(Level) | texts.map(Text)


def record_lists(children):
    # lists of dicts over one key set, the shape laid out column by column
    return st.lists(texts, min_size=1, max_size=3, unique=True).flatmap(
        lambda ks: st.lists(st.fixed_dictionaries({k: children for k in ks}), max_size=12))


# up to 12 items, so lists and record columns reach the whole-column encoder
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=12) | st.lists(scalars | subclassed, max_size=12)
                      | st.dictionaries(texts, children, max_size=4)
                      | record_lists(children)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dumps_matches_json_on_arbitrary_values(data):
    assert files.dumps(data) == reference(data)


@settings(max_examples=300, deadline=None)
@given(digraph_rows(), st.data())
def test_loader_matches_the_per_edge_parse(instance, data):
    # the rows written as a file, nodes as strings: the loader's column build
    # accepts what the per-edge parse accepts, builds the same graph and
    # capacities, and otherwise fails with the same text
    nodes, rows = instance
    known = list(dict.fromkeys(map(str, nodes)))
    assume(len(known) > 1)
    capacities = data.draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    text = json.dumps({
        "nodes": known, "source": known[0], "target": known[-1],
        "edges": [{"id": eid, "tail": str(tail), "head": str(head), "capacity": k}
                  for (eid, tail, head), k in zip(rows, capacities)]})
    parsed = json.loads(text)
    try:
        net = files.network_from_json(parsed)
        got = built(lambda: net.graph) + [net.free_cap]
    except files.FormatError as exc:
        got = str(exc)
    try:
        edges, caps = files._parse_edges(parsed["edges"], set(parsed["nodes"]))
        want = built(reference_digraph, parsed["nodes"], edges) + [caps]
    except files.FormatError as exc:
        want = str(exc)
    assert got == want


@pytest.mark.parametrize("copy", [2, -1])
def test_plan_loader_refuses_copies_other_than_0_and_1(copy):
    data = files.plan_to_json(decompose(ladder15()))
    late, early = data["subflows"]["A"][-1], data["subflows"]["B"][0]
    assert early["edge"] < late["edge"]  # read second, named first
    late["copy"], early["copy"] = 3, copy
    with pytest.raises(PlanReferenceError) as err:
        files.plan_from_json(data, ladder15())
    assert str(err.value) == f"copy {copy} out of range for edge {early['edge']!r}"
