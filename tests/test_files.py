"""`files.dumps` writes exactly what `json.dumps(indent=2, sort_keys=True)`
writes, on every shape the program emits and on arbitrary JSON values."""

import json
import math

from hypothesis import given, settings, strategies as st

from triflow import (Digraph, GenParams, Network, Structure, decompose, files,
                     generate, verify_plan)
from triflow.cli import main
from triflow.errors import Unprotectable

from netfixtures import coding, diamond2, ladder15, quadpath, tripath
from test_golden import mixed_ids

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
    ]
    for data in cases:
        assert files.dumps(data) == reference(data), data
    nan = files.dumps([{"v": math.nan}, {"v": 0.1}])
    assert nan == reference([{"v": math.nan}, {"v": 0.1}])


texts = st.lists(st.sampled_from(ODD_TEXT + ["a", "b", "A"]), max_size=3).map("".join)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts


def record_lists(children):
    # lists of dicts over one key set, the shape laid out column by column
    return st.lists(texts, min_size=1, max_size=3, unique=True).flatmap(
        lambda ks: st.lists(st.fixed_dictionaries({k: children for k in ks}), max_size=4))


json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(texts, children, max_size=4)
                      | record_lists(children)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dumps_matches_json_on_arbitrary_values(data):
    assert files.dumps(data) == reference(data)
