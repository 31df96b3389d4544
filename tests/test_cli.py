import dataclasses
import json
import os
import subprocess
import sys

import pytest

import triflow
from triflow import Digraph, Network, cli, failure_sweep, files
from triflow.cli import main

from netfixtures import chain2, ladder15, quadpath, tripath


@pytest.fixture
def ladder_file(tmp_path):
    path = tmp_path / "ladder.json"
    path.write_text(files.dumps(files.network_to_json(ladder15())))
    return str(path)


def write_net(tmp_path, net, name) -> str:
    path = tmp_path / name
    path.write_text(files.dumps(files.network_to_json(net)))
    return str(path)


def _env_with_src() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(triflow.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_analyze_ladder(ladder_file, capsys):
    assert main(["analyze", ladder_file]) == 0
    out = capsys.readouterr().out
    assert "network_coding" in out
    assert "3" in out


def test_analyze_json_output(ladder_file, capsys):
    assert main(["analyze", "--json", ladder_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"class": "network_coding", "reduced_max_flow": 3.0,
                    "protectable": True}


def test_analyze_diversity_and_refusals(tmp_path, capsys):
    quad = write_net(tmp_path, quadpath(), "q.json")
    assert main(["analyze", quad]) == 0
    assert "diversity_coding" in capsys.readouterr().out
    chain = write_net(tmp_path, chain2(), "c.json")
    assert main(["analyze", chain]) == 2
    assert "unprotected_2flow" in capsys.readouterr().out


def test_analyze_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": ["s"], "edges": []')
    assert main(["analyze", str(bad)]) == 1
    assert "line" in capsys.readouterr().err


def test_decompose_verify_roundtrip(ladder_file, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    assert main(["decompose", ladder_file, "-o", plan_path]) == 0
    data = json.loads(open(plan_path).read())
    assert data["verification"]["overall"] is True
    assert main(["verify", ladder_file, plan_path]) == 0


def test_decompose_refuses_unprotectable(tmp_path, capsys):
    chain = write_net(tmp_path, chain2(), "c.json")
    assert main(["decompose", chain, "-o", str(tmp_path / "p.json")]) == 2
    assert "unprotectable" in capsys.readouterr().err


def test_verify_detects_tampering(ladder_file, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    main(["decompose", ladder_file, "-o", plan_path])
    data = json.loads(open(plan_path).read())
    moved = data["subflows"]["A"].pop()
    data["subflows"]["B"].append(moved)
    tampered = str(tmp_path / "tampered.json")
    with open(tampered, "w") as fh:
        json.dump(data, fh)
    assert main(["verify", ladder_file, tampered]) == 2
    assert "violation" in capsys.readouterr().out


def test_verify_against_wrong_network(ladder_file, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    main(["decompose", ladder_file, "-o", plan_path])
    other = write_net(tmp_path, tripath(), "tri.json")
    assert main(["verify", other, plan_path]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_sweep(ladder_file, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    main(["decompose", ladder_file, "-o", plan_path])
    capsys.readouterr()
    code = main(["simulate", ladder_file, plan_path, "--sweep",
                 "--payload-a", "0102", "--payload-b", "fdfe"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == "22/22 failures decoded"
    failed = [line.split()[1].rstrip(":") for line in lines[:-1]]
    assert failed == [str(e) for e in ladder15().graph.edge_ids] == [str(e) for e in range(22)]
    assert all(" decoded via " in line for line in lines[:-1])


def test_simulate_sweep_requires_the_sent_payloads(ladder_file, tmp_path, capsys,
                                                   monkeypatch):
    plan_path = str(tmp_path / "plan.json")
    main(["decompose", ladder_file, "-o", plan_path])
    capsys.readouterr()

    def garbled_sweep(cn, plan, gen):
        outcomes = failure_sweep(cn, plan, gen)
        edge = next(iter(outcomes))
        outcomes[edge] = dataclasses.replace(outcomes[edge], decoded=(b"\0\0", b"\0\0"))
        return outcomes

    monkeypatch.setattr(cli, "failure_sweep", garbled_sweep)
    code = main(["simulate", ladder_file, plan_path, "--sweep",
                 "--payload-a", "0102", "--payload-b", "fdfe"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert lines[0].startswith("fail 0: LOST ")
    assert lines[-1] == "21/22 failures decoded"


def test_simulate_single_failure(ladder_file, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    main(["decompose", ladder_file, "-o", plan_path])
    plan = json.loads(open(plan_path).read())
    only_a = next(e["edge"] for e in plan["verification"]["survivability"]
                  if e["survivors"] == ["B", "XOR"])
    code = main(["simulate", ladder_file, plan_path, "--fail", str(only_a),
                 "--payload-a", "0102", "--payload-b", "fdfe"])
    out = capsys.readouterr().out
    assert code == 0
    assert "decoded via B+XOR" in out
    assert "a=0102 b=fdfe" in out


def test_simulate_payload_from_file(ladder_file, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    main(["decompose", ladder_file, "-o", plan_path])
    pa = tmp_path / "a.bin"
    pa.write_bytes(b"\x01\x02")
    code = main(["simulate", ladder_file, plan_path, "--sweep",
                 "--payload-a", f"@{pa}", "--payload-b", "fdfe"])
    assert code == 0


def test_simulate_missing_payload_is_usage_error(ladder_file, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    main(["decompose", ladder_file, "-o", plan_path])
    assert main(["simulate", ladder_file, plan_path, "--sweep"]) == 1


def _drop_arc(data):
    data["subflows"]["A"].pop(0)


def _duplicate_role(data):
    data["roles"].append(data["roles"][0])


def _swap_labels(data):
    subflows = data["subflows"]
    subflows["A"], subflows["XOR"] = subflows["XOR"], subflows["A"]


def _keep(data):
    pass


# Each edited plan keeps the report that `decompose` wrote for the intact one.
@pytest.mark.parametrize("edit,verdict", [
    (_drop_arc, 2), (_duplicate_role, 2), (_swap_labels, 2), (_keep, 0),
], ids=["dropped-arc", "duplicated-role", "swapped-labels", "intact"])
def test_simulate_refuses_exactly_what_verify_refuses(ladder_file, tmp_path, capsys,
                                                      edit, verdict):
    plan_path = tmp_path / "plan.json"
    main(["decompose", ladder_file, "-o", str(plan_path)])
    data = json.loads(plan_path.read_text())
    assert data["verification"]["overall"] is True
    edit(data)
    plan_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", ladder_file, str(plan_path)]) == verdict
    violations = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("violation[")]
    assert bool(violations) == (verdict == 2)
    for mode in (["--sweep"], ["--fail", "0"]):
        code = main(["simulate", ladder_file, str(plan_path), *mode,
                     "--payload-a", "0102", "--payload-b", "fdfe"])
        out, err = capsys.readouterr()
        assert code == verdict, mode
        if verdict == 2:
            assert out == ""
            assert err.splitlines() == [*violations, "refused: plan fails verification"]
        else:
            assert out and err == ""


def test_simulate_ignores_the_embedded_report(ladder_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    main(["decompose", ladder_file, "-o", str(plan_path)])
    data = json.loads(plan_path.read_text())
    del data["verification"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data))
    capsys.readouterr()
    for mode in (["--sweep"], ["--fail", "5"], ["--fail", "0"]):
        runs = []
        for path in (plan_path, bare):
            code = main(["simulate", ladder_file, str(path), *mode,
                         "--payload-a", "0102", "--payload-b", "fdfe"])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1] and runs[0][0] == 0, mode


def test_gen_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "n1.json"
    out2 = tmp_path / "n2.json"
    assert main(["gen", "--nodes", "20", "--seed", "5", "-o", str(out1)]) == 0
    assert main(["gen", "--nodes", "20", "--seed", "5", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["gen", "--nodes", "20", "--seed", "6", "-o", str(out1)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_gen_to_stdout_and_analyze(tmp_path, capsys):
    assert main(["gen", "--nodes", "12", "--seed", "2",
                 "--structure", "parallel_paths", "--target", "infeasible",
                 "-o", str(tmp_path / "inf.json")]) == 0
    assert main(["analyze", str(tmp_path / "inf.json")]) == 2


def test_gen_ladder_decomposes(tmp_path):
    net_path = str(tmp_path / "net.json")
    plan_path = str(tmp_path / "plan.json")
    assert main(["gen", "--nodes", "40", "--seed", "9", "-o", net_path]) == 0
    assert main(["decompose", net_path, "-o", plan_path]) == 0
    assert main(["verify", net_path, plan_path]) == 0


def test_gen_too_few_nodes_is_input_error(capsys):
    assert main(["gen", "--nodes", "1"]) == 1
    assert capsys.readouterr() == ("", "error: node_count must be at least 2\n")


def test_dot_export_is_stable(ladder_file, tmp_path):
    plan_path = str(tmp_path / "plan.json")
    dot1 = tmp_path / "p1.dot"
    dot2 = tmp_path / "p2.dot"
    assert main(["decompose", ladder_file, "-o", plan_path, "--dot", str(dot1)]) == 0
    assert main(["decompose", ladder_file, "-o", plan_path, "--dot", str(dot2)]) == 0
    assert dot1.read_bytes() == dot2.read_bytes()
    text = dot1.read_text()
    assert "style=dashed" in text and "style=dotted" in text and "style=solid" in text


def test_unknown_edge_in_fail_flag(ladder_file, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    main(["decompose", ladder_file, "-o", plan_path])
    assert main(["simulate", ladder_file, plan_path, "--fail", "nope",
                 "--payload-a", "01", "--payload-b", "02"]) == 1


def test_network_roundtrip_through_files(tmp_path):
    net = ladder15()
    path = tmp_path / "net.json"
    path.write_text(files.dumps(files.network_to_json(net)))
    loaded = files.load_network(str(path))
    assert sorted(loaded.graph.edges()) == sorted(net.graph.edges())
    assert loaded.free_cap == net.free_cap
    assert (loaded.source, loaded.target) == (net.source, net.target)
    data = files.network_to_json(net)
    units = type("Units", (int,), {})
    for e in data["edges"]:  # in-memory data may hold int subclasses; they load too
        e["capacity"] = units(e["capacity"])
    again = files.network_from_json(data)
    assert sorted(again.graph.edges()) == sorted(net.graph.edges())
    assert again.free_cap == net.free_cap


def _set_role(data):
    data["roles"] = [{"node": "s", "role": "relay", "label": "A"}]


def _set_copy(data):
    data["subflows"]["A"][0]["copy"] = "0"


def _set_edge_list(data):
    data["subflows"]["A"][0]["edge"] = [0]


def _set_reduced_text(data):
    data["reduced_max_flow"] = "3"


def _set_edge_true(data):
    # true == 1 in Python, so it must not load as edge 1
    for arcs in data["subflows"].values():
        for arc in arcs:
            if arc["edge"] == 1:
                arc["edge"] = True


def _role(**fields):
    def corrupt(data):
        data["roles"] = [{"node": "s", "role": "splitter", "label": "A", **fields}]
    return corrupt


_ROLE_SHAPE = ("roles[0] must have a string or integer node, a label in "
               "('A', 'B', 'XOR') and a role in ('splitter', 'merger')")


@pytest.mark.parametrize("corrupt,message", [
    pytest.param(f, None, id=f.__name__)
    for f in (_set_role, _set_copy, _set_edge_list, _set_reduced_text,
              _set_edge_true)
] + [
    pytest.param(_role(node="zz"), "roles[0] references unknown node 'zz'",
                 id="role-unknown-node"),
    pytest.param(_role(node=["x"]), _ROLE_SHAPE, id="role-unhashable-node"),
    pytest.param(_role(label="C"), _ROLE_SHAPE, id="role-unknown-label"),
    pytest.param(lambda data: data.update(reduced_max_flow=1e308),
                 "reduced_max_flow must be a number whose double is finite",
                 id="reduced-doubles-to-inf"),
])
def test_malformed_plan_is_input_error(ladder_file, tmp_path, capsys, corrupt, message):
    plan_path = str(tmp_path / "plan.json")
    main(["decompose", ladder_file, "-o", plan_path])
    capsys.readouterr()
    data = json.loads(open(plan_path).read())
    corrupt(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", ladder_file, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if message is not None:
        assert err == f"error: {message}\n"


def _edit(**fields):
    """Set `fields` on ladder15's edges, given as {index: value}."""
    def corrupt(data):
        for key, changes in fields.items():
            for i, value in changes.items():
                data["edges"][i][key] = value
    return corrupt


# ladder15's edge i has id i; edges 0-2 leave s, for a0, b0 and c0, and
# edge 3 is b0 -> c0.  True equals 1, so only on edge 1 does it stay unique.
@pytest.mark.parametrize("corrupt,message", [
    (lambda data: data.update(edges=5), "edges must be a list"),
    (_edit(tail={0: ["s"]}), "edges[0]: unknown tail ['s']"),
    (lambda data: data.update(source=["s"]), "unknown source ['s']"),
    (_edit(id={3: 0}), "edges[3]: duplicate edge id 0"),
    (_edit(head={2: "zz"}), "edges[2]: unknown head 'zz'"),
    (_edit(head={1: "s"}), "edges[1]: self-loop"),
    (_edit(capacity={4: 0}), "edges[4]: capacity must be a positive integer"),
    (_edit(id={1: True}), "edges[1]: id must be a string or integer"),
    (lambda data: data["edges"][5].pop("capacity"), "edges[5] missing 'capacity'"),
    (_edit(id={2: 0}, capacity={5: 0}), "edges[2]: duplicate edge id 0"),
    (_edit(capacity={1: "2"}, tail={6: "zz"}),
     "edges[1]: capacity must be a positive integer"),
], ids=["edges-not-a-list", "tail-not-a-string", "source-not-a-string",
        "duplicate-id", "unknown-head", "self-loop", "capacity-0", "id-true",
        "missing-capacity", "two-faults-graph-first", "two-faults-shape-first"])
def test_malformed_network_is_input_error(tmp_path, capsys, corrupt, message):
    data = files.network_to_json(ladder15())
    corrupt(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["analyze", str(bad)]) == 1
    assert "not UTF-8" in capsys.readouterr().err


def test_verify_output_is_independent_of_hash_seed(tmp_path):
    # Two out-of-range copies in one label: the smallest arc, ('ct', 5), is
    # named.  Six edges used twice: listed in edge order.
    edges = [("sa", "s", "a"), ("sb", "s", "b"), ("sc", "s", "c"), ("at", "a", "t"),
             ("bt", "b", "t"), ("ct", "c", "t"), ("ab", "a", "b")]
    net = write_net(tmp_path, Network(graph=Digraph("sabct", edges),
                                      free_cap={e: 1 for e, _, _ in edges},
                                      source="s", target="t"), "net.json")

    def plan_file(name, a, b):
        subflows = {"A": [{"edge": e, "copy": c} for e, c in a],
                    "B": [{"edge": e, "copy": c} for e, c in b], "XOR": []}
        path = tmp_path / name
        path.write_text(json.dumps({"class": "network_coding", "subflows": subflows}))
        return str(path)

    copies = plan_file("copies.json", [("sa", 0), ("at", 0), ("sb", 3), ("ct", 5)], [])
    twice = [(e, 0) for e in ("sa", "at", "sb", "bt", "sc", "ct")]
    capacity = plan_file("capacity.json", twice, twice)
    runs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(_env_with_src(), PYTHONHASHSEED=hash_seed)
        runs.append([subprocess.run([sys.executable, "-m", "triflow.cli", "verify", net, plan],
                                    env=env, capture_output=True, text=True)
                     for plan in (copies, capacity)])
    for bad, over in runs:
        assert (bad.returncode, bad.stdout) == (1, "")
        assert bad.stderr == "error: copy 5 out of range for edge 'ct'\n"
        assert over.returncode == 2
        assert [line for line in over.stdout.splitlines() if "[capacity]" in line] == [
            f"violation[capacity]: edge {e!r} uses 2 arcs, capacity 1"
            for e in ("at", "bt", "ct", "sa", "sb", "sc")]
        assert over.stdout == runs[0][1].stdout


def test_demo_ladder_script_runs(tmp_path):
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "demo_ladder.py")
    run = subprocess.run([sys.executable, script, "--out", str(tmp_path)],
                         env=_env_with_src(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    sweep = [line for line in run.stdout.splitlines() if line.startswith("failure sweep: ")]
    assert len(sweep) == 1
    good, total = sweep[0].split()[2].split("/")
    assert good == total and int(total) > 0
    assert {"network.json", "plan.json", "plan.dot"} <= set(os.listdir(tmp_path))
