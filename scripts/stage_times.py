#!/usr/bin/env python3
"""Time the stages that make a ladder's cut chain, and the whole-graph
stages around them, on large networks.

For each size, a fresh interpreter (PYTHONHASHSEED=0) generates the seed-1
LADDER network of that many nodes and times, best of N calls each:
`classify_feasibility`, `cancel_cycles` and `decompose_flow_to_paths` on
its probe, `_settle` from the probe, `build_cut_chain` on the settled
network, `condition_network` from the probe and a whole `decompose`, then
`generate` itself for the seed-1 LADDER (`generate_ladder`) and RANDOM_DAG
(`generate_random_dag`) of that size.  It also times `network_from_json` on
the network's parsed file, `AuxiliaryGraph` on the network `decompose`
builds it from and `plan_to_json` + `dumps` of the plan, on that LADDER and
on the first network-coding or diversity-coding RANDOM_DAG of that size,
seeds from 1 up (keys `dag_...`; `dag` names its seed and class).  Prints
one JSON line, {size: {stage: ms, ...}, ...}.

Usage:
  python3 scripts/stage_times.py [--best N] [SIZE ...]   (default: 5, 8000 32000)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_ONE_SIZE = """
import dataclasses, json, sys
from time import perf_counter
from triflow import (FeasibilityKind, GenParams, Structure, build_cut_chain, classify_feasibility,
                     condition_network, decompose, derive_coding_capacities, files, generate)
from triflow.conditioning import _settle
from triflow.decompose import AuxiliaryGraph
from triflow.graph import cancel_cycles, decompose_flow_to_paths

n, best = int(sys.argv[1]), int(sys.argv[2])


def whole_graph_stages(net, prefix=""):
    # the network `decompose` builds its auxiliary graph from, per class
    data = json.loads(files.dumps(files.network_to_json(net)))
    cn = derive_coding_capacities(net)
    feas = classify_feasibility(cn)
    if feas.kind is FeasibilityKind.DIVERSITY_CODING:
        network = dataclasses.replace(cn, coding_cap=dict.fromkeys(cn.graph.edge_ids, 1))
    else:
        network = condition_network(cn, feas.probe).network
    plan = decompose(net)
    return {
        prefix + "network_from_json": lambda: files.network_from_json(data),
        prefix + "AuxiliaryGraph": lambda: AuxiliaryGraph(network),
        prefix + "plan_to_json+dumps": lambda: files.dumps(files.plan_to_json(plan)),
        prefix + "decompose": lambda: decompose(net),
    }


net = generate(GenParams(n, 1, Structure.LADDER))
cn = derive_coding_capacities(net)
s, t = cn.source, cn.target
probe = classify_feasibility(cn).probe
graph, cap, flow = _settle(cn.graph, dict(cn.coding_cap), s, t, probe)
stages = {
    "classify_feasibility": lambda: classify_feasibility(cn),
    "cancel_cycles": lambda: cancel_cycles(cn.graph, probe, s, t),
    "decompose_flow_to_paths": lambda: decompose_flow_to_paths(cn.graph, probe, s, t),
    "_settle": lambda: _settle(cn.graph, dict(cn.coding_cap), s, t, probe),
    "build_cut_chain": lambda: build_cut_chain(graph, cap, flow, s, t),
    "condition_network": lambda: condition_network(cn, probe),
    **whole_graph_stages(net),
    "generate_ladder": lambda: generate(GenParams(n, 1, Structure.LADDER)),
    "generate_random_dag": lambda: generate(GenParams(n, 1, Structure.RANDOM_DAG)),
}
for seed in range(1, 1000):
    dag = generate(GenParams(n, seed, Structure.RANDOM_DAG))
    kind = classify_feasibility(derive_coding_capacities(dag)).kind
    if kind in (FeasibilityKind.NETWORK_CODING, FeasibilityKind.DIVERSITY_CODING):
        stages.update(whole_graph_stages(dag, "dag_"))
        break
times = {}
for name, call in stages.items():
    spans = []
    for _ in range(best):
        started = perf_counter()
        call()
        spans.append(perf_counter() - started)
    times[name] = round(min(spans) * 1e3, 2)
if "dag_decompose" in times:
    times["dag"] = f"seed {seed} {kind.value}"
print(json.dumps(times))
"""


def main(argv):
    best = 5
    if argv[:1] == ["--best"]:
        best, argv = int(argv[1]), argv[2:]
    sizes = [int(a) for a in argv] or [8000, 32000]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = {}
    for n in sizes:
        proc = subprocess.run([sys.executable, "-c", _ONE_SIZE, str(n), str(best)], env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
        out[n] = json.loads(proc.stdout)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
