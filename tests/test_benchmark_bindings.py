"""The benchmark under `perfbench/` binds triflow names when it loads and
wraps others when it traces; a renamed or deleted one breaks it there."""

import importlib
import json
from pathlib import Path

from triflow import (Generation, decompose, derive_coding_capacities, files,
                     simulate_transmission, verify_plan)

from netfixtures import ladder15, quadpath

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_and_imported_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("bench")  # runs its `from triflow import (...)`
    tracing = importlib.import_module("tracing")
    assert tracing.TRACED
    for module, name, *_ in tracing.TRACED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def traced_counts(monkeypatch, work):
    """The tracer's counts over one call of `work()`, which reads the names
    it traces from this module's globals, as the benchmark does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        work()
    finally:
        tracer.uninstall()
    return tracer.take()[1]


def test_traced_spans_see_the_protect_path(monkeypatch):
    # a traced name that the pipeline stopped calling would read 0 calls
    counts = traced_counts(monkeypatch, lambda: decompose(ladder15()))
    # ladder15's segments are of types IV, II, III and IV
    for span in ("graph.max_flow", "conditioning.classify_feasibility",
                 "graph.residual_scc_condensation",
                 "cutchain.build_cut_chain", "decompose.build_auxiliary",
                 "decompose.extract_segments", "decompose.solve_segment.II",
                 "decompose.solve_segment.III", "decompose.solve_segment.IV",
                 "decompose.glue_segments", "decompose.assign_roles",
                 "verify.verify_plan"):
        assert counts[f"{span}.calls"] > 0, span


def test_diversity_coding_runs_the_segment_pipeline(monkeypatch):
    # quadpath has four disjoint unit paths: one type-I segment, no cuts
    counts = traced_counts(monkeypatch, lambda: decompose(quadpath()))
    assert counts["decompose.solve_segment.I.calls"] == 1
    assert counts["cutchain.build_cut_chain.calls"] == 0
    assert counts["graph.edge_disjoint_paths.calls"] == 0


def test_traced_counts_see_a_replay(monkeypatch):
    # the replay's count hooks, which only `pytest perfbench` runs otherwise:
    # plan file -> verify -> one single-failure simulation
    net = ladder15()
    text = files.dumps(files.plan_to_json(decompose(net)))
    gen = Generation(seq=1, payload_a=b"\x01", payload_b=b"\x02")

    def replay():
        plan = files.plan_from_json(json.loads(text), net)
        cn = derive_coding_capacities(net)
        verify_plan(cn, plan)
        simulate_transmission(cn, plan, gen, failed_edge=net.graph.edge_ids[0])

    counts = traced_counts(monkeypatch, replay)
    for span in ("files.plan_from_json", "verify.verify_plan",
                 "simulate.simulate_transmission"):
        assert counts[f"{span}.calls"] == 1, span
    assert counts["simulate.arc_sends"] > 0
    assert counts["verify.survivability_edges"] > 0
