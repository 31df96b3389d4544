"""The benchmark under `perfbench/` binds triflow names when it loads and
wraps others when it traces; a renamed or deleted one breaks it there."""

import importlib
from pathlib import Path

from triflow import decompose

from netfixtures import ladder15

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_and_imported_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("bench")  # runs its `from triflow import (...)`
    tracing = importlib.import_module("tracing")
    assert tracing.TRACED
    for module, name, *_ in tracing.TRACED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_traced_spans_see_the_protect_path(monkeypatch):
    # a traced name that the pipeline stopped calling would read 0 calls
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        decompose(ladder15())
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    # ladder15's segments are of types IV, II, III and IV
    for span in ("graph.max_flow", "conditioning.classify_feasibility",
                 "graph.residual_scc_condensation",
                 "cutchain.build_cut_chain", "decompose.build_auxiliary",
                 "decompose.extract_segments", "decompose.solve_segment.II",
                 "decompose.solve_segment.III", "decompose.solve_segment.IV",
                 "decompose.glue_segments", "decompose.assign_roles",
                 "verify.verify_plan"):
        assert counts[f"{span}.calls"] > 0, span
