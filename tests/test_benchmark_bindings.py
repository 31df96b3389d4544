"""The benchmark under `perfbench/` binds triflow names when it loads and
wraps others when it traces; a renamed or deleted one breaks it there."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_and_imported_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("bench")  # runs its `from triflow import (...)`
    tracing = importlib.import_module("tracing")
    assert tracing.TRACED
    for module, name, *_ in tracing.TRACED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
