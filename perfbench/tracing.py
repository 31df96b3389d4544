"""Per-layer tracing for the benchmark, installed from outside the program.

Each traced public function of `triflow` is replaced, in every loaded module
that binds it, by a wrapper that records its span and folds it into per-layer
totals: calls, self time (span minus the spans of traced callees) and work
counts taken from arguments and return values.  Nothing inside `src/`
changes; `Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from collections import Counter
from time import perf_counter

# `triflow.decompose` is shadowed by the function of that name in the package
# namespace, so the modules are imported by full name.
graph, conditioning, cutchain, decompose, verify, simulate, files = (
    importlib.import_module(f"triflow.{name}") for name in
    ("graph", "conditioning", "cutchain", "decompose", "verify", "simulate", "files"))


def _augmentations(counts, args, result):
    counts["graph.max_flow.augmentations"] += result.augmentations


def _conditioning(counts, args, result):
    before = args[0]
    after = result.network
    kept = set(after.graph.edge_ids)
    counts["conditioning.pruned_edges"] += sum(
        1 for e in before.graph.edge_ids if e not in kept)
    counts["conditioning.demoted_edges"] += sum(
        1 for e in kept if before.coding_cap[e] == 2 and after.coding_cap[e] == 1)


def _chain(counts, args, result):
    counts["cutchain.k"] += result.k


def _aux(counts, args, result):
    counts["decompose.aux_arcs"] += len(result)


def _roles(counts, args, result):
    counts["decompose.roles"] += len(result.roles)


def _survivability(counts, args, result):
    counts["verify.survivability_edges"] += len(result.survivability)


def _delivery(counts, args, result):
    counts["simulate.arc_sends"] += sum(result.arc_sends.values())
    counts["simulate.outcomes"] += 1
    counts["simulate.decoded"] += result.decoded is not None


def _plan_bytes(counts, args, result):
    counts["files.plan_bytes"] += len(result.encode())


# (module, public function, span name, count hook).  `netgen` only runs in
# set-up; `cli`, `plan` and `errors` are thin or types-only.
TRACED = (
    (graph, "max_flow", "graph.max_flow", _augmentations),
    (graph, "edge_disjoint_paths", "graph.edge_disjoint_paths", None),
    (graph, "decompose_flow_to_paths", "graph.decompose_flow_to_paths", None),
    (graph, "cancel_cycles", "graph.cancel_cycles", None),
    (graph, "residual_scc_condensation", "graph.residual_scc_condensation", None),
    (conditioning, "derive_coding_capacities", "conditioning.derive_coding_capacities", None),
    (conditioning, "classify_feasibility", "conditioning.classify_feasibility", None),
    (conditioning, "condition_network", "conditioning.condition_network", _conditioning),
    (cutchain, "build_cut_chain", "cutchain.build_cut_chain", _chain),
    (decompose, "build_auxiliary", "decompose.build_auxiliary", _aux),
    (decompose, "extract_segments", "decompose.extract_segments", None),
    (decompose, "solve_segment", None, None),  # named by segment type
    (decompose, "glue_segments", "decompose.glue_segments", None),
    (decompose, "assign_roles", "decompose.assign_roles", _roles),
    (verify, "verify_plan", "verify.verify_plan", _survivability),
    (simulate, "simulate_transmission", "simulate.simulate_transmission", _delivery),
    (files, "network_from_json", "files.network_from_json", None),
    (files, "plan_to_json", "files.plan_to_json", None),
    (files, "dumps", "files.dumps", _plan_bytes),
    (files, "plan_from_json", "files.plan_from_json", None),
)


class Tracer:
    """Span totals for one traced pass at a time.

    `install` swaps the wrappers in; `take` returns and clears the totals
    gathered since the last `take`.  The wrappers only add to this object, so
    two tracers never share state.
    """

    def __init__(self):
        self._stack = []      # time spent in traced callees, per open span
        self._self_s = Counter()
        self._counts = Counter()
        self._undo = []
        self._gc_start = None

    def _record(self, name, started, result, args, hook):
        span = perf_counter() - started
        self._self_s[name] += span - self._stack.pop()
        self._counts[name + ".calls"] += 1
        if hook is not None:
            hook(self._counts, args, result)
        # hook time is tracing overhead: keep it out of the caller's self time
        if self._stack:
            self._stack[-1] += perf_counter() - started

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name or f"decompose.solve_segment.{args[0].seg_type.value}"
            tracer._stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._record(span_name, started, None, args, None)
                raise
            tracer._record(span_name, started, result, args, hook)
            return result

        return traced

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self._self_s["py.gc"] += perf_counter() - self._gc_start
            self._counts["py.gc.collections"] += 1
            self._gc_start = None

    def root(self, name, fn, *args):
        """Run `fn(*args)` as a root span (one benchmark operation)."""
        return self._wrap(fn, name, None)(*args)

    def install(self):
        wrappers = {}
        for module, attr, name, hook in TRACED:
            original = getattr(module, attr)
            wrappers[id(original)] = self._wrap(original, name, hook)
        # every loaded module, so that callers' `from triflow import f`
        # bindings (the benchmark's own included) reach the wrapper too
        for m in list(sys.modules.values()):
            for binding, value in list(getattr(m, "__dict__", {}).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((m, binding, value))
                    setattr(m, binding, wrapper)
        init = graph.Digraph.__init__
        self._undo.append((graph.Digraph, "__init__", init))
        graph.Digraph.__init__ = self._wrap(init, "graph.Digraph", None)
        gc.callbacks.append(self._gc)

    def uninstall(self):
        gc.callbacks.remove(self._gc)
        while self._undo:
            owner, binding, value = self._undo.pop()
            setattr(owner, binding, value)

    def take(self) -> tuple:
        """(self seconds by span, counts) since the previous call."""
        self_s, counts = self._self_s, self._counts
        self._self_s, self._counts = Counter(), Counter()
        return self_s, counts


def layer_metrics(self_s, counts) -> dict:
    """The named per-layer metrics of one pass, as {name: (value, unit)}."""
    out = {}

    def seconds(span):
        out[f"{span}.s"] = (self_s.get(span, 0.0), "s")

    def calls(span, key="calls"):
        out[f"{span}.{key}"] = (counts.get(f"{span}.calls", 0), "count")

    for span in [name for _, _, name, _ in TRACED if name] + ["graph.Digraph", "py.gc"]:
        seconds(span)
    for seg_type in ("I", "II", "III", "IV"):
        span = f"decompose.solve_segment.{seg_type}"
        seconds(span)
        calls(span, "count")
    for span in ("graph.max_flow", "cutchain.build_cut_chain", "verify.verify_plan",
                 "simulate.simulate_transmission"):
        calls(span)
    calls("graph.Digraph", "builds")
    for key in ("graph.max_flow.augmentations", "conditioning.pruned_edges",
                "conditioning.demoted_edges", "cutchain.k", "decompose.aux_arcs",
                "decompose.roles", "verify.survivability_edges", "simulate.arc_sends",
                "files.plan_bytes", "py.gc.collections"):
        out[key] = (counts.get(key, 0), "count")
    outcomes = counts.get("simulate.outcomes", 0)
    out["simulate.decoded_ratio"] = (
        counts.get("simulate.decoded", 0) / outcomes if outcomes else 1.0, "ratio")
    return out


# Counts that must repeat exactly for equal inputs, whatever the clock does.
WORK_COUNTERS = (
    "graph.max_flow.calls", "graph.max_flow.augmentations", "graph.Digraph.builds",
    "cutchain.k", "decompose.solve_segment.I.count", "decompose.solve_segment.II.count",
    "decompose.solve_segment.III.count", "decompose.solve_segment.IV.count",
    "conditioning.pruned_edges", "conditioning.demoted_edges", "simulate.arc_sends",
)
