"""Checks on the benchmark itself, on scaled-down copies of its workloads.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import refclock  # noqa: E402
import run as launcher  # noqa: E402
import tracing  # noqa: E402
from triflow.errors import GlueMismatch  # noqa: E402

SMALL = {
    "ladder-large": bench._ladders("ladder-large", 400, 2),
    "dag-large": bench._dag_mix("dag-large", [(300, k) for k in bench._DAG_MIX]),
    "small-batch": bench._small_batch("small-batch", 40, 8, 64),
    "replay-sweep": bench._ladders("replay-sweep", 120, 2),
}


def small(name):
    return dataclasses.replace(bench.WORKLOADS[name], select=SMALL[name])


def test_small_workloads_cover_the_spec():
    assert set(SMALL) == set(bench.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in bench.WORKLOADS.values()]


_CHILD = """
import json, sys
sys.path[:0] = {paths!r}
import bench, tracing, test_perfbench as t
out = {{}}
for name in bench.WORKLOADS:
    run, metrics, _ = bench.run_traced(t.small(name), 5, 0)
    plain, _, _ = bench.run_untraced(t.small(name), 5, 0)
    out[name] = {{"errors": run.errors + plain.errors,
                 "traced": run.digest(), "untraced": plain.digest(),
                 "counts": {{k: metrics[k][0] for k in tracing.WORK_COUNTERS}}}}
print(json.dumps(out))
"""


def _traced_in_fresh_process(hash_seed):
    code = _CHILD.format(paths=[str(ROOT / "src"), str(HERE)])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_counters_and_digests_repeat_across_processes_and_hash_seeds():
    first = _traced_in_fresh_process(1)
    second = _traced_in_fresh_process(2024)
    for name in bench.WORKLOADS:
        a, b = first[name], second[name]
        assert a["errors"] == [] and b["errors"] == []
        assert a["counts"] == b["counts"], name
        assert a["traced"] == a["untraced"] == b["traced"] == b["untraced"], name
    assert first["ladder-large"]["counts"]["decompose.solve_segment.III.count"] > 0
    assert first["replay-sweep"]["counts"]["simulate.arc_sends"] > 0
    assert first["dag-large"]["counts"]["conditioning.pruned_edges"] > 0


def test_tracing_restores_every_binding():
    decompose_module = sys.modules["triflow.decompose"]
    before = dict(vars(decompose_module))
    init = tracing.graph.Digraph.__init__
    tracer = tracing.Tracer()
    tracer.install()
    assert decompose_module.max_flow is not before["max_flow"]
    tracer.uninstall()
    assert dict(vars(decompose_module)) == before
    assert tracing.graph.Digraph.__init__ is init


def test_every_per_layer_metric_is_reported():
    run, metrics, lines = bench.run_traced(small("ladder-large"), 1, 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert run.errors == []
    assert any(line.startswith("GC:") for line in lines)
    assert any(line.startswith("tracing overhead:") for line in lines)


def test_every_end_to_end_metric_is_reported():
    run, metrics, lines = bench.run_untraced(small("small-batch"), 1, 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert run.errors == []


def test_refclock_scales_by_the_samples_around_an_interval():
    clock = refclock.RefClock()
    ref = refclock.REF_KERNEL_S
    clock.starts = [0.0, 10.0, 20.0, 30.0]
    clock.ends = [1.0, 11.0, 21.0, 31.0]
    clock.times = [ref, 2 * ref, ref, 4 * ref]
    # two samples before, two after: mean 2 * ref
    assert clock.scaled(12.0, 15.0) == pytest.approx(3.0 / 2)
    # one sample before, two after: mean 4/3 * ref
    assert clock.scaled(2.0, 6.0) == pytest.approx(4.0 * 3 / 4)
    # two before, none after: mean 2.5 * ref
    assert clock.scaled(32.0, 37.0) == pytest.approx(5.0 / 2.5)


def test_gate_counts_a_plan_that_fails_verification(monkeypatch):
    real = bench.decompose

    def drop_one_arc(net):
        plan = real(net)
        arcs = sorted(plan.subflows["XOR"])
        subflows = dict(plan.subflows, XOR=frozenset(arcs[1:]))
        return dataclasses.replace(plan, subflows=subflows)

    monkeypatch.setattr(bench, "decompose", drop_one_arc)
    run, _, _ = bench.run_untraced(small("replay-sweep"), 1, 0)
    assert run.errors and any("fresh verify_plan" in e for e in run.errors)


def test_gate_counts_an_exception_other_than_unprotectable(monkeypatch):
    def broken(net):
        raise GlueMismatch("injected")

    monkeypatch.setattr(bench, "decompose", broken)
    run, _, _ = bench.run_untraced(small("ladder-large"), 1, 0)
    assert sum("protect raised GlueMismatch" in e for e in run.errors) == 2


def test_gate_counts_a_wrong_refusal(monkeypatch):
    from triflow import Feasibility, FeasibilityKind
    from triflow.errors import Unprotectable

    def refuse(net):
        raise Unprotectable(Feasibility(FeasibilityKind.INFEASIBLE, 0))

    monkeypatch.setattr(bench, "decompose", refuse)
    run, _, _ = bench.run_untraced(small("replay-sweep"), 1, 0)
    assert sum("refused as INFEASIBLE" in e for e in run.errors) == 2


def test_launcher_flags_a_changed_digest_of_the_same_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert launcher._check_digest("w", 1, "c1", "aa", 5) is None
    assert launcher._check_digest("w", 1, "c1", "aa", 6) is None
    assert "differs" in launcher._check_digest("w", 1, "c1", "bb", 7)
    assert launcher._check_digest("w", 1, "c2", "bb", 8) is None


def test_code_hash_covers_the_sources(tmp_path, monkeypatch):
    src = tmp_path / "src" / "triflow"
    src.mkdir(parents=True)
    (src / "graph.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    before = launcher.code_hash()
    assert launcher.code_hash() == before
    (src / "graph.py").write_text("x = 2\n")
    assert launcher.code_hash() != before


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dag-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_launcher_prints_the_result_line_last(trace, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "replay-sweep", "--seed", "2", "--seconds", "0",
                           "--trace", str(trace)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
