#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

Usage:
  python3 scripts/bench_pairs.py WORKLOAD SEED0 N PARENT_DIR CHANGE_DIR

WORKLOAD `all` runs the pairs for every workload in CHANGE_DIR's
BENCHMARK.json, one workload after another, and prints one table each.
Pair i (0 <= i < N) runs `perfbench/run.py --workload WORKLOAD --seed SEED0+i
--trace 0` once in each checkout, for the `run_seconds` that CHANGE_DIR's
BENCHMARK.json fixes; the parent goes first in even pairs, the change in odd
ones.  Each run starts in its own checkout, so the digest state that run.py
keeps stays there.  Prints every pair, then for each end-to-end metric each
side's median and quartiles, the change's wins (ties count for neither),
whether the gain rule holds (wins in at least nine tenths of the pairs, and
medians further apart, in the better direction, than the parent's quartiles)
and the no-regression verdict against the metric's `bound` in BENCHMARK.json
(see `verdict`).  Exits non-zero when a run fails, two runs of one seed give
different plan digests, or a metric exceeds its bound.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """The result line of one untraced run, plus its plan digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    digests = [line.split()[-1] for line in lines if line.startswith("plan digest")]
    result["digest"] = digests[-1] if digests else None
    result["correct"] = result.get("correct") is True and proc.returncode == 0
    return result


def value(result: dict, name: str) -> float:
    return result["metrics"].get(name, {}).get("value", math.nan)


def quartiles(values) -> tuple:
    """(q1, median, q3); `statistics.quantiles` needs two or more values."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else values * 3


def verdict(par, chg, bound: float, lower: bool) -> str:
    """No-regression verdict of one metric: "within bound" when the change's
    median is worse than the parent's by at most `bound`, a fraction of the
    parent's median; "unresolved" when the parent's quartile spread exceeds
    that bound, unless every change run beats every parent run; else
    "exceeds bound"."""
    sign = 1 if lower else -1  # sign * value: lower is better
    if max(sign * c for c in chg) < min(sign * p for p in par):
        return "within bound (every change run better)"
    (p1, pm, p3), cm = quartiles(par), statistics.median(chg)
    if p3 - p1 > bound * abs(pm):
        return "unresolved"
    return "within bound" if sign * (cm - pm) <= bound * abs(pm) else "exceeds bound"


def pairs(workload: str, seed0: int, n: int, dirs: dict, spec: dict) -> int:
    """Run and print the `n` pairs of one workload and its table; 1 when a run
    failed or a seed's digests differ, else 0."""
    metrics = spec["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    status = 0
    for i in range(n):
        seed = seed0 + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run(dirs[side], workload, seed, spec["run_seconds"])
                   for side in order}
        for side in SIDES:
            for m in metrics:
                values[side][m["name"]].append(value(results[side], m["name"]))
        failed = [side for side in SIDES if not results[side]["correct"]]
        same = results["parent"]["digest"] == results["change"]["digest"]
        if failed or not same:
            status = 1
        row = "  ".join(f"{m['name']} {value(results['parent'], m['name']):.4g}"
                        f" -> {value(results['change'], m['name']):.4g}" for m in metrics)
        print(f"pair {i} seed {seed} first={order[0]} digests {'same' if same else 'DIFFER'}"
              f"{' FAILED ' + ','.join(failed) if failed else ''}  {row}", flush=True)

    print(f"\n{workload}: {n} pairs from seed {seed0}; "
          "median [q1, q3] parent -> change, change wins, gain rule, no-regression")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par, chg = values["parent"][name], values["change"][name]
        if any(map(math.isnan, par + chg)):
            print(f"{name}: missing in some run")
            continue
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        (p1, pm, p3), (c1, cm, c3) = quartiles(par), quartiles(chg)
        gap = (pm - cm) if lower else (cm - pm)
        holds = wins >= math.ceil(0.9 * n) and gap > p3 - p1
        judged = verdict(par, chg, m["bound"], lower)
        if judged == "exceeds bound":
            status = 1
        print(f"{name} ({m['unit']}): {pm:.4g} [{p1:.4g}, {p3:.4g}] -> "
              f"{cm:.4g} [{c1:.4g}, {c3:.4g}]  ratio {cm / pm:.3f}  "
              f"wins {wins}/{n}  gain rule {'holds' if holds else 'fails'}  "
              f"bound {m['bound']:.0%}: {judged}", flush=True)
    return status


def main(argv) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seed0, n = argv[0], int(argv[1]), int(argv[2])
    dirs = dict(zip(SIDES, (Path(argv[3]).resolve(), Path(argv[4]).resolve())))
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] if workload == "all" else [workload]
    status = 0
    for i, name in enumerate(workloads):
        if i:
            print(flush=True)
        status |= pairs(name, seed0, n, dirs, spec)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
