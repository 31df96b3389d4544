#!/usr/bin/env python3
"""Benchmark entry point for triflow.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload runs in its own fresh, single-threaded Python process
(`bench.py`) with the source tree on PYTHONPATH and a PYTHONHASHSEED drawn at
random.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.

Byte determinism: the sha256 of a run's plan JSON is kept in
`.perfbench/digests.json` by workload, seed and a sha256 of the sources
(`src/triflow` and `perfbench`).  A later run of the same code, workload and
seed, traced or not and under another PYTHONHASHSEED, must produce the same
digest, or the run counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = Path("src")
STATE = Path(".perfbench") / "digests.json"
CHILD_TIMEOUT_S = 175


def code_hash() -> str:
    """sha256 over the paths and bytes of the Python sources under test."""
    h = hashlib.sha256()
    for root in (SOURCE / "triflow", HERE):
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root.parent).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _check_digest(workload, seed, code, digest, hash_seed) -> str | None:
    """Record the digest; return an error if it differs from an earlier run
    of the same code."""
    key = f"{workload}:{seed}:{code[:16]}"
    state = json.loads(STATE.read_text()) if STATE.exists() else {}
    seen = state.get(key)
    if seen is not None and seen["digest"] != digest:
        return (f"plan digest {digest[:16]} (PYTHONHASHSEED={hash_seed}) differs from "
                f"{seen['digest'][:16]} (PYTHONHASHSEED={seen['hash_seeds'][0]})")
    entry = state.setdefault(key, {"digest": digest, "hash_seeds": []})
    entry["hash_seeds"].append(hash_seed)
    STATE.parent.mkdir(exist_ok=True)
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    tmp.replace(STATE)
    return None


def run_workload(workload, seed, seconds, trace) -> int:
    hash_seed = secrets.randbelow(2 ** 32)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [str(SOURCE.resolve())] + ([path] if path else [])))
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        print(f"{workload}: exited {proc.returncode} without a result", file=sys.stderr)
        return 1

    print(f"== {workload} seed={seed} trace={trace} PYTHONHASHSEED={hash_seed}")
    for line in lines[:-1]:
        print(line)
    digest = result.pop("digest")
    print(f"plan digest sha256 {digest}")
    error = _check_digest(workload, seed, code_hash(), digest, hash_seed)
    if error:
        print(f"FAILED {error}")
        result["failed"] += 1
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "triflow" / "__init__.py").is_file():
        print("error: run from the repository root; src/triflow is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        spec = json.loads(Path("BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
    else:
        names = [args.workload]
    status = 0
    for name in names:
        status |= run_workload(name, args.seed, args.seconds, args.trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
