#!/usr/bin/env python3
"""Count the garbage collections that `decompose` triggers on large ladders.

For each size, a fresh interpreter (PYTHONHASHSEED=0) generates the seed-1
LADDER network of that many nodes, runs `gc.collect()`, then counts the
gen-0/1/2 collections made during five `decompose` calls on it.  Prints one
JSON line, {size: [gen0, gen1, gen2], ...}.

Usage:
  python3 scripts/gc_counts.py [SIZE ...]      (default: 8000 32000)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_ONE_SIZE = """
import gc, json, sys
from triflow import GenParams, Structure, decompose, generate

net = generate(GenParams(int(sys.argv[1]), 1, Structure.LADDER))
counts = [0, 0, 0]

def count(phase, info):
    if phase == "start":
        counts[info["generation"]] += 1

gc.collect()
gc.callbacks.append(count)
for _ in range(5):
    decompose(net)
gc.callbacks.remove(count)
print(json.dumps(counts))
"""


def main(argv):
    sizes = [int(a) for a in argv] or [8000, 32000]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = {}
    for n in sizes:
        proc = subprocess.run([sys.executable, "-c", _ONE_SIZE, str(n)], env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
        out[n] = json.loads(proc.stdout)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
