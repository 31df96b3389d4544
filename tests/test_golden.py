"""Golden plans: the bytes of every plan (or refusal) on a fixed corpus.

A change that should leave behaviour alone must leave GOLDEN_DIGEST alone.
If the digest moves, the code changed what it computes: fix the code, never
the pin.  Run `python tests/test_golden.py` to print the corpus digest.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import triflow
from triflow import GenParams, Structure, decompose, files, generate
from triflow.errors import GenerationFailed, Unprotectable

# sha256 over the newline-joined per-input sha256 hex digests of CORPUS.
GOLDEN_DIGEST = "6ddc1be915ce8499f7d6486b734b76758a9749959d1d87a7aae40a8824a16e31"

CORPUS = (
    [GenParams(n, seed, Structure.LADDER)
     for n in (8, 12, 16, 24, 36, 64, 200, 1000) for seed in range(12)]
    + [GenParams(n, seed, Structure.RANDOM_DAG)
       for n in (7, 10, 16, 32, 64) for seed in range(40)]
    + [GenParams(n, seed, Structure.PARALLEL_PATHS)
       for n in (5, 8, 12) for seed in range(10)]
)


def corpus_digest() -> str:
    digests = []
    for params in CORPUS:
        try:
            net = generate(params)
        except GenerationFailed:
            continue
        try:
            text = files.dumps(files.plan_to_json(decompose(net)))
        except Unprotectable as exc:
            text = exc.feasibility.kind.value
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def test_golden_plans_unchanged():
    assert corpus_digest() == GOLDEN_DIGEST


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_golden_plans_independent_of_hash_seed(hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(triflow.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == GOLDEN_DIGEST


if __name__ == "__main__":
    print(corpus_digest())
