"""Golden plans: the bytes of every plan (or refusal) on fixed corpora.

A change that should leave behaviour alone must leave both digests alone.
If a digest moves, the code changed what it computes: fix the code, never
the pin.  Run `python tests/test_golden.py` to print both corpus digests,
then the digests of the reports that `verify_plan` makes on the reloaded
plans, which must not depend on PYTHONHASHSEED either.
"""

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

import triflow
from triflow import (LABELS, Digraph, GenParams, Network, RecoveryPlan, Structure,
                     decompose, derive_coding_capacities, files, generate, verify_plan)
from triflow.errors import GenerationFailed, Unprotectable
from triflow.plan import Subflows

# sha256 over the newline-joined per-input sha256 hex digests of CORPUS.
GOLDEN_DIGEST = "a675d9e2b86e616ba3747a73046ad5580a06c9f7716bbd2d8a2d9c5bd49b23c8"

CORPUS = (
    [GenParams(n, seed, Structure.LADDER)
     for n in (8, 12, 16, 24, 36, 64, 200, 1000) for seed in range(12)]
    + [GenParams(n, seed, Structure.RANDOM_DAG)
       for n in (7, 10, 16, 32, 64) for seed in range(40)]
    + [GenParams(n, seed, Structure.PARALLEL_PATHS)
       for n in (5, 8, 12) for seed in range(10)]
)

# The same digest over MIXED_CORPUS, each network passed through `mixed_ids`
# (21 plans and 7 refusals).  Mixed id types make every id sort take
# `order_key` explicitly, which CORPUS (int edges, str nodes) never does.
MIXED_DIGEST = "fc6d8be8d0ccc73099ed5f1a5f5fa91e5e3f68796ac16b44e49bef277397999d"

MIXED_CORPUS = (
    [GenParams(n, seed, Structure.LADDER) for n in (8, 16, 64, 200) for seed in range(4)]
    + [GenParams(n, seed, Structure.RANDOM_DAG) for n in (7, 10, 16, 32) for seed in range(3)]
)


def mixed_ids(net: Network) -> Network:
    """Relabel so node ids mix int and str (even positions become ints) and
    edge ids mix str and int (even positions become "e<i>")."""
    node = {v: i if i % 2 == 0 else v for i, v in enumerate(net.graph.nodes_sorted)}
    edge = {e: i if i % 2 else f"e{i}" for i, e in enumerate(net.graph.edge_ids)}
    graph = Digraph(node.values(),
                    [(edge[e], node[tail], node[head]) for e, tail, head in net.graph.edges()])
    return Network(graph=graph, free_cap={edge[e]: k for e, k in net.free_cap.items()},
                   source=node[net.source], target=node[net.target])


def _answers(corpus, relabel):
    """(network, plan or `Unprotectable`) for each input of `corpus`."""
    for params in corpus:
        try:
            net = generate(params)
        except GenerationFailed:
            continue
        if relabel is not None:
            net = relabel(net)
        try:
            yield net, decompose(net)
        except Unprotectable as exc:
            yield net, exc


def _digest(texts) -> str:
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def _refusal(answer):
    return answer.feasibility.kind.value if isinstance(answer, Unprotectable) else None


def corpus_digest(corpus=CORPUS, relabel=None) -> str:
    return _digest(_refusal(answer) or files.dumps(files.plan_to_json(answer))
                   for _, answer in _answers(corpus, relabel))


def _reverified(net, plan) -> str:
    """The JSON of `verify_plan`'s report on `plan` reloaded from its file."""
    loaded = files.plan_from_json(json.loads(files.dumps(files.plan_to_json(plan))), net)
    report = verify_plan(derive_coding_capacities(net), loaded)
    return files.dumps(files.report_to_json(report))


def reverify_digest(corpus=CORPUS, relabel=None) -> str:
    """The digest of `corpus_digest`'s shape over the reports that
    `verify_plan` makes on the reloaded plans."""
    return _digest(_refusal(answer) or _reverified(net, answer)
                   for net, answer in _answers(corpus, relabel))


@functools.cache
def _reverify_digests() -> list:
    return [reverify_digest(), reverify_digest(MIXED_CORPUS, mixed_ids)]


def test_golden_plans_unchanged():
    assert corpus_digest() == GOLDEN_DIGEST


def test_golden_mixed_id_plans_unchanged():
    assert corpus_digest(MIXED_CORPUS, mixed_ids) == MIXED_DIGEST


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_golden_plans_independent_of_hash_seed(hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(triflow.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [GOLDEN_DIGEST, MIXED_DIGEST, *_reverify_digests()]


def test_reloaded_plans_verify_as_decomposed():
    """On both corpora, a plan reloaded from its file, a copy interned from
    its `Arc` view by `Subflows.from_arcs`, and the plan verified against
    an equal graph object (interned anew) verify to the report that
    `decompose` made, and the view holds exactly the plan's arc ints."""
    plans = 0
    for corpus, relabel in ((CORPUS, None), (MIXED_CORPUS, mixed_ids)):
        for net, plan in _answers(corpus, relabel):
            if _refusal(plan):
                continue
            cn = derive_coding_capacities(net)
            assert _reverified(net, plan) == files.dumps(
                files.report_to_json(plan.verification))
            arc_built = RecoveryPlan(subflows=Subflows.from_arcs(plan.subflows, cn.graph),
                                     roles=plan.roles, feasibility=plan.feasibility)
            assert arc_built.subflows.ints == plan.subflows.ints
            assert verify_plan(cn, arc_built) == plan.verification
            assert files.plan_to_json(arc_built.with_verification(plan.verification)) == \
                files.plan_to_json(plan)
            twin = dataclasses.replace(cn, graph=Digraph(cn.graph.nodes_sorted,
                                                         cn.graph.edges()))
            assert verify_plan(twin, plan) == plan.verification
            index = plan.subflows.graph._edge_index
            for label in LABELS:
                ints = plan.subflows.ints[label]
                assert list(ints) == sorted(set(ints))
                view = plan.subflows[label]
                assert len(view) == len(ints)
                assert {2 * index[arc.edge] + arc.copy for arc in view} == set(ints)
            plans += 1
    assert plans > 200


if __name__ == "__main__":
    print(corpus_digest())
    print(corpus_digest(MIXED_CORPUS, mixed_ids))
    print(*_reverify_digests(), sep="\n")
