"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized for desk-scale runs.
"""

import random
import statistics
import time

import pytest

from triflow import (CutKind, FeasibilityKind, GenParams, SegmentType,
                     Structure, build_auxiliary, classify_feasibility,
                     condition_network, decompose, derive_coding_capacities,
                     extract_segments, generate, residual_scc_condensation)
from triflow.errors import GenerationFailed
from triflow.plan import LABELS
from triflow.simulate import Generation, failure_sweep

from netfixtures import coding, ladder15
from oracles import brute_force_feasible


def _pass(name):
    print(f"[acceptance] {name}: PASS")


def test_c1_ladder_demo_end_to_end():
    net = ladder15()
    cn = coding(net)
    feas = classify_feasibility(cn)
    assert feas.kind is FeasibilityKind.NETWORK_CODING
    assert feas.reduced_value == 6  # exactly 3 units, doubled representation

    plan = decompose(net)
    assert plan.verification.overall

    gen = Generation(seq=0, payload_a=b"\xde\xad", payload_b=b"\xbe\xef")
    outcomes = failure_sweep(cn, plan, gen)
    assert len(outcomes) == 22
    assert all(o.decoded == (gen.payload_a, gen.payload_b)
               for o in outcomes.values())
    _pass("C1 demo ladder: classify, decompose, verify, exhaustive sweep")


def test_c2_ladder_demo_cut_chain():
    cond = condition_network(coding(ladder15()))
    chain = cond.chain
    assert chain.k == 5
    assert [k.name for k in chain.kinds] == [
        "THREE_ARC", "TWO_EDGE", "TWO_EDGE", "THREE_ARC", "TWO_EDGE"]
    net = cond.network
    scc = residual_scc_condensation(net.graph, net.reduced_caps(), cond.flow,
                                    net.source, net.target)
    components = {frozenset(c) for c in scc.components}
    for part in chain.parts:
        assert part in components  # each difference set is one residual SCC
    _pass("C2 demo ladder: maximal chain of 5 cuts, kinds and parts pinned")


def test_c3_feasibility_classifier_matches_definition():
    agreements = 0
    total = 0
    for seed in range(500):
        node_count = 2 + seed % 11  # 2..12 nodes
        net = generate(GenParams(node_count=node_count, seed=seed,
                                 structure=Structure.RANDOM_DAG))
        cn = derive_coding_capacities(net)
        feas = classify_feasibility(cn)
        total += 1
        if feas.protectable == brute_force_feasible(cn):
            agreements += 1
    assert total >= 500
    assert agreements == total
    _pass(f"C3 reduced-flow classifier agrees with the definitional oracle "
          f"on {total}/{total} networks")


_BENCH_ONE_SIZE = """
import json, statistics, sys, time
from triflow import GenParams, decompose, generate

n = int(sys.argv[1])
net = generate(GenParams(node_count=n, seed=1))
runs = []
for _ in range(5):
    t0 = time.perf_counter()
    plan = decompose(net)
    runs.append(time.perf_counter() - t0)
    assert plan.verification.overall
print(json.dumps(statistics.median(runs)))
"""


def test_c8_linear_time_proxy():
    # each size measured in a fresh interpreter so every run starts from the
    # same heap state, independent of whatever the suite allocated before
    import json
    import subprocess
    import sys

    sizes = (1000, 2000, 4000, 8000)
    start = time.perf_counter()
    medians = {}
    for n in sizes:
        proc = subprocess.run([sys.executable, "-c", _BENCH_ONE_SIZE, str(n)],
                              capture_output=True, text=True, check=True)
        medians[n] = json.loads(proc.stdout)
    total = time.perf_counter() - start
    ratios = [medians[b] / medians[a] for a, b in zip(sizes, sizes[1:])]
    assert all(r <= 2.5 for r in ratios), f"doubling ratios {ratios}"
    assert total < 120, f"benchmark took {total:.1f}s"
    _pass(f"C8 scaling ratios {[round(r, 2) for r in ratios]} "
          f"(medians {[round(medians[n] * 1000) for n in sizes]} ms, "
          f"total {total:.1f}s)")


def test_c8_work_counts_grow_linearly(monkeypatch):
    # the deterministic companion of C8: count the calls of max_flow and of
    # the segment solver's `_paths`, and their augmenting paths, instead of
    # timing, so the ratios cannot flake
    import importlib

    # `triflow.decompose` is the function, so the modules go by full name
    modules = [importlib.import_module(f"triflow.{name}")
               for name in ("graph", "conditioning", "decompose")]
    original = modules[0].max_flow
    original_paths = modules[2]._paths
    work = {"calls": 0, "augmentations": 0}

    def counted(*args, **kwargs):
        flow = original(*args, **kwargs)
        work["calls"] += 1
        work["augmentations"] += flow.augmentations
        return flow

    def counted_paths(*args, **kwargs):
        # one augmenting path per path found: every arc has unit capacity
        paths = original_paths(*args, **kwargs)
        work["calls"] += 1
        work["augmentations"] += len(paths)
        return paths

    for module in modules:
        monkeypatch.setattr(module, "max_flow", counted)
    monkeypatch.setattr(modules[2], "_paths", counted_paths)
    sizes = (1000, 2000, 4000, 8000)
    counts = []
    for n in sizes:
        work.update(calls=0, augmentations=0)
        decompose(generate(GenParams(node_count=n, seed=1)))
        counts.append((work["calls"], work["augmentations"]))
    ratios = [(b[0] / a[0], b[1] / a[1]) for a, b in zip(counts, counts[1:])]
    assert all(1.8 <= r <= 2.2 for pair in ratios for r in pair), \
        f"doubling ratios (calls, augmentations) {ratios} from counts {counts}"
    _pass(f"C8 work counts (max_flow and _paths calls, augmentations) {counts}")


def _network_coding_batch():
    """1000+ network-coding instances, mostly small ladders plus some large
    ones and whatever the other generators produce in class."""
    rng = random.Random(20240817)
    batch = []
    for seed in range(960):
        size = rng.choice((8, 10, 12, 16, 20, 28, 36, 48, 64))
        batch.append(generate(GenParams(node_count=size, seed=seed)))
    for seed in range(8):
        batch.append(generate(GenParams(node_count=200, seed=seed)))
    for seed in range(24):
        batch.append(generate(GenParams(node_count=6 + seed % 7, seed=seed,
                                        structure=Structure.PARALLEL_PATHS,
                                        target_class=FeasibilityKind.NETWORK_CODING)))
    made = 0
    for seed in range(40):
        if made >= 16:
            break
        try:
            batch.append(generate(GenParams(node_count=7, seed=seed,
                                            structure=Structure.RANDOM_DAG,
                                            target_class=FeasibilityKind.NETWORK_CODING)))
            made += 1
        except GenerationFailed:
            pass
    return batch


@pytest.fixture(scope="module")
def nc_batch():
    return _network_coding_batch()


def test_c4_decomposition_property_gate(nc_batch):
    assert len(nc_batch) >= 1000
    seen_types = set()
    for net in nc_batch:
        cn = derive_coding_capacities(net)
        cond = condition_network(cn)
        aux = build_auxiliary(cond.network)
        for seg in extract_segments(cond, aux):
            seen_types.add(seg.seg_type)
        plan = decompose(net)
        report = plan.verification
        assert report.overall
        assert report.violations == ()
        assert all(len(v) >= 2 for v in report.survivability.values())
    assert seen_types == set(SegmentType)
    _pass(f"C4 decompose+verify on {len(nc_batch)} network-coding instances, "
          f"all four segment types exercised")


def test_c5_half_integral_flow_values(nc_batch):
    checked = 0
    for net in nc_batch[:400]:
        cond = condition_network(derive_coding_capacities(net))
        values = set(cond.flow.per_edge.values())
        assert values <= {1, 2, 3}  # doubled {0.5, 1, 1.5}
        assert 0 not in values
        assert set(cond.flow.per_edge) == set(cond.network.graph.edge_ids)
        checked += 1
    assert checked == 400
    _pass(f"C5 conditioned flows half-integral and nowhere zero "
          f"({checked} instances)")


def test_c6_every_chain_cut_classifies(nc_batch):
    kinds = set()
    for net in nc_batch[:400]:
        cond = condition_network(derive_coding_capacities(net))
        kinds |= set(cond.chain.kinds)  # MalformedCut would have raised
    assert kinds <= {CutKind.TWO_EDGE, CutKind.THREE_ARC}
    _pass("C6 every chain cut is a 2-edge-cut or a 3-arc-cut")


def test_c7_diversity_fallback():
    count = 0
    for seed in range(40):
        try:
            net = generate(GenParams(node_count=8 + seed % 5, seed=seed,
                                     structure=Structure.RANDOM_DAG,
                                     target_class=FeasibilityKind.DIVERSITY_CODING))
        except GenerationFailed:
            continue
        plan = decompose(net)
        assert plan.feasibility.kind is FeasibilityKind.DIVERSITY_CODING
        assert plan.verification.overall
        used_edges = set()
        for label in LABELS:
            arcs = plan.subflows[label]
            # a simple edge-disjoint path: one arc per edge, no branching
            assert all(a.copy == 0 for a in arcs)
            out_deg = {}
            for a in arcs:
                tail, _ = net.graph.ends(a.edge)
                out_deg[tail] = out_deg.get(tail, 0) + 1
                assert a.edge not in used_edges
                used_edges.add(a.edge)
            assert all(d == 1 for d in out_deg.values())
        count += 1
    net = generate(GenParams(node_count=10, seed=0,
                             structure=Structure.PARALLEL_PATHS,
                             target_class=FeasibilityKind.DIVERSITY_CODING))
    plan = decompose(net)
    assert plan.verification.overall
    count += 1
    assert count >= 10
    _pass(f"C7 diversity-coding fallback returns verified disjoint paths "
          f"({count} instances)")


def test_c9_xor_decode_exactness():
    from triflow.simulate import decode, encode

    rng = random.Random(99)
    for i in range(10_000):
        size = rng.randint(0, 64)
        a = rng.randbytes(size)
        b = rng.randbytes(size)
        packets = encode(a, b)
        drop = ("A", "B", "XOR")[i % 3]
        received = {k: v for k, v in packets.items() if k != drop}
        assert decode(received) == (a, b)
    _pass("C9 decode from any two labels is exact on 10000 random pairs")
