"""Seeded test-network generators.

LADDER chains small blocks whose boundaries are alternating 2-edge and 3-arc
minimum cuts, so instances are network-coding class by construction and
exercise all four segment shapes.  RANDOM_DAG rejection-samples layered DAGs
until the requested class comes out.  PARALLEL_PATHS builds internally
disjoint unit paths, one per unit of connectivity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .conditioning import (FeasibilityKind, Network, classify_feasibility,
                           derive_coding_capacities)
from .errors import GenerationFailed
from .graph import Digraph


class Structure(Enum):
    LADDER = "ladder"
    RANDOM_DAG = "random_dag"
    PARALLEL_PATHS = "parallel_paths"


@dataclass(frozen=True)
class GenParams:
    node_count: int
    seed: int
    structure: Structure = Structure.LADDER
    target_class: FeasibilityKind | None = None

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("node_count must be at least 2")


class _Builder:
    def __init__(self):
        self.nodes = ["s", "t"]
        self.edges = []   # (id, tail, head)
        self.caps = {}

    def node(self):
        name = f"n{len(self.nodes) - 2}"
        self.nodes.append(name)
        return name

    def edge(self, tail, head, k):
        eid = len(self.edges)
        self.edges.append((eid, tail, head))
        self.caps[eid] = k
        return eid

    def network(self) -> Network:
        graph = Digraph(self.nodes, self.edges)
        return Network(graph=graph, free_cap=self.caps, source="s", target="t")


# Ladder blocks; each consumes the dangling frontier ((tail, cap) pairs whose
# total reduced capacity is 3) and emits the next frontier.

def _block_relay3(b, entries):
    outs = []
    for tail, k in entries:
        n = b.node()
        b.edge(tail, n, k)
        outs.append((n, 1))
    return outs


def _block_mix33(b, entries):
    a, c, d = (b.node() for _ in range(3))
    for (tail, k), head in zip(entries, (a, c, d)):
        b.edge(tail, head, k)
    x, y = b.node(), b.node()
    b.edge(a, x, 1)
    b.edge(a, y, 1)
    b.edge(c, x, 1)
    b.edge(c, y, 1)
    return [(x, 1), (y, 1), (d, 1)]


def _block_narrow32(b, entries):
    a, mid, c = (b.node() for _ in range(3))
    for (tail, k), head in zip(entries, (a, mid, c)):
        b.edge(tail, head, k)
    b.edge(mid, a, 1)
    b.edge(mid, c, 1)
    return [(a, 2), (c, 2)]


def _block_cross22(b, entries):
    a, c = b.node(), b.node()
    for (tail, k), head in zip(entries, (a, c)):
        b.edge(tail, head, k)
    x, y = b.node(), b.node()
    b.edge(a, x, 1)
    b.edge(a, y, 1)
    b.edge(c, x, 1)
    b.edge(c, y, 1)
    return [(x, 2), (y, 2)]


def _block_widen23(b, entries):
    a, c = b.node(), b.node()
    for (tail, k), head in zip(entries, (a, c)):
        b.edge(tail, head, k)
    m = b.node()
    b.edge(a, m, 1)
    b.edge(c, m, 1)
    return [(a, 1), (m, 1), (c, 1)]


# block -> interior node cost, keyed by current frontier width
_BLOCKS = {
    3: ((_block_narrow32, 3), (_block_relay3, 3), (_block_mix33, 5)),
    2: ((_block_cross22, 4), (_block_widen23, 3)),
}


def _ladder(rng: random.Random, node_count: int) -> Network:
    b = _Builder()
    width = rng.choice((2, 3))
    if width == 3:
        frontier = [("s", 1)] * 3
    else:
        frontier = [("s", 2)] * 2
    budget = node_count - 2
    while True:
        options = [(fn, cost) for fn, cost in _BLOCKS[len(frontier)] if cost <= budget]
        if not options:
            break
        fn, cost = options[rng.randrange(len(options))]
        frontier = fn(b, frontier)
        budget -= cost
    for tail, k in frontier:
        b.edge(tail, "t", k)
    return b.network()


def _parallel_paths(rng: random.Random, node_count: int,
                    target: FeasibilityKind | None) -> Network:
    count = {
        FeasibilityKind.INFEASIBLE: 1,
        FeasibilityKind.UNPROTECTED_2FLOW: 2,
        FeasibilityKind.NETWORK_CODING: 3,
        FeasibilityKind.DIVERSITY_CODING: 4,
        None: 3,
    }[target]
    b = _Builder()
    interior = max(node_count - 2, count)
    lengths = [interior // count] * count
    for i in range(interior % count):
        lengths[i] += 1
    for hops in lengths:
        prev = "s"
        for _ in range(max(hops, 1)):
            n = b.node()
            b.edge(prev, n, 1)
            prev = n
        b.edge(prev, "t", 1)
    return b.network()


def _random_dag(rng: random.Random, node_count: int) -> Network:
    b = _Builder()
    names = ["s"] + [b.node() for _ in range(node_count - 2)] + ["t"]
    for i, tail in enumerate(names[:-1]):
        fanout = rng.randint(1, 3)
        later = names[i + 1:]
        for _ in range(fanout):
            head = later[rng.randrange(len(later))]
            k = rng.choices((1, 2, 3), weights=(6, 3, 1))[0]
            b.edge(tail, head, k)
    return b.network()


def generate(params: GenParams) -> Network:
    """Deterministic per (params); retries random structures until the target
    class matches, within a bounded number of attempts."""
    seed_material = (f"{params.structure.value}:{params.node_count}:"
                     f"{params.target_class.value if params.target_class else '-'}:"
                     f"{params.seed}")
    rng = random.Random(seed_material)

    if params.structure is Structure.PARALLEL_PATHS:
        net = _parallel_paths(rng, params.node_count, params.target_class)
        _check_target(net, params)
        return net

    builder = _ladder if params.structure is Structure.LADDER else _random_dag
    attempts = 300
    for _ in range(attempts):
        net = builder(rng, params.node_count)
        if params.target_class is None:
            return net
        if classify_feasibility(derive_coding_capacities(net)).kind is params.target_class:
            return net
    raise GenerationFailed(
        f"no {params.target_class.name} instance in {attempts} attempts "
        f"({params.structure.value}, n={params.node_count}, seed={params.seed})")


def _check_target(net: Network, params: GenParams):
    if params.target_class is None:
        return
    got = classify_feasibility(derive_coding_capacities(net)).kind
    if got is not params.target_class:
        raise GenerationFailed(
            f"parallel-path instance classified {got.name}, "
            f"wanted {params.target_class.name}")
