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

    def network(self) -> Network:
        graph = Digraph(self.nodes, self.edges)
        return Network(graph=graph, free_cap=self.caps, source="s", target="t")


# LADDER blocks by the width of the frontier they take, in the block's own node
# numbers: (new nodes, which is also the block's cost; inner unit edges;
# exits as (node, cap)).  The frontier's (tail, cap) pairs feed new nodes
# 0, 1, ... in order, and the exits, whose total reduced capacity is 3, are the
# next frontier.  `rng.randrange` picks a row by position, so the order is fixed.
_BLOCKS = {
    3: ((3, ((1, 0), (1, 2)), ((0, 2), (2, 2))),                          # narrow
        (3, (), ((0, 1), (1, 1), (2, 1))),                                # relay
        (5, ((0, 3), (0, 4), (1, 3), (1, 4)), ((3, 1), (4, 1), (2, 1)))),  # mix
    2: ((4, ((0, 2), (0, 3), (1, 2), (1, 3)), ((2, 2), (3, 2))),          # cross
        (3, ((0, 2), (1, 2)), ((0, 1), (2, 1), (1, 1)))),                 # widen
}


def _ladder(rng: random.Random, params: GenParams) -> Network:
    b = _Builder()
    width = rng.choice((2, 3))
    frontier = [("s", 1)] * 3 if width == 3 else [("s", 2)] * 2
    budget = params.node_count - 2
    while True:
        options = [row for row in _BLOCKS[len(frontier)] if row[0] <= budget]
        if not options:
            break
        size, inner, exits = options[rng.randrange(len(options))]
        new = [b.node() for _ in range(size)]
        for (tail, k), head in zip(frontier, new):
            b.edge(tail, head, k)
        for tail, head in inner:
            b.edge(new[tail], new[head], 1)
        frontier = [(new[i], k) for i, k in exits]
        budget -= size
    for tail, k in frontier:
        b.edge(tail, "t", k)
    return b.network()


def _parallel_paths(rng: random.Random, params: GenParams) -> Network:
    count = {
        FeasibilityKind.INFEASIBLE: 1,
        FeasibilityKind.UNPROTECTED_2FLOW: 2,
        FeasibilityKind.NETWORK_CODING: 3,
        FeasibilityKind.DIVERSITY_CODING: 4,
        None: 3,
    }[params.target_class]
    b = _Builder()
    interior = max(params.node_count - 2, count)
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


def _random_dag(rng: random.Random, params: GenParams) -> Network:
    b = _Builder()
    names = ["s"] + [b.node() for _ in range(params.node_count - 2)] + ["t"]
    for i, tail in enumerate(names[:-1]):
        for _ in range(rng.randint(1, 3)):
            head = names[rng.randrange(i + 1, len(names))]
            k = rng.choices((1, 2, 3), cum_weights=(6, 9, 10))[0]
            b.edge(tail, head, k)
    return b.network()


_BUILDERS = {Structure.LADDER: _ladder, Structure.RANDOM_DAG: _random_dag,
             Structure.PARALLEL_PATHS: _parallel_paths}


def generate(params: GenParams) -> Network:
    """Deterministic per (params); builds networks of the structure until the
    target class matches, within a bounded number of attempts.  A
    PARALLEL_PATHS network has its target's connectivity by construction."""
    seed_material = (f"{params.structure.value}:{params.node_count}:"
                     f"{params.target_class.value if params.target_class else '-'}:"
                     f"{params.seed}")
    rng = random.Random(seed_material)
    attempts = 300
    for _ in range(attempts):
        net = _BUILDERS[params.structure](rng, params)
        if params.target_class is None:
            return net
        if classify_feasibility(derive_coding_capacities(net)).kind is params.target_class:
            return net
    raise GenerationFailed(
        f"no {params.target_class.name} instance in {attempts} attempts "
        f"({params.structure.value}, n={params.node_count}, seed={params.seed})")
