"""Maximal chain of minimum source-target cuts from a residual condensation.

A minimum cut is exactly a node set containing the source, avoiding the
target, and closed under outgoing residual arcs.  Those sets form a lattice
whose maximal chains all add one residual SCC per step, so the chain is built
by consuming the SCC condensation in reverse topological order (successors
before predecessors), starting from the source's own component, by Kahn's
heap over counts of the residual arcs between components.  One pass over
the edges then lists the edges crossing each cut, which fixes its kind.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from operator import sub
from typing import Mapping

from .errors import BrokenChain, MalformedCut
from .graph import Digraph, FlowResult, residual_scc_condensation

REDUCED_DOUBLED = {1: 2, 2: 3}  # coding capacity -> reduced capacity, doubled
FLOW_TARGET_DOUBLED = 6         # a 3-unit flow in doubled units


class CutKind(Enum):
    TWO_EDGE = "2-edge-cut"   # two crossing edges, both capacity 2
    THREE_ARC = "3-arc-cut"   # three crossing edges, all capacity 1


@dataclass(frozen=True)
class CutChain:
    """Cuts C_1 c C_2 c ... c C_k stored as the partition they induce.

    `node_part[v]` is the part of node index v of the graph the chain was
    built on: part 0 is C_1, part i is C_{i+1} \\ C_i, and part k is the
    remainder behind the last cut, so C_i is the nodes of the first i parts.
    Storing parts rather than cuts keeps the representation linear-size.
    `crossing[i]` lists, ascending, the indices of the edges crossing cut
    C_{i+1}, and `kinds[i]` is its kind: two or three edges, since every
    cut is minimum, so the lists stay linear-size too.
    """

    kinds: tuple
    node_part: list = field(repr=False)
    crossing: list = field(repr=False, compare=False)  # follows from node_part

    @property
    def k(self) -> int:
        return len(self.kinds)


def reduced_capacities(g: Digraph, coding_cap: Mapping) -> dict:
    """Reduced capacities in doubled units: c=1 -> 2, c=2 -> 3."""
    return {e: REDUCED_DOUBLED[coding_cap[e]] for e in g.edge_ids}


# (crossing edges, their coding capacity) -> kind: {2, 2} or {1, 1, 1}
_KINDS = {(2, 4): CutKind.TWO_EDGE, (3, 3): CutKind.THREE_ARC}


def build_cut_chain(g: Digraph, coding_cap: Mapping, flow: FlowResult, s, t) -> CutChain:
    """Maximal chain of minimum cuts for a maximum reduced flow of value 3.

    Expects zero-flow edges already removed and an acyclic flow support.  Each
    step of the chain adds exactly one residual SCC, successors first; ties are
    broken by the smallest node id inside the component, which is its
    smallest node index.  Raises BrokenChain for an edge that crosses a cut
    backward or unsaturated, and MalformedCut for a cut that is neither kind.
    """
    ids = g._edge_ids
    caps = [coding_cap[e] for e in ids]
    reduced = [REDUCED_DOUBLED[c] for c in caps]
    per_edge = [flow.per_edge[e] for e in ids]
    room = [0] * (2 * len(ids))  # see `Digraph`
    room[::2] = map(sub, reduced, per_edge)
    room[1::2] = per_edge
    comps, comp_of, succ = residual_scc_condensation(g, room, s, t)
    n = len(comps)
    s_comp = comp_of[g._index[s]]
    t_comp = comp_of[g._index[t]]
    if s_comp == t_comp:
        raise BrokenChain("source and target share a residual component")

    # pending[a] counts the residual arcs from component a into others,
    # repeats and all; sorted, their keys b·n + a list the components whose
    # arcs enter b as preds[start[b]:start[b + 1]].  A component's smallest
    # node index is its heap key, which `comp_of` maps back.
    pending = [0] * n
    start = [0] * (n + 1)
    keys = []
    for u, nxt in enumerate(succ):
        a = comp_of[u]
        for v in nxt:
            b = comp_of[v]
            if a != b:
                pending[a] += 1
                start[b + 1] += 1
                keys.append(b * n + a)
    if start[t_comp + 1]:
        raise BrokenChain("residual arcs enter the target component; support "
                          "is cyclic or zero-flow edges remain")
    keys.sort()
    preds = [key % n for key in keys]
    start = list(accumulate(start))

    min_key = list(map(min, comps))
    ready = [min_key[i] for i in range(n) if not pending[i] and i != t_comp]
    heapq.heapify(ready)

    order = []
    while ready:
        i = comp_of[heapq.heappop(ready)]
        order.append(i)
        for p in preds[start[i]:start[i + 1]]:
            pending[p] -= 1
            if not pending[p] and p != t_comp:
                heapq.heappush(ready, min_key[p])
    if len(order) != n - 1:
        raise BrokenChain("condensation did not linearize into a chain")
    if order and s_comp != order[0]:
        raise BrokenChain("first chain component does not contain the source")

    order.append(t_comp)
    part_of_comp = [0] * n
    for i, c in enumerate(order):
        part_of_comp[c] = i
    node_part = [part_of_comp[c] for c in comp_of]

    # Edge e from part a to part b > a crosses cuts a+1..b, each a minimum
    # cut, so it must be saturated; one from a later part to an earlier one
    # is flow crossing a minimum cut backward, since every edge carries flow.
    crossing = [[] for _ in range(n - 1)]  # crossing[i] crosses cut i + 1
    for e, (a, b) in enumerate(zip(map(node_part.__getitem__, g._tail),
                                   map(node_part.__getitem__, g._head))):
        if a < b:
            if reduced[e] != per_edge[e]:
                raise BrokenChain(f"cut {a + 1} is not saturated: edge {ids[e]!r} "
                                  f"carries {per_edge[e]} of {reduced[e]}")
            crossing[a].append(e)
            if b - a > 1:
                for i in range(a + 1, b):
                    crossing[i].append(e)
        elif a > b:
            raise BrokenChain(f"edge {ids[e]!r} crosses the cut chain backward")
    kinds = [_KINDS.get((len(edges), sum(map(caps.__getitem__, edges)))) for edges in crossing]
    if None in kinds:  # the first cut of neither kind raises, with its counts
        i = kinds.index(None)
        twos = sum(map(caps.__getitem__, crossing[i])) - len(crossing[i])
        raise MalformedCut(f"cut {i + 1} crosses {twos} capacity-2 and "
                           f"{len(crossing[i]) - twos} capacity-1 edges")
    return CutChain(kinds=tuple(kinds), node_part=node_part, crossing=crossing)
