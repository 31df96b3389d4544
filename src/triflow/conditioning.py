"""From raw capacities to a conditioned network ready for decomposition.

The conditioning pipeline starts from a 3-unit maximum flow against the
reduced capacities (capacity 2 counts as 1.5, capacity 1 as 1, both stored
doubled).  `classify_feasibility` keeps its probe on `Feasibility.probe`,
which for this class is that flow, and `decompose` hands it over, so the
whole graph's max flow is computed once.  Conditioning then cancels flow
cycles, prunes zero-flow edges once, builds the minimum-cut chain, demotes
capacity-2 edges buried inside one chain part, and if any were, settles
once more from a fresh max flow.  The result satisfies:

1. the reduced max flow is exactly 3,
2. every retained edge carries doubled flow in {1, 2, 3},
3. no capacity-2 edge has both endpoints inside a single chain part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .cutchain import (CutChain, FLOW_TARGET_DOUBLED, build_cut_chain,
                       reduced_capacities)
from .errors import NotNetworkCodingClass
from .graph import Digraph, FlowResult, cancel_cycles, max_flow

# Reduced values are multiples of 0.5 (one doubled unit), so any value above
# 3 is at least 3.5; probing with this limit settles "more than 3".
_DIVERSITY_PROBE = FLOW_TARGET_DOUBLED + 1


@dataclass(frozen=True)
class Network:
    """Raw input: digraph, free integer capacities and the endpoints."""

    graph: Digraph
    free_cap: Mapping
    source: object
    target: object


@dataclass(frozen=True)
class CodingNetwork:
    """Digraph with coding capacities c(e) in {1, 2}."""

    graph: Digraph
    coding_cap: Mapping
    source: object
    target: object


class FeasibilityKind(Enum):
    DIVERSITY_CODING = "diversity_coding"    # reduced max flow > 3
    NETWORK_CODING = "network_coding"        # reduced max flow = 3
    UNPROTECTED_2FLOW = "unprotected_2flow"  # reduced < 3 but 2 units route
    INFEASIBLE = "infeasible"                # cannot even route 2 units


#: Classes for which a single-failure protection plan exists.
PROTECTABLE = (FeasibilityKind.DIVERSITY_CODING, FeasibilityKind.NETWORK_CODING)


@dataclass(frozen=True)
class Feasibility:
    kind: FeasibilityKind
    reduced_value: int  # doubled units; probe-limited for diversity coding
    # the reduced flow `classify_feasibility` measured; None on a plan's copy
    probe: FlowResult | None = field(default=None, compare=False, repr=False)

    @property
    def protectable(self) -> bool:
        return self.kind in PROTECTABLE


@dataclass(frozen=True)
class ConditionedNetwork:
    """A coding network (possibly demoted), a supporting all-positive 3-unit
    flow in doubled units, and the maximal minimum-cut chain."""

    network: CodingNetwork
    flow: FlowResult
    chain: CutChain


def derive_coding_capacities(net: Network) -> CodingNetwork:
    """Clamp free capacities to coding capacities: drop k=0, c = min(k, 2).

    More than 2 units on one edge cannot help: at most one arc copy per
    subflow crosses an edge, and there are only three subflows of which two
    may share an edge only via distinct copies.  Without a k=0 edge (no
    loaded network has one) the immutable graph is shared, not rebuilt.
    """
    graph, free = net.graph, net.free_cap
    cap = {eid: free[eid] if free[eid] < 2 else 2 for eid in graph.edge_ids}
    if cap and min(cap.values()) <= 0:
        cap = {eid: c for eid, c in cap.items() if c > 0}
        graph = graph.subgraph(cap, extra_nodes=graph.nodes_sorted)
    return CodingNetwork(graph=graph, coding_cap=cap,
                         source=net.source, target=net.target)


def classify_feasibility(cn: CodingNetwork) -> Feasibility:
    """Classify protectability from the reduced max-flow value; max_flow
    raises UnknownNode for a source or target outside the graph.

    For the network-coding class the probe's value, 6, stays below its limit,
    so `max_flow` ran until no augmenting path was left: `probe` is the
    unlimited maximum flow of `cn`, which `condition_network` accepts.
    """
    reduced = reduced_capacities(cn.graph, cn.coding_cap)
    probe = max_flow(cn.graph, reduced, cn.source, cn.target, limit=_DIVERSITY_PROBE)
    if probe.value >= _DIVERSITY_PROBE:
        kind = FeasibilityKind.DIVERSITY_CODING
    elif probe.value == FLOW_TARGET_DOUBLED:
        kind = FeasibilityKind.NETWORK_CODING
    elif max_flow(cn.graph, cn.coding_cap, cn.source, cn.target, limit=2).value >= 2:
        kind = FeasibilityKind.UNPROTECTED_2FLOW
    else:
        kind = FeasibilityKind.INFEASIBLE
    return Feasibility(kind, probe.value, probe)


def _settle(graph: Digraph, coding_cap: Mapping, s, t, flow: FlowResult | None = None):
    """Cycle cancellation and one zero-flow pruning of a maximum flow.

    `flow` must be `max_flow(graph, reduced capacities, s, t)`, as
    `Feasibility.probe` is for a network-coding-class network; without it
    that flow is computed here.  Returns (graph, coding_cap, flow), pruned to
    the support of the cancelled flow.

    The kept flow is a maximum flow of the pruned graph (deleting edges
    cannot raise its value above 6), acyclic and positive on every edge, so
    properties 1-2 hold.  For every such flow the sets closed under residual
    arcs are exactly the empty set, all nodes and the minimum cuts (Picard
    and Queyranne, 1980): each edge has its backward residual arc and each
    node lies on a flow path, so a closed set holding t holds every node and
    one missing s holds none.  Residual reachability is thus the same for
    every such flow, and Kahn's heap in `build_cut_chain` reads only that (a
    component is ready once all its descendants are consumed).  So the chain,
    `node_part` and the plan equal what re-running `max_flow` on the pruned
    graph gives whenever that flow prunes nothing more.
    """
    if flow is None:
        flow = max_flow(graph, reduced_capacities(graph, coding_cap), s, t)
    if flow.value != FLOW_TARGET_DOUBLED:
        raise NotNetworkCodingClass(f"reduced max flow is {flow.value}/2, expected 3")
    flow = cancel_cycles(graph, flow, s, t)
    support = flow.support()
    if len(support) < len(graph.edge_ids):
        graph = graph.subgraph(support, extra_nodes=(s, t))
        coding_cap = {e: coding_cap[e] for e in graph.edge_ids}
        flow = FlowResult(flow.value, {e: flow.per_edge[e] for e in graph.edge_ids},
                          flow.augmentations)
    return graph, coding_cap, flow


def _buried(graph: Digraph, cap: Mapping, chain: CutChain) -> list:
    """Capacity-2 edges with both endpoints inside one chain part."""
    part = chain.node_part
    return [e for e, u, v in zip(graph.edge_ids, graph._tail, graph._head)
            if cap[e] == 2 and part[u] == part[v]]


def condition_network(cn: CodingNetwork, flow: FlowResult | None = None) -> ConditionedNetwork:
    """Prune and demote a network-coding-class network so that it satisfies
    the three structural properties above; only a demotion settles twice.

    `flow`, when given, is the maximum reduced flow of `cn` that `max_flow`
    computes without a limit (`classify_feasibility(cn).probe` for this
    class); the result is the same as without it.
    """
    s, t = cn.source, cn.target
    graph, cap, flow = _settle(cn.graph, dict(cn.coding_cap), s, t, flow)
    chain = build_cut_chain(graph, cap, flow, s, t)

    demoted = _buried(graph, cap, chain)
    if demoted:
        # An edge inside one part has a residual path between its endpoints,
        # so it lies on no minimum cut and losing half a unit keeps the flow.
        for e in demoted:
            cap[e] = 1
        graph, cap, flow = _settle(graph, cap, s, t)
        chain = build_cut_chain(graph, cap, flow, s, t)
        if _buried(graph, cap, chain):
            raise AssertionError("capacity-2 edge inside a part survived demotion")

    network = CodingNetwork(graph=graph, coding_cap=cap, source=s, target=t)
    return ConditionedNetwork(network=network, flow=flow, chain=chain)
