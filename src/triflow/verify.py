"""Independent checks: structural plan verification and exact
single-failure survivability from each label's s-t bridges (which the
failure sweep reads too), with the per-edge removal search kept as its
reference.

A plan's subflows are read over a graph as sorted arc ints (`Subflows`),
whose route index (for each label, the label's distinct out-edges of every
node with their heads' node indices) the verifier, the failure sweep and
every single-failure simulation walk.  The `Subflows` builds it once and
keeps it, with the survivors."""

from __future__ import annotations

from collections import Counter
from itertools import combinations, compress

from .conditioning import CodingNetwork
from .errors import PlanReferenceError
from .graph import Digraph, reach
from .plan import LABELS, Arc, RecoveryPlan, Role, Subflows, VerificationReport, Violation


def _bridges(out: list, si: int, ti: int) -> set | None:
    """The edges (by index) that every path from node `si` to node `ti`
    along `out` (one label's `Subflows.routes` list) uses, or None when there is
    no such path.

    Exact and linear on any digraph.  Take one s-t path P = e_0..e_{k-1}
    through v_0 = s .. v_k = t.  Without e_i, s reaches exactly what
    v_0..v_i reach over the edges off P, so e_i is a bridge iff that set
    holds no v_j with j > i.  The set only grows with i, so one flood, kept
    across steps, tracks the furthest position it has reached.  Only a v_i
    with an edge off P can make it grow, so the steps between two such nodes
    share one furthest position and take their bridges as one slice of P.
    """
    n = len(out)
    via = [-1] * n  # edge that first reached each node; the source is marked n
    via[si] = n
    prev = [0] * n  # the node that edge leaves
    queue = [si]
    for u in queue:
        for e, w in out[u]:
            if via[w] < 0:
                via[w] = e
                prev[w] = u
                queue.append(w)
    if via[ti] < 0:
        return None
    path = [ti]  # v_k .. v_0, then reversed
    while path[-1] != si:
        path.append(prev[path[-1]])
    path.reverse()
    edges = list(map(via.__getitem__, path[1:]))  # e_0 .. e_{k-1}
    pos = dict(zip(path, range(len(path))))
    on_path = set(edges)
    seen = bytearray(n)
    bridges = set()
    furthest = last = 0
    branches = map((1).__lt__, map(len, map(out.__getitem__, path)))  # out-degree > 1
    for i in compress(range(len(edges)), branches):
        bridges.update(edges[max(last, furthest):i])
        last = i
        if not seen[path[i]]:
            seen[path[i]] = 1
            stack = [path[i]]
            while stack:
                for f, w in out[stack.pop()]:
                    if not seen[w] and f not in on_path:
                        seen[w] = 1
                        stack.append(w)
                        if pos.get(w, 0) > furthest:
                            furthest = pos[w]
    bridges.update(edges[max(last, furthest):])
    return bridges


def survivors(subflows: Subflows, s, t) -> tuple:
    """(connected, {edge: survivors}) for `subflows` over their graph: the
    labels whose edges connect `s` to `t`, and the labels still connected
    when an edge fails, for each edge of the graph whose failure cuts one
    off.  Every other edge's failure leaves `connected`.  Cached on
    `subflows` per endpoints.

    A label survives an edge's failure iff it is connected and the edge is
    not one of its s-t bridges; failing an edge removes all its copies, so
    bridges over the label's distinct edges are exact.  Each distinct
    survivor set is one shared frozenset."""
    cache = subflows.survivors
    if (s, t) in cache:
        return cache[s, t]
    g, routes = subflows.graph, subflows.routes
    index = g._index
    if s in index and t in index:
        bridges = {label: _bridges(out, index[s], index[t]) for label, out in routes.items()}
    else:
        bridges = dict.fromkeys(routes)
    connected = frozenset(label for label, cut in bridges.items() if cut is not None)
    lost = {}  # edge index -> bit i set for each i-th label its failure cuts off
    for i, cut in enumerate(bridges.values()):
        for e in cut or ():
            lost[e] = lost.get(e, 0) | 1 << i
    labels = list(bridges)
    shared = {mask: connected.difference(
                  label for i, label in enumerate(labels) if mask >> i & 1)
              for mask in set(lost.values())}
    ids = g._edge_ids
    cache[s, t] = connected, {ids[e]: shared[mask] for e, mask in lost.items()}
    return cache[s, t]


def _cyclic(out: list, indegree: list, ints, tails: list) -> bool:
    """Whether one label's distinct edges hold a directed cycle: Kahn's pass
    over `out` (the label's `Subflows.routes` list) from a copy of
    `indegree` (its `Subflows._indegrees` list) and the tails of `ints`, its
    sorted arc ints, so it visits only nodes the label touches.  An edge
    that the pass never takes lies on, or after, a cycle."""
    starts = {tails[a >> 1] for a in ints}
    indegree = indegree[:]
    queue = [v for v in starts if not indegree[v]]
    for v in queue:
        for _, w in out[v]:
            indegree[w] -= 1
            if not indegree[w]:
                queue.append(w)
    return any(indegree)


def _role_violations(g: Digraph, arcs: dict, roles: tuple) -> list:
    """A violation for each role that is listed more than once, or that does
    not name a node with two or more out-arcs (splitter) or in-arcs (merger)
    of its label in `arcs` (sorted arc ints over `g`), counted by
    `Digraph.degrees` as `assign_roles` counts."""
    degrees = {label: g.degrees(arcs.get(label, ()))
               for label in {role.label for role in roles}}
    violations = []
    listed = set()
    for role in roles:
        side = 0 if role.role is Role.SPLITTER else 1 if role.role is Role.MERGER else None
        # a role outside `Role` keys on itself, in a 1-tuple no 3-tuple equals
        key = (role,) if side is None else (role.node, side, role.label)
        v = g._index.get(role.node)
        degree = 0 if side is None or v is None else degrees[role.label][side][v]
        if key in listed:
            problem = "is listed more than once"
        elif degree < 2:
            kind = "arcs" if side is None else ("out-arcs", "in-arcs")[side]
            problem = f"has {degree} {kind} of its label"
        else:
            problem = None
        listed.add(key)
        if problem:
            name = getattr(role.role, "value", role.role)
            violations.append(Violation(
                "roles", f"{role.label} {name} at node {role.node!r} {problem}"))
    return violations


def verify_plan(cn: CodingNetwork, plan: RecoveryPlan) -> VerificationReport:
    """Check disjointness, capacity usage, per-label connectivity and
    acyclicity, for every edge which labels survive its failure
    (`survivors`), and the roles
    (`_role_violations`; a plan may list none).  Failures, a missing label
    among them, become report entries; only dangling references raise.

    Runs on the plan's sorted arc ints over `cn.graph` (`Subflows.over`)."""
    g = cn.graph
    cap = cn.coding_cap
    subflows = plan.subflows.over(g)
    arcs = {label: subflows.ints.get(label, ()) for label in LABELS}
    ids = g._edge_ids

    # name the smallest copy at or above its edge's capacity: the least int
    bad = min((a for ints in arcs.values() for a in ints
               if a & 1 >= cap.get(ids[a >> 1], 0)), default=None)
    if bad is not None:
        if ids[bad >> 1] not in cap:
            raise PlanReferenceError(f"plan references unknown edge {ids[bad >> 1]!r}")
        raise PlanReferenceError(f"copy {bad & 1} out of range for edge {ids[bad >> 1]!r}")

    # Every copy is below its edge's capacity and a label holds an arc once,
    # so only arcs in two labels can put an edge over capacity.
    violations = [Violation("disjointness", f"{x} and {y} share arcs "
                            f"{[Arc(ids[a >> 1], a & 1) for a in sorted(shared)]}")
                  for x, y in combinations(LABELS, 2)
                  if (shared := set(arcs[x]).intersection(arcs[y]))]
    disjoint = not violations
    usage = Counter(a >> 1 for ints in arcs.values() for a in ints) if violations else {}
    over = sorted(e for e, used in usage.items() if used > cap[ids[e]])
    capacity_ok = not over
    violations += [Violation("capacity", f"edge {ids[e]!r} uses {usage[e]} arcs, "
                                         f"capacity {cap[ids[e]]}") for e in over]

    connected, cut = survivors(subflows, cn.source, cn.target)
    survivability = dict.fromkeys(ids, connected)
    survivability.update(cut)
    connectivity = {label: label in connected for label in LABELS}
    for label in LABELS:
        if not connectivity[label]:
            violations.append(Violation(
                "connectivity", f"subflow {label} does not connect source to target"))
    routes, indegrees = subflows.routes, subflows._indegrees  # built together
    violations += [Violation("acyclicity", f"subflow {label} holds a directed cycle") for label
                   in LABELS if _cyclic(routes[label], indegrees[label], arcs[label], g._tail)]

    for edge, labels in survivability.items():
        if len(labels) < 2:
            violations.append(Violation(
                "survivability",
                f"edge {edge!r} failure leaves only {sorted(labels)}"))
    violations += _role_violations(g, arcs, plan.roles)

    return VerificationReport(
        disjointness_ok=disjoint,
        capacity_ok=capacity_ok,
        connectivity=connectivity,
        survivability=survivability,
        overall=not violations,  # the violations are exactly the failed checks
        violations=tuple(violations),
    )


def survivability_by_removal(cn: CodingNetwork, plan: RecoveryPlan) -> dict:
    """Reference implementation of the survivability map: one reachability
    search per (edge, label) over the label's `Arc`s with the edge's removed."""
    g = cn.graph

    def reaches(arcs):
        out = {}
        for arc in arcs:
            tail, head = g.ends(arc.edge)
            out.setdefault(tail, []).append((arc, head))
        return cn.target in reach(out, cn.source)

    return {edge: frozenset(label for label in LABELS
                            if reaches(a for a in plan.subflows[label] if a.edge != edge))
            for edge in g.edge_ids}
