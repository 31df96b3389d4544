"""Independent checks: structural plan verification and exact
single-failure survivability from each label's s-t bridges (which the
failure sweep reads too), with the per-edge removal search kept as its
reference.

`_routes` indexes a plan's subflows over a graph once: for each label, the
label's distinct out-edges of every node with their heads' node indices.  The
verifier, the failure sweep and every single-failure simulation walk that
index, which the plan caches per graph."""

from __future__ import annotations

from collections import Counter

from .conditioning import CodingNetwork
from .errors import PlanReferenceError
from .graph import Digraph, order_key, reach, sorted_ids
from .plan import LABELS, RecoveryPlan, Role, VerificationReport, Violation


def _adjacency(arcs, src_of, dst_of) -> dict:
    """node -> [(arc, node)] moves along `arcs` from `src_of` to `dst_of`."""
    out = {}
    for arc in arcs:
        out.setdefault(src_of[arc], []).append((arc, dst_of[arc]))
    return out


def _routes(g: Digraph, plan: RecoveryPlan) -> dict:
    """label -> a list indexed by `g`'s node indices, whose entry is the tuple
    of `(edge id, head index)` for the label's distinct out-edges of that
    node.  Both copies of an edge are one entry, since a failure drops both.

    Raises `PlanReferenceError` for the smallest plan edge (in `sorted_ids`
    order) that is not an edge of `g`.  Built once per graph object and
    cached on the plan, whose subflows are read-only."""
    routes = plan._route_cache.get(g)
    if routes is None:
        routes = plan._route_cache[g] = _build_routes(g, plan)
    return routes


def _build_routes(g: Digraph, plan: RecoveryPlan) -> dict:
    """`_routes` on a cache miss."""
    index, tails, heads = g._edge_index, g._tail, g._head
    edges = {label: {arc.edge for arc in plan.subflows.get(label, ())} for label in LABELS}
    unknown = [edge for used in edges.values() for edge in used.difference(index)]
    if unknown:
        raise PlanReferenceError(f"plan references unknown edge {sorted_ids(unknown)[0]!r}")
    routes = {}
    for label, used in edges.items():
        moves = routes[label] = [()] * len(g._nodes_sorted)
        for edge in used:
            e = index[edge]
            moves[tails[e]] += ((edge, heads[e]),)
    return routes


def _bridges(out: list, si: int, ti: int) -> set | None:
    """The edges that every path from node `si` to node `ti` along `out`
    (one label's `_routes` list) uses, or None when there is no such path.

    Exact and linear on any digraph.  Take one s-t path P = e_0..e_{k-1}
    through v_0 = s .. v_k = t.  Without e_i, s reaches exactly what
    v_0..v_i reach over the edges off P, so e_i is a bridge iff that set
    holds no v_j with j > i.  The set only grows with i, so one flood, kept
    across steps, tracks the furthest position it has reached.
    """
    via = {si: None}  # reached node -> (node, edge) that first reached it
    queue = [si]
    for u in queue:
        for edge, w in out[u]:
            if w not in via:
                via[w] = (u, edge)
                queue.append(w)
    if ti not in via:
        return None
    steps = []  # P as (v_i, e_i) pairs, collected from t back to s
    v = ti
    while v != si:
        steps.append(via[v])
        v = via[v][0]
    steps.reverse()
    pos = {v: i for i, (v, _) in enumerate(steps)}
    pos[ti] = len(steps)
    on_path = {edge for _, edge in steps}
    bridges = set()
    seen = set()
    furthest = 0
    for i, (v, edge) in enumerate(steps):
        if v not in seen:
            seen.add(v)
            stack = [v]
            while stack:
                for f, w in out[stack.pop()]:
                    if f not in on_path and w not in seen:
                        seen.add(w)
                        stack.append(w)
                        furthest = max(furthest, pos.get(w, 0))
        if furthest <= i:
            bridges.add(edge)
    return bridges


def survivors(g: Digraph, routes: dict, s, t) -> tuple:
    """(connected, {edge: survivors}) for the labels of `routes` (from
    `_routes`): the labels whose edges connect `s` to `t`, and the labels
    still connected when an edge fails, for each edge of `g` whose failure
    cuts one off.  Every other edge's failure leaves `connected`.

    A label survives an edge's failure iff it is connected and the edge is
    not one of its s-t bridges; failing an edge removes all its copies, so
    bridges over the label's distinct edges are exact.  Each distinct
    survivor set is one shared frozenset."""
    index = g._index
    if s in index and t in index:
        bridges = {label: _bridges(out, index[s], index[t]) for label, out in routes.items()}
    else:
        bridges = dict.fromkeys(routes)
    connected = frozenset(label for label, cut in bridges.items() if cut is not None)
    lost = {}  # edge -> bit i set for each i-th label its failure cuts off
    for i, cut in enumerate(bridges.values()):
        for edge in cut or ():
            lost[edge] = lost.get(edge, 0) | 1 << i
    labels = list(bridges)
    shared = {mask: connected.difference(
                  label for i, label in enumerate(labels) if mask >> i & 1)
              for mask in set(lost.values())}
    return connected, {edge: shared[mask] for edge, mask in lost.items()}


def _role_violations(g: Digraph, plan: RecoveryPlan) -> list:
    """A violation for each role that is listed more than once, or that does
    not name a node with two or more out-arcs (splitter) or in-arcs (merger)
    of its label, counted by `Digraph.degrees` as `assign_roles` counts."""
    degrees = {label: g.degrees(arc.edge for arc in plan.subflows.get(label, ()))
               for label in {role.label for role in plan.roles}}
    violations = []
    listed = set()
    for role in plan.roles:
        side = list(Role).index(role.role) if isinstance(role.role, Role) else None
        v = g._index.get(role.node)
        degree = 0 if side is None or v is None else degrees[role.label][side][v]
        if role in listed:
            problem = "is listed more than once"
        elif degree < 2:
            kind = "arcs" if side is None else ("out-arcs", "in-arcs")[side]
            problem = f"has {degree} {kind} of its label"
        else:
            problem = None
        listed.add(role)
        if problem:
            name = getattr(role.role, "value", role.role)
            violations.append(Violation(
                "roles", f"{role.label} {name} at node {role.node!r} {problem}"))
    return violations


def verify_plan(cn: CodingNetwork, plan: RecoveryPlan) -> VerificationReport:
    """Check disjointness, capacity usage, per-label connectivity, for every
    edge which labels survive its failure (`survivors`), and the roles
    (`_role_violations`; a plan may list none).  Failures, a missing label
    among them, become report entries; only dangling references raise."""
    g = cn.graph
    cap = cn.coding_cap
    subflows = {label: plan.subflows.get(label, frozenset()) for label in LABELS}
    bad = [arc for arcs in subflows.values() for arc in arcs
           if not 0 <= arc.copy < cap.get(arc.edge, 0)]
    if bad:  # name the smallest, whatever order the label sets iterate in
        arc = sorted_ids(bad)[0]
        if arc.edge not in cap:
            raise PlanReferenceError(f"plan references unknown edge {arc.edge!r}")
        raise PlanReferenceError(f"copy {arc.copy} out of range for edge {arc.edge!r}")
    routes = _routes(g, plan)

    violations = []
    disjoint = True
    for i in range(3):
        for j in range(i + 1, 3):
            shared = subflows[LABELS[i]] & subflows[LABELS[j]]
            if shared:
                disjoint = False
                violations.append(Violation(
                    "disjointness",
                    f"{LABELS[i]} and {LABELS[j]} share arcs {sorted(shared, key=order_key)}"))

    usage = Counter(arc.edge for arcs in subflows.values() for arc in arcs)
    over = sorted((g._edge_index[edge], edge) for edge, used in usage.items()
                  if used > cap[edge])
    capacity_ok = not over
    violations += [Violation("capacity", f"edge {edge!r} uses {usage[edge]} arcs, "
                                         f"capacity {cap[edge]}") for _, edge in over]

    connected, cut = survivors(g, routes, cn.source, cn.target)
    survivability = dict.fromkeys(g.edge_ids, connected)
    survivability.update(cut)
    connectivity = {label: label in connected for label in LABELS}
    for label in LABELS:
        if not connectivity[label]:
            violations.append(Violation(
                "connectivity", f"subflow {label} does not connect source to target"))

    for edge, labels in survivability.items():
        if len(labels) < 2:
            violations.append(Violation(
                "survivability",
                f"edge {edge!r} failure leaves only {sorted(labels)}"))
    violations += _role_violations(g, plan)

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
    search per (edge, label) with the edge's arcs removed."""
    g = cn.graph
    tails = {}
    heads = {}
    for label in LABELS:
        for arc in plan.subflows[label]:
            tails[arc], heads[arc] = g.ends(arc.edge)
    out = {}
    for edge in g.edge_ids:
        survivors = []
        for label in LABELS:
            rest = [a for a in plan.subflows[label] if a.edge != edge]
            if cn.target in reach(_adjacency(rest, tails, heads), cn.source):
                survivors.append(label)
        out[edge] = frozenset(survivors)
    return out
