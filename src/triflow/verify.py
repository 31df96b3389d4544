"""Independent checks: structural plan verification and exact
single-failure survivability from each label's s-t bridges (which the
failure sweep reads too), with the per-edge removal search kept as its
reference."""

from __future__ import annotations

from .conditioning import CodingNetwork
from .errors import PlanReferenceError
from .graph import Digraph, order_key, reach
from .plan import LABELS, RecoveryPlan, VerificationReport, Violation


def _adjacency(arcs, src_of, dst_of) -> dict:
    """node -> [(arc, node)] moves along `arcs` from `src_of` to `dst_of`."""
    out = {}
    for arc in arcs:
        out.setdefault(src_of[arc], []).append((arc, dst_of[arc]))
    return out


def _bridges(g: Digraph, edges, s, t) -> set | None:
    """The edges of `edges` that every s-t path along them uses, or None when
    they connect no s-t path (also when s or t is not a node of `g`).

    Exact and linear on any digraph.  Take one s-t path P = e_0..e_{k-1}
    through v_0 = s .. v_k = t.  Without e_i, s reaches exactly what
    v_0..v_i reach over the edges off P, so e_i is a bridge iff that set
    holds no v_j with j > i.  The set only grows with i, so one flood, kept
    across steps, tracks the furthest position it has reached.
    """
    index, ends = g._index, g._ends
    if s not in index or t not in index:
        return None
    out = {}
    for edge in edges:
        tail, head = ends[edge]
        out.setdefault(index[tail], []).append((edge, index[head]))
    si, ti = index[s], index[t]
    via = reach(out, si)
    if ti not in via:
        return None
    steps = []  # P as (v_i, e_i) pairs, collected from t back to s
    v = ti
    while v != si:
        edge = via[v]
        v = index[ends[edge][0]]
        steps.append((v, edge))
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
                for f, w in out.get(stack.pop(), ()):
                    if f not in on_path and w not in seen:
                        seen.add(w)
                        stack.append(w)
                        furthest = max(furthest, pos.get(w, 0))
        if furthest <= i:
            bridges.add(edge)
    return bridges


def survivors(g: Digraph, used: dict, s, t) -> tuple:
    """(connected, {edge: survivors}) for the labels that `used` maps to the
    ids of their edges: the labels whose edges connect `s` to `t`, and the
    labels still connected when an edge fails, for each edge of `g` whose
    failure cuts one off.  Every other edge's failure leaves `connected`.

    A label survives an edge's failure iff it is connected and the edge is
    not one of its s-t bridges; failing an edge removes all its copies, so
    bridges over the label's edges are exact.  Each distinct survivor set is
    one shared frozenset."""
    bridges = {label: _bridges(g, edges, s, t) for label, edges in used.items()}
    connected = frozenset(label for label, cut in bridges.items() if cut is not None)
    lost = {}  # edge -> the connected labels its failure cuts off
    for label, cut in bridges.items():
        for edge in cut or ():
            lost.setdefault(edge, []).append(label)
    shared = {}
    for edge, labels in lost.items():
        rest = connected.difference(labels)
        lost[edge] = shared.setdefault(rest, rest)
    return connected, lost


def verify_plan(cn: CodingNetwork, plan: RecoveryPlan) -> VerificationReport:
    """Check disjointness, capacity usage, per-label connectivity and, for
    every edge, which labels survive its failure (`survivors`).  Failures, a
    missing label among them, become report entries; only dangling
    references raise."""
    g = cn.graph
    cap = cn.coding_cap
    subflows = {label: plan.subflows.get(label, frozenset()) for label in LABELS}
    usage = {}
    for arcs in subflows.values():
        for arc in arcs:
            if arc.edge not in cap:
                raise PlanReferenceError(f"plan references unknown edge {arc.edge!r}")
            if not 0 <= arc.copy < cap[arc.edge]:
                raise PlanReferenceError(
                    f"copy {arc.copy} out of range for edge {arc.edge!r}")
            usage[arc.edge] = usage.get(arc.edge, 0) + 1

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

    capacity_ok = True
    for edge, used in usage.items():
        if used > cap[edge]:
            capacity_ok = False
            violations.append(Violation(
                "capacity", f"edge {edge!r} uses {used} arcs, capacity {cap[edge]}"))

    connected, cut = survivors(
        g, {label: {arc.edge for arc in arcs} for label, arcs in subflows.items()},
        cn.source, cn.target)
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
