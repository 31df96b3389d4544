"""Independent checks: structural plan verification and exhaustive
single-failure survivability."""

from __future__ import annotations

from .conditioning import CodingNetwork
from .errors import PlanReferenceError
from .graph import order_key, reach
from .plan import LABELS, RecoveryPlan, VerificationReport, Violation


def _adjacency(arcs, src_of, dst_of) -> dict:
    """node -> [(arc, node)] moves along `arcs` from `src_of` to `dst_of`."""
    out = {}
    for arc in arcs:
        out.setdefault(src_of[arc], []).append((arc, dst_of[arc]))
    return out


def _st_bridge_arcs(arcs, tails, heads, from_s, t):
    """Arcs every s-t path must use, exact and linear-ish; `from_s` holds the
    nodes that `arcs` reach from s.

    Restricted to arcs on some s-t path, a topological sweep counts how many
    arcs span each gap between consecutive positions; a gap covered by exactly
    one arc makes that arc a bridge, and every bridge shows up that way.
    Returns None when the arc set is not a DAG (caller falls back to removal
    checks).
    """
    to_t = reach(_adjacency(arcs, heads, tails), t)
    relevant = [arc for arc in arcs if tails[arc] in from_s and heads[arc] in to_t]
    if not relevant:
        return set()

    out = _adjacency(relevant, tails, heads)
    indeg = {}
    nodes = set()
    for arc in relevant:
        nodes.update((tails[arc], heads[arc]))
        indeg[heads[arc]] = indeg.get(heads[arc], 0) + 1
    order = [v for v in nodes if indeg.get(v, 0) == 0]
    pos = {}
    i = 0
    while i < len(order):
        u = order[i]
        pos[u] = i
        i += 1
        for _, v in out.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(pos) != len(nodes):
        return None  # cycle among the relevant arcs

    gaps = len(pos) - 1
    cnt = [0] * (gaps + 1)
    idsum = [0] * (gaps + 1)
    for idx, arc in enumerate(relevant):
        lo, hi = pos[tails[arc]], pos[heads[arc]]
        cnt[lo] += 1
        cnt[hi] -= 1
        idsum[lo] += idx
        idsum[hi] -= idx
    bridges = set()
    running = 0
    running_id = 0
    for g in range(gaps):
        running += cnt[g]
        running_id += idsum[g]
        if running == 1:
            bridges.add(relevant[running_id])
    return bridges


def verify_plan(cn: CodingNetwork, plan: RecoveryPlan) -> VerificationReport:
    """Check disjointness, capacity usage, per-label connectivity and, for
    every edge, which labels survive its failure.  Failures become report
    entries; only dangling references raise."""
    g = cn.graph
    cap = cn.coding_cap
    s, t = cn.source, cn.target

    tails = {}
    heads = {}
    for label in LABELS:
        for arc in plan.subflows.get(label, ()):
            if arc.edge not in cap:
                raise PlanReferenceError(f"plan references unknown edge {arc.edge!r}")
            if not 0 <= arc.copy < cap[arc.edge]:
                raise PlanReferenceError(
                    f"copy {arc.copy} out of range for edge {arc.edge!r}")
            tails[arc], heads[arc] = g.ends(arc.edge)

    violations = []
    disjoint = True
    for i in range(3):
        for j in range(i + 1, 3):
            shared = plan.subflows[LABELS[i]] & plan.subflows[LABELS[j]]
            if shared:
                disjoint = False
                violations.append(Violation(
                    "disjointness",
                    f"{LABELS[i]} and {LABELS[j]} share arcs {sorted(shared, key=order_key)}"))

    capacity_ok = True
    usage = {}
    for label in LABELS:
        for arc in plan.subflows[label]:
            usage[arc.edge] = usage.get(arc.edge, 0) + 1
    for edge, used in usage.items():
        if used > cap[edge]:
            capacity_ok = False
            violations.append(Violation(
                "capacity", f"edge {edge!r} uses {used} arcs, capacity {cap[edge]}"))

    connectivity = {}
    from_s = {}
    for label in LABELS:
        from_s[label] = reach(_adjacency(plan.subflows[label], tails, heads), s)
        ok = t in from_s[label]
        connectivity[label] = ok
        if not ok:
            violations.append(Violation(
                "connectivity", f"subflow {label} does not connect source to target"))

    by_label_edge = {label: {} for label in LABELS}
    for label in LABELS:
        for arc in plan.subflows[label]:
            by_label_edge[label].setdefault(arc.edge, []).append(arc)

    bridges = {}
    for label in LABELS:
        if not connectivity[label]:
            bridges[label] = None
            continue
        multi = any(len(v) > 1 for v in by_label_edge[label].values())
        bridges[label] = None if multi else _st_bridge_arcs(
            plan.subflows[label], tails, heads, from_s[label], t)

    survivability = {}
    for edge in g.edge_ids:
        survivors = []
        for label in LABELS:
            if not connectivity[label]:
                continue
            hit = by_label_edge[label].get(edge)
            if not hit:
                survivors.append(label)
            elif bridges[label] is not None and len(hit) == 1:
                if hit[0] not in bridges[label]:
                    survivors.append(label)
            else:
                rest = [a for a in plan.subflows[label] if a.edge != edge]
                if t in reach(_adjacency(rest, tails, heads), s):
                    survivors.append(label)
        survivors = frozenset(survivors)
        survivability[edge] = survivors
        if len(survivors) < 2:
            violations.append(Violation(
                "survivability",
                f"edge {edge!r} failure leaves only {sorted(survivors)}"))

    overall = (disjoint and capacity_ok and all(connectivity.values())
               and all(len(v) >= 2 for v in survivability.values()))
    return VerificationReport(
        disjointness_ok=disjoint,
        capacity_ok=capacity_ok,
        connectivity=connectivity,
        survivability=survivability,
        overall=overall,
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
