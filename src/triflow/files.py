"""JSON file formats for networks, plans and reports, plus DOT export.

Network file::

    {"nodes": ["s", "a", ...],
     "edges": [{"id": "e0", "tail": "s", "head": "a", "capacity": 2}, ...],
     "source": "s", "target": "t"}

Plan file::

    {"class": "network_coding",
     "subflows": {"A": [{"edge": "e0", "copy": 0}, ...], "B": [...], "XOR": [...]},
     "roles": [{"node": "a", "role": "splitter", "label": "XOR"}, ...],
     "verification": {...}}

Node ids are strings.  Edge ids may be strings or integers; copy indices are
explicit so parallel-arc identity survives serialization.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter

from .conditioning import Feasibility, FeasibilityKind, Network
from .errors import PlanReferenceError, TriflowError
from .graph import Digraph, order_key, sorted_ids
from .plan import (LABELS, Arc, NodeRole, RecoveryPlan, Role,
                   VerificationReport, Violation)


class FormatError(TriflowError):
    """Malformed input file."""


def _require(cond, msg):
    if not cond:
        raise FormatError(msg)


def network_from_json(data) -> Network:
    _require(isinstance(data, dict), "top level must be an object")
    for key in ("nodes", "edges", "source", "target"):
        _require(key in data, f"missing key {key!r}")
    nodes = data["nodes"]
    _require(isinstance(nodes, list) and all(isinstance(n, str) for n in nodes),
             "nodes must be a list of strings")
    _require(len(set(nodes)) == len(nodes), "duplicate node ids")
    node_set = set(nodes)
    edges = []
    caps = {}
    seen = set()
    _require(isinstance(data["edges"], list), "edges must be a list")
    # the per-edge messages are built only when a check fails
    for i, e in enumerate(data["edges"]):
        if not isinstance(e, dict):
            raise FormatError(f"edges[{i}] must be an object")
        for key in ("id", "tail", "head", "capacity"):
            if key not in e:
                raise FormatError(f"edges[{i}] missing {key!r}")
        eid = e["id"]
        if not isinstance(eid, (str, int)) or isinstance(eid, bool):
            raise FormatError(f"edges[{i}]: id must be a string or integer")
        if eid in seen:
            raise FormatError(f"edges[{i}]: duplicate edge id {eid!r}")
        seen.add(eid)
        if not (isinstance(e["tail"], str) and e["tail"] in node_set):
            raise FormatError(f"edges[{i}]: unknown tail {e['tail']!r}")
        if not (isinstance(e["head"], str) and e["head"] in node_set):
            raise FormatError(f"edges[{i}]: unknown head {e['head']!r}")
        if e["tail"] == e["head"]:
            raise FormatError(f"edges[{i}]: self-loop")
        k = e["capacity"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise FormatError(f"edges[{i}]: capacity must be a positive integer")
        edges.append((eid, e["tail"], e["head"]))
        caps[eid] = k
    for key in ("source", "target"):
        _require(isinstance(data[key], str) and data[key] in node_set,
                 f"unknown {key} {data[key]!r}")
    _require(data["source"] != data["target"], "source equals target")
    graph = Digraph(nodes, edges)
    return Network(graph=graph, free_cap=caps,
                   source=data["source"], target=data["target"])


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_network(path) -> Network:
    return network_from_json(_read_json(path))


def network_to_json(net: Network) -> dict:
    return {
        "nodes": sorted(net.graph.nodes, key=order_key),
        "edges": [{"id": eid, "tail": tail, "head": head,
                   "capacity": net.free_cap[eid]}
                  for eid, tail, head in net.graph.edges()],
        "source": net.source,
        "target": net.target,
    }


def report_to_json(report: VerificationReport) -> dict:
    return {
        "overall": report.overall,
        "disjointness_ok": report.disjointness_ok,
        "capacity_ok": report.capacity_ok,
        "connectivity": {label: report.connectivity[label] for label in LABELS},
        "survivability": [{"edge": edge, "survivors": sorted(report.survivability[edge])}
                          for edge in sorted_ids(report.survivability)],
        "violations": [{"kind": v.kind, "detail": v.detail} for v in report.violations],
    }


_REPORT_KEYS = ("disjointness_ok", "capacity_ok", "connectivity", "survivability",
                "overall")


def report_from_json(data) -> VerificationReport:
    _require(isinstance(data, dict) and all(k in data for k in _REPORT_KEYS),
             f"verification must be an object with {', '.join(_REPORT_KEYS)}")
    # Entries are checked by parsing them: malformed ones raise below.
    try:
        return VerificationReport(
            disjointness_ok=bool(data["disjointness_ok"]),
            capacity_ok=bool(data["capacity_ok"]),
            connectivity={k: bool(v) for k, v in data["connectivity"].items()},
            survivability={entry["edge"]: frozenset(entry["survivors"])
                           for entry in data["survivability"]},
            overall=bool(data["overall"]),
            violations=tuple(Violation(v["kind"], v["detail"])
                             for v in data.get("violations", ())),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise FormatError(f"malformed verification entry: {exc!r}") from exc


def plan_to_json(plan: RecoveryPlan) -> dict:
    data = {
        "class": plan.feasibility.kind.value,
        "reduced_max_flow": plan.feasibility.reduced_value / 2,
        "subflows": {
            label: [{"edge": arc.edge, "copy": arc.copy}
                    for arc in sorted_ids(plan.subflows[label])]
            for label in LABELS
        },
        "roles": [{"node": r.node, "role": r.role.value, "label": r.label}
                  for r in plan.roles],
    }
    if plan.verification is not None:
        data["verification"] = report_to_json(plan.verification)
    return data


_ROLE_VALUES = tuple(role.value for role in Role)


def plan_from_json(data, net: Network) -> RecoveryPlan:
    _require(isinstance(data, dict), "plan must be an object")
    for key in ("class", "subflows"):
        _require(key in data, f"plan missing key {key!r}")
    try:
        kind = FeasibilityKind(data["class"])
    except ValueError as exc:
        raise FormatError(f"unknown class {data['class']!r}") from exc
    _require(isinstance(data["subflows"], dict), "subflows must be an object")
    known = set(net.graph.edge_ids)
    subflows = {}
    for label in LABELS:
        _require(label in data["subflows"], f"subflows missing label {label}")
        entries = data["subflows"][label]
        _require(isinstance(entries, list), f"subflows[{label}] must be a list")
        arcs = set()
        for i, a in enumerate(entries):
            # one check per arc, and the message is built only on failure
            if not (isinstance(a, dict) and "edge" in a and "copy" in a
                    and isinstance(a["edge"], (str, int)) and type(a["copy"]) is int):
                raise FormatError(f"subflows[{label}][{i}] must have an integer or "
                                  f"string edge and an integer copy")
            if a["edge"] not in known:
                raise PlanReferenceError(
                    f"subflow {label} references unknown edge {a['edge']!r}")
            arcs.add(Arc(a["edge"], a["copy"]))
        subflows[label] = frozenset(arcs)
    _require(isinstance(data.get("roles", []), list), "roles must be a list")
    roles = []
    for i, r in enumerate(data.get("roles", ())):
        _require(isinstance(r, dict) and r.keys() >= {"node", "role", "label"}
                 and r["role"] in _ROLE_VALUES,
                 f"roles[{i}] must have node, label and a role in {_ROLE_VALUES}")
        roles.append(NodeRole(r["node"], Role(r["role"]), r["label"]))
    reduced = data.get("reduced_max_flow", 3)
    _require(type(reduced) is int or type(reduced) is float and math.isfinite(reduced),
             "reduced_max_flow must be a finite number")
    reduced = int(round(2 * reduced))
    verification = None
    if "verification" in data:
        verification = report_from_json(data["verification"])
    return RecoveryPlan(subflows=subflows, roles=tuple(roles),
                        feasibility=Feasibility(kind, reduced),
                        verification=verification)


def load_plan(path, net: Network) -> RecoveryPlan:
    return plan_from_json(_read_json(path), net)


def dumps(data) -> str:
    """`json.dumps(data, indent=2, sort_keys=True)` plus a newline, byte for
    byte.  `indent` forces `json`'s pure-Python encoder, so the layout is
    added here by hand around runs of values that the C encoder writes in
    one call.  Any other shape (non-str keys, tuples, other types) goes to
    `json` itself."""
    try:
        return _emit(data, "\n") + "\n"
    except _Fallback:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


class _Fallback(Exception):
    """A value outside the shapes `_emit` lays out itself."""


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _emit(value, nl):
    """`value` as `json.dumps(indent=2, sort_keys=True)` writes it on a line
    begun by `nl` (a newline and the indent)."""
    kind = type(value)
    if kind is dict:
        return _records([value], sorted(value, key=_str_key), nl)[0] if value else "{}"
    if kind is list:
        if not value:
            return "[]"
        inner = nl + "  "
        return "[" + inner + f",{inner}".join(_values(value, inner)) + nl + "]"
    if kind in _SCALARS:
        return json.dumps(value)
    raise _Fallback


def _str_key(key):
    if type(key) is not str:
        raise _Fallback
    return key


def _values(values, nl) -> list:
    """`_emit` of each of `values`, in as few encoder calls as their shape
    allows."""
    types = set(map(type, values))
    if types <= _SCALARS:
        # a raw newline is never part of an encoded scalar, only a separator
        return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")
    if types == {dict}:
        keys = values[0].keys()
        if keys and set(map(len, values)) == {len(keys)} and \
                set(chain.from_iterable(values)) == keys:
            return _records(values, sorted(keys, key=_str_key), nl)
    if types == {list} and set(map(type, chain.from_iterable(values))) <= {str}:
        # lists of labels repeat (survivors): lay out each distinct one once
        lists = list(map(tuple, values))
        texts = {v: _emit(list(v), nl) for v in set(lists)}
        return list(map(texts.__getitem__, lists))
    return [_emit(v, nl) for v in values]


def _records(records, keys, nl) -> list:
    """Dicts that all have the sorted `keys`, laid out column by column."""
    inner = nl + "  "
    columns = [_values(list(map(itemgetter(k), records)), inner) for k in keys]
    form = "{" + inner + f",{inner}".join(
        json.dumps(k).replace("%", "%%") + ": %s" for k in keys) + nl + "}"
    return [form % row for row in zip(*columns)]


_DOT_STYLE = {"A": "dashed", "B": "dotted", "XOR": "solid"}


def plan_to_dot(net: Network, plan: RecoveryPlan) -> str:
    """Graphviz rendering: one drawn arc per used capacity unit, dashed for A,
    dotted for B, solid for XOR, gray for idle arcs.  Byte-stable for equal
    inputs."""
    label_of = {}
    for label in LABELS:
        for arc in plan.subflows[label]:
            label_of[arc] = label
    role_marks = {}
    for r in plan.roles:
        mark = "p" if r.role is Role.SPLITTER else "m"
        role_marks.setdefault(r.node, []).append(f"{mark}:{r.label}")

    lines = ["digraph plan {", "  rankdir=LR;"]
    for node in sorted(net.graph.nodes, key=order_key):
        attrs = []
        if node in (net.source, net.target):
            attrs.append("shape=doublecircle")
        if node in role_marks:
            marks = ",".join(sorted(role_marks[node]))
            attrs.append(f'xlabel="{marks}"')
        attr = (" [" + ", ".join(attrs) + "]") if attrs else ""
        lines.append(f'  "{node}"{attr};')
    for eid, tail, head in net.graph.edges():
        copies = max(net.free_cap[eid], 1)
        for copy in range(min(copies, 2)):
            arc = Arc(eid, copy)
            label = label_of.get(arc)
            if label is None:
                style = 'style=solid, color=gray70'
            else:
                style = f'style={_DOT_STYLE[label]}, color=black'
            lines.append(f'  "{tail}" -> "{head}" '
                         f'[{style}, label="{eid}#{copy}'
                         + (f' {label}' if label else "") + '"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
