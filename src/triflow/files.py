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
explicit so parallel-arc identity survives serialization.  A copy is 0 or 1:
`plan_from_json` refuses any other, naming the smallest such arc.

`plan_to_json` writes the plan's verification report for human readers;
`plan_from_json` ignores it, so a loaded plan carries no report and only
`verify_plan` decides whether it is sound.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from operator import itemgetter

from .conditioning import Feasibility, FeasibilityKind, Network
from .errors import PlanReferenceError, TriflowError
from .graph import Digraph, sorted_ids
from .plan import (LABELS, Arc, NodeRole, RecoveryPlan, Role, Subflows,
                   VerificationReport)


class FormatError(TriflowError):
    """Malformed input file."""


def _require(cond, msg):
    if not cond:
        raise FormatError(msg)


def network_from_json(data) -> Network:
    _require(isinstance(data, dict), "top level must be an object")
    for key in ("nodes", "edges", "source", "target"):
        _require(key in data, f"missing key {key!r}")
    nodes, edges = data["nodes"], data["edges"]
    _require(isinstance(nodes, list) and all(map(isinstance, nodes, repeat(str))),
             "nodes must be a list of strings")
    node_set = set(nodes)
    _require(len(node_set) == len(nodes), "duplicate node ids")
    _require(isinstance(edges, list), "edges must be a list")
    graph = Digraph.__new__(Digraph)
    try:  # by column; the graph rejects duplicate ids, unknown ends and self-loops
        ids, tails, heads, ks = (tuple(map(itemgetter(key), edges))
                                 for key in ("id", "tail", "head", "capacity"))
        caps = dict(zip(ids, ks))
        built = ({dict} >= set(map(type, edges)) and {str, int} >= set(map(type, ids))
                 and {int} >= set(map(type, ks)) and min(ks, default=1) > 0
                 and graph._build(nodes, ids, tails, heads))
    except (KeyError, TypeError):
        built = False
    if not built:  # name the first bad edge in file order; subclasses pass
        edge_list, caps = _parse_edges(edges, node_set)
        graph = Digraph(nodes, edge_list)
    for key in ("source", "target"):
        _require(isinstance(data[key], str) and data[key] in node_set,
                 f"unknown {key} {data[key]!r}")
    _require(data["source"] != data["target"], "source equals target")
    return Network(graph=graph, free_cap=caps,
                   source=data["source"], target=data["target"])


def _parse_edges(entries, node_set):
    """(edge tuples, capacities), or a FormatError naming the first bad entry."""
    edges, caps = [], {}
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise FormatError(f"edges[{i}] must be an object")
        for key in ("id", "tail", "head", "capacity"):
            if key not in e:
                raise FormatError(f"edges[{i}] missing {key!r}")
        eid = e["id"]
        if not isinstance(eid, (str, int)) or isinstance(eid, bool):
            raise FormatError(f"edges[{i}]: id must be a string or integer")
        if eid in caps:
            raise FormatError(f"edges[{i}]: duplicate edge id {eid!r}")
        for end in ("tail", "head"):
            if not (isinstance(e[end], str) and e[end] in node_set):
                raise FormatError(f"edges[{i}]: unknown {end} {e[end]!r}")
        if e["tail"] == e["head"]:
            raise FormatError(f"edges[{i}]: self-loop")
        k = e["capacity"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise FormatError(f"edges[{i}]: capacity must be a positive integer")
        edges.append((eid, e["tail"], e["head"]))
        caps[eid] = k
    return edges, caps


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
        "nodes": list(net.graph.nodes_sorted),
        "edges": [{"id": eid, "tail": tail, "head": head,
                   "capacity": net.free_cap[eid]}
                  for eid, tail, head in net.graph.edges()],
        "source": net.source,
        "target": net.target,
    }


def report_to_json(report: VerificationReport) -> dict:
    survivability = report.survivability
    # a few survivor sets repeat over every edge: sort each distinct one once
    survivors = {labels: sorted(labels) for labels in set(survivability.values())}
    return {
        "overall": report.overall,
        "disjointness_ok": report.disjointness_ok,
        "capacity_ok": report.capacity_ok,
        "connectivity": {label: report.connectivity[label] for label in LABELS},
        "survivability": [{"edge": edge, "survivors": survivors[survivability[edge]]}
                          for edge in sorted_ids(survivability)],
        "violations": [{"kind": v.kind, "detail": v.detail} for v in report.violations],
    }


def plan_to_json(plan: RecoveryPlan) -> dict:
    """The plan file's object.  Each label's arcs are listed in int order,
    which is their `sorted_ids` order."""
    ids, ints = plan.subflows.graph.edge_ids, plan.subflows.ints
    data = {
        "class": plan.feasibility.kind.value,
        "reduced_max_flow": plan.feasibility.reduced_value / 2,
        "subflows": {label: [{"edge": ids[a >> 1], "copy": a & 1} for a in ints[label]]
                     for label in LABELS},
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
    index = net.graph._edge_index
    ints = {}
    bad = []  # arcs whose copy is neither 0 nor 1
    for label in LABELS:
        _require(label in data["subflows"], f"subflows missing label {label}")
        entries = data["subflows"][label]
        _require(isinstance(entries, list), f"subflows[{label}] must be a list")
        arcs = []
        for i, a in enumerate(entries):
            # one check per arc, and the message is built only on failure
            if not (isinstance(a, dict) and "edge" in a and "copy" in a
                    and type(a["edge"]) in (str, int) and type(a["copy"]) is int):
                raise FormatError(f"subflows[{label}][{i}] must have an integer or "
                                  f"string edge and an integer copy")
            e = index.get(a["edge"])
            if e is None:
                raise PlanReferenceError(
                    f"subflow {label} references unknown edge {a['edge']!r}")
            if a["copy"] >> 1:
                bad.append(Arc(a["edge"], a["copy"]))
            arcs.append(2 * e + a["copy"])
        ints[label] = sorted(set(arcs))
    if bad:  # name the smallest, as `Subflows.from_arcs` does
        arc = sorted_ids(bad)[0]
        raise PlanReferenceError(f"copy {arc.copy} out of range for edge {arc.edge!r}")
    _require(isinstance(data.get("roles", []), list), "roles must be a list")
    roles = []
    for i, r in enumerate(data.get("roles", ())):
        if not (isinstance(r, dict) and r.keys() >= {"node", "role", "label"}
                and type(r["node"]) in (str, int) and r["label"] in LABELS
                and r["role"] in _ROLE_VALUES):
            raise FormatError(f"roles[{i}] must have a string or integer node, a label "
                              f"in {LABELS} and a role in {_ROLE_VALUES}")
        if r["node"] not in net.graph:
            raise PlanReferenceError(f"roles[{i}] references unknown node {r['node']!r}")
        roles.append(NodeRole(r["node"], Role(r["role"]), r["label"]))
    reduced = data.get("reduced_max_flow", 3)
    _require(type(reduced) is int or type(reduced) is float and math.isfinite(2 * reduced),
             "reduced_max_flow must be a number whose double is finite")
    return RecoveryPlan(subflows=Subflows(ints, net.graph), roles=tuple(roles),
                        feasibility=Feasibility(kind, int(round(2 * reduced))))


def load_plan(path, net: Network) -> RecoveryPlan:
    return plan_from_json(_read_json(path), net)


def dumps(data) -> str:
    """`json.dumps(data, indent=2, sort_keys=True)` plus a newline, byte for
    byte.  `indent` forces `json`'s pure-Python encoder, so the layout is
    written here instead.  A dict becomes its sorted `"key": value` lines,
    and a key or a scalar is encoded by `json`'s own string and number
    primitives.  A column of eight or more scalars (a list, or one key of a
    list of like records) takes one call of a prebuilt C encoder.  Any other
    shape (non-str keys, tuples, subclasses of the scalar types) goes to
    `json` itself."""
    try:
        return _emit(data, "\n") + "\n"
    except _Fallback:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


class _Fallback(Exception):
    """A value outside the shapes `_emit` lays out itself."""


_encode_str = json.encoder.encode_basestring_ascii
_ENCODE = {str: _encode_str, int: int.__repr__, float: json.dumps,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}
_SCALARS = frozenset(_ENCODE)
# a raw newline is never part of an encoded scalar, only a separator
_encode_column = json.JSONEncoder(separators=("\n", ":")).encode


def _emit(value, nl):
    """`value` as `json.dumps(indent=2, sort_keys=True)` writes it on a line
    begun by `nl` (a newline and the indent)."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        items = f",{inner}".join([f"{_encode_str(k)}: {_emit(value[k], inner)}"
                                  for k in sorted(value, key=_str_key)])
        return f"{{{inner}{items}{nl}}}"
    if kind is list:
        if not value:
            return "[]"
        inner = nl + "  "
        return f"[{inner}{f',{inner}'.join(_values(value, inner))}{nl}]"
    if kind in _SCALARS:
        return _ENCODE[kind](value)
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
        if len(values) < 8:  # cheaper than the encoder's set-up per call
            return [_ENCODE[type(v)](v) for v in values]
        return _encode_column(values)[1:-1].split("\n")
    if types == {dict}:
        keys = values[0].keys()
        if keys and set(map(len, values)) == {len(keys)} and \
                set(chain.from_iterable(values)) == keys:
            return _records(values, sorted(keys, key=_str_key), nl)
    if types == {list}:
        # one list object repeats over many records (survivors): lay it out once
        ids = list(map(id, values))
        texts = {i: _emit(v, nl) for i, v in dict(zip(ids, values)).items()}
        return list(map(texts.__getitem__, ids))
    return [_emit(v, nl) for v in values]


def _records(records, keys, nl) -> list:
    """Dicts that all have the sorted `keys`, laid out column by column."""
    inner = nl + "  "
    columns = [_values(list(map(itemgetter(k), records)), inner) for k in keys]
    fields = f",{inner}".join(_encode_str(k).replace("%", "%%") + ": %s" for k in keys)
    form = f"{{{inner}{fields}{nl}}}"
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
    for node in net.graph.nodes_sorted:
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
