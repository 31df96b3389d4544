"""Shared plan and report types: the three labeled subflows, relay roles and
the structural verification report."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

from .errors import PlanReferenceError
from .graph import sorted_ids


LABELS = ("A", "B", "XOR")


class Arc(NamedTuple):
    """One capacity unit of an edge: `copy` is 0, or 1 on capacity-2 edges."""

    edge: object
    copy: int


class Subflows(Mapping):
    """Read-only label -> frozenset of `Arc`s, held as `ints`: each label's
    sorted tuple of arc ints 2·e + copy over `graph`'s edges.  Since they
    never change, what is derived from them is built on first use and kept
    here: each label's `Arc` set, the route index (`routes`) and, filled by
    `verify.survivors`, the survivors per (source, target)."""

    __slots__ = ("graph", "ints", "survivors", "_arcs", "_routes", "_indegrees")

    def __init__(self, ints: Mapping, graph):
        self.graph = graph
        self.ints = {k: tuple(v) for k, v in ints.items()}
        self.survivors = {}
        self._arcs = {}
        self._routes = self._indegrees = None

    @classmethod
    def from_arcs(cls, arcs: Mapping, graph) -> "Subflows":
        """label -> a collection of `Arc`s, interned over `graph`.  Raises
        `PlanReferenceError` for the smallest arc (in `sorted_ids` order)
        that has no int there: for its edge if `graph` lacks it, else for
        its copy, which is neither 0 nor 1."""
        index = graph._edge_index
        bad = [arc for given in arcs.values() for arc in given
               if arc.edge not in index or arc.copy >> 1]
        if bad:
            arc = sorted_ids(bad)[0]
            if arc.edge not in index:
                raise PlanReferenceError(f"plan references unknown edge {arc.edge!r}")
            raise PlanReferenceError(f"copy {arc.copy} out of range for edge {arc.edge!r}")
        return cls({label: sorted({2 * index[arc.edge] + arc.copy for arc in given})
                    for label, given in arcs.items()}, graph)

    def over(self, graph) -> "Subflows":
        """These subflows over `graph`: themselves on their own graph object,
        else interned anew by `from_arcs` on each call, with nothing cached."""
        return self if graph is self.graph else Subflows.from_arcs(self, graph)

    @property
    def routes(self) -> dict:
        """label -> a list indexed by the graph's node indices, whose entry
        holds `(edge index, head index)` for each of the label's distinct
        out-edges of that node, in edge order: `()` for none, a 1-tuple for
        one, and a list from the second on, so that a node with d out-edges
        costs O(d) to fill.  Both copies of an edge are one entry, since a
        failure drops both; in sorted arc ints they are neighbours, so one
        comparison drops the second.  The same pass fills `_indegrees`: for
        each label, how many of its distinct edges enter each node."""
        if self._routes is None:
            g = self.graph
            tails, heads = g._tail, g._head
            self._routes, self._indegrees = {}, {}
            for label in LABELS:
                moves = self._routes[label] = [()] * len(g._nodes_sorted)
                indegree = self._indegrees[label] = [0] * len(g._nodes_sorted)
                last = -1
                for a in self.ints.get(label, ()):
                    if a >> 1 != last:
                        last = a >> 1
                        tail, head = tails[last], heads[last]
                        row = moves[tail]
                        if not row:
                            moves[tail] = ((last, head),)
                        elif row.__class__ is tuple:
                            moves[tail] = [row[0], (last, head)]
                        else:
                            row.append((last, head))
                        indegree[head] += 1
        return self._routes

    def __getitem__(self, label):
        if label not in self._arcs:
            ids = self.graph.edge_ids
            self._arcs[label] = frozenset(Arc(ids[a >> 1], a & 1) for a in self.ints[label])
        return self._arcs[label]

    def __iter__(self):
        return iter(self.ints)

    def __len__(self):
        return len(self.ints)

    def __repr__(self):
        return repr(dict(self))


class Role(Enum):
    """In the order of `Digraph.degrees`' counts: out-arcs, then in-arcs."""

    SPLITTER = "splitter"  # duplicates one incoming copy onto two out-arcs
    MERGER = "merger"      # forwards one of two identical incoming copies


class NodeRole(NamedTuple):
    node: object
    role: Role
    label: str


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the structural checks on a plan.

    `survivability` maps every edge of the network to the set of labels whose
    subflow still connects source to target after that edge fails.  `overall`
    holds iff all sub-checks pass and every edge keeps at least two labels.
    """

    disjointness_ok: bool
    capacity_ok: bool
    connectivity: Mapping[str, bool]
    survivability: Mapping[object, frozenset]
    overall: bool
    violations: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class RecoveryPlan:
    """Three pairwise arc-disjoint subflows over the parallel-arc expansion of
    the network, labeled A, B and XOR (carrying A xor B).

    The source emits the three encoded streams onto the respective subflows;
    the destination decodes from any two that arrive.  Inside the network the
    only non-routing behaviour is duplication (splitter) and selection
    (merger), annotated per node and label in `roles`.

    `subflows` is read as a `Subflows`, which `decompose` and
    `files.plan_from_json` build over arc ints.  Given as label -> `Arc`
    set instead, as `dataclasses.replace(plan, subflows=...)` may give it,
    it is interned over `graph` by `Subflows.from_arcs`; otherwise `graph`
    is read from the `Subflows`.  `replace` and `with_verification` share
    the `Subflows`, and with it what it caches.
    """

    subflows: Subflows
    roles: tuple
    feasibility: object
    verification: VerificationReport | None = None
    graph: object = field(default=None, kw_only=True, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.subflows, Subflows):
            if self.graph is None:
                raise TypeError("subflows given as `Arc` sets need the graph they are over")
            object.__setattr__(self, "subflows", Subflows.from_arcs(self.subflows, self.graph))
        object.__setattr__(self, "graph", self.subflows.graph)

    def with_verification(self, report: VerificationReport) -> "RecoveryPlan":
        return replace(self, verification=report)
