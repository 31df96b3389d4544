"""Shared plan and report types: the three labeled subflows, relay roles and
the structural verification report."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple


LABELS = ("A", "B", "XOR")


class Arc(NamedTuple):
    """One capacity unit of an edge: `copy` is 0, or 1 on capacity-2 edges."""

    edge: object
    copy: int


class Subflows(Mapping):
    """Read-only label -> frozenset of `Arc`s: either the sets it was given
    (`graph` is None), or views built on first read from `ints`, each
    label's sorted tuple of arc ints 2·e + copy over `graph`'s edges."""

    __slots__ = ("graph", "ints", "_arcs")

    def __init__(self, arcs: Mapping, graph=None):
        self.graph = graph
        self.ints = None if graph is None else {k: tuple(v) for k, v in arcs.items()}
        self._arcs = {k: frozenset(v) for k, v in arcs.items()} if graph is None else {}

    def __getitem__(self, label):
        if label not in self._arcs and self.graph is not None:
            ids = self.graph.edge_ids
            self._arcs[label] = frozenset(Arc(ids[a >> 1], a & 1) for a in self.ints[label])
        return self._arcs[label]

    def __iter__(self):
        return iter(self._arcs if self.ints is None else self.ints)

    def __len__(self):
        return len(self._arcs if self.ints is None else self.ints)

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

    `subflows` is given as label -> `Arc` set, or as a `Subflows` (which
    `decompose` and `files.plan_from_json` build over arc ints), and read as
    a `Subflows`.  It is read-only, so what `verify._index` derives from it
    for a graph (its arc ints there, the route index and the survivors) is
    cached here.  `dataclasses.replace` starts a fresh, empty cache;
    `with_verification`, which keeps the subflows, keeps it.
    """

    subflows: Mapping[str, frozenset]
    roles: tuple
    feasibility: object
    verification: VerificationReport | None = None
    _route_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.subflows, Subflows):
            object.__setattr__(self, "subflows", Subflows(self.subflows))

    def with_verification(self, report: VerificationReport) -> "RecoveryPlan":
        plan = replace(self, verification=report)
        object.__setattr__(plan, "_route_cache", self._route_cache)
        return plan
