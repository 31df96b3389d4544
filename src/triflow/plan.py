"""Shared plan and report types: the three labeled subflows, relay roles and
the structural verification report."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple


LABEL_A = "A"
LABEL_B = "B"
LABEL_XOR = "XOR"
LABELS = (LABEL_A, LABEL_B, LABEL_XOR)


class Arc(NamedTuple):
    """One capacity unit of an edge: `copy` is 0, or 1 on capacity-2 edges."""

    edge: object
    copy: int


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

    `subflows` is read-only, so the route index that `verify._routes` builds
    from it for a graph is cached here; `dataclasses.replace` (and so
    `with_verification`) starts a fresh, empty cache.
    """

    subflows: Mapping[str, frozenset]
    roles: tuple
    feasibility: object
    verification: VerificationReport | None = None
    _route_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "subflows", MappingProxyType(dict(self.subflows)))

    def with_verification(self, report: VerificationReport) -> "RecoveryPlan":
        return replace(self, verification=report)
