"""Packet-level simulation of a plan: encode two payload halves, flood each
labeled subflow with splitter/merger semantics, optionally fail one edge, and
decode at the destination from whichever labels arrived.

One failure floods each label over the plan's route index
(`Subflows.routes`: per node, the label's distinct out-edges with their
heads' indices), which the plan's `Subflows` keeps, so repeated simulations
and the verifier build it once.  Every label floods, whether or not it
routes over the failed edge, so a simulation's cost does not depend on which
edge fails.  The failure sweep floods nothing: it reads every edge's
surviving labels from the verifier's s-t bridge sweep (`verify.survivors`,
also kept there).  Any plan over the network's edges is simulated as it is:
whether it is sound is `verify_plan`'s call, not the plan's own report's."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .conditioning import CodingNetwork
from .errors import InsufficientLabels, LengthMismatch
from .plan import LABELS, Arc, RecoveryPlan
from .verify import survivors


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass(frozen=True)
class Generation:
    """One batch of user data split into two equal halves."""

    seq: int
    payload_a: bytes
    payload_b: bytes

    def __post_init__(self):
        if len(self.payload_a) != len(self.payload_b):
            raise LengthMismatch(
                f"halves differ: {len(self.payload_a)} vs {len(self.payload_b)} bytes")


@dataclass(frozen=True)
class DeliveryOutcome:
    """What the destination got in one scenario, and what it decoded.

    `arc_sends` maps each `(label, arc)` that carried the generation to how
    many times it did.  A single-failure `simulate_transmission` keeps only
    how many times each node forwarded each label; `arc_sends` is built from
    those counts and the label's sorted arc ints on its first read (labels
    in order, then arcs in id order) and cached.  Outcomes from
    `failure_sweep` carry `{}`, which keeps a sweep's memory linear in the
    number of edges.
    """

    received_labels: frozenset
    decoded: tuple | None
    recovered_via: tuple | None
    # (the `Subflows` simulated, {label: per-node send counts}), or None
    # from a sweep
    _forwarded: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def arc_sends(self) -> dict:
        if self._forwarded is None:
            return {}
        subflows, forwarded = self._forwarded
        ids, tails = subflows.graph._edge_ids, subflows.graph._tail
        return {(label, Arc(ids[a >> 1], a & 1)): sent
                for label in LABELS for a in subflows.ints.get(label, ())
                if (sent := forwarded[label][tails[a >> 1]])}


def encode(a: bytes, b: bytes) -> dict:
    """Three labeled packets: A, B and their bytewise XOR."""
    if len(a) != len(b):
        raise LengthMismatch(f"payloads differ: {len(a)} vs {len(b)} bytes")
    return {"A": a, "B": b, "XOR": _xor(a, b)}


def decode(received: dict) -> tuple:
    """Recover (a, b) from any two of the three labeled packets."""
    return _decode(received)[1]


def _decode(received: dict) -> tuple:
    """(the two labels read, (a, b)).  The two read are the first two of
    `LABELS` that arrived: A+B, else A+XOR, else B+XOR."""
    labels = [k for k in LABELS if k in received]
    if len(labels) < 2:
        raise InsufficientLabels(f"need two labels, got {labels}")
    lens = {len(received[k]) for k in labels}
    if len(lens) > 1:
        raise LengthMismatch("received packets differ in length")
    via = tuple(labels[:2])
    a = received["A"] if "A" in via else _xor(received["B"], received["XOR"])
    b = received["B"] if "B" in via else _xor(received["A"], received["XOR"])
    return via, (a, b)


def _forward_counts(out: list, source: int, failed: int) -> bytearray:
    """Whether each node (by interned index) forwarded the packet, as 0 or 1:
    the first copy a node gets goes onto each of its out-edges in `out` (one
    label's `Subflows.routes` list) but the one of edge index `failed`."""
    forwarded = bytearray(len(out))
    forwarded[source] = 1
    queue = [source]
    while queue:
        for edge, w in out[queue.pop()]:
            if not forwarded[w] and edge != failed:
                forwarded[w] = 1
                queue.append(w)
    return forwarded


def _outcome(labels, payloads: dict, forwarded=None) -> DeliveryOutcome:
    """Decode from the labels that reached the destination."""
    received = {label: payloads[label] for label in LABELS if label in labels}
    if len(received) >= 2:
        via, decoded = _decode(received)
    else:
        decoded = via = None
    return DeliveryOutcome(received_labels=frozenset(received),
                           decoded=decoded, recovered_via=via,
                           _forwarded=forwarded)


def simulate_transmission(cn: CodingNetwork, plan: RecoveryPlan, gen: Generation,
                          failed_edge=None) -> DeliveryOutcome:
    """Forward one generation through every subflow.

    Every node holding a copy of the packet forwards it once onto each of its
    subflow out-arcs (duplication at branch points, first-copy selection at
    joins, keyed by the generation number).  Arcs of `failed_edge` drop what
    is sent into them.  A plan arc on an edge that is not in `cn.graph`
    raises `PlanReferenceError`.
    """
    g = cn.graph
    subflows = plan.subflows.over(g)
    routes = subflows.routes
    source = g._index[cn.source]
    failed = g._edge_index.get(failed_edge, -1)
    forwarded = {label: _forward_counts(routes[label], source, failed)
                 for label in LABELS}
    arrived = {label for label in LABELS if forwarded[label][g._index[cn.target]]}
    return _outcome(arrived, encode(gen.payload_a, gen.payload_b),
                    (subflows, forwarded))


def failure_sweep(cn: CodingNetwork, plan: RecoveryPlan, gen: Generation) -> dict:
    """{edge: outcome} for every edge of the network, that edge failed.

    The verifier's `survivors` gives the labels that survive each edge's
    failure from one s-t bridge sweep per label, cached on the plan, so no
    edge re-floods anything, and an edge that cuts no label off shares the
    failure-free outcome.  Outcomes are shared by received-label set.  A plan
    arc on an edge that is not in `cn.graph` raises `PlanReferenceError`.
    """
    payloads = encode(gen.payload_a, gen.payload_b)
    connected, cut = survivors(plan.subflows.over(cn.graph), cn.source, cn.target)
    outcomes = {labels: _outcome(labels, payloads)  # at most eight distinct
                for labels in {connected, *cut.values()}}
    sweep = dict.fromkeys(cn.graph.edge_ids, outcomes[connected])
    sweep.update((edge, outcomes[labels]) for edge, labels in cut.items())
    return sweep
