"""Packet-level simulation of a plan: encode two payload halves, flood each
labeled subflow with splitter/merger semantics, optionally fail one edge, and
decode at the destination from whichever labels arrived.

One failure floods each label over its junction graph (`_junctions`): the
source, the target and every node whose in- or out-degree in the label is
not 1 are junctions, joined by chains through the other nodes.  The flood
searches junctions and skips the one chain holding the failed edge, so it
costs O(junctions + chains) per label, not O(nodes); a bare s-t path is one
hop.  Every label floods on every simulation; only how much of a label lies
behind the failed chain depends on which edge fails.  The index is built
from the route index (`Subflows.routes`) on the first simulation of a
`Subflows` and endpoints and kept there; `verify_plan` and `failure_sweep`
never build it.  The failure sweep floods nothing: it reads every edge's
surviving labels from the verifier's s-t bridge sweep (`verify.survivors`,
also kept there).  Any plan over the network's edges is simulated as it is:
whether it is sound is `verify_plan`'s call, not the plan's own report's."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import takewhile

from .conditioning import CodingNetwork
from .errors import InsufficientLabels, LengthMismatch
from .plan import LABELS, Arc, RecoveryPlan
from .verify import survivors


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


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
    which junctions each label's flood reached.  On the first read of
    `arc_sends`, each chain out of a reached junction marks the heads of its
    edges up to the failed edge, and the map is built from the marks and
    the label's sorted arc ints (labels in order, then arcs in id order) and
    cached.  Outcomes from `failure_sweep` carry `{}`, which keeps a sweep's
    memory linear in the number of edges.
    """

    received_labels: frozenset
    decoded: tuple | None
    recovered_via: tuple | None
    # (the `Subflows` simulated, its junction index, {label: per-node marks,
    # set on the junctions reached}, the failed edge index), or None
    _forwarded: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def arc_sends(self) -> dict:
        if self._forwarded is None:
            return {}
        subflows, index, reached, failed = self._forwarded
        g = subflows.graph
        for label, (hops, _, chains) in index.items():
            marks = reached[label]
            for c in [c for v, row in enumerate(hops) if marks[v] for c, _ in row]:
                for e in takewhile(failed.__ne__, chains[c]):
                    marks[g._head[e]] = 1
        return {(label, Arc(g._edge_ids[a >> 1], a & 1)): 1
                for label in LABELS for a in subflows.ints.get(label, ())
                if reached[label][g._tail[a >> 1]]}


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


def _junctions(subflows, si: int, ti: int) -> dict:
    """label -> (hops, chain_of, chains) between node indices `si` and `ti`,
    cached on `subflows`.  Chain c starts at junction out-edge c and runs on
    through nodes of in- and out-degree 1 other than `si` and `ti`;
    `chains[c]` lists its edges in walk order, `chain_of` maps each to c,
    and `hops[v]` lists `(c, end junction)` per chain out of junction v.  A
    cycle without a junction is on no chain: no walk can enter it."""
    cache = subflows.junctions
    if (si, ti) in cache:
        return cache[si, ti]
    index = {}
    for label in LABELS:
        out, indegree = subflows.routes[label], subflows._indegrees[label]
        hops, chain_of, chains = [()] * len(out), {}, {}
        for v, moves in enumerate(out):
            if moves and (v == si or v == ti or indegree[v] != 1 or len(moves) != 1):
                hops[v] = row = []
                for c, w in moves:
                    chain = chains[c] = [c]
                    while w != si and w != ti and indegree[w] == 1 and len(out[w]) == 1:
                        (e, w), = out[w]
                        chain.append(e)
                    row.append((c, w))
                    chain_of.update(dict.fromkeys(chain, c))
        index[label] = hops, chain_of, chains
    cache[si, ti] = index
    return index


def _flood(hops: list, si: int, cut) -> bytearray:
    """Which junctions a packet from `si` reaches over `hops` (one label's
    from `_junctions`), marked 1 by node index, when chain `cut` drops it."""
    reached = bytearray(len(hops))
    reached[si] = 1
    queue = [si]
    for v in queue:
        for c, w in hops[v]:
            if not reached[w] and c != cut:
                reached[w] = 1
                queue.append(w)
    return reached


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
    si, ti = g._index[cn.source], g._index[cn.target]
    failed = g._edge_index.get(failed_edge, -1)
    index = _junctions(subflows, si, ti)
    reached = {label: _flood(hops, si, chain_of.get(failed))
               for label, (hops, chain_of, _) in index.items()}
    arrived = {label for label in LABELS if reached[label][ti]}
    return _outcome(arrived, encode(gen.payload_a, gen.payload_b),
                    (subflows, index, reached, failed))


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
