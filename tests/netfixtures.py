"""Pinned example networks used across the test suite."""

from triflow import Digraph, Network, derive_coding_capacities


def _net(node_names, edge_list, source="s", target="t"):
    edges = [(i, tail, head) for i, (tail, head, _) in enumerate(edge_list)]
    caps = {i: k for i, (_, _, k) in enumerate(edge_list)}
    return Network(graph=Digraph(node_names, edges), free_cap=caps,
                   source=source, target=target)


def tripath() -> Network:
    """Three internally disjoint 2-hop unit paths."""
    return _net(
        ["s", "m1", "m2", "m3", "t"],
        [("s", "m1", 1), ("m1", "t", 1),
         ("s", "m2", 1), ("m2", "t", 1),
         ("s", "m3", 1), ("m3", "t", 1)])


def quadpath() -> Network:
    """Tripath plus a fourth disjoint unit path."""
    return _net(
        ["s", "m1", "m2", "m3", "m4", "t"],
        [("s", "m1", 1), ("m1", "t", 1),
         ("s", "m2", 1), ("m2", "t", 1),
         ("s", "m3", 1), ("m3", "t", 1),
         ("s", "m4", 1), ("m4", "t", 1)])


def antiparallel_detour() -> Network:
    """Diversity-coding network of capacity-2 edges whose unit augmenting
    paths leave flow on both edges of the pair a <-> b: the third path,
    s p q b a c d t, takes b -> a forward while the second, s a b t, holds
    a -> b.  A peel that kept the cycle would route a subflow a -> b -> a."""
    return _net(
        ["s", "p", "q", "a", "b", "c", "d", "t"],
        [("b", "t", 2), ("b", "a", 2), ("c", "d", 2), ("s", "p", 2),
         ("a", "b", 2), ("c", "t", 2), ("p", "q", 2), ("s", "c", 2),
         ("s", "a", 2), ("q", "b", 2), ("a", "c", 2), ("d", "t", 2)])


def diamond2() -> Network:
    """Four capacity-2 edges around a diamond."""
    return _net(["s", "a", "b", "t"],
                [("s", "a", 2), ("s", "b", 2), ("a", "t", 2), ("b", "t", 2)])


def chain2() -> Network:
    """Single path s -> a -> t with capacity 2 on both edges."""
    return _net(["s", "a", "t"], [("s", "a", 2), ("a", "t", 2)])


def unit_chain() -> Network:
    """Single unit path: cannot even route two units."""
    return _net(["s", "a", "t"], [("s", "a", 1), ("a", "t", 1)])


#: Edge list of the 15-node ladder demo network.  Capacity-2 edges bridge the
#: rungs; the long thin edge c3 -> d4 skips a rung.
LADDER15_EDGES = [
    ("s", "a0", 1), ("s", "b0", 1), ("s", "c0", 1),
    ("b0", "c0", 1), ("b0", "a0", 1),
    ("a0", "a1", 2), ("c0", "c1", 2),
    ("a1", "a2", 1), ("a1", "c2", 1), ("c1", "c2", 1), ("c1", "a2", 1),
    ("a2", "a3", 2), ("c2", "c3", 2),
    ("a3", "b3", 1), ("c3", "b3", 1), ("a3", "a4", 1), ("b3", "b4", 1),
    ("a4", "b4", 1), ("a4", "d4", 1), ("c3", "d4", 1),
    ("d4", "t", 2), ("b4", "t", 2),
]


def ladder15() -> Network:
    """15-node, 22-edge ladder with alternating 2-edge and 3-arc minimum cuts.

    Exercises all four segment shapes; the canonical end-to-end demo.
    """
    nodes = ["s", "a0", "b0", "c0", "a1", "c1", "a2", "c2",
             "a3", "c3", "b3", "a4", "b4", "d4", "t"]
    return _net(nodes, LADDER15_EDGES)


def widefan() -> Network:
    """First minimum cut far from the source: four unit edges leave s, pairs
    merge into two capacity-2 edges into t, and the only minimum cut is the
    final 2-edge cut."""
    return _net(
        ["s", "a", "b", "c", "d", "x", "y", "t"],
        [("s", "a", 1), ("s", "b", 1), ("s", "c", 1), ("s", "d", 1),
         ("a", "x", 1), ("b", "x", 1), ("c", "y", 1), ("d", "y", 1),
         ("x", "t", 2), ("y", "t", 2)])


def demotable5() -> Network:
    """Network-coding class with one capacity-2 edge buried inside a chain
    part (b0 -> a0); conditioning must demote it to capacity 1."""
    return _net(
        ["s", "a0", "b0", "c0", "t"],
        [("s", "a0", 1), ("s", "b0", 1), ("s", "c0", 1),
         ("b0", "a0", 2), ("b0", "c0", 1),
         ("a0", "t", 2), ("c0", "t", 2)])


def parallel_capacity2() -> Network:
    """Two parallel capacity-2 edges from s to t (degenerate single cut)."""
    return _net(["s", "t"], [("s", "t", 2), ("s", "t", 2)])


def coding(net: Network):
    return derive_coding_capacities(net)


def numeric_ids(net: Network) -> Network:
    """Relabel the nodes by sorted position i: even positions become the int
    i, odd ones the float i + 0.5.  Native order is by value, but `order_key`
    order, the one `Digraph` interns by, puts every float before every int."""
    node = {v: i if i % 2 == 0 else i + 0.5 for i, v in enumerate(net.graph.nodes_sorted)}
    graph = Digraph(node.values(),
                    [(e, node[tail], node[head]) for e, tail, head in net.graph.edges()])
    return Network(graph=graph, free_cap=dict(net.free_cap),
                   source=node[net.source], target=node[net.target])
