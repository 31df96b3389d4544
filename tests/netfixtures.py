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


def cyclic_probes() -> list:
    """Three network-coding digraphs whose classify probe is not a sum of s-t
    paths, so conditioning peels it; about 1 in 400 of
    `test_decompose.random_digraphs` is one.  They are `random_digraphs(64,
    seed)[i]` for (seed, i) = (17, 63), (56, 28) and (96, 37), pinned as
    (tail, head, free capacity) lists: edge i is the i-th entry, nodes are
    0..n-1, the source 0 and the target n - 1."""
    arcs = [
        [(9, 5, 1), (1, 8, 1), (1, 9, 1), (7, 8, 1), (6, 0, 1), (0, 3, 2), (9, 4, 2),
         (0, 6, 2), (9, 6, 2), (4, 1, 1), (3, 7, 1), (7, 6, 1), (8, 3, 2), (9, 1, 1),
         (0, 8, 1), (5, 9, 1), (7, 3, 2), (5, 2, 2), (5, 3, 1), (4, 1, 1), (7, 4, 1),
         (3, 5, 2), (6, 2, 2), (9, 5, 1), (5, 0, 2), (0, 4, 2), (8, 1, 1), (1, 7, 2),
         (1, 4, 2), (6, 2, 1), (1, 0, 1), (3, 9, 1), (9, 6, 2)],
        [(7, 3, 2), (6, 5, 2), (2, 0, 1), (8, 3, 2), (2, 1, 2), (0, 6, 2), (3, 5, 2),
         (4, 5, 2), (4, 1, 1), (1, 3, 1), (3, 2, 1), (6, 5, 1), (3, 4, 2), (3, 4, 1),
         (1, 6, 2), (5, 2, 2), (5, 1, 1), (5, 4, 2), (2, 3, 1), (1, 8, 1), (3, 8, 1),
         (5, 0, 2), (6, 1, 1), (0, 4, 2), (6, 0, 2), (7, 8, 1), (6, 7, 1)],
        [(7, 2, 2), (5, 3, 2), (0, 3, 1), (1, 8, 1), (3, 5, 2), (9, 2, 1), (3, 7, 2),
         (7, 0, 1), (8, 1, 1), (5, 9, 2), (5, 1, 2), (2, 0, 2), (6, 5, 1), (9, 1, 1),
         (2, 3, 2), (9, 2, 2), (2, 3, 1), (0, 4, 2), (3, 0, 1), (2, 8, 1), (6, 3, 2),
         (4, 5, 1), (9, 5, 1), (7, 0, 2), (7, 1, 1), (5, 6, 1), (7, 9, 2), (1, 3, 1),
         (2, 9, 1), (2, 5, 1), (0, 1, 2), (8, 0, 2)],
    ]
    nets = []
    for edge_list in arcs:
        n = 1 + max(max(tail, head) for tail, head, _ in edge_list)
        nets.append(_net(range(n), edge_list, source=0, target=n - 1))
    return nets


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
