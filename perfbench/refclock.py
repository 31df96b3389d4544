"""Wall time scaled to a reference host speed.

The reference machine is a shared VM whose vCPUs change speed by up to 2x
for seconds to minutes at a time, in CPU time as much as in wall time, and
independently of each other.  Raw latencies of the same code on the same
inputs therefore move by more than any useful bound between runs.

`RefClock` pins the process to one vCPU and times a fixed pure-Python
kernel (dicts, sets, tuples, a graph walk and a sort: the kind of work
triflow does) between operations, once `SAMPLE_EVERY_S` has passed since
the last sample.  An operation's *scaled* time is its wall time times
`REF_KERNEL_S` over the mean kernel time of the two samples just before it
and the two just after it, on the same vCPU: the time it would take when
the kernel takes `REF_KERNEL_S`.  The kernel is the benchmark's own code, so
a change to triflow moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import gc
import os
from bisect import bisect_left, bisect_right
from time import perf_counter

# The kernel's wall time on the reference machine (see README) when its
# vCPU runs at full speed; scaled times are in seconds at that speed.
REF_KERNEL_S = 0.0175
SAMPLE_EVERY_S = 0.25
# Small rounds of a small graph: the kernel adds about 1 MB to the peak RSS.
KERNEL_NODES = 1500
KERNEL_ROUNDS = 4


def kernel() -> None:
    for _ in range(KERNEL_ROUNDS):
        _walk(KERNEL_NODES)


def _walk(n: int) -> int:
    """Fixed work with no cycles in its garbage: build an adjacency map,
    walk it, key its arcs by tuples and sort them."""
    adj = {u: ((u * 7 + 1) % n, (u * 13 + 5) % n, (u * 31 + 2) % n) for u in range(n)}
    seen = {0}
    stack = [0]
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    arcs = {}
    for u in order:
        for v in adj[u]:
            arcs[(u, v)] = arcs.get((v, u), 0) + 1
    return len(sorted(arcs, key=lambda a: (a[1] % 17, a[0])))


class RefClock:
    """Kernel samples of one process, and scaling of intervals by them."""

    def __init__(self):
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []
        for _ in range(3):   # warm-up: allocator arenas, caches
            kernel()
        self.sample()

    def sample(self):
        # the kernel's garbage is acyclic; no collection of the program's heap
        # may land in a sample
        gc.disable()
        try:
            started = perf_counter()
            kernel()
            ended = perf_counter()
        finally:
            gc.enable()
        self.starts.append(started)
        self.ends.append(ended)
        self.times.append(ended - started)

    def tick(self):
        """Sample if the last sample is `SAMPLE_EVERY_S` old; call between
        operations, never inside a timed span."""
        if perf_counter() - self.ends[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scaled(self, started: float, ended: float) -> float:
        """Seconds at reference speed of the interval [started, ended]: the
        mean of the two samples just before it and the two just after it
        sets the speed.  Call `sample` after the last interval first."""
        before = bisect_right(self.ends, started)
        after = bisect_left(self.starts, ended)
        near = self.times[max(before - 2, 0):before] + self.times[after:after + 2]
        return (ended - started) * REF_KERNEL_S * len(near) / sum(near)
