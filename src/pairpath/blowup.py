"""Blown-cycle construction: 2m independent classes of size q = 4m+3 arranged
in a cycle, consecutive classes completely joined.

Vertex (i, a) gets id i*q + a for class i in 0..2m-1 and within-class index a
in 0..q-1.  Between consecutive classes the complete bipartite boundary splits
into q perfect "shift" matchings: shift j pairs (i, a) with (i+1, (a+j) mod q).
Shifts 1..m are reserved for the transport phase of the router; the remaining
3m+3 shifts (0 and m+1..4m+2) stay free for the completion phase.

Any two vertices of one class share at least q-2m free neighbours, and the
router's greedy closes every task while q-2m > 2m, so any q >= 4m+1 would do.
Class size 4m+3 is the paper's choice: it gives 2m+3 common free neighbours,
3 more than the at most 2m that a task can find blocked (see the routing
docstring and README).  build takes no q.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import MAX_VERTICES, Graph, make_graph


class BlowupError(ValueError):
    """Invalid blown-cycle parameter or operation argument."""


@dataclass(frozen=True)
class BlownCycle:
    """The construction for half cycle length m.  Everything else derives
    from m; the graph is built on first use, so routing builds none."""

    m: int

    @cached_property
    def q(self) -> int:
        return 4 * self.m + 3

    @cached_property
    def num_classes(self) -> int:
        return 2 * self.m

    @cached_property
    def n(self) -> int:
        return self.num_classes * self.q

    @cached_property
    def class_ids(self) -> tuple[list[int], ...]:
        """The vertex ids of each class, ascending, as lists of ints."""
        return tuple(list(range(i * self.q, (i + 1) * self.q))
                     for i in range(self.num_classes))

    @cached_property
    def graph(self) -> Graph:
        q, two_m = self.q, self.num_classes
        # row (i, a, c) is the edge from (i, a) to (i+1, c)
        edges = np.empty((two_m, q, q, 2), dtype=np.int64)
        edges[..., 0] = np.arange(self.n).reshape(two_m, q, 1)
        edges[..., 1] = (np.arange(1, two_m + 1) % two_m * q).reshape(
            two_m, 1, 1) + np.arange(q)
        return make_graph(self.n, edges.reshape(-1, 2))

    def class_of(self, v: int) -> int:
        return v // self.q

    def index_of(self, v: int) -> int:
        return v % self.q

    def vertex(self, cls: int, idx: int) -> int:
        return (cls % self.num_classes) * self.q + idx % self.q


def build(m: int) -> BlownCycle:
    """The blown cycle for half cycle length m; builds no edges.

    m must be at least 2: with only two classes the cycle's two boundaries
    coincide, which would demand parallel edges.  Its n = 2m(4m+3) vertices
    must not exceed graph.MAX_VERTICES, the most a Graph can hold.
    """
    if m < 2:
        raise BlowupError(f"half cycle length must be >= 2, got {m}")
    n = 2 * m * (4 * m + 3)
    if n > MAX_VERTICES:
        raise BlowupError(f"half cycle length {m} gives {n} vertices, more "
                          f"than the {MAX_VERTICES} a graph can hold")
    return BlownCycle(m=m)


def free_common_neighbors(b: BlownCycle, u: int, v: int) -> list[int]:
    """All z in the next class adjacent to both u and v through free shifts.

    u and v must be distinct vertices of one class; the list is sorted by
    within-class index and always holds at least 2m+3 vertices.  These are
    the next-class indices outside the two reserved windows lo+1..lo+m and
    hi+1..hi+m (mod q), where lo < hi are the within-class indices of u and
    v.  A window that wraps past q-1 covers a prefix of the class; lo's
    wraps only when hi's does, which then covers more.  So the candidates
    are three index ranges, any of them possibly empty:

    * max(hi+m+1-q, 0)..lo, before lo's window,
    * lo+m+1..hi, between the windows,
    * hi+m+1..q-1, after hi's window.

    Each range ends below where the next begins, so the three slices of the
    next class's ids, joined in this order, are already sorted.
    """
    if u == v:
        raise BlowupError("u and v must be distinct")
    for w in (u, v):
        if not (0 <= w < b.n):
            raise BlowupError(f"vertex {w} out of range")
    q, m = b.q, b.m
    i, au = divmod(u, q)
    iv, av = divmod(v, q)
    if iv != i:
        raise BlowupError(
            f"vertices {u} and {v} lie in different classes ({i} and {iv})")
    lo, hi = (au, av) if au < av else (av, au)
    ids = b.class_ids[(i + 1) % b.num_classes]
    return (ids[max(hi + m + 1 - q, 0):lo + 1] + ids[lo + m + 1:hi + 1]
            + ids[hi + m + 1:])
