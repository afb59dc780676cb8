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

from .graph import MAX_VERTICES, Adjacency, Graph, Quotient
# make_graph is no longer called here, but stays importable: the traced
# benchmark runs patch blowup.make_graph by name, until the benchmark reads
# spans of its own (ROADMAP item 2)
from .graph import make_graph  # noqa: F401

# keys per step of `BlownCycle.has_edges`, which bounds its temporaries
_CHUNK = 1 << 16


class BlowupError(ValueError):
    """Invalid blown-cycle parameter or operation argument."""


@dataclass(frozen=True)
class BlownCycle:
    """The construction for half cycle length m.  Everything else derives
    from m, in closed form: `n`, `edge_count`, `max_degree`, the edge
    lookup `has_edges` and the false-twin `quotient`, which is all that
    `verify.verify_plan`, `graph.diameter`, `graph.distance_matrix` and
    `pairability.screen` read from a graph.  So those take a BlownCycle
    as it is, and only `graph`, the edge keys as a `Graph`, costs memory
    in E = 2m*q^2; it is built on first use, so routing builds none."""

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

    @property
    def edge_count(self) -> int:
        return self.num_classes * self.q * self.q

    @property
    def max_degree(self) -> int:
        return 2 * self.q

    @cached_property
    def class_ids(self) -> tuple[list[int], ...]:
        """The vertex ids of each class, ascending, as lists of ints."""
        return tuple(list(range(i * self.q, (i + 1) * self.q))
                     for i in range(self.num_classes))

    def has_edges(self, keys: np.ndarray) -> np.ndarray:
        """Whether each of the int64 keys is an edge key u*n + v of the
        graph.  This is the graph's definition, not the router's shift
        windows: a key is an edge when it lies in 0..n*n-1, decodes to
        u < v, and the classes u // q and v // q differ by 1 or, across the
        cycle's wrap, by 2m-1.  Every other int64 is none, such as the -1
        of `graph.edge_keys`.  Evaluated by chunks, so temporaries stay
        small whatever the number of keys."""
        n, q, wrap = self.n, self.q, self.num_classes - 1
        found = np.empty(len(keys), dtype=bool)
        for lo in range(0, len(keys), _CHUNK):
            u, v = np.divmod(keys[lo:lo + _CHUNK], n)
            # a class step of 1 or 2m-1 puts v's class above u's, so
            # u < v < n; a negative key has u < 0, and one >= n*n has
            # u >= n, whose class lies above every class of v
            outside = u < 0
            u //= q
            v //= q
            v -= u
            found[lo:lo + _CHUNK] = ((v == 1) | (v == wrap)) & ~outside
        return found

    @cached_property
    def quotient(self) -> Quotient:
        """The false-twin quotient (see `graph.twin_classes`), equal to the
        one `Graph.quotient` finds on `graph`.  For m >= 3 it is the 2m
        blown classes of q vertices, with representatives i*q, joined as a
        2m-cycle.  At m = 2, classes i and i+2 have the same neighbours,
        so there are two classes of 2q, with representatives 0 and q, and
        one quotient edge: the graph is K_{2q,2q}."""
        k = 2 if self.m == 2 else self.num_classes
        cls = np.arange(self.n) // self.q % k
        sizes = np.full(k, self.n // k)
        if k == 2:
            indptr, neighbours = np.arange(3), np.array([1, 0])
        else:  # class i is joined to i-1 and i+1 mod k
            i = np.arange(k)
            neighbours = np.sort([(i - 1) % k, (i + 1) % k], axis=0).T.ravel()
            indptr = np.arange(0, 2 * k + 1, 2)
        for kept in (cls, sizes, indptr, neighbours):
            kept.flags.writeable = False
        return Quotient([c * self.q for c in range(k)], cls, sizes,
                        Adjacency(indptr, neighbours))

    @cached_property
    def graph(self) -> Graph:
        """The graph with its sorted keys written in order, with no edge
        array and no sort.  Row u of class c holds u's neighbours in class
        c+1; class 0's rows also hold class 2m-1, which the wrap joins to
        it, and class 2m-1's rows hold no neighbour above u."""
        n, q, two_m = self.n, self.q, self.num_classes
        keys = np.empty(self.edge_count, dtype=np.int64)
        # class 0: row a holds q keys into class 1, then q into class 2m-1
        np.add((np.arange(q) * n).reshape(q, 1, 1),
               np.array([[q], [(two_m - 1) * q]]) + np.arange(q),
               out=keys[:2 * q * q].reshape(q, 2, q))
        # classes 1..2m-2: row u of class c holds q keys into class c+1
        np.add((np.arange(q, (two_m - 1) * q) * n).reshape(two_m - 2, q, 1),
               (np.arange(2, two_m) * q).reshape(two_m - 2, 1, 1)
               + np.arange(q),
               out=keys[2 * q * q:].reshape(two_m - 2, q, q))
        keys.flags.writeable = False
        return Graph(n=n, keys=keys)

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
