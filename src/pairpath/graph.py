"""Immutable simple undirected graphs, named-family generators, and basic metrics.

Vertices are integer ids 0..n-1.  Edges are stored as unordered pairs (u, v)
with u < v.  All metrics are pure functions; Graph values are safe to share
across threads and processes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph construction or metric precondition."""


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph.  Build via make_graph, not directly.

    The edge set is the one stored representation; `csr` derives the
    adjacency matrix from it on first use.
    """

    n: int
    edges: frozenset[Edge]
    labels: Mapping[int, str] | None = field(default=None, compare=False)

    @cached_property
    def csr(self) -> csr_matrix:
        """Symmetric 0/1 adjacency matrix with sorted rows."""
        flat = np.fromiter(chain.from_iterable(self.edges), dtype=np.int32,
                           count=2 * len(self.edges))
        us, vs = flat[0::2], flat[1::2]
        a = csr_matrix((np.ones(len(flat), dtype=np.int8),
                        (np.concatenate([us, vs]), np.concatenate([vs, us]))),
                       shape=(self.n, self.n))
        a.sort_indices()
        return a

    def neighbors(self, v: int) -> list[int]:
        ptr = self.csr.indptr
        return self.csr.indices[ptr[v]:ptr[v + 1]].tolist()

    def degree(self, v: int) -> int:
        ptr = self.csr.indptr
        return int(ptr[v + 1] - ptr[v])

    @property
    def max_degree(self) -> int:
        return int(np.diff(self.csr.indptr).max(initial=0))

    @cached_property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def make_graph(n: int, edges: Iterable[Sequence[int]],
               labels: Mapping[int, str] | None = None) -> Graph:
    """Build a Graph from an edge list; duplicates collapse, order is irrelevant.

    Rejects self-loops and ids outside 0..n-1.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    dedup: set[Edge] = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has id out of range 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} not allowed")
        dedup.add(edge_key(u, v))
    if labels is not None:
        bad = [v for v in labels if not (0 <= v < n)]
        if bad:
            raise GraphError(f"label for unknown vertex {bad[0]}")
        labels = dict(labels)
    return Graph(n=n, edges=frozenset(dedup), labels=labels)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus integer parameters."""

    family: str
    params: tuple[int, ...] = ()


_FAMILIES = ("cycle", "complete", "complete-bipartite", "hypercube",
             "petersen", "grid2", "grid3")


def generate(spec: FamilySpec) -> Graph:
    """Generate a named family with canonical vertex numbering.

    cycle k: vertices 0..k-1 around the cycle.
    complete k: all pairs.
    complete-bipartite a b: part A = 0..a-1, part B = a..a+b-1.
    hypercube dim: vertex id = binary coordinate vector.
    petersen: outer 5-cycle 0-4, inner pentagram 5-9, spokes i <-> i+5.
    grid2 a b / grid3 a b c: row-major product of complete graphs; two
    vertices are adjacent when they differ in exactly one coordinate.
    """
    fam, p = spec.family, spec.params
    if fam not in _FAMILIES:
        raise GraphError(f"unknown family {fam!r}; expected one of {_FAMILIES}")
    if any(x <= 0 for x in p):
        raise GraphError(f"family {fam} parameters must be positive, got {p}")
    if fam == "cycle":
        (k,) = p
        if k < 3:
            raise GraphError("cycle needs at least 3 vertices")
        return make_graph(k, [(i, (i + 1) % k) for i in range(k)])
    if fam == "complete":
        (k,) = p
        return make_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    if fam == "complete-bipartite":
        a, b = p
        return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if fam == "hypercube":
        (dim,) = p
        n = 1 << dim
        return make_graph(n, [(v, v ^ (1 << b)) for v in range(n)
                              for b in range(dim) if v < v ^ (1 << b)])
    if fam == "petersen":
        if p:
            raise GraphError("petersen takes no parameters")
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        return make_graph(10, outer + inner + spokes)
    # grid2 / grid3: Cartesian product of complete graphs
    dims = p
    n = 1
    for d in dims:
        n *= d
    strides = []
    s = 1
    for d in reversed(dims):
        strides.append(s)
        s *= d
    strides.reverse()

    def coords(v: int) -> tuple[int, ...]:
        return tuple((v // strides[i]) % dims[i] for i in range(len(dims)))

    edges = []
    for v in range(n):
        c = coords(v)
        for axis in range(len(dims)):
            for t in range(c[axis] + 1, dims[axis]):
                w = v + (t - c[axis]) * strides[axis]
                edges.append((v, w))
    return make_graph(n, edges)


def twin_classes(g: Graph) -> tuple[list[int], np.ndarray]:
    """Group vertices into false-twin classes (identical open neighbourhoods).

    Returns (reps, cls): reps[k] is the smallest vertex of class k, so reps
    is ascending, and cls[v] is the class of v.  Swapping two false twins is
    an automorphism, so twins share eccentricity, BFS layer sizes and
    layered-cut counts; their distance rows differ only by that swap.

    Every caller goes on to distances, so a graph with n >= 2 and n > 2E,
    which must leave some vertex isolated, raises GraphError here, before
    the n-sized CSR arrays are built.
    """
    if g.n >= 2 and g.n > 2 * g.edge_count:
        touched = set(chain.from_iterable(g.edges))
        v = next(v for v in range(g.n) if v not in touched)
        u = 1 if v == 0 else 0
        raise GraphError(f"graph is disconnected: vertex {v} unreachable from {u}")
    ptr, indices = g.csr.indptr, g.csr.indices
    index: dict[bytes, int] = {}
    reps: list[int] = []
    cls = np.empty(g.n, dtype=np.intp)
    for v in range(g.n):
        k = index.setdefault(indices[ptr[v]:ptr[v + 1]].tobytes(), len(reps))
        if k == len(reps):
            reps.append(v)
        cls[v] = k
    return reps, cls


def distance_matrix(g: Graph, sources: Sequence[int] | None = None
                    ) -> np.ndarray:
    """Hop distances from each vertex of `sources` (default: every vertex) as
    a (len(sources), n) int array.  Raises if disconnected."""
    if g.n == 0:
        raise GraphError("empty graph has no distances")
    dist = shortest_path(g.csr, method="D", unweighted=True,
                         indices=sources)
    if np.isinf(dist).any():
        i, v = map(int, np.argwhere(np.isinf(dist))[0])
        u = i if sources is None else int(sources[i])
        raise GraphError(f"graph is disconnected: vertex {v} unreachable from {u}")
    return dist.astype(np.int64)


def eccentricities(g: Graph) -> tuple[int, ...]:
    """Per-vertex eccentricity from one BFS per false-twin class."""
    reps, cls = twin_classes(g)
    ecc = distance_matrix(g, reps).max(axis=1)
    return tuple(int(e) for e in ecc[cls])


def diameter(g: Graph) -> int:
    """Max eccentricity over all vertices; exact."""
    return max(eccentricities(g))
