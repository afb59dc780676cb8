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
    """Simple undirected graph.  Build via make_graph, not directly."""

    n: int
    edges: frozenset[Edge]
    adj: tuple[tuple[int, ...], ...] = field(compare=False)
    labels: Mapping[int, str] | None = field(default=None, compare=False)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    @cached_property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

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
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in dedup:
        neighbors[u].append(v)
        neighbors[v].append(u)
    adj = tuple(tuple(sorted(ns)) for ns in neighbors)
    if labels is not None:
        bad = [v for v in labels if not (0 <= v < n)]
        if bad:
            raise GraphError(f"label for unknown vertex {bad[0]}")
        labels = dict(labels)
    return Graph(n=n, edges=frozenset(dedup), adj=adj, labels=labels)


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


@dataclass(frozen=True)
class LayerProfile:
    """BFS layers from a root: layer t holds all vertices at distance t."""

    root: int
    layers: tuple[tuple[int, ...], ...]

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @cached_property
    def prefix_sums(self) -> tuple[int, ...]:
        out, total = [], 0
        for s in self.sizes:
            total += s
            out.append(total)
        return tuple(out)

    @property
    def eccentricity(self) -> int:
        return len(self.layers) - 1


def bfs_layers(g: Graph, root: int) -> LayerProfile:
    """Exact distance layers from root.  Raises on disconnected graphs."""
    if not (0 <= root < g.n):
        raise GraphError(f"root {root} out of range 0..{g.n - 1}")
    seen = [False] * g.n
    seen[root] = True
    layers: list[tuple[int, ...]] = []
    frontier = [root]
    reached = 1
    while frontier:
        layers.append(tuple(sorted(frontier)))
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    nxt.append(w)
        reached += len(nxt)
        frontier = nxt
    if reached != g.n:
        witness = seen.index(False)
        raise GraphError(
            f"graph is disconnected: vertex {witness} unreachable from {root}")
    return LayerProfile(root=root, layers=tuple(layers))


def edge_array(g: Graph) -> np.ndarray:
    """Edges as an (E, 2) int array of (u, v) rows, u < v, in no set order."""
    flat = np.fromiter(chain.from_iterable(g.edges), dtype=np.int64,
                       count=2 * len(g.edges))
    return flat.reshape(-1, 2)


def _csr(g: Graph) -> csr_matrix:
    us, vs = edge_array(g).T
    row = np.concatenate([us, vs])
    col = np.concatenate([vs, us])
    data = np.ones(len(row), dtype=np.int8)
    return csr_matrix((data, (row, col)), shape=(g.n, g.n))


def twin_classes(g: Graph) -> tuple[list[int], np.ndarray]:
    """Group vertices into false-twin classes (identical open neighbourhoods).

    Returns (reps, cls): reps[k] is the smallest vertex of class k, so reps
    is ascending, and cls[v] is the class of v.  Swapping two false twins is
    an automorphism, so twins share eccentricity, BFS layer sizes and
    layered-cut counts; their distance rows differ only by that swap.
    """
    index: dict[tuple[int, ...], int] = {}
    reps: list[int] = []
    cls = np.empty(g.n, dtype=np.intp)
    for v, nbrs in enumerate(g.adj):
        k = index.setdefault(nbrs, len(reps))
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
    dist = shortest_path(_csr(g), method="D", unweighted=True,
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


def edge_cut_size(g: Graph, side: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in side."""
    s = set(side)
    if not s or len(s) >= g.n:
        raise GraphError("cut side must be a nonempty proper subset")
    for v in s:
        if not (0 <= v < g.n):
            raise GraphError(f"cut side vertex {v} out of range")
    return sum(1 for u, v in g.edges if (u in s) != (v in s))
