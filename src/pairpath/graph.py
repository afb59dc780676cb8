"""Immutable simple undirected graphs, named-family generators, and basic metrics.

Vertices are integer ids 0..n-1.  An edge {u, v} with u < v is stored as the
int64 key u*n + v, and a graph keeps its edges as one sorted, duplicate-free
array of keys.  This module owns both formats: other modules convert ids with
`as_ids`, encode edges with `edge_keys`, decode and look up keys through
`Graph`, dedupe keys with `distinct` and order repeated claims with
`first_claims`.  All metrics are pure functions; Graph values are safe to
share across threads and processes.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .rng import mix64

# the largest n for which every key u*n + v (u < v < n) fits in int64
MAX_VERTICES = 3_037_000_500


class GraphError(ValueError):
    """Invalid graph construction or metric precondition."""


def as_ids(values: Sequence[object], n: int) -> np.ndarray:
    """Vertex ids as an int64 array, with -1 for every value that is no id.
    An id is an integer of any size in 0..n-1, and an integer is what
    operator.index accepts, as in make_pairing: floats and strings are none.
    A NumPy integer array is converted as a whole.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        ids = values.astype(np.int64)  # a uint64 beyond int64 reads < 0
    else:
        try:
            # a sum of Python ints is a Python int; a float, a string or a
            # NumPy value makes it something else or raises, and goes id by id
            if type(sum(values)) is not int:
                raise TypeError
            ids = np.fromiter(values, dtype=np.int64, count=len(values))
        except (TypeError, OverflowError):  # not all ints, or beyond int64
            ids = np.array([_id(v, n) for v in values], dtype=np.int64)
    ids[ids.view(np.uint64) >= n] = -1  # a negative id reads >= 2**63
    return ids


def _id(v: object, n: int) -> int:
    try:
        v = operator.index(v)
    except TypeError:
        return -1
    return v if 0 <= v < n else -1


def edge_keys(us: np.ndarray, vs: np.ndarray, n: int) -> np.ndarray:
    """The key u*n + v (u < v) of each edge {us[i], vs[i]}, or -1 for a loop
    or an end of -1; ids are int64 in -1..n-1."""
    keys = np.minimum(us, vs)
    keys *= n
    keys += np.maximum(us, vs)
    keys[(keys < 0) | (us == vs)] = -1
    return keys


class Adjacency(NamedTuple):
    """Compressed sparse rows of a symmetric adjacency: the neighbours of
    vertex v are indices[indptr[v]:indptr[v + 1]], ascending; both arrays
    int64 and read-only."""

    indptr: np.ndarray
    indices: np.ndarray


class Quotient(NamedTuple):
    """The false-twin quotient H of a graph (see `twin_classes`): class k
    holds sizes[k] vertices, the smallest of them reps[k], and cls[v] is
    the class of v.  Two classes are adjacent in H when their members are,
    and `adj` holds H's adjacency."""

    reps: list[int]
    cls: np.ndarray
    sizes: np.ndarray
    adj: Adjacency


def distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an int64 array, ascending, found by a sort.
    Plain np.unique hashes int64 in recent NumPy, which is many times
    slower, and loads numpy.ma on its first call."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def first_claims(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A sort order of keys, and for each key in that order whether it is
    the first claim of its value: the earliest position of its value in
    keys.  Equal keys may come in any order within their run, so the first
    claim need not start it."""
    order = np.argsort(keys)
    ordered = keys[order]
    new_run = np.ones(len(keys), dtype=bool)
    new_run[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_run)
    earliest = np.minimum.reduceat(order, starts)
    first = order == np.repeat(earliest, np.diff(starts, append=len(keys)))
    return order, first


# keys per step of the build of `Graph.bits`, which bounds its temporaries
_CHUNK = 1 << 13


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph: the vertex count n and the edge keys.
    Build via make_graph, or as a blown cycle's `blowup.BlownCycle.graph`,
    which writes its sorted keys in order; not directly.

    `keys` is the one stored representation of the edge set: the sorted,
    duplicate-free int64 keys u*n + v with u < v (see `edge_keys`),
    read-only.  `endpoints` decodes them; `csr` derives the adjacency lists,
    `quotient` the false-twin quotient and `bits` the bit matrix that
    `has_edges` reads from them, each on first use.
    """

    n: int
    keys: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.keys, other.keys)

    def __hash__(self) -> int:
        return hash((self.n, self.keys.tobytes()))

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The ends (u, v), u < v, of every edge, in key order."""
        return np.divmod(self.keys, self.n)

    def has_edges(self, keys: np.ndarray) -> np.ndarray:
        """Whether each of the int64 keys is an edge key of this graph.  A
        key outside 0..n*n-1, such as the -1 of `edge_keys`, is none.

        One gather and one shift per key in `bits` when the graph has it;
        otherwise a binary search in `keys`, where sorted keys are
        fastest."""
        bits = self.bits
        if bits is None:
            slot = np.searchsorted(self.keys, keys)
            found = slot < len(self.keys)
            found[found] = self.keys[slot[found]] == keys[found]
            return found
        # a negative key reads >= 2**63, so every key outside 0..n*n-1 reads
        # bit n*n, which is clear
        at = np.minimum(keys.view(np.uint64),
                        np.uint64(self.n * self.n)).view(np.int64)
        return (bits[at >> 3] >> (at & 7).astype(np.uint8) & 1).astype(bool)

    @cached_property
    def bits(self) -> np.ndarray | None:
        """The edge set as a read-only bit matrix, derived from `keys` on
        first use: bit j & 7 of byte j >> 3 is set when j is an edge key,
        for j in 0..n*n, and bit n*n is always clear.  None when the n*n
        bits would take more memory than the 64-bit keys, n*n > 64E, as on
        sparse graphs."""
        n = operator.index(self.n)
        if n * n > 64 * len(self.keys):
            return None
        bits = np.zeros(n * n // 8 + 1, dtype=np.uint8)
        # the keys are sorted, so the keys of one byte are a run; a run
        # split between two chunks ORs into its byte twice
        for lo in range(0, len(self.keys), _CHUNK):
            chunk = self.keys[lo:lo + _CHUNK]
            byte = chunk >> 3
            starts = np.flatnonzero(np.diff(byte, prepend=-1))
            bits[byte[starts]] |= np.bitwise_or.reduceat(
                np.uint8(1) << (chunk & 7).astype(np.uint8), starts)
        bits.flags.writeable = False
        return bits

    @cached_property
    def csr(self) -> Adjacency:
        """Adjacency lists in compressed sparse rows, derived from `keys`."""
        us, vs = self.endpoints()
        # the entry for w in row v has the key v*n + w, so both orientations
        # of every edge, sorted by key, are the rows one after another
        entries = np.concatenate([self.keys, vs * self.n + us])
        entries.sort()
        indices = entries % self.n
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(us, minlength=self.n)
                  + np.bincount(vs, minlength=self.n), out=indptr[1:])
        indptr.flags.writeable = indices.flags.writeable = False
        return Adjacency(indptr, indices)

    @cached_property
    def quotient(self) -> Quotient:
        """The false-twin quotient, built on first use (see `twin_classes`)."""
        return _quotient(self)

    @property
    def max_degree(self) -> int:
        return int(np.diff(self.csr.indptr).max(initial=0))

    @property
    def edge_count(self) -> int:
        return len(self.keys)


def make_graph(n: int, edges: Iterable[Sequence[int]] | np.ndarray) -> Graph:
    """Build a Graph from an edge list or an (E, 2) array; duplicates
    collapse, order is irrelevant.

    Rejects ends that are no id (see `as_ids`) and self-loops, naming the
    first bad edge in input order, and n above MAX_VERTICES.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds {MAX_VERTICES}, the "
                         "largest whose edge keys fit in int64")
    rows = _edge_array(edges)
    pairs = rows if rows.dtype.kind in "iu" \
        else as_ids(rows.ravel().tolist(), n).reshape(-1, 2)
    us, vs = pairs[:, 0], pairs[:, 1]
    bad = (us < 0) | (us >= n) | (vs < 0) | (vs >= n) | (us == vs)
    if bad.any():
        u, v = rows[int(np.argmax(bad))].tolist()
        if (as_ids([u, v], n) < 0).any():
            raise GraphError(f"edge ({u!r},{v!r}) has id out of range "
                             f"0..{n - 1}")
        raise GraphError(f"self-loop at vertex {u} not allowed")
    # ids are in 0..n-1 now, so they and the keys fit in int64
    keys = distinct(edge_keys(us.astype(np.int64, copy=False),
                              vs.astype(np.int64, copy=False), n))
    keys.flags.writeable = False
    return Graph(n=n, keys=keys)


def _edge_array(edges: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Edges as an (E, 2) array.  A list becomes an object array, so that
    no id is converted before `as_ids` reads it; a list whose rows are not
    all pairs raises for the first row that is no pair."""
    if not isinstance(edges, np.ndarray):
        edges = np.array(list(edges), dtype=object)
        if edges.ndim == 1 and edges.size:  # ragged rows
            for i, row in enumerate(edges):
                if np.ndim(row) != 1 or len(row) != 2:
                    raise GraphError(f"edge #{i} {row!r} is not a (u, v) "
                                     "pair")
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError(f"edges must be (u, v) pairs, got shape {edges.shape}")
    return edges


# each family's integer parameters, in the order `generate` takes them
FAMILIES: dict[str, tuple[str, ...]] = {
    "complete": ("k",),
    "complete-bipartite": ("a", "b"),
    "cycle": ("k",),
    "grid2": ("a", "b"),
    "grid3": ("a", "b", "c"),
    "hypercube": ("dim",),
    "petersen": (),
}


def generate(family: str, params: tuple[int, ...] = ()) -> Graph:
    """Generate a named family with canonical vertex numbering.

    cycle k: vertices 0..k-1 around the cycle.
    complete-bipartite a b: part A = 0..a-1, part B = a..a+b-1.
    petersen: outer 5-cycle 0-4, inner pentagram 5-9, spokes i <-> i+5.
    complete k, hypercube dim, grid2 a b and grid3 a b c: the Cartesian
    product of complete graphs K_d over dims (k,), (2,)*dim, (a, b) and
    (a, b, c), with row-major ids, so a hypercube's vertex id is its binary
    coordinate vector; two vertices are adjacent when their coordinates
    differ in exactly one place.

    Raises GraphError for an unknown family, a parameter count other than
    the family's in FAMILIES, or a parameter below 1.
    """
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}; expected one of "
                         f"{tuple(FAMILIES)}")
    if len(params) != len(FAMILIES[family]):
        raise GraphError(f"family {family} takes parameters "
                         f"({', '.join(FAMILIES[family])}), got {params}")
    if any(x <= 0 for x in params):
        raise GraphError(f"family {family} parameters must be positive, "
                         f"got {params}")
    if family == "cycle":
        (k,) = params
        if k < 3:
            raise GraphError("cycle needs at least 3 vertices")
        return make_graph(k, [(i, (i + 1) % k) for i in range(k)])
    if family == "complete-bipartite":
        a, b = params
        return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if family == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        return make_graph(10, outer + inner + spokes)
    # complete, hypercube, grid2 and grid3: products of complete graphs
    dims = (2,) * params[0] if family == "hypercube" else params
    ids = np.arange(math.prod(dims)).reshape(dims)
    edges = []
    for axis, d in enumerate(dims):
        # each line along the axis is a K_d on its ids
        lines = np.moveaxis(ids, axis, -1)
        i, j = np.triu_indices(d, 1)
        edges.append(np.stack([lines[..., i], lines[..., j]], -1).reshape(-1, 2))
    return make_graph(ids.size, np.concatenate(edges))


def twin_classes(g: Graph) -> tuple[list[int], np.ndarray]:
    """Group vertices into false-twin classes (identical open neighbourhoods).

    Returns (reps, cls): reps[k] is the smallest vertex of class k, so reps
    is ascending, and cls[v] is the class of v.  Swapping two false twins is
    an automorphism, so twins share eccentricity, BFS layer sizes and
    layered-cut counts; their distance rows differ only by that swap.
    `Graph.quotient` keeps the classes, so a command finds them once.

    Every caller goes on to distances, so a graph with n >= 2 and n > 2E,
    which must leave some vertex isolated, raises GraphError here (see
    `_check_spread`), before the n-sized CSR arrays are built.

    Twins have equal row fingerprints (see `_row_fingerprints`), so each
    vertex is first put with the smallest vertex of its fingerprint.  Then
    every row is compared with that vertex's, entry by entry: as rows of
    one matrix when all rows have one length, which is the fastest, and
    by a gather of entries otherwise.  The vertices of a fingerprint that
    different rows share are grouped by their rows themselves.
    """
    _check_spread(g)
    ptr, indices = g.csr
    deg = np.diff(ptr)
    fp = _row_fingerprints(g.csr)
    order = np.argsort(fp)
    ordered = fp[order]
    new_run = np.ones(g.n, dtype=bool)
    new_run[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_run)
    rep = np.empty(g.n, dtype=np.intp)
    rep[order] = np.repeat(np.minimum.reduceat(order, starts),
                           np.diff(starts, append=g.n))
    # entry i of row v against entry i of row rep[v]
    d = int(deg.max(initial=0))
    if (deg == d).all():  # rows of one length, such as a blown cycle's
        rows = indices.reshape(g.n, d)
        clash = (rows[rep] != rows).any(axis=1)
    else:  # a row whose length differs from its rep's is flagged by that
        clash = deg != deg[rep]
        at = np.repeat(np.where(clash, 0, ptr[rep] - ptr[:-1]), deg)
        at += np.arange(len(indices))
        differ = np.flatnonzero(indices[at] != indices)
        clash[np.searchsorted(ptr, differ, "right") - 1] = True
    if clash.any():
        index: dict[bytes, int] = {}
        for v in np.flatnonzero(np.isin(rep, rep[clash])).tolist():
            rep[v] = index.setdefault(indices[ptr[v]:ptr[v + 1]].tobytes(), v)
    is_rep = rep == np.arange(g.n)
    cls = np.cumsum(is_rep) - 1
    return np.flatnonzero(is_rep).tolist(), cls[rep]


# the odd multiplier of the polynomial hash in `_row_fingerprints`
_ODD = np.uint64(0x9E3779B97F4A7C15)


def _row_fingerprints(adj: Adjacency) -> np.ndarray:
    """A uint64 per row that equal rows share: the row's length and five of
    its entries, evenly spread from its first to its last, hashed; 0 for
    an empty row.  So rows of up to five entries are read whole."""
    ptr, indices = adj
    deg = np.diff(ptr)
    rows = np.flatnonzero(deg)
    first, last = ptr[rows], deg[rows] - 1
    h = last.view(np.uint64)
    for j in range(5):
        h = h * _ODD + indices[first + (last * j >> 2)].view(np.uint64)
    fp = np.zeros(len(deg), dtype=np.uint64)
    fp[rows] = mix64(h)
    return fp


def _quotient(g: Graph) -> Quotient:
    """The twin classes and their adjacency, read off the representatives'
    neighbour lists: a representative is adjacent to every member of each
    class next to its own, and to nothing else."""
    reps, cls = twin_classes(g)
    k = len(reps)
    ptr, indices = g.csr
    first = ptr[reps]
    deg = ptr[1:][reps] - first
    # the neighbours of every representative, one list after another
    at = np.arange(deg.sum()) + np.repeat(first - np.cumsum(deg) + deg, deg)
    pairs = distinct(np.repeat(np.arange(k), deg) * k + cls[indices[at]])
    rows, neighbours = np.divmod(pairs, k)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=k), out=indptr[1:])
    sizes = np.bincount(cls, minlength=k)
    for kept in (cls, sizes, indptr, neighbours):
        kept.flags.writeable = False
    return Quotient(reps, cls, sizes, Adjacency(indptr, neighbours))


# bit j of a uint64 word stands for the j-th source of a chunk
_BITS = np.arange(64, dtype=np.uint64)


def _bfs(adj: Adjacency, sources: np.ndarray) -> np.ndarray:
    """Hop distances from each of the distinct `sources` as a
    (len(sources), V) int64 array, -1 where unreachable.

    A bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    PVLDB 2014): one uint64 word per vertex carries up to 64 sources, and a
    level is one gather of the frontier words along every adjacency entry
    and one bitwise-or reduction per row.  Chunks of 64 sources run one
    after another, so memory stays O(V + E) beside the result.
    """
    ptr, indices = adj
    dist = np.full((len(sources), len(ptr) - 1), -1, dtype=np.int64)
    rows = np.flatnonzero(np.diff(ptr))  # reduceat needs nonempty rows
    for lo in range(0, len(sources), 64):
        chunk = sources[lo:lo + 64]
        block = dist[lo:lo + 64]
        block[np.arange(len(chunk)), chunk] = 0
        frontier = np.zeros(len(ptr) - 1, dtype=np.uint64)
        frontier[chunk] = np.uint64(1) << _BITS[:len(chunk)]
        seen = frontier.copy()
        level = 0
        while rows.size:
            level += 1
            reached = np.zeros_like(frontier)
            reached[rows] = np.bitwise_or.reduceat(frontier[indices],
                                                   ptr[rows])
            frontier = reached & ~seen
            hit = np.flatnonzero(frontier)
            if not hit.size:
                break
            seen[hit] |= frontier[hit]
            j, i = np.nonzero((frontier[hit] >> _BITS[:, None]) & 1)
            block[j, hit[i]] = level
    return dist


def distance_matrix(g: Graph) -> np.ndarray:
    """Hop distances between the false-twin classes of `g.quotient`, as a
    (k, k) int64 array: entry [a, b] is the distance from a vertex of class
    a to every other vertex of class b.  So the diagonal is 2 for a class
    of two or more vertices and 0 for a class of one.  Raises GraphError
    for an empty or a disconnected graph, naming the smallest vertex that
    vertex 0 cannot reach.  Reads only `g.n` and `g.quotient`.

    The BFS runs on the quotient H.  This is exact:
    - False twins are never adjacent: v in N(u) = N(v) would be a loop.  If
      one vertex of class A is adjacent to one of class B, every vertex of
      A is adjacent to it, as they share its neighbourhood, and then to all
      of its twins in B.  So two classes are joined completely or not at
      all, and H's adjacency is well defined.
    - A path of G maps class by class to a walk of H of the same length,
      and a path of H lifts to G through any members of its classes.  So
      two vertices in different classes are at their classes' distance in
      H.
    - Two twins are not adjacent, and a common neighbour joins them: they
      are at distance 2, or unreachable when their class has no neighbour,
      as isolated vertices have none.
    """
    if g.n == 0:
        raise GraphError("empty graph has no distances")
    quotient = g.quotient  # a graph with n > 2E raises here
    dist = _bfs(quotient.adj, np.arange(len(quotient.reps)))
    many = np.flatnonzero(quotient.sizes > 1)
    dist[many, many] = np.where(np.diff(quotient.adj.indptr)[many] > 0, 2, -1)
    if (dist < 0).any():
        # vertex 0 is in class 0, and a -1 anywhere leaves one in its row
        missed = np.flatnonzero(dist[0] < 0)
        firsts = np.asarray(quotient.reps)[missed]
        if missed[0] == 0:  # the twins of vertex 0 have no neighbour
            firsts[0] = np.flatnonzero(quotient.cls == 0)[1]
        raise GraphError(f"graph is disconnected: vertex {firsts.min()} "
                         "unreachable from 0")
    return dist


def _check_spread(g: Graph) -> None:
    """Raise GraphError when n >= 2 and n > 2E, so that some vertex must be
    isolated, naming the first vertex that 0 cannot reach: the witness
    `distance_matrix` names on any other disconnected graph."""
    if g.n >= 2 and g.n > 2 * g.edge_count:
        raise GraphError(f"graph is disconnected: vertex "
                         f"{_first_unreachable(g)} unreachable from 0")


def _first_unreachable(g: Graph) -> int:
    """The smallest vertex that 0 cannot reach, in a graph with an isolated
    vertex; found on the touched vertices alone, so nothing n-sized is
    built."""
    touched, ends = np.unique(np.concatenate(g.endpoints()),
                              return_inverse=True)
    if not len(touched) or touched[0] != 0:  # 0 is isolated
        return 1
    gaps = np.flatnonzero(touched != np.arange(len(touched)))
    isolated = int(gaps[0]) if gaps.size else len(touched)
    sub = make_graph(len(touched), ends.reshape(2, -1).T)
    apart = touched[_bfs(sub.csr, np.array([0]))[0] < 0]
    return min(isolated, int(apart[0])) if apart.size else isolated


def diameter(g: Graph) -> int:
    """Max eccentricity over all vertices; exact.  Twins share
    eccentricity (see `twin_classes`), so the largest entry of the class
    matrix of `distance_matrix` is the diameter."""
    return int(distance_matrix(g).max())
