"""Exact path-pairability decision by exhaustive search, plus a fast screener
of a necessary condition.

The decision side enumerates every perfect pairing (there are (n-1)!! of them,
hence the hard n <= 12 guard) and runs a pruned backtracking search for
edge-disjoint joining paths on each.  The screener side checks that as many
edges join consecutive BFS layers as some pairing forces paths across; a
single thin cut certifies a negative.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from .graph import Graph, GraphError, distance_matrix
from .routing import Pairing, make_pairing

DEFAULT_NODE_BUDGET = 100_000_000
ENUMERATION_GUARD = 12

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
CAP_HIT = "cap-hit"

PATH_PAIRABLE = "path-pairable"
NOT_PATH_PAIRABLE = "not-path-pairable"
INCONCLUSIVE = "inconclusive"
CANNOT_RULE_OUT = "cannot-rule-out"

_INF = float("inf")


@dataclass(frozen=True)
class Verdict:
    status: str  # path-pairable | not-path-pairable | inconclusive
    witness: Pairing | None
    pairings_examined: int
    nodes_expanded: int

    def to_json(self) -> str:
        doc = {
            "status": self.status,
            "witness": (self.witness.ids.tolist()
                        if self.witness else None),
            "pairings_examined": self.pairings_examined,
            "nodes_expanded": self.nodes_expanded,
        }
        return json.dumps(doc, indent=2) + "\n"


class _CapHit(Exception):
    pass


def _residual_dist(free: list[int], src: int, stop: int | None = None
                   ) -> list[float]:
    """Hop distances from src in the residual graph whose neighbour
    bitmasks are `free`, inf where cut off, filled layer by layer.  With
    `stop`, the fill ends at the layer that holds it: of that layer only
    stop's entry is filled, and entries past it stay inf."""
    dist = [_INF] * len(free)
    seen = layer = 1 << src
    stop_bit = 0 if stop is None else 1 << stop
    d = 0
    while layer:
        if layer & stop_bit:
            dist[stop] = d
            break
        reach = 0
        while layer:
            low = layer & -layer
            v = low.bit_length() - 1
            dist[v] = d
            reach |= free[v]
            layer ^= low
        layer = reach & ~seen
        seen |= layer
        d += 1
    return dist


def _adjacency(g: Graph) -> list[int]:
    """One neighbour bitmask per vertex: bit w of adj[v] is set when v and
    w are adjacent."""
    adj = [0] * g.n
    for u, v in zip(*(a.tolist() for a in g.endpoints())):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


class _Search:
    """Backtracking search for pairwise edge-disjoint joining paths.

    Prunes a branch when some unrouted pair gets disconnected in the residual
    graph, or when the used-edge count plus the sum of residual shortest-path
    distances of unrouted pairs exceeds the edge supply.
    """

    def __init__(self, adj: list[int], pairs: Sequence[tuple[int, int]],
                 budget: int):
        self.free = list(adj)  # adj with both bits of used edges cleared
        self.e_total = sum(mask.bit_count() for mask in adj) // 2
        self.pairs = pairs
        self.budget = budget
        self.used = 0  # edges cleared from free
        self.routed: list[list[int] | None] = [None] * len(pairs)
        self.nodes = 0

    def run(self) -> str:
        """FEASIBLE, with a path per pair in `routed`; INFEASIBLE once the
        search space is exhausted; or CAP_HIT once `budget` nodes were
        expanded."""
        try:
            return FEASIBLE if self.solve() else INFEASIBLE
        except _CapHit:
            return CAP_HIT

    def solve(self) -> bool:
        open_pairs = [i for i, r in enumerate(self.routed) if r is None]
        if not open_pairs:
            return True
        dists = {}
        for i in open_pairs:
            x, y = self.pairs[i]
            d = _residual_dist(self.free, x, y)[y]
            if d == _INF:
                return False
            dists[i] = d
        if self.used + sum(dists.values()) > self.e_total:
            return False
        # route the most constrained pair first: largest residual distance
        pick = max(open_pairs, key=lambda i: (dists[i], -i))
        x, y = self.pairs[pick]
        to_target = _residual_dist(self.free, y)
        slack = self.e_total - self.used - (sum(dists.values()) - dists[pick])
        return self._extend(pick, [x], 1 << x, to_target, slack)

    def _extend(self, pick, path, on_path, to_target, slack) -> bool:
        """Extend pair `pick`'s path from path[-1] to its target, one free
        edge to a vertex off the path (`on_path`) at a time, while the path
        plus a residual shortest finish stays within `slack` edges."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _CapHit
        cur = path[-1]
        if cur == self.pairs[pick][1]:
            self.routed[pick] = list(path)
            if self.solve():
                return True
            self.routed[pick] = None
            return False
        finish = slack - len(path)  # the longest finish from a next vertex
        free = self.free
        steps = []
        ahead = free[cur] & ~on_path
        while ahead:
            low = ahead & -ahead
            w = low.bit_length() - 1
            if to_target[w] <= finish:
                steps.append((to_target[w], w))
            ahead ^= low
        steps.sort()
        for _, w in steps:
            free[cur] ^= 1 << w
            free[w] ^= 1 << cur
            self.used += 1
            path.append(w)
            if self._extend(pick, path, on_path | 1 << w, to_target, slack):
                return True
            path.pop()
            self.used -= 1
            free[cur] ^= 1 << w
            free[w] ^= 1 << cur
        return False


def enumerate_pairings(items: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect pairings of items in canonical order: the smallest unpaired
    element is matched to each remaining candidate, ascending, recursively."""
    items = sorted(items)
    if len(items) % 2:
        raise ValueError("cannot pair an odd number of items")

    def rec(rest: list[int]):
        if not rest:
            yield ()
            return
        head = rest[0]
        for k in range(1, len(rest)):
            partner = rest[k]
            remaining = rest[1:k] + rest[k + 1:]
            for tail in rec(remaining):
                yield ((head, partner),) + tail

    return rec(list(items))


# a pool worker's stop flag (see `_init_worker`); None in any other process
_stop_flag = None


def _init_worker(stop) -> None:
    """Pool initializer: keep the flag that tells partitions to stop."""
    global _stop_flag
    _stop_flag = stop


def _decide_partition(g: Graph, c: int, budget: int):
    """Scan the pairings that pair 0 with c, in canonical order, on one
    adjacency; stop at the first that is not FEASIBLE.  Returns that status
    (FEASIBLE if none) and pairing, and the pairings and nodes spent.

    In a pool worker whose stop flag is set, the verdict is already known:
    the scan ends before its next pairing and returns status None."""
    adj = _adjacency(g)
    examined = nodes = 0
    for tail in enumerate_pairings(v for v in range(1, g.n) if v != c):
        if _stop_flag is not None and _stop_flag.is_set():
            return None, None, examined, nodes
        pairs = ((0, c),) + tail
        search = _Search(adj, pairs, budget)
        status = search.run()
        examined += 1
        nodes += search.nodes
        if status != FEASIBLE:
            return status, pairs, examined, nodes
    return FEASIBLE, None, examined, nodes


def is_path_pairable(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                     workers: int = 1) -> Verdict:
    """Decide path-pairability by full enumeration (n <= 12).

    The scan is split into the n - 1 partitions fixing the first pair
    (0, c); with workers > 1 they run in a pool of at most n - 1 processes,
    but the verdict and witness are those of the lowest canonical pairing
    index regardless of worker count.  workers or budget below 1 raise
    ValueError.

    An odd n, or one above ENUMERATION_GUARD, raises ValueError from `g.n`
    alone, so a `blowup.BlownCycle` is refused before its edges are built.
    """
    if g.n % 2:
        raise ValueError(f"path-pairability needs an even vertex count, got {g.n}")
    if g.n > ENUMERATION_GUARD:
        raise ValueError(
            f"n={g.n} exceeds the enumeration guard {ENUMERATION_GUARD} "
            f"({g.n - 1}!! pairings)")
    if workers < 1 or budget < 1:
        raise ValueError(f"workers and budget must be at least 1, got "
                         f"workers={workers}, budget={budget}")
    scan = partial(_decide_partition, g, budget=budget)
    workers = min(workers, g.n - 1)  # one per partition
    if workers <= 1:
        return _combine(map(scan, range(1, g.n)))
    # only a pool needs these
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    stop = multiprocessing.Event()
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(stop,)) as pool:
        try:
            verdict = _combine(pool.map(scan, range(1, g.n)))
        finally:
            # partitions past the deciding one may still run, and their
            # results are never read: stop them and drop those not yet sent
            stop.set()
            pool.shutdown(cancel_futures=True)
    return verdict


_VERDICTS = {FEASIBLE: PATH_PAIRABLE, INFEASIBLE: NOT_PATH_PAIRABLE,
             CAP_HIT: INCONCLUSIVE}


def _combine(results) -> Verdict:
    """The verdict of partition results in partition order: the first
    that is not FEASIBLE decides it."""
    status, pairs = FEASIBLE, None
    examined = nodes = 0
    for status, pairs, part_examined, part_nodes in results:
        examined += part_examined
        nodes += part_nodes
        if status != FEASIBLE:
            break
    return Verdict(status=_VERDICTS[status],
                   witness=make_pairing(pairs) if status == INFEASIBLE else None,
                   pairings_examined=examined, nodes_expanded=nodes)


# --- necessary-condition screener ---

LAYERED_CUT = "layered-cut"


def diameter_upper_bound(n: int) -> float:
    """6*sqrt(2)*sqrt(n): no path-pairable graph on n >= 2 vertices has a
    larger diameter d.

    Proof.  Its layered cuts all hold, so by `screen`'s growth implication
    every root r has L_{2k} + L_{2k+1} >= k while 2k+1 <= d and
    |B_{2k+1}(r)| <= n/2.  Let k* be the first k with |B_{2k+1}(r)| > n/2.
    The layers before it give n/2 >= |B_{2k*-1}(r)| >= 0 + 1 + ... + (k*-1),
    so k* < sqrt(n) + 1: a ball of radius below 2*sqrt(n) + 3 holds more
    than half the vertices.  Around the two ends of a diametral pair these
    balls meet, so d < 4*sqrt(n) + 6.  (With no such k* up to d, the same
    sum gives d < 2*sqrt(n) + 2.)  Last, 4*sqrt(n) + 6 <= 6*sqrt(2)*sqrt(n)
    when sqrt(n) >= 6 / (6*sqrt(2) - 4) ~ 1.34, so for every n >= 2.
    """
    return 6.0 * math.sqrt(2.0) * math.sqrt(n)


@dataclass(frozen=True)
class ScreenViolation:
    """A layered cut too thin at one root: only `value` edges join BFS
    layers `index` and index+1, fewer than `required` = min(|S|, n-|S|),
    where S is the ball of radius `index` around `root`.

    This is sound: pair `required` vertices of S with as many outside it.
    Each pair's path leaves S over an edge of the cut, and the paths share
    no edge, so a linkage needs `required` cut edges.
    """

    condition = LAYERED_CUT  # the only one; a class constant, not a field
    root: int
    index: int
    value: int
    required: int


@dataclass(frozen=True)
class ScreenReport:
    verdict: str  # not-path-pairable | cannot-rule-out
    diameter: int
    roots_checked: tuple[int, ...]
    violations: tuple[ScreenViolation, ...]

    def to_json(self) -> str:
        doc = {
            "verdict": self.verdict,
            "diameter": self.diameter,
            "roots_checked": list(self.roots_checked),
            "violations": [
                {"condition": v.condition, "root": v.root, "index": v.index,
                 "value": v.value, "required": v.required}
                for v in self.violations
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def screen(g: Graph) -> ScreenReport:
    """Check the layered cuts of every root attaining the diameter d.

    From a root, B_t is the ball of radius t and L_t the BFS layer size at
    t.  The one condition: for each t < d, at least min(|B_t|, n - |B_t|)
    edges join layers t and t+1.  A failure certifies the graph
    not-path-pairable (see `ScreenViolation`); passing rules nothing in.
    Roots are scanned ascending, and the scan stops at the first root with
    a thin cut, reporting every t at which that root fails.

    Two older conditions follow from it.  Growth, L_{2k} + L_{2k+1} >= k
    wherever 2k+1 <= d and |B_{2k+1}| <= n/2: let k be the smallest index
    where it fails at a root.  It holds below k, so
    |B_{2k}| >= L_{2k} + 0 + 1 + ... + (k-1) > k(k-1)/2.  At most
    L_{2k} * L_{2k+1} <= ((k-1)/2)^2 < |B_{2k}| edges join layers 2k and
    2k+1, and n - |B_{2k}| >= n/2 >= |B_{2k}|, so the layered cut at
    t = 2k fails at the same root.  The bound d <= 6*sqrt(2)*sqrt(n): if
    growth held at both ends of a diametral pair, then
    d < 4*sqrt(n) + 6 <= 6*sqrt(2)*sqrt(n) (`diameter_upper_bound`), so a
    larger d breaks growth, and with it a layered cut, at one of those
    ends, and both are screened roots.

    Distances are computed once per false-twin class.  Twins are swapped by
    an automorphism, so they pass or fail together; the smallest twin comes
    first in the scan, so only class representatives need checking and the
    first violating root is always one.

    Layer sizes and layered-cut counts come from the twin quotient H
    (`Graph.quotient`), weighted by class sizes.  Two adjacent classes are
    joined completely (see `distance_matrix`), so an edge of H between
    classes of sizes s and s' stands for s * s' edges of G, and no edge of G
    joins two twins.  Every member of a class other than the root's lies at
    the class's distance, so those s * s' edges all cross between the same
    two layers or none does.  The root's own class splits: the root is at
    0, and its twins, at the class's own distance, are a class of their
    own with the same neighbour classes.  Summing the weights of H's edges
    per layer pair then counts each edge of G once, in O(|E(H)|) per root.
    Only `g.n` and `g.quotient` are read.
    """
    if g.n % 2:
        raise GraphError(f"screening needs an even vertex count, got {g.n}")
    quotient = g.quotient
    reps, cls = quotient.reps, quotient.cls
    dist = distance_matrix(g)  # raises on disconnected input
    rep_ecc = dist.max(axis=1)
    d = int(rep_ecc.max())
    roots = [int(r) for r in np.flatnonzero(rep_ecc[cls] == d)]

    checked: list[int] = []
    found: tuple[ScreenViolation, ...] = ()
    for root in roots:
        checked.append(root)
        k = cls[root]
        if reps[k] != root:
            continue  # a twin of an earlier root that passed
        layers, cuts = _layer_counts(quotient, d, dist[k], k)
        inside = np.cumsum(layers[:-1])  # |B_t| for t < d
        required = np.minimum(inside, g.n - inside)
        found = tuple(ScreenViolation(root, t, int(cuts[t]), int(required[t]))
                      for t in np.flatnonzero(cuts < required).tolist())
        if found:
            break
    return ScreenReport(verdict=NOT_PATH_PAIRABLE if found else CANNOT_RULE_OUT,
                        diameter=d, roots_checked=tuple(checked),
                        violations=found)


def _layer_counts(quotient, d, dist_row, k) -> tuple[np.ndarray, np.ndarray]:
    """Vertices per BFS layer t <= d, and edges between layers t and t+1 per
    t < d, from the representative of class k, whose row of the class
    matrix is dist_row."""
    ptr, indices = quotient.adj
    size = len(quotient.reps)
    # class k now holds the root alone; class `size` holds its twins
    at = np.append(dist_row, dist_row[k])
    at[k] = 0
    weight = np.append(quotient.sizes, quotient.sizes[k] - 1)
    weight[k] = 1
    # each edge of H once, then the twins' edges, which are the root's
    a = np.repeat(np.arange(size), np.diff(ptr))
    once = a < indices
    near = indices[ptr[k]:ptr[k + 1]]
    a = np.concatenate([a[once], np.full(len(near), size)])
    b = np.concatenate([indices[once], near])
    da, db = at[a], at[b]
    crossing = da != db
    # float64 weights sum exactly: no count exceeds n or E, both < 2**53
    cuts = np.bincount(np.minimum(da, db)[crossing],
                       weights=(weight[a] * weight[b])[crossing], minlength=d)
    layers = np.bincount(at, weights=weight, minlength=d + 1)
    return layers.astype(np.int64), cuts.astype(np.int64)

