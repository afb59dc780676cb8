"""Shared builders and oracles for the test suite."""
from __future__ import annotations

import json
import math
import operator
import pathlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from pairpath.blowup import (BlownCycle, BlowupError, _BlownCycleGraph,
                             build, free_common_neighbors)
from pairpath.formats import FormatError
from pairpath.graph import Graph, GraphError, as_ids, generate, make_graph
from pairpath.pairability import (CANNOT_RULE_OUT, DEFAULT_NODE_BUDGET,
                                  FEASIBLE, NOT_PATH_PAIRABLE, ScreenReport,
                                  ScreenViolation, _adjacency, _Search)
from pairpath.rng import SplitMix64
from pairpath.routing import (Pairing, PairingError, Route, RoutePlan,
                              RoutingError, assign_candidates,
                              canonical_labeling, make_pairing, phase_one)
from pairpath.verify import (EDGE_REUSED, ENDPOINT_NOT_IN_PAIRING, NOT_A_WALK,
                             WRONG_ENDPOINTS, PlanWarning, VerificationReport,
                             Violation)

# a perfect pairing of build(4) whose 19 closing tasks in class 1 all miss
# vertex 46, so they share 18 candidates and cannot each get their own
# (Hall's condition fails); it routes because tasks with disjoint ends may
# share a candidate; drawn once with bench/pairings.py:
# hall_deficient(build(4), SplitMix64(1))
HALL_DEFICIENT_M4 = (pathlib.Path(__file__).parent / "golden"
                     / "hall_deficient_m4.json")
# the output of `pairpath route --m 4 --pairing` on that pairing, kept to
# pin the router's plans byte for byte
HALL_DEFICIENT_M4_PLAN = HALL_DEFICIENT_M4.with_name(
    "hall_deficient_m4_plan.json")

# two walks of build(2) that both end at vertex 12 (index 1 of class 1) and
# close towards targets 16 and 18; both tasks' smallest candidate is 22
SHARED_END_PAIRS_M2 = [(0, 16), (42, 18)]


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def dumbbell(internals: int) -> Graph:
    """Two K5 blocks joined by a chain of `internals` extra vertices."""
    k5a = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    second = list(range(5 + internals, 10 + internals))
    k5b = [(u, v) for idx, u in enumerate(second) for v in second[idx + 1:]]
    chain = []
    prev = 4
    for v in range(5, 5 + internals):
        chain.append((prev, v))
        prev = v
    chain.append((prev, second[0]))
    return make_graph(10 + internals, k5a + k5b + chain)


def neighbors(g: Graph, v: int) -> list[int]:
    """The neighbours of v, ascending, read from g.csr."""
    ptr = g.csr.indptr
    return g.csr.indices[ptr[v]:ptr[v + 1]].tolist()


def degrees(g: Graph) -> list[int]:
    """The degree of every vertex, read from g.csr."""
    return np.diff(g.csr.indptr).tolist()


def sorted_edges(g: Graph) -> list[tuple[int, int]]:
    """Every edge (u, v), u < v, in key order."""
    us, vs = g.endpoints()
    return list(zip(us.tolist(), vs.tolist()))


def pairing_count(n: int) -> int:
    """(n-1)!! perfect pairings of n items, n even."""
    if n % 2:
        raise ValueError("no perfect pairing of an odd set")
    return math.prod(range(1, n, 2))


def pair_tuples(p: Pairing) -> tuple[tuple[int, int], ...]:
    """The pairs of p as (x, y) tuples of Python ints, in pairing order."""
    return tuple(map(tuple, p.ids.tolist()))


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(sorted_edges(g))
    return h


@dataclass(frozen=True)
class SearchResult:
    status: str  # feasible | infeasible | cap-hit
    plan: RoutePlan | None
    nodes_expanded: int


def find_disjoint_paths(g: Graph, p: Pairing,
                        budget: int = DEFAULT_NODE_BUDGET) -> SearchResult:
    """Decide one pairing instance with the decider's search core.

    Returns FEASIBLE with the plan the search built, INFEASIBLE once the
    search space is exhausted, or CAP_HIT once `budget` nodes were
    expanded.  Raises GraphError for a pairing vertex outside 0..n-1.
    """
    values = p.ids.ravel()
    bad = as_ids(values, g.n) < 0
    if bad.any():
        raise GraphError(f"pairing vertex {values[np.argmax(bad)]} out "
                         f"of range 0..{g.n - 1}")
    search = _Search(_adjacency(g), p.ids.tolist(), budget)
    status = search.run()
    plan = None
    if status == FEASIBLE:
        x, y = p.ids.T
        plan = RoutePlan.from_arrays(
            x, y, [v for path in search.routed for v in path],
            np.cumsum([len(path) for path in search.routed]))
    return SearchResult(status=status, plan=plan, nodes_expanded=search.nodes)


def reference_verify_plan(g: Graph, p: Pairing, plan: RoutePlan
                          ) -> VerificationReport:
    """Oracle: verify_plan as one Python loop over routes, vertices and
    steps, checking each step against the edge set."""
    violations: list[Violation] = []
    warnings: list[PlanWarning] = []
    n, edges = g.n, set(sorted_edges(g))
    # a pair value that is no id, such as -1, is no endpoint
    endpoint_set = {v for v in p.endpoints() if _is_id(v, n)}
    owner: dict[tuple[int, int], int] = {}

    for idx, route in enumerate(plan.routes):
        path = route.path
        if idx >= len(p):
            violations.append(Violation(
                kind=ENDPOINT_NOT_IN_PAIRING, pair_indexes=(idx,),
                vertex=route.x))
            continue
        # ends count only as ids, tried in path order
        ends = [path[0], path[-1]] if path else []
        pair = p.ids[idx].tolist()
        if not (path and all(_is_id(v, n)
                             for v in ends + [route.x, route.y] + pair)
                and set(ends) == set(pair)
                and path[0] == route.x and path[-1] == route.y):
            stray = next((v for v in ends
                          if not (_is_id(v, n) and v in endpoint_set)), None)
            if stray is not None:
                violations.append(Violation(
                    kind=ENDPOINT_NOT_IN_PAIRING, pair_indexes=(idx,),
                    vertex=stray))
            else:
                violations.append(Violation(
                    kind=WRONG_ENDPOINTS, pair_indexes=(idx,),
                    vertex=path[0] if path else None))
        seen_vertices: set[int] = set()
        for v in path:
            if not _is_id(v, n):
                violations.append(Violation(
                    kind=NOT_A_WALK, pair_indexes=(idx,), vertex=v))
            elif v in seen_vertices:
                warnings.append(PlanWarning(
                    kind="vertex-repeated", pair_index=idx, vertex=v))
            else:
                seen_vertices.add(v)
        for u, v in zip(path, path[1:]):
            e = (u, v) if u < v else (v, u)
            # a step with an end that is no id, such as -1, is never in the
            # edge set, nor is a self-loop
            if not (_is_id(u, n) and _is_id(v, n)) or e not in edges:
                violations.append(Violation(
                    kind=NOT_A_WALK, pair_indexes=(idx,), edge=e))
                continue
            if e in owner:
                violations.append(Violation(
                    kind=EDGE_REUSED, pair_indexes=(owner[e], idx), edge=e))
            else:
                owner[e] = idx

    for idx in range(len(plan.routes), len(p)):
        violations.append(Violation(
            kind=WRONG_ENDPOINTS, pair_indexes=(idx,),
            vertex=int(p.ids[idx, 0])))

    return VerificationReport(ok=not violations,
                              violations=tuple(violations),
                              warnings=tuple(warnings))


def _is_id(v: object, n: int) -> bool:
    """Whether v is a vertex id: an integer (what operator.index accepts, so
    no float or string) in 0..n-1."""
    try:
        return 0 <= operator.index(v) < n
    except TypeError:
        return False


def reference_route(b: BlownCycle, p: Pairing) -> RoutePlan:
    """Oracle: route as loops over pairs and walk steps.  Orients each pair,
    walks it one shift at a time, closes the residual tasks class by class
    with the router's greedy, and records each claimed edge in a plain owner
    dict, checking it against every earlier claim."""
    n, q, m, two_m = b.n, b.q, b.m, b.num_classes
    entries = []  # (x, y, walk, complete)
    for x, y in p.ids.tolist():
        for v in (x, y):
            if not (0 <= v < n):
                raise PairingError(f"vertex {v} out of range 0..{n - 1}")
        d = (y // q - x // q) % two_m
        if d > m:
            x, y, d = y, x, two_m - d
        c, a = divmod(x, q)
        walk = [x]
        for j in range(1, d + 1):
            c = (c + 1) % two_m
            a = (a + j) % q
            walk.append(c * q + a)
        entries.append((x, y, tuple(walk), d >= 1 and walk[-1] == y))

    used: dict[tuple[int, int], int] = {}

    def claim(e: tuple[int, int], idx: int) -> None:
        if e in used:
            raise RoutingError(f"edge {e} claimed by pairs {used[e]} and "
                               f"{idx}: construction bug")
        used[e] = idx

    by_class: dict[int, list[tuple[int, int, int]]] = {}
    for idx, (_, y, walk, complete) in enumerate(entries):
        for u, v in zip(walk, walk[1:]):
            claim((u, v) if u < v else (v, u), idx)
        if not complete:
            cls, a = divmod(y, q)
            by_class.setdefault(cls, []).append((a, idx, walk[-1]))
    closing: dict[int, int] = {}
    for cls in sorted(by_class):
        tasks = sorted(by_class[cls])
        ends = [(reached, cls * q + a) for a, _, reached in tasks]
        try:
            chosen = assign_candidates(
                [free_common_neighbors(b, r, y) for r, y in ends], ends)
        except ValueError:
            raise RoutingError(
                f"class {cls} (m={m}): a closing task has no free "
                "candidate: construction bug") from None
        for (_, idx, _), (reached, target), z in zip(tasks, ends, chosen):
            closing[idx] = z
            claim((reached, z) if reached < z else (z, reached), idx)
            claim((z, target) if z < target else (target, z), idx)

    routes = tuple(
        Route(x=x, y=y, path=walk if complete else walk + (closing[idx], y))
        for idx, (x, y, walk, complete) in enumerate(entries))
    return RoutePlan(routes=routes, used_edges=used)


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
    """Oracle: exact distance layers from root.  Raises on disconnected
    graphs."""
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
            for w in neighbors(g, v):
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


def edge_cut_size(g: Graph, side: Iterable[int]) -> int:
    """Oracle: number of edges with exactly one endpoint in side."""
    s = set(side)
    if not s or len(s) >= g.n:
        raise GraphError("cut side must be a nonempty proper subset")
    for v in s:
        if not (0 <= v < g.n):
            raise GraphError(f"cut side vertex {v} out of range")
    return sum(1 for u, v in sorted_edges(g) if (u in s) != (v in s))


def matching_step(b: BlownCycle, boundary: int, shift: int, frm: int) -> int:
    """Oracle: follow the reserved shift matching at a boundary.

    Returns the partner of `frm` in class boundary+1 under the shift-j
    matching; only reserved shifts 1..m are steppable.
    """
    if not (1 <= shift <= b.m):
        raise BlowupError(
            f"shift {shift} outside reserved range 1..{b.m}")
    if not (0 <= frm < b.n):
        raise BlowupError(f"vertex {frm} out of range")
    i = b.class_of(frm)
    if i != boundary % b.num_classes:
        raise BlowupError(
            f"vertex {frm} is in class {i}, not boundary class {boundary}")
    return b.vertex(i + 1, b.index_of(frm) + shift)


def blown_cycle_edges(b: BlownCycle) -> np.ndarray:
    """Oracle: the blown cycle's edges as an (E, 2) array, one complete
    join per pair of consecutive classes: row (i, a, c) is the edge from
    vertex a of class i to vertex c of class i+1 (mod 2m)."""
    q, two_m = b.q, b.num_classes
    edges = np.empty((two_m, q, q, 2), dtype=np.int64)
    edges[..., 0] = np.arange(b.n).reshape(two_m, q, 1)
    edges[..., 1] = (np.arange(1, two_m + 1) % two_m * q).reshape(
        two_m, 1, 1) + np.arange(q)
    return edges.reshape(-1, 2)


def edge_lookup(g: Graph) -> str:
    """The lookup that g.has_edges takes: "closed-form" on a blown cycle's
    graph, which answers from m, and "sorted-keys" on every other Graph,
    which searches its keys."""
    return {Graph.has_edges: "sorted-keys",
            _BlownCycleGraph.has_edges: "closed-form"}[type(g).has_edges]


def class_members(b: BlownCycle, cls: int) -> range:
    """The ids of class cls (mod 2m), which are consecutive."""
    base = b.vertex(cls, 0)
    return range(base, base + b.q)


def adversarial_pairings(b: BlownCycle) -> list[Pairing]:
    """Structured worst-case pairings: all-antipodal by class, all-same-class
    (maximal partial; a perfect one cannot exist with odd class size), and
    class-shift-by-1."""
    m, q = b.m, b.q
    antipodal = [(b.vertex(i, a), b.vertex(i + m, a))
                 for i in range(m) for a in range(q)]
    same_class = [(b.vertex(i, 2 * t), b.vertex(i, 2 * t + 1))
                  for i in range(2 * m) for t in range((q - 1) // 2)]
    shift_one = [(b.vertex(2 * t, a), b.vertex(2 * t + 1, a))
                 for t in range(m) for a in range(q)]
    return [make_pairing(pairs) for pairs in (antipodal, same_class, shift_one)]


def piled_pairing(b: BlownCycle, classes: Iterable[int],
                  seed: int) -> Pairing:
    """A perfect pairing that piles phase-one walks onto few endpoints.

    Every member y of each class c in `classes` becomes the target of a walk
    of length d in 1..m that ends at index r != y of class c; slot (r, d)
    names the source vertex(c - d, r - d(d+1)/2).  Targets outside a window
    W of m indices, drawn from the seed, take slots with r in W, so up to m
    walks end at each vertex of W; targets in W take any slot.  Slots are
    tried in a seeded order, and a slot whose source is already used is
    skipped.  The vertices left over are paired from the seed.

    No task of the first class c can then use vertex (c+1, z) with
    W = z-m..z-1 (every task has an end in W), so its q tasks share at most
    q-1 candidates (Hall-deficient) whenever m*m >= 3m+3, that is m >= 4.
    """
    m, q = b.m, b.q
    rng = SplitMix64(seed)
    used: set[int] = set()
    pairs = []
    for c in classes:
        z = rng.randrange(q)
        window = {(z - s) % q for s in range(1, m + 1)}
        order = list(range(q * m))
        rng.shuffle(order)
        slots = []  # (r, source) of each slot with an unused source
        for slot in order:
            r, d = slot // m, slot % m + 1
            src = b.vertex(c - d, r - d * (d + 1) // 2)
            if src not in used:
                slots.append((r, src))
        for y in sorted(range(q), key=lambda y: y in window):
            target = b.vertex(c, y)
            k = next((k for k, (r, _) in enumerate(slots)
                      if r != y and (y in window or r in window)), None)
            if k is not None and target not in used:
                src = slots.pop(k)[1]
                used.update((src, target))
                pairs.append((src, target))
    rest = [v for v in range(b.n) if v not in used]
    rng.shuffle(rest)
    return make_pairing(pairs + list(zip(rest[0::2], rest[1::2])))


@st.composite
def piled_pairings(draw):
    """(b, pairing) for m = 4..12 with walks piled onto one or more classes
    (`piled_pairing`)."""
    b = build(draw(st.integers(4, 12)))
    classes = draw(st.lists(st.integers(0, b.num_classes - 1), min_size=1,
                            max_size=b.m, unique=True))
    return b, piled_pairing(b, classes, draw(st.integers(0, 2**32)))


def closing_replay(b: BlownCycle, pairing: Pairing, plan: RoutePlan
                   ) -> dict[int, list[tuple[list[int], list[int], int]]]:
    """Oracle: replay phase two's picks from a plan.

    Per class, in the router's order (target index ascending), returns each
    closing task's (candidates, left, z): `left` holds the candidates whose
    edges to both task ends no earlier task of the class had taken, and z is
    the vertex the plan closes the route through.
    """
    entries = phase_one(b, canonical_labeling(b, pairing)).entries
    tasks: dict[int, list[tuple[int, int, int]]] = {}
    for entry, rt in zip(entries, plan.routes):
        if entry.task is not None:
            target, reached = entry.task
            tasks.setdefault(b.class_of(target), []).append(
                (target, reached, rt.path[-2]))
    out: dict[int, list[tuple[list[int], list[int], int]]] = {}
    for cls, items in tasks.items():
        taken: set[tuple[int, int]] = set()
        rows = out[cls] = []
        for target, reached, z in sorted(items):
            cands = free_common_neighbors(b, reached, target)
            left = [c for c in cands
                    if (reached, c) not in taken and (target, c) not in taken]
            taken.update(((reached, z), (target, z)))
            rows.append((cands, left, z))
    return out


@st.composite
def graphs_with_twins(draw, max_n=8, max_twins=6, even=False):
    """Connected random graph (path spine plus extra edges), then false twins
    added by copying the neighbourhood of existing vertices (twins of twins
    included), with ids shuffled so a twin may precede its original."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    nbrs = [set() for _ in range(n)]
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=2 * n))
    for u, v in [(i, i + 1) for i in range(n - 1)] + list(extra):
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    twins = draw(st.integers(0, max_twins))
    while twins or (even and len(nbrs) % 2):
        twins = max(twins - 1, 0)
        src = draw(st.integers(0, len(nbrs) - 1))
        w = len(nbrs)
        nbrs.append(set(nbrs[src]))
        for x in nbrs[w]:
            nbrs[x].add(w)
    perm = draw(st.permutations(range(len(nbrs))))
    return make_graph(len(nbrs), [(perm[u], perm[v])
                                  for u, ns in enumerate(nbrs) for v in ns])


def twin_blowup(classes: int, seed: int) -> Graph:
    """A connected graph of even order with `classes` false-twin classes,
    when its base is twin-free: the cycle on `classes` vertices plus seeded
    chords, each base vertex blown up into 1 to 3 twins, ids shuffled."""
    rng = np.random.default_rng(seed)
    base = {(i, (i + 1) % classes) for i in range(classes)}
    base |= {(int(u), int(v)) for u, v in rng.integers(classes,
                                                       size=(classes // 4, 2))
             if u != v}
    sizes = rng.integers(1, 4, size=classes)
    sizes[0] += sizes.sum() % 2
    ids = rng.permutation(int(sizes.sum()))
    members = np.split(ids, np.cumsum(sizes)[:-1])
    return make_graph(len(ids), [(a, b) for u, v in base
                                 for a in members[u] for b in members[v]])


def reference_twin_classes(g: Graph) -> tuple[list[int], np.ndarray]:
    """Oracle: false-twin classes from networkx, grouping the vertices by
    the frozenset of their neighbours; class k is the k-th distinct set in
    vertex order, and reps[k] the first vertex with it."""
    h = to_networkx(g)
    groups: dict[frozenset, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(frozenset(h[v]), []).append(v)
    cls = np.empty(g.n, dtype=np.intp)
    for k, members in enumerate(groups.values()):
        cls[members] = k
    return [members[0] for members in groups.values()], cls


# every generate family and small blown cycles, all of even order
ORACLE_GRAPHS = {
    **{family: generate(family, params) for family, params in (
        ("cycle", (8,)), ("complete", (6,)), ("complete-bipartite", (3, 5)),
        ("hypercube", (4,)), ("petersen", ()), ("grid2", (3, 4)),
        ("grid3", (2, 2, 3)))},
    **{f"blown-cycle-{m}": build(m).graph for m in range(2, 6)},
}


def dense_distances(g: Graph) -> np.ndarray:
    """Oracle: all-pairs hop distances by plain BFS from every vertex."""
    adj = [neighbors(g, v) for v in range(g.n)]
    rows = []
    for root in range(g.n):
        row = [-1] * g.n
        row[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if row[w] < 0:
                        row[w] = row[v] + 1
                        nxt.append(w)
            frontier = nxt
        rows.append(row)
    dist = np.array(rows, dtype=np.int64).reshape(g.n, g.n)
    if (dist < 0).any():
        raise GraphError("graph is disconnected")
    return dist


def dense_screen(g: Graph) -> ScreenReport:
    """Oracle: the layered cut checked on every diametral root's own
    distance row, without grouping twins or counting per layer: for each
    t < d it takes S = B_t(root) and recounts e(S, V-S) edge by edge."""
    dist = dense_distances(g)
    ecc = dist.max(axis=1)
    d = int(ecc.max())
    edges = np.array(sorted_edges(g), dtype=np.int64).reshape(-1, 2)
    checked = []
    for root in map(int, np.flatnonzero(ecc == d)):
        checked.append(root)
        found = []
        for t in range(d):
            inside = dist[root] <= t
            cut = int(np.count_nonzero(inside[edges[:, 0]]
                                       != inside[edges[:, 1]]))
            required = min(int(inside.sum()), g.n - int(inside.sum()))
            if cut < required:
                found.append(ScreenViolation(root, t, cut, required))
        if found:
            return ScreenReport(verdict=NOT_PATH_PAIRABLE, diameter=d,
                                roots_checked=tuple(checked),
                                violations=tuple(found))
    return ScreenReport(verdict=CANNOT_RULE_OUT, diameter=d,
                        roots_checked=tuple(checked), violations=())


def splitmix64_outputs(seed: int):
    """Oracle: the splitmix64 stream, one output at a time on Python ints."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def reference_permutation(n: int, seed: int) -> list[int]:
    """Oracle: random_permutation as a Fisher-Yates loop, high index down,
    drawing one output of splitmix64_outputs(seed) per swap."""
    xs, stream = list(range(n)), splitmix64_outputs(seed)
    for i in range(n - 1, 0, -1):
        j = next(stream) % (i + 1)
        xs[i], xs[j] = xs[j], xs[i]
    return xs


def reference_perfect_pairing(n: int, seed: int
                              ) -> tuple[tuple[int, int], ...]:
    """Oracle: random_perfect_pairing's pairs built from tuples: shuffle
    0..n-1, pair adjacent entries, sort the pairs by smaller endpoint."""
    xs = reference_permutation(n, seed)
    return tuple(sorted(((xs[2 * t], xs[2 * t + 1]) for t in range(n // 2)),
                        key=min))


def _reference_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None


def _reference_rows(doc: dict, key: str) -> list:
    value = doc[key]
    if not isinstance(value, list):
        raise FormatError(f'"{key}" must be a list, got {type(value).__name__}')
    return value


def _reference_pair(item) -> tuple[int, int]:
    if (not isinstance(item, (list, tuple)) or len(item) != 2
            or not all(type(v) is int for v in item)):
        raise FormatError(f"expected [u, v] integer pair, got {item!r}")
    return item[0], item[1]


def reference_loads_graph(text: str) -> tuple[Graph, dict]:
    """Oracle: formats.loads_graph of JSON as one json.loads of the whole
    document, then whole-list checks, then a per-row scan that names the
    first bad row."""
    doc = _reference_json(text)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise FormatError('graph JSON needs keys "n" and "edges"')
    n = doc["n"]
    if type(n) is not int:
        raise FormatError(f'"n" must be an integer, got {n!r}')
    rows = _reference_rows(doc, "edges")
    try:
        edges = np.array(rows) if rows else np.empty((0, 2), dtype=np.int64)
    except ValueError:  # ragged rows
        edges = None
    if not (edges is not None and edges.dtype.kind in "iu"
            and edges.shape == (len(rows), 2)
            and bool not in set(map(type, chain.from_iterable(rows)))):
        edges = [_reference_pair(item) for item in rows]
    annotations = {k: v for k, v in doc.items() if k not in ("n", "edges")}
    try:
        return make_graph(n, edges), annotations
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def reference_loads_pairing(text: str) -> Pairing:
    """Oracle: formats.loads_pairing as one json.loads of the whole document
    and one tuple per pair."""
    doc = _reference_json(text)
    if not isinstance(doc, dict) or "pairs" not in doc:
        raise FormatError('pairing JSON needs key "pairs"')
    try:
        return make_pairing(_reference_pair(pair)
                            for pair in _reference_rows(doc, "pairs"))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def reference_loads_plan(text: str) -> tuple[RoutePlan, dict]:
    """Oracle: formats.loads_plan as one json.loads of the whole document,
    whole-list checks, then a per-route scan that names the first bad
    route."""
    doc = _reference_json(text)
    if not isinstance(doc, dict) or "routes" not in doc:
        raise FormatError('plan JSON needs key "routes"')
    items = _reference_rows(doc, "routes")
    try:
        xs = [item["x"] for item in items]
        ys = [item["y"] for item in items]
        paths = [item["path"] for item in items]
        flat = list(chain.from_iterable(paths))
        if not (all(type(path) is list for path in paths)
                and set(map(type, chain(xs, ys, flat))) <= {int}):
            raise TypeError
        arrays = [np.array(values, dtype=np.int64) for values in (xs, ys, flat)]
    except (KeyError, TypeError, OverflowError):
        raise _reference_route_error(items) from None
    lens = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    extras = {k: v for k, v in doc.items() if k not in ("routes", "edges_used")}
    return RoutePlan.from_arrays(*arrays, np.cumsum(lens)), extras


def _reference_route_error(items: list) -> FormatError:
    def is_int64(value) -> bool:
        return type(value) is int and -2**63 <= value < 2**63
    for idx, item in enumerate(items):
        if not isinstance(item, dict) or not {"x", "y", "path"} <= set(item):
            return FormatError(f'route #{idx} needs keys "x", "y", "path"')
        path = item["path"]
        if not isinstance(path, list) or not all(map(is_int64, path)):
            return FormatError(f"route #{idx} path must be a list of ids")
        if not (is_int64(item["x"]) and is_int64(item["y"])):
            return FormatError(f'route #{idx} "x" and "y" must be ids')
    raise AssertionError("every route is well formed")
