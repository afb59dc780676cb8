"""Two-phase edge-disjoint routing on blown cycles.

Phase one transports one terminal of each pair into its partner's class along
reserved shift matchings: step j crosses boundary class(x)+j-1 with shift j,
so any two walks that start in the same class stay vertex-disjoint (their
within-class offsets never collide) and walks from different classes never
compete for a matching edge.

Phase two closes each remaining task, a reached vertex r and its target y in
one class c, through a common neighbour z in class c+1 reached by free
shifts only, so the route ends r, z, y.  The tasks of a class, in order, each
take the smallest such z whose edges (r, z) and (y, z) no earlier task has
taken.  Distinct tasks may share z.  This rule never fails:

* Phase one rides reserved shifts only, so no free edge is claimed before
  phase two, and only class c's own tasks claim free edges between c and c+1.
* At most m walks end at any vertex, one per length d in 1..m, because the
  walk's end and d fix its start.
* A task shares an end with at most 2m other tasks.  Targets are distinct,
  so no other task has target y, and at most m others have reached y.  At
  most m others involve r: the other walks that end at r, plus the one pair
  whose target is r; when r is the source of a same-class pair, no pair has
  target r.
* Each of those tasks took one z, which blocks only that z.  Every task has
  at least 2m+3 candidates, so at least 3 remain at every pick, and the rule
  never backtracks.

So `route` succeeds on every pairing, and every route has length at most
m+2: d <= m transport edges plus two closing edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .blowup import BlownCycle, free_common_neighbors
from .graph import Edge, edge_key
from .rng import random_permutation


class PairingError(ValueError):
    """Malformed pairing input."""


class RoutingError(RuntimeError):
    """The router found no plan for a valid pairing.

    The routing proof (module docstring) says this cannot happen: it is
    raised only for a construction bug, when a closing task finds no free
    candidate or an edge is claimed twice.
    """


@dataclass(frozen=True)
class Pairing:
    """Disjoint vertex pairs, sorted by smaller endpoint; may be partial."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for pair in self.pairs:
            for v in pair:
                if v in seen:
                    raise PairingError(f"duplicate endpoint {v} across pairs")
                seen.add(v)

    def __len__(self) -> int:
        return len(self.pairs)

    def endpoints(self) -> frozenset[int]:
        return frozenset(v for pair in self.pairs for v in pair)


def make_pairing(pairs: Iterable[Sequence[int]]) -> Pairing:
    """Validate and canonicalize: pair order follows the smaller endpoint,
    orientation within each pair is kept."""
    norm = []
    for pair in pairs:
        x, y = pair
        norm.append((int(x), int(y)))
    norm.sort(key=lambda pair: min(pair))
    return Pairing(pairs=tuple(norm))


def random_perfect_pairing(n: int, seed: int) -> Pairing:
    """Uniform perfect pairing: shuffle 0..n-1, pair adjacent entries."""
    if n % 2:
        raise PairingError(f"perfect pairing needs even vertex count, got {n}")
    ids = random_permutation(n, seed)
    return make_pairing((ids[2 * t], ids[2 * t + 1]) for t in range(n // 2))


@dataclass(frozen=True)
class Route:
    x: int
    y: int
    path: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.path) - 1


@dataclass(frozen=True)
class RoutePlan:
    """Per-pair walks plus the consumed edges, each tagged with its owner."""

    routes: tuple[Route, ...]
    used_edges: Mapping[Edge, int]

    @classmethod
    def from_routes(cls, routes: Iterable[Route]) -> RoutePlan:
        """Plan with the owner map rebuilt from the paths; the first route
        to use an edge owns it."""
        routes = tuple(routes)
        used: dict[Edge, int] = {}
        for idx, r in enumerate(routes):
            for u, v in zip(r.path, r.path[1:]):
                used.setdefault(edge_key(u, v), idx)
        return cls(routes=routes, used_edges=used)

    @property
    def edges_used(self) -> int:
        return len(self.used_edges)

    @property
    def max_route_length(self) -> int:
        return max((len(r) for r in self.routes), default=0)


@dataclass(frozen=True)
class PhaseOneEntry:
    x: int
    y: int
    d: int
    walk: tuple[int, ...]
    complete: bool

    @property
    def task(self) -> tuple[int, int] | None:
        """(target, reached) awaiting completion in the target's class."""
        if self.complete:
            return None
        return (self.y, self.walk[-1])


@dataclass(frozen=True)
class PhaseOneResult:
    entries: tuple[PhaseOneEntry, ...]


def canonical_labeling(b: BlownCycle, p: Pairing) -> list[tuple[int, int, int]]:
    """Orient each pair (x, y) so the cyclic class distance d = cls(y) - cls(x)
    (mod 2m) is at most m; at a tie (d = m or d = 0) the input order is kept."""
    n, q, m, two_m = b.n, b.q, b.m, b.num_classes
    out = []
    for x, y in p.pairs:
        for v in (x, y):
            if not (0 <= v < n):
                raise PairingError(f"vertex {v} out of range 0..{n - 1}")
        d = (y // q - x // q) % two_m
        if d <= m:
            out.append((x, y, d))
        else:
            out.append((y, x, two_m - d))
    return out


def phase_one(b: BlownCycle, oriented: Sequence[tuple[int, int, int]]) -> PhaseOneResult:
    """Walk each pair's x across d boundaries: step j uses shift j, landing at
    within-class index a + 1 + 2 + ... + j."""
    q, two_m = b.q, b.num_classes
    entries = []
    for x, y, d in oriented:
        c, a = divmod(x, q)
        walk = [x]
        for j in range(1, d + 1):
            c = (c + 1) % two_m
            a = (a + j) % q
            walk.append(c * q + a)
        complete = d >= 1 and walk[-1] == y
        entries.append(PhaseOneEntry(x=x, y=y, d=d, walk=tuple(walk),
                                     complete=complete))
    return PhaseOneResult(entries=tuple(entries))


def assign_candidates(cand_lists: Sequence[Sequence[int]],
                      ends: Sequence[tuple[int, int]]) -> list[int]:
    """Give each task, in order, the smallest of its candidates z whose
    edges to both of its ends (reached, target) no earlier task has taken.

    Raises ValueError when a task has no such candidate.
    """
    taken: set[tuple[int, int]] = set()
    chosen = []
    for cands, (reached, target) in zip(cand_lists, ends):
        z = next((z for z in cands
                  if (reached, z) not in taken and (target, z) not in taken),
                 None)
        if z is None:
            raise ValueError("no free candidate")
        taken.update(((reached, z), (target, z)))
        chosen.append(z)
    return chosen


def _edge_clash(e: Edge, first: int, second: int) -> RoutingError:
    return RoutingError(f"edge {e} claimed by pairs {first} and {second}: "
                        "construction bug")


def phase_two(b: BlownCycle, result: PhaseOneResult) -> RoutePlan:
    """Complete every residual task (target, reached) through a common free
    neighbor z in the next class: ... reached, z, target.

    Tasks are processed by class ascending, within a class by target index
    ascending; each takes the smallest z whose two closing edges are still
    unclaimed (`assign_candidates`), which the module docstring proves always
    exists.  Every claimed edge is checked against all earlier claims, so a
    clash would raise RoutingError instead of returning a bad plan.
    """
    q = b.q
    used: dict[Edge, int] = {}
    # group residual tasks per class; entry index tags each task
    by_class: dict[int, list[tuple[int, int, int]]] = {}
    for idx, entry in enumerate(result.entries):
        walk = entry.walk
        for u, v in zip(walk, walk[1:]):
            e = (u, v) if u < v else (v, u)
            if e in used:
                raise _edge_clash(e, used[e], idx)
            used[e] = idx
        if not entry.complete:
            cls, a = divmod(entry.y, q)
            by_class.setdefault(cls, []).append((a, idx, walk[-1]))

    closing: dict[int, int] = {}  # entry index -> chosen z
    for cls in sorted(by_class):
        tasks = sorted(by_class[cls])
        ends = [(reached, cls * q + a) for a, _, reached in tasks]
        try:
            chosen = assign_candidates(
                [free_common_neighbors(b, r, y) for r, y in ends], ends)
        except ValueError:
            raise RoutingError(
                f"class {cls} (m={b.m}): a closing task has no free "
                "candidate: construction bug") from None
        for (_, idx, _), (reached, target), z in zip(tasks, ends, chosen):
            closing[idx] = z
            for e in ((reached, z) if reached < z else (z, reached),
                      (z, target) if z < target else (target, z)):
                if e in used:
                    raise _edge_clash(e, used[e], idx)
                used[e] = idx

    routes = []
    for idx, entry in enumerate(result.entries):
        if entry.complete:
            path = entry.walk
        else:
            path = entry.walk + (closing[idx], entry.y)
        routes.append(Route(x=entry.x, y=entry.y, path=path))
    return RoutePlan(routes=tuple(routes), used_edges=used)


def route(b: BlownCycle, p: Pairing) -> RoutePlan:
    """Full two-phase routing: an edge-disjoint plan for any pairing, every
    route of length at most m+2 (proof in the module docstring).
    Deterministic for fixed input."""
    oriented = canonical_labeling(b, p)
    return phase_two(b, phase_one(b, oriented))
