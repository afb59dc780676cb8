"""Two-phase edge-disjoint routing on blown cycles.

Phase one transports one terminal of each pair into its partner's class along
reserved shift matchings: step j crosses boundary class(x)+j-1 with shift j,
so any two walks that start in the same class stay vertex-disjoint (their
within-class offsets never collide) and walks from different classes never
compete for a matching edge.

Phase two joins the two same-class vertices that remain for each pair through
a common neighbor in the next class reached by free shifts only.  Every such
task has at least 2m+3 candidates and each candidate serves at most one task
per boundary.
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
    """Internal routing failure; signals a construction bug, not a user error."""


@dataclass(frozen=True)
class Pairing:
    """Disjoint vertex pairs, sorted by smaller endpoint; may be partial."""

    pairs: tuple[tuple[int, int], ...]

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
    seen: set[int] = set()
    for x, y in norm:
        for v in (x, y):
            if v in seen:
                raise PairingError(f"duplicate endpoint {v} across pairs")
            seen.add(v)
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
    seen: set[int] = set()
    for x, y in p.pairs:
        for v in (x, y):
            if not (0 <= v < b.n):
                raise PairingError(f"vertex {v} out of range 0..{b.n - 1}")
            if v in seen:
                raise PairingError(f"duplicate endpoint {v} across pairs")
            seen.add(v)
    out = []
    for x, y in p.pairs:
        d = (b.class_of(y) - b.class_of(x)) % b.num_classes
        if d <= b.m:
            out.append((x, y, d))
        else:
            out.append((y, x, b.num_classes - d))
    return out


def phase_one(b: BlownCycle, oriented: Sequence[tuple[int, int, int]]) -> PhaseOneResult:
    """Walk each pair's x across d boundaries: step j uses shift j, landing at
    within-class index a + 1 + 2 + ... + j."""
    entries = []
    for x, y, d in oriented:
        walk = [x]
        cur = x
        for j in range(1, d + 1):
            cur = b.vertex(b.class_of(cur) + 1, b.index_of(cur) + j)
            walk.append(cur)
        complete = d >= 1 and cur == y
        entries.append(PhaseOneEntry(x=x, y=y, d=d, walk=tuple(walk),
                                     complete=complete))
    return PhaseOneResult(entries=tuple(entries))


def assign_candidates(cand_lists: Sequence[Sequence[int]]) -> list[int]:
    """Assign each task a distinct candidate, greedily taking the smallest
    still-unclaimed one; when a task finds all its candidates claimed,
    reassign earlier tasks along an augmenting path.  Deterministic.

    Raises ValueError when no conflict-free assignment exists at all.
    """
    owner: dict[int, int] = {}

    def augment(task: int, visited: set[int]) -> bool:
        for c in cand_lists[task]:
            if c in visited:
                continue
            visited.add(c)
            if c not in owner or augment(owner[c], visited):
                owner[c] = task
                return True
        return False

    for i, cands in enumerate(cand_lists):
        free = next((c for c in cands if c not in owner), None)
        if free is not None:
            owner[free] = i
        elif not augment(i, set()):
            raise ValueError("no free candidate")
    assigned = [-1] * len(cand_lists)
    for c, i in owner.items():
        assigned[i] = c
    return assigned


def phase_two(b: BlownCycle, result: PhaseOneResult) -> RoutePlan:
    """Complete every residual task (target, reached) through a common free
    neighbor z in the next class: ... reached, z, target.

    Tasks are processed by class ascending, within a class by target index
    ascending; each takes the smallest available z, with earlier choices
    reassigned if a later task would otherwise starve.  Candidates are never
    shared between tasks at one boundary, and the closing edges use free
    shifts only, so the plan stays edge-disjoint.
    """
    used: dict[Edge, int] = {}

    def claim(u: int, v: int, idx: int) -> None:
        e = edge_key(u, v)
        if e in used:
            raise RoutingError(
                f"edge {e} claimed by pairs {used[e]} and {idx}: "
                "construction bug")
        used[e] = idx

    for idx, entry in enumerate(result.entries):
        for u, v in zip(entry.walk, entry.walk[1:]):
            claim(u, v, idx)

    # group residual tasks per class; entry index tags each task
    by_class: dict[int, list[tuple[int, int, int]]] = {}
    for idx, entry in enumerate(result.entries):
        if entry.task is None:
            continue
        target, reached = entry.task
        by_class.setdefault(b.class_of(target), []).append(
            (b.index_of(target), idx, reached))

    closing: dict[int, int] = {}  # entry index -> chosen z
    for cls in sorted(by_class):
        tasks = sorted(by_class[cls])
        cands = [free_common_neighbors(b, reached, b.vertex(cls, a))
                 for a, _, reached in tasks]
        try:
            chosen = assign_candidates(cands)
        except ValueError:
            raise RoutingError(
                f"no free candidate at class {cls} (m={b.m}): "
                "construction bug") from None
        for (a, idx, reached), z in zip(tasks, chosen):
            closing[idx] = z
            claim(reached, z, idx)
            claim(z, b.vertex(cls, a), idx)

    routes = []
    for idx, entry in enumerate(result.entries):
        if entry.task is None:
            path = entry.walk
        else:
            path = entry.walk + (closing[idx], entry.y)
        routes.append(Route(x=entry.x, y=entry.y, path=path))
    return RoutePlan(routes=tuple(routes), used_edges=used)


def route(b: BlownCycle, p: Pairing) -> RoutePlan:
    """Full two-phase routing; every route has length at most m+2 and the
    returned plan is edge-disjoint.  Deterministic for fixed input."""
    oriented = canonical_labeling(b, p)
    return phase_two(b, phase_one(b, oriented))
