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

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

from .blowup import BlownCycle, free_common_neighbors
from .graph import MAX_VERTICES, as_ids, distinct, edge_keys, first_claims
from .rng import random_permutation


class PairingError(ValueError):
    """Malformed pairing input."""


class RoutingError(RuntimeError):
    """The router found no plan for a valid pairing.

    The routing proof (module docstring) says this cannot happen: it is
    raised only for a construction bug, when a closing task finds no free
    candidate or an edge is claimed twice.
    """


class Pairing:
    """Disjoint vertex pairs, in the order given; may be partial.
    `make_pairing` sorts them by smaller endpoint.

    `ids` holds the pairs as one read-only (k, 2) int64 array, row i the
    pair (x, y).  The constructor takes an iterable of pairs or an integer
    array.  Each value must be an integer (what operator.index accepts,
    NumPy's too) within int64; anything else raises PairingError naming
    it, as does a row that is no pair or an endpoint that repeats.  The
    repr shows the pairs as a tuple of (x, y) tuples.
    """

    def __init__(self, pairs: Iterable[Sequence[int]] | np.ndarray = ()
                 ) -> None:
        ids = _pair_rows(pairs)
        flat = ids.ravel()
        if len(distinct(flat)) < len(flat):  # name the first repeat
            order, first = first_claims(flat)
            v = flat[order[~first].min()]
            raise PairingError(f"duplicate endpoint {v} across pairs")
        self.ids = _frozen(ids)

    def __len__(self) -> int:
        return len(self.ids)

    def endpoints(self) -> frozenset[int]:
        return frozenset(self.ids.ravel().tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pairing):
            return NotImplemented
        return np.array_equal(self.ids, other.ids)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Pairing({tuple(map(tuple, self.ids.tolist()))!r})"


def _pair_rows(pairs: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Pairs as a new (k, 2) int64 array, else PairingError naming the first
    row that is no pair or the first value, in pair order, that is no
    integer within int64."""
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu":
        if pairs.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise PairingError(
                f"pairs must be (x, y) rows, got shape {pairs.shape}")
        ids = pairs.astype(np.int64)
        if pairs.dtype.kind == "u" and (ids < 0).any():  # wrapped past int64
            raise PairingError(f"vertex {pairs[ids < 0][0]} lies beyond int64")
        return ids
    rows = list(pairs)
    try:
        if set(map(len, rows)) - {2}:
            raise TypeError
        flat = list(chain.from_iterable(rows))
    except TypeError:  # a row that is no pair, or has no length
        flat = list(chain.from_iterable(map(_as_pair, range(len(rows)), rows)))
    try:
        # a sum of Python ints is a Python int; a float, a string or a
        # NumPy value makes it something else or raises, and goes one by one
        if type(sum(flat)) is not int:
            raise TypeError
        ids = np.fromiter(flat, dtype=np.int64, count=len(flat))
    except (TypeError, OverflowError):  # not all ints, or beyond int64
        ids = np.array([_int64_id(v) for v in flat], dtype=np.int64)
    return ids.reshape(-1, 2)


def _as_pair(idx: int, row: object) -> tuple[object, object]:
    try:
        x, y = row
    except (TypeError, ValueError):
        raise PairingError(f"pair #{idx} {row!r} is not an (x, y) pair"
                           ) from None
    return x, y


def _int64_id(v: object) -> int:
    """A value as an int within int64, else PairingError naming it."""
    v = _vertex_id(v)
    if not -2**63 <= v < 2**63:
        raise PairingError(f"vertex {v} lies beyond int64")
    return v


def make_pairing(pairs: Iterable[Sequence[int]] | np.ndarray) -> Pairing:
    """Canonicalize: pair order follows the smaller endpoint (a stable
    sort), orientation within each pair is kept.  Values are checked in the
    order given, repeated endpoints in the sorted order."""
    ids = _pair_rows(pairs)
    return Pairing(ids[np.argsort(np.minimum(ids[:, 0], ids[:, 1]),
                                  kind="stable")])


def _vertex_id(v: object) -> int:
    try:
        return operator.index(v)
    except TypeError:
        raise PairingError(f"vertex {v!r} is not an integer id") from None


def random_perfect_pairing(n: int, seed: int) -> Pairing:
    """Uniform perfect pairing: shuffle 0..n-1, pair adjacent entries."""
    if n < 0 or n % 2:
        raise PairingError(
            f"perfect pairing needs a nonnegative even vertex count, got {n}")
    ids = np.fromiter(random_permutation(n, seed), dtype=np.int64, count=n)
    return make_pairing(ids.reshape(-1, 2))


@dataclass(frozen=True)
class Route:
    x: int
    y: int
    path: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.path) - 1


def step_mask(ends: np.ndarray, size: int) -> np.ndarray:
    """Whether each of `size` path positions starts a step, for paths laid
    back to back that end at `ends`: every position but a path's last."""
    mask = np.ones(size, dtype=bool)
    mask[ends[ends > 0] - 1] = False
    return mask


class RoutePlan:
    """One route per pair, held as read-only int64 arrays.

    Route i goes from x[i] to y[i] along paths[ends[i] - k:ends[i]], where
    k is its path's length in vertices: the paths lie back to back, as
    `PhaseOneResult.walks` holds the walks.  The router and
    `formats.loads_plan` build plans from arrays (`from_arrays`); the
    constructor converts Route objects once, and `routes` builds them back
    from the arrays on first read.

    The arrays hold every integer within int64, not only vertex ids, so a
    report can name a value such as -5 that is no vertex.  A route value
    that is no integer (a float or a string) or lies beyond int64 raises
    PairingError naming the route and the value.

    `used_edges` maps each edge (u, v), u < v, that the routes use to the
    first route that uses it.  It is a dict built when read, from `routes`,
    and nothing in this package reads it.
    """

    def __init__(self, routes: Iterable[Route] = (),
                 used_edges: Mapping[tuple[int, int], int] | None = None
                 ) -> None:
        routes = tuple(routes)
        x, y, paths = [], [], []
        for idx, r in enumerate(routes):
            x.append(_route_id(idx, r.x))
            y.append(_route_id(idx, r.y))
            paths.extend(_route_id(idx, v) for v in r.path)
        self._hold(x, y, paths, np.cumsum([len(r.path) for r in routes]))
        # used_edges is a cached property: a value stored here takes its place
        if used_edges is not None:
            self.used_edges = used_edges

    @classmethod
    def from_arrays(cls, x: np.ndarray, y: np.ndarray, paths: np.ndarray,
                    ends: np.ndarray) -> RoutePlan:
        """Plan over int64 arrays laid out as the class docstring says; the
        values need not be vertex ids.  Marks the arrays read-only."""
        plan = cls.__new__(cls)
        plan._hold(x, y, paths, ends)
        return plan

    def _hold(self, *arrays: Sequence[int]) -> None:
        self.x, self.y, self.paths, self.ends = (
            _frozen(np.asarray(values, dtype=np.int64)) for values in arrays)

    @cached_property
    def routes(self) -> tuple[Route, ...]:
        """The routes as Route objects, built from the arrays."""
        flat = self.paths.tolist()
        ends = self.ends.tolist()
        return tuple(Route(x, y, tuple(flat[lo:hi])) for x, y, lo, hi in zip(
            self.x.tolist(), self.y.tolist(), [0] + ends, ends))

    @cached_property
    def used_edges(self) -> dict[tuple[int, int], int]:
        used: dict[tuple[int, int], int] = {}
        for idx, r in enumerate(self.routes):
            for u, v in zip(r.path, r.path[1:]):
                used.setdefault((u, v) if u < v else (v, u), idx)
        return used

    @cached_property
    def edges_used(self) -> int:
        """The number of distinct edges {u, v} the routes step along, read
        from the arrays; a step whose ends are equal, or not both ids of a
        graph (below graph.MAX_VERTICES), is no edge.  The key of every
        position to the next is built once; one mask keeps the steps that
        are edges, and their keys, sorted in place, are counted by runs."""
        ids = as_ids(self.paths, MAX_VERTICES)
        keys = edge_keys(ids[:-1], ids[1:], MAX_VERTICES)
        del ids
        keep = step_mask(self.ends, len(self.paths))[:-1]
        keep &= keys >= 0
        keys = keys[keep]
        keys.sort()
        runs = np.count_nonzero(keys[1:] != keys[:-1]) + 1
        return int(runs) if len(keys) else 0

    @property
    def max_route_length(self) -> int:
        lens = np.diff(self.ends, prepend=0)
        return int(lens.max()) - 1 if lens.size else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutePlan):
            return NotImplemented
        # equal ends give each path the same length in both plans
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("x", "y", "paths", "ends"))

    __hash__ = None  # type: ignore[assignment]


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _route_id(idx: int, v: object) -> int:
    """A route value as an int within int64, else PairingError naming the
    route and the value."""
    try:
        return _int64_id(v)
    except PairingError as exc:
        raise PairingError(f"route #{idx}: {exc}") from None


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


@dataclass(frozen=True, eq=False)
class PhaseOneResult:
    """Phase one's walks as arrays, one row per oriented pair (x, y, d).

    `walks` holds every walk's vertices back to back: pair i's walk is
    walks[ends[i] - d[i] - 1:ends[i]], which starts at x[i] and ends at the
    vertex it reached.  `complete[i]` is true when that vertex is y[i].
    """

    x: np.ndarray
    y: np.ndarray
    d: np.ndarray
    walks: np.ndarray
    ends: np.ndarray
    complete: np.ndarray

    @cached_property
    def entries(self) -> tuple[PhaseOneEntry, ...]:
        """The same walks, one PhaseOneEntry per pair."""
        walks = self.walks.tolist()
        return tuple(
            PhaseOneEntry(x=x, y=y, d=d, walk=tuple(walks[end - d - 1:end]),
                          complete=complete)
            for x, y, d, end, complete in zip(
                self.x.tolist(), self.y.tolist(), self.d.tolist(),
                self.ends.tolist(), self.complete.tolist()))


def canonical_labeling(b: BlownCycle, p: Pairing) -> np.ndarray:
    """Orient each pair (x, y) so the cyclic class distance d = cls(y) - cls(x)
    (mod 2m) is at most m; at a tie (d = m or d = 0) the input order is kept.

    Returns one int64 row (x, y, d) per pair, in pairing order.  Raises
    PairingError naming the first vertex, in pairing order, outside 0..n-1.
    """
    n, q, m, two_m = b.n, b.q, b.m, b.num_classes
    ids = as_ids(p.ids.ravel(), n)
    if (ids < 0).any():
        bad = p.ids.ravel()[np.argmax(ids < 0)]
        raise PairingError(f"vertex {bad} out of range 0..{n - 1}")
    ids = ids.reshape(-1, 2)
    d = (ids[:, 1] // q - ids[:, 0] // q) % two_m
    swap = d > m
    return np.column_stack([np.where(swap[:, None], ids[:, ::-1], ids),
                            np.where(swap, two_m - d, d)])


def phase_one(b: BlownCycle, oriented: np.ndarray) -> PhaseOneResult:
    """Walk each pair's x across d boundaries: step j uses shift j, so the
    walk's j-th vertex lies in class c + j at within-class index
    a + 1 + 2 + ... + j = a + j(j+1)/2 (mod q), for x = (c, a).  All walks
    are computed at once from that closed form.  `oriented` holds the rows
    (x, y, d) that `canonical_labeling` returns.

    Three arrays the size of the walks are alive at once: the step index
    j, the walks, built in place from the repeated x as class ids and then
    as vertices, and the within-class part a."""
    q, two_m = b.q, b.num_classes
    x, y, d = oriented.T
    lens = d + 1
    ends = np.cumsum(lens)
    j = np.repeat(ends - lens, lens)  # each position's walk start
    np.subtract(np.arange(len(j)), j, out=j)
    walks = np.repeat(x, lens)
    a = walks % q
    walks //= q
    walks += j
    walks %= two_m
    walks *= q
    # a + j(j+1)/2 as (2a + j + j*j) / 2, with no temporary: j + j*j is even
    a <<= 1
    a += j
    j *= j
    a += j
    del j
    a >>= 1
    a %= q
    walks += a
    del a
    complete = (d >= 1) & (walks[ends - 1] == y)
    return PhaseOneResult(x=x, y=y, d=d, walks=walks, ends=ends,
                          complete=complete)


def assign_candidates(cand_lists: Sequence[Sequence[int]],
                      ends: Sequence[tuple[int, int]]) -> list[int]:
    """Give each task, in order, the smallest of its candidates z whose
    edges to both of its ends (reached, target) no earlier task has taken.

    Raises ValueError when a task has no such candidate.
    """
    taken: set[tuple[int, int]] = set()
    chosen = []
    for cands, (reached, target) in zip(cand_lists, ends):
        for z in cands:
            at_reached = (reached, z)
            if at_reached not in taken:
                at_target = (target, z)
                if at_target not in taken:
                    break
        else:
            raise ValueError("no free candidate")
        taken.add(at_reached)
        taken.add(at_target)
        chosen.append(z)
    return chosen


def phase_two(b: BlownCycle, result: PhaseOneResult) -> RoutePlan:
    """Complete every residual task (target, reached) through a common free
    neighbor z in the next class: ... reached, z, target.

    Tasks are processed by class ascending, within a class by target index
    ascending; each takes the smallest z whose two closing edges are still
    unclaimed (`assign_candidates`), which the module docstring proves always
    exists.  All claimed edges, the walks' steps in pair order and then the
    closing edges in task order, are checked with one in-place sort of
    their keys: the keys of consecutive walk positions, kept where the
    first position steps, then the closing keys.  Only when a key repeats
    are the claims' ends built, and RoutingError names the first claim
    that repeats an earlier one (`_raise_clash`) instead of returning a bad
    plan.  The routes are laid out by one mask of the
    positions that are no closing vertex, which the walks fill in order.
    """
    q, n = b.q, b.n
    y, d, walks, ends = result.y, result.d, result.walks, result.ends
    # targets are distinct, so sorting tasks by target, with no ties to
    # keep stable, orders them by class, then by target index
    tasks = np.flatnonzero(~result.complete)
    tasks = tasks[np.argsort(y[tasks])]
    targets, reached = y[tasks], walks[ends[tasks] - 1]
    classes = targets // q
    z = np.empty(len(tasks), dtype=np.int64)  # the closing vertex per task
    starts = np.flatnonzero(np.diff(classes, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(tasks)]):
        group = list(zip(reached[lo:hi].tolist(), targets[lo:hi].tolist()))
        try:
            z[lo:hi] = assign_candidates(
                [free_common_neighbors(b, r, t) for r, t in group], group)
        except ValueError:
            raise RoutingError(
                f"class {classes[lo]} (m={b.m}): a closing task has no free "
                "candidate: construction bug") from None

    # every position of a walk but its last steps to the next
    is_step = step_mask(ends, len(walks))[:-1]
    keys = np.concatenate([
        edge_keys(walks[:-1], walks[1:], n)[is_step],
        edge_keys(reached, z, n), edge_keys(z, targets, n)])
    keys.sort()
    if (keys[1:] == keys[:-1]).any():  # an edge claimed twice
        # claims: each walk's steps in pair order, then per task
        # (reached, z) and (z, target)
        _raise_clash(
            np.concatenate([walks[:-1][is_step],
                            np.stack([reached, z], 1).ravel()]),
            np.concatenate([walks[1:][is_step],
                            np.stack([z, targets], 1).ravel()]),
            np.concatenate([np.repeat(np.arange(len(d)), d),
                            np.repeat(tasks, 2)]), n)
    del is_step, keys

    # each route is its walk, followed by z and the target when closed
    lens = d + 1
    lens[tasks] += 2
    route_ends = np.cumsum(lens)
    at = route_ends[tasks] - 1  # each closed route's target position
    paths = np.empty(len(walks) + 2 * len(tasks), dtype=np.int64)
    of_walk = np.ones(len(paths), dtype=bool)
    of_walk[at] = of_walk[at - 1] = False
    paths[of_walk] = walks
    paths[at - 1] = z
    paths[at] = targets
    return RoutePlan.from_arrays(result.x, y, paths, route_ends)


def _raise_clash(us: np.ndarray, vs: np.ndarray, owner: np.ndarray,
                 n: int) -> NoReturn:
    """Raise the clash of the first claim of edge {us[i], vs[i]} that an
    earlier claim already made, naming both claims' owners: owner[i] is
    the pair of claim i.  Some edge must be claimed twice."""
    keys = edge_keys(us, vs, n)
    order, first = first_claims(keys)
    second = int(order[~first].min())
    claim = int(np.argmax(keys == keys[second]))
    raise RoutingError(
        f"edge {divmod(int(keys[second]), n)} claimed by "
        f"pairs {owner[claim]} and {owner[second]}: construction bug")


def route(b: BlownCycle, p: Pairing) -> RoutePlan:
    """Full two-phase routing: an edge-disjoint plan for any pairing, every
    route of length at most m+2 (proof in the module docstring).
    Deterministic for fixed input."""
    oriented = canonical_labeling(b, p)
    return phase_two(b, phase_one(b, oriented))
