"""Independent certification of route plans against the raw graph.

Deliberately knows nothing about the router's shift matchings: a plan is
checked only for walk validity, endpoint correctness, and global
edge-disjointness, so construction bugs cannot leak into the check.  Vertex
repetition inside a route is legal (only edges are consumed) and surfaces as a
warning.

The graph is anything with `n` and `has_edges`: a `Graph`, whose sorted keys
are searched, or a blown cycle, as a `blowup.BlownCycle` or as its `graph`,
both of which answer from m alone.  The blown cycle's predicate is the
graph's definition, classes u // q and v // q that differ by 1 or -1 mod 2m,
not the router's reserved and free shift windows; tests pin it against the
keys of the complete joins built by `make_graph`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .blowup import BlownCycle
from .graph import Graph, as_ids, distinct, edge_keys, first_claims
from .routing import Pairing, RoutePlan, step_mask

NOT_A_WALK = "not-a-walk"
WRONG_ENDPOINTS = "wrong-endpoints"
EDGE_REUSED = "edge-reused"
ENDPOINT_NOT_IN_PAIRING = "endpoint-not-in-pairing"


@dataclass(frozen=True)
class Violation:
    kind: str
    pair_indexes: tuple[int, ...]
    edge: tuple[int, int] | None = None
    vertex: int | None = None


@dataclass(frozen=True)
class PlanWarning:
    kind: str
    pair_index: int
    vertex: int


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...]
    warnings: tuple[PlanWarning, ...]

    def to_json(self) -> str:
        doc = {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "pairs": list(v.pair_indexes),
                 "edge": list(v.edge) if v.edge else None,
                 "vertex": v.vertex}
                for v in self.violations
            ],
            "warnings": [
                {"kind": w.kind, "pair": w.pair_index, "vertex": w.vertex}
                for w in self.warnings
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def verify_plan(g: Graph | BlownCycle, p: Pairing,
                plan: RoutePlan) -> VerificationReport:
    """Check a plan: route i must walk g's edges between exactly the two
    endpoints of pair i, and no edge may be used twice anywhere.  All problems
    become report entries; nothing raises.  Only `g.n` and `g.has_edges`
    are read.

    A route's ends are right when both are ids, equal its x and y, and form
    its pair.  Otherwise its endpoint entry is endpoint-not-in-pairing
    naming the first of path[0], path[-1] that is no pair's endpoint (an
    end that is no id never is), else wrong-endpoints naming path[0], or
    None for an empty path.

    Entries come per route, in route order: the endpoint problem, then the
    route's bad vertex ids in path order, then its bad steps in path order;
    routes for missing pairs come last.  A step reuses an edge when an
    earlier step, in route order, took it; that step's route owns the edge.
    The checks read only the plan's arrays (see RoutePlan), all routes' ids
    at once, and entries are built only for what they flag, each naming
    the value the plan holds, such as -5, which no graph has as a vertex.
    A flagged position's route is looked up from the ends, so no array of
    route numbers is built, and each array the size of the paths is
    deleted once read: a clean plan's check holds at most about six such
    int64 arrays at once, including the graph's lookup of the step keys.
    """
    n = g.n
    # a route with no pair is not walked
    walked = min(len(plan.ends), len(p))
    ends = plan.ends[:walked]
    lens = np.diff(ends, prepend=0)
    # the ids, -1 for one outside 0..n-1, and one -1 more, which keeps an
    # empty path's (masked) end reads and the step pairs (flat, padded[1:])
    # in bounds
    padded = as_ids(np.append(plan.paths[:lens.sum()], -1), n)
    flat = padded[:-1]
    entries: list[tuple[int, int, int, Violation]] = []

    # endpoints: judged from the ids alone; every bad id reads -1, so only
    # in-range ends can match
    first, last = padded[ends - lens], padded[ends - 1]
    pair_ids = as_ids(p.ids.ravel(), n)
    a, b = pair_ids[:2 * walked].reshape(-1, 2).T
    ends_ok = (lens > 0) & (first >= 0) & (last >= 0) \
        & (first == as_ids(plan.x[:walked], n)) \
        & (last == as_ids(plan.y[:walked], n)) \
        & (((first == a) & (last == b)) | ((first == b) & (last == a)))
    flagged = np.flatnonzero(~ends_ok)
    if flagged.size:  # a valid plan skips the lookup
        # a stray end is one whose id (-1 for none) no pair mentions
        stray = ~np.isin(np.stack([first[flagged], last[flagged]]),
                         pair_ids[pair_ids >= 0]) & (lens[flagged] > 0)
        for idx, at_first, at_last in zip(flagged.tolist(), *stray.tolist()):
            # the entry names the stray end, else path[0]; an empty path
            # has neither, and no stray end
            at = ends[idx] - 1 if at_last and not at_first \
                else ends[idx] - lens[idx]
            entries.append((idx, 0, 0, Violation(
                kind=ENDPOINT_NOT_IN_PAIRING if at_first or at_last
                else WRONG_ENDPOINTS, pair_indexes=(idx,),
                vertex=int(plan.paths[at]) if lens[idx] else None)))
    for idx in range(walked, len(plan.ends)):
        entries.append((idx, 0, 0, Violation(
            kind=ENDPOINT_NOT_IN_PAIRING, pair_indexes=(idx,),
            vertex=int(plan.x[idx]))))

    # vertex ids: out of range, or repeated within a route (a warning),
    # found as equal keys route*n + id (below routes*n, which fits in int64
    # for up to graph.MAX_VERTICES routes) in one sort in place
    bad_ids = np.flatnonzero(flat < 0)
    for pos, idx in zip(bad_ids.tolist(), _route_of(ends, bad_ids)):
        entries.append((idx, 1, pos, Violation(
            kind=NOT_A_WALK, pair_indexes=(idx,),
            vertex=int(plan.paths[pos]))))
    warnings: list[PlanWarning] = []
    vertex_keys = _vertex_keys(flat, lens, n)
    vertex_keys.sort()
    repeated = (vertex_keys[1:] == vertex_keys[:-1]).any()
    del vertex_keys
    if repeated:  # the keys again, in path order, for the first claims
        by_vertex, firsts = first_claims(_vertex_keys(flat, lens, n))
        repeats = np.sort(by_vertex[~firsts])
        repeats = repeats[flat[repeats] >= 0]
        warnings = [PlanWarning(kind="vertex-repeated", pair_index=idx,
                                vertex=int(plan.paths[pos]))
                    for pos, idx in zip(repeats.tolist(),
                                        _route_of(ends, repeats))]

    # steps: every path position but its route's last steps to the next
    # one; a plan whose step keys are distinct edges of g has no bad step
    is_step = step_mask(ends, len(flat))
    keys = edge_keys(flat, padded[1:], n)[is_step]
    del padded, flat
    bad_pos, owners = np.empty(0, dtype=np.int64), []
    unique = distinct(keys)
    if len(unique) < len(keys) or not g.has_edges(unique).all():
        # one sort of the step keys, in which the first claim of a key, its
        # earliest step, owns the edge, and one lookup of the sorted keys
        # in g (see Graph.has_edges)
        by_key, first_claim = first_claims(keys)
        sorted_keys = keys[by_key]
        member = g.has_edges(sorted_keys)
        reused = member & ~first_claim
        # the owners, one per key and ascending by key, looked up for reuses
        owner = by_key[first_claim][np.searchsorted(
            sorted_keys[first_claim], sorted_keys[reused])]
        step_pos = np.flatnonzero(is_step)  # where step s starts
        bad_pos = step_pos[np.concatenate([by_key[~member], by_key[reused]])]
        owners = [None] * int((~member).sum()) \
            + _route_of(ends, step_pos[owner])
    for pos, idx, own in zip(bad_pos.tolist(), _route_of(ends, bad_pos),
                             owners):
        e = tuple(sorted(plan.paths[pos:pos + 2].tolist()))
        entries.append((idx, 2, pos, Violation(
            kind=NOT_A_WALK, pair_indexes=(idx,), edge=e) if own is None
            else Violation(kind=EDGE_REUSED, pair_indexes=(own, idx),
                           edge=e)))

    entries.sort(key=lambda entry: entry[:3])
    violations = [entry[3] for entry in entries]
    for idx, x in enumerate(p.ids[len(plan.ends):, 0].tolist(),
                            len(plan.ends)):
        violations.append(Violation(
            kind=WRONG_ENDPOINTS, pair_indexes=(idx,), vertex=x))

    return VerificationReport(ok=not violations,
                              violations=tuple(violations),
                              warnings=tuple(warnings))


def _vertex_keys(flat: np.ndarray, lens: np.ndarray, n: int) -> np.ndarray:
    """The key route*n + id of each path position, or -1 for a bad id."""
    keys = np.repeat(np.arange(len(lens)) * n, lens)
    keys += flat
    keys[flat < 0] = -1
    return keys


def _route_of(ends: np.ndarray, positions: np.ndarray) -> list[int]:
    """The route of each path position: the first whose end lies beyond it.
    An empty path ends where the route before it does, so it is skipped."""
    return np.searchsorted(ends, positions, side="right").tolist()
