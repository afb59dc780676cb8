"""Independent certification of route plans against the raw graph.

Deliberately knows nothing about class structure or shift matchings: a plan is
checked only for walk validity, endpoint correctness, and global
edge-disjointness, so construction bugs cannot leak into the check.  Vertex
repetition inside a route is legal (only edges are consumed) and surfaces as a
warning.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import Graph, as_ids, distinct, edge_keys, first_claims
from .routing import Pairing, RoutePlan

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


def verify_plan(g: Graph, p: Pairing, plan: RoutePlan) -> VerificationReport:
    """Check a plan: route i must walk g's edges between exactly the two
    endpoints of pair i, and no edge may be used twice anywhere.  All problems
    become report entries; nothing raises.

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
    """
    n = g.n
    # a route with no pair is not walked
    walked = min(len(plan.ends), len(p))
    ends = plan.ends[:walked]
    lens = np.diff(ends, prepend=0)
    flat = as_ids(plan.paths[:lens.sum()], n)  # -1 for an id outside 0..n-1
    rid = np.repeat(np.arange(walked), lens)
    in_range = flat >= 0
    entries: list[tuple[int, int, int, Violation]] = []

    # endpoints: judged from the ids alone; every bad id reads -1, so only
    # in-range ends can match, and the -1 appended keeps an empty path's
    # (masked) reads in bounds
    padded = np.append(flat, -1)
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
    # found as runs of equal keys route*n + id (below routes*n, which fits
    # in int64 for up to graph.MAX_VERTICES routes)
    for pos in np.flatnonzero(~in_range).tolist():
        entries.append((int(rid[pos]), 1, pos, Violation(
            kind=NOT_A_WALK, pair_indexes=(int(rid[pos]),),
            vertex=int(plan.paths[pos]))))
    warnings: list[PlanWarning] = []
    vertex_keys = np.where(in_range, rid * n + flat, -1)
    if len(distinct(vertex_keys)) < len(vertex_keys):
        by_vertex, firsts = first_claims(vertex_keys)
        warnings = [PlanWarning(kind="vertex-repeated",
                                pair_index=int(rid[pos]),
                                vertex=int(plan.paths[pos]))
                    for pos in np.sort(by_vertex[~firsts]).tolist()
                    if in_range[pos]]

    # steps: step s walks flat[step_pos[s]] -> flat[step_pos[s] + 1]; a
    # plan whose step keys are distinct edges of g has no bad step
    step_pos = np.delete(np.arange(len(flat)), ends[lens > 0] - 1)
    keys = edge_keys(flat[step_pos], flat[step_pos + 1], n)
    step_route = rid[step_pos]
    bad_steps: list[tuple[int, int | None]] = []
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
        bad_steps = [(s, None) for s in by_key[~member].tolist()]
        bad_steps += zip(by_key[reused].tolist(), step_route[owner].tolist())
    for s, own in bad_steps:
        pos, idx = int(step_pos[s]), int(step_route[s])
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

