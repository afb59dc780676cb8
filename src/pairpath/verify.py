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

from .graph import Graph
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
    become report entries; nothing raises."""
    violations: list[Violation] = []
    warnings: list[PlanWarning] = []
    n, edges = g.n, g.edges
    endpoint_set = p.endpoints()
    owner: dict[tuple[int, int], int] = {}

    for idx, route in enumerate(plan.routes):
        path = route.path
        if idx >= len(p.pairs):
            violations.append(Violation(
                kind=ENDPOINT_NOT_IN_PAIRING, pair_indexes=(idx,),
                vertex=route.x))
            continue
        ends = {path[0], path[-1]} if path else set()
        if not path or ends != set(p.pairs[idx]) \
                or path[0] != route.x or path[-1] != route.y:
            stray = next((v for v in ends if v not in endpoint_set), None)
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
            if not (0 <= v < n):
                violations.append(Violation(
                    kind=NOT_A_WALK, pair_indexes=(idx,), vertex=v))
            elif v in seen_vertices:
                warnings.append(PlanWarning(
                    kind="vertex-repeated", pair_index=idx, vertex=v))
            seen_vertices.add(v)
        for u, v in zip(path, path[1:]):
            # out-of-range ids and self-loops are never in g.edges
            e = (u, v) if u < v else (v, u)
            if e not in edges:
                violations.append(Violation(
                    kind=NOT_A_WALK, pair_indexes=(idx,), edge=e))
                continue
            if e in owner:
                violations.append(Violation(
                    kind=EDGE_REUSED, pair_indexes=(owner[e], idx), edge=e))
            else:
                owner[e] = idx

    for idx in range(len(plan.routes), len(p.pairs)):
        violations.append(Violation(
            kind=WRONG_ENDPOINTS, pair_indexes=(idx,),
            vertex=p.pairs[idx][0]))

    return VerificationReport(ok=not violations,
                              violations=tuple(violations),
                              warnings=tuple(warnings))
