"""Wire formats: graph JSON / DOT / edge-list, pairing JSON, route-plan JSON.

All three graph formats are import/export symmetric and byte-stable: edges are
written sorted with u < v, so identical graphs serialize identically.  JSON
files hold one edge, pair or route per line (see `_dumps_rows`).
"""
from __future__ import annotations

import json
import re
from itertools import chain
from typing import Any

import numpy as np

from .graph import Graph, GraphError, make_graph
from .routing import Pairing, RoutePlan, make_pairing


class FormatError(ValueError):
    """Unparseable or schema-violating input text."""


GRAPH_FORMATS = ("json", "dot", "edgelist")


def _json_loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None


def _dumps_rows(doc: dict[str, Any], rows_key: str) -> str:
    """`doc` in the json.dumps(indent=2) layout, except that doc[rows_key]
    is a list of rows already written as compact JSON text, such as
    "[0, 7]", and goes out one row per line."""
    fields = []
    for key, value in doc.items():
        if key == rows_key and value:
            text = "[\n    " + ",\n    ".join(value) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _as_list(doc: dict[str, Any], key: str) -> list[Any]:
    value = doc[key]
    if not isinstance(value, list):
        raise FormatError(f'"{key}" must be a list, got {type(value).__name__}')
    return value


def is_json_int(value: Any) -> bool:
    """True for a JSON integer; true and false are not ids or counts."""
    return type(value) is int


def _as_edge(item: Any) -> tuple[int, int]:
    if (not isinstance(item, (list, tuple)) or len(item) != 2
            or not all(map(is_json_int, item))):
        raise FormatError(f"expected [u, v] integer pair, got {item!r}")
    return item[0], item[1]


def _as_edges(rows: list[Any]) -> np.ndarray | list[tuple[int, int]]:
    """JSON edge rows as one (E, 2) integer array.  The per-row scan runs only
    when that check fails, to name the first bad row; rows that all pass it
    hold an id beyond int64, which make_graph rejects as out of range."""
    try:
        edges = np.array(rows) if rows else np.empty((0, 2), dtype=np.int64)
    except ValueError:  # ragged rows
        edges = None
    if (edges is not None and edges.dtype.kind in "iu"
            and edges.shape == (len(rows), 2)
            and bool not in set(map(type, chain.from_iterable(rows)))):
        return edges
    return [_as_edge(item) for item in rows]


def dumps_graph(g: Graph, fmt: str = "json",
                annotations: dict[str, Any] | None = None) -> str:
    if fmt == "json":
        edges = [f"[{u}, {v}]" for u, v in g.sorted_edges()]
        return _dumps_rows({"n": g.n, "edges": edges, **(annotations or {})},
                           "edges")
    if fmt == "dot":
        lines = ["graph G {"]
        lines.extend(f"  {v};" for v in range(g.n))
        lines.extend(f"  {u} -- {v};" for u, v in g.sorted_edges())
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "edgelist":
        lines = [f"# n {g.n}"]
        lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
        return "\n".join(lines) + "\n"
    raise FormatError(f"unknown graph format {fmt!r}; expected {GRAPH_FORMATS}")


_DOT_NODE = re.compile(r"^(\d+)\s*;$")
_DOT_EDGE = re.compile(r"^(\d+)\s*--\s*(\d+)\s*;$")


def loads_graph(text: str, fmt: str = "json") -> tuple[Graph, dict[str, Any]]:
    """Parse a graph; returns (graph, annotations).  Only the JSON format
    carries annotations (e.g. the blown-cycle class structure block)."""
    try:
        return _loads_graph(text, fmt)
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def _loads_graph(text: str, fmt: str) -> tuple[Graph, dict[str, Any]]:
    if fmt == "json":
        doc = _json_loads(text)
        if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
            raise FormatError('graph JSON needs keys "n" and "edges"')
        n = doc["n"]
        if not is_json_int(n):
            raise FormatError(f'"n" must be an integer, got {n!r}')
        edges = _as_edges(_as_list(doc, "edges"))
        annotations = {k: v for k, v in doc.items() if k not in ("n", "edges")}
        return make_graph(n, edges), annotations
    if fmt == "dot":
        body = text.strip()
        if not body.startswith("graph") or not body.endswith("}"):
            raise FormatError("not a DOT graph")
        nodes: set[int] = set()
        edges = []
        for raw in body.split("\n")[1:-1]:
            line = raw.strip()
            if not line:
                continue
            mn = _DOT_NODE.match(line)
            if mn:
                nodes.add(int(mn.group(1)))
                continue
            me = _DOT_EDGE.match(line)
            if me:
                edges.append((int(me.group(1)), int(me.group(2))))
                continue
            raise FormatError(f"unparseable DOT line: {line!r}")
        n = len(nodes)
        if sorted(nodes) != list(range(n)):
            raise FormatError("DOT vertices must be exactly 0..n-1")
        return make_graph(n, edges), {}
    if fmt == "edgelist":
        n = None
        edges = []
        for raw in text.split("\n"):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                head = line[1:].split()
                if len(head) == 2 and head[0] == "n":
                    (n,) = _ints(head[1:], "vertex count", line)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"expected 'u v' per line, got {line!r}")
            edges.append(_ints(parts, "edge endpoints", line))
        if n is None:
            n = 1 + max((max(e) for e in edges), default=-1)
        return make_graph(n, edges), {}
    raise FormatError(f"unknown graph format {fmt!r}; expected {GRAPH_FORMATS}")


def _ints(words: list[str], what: str, line: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, words))
    except ValueError:
        raise FormatError(f"non-integer {what}: {line!r}") from None


def dumps_pairing(p: Pairing) -> str:
    pairs = [f"[{x}, {y}]" for x, y in p.ids.tolist()]
    return _dumps_rows({"pairs": pairs}, "pairs")


def loads_pairing(text: str) -> Pairing:
    doc = _json_loads(text)
    if not isinstance(doc, dict) or "pairs" not in doc:
        raise FormatError('pairing JSON needs key "pairs"')
    try:
        return make_pairing(_as_edge(pair) for pair in _as_list(doc, "pairs"))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def dumps_plan(plan: RoutePlan, extras: dict[str, Any] | None = None) -> str:
    """Plan JSON, one route per line, from the plan's arrays.  Plan files
    hold vertex ids only: a negative value (see RoutePlan) raises ValueError."""
    if min(v.min(initial=0) for v in (plan.x, plan.y, plan.paths)) < 0:
        raise ValueError("plan JSON holds vertex ids only; this plan holds "
                         "another value")
    flat, ends = plan.paths.tolist(), plan.ends.tolist()
    # a list of ints prints as its compact JSON text
    routes = [f'{{"x": {x}, "y": {y}, "path": {flat[lo:hi]}}}' for x, y, lo, hi
              in zip(plan.x.tolist(), plan.y.tolist(), [0] + ends, ends)]
    return _dumps_rows({"routes": routes, "edges_used": plan.edges_used,
                        **(extras or {})}, "routes")


def loads_plan(text: str) -> tuple[RoutePlan, dict[str, Any]]:
    """Parse a plan into arrays (`RoutePlan.from_arrays`), checked and
    converted as whole lists.  Every x, y and path value must be a JSON
    integer within int64, though not a vertex id: verify_plan names -5 as
    no vertex.  Anything else raises FormatError naming the first bad
    route.  The stored edge count is not read, so verification never
    trusts it."""
    doc = _json_loads(text)
    if not isinstance(doc, dict) or "routes" not in doc:
        raise FormatError('plan JSON needs key "routes"')
    items = _as_list(doc, "routes")
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
        raise _route_error(items) from None
    lens = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    extras = {k: v for k, v in doc.items() if k not in ("routes", "edges_used")}
    return RoutePlan.from_arrays(*arrays, np.cumsum(lens)), extras


def _route_error(items: list[Any]) -> FormatError:
    """The error naming the first route that is no object with keys x, y
    and path, all JSON integers within int64; loads_plan asks only when
    its whole-list check finds such a route."""
    for idx, item in enumerate(items):
        if not isinstance(item, dict) or not {"x", "y", "path"} <= set(item):
            return FormatError(f'route #{idx} needs keys "x", "y", "path"')
        path = item["path"]
        if not isinstance(path, list) or not all(map(_is_int64, path)):
            return FormatError(f"route #{idx} path must be a list of ids")
        if not (_is_int64(item["x"]) and _is_int64(item["y"])):
            return FormatError(f'route #{idx} "x" and "y" must be ids')
    raise AssertionError("every route is well formed")


def _is_int64(value: Any) -> bool:
    return is_json_int(value) and -2**63 <= value < 2**63
