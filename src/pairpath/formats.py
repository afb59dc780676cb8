"""Wire formats: graph JSON / DOT / edge-list, pairing JSON, route-plan JSON.

All three graph formats are import/export symmetric and byte-stable: edges are
written sorted with u < v, so identical graphs serialize identically.  JSON
files hold one edge, pair or route per line (see `_dumps_rows`).

Rows go out and come in by chunks, so that no call holds one Python object
per edge, pair or route: the writers format a slice of the arrays at a time,
and the JSON readers parse the rows array a chunk at a time into int64 arrays
(see `_loads_rows`).  A JSON file that does not split that way is read whole.
"""
from __future__ import annotations

import json
import re
from itertools import chain
from json.decoder import scanstring
from typing import Any, Callable, Iterator

import numpy as np

from .graph import Graph, GraphError, make_graph
from .routing import Pairing, RoutePlan, make_pairing


class FormatError(ValueError):
    """Unparseable or schema-violating input text."""


GRAPH_FORMATS = ("json", "dot", "edgelist")

# ids the writers format into one chunk string: 4,096 edge or pair rows,
# or as many routes as hold that many ids on average
_IDS_PER_CHUNK = 8192
# characters of rows text the JSON readers parse with one json.loads call
_CHUNK_CHARS = 1 << 16
# JSON's own whitespace: \s would also pass characters that JSON rejects
_WS = re.compile(r"[ \t\n\r]*")
# a row's closing bracket, then the comma before the next row
_CUT = re.compile(r"[\]}][ \t\n\r]*,")
# the last row's closing bracket, then the rows array's own
_LAST = re.compile(r"[\]}][ \t\n\r]*\]")
_ROW_SEP = ",\n    "


def _json_loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None


def _dumps_rows(doc: dict[str, Any], rows_key: str,
                extras: dict[str, Any] | None = None) -> str:
    """`doc` and then `extras` in the json.dumps(indent=2) layout, except
    that doc[rows_key] is a list of chunk strings, each holding rows already
    written as compact JSON text, such as "[0, 7]", one row per line.  The
    document is joined once.  An extra key that doc already holds raises
    FormatError: it would replace the file's own value."""
    extras = extras or {}
    for key in extras:
        if key in doc:
            raise FormatError(f'"{key}" is a key of the file itself, not an '
                              "annotation")
    parts = ["{"]
    for key, value in {**doc, **extras}.items():
        parts.append(f"\n  {json.dumps(key)}: ")
        if key == rows_key and value:
            parts.append("[\n    ")
            for chunk in value:
                parts += (chunk, _ROW_SEP)
            parts[-1] = "\n  ]"
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        parts.append(",")
    parts[-1] = "\n}\n"
    return "".join(parts)


def _slices(count: int, step: int) -> Iterator[slice]:
    """Successive slices of step rows, covering count rows."""
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _pair_chunks(us: np.ndarray, vs: np.ndarray,
                 text_of: Callable[[list[int], list[int]], str]) -> list[str]:
    """text_of(u list, v list) for each slice of _IDS_PER_CHUNK / 2 rows."""
    return [text_of(us[rows].tolist(), vs[rows].tolist())
            for rows in _slices(len(us), _IDS_PER_CHUNK // 2)]


def _loads_rows(text: str, rows_key: str,
                convert: Callable[[list[Any]], tuple[np.ndarray, ...] | None]
                ) -> tuple[dict[str, Any], list[np.ndarray]] | None:
    """Read a JSON object whose rows_key holds an array of rows, by chunks:
    (the other keys, parsed by json, and the arrays that convert makes of
    the rows, each joined over all chunks).  None declines, and never an
    exception, so the whole-document reader stays the one that names an
    error.  It declines a text that is no such object, that gives a key
    twice (JSON keeps the last value), whose rows do not split into chunks
    that parse, or for a chunk that convert returns None for.

    The rows array is cut into chunks of about _CHUNK_CHARS characters.  A
    chunk ends right after a row's closing "]" or "}" that JSON whitespace
    and a comma follow, or, for the last, the array's own "]"; each is
    parsed as json.loads("[" + chunk + "]").  A cut inside a string or a
    nested value leaves that string or an extra bracket open at the end of
    its chunk, and a chunk that runs past the array's end closes a bracket
    too many, so neither parses.
    """
    try:
        return _scan_object(text, rows_key, convert)
    except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
        return None


def _scan_object(text: str, rows_key: str, convert: Callable
                 ) -> tuple[dict[str, Any], list[np.ndarray]] | None:
    decode = json.JSONDecoder().raw_decode
    pos = _WS.match(text).end()
    if not text.startswith("{", pos):
        return None
    doc: dict[str, Any] = {}
    pos = _WS.match(text, pos + 1).end()
    while text.startswith('"', pos):
        key, pos = scanstring(text, pos + 1)
        pos = _WS.match(text, pos).end()
        if key in doc or not text.startswith(":", pos):
            return None
        pos = _WS.match(text, pos + 1).end()
        if key == rows_key:
            doc[key], pos = _scan_rows(text, pos, convert)
            if doc[key] is None:
                return None
        else:
            doc[key], pos = decode(text, pos)
        pos = _WS.match(text, pos).end()
        if text.startswith("}", pos):
            chunks = doc.pop(rows_key, None)
            if (chunks is None
                    or _WS.match(text, pos + 1).end() != len(text)):
                return None
            return doc, [np.concatenate(parts) for parts in zip(*chunks)]
        if not text.startswith(",", pos):
            return None
        pos = _WS.match(text, pos + 1).end()
    return None


def _scan_rows(text: str, pos: int, convert: Callable
               ) -> tuple[list[tuple[np.ndarray, ...]] | None, int]:
    """(convert(rows) for each chunk, the position after the array) for the
    rows array at text[pos]; None for the list when it declines."""
    if not text.startswith("[", pos):
        return None, pos
    pos = _WS.match(text, pos + 1).end()
    if text.startswith("]", pos):
        return [convert([])], pos + 1
    chunks = []
    while True:
        cut = _CUT.search(text, pos + _CHUNK_CHARS)
        rows = None if cut is None else _parsed(text[pos:cut.start() + 1])
        last = rows is None
        if last:  # the array ends before the cut, or its rows do not parse
            cut = _LAST.search(text, pos, cut.end() if cut else len(text))
            rows = None if cut is None else _parsed(text[pos:cut.start() + 1])
        chunk = None if rows is None else convert(rows)
        if chunk is None:
            return None, pos
        chunks.append(chunk)
        pos = cut.end()
        if last:
            return chunks, pos


def _parsed(chunk: str) -> list[Any] | None:
    try:
        return json.loads("[" + chunk + "]")
    except json.JSONDecodeError:
        return None


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


def _pair_array(rows: list[Any]) -> tuple[np.ndarray] | None:
    """JSON [u, v] rows as one (k, 2) int64 array, or None when some row is
    no pair of JSON integers within int64.  Only a list yields ints when
    iterated, so rows of length 2 whose items are all ints are such pairs."""
    try:
        if set(map(len, rows)) - {2}:
            return None
        flat = list(chain.from_iterable(rows))
        if set(map(type, flat)) - {int}:
            return None
        pairs = np.fromiter(flat, dtype=np.int64, count=len(flat))
    except (TypeError, OverflowError):  # a row with no length, or beyond int64
        return None
    return (pairs.reshape(-1, 2),)


def _as_edges(rows: list[Any]) -> np.ndarray | list[tuple[int, int]]:
    """JSON edge rows as one (E, 2) int64 array.  The per-row scan runs
    only when that check fails, to name the first bad row; rows that all
    pass it hold an id beyond int64, which make_graph rejects as out of
    range."""
    pairs = _pair_array(rows)
    return [_as_edge(item) for item in rows] if pairs is None else pairs[0]


def _json_pairs(us: list[int], vs: list[int]) -> str:
    return _ROW_SEP.join([f"[{u}, {v}]" for u, v in zip(us, vs)])


def dumps_graph(g: Graph, fmt: str = "json",
                annotations: dict[str, Any] | None = None) -> str:
    """The graph as text.  A JSON annotation named "n" or "edges" raises
    FormatError."""
    # no branch keeps the endpoint arrays once its chunks are made, so they
    # are freed before the document is joined
    if fmt == "json":
        edges = _pair_chunks(*g.endpoints(), _json_pairs)
        return _dumps_rows({"n": g.n, "edges": edges}, "edges", annotations)
    if fmt == "dot":
        edges = _pair_chunks(*g.endpoints(), lambda us, vs: "".join(
            [f"  {u} -- {v};\n" for u, v in zip(us, vs)]))
        return "".join(["graph G {\n", *(f"  {v};\n" for v in range(g.n)),
                        *edges, "}\n"])
    if fmt == "edgelist":
        edges = _pair_chunks(*g.endpoints(), lambda us, vs: "".join(
            [f"{u} {v}\n" for u, v in zip(us, vs)]))
        return "".join([f"# n {g.n}\n", *edges])
    raise FormatError(f"unknown graph format {fmt!r}; expected {GRAPH_FORMATS}")


# ids are ASCII digits, as int() and \d also read 1_0, +0 and the digits
# of other scripts; an edge list's may start with -, so that a negative id
# is named as out of range
_DOT_HEAD = re.compile(r"graph([ \t]+[A-Za-z0-9_]+)?[ \t]*\{")
_DOT_NODE = re.compile(r"^([0-9]+)\s*;$")
_DOT_EDGE = re.compile(r"^([0-9]+)\s*--\s*([0-9]+)\s*;$")
_INT = re.compile(r"-?[0-9]+")
_EDGE_LINE = re.compile(r"(-?[0-9]+)\s+(-?[0-9]+)")


def loads_graph(text: str, fmt: str = "json") -> tuple[Graph, dict[str, Any]]:
    """Parse a graph; returns (graph, annotations).  Only the JSON format
    carries annotations (e.g. the blown-cycle class structure block)."""
    try:
        return _loads_graph(text, fmt)
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def _loads_graph(text: str, fmt: str) -> tuple[Graph, dict[str, Any]]:
    if fmt == "json":
        read = _loads_rows(text, "edges", _pair_array)
        if read is not None and is_json_int(read[0].get("n")):
            doc, (edges,) = read
        else:
            doc = _json_loads(text)
            if (not isinstance(doc, dict) or "n" not in doc
                    or "edges" not in doc):
                raise FormatError('graph JSON needs keys "n" and "edges"')
            if not is_json_int(doc["n"]):
                raise FormatError(f'"n" must be an integer, got {doc["n"]!r}')
            edges = _as_edges(_as_list(doc, "edges"))
        annotations = {k: v for k, v in doc.items() if k not in ("n", "edges")}
        return make_graph(doc["n"], edges), annotations
    if fmt == "dot":
        lines = text.strip().split("\n")
        if (not _DOT_HEAD.fullmatch(lines[0].strip())
                or lines[-1].strip() != "}"):
            raise FormatError("not a DOT graph")
        nodes: set[int] = set()
        edges = []
        for raw in lines[1:-1]:
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
                    if not _INT.fullmatch(head[1]):
                        raise FormatError(f"non-integer vertex count: "
                                          f"{line!r}")
                    n = int(head[1])
                continue
            me = _EDGE_LINE.fullmatch(line)
            if me is None:
                if len(line.split()) != 2:
                    raise FormatError(f"expected 'u v' per line, got {line!r}")
                raise FormatError(f"non-integer edge endpoints: {line!r}")
            edges.append((int(me[1]), int(me[2])))
        if n is None:
            n = 1 + max((max(e) for e in edges), default=-1)
        return make_graph(n, edges), {}
    raise FormatError(f"unknown graph format {fmt!r}; expected {GRAPH_FORMATS}")


def dumps_pairing(p: Pairing) -> str:
    pairs = _pair_chunks(p.ids[:, 0], p.ids[:, 1], _json_pairs)
    return _dumps_rows({"pairs": pairs}, "pairs")


def loads_pairing(text: str) -> Pairing:
    read = _loads_rows(text, "pairs", _pair_array)
    if read is None:
        doc = _json_loads(text)
        if not isinstance(doc, dict) or "pairs" not in doc:
            raise FormatError('pairing JSON needs key "pairs"')
        pairs = (_as_edge(pair) for pair in _as_list(doc, "pairs"))
    else:
        pairs = read[1][0]
    try:
        return make_pairing(pairs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def dumps_plan(plan: RoutePlan, extras: dict[str, Any] | None = None) -> str:
    """Plan JSON, one route per line, from the plan's arrays.  Plan files
    hold vertex ids only: a negative value (see RoutePlan) raises ValueError.
    An extra named "routes" or "edges_used" raises FormatError."""
    if min(v.min(initial=0) for v in (plan.x, plan.y, plan.paths)) < 0:
        raise ValueError("plan JSON holds vertex ids only; this plan holds "
                         "another value")
    step = max(1, _IDS_PER_CHUNK * len(plan.x) // max(len(plan.paths), 1))
    routes = [_route_rows(plan, rows) for rows in _slices(len(plan.x), step)]
    return _dumps_rows({"routes": routes, "edges_used": plan.edges_used},
                       "routes", extras)


def _route_rows(plan: RoutePlan, rows: slice) -> str:
    start = int(plan.ends[rows.start - 1]) if rows.start else 0
    ends = plan.ends[rows]
    flat = plan.paths[start:ends[-1]].tolist()
    bounds = (ends - start).tolist()
    # a list of ints prints as its compact JSON text
    return _ROW_SEP.join([
        f'{{"x": {x}, "y": {y}, "path": {flat[lo:hi]}}}' for x, y, lo, hi
        in zip(plan.x[rows].tolist(), plan.y[rows].tolist(), [0] + bounds,
               bounds)])


def loads_plan(text: str) -> tuple[RoutePlan, dict[str, Any]]:
    """Parse a plan into arrays (`RoutePlan.from_arrays`), checked and
    converted as whole lists, chunk by chunk.  Every x, y and path value
    must be a JSON integer within int64, though not a vertex id:
    verify_plan names -5 as no vertex.  Anything else raises FormatError
    naming the first bad route.  The stored edge count is not read, so
    verification never trusts it."""
    read = _loads_rows(text, "routes", _route_arrays)
    if read is None:
        doc = _json_loads(text)
        if not isinstance(doc, dict) or "routes" not in doc:
            raise FormatError('plan JSON needs key "routes"')
        items = _as_list(doc, "routes")
        arrays = _route_arrays(items)
        if arrays is None:
            raise _route_error(items)
    else:
        doc, arrays = read
    xs, ys, flat, lens = arrays
    extras = {k: v for k, v in doc.items() if k not in ("routes", "edges_used")}
    return RoutePlan.from_arrays(xs, ys, flat, np.cumsum(lens)), extras


def _route_arrays(items: list[Any]) -> tuple[np.ndarray, ...] | None:
    """JSON routes as int64 arrays (x, y, path values back to back, path
    lengths), or None when some route is no object with keys x, y and
    path, all JSON integers within int64."""
    try:
        xs = [item["x"] for item in items]
        ys = [item["y"] for item in items]
        paths = [item["path"] for item in items]
        flat = list(chain.from_iterable(paths))
        if not (all(type(path) is list for path in paths)
                and set(map(type, chain(xs, ys, flat))) <= {int}):
            return None
        return tuple(np.fromiter(values, dtype=np.int64, count=len(values))
                     for values in (xs, ys, flat, list(map(len, paths))))
    except (KeyError, TypeError, OverflowError):
        return None


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
