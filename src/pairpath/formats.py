"""Wire formats: graph JSON / DOT / edge-list, pairing JSON, route-plan JSON.

All three graph formats are import/export symmetric and byte-stable: edges are
written sorted with u < v, so identical graphs serialize identically.  JSON
files hold one edge, pair or route per line (see `_dumps_rows`).

Rows go out and come in by chunks, so that no call holds one Python object
per edge, pair or route: the writers format a slice of the arrays at a time,
and the JSON readers parse the rows array a chunk at a time into int64 arrays
(see `_loads_rows`), and never read an object whole, even to name an error: at
m = 48, a graph file whose last edge row is [0, 1.5] is refused at 160 MB
(930 MB when read whole), and the good file reads at 258 MB, as commands.
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
_decode = json.JSONDecoder().raw_decode
_ROW_SEP = ",\n    "


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


def _loads_rows(text: str, rows_key: str, convert: Callable) -> Any:
    """A JSON document read in one pass: an object as a dict whose rows_key,
    where it holds an array, maps to its chunks (see `_scan_rows` and
    `_joined`), with json parsing each other value alone; any other text
    through json whole.  Invalid JSON raises FormatError with json's own
    message and position in text.

    The rows array is cut into chunks of about _CHUNK_CHARS characters.  A
    chunk ends right after a row's closing "]" or "}" that JSON whitespace
    and a comma follow, or, for the last, the array's own "]"; each is
    parsed as json.loads("[" + chunk + "]").  A cut inside a string or a
    nested value leaves that string or an extra bracket open at the end of
    its chunk, and a chunk that runs past the array's end closes a bracket
    too many, so neither parses: its rows are read one at a time instead.
    """
    try:
        return _scan_object(text, rows_key, convert)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None


def _scan_object(text: str, rows_key: str, convert: Callable) -> Any:
    pos = _WS.match(text).end()
    if not text.startswith("{", pos):
        return json.loads(text)
    doc: dict[str, Any] = {}
    # head: a text that leaves json where text up to at leaves it
    head, at = "{", pos + 1
    pos = _WS.match(text, at).end()
    while not (head == "{" and text.startswith("}", pos)):
        if not text.startswith('"', pos):
            raise _json_error(text, head, at)
        key, at = scanstring(text, pos + 1)
        pos = _WS.match(text, at).end()
        if not text.startswith(":", pos):
            raise _json_error(text, '{""', at)
        pos = _WS.match(text, pos + 1).end()
        if key == rows_key and text.startswith("[", pos):
            doc[key], at = _scan_rows(text, pos, convert)
        else:  # a key given twice keeps its last value, as in json
            doc[key], at = _decode(text, pos)
        pos = _WS.match(text, at).end()
        if not text.startswith(",", pos):
            if not text.startswith("}", pos):
                raise _json_error(text, '{"":0', at)
            break
        head, at = '{"":0,', pos + 1
        pos = _WS.match(text, at).end()
    if _WS.match(text, pos + 1).end() != len(text):
        raise _json_error(text, "{}", pos + 1)
    return doc


def _scan_rows(text: str, pos: int, convert: Callable) -> tuple[list, int]:
    """(chunks, the position after the array) for the rows array whose "["
    is at text[pos]: convert(rows, index of rows[0]) for each chunk, or,
    once convert refuses one, [its FormatError] and syntax checks only."""
    pos = _WS.match(text, pos + 1).end()
    if text.startswith("]", pos):
        return [convert([], 0)], pos + 1
    chunks, count, closed, refused = [], 0, False, None
    while not closed:
        rows, pos, closed = _next_rows(text, pos)
        if refused is None:
            try:
                chunks.append(convert(rows, count))
            except FormatError as exc:
                refused = exc
        count += len(rows)
    return ([refused] if refused else chunks), pos


def _next_rows(text: str, pos: int) -> tuple[list[Any], int, bool]:
    """(rows, the position after them, whether they close the array) for
    the chunk of rows that starts at text[pos]."""
    cut = _CUT.search(text, pos + _CHUNK_CHARS)
    limit = cut.end() if cut else len(text)
    for closed in (False, True):
        if closed:  # the array ends before the cut, or its rows do not parse
            cut = _LAST.search(text, pos, limit)
        try:
            if cut:
                rows = json.loads("[" + text[pos:cut.start() + 1] + "]")
                return rows, cut.end(), closed
        except json.JSONDecodeError:
            pass
    return _read_rows(text, pos, limit)


def _read_rows(text: str, pos: int, limit: int) -> tuple[list[Any], int, bool]:
    """_next_rows for rows read one at a time, through the first that ends
    at limit or beyond or closes the array.  text[pos] starts the first
    row, or follows the comma before it."""
    rows = []
    while True:
        start = _WS.match(text, pos).end()
        if text.startswith("]", start):  # a comma before the array's end
            raise _json_error(text, "[0,", pos)
        row, at = _decode(text, start)
        rows.append(row)
        pos = _WS.match(text, at).end()
        if text.startswith("]", pos):
            return rows, pos + 1, True
        if not text.startswith(",", pos):
            raise _json_error(text, "[0", at)
        pos += 1
        if pos >= limit:
            return rows, pos, False


def _json_error(text: str, head: str, at: int) -> json.JSONDecodeError:
    """json's error for text, which goes wrong at the first character at
    or after at that is no JSON whitespace: head must leave json in the
    state that text up to at leaves it in."""
    try:
        json.loads(head + text[at:_WS.match(text, at).end() + 1])
    except json.JSONDecodeError as exc:
        return json.JSONDecodeError(exc.msg, text, exc.pos - len(head) + at)


def _joined(doc: dict[str, Any], key: str) -> list[np.ndarray]:
    """The arrays of doc[key]'s chunks (see `_scan_rows`), each joined over
    all chunks.  Readers call it once they have checked the other keys, so
    that an error in the rows comes after theirs."""
    chunks = doc.pop(key)
    if not isinstance(chunks, list):
        raise FormatError(f'"{key}" must be a list, got {type(chunks).__name__}')
    if isinstance(chunks[0], FormatError):
        raise chunks[0]
    return [np.concatenate(parts) for parts in zip(*chunks)]


def is_json_int(value: Any) -> bool:
    """True for a JSON integer; true and false are not ids or counts."""
    return type(value) is int


def _pair_array(rows: list[Any], first: int) -> tuple[np.ndarray]:
    """JSON [u, v] rows as one (k, 2) array: int64, or objects when some id
    lies beyond int64, for make_graph and make_pairing to name.  A row that
    is no pair of JSON integers raises FormatError naming it, without its
    index (first, that of rows[0]).  Only a list yields ints when iterated,
    so rows of length 2 whose items are all ints are such pairs."""
    try:
        if not set(map(len, rows)) - {2}:
            flat = list(chain.from_iterable(rows))
            if not set(map(type, flat)) - {int}:
                try:
                    pairs = np.fromiter(flat, dtype=np.int64, count=len(flat))
                except OverflowError:
                    pairs = np.array(flat, dtype=object)
                return (pairs.reshape(-1, 2),)
    except TypeError:  # a row with no length
        pass
    bad = next(item for item in rows if type(item) is not list
               or len(item) != 2 or not all(map(is_json_int, item)))
    raise FormatError(f"expected [u, v] integer pair, got {bad!r}")


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
        doc = _loads_rows(text, "edges", _pair_array)
        if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
            raise FormatError('graph JSON needs keys "n" and "edges"')
        if not is_json_int(doc["n"]):
            raise FormatError(f'"n" must be an integer, got {doc["n"]!r}')
        (edges,) = _joined(doc, "edges")
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
    doc = _loads_rows(text, "pairs", _pair_array)
    if not isinstance(doc, dict) or "pairs" not in doc:
        raise FormatError('pairing JSON needs key "pairs"')
    (pairs,) = _joined(doc, "pairs")
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
    # the count's sort of step keys runs before any row text exists
    edges_used = plan.edges_used
    step = max(1, _IDS_PER_CHUNK * len(plan.x) // max(len(plan.paths), 1))
    routes = [_route_rows(plan, rows) for rows in _slices(len(plan.x), step)]
    return _dumps_rows({"routes": routes, "edges_used": edges_used},
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
    doc = _loads_rows(text, "routes", _route_arrays)
    if not isinstance(doc, dict) or "routes" not in doc:
        raise FormatError('plan JSON needs key "routes"')
    xs, ys, flat, lens = _joined(doc, "routes")
    extras = {k: v for k, v in doc.items() if k not in ("routes", "edges_used")}
    return RoutePlan.from_arrays(xs, ys, flat, np.cumsum(lens)), extras


def _route_arrays(items: list[Any], first: int) -> tuple[np.ndarray, ...]:
    """JSON routes as int64 arrays (x, y, path values back to back, path
    lengths).  A route that is no object with keys x, y and path, all JSON
    integers within int64, raises FormatError naming it: route #first is
    items[0]."""
    try:
        xs = [item["x"] for item in items]
        ys = [item["y"] for item in items]
        paths = [item["path"] for item in items]
        flat = list(chain.from_iterable(paths))
        if (all(type(path) is list for path in paths)
                and set(map(type, chain(xs, ys, flat))) <= {int}):
            return tuple(np.fromiter(values, dtype=np.int64, count=len(values))
                         for values in (xs, ys, flat, list(map(len, paths))))
    except (KeyError, TypeError, OverflowError):
        pass
    for idx, item in enumerate(items, first):
        if not isinstance(item, dict) or not {"x", "y", "path"} <= set(item):
            raise FormatError(f'route #{idx} needs keys "x", "y", "path"')
        path = item["path"]
        if not isinstance(path, list) or not all(map(_is_int64, path)):
            raise FormatError(f"route #{idx} path must be a list of ids")
        if not (_is_int64(item["x"]) and _is_int64(item["y"])):
            raise FormatError(f'route #{idx} "x" and "y" must be ids')


def _is_int64(value: Any) -> bool:
    return is_json_int(value) and -2**63 <= value < 2**63
