import functools
import hashlib
import json
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (HALL_DEFICIENT_M4_PLAN, reference_loads_graph,
                     reference_loads_pairing, reference_loads_plan,
                     reference_route, sorted_edges)
from pairpath import formats
from pairpath.blowup import build
from pairpath.cli import main
from pairpath.formats import (FormatError, dumps_graph, dumps_pairing,
                              dumps_plan, loads_graph, loads_pairing,
                              loads_plan)
from pairpath.graph import MAX_VERTICES, Graph, make_graph
import pairpath.routing as routing_module
from pairpath.routing import (Pairing, PairingError, Route, RoutePlan,
                              make_pairing, random_perfect_pairing, route)
from pairpath.verify import verify_plan


def graphs():
    @st.composite
    def strat(draw):
        n = draw(st.integers(min_value=0, max_value=9))
        if n < 2:
            return make_graph(n, [])
        edges = draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]),
            max_size=12))
        return make_graph(n, edges)
    return strat()


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_round_trip_all_formats(g):
    for fmt in ("json", "dot", "edgelist"):
        text = dumps_graph(g, fmt)
        loaded, annotations = loads_graph(text, fmt)
        assert loaded == g
        assert annotations == {}
        assert dumps_graph(loaded, fmt) == text


def test_json_is_sorted_and_stable(petersen):
    text = dumps_graph(petersen, "json")
    doc = json.loads(text)
    assert doc["n"] == 10
    assert doc["edges"] == sorted(doc["edges"])
    assert dumps_graph(petersen, "json") == text


def test_json_blown_cycle_annotation(blown2):
    text = dumps_graph(blown2.graph, "json",
                       annotations={"blown_cycle": {"m": 2, "q": 11}})
    loaded, annotations = loads_graph(text, "json")
    assert loaded == blown2.graph
    assert annotations == {"blown_cycle": {"m": 2, "q": 11}}


def test_json_writes_one_edge_row_per_line(blown2):
    # the document json.dumps(doc, indent=2) writes, one line per edge
    ann = {"blown_cycle": {"m": 2, "q": 11, "classes": [[0, 11], [11, 22]]},
           "note": "a\nb"}
    text = dumps_graph(blown2.graph, "json", ann)
    assert json.loads(text) == {
        "n": 44, "edges": [list(e) for e in sorted_edges(blown2.graph)],
        **ann}
    lines = text.split("\n")
    assert lines[:4] == ["{", '  "n": 44,', '  "edges": [', "    [0, 11],"]
    assert sum(line.startswith("    [") for line in lines) == 484
    assert dumps_graph(make_graph(1, []), "json") == (
        '{\n  "n": 1,\n  "edges": []\n}\n')


def test_dot_holds_vertex_and_edge_statements_only(tmp_path, capsys):
    g = make_graph(5, [(3, 1), (0, 1)])  # 2 and 4 are isolated
    text = dumps_graph(g, "dot")
    assert text == ("graph G {\n  0;\n  1;\n  2;\n  3;\n  4;\n"
                    "  0 -- 1;\n  1 -- 3;\n}\n")
    loaded, _ = loads_graph(text, "dot")
    assert loaded == g
    assert dumps_graph(loaded, "dot") == text
    # blank lines in the body are skipped
    assert loads_graph(text.replace("  2;", "\n  2;\n  "), "dot")[0] == g
    labelled = text.replace("  2;", '  2 [label="x"];')
    with pytest.raises(FormatError, match=r"^unparseable DOT line: "
                                          r"'2 \[label=\"x\"\];'$"):
        loads_graph(labelled, "dot")
    path = tmp_path / "f.dot"
    path.write_text(labelled)
    assert main(["stats", "--graph", str(path), "--format", "dot"]) == 2
    assert "unparseable DOT line" in capsys.readouterr().err


def test_edgelist_header_keeps_isolated_vertices():
    g = make_graph(3, [(0, 1)])
    text = dumps_graph(g, "edgelist")
    assert text.startswith("# n 3\n")
    loaded, _ = loads_graph(text, "edgelist")
    assert loaded.n == 3


def test_edgelist_without_header_infers_n():
    loaded, _ = loads_graph("0 1\n2 1\n", "edgelist")
    assert loaded.n == 3
    assert loaded.edge_count == 2


def test_loads_graph_rejects_malformed():
    with pytest.raises(FormatError):
        loads_graph("{not json", "json")
    with pytest.raises(FormatError):
        loads_graph('{"edges": []}', "json")
    with pytest.raises(FormatError, match='^"n" must be an integer'):
        loads_graph('{"n": true, "edges": []}', "json")
    with pytest.raises(FormatError):
        loads_graph('{"n": 2, "edges": [[0, 0]]}', "json")  # self-loop
    with pytest.raises(FormatError):
        loads_graph('{"n": 1, "edges": [[0, 4]]}', "json")  # out of range
    for rows, bad in (([[False, True]], [False, True]),
                      ([[0, 1], [True, 2]], [True, 2]),
                      ([[0.0, 1]], [0.0, 1]), ([[0, 1], [2]], [2]),
                      ([[0, 1, 2]], [0, 1, 2])):
        with pytest.raises(FormatError) as err:
            loads_graph(json.dumps({"n": 3, "edges": rows}), "json")
        assert str(err.value) == f"expected [u, v] integer pair, got {bad!r}"
    with pytest.raises(FormatError, match=r"^edge \(0,10{30}\) has id out "
                       r"of range 0\.\.2$"):
        loads_graph(f'{{"n": 3, "edges": [[0, 1], [0, {10**30}]]}}', "json")
    with pytest.raises(FormatError):
        loads_graph("digraph G { 0 -> 1; }", "dot")
    with pytest.raises(FormatError):
        loads_graph("graph G {\n  zero -- one;\n}", "dot")
    with pytest.raises(FormatError):
        loads_graph("# n 3\n0 1 2\n", "edgelist")
    with pytest.raises(FormatError):
        loads_graph("0 x\n", "edgelist")
    with pytest.raises(FormatError,
                       match=r"^non-integer vertex count: '# n abc'$"):
        loads_graph("# n abc\n0 1\n", "edgelist")
    with pytest.raises(FormatError):
        dumps_graph(make_graph(1, []), "yaml")
    with pytest.raises(FormatError, match=r"^unknown graph format 'gml'; "):
        loads_graph(dumps_graph(make_graph(1, [])), "gml")


def test_dot_requires_contiguous_ids():
    with pytest.raises(FormatError, match="0..n-1"):
        loads_graph("graph G {\n  1;\n  2;\n  1 -- 2;\n}", "dot")


@pytest.mark.parametrize("text", [
    "graph G { 0; 1; 0 -- 1; }",  # read as the empty graph before
    "graph G {\n  0;\n  1;\n  0 -- 1; }\n",  # lost its edge before
    "graphX {\n  0;\n}\n", "graph G\n{\n  0;\n}\n", "graph G {\n",
    "graph G {\n  0;\n}}\n", "graph G {\n  0;\n} x\n"])
def test_dot_needs_its_header_and_closing_brace_on_lines_of_their_own(text):
    with pytest.raises(FormatError, match="^not a DOT graph$"):
        loads_graph(text, "dot")


def test_dot_header_may_name_the_graph_or_not():
    for head in ("graph {", "graph G {", "  graph g_1{", "graph 7 {"):
        g, _ = loads_graph(f"{head}\n  0;\n  1;\n  0 -- 1;\n}}\n", "dot")
        assert g == make_graph(2, [(0, 1)])


@pytest.mark.parametrize("word", ["1_0", "+0", "\u0663"])
def test_ids_are_ascii_digits(word):
    # int() reads 1_0 as 10, +0 as 0 and the Arabic-Indic digit as 3
    for text, fmt, message in (
            (f"graph G {{\n  {word};\n}}\n", "dot", "unparseable DOT line"),
            (f"graph G {{\n  0;\n  0 -- {word};\n}}\n", "dot",
             "unparseable DOT line"),
            (f"0 {word}\n", "edgelist", "non-integer edge endpoints"),
            (f"# n {word}\n", "edgelist", "non-integer vertex count")):
        with pytest.raises(FormatError, match=f"^{message}: "):
            loads_graph(text, fmt)


def test_edgelist_names_a_negative_id_as_out_of_range():
    with pytest.raises(FormatError, match=r"^edge \(-1,2\) has id out of "
                                          r"range 0\.\.2$"):
        loads_graph("# n 3\n0 1\n-1 2\n", "edgelist")
    with pytest.raises(FormatError, match="^vertex count must be "
                                          "nonnegative, got -3$"):
        loads_graph("# n -3\n", "edgelist")


def test_pairing_round_trip():
    p = make_pairing([(5, 2), (0, 7), (3, 1)])
    text = dumps_pairing(p)
    assert loads_pairing(text) == p
    # list order follows the smaller endpoint, orientation survives
    assert json.loads(text)["pairs"] == [[0, 7], [3, 1], [5, 2]]
    # one [x, y] row per line
    assert text == ('{\n  "pairs": [\n    [0, 7],\n    [3, 1],\n    [5, 2]\n'
                    '  ]\n}\n')
    assert dumps_pairing(make_pairing([])) == '{\n  "pairs": []\n}\n'


def test_pairing_rejects_duplicates_and_bad_shape():
    with pytest.raises(FormatError, match="duplicate"):
        loads_pairing('{"pairs": [[0, 1], [1, 2]]}')
    with pytest.raises(FormatError):
        loads_pairing('{"pairs": [[0, 1, 2]]}')
    with pytest.raises(FormatError):
        loads_pairing('[]')


def test_plan_round_trip(blown2):
    pairing = random_perfect_pairing(blown2.n, 11)
    plan = route(blown2, pairing)
    text = dumps_plan(plan, extras={"m": 2, "seed": 11})
    doc = json.loads(text)
    assert doc["edges_used"] == plan.edges_used
    assert doc["m"] == 2 and doc["seed"] == 11
    loaded, extras = loads_plan(text)
    assert loaded.routes == plan.routes
    assert loaded.used_edges == dict(plan.used_edges)
    assert extras == {"m": 2, "seed": 11}


def test_plan_owner_map_first_claim_wins():
    plan, _ = loads_plan(json.dumps({"routes": [
        {"x": 0, "y": 2, "path": [0, 1, 2]},
        {"x": 3, "y": 0, "path": [3, 1, 0]}]}))
    assert plan.used_edges == {(0, 1): 0, (1, 2): 0, (1, 3): 1}
    assert plan == RoutePlan(plan.routes)


def test_plans_with_the_same_ids_split_apart_differently_are_unequal():
    one = _plan_by_loads_plan([{"x": 0, "y": 2, "path": [0, 1, 2]},
                               {"x": 3, "y": 4, "path": [3, 4]}])
    other = _plan_by_loads_plan([{"x": 0, "y": 2, "path": [0, 1]},
                                 {"x": 3, "y": 4, "path": [2, 3, 4]}])
    assert one.paths.tolist() == other.paths.tolist()
    assert one != other
    assert (one == 5) is False
    assert one == _plan_by_constructor([{"x": 0, "y": 2, "path": [0, 1, 2]},
                                        {"x": 3, "y": 4, "path": [3, 4]}])


def test_owner_map_first_claim_owns_a_reused_edge():
    # route 1 walks back over route 0's edge (1, 2); route 2 reuses its own
    # edge (6, 7)
    plan = RoutePlan([Route(0, 3, (0, 1, 2, 3)),
                      Route(4, 5, (4, 2, 1, 5)),
                      Route(6, 7, (6, 7, 6, 7))])
    owners = {(0, 1): 0, (1, 2): 0, (2, 3): 0, (2, 4): 1, (1, 5): 1,
              (6, 7): 2}
    assert plan.used_edges[(1, 2)] == 0
    assert plan.used_edges[(6, 7)] == 2
    # equal to a plain dict, compared from either side
    assert plan.used_edges == owners
    assert owners == plan.used_edges
    assert dict(plan.used_edges) == owners
    other = {**owners, (1, 2): 1}
    assert plan.used_edges != other
    assert other != plan.used_edges
    assert plan.edges_used == len(owners)


def test_loads_plan_and_verify_build_no_owner_map(blown2):
    pairing = random_perfect_pairing(blown2.n, 3)
    routed = route(blown2, pairing)
    text = dumps_plan(routed)
    plan, _ = loads_plan(text)
    assert verify_plan(blown2.graph, pairing, plan).ok
    # the edge count is read off the arrays, not the owner map
    assert plan.edges_used == json.loads(text)["edges_used"]
    for made in (routed, plan):
        assert "used_edges" not in vars(made)
    # the map is a dict built once, on first read, and holds that many edges
    owners = plan.used_edges
    assert type(owners) is dict
    assert "used_edges" in vars(plan)
    assert plan.used_edges is owners
    assert len(plan.used_edges) == plan.edges_used


class _Forbidden:
    """Stands in for a class that the code under test must not use."""

    def __init__(self, *_):
        raise AssertionError("built a Route")


def test_route_verify_and_formats_build_no_route_objects(monkeypatch):
    b = build(4)
    pairing = random_perfect_pairing(b.n, 2)
    monkeypatch.setattr(routing_module, "Route", _Forbidden)
    plan = route(b, pairing)
    assert verify_plan(b.graph, pairing, plan).ok
    text = dumps_plan(plan)
    loaded, _ = loads_plan(text)
    pairs = np.stack([loaded.x, loaded.y], 1)
    assert verify_plan(b.graph, make_pairing(pairs), loaded).ok
    # a router plan is edge-disjoint: one edge per step
    assert loaded.edges_used == plan.edges_used \
        == len(plan.paths) - len(plan.ends)
    # no owner map was built on the way
    for made in (plan, loaded):
        assert "used_edges" not in vars(made)
    monkeypatch.undo()
    assert plan.routes == reference_route(b, pairing).routes


@pytest.mark.parametrize("m", range(2, 9))
def test_dumps_plan_writes_the_reference_document(m):
    b = build(m)
    for seed in (0, 1, 2):
        pairing = random_perfect_pairing(b.n, seed)
        expected = reference_route(b, pairing)
        doc = {"routes": [{"x": r.x, "y": r.y, "path": list(r.path)}
                          for r in expected.routes],
               "edges_used": len(expected.used_edges), "m": m, "seed": seed}
        text = dumps_plan(route(b, pairing), {"m": m, "seed": seed})
        assert json.loads(text) == doc
        # one route per line, in the compact json.dumps form
        rows = [line for line in text.split("\n")
                if line.startswith('    {"x": ')]
        assert rows == [f"    {json.dumps(r)}," for r in doc["routes"][:-1]] \
            + [f"    {json.dumps(doc['routes'][-1])}"]
        assert text.count("\n") == len(rows) + 7


def test_plan_golden_keeps_its_content():
    # the digest of the golden plan's document as first written, one id per
    # line; the file now holds one route per line
    doc = json.loads(HALL_DEFICIENT_M4_PLAN.read_text())
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "56bc5efc9b8dd86afc5782df212a9467662e16a867ae15a9114ec0ba318ab55e")
    assert HALL_DEFICIENT_M4_PLAN.read_text().count("\n") == (
        len(doc["routes"]) + 6)


@pytest.mark.parametrize("m, digest, size", [
    (12, "46287f1cfa1336f37151538443203c945a4c41505dde13c190cb17f273ed2315",
     50_733),
    (16, "90de63be862c43033d25402a45754e3af19c217d2dec210705dfc65d29469e2a",
     103_739),
    (24, "bd27f0374f311f6417d0e754dbfea35f12157519f5b0edd1a2bacbe80249517f",
     296_088),
    (48, "2f7bd38b164d319fcb5730f5ed76f1fabf1996af8038f5e21453fcad4850640f",
     1_986_080),
])
def test_uniform_plans_keep_their_bytes(m, digest, size):
    # sizes with long task lists per class and reserved windows that wrap;
    # `pairpath route --m 16 --random 3` prints the m=16 document
    b = build(m)
    text = dumps_plan(route(b, random_perfect_pairing(b.n, 3)),
                      {"m": m, "seed": 3}).encode()
    assert (hashlib.sha256(text).hexdigest(), len(text)) == (digest, size)


def test_empty_plan_writes_an_empty_route_list():
    plan = RoutePlan(routes=[])
    assert dumps_plan(plan) == '{\n  "routes": [],\n  "edges_used": 0\n}\n'


def test_edges_used_counts_the_owner_map(blown3):
    for seed in range(4):
        plan = route(blown3, random_perfect_pairing(blown3.n, seed))
        loaded, _ = loads_plan(dumps_plan(plan))
        for made in (plan, loaded):
            assert made.edges_used == len(made.used_edges)


def _edges_by_set(plan):
    """The distinct edges that the routes step along, from a set of steps
    whose two ends are distinct graph ids."""
    edges = set()
    for r in plan.routes:
        for u, v in zip(r.path, r.path[1:]):
            if u != v and 0 <= u < MAX_VERTICES and 0 <= v < MAX_VERTICES:
                edges.add((min(u, v), max(u, v)))
    return len(edges)


@pytest.mark.parametrize("routes", [
    [],
    [Route(0, 1, ())],
    [Route(-5, 2, (-5, 2, 3)), Route(3, 4, (3, 4))],
    [Route(0, MAX_VERTICES, (0, 1, MAX_VERTICES)),
     Route(MAX_VERTICES - 1, 2, (MAX_VERTICES - 1, 2))],
    [Route(4, 5, (4, 4, 5)), Route(6, 6, (6,))],
    # route 1's step repeats route 0's, reversed; the empty paths and the
    # ends of consecutive paths (7 to 8, 5 to 9) step nowhere
    [Route(6, 7, ()), Route(5, 7, (5, 6, 7)), Route(8, 5, (8, 7, 6, 5)),
     Route(9, 1, (9, 1)), Route(2, 3, ())],
    [Route(-5, -5, (-5, -5, 2**63 - 1, -5)), Route(0, 1, (1, 0, 1, 0))],
])
def test_edges_used_counts_the_steps_that_are_edges(routes):
    plan = RoutePlan(routes)
    assert plan.edges_used == _edges_by_set(plan)


def test_loads_plan_keeps_values_that_are_no_ids_as_given():
    plan, _ = loads_plan(json.dumps({"routes": [
        {"x": 0, "y": 1, "path": [0, 1]},
        {"x": -5, "y": 2, "path": [-5, 2]}]}))
    assert (plan.x.tolist(), plan.y.tolist()) == ([0, -5], [1, 2])
    assert plan.paths.tolist() == [0, 1, -5, 2]
    with pytest.raises(ValueError, match="holds vertex ids only"):
        dumps_plan(plan)
    # no int64 array holds these
    for bad in (2**63, 10**30):
        with pytest.raises(FormatError, match="^route #1 "):
            loads_plan(json.dumps({"routes": [
                {"x": 0, "y": 1, "path": [0, 1]},
                {"x": bad, "y": 2, "path": [bad, 2]}]}))


def _plan_by_constructor(routes):
    return RoutePlan(routes=[Route(**r) for r in routes])


def _plan_by_from_routes(routes):
    # the constructor reads a one-shot stream of routes, positionally
    return RoutePlan(Route(**r) for r in routes)


def _plan_by_loads_plan(routes):
    return loads_plan(json.dumps({"routes": routes}))[0]


@pytest.mark.parametrize("slot", ["x", "y", "path"])
@pytest.mark.parametrize("bad", [1.0, "1", 2**63],
                         ids=["float", "string", "beyond-int64"])
@pytest.mark.parametrize("build_plan, error, named", [
    (_plan_by_constructor, PairingError, "route #1: vertex {!r} "),
    (_plan_by_from_routes, PairingError, "route #1: vertex {!r} "),
    (_plan_by_loads_plan, FormatError, "route #1 ")],
    ids=["constructor", "from_routes", "loads_plan"])
def test_plans_hold_int64_integers_only(build_plan, error, named, bad, slot):
    routes = [{"x": 0, "y": 1, "path": [0, 1]},
              {"x": 2, "y": 1, "path": [2, 1]}]
    if slot == "path":
        routes[1]["path"][1] = bad
    else:
        routes[1][slot] = bad
    with pytest.raises(error) as info:
        build_plan(routes)
    assert str(info.value).startswith(named.format(bad))


_JSON_LEAVES = (st.none() | st.booleans() | st.floats()
                | st.text(max_size=2) | st.integers()
                | st.sampled_from([-1, 2**63 - 1, 2**63, -2**63 - 1]))
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(["x", "y", "path"]),
                                       inner, max_size=3), max_leaves=12)
_ROUTES = st.lists(_JSON | st.fixed_dictionaries(
    {"x": _JSON, "y": _JSON, "path": st.lists(_JSON, max_size=3) | _JSON}),
    max_size=3)


@given(_JSON | st.fixed_dictionaries({"routes": _ROUTES | _JSON}))
@settings(max_examples=300, deadline=None)
def test_loads_plan_raises_format_error_only(doc):
    # cli.main turns ValueError and OSError into exit 2, and nothing else
    try:
        plan, _ = loads_plan(json.dumps(doc))
    except FormatError:
        return
    assert plan.paths.dtype == np.int64


def test_plan_rejects_malformed():
    with pytest.raises(FormatError):
        loads_plan('{"edges_used": 3}')
    with pytest.raises(FormatError):
        loads_plan('{"routes": [{"x": 0, "path": [0]}]}')
    with pytest.raises(FormatError):
        loads_plan('{"routes": [{"x": 0, "y": 1, "path": "ab"}]}')
    for route, message in (
            ('{"x": true, "y": 1, "path": [1, 1]}', '"x" and "y" must be ids'),
            ('{"x": 0, "y": true, "path": [0, 1]}', '"x" and "y" must be ids'),
            ('{"x": 0, "y": 1, "path": [0, true]}', "path must be a list")):
        with pytest.raises(FormatError, match=f"^route #0 {message}"):
            loads_plan(f'{{"routes": [{route}]}}')


@pytest.mark.parametrize("write, key", [
    (lambda: dumps_graph(make_graph(3, [(0, 1)]), "json", {"edges": []}),
     "edges"),
    (lambda: dumps_graph(make_graph(3, [(0, 1)]), "json", {"n": 5}), "n"),
    (lambda: dumps_plan(RoutePlan([Route(0, 1, (0, 1))]), {"routes": []}),
     "routes"),
    (lambda: dumps_plan(RoutePlan([Route(0, 1, (0, 1))]), {"edges_used": 0}),
     "edges_used"),
], ids=["graph-edges", "graph-n", "plan-routes", "plan-edges-used"])
def test_an_annotation_never_replaces_a_key_of_the_file(write, key):
    with pytest.raises(FormatError, match=f'^"{key}" is a key of the file '
                                          "itself, not an annotation$"):
        write()


def _plain(read):
    """A reader's result as plain values, to compare two readers."""
    if isinstance(read, Pairing):
        return read.ids.tolist()
    made, extra = read
    if isinstance(made, Graph):
        return made.n, made.keys.tolist(), extra
    return [a.tolist() for a in (made.x, made.y, made.paths, made.ends)], extra


_READERS = {"graph": (loads_graph, reference_loads_graph),
            "pairing": (loads_pairing, reference_loads_pairing),
            "plan": (loads_plan, reference_loads_plan)}


def _outcome(load, text):
    try:
        return "read", _plain(load(text))
    except FormatError as exc:
        return "error", str(exc)


def _assert_reads_as_reference(kind, text):
    load, reference = _READERS[kind]
    assert _outcome(load, text) == _outcome(reference, text)


_BOUND_CHUNK_CHARS = 1024


@functools.cache
def _writer_documents() -> dict[str, str]:
    """The writers' documents at m = 8, one per reader: each spans dozens
    to hundreds of chunks of _BOUND_CHUNK_CHARS."""
    b = build(8)
    pairing = random_perfect_pairing(b.n, 3)
    return {"graph": dumps_graph(b.graph, "json",
                                 {"blown_cycle": {"m": 8, "q": b.q}}),
            "pairing": dumps_pairing(pairing),
            "plan": dumps_plan(route(b, pairing), {"m": 8, "seed": 3})}


def _read_peak(load, text):
    """The peak of the memory that load(text) allocates, read or refused,
    on a second read: the first fills numpy's caches of small blocks, which
    hold about 2% of a read's peak and depend on what ran before."""
    def read():
        try:
            load(text)
        except FormatError:
            pass
    read()
    return _traced_peak(read)[1]


def _assert_read_in_writer_memory(patch, kind, edit):
    """edit(the writer's document of kind) reads as the reference reads it,
    and its read peaks no higher than the read of the writer's document of
    the same rows, within 1% and scaled by the texts' lengths where the
    edit lengthens the text: each chunk keeps a few small arrays until they
    are joined, so longer rows take more memory for the same ids.  A whole
    read peaks 1.9 to 4.7 times as high (see
    test_documents_the_writers_produce_are_read_by_chunks)."""
    patch.setattr(formats, "_CHUNK_CHARS", _BOUND_CHUNK_CHARS)
    writer = _writer_documents()[kind]
    text = edit(writer)
    assert text != writer
    _assert_reads_as_reference(kind, text)
    load = _READERS[kind][0]
    scale = 1.01 * max(1, len(text) / len(writer))
    assert _read_peak(load, text) <= scale * _read_peak(load, writer)


def _last_key(item):
    """An edit that adds item, a key and its value, last in the object."""
    return lambda text: text[:text.rindex("}")].rstrip() + f", {item}}}\n"


def _last_row(row):
    """An edit that replaces the last row of the rows array with row."""
    def edit(text):
        end = text.index("\n  ]")
        return text[:text.rindex("\n", 0, end) + 5] + row + text[end:]
    return edit


def _insert_row(index, row):
    """An edit that puts row before the rows array's row #index."""
    def edit(text):
        lines = text.split("\n")
        first = 1 + next(i for i, line in enumerate(lines)
                         if line.endswith(": ["))
        lines.insert(first + index, f"    {row},")
        return "\n".join(lines)
    return edit


@pytest.mark.parametrize("small", [False, True],
                         ids=["module-sizes", "small-sizes"])
def test_documents_the_writers_produce_are_read_by_chunks(monkeypatch, small):
    if small:  # a few rows and characters per chunk
        monkeypatch.setattr(formats, "_IDS_PER_CHUNK", 6)
        monkeypatch.setattr(formats, "_CHUNK_CHARS", 10)
    b = build(3)
    pairing = random_perfect_pairing(b.n, 5)
    texts = [
        ("graph", dumps_graph(b.graph, "json", {
            "blown_cycle": {"m": 3, "q": b.q}, "note": '], "edges": [[0, 1]'})),
        ("graph", dumps_graph(make_graph(4, []))),
        ("pairing", dumps_pairing(pairing)),
        ("pairing", dumps_pairing(make_pairing([]))),
        ("plan", dumps_plan(route(b, pairing), {"m": 3, "seed": 5})),
        ("plan", dumps_plan(RoutePlan([]))),
    ]
    for kind, text in texts:
        _assert_reads_as_reference(kind, text)
    # the bound that the tests below hold reads to is one that a whole read
    # of the same document misses by far
    monkeypatch.setattr(formats, "_CHUNK_CHARS", _BOUND_CHUNK_CHARS)
    for kind, text in _writer_documents().items():
        load, reference = _READERS[kind]
        assert 1.5 * _read_peak(load, text) < _read_peak(reference, text)


_ROUTE = '{"x": 0, "y": 1, "path": [0, 1]}'
_XY_PATH = re.compile(r'"x": (\d+), "y": (\d+), "path": (\[[^]]*\])')


@pytest.mark.parametrize("kind, text, edit", [
    # "path" first: a cut falls after the path's "]", inside its route
    ("plan", '{"routes": [%s]}' % ", ".join(
        ['{"path": [0, 1], "x": 0, "y": 1}'] * 3),
     lambda text: _XY_PATH.sub(r'"path": \3, "x": \1, "y": \2', text)),
    # each route's string "]," starts 9 characters in: a cut inside it
    ("plan", '{"routes": [%s]}' % ", ".join(
        ['{"note": "],", "x": 0, "y": 1, "path": [0, 1]}'] * 3),
     lambda text: text.replace('{"x"', '{"note": "],", "x"')),
    ("graph", '{"n": 3, "edges": [[0, 1], [[1, 2], 0], [0, 2]]}',
     lambda text: text.replace("[\n    [", "[\n    [[0, 1], 0],\n    [", 1)),
], ids=["nested-value", "string", "nested-row"])
def test_a_cut_inside_a_string_or_a_nested_value_is_read_row_by_row(
        monkeypatch, kind, text, edit):
    # the chunk does not parse, so its rows are read one at a time
    monkeypatch.setattr(formats, "_CHUNK_CHARS", 10)
    _assert_reads_as_reference(kind, text)
    _assert_read_in_writer_memory(monkeypatch, kind, edit)


@pytest.mark.parametrize("kind, text, edit", [
    ("graph", '{"n": 3, "edges": [[0, 1]], "n": 2}',
     lambda text: text.replace("{", '{"n": 3, ', 1)),
    ("graph", '{"edges": [[0, 1]], "n": 3, "edges": [[1, 2]]}',
     _last_key('"edges": [[1, 2]]')),
    ("pairing", '{"pairs": [[0, 1]], "pairs": [[2, 3]]}',
     lambda text: text.replace("{", '{"pairs": [[0, 1]], ', 1)),
    ("plan", '{"routes": [%s], "m": 2, "routes": []}' % _ROUTE,
     _last_key('"routes": []')),
    ("plan", '{"m": 2, "routes": [%s], "m": 3}' % _ROUTE, _last_key('"m": 3')),
], ids=["graph-n", "graph-edges", "pairing-pairs", "plan-routes", "plan-m"])
def test_a_repeated_key_keeps_its_last_value(monkeypatch, kind, text, edit):
    # json keeps a repeated key's last value, and so does the reader
    _assert_reads_as_reference(kind, text)
    _assert_read_in_writer_memory(monkeypatch, kind, edit)


@pytest.mark.parametrize("kind, text", [
    ("graph", '{"n": 3, "edges": [[0, 1], [true, 2]]}'),
    ("graph", '{"n": 3, "edges": [[0, 1], [0, 1.0]]}'),
    ("graph", '{"n": 3, "edges": [[0, 1], [0, %d]]}' % 2**63),
    ("graph", '{"n": 3, "edges": [[0, 1], [1, 2],]}'),
    ("graph", '{"n": 3, "edges": [[0, 1]],}'),
    ("graph", '{"n": 3, "edges": [[0, 1]]} []'),
    ("graph", '{"n": true, "edges": [[0, 1]]}'),
    ("graph", '{"n": 3, "edges": {"0": 1}}'),
    # U+2028 is whitespace to Python's \s but not to JSON, nor is a BOM
    ("graph", '{"n": 3, "edges": [[0, 1]\u2028, [1, 2]]}'),
    ("graph", '{"n": 3, "edges": [[0, 1]]\u2028}'),
    ("pairing", '\ufeff{"pairs": [[0, 1]]}'),
    ("pairing", '{"pairs": [[0, 1], [2]]}'),
    ("plan", '{"routes": [{"x": 0, "y": 1, "path": [0, 01]}]}'),
    ("plan", '{"routes": [%s, {"x": 2, "y": 3}]}' % _ROUTE),
    ("plan", '{"routes": [%s, {"x": 2, "y": 1e3, "path": [2]}]}' % _ROUTE),
    ("plan", '{"routes": [%s, [2, 3]]}' % _ROUTE),
    ("plan", '{"routes": []'),
])
def test_a_failed_check_is_named_as_the_whole_reader_names_it(
        monkeypatch, kind, text):
    monkeypatch.setattr(formats, "_CHUNK_CHARS", 1)
    load, reference = _READERS[kind]
    outcome = _outcome(load, text)
    assert outcome[0] == "error"
    assert outcome == _outcome(reference, text)


@pytest.mark.parametrize("kind, edit", [
    ("graph", _last_row("[0, 1.5]")),
    ("graph", lambda text: text.replace('"n": ', '"n": true, "m": ', 1)),
    ("graph", _last_row("[0, 1],")),
    ("pairing", _last_row("[2]")),
    ("plan", _last_row('{"x": 2, "y": 3}')),
    ("plan", _last_row('{"x": 2, "y": 3, "path": [2, 1e3]}')),
    ("plan", _last_key("")),
], ids=["graph-float", "graph-n-true", "graph-trailing-comma",
        "pairing-short-row", "plan-no-path", "plan-float",
        "plan-trailing-comma"])
def test_a_failed_check_is_named_without_a_whole_read(monkeypatch, kind,
                                                      edit):
    # the first error in a document of dozens to hundreds of chunks
    _assert_read_in_writer_memory(monkeypatch, kind, edit)


_DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("kind, text", [
    ("graph", '{"n": 3, "edges": [%s]}' % _DEEP),
    ("graph", '{"n": 3, "note": %s, "edges": []}' % _DEEP),
    ("pairing", '{"pairs": [[0, 1], %s]}' % _DEEP),
    ("pairing", '{"pairs": [], "note": %s}' % _DEEP),
    ("plan", '{"routes": %s}' % _DEEP),
    ("plan", '{"routes": [], "m": %s}' % _DEEP),
    ("plan", _DEEP),
], ids=["graph-rows", "graph-annotation", "pairing-rows",
        "pairing-annotation", "plan-rows", "plan-annotation", "no-object"])
def test_json_nested_past_the_recursion_limit_is_a_format_error(kind, text):
    # json raises RecursionError, which cli.main would not turn into exit 2
    with pytest.raises(FormatError, match="^invalid JSON: nested too deeply$"):
        _READERS[kind][0](text)


@functools.cache
def _m16_documents() -> dict[str, str]:
    b = build(16)
    return {"graph": dumps_graph(b.graph, "json",
                                 {"blown_cycle": {"m": 16, "q": b.q}}),
            "plan": dumps_plan(route(b, random_perfect_pairing(b.n, 1)),
                               {"m": 16, "seed": 1})}


@pytest.mark.parametrize("kind, edit", [
    ("graph", _insert_row(60_000, "[0 1]")),
    ("graph", _last_row("[0 1]")),
    ("plan", lambda text: text.replace("}\n  ]", "},\n  ]")),
], ids=["graph-row-60000", "graph-last-row", "plan-comma-after-last-route"])
def test_syntax_errors_deep_in_a_file_are_named_where_they_are(kind, edit):
    text = edit(_m16_documents()[kind])
    load, reference = _READERS[kind]
    with pytest.raises(FormatError) as err:
        load(text)
    assert re.fullmatch(r"invalid JSON: .+: line \d+ column \d+ \(char \d+\)",
                        str(err.value))
    assert _outcome(load, text) == _outcome(reference, text)


_WHITESPACE = st.sampled_from(["", " ", "\n    ", "\t", "\r\n"])
# mutations: tokens that are no id, or no JSON; strings and rows that look
# like a cut or a rows key
_ODD = st.sampled_from([
    "true", "1.0", "1e3", "01", "-", str(2**63), "null", '"],"', '"},"',
    '"\\"edges\\": ["', '"\\"pairs\\": ["', '"\\"routes\\": ["', "[0, [1]]",
    "[[0, 1]]", "[]", "{}", '{"x": 0}', '"a'])
_STRINGS = st.sampled_from(["],", "},", '"edges": [', '"pairs": [',
                            '"routes": [', "]]", "}]", "a"])
_ANNOTATION = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _STRINGS
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_STRINGS, inner, max_size=3), max_leaves=6)


@st.composite
def _documents(draw, kind):
    """A document for the reader of kind, in any JSON whitespace and key
    order, mutated or not."""
    budget, mutated = draw(st.integers(0, 2)), 0

    def odd(share=8):  # whether to put a mutation here
        nonlocal mutated
        hit = mutated < budget and draw(st.sampled_from([False] * share
                                                        + [True]))
        mutated += hit
        return hit

    def ws():
        if odd(share=40):
            return draw(st.sampled_from(["\u2028", "\xa0", "\f"]))
        return draw(_WHITESPACE)

    def seq(items, opening, closing):
        text = opening + ws()
        for i, item in enumerate(items):
            text += (ws() + "," + ws()) * (i > 0) + item
        if items and odd():  # a trailing comma
            text += ","
        return text + ws() + closing

    def obj(pairs):
        return seq([json.dumps(key) + ws() + ":" + ws() + emit(value)
                    for key, value in pairs], "{", "}")

    def emit(value):
        if odd():
            return draw(_ODD)
        if isinstance(value, list):
            return seq([emit(item) for item in value], "[", "]")
        if isinstance(value, dict):
            return obj(value.items())
        return json.dumps(value)

    if kind == "graph":
        n = draw(st.integers(2, 6))
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        rows = [list(e) for e in draw(st.lists(edge, max_size=8))]
        fields = [("n", n), ("edges", rows)]
    elif kind == "pairing":
        ends = draw(st.permutations(range(2 * draw(st.integers(0, 5)))))
        fields = [("pairs", [list(ends[i:i + 2])
                             for i in range(0, len(ends), 2)])]
    else:
        ids = st.integers(-2, 9)
        routes = []
        for x, y, path in draw(st.lists(st.tuples(
                ids, ids, st.lists(ids, max_size=4)), max_size=6)):
            keys = draw(st.permutations(["x", "y", "path"]))
            routes.append(dict(zip(keys, (dict(x=x, y=y, path=path)[k]
                                          for k in keys))))
        fields = [("routes", routes), ("edges_used", len(routes))]
    extra = draw(st.dictionaries(st.sampled_from(["m", "seed", "note",
                                                  "blown_cycle"]),
                                 _ANNOTATION, max_size=3))
    fields = draw(st.permutations(fields + list(extra.items())))
    if odd(share=4):  # a key given twice
        key, value = draw(st.sampled_from(fields))
        fields.insert(draw(st.integers(0, len(fields))),
                      (key, draw(st.sampled_from([value, [], 0]))))
    text = ws() + obj(fields) + ws()
    if odd():  # extra data after the document
        text += draw(_ODD)
    return text


@given(st.sampled_from(sorted(_READERS)).flatmap(
           lambda kind: st.tuples(st.just(kind), _documents(kind))),
       st.sampled_from([0, 1, 7, 40]))
@settings(max_examples=500, deadline=None)
def test_chunked_readers_match_the_whole_document_reader(doc, chars):
    kind, text = doc
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_CHUNK_CHARS", chars)
        texts = _json_loads_texts(patch)
        _assert_reads_as_reference(kind, text)
    # documents this small allocate too little for a memory bound to tell a
    # whole read from a read by chunks: json.loads never sees an object whole
    if text.lstrip(" \t\n\r").startswith("{"):
        assert text not in texts


def _json_loads_texts(patch):
    """The texts that formats hands to json.loads."""
    texts = []
    module = types.SimpleNamespace(**vars(json))
    module.loads = lambda text: texts.append(text) or json.loads(text)
    patch.setattr(formats, "json", module)
    return texts


@pytest.mark.parametrize("m, digest, size", [
    (16, "23b0e2cae0f10214547a92a75a7622d963e8fc283fbec066f444983bef86718f",
     2_437_006),
    (24, "70f1590b3206cea33a84cd746608ec379e15a9777d7d49cdb0c288b4ed8ab270",
     8_248_366),
])
def test_blown_cycle_graph_files_keep_their_bytes(tmp_path, m, digest, size):
    out = tmp_path / "g.json"
    assert main(["generate", "--family", "blown-cycle", "--m", str(m),
                 "-o", str(out)]) == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)


def _traced_peak(call, *args):
    """call(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_json_is_written_and_read_in_bounded_memory():
    b = build(16)
    text, peak = _traced_peak(dumps_graph, b.graph, "json",
                              {"blown_cycle": {"m": 16, "q": b.q}})
    assert peak <= 4 * len(text)
    (g, _), peak = _traced_peak(loads_graph, text)
    assert g == b.graph
    assert peak <= 4 * len(text)


def test_plan_json_is_written_and_read_in_bounded_memory():
    b = build(48)
    plan = route(b, random_perfect_pairing(b.n, 1))
    plan.edges_used  # a count the plan caches, not the writer's work
    text, peak = _traced_peak(dumps_plan, plan, {"m": 48, "seed": 1})
    assert peak <= 4 * len(text)
    (loaded, _), peak = _traced_peak(loads_plan, text)
    assert loaded == plan
    assert peak <= 4 * len(text)
