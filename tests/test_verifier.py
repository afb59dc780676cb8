import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairpath
from helpers import (ORACLE_GRAPHS, pair_tuples, reference_verify_plan,
                     to_networkx)
from pairpath.blowup import build
import pairpath.routing as routing_module
from pairpath.formats import dumps_plan, loads_plan
from pairpath.graph import generate, make_graph
from pairpath.rng import SplitMix64
from pairpath.routing import Pairing, PairingError, Route, RoutePlan, \
    make_pairing, random_perfect_pairing, route
from pairpath.verify import (EDGE_REUSED, ENDPOINT_NOT_IN_PAIRING, NOT_A_WALK,
                             WRONG_ENDPOINTS, verify_plan)


def plan_of(*routes):
    return RoutePlan(routes=tuple(Route(x=p[0], y=p[-1], path=tuple(p))
                                  for p in routes), used_edges={})


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_golden_report_covers_every_check():
    # path 0..8 plus chord (0, 2); vertex 8 is in no pair, 9 and -1 are not
    # vertices.  Route 0 reuses its own edge (1, 2) and revisits 2, route 1
    # ends at the wrong pair member and reuses route 0's edges, route 2
    # skips (2, 4), loops at 4 and leaves the graph, route 3 ends at the
    # stray vertex 8, route 4 has no pair; cut to two routes, pairs 2 and 3
    # are missing.  The expected texts come from the earlier verifier,
    # which checked steps against adjacency sets.
    g = make_graph(9, [(i, i + 1) for i in range(8)] + [(0, 2)])
    pairing = make_pairing([(0, 3), (1, 5), (2, 6), (4, 7)])
    routes = ([0, 2, 1, 2, 3], [1, 2, 3, 4], [2, 4, 4, 9, -1, 6], [7, 8],
              [5, 6])
    extra = verify_plan(g, pairing, plan_of(*routes))
    assert extra.to_json() == (
        GOLDEN / "verify_report_extra_route.json").read_text()
    missing = verify_plan(g, pairing, plan_of(*routes[:2]))
    assert missing.to_json() == (
        GOLDEN / "verify_report_missing_route.json").read_text()
    assert {v.kind for v in extra.violations} == {
        NOT_A_WALK, WRONG_ENDPOINTS, EDGE_REUSED, ENDPOINT_NOT_IN_PAIRING}


def test_valid_routed_plan_passes(blown2):
    pairing = random_perfect_pairing(blown2.n, 3)
    report = verify_plan(blown2.graph, pairing, route(blown2, pairing))
    assert report.ok
    assert report.violations == ()


def test_edge_reuse_is_flagged_with_both_owners():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    pairing = make_pairing([(0, 3), (1, 2)])
    report = verify_plan(g, pairing, plan_of([0, 1, 2, 3], [1, 2]))
    assert not report.ok
    reuse = [v for v in report.violations if v.kind == EDGE_REUSED]
    assert reuse == [reuse[0]]
    assert reuse[0].pair_indexes == (0, 1)
    assert reuse[0].edge == (1, 2)


def test_edge_reuse_within_one_route_is_flagged():
    g = make_graph(3, [(0, 1), (1, 2)])
    pairing = make_pairing([(0, 1)])
    report = verify_plan(g, pairing, plan_of([0, 1, 2, 1]))
    kinds = [v.kind for v in report.violations]
    assert EDGE_REUSED in kinds


def test_skipping_adjacency_is_not_a_walk(blown2):
    pairing = make_pairing([(blown2.vertex(0, 0), blown2.vertex(2, 0))])
    report = verify_plan(blown2.graph, pairing,
                         plan_of([blown2.vertex(0, 0), blown2.vertex(2, 0)]))
    assert not report.ok
    assert report.violations[0].kind == NOT_A_WALK
    assert report.violations[0].edge == (0, 22)


def test_vertex_out_of_range_is_not_a_walk():
    g = make_graph(2, [(0, 1)])
    report = verify_plan(g, make_pairing([(0, 1)]), plan_of([0, 7, 1]))
    assert not report.ok
    assert any(v.kind == NOT_A_WALK for v in report.violations)


def test_wrong_endpoints_flagged():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    pairing = make_pairing([(0, 3), (1, 2)])
    report = verify_plan(g, pairing, plan_of([0, 1, 2], [1, 2]))
    assert not report.ok
    assert report.violations[0].kind == WRONG_ENDPOINTS
    assert report.violations[0].pair_indexes == (0,)


def test_route_for_vertex_outside_pairing():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    pairing = make_pairing([(0, 1), (2, 3)])
    report = verify_plan(g, pairing, plan_of([0, 1], [2, 1, 0]))
    # second route ends at 0, which belongs to the pairing but not pair 1;
    # a route to a vertex no pair mentions is the stray-endpoint case
    assert not report.ok
    assert report.violations[0].kind == WRONG_ENDPOINTS
    g2 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    pairing2 = make_pairing([(0, 1), (2, 3)])
    report2 = verify_plan(g2, pairing2, plan_of([0, 1], [2, 3, 4]))
    assert not report2.ok
    assert report2.violations[0].kind == ENDPOINT_NOT_IN_PAIRING
    assert report2.violations[0].vertex == 4


def test_extra_route_is_flagged():
    g = make_graph(3, [(0, 1), (1, 2)])
    report = verify_plan(g, make_pairing([(0, 1)]), plan_of([0, 1], [1, 2]))
    assert not report.ok
    assert report.violations[0].kind == ENDPOINT_NOT_IN_PAIRING
    assert report.violations[0].pair_indexes == (1,)


def test_missing_route_is_flagged():
    g = make_graph(4, [(0, 1), (2, 3)])
    report = verify_plan(g, make_pairing([(0, 1), (2, 3)]), plan_of([0, 1]))
    assert not report.ok
    assert report.violations[0].kind == WRONG_ENDPOINTS
    assert report.violations[0].pair_indexes == (1,)


def test_vertex_repetition_is_a_warning_not_a_violation():
    # bowtie: two triangles sharing vertex 0; the walk revisits 0 but
    # repeats no edge
    g = make_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    pairing = make_pairing([(1, 0)])
    report = verify_plan(g, pairing, plan_of([1, 2, 0, 3, 4, 0]))
    assert report.ok
    assert report.violations == ()
    assert len(report.warnings) == 1
    assert report.warnings[0].kind == "vertex-repeated"
    assert report.warnings[0].vertex == 0


def test_verifier_ignores_stored_edge_count(blown2):
    # a tampered plan understating its edge usage still fails on the paths
    pairing = make_pairing([(0, 1)])
    text = json.dumps({
        "routes": [{"x": 0, "y": 1, "path": [0, 12, 0, 12, 1]}],
        "edges_used": 1,
    })
    plan, _ = loads_plan(text)
    report = verify_plan(blown2.graph, pairing, plan)
    assert not report.ok
    assert any(v.kind == EDGE_REUSED for v in report.violations)


def test_report_json_is_stable(blown2):
    pairing = random_perfect_pairing(blown2.n, 4)
    report = verify_plan(blown2.graph, pairing, route(blown2, pairing))
    assert report.to_json() == report.to_json()
    doc = json.loads(report.to_json())
    assert list(doc) == ["ok", "violations", "warnings"]


def test_ok_iff_no_violations():
    g = make_graph(2, [(0, 1)])
    good = verify_plan(g, make_pairing([(0, 1)]), plan_of([0, 1]))
    bad = verify_plan(g, make_pairing([(0, 1)]), plan_of([1, 0, 1]))
    assert good.ok and not good.violations
    assert not bad.ok and bad.violations


class _UnreadOwnerMap(Mapping):
    """An owner map that fails the test when anything reads it."""

    def _read(self, *_):
        raise AssertionError("verify_plan read the owner map")

    __getitem__ = __iter__ = __len__ = _read


def test_verify_plan_never_reads_the_owner_map(blown2):
    pairing = random_perfect_pairing(blown2.n, 3)
    good = route(blown2, pairing)
    plan = RoutePlan(routes=good.routes, used_edges=_UnreadOwnerMap())
    assert verify_plan(blown2.graph, pairing, plan).ok
    # a reused edge is still found from the paths alone
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    reused = RoutePlan(routes=(Route(0, 2, (0, 1, 2)), Route(3, 1, (3, 2, 1))),
                       used_edges=_UnreadOwnerMap())
    report = verify_plan(g, make_pairing([(0, 2), (3, 1)]), reused)
    assert [(v.kind, v.pair_indexes) for v in report.violations] \
        == [(EDGE_REUSED, (0, 1))]


def test_empty_pairing_empty_plan():
    g = make_graph(2, [(0, 1)])
    report = verify_plan(g, Pairing(()), RoutePlan(routes=(), used_edges={}))
    assert report.ok


# K12 less the edge {1, 6}; the last route's damage sits at its first
# position, which equals the end of every empty path before it
EMPTY_RUN_GRAPH = make_graph(12, [(u, v) for u in range(12)
                                  for v in range(u + 1, 12) if (u, v) != (1, 6)])
EMPTY_RUN_DAMAGES = {"out-of-range": (12, 3, 7), "repeated": (1, 3, 5, 1, 7),
                     "non-edge": (1, 6, 7), "reused": (1, 2, 7)}


@pytest.mark.parametrize("lead", [0, 2])
@pytest.mark.parametrize("damage", sorted(EMPTY_RUN_DAMAGES))
def test_routes_after_empty_paths_are_named_as_the_reference_names_them(
        damage, lead):
    # `lead` empty paths, a route walking 0-1-2 (which owns {1, 2}), two
    # empty paths, then the damaged route from 1 to 7
    routes = [Route(8 + 2 * i, 9 + 2 * i, ()) for i in range(lead)] \
        + [Route(0, 2, (0, 1, 2)), Route(3, 4, ()), Route(5, 6, ()),
           Route(1, 7, EMPTY_RUN_DAMAGES[damage])]
    pairing = Pairing([(r.x, r.y) for r in routes])
    plan = RoutePlan(routes, used_edges={})
    report = verify_plan(EMPTY_RUN_GRAPH, pairing, plan)
    assert report.to_json() \
        == reference_verify_plan(EMPTY_RUN_GRAPH, pairing, plan).to_json()
    flagged = [v.pair_indexes for v in report.violations
               if v.kind in (NOT_A_WALK, EDGE_REUSED)]
    flagged += [(w.pair_index,) for w in report.warnings]
    assert flagged and all(idx[-1] == len(routes) - 1 for idx in flagged)


def test_a_plan_of_empty_paths_matches_the_reference():
    pairing = Pairing([(0, 2), (3, 4), (5, 6)])
    plan = RoutePlan([Route(x, y, ()) for x, y in pair_tuples(pairing)],
                     used_edges={})
    report = verify_plan(EMPTY_RUN_GRAPH, pairing, plan)
    assert report.to_json() \
        == reference_verify_plan(EMPTY_RUN_GRAPH, pairing, plan).to_json()
    assert [(v.kind, v.vertex) for v in report.violations] \
        == [(WRONG_ENDPOINTS, None)] * 3


# ------------------------------------------------- reference oracle


BAD_IDS = {"out-of-range": lambda n: st.integers(n, n + 3),
           "negative": lambda n: st.integers(-3, -1),
           "int64-extreme": lambda n: st.sampled_from([2**63 - 1, -2**63]),
           # plans and pairings hold int64 values only, and refuse these
           "beyond-int64": lambda n: st.sampled_from(
               [2**63, -2**63 - 1, 10**30])}
PLAN_BAD_IDS = ("out-of-range", "negative", "int64-extreme")
MUTATIONS = PLAN_BAD_IDS + (
    "bad-pair", "bad-ends", "reverse", "double-back", "empty", "extra",
    "drop", "reuse-within", "reuse-across", "drop-pair")


# the oracle graphs all have a bit matrix (Graph.bits); the 130-cycle is
# sparse enough to be looked up in its sorted keys
PLAN_GRAPHS = {**ORACLE_GRAPHS, "cycle-130": generate("cycle", (130,))}


def test_plan_graphs_take_both_edge_lookups():
    assert {name for name, g in PLAN_GRAPHS.items() if g.bits is None} \
        == {"cycle-130"}


@st.composite
def mutated_plans(draw):
    """(graph, pairing, plan): a perfect pairing of a graph of PLAN_GRAPHS,
    routed by the router on blown cycles and by shortest paths (which may
    share edges) elsewhere, then damaged by a few drawn mutations."""
    name = draw(st.sampled_from(sorted(PLAN_GRAPHS)))
    g = PLAN_GRAPHS[name]
    pairing = random_perfect_pairing(g.n, draw(st.integers(0, 2**32)))
    if name.startswith("blown-cycle-"):
        b = build(int(name.rsplit("-", 1)[1]))
        paths = [list(r.path) for r in route(b, pairing).routes]
    else:
        h = to_networkx(g)
        paths = [nx.shortest_path(h, x, y) for x, y in pairing.ids.tolist()]
    routes = [[path[0], path[-1], path] for path in paths]
    pairs = list(pair_tuples(pairing))
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1,
                              max_size=4)):
        if not routes:
            break
        i = draw(st.integers(0, len(routes) - 1))
        x, y, path = routes[i]
        if kind in PLAN_BAD_IDS:
            bad = draw(BAD_IDS[kind](g.n))
            slot = draw(st.integers(0, len(path) + 1))
            if slot == len(path):
                routes[i][0] = bad
            elif slot == len(path) + 1:
                routes[i][1] = bad
            else:
                path[slot] = bad
        elif kind == "bad-pair" and i < len(pairs):
            # a pair endpoint out of range, negative or at an int64
            # extreme; ids must stay distinct across pairs
            bad = draw(BAD_IDS[draw(st.sampled_from(
                ["out-of-range", "negative", "int64-extreme"]))](g.n))
            if all(bad not in pair for pair in pairs):
                pair = list(pairs[i])
                pair[draw(st.integers(0, 1))] = bad
                pairs[i] = tuple(pair)
        elif kind == "bad-ends" and i < len(pairs):
            # the path end, y and the pair's other end become three distinct
            # out-of-range ids, which the array check all reads as -1; the
            # pair keeps its smaller end, and with it its place in the order
            end, bad_y, paired = draw(st.lists(
                BAD_IDS["out-of-range"](g.n), min_size=3, max_size=3,
                unique=True))
            keep = min(pairs[i])
            if all(paired not in pair for pair in pairs):
                routes[i] = [keep, bad_y, [keep] + path[1:-1] + [end]]
                pairs[i] = (keep, paired)
        elif kind == "reverse":
            routes[i] = ([y, x] if draw(st.booleans()) else [x, y]) \
                + [path[::-1]]
        elif kind == "double-back":
            routes[i][2] = path + path[-2::-1]
        elif kind == "empty":
            routes[i][2] = []
        elif kind == "extra":
            routes.append(list(routes[i][:2]) + [list(path)])
        elif kind == "drop":
            del routes[i]
        elif kind == "reuse-within" and len(path) >= 2:
            j = draw(st.integers(0, len(path) - 2))
            routes[i][2] = path[:j + 2] + [path[j]] + path[j + 1:]
        elif kind == "reuse-across":
            routes[i][2] = list(routes[draw(st.integers(
                0, len(routes) - 1))][2])
        elif kind == "drop-pair" and i < len(pairs):
            del pairs[i]
    plan = RoutePlan(routes=tuple(Route(x=x, y=y, path=tuple(path))
                                  for x, y, path in routes), used_edges={})
    return g, make_pairing(pairs), plan


@given(mutated_plans())
@settings(max_examples=300, deadline=None)
def test_reports_match_the_reference_loop(case):
    g, pairing, plan = case
    assert verify_plan(g, pairing, plan).to_json() \
        == reference_verify_plan(g, pairing, plan).to_json()


@given(st.integers(2, 40).map(lambda n: n - n % 2), st.integers(0, 2**32),
       st.data())
@settings(max_examples=60, deadline=None)
def test_pair_endpoints_beyond_int64_are_refused(n, seed, data):
    # a pairing holds int64 values only: a pair endpoint beyond int64 is
    # refused where the pairing is built, naming the first in pair order
    pairs = list(pair_tuples(random_perfect_pairing(n, seed)))
    i = data.draw(st.integers(0, len(pairs) - 1))
    bad = data.draw(BAD_IDS["beyond-int64"](n))
    pair = list(pairs[i])
    pair[data.draw(st.integers(0, 1))] = bad
    pairs[i] = tuple(pair)
    for build_it in (make_pairing, Pairing):
        with pytest.raises(PairingError,
                           match=f"^vertex {bad} lies beyond int64$"):
            build_it(pairs + [(10**40, -10**40)])


DAMAGES = ("drop-step", "reuse-edge", "stray-end", "out-of-range", "extra")


def damaged_plan_file(b, seed):
    """(pairing, plan JSON): a routed plan of b, with about one pair in
    eight left out of the pairing and the plan, then damaged at a few
    seeded places.  Every value stays a nonnegative integer, so loads_plan
    reads the file as arrays."""
    rng = SplitMix64(seed)
    doc = json.loads(dumps_plan(route(b, random_perfect_pairing(b.n, seed))))
    kept, unpaired = [], []
    for r in doc["routes"]:
        if rng.randrange(8):
            kept.append(r)
        else:
            unpaired += [r["x"], r["y"]]
    pairing = make_pairing((r["x"], r["y"]) for r in kept)
    for _ in range(1 + rng.randrange(4)):
        kind = DAMAGES[rng.randrange(len(DAMAGES))]
        path = kept[rng.randrange(len(kept))]["path"]
        if kind == "drop-step" and len(path) > 2:
            del path[1 + rng.randrange(len(path) - 2)]
        elif kind == "reuse-edge":
            j = rng.randrange(len(path) - 1)
            path[j + 2:j + 2] = path[j:j + 2]
        elif kind == "stray-end" and unpaired:
            path[-1] = unpaired[rng.randrange(len(unpaired))]
        elif kind == "out-of-range":
            path[rng.randrange(len(path))] = b.n + rng.randrange(3)
        elif kind == "extra":
            kept.append(json.loads(json.dumps(kept[0])))
    doc["routes"] = kept
    return pairing, json.dumps(doc)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_array_and_route_plans_give_the_same_report(m, monkeypatch):
    b = build(m)
    rejected = 0
    for seed in range(12):
        pairing, text = damaged_plan_file(b, seed)
        with monkeypatch.context() as patched:
            patched.setattr(routing_module, "Route", None)  # arrays only
            loaded, _ = loads_plan(text)
            report = verify_plan(b.graph, pairing, loaded).to_json()
        given = RoutePlan(loaded.routes)
        assert verify_plan(b.graph, pairing, given).to_json() == report
        assert reference_verify_plan(b.graph, pairing, given).to_json() \
            == report
        rejected += not json.loads(report)["ok"]
    assert rejected >= 10


@pytest.mark.parametrize("m", [2, 3, 16])
def test_closed_form_and_built_graph_give_the_same_report(m):
    # verify_plan reads a BlownCycle's edges from m alone, and must say
    # what it says on the graph of keys, for clean and damaged plans
    outcomes = set()
    for seed in range(8):
        clean = random_perfect_pairing(build(m).n, seed)
        damaged, text = damaged_plan_file(build(m), seed)
        for pairing, plan in ((clean, route(build(m), clean)),
                              (damaged, loads_plan(text)[0])):
            b = build(m)
            report = verify_plan(b, pairing, plan)
            assert "graph" not in vars(b)
            assert report.to_json() \
                == verify_plan(b.graph, pairing, plan).to_json()
            outcomes.add(report.ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize("end, y, paired", [(2**63 - 1, -7, 10**30),
                                            (-7, 10**18, 10**30),
                                            (4, -1, 2**63)])
def test_distinct_bad_ids_at_path_end_route_y_and_pair_differ(end, y,
                                                               paired):
    # a pair value beyond int64 is refused where the pairing is built, so
    # the pair's bad id is 2**62 instead, within int64
    with pytest.raises(PairingError,
                       match=f"^vertex {paired} lies beyond int64$"):
        make_pairing([(0, paired), (1, 2)])
    # the three ids are all outside 0..3, and distinct, so route 0 ends at
    # a vertex no pair mentions; the array check reads every such id as -1
    # and must not take them for equal
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    pairing = make_pairing([(0, 2**62), (1, 2)])
    plan = RoutePlan(routes=(Route(0, y, (0, 1, end)), Route(1, 2, (1, 2))),
                     used_edges={})
    report = verify_plan(g, pairing, plan)
    assert report.to_json() == reference_verify_plan(g, pairing, plan).to_json()
    assert (report.violations[0].kind, report.violations[0].vertex) \
        == (ENDPOINT_NOT_IN_PAIRING, end)


def test_non_integer_ids_are_no_vertices():
    # ids are integers, so 0.4, "1" and 2.0 are none, though 2.0 == 2 and
    # truncating would give the walk 0, 1, 2; a plan refuses them, naming
    # the route and the first such value, so verify_plan never sees one
    for path, bad in (((0.4, 1.2, 2.0), "0.4"), ((0, "1", 2), "'1'"),
                      ((0, 1, 2.0), "2.0")):
        with pytest.raises(PairingError,
                           match=rf"^route #0: vertex {bad} is not an "
                                 r"integer id$"):
            plan_of(path)
        doc = {"routes": [{"x": path[0], "y": path[-1], "path": list(path)}]}
        with pytest.raises(ValueError, match=r"route #0"):
            loads_plan(json.dumps(doc))


_STRAY_ENDS_REPORT = """
from pairpath.graph import make_graph
from pairpath.routing import Route, RoutePlan, make_pairing
from pairpath.verify import verify_plan
plan = RoutePlan(routes=(Route(3, 4, (3, 1, 4)),), used_edges={})
print(verify_plan(make_graph(5, [(0, 1), (1, 2), (2, 3)]),
                  make_pairing([(0, 2)]), plan).to_json(), end="")
"""


def test_two_stray_ends_name_the_first_under_any_hash_seed():
    # both ends are strays, and -5 is no vertex; the entry names path[0],
    # the same in every process whatever its hash seed
    g = make_graph(5, [(0, 1), (1, 2), (2, 3)])
    pairing = make_pairing([(0, 2)])
    for path in ((3, 1, 4), (4, 1, 3), (-5, 1, 3), (3, 1, -5)):
        plan = plan_of(path)
        report = verify_plan(g, pairing, plan)
        assert (report.violations[0].kind, report.violations[0].vertex) \
            == (ENDPOINT_NOT_IN_PAIRING, path[0])
        assert report.to_json() \
            == reference_verify_plan(g, pairing, plan).to_json()
    src = str(pathlib.Path(pairpath.__file__).parents[1])
    outs = {subprocess.run(
        [sys.executable, "-c", _STRAY_ENDS_REPORT], capture_output=True,
        text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}).stdout
        for seed in ("1", "2")}
    assert outs == {verify_plan(g, pairing, plan_of((3, 1, 4))).to_json()}


def test_stray_end_on_a_huge_graph_allocates_nothing_of_size_n():
    # n = 10**9: one bool or int per vertex would take at least 1 GB
    g = make_graph(10**9, [(0, 1), (1, 2)])
    tracemalloc.start()
    try:
        report = verify_plan(g, make_pairing([(0, 2)]), plan_of([0, 1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [(v.kind, v.vertex) for v in report.violations] \
        == [(ENDPOINT_NOT_IN_PAIRING, 1)]


@pytest.mark.parametrize("m", [16, 48])
def test_verify_plan_holds_few_plan_sized_arrays_at_once(m):
    # each plan-sized temporary is freed before the next is made, so a
    # clean plan's check peaks below 8 int64 arrays the size of its paths
    b = build(m)
    pairing = random_perfect_pairing(b.n, 1)
    plan = route(b, pairing)
    for g in (b.graph, b):
        verify_plan(g, pairing, plan)  # builds g's lookup (Graph.bits)
        tracemalloc.start()
        try:
            report = verify_plan(g, pairing, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak <= 8 * plan.paths.nbytes


def test_pair_value_that_is_no_id_is_no_endpoint():
    # 2**64 + 2 would wrap to 2 in 64 bits, so a pairing refuses it, as it
    # refuses every value beyond int64
    with pytest.raises(PairingError,
                       match=f"^vertex {2**64 + 2} lies beyond int64$"):
        Pairing(((0, 2**64 + 2),))
    # int64's largest value is no id, so the pair has one endpoint and the
    # path's end 2 is a stray
    g = make_graph(3, [(0, 1), (1, 2)])
    pairing = Pairing(((0, 2**63 - 1),))
    plan = plan_of((0, 1, 2))
    report = verify_plan(g, pairing, plan)
    assert [(v.kind, v.vertex) for v in report.violations] \
        == [(ENDPOINT_NOT_IN_PAIRING, 2)]
    assert report.to_json() \
        == reference_verify_plan(g, pairing, plan).to_json()
    # a value that is no integer, such as 2.0 though it equals 2, is refused
    with pytest.raises(PairingError, match=r"^vertex 2\.0 is not an integer id$"):
        Pairing(((0, 2.0),))
