import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import pairpath
import pairpath.blowup as blowup_module
import pairpath.routing as routing_module
from pairpath.cli import main
from pairpath.formats import dumps_graph, dumps_pairing, loads_graph
from pairpath.graph import generate, make_graph
from pairpath.routing import make_pairing

from helpers import (HALL_DEFICIENT_M4, HALL_DEFICIENT_M4_PLAN,
                     SHARED_END_PAIRS_M2, blown_cycle_edges, path_graph)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- generate


def test_generate_blown_cycle_json(capsys):
    code, out, _ = run(capsys, "generate", "--family", "blown-cycle",
                       "--m", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 90
    assert doc["blown_cycle"] == {"m": 3, "q": 15}


def test_generate_to_file_round_trips(capsys, tmp_path):
    for fmt in ("json", "dot", "edgelist"):
        target = tmp_path / f"petersen.{fmt}"
        code, out, _ = run(capsys, "generate", "--family", "petersen",
                           "--format", fmt, "-o", str(target))
        assert code == 0
        assert out == ""
        g, _ = loads_graph(target.read_text(), fmt)
        assert g.n == 10
        assert g.edge_count == 15


def test_generate_validates_params(capsys):
    assert run(capsys, "generate", "--family", "cycle")[0] == 2
    assert run(capsys, "generate", "--family", "cycle", "--k", "5",
               "--dim", "3")[0] == 2
    assert run(capsys, "generate", "--family", "blown-cycle", "--m", "1")[0] \
        == 2


# ---------------------------------------------------------------- route


def test_route_random_seed(capsys):
    code, out, err = run(capsys, "route", "--m", "2", "--random", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2
    assert doc["seed"] == 7
    assert len(doc["routes"]) == 22
    assert all(len(r["path"]) - 1 <= 4 for r in doc["routes"])
    assert "max_route_length" in err
    assert "edges_used" in err


def test_route_same_seed_is_byte_identical(capsys):
    first = run(capsys, "route", "--m", "3", "--random", "11")
    second = run(capsys, "route", "--m", "3", "--random", "11")
    assert first == second


def test_route_explicit_pairing_file(capsys, tmp_path):
    pairing = make_pairing([(0, 22), (1, 23)])
    src = tmp_path / "pairs.json"
    src.write_text(dumps_pairing(pairing))
    code, out, _ = run(capsys, "route", "--m", "2", "--pairing", str(src))
    assert code == 0
    doc = json.loads(out)
    assert [tuple(r["path"][::len(r["path"]) - 1]) for r in doc["routes"]] \
        == [(0, 22), (1, 23)]
    assert "seed" not in doc


def test_route_hall_deficient_pairing_exits_zero(capsys, monkeypatch):
    code, plan_text, _ = run(capsys, "route", "--m", "4", "--pairing",
                             str(HALL_DEFICIENT_M4))
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(plan_text))
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_route_hall_deficient_plan_bytes_are_golden(capsys):
    code, out, err = run(capsys, "route", "--m", "4", "--pairing",
                         str(HALL_DEFICIENT_M4))
    assert code == 0
    assert out == HALL_DEFICIENT_M4_PLAN.read_text()
    assert err == "n 152\ndiameter 4\nmax_route_length 6\nedges_used 322\n"


@pytest.mark.parametrize("pairs, message", [
    ([[0, 1], [2, -1]], "vertex -1 out of range 0..43"),
    ([[0, 44], [2, 3]], "vertex 44 out of range 0..43"),
    # refused where the pairing is built, before any range check
    ([[0, 1], [10**30, 2]], f"vertex {10**30} lies beyond int64"),
], ids=["minus-one", "n", "beyond-int64"])
def test_route_out_of_range_pairing_exits_two(capsys, tmp_path, pairs,
                                              message):
    src = tmp_path / "pairs.json"
    src.write_text(json.dumps({"pairs": pairs}))
    code, out, err = run(capsys, "route", "--m", "2", "--pairing", str(src))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_route_construction_bug_exits_one(capsys, tmp_path, monkeypatch):
    real = routing_module.free_common_neighbors
    src = tmp_path / "pairs.json"
    src.write_text(dumps_pairing(make_pairing(SHARED_END_PAIRS_M2)))
    for name, fake, message in (
            # one candidate per task starves the second of two walks that
            # end at one vertex
            ("free_common_neighbors", lambda b, u, v: real(b, u, v)[:1],
             "a closing task has no free candidate: construction bug"),
            # the same first candidate for both makes them claim one edge
            ("assign_candidates",
             lambda cand_lists, ends: [c[0] for c in cand_lists],
             "edge (12, 22) claimed by pairs 0 and 1: construction bug")):
        with monkeypatch.context() as patch:
            patch.setattr(routing_module, name, fake)
            code, out, err = run(capsys, "route", "--m", "2",
                                 "--pairing", str(src))
        assert code == 1
        assert out == ""
        assert message in err


def test_route_from_annotated_graph_file(capsys, tmp_path):
    target = tmp_path / "b2.json"
    assert run(capsys, "generate", "--family", "blown-cycle", "--m", "2",
               "-o", str(target))[0] == 0
    code, out, _ = run(capsys, "route", "--graph", str(target),
                       "--random", "0")
    assert code == 0
    assert json.loads(out)["m"] == 2


def test_route_rejects_unannotated_graph(capsys, tmp_path):
    target = tmp_path / "q3.json"
    assert run(capsys, "generate", "--family", "hypercube", "--dim", "3",
               "-o", str(target))[0] == 0
    code, _, err = run(capsys, "route", "--graph", str(target),
                       "--random", "0")
    assert code == 2
    assert "annotation" in err


def test_route_needs_exactly_one_pairing_source(capsys):
    assert run(capsys, "route", "--m", "2")[0] == 2
    assert run(capsys, "route", "--m", "2", "--random", "1",
               "--pairing", "x.json")[0] == 2


def test_route_rejects_options_it_does_not_read(capsys, tmp_path):
    target = tmp_path / "b2.json"
    assert run(capsys, "generate", "--family", "blown-cycle", "--m", "2",
               "-o", str(target))[0] == 0
    for argv in (["--family", "petersen", "--m", "2"],
                 ["--m", "5", "--graph", str(target)],
                 ["--m", "2", "--format", "json"],
                 []):
        code, out, err = run(capsys, "route", *argv, "--random", "1")
        assert code == 2
        assert out == ""
        assert "error:" in err


@pytest.fixture
def built(monkeypatch):
    """The BlownCycles that the commands build, in order."""
    made = []
    real = blowup_module.build

    def spy(m):
        made.append(real(m))
        return made[-1]

    monkeypatch.setattr(blowup_module, "build", spy)
    return made


def test_route_false_annotation_builds_no_graph(capsys, tmp_path, built):
    b2 = blowup_module.BlownCycle(2)
    edges = blown_cycle_edges(b2)
    swapped = edges.copy()
    swapped[0] = (0, 1)  # two vertices of class 0: no edge
    # an m within blowup.build's size limit, so the claim is compared; the
    # last two files have the claimed n, and the last its edge count too
    claims = [(path_graph(2), 50), (make_graph(b2.n, edges[1:]), 2),
              (make_graph(b2.n, swapped), 2)]
    for i, (g, m) in enumerate(claims):
        target = tmp_path / f"claim{i}.json"
        target.write_text(dumps_graph(g, "json", {"blown_cycle": {"m": m}}))
        code, _, err = run(capsys, "route", "--graph", str(target),
                           "--random", "0")
        assert code == 2
        assert "does not match the construction" in err
    assert [b.m for b in built] == [50, 2, 2]
    assert not any("graph" in vars(b) for b in built)


def test_route_annotated_file_builds_no_second_graph(capsys, tmp_path,
                                                     built):
    target = tmp_path / "b3.json"
    target.write_text(dumps_graph(blowup_module.BlownCycle(3).graph, "json",
                                  {"blown_cycle": {"m": 3, "q": 15}}))
    assert run(capsys, "route", "--graph", str(target), "--random", "1") \
        == run(capsys, "route", "--m", "3", "--random", "1")
    assert [b.m for b in built] == [3, 3]
    assert not any("graph" in vars(b) for b in built)


def test_stats_screen_and_verify_build_no_graph(capsys, monkeypatch, built):
    for argv in (["stats", "--family", "blown-cycle", "--m", "3"],
                 ["screen", "--family", "blown-cycle", "--m", "3"]):
        assert run(capsys, *argv)[0] == 0
    code, plan_text, _ = run(capsys, "route", "--m", "3", "--random", "2")
    monkeypatch.setattr("sys.stdin", io.StringIO(plan_text))
    assert run(capsys, "verify")[0] == 0
    assert [b.m for b in built] == [3, 3, 3, 3]
    assert not any("graph" in vars(b) for b in built)


@pytest.mark.parametrize("m", [*range(2, 25), 48])
def test_closed_form_commands_print_what_the_graph_file_prints(capsys,
                                                               tmp_path, m):
    target = tmp_path / "g.json"
    code, _, _ = run(capsys, "generate", "--family", "blown-cycle",
                     "--m", str(m), "-o", str(target))
    assert code == 0
    for command in ("stats", "screen"):
        closed = run(capsys, command, "--family", "blown-cycle",
                     "--m", str(m))
        assert closed[0] == 0
        assert closed == run(capsys, command, "--graph", str(target))


@pytest.mark.parametrize("argv", [["route", "--m", "100000", "--random", "1"],
                                  ["verify", "--plan", "PLAN"]])
def test_m_beyond_the_vertex_limit_exits_2(capsys, tmp_path, argv):
    # n = 2m(4m+3) above graph.MAX_VERTICES is refused before anything of
    # that size is allocated
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"routes": [{"x": 0, "y": 1, "path": [0, 1]}],
                                "m": 100000}))
    code, out, err = run(capsys, *[str(plan) if a == "PLAN" else a
                                   for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: half cycle length 100000 gives "
                          "80000600000 vertices")


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(*_):
        raise MemoryError
    monkeypatch.setattr(routing_module, "route", exhausted)
    assert run(capsys, "route", "--m", "2", "--random", "1") \
        == (2, "", "error: out of memory\n")


# ---------------------------------------------------------------- verify


def test_route_verify_pipe(capsys, monkeypatch):
    code, plan_text, _ = run(capsys, "route", "--m", "2", "--random", "7")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(plan_text))
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_from_plan_file(capsys, tmp_path):
    plan_file = tmp_path / "plan.json"
    code, plan_text, _ = run(capsys, "route", "--m", "2", "--random", "3")
    assert code == 0
    plan_file.write_text(plan_text)
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_flags_tampered_plan(capsys, tmp_path):
    code, plan_text, _ = run(capsys, "route", "--m", "2", "--random", "3")
    doc = json.loads(plan_text)
    doc["routes"][0]["path"][1] = doc["routes"][0]["path"][0]
    plan_file = tmp_path / "bad.json"
    plan_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["violations"]


def test_verify_with_explicit_graph_and_pairing(capsys, tmp_path):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(dumps_graph(path_graph(2), "json"))
    pairing_file = tmp_path / "p.json"
    pairing_file.write_text(dumps_pairing(make_pairing([(0, 1)])))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(
        {"routes": [{"x": 0, "y": 1, "path": [0, 1]}], "edges_used": 1}))
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file),
                       "--graph", str(graph_file),
                       "--pairing", str(pairing_file))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_pairing_beyond_int64_exits_two(capsys, tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(
        {"routes": [{"x": 0, "y": 1, "path": [0, 1]}], "m": 2}))
    pairing_file = tmp_path / "p.json"
    pairing_file.write_text(json.dumps({"pairs": [[0, 2**63]]}))
    code, out, err = run(capsys, "verify", "--plan", str(plan_file),
                         "--pairing", str(pairing_file))
    assert (code, out) == (2, "")
    assert err == f"error: vertex {2**63} lies beyond int64\n"


def test_verify_without_graph_or_annotation_fails(capsys, tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(
        {"routes": [{"x": 0, "y": 1, "path": [0, 1]}], "edges_used": 1}))
    code, _, err = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 2
    assert "--graph" in err


def test_verify_checks_each_route_against_its_own_pair(capsys, tmp_path):
    # without --pairing, route i is judged against (x, y) of route i, in
    # route order; a pairing file's pairs are sorted as route writes them
    graph_file = tmp_path / "c4.json"
    graph_file.write_text(dumps_graph(generate("cycle", (4,)),
                                      "json"))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"routes": [
        {"x": 2, "y": 3, "path": [2, 3]}, {"x": 0, "y": 1, "path": [0, 1]}]}))
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file),
                       "--graph", str(graph_file))
    assert (code, json.loads(out)["ok"]) == (0, True)
    pairing_file = tmp_path / "p.json"
    pairing_file.write_text(dumps_pairing(make_pairing([(2, 3), (0, 1)])))
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file),
                       "--graph", str(graph_file),
                       "--pairing", str(pairing_file))
    assert code == 1
    assert [v["kind"] for v in json.loads(out)["violations"]] \
        == ["wrong-endpoints", "wrong-endpoints"]


@pytest.mark.parametrize("extra", [None, {"x": 5, "y": 5, "path": [5]}],
                         ids=["route-0-again", "x-is-y"])
def test_verify_route_repeating_an_end_has_no_pair(capsys, tmp_path, extra):
    # the pairing stops before the first route that repeats an earlier end
    # (or whose x is its y); that route and later ones are reported, and
    # verify exits 1, not 2
    code, plan_text, _ = run(capsys, "route", "--m", "2", "--random", "7")
    doc = json.loads(plan_text)
    routes = doc["routes"]
    if extra is None:
        routes.append(routes[0])
        cut = len(routes) - 1
    else:
        routes.insert(0, extra)
        cut = 0
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 1
    assert json.loads(out)["violations"] == [
        {"kind": "endpoint-not-in-pairing", "pairs": [idx], "edge": None,
         "vertex": routes[idx]["x"]} for idx in range(cut, len(routes))]


# ---------------------------------------------------------------- decide


def test_decide_c4_exits_one_with_witness(capsys):
    code, out, _ = run(capsys, "decide", "--family", "cycle", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "not-path-pairable"
    assert doc["witness"] == [[0, 2], [1, 3]]


def test_decide_q3_exits_zero(capsys):
    code, out, _ = run(capsys, "decide", "--family", "hypercube", "--dim", "3")
    assert code == 0
    assert json.loads(out)["status"] == "path-pairable"


def test_decide_odd_graph_is_usage_error(capsys):
    code, _, err = run(capsys, "decide", "--family", "cycle", "--k", "5")
    assert code == 2
    assert "even" in err


def test_decide_budget_exhaustion_exits_three(capsys):
    code, out, _ = run(capsys, "decide", "--family", "petersen",
                       "--budget", "50")
    assert code == 3
    assert json.loads(out)["status"] == "inconclusive"


def test_decide_workers_flag(capsys):
    # dim-2 hypercube is the 4-cycle 0-1-3-2; its diagonals pair 0 with 3
    code, out, _ = run(capsys, "decide", "--family", "hypercube", "--dim", "2",
                       "--workers", "2")
    assert code == 1
    assert json.loads(out)["witness"] == [[0, 3], [1, 2]]


@pytest.mark.parametrize("flag", ["--workers", "--budget"])
def test_decide_workers_or_budget_zero_is_usage_error(capsys, flag):
    code, out, err = run(capsys, "decide", "--family", "petersen", flag, "0")
    assert code == 2
    assert out == ""
    assert "at least 1" in err


# ---------------------------------------------------------------- screen


def test_screen_rejects_p20_from_file(capsys, tmp_path):
    target = tmp_path / "p20.json"
    target.write_text(dumps_graph(path_graph(20), "json"))
    code, out, _ = run(capsys, "screen", "--graph", str(target))
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "not-path-pairable"
    assert any(v["condition"] == "layered-cut" for v in doc["violations"])


def test_screen_passes_star(capsys):
    code, out, _ = run(capsys, "screen", "--family", "complete-bipartite",
                       "--a", "1", "--b", "9")
    assert code == 0
    assert json.loads(out)["verdict"] == "cannot-rule-out"


def test_screen_passes_blown_cycle(capsys):
    code, out, _ = run(capsys, "screen", "--family", "blown-cycle", "--m", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "cannot-rule-out"
    assert doc["diameter"] == 4


# ---------------------------------------------------------------- stats


def test_stats_blown_cycle(capsys):
    code, out, _ = run(capsys, "stats", "--family", "blown-cycle", "--m", "2")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["n"] == "44"
    assert lines["edges"] == "484"
    assert lines["max_degree"] == "22"
    assert lines["diameter"] == "2"
    assert lines["diameter_bound_ratio"] == \
        f"{2 / (6 * 2 ** 0.5 * 44 ** 0.5):.6f}"


def test_stats_from_edgelist_file(capsys, tmp_path):
    target = tmp_path / "c6.txt"
    assert run(capsys, "generate", "--family", "cycle", "--k", "6",
               "--format", "edgelist", "-o", str(target))[0] == 0
    code, out, _ = run(capsys, "stats", "--graph", str(target),
                       "--format", "edgelist")
    assert code == 0
    assert "diameter 3" in out


# ---------------------------------------------------------------- usage


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "stats")[0] == 2
    target = tmp_path / "g.json"
    target.write_text(dumps_graph(path_graph(2), "json"))
    assert run(capsys, "stats", "--family", "cycle", "--k", "4",
               "--graph", str(target))[0] == 2
    assert run(capsys, "stats", "--graph", str(tmp_path / "missing.json"))[0] \
        == 2


@pytest.mark.parametrize("argv, doc", [
    (["stats", "--graph"], {"n": 3, "edges": 5}),
    (["screen", "--graph"], {"n": 3, "edges": 5}),
    (["generate", "--graph"], {"n": 3, "edges": 5}),
    (["verify", "--plan", "-", "--graph"], {"n": 3, "edges": 5}),
    (["route", "--m", "2", "--pairing"], {"pairs": 5}),
    (["verify", "--plan"], {"routes": 5}),
    (["verify", "--plan"],
     {"routes": [{"x": [0], "y": 1, "path": [0, 1]}], "m": 2}),
    (["route", "--random", "0", "--graph"],
     {"n": 44, "edges": [], "blown_cycle": {"m": [2]}}),
    (["route", "--random", "0", "--graph"],
     {"n": 44, "edges": [], "blown_cycle": {"m": "2"}}),
    # each edge row below would make a connected graph if it were accepted
    (["stats", "--graph"], {"n": 2, "edges": [[False, True]]}),
    (["stats", "--graph"], {"n": 3, "edges": [[0, 1], [True, 2]]}),
    (["stats", "--graph"], {"n": 2, "edges": [[0.0, 1]]}),
    (["stats", "--graph"], {"n": 3, "edges": [[0, 1], [2]]}),
    (["stats", "--graph"], {"n": 3, "edges": [[0, 1, 2]]}),
    (["stats", "--graph"], {"n": 2, "edges": [[0, 1], [0, 10**30]]}),
    # true is no JSON integer, though Python's bool is an int
    (["stats", "--graph"], {"n": True, "edges": []}),
    (["verify", "--plan"],
     {"routes": [{"x": True, "y": 0, "path": [1, 0]}], "m": 2}),
    (["verify", "--plan"],
     {"routes": [{"x": 0, "y": True, "path": [0, 1]}], "m": 2}),
    (["verify", "--plan"],
     {"routes": [{"x": 0, "y": 1, "path": [0, True]}], "m": 2}),
], ids=["stats-edges", "screen-edges", "generate-edges", "verify-edges",
        "route-pairs", "verify-routes", "verify-route-x", "route-m-list",
        "route-m-str", "edge-bools", "edge-bool", "edge-float",
        "edge-ragged", "edge-triple", "edge-beyond-int64", "n-bool",
        "verify-x-bool", "verify-y-bool", "verify-path-bool"])
def test_malformed_json_shapes_exit_two(capsys, tmp_path, monkeypatch, argv,
                                        doc):
    # a valid plan on stdin, so "verify --plan -" gets as far as the graph
    monkeypatch.setattr("sys.stdin", io.StringIO('{"routes": []}'))
    target = tmp_path / "doc.json"
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_stats_huge_isolated_graph_exits_two(capsys, tmp_path):
    target = tmp_path / "huge.json"
    target.write_text('{"n": 1000000000, "edges": [[0, 1]]}')
    code, out, err = run(capsys, "stats", "--graph", str(target))
    assert code == 2
    assert out == ""
    assert err == ("error: graph is disconnected: "
                   "vertex 2 unreachable from 0\n")


def test_stats_graph_beyond_int64_keys_exits_two(capsys, tmp_path):
    target = tmp_path / "huge.json"
    target.write_text('{"n": 10000000000, '
                      '"edges": [[9999999998, 9999999999]]}')
    code, out, err = run(capsys, "stats", "--graph", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: vertex count 10000000000 exceeds")
    target.write_text('{"n": -1, "edges": []}')
    assert run(capsys, "stats", "--graph", str(target)) \
        == (2, "", "error: vertex count must be nonnegative, got -1\n")


def test_stats_empty_graph_exits_two(capsys, tmp_path):
    # diameter raises before the bound ratio is computed
    target = tmp_path / "empty.json"
    target.write_text('{"n": 0, "edges": []}')
    assert run(capsys, "stats", "--graph", str(target)) \
        == (2, "", "error: empty graph has no distances\n")


def test_edgelist_with_non_integer_count_exits_two(capsys, tmp_path):
    target = tmp_path / "bad.edgelist"
    target.write_text("# n abc\n0 1\n")
    code, out, err = run(capsys, "stats", "--graph", str(target),
                         "--format", "edgelist")
    assert code == 2
    assert out == ""
    assert err == "error: non-integer vertex count: '# n abc'\n"


def test_malformed_graph_file_exits_two(capsys, tmp_path):
    target = tmp_path / "junk.json"
    target.write_text("{not json")
    code, _, err = run(capsys, "screen", "--graph", str(target))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------- imports


_IMPORTS_PER_COMMAND = """
import contextlib, io, sys
from pairpath.cli import main
tmp = sys.argv[1]
graph, plan = f"{tmp}/b3.json", f"{tmp}/p3.json"
runs = [["generate", "--family", "blown-cycle", "--m", "3", "-o", graph],
        ["route", "--graph", graph, "--random", "5", "-o", plan],
        ["verify", "--plan", plan, "--graph", graph],
        ["decide", "--family", "cycle", "--k", "4"],
        ["stats", "--family", "blown-cycle", "--m", "2"],
        ["screen", "--family", "blown-cycle", "--m", "2"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                    or m in ("concurrent.futures.process", "numpy.ma")))
"""


def test_no_command_imports_scipy(tmp_path):
    # numpy is the one runtime dependency; a pool is started only for
    # decide --workers; numpy.ma comes in with a plain np.unique, which
    # graph.distinct replaces
    src = str(pathlib.Path(pairpath.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _IMPORTS_PER_COMMAND, str(tmp_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[0, 0, 0, 1, 0, 0] []\n"
