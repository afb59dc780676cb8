import itertools
import math
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairpath.blowup import build
from pairpath.graph import (GraphError, diameter, distance_matrix, generate,
                            make_graph)
from pairpath.pairability import (CANNOT_RULE_OUT, CAP_HIT, FEASIBLE,
                                  INCONCLUSIVE, INFEASIBLE, LAYERED_CUT,
                                  NOT_PATH_PAIRABLE, PATH_PAIRABLE,
                                  diameter_upper_bound, enumerate_pairings,
                                  is_path_pairable, screen)
from pairpath.routing import (Pairing, PairingError, make_pairing,
                              random_perfect_pairing)
from pairpath.verify import verify_plan

import pairpath.graph as graph_module
import pairpath.pairability as pairability_module
import pairpath.routing as routing_module
from helpers import (ORACLE_GRAPHS, bfs_layers, dense_distances, dense_screen,
                     dumbbell, edge_cut_size, find_disjoint_paths,
                     graphs_with_twins, pairing_count, path_graph,
                     sorted_edges, twin_blowup)


# ---------------------------------------------------------------- search


def test_c4_pairing_feasibility_split(c4):
    good = find_disjoint_paths(c4, make_pairing([(0, 1), (2, 3)]))
    assert good.status == FEASIBLE
    report = verify_plan(c4, make_pairing([(0, 1), (2, 3)]), good.plan)
    assert report.ok

    bad = find_disjoint_paths(c4, make_pairing([(0, 2), (1, 3)]))
    assert bad.status == INFEASIBLE
    assert bad.plan is None

    other = find_disjoint_paths(c4, make_pairing([(0, 3), (1, 2)]))
    assert other.status == FEASIBLE


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_residual_dist_matches_networkx(data):
    n = data.draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e, keep in zip(pairs, data.draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))))
        if keep]
    used = data.draw(st.sets(st.sampled_from(edges))) if edges else set()
    free = pairability_module._adjacency(make_graph(n, edges))
    for u, v in used:
        free[u] ^= 1 << v
        free[v] ^= 1 << u
    residual = nx.Graph()
    residual.add_nodes_from(range(n))
    residual.add_edges_from(e for e in edges if e not in used)
    src, stop = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    reached = nx.single_source_shortest_path_length(residual, src)
    full = pairability_module._residual_dist(free, src)
    assert full == [reached.get(v, math.inf) for v in range(n)]
    # the stopped form agrees at stop and fills no entry wrongly
    part = pairability_module._residual_dist(free, src, stop)
    assert part[stop] == full[stop]
    assert all(d == full[v] for v, d in enumerate(part) if d != math.inf)


def test_find_disjoint_paths_rejects_out_of_range_vertex(c4):
    with pytest.raises(GraphError,
                       match=r"^pairing vertex 9 out of range 0\.\.3$"):
        find_disjoint_paths(c4, make_pairing([(0, 9)]))
    with pytest.raises(GraphError,
                       match=r"^pairing vertex -1 out of range 0\.\.3$"):
        find_disjoint_paths(c4, Pairing(pairs=((1, 3), (-1, 2))))
    # a Pairing holds integers only, so 0.5 never reaches the search
    with pytest.raises(PairingError,
                       match=r"^vertex 0\.5 is not an integer id$"):
        Pairing(pairs=((1, 3), (0.5, 2)))


def test_empty_graph_is_path_pairable():
    # no vertex, so no pairing to refute and no partition to scan
    for workers in (1, 2):
        verdict = is_path_pairable(make_graph(0, []), workers=workers)
        assert (verdict.status, verdict.witness, verdict.pairings_examined,
                verdict.nodes_expanded) == (PATH_PAIRABLE, None, 0, 0)


def test_scan_builds_one_adjacency_per_partition_and_no_plans(monkeypatch):
    built = []
    real = pairability_module._adjacency
    monkeypatch.setattr(pairability_module, "_adjacency",
                        lambda g: built.append(g) or real(g))
    # the scan searches each pairing itself and builds no plan
    for name in ("__init__", "from_arrays"):
        monkeypatch.setattr(routing_module.RoutePlan, name, None)
    verdict = is_path_pairable(generate("grid2", (2, 3)))
    assert verdict.pairings_examined == 15
    assert len(built) == 5  # one per first pair (0, c)


def test_q3_antipodal_pairing_has_disjoint_paths(q3):
    # hardest case: every pair at distance 3
    pairing = make_pairing([(v, v ^ 7) for v in range(4)])
    result = find_disjoint_paths(q3, pairing)
    assert result.status == FEASIBLE
    report = verify_plan(q3, pairing, result.plan)
    assert report.ok
    assert all(len(r) == 3 for r in result.plan.routes)


@pytest.mark.parametrize("name", sorted(
    name for name, g in ORACLE_GRAPHS.items() if g.n <= 90))
def test_feasible_plans_pass_the_verifier(name):
    # the search's plans are checked by verify_plan, not taken on trust
    g = ORACLE_GRAPHS[name]
    statuses = set()
    for seed in range(20):
        pairing = random_perfect_pairing(g.n, seed)
        result = find_disjoint_paths(g, pairing)
        statuses.add(result.status)
        if result.status == FEASIBLE:
            assert verify_plan(g, pairing, result.plan).ok, (name, seed)
    # none hits the cap: the 8-cycle has no linkage for any sampled
    # pairing, and every other graph has one for each
    assert statuses == ({INFEASIBLE} if name == "cycle" else {FEASIBLE})


def test_small_complete_family_verdicts():
    assert is_path_pairable(generate("complete-bipartite", (3, 3))).status \
        == PATH_PAIRABLE
    assert is_path_pairable(generate("complete-bipartite", (1, 3))).status \
        == PATH_PAIRABLE
    assert is_path_pairable(generate("complete-bipartite", (2, 2))).status \
        == NOT_PATH_PAIRABLE


def test_enumeration_is_canonical_and_counted():
    pairings = list(enumerate_pairings(list(range(6))))
    assert len(pairings) == 15 == pairing_count(6)
    assert pairings[0] == ((0, 1), (2, 3), (4, 5))
    # smallest unpaired item always leads, partners ascend lexicographically
    assert pairings == sorted(pairings)
    assert pairing_count(8) == 105
    assert pairing_count(10) == 945
    assert pairing_count(12) == 10395
    with pytest.raises(ValueError, match="^cannot pair an odd number"):
        enumerate_pairings([0, 1, 2])
    with pytest.raises(ValueError, match="^no perfect pairing of an odd set$"):
        pairing_count(3)


def test_decision_input_guards():
    with pytest.raises(ValueError, match="even"):
        is_path_pairable(path_graph(3))


@pytest.mark.parametrize("n", [14, 3000])
def test_enumeration_guard_names_the_count_without_computing_it(n):
    # (n-1)!! has more than 4,300 digits from n = 2,848 on, beyond what
    # Python converts to a string by default
    with pytest.raises(ValueError) as exc:
        is_path_pairable(generate("cycle", (n,)))
    assert str(exc.value) == (f"n={n} exceeds the enumeration guard 12 "
                              f"({n - 1}!! pairings)")


def test_enumeration_guard_builds_no_blown_cycle_edges():
    b = build(48)
    with pytest.raises(ValueError, match="^n=18720 exceeds the enumeration "
                                         r"guard 12 \(18719!! pairings\)$"):
        is_path_pairable(b)
    assert "graph" not in vars(b)


def test_tiny_budget_reports_inconclusive(petersen):
    verdict = is_path_pairable(petersen, budget=50)
    assert verdict.status == INCONCLUSIVE
    assert verdict.witness is None
    result = find_disjoint_paths(
        petersen, make_pairing([(0, 7), (1, 8), (2, 9), (3, 5), (4, 6)]),
        budget=3)
    assert result.status == CAP_HIT


# family, parameters, budget (None for the default) and the verdict:
# status, witness, pairings examined and nodes expanded.  The exact work
# pins the search order: each step goes to the free neighbour nearest the
# target, the lowest id first among equals
DECIDED = [
    ("cycle", (4,), None, NOT_PATH_PAIRABLE, [[0, 2], [1, 3]], 2, 9),
    ("cycle", (6,), None, NOT_PATH_PAIRABLE, [[0, 1], [2, 4], [3, 5]], 2, 9),
    ("cycle", (8,), None, NOT_PATH_PAIRABLE,
     [[0, 1], [2, 3], [4, 6], [5, 7]], 2, 12),
    ("complete-bipartite", (2, 4), None, NOT_PATH_PAIRABLE,
     [[0, 1], [2, 3], [4, 5]], 1, 9),
    # K_{2,10}: the first pairing decides while the second worker is into a
    # partition the serial scan never opens, which its stop flag then ends
    ("complete-bipartite", (2, 10), None, NOT_PATH_PAIRABLE,
     [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]], 1, 21),
    ("complete", (4,), None, PATH_PAIRABLE, None, 3, 12),
    ("complete", (6,), None, PATH_PAIRABLE, None, 15, 90),
    ("complete-bipartite", (3, 3), None, PATH_PAIRABLE, None, 15, 108),
    ("complete-bipartite", (4, 4), None, PATH_PAIRABLE, None, 105, 1044),
    ("grid2", (2, 3), None, PATH_PAIRABLE, None, 15, 111),
    ("grid2", (2, 4), None, PATH_PAIRABLE, None, 105, 1050),
    ("hypercube", (3,), None, PATH_PAIRABLE, None, 105, 1320),
    ("petersen", (), None, PATH_PAIRABLE, None, 945, 15692),
    ("petersen", (), 10, INCONCLUSIVE, None, 1, 11),
    ("grid2", (2, 4), 8, INCONCLUSIVE, None, 4, 33),
    ("complete", (6,), 5, INCONCLUSIVE, None, 1, 6),
]


@pytest.mark.parametrize(
    "family, params, budget, status, witness, examined, nodes", DECIDED,
    ids=["-".join(map(str, (row[0], *row[1], row[2] or "default")))
         for row in DECIDED])
def test_serial_and_pooled_scans_pin_the_search_order(
        family, params, budget, status, witness, examined, nodes):
    g = generate(family, params)
    kwargs = {} if budget is None else {"budget": budget}
    lone = is_path_pairable(g, **kwargs)
    assert is_path_pairable(g, workers=2, **kwargs) == lone
    assert (lone.status, lone.witness and lone.witness.ids.tolist(),
            lone.pairings_examined, lone.nodes_expanded) \
        == (status, witness, examined, nodes)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: runs the scan in this process and
    records the pool size asked for, the shutdown calls and the workers'
    stop flags, which it does not install here."""
    made: list[int] = []
    shutdowns: list[bool] = []
    flags: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.made.append(max_workers)
        assert initializer is pairability_module._init_worker
        self.flags.extend(initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


def test_pool_holds_at_most_one_worker_per_partition(monkeypatch, c4,
                                                     petersen):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(_RecordingPool, "shutdowns", [])
    monkeypatch.setattr(_RecordingPool, "flags", [])
    serial = is_path_pairable(petersen)
    assert _RecordingPool.made == []
    pooled = is_path_pairable(petersen, workers=100_000)
    assert _RecordingPool.made == [9]  # n - 1 partitions
    assert _RecordingPool.shutdowns == [True]  # pending partitions cancelled
    # running partitions are told to stop once the verdict is in
    assert [flag.is_set() for flag in _RecordingPool.flags] == [True]
    assert pooled == serial
    is_path_pairable(c4, workers=3)
    assert _RecordingPool.made == [9, 3]
    # a graph with one partition scans it in this process
    assert is_path_pairable(path_graph(2), workers=8).status == PATH_PAIRABLE
    assert _RecordingPool.made == [9, 3]


def test_partition_with_its_stop_flag_set_returns_without_scanning(
        monkeypatch, c4, petersen):
    import threading
    flag = threading.Event()
    monkeypatch.setattr(pairability_module, "_stop_flag", flag)
    assert pairability_module._decide_partition(petersen, 1, budget=10**6) \
        == (FEASIBLE, None, 105, 1601)
    assert pairability_module._decide_partition(c4, 2, budget=10) \
        == (INFEASIBLE, ((0, 2), (1, 3)), 1, 5)
    flag.set()
    for g, c in ((petersen, 1), (c4, 2)):
        assert pairability_module._decide_partition(g, c, budget=10) \
            == (None, None, 0, 0)


@pytest.mark.parametrize("kwargs", [{"workers": 0}, {"workers": -1},
                                    {"budget": 0}])
def test_workers_and_budget_below_one_raise(c4, kwargs):
    with pytest.raises(ValueError, match="at least 1"):
        is_path_pairable(c4, **kwargs)


def test_verdict_json_round_trips(c4):
    import json
    doc = json.loads(is_path_pairable(c4).to_json())
    assert doc["status"] == NOT_PATH_PAIRABLE
    assert doc["witness"] == [[0, 2], [1, 3]]
    assert doc["pairings_examined"] >= 1
    assert doc["nodes_expanded"] >= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.data())
def test_adding_an_edge_preserves_feasible_pairings(extra, data):
    # routing never gets harder in a supergraph
    base = generate("cycle", (6,))
    pairs = data.draw(st.sampled_from(list(enumerate_pairings(range(6)))))
    pairing = make_pairing(list(pairs))
    before = find_disjoint_paths(base, pairing)
    if before.status != FEASIBLE:
        return
    edges = set(sorted_edges(base))
    candidates = [(u, v) for u in range(6) for v in range(u + 1, 6)
                  if (u, v) not in edges]
    chosen = candidates[:extra]
    bigger = make_graph(6, list(edges) + chosen)
    assert find_disjoint_paths(bigger, pairing).status == FEASIBLE


# ---------------------------------------------------------------- screen


def test_screen_rejects_long_path():
    report = screen(path_graph(20))
    assert report.verdict == NOT_PATH_PAIRABLE
    assert len(report.roots_checked) >= 1
    cuts = [v for v in report.violations if v.condition == LAYERED_CUT]
    assert cuts, report.violations
    by_index = {v.index: v for v in cuts}
    assert by_index[4].value == 1
    assert by_index[4].required == 5


def test_screen_rejects_dumbbell_on_cut():
    report = screen(dumbbell(10))
    assert report.verdict == NOT_PATH_PAIRABLE
    assert any(v.condition == LAYERED_CUT for v in report.violations)


def test_screen_rejects_long_dumbbell_on_cut():
    # longer bar: layers 6 and 7 hold 1 + 1 < 3 vertices, which the old
    # growth condition rejected at k = 3; the ball of radius 6 (one K5
    # and 5 bar vertices) leaves by one edge where 10 pairs must cross
    report = screen(dumbbell(14))
    assert report.verdict == NOT_PATH_PAIRABLE
    assert report.roots_checked == (0,)
    by_index = {v.index: v for v in report.violations}
    assert (by_index[6].root, by_index[6].value, by_index[6].required) == (
        0, 1, 10)
    assert all(v.condition == LAYERED_CUT for v in report.violations)


def test_screen_cannot_rule_out_known_pairable(q3, petersen):
    star = generate("complete-bipartite", (1, 9))
    for g, diametral in ((q3, 8), (petersen, 10), (star, 9)):
        report = screen(g)
        assert report.verdict == CANNOT_RULE_OUT
        assert report.violations == ()
        assert len(report.roots_checked) == diametral


def test_screen_cannot_rule_out_blown_cycles():
    for m in (2, 3):
        b = build(m)
        report = screen(b.graph)
        assert report.verdict == CANNOT_RULE_OUT
        assert report.diameter == m


def test_screen_stops_at_first_bad_root():
    report = screen(path_graph(20))
    roots = {v.root for v in report.violations}
    # endpoints are the diametral roots; root 0 is checked first and the
    # scan stops there, reporting all of that root's violations
    assert roots == {0}
    assert report.roots_checked == (0,)
    assert len(report.violations) > 1


def test_screen_agrees_with_decided_fixtures(q3):
    # the screen must never reject a graph the exact decision accepts
    for g in (q3, generate("complete-bipartite", (3, 3)),
              generate("grid2", (2, 3))):
        assert is_path_pairable(g).status == PATH_PAIRABLE
        assert screen(g).verdict == CANNOT_RULE_OUT


def test_screen_input_guards():
    with pytest.raises(GraphError, match="even"):
        screen(path_graph(5))
    with pytest.raises(GraphError, match="connected"):
        screen(make_graph(4, [(0, 1), (2, 3)]))


def test_screen_report_json(q3):
    import json
    doc = json.loads(screen(q3).to_json())
    assert doc["verdict"] == CANNOT_RULE_OUT
    assert doc["diameter"] == 3
    assert doc["violations"] == []


def test_diameter_bound_scaling():
    for n in (100, 1000, 10000):
        assert diameter_upper_bound(n) == pytest.approx(
            6.0 * math.sqrt(2.0) * math.sqrt(n))
    # a connected graph has n >= d+1, so the bound can only fail from
    # d = 73; path_graph(74) has d = 73 > 72.99, and a layered cut at its
    # first end rejects it
    assert diameter_upper_bound(74) < 73 and diameter_upper_bound(72) >= 71
    report = screen(path_graph(74))
    assert report.verdict == NOT_PATH_PAIRABLE
    assert report.roots_checked == (0,)
    assert {(v.condition, v.root) for v in report.violations} == {
        (LAYERED_CUT, 0)}


def test_blown_cycle_diameter_under_bound():
    for m in (2, 5, 9):
        b = build(m)
        assert diameter(b.graph) == m <= diameter_upper_bound(b.n)


# ------------------------------- older conditions the layered cut implies


def _check_implications(g) -> tuple[bool, bool]:
    """Evaluate the two conditions the screener dropped, layer growth and
    the 6*sqrt(2)*sqrt(n) diameter bound, from plain BFS layers, and check
    that `screen` rejects by a layered cut wherever they fail: at the same
    root with t = 2k for growth's smallest failing k, and at an end of a
    diametral pair for the bound.  Returns whether each one failed."""
    dist = dense_distances(g)
    ecc = dist.max(axis=1)
    d = int(ecc.max())
    edges = np.array(sorted_edges(g), dtype=np.int64)
    report = screen(g)
    stop = report.roots_checked[-1]
    thin = {(v.root, v.index) for v in report.violations}
    growth = {}  # root -> smallest k where growth fails
    for root in np.flatnonzero(ecc == d).tolist():
        layers = np.bincount(dist[root], minlength=d + 1)
        ball = np.cumsum(layers)
        failed = [k for k in range((d - 1) // 2 + 1)
                  if 2 * ball[2 * k + 1] <= g.n
                  and layers[2 * k] + layers[2 * k + 1] < k]
        if not failed:
            continue
        k = growth[root] = failed[0]
        inside = dist[root] <= 2 * k
        cut = np.count_nonzero(inside[edges[:, 0]] != inside[edges[:, 1]])
        assert cut < min(ball[2 * k], g.n - ball[2 * k]), (root, k)
        # the scan stops at the first failing root, which is no later
        assert report.verdict == NOT_PATH_PAIRABLE and stop <= root
        if stop == root:
            assert (root, 2 * k) in thin, (root, k, report.violations)
    bound = d > 6.0 * math.sqrt(2.0) * math.sqrt(g.n)
    if bound:
        u = int(np.argmax(ecc == d))
        v = int(np.argmax(dist[u] == d))
        assert u in growth or v in growth, (u, v)
    return bool(growth), bound


@given(graphs_with_twins(even=True))
@settings(max_examples=100, deadline=None)
def test_layered_cut_implies_old_conditions_on_twins(g):
    _check_implications(g)


@pytest.mark.parametrize("family", ["path", "dumbbell", "tree"])
def test_layered_cut_implies_old_conditions(family):
    graphs = {
        "path": [path_graph(n) for n in range(4, 201, 2)],
        "dumbbell": [dumbbell(i) for i in range(0, 31, 2)],  # n even
        "tree": [make_graph(n, list(nx.random_labeled_tree(n, seed=s).edges()))
                 for n in range(4, 121, 4) for s in range(3)],
    }[family]
    fired = [_check_implications(g) for g in graphs]
    assert any(growth for growth, _ in fired)
    if family == "path":  # paths from n = 74 break the bound
        assert [bound for _, bound in fired] == [n >= 74
                                                 for n in range(4, 201, 2)]


def _small_graphs():
    """Every connected even-order graph of networkx's atlas (n <= 7), and
    seeded connected G(8, 0.45) graphs."""
    atlas = [h for h in nx.graph_atlas_g()
             if len(h) and len(h) % 2 == 0 and nx.is_connected(h)]
    drawn = [nx.gnp_random_graph(8, 0.45, seed=seed) for seed in range(40)]
    for h in atlas + [h for h in drawn if nx.is_connected(h)]:
        yield make_graph(len(h), list(h.edges()))


def test_screen_rejections_confirmed_by_decider():
    rejected = [g for g in _small_graphs()
                if screen(g).verdict == NOT_PATH_PAIRABLE]
    assert len(rejected) > 20
    for g in rejected:
        assert is_path_pairable(g).status == NOT_PATH_PAIRABLE, g


# ------------------------------------------- twin-reduced screen vs oracle


@given(graphs_with_twins(even=True))
@settings(max_examples=150, deadline=None)
def test_twin_reduced_screen_matches_oracle(g):
    assert screen(g).to_json() == dense_screen(g).to_json()


@given(graphs_with_twins())
@settings(max_examples=100, deadline=None)
def test_layer_counts_match_the_oracle_from_every_class(g):
    # layers 0 and 1 too, where no screen verdict can tell a wrong count
    quotient = g.quotient
    dist = distance_matrix(g)
    for k, root in enumerate(quotient.reps):
        profile = bfs_layers(g, root)
        d = profile.eccentricity
        layers, cuts = pairability_module._layer_counts(quotient, d, dist[k],
                                                         k)
        assert layers.tolist() == list(profile.sizes)
        balls = itertools.accumulate(profile.layers[:-1])
        assert cuts.tolist() == [edge_cut_size(g, ball) for ball in balls]


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_screen_matches_oracle_on_families(name):
    g = ORACLE_GRAPHS[name]
    assert screen(g).to_json() == dense_screen(g).to_json()


def test_screen_rejects_path_with_twin_end_leaves():
    # path 1..10 with a twin leaf at each end; the twin of the left leaf
    # gets the smallest id, so it is the representative that is reported
    g = make_graph(12, [(i, i + 1) for i in range(1, 10)]
                   + [(0, 2), (11, 9)])
    report = screen(g)
    assert report.verdict == NOT_PATH_PAIRABLE
    assert report.roots_checked == (0,)
    assert {v.root for v in report.violations} == {0}
    assert report.to_json() == dense_screen(g).to_json()


def test_screen_star_lists_every_leaf_root():
    # K1,7 is path-pairable; its 7 leaves form one twin class, evaluated
    # once but all reported as checked
    star = generate("complete-bipartite", (1, 7))
    report = screen(star)
    assert report.verdict == CANNOT_RULE_OUT
    assert report.roots_checked == tuple(range(1, 8))
    assert report.to_json() == dense_screen(star).to_json()


def test_screen_runs_one_bfs_per_twin_class(monkeypatch):
    b = build(16)
    calls = []
    real = graph_module._bfs

    def spy(adj, sources):
        calls.append(sources)
        return real(adj, sources)

    monkeypatch.setattr(graph_module, "_bfs", spy)
    report = screen(b.graph)
    assert [s.tolist() for s in calls] == [[*range(2 * 16)]]
    assert report.verdict == CANNOT_RULE_OUT
    assert report.roots_checked == tuple(range(b.n))


@pytest.mark.parametrize("g", [
    generate("complete-bipartite", (3, 5)), generate("petersen"),
    *(build(m).graph for m in range(2, 6))],
    ids=["K3_5", "petersen", *(f"blown-cycle-{m}" for m in range(2, 6))])
def test_distances_read_only_n_and_the_quotient(g):
    # what a closed-form graph must supply for diameter and screen
    seam = SimpleNamespace(n=g.n, quotient=g.quotient)
    assert diameter(seam) == diameter(g)
    assert screen(seam).to_json() == screen(g).to_json()


def test_screen_rejects_isolated_vertex_before_csr():
    g = make_graph(10**9, [(0, 1)])
    with pytest.raises(GraphError, match="vertex 2 unreachable from 0$"):
        screen(g)
    assert "csr" not in vars(g)


def test_screen_rejects_disconnected_twins():
    with pytest.raises(GraphError, match="vertex 3 unreachable from 0"):
        screen(make_graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)]))


@pytest.mark.parametrize("classes", [63, 64, 65, 129])
def test_screen_counts_match_oracle_across_chunks(classes):
    g = twin_blowup(classes, seed=classes)
    assert screen(g).to_json() == dense_screen(g).to_json()


def test_screen_rejects_isolated_twins():
    with pytest.raises(GraphError, match="vertex 1 unreachable from 0$"):
        screen(make_graph(6, [(2, 3), (3, 4), (4, 5)]))
