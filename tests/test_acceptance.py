"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE line (PASS/FAIL plus wall time) so a full
run gives a one-screen summary; the assertions carry the actual tolerances.
Run with: pytest tests/test_acceptance.py -v
"""

import math
import time

from pairpath.blowup import build, free_common_neighbors
from pairpath.graph import diameter, generate
from pairpath.pairability import (CANNOT_RULE_OUT, FEASIBLE, INFEASIBLE,
                                  LAYERED_CUT, NOT_PATH_PAIRABLE,
                                  PATH_PAIRABLE, diameter_upper_bound,
                                  is_path_pairable, screen)
from pairpath.rng import SplitMix64
from pairpath.routing import make_pairing, random_perfect_pairing, route
from pairpath.verify import verify_plan

from helpers import (adversarial_pairings, class_members, dumbbell,
                     find_disjoint_paths, pair_tuples, path_graph)


def _report(capsys, num, desc, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num}: FAIL "
                  f"({time.perf_counter() - start:.1f}s) {desc}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: PASS "
              f"({time.perf_counter() - start:.1f}s) {desc}")


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_acceptance_1_small_decisions(capsys):
    def check():
        verdict, took = _timed(
            lambda: is_path_pairable(generate("hypercube", (3,))))
        assert verdict.status == PATH_PAIRABLE
        assert verdict.pairings_examined == 105
        assert took < 10.0

        verdict, took = _timed(
            lambda: is_path_pairable(generate("petersen")))
        assert verdict.status == PATH_PAIRABLE
        assert verdict.pairings_examined == 945
        assert took < 120.0

        verdict, took = _timed(
            lambda: is_path_pairable(generate("cycle", (4,))))
        assert verdict.status == NOT_PATH_PAIRABLE
        assert verdict.witness is not None
        assert pair_tuples(verdict.witness) == ((0, 2), (1, 3))
        assert took < 1.0

    _report(capsys, 1, "exhaustive decisions: cube yes, Petersen yes, "
            "4-cycle no with diagonal witness", check)


def test_acceptance_2_complete_bipartite_decisions(capsys):
    def check():
        cases = [((3, 3), PATH_PAIRABLE), ((1, 3), PATH_PAIRABLE),
                 ((2, 2), NOT_PATH_PAIRABLE)]
        for params, expected in cases:
            g = generate("complete-bipartite", params)
            assert is_path_pairable(g).status == expected, params

    _report(capsys, 2, "complete bipartite: K33 and K13 pairable, "
            "K22 not", check)


def test_acceptance_3_hypercube_antipodal_infeasible(capsys):
    def check():
        g = generate("hypercube", (4,))
        pairing = make_pairing([(v, v ^ 15) for v in range(8)])
        result, took = _timed(lambda: find_disjoint_paths(g, pairing))
        assert result.status == INFEASIBLE
        assert result.plan is None
        assert result.nodes_expanded == 37125  # the exact search work
        assert took < 300.0

    _report(capsys, 3, "dim-4 cube antipodal pairing ruled out by "
            "exhausted search", check)


def test_acceptance_4_small_grid_pairable(capsys):
    def check():
        verdict = is_path_pairable(generate("grid2", (2, 3)))
        assert verdict.status == PATH_PAIRABLE
        assert verdict.pairings_examined == 15

    _report(capsys, 4, "2x3 rook grid pairable across all 15 pairings", check)


def test_acceptance_5_construction_metrics(capsys):
    def check():
        for m in range(2, 13):
            b = build(m)
            assert b.n == 2 * m * (4 * m + 3)
            assert diameter(b.graph) == m
            assert b.graph.max_degree == 8 * m + 6
            floor = 2 * m + 3
            if m <= 4:
                for cls in range(2 * m):
                    members = class_members(b, cls)
                    for i, u in enumerate(members):
                        for v in members[i + 1:]:
                            assert len(free_common_neighbors(b, u, v)) \
                                >= floor, (m, u, v)
            else:
                rng = SplitMix64(0)
                for _ in range(10_000):
                    cls = rng.randrange(2 * m)
                    a = rng.randrange(b.q)
                    c = rng.randrange(b.q - 1)
                    if c >= a:
                        c += 1
                    u, v = b.vertex(cls, a), b.vertex(cls, c)
                    assert len(free_common_neighbors(b, u, v)) >= floor, \
                        (m, u, v)

    _report(capsys, 5, "blown-cycle sizes, diameters, degrees, and the "
            "free-common-neighbor floor for m=2..12", check)


def test_acceptance_6_routing_stress(capsys):
    def check():
        start = time.perf_counter()
        for m in range(2, 13):
            b = build(m)
            pairings = [random_perfect_pairing(b.n, seed)
                        for seed in range(1000)]
            pairings.extend(adversarial_pairings(b))
            for pairing in pairings:
                plan = route(b, pairing)
                assert plan.max_route_length <= m + 2, (m, pairing)
                report = verify_plan(b.graph, pairing, plan)
                assert report.ok, (m, report.violations[:3])
        assert time.perf_counter() - start < 600.0

    _report(capsys, 6, "route+verify 1000 random and 3 adversarial "
            "pairings per m=2..12, lengths <= m+2, no edge reuse", check)


def test_acceptance_7_diameter_scaling(capsys):
    def check():
        ratios = {}
        for m in range(2, 51):
            n = 2 * m * (4 * m + 3)
            assert m <= diameter_upper_bound(n), m
            ratios[m] = m / math.sqrt(n)
        for m in range(6, 51):
            assert 0.33 <= ratios[m] <= 0.36, (m, ratios[m])
        assert abs(ratios[50] - 1 / (2 * math.sqrt(2))) < 0.005

    _report(capsys, 7, "diameter m stays under 6*sqrt(2)*sqrt(n) and "
            "m/sqrt(n) settles in [0.33, 0.36]", check)


def test_acceptance_8_screen_fixtures(capsys):
    def check():
        clears = [generate("hypercube", (3,)),
                  generate("petersen"),
                  generate("complete-bipartite", (1, 9))]
        clears.extend(build(m).graph for m in range(2, 13))
        for g in clears:
            assert screen(g).verdict == CANNOT_RULE_OUT, g.n

        report = screen(path_graph(20))
        assert report.verdict == NOT_PATH_PAIRABLE
        assert any(v.condition == LAYERED_CUT for v in report.violations)

        report = screen(dumbbell(14))
        assert report.verdict == NOT_PATH_PAIRABLE
        assert (LAYERED_CUT, 0, 6) in {(v.condition, v.root, v.index)
                                       for v in report.violations}

        report = screen(dumbbell(10))
        assert report.verdict == NOT_PATH_PAIRABLE
        assert any(v.condition == LAYERED_CUT for v in report.violations)

    _report(capsys, 8, "screen clears known-pairable fixtures, rejects "
            "the long path and the clique dumbbell", check)
