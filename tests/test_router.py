import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import pairpath.routing as routing_module
from helpers import (HALL_DEFICIENT_M4, SHARED_END_PAIRS_M2,
                     adversarial_pairings, closing_replay, matching_step,
                     piled_pairing, piled_pairings, reference_route)
from pairpath.blowup import build
from pairpath.formats import dumps_plan, loads_pairing
from pairpath.routing import (Pairing, PairingError, RoutingError,
                              assign_candidates, canonical_labeling,
                              make_pairing, phase_one, phase_two,
                              random_perfect_pairing, route)
from pairpath.verify import verify_plan

# routes through one contended boundary: eight pairs complete in class 0,
# one more than the guaranteed candidate floor, so giving each task its own
# smallest unclaimed z dead-ends, while sharing z between tasks with disjoint
# ends routes it; orientation matters (it decides the targets of the
# distance-2 ties), keep it
CONTENDED_PAIRING_M2 = [
    (10, 0), (43, 1), (2, 21), (3, 41), (4, 33), (32, 5), (6, 34), (28, 7),
    (25, 8), (9, 30), (38, 11), (15, 12), (16, 13), (14, 27), (18, 17),
    (29, 19), (20, 22), (39, 23), (24, 37), (26, 42), (31, 35), (40, 36),
]


def test_make_pairing_sorts_and_validates():
    p = make_pairing([(9, 4), (2, 0)])
    assert p.ids.tolist() == [[2, 0], [9, 4]]
    with pytest.raises(PairingError, match="duplicate"):
        make_pairing([(0, 1), (1, 2)])
    with pytest.raises(PairingError, match="duplicate"):
        make_pairing([(3, 3)])


def test_make_pairing_takes_integer_ids_only():
    p = make_pairing([(np.int64(5), np.int32(2)), (0, True)])
    assert p.ids.tolist() == [[0, 1], [5, 2]] and p.ids.dtype == np.int64
    for pair, bad in (((1.5, 2), "1.5"), (("3", 4), "'3'"),
                      ((0, np.float64(1)), r"np\.float64\(1\.0\)")):
        with pytest.raises(PairingError,
                           match=f"^vertex {bad} is not an integer id$"):
            make_pairing([pair])


def test_make_pairing_names_a_row_that_is_no_pair():
    for pairs, message in (
            ([(1, 2, 3)], "pair #0 (1, 2, 3) is not an (x, y) pair"),
            ([5], "pair #0 5 is not an (x, y) pair"),
            ([(0, 1), [2]], "pair #1 [2] is not an (x, y) pair"),
            (np.zeros((2, 3), dtype=np.int64),
             "pairs must be (x, y) rows, got shape (2, 3)")):
        for build_it in (make_pairing, Pairing):
            with pytest.raises(PairingError, match=f"^{re.escape(message)}$"):
                build_it(pairs)


def test_pairing_holds_one_int64_array():
    p = make_pairing([(9, 4), (2, 0)])
    assert p.ids.dtype == np.int64 and p.ids.tolist() == [[2, 0], [9, 4]]
    assert not p.ids.flags.writeable
    # lists, generators, the keyword and integer arrays build equal pairings
    for pairs in ([(2, 0), (9, 4)], ((x, y) for x, y in [(2, 0), (9, 4)]),
                  np.array([[2, 0], [9, 4]], dtype=np.uint8)):
        assert Pairing(pairs) == p == Pairing(pairs=p.ids)
    assert make_pairing(np.array([[9, 4], [2, 0]])) == p
    assert p != make_pairing([(0, 2), (9, 4)])
    assert len(Pairing()) == 0 and Pairing().ids.shape == (0, 2)
    with pytest.raises(TypeError):
        hash(p)
    # an array is copied, so the caller's array stays its own
    rows = np.array([[0, 1]])
    q = Pairing(rows)
    rows[0, 0] = 5
    assert q.ids.tolist() == [[0, 1]]
    with pytest.raises(PairingError, match="^duplicate endpoint 1 across"):
        Pairing(np.array([[0, 1], [1, 2]], dtype=np.int32))
    with pytest.raises(PairingError, match=f"^vertex {2**63} lies beyond"):
        Pairing(np.array([[0, 1], [2, 2**63]], dtype=np.uint64))


def test_canonical_labeling_examples(blown2, blown3):
    # forward distance within reach: kept
    p = make_pairing([(blown3.vertex(4, 0), blown3.vertex(1, 0))])
    assert canonical_labeling(blown3, p).tolist() == [
        [blown3.vertex(4, 0), blown3.vertex(1, 0), 3]]
    # too far forward: swapped
    p = make_pairing([(blown3.vertex(1, 0), blown3.vertex(5, 0))])
    assert canonical_labeling(blown3, p).tolist() == [
        [blown3.vertex(5, 0), blown3.vertex(1, 0), 2]]
    # same class: distance zero, order kept
    p = make_pairing([(blown2.vertex(2, 0), blown2.vertex(2, 5))])
    assert canonical_labeling(blown2, p).tolist() == [
        [blown2.vertex(2, 0), blown2.vertex(2, 5), 0]]


def test_canonical_labeling_distance_tie_keeps_input_order(blown2):
    x, y = blown2.vertex(0, 3), blown2.vertex(2, 8)
    assert canonical_labeling(blown2, Pairing(((x, y),))).tolist() \
        == [[x, y, 2]]
    assert canonical_labeling(blown2, Pairing(((y, x),))).tolist() \
        == [[y, x, 2]]


def test_canonical_labeling_rejects_bad_vertices(blown2):
    with pytest.raises(PairingError, match="out of range"):
        canonical_labeling(blown2, Pairing(((0, 44),)))
    with pytest.raises(PairingError, match="duplicate"):
        canonical_labeling(blown2, Pairing(((0, 1), (1, 2))))


BEYOND = f"vertex {10**30} lies beyond int64"


@pytest.mark.parametrize("pairs, message", [
    # -1 would wrap to the last vertex as a numpy index
    (((0, 1), (2, -1)), "vertex -1 out of range 0..43"),
    (((0, 44), (2, 3)), "vertex 44 out of range 0..43"),
    # beyond int64: the pairing refuses it before any range check
    (((0, 1), (10**30, 2)), BEYOND),
    (((5, 44), (10**30, -1)), BEYOND),
    (((-1, 3), (0, 10**30)), BEYOND),
    (((0, 10**30), (44, 3)), BEYOND),
    # the first bad vertex in pairing order is named
    (((5, 44), (2**63 - 1, -1)), "vertex 44 out of range 0..43"),
    (((-1, 3), (0, 2**63 - 1)), "vertex -1 out of range 0..43"),
    (((0, 2**63 - 1), (44, 3)), f"vertex {2**63 - 1} out of range 0..43"),
], ids=["minus-one", "n", "beyond-int64", "n-first", "minus-one-first",
        "beyond-int64-first", "n-first-int64-max", "minus-one-first-int64-max",
        "int64-max-first"])
def test_out_of_range_vertices_name_the_first(blown2, pairs, message):
    for call in (canonical_labeling, route):
        with pytest.raises(PairingError) as info:
            call(blown2, Pairing(pairs))
        assert str(info.value) == message


def test_phase_one_walks(blown2):
    x, y = blown2.vertex(0, 0), blown2.vertex(2, 0)
    result = phase_one(blown2, canonical_labeling(blown2, make_pairing([(x, y)])))
    entry = result.entries[0]
    assert entry.walk == (0, blown2.vertex(1, 1), blown2.vertex(2, 3))
    assert not entry.complete
    assert entry.task == (y, blown2.vertex(2, 3))


def test_phase_one_complete_when_walk_lands_on_target(blown2):
    x, y = blown2.vertex(0, 0), blown2.vertex(2, 3)
    result = phase_one(blown2, canonical_labeling(blown2, make_pairing([(x, y)])))
    entry = result.entries[0]
    assert entry.complete
    assert entry.walk[-1] == y
    assert entry.task is None


def test_phase_one_same_class_passes_through(blown2):
    x, y = blown2.vertex(1, 4), blown2.vertex(1, 9)
    result = phase_one(blown2, canonical_labeling(blown2, make_pairing([(x, y)])))
    entry = result.entries[0]
    assert entry.d == 0
    assert entry.walk == (x,)
    assert entry.task == (y, x)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_phase_one_uses_reserved_shifts_only(m):
    b = build(m)
    pairing = random_perfect_pairing(b.n, 5)
    result = phase_one(b, canonical_labeling(b, pairing))
    for entry in result.entries:
        assert len(entry.walk) == entry.d + 1
        for j, (u, v) in enumerate(zip(entry.walk, entry.walk[1:]), start=1):
            assert b.class_of(v) == (b.class_of(u) + 1) % b.num_classes
            shift = (b.index_of(v) - b.index_of(u)) % b.q
            assert shift == j  # step j rides the shift-j matching
            assert v == matching_step(b, b.class_of(u), j, u)
        # closed form: d steps from index a land at a + 1 + 2 + ... + d
        d, a = entry.d, b.index_of(entry.x)
        assert b.index_of(entry.walk[-1]) == (a + d * (d + 1) // 2) % b.q


def test_assign_candidates_greedy_smallest():
    # tasks with disjoint ends share the smallest z
    assert assign_candidates([[5, 6], [5, 6]], [(0, 1), (2, 3)]) == [5, 5]


def test_assign_candidates_skips_z_taken_at_shared_end():
    for ends in ([(0, 1), (0, 2)], [(0, 1), (2, 1)],
                 [(0, 1), (1, 2)], [(0, 1), (2, 0)]):
        assert assign_candidates([[5, 6], [5, 6]], ends) == [5, 6]
    # a z is blocked only at the ends of the task that took it
    assert assign_candidates([[5, 6]] * 3, [(0, 1), (1, 2), (3, 4)]) \
        == [5, 6, 5]


def test_assign_candidates_raises_when_starved():
    with pytest.raises(ValueError, match="no free candidate"):
        assign_candidates([[5], [5]], [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="no free candidate"):
        assign_candidates([[5, 6]] * 3, [(0, 1), (1, 2), (2, 0)])


def assert_routes_above_floor(b, pairing):
    """route succeeds, the plan verifies, every route has length <= m+2, and
    each pick took the smallest z still free, with at least 3 free (the
    proof's floor)."""
    plan = route(b, pairing)
    assert verify_plan(b.graph, pairing, plan).ok
    assert plan.max_route_length <= b.m + 2
    replay = closing_replay(b, pairing, plan)
    for rows in replay.values():
        for _, left, z in rows:
            assert len(left) >= 3
            assert z == left[0]
    return replay


def assert_hall_deficient(b, replay, cls):
    """The q tasks of class cls share fewer than q candidates, so no
    assignment of distinct candidates exists."""
    cands = [row[0] for row in replay[cls]]
    assert len(cands) == b.q
    assert len(set().union(*cands)) < b.q


def test_route_hall_deficient_golden_verifies():
    b = build(4)
    pairing = loads_pairing(HALL_DEFICIENT_M4.read_text())
    assert_hall_deficient(b, assert_routes_above_floor(b, pairing), 1)


@pytest.mark.parametrize("m", range(4, 13))
def test_route_piled_pairings_regression(m):
    # one full class of piled walks is Hall-deficient; several classes at
    # once crowd the sources too
    b = build(m)
    for seed in range(2):
        replay = assert_routes_above_floor(b, piled_pairing(b, [seed], seed))
        assert_hall_deficient(b, replay, seed)
        for classes in (range(seed, 2 * m, 2), range(2 * m)):
            assert_routes_above_floor(b, piled_pairing(b, classes, seed))


@given(piled_pairings())
@settings(max_examples=25, deadline=None)
def test_route_property_piled_pairings(case):
    assert_routes_above_floor(*case)


def test_route_starved_task_is_a_construction_bug(blown2, monkeypatch):
    # with one candidate per task, two walks that end at one vertex both
    # need the edge from it to that candidate, so the second task starves
    real = routing_module.free_common_neighbors
    monkeypatch.setattr(routing_module, "free_common_neighbors",
                        lambda b, u, v: real(b, u, v)[:1])
    with pytest.raises(RoutingError) as info:
        route(blown2, make_pairing(SHARED_END_PAIRS_M2))
    assert str(info.value) == ("class 1 (m=2): a closing task has no free "
                               "candidate: construction bug")


def test_route_edge_clash_is_a_construction_bug(blown2, monkeypatch):
    # two walks end at one vertex; given the same first candidate, both
    # close through the edge from that vertex to it
    monkeypatch.setattr(routing_module, "assign_candidates",
                        lambda cand_lists, ends: [c[0] for c in cand_lists])
    with pytest.raises(RoutingError) as info:
        route(blown2, make_pairing(SHARED_END_PAIRS_M2))
    assert str(info.value) == ("edge (12, 22) claimed by pairs 0 and 1: "
                               "construction bug")


def test_route_calls_the_candidate_steps_by_module_name(monkeypatch):
    # the traced benchmark and the construction-bug tests wrap these two
    # names on the routing module, so route calls free_common_neighbors once
    # per closing task and assign_candidates once per class with tasks; a
    # router that drops the per-task call, such as the bitmask greedy, waits
    # for a benchmark change that stops relying on it (ROADMAP item 2)
    calls = {"free_common_neighbors": 0, "assign_candidates": 0}

    def counting(name):
        real = getattr(routing_module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted
    for name in calls:
        monkeypatch.setattr(routing_module, name, counting(name))
    b = build(6)
    pairing = random_perfect_pairing(b.n, 5)
    result = phase_one(b, canonical_labeling(b, pairing))
    targets = result.y[~result.complete]
    route(b, pairing)
    assert calls == {"free_common_neighbors": len(targets),
                     "assign_candidates": len(set((targets // b.q).tolist()))}
    assert 0 < calls["assign_candidates"] < calls["free_common_neighbors"]


@pytest.mark.parametrize("seed", range(4))
def test_route_names_the_first_of_many_clashes(blown2, monkeypatch, seed):
    # every task takes its smallest candidate, so walks that share an end
    # clash, several times per pairing; the clash named is the first claim,
    # in the loop's claim order, that repeats an earlier one
    def smallest(cand_lists, ends):
        return [c[0] for c in cand_lists]
    monkeypatch.setattr(routing_module, "assign_candidates", smallest)
    monkeypatch.setattr(helpers, "assign_candidates", smallest)
    pairing = random_perfect_pairing(blown2.n, seed)
    with pytest.raises(RoutingError) as expected:
        reference_route(blown2, pairing)
    with pytest.raises(RoutingError) as info:
        route(blown2, pairing)
    assert str(info.value) == str(expected.value)


@pytest.mark.parametrize("m", [16, 48])
def test_route_holds_few_plan_sized_arrays_at_once(m):
    # each walk-sized temporary is freed before the next is made, and the
    # claims are checked by one sort of their keys, so routing a uniform
    # pairing peaks below 6 int64 arrays the size of the plan's paths
    b = build(m)
    pairing = random_perfect_pairing(b.n, 1)
    route(b, pairing)  # builds the blown cycle's cached class ids
    tracemalloc.start()
    try:
        plan = route(b, pairing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * plan.paths.nbytes


def test_phase_two_single_task_takes_smallest_free_z(blown2):
    pairing = make_pairing([(blown2.vertex(0, 0), blown2.vertex(2, 0))])
    plan = route(blown2, pairing)
    assert plan.routes[0].path == (
        blown2.vertex(0, 0), blown2.vertex(1, 1), blown2.vertex(2, 3),
        blown2.vertex(3, 0), blown2.vertex(2, 0))
    assert verify_plan(blown2.graph, pairing, plan).ok


def test_phase_two_empty_task_list(blown2):
    pairing = make_pairing([(blown2.vertex(0, 0), blown2.vertex(2, 3))])
    plan = route(blown2, pairing)
    assert plan.routes[0].path == (
        blown2.vertex(0, 0), blown2.vertex(1, 1), blown2.vertex(2, 3))
    assert plan.edges_used == 2


def test_route_antipodal_pairing(blown2):
    pairing = make_pairing([(v, blown2.vertex(blown2.class_of(v) + 2,
                                              blown2.index_of(v)))
                            for v in range(22)])
    plan = route(blown2, pairing)
    assert len(plan.routes) == 22
    assert plan.max_route_length <= 4
    assert verify_plan(blown2.graph, pairing, plan).ok


def test_route_same_class_pairing_closes_in_two_edges(blown3):
    pairs = [(blown3.vertex(i, 2 * t), blown3.vertex(i, 2 * t + 1))
             for i in range(6) for t in range(7)]
    pairing = make_pairing(pairs)
    plan = route(blown3, pairing)
    assert all(len(r) == 2 for r in plan.routes)
    assert verify_plan(blown3.graph, pairing, plan).ok


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_route_single_cross_pair(m):
    b = build(m)
    pairing = make_pairing([(b.vertex(0, 0), b.vertex(m, 0))])
    plan = route(b, pairing)
    assert len(plan.routes[0]) in (m, m + 2)
    assert verify_plan(b.graph, pairing, plan).ok


def test_route_contended_boundary_regression(blown2):
    pairing = make_pairing(CONTENDED_PAIRING_M2)
    plan = route(blown2, pairing)
    report = verify_plan(blown2.graph, pairing, plan)
    assert report.ok
    assert plan.max_route_length <= 4


def test_contended_regression_fixture_starves_bare_greedy(blown2):
    # guard the fixture's bite: giving each task its own smallest unclaimed
    # z in task order must dead-end on this pairing
    from pairpath.blowup import free_common_neighbors
    pairing = make_pairing(CONTENDED_PAIRING_M2)
    result = phase_one(blown2, canonical_labeling(blown2, pairing))
    tasks_by_class: dict[int, list] = {}
    for entry in result.entries:
        if entry.task:
            target, reached = entry.task
            tasks_by_class.setdefault(blown2.class_of(target), []).append(
                (blown2.index_of(target), target, reached))
    starved = False
    for tasks in tasks_by_class.values():
        taken: set[int] = set()
        for _, target, reached in sorted(tasks):
            z = next((z for z in free_common_neighbors(blown2, reached, target)
                      if z not in taken), None)
            if z is None:
                starved = True
                break
            taken.add(z)
    assert starved


def test_route_adversarial_pairings(blown3):
    for pairing in adversarial_pairings(blown3):
        plan = route(blown3, pairing)
        assert verify_plan(blown3.graph, pairing, plan).ok
        assert plan.max_route_length <= blown3.m + 2


def test_route_partial_pairing(blown2):
    full = random_perfect_pairing(blown2.n, 9)
    pairing = make_pairing(full.ids[:5])
    plan = route(blown2, pairing)
    assert len(plan.routes) == 5
    assert verify_plan(blown2.graph, pairing, plan).ok


@pytest.mark.parametrize("m", [2, 3, 4])
def test_route_random_suite(m):
    b = build(m)
    for seed in range(100):
        pairing = random_perfect_pairing(b.n, seed)
        plan = route(b, pairing)
        assert verify_plan(b.graph, pairing, plan).ok
        assert plan.max_route_length <= m + 2


def test_phase_one_same_class_walks_are_vertex_disjoint(blown3):
    for seed in range(30):
        pairing = random_perfect_pairing(blown3.n, seed)
        result = phase_one(blown3, canonical_labeling(blown3, pairing))
        by_start_class = {}
        for entry in result.entries:
            if entry.d >= 1:
                by_start_class.setdefault(
                    blown3.class_of(entry.x), []).append(entry.walk)
        for walks in by_start_class.values():
            flat = [v for walk in walks for v in walk]
            assert len(flat) == len(set(flat))


def test_phase_one_endpoint_load_is_bounded(blown3):
    m = blown3.m
    for seed in range(30):
        pairing = random_perfect_pairing(blown3.n, seed)
        result = phase_one(blown3, canonical_labeling(blown3, pairing))
        ends: dict[int, int] = {}
        starts: dict[int, int] = {}
        for entry in result.entries:
            if entry.d >= 1:
                ends[entry.walk[-1]] = ends.get(entry.walk[-1], 0) + 1
                starts[entry.x] = starts.get(entry.x, 0) + 1
        assert all(c <= m for c in ends.values())
        assert all(c <= 1 for c in starts.values())


def test_phase_edges_split_by_shift_class(blown2):
    # transport edges ride reserved shifts, closing edges ride free shifts
    pairing = random_perfect_pairing(blown2.n, 21)
    oriented = canonical_labeling(blown2, pairing)
    result = phase_one(blown2, oriented)
    plan = phase_two(blown2, result)
    reserved = range(1, blown2.m + 1)
    for entry, r in zip(result.entries, plan.routes):
        walk_len = len(entry.walk) - 1
        for pos, (u, v) in enumerate(zip(r.path, r.path[1:])):
            fwd = (u, v) if blown2.class_of(v) == (blown2.class_of(u) + 1) % 4 \
                else (v, u)
            shift = (blown2.index_of(fwd[1]) - blown2.index_of(fwd[0])) % 11
            assert (shift in reserved) == (pos < walk_len)


def test_route_is_deterministic(blown2):
    pairing = random_perfect_pairing(blown2.n, 77)
    a = route(blown2, pairing)
    b = route(blown2, pairing)
    assert a == b
    assert dumps_plan(a) == dumps_plan(b)


@given(st.integers(min_value=2, max_value=3), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_route_property_random_pairings(m, seed):
    b = build(m)
    pairing = random_perfect_pairing(b.n, seed)
    plan = route(b, pairing)
    assert verify_plan(b.graph, pairing, plan).ok
    assert plan.max_route_length <= m + 2


@st.composite
def oracle_pairings(draw):
    """(b, pairing) of one of three kinds: uniform for m = 2..12, piled
    (`piled_pairings`), or the pairs left when a seeded subset of a uniform
    pairing's pairs is dropped."""
    kind = draw(st.sampled_from(["uniform", "piled", "partial"]))
    if kind == "piled":
        return draw(piled_pairings())
    b = build(draw(st.integers(2, 12)))
    pairing = random_perfect_pairing(b.n, draw(st.integers(0, 2**32)))
    if kind == "partial":
        keep = draw(st.lists(st.booleans(), min_size=len(pairing),
                             max_size=len(pairing)))
        pairing = make_pairing(pairing.ids[np.array(keep, dtype=bool)])
    return b, pairing


@given(oracle_pairings())
@settings(max_examples=60, deadline=None)
def test_route_matches_loop_reference(case):
    b, pairing = case
    plan, expected = route(b, pairing), reference_route(b, pairing)
    assert plan.routes == expected.routes
    assert plan.used_edges == expected.used_edges
    assert expected.used_edges == plan.used_edges
    assert plan.edges_used == len(expected.used_edges)
