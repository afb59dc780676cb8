import dataclasses
import itertools

import numpy as np
import pytest

import pairpath.blowup as blowup_module
from helpers import (blown_cycle_edges, class_members, degrees,
                     matching_step, neighbors, reference_twin_classes,
                     sorted_edges, to_networkx)
from pairpath.blowup import BlownCycle, BlowupError, build, free_common_neighbors
from pairpath.graph import MAX_VERTICES, diameter, make_graph
from pairpath.routing import random_perfect_pairing, route


def test_build_m2_metrics(blown2):
    assert blown2.n == 44
    assert blown2.q == 11
    assert blown2.num_classes == 4
    assert blown2.graph.edge_count == 484
    assert degrees(blown2.graph) == [22] * 44
    assert diameter(blown2.graph) == 2


def test_build_m3_metrics(blown3):
    assert blown3.n == 90
    assert blown3.graph.edge_count == 1350
    assert diameter(blown3.graph) == 3


def test_blown_cycle_stores_only_m():
    assert [f.name for f in dataclasses.fields(BlownCycle)] == ["m"]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_derived_sizes(m):
    b = build(m)
    assert (b.q, b.num_classes, b.n) == (4 * m + 3, 2 * m, 2 * m * (4 * m + 3))
    assert "graph" not in vars(b)
    assert b.graph.n == b.n
    assert b.graph.edge_count == 2 * m * b.q ** 2


def test_graph_is_built_once_on_first_use():
    b = build(2)
    assert "graph" not in vars(b)
    g = b.graph
    assert vars(b)["graph"] is g
    assert b.graph is g


@pytest.mark.parametrize("m", [*range(2, 17), 32, 33])
def test_keys_written_in_order_equal_make_graph(m):
    # m = 32 is the largest blown cycle with a bit matrix, m = 33 the first
    # without, so both edge lookups of the written keys are covered
    b = build(m)
    g = make_graph(b.n, blown_cycle_edges(b))
    assert b.graph == g
    assert b.graph.keys.dtype == np.int64
    assert not b.graph.keys.flags.writeable
    assert (b.graph.bits is None) == (m > 32)
    assert (b.edge_count, b.max_degree) == (g.edge_count, g.max_degree)


@pytest.mark.parametrize("m", range(2, 13))
def test_has_edges_is_the_graph_definition(m):
    # every key 0..n*n-1, so every pair u < v and every u >= v, and the
    # int64 values around and beyond that range; from m = 6 on, n*n keys
    # span more than one chunk of has_edges
    b = build(m)
    n = b.n
    keys = np.concatenate([np.arange(n * n), np.array(
        [-1, -2, -n, -n + 1, n * n, n * n + 1, -2**63, 2**63 - 1])])
    found = b.has_edges(keys)
    assert found.dtype == bool
    assert np.array_equal(found, b.graph.has_edges(keys))
    assert not found[n * n:].any()
    assert np.array_equal(np.flatnonzero(found), b.graph.keys)
    assert len(b.has_edges(keys[:0])) == 0


@pytest.mark.parametrize("m", range(2, 13))
def test_quotient_equals_the_twin_classes_of_the_graph(m):
    b = build(m)
    want, got = b.graph.quotient, b.quotient
    assert got.reps == want.reps == reference_twin_classes(b.graph)[0]
    for a, c in ((got.cls, want.cls), (got.sizes, want.sizes),
                 (got.adj.indptr, want.adj.indptr),
                 (got.adj.indices, want.adj.indices)):
        assert a.dtype == c.dtype
        assert np.array_equal(a, c)
        assert not a.flags.writeable
    assert len(got.reps) == (2 if m == 2 else 2 * m)


def test_route_builds_no_graph():
    b = build(48)
    plan = route(b, random_perfect_pairing(b.n, 1))
    assert len(plan.routes) == b.n // 2
    assert "graph" not in vars(b)


def test_equality_and_hash_are_those_of_m():
    a, b = build(5), build(5)
    assert a == b and hash(a) == hash(b)
    assert a != build(6)
    assert "graph" not in vars(a) and "graph" not in vars(b)


def test_build_rejects_small_m():
    with pytest.raises(BlowupError):
        build(1)
    with pytest.raises(BlowupError):
        build(0)


def test_classes_are_independent_joined_to_neighbors(blown2):
    g = blown2.graph
    for v in range(blown2.n):
        i = blown2.class_of(v)
        expected = set(class_members(blown2, i - 1)) | set(
            class_members(blown2, i + 1))
        assert set(neighbors(g, v)) == expected


def test_matching_step_examples(blown2):
    assert matching_step(blown2, 0, 1, blown2.vertex(0, 0)) == blown2.vertex(1, 1)
    assert matching_step(blown2, 1, 2, blown2.vertex(1, 1)) == blown2.vertex(2, 3)
    # wraps around both the cycle and the class index
    assert matching_step(blown2, 3, 2, blown2.vertex(3, 10)) == blown2.vertex(0, 1)


def test_matching_step_rejects_free_shift(blown2):
    with pytest.raises(BlowupError, match="reserved"):
        matching_step(blown2, 0, 10, 0)
    with pytest.raises(BlowupError, match="reserved"):
        matching_step(blown2, 0, 0, 0)


def test_matching_step_rejects_wrong_class(blown2):
    with pytest.raises(BlowupError, match="class"):
        matching_step(blown2, 0, 1, blown2.vertex(2, 0))


def test_matching_step_edges_exist(blown2):
    edges = set(sorted_edges(blown2.graph))
    for shift in (1, 2):
        for v in class_members(blown2, 0):
            w = matching_step(blown2, 0, shift, v)
            assert (min(v, w), max(v, w)) in edges


def test_shift_matchings_are_perfect_and_disjoint(blown3):
    # each reserved shift maps a class onto the next bijectively and
    # distinct shifts at one boundary share no edge
    for boundary in range(blown3.num_classes):
        edges_by_shift = []
        for shift in range(1, blown3.m + 1):
            images = [matching_step(blown3, boundary, shift, v)
                      for v in class_members(blown3, boundary)]
            assert sorted(images) == list(class_members(blown3,
                                                        boundary + 1))
            edges_by_shift.append({(v, w) for v, w in zip(
                class_members(blown3, boundary), images)})
        union = set().union(*edges_by_shift)
        assert len(union) == blown3.m * blown3.q


def test_free_common_neighbors_example(blown2):
    u, v = blown2.vertex(2, 0), blown2.vertex(2, 3)
    zs = free_common_neighbors(blown2, u, v)
    assert zs == [blown2.vertex(3, t) for t in (0, 3, 6, 7, 8, 9, 10)]
    assert blown2.vertex(3, 0) in zs
    assert len(zs) >= 2 * blown2.m + 3


def test_free_common_neighbors_avoid_reserved_shifts(blown2):
    u, v = blown2.vertex(0, 0), blown2.vertex(0, 1)
    edges = set(sorted_edges(blown2.graph))
    for z in free_common_neighbors(blown2, u, v):
        for w in (u, v):
            assert (min(w, z), max(w, z)) in edges
            shift = (blown2.index_of(z) - blown2.index_of(w)) % blown2.q
            assert shift not in range(1, blown2.m + 1)


def test_free_common_neighbors_rejects_bad_input(blown2):
    with pytest.raises(BlowupError, match="distinct"):
        free_common_neighbors(blown2, 5, 5)
    with pytest.raises(BlowupError, match="different classes"):
        free_common_neighbors(blown2, blown2.vertex(0, 1), blown2.vertex(1, 1))
    for u, v, bad in ((0, blown2.n, blown2.n), (-1, 1, -1)):
        with pytest.raises(BlowupError, match=f"vertex {bad} out of range"):
            free_common_neighbors(blown2, u, v)


@pytest.mark.parametrize("m", [2, 3])
def test_free_common_lower_bound_exhaustive(m):
    b = build(m)
    floor = 2 * m + 3
    for i in range(b.num_classes):
        for u, v in itertools.combinations(class_members(b, i), 2):
            assert len(free_common_neighbors(b, u, v)) >= floor


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_free_common_matches_residual_graph_oracle(m):
    # independent check: drop all reserved-shift edges, then z must be a
    # plain common neighbor of u and v in the next class; the first and the
    # last class cover the wrap of the cycle, all their pairs every wrap of
    # the reserved windows
    b = build(m)
    h = to_networkx(b.graph)
    for boundary in range(b.num_classes):
        for shift in range(1, b.m + 1):
            for v in class_members(b, boundary):
                h.remove_edge(v, matching_step(b, boundary, shift, v))
    for cls in (0, b.num_classes - 1):
        nxt = set(class_members(b, cls + 1))
        for u, v in itertools.permutations(class_members(b, cls), 2):
            expected = sorted(set(h[u]) & set(h[v]) & nxt)
            assert free_common_neighbors(b, u, v) == expected


def test_build_refuses_more_vertices_than_a_graph_holds():
    # m = 19483 is the largest whose n = 2m(4m+3) fits; build is lazy, so
    # this allocates nothing of size n
    assert build(19_483).n == 3_036_815_210 <= MAX_VERTICES
    assert 2 * 19_484 * (4 * 19_484 + 3) > MAX_VERTICES
    for m in (19_484, 10**5, 10**9):
        with pytest.raises(BlowupError, match=f"^half cycle length {m} "
                           "gives .* more than the 3037000500 a graph"):
            build(m)
