import itertools
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairpath.graph as graph_module
from helpers import (ORACLE_GRAPHS, bfs_layers, degrees, dense_distances,
                     edge_cut_size, graphs_with_twins, neighbors, path_graph,
                     reference_twin_classes, sorted_edges, to_networkx,
                     twin_blowup)
from pairpath.blowup import build
from pairpath.graph import (GraphError, as_ids, diameter, distance_matrix,
                            first_claims, generate, make_graph, twin_classes)
from pairpath.pairability import screen


def connected_graphs(max_n=10):
    """Random graphs kept connected by a path spine."""
    @st.composite
    def strat(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        spine = [(i, i + 1) for i in range(n - 1)]
        extra = draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]),
            max_size=2 * n))
        return make_graph(n, spine + list(extra))
    return strat()


def test_make_graph_c4_degrees():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert degrees(g) == [2, 2, 2, 2]


def test_make_graph_collapses_duplicates():
    g = make_graph(2, [(0, 1), (1, 0)])
    assert g.edge_count == 1
    assert [neighbors(g, v) for v in range(2)] == [[1], [0]]


def test_make_graph_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        make_graph(3, [(0, 3)])


def test_make_graph_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        make_graph(3, [(1, 1)])


def test_make_graph_names_the_first_bad_edge_in_input_order():
    with pytest.raises(GraphError, match=r"^self-loop at vertex 2 not"):
        make_graph(3, [(0, 1), (2, 2), (0, 3)])
    with pytest.raises(GraphError, match=r"^edge \(0,3\) has id out of"):
        make_graph(3, [(0, 1), (0, 3), (2, 2), (0, 2**64)])
    with pytest.raises(GraphError, match=r"^edge \(0,18446744073709551616\)"):
        make_graph(3, [(0, 1), (0, 2**64), (2, 2)])


def test_make_graph_names_a_row_that_is_no_pair():
    for edges, row in (([(0, 1), (1, 2, 0)], r"#1 \(1, 2, 0\)"),
                       ([(0, 1), (1,)], r"#1 \(1,\)"),
                       ([[0, 1], [2, 0], 1], "#2 1")):
        with pytest.raises(GraphError,
                           match=f"^edge {row} is not a \\(u, v\\) pair$"):
            make_graph(3, edges)
    with pytest.raises(GraphError, match=r"^edges must be \(u, v\) pairs, "
                                         r"got shape \(2, 3\)$"):
        make_graph(3, np.zeros((2, 3), dtype=np.int64))


def test_make_graph_refuses_non_integer_ids():
    # an id is what operator.index accepts; nothing is truncated or parsed
    for edges, named in (([(0, 1), (0.7, 1)], r"\(0\.7,1\)"),
                         (np.array([[0.5, 1.9]]), r"\(0\.5,1\.9\)"),
                         ([(0, 1), ("1", 2)], r"\('1',2\)"),
                         ([(1.0, 2)], r"\(1\.0,2\)")):
        with pytest.raises(GraphError,
                           match=f"^edge {named} has id out of range 0..2$"):
            make_graph(3, edges)
    g = make_graph(3, [(np.int64(0), 1), (True, np.uint8(2))])
    assert sorted_edges(g) == [(0, 1), (1, 2)]


def test_as_ids_reads_every_non_id_as_minus_one():
    values = [0, 2, 3, -1, 2**70, 1.0, 0.4, "1", None, np.int64(1)]
    assert as_ids(values, 3).tolist() == [0, 2] + [-1] * 7 + [1]
    assert as_ids([], 3).dtype == np.int64


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
def test_as_ids_reads_integer_arrays_as_their_lists(dtype):
    n = 100
    values = [0, 5, n - 1, n, n + 1, -1, -100, 2**63, 2**63 + 7, 2**64 - 1,
              2**63 - 1]
    info = np.iinfo(dtype)
    kept = [v for v in values if info.min <= v <= info.max]
    array = np.array(kept, dtype=dtype)
    assert as_ids(array, n).tolist() == as_ids(kept, n).tolist()
    assert array.tolist() == kept  # the input is left as it was


def test_as_ids_reads_non_integer_arrays_element_by_element():
    # bool, float and object arrays hold no ids, except integer objects
    assert as_ids(np.array([True, False]), 3).tolist() == [-1, -1]
    assert as_ids(np.array([1.0, 2.5]), 3).tolist() == [-1, -1]
    assert as_ids(np.array([1, 2.0, "2", 2**70], dtype=object),
                  3).tolist() == [1, -1, -1, -1]


def test_make_graph_rejects_keys_beyond_int64():
    top = graph_module.MAX_VERTICES
    g = make_graph(top, [(top - 2, top - 1), (0, top - 1)])
    assert sorted_edges(g) == [(0, top - 1), (top - 2, top - 1)]
    assert int(g.keys.max()) == (top - 2) * top + top - 1 <= 2**63 - 1
    assert (top + 1) ** 2 - (top + 1) - 1 > 2**63 - 1
    with pytest.raises(GraphError,
                       match=f"^vertex count {top + 1} exceeds {top}, the"):
        make_graph(top + 1, [(top - 1, top)])
    with pytest.raises(GraphError, match="exceeds"):
        make_graph(10**10, [(9999999998, 9999999999)])


@given(st.lists(st.one_of(st.integers(-1, 4),
                          st.sampled_from([-2**63, 2**63 - 1])), max_size=40))
@example([])
@settings(max_examples=200, deadline=None)
def test_first_claims_marks_the_earliest_position_of_each_value(values):
    keys = np.array(values, dtype=np.int64)
    order, first = first_claims(keys)
    assert sorted(order.tolist()) == list(range(len(values)))
    ordered = keys[order]
    assert (ordered[1:] >= ordered[:-1]).all()
    earliest: dict[int, int] = {}
    for pos, value in enumerate(values):
        earliest.setdefault(value, pos)
    assert first.tolist() == [earliest[values[pos]] == pos
                              for pos in order.tolist()]


def test_generate_hypercube3(q3):
    assert q3.n == 8
    assert q3.edge_count == 12
    assert degrees(q3) == [3] * 8


def test_generate_hypercube_matches_networkx():
    g = generate("hypercube", (4,))
    h = nx.hypercube_graph(4)
    relabel = {node: sum(b << i for i, b in enumerate(node)) for node in h}
    expected = {tuple(sorted((relabel[u], relabel[v]))) for u, v in h.edges}
    assert set(sorted_edges(g)) == expected


@pytest.mark.parametrize("family, params", [
    *[("complete", (k,)) for k in range(1, 9)],
    *[("hypercube", (d,)) for d in range(1, 6)],
    ("grid2", (1, 1)), ("grid2", (1, 4)), ("grid2", (3, 4)), ("grid2", (5, 2)),
    ("grid3", (1, 1, 1)), ("grid3", (2, 2, 3)), ("grid3", (3, 1, 4)),
    ("grid3", (3, 3, 3))])
def test_product_families_match_brute_force(family, params):
    # each is a product of complete graphs with row-major ids: an edge is
    # every pair of ids whose coordinates differ in exactly one place
    dims = (2,) * params[0] if family == "hypercube" else params
    n = 1
    for d in dims:
        n *= d

    def coords(v):
        out = []
        for d in reversed(dims):
            v, c = divmod(v, d)
            out.append(c)
        return out

    expected = [(u, v) for u in range(n) for v in range(u + 1, n)
                if sum(a != b for a, b in zip(coords(u), coords(v))) == 1]
    g = generate(family, params)
    assert (g.n, sorted_edges(g)) == (n, expected)


def test_generate_petersen_structure(petersen):
    assert petersen.n == 10
    assert petersen.edge_count == 15
    assert degrees(petersen) == [3] * 10
    # girth 5 by brute force: shortest cycle through each vertex
    girth = min(_shortest_cycle_through(petersen, v) for v in range(10))
    assert girth == 5


def _shortest_cycle_through(g, root):
    # BFS recording parents; a non-tree edge closes a cycle
    best = float("inf")
    dist = {root: 0}
    parent = {root: -1}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in neighbors(g, v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    nxt.append(w)
                elif parent[v] != w and dist[w] >= dist[v]:
                    best = min(best, dist[v] + dist[w] + 1)
        frontier = nxt
    return best


def test_generate_grid2_degrees():
    g = generate("grid2", (3, 4))
    assert g.n == 12
    assert degrees(g) == [5] * 12


def test_generate_grid3_matches_product():
    g = generate("grid3", (2, 2, 3))
    assert g.n == 12
    assert degrees(g) == [1 + 1 + 2] * 12


def test_generate_complete_bipartite():
    g = generate("complete-bipartite", (2, 3))
    assert g.edge_count == 6
    # part A (2 vertices) sees all of B and vice versa
    assert degrees(g) == [3, 3, 2, 2, 2]


def test_generate_rejects_bad_parameters():
    with pytest.raises(GraphError):
        generate("complete-bipartite", (0, 3))
    with pytest.raises(GraphError):
        generate("cycle", (2,))
    with pytest.raises(GraphError):
        generate("petersen", (5,))
    # the parameter count must match the family's
    for family, params in (("grid2", (3,)), ("grid3", (2, 3)),
                           ("cycle", (3, 4))):
        with pytest.raises(GraphError, match=f"^family {family} takes "):
            generate(family, params)
    with pytest.raises(GraphError, match="unknown family"):
        generate("moebius", (5,))


def test_bfs_layers_path_end():
    profile = bfs_layers(path_graph(5), 0)
    assert profile.sizes == (1, 1, 1, 1, 1)
    assert profile.prefix_sums == (1, 2, 3, 4, 5)


def test_bfs_layers_c4(c4):
    for root in range(4):
        assert bfs_layers(c4, root).sizes == (1, 2, 1)


def test_bfs_layers_blown_cycle(blown2):
    for root in (0, 17, 43):
        assert bfs_layers(blown2.graph, root).sizes == (1, 22, 21)


def test_bfs_layers_disconnected_names_witness():
    g = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="vertex 2 unreachable"):
        bfs_layers(g, 0)


def test_bfs_layers_matches_networkx(petersen, q3):
    for g in (petersen, q3):
        for root in range(g.n):
            expected = nx.single_source_shortest_path_length(
                to_networkx(g), root)
            profile = bfs_layers(g, root)
            for t, layer in enumerate(profile.layers):
                assert all(expected[v] == t for v in layer)


def test_diameter_values(q3, blown3):
    assert diameter(generate("cycle", (6,))) == 3
    assert diameter(q3) == 3
    assert diameter(blown3.graph) == 3


def test_diameter_matches_networkx(petersen):
    assert diameter(petersen) == nx.diameter(to_networkx(petersen))


def test_diameter_rejects_disconnected():
    with pytest.raises(GraphError, match="disconnected"):
        diameter(make_graph(3, [(0, 1)]))


def test_eccentricities(q3, blown2):
    assert distance_matrix(q3).max(axis=1).tolist() == [3] * 8
    # twins share eccentricity: the vertex's is its class's
    cls = blown2.graph.quotient.cls
    assert (distance_matrix(blown2.graph).max(axis=1)[cls]
            == dense_distances(blown2.graph).max(axis=1)).all()


def test_edge_cut_examples(c4, blown2):
    assert edge_cut_size(c4, {0}) == 2
    assert edge_cut_size(path_graph(10), range(5)) == 1
    assert edge_cut_size(blown2.graph, range(22)) == 2 * 11 * 11


def test_edge_cut_rejects_trivial_sides(c4):
    with pytest.raises(GraphError):
        edge_cut_size(c4, set())
    with pytest.raises(GraphError):
        edge_cut_size(c4, {0, 1, 2, 3})


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_handshake_identity(g):
    assert sum(degrees(g)) == 2 * g.edge_count


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_layers_partition_and_edges_stay_local(g):
    profile = bfs_layers(g, 0)
    assert sum(profile.sizes) == g.n
    assert profile.sizes[0] == 1
    level = {v: t for t, layer in enumerate(profile.layers) for v in layer}
    assert all(abs(level[u] - level[v]) <= 1
               for u, v in set(sorted_edges(g)))


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_diameter_equals_max_layer_depth(g):
    assert diameter(g) == max(bfs_layers(g, r).eccentricity
                              for r in range(g.n))


@given(connected_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_cut_symmetric_under_complement(g, data):
    side = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1,
                             max_size=g.n - 1))
    rest = set(range(g.n)) - side
    assert edge_cut_size(g, side) == edge_cut_size(g, rest)


def test_distance_matrix_agrees_with_layers(blown2):
    dist = distance_matrix(blown2.graph)
    cls = blown2.graph.quotient.cls
    profile = bfs_layers(blown2.graph, 5)
    for t, layer in enumerate(profile.layers):
        assert all(dist[cls[5], cls[v]] == t for v in layer if v != 5)


# ------------------------------------------------- twin-reduced distances


def test_twin_classes_of_blown_cycle(blown3):
    reps, cls = twin_classes(blown3.graph)
    b = blown3
    assert reps == [b.vertex(c, 0) for c in range(b.num_classes)]
    assert [reps[k] for k in cls] == [b.vertex(b.class_of(v), 0)
                                      for v in range(b.n)]


def test_twin_classes_of_star():
    reps, cls = twin_classes(generate("complete-bipartite", (1, 7)))
    assert reps == [0, 1]
    assert list(cls) == [0] + [1] * 7


def assert_twin_classes_match_the_reference(g):
    reps, cls = twin_classes(g)
    want_reps, want_cls = reference_twin_classes(g)
    assert reps == want_reps
    assert cls.dtype == want_cls.dtype and cls.tolist() == want_cls.tolist()


@st.composite
def graphs_with_spread(draw):
    """A graph with twins, or random rows of many lengths, where some
    vertices may be isolated but n <= 2E, as twin_classes requires."""
    if draw(st.booleans()):
        return draw(graphs_with_twins(max_n=10, max_twins=8))
    n = draw(st.integers(2, 14))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1))
                         .filter(lambda e: e[0] < e[1]),
                         min_size=(n + 1) // 2, max_size=4 * n))
    return make_graph(n, list(edges))


@given(graphs_with_spread())
@settings(max_examples=200, deadline=None)
def test_twin_classes_match_the_reference_loop(g):
    assert_twin_classes_match_the_reference(g)


@pytest.mark.parametrize("g", [
    make_graph(0, []), make_graph(1, []), generate("complete", (9,)),
    generate("hypercube", (6,)), generate("cycle", (101,)),
    generate("complete-bipartite", (2, 9)), twin_blowup(40, seed=3),
    build(7).graph,
    # K4 and two isolated vertices, which are twins: n = 2E / 2
    make_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
], ids=["n0", "n1", "K9", "Q6", "C101", "K2_9", "blowup40", "blown7",
        "K4+2"])
def test_twin_classes_match_the_reference_on_families(g):
    assert_twin_classes_match_the_reference(g)


def test_distance_matrix_of_a_twin_free_graph_is_all_pairs(petersen):
    # every class holds one vertex, so the class matrix is n x n
    assert (distance_matrix(petersen) == dense_distances(petersen)).all()


def test_diameter_runs_one_bfs_per_twin_class(monkeypatch, blown3):
    calls = []
    real = graph_module._bfs

    def spy(adj, sources):
        calls.append(sources)
        return real(adj, sources)

    monkeypatch.setattr(graph_module, "_bfs", spy)
    assert diameter(blown3.graph) == 3
    assert [s.tolist() for s in calls] == [[*range(2 * 3)]]


def assert_class_matrix_matches_the_oracle(g):
    dense = dense_distances(g)
    reps, cls = reference_twin_classes(g)
    dist = distance_matrix(g)
    assert dist.dtype == np.int64
    # the representatives' distances, and on the diagonal 2 for a class of
    # two or more (they have a neighbour, g being connected), 0 for one
    want = dense[reps][:, reps]
    np.fill_diagonal(want, np.where(np.bincount(cls) > 1, 2, 0))
    assert (dist == want).all()
    # vertex by vertex: [cls[u], cls[v]] is the distance of u and v, u != v
    between = dist[cls][:, cls]
    np.fill_diagonal(between, 0)
    assert (between == dense).all()
    # a vertex's eccentricity is its class's row maximum
    assert (dist.max(axis=1)[cls] == dense.max(axis=1)).all()
    assert diameter(g) == dense.max()


@given(graphs_with_twins(), st.integers(0, 2), st.data())
@settings(max_examples=120, deadline=None)
def test_twin_reduced_metrics_match_oracle(g, isolated, data):
    # isolated vertices are twins of one another, so two or more of them
    # leave a class without a neighbour; the witness is then the smallest
    # vertex that 0 cannot reach, as a plain BFS from 0 finds it
    if isolated:
        perm = data.draw(st.permutations(range(g.n + isolated)))
        us, vs = g.endpoints()
        g = make_graph(g.n + isolated, [(perm[u], perm[v]) for u, v
                                        in zip(us.tolist(), vs.tolist())])
        with pytest.raises(GraphError) as err:
            bfs_layers(g, 0)
        for metric in (distance_matrix, diameter):
            with pytest.raises(GraphError, match=f"^{err.value}$"):
                metric(g)
    else:
        assert_class_matrix_matches_the_oracle(g)


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_metrics_match_oracle_on_families(name):
    g = ORACLE_GRAPHS[name]
    assert_class_matrix_matches_the_oracle(g)
    h = to_networkx(g)
    assert [neighbors(g, v) for v in range(g.n)] == [sorted(h[v])
                                                     for v in range(g.n)]
    assert degrees(g) == [h.degree(v) for v in range(g.n)]
    assert g.max_degree == max(d for _, d in h.degree)
    assert sorted_edges(g) == sorted(tuple(sorted(e)) for e in h.edges)
    assert g.edge_count == h.number_of_edges()
    indptr, indices = g.csr
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.tolist() == [0, *itertools.accumulate(
        len(h[v]) for v in range(g.n))]
    assert indices.tolist() == [w for v in range(g.n) for w in sorted(h[v])]
    assert_twin_classes_match_the_reference(g)


def test_equality_and_hash_ignore_the_built_csr():
    a = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = make_graph(4, [(2, 3), (1, 0), (1, 2)])
    hash_a = hash(a)
    assert len(a.csr.indices) == 6
    assert "csr" in vars(a) and "csr" not in vars(b)
    assert a == b and hash(a) == hash(b) == hash_a
    # edge lists that are shuffled or repeat edges give equal graphs
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    base = make_graph(4, edges)
    for variant in (edges[::-1], [(v, u) for u, v in edges[2:] + edges[:2]],
                    edges + [(1, 0), (3, 1)] + edges):
        same = make_graph(4, variant)
        assert same == base and hash(same) == hash(base)
    assert make_graph(4, edges[:-1] + [(0, 2)]) != base
    assert make_graph(4, edges[:-1]) != base
    assert make_graph(5, edges) != base
    assert (base == 5) is False


# (graph, whether it has a bit matrix): Graph.bits exists when n*n <= 64E;
# the blown cycle at m = 32 and the 64-cycle are exactly at that bound
EDGE_LOOKUP_GRAPHS = {
    "blown-cycle-32": (lambda: build(32).graph, True),
    "blown-cycle-33": (lambda: build(33).graph, False),
    "cycle-64": (lambda: generate("cycle", (64,)), True),
    "cycle-65": (lambda: generate("cycle", (65,)), False),
    "complete-9": (lambda: generate("complete", (9,)), True),
    "hypercube-10": (lambda: generate("hypercube", (10,)), False),
    "no-edges-5": (lambda: make_graph(5, []), False),
    "one-vertex": (lambda: make_graph(1, []), False),
    "no-vertex": (lambda: make_graph(0, []), True),
    "huge": (lambda: make_graph(10**9, [(0, 1), (5, 10**9 - 1)]), False),
}


@pytest.mark.parametrize("name", sorted(EDGE_LOOKUP_GRAPHS))
def test_has_edges_is_key_membership_on_both_paths(name):
    make, dense = EDGE_LOOKUP_GRAPHS[name]
    g = make()
    assert (g.bits is not None) == dense
    rng = np.random.default_rng(len(name))
    top = g.n * g.n
    queries = np.concatenate([
        g.keys, rng.integers(0, max(top, 1), size=2000),
        [-1, 0, top - 1, top, -2**63, 2**63 - 1]]).astype(np.int64)
    edges = set(g.keys.tolist())
    for keys in (np.sort(queries), rng.permutation(queries), queries[:0]):
        found = g.has_edges(keys)
        assert found.dtype == bool
        assert found.tolist() == [k in edges for k in keys.tolist()]


def test_bit_matrix_is_built_in_bounded_memory():
    # the bits take n*n/8 bytes, a fifth of the keys' memory here; the build
    # must not make anything of n*n bytes, nor one key-sized temporary
    g = build(24).graph
    tracemalloc.start()
    try:
        bits = g.bits
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.nbytes == g.n * g.n // 8 + 1 and not bits.flags.writeable
    assert peak < bits.nbytes + g.keys.nbytes // 4


def test_isolated_vertex_fails_before_csr():
    # n > 2E forces an isolated vertex; nothing n-sized may be allocated
    g = make_graph(10**9, [(0, 1)])
    with pytest.raises(GraphError,
                       match="disconnected: vertex 2 unreachable from 0$"):
        diameter(g)
    assert "csr" not in vars(g)
    with pytest.raises(GraphError, match="vertex 1 unreachable from 0$"):
        diameter(make_graph(4, [(1, 2)]))


def test_isolated_vertex_witness_is_one_rule():
    # n > 2E: each metric names the first vertex that 0 misses
    g = make_graph(5, [(0, 1), (2, 3)])
    for metric in (diameter, distance_matrix):
        with pytest.raises(GraphError, match="vertex 2 unreachable from 0$"):
            metric(g)
    # screen needs an even n: the same graph with a sixth, isolated vertex
    with pytest.raises(GraphError, match="vertex 2 unreachable from 0$"):
        screen(make_graph(6, [(0, 1), (2, 3)]))


def test_disconnected_twins_name_witness():
    # 1, 2 are twins and 4, 5 are twins, in two separate stars
    g = make_graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    for metric in (diameter, distance_matrix):
        with pytest.raises(GraphError, match="vertex 3 unreachable from 0$"):
            metric(g)


def test_isolated_twins_are_unreachable():
    # 0 and 1 are isolated, so they are false twins with no neighbour
    g = make_graph(6, [(2, 3), (3, 4), (4, 5)])
    for metric in (diameter, distance_matrix):
        with pytest.raises(GraphError, match="vertex 1 unreachable from 0$"):
            metric(g)
    # with K4 on the other four, n <= 2E: on 2..5 the -1 on class 0's
    # diagonal names 1; on 1..4 the isolated twins are 0 and 5, and the
    # missing class of 1 comes before 5
    for first in (2, 1):
        k4 = make_graph(6, [(first + i, first + j) for i in range(4)
                            for j in range(i + 1, 4)])
        with pytest.raises(GraphError, match="vertex 1 unreachable from 0$"):
            distance_matrix(k4)


def test_isolated_vertex_witness_is_found_on_touched_vertices():
    # n > 2E: the witness is the first vertex 0 misses, whether 0 is
    # isolated, the first untouched vertex comes first, or a touched one
    # in another component does, and nothing n-sized is built
    for edges, missed in (([(1, 2), (3, 4)], 1), ([(0, 1), (0, 3)], 2),
                          ([(0, 3), (1, 2)], 1), ([(0, 1), (2, 3)], 2)):
        g = make_graph(7, edges)
        with pytest.raises(GraphError, match=f"vertex {missed} unreachable "
                                             "from 0$"):
            distance_matrix(g)
        assert "csr" not in vars(g)
    huge = make_graph(10**9, [(0, 1)])
    with pytest.raises(GraphError, match="vertex 2 unreachable from 0$"):
        distance_matrix(huge)
    assert "csr" not in vars(huge)


@pytest.mark.parametrize("classes", [63, 64, 65, 129])
def test_distance_matrix_across_chunk_boundaries(classes):
    # the BFS takes 64 source classes per chunk
    g = twin_blowup(classes, seed=classes)
    assert len(g.quotient.reps) == classes
    assert_class_matrix_matches_the_oracle(g)


def test_distance_matrix_of_one_and_of_no_vertex():
    assert distance_matrix(make_graph(1, [])).tolist() == [[0]]
    assert diameter(make_graph(1, [])) == 0
    with pytest.raises(GraphError, match="^empty graph has no distances$"):
        distance_matrix(make_graph(0, []))
