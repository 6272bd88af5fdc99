import math

import pytest

from bosonlc.lattice import (Graph, GraphError, build_cubic, build_path,
                             build_regular_tree, count_covering_edges, distance,
                             fatten)
from conftest import bfs_distances


def test_path_smallest():
    g = build_path(2)
    assert len(g.edges) == 1
    assert g.max_degree == 1


def test_path_combinatorics():
    g = build_path(7)
    assert len(g.edges) == 6
    assert max(distance(g, 0, v) for v in g.vertices()) == 6


def test_path_middle_degree():
    assert build_path(3).max_degree == 2


def test_path_rejects_zero():
    with pytest.raises(GraphError):
        build_path(0)


def test_cubic_degrees():
    assert build_cubic([3, 3]).max_degree == 4
    assert build_cubic([3, 3, 3]).max_degree == 6


def test_cubic_degenerate_is_path():
    g = build_cubic([2])
    assert g.num_vertices == 2 and len(g.edges) == 1


def test_cubic_rejects_empty():
    with pytest.raises(GraphError):
        build_cubic([])


def tree_level_count(branching, depth):
    # independent oracle: 1 + K + K(K-1) + ... + K(K-1)^(depth-1)
    total = 1
    level = 0
    for m in range(depth):
        level = branching if m == 0 else level * (branching - 1)
        total += level
    return total


def test_tree_counts():
    assert build_regular_tree(3, 1).num_vertices == 4
    assert build_regular_tree(3, 2).num_vertices == 10 == tree_level_count(3, 2)
    for k, d in [(3, 3), (4, 2), (5, 2)]:
        assert build_regular_tree(k, d).num_vertices == tree_level_count(k, d)


def test_tree_branching_two_is_path():
    for depth in (1, 2, 3):
        g = build_regular_tree(2, depth)
        assert g.num_vertices == 2 * depth + 1
        assert g.max_degree == 2
        # path: two leaves of degree 1
        assert sum(1 for v in g.vertices() if g.degree(v) == 1) == 2


def test_tree_rejects_small_branching():
    with pytest.raises(GraphError):
        build_regular_tree(1, 2)


def test_distance_identity_and_path():
    g = build_path(7)
    assert distance(g, 0, 6) == 6
    assert distance(g, 3, 3) == 0


def test_distance_grid_corners_bfs_oracle():
    g = build_cubic([3, 3])
    adj = {v: list(g.adjacency[v]) for v in g.vertices()}
    oracle = bfs_distances(adj, 0)
    assert distance(g, 0, 8) == oracle[8] == 4


def test_distance_unknown_vertex():
    g = build_path(3)
    with pytest.raises(GraphError):
        distance(g, 0, 7)


def test_distance_disconnected_infinite():
    g = Graph(4, [(0, 1), (2, 3)])
    assert distance(g, 0, 3) == math.inf


def test_metric_axioms_random_graphs(rng):
    graphs = [build_regular_tree(3, 3), build_cubic([4, 4]), build_path(15)]
    # plus a random connected-ish graph with bounded degree
    edges = set()
    for i in range(1, 30):
        edges.add((int(rng.integers(0, i)), i))
    graphs.append(Graph(30, sorted(edges)))
    for g in graphs:
        n = g.num_vertices
        for _ in range(200):
            u, v, w = (int(x) for x in rng.integers(0, n, 3))
            duv = distance(g, u, v)
            assert duv == distance(g, v, u)
            assert (duv == 0) == (u == v)
            assert duv <= distance(g, u, w) + distance(g, w, v)


def test_covering_count_edge_cases():
    g = build_path(9)
    assert count_covering_edges(g, 3, 4, 0) == 1   # the edge itself
    assert count_covering_edges(g, 0, 5, 0) == 0   # too far apart
    t = build_regular_tree(3, 3)
    for x in t.vertices():
        for radius in (0, 1, 2):
            assert count_covering_edges(t, x, x, radius) <= 3 ** (radius + 1)


def test_covering_count_bound_all_graphs(rng):
    for g in (build_path(12), build_cubic([4, 4]), build_regular_tree(4, 3)):
        k = g.max_degree
        n = g.num_vertices
        for _ in range(300):
            x, y = (int(v) for v in rng.integers(0, n, 2))
            radius = int(rng.integers(0, 3))
            c = count_covering_edges(g, x, y, radius)
            assert c <= k ** (radius + 1)
            if distance(g, x, y) > 2 * radius + 1:
                assert c == 0


def test_fatten_zero_and_path():
    g = build_path(7)
    assert fatten(g, {3}, 0) == {3}
    assert fatten(g, {3}, 1) == {2, 3, 4}


def test_fatten_size_bound(rng):
    for g in (build_cubic([4, 4]), build_regular_tree(3, 3)):
        k = g.max_degree
        for _ in range(50):
            subset = {int(v) for v in rng.integers(0, g.num_vertices, 3)}
            for radius in (0, 1, 2):
                fat = fatten(g, subset, radius)
                assert subset <= fat
                assert len(fat) <= len(subset) * (1 + k ** (radius + 1))


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 5)])
    # duplicate edges collapse
    assert len(Graph(3, [(0, 1), (1, 0)]).edges) == 1
