"""Bounded-degree graphs and the combinatorial sets the propagation bounds quantify over.

Vertices are dense integer ids assigned at construction, so every derived
quantity (distances, fattened sets, covering counts) is reproducible run to run.
Distances are graph (Manhattan) distances: minimal edge count, ``math.inf``
for disconnected pairs.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

INF = math.inf


class GraphError(ValueError):
    """Raised for malformed graph construction or unknown vertex ids."""


class Graph:
    """Immutable undirected simple graph on vertices ``0..num_vertices-1``.

    No self-loops, no duplicate edges, finite maximum degree.  BFS distances
    are memoized per source vertex on its first query.
    """

    __slots__ = ("num_vertices", "edges", "adjacency", "_dist_cache")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]]):
        if num_vertices < 1:
            raise GraphError("graph needs at least one vertex")
        canon = set()
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphError(f"edge ({u},{v}) references unknown vertex")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            canon.add((min(u, v), max(u, v)))
        self.num_vertices = num_vertices
        self.edges = tuple(sorted(canon))
        adj: list[list[int]] = [[] for _ in range(num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._dist_cache: dict[int, tuple[float, ...]] = {}

    # -- basic queries -------------------------------------------------

    def vertices(self) -> range:
        return range(self.num_vertices)

    @property
    def max_degree(self) -> int:
        """K, the maximum vertex degree."""
        return max((len(a) for a in self.adjacency), default=0)

    def _check(self, v: int) -> None:
        if not (0 <= v < self.num_vertices):
            raise GraphError(f"unknown vertex id {v}")

    # -- distances -----------------------------------------------------

    def distances_from(self, source: int) -> tuple[float, ...]:
        """BFS distance vector from ``source``; inf on unreachable vertices."""
        self._check(source)
        cached = self._dist_cache.get(source)
        if cached is not None:
            return cached
        dist = [INF] * self.num_vertices
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in self.adjacency[u]:
                if dist[w] == INF:
                    dist[w] = du + 1
                    queue.append(w)
        out = tuple(dist)
        self._dist_cache[source] = out
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_vertices}, m={len(self.edges)}, K={self.max_degree})"


# ---------------------------------------------------------------------------
# constructors


def build_path(length: int) -> Graph:
    """Open chain on ``length`` vertices; K = 2 once length >= 3."""
    if length < 1:
        raise GraphError("path length must be >= 1")
    return Graph(length, [(i, i + 1) for i in range(length - 1)])


def is_path(graph: Graph) -> bool:
    """True iff ``graph`` is the open chain 0 - 1 - ... - (n-1)."""
    return graph.edges == tuple((i, i + 1) for i in range(graph.num_vertices - 1))


def build_cubic(dims: list[int]) -> Graph:
    """Nearest-neighbor lattice with open boundaries; interior degree 2*len(dims)."""
    if not dims:
        raise GraphError("dims must be non-empty")
    if any(d < 2 for d in dims):
        raise GraphError("every lattice extent must be >= 2")
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    n = strides[0] * dims[0]

    def coords(idx: int) -> list[int]:
        out = []
        for s, d in zip(strides, dims):
            out.append((idx // s) % d)
        return out

    edges = []
    for idx in range(n):
        c = coords(idx)
        for axis, (s, d) in enumerate(zip(strides, dims)):
            if c[axis] + 1 < d:
                edges.append((idx, idx + s))
    return Graph(n, edges)


def build_regular_tree(branching: int, depth: int) -> Graph:
    """Rooted tree: root has ``branching`` children, internal nodes branching-1.

    branching = 2 degenerates to a path of 2*depth+1 vertices centered at the
    root.
    """
    if branching < 2:
        raise GraphError("branching factor must be >= 2")
    if depth < 0:
        raise GraphError("depth must be >= 0")
    edges: list[tuple[int, int]] = []
    frontier = [0]
    next_id = 1
    for level in range(depth):
        children_per = branching if level == 0 else branching - 1
        new_frontier = []
        for parent in frontier:
            for _ in range(children_per):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return Graph(next_id, edges)


# ---------------------------------------------------------------------------
# set machinery


def distance(g: Graph, u: int, v: int) -> float:
    """Minimal edge count between u and v; inf if disconnected."""
    g._check(v)
    return 0 if u == v else g.distances_from(u)[v]


def set_distance(g: Graph, v: int, subset: Iterable[int]) -> float:
    """dist(v, R) = min over r in R of dist(v, r)."""
    dv = g.distances_from(v)
    return min((dv[r] for r in subset), default=INF)


def count_covering_edges(g: Graph, x: int, y: int, radius: int) -> int:
    """Exact number of edges e with both x and y inside the radius-ball of e.

    Always bounded by K**(radius+1), and zero once dist(x, y) > 2*radius + 1.
    """
    dx = g.distances_from(x)
    dy = g.distances_from(y)
    count = 0
    for u, v in g.edges:
        if min(dx[u], dx[v]) <= radius and min(dy[u], dy[v]) <= radius:
            count += 1
    return count


def fatten(g: Graph, subset: Iterable[int], radius: int) -> frozenset[int]:
    """All vertices within ``radius`` of the subset."""
    sub = list(subset)
    for v in sub:
        g._check(v)
    if radius == 0:
        return frozenset(sub)
    out = set()
    for r in sub:
        dr = g.distances_from(r)
        out.update(v for v in g.vertices() if dr[v] <= radius)
    return frozenset(out)
