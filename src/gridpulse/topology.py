"""Base graphs and the layered DAG built from them.

The synchronization network is a layered graph: every layer is a copy of a
base graph H of minimum degree 2, and each node (v, l) feeds the copies of
itself and its H-neighbors on layer l+1. The stock construction is a line of
m vertices whose two endpoints are replicated into triangles so that every
vertex keeps degree >= 2.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "BaseGraph",
    "LayeredGraph",
    "LineInfo",
    "build_layered",
    "build_line_with_replicated_ends",
    "from_edges",
]


@dataclass(frozen=True)
class LineInfo:
    """Chain metadata for the replicated-ends construction.

    ``line`` lists the backbone vertices in order; ``hop`` maps every vertex
    to its distance (in chain broadcasts) from the pulse source that drives
    layer 0.
    """

    line: tuple[int, ...]
    start_replicas: tuple[int, int]
    end_replicas: tuple[int, int]

    def hop(self, vertex: int) -> int:
        if vertex in self.start_replicas:
            return 1
        if vertex in self.end_replicas:
            return len(self.line)
        return self.line.index(vertex) + 1


@dataclass(frozen=True)
class BaseGraph:
    """Simple connected undirected graph with minimum degree 2.

    Everything else is computed from the adjacency once, on first use:
    distances are all-pairs hop counts and ``diameter`` is their maximum.
    Equality compares the adjacency and ``line_info`` alone.
    """

    adjacency: tuple[tuple[int, ...], ...]
    line_info: LineInfo | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.adjacency)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(self.num_vertices))

    @cached_property
    def distance_table(self) -> tuple[tuple[int, ...], ...]:
        """Hop counts, -1 between vertices that are not connected."""
        return tuple(tuple(_bfs_distances(self.adjacency, v)) for v in self.vertices)

    @cached_property
    def diameter(self) -> int:
        return max(map(max, self.distance_table))

    @cached_property
    def slots(self) -> tuple[tuple[int, ...], ...]:
        """The slot table: ``slots[v] = sorted((v, *adjacency[v]))``. Node
        (v, l) feeds (w, l+1) exactly for w in ``slots[v]``, and slot j of its
        delay row is the edge to ``slots[v][j]``."""
        return tuple(tuple(sorted((v, *nbrs))) for v, nbrs in enumerate(self.adjacency))

    @cached_property
    def padded_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The slot table as a read-only [vertex, slot] int array, each row
        padded to the widest by repeating its last entry, and ``real``, the
        mask of the slots that ``slots`` has. The padding leaves a row's
        minimum and maximum unchanged."""
        slots = self.slots
        width = max(map(len, slots))
        table = np.array([row + row[-1:] * (width - len(row)) for row in slots])
        real = np.arange(width) < np.array([len(row) for row in slots])[:, None]
        table.flags.writeable = real.flags.writeable = False
        return table, real


def _bfs_distances(adjacency: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def build_line_with_replicated_ends(m: int) -> BaseGraph:
    """Line of m vertices with each endpoint replicated into a triangle.

    Vertex labels are fixed for reproducible traces: 0 and 1 are the start
    replicas, 2 .. m+1 the line, m+2 and m+3 the end replicas. Each replica
    pair is mutually adjacent and adjacent to its end vertex, so the minimum
    degree is 2 and the diameter is m+1.
    """
    if m < 2:
        raise ConfigurationError(f"line length m must be >= 2, got {m}")
    line = tuple(range(2, m + 2))
    start = (0, 1)
    end = (m + 2, m + 3)
    edges = [start, (start[0], line[0]), (start[1], line[0]), *zip(line, line[1:]),
             end, (end[0], line[-1]), (end[1], line[-1])]
    info = LineInfo(line=line, start_replicas=start, end_replicas=end)
    return from_edges(edges, line_info=info)


def from_edges(edges: list[tuple[int, int]], line_info: LineInfo | None = None) -> BaseGraph:
    """Build a validated BaseGraph from an explicit undirected edge list. The
    degree rule is checked on the edges, before any per-vertex list exists."""
    if not edges:
        raise ConfigurationError("edge list is empty")
    seen: set[tuple[int, int]] = set()
    for a, b in edges:
        if a == b:
            raise ConfigurationError(f"self-loop on vertex {a}")
        if a < 0 or b < 0:
            raise ConfigurationError("vertex ids must be non-negative integers")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ConfigurationError(f"duplicate edge {key}")
        seen.add(key)
    degree = Counter(v for key in seen for v in key)
    for v in range(len(degree)):  # k distinct ids are 0 .. k-1, or one of those has no edge
        if degree[v] < 2:
            raise ConfigurationError(f"vertex {v} has degree {degree[v]} < 2")
    adjacency: list[list[int]] = [[] for _ in degree]
    for a, b in seen:
        adjacency[a].append(b)
        adjacency[b].append(a)
    graph = BaseGraph(adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
                      line_info=line_info)
    if min(map(min, graph.distance_table)) < 0:
        raise ConfigurationError("base graph is not connected")
    return graph


@dataclass(frozen=True)
class LayeredGraph:
    """Layered DAG over a base graph: layers 0 .. num_layers-1.

    Node (v, l) has an edge to (w, l+1) exactly when w == v or {v, w} is a
    base edge, so every node on layer l >= 1 has deg_H(v) + 1 predecessors.
    """

    base: BaseGraph
    num_layers: int

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ConfigurationError(f"layer count must be >= 1, got {self.num_layers}")


def build_layered(base: BaseGraph, layers: int) -> LayeredGraph:
    return LayeredGraph(base=base, num_layers=layers)
