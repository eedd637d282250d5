"""Topology construction, the slot table and distances."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from gridpulse.config import build_run_config
from gridpulse.errors import ConfigurationError
from gridpulse.timing import delay_keys
from gridpulse.topology import build_layered, build_line_with_replicated_ends, from_edges


def bfs_oracle(adjacency, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


class TestLineReplicatedEnds:
    def test_replicas_are_adjacent(self):
        g = build_line_with_replicated_ends(4)
        assert g.distance_table[0][1] == 1

    def test_line_distance(self):
        g = build_line_with_replicated_ends(4)
        # v_1..v_4 are vertices 2..5
        assert g.distance_table[2][5] == 3

    def test_diameter_matches_bfs_oracle(self):
        g = build_line_with_replicated_ends(4)
        adjacency = {v: list(g.adjacency[v]) for v in g.vertices}
        worst = max(
            max(bfs_oracle(adjacency, v).values()) for v in g.vertices
        )
        assert g.diameter == worst == 5

    def test_min_degree_two(self):
        for m in (2, 3, 8):
            g = build_line_with_replicated_ends(m)
            assert min(len(nbrs) for nbrs in g.adjacency) >= 2

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            build_line_with_replicated_ends(1)

    def test_hop_indices(self):
        g = build_line_with_replicated_ends(5)
        info = g.line_info
        assert info.hop(info.line[0]) == 1
        assert info.hop(info.line[-1]) == 5
        assert info.hop(info.start_replicas[0]) == 1
        assert info.hop(info.end_replicas[1]) == 5


def predecessors(base, v):
    """The vertices whose slot rows feed v on the next layer up."""
    return [w for w in base.vertices if v in base.slots[w]]


class TestLayeredGraph:
    """The slot table: node (v, l) feeds (w, l+1) exactly for w in slots[v]."""

    def test_path_piece_predecessors(self):
        g = build_line_with_replicated_ends(4)
        # v_2 (vertex 3) has line neighbors v_1 (2) and v_3 (4)
        assert g.slots[3] == (2, 3, 4)
        assert predecessors(g, 3) == [2, 3, 4]

    def test_successors_mirror_predecessors(self):
        g = build_line_with_replicated_ends(4)
        for v in g.vertices:
            for w in g.slots[v]:
                assert v in g.slots[w]

    def test_end_vertex_in_degree(self):
        g = build_line_with_replicated_ends(4)
        # v_1 (vertex 2): self, v_2, both start replicas
        assert predecessors(g, 2) == [0, 1, 2, 3]

    def test_predecessor_count_is_degree_plus_one(self):
        g = build_line_with_replicated_ends(6)
        for v in g.vertices:
            assert len(predecessors(g, v)) == len(g.slots[v]) == len(g.adjacency[v]) + 1

    def test_layer_zero_has_no_predecessors(self):
        """Layered edges run from layers 0..L-2 to layers 1..L-1."""
        lg = build_layered(build_line_with_replicated_ends(3), 3)
        dag = [key for key in delay_keys(lg) if key[0] == "dag"]
        assert {layer for _, _, layer, _ in dag} == {0, 1}
        assert len(dag) == 2 * sum(len(row) for row in lg.base.slots)


class TestDistanceMetric:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**30))
    def test_metric_properties_on_random_graphs(self, m, seed):
        import random

        rng = random.Random(seed)
        g = build_line_with_replicated_ends(m)
        # densify with a few random chords; the construction stays valid
        extra = [
            (a, b)
            for a in g.vertices
            for b in g.vertices
            if a < b and rng.random() < 0.15
        ]
        edges = {
            (a, b)
            for a in g.vertices
            for b in g.adjacency[a]
            if a < b
        } | set(extra)
        dense = from_edges(sorted(edges))
        n = dense.num_vertices
        for v in range(n):
            assert dense.distance_table[v][v] == 0
            for w in range(n):
                assert dense.distance_table[v][w] == dense.distance_table[w][v]
                if v != w:
                    assert dense.distance_table[v][w] > 0
                for x in range(n):
                    assert (
                        dense.distance_table[v][x]
                        <= dense.distance_table[v][w] + dense.distance_table[w][x]
                    )


class TestEdgeList:
    def test_round_trip(self):
        square = [(0, 1), (1, 2), (2, 3), (3, 0)]
        g = from_edges(square)
        assert g.num_vertices == 4
        assert g.diameter == 2
        assert g.adjacency == ((1, 3), (0, 2), (1, 3), (0, 2))

    def test_degree_one_rejected(self):
        with pytest.raises(ConfigurationError, match="degree 1"):
            from_edges([(0, 1), (1, 2)])

    def test_disconnected_rejected(self):
        with pytest.raises(ConfigurationError, match="not connected"):
            from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])

    def test_bad_line(self):
        """An edge-list row that is not a [u, v] pair names its key path."""
        doc = {"topology": {"kind": "edge_list", "edges": [[0, 1], [1, 2], [0, 1, 2]]},
               "layers": 2, "pulses": 1,
               "params": {"d": 1.0, "u": 0.002, "theta": 1.0002, "Lambda": 2.0}}
        with pytest.raises(ConfigurationError, match=r"topology\.edges\[2\]"):
            build_run_config(doc)
