"""Topology construction and distances."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from gridpulse.config import build_run_config
from gridpulse.errors import ConfigurationError
from gridpulse.topology import build_layered, build_line_with_replicated_ends, distance, from_edges


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
        assert distance(g, 0, 1) == 1

    def test_line_distance(self):
        g = build_line_with_replicated_ends(4)
        # v_1..v_4 are vertices 2..5
        assert distance(g, 2, 5) == 3

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
            assert min(g.degree(v) for v in g.vertices) >= 2

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


class TestLayeredGraph:
    def test_path_piece_predecessors(self):
        g = build_line_with_replicated_ends(4)
        lg = build_layered(g, 5)
        # v_2 (vertex 3) has line neighbors v_1 (2) and v_3 (4)
        assert lg.predecessors((3, 2)) == ((2, 1), (3, 1), (4, 1))

    def test_successors_mirror_predecessors(self):
        g = build_line_with_replicated_ends(4)
        lg = build_layered(g, 4)
        for v, layer in lg.nodes():
            for succ in lg.successors((v, layer)):
                assert (v, layer) in lg.predecessors(succ)

    def test_end_vertex_in_degree(self):
        g = build_line_with_replicated_ends(4)
        lg = build_layered(g, 3)
        # v_1 (vertex 2): self, v_2, both start replicas
        assert len(lg.predecessors((2, 1))) == 4

    def test_predecessor_count_is_degree_plus_one(self):
        g = build_line_with_replicated_ends(6)
        lg = build_layered(g, 4)
        for v in g.vertices:
            for layer in range(1, 4):
                assert len(lg.predecessors((v, layer))) == g.degree(v) + 1

    def test_layer_zero_has_no_predecessors(self):
        g = build_line_with_replicated_ends(3)
        lg = build_layered(g, 2)
        assert lg.predecessors((2, 0)) == ()


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

    def test_unknown_vertex(self):
        g = build_line_with_replicated_ends(3)
        with pytest.raises(ConfigurationError):
            distance(g, 0, 99)


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
