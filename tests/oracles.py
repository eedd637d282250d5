"""Brute-force references that the library's closed forms, its samplers, its
block CSV writer, its CSV reader's fallback parser and its base-graph builder
are checked against."""

from __future__ import annotations

import math
import random

import numpy as np

from gridpulse.errors import ConfigurationError, ProtocolError
from gridpulse.topology import BaseGraph, LineInfo


def correction_scan_oracle(h_own, h_min, h_max, kappa, theta, extra: int = 2):
    """``compute_correction`` by scanning every discretization step s up to
    the crossing plus ``extra``, with the same arithmetic per step."""
    if h_own is None or h_min is None:
        raise ProtocolError("correction needs the self-copy and first-neighbor timestamps")
    half = kappa / 2
    if h_max is None:
        return min(h_own - h_min + 3 * half, 0 * half)
    a = h_own - h_max
    b = h_own - h_min
    s_max = max(0, math.ceil((h_max - h_min) / (8 * kappa))) + extra
    delta = min(max(a + 4 * s * kappa, b - 4 * s * kappa) for s in range(s_max + 1)) - half
    if delta < 0:
        return min(h_own - h_min + 3 * half, 0 * half)
    if delta > theta * kappa:
        return max(h_own - h_max - 3 * half, theta * kappa)
    return delta


def ideal_source_times_by_loop(base, lam, jitter, seed, pulses):
    """``protocol.ideal_source_times`` with one ``Random(seed).uniform(0,
    jitter)`` per vertex, drawn in a loop, and no draw at all when ``jitter``
    is 0."""
    rng = random.Random(seed)
    offsets = [rng.uniform(0.0, jitter) if jitter > 0 else 0.0 for _ in base.vertices]
    return np.arange(pulses)[:, None] * lam + np.array(offsets)


def csv_rows_by_field(present, arrays) -> str:
    """The lines below the header that ``report._write_columns`` writes, each
    field formatted on its own: the indices by str(), floats with 17
    significant digits and NaN as an empty field, text as it is."""
    layer, v, k = np.nonzero(present.transpose(0, 2, 1))
    at = (layer, k, v)
    columns = [map(str, index.tolist()) for index in (layer, v, k + 1)]
    columns += [a[at].tolist() if a.dtype == object else
                ("" if math.isnan(x) else "%.17g" % x for x in a[at].tolist()) for a in arrays]
    return "".join(map("%s\n".__mod__, map(",".join, zip(*columns))))


def parse_column(path, column: list, dtype, first: int) -> np.ndarray:
    """A column of fields as an array of ``dtype``: np.int64, float (an empty
    field is NaN) or object (the text), converted as a whole list and, when
    that fails, field by field to find the bad field's line; the column starts
    on line ``first``. The reader's fallback before it parsed each field once."""
    parse = {np.int64: int, float: float, object: str}[dtype]
    if dtype is float:
        column = [x or "nan" for x in column]
    try:
        return np.array(list(map(parse, column)), dtype=dtype)
    except (ValueError, OverflowError):
        for line, text in enumerate(column, start=first):
            try:
                np.array(parse(text), dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise ConfigurationError(f"{path}:{line}: {exc}") from None
        raise


def parse_lines_by_column(path, lines: list, dtypes: tuple, first: int) -> list:
    """``report._parse_lines`` by ``parse_column``: the columns of ``lines``,
    starting on line ``first``; a line with a field count other than
    len(dtypes) is reported."""
    width = len(dtypes)
    for line, text in enumerate(lines, start=first):
        if text.count(",") != width - 1:
            raise ConfigurationError(f"{path}:{line}: expected {width} fields")
    fields = ",".join(lines).split(",")
    return [parse_column(path, fields[j::width], dtype, first)
            for j, dtype in enumerate(dtypes)]


def graph_by_vertex_lists(n: int, edges: set, line_info) -> BaseGraph:
    """A BaseGraph from one adjacency list per vertex id 0 .. n-1, built before
    the degree and connectivity checks. The builder's second stage before the
    degree rule moved onto the edge set."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for v, nbrs in enumerate(adjacency):
        nbrs.sort()
        if len(nbrs) < 2:
            raise ConfigurationError(f"vertex {v} has degree {len(nbrs)} < 2")
    graph = BaseGraph(adjacency=tuple(map(tuple, adjacency)), line_info=line_info)
    if min(map(min, graph.distance_table)) < 0:
        raise ConfigurationError("base graph is not connected")
    return graph


def from_edges_by_vertex_lists(edges: list) -> BaseGraph:
    """``topology.from_edges`` as two stages: the edge checks, then
    ``graph_by_vertex_lists`` over ids up to the largest."""
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
    n = max(max(a, b) for a, b in seen) + 1
    return graph_by_vertex_lists(n, seen, None)


def line_by_vertex_lists(m: int) -> BaseGraph:
    """``topology.build_line_with_replicated_ends`` with its edges collected in
    a set and handed to ``graph_by_vertex_lists``."""
    if m < 2:
        raise ConfigurationError(f"line length m must be >= 2, got {m}")
    line = tuple(range(2, m + 2))
    start = (0, 1)
    end = (m + 2, m + 3)
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        edges.add((min(a, b), max(a, b)))

    add(*start)
    add(start[0], line[0])
    add(start[1], line[0])
    for a, b in zip(line, line[1:]):
        add(a, b)
    add(*end)
    add(end[0], line[-1])
    add(end[1], line[-1])

    info = LineInfo(line=line, start_replicas=start, end_replicas=end)
    return graph_by_vertex_lists(m + 4, edges, info)
