"""Stored runs: write_outputs then result_from_files reproduces the run arrays,
its config and its report; the block CSV writer and reader agree with their
field-by-field references."""

from __future__ import annotations

import functools
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import csv_rows_by_field, parse_lines_by_column

from gridpulse import report
from gridpulse.engine import CorruptionSpec, PerturbationSpec, RunConfig, run
from gridpulse.errors import ConfigurationError
from gridpulse.faults import FaultBehavior, FaultPlacement
from gridpulse.protocol import SourceMode
from gridpulse.report import build_report, result_from_files, write_outputs
from gridpulse.timing import Params
from gridpulse.topology import build_line_with_replicated_ends

PARAMS = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
KAPPA = PARAMS.kappa

# exit_local is not written to snapshots.csv, so it reloads as NaN
STORED_ARRAYS = ("counts", "times", "local_times", "h_own", "h_min", "h_max", "correction")


def config(m, layers, pulses, seed, fault=None, corrupt=False, perturb=False) -> RunConfig:
    placement = FaultPlacement.empty()
    if fault is not None:
        v, layer, behavior = fault
        placement = FaultPlacement(behaviors={(v % (m + 4), layer % layers): behavior},
                                   strict=False)
    return RunConfig(
        base=build_line_with_replicated_ends(m), layers=layers, params=PARAMS,
        source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=seed), pulses=pulses,
        delay_seed=seed, clock_seed=seed + 1, placement=placement,
        corruption=CorruptionSpec(node_fraction=1.0, max_spurious_messages=8) if corrupt else None,
        corruption_seed=seed + 2,
        perturbation=PerturbationSpec(delay_magnitude=1e-5, rate_magnitude=1e-8, seed=seed)
        if perturb else None,
    )


def round_trip(result):
    """(report, reloaded run, report of the reloaded run)."""
    report = build_report(result)
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(result, report, Path(tmp))
        reloaded = result_from_files(Path(tmp))
    return report, reloaded, build_report(reloaded)


def assert_same_arrays(a, b) -> None:
    for name in STORED_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name  # bit for bit, NaN in the same places
    assert (a.arm == b.arm).all()


behaviors = st.sampled_from([
    FaultBehavior(kind="silent"),
    FaultBehavior(kind="fixed_offset", offset=0.3),
    FaultBehavior(kind="per_pulse_offset", offsets=(0.2, -0.1)),
])


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(2, 5),
    layers=st.integers(2, 5),
    pulses=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    fault=st.none() | st.tuples(st.integers(0, 8), st.integers(1, 4), behaviors),
    corrupt=st.booleans(),
    perturb=st.booleans(),
)
def test_stored_run_reloads_bit_for_bit(m, layers, pulses, seed, fault, corrupt, perturb):
    result = run(config(m, layers, pulses, seed, fault, corrupt, perturb))
    report, reloaded, reloaded_report = round_trip(result)
    assert_same_arrays(result, reloaded)
    assert reloaded.config == result.config
    assert json.dumps(reloaded_report, sort_keys=True) == json.dumps(report, sort_keys=True)


def test_overflow_pulses_round_trip():
    """A corrupted start emits more pulses than configured; all are stored."""
    result = run(config(3, 3, 4, seed=3, corrupt=True))
    assert result.counts.max() > 4 and result.times.shape[1] == result.counts.max()
    _, reloaded, _ = round_trip(result)
    assert_same_arrays(result, reloaded)


SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310,
                     2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308])


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_block_writer_matches_the_field_formatter(tmp_path, rows):
    """_write_columns writes the bytes of the field-by-field formatter: on
    random bit patterns (NaNs with payloads and signs included), on NaN,
    +-inf, -0.0, subnormals and +-1e300, and on a text column, at row counts
    around the 4,096-row block."""
    rng = np.random.default_rng(rows)
    shape = (3, 4, 700)
    present = np.zeros(shape, dtype=bool)
    present.flat[rng.choice(present.size, rows, replace=False)] = True
    arrays = [
        rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64).view(np.float64),
        rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape),
        rng.choice(SPECIALS, size=shape),
        rng.choice(np.array(["corrected", "timeout", "corrupted"], dtype=object), size=shape),
    ]
    header = ["layer", "vertex", "pulse", "bits", "scaled", "special", "arm"]
    report._write_columns(tmp_path / "rows.csv", header, present, arrays)
    expected = ",".join(header) + "\n" + csv_rows_by_field(present, arrays)
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode()


@functools.cache
def stored_run() -> tuple:
    """A run's config and the text of its trace.csv (85 KB) and snapshots.csv
    (130 KB, with empty fields): both span two of the reader's blocks."""
    result = run(config(16, 8, 12, seed=5, fault=(9, 3, FaultBehavior(kind="silent")),
                        perturb=True))
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(result, build_report(result), Path(tmp))
        texts = {name: (Path(tmp) / name).read_text() for name in ("trace.csv", "snapshots.csv")}
    return result.config, texts


def read_both_ways(tmp_path: Path, name: str, text: str) -> tuple:
    """``text`` as ``_read_columns`` reads it, the number of blocks it handed
    back to the Python parser, and ``text`` as it reads with every block handed
    back: each reading the columns, or the message of the ConfigurationError."""
    cfg = stored_run()[0]
    header, dtypes = {"trace.csv": (report.TRACE_COLUMNS, (float, float)),
                      "snapshots.csv": (report.SNAPSHOT_COLUMNS, (float,) * 4 + (object,))}[name]
    path = tmp_path / name
    path.write_text(text)

    def read():
        try:
            return report._read_columns(path, header, dtypes, cfg.layers, cfg.base.num_vertices)
        except ConfigurationError as exc:
            return str(exc)

    with mock.patch.object(report, "_parse_lines", wraps=report._parse_lines) as parse:
        fast = read()
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        slow = read()
    return fast, parse.call_count, slow


def assert_same_reading(fast, slow) -> None:
    """The same message, or the same columns bit for bit."""
    if isinstance(fast, str) or isinstance(slow, str):
        assert fast == slow
        return
    for a, b in zip(fast, slow, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        if a.dtype == object:
            assert [(type(x), x) for x in a.tolist()] == [(type(x), x) for x in b.tolist()]
        else:
            assert a.tobytes() == b.tobytes()


def put(text: str, line: int, column: int, field: str) -> str:
    """``text`` with a field replaced, lines counted from 1."""
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    for _ in range(column):
        start = text.index(",", start) + 1
    end = min(text.index(",", start), text.index("\n", start))
    return text[:start] + field + text[end:]


@pytest.mark.parametrize("name,edit,handed_back,blamed", [
    ("trace.csv", lambda t: t, 0, None),
    ("snapshots.csv", lambda t: t, 0, None),
    ("trace.csv", lambda t: put(t, 5, 3, "1_000"), 1, None),
    ("trace.csv", lambda t: put(t, 5, 3, "\u0663.5"), 1, None),  # an Arabic-Indic 3
    ("snapshots.csv", lambda t: put(t, 5, 7, "corrected\x00"), 1, None),
    ("trace.csv", lambda t: put(t, 5, 3, "2.5\x1f"), 1, "trace.csv:5: could not convert"),
    ("trace.csv", lambda t: put(t, 5, 0, "\n3"), 1, "trace.csv:5: expected 5 fields"),
    ("trace.csv", lambda t: put(t, 5, 0, "3\x0c"), 1, "trace.csv:5: expected 5 fields"),
    ("snapshots.csv", lambda t: put(t, 1500, 4, "abc"), 1, "snapshots.csv:1500: could not"),
], ids=["trace", "snapshots", "underscore", "arabic_digit", "nul", "unit_separator",
        "blank_line", "form_feed", "not_a_number"])
def test_each_reader_branch(tmp_path, name, edit, handed_back, blamed):
    """A block goes to numpy's reader, or back to the Python parser (a blank
    line, a character outside printable ASCII, a field numpy rejects), and the
    file reads the same either way: the same columns, or the same message."""
    fast, calls, slow = read_both_ways(tmp_path, name, edit(stored_run()[1][name]))
    assert calls == handed_back
    assert_same_reading(fast, slow)
    if blamed is None:
        assert not isinstance(fast, str)
    else:
        assert fast.startswith(f"{tmp_path / blamed}")


TOKENS = st.sampled_from([",", "\n", " ", "\x0c", "_", "+", "e", "nan", "\n\n", *"0123456789"])


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["trace.csv", "snapshots.csv"]), data=st.data())
def test_reader_agrees_with_the_python_parser(name, data):
    """Random edits of a stored run's CSV text, near the end of the first 64 KiB
    block or anywhere, read the same with and without numpy's reader."""
    text = stored_run()[1][name]
    boundary = text.index("\n") + 1 + report._READ_CHARS
    at = st.integers(boundary - 100, boundary + 100) | st.integers(0, len(text))
    edits = st.tuples(at, st.integers(0, 6), st.lists(TOKENS, max_size=5).map("".join))
    for start, cut, insert in data.draw(st.lists(edits, min_size=1, max_size=3)):
        text = text[:start] + insert + text[start + cut:]
    with tempfile.TemporaryDirectory() as tmp:
        fast, _, slow = read_both_ways(Path(tmp), name, text)
    assert_same_reading(fast, slow)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["trace.csv", "snapshots.csv"]), data=st.data())
def test_fallback_parses_as_the_batch_reference(name, data):
    """Eight rows of a stored run with some fields replaced or wrapped and some
    text edited, from the alphabet above plus an index past int64, a 400-digit
    value and a NUL: ``_parse_lines``, one field at a time, gives the columns
    of the reference that converts each column as a whole list first (values,
    dtypes and value types), or the same message, which names the first bad
    field of the first bad column."""
    dtypes = (np.int64,) * 3 + {"trace.csv": (float, float),
                                "snapshots.csv": (float,) * 4 + (object,)}[name]
    rows = stored_run()[1][name].splitlines()[1:]
    first = data.draw(st.integers(0, len(rows) - 8))
    lines = [row.split(",") for row in rows[first:first + 8]]
    extra = st.sampled_from(["12345678901234567890", "9" * 400, "\x00"])
    # a field edit keeps the rows and the field counts; a text edit need not
    within = st.lists(TOKENS.filter(lambda x: x not in (",", "\n", "\n\n")) | extra,
                      max_size=3).map("".join)
    fields = st.tuples(st.integers(0, 7), st.integers(0, len(dtypes) - 1), within, within,
                       st.booleans())
    for i, j, before, after, keep in data.draw(st.lists(fields, min_size=1, max_size=4)):
        lines[i][j] = before + (lines[i][j] if keep else "") + after
    text = "\n".join(map(",".join, lines))
    anything = st.lists(TOKENS | extra, max_size=3).map("".join)
    for start, cut, insert in data.draw(st.lists(
            st.tuples(st.integers(0, len(text)), st.integers(0, 6), anything), max_size=1)):
        text = text[:start] + insert + text[start + cut:]

    def parse(parse_lines, part, line):
        try:
            return parse_lines(Path(name), part, dtypes, line)
        except ConfigurationError as exc:
            return str(exc)

    lines = text.splitlines()
    # the eight rows as one block, then each row as a block of its own
    for start, part in [(0, lines), *((k, [line]) for k, line in enumerate(lines))]:
        assert_same_reading(parse(report._parse_lines, part, first + 2 + start),
                            parse(parse_lines_by_column, part, first + 2 + start))
