"""Report assembly and bit-stable file output.

Trace/snapshot CSVs print times with 17 significant digits so they
round-trip exactly; ``write_report_json`` writes every JSON file (reports,
run.json, batch files) with sorted keys. Nothing here depends on wall-clock
time, so identical runs produce byte-identical files.

The CSV files are written 4,096 rows at a time and read back 64 KiB of text
at a time: the writer formats a block with one ``%``, and the reader parses a
block with numpy's C reader or, where the two could differ, parses each field
once with ``int``/``float``/``str``. Neither holds more than one block's fields
as Python objects.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis
from .config import build_run_config, run_document
from .engine import Diagnostics, RunResult, empty_arrays
from .errors import ConfigurationError
from .timing import local_skew_budget

__all__ = [
    "REPORT_SCHEMA",
    "build_report",
    "render_text",
    "result_from_files",
    "write_outputs",
]

REPORT_SCHEMA = "gridpulse-report/1"
RUN_SCHEMA = "gridpulse-run/2"

ALL_CHECKS = ("skew", "conditions", "envelope", "drift", "estimates", "period", "potentials")


TRACE_COLUMNS = ["layer", "vertex", "pulse", "time_real", "time_local"]
SNAPSHOT_COLUMNS = ["layer", "vertex", "pulse", "H_own", "H_min", "H_max", "correction",
                    "threshold_arm"]
_SNAPSHOT_ARRAYS = ("h_own", "h_min", "h_max", "correction", "arm")  # behind its value columns
_WRITE_ROWS = 4096  # rows the CSV writer formats at a time
_READ_CHARS = 1 << 16  # characters the CSV reader parses at a time, up to a line's end


def _write_columns(path: Path, header: list, present: np.ndarray, arrays: list) -> None:
    """One line per True entry of present[layer, pulse, vertex], in (layer,
    vertex, pulse) order: the indices, then each array's value there, floats
    with 17 significant digits and NaN as an empty field.

    Rows go out ``_WRITE_ROWS`` at a time, formatted by one ``%`` over the
    block's fields, so that beyond the index arrays the writer holds one
    block's fields as Python objects and its text."""
    layer, v, k = np.nonzero(present.transpose(0, 2, 1))
    width = 3 + len(arrays)
    row = ",".join(["%d"] * 3 + ["%s" if a.dtype == object else "%.17g" for a in arrays]) + "\n"
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, layer.size, _WRITE_ROWS):
            at = (layer[start:start + _WRITE_ROWS], k[start:start + _WRITE_ROWS],
                  v[start:start + _WRITE_ROWS])
            fields = [None] * (at[0].size * width)
            for j, column in enumerate([at[0], at[2], at[1] + 1, *(a[at] for a in arrays)]):
                fields[j::width] = column.tolist()
            # every NaN prints as "nan" right after a comma (the indices come first, and
            # the only text column is last and never starts with "nan"): empty it
            fh.write((row * at[0].size % tuple(fields)).replace(",nan", ","))


def _listed(violations: list) -> dict:
    """A check's entry from its violations: the first 50 and their count."""
    return {"passed": not violations, "violations": violations[:50],
            "violation_count": len(violations)}


def build_report(result: RunResult, checks: tuple[str, ...] = ALL_CHECKS) -> dict:
    """Run the requested checkers over a finished run and assemble verdicts."""
    cfg = result.config
    params = cfg.params
    view = analysis.TraceView(result)
    diameter = cfg.base.diameter
    s_max = math.ceil(math.log2(diameter)) + 1
    fault_free = not cfg.placement.members
    report: dict = {
        "schema": REPORT_SCHEMA,
        "checks_enabled": list(checks),
        "validation_violations": result.validation,
        "completed": result.completed,
        "kappa": params.kappa,
        "diameter": diameter,
        "fault_free": fault_free,
        "checks": {},
    }

    skew = analysis.local_skew(view)
    budget = local_skew_budget(params, diameter)
    report["skew"] = {
        "per_layer": skew.per_layer,
        "per_layer_pair": skew.per_layer_pair,
        "overall": skew.overall,
        "budget_fault_free": budget,
    }
    if "skew" in checks:
        max_layer = skew.max_layer_skew()
        ok = True
        if fault_free and max_layer is not None and not result.validation:
            ok = max_layer <= budget
        report["checks"]["skew"] = {
            "passed": bool(ok),
            "max_layer_skew": max_layer,
            "bound": budget if fault_free else None,
        }

    if "conditions" in checks and fault_free:
        failures = analysis.check_conditions(result, view, s_max=s_max)
        report["checks"]["conditions"] = {
            "passed": not failures,
            "failures": failures[:50],
            "failure_count": len(failures),
            "s_max": s_max,
        }

    if "envelope" in checks and not fault_free:
        report["checks"]["envelope"] = _listed(analysis.check_fault_envelope(result, view))
    if "drift" in checks:
        report["checks"]["drift"] = _listed(analysis.check_drift(result, view))
    if "estimates" in checks and fault_free:
        report["checks"]["estimates"] = _listed(analysis.check_estimates(result, view))
    if "period" in checks:
        violations = analysis.period_consistency(result, view)
        expected_static = (cfg.perturbation is None and cfg.corruption is None
                           and all(b.periodic for b in cfg.placement.behaviors.values()))
        report["checks"]["period"] = dict(_listed(violations), asserted=expected_static,
                                          passed=not violations or not expected_static)

    if "potentials" in checks:
        table = analysis.potentials(view, params.kappa, s_max=s_max)
        obs = analysis.skew_vs_potential_violations(view, table, params.kappa)
        entry: dict = {
            "psi_max_per_s": {
                str(s): (None if np.all(np.isnan(table.psi[s])) else float(np.nanmax(table.psi[s])))
                for s in table.s_values
            },
            "skew_vs_potential_violations": len(obs),
        }
        recursion = analysis.psi_bound_violations(table, params.kappa)
        entry["recursion_violations"] = len(recursion)
        # informational on faulty traces: the recursion is a fault-free statement
        entry["passed"] = not obs and (not recursion or not fault_free)
        report["checks"]["potentials"] = entry

    report["passed"] = all(c.get("passed", True) for c in report["checks"].values())
    return report


def write_report_json(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def render_text(report: dict) -> str:
    """Aligned human-readable summary of a report dict."""
    lines = []
    lines.append(f"schema           {report['schema']}")
    lines.append(f"kappa            {report['kappa']:.6g}")
    lines.append(f"diameter         {report['diameter']}")
    lines.append(f"completed        {report['completed']}")
    if report["validation_violations"]:
        for msg in report["validation_violations"]:
            lines.append(f"validation       VIOLATED  {msg}")
    else:
        lines.append("validation       ok")
    skew = report.get("skew", {})
    overall = skew.get("overall")
    lines.append(f"skew overall     {overall if overall is not None else 'undefined'}")
    for name, entry in sorted(report.get("checks", {}).items()):
        status = "PASS" if entry.get("passed", True) else "FAIL"
        detail = ""
        for key in ("failure_count", "violation_count"):
            if key in entry and entry[key]:
                detail = f"  ({entry[key]} {key.replace('_', ' ')})"
        lines.append(f"check {name:<10} {status}{detail}")
    lines.append(f"overall          {'PASS' if report.get('passed') else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_outputs(result: RunResult, report: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    emitted = np.arange(result.times.shape[1])[:, None] < result.counts[:, None, :]
    _write_columns(out_dir / "trace.csv", TRACE_COLUMNS, emitted,
                   [result.times, result.local_times])
    _write_columns(out_dir / "snapshots.csv", SNAPSHOT_COLUMNS, result.arm != "",
                   [getattr(result, name) for name in _SNAPSHOT_ARRAYS])
    run = {
        "schema": RUN_SCHEMA,
        "config": run_document(result.config),
        "validation_violations": result.validation,
        "completed": result.completed,
        "incomplete_nodes": [list(n) for n in result.incomplete_nodes],
        "diagnostics": asdict(result.diagnostics),
    }
    write_report_json(run, out_dir / "run.json")
    write_report_json(report, out_dir / "report.json")
    (out_dir / "report.txt").write_text(render_text(report))


def _parse_lines(path: Path, lines: list, dtypes: tuple, first: int) -> list:
    """The columns of ``lines``, starting on line ``first``, one of each of
    ``dtypes``: np.int64, float (an empty field is NaN) or object (the text).
    Each field is parsed once, by int(), float() or str(), into its column. A
    line with a field count other than len(dtypes) is reported, and then the
    first field of the first column that does not parse, each with its line."""
    width = len(dtypes)
    for line, text in enumerate(lines, start=first):
        if text.count(",") != width - 1:
            raise ConfigurationError(f"{path}:{line}: expected {width} fields")
    fields = ",".join(lines).split(",")
    columns = [np.empty(len(lines), dtype=dtype) for dtype in dtypes]
    for j, column in enumerate(columns):
        parse = {np.int64: int, float: lambda x: float(x or "nan"), object: str}[dtypes[j]]
        for i, text in enumerate(fields[j::width]):
            try:
                column[i] = parse(text)
            except (ValueError, OverflowError) as exc:
                raise ConfigurationError(f"{path}:{first + i}: {exc}") from None
    return columns


def _loaded(text: str, table: np.dtype) -> list | None:
    """The columns of the lines of ``text`` by numpy's C reader, one field of
    ``table`` each, or None where its result could differ from
    ``_parse_lines``': a blank line (which it skips), a character outside
    printable ASCII other than the line feed (a NUL, a line break that
    str.splitlines knows, whitespace that int() keeps, a digit outside ASCII),
    or a field it does not parse (such as ``1_000``, which int() and float()
    read)."""
    plain = bytes(range(32, 127)) + b"\n"
    if text.startswith("\n") or "\n\n" in text or text.encode().translate(None, plain):
        return None
    try:  # an empty value field is NaN
        rows = np.loadtxt(io.StringIO(text.replace(",,", ",nan,").replace(",,", ",nan,")),
                          dtype=table, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return [rows[name] for name in table.names]


def _read_columns(path: Path, header: list, dtypes: tuple, layers: int, vertices: int) -> list:
    """The columns of a CSV file that ``_write_columns`` wrote with ``header``:
    (layer, vertex, pulse) as int64 arrays, then the value columns as ``dtypes``.
    A wrong header, field count or field, a row off the grid, or rows not
    strictly increasing in (layer, vertex, pulse) are reported with the line.

    Each field reads as int(), float() or str() reads it. The text is parsed
    ``_READ_CHARS`` characters at a time, extended to the end of a line (the
    blocks of ``readlines(_READ_CHARS)``): by numpy's C reader, or by
    ``_parse_lines`` where ``_loaded`` gives a block back, which parses each
    field once and reports the line of a bad field. So the reader holds the
    columns as arrays and the text of one block, and one block's fields as
    Python strings where it falls back."""
    first, dtypes = 2, (np.int64,) * 3 + dtypes
    table = np.dtype([(f"f{j}", dtype) for j, dtype in enumerate(dtypes)])
    blocks = [[np.array([], dtype=dtype) for dtype in dtypes]]
    with path.open() as fh:
        if fh.readline().rstrip("\n") != ",".join(header):
            raise ConfigurationError(f"{path}:1: expected the header {','.join(header)}")
        while text := fh.read(_READ_CHARS) + fh.readline():
            block = _loaded(text, table) or _parse_lines(path, text.splitlines(), dtypes, first)
            blocks.append(block)
            first += len(block[0])
    columns = [np.concatenate(column) for column in zip(*blocks)]
    layer, v, pulse = columns[:3]
    _reject(path, (layer < 0) | (layer >= layers) | (v < 0) | (v >= vertices) | (pulse < 1),
            f"is off the grid of {layers} layers and {vertices} vertices, or has a pulse below 1")
    step, pulse_step = np.diff(layer * vertices + v), np.diff(pulse)
    _reject(path, np.r_[False, (step < 0) | ((step == 0) & (pulse_step <= 0))],
            "is not after the row above in (layer, vertex, pulse) order")
    return columns


def _reject(path: Path, bad: np.ndarray, what: str) -> None:
    """Report the first row where ``bad`` holds."""
    if bad.any():
        raise ConfigurationError(f"{path}:{int(np.argmax(bad)) + 2}: this row {what}")


def result_from_files(out_dir: Path) -> RunResult:
    """Rebuild an analyzable run from stored trace/snapshot/metadata files.

    The files must be laid out as ``write_outputs`` writes them: rows in
    (layer, vertex, pulse) order, each node's pulses 1..count in trace.csv,
    every snapshot on a pulse of the trace with an arm that ``run`` writes, and
    run.json's ``completed`` and ``incomplete_nodes`` as those counts give them
    and its ``validation_violations`` as the config's params give them.
    ``exit_local`` is not stored and reloads as NaN.
    """
    paths = [out_dir / name for name in ("trace.csv", "snapshots.csv", "run.json")]
    if not all(p.exists() for p in paths):
        raise ConfigurationError(f"{out_dir} does not hold a run "
                                 f"(trace.csv, snapshots.csv or run.json missing)")
    trace_path, snap_path, run_path = paths
    try:
        meta = json.loads(run_path.read_text())
    except ValueError as exc:
        raise ConfigurationError(f"{run_path}: {exc}") from exc
    schema = meta.get("schema") if isinstance(meta, dict) else None
    if schema != RUN_SCHEMA:
        raise ConfigurationError(f"{run_path}: schema {schema!r} is not {RUN_SCHEMA!r}; "
                                 f"re-run `gridpulse run` to write this run in the current schema")
    try:
        cfg = build_run_config(meta.get("config"))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{run_path}: {exc}") from exc
    L, n = cfg.layers, cfg.base.num_vertices

    layer, v, pulse, times, local_times = _read_columns(
        trace_path, TRACE_COLUMNS, (float, float), L, n)
    if not layer.size:
        raise ConfigurationError(f"{trace_path}: trace is empty")
    _reject(trace_path, np.isnan(times) | np.isnan(local_times), "has no time")
    counts = np.bincount(layer * n + v, minlength=L * n).reshape(L, n)
    # a node's pulses, strictly increasing from 1, are 1..count when none exceeds count
    _reject(trace_path, pulse > counts[layer, v],
            "is past its node's row count: a node's pulses run 1, 2, ... without a gap")
    arrays = empty_arrays(L, max(cfg.pulses, int(counts.max())), n)
    arrays["times"][layer, pulse - 1, v] = times
    arrays["local_times"][layer, pulse - 1, v] = local_times

    layer, v, pulse, *values = _read_columns(
        snap_path, SNAPSHOT_COLUMNS, (float,) * 4 + (object,), L, n)
    _reject(snap_path, pulse > counts[layer, v], "has no pulse in trace.csv")
    arm = values[-1]
    _reject(snap_path, (arm != "corrected") & (arm != "timeout") & (arm != "corrupted"),
            "has a threshold_arm other than corrected, timeout or corrupted")
    for name, value in zip(_SNAPSHOT_ARRAYS, values):
        arrays[name][layer, pulse - 1, v] = value

    result = RunResult(config=cfg, counts=counts, **arrays, diagnostics=Diagnostics())
    stored = (meta.get("completed"), meta.get("incomplete_nodes"))
    derived = (result.completed, [list(node) for node in result.incomplete_nodes])
    if stored != derived:
        raise ConfigurationError(
            f"{run_path}: completed and incomplete_nodes are {stored[0]!r} and {stored[1]!r}, "
            f"but the pulse counts of trace.csv give {derived[0]!r} and {derived[1]!r}")
    if meta.get("validation_violations") != result.validation:
        raise ConfigurationError(
            f"{run_path}: validation_violations is {meta.get('validation_violations')!r}, "
            f"but the config's params give {result.validation!r}")
    return result
