"""Report assembly and bit-stable file output.

Trace/snapshot CSVs print times with 17 significant digits so they
round-trip exactly; report JSON is schema-versioned with sorted keys.
Nothing here depends on wall-clock time, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis
from .config import build_run_config, run_document
from .engine import Diagnostics, RunResult, run_arrays
from .errors import ConfigurationError
from .timing import local_skew_budget

__all__ = [
    "REPORT_SCHEMA",
    "build_report",
    "read_trace_dir",
    "render_text",
    "write_outputs",
]

REPORT_SCHEMA = "gridpulse-report/1"
RUN_SCHEMA = "gridpulse-run/2"

ALL_CHECKS = ("skew", "conditions", "envelope", "drift", "estimates", "period", "potentials")


TRACE_COLUMNS = ["layer", "vertex", "pulse", "time_real", "time_local"]
SNAPSHOT_COLUMNS = ["layer", "vertex", "pulse", "H_own", "H_min", "H_max", "correction",
                    "threshold_arm"]
_SNAPSHOT_VALUES = ("h_own", "h_min", "h_max", "correction")  # the CSV's value columns


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else format(x, ".17g")


def _write_rows(path: Path, header: list, present: np.ndarray, arrays: list) -> None:
    """One row per True entry of present[layer, pulse, vertex], in (layer,
    vertex, pulse) order: the indices, then each array's value there."""
    layer, v, k = np.nonzero(present.transpose(0, 2, 1))
    at = (layer, k, v)
    columns = [layer.tolist(), v.tolist(), (k + 1).tolist()]
    columns += [a[at].tolist() if a.dtype == object else map(_fmt, a[at].tolist())
                for a in arrays]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_trace_csv(result: RunResult, path: Path) -> None:
    K = result.times.shape[1]
    emitted = np.arange(K)[None, :, None] < result.counts[:, None, :]
    _write_rows(path, TRACE_COLUMNS, emitted, [result.times, result.local_times])


def write_snapshot_csv(result: RunResult, path: Path) -> None:
    _write_rows(path, SNAPSHOT_COLUMNS, result.arm != "",
                [getattr(result, name) for name in _SNAPSHOT_VALUES] + [result.arm])


def write_run_json(result: RunResult, path: Path) -> None:
    payload = {
        "schema": RUN_SCHEMA,
        "config": run_document(result.config),
        "validation_violations": result.validation,
        "completed": result.completed,
        "incomplete_nodes": [list(n) for n in result.incomplete_nodes],
        "diagnostics": asdict(result.diagnostics),
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def build_report(result: RunResult, checks: tuple[str, ...] = ALL_CHECKS,
                 s_max: int | None = None) -> dict:
    """Run the requested checkers over a finished run and assemble verdicts."""
    cfg = result.config
    params = cfg.params
    view = analysis.TraceView(result)
    diameter = cfg.base.diameter
    if s_max is None:
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
            "failures": [asdict(f) for f in failures[:50]],
            "failure_count": len(failures),
            "s_max": s_max,
        }

    if "envelope" in checks and not fault_free:
        violations = analysis.check_fault_envelope(result, view)
        report["checks"]["envelope"] = {
            "passed": not violations,
            "violations": violations[:50],
            "violation_count": len(violations),
        }

    if "drift" in checks:
        violations = analysis.check_drift(result, view)
        report["checks"]["drift"] = {
            "passed": not violations,
            "violations": violations[:50],
            "violation_count": len(violations),
        }

    if "estimates" in checks and fault_free:
        violations = analysis.check_estimates(result, view)
        report["checks"]["estimates"] = {
            "passed": not violations,
            "violations": violations[:50],
            "violation_count": len(violations),
        }

    if "period" in checks:
        violations = analysis.period_consistency(result, view)
        expected_static = (cfg.perturbation is None and cfg.corruption is None
                           and all(b.periodic for b in cfg.placement.behaviors.values()))
        report["checks"]["period"] = {
            "passed": (not violations) if expected_static else True,
            "violation_count": len(violations),
            "violations": violations[:50],
            "asserted": expected_static,
        }

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
    write_trace_csv(result, out_dir / "trace.csv")
    write_snapshot_csv(result, out_dir / "snapshots.csv")
    write_run_json(result, out_dir / "run.json")
    write_report_json(report, out_dir / "report.json")
    (out_dir / "report.txt").write_text(render_text(report))


def _float(text: str) -> float | None:
    return float(text) if text else None


def read_trace_dir(out_dir: Path) -> tuple[list, list, dict]:
    """Load trace.csv, snapshots.csv and run.json back from an output dir, as
    the pulse rows, snapshot rows (see engine.run_arrays) and run metadata."""
    trace_path = out_dir / "trace.csv"
    run_path = out_dir / "run.json"
    if not trace_path.exists() or not run_path.exists():
        raise ConfigurationError(f"{out_dir} does not hold a run (trace.csv/run.json missing)")
    try:
        meta = json.loads(run_path.read_text())
    except ValueError as exc:
        raise ConfigurationError(f"{run_path}: {exc}") from exc
    schema = meta.get("schema") if isinstance(meta, dict) else None
    if schema != RUN_SCHEMA:
        raise ConfigurationError(f"{run_path}: schema {schema!r} is not {RUN_SCHEMA!r}; "
                                 f"re-run `gridpulse run` to write this run in the current schema")
    with trace_path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_COLUMNS:
            raise ConfigurationError(f"{trace_path}: unexpected trace schema {header}")
        try:
            pulse_rows = [
                (int(layer), int(v), int(k), float(t), float(local))
                for layer, v, k, t, local in reader
            ]
        except ValueError as exc:
            raise ConfigurationError(f"{trace_path}:{reader.line_num}: {exc}") from exc
    snapshot_rows: list = []
    snap_path = out_dir / "snapshots.csv"
    if snap_path.exists():
        with snap_path.open() as fh:
            reader = csv.reader(fh)
            next(reader, None)
            try:
                snapshot_rows = [
                    # exit_local is not stored
                    (int(layer), int(v), int(k), arm, *map(_float, (h_own, h_min, h_max, c)), None)
                    for layer, v, k, h_own, h_min, h_max, c, arm in reader
                ]
            except ValueError as exc:
                raise ConfigurationError(f"{snap_path}:{reader.line_num}: {exc}") from exc
    if not pulse_rows:
        raise ConfigurationError(f"{trace_path}: trace is empty")
    return pulse_rows, snapshot_rows, meta


def result_from_files(out_dir: Path) -> RunResult:
    """Rebuild an analyzable run from stored trace/snapshot/metadata files."""
    pulse_rows, snapshot_rows, meta = read_trace_dir(out_dir)
    cfg = build_run_config(meta.get("config"))
    vertices = cfg.base.num_vertices
    for row in (*pulse_rows, *snapshot_rows):
        if not (0 <= row[0] < cfg.layers and 0 <= row[1] < vertices and row[2] >= 1):
            raise ConfigurationError(f"{out_dir}: (layer, vertex, pulse) {row[:3]} is outside "
                                     f"the run's {cfg.layers} layers and {vertices} vertices")
    return RunResult(
        config=cfg,
        **run_arrays(cfg.layers, vertices, cfg.pulses, pulse_rows, snapshot_rows),
        diagnostics=Diagnostics(),
        validation=list(meta.get("validation_violations", [])),
        completed=bool(meta.get("completed", True)),
        incomplete_nodes=[tuple(n) for n in meta.get("incomplete_nodes", [])],
    )
