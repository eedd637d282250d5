"""Command-line front end: run, verify, sweep, stabilize, faults-mc.

Exit codes: 0 success, 1 an enabled check (or a batch row) failed, 2 config
error. All outputs are deterministic functions of the config file; batch
rows are ordered by (axis point, seed) regardless of worker completion.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import analysis, report as report_mod
from .config import MC_BEHAVIORS, build_run_config, load_config, load_experiment
from .engine import RunConfig, run
from .errors import AlignmentError, ConfigurationError
from .faults import FaultBehavior, validate_placement
from .report import ALL_CHECKS, build_report, render_text, write_outputs
from .timing import validate_params
from .topology import build_layered

OUT_ENV = "GRIDPULSE_OUT"

__all__ = ["main"]


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get(OUT_ENV) or "gridpulse-out")


def _parse_checks(raw: str | None) -> tuple[str, ...]:
    """The checks ``--checks`` names, each once; all of them when the flag is left out."""
    if raw is None:
        return ALL_CHECKS
    names = tuple(dict.fromkeys(x.strip() for x in raw.split(",") if x.strip()))
    if not names or not set(names) <= set(ALL_CHECKS):
        raise ConfigurationError(f"--checks {raw!r}: name one or more of "
                                 f"{', '.join(ALL_CHECKS)}, separated by commas")
    return names


def _set_path(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if node.get(part) is None:  # a null section reads as absent, as run reads it
            node[part] = {}
        node = node[part]
        if not isinstance(node, dict):
            raise ConfigurationError(f"{dotted}: {part!r} is not a mapping in the run config")
    node[parts[-1]] = value


# A batch row's seed plus these offsets seeds each random stream, so the
# streams are decoupled and the row seed fully determines a trial.
SEED_OFFSETS = {"delays": 0, "clocks": 10_000_019, "source": 20_000_033,
                "faults": 30_000_049, "corruption": 40_000_061,
                "perturbation": 50_000_077, "fault_behaviors": 60_000_091}


def _derive_seeds(doc: dict, seed: int) -> None:
    """Set every per-stream seed of a run document from the row seed."""
    for stream in ("delays", "clocks", "source"):
        _set_path(doc, f"{stream}.seed", seed + SEED_OFFSETS[stream])
    for stream in ("faults", "corruption", "perturbation"):
        section = doc.get(stream)
        if isinstance(section, dict) and (stream != "faults" or "p" in section):
            section["seed"] = seed + SEED_OFFSETS[stream]


def _trial_config(doc: dict, seed: int, edits: dict) -> RunConfig:
    """A batch trial's config: the experiment's run document with ``edits``
    (dotted key -> value) set and every stream seeded from the row seed."""
    doc, edits = json.loads(json.dumps([doc, edits]))  # deep copy, keeps plain types
    for key, value in edits.items():
        _set_path(doc, key, value)
    _derive_seeds(doc, seed)
    return build_run_config(doc)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    checks = _parse_checks(args.checks)
    violations = validate_params(cfg.params, cfg.base.diameter)
    if violations and not args.force:
        for msg in violations:
            print(f"config error: {msg}", file=sys.stderr)
        print("(use --force to run outside the validated regime)", file=sys.stderr)
        return 2
    try:
        result = run(cfg)
    except AlignmentError as exc:
        print(f"iteration alignment violated: {exc}", file=sys.stderr)
        return 1
    rep = build_report(result, checks=checks)
    out = _out_dir(args)
    write_outputs(result, rep, out)
    sys.stdout.write(render_text(rep))
    return 0 if rep["passed"] else 1


def cmd_verify(args) -> int:
    out = Path(args.dir) if args.dir else _out_dir(args)
    result = report_mod.result_from_files(out)
    checks = _parse_checks(args.checks)
    rep = build_report(result, checks=checks)
    report_mod.write_report_json(rep, out / "verify.json")
    sys.stdout.write(render_text(rep))
    return 0 if rep["passed"] else 1


def _axis_points(axes: dict) -> list[dict]:
    """Every combination of axis values; the last sorted key varies fastest."""
    keys = sorted(axes)
    return [dict(zip(keys, values)) for values in itertools.product(*(axes[k] for k in keys))]


def _sweep_trial(payload) -> dict:
    doc, point, seed, checks = payload
    result = run(_trial_config(doc, seed, point))
    rep = build_report(result, checks=checks)
    skew = rep["skew"]
    row = {f"axis:{k}": v for k, v in sorted(point.items())}
    max_layer = max((x for x in skew["per_layer"] if x is not None), default=None)
    row.update({
        "seed": seed,
        "diameter": rep["diameter"],
        "kappa": rep["kappa"],
        "completed": result.completed,
        "max_layer_skew": max_layer,
        "overall_skew": skew["overall"],
        "skew_budget": skew["budget_fault_free"],
        "within_budget": (max_layer is not None and max_layer <= skew["budget_fault_free"]),
        "passed": rep["passed"],
    })
    for name, entry in rep["checks"].items():
        row[f"check:{name}"] = entry.get("passed", True)
    return row


def _run_batch(trials: list, worker, jobs: int) -> list[dict]:
    if jobs <= 1:
        return [worker(t) for t in trials]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, trials))


def _quantile(values: list[float], q: float) -> float | None:
    if not values:
        return None
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _aggregate(rows: list[dict], group_keys: list[str], value_key: str) -> list[dict]:
    """max/mean/median/p90 of one column per group, in deterministic order."""
    groups: dict = {}
    for row in rows:
        key = tuple((k, row.get(k)) for k in group_keys)
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=repr):
        members = groups[key]
        values = [r[value_key] for r in members if r.get(value_key) is not None]
        entry = dict(key)
        entry.update({
            "rows": len(members),
            f"{value_key}_max": max(values) if values else None,
            f"{value_key}_mean": (sum(values) / len(values)) if values else None,
            f"{value_key}_median": _quantile(values, 0.5),
            f"{value_key}_p90": _quantile(values, 0.9),
        })
        out.append(entry)
    return out


def _write_rows(rows: list[dict], out: Path, stem: str,
                aggregates: list[dict] | None = None) -> None:
    out.mkdir(parents=True, exist_ok=True)
    keys = list(dict.fromkeys(key for row in rows for key in row))  # first-seen order
    with (out / f"{stem}.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({
                k: (format(v, ".17g") if isinstance(v, float) else v)
                for k, v in row.items()
            })
    report_mod.write_report_json({"rows": rows, "aggregates": aggregates or []},
                                 out / f"{stem}.json")


def cmd_sweep(args) -> int:
    spec = load_experiment(args.config)
    checks = _parse_checks(args.checks)
    points = _axis_points(spec.axes)
    trials = [(spec.run, point, seed, checks) for point in points for seed in spec.seeds]
    rows = _run_batch(trials, _sweep_trial, args.jobs)
    axis_keys = sorted({k for r in rows for k in r if k.startswith("axis:")})
    aggregates = _aggregate(rows, axis_keys, "max_layer_skew")
    _write_rows(rows, _out_dir(args), "sweep", aggregates)
    bad = [r for r in rows if not r["passed"]]
    print(f"sweep: {len(rows)} rows, {len(bad)} failing")
    return 1 if bad else 0


def _stabilize_trial(payload) -> dict:
    doc, seed, corruption = payload
    cfg = _trial_config(doc, seed, {"corruption": corruption})
    result = run(cfg)
    # the same trial without the corrupted start: faults and perturbation stay
    reference = run(dataclasses.replace(cfg, corruption=None))
    stab = analysis.stabilization_pulse(result, reference)
    n = cfg.base.num_vertices * cfg.layers
    limit = 4.0 * math.sqrt(n)
    return {
        "seed": seed,
        "n": n,
        "sqrt_n": math.sqrt(n),
        "stabilization_pulse": (None if math.isinf(stab) else stab),
        "ratio": (None if math.isinf(stab) else stab / math.sqrt(n)),
        "limit": limit,
        "within_limit": (not math.isinf(stab)) and stab <= limit,
    }


def cmd_stabilize(args) -> int:
    spec = load_experiment(args.config)
    corruption = spec.corruption or {"node_fraction": 1.0, "max_spurious_messages": 8}
    trials = [(spec.run, seed, corruption) for seed in spec.seeds]
    rows = _run_batch(trials, _stabilize_trial, args.jobs)
    aggregates = _aggregate(rows, [], "stabilization_pulse")
    _write_rows(rows, _out_dir(args), "stabilize", aggregates)
    bad = [r for r in rows if not r["within_limit"]]
    print(f"stabilize: {len(rows)} rows, {len(bad)} beyond limit")
    return 1 if bad else 0


def _mc_trial(payload) -> dict:
    doc, seed, p, mix, changes = payload
    cfg = _trial_config(doc, seed, {"faults": {"p": p, "strict": False}})
    if cfg.corruption is not None:
        raise ConfigurationError("run.corruption: faults-mc trials start from a clean state; "
                                 "`gridpulse stabilize` runs corrupted starts")
    violating = validate_placement(build_layered(cfg.base, cfg.layers), cfg.placement)
    row = {
        "seed": seed,
        "p": p,
        "n_faults": len(cfg.placement),
        "constraint_violations": len(violating),
        "rejected": bool(violating),
    }
    if violating:
        row.update({"max_layer_skew": None, "envelope_violations": None,
                    "period_violations": None, "within_budget": None})
        return row
    rng = random.Random(seed + SEED_OFFSETS["fault_behaviors"])
    behaviors = {}
    changing = 0
    for node in sorted(cfg.placement.members):
        name = mix[rng.randrange(len(mix))]
        if name == "per_pulse_offset" and changing < changes:
            # at most `changes` faults vary their timing between pulses
            behaviors[node] = FaultBehavior(
                kind="per_pulse_offset",
                offsets=tuple(rng.uniform(-cfg.params.lam / 4, cfg.params.lam / 4)
                              for _ in range(cfg.pulses)),
            )
            changing += 1
        else:
            # past the cap a per_pulse_offset draw falls back to silent
            behaviors[node] = MC_BEHAVIORS.get(name, MC_BEHAVIORS["silent"])(cfg.params.lam)
    cfg = dataclasses.replace(cfg, placement=dataclasses.replace(cfg.placement, behaviors=behaviors))
    rep = build_report(run(cfg), checks=("skew", "envelope", "period"))
    max_layer = rep["checks"]["skew"]["max_layer_skew"]
    envelope = rep["checks"].get("envelope")  # absent when no fault was drawn
    period = rep["checks"]["period"]
    row.update({
        "max_layer_skew": max_layer,
        "envelope_violations": envelope["violation_count"] if envelope else 0,
        "period_violations": period["violation_count"] if period["asserted"] else None,
        "within_budget": (None if max_layer is None
                          else max_layer <= rep["skew"]["budget_fault_free"]),
    })
    return row


def cmd_faults_mc(args) -> int:
    spec = load_experiment(args.config)
    seeds = range(spec.seeds[0], spec.seeds[0] + spec.trials) if spec.trials else spec.seeds
    trials = [(spec.run, seed, spec.fault_probability, spec.behavior_mix,
               spec.behavior_changes_per_pulse) for seed in seeds]
    rows = _run_batch(trials, _mc_trial, args.jobs)
    aggregates = _aggregate(rows, [], "max_layer_skew")
    aggregates += _aggregate(rows, [], "envelope_violations")
    _write_rows(rows, _out_dir(args), "faults_mc", aggregates)
    ran = [r for r in rows if not r["rejected"]]
    bad = [r for r in ran if r["envelope_violations"]]
    print(f"faults-mc: {len(rows)} trials, {len(rows) - len(ran)} rejected, "
          f"{len(bad)} with envelope violations")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridpulse",
        description="Simulate and verify fault-tolerant pulse synchronization on layered grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checks: bool, jobs: bool, needs_config=True):
        """The flags a subcommand reads: --checks where it builds reports,
        --jobs where it runs batch trials."""
        if needs_config:
            p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV} or ./gridpulse-out)")
        if checks:
            p.add_argument("--checks", help="comma-separated subset of checks to enable")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel trials")

    p_run = sub.add_parser("run", help="execute one configured run and check it")
    common(p_run, checks=True, jobs=False)
    p_run.add_argument("--force", action="store_true",
                       help="run even if the operating-regime validation fails")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="re-check stored trace files")
    p_verify.add_argument("dir", nargs="?", help="run output directory")
    common(p_verify, checks=True, jobs=False, needs_config=False)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    common(p_sweep, checks=True, jobs=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_stab = sub.add_parser("stabilize", help="corrupted-start stabilization experiment")
    common(p_stab, checks=False, jobs=True)
    p_stab.set_defaults(func=cmd_stabilize)

    p_mc = sub.add_parser("faults-mc", help="Monte-Carlo fault trials")
    common(p_mc, checks=False, jobs=True)
    p_mc.set_defaults(func=cmd_faults_mc)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
