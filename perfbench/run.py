"""gridpulse benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 32 --trace 0

Run from the repository root. The benchmark imports gridpulse from ``src/``
of the tree it sits in and runs every op in this one process, one after
another (no process pool, no extra threads). A run is:

1. set-up time: fresh interpreters that import gridpulse and build the
   workload's inputs, timed from here (median of ``SETUP_PROBES``);
2. the determinism check: a reduced pass of the workload run twice under
   the tracer, whose exact counts and digests must agree;
3. timed passes over the workload's ops. With ``--trace 0`` the passes are
   untraced and the end-to-end metrics are printed; with ``--trace 1`` one
   untraced pass is followed by traced passes and the per-layer metrics are
   printed, and the spans are written to ``.perfbench_out/``.

The number of passes is fixed by ``--seconds`` and the workload's nominal
pass time, so every run of a workload does the same work and its op counts
repeat exactly. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Before numpy is imported: keep the BLAS pools from starting extra threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracer_mod  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60

# Host seconds of one untraced pass at the commit that defined the benchmark
# (2 vCPUs, Python 3.11, numpy 2.4); they only turn --seconds into a
# pass count, so later commits repeat the same number of passes.
NOMINAL_PASS_S = {"battery": 7.2, "dynamic": 12.3, "cli_roundtrip": 10.2}

# Ops that fail on this commit with exactly this message, for a known cause:
# run.json does not echo the perturbation (ROADMAP item 2), so verify
# re-checks the perturbed trace as static and its period check fails. They
# count in `failed`; `correct` turns false for any other failure.
KNOWN_FAILURES = {
    "cli_roundtrip": {
        "perturbed_m8.verify": "OracleFailure: verify exited 1, run exited 0",
    },
}

END_TO_END_UNITS = {"wall_s": "s", "node_pulses_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}

ANALYSIS_CHECKERS = (
    "trace_view", "local_skew", "potentials", "check_conditions", "check_drift",
    "check_estimates", "period_consistency", "check_fault_envelope",
    "psi_bound_violations", "skew_vs_potential_violations", "stabilization_pulse",
)

# Per-layer time metrics: (metric, span name, "self" or "span").
LAYER_TIMES = (
    ("engine.run_s", "engine.run", "span"),
    ("engine.self_s", "engine.run", "self"),
    ("protocol.step_s", "protocol.step", "self"),
    ("timing.sample_s", "timing.sample", "span"),
    ("topology.build_s", "topology.build", "span"),
    ("faults.emissions_s", "faults.emissions", "self"),
    *((f"analysis.{c}_s", f"analysis.{c}", "self") for c in ANALYSIS_CHECKERS),
    ("report.build_report_s", "report.build_report", "self"),
    ("report.write_s", "report.write", "span"),
    ("report.read_s", "report.read", "span"),
    ("config.load_s", "config.load", "span"),
    ("cli.self_s", "cli.main", "self"),
)

# Per-layer counts that must repeat exactly from pass to pass.
EXACT_COUNTS = ("engine.runs", "engine.events", "engine.messages", "engine.stale_timers",
                "engine.reopens", "protocol.steps", "report.bytes_written", "ops", "failed_ops")


def import_gridpulse() -> None:
    """Put this tree's src/ first on the path; refuse any other gridpulse."""
    if not (SRC / "gridpulse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gridpulse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridpulse

    if Path(gridpulse.__file__).resolve().parent != SRC / "gridpulse":
        sys.exit(f"perfbench: imported gridpulse from {gridpulse.__file__}, not {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("battery", "dynamic", "cli_roundtrip"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import gridpulse, build the workload's inputs and exit")
    p.add_argument("--record-digests", action="store_true",
                   help="run one pass and store its digests for this seed")
    return p.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# -- passes -----------------------------------------------------------------

@dataclass
class PassResult:
    wall: float
    outcomes: dict  # op name -> (digest, failure message or None)
    bytes_written: int
    node_pulses: int

    def digests(self) -> dict:
        return {name: d for name, (d, _) in self.outcomes.items() if d is not None}


def run_pass(ops, tracer=None, label: str = "") -> PassResult:
    outcomes = {}
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op_id = f"{label}:{op.name}"
        try:
            outcomes[op.name] = (op.call(), None)
        except Exception as exc:  # an op that raises is a failed op; the pass goes on
            outcomes[op.name] = (None, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    return PassResult(wall, outcomes, sum(op.bytes_written() for op in ops),
                      sum(op.node_pulses for op in ops))


def traced_pass(ops, label: str):
    tracer = tracer_mod.Tracer()
    with tracer:
        result = run_pass(ops, tracer, label)
    return result, tracer


def judge(workload: str, result: PassResult, expected: dict) -> dict:
    """Op name -> failure reason, for every failed op of one pass.

    An op fails if it raised or broke its oracle, or if its digest differs
    from the expected one (recorded for the default seed, else the first
    pass of this run).
    """
    failures = {}
    for name, (digest, message) in result.outcomes.items():
        if message is not None:
            failures[name] = message
        elif name in expected and digest != expected[name]:
            failures[name] = f"digest {digest} differs from {expected[name]}"
    return failures


def pass_counts(result: PassResult, tracer, failures: dict) -> dict:
    counts = {name: tracer.counts[name] for name in EXACT_COUNTS if name.startswith("engine.")}
    times = tracer.layer_times()
    counts["protocol.steps"] = int(times["protocol.step"]["calls"])
    counts["report.bytes_written"] = result.bytes_written
    counts["ops"] = len(result.outcomes)
    counts["failed_ops"] = len(failures)
    return counts


def determinism_check(workload: str, seed: int, work: Path) -> list[str]:
    """A reduced pass, twice: counts, digests and failures must be identical."""
    import workloads

    runs = []
    for attempt in (1, 2):
        ops = workloads.build_ops(workload, seed, "small", work / f"small{attempt}")
        result, tracer = traced_pass(ops, f"small{attempt}")
        failures = judge(workload, result, {})
        runs.append((pass_counts(result, tracer, failures), result.digests(), sorted(failures)))
    if runs[0] != runs[1]:
        return [f"reduced pass not deterministic: {runs[0]} != {runs[1]}"]
    return []


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def passes_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def expected_digests(workload: str, seed: int) -> dict:
    import workloads

    if seed != workloads.DEFAULT_SEED or not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def record_digests(workload: str, ops) -> int:
    result = run_pass(ops)
    known = KNOWN_FAILURES.get(workload, {})
    unexpected = [n for n, r in judge(workload, result, {}).items() if known.get(n) != r]
    if unexpected:
        print(f"not recording: ops failed: {sorted(unexpected)}", file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload] = result.digests()
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


# -- metrics ------------------------------------------------------------------

def describe(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{name:34s} {q2:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def end_to_end(passes: list[PassResult], setup_times: list[float]) -> tuple[dict, list[str]]:
    walls = [p.wall for p in passes]
    rates = [p.node_pulses / p.wall for p in passes]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": statistics.median(walls),
        "node_pulses_per_s": passes[0].node_pulses / statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    lines = [describe("wall_s", walls, "s"),
             describe("node_pulses_per_s", rates, "1/s"),
             describe("setup_s", setup_times, "s"),
             describe("peak_rss_mb", [rss], "MiB")]
    return values, lines


def per_layer(traced: list[tuple], untraced_wall: float) -> tuple[dict, list[str]]:
    """Median over traced passes of each layer time; counts from one pass
    (they are exact and checked equal across passes)."""
    samples: dict = {}
    for result, tracer, counts in traced:
        times = tracer.layer_times()
        row = {metric: times[span][mode] for metric, span, mode in LAYER_TIMES}
        row["trace_overhead_s"] = result.wall - untraced_wall
        for metric, value in row.items():
            samples.setdefault(metric, []).append(value)
    values = {metric: statistics.median(v) for metric, v in samples.items()}
    lines = [describe(m, v, "s") for m, v in samples.items()]
    counts = traced[0][2]
    values.update(counts)
    events, messages = counts["engine.events"], counts["engine.messages"]
    timer_events = events - messages
    values["engine.stale_share"] = counts["engine.stale_timers"] / timer_events if timer_events else 0.0
    node_pulses = traced[0][1].counts["engine.node_pulses"]
    values["engine.events_per_node_pulse"] = events / node_pulses if node_pulses else 0.0
    values["engine.us_per_event"] = 1e6 * values["engine.self_s"] / events if events else 0.0
    steps = counts["protocol.steps"]
    values["protocol.us_per_step"] = 1e6 * values["protocol.step_s"] / steps if steps else 0.0
    for metric in ("engine.stale_share", "engine.events_per_node_pulse",
                   "engine.us_per_event", "protocol.us_per_step", *counts):
        lines.append(f"{metric:34s} {values[metric]:14.6g}")
    return values, lines


def per_layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("engine.us_") or metric.startswith("protocol.us_"):
        return "us"
    if metric in ("engine.stale_share", "engine.events_per_node_pulse"):
        return "ratio"
    if metric == "report.bytes_written":
        return "bytes"
    return "count"


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception: a running set-up probe is killed and
    # waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import_gridpulse()
    import workloads

    work = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            workloads.build_ops(args.workload, args.seed, "full", work)
            return 0
        if args.record_digests:
            if args.seed != workloads.DEFAULT_SEED:
                sys.exit("perfbench: digests are recorded for the default seed only")
            return record_digests(args.workload, workloads.build_ops(
                args.workload, args.seed, "full", work / "full"))
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    import workloads

    workload, seed = args.workload, args.seed
    ops = workloads.build_ops(workload, seed, "full", work / "full")
    problems = determinism_check(workload, seed, work)

    expected = expected_digests(workload, seed)
    passes = passes_for(workload, args.seconds)
    untraced: list[PassResult] = []
    traced: list[tuple] = []
    failures: list[dict] = []
    if args.trace:
        untraced.append(run_pass(ops))
        failures.append(judge(workload, untraced[0], expected))
        expected = expected or untraced[0].digests()
        for i in range(max(1, passes - 1)):
            result, tracer = traced_pass(ops, f"pass{i + 1}")
            failed = judge(workload, result, expected)
            traced.append((result, tracer, pass_counts(result, tracer, failed)))
            failures.append(failed)
        if any(t[2] != traced[0][2] for t in traced):
            problems.append("exact counts differ between traced passes")
        OUT.mkdir(parents=True, exist_ok=True)
        with (OUT / f"spans-{workload}-seed{seed}.jsonl").open("w") as fh:
            for i, (_, tracer, _) in enumerate(traced):
                for record in tracer.records():
                    fh.write(json.dumps(dict(record, **{"pass": i + 1})) + "\n")
        values, lines = per_layer(traced, untraced[0].wall)
        units = {m: per_layer_unit(m) for m in values}
    else:
        setup_times = measure_setup(workload, seed)
        for _ in range(passes):
            result = run_pass(ops)
            failures.append(judge(workload, result, expected))
            expected = expected or result.digests()
            untraced.append(result)
        values, lines = end_to_end(untraced, setup_times)
        units = END_TO_END_UNITS

    known = KNOWN_FAILURES.get(workload, {})
    for i, failed in enumerate(failures, start=1):
        for name, reason in sorted(failed.items()):
            is_known = known.get(name) == reason
            print(f"pass {i}: {'known' if is_known else 'FAILED'} {name}: {reason}")
            if not is_known:
                problems.append(f"{name}: {reason}")
    for problem in problems:
        print(f"incorrect: {problem}")
    print(f"workload {workload}, seed {seed}, {len(failures)} passes of {len(ops)} ops")
    for line in lines:
        print(line)
    attempted = len(ops) * len(failures)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(len(f) for f in failures),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
