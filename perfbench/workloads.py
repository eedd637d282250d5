"""Benchmark workloads: inputs built from one seed, the ops that use them,
and the correctness oracle each op must pass.

Every op calls gridpulse through module attributes (``engine.run``,
``analysis.potentials``, ``cli.main``, ...) so that the tracer in
``tracer.py`` sees each call when it is installed. An op returns the
SHA-256 digest of the pulse times it produced (None for ``verify``) and
raises ``OracleFailure`` when a bound of the paper or an exit-code
contract does not hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from gridpulse import analysis, cli, engine, faults, report, timing
from gridpulse.engine import CorruptionSpec, PerturbationSpec, RunConfig
from gridpulse.faults import FaultBehavior, FaultPlacement
from gridpulse.protocol import SourceMode
from gridpulse.timing import Params
from gridpulse.topology import build_layered, build_line_with_replicated_ends

# The seed every recorded digest and baseline number was taken with, and a
# second seed kept back for confirming a later claim on unseen inputs.
DEFAULT_SEED = 1
CONFIRM_SEED = 1001

# Per-stream seed offsets, the same ones gridpulse.cli._derive_seeds adds to
# a row seed, so a library op and a CLI op with one row seed share inputs.
CLOCK_SEED = 10_000_019
SOURCE_SEED = 20_000_033
FAULT_SEED = 30_000_049
CORRUPTION_SEED = 40_000_061
PERTURBATION_SEED = 50_000_077

PARAMS_DOC = {"d": 1.0, "u": 0.002, "theta": 1.0002, "Lambda": 2.0}
PARAMS = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
KAPPA = PARAMS.kappa
LAM = PARAMS.lam

# Per workload: the sizes of a timed pass and of the reduced pass that the
# determinism check runs twice.
SIZES = {
    "battery": {
        "full": {"ms": (8, 16, 32), "layers": 40, "pulses": 20},
        "small": {"ms": (4, 6), "layers": 8, "pulses": 5},
    },
    "dynamic": {
        "full": {"perturbed": (32, 40, 20), "stabilize": (16, 16, 22), "stabilize_ops": 4},
        "small": {"perturbed": (6, 8, 6), "stabilize": (4, 4, 10), "stabilize_ops": 2},
    },
    "cli_roundtrip": {
        "full": {"ms": (64, 8), "layers": 40, "pulses": 20},
        "small": {"ms": (6, 4), "layers": 8, "pulses": 5},
    },
}


class OracleFailure(Exception):
    """An op's output broke its correctness oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


@dataclass
class Op:
    """One unit of work: an engine run plus its checks, or one CLI call.

    ``node_pulses`` is layers x vertices x pulses summed over the runs the
    op requests (the fault-free twin that ``engine.run`` adds for
    nominal-anchored faults is not requested, so it is not counted).
    """

    name: str
    node_pulses: int
    call: Callable[[], str | None]
    bytes_written: Callable[[], int] = lambda: 0


def pulse_digest(result) -> str:
    """SHA-256 over every node's pulse times, in (layer, vertex) order."""
    cfg = result.config
    h = hashlib.sha256()
    for layer in range(cfg.layers):
        for v in cfg.base.vertices:
            times = np.asarray(result.pulse_times(v, layer), dtype=np.float64)
            h.update(np.asarray([layer, v, times.size], dtype=np.int64).tobytes())
            h.update(times.tobytes())
    return h.hexdigest()


def _node_pulses(cfg: RunConfig) -> int:
    return cfg.layers * cfg.base.num_vertices * cfg.pulses


def _ideal_config(base, layers: int, pulses: int, row_seed: int, **extra) -> RunConfig:
    return RunConfig(
        base=base, layers=layers, params=PARAMS,
        source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=row_seed + SOURCE_SEED),
        pulses=pulses,
        delay_strategy="uniform-random", delay_seed=row_seed,
        clock_strategy="uniform", clock_seed=row_seed + CLOCK_SEED,
        **extra,
    )


# -- battery: A1 / A2 / A3 / A9 ---------------------------------------------

def _battery_op(m: int, layers: int, pulses: int, row_seed: int) -> Op:
    base = build_line_with_replicated_ends(m)
    full = _ideal_config(base, layers, pulses, row_seed)
    simplified = replace(full, machine="simplified")
    diameter = base.diameter
    budget = timing.local_skew_budget(PARAMS, diameter)
    s_cond = math.ceil(math.log2(diameter)) + 1
    s_psi = int(math.floor(math.log2(diameter)))

    def call() -> str:
        res = engine.run(full)
        require(res.completed and res.diagnostics.alignment_enforced,
                "full run incomplete or not alignment-enforced")
        view = analysis.TraceView(res)
        max_layer = analysis.local_skew(view).max_layer_skew()
        require(max_layer <= budget, f"A1: skew {max_layer!r} > budget {budget!r}")
        failures = analysis.check_conditions(res, view, s_max=s_cond)
        require(not failures, f"A2: {len(failures)} condition failures")
        table = analysis.potentials(view, KAPPA, s_max=s_cond)
        for s in range(1, s_psi + 1):
            require(float(np.nanmax(table.psi[s])) <= 2.0 ** (2 - s) * KAPPA * diameter,
                    f"A9: psi level {s} above 2^(2-s)*kappa*D")
        require(float(np.nanmax(table.psi[0])) <= 6.0 * KAPPA * diameter,
                "A9: psi level 0 above 6*kappa*D")
        recursion = analysis.psi_bound_violations(table, KAPPA)
        require(not recursion, f"A9: {len(recursion)} recursion violations")
        observed = analysis.skew_vs_potential_violations(view, table, KAPPA)
        require(not observed, f"A9: {len(observed)} skew-vs-potential violations")
        digest = pulse_digest(res)
        simp = engine.run(simplified)
        require(pulse_digest(simp) == digest, "A3: simplified machine differs from full")
        return digest

    return Op(f"m{m}", 2 * _node_pulses(full), call)


def battery_ops(seed: int, size: str, work_dir: Path) -> list[Op]:
    s = SIZES["battery"][size]
    return [_battery_op(m, s["layers"], s["pulses"], seed) for m in s["ms"]]


# -- dynamic: A5 / A8 traffic --------------------------------------------------

def _perturbed_faulty_op(m: int, layers: int, pulses: int, row_seed: int) -> Op:
    """Perturbation at half its caps plus a strict three-fault placement."""
    base = build_line_with_replicated_ends(m)
    caps = faults.perturbation_caps(base.num_vertices * layers, base.diameter, PARAMS)
    rng = random.Random(row_seed + FAULT_SEED)
    fault_layers = rng.sample(range(1, layers - 1), 3)
    line = base.line_info.line
    offsets = tuple(rng.uniform(-LAM / 4, LAM / 4) for _ in range(pulses))
    behaviors = (
        FaultBehavior(kind="fixed_offset", offset=rng.choice((LAM / 4, -LAM / 4))),
        FaultBehavior(kind="silent"),
        FaultBehavior(kind="per_pulse_offset", offsets=offsets),
    )
    placement = FaultPlacement(
        behaviors={(rng.choice(line), layer): b for layer, b in zip(fault_layers, behaviors)},
        strict=True,
    )
    require(not faults.validate_placement(build_layered(base, layers), placement),
            "fault placement breaks the one-faulty-predecessor rule")
    cfg = _ideal_config(
        base, layers, pulses, row_seed, placement=placement,
        perturbation=PerturbationSpec(delay_magnitude=caps[0] / 2,
                                      rate_magnitude=caps[1] / 2,
                                      seed=row_seed + PERTURBATION_SEED),
    )

    def call() -> str:
        res = engine.run(cfg)
        require(res.completed, "perturbed faulty run incomplete")
        rep = report.build_report(res)
        envelope = rep["checks"]["envelope"]
        require(envelope["passed"], f"A5: {envelope['violation_count']} envelope violations")
        return pulse_digest(res)

    return Op(f"perturbed_m{m}", _node_pulses(cfg), call)


def _stabilize_op(m: int, layers: int, pulses: int, row_seed: int) -> Op:
    """A8 pair: a clean reference run, then a fully corrupted start."""
    base = build_line_with_replicated_ends(m)
    reference = _ideal_config(base, layers, pulses, row_seed)
    corrupted = replace(
        reference,
        corruption=CorruptionSpec(node_fraction=1.0, max_spurious_messages=8),
        corruption_seed=row_seed + CORRUPTION_SEED,
    )
    limit = 4.0 * math.sqrt(base.num_vertices * layers)

    def call() -> str:
        ref = engine.run(reference)
        res = engine.run(corrupted)
        stab = analysis.stabilization_pulse(res, ref)
        require(stab <= limit, f"A8: stabilization pulse {stab} > 4*sqrt(n) = {limit:.3f}")
        return hashlib.sha256((pulse_digest(ref) + pulse_digest(res)).encode()).hexdigest()

    return Op(f"stabilize_m{m}_r{row_seed}", 2 * _node_pulses(reference), call)


def dynamic_ops(seed: int, size: str, work_dir: Path) -> list[Op]:
    s = SIZES["dynamic"][size]
    ops = [_perturbed_faulty_op(*s["perturbed"], seed)]
    ops += [_stabilize_op(*s["stabilize"], seed + i) for i in range(s["stabilize_ops"])]
    return ops


# -- cli_roundtrip: run then verify on YAML files -----------------------------

def _run_document(m: int, layers: int, pulses: int, row_seed: int) -> dict:
    return {
        "schema": 1,
        "topology": {"kind": "line_replicated", "m": m},
        "layers": layers,
        "pulses": pulses,
        "params": dict(PARAMS_DOC),
        "source": {"kind": "ideal", "jitter": KAPPA / 4, "seed": row_seed + SOURCE_SEED},
        "delays": {"strategy": "uniform-random", "seed": row_seed},
        "clocks": {"strategy": "uniform", "seed": row_seed + CLOCK_SEED},
    }


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _roundtrip_ops(name: str, doc: dict, work_dir: Path) -> list[Op]:
    """``gridpulse run`` (which must exit 0) and ``gridpulse verify``, whose
    exit code must equal the one ``run`` returned."""
    config = work_dir / f"{name}.yaml"
    config.write_text(yaml.safe_dump(doc, sort_keys=True))
    out = work_dir / name
    run_code: list[int] = []

    def run_call() -> str:
        run_code[:] = [_quiet_cli(["run", "--config", str(config), "--out", str(out)])]
        require(run_code[0] == 0, f"run exited {run_code[0]}, expected 0")
        return hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()

    def verify_call() -> None:
        require(bool(run_code), "verify called without a run")
        code = _quiet_cli(["verify", str(out)])
        require(code == run_code[0], f"verify exited {code}, run exited {run_code[0]}")

    node_pulses = doc["layers"] * (doc["topology"]["m"] + 4) * doc["pulses"]
    # every pass rewrites all files of `out`, so their total is what one pass wrote
    return [
        Op(f"{name}.run", node_pulses, run_call, bytes_written=lambda: _dir_bytes(out)),
        Op(f"{name}.verify", 0, verify_call),
    ]


def cli_roundtrip_ops(seed: int, size: str, work_dir: Path) -> list[Op]:
    s = SIZES["cli_roundtrip"][size]
    m_clean, m_perturbed = s["ms"]
    clean = _run_document(m_clean, s["layers"], s["pulses"], seed)
    perturbed = _run_document(m_perturbed, s["layers"], s["pulses"], seed)
    perturbed["perturbation"] = {"delay_magnitude": 1e-4, "rate_magnitude": 1e-6,
                                 "seed": seed + PERTURBATION_SEED}
    return (_roundtrip_ops(f"clean_m{m_clean}", clean, work_dir)
            + _roundtrip_ops(f"perturbed_m{m_perturbed}", perturbed, work_dir))


BUILDERS = {
    "battery": battery_ops,
    "dynamic": dynamic_ops,
    "cli_roundtrip": cli_roundtrip_ops,
}


def build_ops(workload: str, seed: int, size: str, work_dir: Path) -> list[Op]:
    """The inputs of one pass: graphs, configs and YAML files, built once."""
    work_dir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, size, work_dir)
