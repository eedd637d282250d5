"""Acceptance criteria A1-A11.

Each test prints one [PASS]/[FAIL] line for its criterion. The A1 battery
(three grid widths, fifty seeds each: the full machine on the layer kernel
and on the event engine, and the simplified machine) feeds criteria A1, A2,
A3, and A9 through one shared session fixture so the expensive runs happen
once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random

import numpy as np
import pytest
import yaml

from gridpulse import analysis
from gridpulse.cli import main as cli_main
from gridpulse.engine import (SNAPSHOT_FIELDS, CorruptionSpec, RunConfig, _layer_kernel, run,
                              run_events)
from gridpulse.faults import FaultBehavior, FaultPlacement, validate_placement
from gridpulse.protocol import SourceMode, compute_correction, correction_scan_oracle
from gridpulse.timing import Params, local_skew_budget, validate_params
from gridpulse.topology import build_layered, build_line_with_replicated_ends

PARAMS = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
KAPPA = PARAMS.kappa
LAM = PARAMS.lam
SIZES = (8, 16, 32)
SEEDS = tuple(range(1, 51))
LAYERS = 40
PULSES = 20
GUARD = 1e-9 * LAM  # float-roundoff allowance for exact-boundary checkers

BASES = {m: build_line_with_replicated_ends(m) for m in SIZES}


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def a1_config(m: int, seed: int, machine: str = "full") -> RunConfig:
    return RunConfig(
        base=BASES[m],
        layers=LAYERS,
        params=PARAMS,
        source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=seed + 20_000_033),
        pulses=PULSES,
        delay_strategy="uniform-random",
        delay_seed=seed,
        clock_strategy="uniform",
        clock_seed=seed + 10_000_019,
        machine=machine,
    )


def same_run(a, b) -> bool:
    """Equal in every RunResult array (floats bit for bit) and the diagnostics."""
    for name in ("counts", "times", "local_times", *SNAPSHOT_FIELDS, "arm"):
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype == float:
            x, y = x.view(np.int64), y.view(np.int64)
        if not np.array_equal(x, y):
            return False
    return dataclasses.asdict(a.diagnostics) == dataclasses.asdict(b.diagnostics)


@pytest.fixture(scope="session")
def battery():
    """Every A1 run, summarized: skew, conditions, potentials, equivalence."""
    rows = []
    for m in SIZES:
        diameter = BASES[m].diameter
        assert diameter == m + 1
        assert validate_params(PARAMS, diameter) == []
        budget = local_skew_budget(PARAMS, diameter)
        s_cond = math.ceil(math.log2(diameter)) + 1
        s_psi = int(math.floor(math.log2(diameter)))
        for seed in SEEDS:
            cfg = a1_config(m, seed)
            engine = run_events(cfg)
            kernel = _layer_kernel(cfg)  # what run(cfg) returns unless it falls back
            res = engine if kernel is None else kernel
            assert res.completed and res.diagnostics.alignment_enforced
            view = analysis.TraceView(res)
            skew = analysis.local_skew(view)
            max_layer = skew.max_layer_skew()
            cond_failures = len(analysis.check_conditions(res, view, s_max=s_cond))
            table = analysis.potentials(view, KAPPA, s_max=s_cond)
            psi_level_ok = all(
                float(np.nanmax(table.psi[s])) <= 2.0 ** (2 - s) * KAPPA * diameter
                for s in range(1, s_psi + 1)
            )
            psi0_ok = float(np.nanmax(table.psi[0])) <= 6.0 * KAPPA * diameter
            recursion = len(analysis.psi_bound_violations(table, KAPPA))
            obs = len(analysis.skew_vs_potential_violations(view, table, KAPPA))
            simp = run(a1_config(m, seed, machine="simplified"))
            identical = (np.array_equal(engine.counts, simp.counts)
                         and np.array_equal(engine.times, simp.times, equal_nan=True))
            rows.append({
                "m": m,
                "seed": seed,
                "diameter": diameter,
                "budget": budget,
                "max_layer_skew": max_layer,
                "within_budget": max_layer <= budget,
                "condition_failures": cond_failures,
                "psi_levels_ok": psi_level_ok,
                "psi0_ok": psi0_ok,
                "recursion_violations": recursion,
                "obs_violations": obs,
                "bit_identical": identical,
                "kernel_used": kernel is not None,
                "kernel_identical": kernel is not None and same_run(kernel, engine),
                "overall_skew": skew.overall,
            })
            del res, engine, kernel, simp, view, table
    return rows


class TestA1FaultFreeLocalSkew:
    def test_a1(self, battery):
        bad = [r for r in battery if not r["within_budget"]]
        worst = max(r["max_layer_skew"] / r["budget"] for r in battery)
        verdict(
            "A1 fault-free local skew",
            not bad,
            f"{len(battery)} runs (m in {SIZES}, {len(SEEDS)} seeds), "
            f"max skew/bound ratio {worst:.3f}, {len(bad)} violations",
        )


class TestA2ConditionsHoldEverywhere:
    def test_a2(self, battery):
        total = sum(r["condition_failures"] for r in battery)
        verdict(
            "A2 slow/fast/jump conditions",
            total == 0,
            f"{total} failing verdicts across {len(battery)} runs "
            f"(s up to ceil(log2 D)+1)",
        )


class TestA3MachineEquivalence:
    def test_a3(self, battery):
        """The event engine is the reference: the simplified kernel matches
        its pulse times, and the full-machine kernel matches every array and
        counter without falling back."""
        simplified = sum(r["bit_identical"] for r in battery)
        used = sum(r["kernel_used"] for r in battery)
        full = sum(r["kernel_identical"] for r in battery)
        runs = len(battery)
        verdict(
            "A3 simplified/full/event-engine equivalence",
            simplified == used == full == runs,
            f"simplified == engine pulse times in {simplified}/{runs} runs; full kernel "
            f"without fallback in {used}/{runs}, == engine in every array and counter "
            f"in {full}/{runs}",
        )


class TestA4ChainedLayerZero:
    def test_a4(self):
        failures = 0
        runs = 0
        worst_skew = 0.0
        for seed in range(1, 11):
            cfg = RunConfig(
                base=BASES[16], layers=2, params=PARAMS,
                source=SourceMode(kind="chain"), pulses=10,
                delay_strategy="uniform-random", delay_seed=seed,
                clock_strategy="uniform", clock_seed=seed + 10_000_019,
            )
            res = run(cfg)
            runs += 1
            info = cfg.base.line_info
            for v in cfg.base.vertices:
                hop = info.hop(v)
                for index, t in enumerate(res.pulse_times(v, 0), start=1):
                    lo = (index + hop - 1) * LAM - hop * KAPPA / 2
                    hi = (index + hop - 1) * LAM
                    if not (lo - GUARD <= t <= hi + GUARD):
                        failures += 1
            # consecutive chain hops, matching pulse k+1 below against k above
            for a, b in zip(info.line, info.line[1:]):
                ta = res.pulse_times(a, 0)
                tb = res.pulse_times(b, 0)
                for k in range(len(ta) - 1):
                    gap = abs(ta[k + 1] - tb[k])
                    worst_skew = max(worst_skew, gap)
                    if gap > KAPPA / 2 + GUARD:
                        failures += 1
            # replicas run in parallel with their end vertex at the same hop
            for pair, anchor in ((info.start_replicas, info.line[0]),
                                 (info.end_replicas, info.line[-1])):
                for rep in pair:
                    tr = res.pulse_times(rep, 0)
                    tv = res.pulse_times(anchor, 0)
                    for x, y in zip(tr, tv):
                        worst_skew = max(worst_skew, abs(x - y))
                        if abs(x - y) > KAPPA / 2 + GUARD:
                            failures += 1
        verdict(
            "A4 chain-driven layer 0",
            failures == 0,
            f"{runs} chain runs, worst adjacent skew {worst_skew:.3e} "
            f"(kappa/2 = {KAPPA / 2:.3e}), {failures} bound violations",
        )


class TestA5FaultEnvelope:
    def test_a5(self):
        m = 16
        layers, pulses = 12, 8
        base = BASES[m]
        line = base.line_info.line
        violations = 0
        trials = 200
        for trial in range(trials):
            rng = random.Random(500 + trial)
            vertex = rng.choice(base.vertices)
            layer = rng.randrange(1, layers - 1)
            kind = trial % 5
            if kind == 0:
                behavior = FaultBehavior(kind="silent")
            elif kind == 1:
                behavior = FaultBehavior(kind="fixed_offset", offset=LAM / 4)
            elif kind == 2:
                behavior = FaultBehavior(kind="fixed_offset", offset=-LAM / 4)
            elif kind == 3:
                behavior = FaultBehavior(kind="burst", count=3, spacing=LAM / 20)
            else:
                times = tuple(
                    (k - 1 + layer) * LAM + rng.uniform(-LAM / 4, LAM / 4)
                    for k in range(1, pulses + 1)
                )
                behavior = FaultBehavior(kind="scripted", times=tuple(sorted(times)))
            placement = FaultPlacement(behaviors={(vertex, layer): behavior})
            cfg = RunConfig(
                base=base, layers=layers, params=PARAMS,
                source=SourceMode(kind="ideal", jitter=KAPPA / 4,
                                  seed=trial + 20_000_033),
                pulses=pulses,
                delay_strategy="uniform-random", delay_seed=trial + 1,
                clock_strategy="uniform", clock_seed=trial + 10_000_019,
                placement=placement,
            )
            res = run(cfg)
            view = analysis.TraceView(res)
            violations += len(analysis.check_fault_envelope(res, view))
        verdict(
            "A5 fault envelope",
            violations == 0,
            f"{trials} Monte-Carlo trials (one fault each), "
            f"{violations} envelope violations",
        )
        assert line  # placement space sanity


class TestA6WorstCaseFaultGrowth:
    def test_a6(self):
        m = 16
        base = BASES[m]
        diameter = base.diameter
        base_bound = local_skew_budget(PARAMS, diameter)
        mid = 2 + m // 2
        fault_layers = (10, 20, 30)
        behaviors = (
            FaultBehavior(kind="fixed_offset", offset=LAM / 4),
            FaultBehavior(kind="fixed_offset", offset=-LAM / 4),
            FaultBehavior(kind="silent"),
        )
        failures = []
        for f in (1, 2, 3):
            bound = base_bound * (5.0 ** f) * 1.25
            placement = FaultPlacement(behaviors={
                (mid, fault_layers[i]): behaviors[i] for i in range(f)
            })
            graph = build_layered(base, LAYERS)
            assert validate_placement(graph, placement) == []
            for seed in range(1, 6):
                cfg = RunConfig(
                    base=base, layers=LAYERS, params=PARAMS,
                    source=SourceMode(kind="ideal", jitter=KAPPA / 4,
                                      seed=seed + 20_000_033),
                    pulses=12,
                    delay_strategy="uniform-random", delay_seed=seed,
                    clock_strategy="uniform", clock_seed=seed + 10_000_019,
                    placement=placement,
                )
                res = run(cfg)
                view = analysis.TraceView(res)
                max_layer = analysis.local_skew(view).max_layer_skew()
                if max_layer > bound:
                    failures.append((f, seed, max_layer, bound))
        verdict(
            "A6 worst-case fault growth",
            not failures,
            f"f in (1,2,3) x 5 seeds, bound 4k(2+log2 D)*5^f*5/4, "
            f"{len(failures)} violations",
        )


class TestA7StaticFaultSteadyState:
    def test_a7(self):
        m = 16
        base = BASES[m]
        diameter = base.diameter
        c_bound = 32.0 * KAPPA * math.log2(diameter)
        mid = 2 + m // 2
        placement = FaultPlacement(behaviors={
            (mid, 10): FaultBehavior(kind="fixed_offset", offset=LAM / 4),
            (mid, 25): FaultBehavior(kind="silent"),
        })
        period_violations = 0
        worst_overall = 0.0
        c_measured = 0.0
        for seed in range(1, 6):
            cfg = RunConfig(
                base=base, layers=LAYERS, params=PARAMS,
                source=SourceMode(kind="ideal", jitter=KAPPA / 4,
                                  seed=seed + 20_000_033),
                pulses=12,
                delay_strategy="uniform-random", delay_seed=seed,
                clock_strategy="uniform", clock_seed=seed + 10_000_019,
                placement=placement,
            )
            res = run(cfg)
            view = analysis.TraceView(res)
            period_violations += len(analysis.period_consistency(res, view))
            overall = analysis.local_skew(view).overall
            worst_overall = max(worst_overall, overall)
        c_measured = worst_overall / (KAPPA * math.log2(diameter))
        ok = period_violations == 0 and worst_overall <= c_bound
        verdict(
            "A7 static-fault steady state",
            ok,
            f"period violations {period_violations}, L = {worst_overall:.4g} "
            f"(c = {c_measured:.2f}, bound c = 32)",
        )


class TestA8SelfStabilization:
    def test_a8(self):
        failures = []
        reported = []
        for m in (16, 32):
            base = BASES[m]
            layers = m
            pulses = m + 6
            n = base.num_vertices * layers
            limit = 4.0 * math.sqrt(n)
            worst = 0.0
            for seed in range(1, 21):
                cfg = RunConfig(
                    base=base, layers=layers, params=PARAMS,
                    source=SourceMode(kind="ideal", jitter=KAPPA / 4,
                                      seed=seed + 20_000_033),
                    pulses=pulses,
                    delay_strategy="uniform-random", delay_seed=seed,
                    clock_strategy="uniform", clock_seed=seed + 10_000_019,
                )
                ref = run(cfg)
                corrupted = dataclasses.replace(
                    cfg,
                    corruption=CorruptionSpec(node_fraction=1.0, max_spurious_messages=8),
                    corruption_seed=seed + 40_000_061,
                )
                res = run(corrupted)
                stab = analysis.stabilization_pulse(res, ref)
                worst = max(worst, stab)
                if not stab <= limit:
                    failures.append((m, seed, stab, limit))
            reported.append(f"m={m}: worst pulse {worst:.0f}, "
                            f"constant {worst / math.sqrt(n):.2f} (limit 4)")
        verdict(
            "A8 self-stabilization",
            not failures,
            "; ".join(reported) + f"; {len(failures)} beyond 4*sqrt(n)",
        )


class TestA9PotentialRecursion:
    def test_a9(self, battery):
        level_bad = [r for r in battery if not r["psi_levels_ok"]]
        psi0_bad = [r for r in battery if not r["psi0_ok"]]
        rec_bad = sum(r["recursion_violations"] for r in battery)
        obs_bad = sum(r["obs_violations"] for r in battery)
        ok = not level_bad and not psi0_bad and rec_bad == 0 and obs_bad == 0
        verdict(
            "A9 potential recursion",
            ok,
            f"levels>=1 within 2^(2-s)*kappa*D in {len(battery) - len(level_bad)}"
            f"/{len(battery)} runs, global-skew cap ok in "
            f"{len(battery) - len(psi0_bad)}, recursion violations {rec_bad}, "
            f"skew-vs-potential violations {obs_bad}",
        )


class TestA10CorrectionOracle:
    def test_a10(self):
        rng = random.Random(424242)
        mismatches = 0
        samples = 100_000
        for _ in range(samples):
            kappa = 10.0 ** rng.uniform(-3, 0.7)
            theta = 1.0 + 10.0 ** rng.uniform(-5, -0.3)
            h_min = rng.uniform(-100.0, 100.0)
            spread = rng.uniform(0.0, 40.0) * kappa
            h_max = None if rng.random() < 0.1 else h_min + spread
            h_own = h_min + rng.uniform(-25.0, 25.0) * kappa
            got = compute_correction(h_own, h_min, h_max, kappa, theta)
            want = correction_scan_oracle(h_own, h_min, h_max, kappa, theta)
            if got != want:
                mismatches += 1
        examples_ok = (
            compute_correction(100, 100, 100, 1, 1.2) == 0.0
            and compute_correction(10, 8, 12, 1, 1.2) == pytest.approx(1.2)
            and compute_correction(20, 8, 12, 1, 1.2) == pytest.approx(6.5)
            and compute_correction(5, 10, 12, 1, 1.2) == pytest.approx(-3.5)
            and compute_correction(10, 9.2, 10.4, 1, 1.2) == pytest.approx(0.3)
        )
        verdict(
            "A10 correction kernel oracle",
            mismatches == 0 and examples_ok,
            f"{samples} random inputs, {mismatches} mismatches; "
            f"worked examples {'ok' if examples_ok else 'broken'}",
        )


class TestA11Determinism:
    def test_a11(self, tmp_path):
        run_doc = {
            "schema": 1,
            "topology": {"kind": "line_replicated", "m": 3},
            "layers": 4,
            "pulses": 3,
            "params": {"d": 1.0, "u": 0.002, "theta": 1.0002, "Lambda": 2.0},
            "source": {"kind": "ideal", "jitter": 0.001, "seed": 3},
            "delays": {"strategy": "uniform-random", "seed": 11},
            "clocks": {"strategy": "uniform", "seed": 13},
        }
        specs = {
            "run": run_doc,
            "sweep": {"run": run_doc, "sweep": {"topology.m": [2, 3]}, "seeds": [1]},
            "stabilize": {
                "run": dict(run_doc, pulses=8),
                "seeds": [1],
                "corruption": {"node_fraction": 1.0, "max_spurious_messages": 2},
            },
            "faults-mc": {
                "run": dict(run_doc, layers=5, pulses=4),
                "seeds": [0],
                "trials": 3,
                "fault_probability": 0.05,
            },
        }
        mismatched = []
        for command in ("run", "sweep", "stabilize", "faults-mc"):
            cfg_path = tmp_path / f"{command}.yaml"
            cfg_path.write_text(yaml.safe_dump(specs[command if command != "run" else "run"]
                                               if command != "run" else run_doc))
            outs = []
            for attempt in ("x", "y"):
                out = tmp_path / f"{command}-{attempt}"
                code = cli_main([command, "--config", str(cfg_path), "--out", str(out)])
                assert code in (0, 1)
                outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            if outs[0] != outs[1]:
                mismatched.append(command)
        # verify twice over the run outputs
        out_v1 = tmp_path / "run-x"
        v1 = cli_main(["verify", str(out_v1)])
        report_a = (out_v1 / "verify.json").read_bytes()
        v2 = cli_main(["verify", str(out_v1)])
        report_b = (out_v1 / "verify.json").read_bytes()
        if report_a != report_b or v1 != v2:
            mismatched.append("verify")
        verdict(
            "A11 determinism",
            not mismatched,
            "byte-identical outputs for run/verify/sweep/stabilize/faults-mc"
            if not mismatched else f"mismatched: {mismatched}",
        )
