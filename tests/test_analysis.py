"""Skew, potential, and condition checkers over synthetic and simulated traces."""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from gridpulse import analysis
from gridpulse.config import build_run_config
from gridpulse.engine import (
    CorruptionSpec, PerturbationSpec, RunConfig, RunResult, empty_arrays, run,
)
from gridpulse.errors import ConfigurationError
from gridpulse.faults import FaultBehavior, FaultPlacement
from gridpulse.protocol import SourceMode
from gridpulse.report import build_report
from gridpulse.timing import Params, local_skew_budget
from gridpulse.topology import build_line_with_replicated_ends

PARAMS = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
KAPPA = PARAMS.kappa


def synthetic_result(layer_times: dict, m=4, pulses=1, placement=None) -> RunResult:
    """Result with hand-written pulse times: layer_times[layer][vertex] -> list
    (local times equal real times), and no snapshots."""
    base = build_line_with_replicated_ends(m)
    layers = max(layer_times) + 1
    cfg = RunConfig(
        base=base, layers=layers, params=PARAMS,
        source=SourceMode(kind="ideal", jitter=0.0), pulses=pulses,
        placement=placement or FaultPlacement.empty(),
    )
    counts = np.zeros((layers, base.num_vertices), dtype=np.int64)
    arrays = empty_arrays(layers, pulses, base.num_vertices)
    for layer, by_vertex in layer_times.items():
        for v, times in by_vertex.items():
            counts[layer, v] = len(times)
            arrays["times"][layer, : len(times), v] = times
            arrays["local_times"][layer, : len(times), v] = times
    return RunResult(config=cfg, counts=counts, **arrays, diagnostics=None)


class TestLocalSkew:
    def test_equal_times_zero(self):
        res = synthetic_result({0: {v: [1.0] for v in range(8)}})
        view = analysis.TraceView(res)
        skew = analysis.local_skew(view)
        assert skew.per_layer[0] == 0.0

    def test_path_example(self):
        # v1=0.10, v2=0.00, v3=0.05 on the line (vertices 2, 3, 4)
        times = {v: [0.0] for v in range(8)}
        times[2] = [0.10]
        times[3] = [0.00]
        times[4] = [0.05]
        res = synthetic_result({0: times})
        view = analysis.TraceView(res)
        skew = analysis.local_skew(view)
        # brute force over adjacent pairs
        expected = max(
            abs(times[a][0] - times[b][0])
            for a in range(8)
            for b in res.config.base.adjacency[a]
        )
        assert skew.per_layer[0] == pytest.approx(expected) == pytest.approx(0.10)

    def test_cascade_pairing_zero_for_ideal_grid(self):
        layer_times = {
            layer: {v: [(k - 1) * 2.0 + layer * 2.0 for k in (1, 2, 3)] for v in range(8)}
            for layer in range(3)
        }
        res = synthetic_result(layer_times, pulses=3)
        view = analysis.TraceView(res)
        skew = analysis.local_skew(view)
        assert all(x == 0.0 for x in skew.per_layer_pair)
        assert skew.overall == 0.0

    def test_faulty_layer_pair_undefined(self):
        placement = FaultPlacement(
            behaviors={(v, 0): FaultBehavior(kind="silent") for v in range(8)},
            strict=False,
        )
        res = synthetic_result({0: {}, 1: {v: [2.0] for v in range(8)}},
                               placement=placement)
        view = analysis.TraceView(res)
        skew = analysis.local_skew(view)
        assert skew.per_layer[0] is None


class TestPotentials:
    def test_equal_times_zero_everywhere(self):
        res = synthetic_result({0: {v: [5.0] for v in range(8)}})
        view = analysis.TraceView(res)
        table = analysis.potentials(view, kappa=0.01, s_max=3)
        assert np.nanmax(table.psi) == 0.0

    def test_two_node_formula(self):
        # offset 0.1 at distance 1 with kappa=0.01, s=1: 0.1 - 0.04 = 0.06
        times = {v: [0.0] for v in range(8)}
        times[3] = [0.1]
        res = synthetic_result({0: times})
        view = analysis.TraceView(res)
        table = analysis.potentials(view, kappa=0.01, s_max=1)
        assert table.psi[1, 0, 0] == pytest.approx(0.06)

    def test_xi_dominates_psi(self):
        times = {v: [0.013 * v] for v in range(8)}
        res = synthetic_result({0: times})
        view = analysis.TraceView(res)
        table = analysis.potentials(view, kappa=0.004, s_max=4)
        assert np.all(table.xi[1:] >= table.psi[1:] - 1e-15)
        # xi at level s is bounded by psi at level s-1
        for s in range(1, 5):
            assert np.nanmax(table.xi[s]) <= np.nanmax(table.psi[s - 1]) + 1e-15

    def test_skew_bounded_by_potential(self):
        times = {v: [0.001 * (v % 3)] for v in range(8)}
        res = synthetic_result({0: times})
        view = analysis.TraceView(res)
        table = analysis.potentials(view, kappa=0.0005, s_max=3)
        assert analysis.skew_vs_potential_violations(view, table, 0.0005) == []

    def test_skew_above_a_forged_potential_reported(self):
        """A table whose psi is forged to zero lies below the skew 0.1 of
        vertex 3 against its neighbors at both levels: one row per level."""
        times = {v: [0.0] for v in range(8)}
        times[3] = [0.1]
        view = analysis.TraceView(synthetic_result({0: times}))
        table = analysis.potentials(view, kappa=0.01, s_max=1)
        forged = dataclasses.replace(table, psi=np.zeros_like(table.psi))
        assert analysis.skew_vs_potential_violations(view, forged, 0.01) == [
            {"s": 0, "layer": 0, "pulse": 1, "skew": 0.1, "bound": 0.0},
            {"s": 1, "layer": 0, "pulse": 1, "skew": 0.1, "bound": 0.04},
        ]

    def test_negative_level_rejected(self):
        view = analysis.TraceView(synthetic_result({0: {v: [5.0] for v in range(8)}}))
        with pytest.raises(ConfigurationError, match="s_max must be >= 0"):
            analysis.potentials(view, kappa=0.01, s_max=-1)


class TestConditions:
    def make_result(self, corrections: dict):
        """Symmetric senders on layer 1, checked receivers on layer 2 so the
        fast and jump conditions apply (they need input layers >= 1)."""
        layer_times = {
            0: {v: [8.0] for v in range(8)},
            1: {v: [10.0] for v in range(8)},
            2: {v: [12.0] for v in range(8)},
        }
        res = synthetic_result(layer_times)
        # the snapshots of layer 2's first pulses
        res.arm[2, 0] = "corrected"
        for name in ("h_own", "h_min", "h_max", "exit_local"):
            getattr(res, name)[2, 0] = 11.0
        res.correction[2, 0] = [corrections.get(v, 0.0) for v in range(8)]
        return res

    @staticmethod
    def failures(res, s_max=3):
        view = analysis.TraceView(res)
        return analysis.check_conditions(res, view, s_max=s_max)

    def test_zero_correction_passes_everything(self):
        assert self.failures(self.make_result({})) == []

    def test_kappa_correction_passes_fast_and_jump(self):
        # the fast condition holds through its unconditional disjunct, the
        # jump condition through its in-range disjunct; the slow condition
        # rightly complains (a positive correction with symmetric inputs)
        fails = self.failures(self.make_result({v: KAPPA for v in range(8)}))
        assert not [f for f in fails if f["condition"].startswith("FC")]
        assert not [f for f in fails if f["condition"] == "JC"]

    def test_in_range_correction_passes_jump(self):
        fails = self.failures(self.make_result({v: PARAMS.theta * KAPPA for v in range(8)}))
        assert not [f for f in fails if f["condition"] == "JC"]

    def test_forged_large_correction_fails(self):
        # a huge positive correction with symmetric inputs violates the
        # slow condition for every s and the jump condition
        fails = self.failures(self.make_result({4: 50 * KAPPA}), s_max=2)
        conds = {f["condition"] for f in fails if f["vertex"] == 4}
        assert "SC(0)" in conds
        assert "JC" in conds

    def test_forged_negative_correction_fails_fast(self):
        fails = self.failures(self.make_result({4: -50 * KAPPA}), s_max=2)
        conds = {f["condition"] for f in fails if f["vertex"] == 4}
        assert any(c.startswith("FC") for c in conds)
        assert "JC" in conds

    def test_full_report_mode(self):
        res = self.make_result({})
        view = analysis.TraceView(res)
        verdicts = analysis.check_conditions(res, view, s_max=1, failures_only=False)
        assert verdicts and all(v["passed"] for v in verdicts)


class TestEnvelopeArithmetic:
    def test_reference_window(self):
        # t_min=10, t_max=10.05, lam=2, kappa~0.0044: window [11.9912, 12.0588]
        base = build_line_with_replicated_ends(4)
        placement = FaultPlacement(behaviors={(3, 0): FaultBehavior(kind="silent")},
                                   strict=False)
        layer_times = {
            0: {v: [10.0 if v != 4 else 10.05] for v in base.vertices if v != 3},
            1: {v: [12.0] for v in base.vertices},
        }
        res = synthetic_result(layer_times, placement=placement)
        view = analysis.TraceView(res)
        violations = analysis.check_fault_envelope(res, view)
        assert violations == []
        # move the successor outside the window and it must be flagged
        layer_times[1][3] = [12.1]
        res2 = synthetic_result(layer_times, placement=placement)
        view2 = analysis.TraceView(res2)
        bad = analysis.check_fault_envelope(res2, view2)
        assert any(v["vertex"] == 3 for v in bad)
        window = [v for v in bad if v["vertex"] == 3][0]["window"]
        assert window[0] == pytest.approx(10.0 + 2.0 - 2 * KAPPA)
        assert window[1] == pytest.approx(10.05 + 2.0 + 2 * KAPPA)


class TestPeriodConsistency:
    def test_exact_period_passes(self):
        layer_times = {0: {v: [1.0, 3.0, 5.0] for v in range(8)}}
        res = synthetic_result(layer_times, pulses=3)
        view = analysis.TraceView(res)
        assert analysis.period_consistency(res, view) == []

    def test_jitter_flagged(self):
        layer_times = {0: {v: [1.0, 3.0, 5.1] for v in range(8)}}
        res = synthetic_result(layer_times, pulses=3)
        view = analysis.TraceView(res)
        assert analysis.period_consistency(res, view)


class TestStabilizationMetric:
    def test_clean_run_is_one(self):
        layer_times = {0: {v: [1.0, 3.0, 5.0] for v in range(8)}}
        res = synthetic_result(layer_times, pulses=3)
        assert analysis.stabilization_pulse(res, res) == 1.0

    def test_index_shift_allowed(self):
        ref = synthetic_result({0: {v: [1.0, 3.0, 5.0] for v in range(8)}}, pulses=3)
        shifted = synthetic_result({0: {v: [3.0, 5.0, 7.0] for v in range(8)}}, pulses=3)
        assert analysis.stabilization_pulse(shifted, ref) == 1.0

    def test_junk_prefix_counted(self):
        ref = synthetic_result({0: {v: [1.0, 3.0, 5.0, 7.0] for v in range(8)}}, pulses=4)
        messy = synthetic_result({0: {v: [0.4, 3.0, 5.0, 7.0] for v in range(8)}}, pulses=4)
        assert analysis.stabilization_pulse(messy, ref) == 2.0

    def test_never_locking_is_unstabilized(self):
        ref = synthetic_result({0: {v: [1.0, 3.0] for v in range(8)}}, pulses=2)
        wild = synthetic_result({0: {v: [1.0, 3.7] for v in range(8)}}, pulses=2)
        assert math.isinf(analysis.stabilization_pulse(wild, ref))

    def test_node_silent_after_the_start_is_unstabilized(self):
        """Vertex 5 pulses in the reference but never in this run."""
        ref = synthetic_result({0: {v: [1.0, 3.0] for v in range(8)}}, pulses=2)
        hushed = synthetic_result({0: {v: [1.0, 3.0] for v in range(8) if v != 5}}, pulses=2)
        assert math.isinf(analysis.stabilization_pulse(hushed, ref))


@pytest.fixture(scope="module")
def sim():
    base = build_line_with_replicated_ends(8)
    cfg = RunConfig(
        base=base, layers=12, params=PARAMS,
        source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=2),
        pulses=8, delay_strategy="uniform-random", delay_seed=5,
        clock_strategy="uniform", clock_seed=6,
    )
    res = run(cfg)
    return res, analysis.TraceView(res)


class TestEndToEndCheckers:
    """A realistic validated run satisfies every measured inequality."""

    def test_skew_within_budget(self, sim):
        res, view = sim
        skew = analysis.local_skew(view)
        assert skew.max_layer_skew() <= local_skew_budget(PARAMS, res.config.base.diameter)

    def test_zero_condition_failures(self, sim):
        res, view = sim
        s_max = math.ceil(math.log2(res.config.base.diameter)) + 1
        assert analysis.check_conditions(res, view, s_max=s_max) == []

    def test_drift_and_estimates_hold(self, sim):
        res, view = sim
        assert analysis.check_drift(res, view) == []
        assert analysis.check_estimates(res, view) == []

    def test_potential_recursion_holds(self, sim):
        res, view = sim
        s_max = math.ceil(math.log2(res.config.base.diameter)) + 1
        table = analysis.potentials(view, KAPPA, s_max=s_max)
        assert analysis.psi_bound_violations(table, KAPPA) == []
        assert analysis.skew_vs_potential_violations(view, table, KAPPA) == []

    def test_moved_pulse_detected(self, sim):
        """Hand-moving one pulse by 10*kappa trips the condition checker."""
        res, view = sim
        moved = res.times.copy()
        moved[6, 3, 5] += 10 * KAPPA  # pulse 4 of vertex 5 on layer 6
        tampered = dataclasses.replace(res, times=moved)
        tview = analysis.TraceView(tampered)
        s_max = 2
        fails = analysis.check_conditions(tampered, tview, s_max=s_max)
        assert fails


# Per-record loop references for the array checkers: same arithmetic, one
# (layer, vertex, pulse) at a time.

def drift_by_loop(res, view):
    p = res.config.params
    eps = 1e-9 * p.lam
    out = []
    L, K, nv = view.times.shape
    for layer in range(1, L):
        for v in range(nv):
            if not (view.correct[layer, v] and view.correct[layer - 1, v]):
                continue
            for k in range(K):
                c = float(res.correction[layer, k, v])
                gap = float(view.times[layer, k, v]) - float(view.times[layer - 1, k, v])
                if math.isnan(c) or math.isnan(gap):
                    continue
                lo = p.d - p.u + (p.lam - p.d - c) / p.theta
                hi = p.lam - c
                if not (lo - eps <= gap <= hi + eps):
                    out.append({"vertex": v, "layer": layer, "pulse": k + 1,
                                "gap": gap, "window": [lo, hi], "correction": c})
    return out


def estimates_by_loop(res, view):
    kappa = res.config.params.kappa
    eps = 1e-9 * res.config.params.lam
    out = []
    L, K, nv = view.times.shape
    for layer in range(1, L):
        if not view.correct[layer - 1].all():
            continue
        for k in range(K):
            t = view.times[layer - 1, k].tolist()
            for v in range(nv):
                h_own = float(res.h_own[layer, k, v])
                if not view.correct[layer, v] or math.isnan(h_own) or math.isnan(t[v]):
                    continue
                others = [t[w] for w in res.config.base.adjacency[v] if not math.isnan(t[w])]
                if not others:
                    continue
                for name, h, t_w in (("max", res.h_max[layer, k, v], max(others)),
                                     ("min", res.h_min[layer, k, v], min(others))):
                    if math.isnan(h):
                        continue
                    centered = (h_own - float(h)) - kappa / 2
                    true = t[v] - t_w
                    if not (true - kappa - eps <= centered <= true + eps):
                        out.append({"vertex": v, "layer": layer, "pulse": k + 1, "extreme": name,
                                    "measured_minus_half": centered, "true": true})
    return out


def period_by_loop(res, view):
    out = []
    L, K, nv = view.times.shape
    for layer in range(L):
        for v in range(nv):
            t = view.times[layer, :, v].tolist()
            for k in range(K - 1):
                dev = abs(t[k + 1] - t[k] - res.config.params.lam)
                if view.correct[layer, v] and dev > 1e-9 * res.config.params.lam:
                    out.append({"vertex": v, "layer": layer, "pulse": k + 1, "deviation": dev})
    return out


def stabilization_by_loop(res, ref):
    lam = res.config.params.lam
    worst = 1.0
    L, nv = ref.counts.shape
    for layer in range(L):
        for v in range(nv):
            anchor_times = ref.pulse_times(v, layer)
            if (v, layer) in res.config.placement.members or not anchor_times:
                continue
            times = res.pulse_times(v, layer)
            if not times:
                return math.inf
            aligned = [abs(math.remainder(t - anchor_times[-1], lam)) <= 1e-9 * lam
                       for t in times]
            if not aligned[-1]:
                return math.inf
            bad = [i for i, ok in enumerate(aligned) if not ok]
            worst = max(worst, float(bad[-1] + 2) if bad else 1.0)
    return worst


def local_skew_by_loop(view):
    """(per_layer, per_layer_pair, per_layer_by_pulse, overall) of local_skew."""
    base = view.base
    L, K, _ = view.times.shape
    t = view.times.tolist()  # [layer][pulse][vertex]
    by_pulse = np.full((L, K), np.nan)
    per_layer = []
    for layer in range(L):
        ok = view.correct[layer]
        pairs = [(a, b) for a in base.vertices for b in base.adjacency[a]
                 if a < b and ok[a] and ok[b]]
        if not pairs:
            per_layer.append(None)
            continue
        for k in range(K):
            d = [abs(t[layer][k][a] - t[layer][k][b]) for a, b in pairs]
            d = [x for x in d if not math.isnan(x)]
            if d:
                by_pulse[layer, k] = max(d)
        defined = [x for x in by_pulse[layer].tolist() if not math.isnan(x)]
        per_layer.append(max(defined) if defined else None)
    per_pair = []
    for layer in range(L - 1):
        d = [abs(t[layer][k + 1][a] - t[layer + 1][k][b])
             for a in base.vertices for b in (a, *base.adjacency[a])
             if view.correct[layer, a] and view.correct[layer + 1, b]
             for k in range(K - 1)]
        d = [x for x in d if not math.isnan(x)]
        per_pair.append(max(d) if d else None)
    overall = max([x for x in per_layer + per_pair if x is not None], default=None)
    return per_layer, per_pair, by_pulse, overall


def potentials_by_loop(view, kappa, s_max):
    """(psi, xi): per (s, layer, pulse), the max over ordered pairs of correct
    pulsed nodes of t_v - t_w discounted per hop of distance."""
    L, K, nv = view.times.shape
    dist = view.base.distance_table
    psi = np.full((s_max + 1, L, K), np.nan)
    xi = np.full((s_max + 1, L, K), np.nan)
    for layer in range(L):
        for k in range(K):
            t = view.times[layer, k].tolist()
            valid = [v for v in range(nv) if view.correct[layer, v] and not math.isnan(t[v])]
            if not valid:
                continue
            for s in range(s_max + 1):
                psi[s, layer, k] = max(t[v] - t[w] - 4.0 * s * kappa * dist[v][w]
                                       for v in valid for w in valid)
                xi[s, layer, k] = max(t[v] - t[w] - (4.0 * s - 2.0) * kappa * dist[v][w]
                                      for v in valid for w in valid)
    return psi, xi


def conditions_by_loop(res, view, s_max, failures_only):
    p = res.config.params
    kappa, theta = p.kappa, p.theta
    adjacency = res.config.base.adjacency
    L, K, nv = view.times.shape
    out = []
    for layer in range(1, L):
        if not view.correct[layer - 1].all():
            continue
        names = [f"SC({s})" for s in range(s_max + 1)]
        if layer >= 2:
            names += [f"FC({s})" for s in range(1, s_max + 1)] + ["JC"]
        found = {name: [] for name in names}
        for k in range(K):
            t = view.times[layer - 1, k].tolist()
            for v in range(nv):
                c = float(res.correction[layer, k, v])
                others = [t[w] for w in adjacency[v] if not math.isnan(t[w])]
                if (not view.correct[layer, v] or math.isnan(c) or math.isnan(t[v])
                        or not others):
                    continue
                ts, nmin, nmax, c_rel = t[v], min(others), max(others), c / theta
                verdicts = []
                for s in range(s_max + 1):
                    lo = ts - nmax + 4 * s * kappa
                    hi = ts - nmin - 4 * s * kappa
                    verdicts.append((f"SC({s})", c_rel <= lo or c_rel <= hi or c <= 0.0,
                                     max(lo - c_rel, hi - c_rel, -c)))
                if layer >= 2:
                    for s in range(1, s_max + 1):
                        lo = ts - nmax + (4 * s - 2) * kappa + kappa
                        hi = ts - nmin - (4 * s - 2) * kappa + kappa
                        verdicts.append((f"FC({s})", c >= lo or c >= hi or c >= kappa,
                                         max(c - lo, c - hi, c - kappa)))
                    jc = ((kappa < c_rel <= ts - nmax - kappa)
                          or (0.0 > c >= ts - nmin + kappa)
                          or (0.0 <= c <= theta * kappa))
                    verdicts.append(("JC", jc, 0.0))
                for name, passed, slack in verdicts:
                    if not (failures_only and passed):
                        found[name].append({
                            "vertex": v, "layer": layer, "pulse": k + 1, "condition": name,
                            "passed": passed, "disjunct": None, "slack": slack})
        for name in names:
            out += found[name]
    return out


def psi_bound_by_loop(table, kappa):
    s_count, L, K = table.psi.shape
    layer_pairs = sorted({(l1, min(l1 + g, L - 1))
                          for g in (1, 2, 5, 10, L - 1) if g >= 1
                          for l1 in range(0, L, max(1, L // 6))})
    out = []
    for s in range(1, s_count):
        for l1, l2 in layer_pairs:
            for k in range(K):
                xi = float(table.xi[s, l1, k])
                psi = float(table.psi[s, l2, k])
                if math.isnan(xi) or math.isnan(psi):
                    continue
                bound = max(0.0, xi - (l2 - l1 + 1) * kappa) + (l2 - l1) * kappa / 2.0
                if psi > bound:
                    out.append({"s": s, "bottom": l1, "top": l2, "pulse": k + 1,
                                "psi": psi, "bound": bound})
    return out


def skew_vs_potential_by_loop(view, table, kappa):
    skews = local_skew_by_loop(view)[2]
    L, K = skews.shape
    out = []
    for s in table.s_values:
        for layer in range(L):
            for k in range(K):
                skew = float(skews[layer, k])
                bound = float(table.psi[s, layer, k]) + 4.0 * s * kappa
                if skew > bound:  # False where either is NaN
                    out.append({"s": s, "layer": layer, "pulse": k + 1,
                                "skew": skew, "bound": bound})
    return out


def envelope_by_loop(res, view):
    cfg = res.config
    params = cfg.params
    eps = 1e-9 * params.lam
    out = []
    L, K, _ = view.times.shape
    for (fv, flayer) in sorted(cfg.placement.members):
        succ_layer = flayer + 1
        if succ_layer >= L:
            continue
        for v in (fv, *cfg.base.adjacency[fv]):
            if not view.correct[succ_layer, v]:
                continue
            preds = [w for w in (v, *cfg.base.adjacency[v]) if view.correct[flayer, w]]
            if not preds:
                continue
            for k in range(K):
                tv = view.times[succ_layer, k, v]
                if math.isnan(tv):
                    continue
                pred_times = view.times[flayer, k, preds]
                if np.any(np.isnan(pred_times)):
                    continue
                t_min = float(np.min(pred_times))
                t_max = float(np.max(pred_times))
                lo = t_min + params.lam - 2 * params.kappa
                hi = t_max + params.lam + 2 * params.kappa
                if not (lo - eps <= tv <= hi + eps):
                    out.append({
                        "vertex": v, "layer": succ_layer, "pulse": k + 1,
                        "time": tv, "window": [lo, hi],
                        "faulty_predecessor": [fv, flayer],
                    })
    return out


def potentials_by_pairs(view, kappa, s_max):
    """(psi, xi) in the former whole-array form: per layer and level, the
    NaN-skipping max over every ordered pair of t_v - t_w less the level's
    term times the pair's hop distance."""
    L, K, _ = view.times.shape
    psi = np.empty((s_max + 1, L, K))
    xi = np.empty((s_max + 1, L, K))
    for layer in range(L):
        t = np.where(view.correct[layer], view.times[layer], np.nan)
        diff = t[:, :, None] - t[:, None, :]
        for s in range(s_max + 1):
            psi[s, layer] = np.fmax.reduce(diff - 4.0 * s * kappa * view.dist, axis=(1, 2),
                                           initial=np.nan)
            xi[s, layer] = np.fmax.reduce(diff - (4.0 * s - 2.0) * kappa * view.dist,
                                          axis=(1, 2), initial=np.nan)
    return psi, xi


@pytest.fixture(scope="module")
def scrambled():
    """A fully corrupted start, its clean reference, and a perturbed faulty run:
    every checker reports violations on them."""
    cfg = RunConfig(
        base=build_line_with_replicated_ends(6), layers=8, params=PARAMS,
        source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=4), pulses=10,
        delay_seed=8, clock_seed=9,
    )
    corrupted = dataclasses.replace(
        cfg, corruption=CorruptionSpec(node_fraction=1.0, max_spurious_messages=8),
        corruption_seed=11,
    )
    faulty = dataclasses.replace(
        cfg,
        placement=FaultPlacement(behaviors={(4, 3): FaultBehavior(kind="silent")}),
        perturbation=PerturbationSpec(delay_magnitude=1e-4, rate_magnitude=1e-6, seed=2),
    )
    return run(corrupted), run(cfg), run(faulty)


@pytest.fixture(scope="module")
def chain():
    """A chain-source run: its checkers pair adjacent nodes one pulse apart,
    so skew, conditions and estimates fail with long lists."""
    return run(RunConfig(
        base=build_line_with_replicated_ends(8), layers=6, params=PARAMS,
        source=SourceMode(kind="chain"), pulses=8, delay_seed=3, clock_seed=4,
    ))


class TestArrayCheckersMatchLoops:
    def test_drift_estimates_period(self, scrambled):
        for res in scrambled:
            view = analysis.TraceView(res)
            for checker, reference in ((analysis.check_drift, drift_by_loop),
                                       (analysis.check_estimates, estimates_by_loop),
                                       (analysis.period_consistency, period_by_loop)):
                assert checker(res, view) == reference(res, view)
        corrupted_view = analysis.TraceView(scrambled[0])
        assert analysis.check_drift(scrambled[0], corrupted_view)
        assert analysis.check_estimates(scrambled[0], corrupted_view)

    def test_fault_envelope(self, scrambled):
        faulty = scrambled[2]
        # adjacent faults off schedule (not a strict placement), with pulse
        # times jittered by up to 3 kappa and some pulses missing; the faulty
        # successor (4, 4) gets far-off times, which are neither checked nor
        # part of any window
        placement = FaultPlacement(behaviors={
            (4, 3): FaultBehavior(kind="fixed_offset", offset=0.3),
            (5, 3): FaultBehavior(kind="burst", count=2, spacing=0.05),
            (4, 4): FaultBehavior(kind="silent"),
            (2, 6): FaultBehavior(kind="silent"),
        }, strict=False)
        adjacent = run(dataclasses.replace(faulty.config, perturbation=None, placement=placement))
        rng = np.random.default_rng(7)
        times = adjacent.times + rng.uniform(-3 * KAPPA, 3 * KAPPA, adjacent.times.shape)
        times[rng.random(times.shape) < 0.05] = np.nan
        times[4, :, 4] = 100.0
        jittered = dataclasses.replace(adjacent, times=times)
        for res in (faulty, jittered):
            view = analysis.TraceView(res)
            got = analysis.check_fault_envelope(res, view)
            assert json.dumps(got) == json.dumps(envelope_by_loop(res, view))
        assert len(got) > 20
        assert {w["faulty_predecessor"][0] for w in got} == {2, 4, 5}

    def test_stabilization(self, scrambled):
        corrupted, clean, _ = scrambled
        for res, ref in ((corrupted, clean), (clean, clean), (clean, corrupted)):
            assert analysis.stabilization_pulse(res, ref) == stabilization_by_loop(res, ref)
        assert analysis.stabilization_pulse(corrupted, clean) > 1.0

    def test_skew_potentials_conditions(self, scrambled, chain):
        s_max = 3
        for res in (*scrambled, chain):
            view = analysis.TraceView(res)
            skew = analysis.local_skew(view)
            per_layer, per_pair, by_pulse, overall = local_skew_by_loop(view)
            assert skew.per_layer == per_layer
            assert skew.per_layer_pair == per_pair
            assert np.array_equal(skew.per_layer_by_pulse, by_pulse, equal_nan=True)
            assert skew.overall == overall
            table = analysis.potentials(view, KAPPA, s_max=s_max)
            psi, xi = potentials_by_loop(view, KAPPA, s_max)
            assert np.array_equal(table.psi, psi, equal_nan=True)
            assert np.array_equal(table.xi, xi, equal_nan=True)
            for failures_only in (True, False):
                assert (analysis.check_conditions(res, view, s_max, failures_only)
                        == conditions_by_loop(res, view, s_max, failures_only))
            for kappa in (KAPPA, 10 * KAPPA):
                assert (analysis.psi_bound_violations(table, kappa)
                        == psi_bound_by_loop(table, kappa))
            # forged low enough that every level reports violations; the NaN
            # holes stay
            forged = dataclasses.replace(table, psi=table.psi * 0.0 - 4.0 * (s_max + 1) * KAPPA)
            for t in (table, forged):
                assert (analysis.skew_vs_potential_violations(view, t, KAPPA)
                        == skew_vs_potential_by_loop(view, t, KAPPA))
            got = analysis.skew_vs_potential_violations(view, forged, KAPPA)
            assert {w["s"] for w in got} == set(table.s_values)
        view = analysis.TraceView(chain)
        assert len(analysis.check_conditions(chain, view, s_max)) > 50
        assert analysis.local_skew(view).max_layer_skew() > local_skew_budget(
            PARAMS, chain.config.base.diameter)
        assert len(analysis.check_estimates(chain, view)) > 50
        assert analysis.check_estimates(chain, view) == estimates_by_loop(chain, view)
        corrupted_view = analysis.TraceView(scrambled[0])
        assert analysis.psi_bound_violations(
            analysis.potentials(corrupted_view, KAPPA, s_max=s_max), KAPPA)

    def test_potentials_by_distance_class(self, scrambled):
        """The class-maximum form equals the pair form bit for bit: on clean
        acceptance-battery-shaped runs, a corrupted start, a faulty perturbed
        run and a jittered view with NaN holes, at every level count up to 7."""
        battery = [run(RunConfig(
            base=build_line_with_replicated_ends(m), layers=40, params=PARAMS,
            source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=seed + 20_000_033),
            pulses=20, delay_seed=seed, clock_seed=seed + 10_000_019,
        )) for m, seed in ((8, 1), (32, 1001))]
        corrupted, _, faulty = scrambled
        # on a wide graph, offsets a_k * sqrt(hops from vertex 0) with a_k
        # rising over the pulses, and 3 kappa of jitter: the distance class
        # that sets a maximum moves with the pulse and the level, so the
        # rounding of every level term shows
        rng = np.random.default_rng(3)
        wide = battery[1]
        ramp = np.linspace(0.05, 1.0, 20)[:, None] * np.sqrt(wide.config.base.distance_table[0])
        times = wide.times + ramp + rng.uniform(-3 * KAPPA, 3 * KAPPA, wide.times.shape)
        times[rng.random(times.shape) < 0.2] = np.nan
        times[2, :, :] = np.nan  # a layer without a pulse
        jittered = dataclasses.replace(wide, times=times)
        for res in (*battery, corrupted, faulty, jittered):
            view = analysis.TraceView(res)
            for s_max in range(7):
                table = analysis.potentials(view, KAPPA, s_max)
                psi, xi = potentials_by_pairs(view, KAPPA, s_max)
                assert table.s_values == list(range(s_max + 1))
                assert table.psi.tobytes() == psi.tobytes()
                assert table.xi.tobytes() == xi.tobytes()
        assert np.isnan(analysis.potentials(analysis.TraceView(jittered), KAPPA, 2).psi).any()


class TestViewSharesItsArrays:
    """A TraceView derives the skew summary and the neighbor extrema once, on
    first use, and every checker reads the same ones."""

    # the CI console.yaml run
    CONSOLE = {
        "schema": 1,
        "topology": {"kind": "line_replicated", "m": 8},
        "layers": 6,
        "pulses": 4,
        "params": {"d": 1.0, "u": 0.002, "theta": 1.0002, "Lambda": 2.0},
        "source": {"kind": "ideal", "jitter": 0.001, "seed": 3},
        "delays": {"strategy": "uniform-random", "seed": 1},
        "clocks": {"strategy": "uniform", "seed": 2},
    }

    def test_local_skew_is_the_views_summary(self):
        view = analysis.TraceView(run(build_run_config(self.CONSOLE)))
        assert analysis.local_skew(view) is analysis.local_skew(view)

    def test_report_derives_each_shared_array_once(self, monkeypatch):
        calls = collections.Counter()
        for name in ("skew", "extrema"):
            derive = vars(analysis.TraceView)[name].func

            def counted(view, derive=derive, name=name):
                calls[name] += 1
                return derive(view)

            prop = functools.cached_property(counted)
            prop.__set_name__(analysis.TraceView, name)
            monkeypatch.setattr(analysis.TraceView, name, prop)
        report = build_report(run(build_run_config(self.CONSOLE)))
        # the skew is read by the skew and potentials checks, the extrema by
        # the conditions and estimates checks
        assert {"skew", "potentials", "conditions", "estimates"} <= set(report["checks"])
        assert calls == {"skew": 1, "extrema": 1}
