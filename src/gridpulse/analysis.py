"""Post-hoc measurement and verification of simulation traces.

Everything here is a pure function over a finished run: skews between
adjacent nodes, distance-discounted pair potentials, the per-node correction
conditions, fault envelopes, drift windows, measurement-error bounds, pulse
periodicity, and stabilization indices. Checkers report violations as data
with full witnesses; they never mutate the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import RunResult
from .errors import ConfigurationError
from .timing import Params

__all__ = [
    "ConditionVerdict",
    "PotentialTable",
    "SkewSummary",
    "TraceView",
    "check_conditions",
    "check_drift",
    "check_estimates",
    "check_fault_envelope",
    "local_skew",
    "period_consistency",
    "potentials",
    "psi_bound_violations",
    "stabilization_pulse",
]

# Absolute slack for checker inequalities: boundary cases (rate exactly 1,
# delay exactly d) are equalities up to float associativity error.
def _guard(params: Params) -> float:
    return 1e-9 * params.lam


UNSTABILIZED = math.inf


class TraceView:
    """The configured pulses of a run: times[layer, pulse, vertex] with NaN
    gaps, and the mask of correct nodes, correct[layer, vertex]."""

    def __init__(self, result: RunResult):
        cfg = result.config
        self.base = cfg.base
        self.times = result.times[:, : cfg.pulses]
        self.correct = _correct_mask(result)
        self.edges = [
            (a, b)
            for a in self.base.vertices
            for b in self.base.adjacency[a]
            if a < b
        ]

    def dist_matrix(self) -> np.ndarray:
        return np.asarray(self.base.distance_table, dtype=float)


def _correct_mask(result: RunResult) -> np.ndarray:
    correct = np.ones(result.counts.shape, dtype=bool)
    for v, layer in result.config.placement.members:
        if 0 <= layer < correct.shape[0]:
            correct[layer, v] = False
    return correct


@dataclass
class SkewSummary:
    """Adjacent-node offsets per layer and across consecutive layers."""

    per_layer: list  # max over pulses of intra-layer adjacent offset; None if undefined
    per_layer_pair: list  # matching pulse k+1 below against pulse k above
    per_layer_by_pulse: np.ndarray = field(repr=False)
    overall: float | None = None

    def max_layer_skew(self) -> float | None:
        vals = [x for x in self.per_layer if x is not None]
        return max(vals) if vals else None


def local_skew(view: TraceView) -> SkewSummary:
    """Intra-layer and consecutive-layer skews over correct adjacent pairs.

    The cross-layer term matches pulse k+1 on the lower layer against pulse
    k on the upper layer, the pairing under which an ideally timed cascade
    has zero offset. Self-copy edges are included in the cross-layer max.
    """
    L, K, _ = view.times.shape
    per_layer_by_pulse = np.full((L, K), np.nan)
    per_layer: list = []
    for layer in range(L):
        diffs = []
        for a, b in view.edges:
            if view.correct[layer, a] and view.correct[layer, b]:
                d = np.abs(view.times[layer, :, a] - view.times[layer, :, b])
                diffs.append(d)
        if not diffs:
            per_layer.append(None)
            continue
        stacked = np.vstack(diffs)
        with np.errstate(all="ignore"):
            per_pulse = np.nanmax(stacked, axis=0)
        per_layer_by_pulse[layer] = per_pulse
        value = np.nanmax(per_pulse) if not np.all(np.isnan(per_pulse)) else None
        per_layer.append(float(value) if value is not None else None)

    per_pair: list = []
    for layer in range(L - 1):
        diffs = []
        for a in view.base.vertices:
            for b in (a, *view.base.adjacency[a]):
                if view.correct[layer, a] and view.correct[layer + 1, b]:
                    d = np.abs(view.times[layer, 1:, a] - view.times[layer + 1, : K - 1, b])
                    diffs.append(d)
        if not diffs or K < 2:
            per_pair.append(None)
            continue
        stacked = np.vstack(diffs)
        if np.all(np.isnan(stacked)):
            per_pair.append(None)
        else:
            per_pair.append(float(np.nanmax(stacked)))

    candidates = [x for x in per_layer + per_pair if x is not None]
    overall = max(candidates) if candidates else None
    return SkewSummary(
        per_layer=per_layer,
        per_layer_pair=per_pair,
        per_layer_by_pulse=per_layer_by_pulse,
        overall=overall,
    )


@dataclass
class PotentialTable:
    """Distance-discounted pair potentials per discretization level.

    psi discounts ordered pair offsets by 4*s*kappa per hop, xi by
    (4*s-2)*kappa per hop; the tables hold the per-layer-per-pulse maxima
    and the witness pair attaining each level-layer maximum.
    """

    s_values: list
    psi: np.ndarray = field(repr=False)  # [s, layer, pulse]
    xi: np.ndarray = field(repr=False)
    witnesses: dict = field(repr=False)  # (s, layer) -> (v, w, pulse)


def potentials(view: TraceView, kappa: float, s_max: int) -> PotentialTable:
    """Exact pair maxima over correct nodes, diagonal included (so psi >= 0)."""
    if s_max < 0:
        raise ConfigurationError("s_max must be >= 0")
    L, K, nv = view.times.shape
    dist = view.dist_matrix()
    s_values = list(range(s_max + 1))
    psi = np.full((s_max + 1, L, K), np.nan)
    xi = np.full((s_max + 1, L, K), np.nan)
    witnesses: dict = {}
    for layer in range(L):
        ok = view.correct[layer]
        if not ok.any():
            continue
        for k in range(K):
            t = view.times[layer, k]
            valid = ok & ~np.isnan(t)
            if not valid.any():
                continue
            tv = np.where(valid, t, np.nan)
            diff = tv[:, None] - tv[None, :]  # diff[v, w] = t_v - t_w
            for s in s_values:
                with np.errstate(all="ignore"):
                    mat_psi = diff - 4.0 * s * kappa * dist
                    mat_xi = diff - (4.0 * s - 2.0) * kappa * dist
                    p = np.nanmax(mat_psi)
                    x = np.nanmax(mat_xi)
                psi[s, layer, k] = p
                xi[s, layer, k] = x
                key = (s, layer)
                if key not in witnesses or p > witnesses[key][3]:
                    v, w = np.unravel_index(np.nanargmax(mat_psi), mat_psi.shape)
                    witnesses[key] = (int(v), int(w), k + 1, float(p))
    return PotentialTable(s_values=s_values, psi=psi, xi=xi, witnesses=witnesses)


def skew_vs_potential_violations(view: TraceView, table: PotentialTable,
                                 kappa: float) -> list:
    """Pointwise check of L_layer <= Psi^s(layer) + 4*s*kappa for every s."""
    skews = local_skew(view).per_layer_by_pulse
    out = []
    for s in table.s_values:
        bound = table.psi[s] + 4.0 * s * kappa
        with np.errstate(invalid="ignore"):
            bad = skews > bound
        for layer, k in zip(*np.nonzero(bad)):
            out.append({
                "s": int(s), "layer": int(layer), "pulse": int(k + 1),
                "skew": float(skews[layer, k]), "bound": float(bound[layer, k]),
            })
    return out


def psi_bound_violations(table: PotentialTable, kappa: float,
                         layer_pairs: list | None = None) -> list:
    """Layer-window recursion: Psi^s(top) bounded via Xi^s(bottom).

    Checks Psi^s(l2) <= max(0, Xi^s(l1) - (l2-l1+1)*kappa) + (l2-l1)*kappa/2
    for sampled layer pairs l1 <= l2, per pulse, for s >= 1.
    """
    s_count, L, K = table.psi.shape
    if layer_pairs is None:
        gaps = [1, 2, 5, 10, L - 1]
        layer_pairs = sorted({
            (l1, min(l1 + g, L - 1))
            for g in gaps
            for l1 in range(0, L, max(1, L // 6))
            if g >= 1
        })
    out = []
    for s in range(1, s_count):
        for l1, l2 in layer_pairs:
            if not 0 <= l1 <= l2 < L:
                continue
            for k in range(K):
                xi = table.xi[s, l1, k]
                psi = table.psi[s, l2, k]
                if math.isnan(xi) or math.isnan(psi):
                    continue
                bound = max(0.0, xi - (l2 - l1 + 1) * kappa) + (l2 - l1) * kappa / 2.0
                if psi > bound:
                    out.append({
                        "s": s, "bottom": l1, "top": l2, "pulse": k + 1,
                        "psi": float(psi), "bound": float(bound),
                    })
    return out


@dataclass(frozen=True)
class ConditionVerdict:
    vertex: int
    layer: int
    pulse: int
    condition: str  # 'SC(s)', 'FC(s)', 'JC'
    passed: bool
    disjunct: str | None
    slack: float


def _adjacency_mask(base) -> np.ndarray:
    nv = base.num_vertices
    mask = np.zeros((nv, nv), dtype=bool)
    for v in base.vertices:
        mask[v, list(base.adjacency[v])] = True
    return mask


def _neighbor_extrema_layer(view: TraceView, layer: int):
    """min/max over neighbors of each vertex, per pulse: arrays [K, nv]."""
    t = view.times[layer]  # [K, nv]
    mask = _adjacency_mask(view.base)
    expanded = np.where(mask[None, :, :], t[:, None, :], np.nan)
    with np.errstate(all="ignore"):
        nmin = np.nanmin(expanded, axis=2)
        nmax = np.nanmax(expanded, axis=2)
    return nmin, nmax


def check_conditions(result: RunResult, view: TraceView, s_max: int,
                     failures_only: bool = True) -> list[ConditionVerdict]:
    """Evaluate the slow/fast/jump conditions at every applicable node/pulse.

    Uses true pulse times and the recorded correction. The slow condition is
    checked from layer 1 up, the fast and jump conditions from layer 2 up,
    and only where the whole input layer is correct, matching the
    definitions' applicability.
    """
    params = result.config.params
    kappa, theta = params.kappa, params.theta
    L, K, nv = view.times.shape
    corr = result.correction[:, :K]
    out: list[ConditionVerdict] = []
    layer_correct = view.correct.all(axis=1)

    def emit(mask: np.ndarray, layer: int, name: str,
             passed_mat: np.ndarray, slack: np.ndarray | None) -> None:
        for k, v in zip(*np.nonzero(mask)):
            out.append(ConditionVerdict(
                vertex=int(v), layer=layer, pulse=int(k) + 1, condition=name,
                passed=bool(passed_mat[k, v]), disjunct=None,
                slack=float(slack[k, v]) if slack is not None else 0.0,
            ))

    with np.errstate(invalid="ignore"):
        for layer in range(1, L):
            if not layer_correct[layer - 1]:
                continue
            nmin, nmax = _neighbor_extrema_layer(view, layer - 1)  # [K, nv]
            ts = view.times[layer - 1]
            c = corr[layer]
            valid = (view.correct[layer][None, :] & ~np.isnan(c) & ~np.isnan(ts)
                     & ~np.isnan(nmin) & ~np.isnan(nmax))
            if not valid.any():
                continue
            c_rel = c / theta
            for s in range(s_max + 1):
                sc = ((c_rel <= ts - nmax + 4 * s * kappa)
                      | (c_rel <= ts - nmin - 4 * s * kappa)
                      | (c <= 0.0))
                report = valid & ~sc if failures_only else valid
                if report.any():
                    slack = np.maximum(ts - nmax + 4 * s * kappa - c_rel,
                                       np.maximum(ts - nmin - 4 * s * kappa - c_rel, -c))
                    emit(report, layer, f"SC({s})", sc, slack)
            if layer >= 2:
                for s in range(1, s_max + 1):
                    fc = ((c >= ts - nmax + (4 * s - 2) * kappa + kappa)
                          | (c >= ts - nmin - (4 * s - 2) * kappa + kappa)
                          | (c >= kappa))
                    report = valid & ~fc if failures_only else valid
                    if report.any():
                        slack = np.maximum(
                            c - (ts - nmax + (4 * s - 2) * kappa + kappa),
                            np.maximum(c - (ts - nmin - (4 * s - 2) * kappa + kappa),
                                       c - kappa))
                        emit(report, layer, f"FC({s})", fc, slack)
                jc = (((kappa < c_rel) & (c_rel <= ts - nmax - kappa))
                      | ((0.0 > c) & (c >= ts - nmin + kappa))
                      | ((0.0 <= c) & (c <= theta * kappa)))
                report = valid & ~jc if failures_only else valid
                if report.any():
                    emit(report, layer, "JC", jc, None)
    return out


def check_fault_envelope(result: RunResult, view: TraceView) -> list:
    """Pulses of correct fault-successors must sit in the window spanned by
    their correct predecessors' pulses, shifted by the period, widened 2*kappa."""
    cfg = result.config
    params = cfg.params
    eps = _guard(params)
    faulty = cfg.placement.members
    out = []
    L, K, _ = view.times.shape
    for (fv, flayer) in sorted(faulty):
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


def _layer_vertex_pulse(bad: np.ndarray):
    """Indices (layer, vertex, pulse) of a [layer, pulse, vertex] mask, in that order."""
    layer, v, k = np.nonzero(bad.transpose(0, 2, 1))
    return zip(layer.tolist(), v.tolist(), k.tolist())


def check_drift(result: RunResult, view: TraceView) -> list:
    """Per-pulse drift window between a node and its self-copy predecessor."""
    params = result.config.params
    eps = _guard(params)
    K = view.times.shape[1]
    c = result.correction[1:, :K]
    gap = view.times[1:] - view.times[:-1]
    lo = params.d - params.u + (params.lam - params.d - c) / params.theta
    hi = params.lam - c
    both = (view.correct[1:] & view.correct[:-1])[:, None, :]
    with np.errstate(invalid="ignore"):
        bad = both & ~((lo - eps <= gap) & (gap <= hi + eps))
    bad &= ~np.isnan(c) & ~np.isnan(gap)
    return [
        {"vertex": v, "layer": layer + 1, "pulse": k + 1,
         "gap": float(gap[layer, k, v]),
         "window": [float(lo[layer, k, v]), float(hi[layer, k, v])],
         "correction": float(c[layer, k, v])}
        for layer, v, k in _layer_vertex_pulse(bad)
    ]


def check_estimates(result: RunResult, view: TraceView) -> list:
    """Local interval measurements must track true send intervals within
    kappa/2 each side (both extremes), when all predecessors are correct."""
    params = result.config.params
    kappa = params.kappa
    eps = _guard(params)
    out = []
    L, K, nv = view.times.shape
    for layer in range(1, L):
        if not view.correct[layer - 1].all():
            continue
        nmin, nmax = _neighbor_extrema_layer(view, layer - 1)  # [K, nv]
        ts = view.times[layer - 1]
        h_own = result.h_own[layer, :K]
        # [K, nv, extreme]: the last-neighbor ('max') pair first, as reported
        measured = h_own[..., None] - np.stack(
            (result.h_max[layer, :K], result.h_min[layer, :K]), axis=-1)
        centered = measured - kappa / 2
        true = ts[..., None] - np.stack((nmax, nmin), axis=-1)
        with np.errstate(invalid="ignore"):
            bad = ~((true - kappa - eps <= centered) & (centered <= true + eps))
        bad &= ~np.isnan(centered) & ~np.isnan(true) & view.correct[layer][None, :, None]
        for k, v, e in zip(*(i.tolist() for i in np.nonzero(bad))):
            out.append({
                "vertex": v, "layer": layer, "pulse": k + 1,
                "extreme": ("max", "min")[e],
                "measured_minus_half": float(centered[k, v, e]),
                "true": float(true[k, v, e]),
            })
    return out


def period_consistency(result: RunResult, view: TraceView,
                       tolerance: float | None = None) -> list:
    """In a static run every correct node repeats with exactly the period."""
    params = result.config.params
    tol = 1e-9 * params.lam if tolerance is None else tolerance
    dev = np.abs(view.times[:, 1:] - view.times[:, :-1] - params.lam)
    with np.errstate(invalid="ignore"):
        bad = view.correct[:, None, :] & (dev > tol)
    return [
        {"vertex": v, "layer": layer, "pulse": k + 1, "deviation": float(dev[layer, k, v])}
        for layer, v, k in _layer_vertex_pulse(bad)
    ]


def stabilization_pulse(result: RunResult, reference: RunResult,
                        tolerance: float | None = None) -> float:
    """Smallest pulse index from which every correct node tracks the clean
    run's periodic orbit (per-node integer index shifts allowed).

    Both runs must share delays and clocks. Returns 1 for a clean start and
    the UNSTABILIZED sentinel (inf) when some node never locks on.
    """
    lam = result.config.params.lam
    tol = 1e-9 * lam if tolerance is None else tolerance
    counts = result.counts
    # nodes that pulsed in the reference run and are correct in this one
    nodes = (reference.counts > 0) & _correct_mask(result)
    if np.any(nodes & (counts == 0)):
        return UNSTABILIZED
    last = np.maximum(reference.counts - 1, 0)[:, None, :]
    anchor = np.take_along_axis(reference.times, last, axis=1)
    # |IEEE remainder| of the offset by lam: fmod is exact, and so is
    # lam - r for r >= lam/2 (Sterbenz)
    r = np.abs(np.fmod(result.times - anchor, lam))
    aligned = np.minimum(r, lam - r) <= tol
    k = np.arange(result.times.shape[1])[None, :, None]
    emitted = k < counts[:, None, :]
    last_aligned = np.take_along_axis(aligned, np.maximum(counts - 1, 0)[:, None, :], axis=1)
    if not last_aligned[:, 0][nodes].all():
        return UNSTABILIZED
    last_bad = np.where(emitted & ~aligned, k, -1).max(axis=1)
    return max(1.0, float(last_bad[nodes].max(initial=-1) + 2))
