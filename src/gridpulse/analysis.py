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
from functools import cached_property

import numpy as np

from .engine import RunResult
from .errors import ConfigurationError
from .timing import Params

__all__ = [
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


class TraceView:
    """The configured pulses of a run: times[layer, pulse, vertex] with NaN
    gaps and the snapshots the checkers read (h_own, h_min, h_max,
    correction), cut to the same pulses; the mask of correct nodes,
    correct[layer, vertex], and of wholly correct layers, layer_correct[layer].

    The neighbor layout is the base graph's padded slot table: slot[v, j]
    is v or one of its neighbors, ``neighbor[v, j]`` marks the real slots
    that hold a neighbor, and dist[v, w] is the hop distance.
    at_slot[layer, pulse, v, j] is the time of slot[v, j] on the same layer.
    The skew summary and the neighbor extrema, which several checkers share,
    are derived on first use and kept.
    """

    def __init__(self, result: RunResult):
        cfg = result.config
        self.base = cfg.base
        self.times, self.h_own, self.h_min, self.h_max, self.correction = (
            x[:, : cfg.pulses]
            for x in (result.times, result.h_own, result.h_min, result.h_max, result.correction))
        self.correct = ~cfg.faulty
        self.layer_correct = self.correct.all(axis=1)
        self.slot, real = cfg.base.padded_slots
        self.neighbor = real & (self.slot != np.arange(len(self.slot))[:, None])
        self.at_slot = self.times[:, :, self.slot]
        self.dist = np.asarray(cfg.base.distance_table, dtype=float)

    @cached_property
    def skew(self) -> SkewSummary:
        """Intra-layer and consecutive-layer skews over correct adjacent pairs.

        The cross-layer term matches pulse k+1 on the lower layer against pulse k
        on the upper layer, the pairing under which an ideally timed cascade has
        zero offset. Self-copy edges are included in the cross-layer max.
        """
        t, slot, correct = self.times, self.slot, self.correct
        # [layer, pulse, vertex, slot]: the offset of each correct node to its
        # correct neighbors on the same layer, and to its correct successors
        # one layer up and one pulse earlier
        pairs = self.neighbor & correct[..., None] & correct[:, slot]
        same = np.where(pairs[:, None], np.abs(t[..., None] - self.at_slot), np.nan)
        per_layer_by_pulse = _nanmax(same, axis=(2, 3))
        feeds = correct[:-1, :, None] & correct[1:, slot]
        across = np.where(feeds[:, None], np.abs(t[:-1, 1:, :, None] - self.at_slot[1:, :-1]),
                          np.nan)
        per_layer = _floats(_nanmax(per_layer_by_pulse, axis=1))
        per_pair = _floats(_nanmax(across, axis=(1, 2, 3)))
        candidates = [x for x in per_layer + per_pair if x is not None]
        return SkewSummary(per_layer=per_layer, per_layer_pair=per_pair,
                           per_layer_by_pulse=per_layer_by_pulse,
                           overall=max(candidates) if candidates else None)

    @cached_property
    def extrema(self) -> tuple[np.ndarray, np.ndarray]:
        """Min and max of each vertex's neighbors' pulse times, per [layer,
        pulse, vertex]; NaN where no neighbor pulsed."""
        t = np.where(self.neighbor, self.at_slot, np.nan)
        return np.fmin.reduce(t, axis=-1), np.fmax.reduce(t, axis=-1)


def _nanmax(x: np.ndarray, axis) -> np.ndarray:
    """Max over ``axis`` ignoring NaN; NaN where every entry is NaN or there
    is none."""
    return np.fmax.reduce(x, axis=axis, initial=np.nan)


def _floats(x: np.ndarray) -> list:
    return [None if math.isnan(v) else v for v in x.tolist()]


def local_skew(view: TraceView) -> SkewSummary:
    """The view's skew summary, ``TraceView.skew``: computed on the first call."""
    return view.skew


@dataclass
class PotentialTable:
    """Distance-discounted pair potentials per discretization level.

    psi discounts ordered pair offsets by 4*s*kappa per hop, xi by
    (4*s-2)*kappa per hop; the tables hold the per-layer-per-pulse maxima.
    """

    s_values: list
    psi: np.ndarray = field(repr=False)  # [s, layer, pulse]
    xi: np.ndarray = field(repr=False)


def potentials(view: TraceView, kappa: float, s_max: int) -> PotentialTable:
    """Exact pair maxima over correct nodes, diagonal included (so psi >= 0).

    The pairs are grouped by hop distance d once per call. Each layer's
    offsets t_v - t_w are reduced to one maximum per distance class, and
    level s takes the maximum over the classes of that top offset less
    c = 4*s*kappa*d (psi) or (4*s-2)*kappa*d (xi). Rounding x - c is
    monotone in x, so this equals the maximum over the pairs of the rounded
    x - c, bit for bit; NaN offsets are skipped at both steps.
    """
    if s_max < 0:
        raise ConfigurationError("s_max must be >= 0")
    L, K, n = view.times.shape
    order = np.argsort(view.dist, axis=None, kind="stable")
    dist = view.dist.reshape(-1)[order]
    starts = np.flatnonzero(np.r_[True, dist[1:] != dist[:-1]])
    s = np.arange(s_max + 1)[:, None, None]
    hops = dist[starts]  # [class]
    psi_terms, xi_terms = 4.0 * s * kappa * hops, (4.0 * s - 2.0) * kappa * hops
    psi = np.empty((s_max + 1, L, K))
    xi = np.empty((s_max + 1, L, K))
    for layer in range(L):
        t = np.where(view.correct[layer], view.times[layer], np.nan)  # [pulse, vertex]
        diff = (t[:, :, None] - t[:, None, :]).reshape(K, n * n)  # diff[k, v*n + w] = t_v - t_w
        # np.take, not diff[:, order]: reduceat is several times faster on
        # the C-ordered copy that take returns
        top = np.fmax.reduceat(np.take(diff, order, axis=1), starts, axis=1)  # [pulse, class]
        psi[:, layer] = _nanmax(top - psi_terms, axis=-1)
        xi[:, layer] = _nanmax(top - xi_terms, axis=-1)
    return PotentialTable(s_values=list(range(s_max + 1)), psi=psi, xi=xi)


def skew_vs_potential_violations(view: TraceView, table: PotentialTable,
                                 kappa: float) -> list:
    """Pointwise check of L_layer <= Psi^s(layer) + 4*s*kappa for every s.

    Witnesses are ordered by s, then layer, then pulse."""
    skews = view.skew.per_layer_by_pulse
    bound = table.psi + 4.0 * np.array(table.s_values)[:, None, None] * kappa  # [s, layer, pulse]
    with np.errstate(invalid="ignore"):
        bad = skews > bound
    s, layer, k = np.nonzero(bad)
    return [{"s": s, "layer": layer, "pulse": k + 1, "skew": skew, "bound": b}
            for s, layer, k, skew, b in zip(s.tolist(), layer.tolist(), k.tolist(),
                                            skews[layer, k].tolist(), bound[bad].tolist())]


def psi_bound_violations(table: PotentialTable, kappa: float) -> list:
    """Layer-window recursion: Psi^s(top) bounded via Xi^s(bottom).

    Checks Psi^s(l2) <= max(0, Xi^s(l1) - (l2-l1+1)*kappa) + (l2-l1)*kappa/2
    for sampled layer pairs l1 <= l2, per pulse, for s >= 1. Witnesses are
    ordered by s, then layer pair, then pulse.
    """
    L = table.psi.shape[1]
    l1, l2 = np.array(sorted({(l1, min(l1 + g, L - 1)) for g in (1, 2, 5, 10, L - 1)
                              for l1 in range(0, L, max(1, L // 6))})).T
    psi = table.psi[1:, l2]  # [s - 1, layer pair, pulse]
    bound = (np.maximum(0.0, table.xi[1:, l1] - ((l2 - l1 + 1) * kappa)[:, None])
             + ((l2 - l1) * kappa / 2.0)[:, None])
    bad = psi > bound  # False where either is NaN
    s, pair, k = np.nonzero(bad)
    return [{"s": s + 1, "bottom": bottom, "top": top, "pulse": k + 1, "psi": p, "bound": b}
            for s, bottom, top, k, p, b in zip(s.tolist(), l1[pair].tolist(), l2[pair].tolist(),
                                               k.tolist(), psi[bad].tolist(), bound[bad].tolist())]


def check_conditions(result: RunResult, view: TraceView, s_max: int,
                     failures_only: bool = True) -> list:
    """Evaluate the slow/fast/jump conditions at every applicable node/pulse.

    Uses true pulse times and the recorded correction. The slow condition is
    checked from layer 1 up, the fast and jump conditions from layer 2 up,
    and only where the whole input layer is correct, matching the
    definitions' applicability.
    """
    params = result.config.params
    kappa, theta = params.kappa, params.theta
    L = len(view.times)
    # [layer - 1, pulse, vertex]: the input layer's times against the
    # correction of the receiver on the layer above
    nmin, nmax = (x[:-1] for x in view.extrema)
    ts = view.times[:-1]
    c = view.correction[1:]
    c_rel = c / theta
    valid = (view.layer_correct[:-1, None, None] & view.correct[1:, None, :]
             & ~np.isnan(c) & ~np.isnan(ts) & ~np.isnan(nmin) & ~np.isnan(nmax))
    above_one = valid & (np.arange(1, L) >= 2)[:, None, None]  # where FC and JC apply
    names: list = []
    found: list = []  # per condition: its reported (layer - 1, pulse, vertex, passed, slack)

    def emit(name: str, applies: np.ndarray, passed: np.ndarray, slack: np.ndarray) -> None:
        report = applies & ~passed if failures_only else applies
        layer, k, v = np.nonzero(report)
        found.append((layer, np.full(layer.size, len(names)), k, v, passed[report], slack[report]))
        names.append(name)

    with np.errstate(invalid="ignore"):
        for s in range(s_max + 1):
            lo = ts - nmax + 4 * s * kappa
            hi = ts - nmin - 4 * s * kappa
            emit(f"SC({s})", valid, (c_rel <= lo) | (c_rel <= hi) | (c <= 0.0),
                 np.maximum(lo - c_rel, np.maximum(hi - c_rel, -c)))
        for s in range(1, s_max + 1):
            lo = ts - nmax + (4 * s - 2) * kappa + kappa
            hi = ts - nmin - (4 * s - 2) * kappa + kappa
            emit(f"FC({s})", above_one, (c >= lo) | (c >= hi) | (c >= kappa),
                 np.maximum(c - lo, np.maximum(c - hi, c - kappa)))
        jc = (((kappa < c_rel) & (c_rel <= ts - nmax - kappa))
              | ((0.0 > c) & (c >= ts - nmin + kappa))
              | ((0.0 <= c) & (c <= theta * kappa)))
        emit("JC", above_one, jc, np.zeros(c.shape))
    layer, cond, k, v, passed, slack = (np.concatenate(x) for x in zip(*found))
    # each condition's entries are in (layer, pulse, vertex) order: a stable
    # sort by layer puts them in (layer, condition, pulse, vertex) order
    order = np.argsort(layer, kind="stable")
    return [
        {"vertex": v, "layer": layer + 1, "pulse": k + 1, "condition": names[cond],
         "passed": passed, "disjunct": None, "slack": slack}
        for layer, cond, k, v, passed, slack
        in zip(*(x[order].tolist() for x in (layer, cond, k, v, passed, slack)))
    ]


def check_fault_envelope(result: RunResult, view: TraceView) -> list:
    """Pulses of correct fault-successors must sit in the window spanned by
    their correct predecessors' pulses, shifted by the period, widened 2*kappa.

    Witnesses are ordered by faulty node, then its successors (its own
    vertex first, then its neighbors), then pulse. A node whose correct
    predecessors did not all pulse is not checked at that pulse.
    """
    cfg = result.config
    params = cfg.params
    eps = _guard(params)
    # [layer - 1, pulse, vertex, slot]: each node's correct predecessors one
    # layer down (the padding repeats a slot, so it moves no extreme)
    pred = view.correct[:-1, None, view.slot]
    t_in = view.at_slot[:-1]
    lo = np.where(pred, t_in, np.inf).min(axis=-1) + params.lam - 2 * params.kappa
    hi = np.where(pred, t_in, -np.inf).max(axis=-1) + params.lam + 2 * params.kappa
    t = view.times[1:]
    with np.errstate(invalid="ignore"):
        inside = (lo - eps <= t) & (t <= hi + eps)
    bad = (view.correct[1:, None] & pred.any(axis=-1) & ~(pred & np.isnan(t_in)).any(axis=-1)
           & ~np.isnan(t) & ~inside)
    out = []
    for fv, flayer in sorted(cfg.placement.members):
        if flayer + 1 == len(view.times):
            continue
        succ = (fv, *cfg.base.adjacency[fv])
        j, k = np.nonzero(bad[flayer][:, succ].T)
        v = np.array(succ)[j]
        out += [{"vertex": vertex, "layer": flayer + 1, "pulse": pulse + 1, "time": time,
                 "window": [low, high], "faulty_predecessor": [fv, flayer]}
                for vertex, pulse, time, low, high
                in zip(v.tolist(), k.tolist(), *(x[flayer, k, v].tolist() for x in (t, lo, hi)))]
    return out


def _layer_vertex_pulse(bad: np.ndarray):
    """Indices (layer, vertex, pulse) of a [layer, pulse, vertex] mask, in that order."""
    layer, v, k = np.nonzero(bad.transpose(0, 2, 1))
    return zip(layer.tolist(), v.tolist(), k.tolist())


def check_drift(result: RunResult, view: TraceView) -> list:
    """Per-pulse drift window between a node and its self-copy predecessor."""
    params = result.config.params
    eps = _guard(params)
    c = view.correction[1:]
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
    nmin, nmax = view.extrema
    # [layer - 1, pulse, vertex, extreme]: the last-neighbor ('max') pair
    # first, as reported
    measured = view.h_own[1:, ..., None] - np.stack((view.h_max[1:], view.h_min[1:]), axis=-1)
    centered = measured - kappa / 2
    true = view.times[:-1, ..., None] - np.stack((nmax[:-1], nmin[:-1]), axis=-1)
    with np.errstate(invalid="ignore"):
        bad = ~((true - kappa - eps <= centered) & (centered <= true + eps))
    bad &= (~np.isnan(centered) & ~np.isnan(true) & view.correct[1:, None, :, None]
            & view.layer_correct[:-1, None, None, None])
    return [
        {"vertex": v, "layer": layer + 1, "pulse": k + 1, "extreme": ("max", "min")[e],
         "measured_minus_half": c, "true": t}
        for layer, k, v, e, c, t in zip(*(i.tolist() for i in np.nonzero(bad)),
                                        centered[bad].tolist(), true[bad].tolist())
    ]


def period_consistency(result: RunResult, view: TraceView) -> list:
    """In a static run every correct node repeats with exactly the period."""
    params = result.config.params
    dev = np.abs(view.times[:, 1:] - view.times[:, :-1] - params.lam)
    with np.errstate(invalid="ignore"):
        bad = view.correct[:, None, :] & (dev > _guard(params))
    return [
        {"vertex": v, "layer": layer, "pulse": k + 1, "deviation": float(dev[layer, k, v])}
        for layer, v, k in _layer_vertex_pulse(bad)
    ]


def stabilization_pulse(result: RunResult, reference: RunResult) -> float:
    """Smallest pulse index from which every correct node tracks the clean
    run's periodic orbit (per-node integer index shifts allowed).

    Both runs must share delays and clocks. Returns 1 for a clean start and
    the UNSTABILIZED sentinel (inf) when some node never locks on.
    """
    lam = result.config.params.lam
    counts = result.counts
    # nodes that pulsed in the reference run and are correct in this one
    nodes = (reference.counts > 0) & ~result.config.faulty
    last = np.maximum(reference.counts - 1, 0)[:, None, :]
    anchor = np.take_along_axis(reference.times, last, axis=1)
    # |IEEE remainder| of the offset by lam: fmod is exact, and so is
    # lam - r for r >= lam/2 (Sterbenz)
    r = np.abs(np.fmod(result.times - anchor, lam))
    aligned = np.minimum(r, lam - r) <= _guard(result.config.params)
    k = np.arange(result.times.shape[1])[None, :, None]
    emitted = k < counts[:, None, :]
    last_aligned = np.take_along_axis(aligned, np.maximum(counts - 1, 0)[:, None, :], axis=1)
    if not last_aligned[:, 0][nodes].all():
        return UNSTABILIZED
    last_bad = np.where(emitted & ~aligned, k, -1).max(axis=1)
    return max(1.0, float(last_bad[nodes].max(initial=-1) + 2))
