"""Byzantine fault behaviors, placements, and between-pulse perturbations.

Faulty nodes act only through the messages they emit: behaviors are
time-scripted emission plans, optionally anchored to the pulse times the node
would have produced if correct (supplied by a fault-free twin execution).
The placement constraint mirrors the model: no node may have two faulty
predecessors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .timing import Params, _draws, _uniform
from .topology import LayeredGraph

__all__ = [
    "FaultBehavior",
    "FaultPlacement",
    "fault_mask",
    "faulty_emissions",
    "perturbation_caps",
    "perturb_between_pulses",
    "sample_placement",
    "validate_placement",
]

BEHAVIOR_KINDS = ("silent", "fixed_offset", "scripted", "burst", "per_pulse_offset")


@dataclass(frozen=True)
class FaultBehavior:
    """One node's emission plan.

    * silent: never emits.
    * fixed_offset: one emission at nominal + offset per pulse.
    * scripted: the k-th scripted time per pulse; falls silent when the list
      is exhausted.
    * burst: ``count`` emissions starting at nominal, spaced ``spacing``.
    * per_pulse_offset: nominal + offsets[k]; the last entry persists beyond
      the list's end.

    ``recipients`` narrows delivery to specific next-layer vertices
    (point-to-point misbehavior); None broadcasts to all successors.
    """

    kind: str
    offset: float = 0.0
    times: tuple[float, ...] = ()
    offsets: tuple[float, ...] = ()
    count: int = 0
    spacing: float = 0.0
    recipients: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in BEHAVIOR_KINDS:
            raise ConfigurationError(f"unknown fault behavior {self.kind!r}")
        if self.kind == "scripted" and any(
            b < a for a, b in zip(self.times, self.times[1:])
        ):
            raise ConfigurationError("scripted emission times must be nondecreasing")
        if self.kind == "burst":
            if self.count < 1:
                raise ConfigurationError("burst needs count >= 1")
            if not self.spacing > 0.0:
                raise ConfigurationError("burst spacing must be > 0")
        if self.kind == "per_pulse_offset" and not self.offsets:
            raise ConfigurationError("per_pulse_offset needs at least one offset")

    @property
    def needs_nominal(self) -> bool:
        return self.kind in ("fixed_offset", "burst", "per_pulse_offset")

    @property
    def periodic(self) -> bool:
        """Whether the emissions repeat with the period whenever the nominal
        pulses do; scripted and per_pulse_offset emissions need not."""
        return self.kind in ("silent", "fixed_offset", "burst")


def faulty_emissions(
    behavior: FaultBehavior,
    nominal_times: list[float] | None,
    pulse_index: int,
) -> list[tuple[float, tuple[int, ...] | None]]:
    """Emission times (and recipient restriction) for one pulse index."""
    if pulse_index < 1:
        raise ConfigurationError("pulse index is 1-based")
    k = pulse_index
    if behavior.kind == "silent":
        return []
    if behavior.kind == "scripted":
        if k - 1 < len(behavior.times):
            return [(behavior.times[k - 1], behavior.recipients)]
        return []  # script exhausted: the node falls silent
    if nominal_times is None or k - 1 >= len(nominal_times):
        return []  # no counterfactual anchor available for this pulse
    nominal = nominal_times[k - 1]
    if behavior.kind == "fixed_offset":
        return [(nominal + behavior.offset, behavior.recipients)]
    if behavior.kind == "per_pulse_offset":
        idx = min(k - 1, len(behavior.offsets) - 1)
        return [(nominal + behavior.offsets[idx], behavior.recipients)]
    return [(nominal + i * behavior.spacing, behavior.recipients)  # burst
            for i in range(behavior.count)]


@dataclass(frozen=True)
class FaultPlacement:
    """Fault set with one behavior per member; strict mode enforces the model constraint."""

    behaviors: dict
    strict: bool = True

    def __post_init__(self) -> None:
        for node, behavior in self.behaviors.items():
            if not (isinstance(node, tuple) and len(node) == 2):
                raise ConfigurationError(f"fault key must be (vertex, layer), got {node!r}")
            if not isinstance(behavior, FaultBehavior):
                raise ConfigurationError(f"behavior for {node} is not a FaultBehavior")

    @property
    def members(self) -> frozenset:
        return frozenset(self.behaviors)

    def __len__(self) -> int:
        return len(self.behaviors)

    @classmethod
    def empty(cls) -> "FaultPlacement":
        return cls(behaviors={})


def fault_mask(members, layers: int, vertices: int) -> np.ndarray:
    """The [layer, vertex] mask of the faulty nodes ``members``, given as
    (vertex, layer) pairs; a node outside the grid is an error that names it."""
    mask = np.zeros((layers, vertices), dtype=bool)
    for v, layer in sorted(members):
        if not (0 <= v < vertices and 0 <= layer < layers):
            raise ConfigurationError(f"faulty node (v={v}, layer={layer}) is outside the grid "
                                     f"of {vertices} vertices and {layers} layers")
        mask[layer, v] = True
    return mask


def validate_placement(graph: LayeredGraph, fault_set) -> list[tuple[int, int]]:
    """Successor nodes with two or more faulty predecessors, as sorted
    (vertex, layer) pairs (empty = constraint holds)."""
    members = fault_set.members if isinstance(fault_set, FaultPlacement) else fault_set
    faulty = fault_mask(members, graph.num_layers, graph.base.num_vertices)
    # (slot[v, j], l) feeds (v, l+1): count each node's faulty inputs
    slot, real = graph.base.padded_slots
    layer, v = np.nonzero((faulty[:-1, slot] & real).sum(axis=-1) >= 2)
    return sorted(zip(v.tolist(), (layer + 1).tolist()))


def sample_placement(graph: LayeredGraph, p: float, seed: int) -> FaultPlacement:
    """Bernoulli(p) per node excluding layer 0, one ``Random(seed).random()``
    draw per node in (layer, vertex) order; members default to silent behavior."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"fault probability must be in [0, 1], got {p}")
    n = graph.base.num_vertices
    hits = np.flatnonzero(_draws(seed, (graph.num_layers - 1) * n) < p).tolist()
    return FaultPlacement(behaviors={(i % n, i // n + 1): FaultBehavior(kind="silent")
                                     for i in hits}, strict=False)


def perturbation_caps(n: int, diameter: int, params: Params) -> tuple[float, float]:
    """Per-pulse caps on delay and clock-rate changes for the stress experiment."""
    if n < 1 or diameter < 2:
        raise ConfigurationError("need n >= 1 and diameter >= 2 for perturbation caps")
    scale = math.log2(diameter) / math.sqrt(n)
    return params.u * scale, (params.theta - 1.0) * scale


def perturb_between_pulses(
    delays: list,
    rates: list,
    delay_order: list,
    rate_order: list,
    magnitudes: tuple[float, float],
    pulse_index: int,
    seed: int,
    params: Params,
) -> None:
    """Redraw the delays and rates in place at one pulse boundary.

    ``delays[e]`` for each e in ``delay_order``, then ``rates[i]`` for each i
    in ``rate_order``, moves by a uniform draw in +-magnitude and is clamped
    back into [d-u, d] and [1, theta], as ``min(max(x, lo), hi)`` would. The
    draws come from one stream per (seed, pulse_index), in that order, one
    ``random()`` per value as ``Random.uniform`` takes them. Each order must
    hold an index at most once, as the engine's do: the values of one order
    move together, each from its value before the call.
    """
    draws = _draws(seed * 1_000_003 + pulse_index, len(delay_order) + len(rate_order))
    split = len(delay_order)
    _move(delays, delay_order, magnitudes[0], params.d - params.u, params.d, draws[:split])
    _move(rates, rate_order, magnitudes[1], 1.0, params.theta, draws[split:])


def _move(values: list, order: list, magnitude: float, lo: float, hi: float,
          draws: np.ndarray) -> None:
    """``values[i] = min(max(values[i] + uniform(-magnitude, magnitude), lo), hi)``
    for each i in ``order``, with the uniforms from ``draws``."""
    moved = np.array([values[i] for i in order]) + _uniform(-magnitude, magnitude, draws)
    moved = np.where(lo > moved, lo, moved)
    moved = np.where(hi < moved, hi, moved)
    for i, x in zip(order, moved.tolist()):
        values[i] = x
