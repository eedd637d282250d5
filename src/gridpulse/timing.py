"""Timing model: protocol constants, static per-edge delays, static-rate clocks.

All quantities are real-valued; times are IEEE doubles. Delays are fixed for
a whole run and drawn from [d-u, d]; hardware clocks are affine with rate in
[1, theta] and an arbitrary phase, sampled as [layer, vertex] rate and
offset arrays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .topology import LayeredGraph

__all__ = [
    "DelayAssignment",
    "Params",
    "derive_kappa",
    "local_skew_budget",
    "sample_clocks",
    "sample_delays",
    "validate_params",
    "DELAY_STRATEGIES",
]

DELAY_STRATEGIES = ("uniform-random", "all-min", "all-max", "per-layer-alternating", "custom-map")


def derive_kappa(d: float, u: float, theta: float, lam: float) -> float:
    """Observed-skew granularity: 2*(u + (1 - 1/theta)*(lam - d))."""
    if u < 0 or d <= 0 or theta < 1 or lam < d:
        raise ConfigurationError(
            f"bad timing constants: d={d}, u={u}, theta={theta}, lam={lam}"
        )
    kappa = 2.0 * (u + (1.0 - 1.0 / theta) * (lam - d))
    if kappa <= 0.0:
        raise ConfigurationError(
            "kappa would be non-positive (u=0 with theta=1 and lam=d); "
            "the protocol divides observed skews by kappa"
        )
    return kappa


@dataclass(frozen=True)
class Params:
    """Protocol timing constants and the derived granularity kappa.

    Build via :meth:`derive` so that kappa always matches its defining
    formula; the constructor re-checks every invariant.
    """

    d: float
    u: float
    theta: float
    lam: float
    kappa: float
    validation_constant: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.u <= self.d:
            raise ConfigurationError(f"need 0 < u <= d, got u={self.u}, d={self.d}")
        if not self.theta > 1.0:
            raise ConfigurationError(f"need theta > 1, got {self.theta}")
        if not self.lam > self.d:
            raise ConfigurationError(f"need lam > d, got lam={self.lam}, d={self.d}")
        if self.validation_constant < 0.0:
            raise ConfigurationError("validation constant must be >= 0")
        expected = derive_kappa(self.d, self.u, self.theta, self.lam)
        if self.kappa != expected:
            raise ConfigurationError(
                f"kappa={self.kappa!r} does not match its formula value {expected!r}"
            )

    @classmethod
    def derive(cls, d: float, u: float, theta: float, lam: float,
               validation_constant: float = 2.0) -> "Params":
        return cls(d=d, u=u, theta=theta, lam=lam,
                   kappa=derive_kappa(d, u, theta, lam),
                   validation_constant=validation_constant)


def local_skew_budget(params: Params, diameter: int) -> float:
    """Fault-free worst-case local skew, 4*kappa*(2 + log2(D))."""
    if diameter < 1:
        raise ConfigurationError(f"diameter must be >= 1, got {diameter}")
    return 4.0 * params.kappa * (2.0 + math.log2(diameter))


def validate_params(params: Params, diameter: int, skew_budget: float | None = None) -> list[str]:
    """Check the two operating-regime constraints; returns violation messages.

    The period must leave room for one full exchange (lam - d large against
    the worst local skew) and the end-to-end delay must dominate skews plus
    granularity. ``skew_budget`` defaults to the fault-free bound.
    """
    budget = local_skew_budget(params, diameter) if skew_budget is None else skew_budget
    c = params.validation_constant
    violations: list[str] = []
    period_need = c * params.theta * (budget + params.u) + params.d
    if not params.lam >= period_need:
        violations.append(
            f"period margin: lam={params.lam!r} < C*theta*(skew_budget+u)+d = {period_need!r}"
        )
    delay_need = c * (params.theta * (budget + params.u) + params.kappa)
    if not params.d >= delay_need:
        violations.append(
            f"delay margin: d={params.d!r} < C*(theta*(skew_budget+u)+kappa) = {delay_need!r}"
        )
    return violations


def sample_clocks(graph: LayeredGraph, params: Params, strategy: str,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One affine clock H(t) = offset + rate*t per node, deterministic in the seed.

    Returns ``rate`` and ``offset`` as [layer, vertex] arrays. Strategies:
    'uniform' draws a rate in [1, theta] and then an offset in [0, lam) per
    node, in (layer, vertex) order; 'all-one' is the identity clock;
    'all-max' runs every clock at theta with zero offset.
    """
    shape = (graph.num_layers, graph.base.num_vertices)
    if strategy == "uniform":
        rng = random.Random(seed)
        draws = [(rng.uniform(1.0, params.theta), rng.uniform(0.0, params.lam))
                 for _ in range(shape[0] * shape[1])]
        rate, offset = np.array(draws).reshape(*shape, 2).transpose(2, 0, 1)
        return rate, offset
    if strategy == "all-one":
        return np.ones(shape), np.zeros(shape)
    if strategy == "all-max":
        return np.full(shape, params.theta), np.zeros(shape)
    raise ConfigurationError(f"unknown clock strategy {strategy!r}")


def _chain_edges(graph: LayeredGraph) -> list[tuple]:
    info = graph.base.line_info
    if info is None:
        return []
    edges: list[tuple] = []
    first = info.line[0]
    for target in sorted((first, *info.start_replicas)):
        edges.append(("chain", 0, target))
    for pos, sender in enumerate(info.line[:-1], start=1):
        edges.append(("chain", pos, info.line[pos]))
    if len(info.line) >= 2:
        feeder_pos = len(info.line) - 1
        for target in sorted(info.end_replicas):
            edges.append(("chain", feeder_pos, target))
    return edges


def dag_edges(graph: LayeredGraph) -> list[tuple]:
    """Directed layered edges in deterministic order."""
    edges: list[tuple] = []
    for layer in range(graph.num_layers - 1):
        for v in graph.base.vertices:
            for w in sorted((v, *graph.base.adjacency[v])):
                edges.append(("dag", v, layer, w))
    return edges


@dataclass(frozen=True)
class DelayAssignment:
    """Static delay per directed edge (layered edges plus layer-0 chain hops)."""

    d: float
    u: float
    delays: dict = field(repr=False)

    def __post_init__(self) -> None:
        lo, hi = self.d - self.u, self.d
        for key, value in self.delays.items():
            if not lo <= value <= hi:
                raise ConfigurationError(
                    f"delay {value!r} for edge {key} outside [{lo!r}, {hi!r}]"
                )

    def __getitem__(self, key) -> float:
        return self.delays[key]


def sample_delays(
    graph: LayeredGraph,
    params: Params,
    strategy: str,
    seed: int = 0,
    custom: dict | None = None,
) -> DelayAssignment:
    """Draw one fixed delay per edge; deterministic for a given seed."""
    keys = dag_edges(graph) + _chain_edges(graph)
    lo, hi = params.d - params.u, params.d
    delays: dict = {}
    if strategy == "uniform-random":
        rng = random.Random(seed)
        for key in keys:
            delays[key] = rng.uniform(lo, hi)
    elif strategy == "all-min":
        delays = {key: lo for key in keys}
    elif strategy == "all-max":
        delays = {key: hi for key in keys}
    elif strategy == "per-layer-alternating":
        for key in keys:
            layer = key[2] if key[0] == "dag" else key[1]
            delays[key] = lo if layer % 2 == 0 else hi
    elif strategy == "custom-map":
        if custom is None:
            raise ConfigurationError("custom-map strategy needs an explicit delay map")
        missing = [key for key in keys if key not in custom]
        if missing:
            raise ConfigurationError(f"custom delay map misses {len(missing)} edges, e.g. {missing[0]}")
        delays = {key: float(custom[key]) for key in keys}
    else:
        raise ConfigurationError(f"unknown delay strategy {strategy!r}")
    return DelayAssignment(d=params.d, u=params.u, delays=delays)
