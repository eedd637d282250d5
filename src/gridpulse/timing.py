"""Timing model: protocol constants, static per-edge delays, static-rate clocks.

All quantities are real-valued; times are IEEE doubles. Delays are fixed for
a whole run and drawn from [d-u, d], sampled as a [layer, vertex, slot]
array plus a vector of chain hops; hardware clocks are affine with rate in
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
    "Params",
    "chain_edges",
    "delay_keys",
    "derive_kappa",
    "local_skew_budget",
    "sample_clocks",
    "sample_delays",
    "validate_params",
    "CLOCK_STRATEGIES",
    "DELAY_STRATEGIES",
]

DELAY_STRATEGIES = ("uniform-random", "all-min", "all-max", "per-layer-alternating", "custom-map")
CLOCK_STRATEGIES = ("uniform", "all-one", "all-max")


def derive_kappa(d: float, u: float, theta: float, lam: float) -> float:
    """Observed-skew granularity: 2*(u + (1 - 1/theta)*(lam - d))."""
    return 2.0 * (u + (1.0 - 1.0 / theta) * (lam - d))


@dataclass(frozen=True)
class Params:
    """Protocol timing constants and the derived granularity kappa.

    The constructor checks the timing rules 0 < u <= d, theta > 1, lam > d
    and C >= 0 and then sets kappa from ``derive_kappa``; under those rules
    kappa >= 2*u > 0.
    """

    d: float
    u: float
    theta: float
    lam: float
    kappa: float = field(init=False)
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
        object.__setattr__(self, "kappa", derive_kappa(self.d, self.u, self.theta, self.lam))

    @classmethod
    def derive(cls, d: float, u: float, theta: float, lam: float,
               validation_constant: float = 2.0) -> "Params":
        """The constructor under its older name."""
        return cls(d=d, u=u, theta=theta, lam=lam, validation_constant=validation_constant)


def local_skew_budget(params: Params, diameter: int) -> float:
    """Fault-free worst-case local skew, 4*kappa*(2 + log2(D))."""
    if diameter < 1:
        raise ConfigurationError(f"diameter must be >= 1, got {diameter}")
    return 4.0 * params.kappa * (2.0 + math.log2(diameter))


def validate_params(params: Params, diameter: int) -> list[str]:
    """Check the two operating-regime constraints; returns violation messages.

    The period must leave room for one full exchange (lam - d large against
    the worst local skew) and the end-to-end delay must dominate skews plus
    granularity, with the skew at its fault-free bound.
    """
    budget = local_skew_budget(params, diameter)
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


def _draws(seed: int, count: int) -> np.ndarray:
    """The first ``count`` values of ``Random(seed).random()``."""
    draw = random.Random(seed).random
    return np.array([draw() for _ in range(count)])


def _uniform(a: float, b: float, draws: np.ndarray) -> np.ndarray:
    """``random.uniform(a, b)`` over an array of ``random()`` draws: CPython
    computes ``a + (b - a) * random()``, so the values are bit-identical."""
    return a + (b - a) * draws


def sample_clocks(graph: LayeredGraph, params: Params, strategy: str,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One affine clock H(t) = offset + rate*t per node, deterministic in the seed.

    Returns ``rate`` and ``offset`` as [layer, vertex] arrays. Strategies:
    'uniform' draws a rate in [1, theta] and then an offset in [0, lam) per
    node, in (layer, vertex) order, as ``Random(seed).uniform`` would: one
    ``random()`` per value, scaled by ``_uniform``; 'all-one' is the identity
    clock; 'all-max' runs every clock at theta with zero offset.
    """
    shape = (graph.num_layers, graph.base.num_vertices)
    if strategy == "uniform":
        draws = _draws(seed, 2 * shape[0] * shape[1]).reshape(*shape, 2)
        return (_uniform(1.0, params.theta, draws[..., 0]),
                _uniform(0.0, params.lam, draws[..., 1]))
    if strategy == "all-one":
        return np.ones(shape), np.zeros(shape)
    if strategy == "all-max":
        return np.full(shape, params.theta), np.zeros(shape)
    raise ConfigurationError(f"unknown clock strategy {strategy!r}")


def chain_edges(graph: LayeredGraph) -> list[tuple]:
    """The chain source's layer-0 hops ("chain", hop, w); hop h >= 1 is sent
    by the line's h-th vertex."""
    info = graph.base.line_info
    if info is None:
        return []
    line = info.line
    return ([("chain", 0, w) for w in sorted((line[0], *info.start_replicas))]
            + [("chain", hop, w) for hop, w in enumerate(line[1:], start=1)]
            + [("chain", len(line) - 1, w) for w in sorted(info.end_replicas)])


def delay_keys(graph: LayeredGraph) -> list[tuple]:
    """Every edge's ``delays.map`` key in draw order: the layered edges
    ("dag", v, layer, w) in the C order of the [layer, vertex, slot] table,
    then the chain hops."""
    slots = graph.base.slots
    return [("dag", v, layer, w) for layer in range(graph.num_layers - 1)
            for v in graph.base.vertices for w in slots[v]] + chain_edges(graph)


def sample_delays(
    graph: LayeredGraph,
    params: Params,
    strategy: str,
    seed: int = 0,
    custom: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one fixed delay per edge, in ``delay_keys`` order; deterministic
    for a given seed. 'uniform-random' takes the values that
    ``Random(seed).uniform(d - u, d)`` would return, one ``random()`` each;
    'custom-map' reads each edge's delay from ``custom``, which ``RunConfig``
    checks is complete and in range.

    Returns ``dag``, a [layer, vertex, slot] array whose entry [l, v, j] is
    the delay from (v, l) to (slots[v][j], l+1) (NaN past slot deg(v)), and
    ``chain``, the chain hops' delays in ``chain_edges`` order.
    """
    lo, hi = params.d - params.u, params.d
    real = graph.base.padded_slots[1]  # [vertex, slot]
    real = np.broadcast_to(real, (graph.num_layers - 1, *real.shape))
    count = int(real.sum())
    size = count + len(chain_edges(graph))
    if strategy == "uniform-random":
        values = _uniform(lo, hi, _draws(seed, size))
    elif strategy == "all-min":
        values = np.full(size, lo)
    elif strategy == "all-max":
        values = np.full(size, hi)
    elif strategy == "per-layer-alternating":
        values = np.array([lo if (key[2] if key[0] == "dag" else key[1]) % 2 == 0 else hi
                           for key in delay_keys(graph)])
    elif strategy == "custom-map":
        values = np.array([custom[key] for key in delay_keys(graph)], dtype=float)
    else:
        raise ConfigurationError(f"unknown delay strategy {strategy!r}")
    dag = np.full(real.shape, np.nan)
    dag[real] = values[:count]
    return dag, values[count:]
