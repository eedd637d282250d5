"""Deterministic discrete-event execution of the whole network.

One run is one event queue over real time: message deliveries and per-node
timers, popped in (time, receiver node id, sender vertex, kind, sequence)
order. Hardware-clock deadlines are converted to real time when armed
(clocks are affine), and the requested local time is carried on the timer
so targets are hit bit-exactly. Identical configurations, seeds
included, yield bit-identical traces. ``run_events`` runs the full machine
on this queue and is the reference semantics. Graph, delays and clocks are
sampled once per call and shared by the closed form, the event queue and a
fault-free twin.

``run`` computes clean static ideal-source runs in closed form instead, for
both machines, one layer at a time. One step, ``_layer_step``, maps a
layer's arrival times to its pulse times, snapshots and event counts, and to
an ``out_of_regime[pulse, vertex]`` mask of the node-pulses that the closed
form does not reproduce: a wave outside one listening phase (two arrivals
lam/10 or more apart, or the first less than lam/10 after the previous
wave's last) or an arrival at or before the node's previous pulse; on the
full machine also an exact tie between arrivals, a threshold timer due
exactly at a checked arrival, a commit at an arrival while a timer is armed,
a timeout (a commit before the node's own copy arrives), or an arrival at or
after the pulse. At the first layer with a marked node, the full machine
falls back to the event queue and the simplified machine is a configuration
error.

Inside the event queue (``_Engine``), node (v, layer) is the integer id
``layer * n + v``, which indexes flat lists of clocks, state machines, timer
versions and pulse counts. A message carries its receiver's slot for the
sender (``BaseGraph.slots``) and the pulse index. The main loop calls
``gcs_step`` and ``layer0_step`` with plain arguments and applies the one
value they return: a cancelled threshold timer, an armed threshold or pulse
timer, or, after a pulse timer, the pulse.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, ConfigurationError
from .faults import (
    FaultPlacement,
    fault_mask,
    faulty_emissions,
    perturb_between_pulses,
    perturbation_caps,
    validate_placement,
)
from .protocol import (
    QUIET_DIVISOR,
    ChainState,
    GcsState,
    IterationSnapshot,
    Phase,
    SourceMode,
    compute_correction_array,
    gcs_step,
    ideal_source_times,
    inner_loop_threshold_array,
    layer0_step,
)
from .timing import (CLOCK_STRATEGIES, DELAY_STRATEGIES, Params, chain_edges, delay_keys,
                     sample_clocks, sample_delays, validate_params)
from .topology import BaseGraph, LayeredGraph, build_layered

__all__ = [
    "CorruptionSpec",
    "Diagnostics",
    "PerturbationSpec",
    "RunConfig",
    "RunResult",
    "SNAPSHOT_FIELDS",
    "empty_arrays",
    "run",
    "run_events",
]

MACHINES = ("full", "simplified")
SOURCE_KINDS = ("ideal", "chain")

_KIND_MESSAGE = 0
_KIND_TIMER = 1
_KIND_FAULT_EMISSION = 2


@dataclass(frozen=True)
class CorruptionSpec:
    """How hard to scramble the initial state."""

    node_fraction: float = 0.0
    max_spurious_messages: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.node_fraction <= 1.0:
            raise ConfigurationError("corruption node_fraction must be in [0, 1]")
        if self.max_spurious_messages < 0:
            raise ConfigurationError("max_spurious_messages must be >= 0")


@dataclass(frozen=True)
class PerturbationSpec:
    """Between-pulse delay/rate wiggling for the stress experiment."""

    delay_magnitude: float = 0.0
    rate_magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delay_magnitude < 0.0 or self.rate_magnitude < 0.0:
            raise ConfigurationError("perturbation magnitudes must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    base: BaseGraph
    layers: int
    params: Params
    source: SourceMode
    pulses: int
    delay_strategy: str = "uniform-random"
    delay_seed: int = 0
    custom_delays: dict | None = None
    clock_strategy: str = "uniform"
    clock_seed: int = 0
    placement: FaultPlacement = field(default_factory=FaultPlacement.empty)
    machine: str = "full"
    corruption: CorruptionSpec | None = None
    corruption_seed: int = 0
    perturbation: PerturbationSpec | None = None
    enforce_alignment: bool | None = None  # None: auto-enable on clean ideal validated runs

    def __post_init__(self) -> None:
        """Check each choice, then each rule that joins fields or needs the
        graph; a message starts with its key path in the config document."""
        for path, value, choices in (("source.kind", self.source.kind, SOURCE_KINDS),
                                     ("machine", self.machine, MACHINES),
                                     ("delays.strategy", self.delay_strategy, DELAY_STRATEGIES),
                                     ("clocks.strategy", self.clock_strategy, CLOCK_STRATEGIES)):
            if value not in choices:
                raise ConfigurationError(f"{path}: {value!r} not one of {choices}")
        if self.pulses < 1:
            raise ConfigurationError("pulses: need at least one pulse")
        if self.layers < 1:
            raise ConfigurationError("layers: need at least one layer")
        n, placement, custom = self.base.num_vertices, self.placement, self.custom_delays
        for i, ((v, layer), behavior) in enumerate(placement.behaviors.items()):
            node = f"faulty node (v={v}, layer={layer})"
            if not (0 <= v < n and 0 <= layer < self.layers):
                raise ConfigurationError(f"faults.placement[{i}]: {node} is outside the grid of "
                                         f"{n} vertices and {self.layers} layers")
            if not set(behavior.recipients or ()) <= set(self.base.slots[v]):
                raise ConfigurationError(
                    f"faults.placement[{i}].behavior.recipients: {node} has recipients "
                    f"{list(behavior.recipients)} outside its successors {self.base.slots[v]}")
        strict = placement.strict and bool(placement)
        graph = build_layered(self.base, self.layers) if strict or custom is not None else None
        if strict and (bad := validate_placement(graph, placement)):
            raise ConfigurationError(f"faults: strict placement violated; nodes with two faulty "
                                     f"predecessors: {bad[:5]}{'...' if len(bad) > 5 else ''}")
        if (custom is None) == (self.delay_strategy == "custom-map"):
            raise ConfigurationError("delays.map: required by strategy custom-map" if custom is None
                                     else f"delays.map: read only under strategy custom-map, "
                                     f"not {self.delay_strategy!r}")
        if custom is not None:  # row i of the document is the map's i-th entry
            keys, lo, hi = delay_keys(graph), self.params.d - self.params.u, self.params.d
            known = set(keys)
            for i, (key, delay) in enumerate(custom.items()):
                if key not in known:
                    raise ConfigurationError(f"delays.map[{i}]: no edge {key} in the layered graph")
                if not lo <= delay <= hi:
                    raise ConfigurationError(f"delays.map[{i}]: delay {delay!r} for edge {key} "
                                             f"outside [{lo!r}, {hi!r}]")
            if len(custom) < len(keys):
                missing = [key for key in keys if key not in custom]
                raise ConfigurationError(f"delays.map: misses {len(missing)} edges, "
                                         f"e.g. {missing[0]}")
        if self.source.kind == "ideal" and self.source.jitter > self.params.kappa / 4:
            raise ConfigurationError(
                f"source.jitter: ideal-source jitter {self.source.jitter!r} exceeds kappa/4 = "
                f"{self.params.kappa / 4!r}"
            )
        if self.source.kind == "chain" and self.base.line_info is None:
            raise ConfigurationError(
                "source.kind: chain source needs the replicated-ends line topology")
        if self.machine == "simplified" and not _clean_ideal(self):
            raise ConfigurationError(
                "machine: machine 'simplified' needs an ideal source and no faults, corruption "
                "or perturbation")
        if self.perturbation is not None:
            try:
                caps = perturbation_caps(n * self.layers, self.base.diameter, self.params)
            except ConfigurationError as exc:
                raise ConfigurationError(f"perturbation: {exc}") from None
            for key, cap in zip(("delay_magnitude", "rate_magnitude"), caps):
                if (value := getattr(self.perturbation, key)) > cap:
                    raise ConfigurationError(f"perturbation.{key}: {value!r} exceeds cap {cap!r}")

    @property
    def faulty(self) -> np.ndarray:
        """The [layer, vertex] mask of the faulty nodes."""
        return fault_mask(self.placement.members, self.layers, self.base.num_vertices)


def _clean_ideal(config: RunConfig) -> bool:
    """Ideal source, no faults, no corrupted start, no perturbation."""
    return (config.source.kind == "ideal" and not config.placement
            and config.corruption is None and config.perturbation is None)


@dataclass
class Diagnostics:
    events: int = 0
    messages: int = 0
    stale_timers: int = 0
    rate_filtered: int = 0
    stragglers_dropped: int = 0
    reopens: int = 0
    timeouts_first_arm: int = 0
    early_second_arm_exits: int = 0
    alignment_enforced: bool = False


# Per-iteration values frozen when a node commits to a pulse time
# (IterationSnapshot), one [layer, pulse, vertex] array each in a RunResult.
SNAPSHOT_FIELDS = ("h_own", "h_min", "h_max", "correction", "exit_local")


def empty_arrays(layers: int, pulses: int, vertices: int) -> dict:
    """A run's [layer, pulse, vertex] arrays without a pulse, keyed by
    RunResult field name: NaN, and "" for ``arm``."""
    shape = (layers, pulses, vertices)
    out = {name: np.full(shape, np.nan) for name in ("times", "local_times", *SNAPSHOT_FIELDS)}
    out["arm"] = np.full(shape, "", dtype=object)
    return out


@dataclass(eq=False)
class RunResult:
    """A finished run as dense [layer, pulse, vertex] arrays, max(pulses,
    counts.max()) pulses long and NaN ("" for ``arm``) where nothing was recorded.

    Pulse k of node (v, layer) is at [layer, k - 1, v] for k <= counts[layer, v];
    the snapshot arrays hold the values behind that pulse where one was
    computed (layers >= 1, correct nodes).
    """

    config: RunConfig
    counts: np.ndarray  # [layer, vertex] pulses emitted
    times: np.ndarray  # real pulse times
    local_times: np.ndarray  # hardware-clock pulse times
    h_own: np.ndarray
    h_min: np.ndarray
    h_max: np.ndarray
    correction: np.ndarray
    exit_local: np.ndarray
    arm: np.ndarray  # 'corrected' | 'timeout' | 'corrupted'; "" without a snapshot
    diagnostics: Diagnostics

    @property
    def validation(self) -> list[str]:
        """The operating-regime violations of the config's params."""
        return validate_params(self.config.params, self.config.base.diameter)

    @property
    def incomplete_nodes(self) -> list:
        """The correct nodes, as sorted (vertex, layer) pairs, that emitted fewer
        than ``config.pulses`` pulses; on a chain source only layer 0 is held
        to that count."""
        config = self.config
        rows = config.layers if config.source.kind == "ideal" else 1
        short = (self.counts < config.pulses) & ~config.faulty
        return sorted((v, layer) for layer, v in np.argwhere(short[:rows]).tolist())

    @property
    def completed(self) -> bool:
        return not self.incomplete_nodes

    def pulse_times(self, vertex: int, layer: int) -> list[float]:
        return self.times[layer, : self.counts[layer, vertex], vertex].tolist()


def _auto_alignment(config: RunConfig) -> bool:
    """Alignment is enforced on clean ideal validated runs unless the config says."""
    if config.enforce_alignment is not None:
        return bool(config.enforce_alignment)
    return _clean_ideal(config) and not validate_params(config.params, config.base.diameter)


def _first_bad(bad: np.ndarray, layer: int) -> str:
    k, v = np.argwhere(bad)[0]
    return f"node (v={v}, layer={layer}) pulse {k + 1}"


class _Inputs(NamedTuple):
    """What a run samples from its config, once: the kernel, the event engine
    and a fault-free twin all run on the same delays and clocks."""

    graph: LayeredGraph
    dag: np.ndarray  # [layer, vertex, slot] delays, as sample_delays returns them
    chain: np.ndarray  # the chain hops' delays
    rate: np.ndarray  # [layer, vertex]
    offset: np.ndarray  # [layer, vertex]
    source_times: np.ndarray | None  # [pulse, vertex] ideal layer-0 times; None for a chain


def _sample_inputs(config: RunConfig) -> _Inputs:
    graph = build_layered(config.base, config.layers)
    dag, chain = sample_delays(graph, config.params, config.delay_strategy,
                               seed=config.delay_seed, custom=config.custom_delays)
    rate, offset = sample_clocks(graph, config.params, config.clock_strategy,
                                 seed=config.clock_seed)
    source = config.source
    times = (ideal_source_times(config.base, config.params.lam, source.jitter, source.seed,
                                config.pulses) if source.kind == "ideal" else None)
    return _Inputs(graph, dag, chain, rate, offset, times)


class _Tables(NamedTuple):
    """What every layer step of a run shares, computed once per run."""

    real: np.ndarray  # [vertex, position]: a real input slot (``padded_slots``)
    own_slot: np.ndarray  # [vertex]: the slot of the node's own copy
    degree: np.ndarray  # [vertex]: the neighbor count, the last real position
    cell: np.ndarray  # [pulse, vertex]: the flat offset of the cell's position 0
    params: Params
    full: bool


# The bit of the simplified machine's out_of_regime that marks a wave outside
# one listening phase, which it reports by name; any other cause sets bit 1.
_SPLIT_WAVE = 2


def _layer_step(tables: _Tables, arrival: np.ndarray, off: np.ndarray, rt: np.ndarray) -> tuple:
    """One layer of a clean static ideal-source run in closed form, from the
    real times ``arrival[pulse, vertex, slot]`` (inf on a padding slot) at
    which its nodes receive their inputs, and its clock offsets and rates.
    Returns [pulse, vertex] arrays: the times, the local times, the
    SNAPSHOT_FIELDS as one tuple, the layer's counts (threshold pushes,
    waves that push one, stragglers, early second-arm exits) and the
    ``out_of_regime`` mask of the node-pulses that the module docstring
    lists. A marked cell's values are meaningless; a node with no marked
    pulse has the event engine's values wherever the layer below has them.

    Each wave's arrivals are sorted as the event queue pops them (real time,
    then sender) into [pulse, vertex, position] arrays. h_own, h_min and
    h_max each hold from their arrival's position on, so the inner-loop
    threshold after arrival j, ``thr[j]``, is one array. A finite threshold
    never becomes infinite again within a phase, so the timer armed before
    arrival j is ``thr[j-1]`` (none before arrival 0). The full machine's
    checks follow the event queue's order: check 2j, that timer due strictly
    before arrival j (commit at the timer, having heard up to arrival j-1),
    and check 2j+1, ``h_j >= thr[j]`` (commit at arrival j). The first true
    check commits; with none, the node commits at the last threshold. The
    thresholds before the commit position were pushed, and the arrivals from
    it on are stragglers. The simplified machine commits at the last
    arrival, having heard all three values.
    """
    real, own_slot, degree, cell, params, full = tables
    K, n, width = arrival.shape
    last = cell + degree
    position = np.arange(width)
    quiet, kappa, theta = params.lam / QUIET_DIVISOR, params.kappa, params.theta
    order = np.argsort(arrival, axis=-1, kind="stable")  # [pulse, vertex, position]
    a = arrival.reshape(-1)[cell[..., None] + order]
    # padding repeats the last arrival: no gap, minimum or maximum moves
    a = np.where(real, a, a.reshape(-1)[last][..., None])
    h = off[:, None] + rt[:, None] * a
    # a wave outside one listening phase: its first arrival less than lam/10
    # after the previous wave's last, or two arrivals lam/10 or more apart
    out = np.zeros((K, n), dtype=bool)
    out[1:] = h[1:, :, 0] - h[:-1, :, -1] < quiet
    gap = h[..., 1:] - h[..., :-1] >= quiet

    # (position, value) of the own copy, the first and the last neighbor
    own = (order == own_slot[:, None]).argmax(axis=-1)
    flat = h.reshape(-1)
    heard = ((own, flat[cell + own]), (own == 0, flat[cell + (own == 0)]),
             (degree - (own == degree), flat[last - (own == degree)]))
    if full:
        thr = inner_loop_threshold_array(
            *(np.where(at[..., None] <= position, value[..., None], np.nan)
              for at, value in heard), kappa, theta)
        timer = np.concatenate((np.full((K, n, 1), np.inf), thr[..., :-1]), axis=-1)
        due = (timer - off[:, None]) / rt[:, None]
        # checks 2j and 2j+1 exist while j <= degree
        checks = (np.stack((due < a, h >= thr), axis=-1).reshape(K, n, 2 * width)
                  & np.repeat(real, 2, axis=1))
        # the first true check commits; check 0 is never true (no timer is
        # armed before the first arrival), so an argmax of 0 means that the
        # node commits at the last threshold
        check = checks.argmax(axis=-1)
        check = np.where(check > 0, check, 2 * degree + 2)
        commit, seen = check // 2, (check - 1) // 2  # first arrival unheard, last heard
        at_seen, at_arrival = cell + seen, check % 2 == 1
        exit_local = np.where(at_arrival, flat[at_seen], thr.reshape(-1)[at_seen])
        h_own, h_min, h_max = (np.where(at <= seen, value, np.nan) for at, value in heard)
        # per position: a gap, a tie, or a timer due exactly at a checked arrival
        bad = (due == a) & real & (2 * position <= check[..., None])
        bad[..., 1:] |= gap | ((a[..., 1:] == a[..., :-1]) & real[:, 1:])
        # a timeout, or a commit at an arrival while a timer is armed (only
        # rounding puts an arrival past a threshold whose timer is not due);
        # a matrix product with ones is bad.any(axis=-1), at a third of its cost
        timeout = np.isnan(h_own)
        out |= (bad @ np.ones(width, dtype=bool) | timeout
                | at_arrival & (timer.reshape(-1)[at_seen] < np.inf))
        # in regime, a wave pushes a threshold unless it commits at an arrival
        counts = np.array([np.count_nonzero((thr < np.inf) & (position < commit[..., None])),
                           K * n - np.count_nonzero(at_arrival), (degree + 1 - commit).sum(),
                           np.count_nonzero(np.isnan(h_max))])
        h_correct = np.where(timeout, h_min, h_own)  # any value: the cell is out of regime
    else:
        h_own, h_min, h_max = (value for _, value in heard)
        h_correct, exit_local = h_own, h[..., -1]
        out = np.where(out | gap @ np.ones(width - 1, dtype=bool), _SPLIT_WAVE, 0)
        counts = np.array([0, 0, K * n, 0])  # the engine counts the arrival it commits on
    correction = compute_correction_array(h_correct, h_min, h_max, kappa, theta)
    target = np.maximum(h_own + params.lam - params.d - correction, exit_local)
    times = (target - off) / rt
    out[1:] |= a[1:, :, 0] <= times[:-1]  # an arrival at or before the previous pulse
    if full:
        out |= a[..., -1] >= times  # or at or after this one
    return times, target, (h_own, h_min, h_max, correction, exit_local), counts, out


def _layer_kernel(config: RunConfig, inputs: _Inputs) -> RunResult | None:
    """A clean static ideal-source run in closed form, one ``_layer_step``
    at a time: pulse k of layer l is a function of pulse k of layer l-1.
    Returns None on the first layer with a node out of regime, where the
    simplified machine raises ConfigurationError instead. Diagnostics are
    the event engine's counts for the same run: one reopen and one pulse
    timer per wave, one event per threshold push, and every push but the
    last of a wave going stale.
    """
    full = config.machine == "full"
    dag, rate, offset = inputs.dag, inputs.rate, inputs.offset
    L, K, n = config.layers, config.pulses, config.base.num_vertices
    # (slot[v, j], l) feeds (v, l+1): the inputs of v are its own slots
    slot, real = config.base.padded_slots
    width = slot.shape[1]
    vertex = np.arange(n)[:, None]
    # delays[l, v, j]: the edge from (slot[v, j], l) to (v, l+1), read from the
    # sender's slot of v
    back = (slot[slot] == vertex[..., None]).argmax(axis=-1)
    delays = dag.reshape(L - 1, n * width)[:, slot * width + back]
    tables = _Tables(real, (slot == vertex).argmax(axis=1), real.sum(axis=1) - 1,
                     np.arange(K * n).reshape(K, n) * width, config.params, full)

    arrays = empty_arrays(L, K, n)
    times, local_times = arrays["times"], arrays["local_times"]
    times[0] = inputs.source_times
    local_times[0] = offset[0] + rate[0] * times[0]
    counts = np.zeros(4, dtype=np.int64)
    for layer in range(1, L):
        arrival = np.where(real, times[layer - 1][:, slot] + delays[layer - 1], np.inf)
        times[layer], local_times[layer], snapshot, layer_counts, out = _layer_step(
            tables, arrival, offset[layer], rate[layer])
        if out.any():
            if full:
                return None
            split = out & _SPLIT_WAVE
            raise ConfigurationError(
                f"machine 'simplified': the wave of {_first_bad(split, layer)} is not one "
                f"listening phase (two arrivals lam/10 or more apart, or less than lam/10 "
                f"after the previous wave)" if split.any() else
                f"machine 'simplified': {_first_bad(out, layer)} receives an input no later "
                f"than its previous pulse")
        for name, value in zip(SNAPSHOT_FIELDS, snapshot):
            arrays[name][layer] = value
        counts += layer_counts
    arrays["arm"][1:] = "corrected"
    pushes, pushed_waves, stragglers, early_exits = counts.tolist()

    waves = (L - 1) * n * K
    messages = (L - 1) * K * int(real.sum())
    diagnostics = Diagnostics(
        events=messages + pushes + waves, messages=messages,
        stale_timers=pushes - pushed_waves, stragglers_dropped=stragglers,
        reopens=waves, early_second_arm_exits=early_exits,
        alignment_enforced=_auto_alignment(config),
    )
    return RunResult(config=config, counts=np.full((L, n), K, dtype=np.int64), **arrays,
                     diagnostics=diagnostics)


def run(config: RunConfig) -> RunResult:
    """Execute a run. Clean static ideal-source runs are computed in closed
    form (``_layer_kernel``); every other run, and any clean full-machine run
    the kernel cannot reproduce, goes to the event engine (``run_events``).
    Delays and clocks are sampled once and shared by both."""
    return _run(config, _sample_inputs(config))


def _run(config: RunConfig, inputs: _Inputs) -> RunResult:
    result = _layer_kernel(config, inputs) if _clean_ideal(config) else None
    return _run_events(config, inputs) if result is None else result


def run_events(config: RunConfig) -> RunResult:
    """Execute a full-machine run on the event engine, the reference
    semantics. Behaviors anchored to correct pulse times get them from a
    fault-free twin execution over the same delays and clocks."""
    if config.machine != "full":
        raise ConfigurationError("the event engine runs only machine 'full'")
    return _run_events(config, _sample_inputs(config))


def _run_events(config: RunConfig, inputs: _Inputs) -> RunResult:
    nominal: RunResult | None = None
    if any(b.needs_nominal for b in config.placement.behaviors.values()):
        # _run, not run: a profiler that wraps run counts one call per run
        nominal = _run(replace(config, placement=FaultPlacement.empty(), corruption=None,
                               perturbation=None), inputs)
    return _Engine(config, inputs, nominal=nominal).execute()


class _Engine:
    """One run on the event queue, over the flat node ids ``layer * n + v``.

    ``successors[i]`` lists the (receiver id, receiver vertex, edge index,
    receiver slot, None for a chain hop) of node i's broadcast. ``delay[e]``
    is the delay of edge e: the [layer, vertex, slot] table flattened, so
    slot j of node i is edge ``i * width + j``, then the chain hops.
    """

    def __init__(self, config: RunConfig, inputs: _Inputs, nominal: RunResult | None):
        self.cfg = config
        self.params = config.params
        self.nominal = nominal
        n = self.nv = config.base.num_vertices
        nodes = n * config.layers
        self.faulty = config.faulty.ravel().tolist()
        self.delay = inputs.dag.ravel().tolist() + inputs.chain.tolist()
        # (edge index, hop, target) of each chain hop
        self.chain = [(e, hop, w) for e, (_, hop, w)
                      in enumerate(chain_edges(inputs.graph), start=inputs.dag.size)]
        self.rate = inputs.rate.ravel().tolist()
        self.offset = inputs.offset.ravel().tolist()
        width = inputs.dag.shape[-1]
        self.slots = config.base.slots
        self.successors = self._successors(width)

        self.enforce_alignment = _auto_alignment(config)
        self.heap: list = []
        self.next_seq = itertools.count(1).__next__
        self.machines = [self._machine(i) for i in range(nodes)]
        self.threshold_version = [0] * nodes
        self.pulse_version = [0] * nodes
        self.emitted = [0] * nodes
        self.arrays = empty_arrays(config.layers, config.pulses, n)  # the RunResult's
        self.wave_next = 1  # the perturbation wave that waits for every correct node
        if config.perturbation is not None:
            # the draw order: chain hops, then the real slots and the rates,
            # both vertex-major
            slots, layers = self.slots, range(config.layers)
            self.delay_order = [e for e, _, _ in self.chain] + [
                (layer * n + v) * width + j
                for v in range(n) for layer in layers[:-1] for j in range(len(slots[v]))]
            self.rate_order = [layer * n + v for v in range(n) for layer in layers]

        self._seed_sources(inputs)
        self._seed_fault_emissions()
        self._count_wave_left()
        if config.corruption is not None:
            self._scramble_start()

    # -- construction -----------------------------------------------------

    def _machine(self, i: int):
        """Node i's state machine; None for faulty nodes and ideal emitters."""
        cfg = self.cfg
        layer, v = divmod(i, self.nv)
        if self.faulty[i]:
            return None
        if layer == 0:
            return ChainState() if cfg.source.kind == "chain" else None
        slots = self.slots[v]
        return GcsState(own=slots.index(v), inputs=len(slots))

    def _successors(self, width: int) -> list:
        """Receivers of each node's broadcast: the dag receivers in slot
        order, then, on a chain source, the chain hops."""
        cfg, n, slots = self.cfg, self.nv, self.slots
        out = [[((layer + 1) * n + w, w, (layer * n + v) * width + j, slots[w].index(v))
                for j, w in enumerate(slots[v])]
               for layer in range(cfg.layers - 1) for v in range(n)] + [[] for _ in range(n)]
        if cfg.source.kind == "chain":
            line = cfg.base.line_info.line
            for e, hop, w in self.chain:
                if hop:  # hop h >= 1 is sent by the line's h-th vertex
                    out[line[hop - 1]].append((w, w, e, None))
        return out

    def _push(self, time: float, i: int, svertex: int, kind: int, payload) -> None:
        heapq.heappush(self.heap, (time, i, svertex, kind, self.next_seq(), payload))

    def _deliver(self, i: int, t: float, pulse_index: int,
                 recipients: tuple[int, ...] | None = None) -> None:
        """Send node i's pulse ``pulse_index``, emitted at real time t, to its
        receivers, or to those among ``recipients``."""
        v = i % self.nv
        heap, delay, next_seq = self.heap, self.delay, self.next_seq
        for r, w, e, slot in self.successors[i]:
            if recipients is None or w in recipients:
                heapq.heappush(heap, (t + delay[e], r, v, _KIND_MESSAGE, next_seq(),
                                      (slot, pulse_index)))

    def _seed_sources(self, inputs: _Inputs) -> None:
        cfg, source = self.cfg, inputs.source_times
        if source is not None:
            correct = [v for v in range(self.nv) if not self.faulty[v]]
            self.arrays["times"][0][:, correct] = source[:, correct]
            self.arrays["local_times"][0][:, correct] = (
                inputs.offset[0, correct] + inputs.rate[0, correct] * source[:, correct])
            for v in correct:
                for k, t in enumerate(source[:, v].tolist(), start=1):
                    self._deliver(v, t, k)
                self.emitted[v] = cfg.pulses
        else:
            for k in range(1, cfg.pulses + 1):
                t = (k - 1) * self.params.lam
                for e, hop, target in self.chain:
                    if hop == 0:  # sent by the pulse source
                        self._push(t + self.delay[e], target, -1, _KIND_MESSAGE, (None, k))

    def _seed_fault_emissions(self) -> None:
        cfg = self.cfg
        for v, layer in sorted(cfg.placement.members):
            behavior = cfg.placement.behaviors[v, layer]
            nominal_times = self.nominal.pulse_times(v, layer) if behavior.needs_nominal else None
            for k in range(1, cfg.pulses + 1):
                for t_emit, recipients in faulty_emissions(behavior, nominal_times, k):
                    self._push(t_emit, layer * self.nv + v, v, _KIND_FAULT_EMISSION,
                               (recipients, k))

    def _scramble_start(self) -> None:
        """Corrupt the start state from ``Random(corruption_seed)``: each picked
        node of layers >= 1 gets an iteration in 1..3, a last acceptance in
        [-lam, 0] and a gap, listening (h_min at h in [0, lam], its first
        neighbor's slot heard; h_own in [h, h + lam/4]) or waiting phase (a pulse
        at local time [0, 2 lam]); faulty nodes draw too and keep nothing.
        Then spurious messages from real predecessors arrive in [0, d]."""
        spec, lam, n, base = self.cfg.corruption, self.params.lam, self.nv, self.cfg.base
        rng = random.Random(self.cfg.corruption_seed)
        for i in range(n, n * self.cfg.layers):
            if rng.random() >= spec.node_fraction:
                continue
            phase = rng.choice(("gap", "listening", "waiting"))
            h_own = h_min = target = None
            if phase == "listening":
                h = rng.uniform(0.0, lam)
                if rng.random() < 0.7:
                    h_min = h
                if rng.random() < 0.5:
                    h_own = h + rng.uniform(0.0, lam / 4)
            elif phase == "waiting":
                target = rng.uniform(0.0, 2.0 * lam)
            iteration, last_accept = rng.randint(1, 3), rng.uniform(-lam, 0.0)
            st = self.machines[i]
            if st is None:
                continue
            st.iteration, st.last_accept = iteration, last_accept
            if phase == "listening":
                st.phase, st.h_own, st.h_min = Phase.LISTENING, h_own, h_min
                # the first neighbor is the lowest neighbor slot
                st.rmask = st.full_mask & -st.full_mask if h_min is not None else 0
            elif phase == "waiting":
                st.phase = Phase.WAITING
                st.pending_snapshot = IterationSnapshot("corrupted", None, None, None, None,
                                                        target)
                self.pulse_version[i] += 1
                self._push((target - self.offset[i]) / self.rate[i], i, i % n, _KIND_TIMER,
                           ("pulse", self.pulse_version[i], target))
        if spec.max_spurious_messages > 0 and self.cfg.layers > 1:
            for _ in range(rng.randint(0, spec.max_spurious_messages)):
                layer = rng.randrange(1, self.cfg.layers)
                v = rng.choice(base.vertices)
                sender = rng.choice((v, *base.adjacency[v]))
                t, pulse_index = rng.uniform(0.0, self.params.d), rng.randint(1, 3)
                slot = self.slots[v].index(sender)
                self._push(t, layer * n + v, sender, _KIND_MESSAGE, (slot, pulse_index))

    # -- waves and perturbation ---------------------------------------------

    def _record_pulse(self, i: int, t: float, local_time: float) -> None:
        """Record node i's next pulse, and the snapshot behind it, in the run's
        arrays; a pulse past the pulse axis grows it by one. Once every correct
        node has emitted pulse ``wave_next``, perturb; at most one wave
        advances per recorded pulse."""
        layer, v = divmod(i, self.nv)
        index = self.emitted[i] + 1
        self.emitted[i] = index
        arrays = self.arrays
        if index > arrays["times"].shape[1]:
            extra = empty_arrays(self.cfg.layers, 1, self.nv)
            arrays.update((name, np.concatenate((a, extra[name]), axis=1))
                          for name, a in arrays.items())
        at = (layer, index - 1, v)
        arrays["times"][at] = t
        arrays["local_times"][at] = local_time
        if index == self.wave_next:
            self.wave_left -= 1
        st = self.machines[i]
        if st.__class__ is GcsState and st.pending_snapshot is not None:
            for name, value in zip(IterationSnapshot._fields, st.pending_snapshot):
                arrays[name][at] = value  # None is stored as NaN
            st.pending_snapshot = None
        if self.cfg.perturbation is not None and not self.wave_left:
            self.wave_next += 1
            self._count_wave_left()
            self._apply_perturbation(self.wave_next - 1, t)

    def _count_wave_left(self) -> None:
        """Count the correct nodes that have not yet emitted pulse ``wave_next``."""
        self.wave_left = sum(count < self.wave_next
                             for count, faulty in zip(self.emitted, self.faulty) if not faulty)

    def _apply_perturbation(self, pulse_index: int, t_now: float) -> None:
        """Redraw delays and rates in place, where the main loop and ``_deliver``
        read them."""
        spec = self.cfg.perturbation
        rate, offset = self.rate, self.offset
        h_now = [o + r * t_now for o, r in zip(offset, rate)]
        perturb_between_pulses(self.delay, rate, self.delay_order, self.rate_order,
                               (spec.delay_magnitude, spec.rate_magnitude), pulse_index,
                               spec.seed, self.params)
        if spec.rate_magnitude > 0.0:  # continuous local time across the rate switch
            offset[:] = [h - r * t_now for h, r in zip(h_now, rate)]

    # -- main loop ----------------------------------------------------------

    def execute(self) -> RunResult:
        cfg, params, n = self.cfg, self.params, self.nv
        heap, machines, rate, offset = self.heap, self.machines, self.rate, self.offset
        threshold_version, pulse_version = self.threshold_version, self.pulse_version
        next_seq, record_pulse, deliver = self.next_seq, self._record_pulse, self._deliver
        heappop, heappush = heapq.heappop, heapq.heappush
        enforce_alignment = self.enforce_alignment
        listening, waiting, inf = Phase.LISTENING, Phase.WAITING, math.inf
        events = messages = stale = filtered = stragglers = reopens = 0
        timeouts = early_exits = 0
        while heap:
            t, i, _sender, kind, _seq, payload = heappop(heap)
            events += 1
            st = machines[i]
            if kind == _KIND_MESSAGE:
                messages += 1
                if st is None:
                    continue  # faulty or scripted receiver ignores input
                h = offset[i] + rate[i] * t
                if st.__class__ is GcsState:
                    slot, pulse_index = payload
                    armed = gcs_step(st, None, slot, h, params)
                    if armed == inf:
                        reopens += 1
                    elif st.last_accept != h:
                        filtered += 1
                        continue
                    elif st.phase is not listening:
                        stragglers += 1
                    if enforce_alignment and pulse_index != st.iteration:
                        raise AlignmentError(
                            vertex=i % n, layer=i // n, got_index=pulse_index,
                            expected_index=st.iteration, time=t,
                        )
                else:
                    armed = layer0_step(st, None, h, params)
            elif kind == _KIND_TIMER:
                timer, version, h = payload
                if version != (threshold_version if timer == "threshold" else pulse_version)[i]:
                    stale += 1
                    continue
                if st.__class__ is GcsState:
                    armed = gcs_step(st, timer, None, h, params)
                else:
                    armed = layer0_step(st, timer, h, params)
                if timer == "pulse":
                    record_pulse(i, t, h)
                    deliver(i, t, st.iteration - 1)
                    continue
            else:
                recipients, pulse_index = payload
                deliver(i, t, pulse_index, recipients)
                continue
            if armed is None:
                continue
            if st.__class__ is GcsState and st.phase is not waiting:
                timer, versions = "threshold", threshold_version
            else:
                timer, versions = "pulse", pulse_version
                if st.__class__ is GcsState:  # the step committed
                    if st.pending_snapshot.arm == "timeout":
                        timeouts += 1
                    elif st.h_max is None:
                        early_exits += 1
            version = versions[i] = versions[i] + 1
            if armed != inf:  # inf cancels
                heappush(heap, ((armed - offset[i]) / rate[i], i, i % n, _KIND_TIMER,
                                next_seq(), (timer, version, armed)))

        diagnostics = Diagnostics(
            events=events, messages=messages, stale_timers=stale, rate_filtered=filtered,
            stragglers_dropped=stragglers, reopens=reopens, timeouts_first_arm=timeouts,
            early_second_arm_exits=early_exits, alignment_enforced=self.enforce_alignment,
        )
        counts = np.array(self.emitted, dtype=np.int64).reshape(cfg.layers, n)
        return RunResult(config=cfg, counts=counts, **self.arrays, diagnostics=diagnostics)
