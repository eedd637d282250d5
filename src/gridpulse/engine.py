"""Deterministic discrete-event execution of the whole network.

One run is one event queue over real time: message deliveries and per-node
timers, popped in (time, receiver layer, receiver vertex, sender vertex,
kind, sequence) order. Hardware-clock deadlines are converted to real time
when armed (clocks are affine), and the requested local time is carried on
the timer so targets are hit bit-exactly. Identical configurations, seeds
included, yield bit-identical traces. ``run_events`` runs the full machine
on this queue and is the reference semantics. ``run`` computes clean static
ideal-source runs in closed form instead, one layer at a time, for both
machines, and falls back to the event queue on the first wave the closed
form cannot reproduce. Graph, delays and clocks are sampled once per call
and shared by the kernel, the event queue and a fault-free twin.

Inside the event queue, node (v, layer) is the integer id ``layer * n + v``.
Clock rates and offsets, state machines, timer versions and pulse counts
are flat lists indexed by it; each node's broadcast receivers are
precomputed once per run, with their delays in a flat list indexed by edge:
``i * width + j`` for slot j of node i, then the chain hops.
The main loop calls ``gcs_step`` and ``layer0_step`` with plain arguments
and dispatches on the class of the actions they return.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, ConfigurationError, ProtocolError
from .faults import FaultPlacement, faulty_emissions, perturb_between_pulses, perturbation_caps
from .protocol import (
    QUIET_DIVISOR,
    Broadcast,
    ChainState,
    GcsState,
    IterationSnapshot,
    Phase,
    SetTimer,
    SourceMode,
    compute_correction,
    gcs_step,
    ideal_source_times,
    layer0_step,
)
from .timing import Params, chain_edges, sample_clocks, sample_delays, validate_params
from .topology import BaseGraph, LayeredGraph, build_layered

__all__ = [
    "CorruptionPlan",
    "CorruptionSpec",
    "Diagnostics",
    "PerturbationSpec",
    "RunConfig",
    "RunResult",
    "SNAPSHOT_FIELDS",
    "corrupt_initial_state",
    "run",
    "run_arrays",
    "run_events",
]

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
class NodePatch:
    vertex: int
    layer: int
    iteration: int = 1
    phase: str = "gap"  # 'gap' | 'listening' | 'waiting'
    h_own: float | None = None
    h_min: float | None = None
    h_max: float | None = None
    extra_rbits: int = 0
    last_accept: float = -math.inf
    pending_pulse_local: float | None = None


@dataclass(frozen=True)
class SpuriousMessage:
    sender_vertex: int
    receiver_vertex: int
    receiver_layer: int
    arrival_time: float
    pulse_index: int


@dataclass(frozen=True)
class CorruptionPlan:
    node_patches: tuple[NodePatch, ...] = ()
    spurious: tuple[SpuriousMessage, ...] = ()


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
        if self.pulses < 1:
            raise ConfigurationError("need at least one pulse")
        if self.layers < 1:
            raise ConfigurationError("need at least one layer")
        if self.machine not in ("full", "simplified"):
            raise ConfigurationError(f"unknown machine {self.machine!r}")
        if self.source.kind == "ideal" and self.source.jitter > self.params.kappa / 4:
            raise ConfigurationError(
                f"ideal-source jitter {self.source.jitter!r} exceeds kappa/4 = "
                f"{self.params.kappa / 4!r}"
            )
        if self.source.kind == "chain" and self.base.line_info is None:
            raise ConfigurationError("chain source needs the replicated-ends line topology")
        if self.machine == "simplified" and not _clean_ideal(self):
            raise ConfigurationError(
                "machine 'simplified' needs an ideal source and no faults, corruption "
                "or perturbation")


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


def run_arrays(layers: int, vertices: int, pulses: int,
               pulse_rows: list, snapshot_rows: list) -> dict:
    """The dense arrays of a run, keyed by RunResult field name.

    ``pulse_rows`` hold (layer, vertex, pulse, time, local_time) and
    ``snapshot_rows`` hold (layer, vertex, pulse, arm, *SNAPSHOT_FIELDS),
    None marking an absent value; pulse indices are 1-based. ``counts`` is
    the highest pulse index per node. The pulse axis has max(pulses, highest
    index) entries; entries without a record are NaN, or "" for ``arm``.
    """
    rows = np.array(pulse_rows, dtype=float).reshape(-1, 5)
    layer, vertex, index = rows[:, :3].astype(np.intp).T
    counts = np.zeros((layers, vertices), dtype=np.int64)
    np.maximum.at(counts, (layer, vertex), index)
    snap_layer, snap_vertex, snap_index = np.array(
        [r[:3] for r in snapshot_rows], dtype=np.intp).reshape(-1, 3).T
    K = max(pulses, int(counts.max(initial=0)), int(snap_index.max(initial=0)))
    shape = (layers, K, vertices)
    out = {"counts": counts}
    for col, name in enumerate(("times", "local_times"), start=3):
        out[name] = np.full(shape, np.nan)
        out[name][layer, index - 1, vertex] = rows[:, col]

    at = (snap_layer, snap_index - 1, snap_vertex)
    values = np.array([r[4:] for r in snapshot_rows], dtype=float)
    values = values.reshape(-1, len(SNAPSHOT_FIELDS))
    for col, name in enumerate(SNAPSHOT_FIELDS):
        out[name] = np.full(shape, np.nan)
        out[name][at] = values[:, col]
    out["arm"] = np.full(shape, "", dtype=object)
    out["arm"][at] = [r[3] for r in snapshot_rows]
    return out


@dataclass(eq=False)
class RunResult:
    """A finished run as dense [layer, pulse, vertex] arrays (see run_arrays).

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
    validation: list[str]
    completed: bool
    incomplete_nodes: list

    def pulse_times(self, vertex: int, layer: int) -> list[float]:
        return self.times[layer, : self.counts[layer, vertex], vertex].tolist()


def _needs_twin(placement: FaultPlacement) -> bool:
    return any(b.needs_nominal for b in placement.behaviors.values())


def _auto_alignment(config: RunConfig, validation: list[str]) -> bool:
    """Alignment is enforced on clean ideal validated runs unless the config says."""
    if config.enforce_alignment is not None:
        return bool(config.enforce_alignment)
    return _clean_ideal(config) and not validation


def _first_bad(bad: np.ndarray, layer: int) -> str:
    k, v = np.argwhere(bad)[0]
    return f"node (v={v}, layer={layer}) pulse {k + 1}"


class _Inputs(NamedTuple):
    """What a run samples from its config, once: the kernel, the event engine
    and a fault-free twin all run on the same delays and clocks."""

    graph: LayeredGraph
    validation: list[str]
    dag: np.ndarray  # [layer, vertex, slot] delays, as sample_delays returns them
    chain: np.ndarray  # the chain hops' delays
    rate: np.ndarray  # [layer, vertex]
    offset: np.ndarray  # [layer, vertex]


def _sample_inputs(config: RunConfig) -> _Inputs:
    graph = build_layered(config.base, config.layers)
    validation = validate_params(config.params, config.base.diameter)
    dag, chain = sample_delays(graph, config.params, config.delay_strategy,
                               seed=config.delay_seed, custom=config.custom_delays)
    rate, offset = sample_clocks(graph, config.params, config.clock_strategy,
                                 seed=config.clock_seed)
    return _Inputs(graph, validation, dag, chain, rate, offset)


def _layer_kernel(config: RunConfig, inputs: _Inputs) -> RunResult | None:
    """A clean static ideal-source run in closed form, one layer at a time.

    With static delays and clocks, an ideal source and no faults, pulse k of
    layer l is a function of pulse k of layer l-1 alone. That holds while each
    wave is one listening phase of the node: its arrivals less than lam/10
    apart, at least lam/10 after the previous wave and strictly after the
    node's previous pulse. Each wave's arrivals are sorted as the event queue
    pops them (real time, then sender) and the listening phase is replayed
    over them, tracking h_own, h_min, h_max and the inner-loop threshold.

    The full machine commits on the first arrival at or past the threshold,
    else at a threshold timer due strictly before the next arrival, else at
    the last threshold; later arrivals are stragglers. On the first wave the
    replay cannot reproduce (an exact tie between arrivals or between a timer
    and an arrival, a timeout commit without h_own, an arrival not strictly
    between the node's previous pulse and this one, or a wave outside one
    listening phase) it returns None: the run belongs to the event engine.
    The simplified machine commits at the last arrival and raises
    ConfigurationError outside the regime.

    Diagnostics are the event engine's counts for the same run: one reopen
    and one pulse timer per wave, one event per threshold push, and every
    push but the last of a wave going stale.
    """
    full = config.machine == "full"
    base, params = config.base, config.params
    validation, dag, rate, offset = inputs.validation, inputs.dag, inputs.rate, inputs.offset
    L, K, n = config.layers, config.pulses, base.num_vertices
    # inputs[v] = (v, neighbors...); the padding slots j >= deg + 1 are not real
    degree = np.array([len(nbrs) for nbrs in base.adjacency])
    width = 1 + degree.max()
    inputs = np.array([(v, *nbrs) + (v,) * (width - 1 - len(nbrs))
                       for v, nbrs in enumerate(base.adjacency)])
    real = np.arange(width) < degree[:, None] + 1
    # delays[l, v, k]: the edge from (inputs[v][k], l) to (v, l+1), read from its slot
    slots = base.slots
    delays = dag.reshape(L - 1, n * width)[:, [[w * width + slots[w].index(v) for w in row]
                                                for v, row in enumerate(inputs.tolist())]]
    last_slot = np.broadcast_to(degree[:, None], (K, n, 1))
    quiet, kappa, theta = params.lam / QUIET_DIVISOR, params.kappa, params.theta

    shape = (L, K, n)
    times = np.full(shape, np.nan)
    local_times = np.full(shape, np.nan)
    snap = {name: np.full(shape, np.nan) for name in SNAPSHOT_FIELDS}
    source = ideal_source_times(base, params.lam, config.source.jitter,
                                config.source.seed, K)
    times[0] = np.array([source[v] for v in base.vertices]).T
    local_times[0] = offset[0] + rate[0] * times[0]
    pushes = pushed_waves = stragglers = early_exits = 0
    for layer in range(1, L):
        off, rt = offset[layer], rate[layer]
        arrival = np.where(real, times[layer - 1][:, inputs] + delays[layer - 1], np.inf)
        order = np.argsort(arrival, axis=-1, kind="stable")  # [pulse, vertex, slot]
        a = np.take_along_axis(arrival, order, axis=-1)
        # padding repeats the last arrival: no gap, minimum or maximum moves
        a = np.where(real, a, np.take_along_axis(a, last_slot, axis=-1))
        h = off[:, None] + rt[:, None] * a
        split = (np.diff(h, axis=-1) >= quiet).any(axis=-1)
        split[1:] |= h[1:, :, 0] - h[:-1, :, -1] < quiet
        if split.any():
            if full:
                return None
            raise ConfigurationError(
                f"machine 'simplified': the wave of {_first_bad(split, layer)} is not one "
                f"listening phase (two arrivals lam/10 or more apart, or less than "
                f"lam/10 after the previous wave)")
        tie = ((np.diff(a, axis=-1) == 0) & real[:, 1:]).any(axis=-1)

        h_own, h_min, h_max = (np.full((K, n), np.nan) for _ in range(3))
        exit_local = np.full((K, n), np.nan)  # NaN until the node commits
        timer = np.full((K, n), np.inf)  # armed threshold timer, local time
        seen = np.zeros((K, n), dtype=np.int64)
        for j in range(width):
            aj, hj = a[..., j], h[..., j]
            listening = real[:, j] & np.isnan(exit_local)
            if full:
                due = (timer - off) / rt
                tie |= listening & (due == aj)
                fired = listening & (due < aj)
                exit_local[fired] = timer[fired]
                listening &= ~fired
                stragglers += int((real[:, j] & ~listening).sum())
            own = listening & (order[..., j] == 0)
            neighbor = listening & ~own
            seen += neighbor
            h_own[own] = hj[own]
            h_min = np.where(neighbor & (seen == 1), hj, h_min)
            h_max = np.where(neighbor & (seen == degree), hj, h_max)
            if full:
                first = np.where(np.isnan(h_max), np.inf, h_max + kappa / 2 + theta * kappa)
                second = np.where(np.isnan(h_own) | np.isnan(h_min), np.inf,
                                  2 * h_own - h_min + 2 * kappa)
                threshold = np.minimum(first, second)
                commit = listening & (hj >= threshold)
                push = listening & ~commit & (threshold < np.inf)
                exit_local[commit] = hj[commit]
                # only rounding puts an arrival past a threshold whose timer is not due
                tie |= commit & (timer < np.inf)
                timer[push] = threshold[push]
                pushes += int(push.sum())
                stragglers += int(commit.sum())
        if full:
            pushed_waves += int((timer < np.inf).sum())
            exit_local = np.where(np.isnan(exit_local), timer, exit_local)
            if (tie | np.isinf(exit_local) | np.isnan(h_own)).any():
                return None
            early_exits += int(np.isnan(h_max).sum())
        else:
            exit_local = h[..., -1]
            stragglers += K * n  # the engine counts the arrival it commits on
        correction = np.array([
            compute_correction(own, lo, None if math.isnan(hi) else hi,
                               params.kappa, params.theta)
            for own, lo, hi in zip(h_own.ravel().tolist(), h_min.ravel().tolist(),
                                   h_max.ravel().tolist())
        ]).reshape(K, n)
        target = np.maximum(h_own + params.lam - params.d - correction, exit_local)
        times[layer] = (target - off) / rt
        local_times[layer] = target
        early = np.zeros((K, n), dtype=bool)
        early[1:] = a[1:, :, 0] <= times[layer][:-1]
        if full:
            if (early | (a[..., -1] >= times[layer])).any():
                return None
        elif early.any():
            raise ConfigurationError(
                f"machine 'simplified': {_first_bad(early, layer)} receives an input "
                f"no later than its previous pulse")
        for name, value in zip(SNAPSHOT_FIELDS, (h_own, h_min, h_max, correction, exit_local)):
            snap[name][layer] = value
    arm = np.full(shape, "", dtype=object)
    arm[1:] = "corrected"

    waves = (L - 1) * n * K
    messages = (L - 1) * K * int(degree.sum() + n)
    diagnostics = Diagnostics(
        events=messages + pushes + waves, messages=messages,
        stale_timers=pushes - pushed_waves, stragglers_dropped=stragglers,
        reopens=waves, early_second_arm_exits=early_exits,
        alignment_enforced=_auto_alignment(config, validation),
    )
    return RunResult(
        config=config, counts=np.full((L, n), K, dtype=np.int64),
        times=times, local_times=local_times, **snap, arm=arm,
        diagnostics=diagnostics, validation=validation,
        completed=True, incomplete_nodes=[],
    )


def run(config: RunConfig) -> RunResult:
    """Execute a run. Clean static ideal-source runs are computed in closed
    form (``_layer_kernel``); every other run, and any clean full-machine run
    the kernel cannot reproduce, goes to the event engine (``run_events``).
    Delays and clocks are sampled once and shared by both."""
    inputs = _sample_inputs(config)
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
    if config.placement and _needs_twin(config.placement):
        twin = replace(config, placement=FaultPlacement.empty(), corruption=None,
                       perturbation=None)
        nominal = _layer_kernel(twin, inputs) if _clean_ideal(twin) else None
        if nominal is None:
            nominal = _Engine(twin, inputs, nominal=None).execute()
    return _Engine(config, inputs, nominal=nominal).execute()


def corrupt_initial_state(
    graph: LayeredGraph,
    spec: CorruptionSpec,
    seed: int,
    params: Params,
) -> CorruptionPlan:
    """Sample a reproducible corruption plan: scrambled node state and
    spurious in-flight messages, within the requested bounds."""
    rng = random.Random(seed)
    lam = params.lam
    patches: list[NodePatch] = []
    for layer in range(1, graph.num_layers):
        for v in graph.base.vertices:
            if rng.random() >= spec.node_fraction:
                continue
            phase = rng.choice(("gap", "listening", "waiting"))
            h_own = h_min = h_max = None
            rbits = 0
            pending = None
            if phase == "listening":
                base_h = rng.uniform(0.0, lam)
                if rng.random() < 0.7:
                    h_min = base_h
                    rbits = 1
                if rng.random() < 0.5:
                    h_own = base_h + rng.uniform(0.0, lam / 4)
            elif phase == "waiting":
                pending = rng.uniform(0.0, 2.0 * lam)
            patches.append(
                NodePatch(
                    vertex=v, layer=layer,
                    iteration=rng.randint(1, 3),
                    phase=phase,
                    h_own=h_own, h_min=h_min, h_max=h_max,
                    extra_rbits=rbits,
                    last_accept=rng.uniform(-lam, 0.0),
                    pending_pulse_local=pending,
                )
            )
    spurious: list[SpuriousMessage] = []
    if spec.max_spurious_messages > 0 and graph.num_layers > 1:
        count = rng.randint(0, spec.max_spurious_messages)
        for _ in range(count):
            layer = rng.randrange(1, graph.num_layers)
            v = rng.choice(graph.base.vertices)
            sender = rng.choice((v, *graph.base.adjacency[v]))
            spurious.append(
                SpuriousMessage(
                    sender_vertex=sender,
                    receiver_vertex=v,
                    receiver_layer=layer,
                    arrival_time=rng.uniform(0.0, params.d),
                    pulse_index=rng.randint(1, 3),
                )
            )
    return CorruptionPlan(node_patches=tuple(patches), spurious=tuple(spurious))


class _Engine:
    """One run on the event queue, over the flat node ids ``layer * n + v``.

    ``successors[i]`` lists the (receiver layer, receiver vertex, edge index)
    triples of node i's broadcast. ``delay[e]`` is the delay of edge e: the
    [layer, vertex, slot] table flattened, so slot j of node i is edge
    ``i * width + j``, then the chain hops.
    """

    def __init__(self, config: RunConfig, inputs: _Inputs, nominal: RunResult | None):
        self.cfg = config
        self.params = config.params
        self.validation = inputs.validation
        self.nominal = nominal
        n = self.nv = config.base.num_vertices
        nodes = n * config.layers
        members = config.placement.members
        self.faulty = [(i % n, i // n) in members for i in range(nodes)]
        self.delay = inputs.dag.ravel().tolist() + inputs.chain.tolist()
        # (edge index, hop, target) of each chain hop
        self.chain = [(e, hop, w) for e, (_, hop, w)
                      in enumerate(chain_edges(inputs.graph), start=inputs.dag.size)]
        self.rate = inputs.rate.ravel().tolist()
        self.offset = inputs.offset.ravel().tolist()
        width = inputs.dag.shape[-1]
        self.successors = self._successors(width)

        self.enforce_alignment = _auto_alignment(config, self.validation)
        self.heap: list = []
        self.next_seq = itertools.count(1).__next__
        self.machines = [self._machine(i) for i in range(nodes)]
        self.threshold_version = [0] * nodes
        self.pulse_version = [0] * nodes
        self.emitted = [0] * nodes
        self.pulse_rows: list = []  # run_arrays rows, in emission order
        self.snapshot_rows: list = []
        self.wave_next = 1  # the perturbation wave that waits for every correct node
        if config.perturbation is not None:
            caps = perturbation_caps(nodes, config.base.diameter, config.params)
            if (config.perturbation.delay_magnitude > caps[0]
                    or config.perturbation.rate_magnitude > caps[1]):
                raise ConfigurationError(
                    f"perturbation magnitudes exceed caps {caps}"
                )
            # the draw order: chain hops, then the real slots and the rates,
            # both vertex-major
            slots, layers = config.base.slots, range(config.layers)
            self.delay_order = [e for e, _, _ in self.chain] + [
                (layer * n + v) * width + j
                for v in range(n) for layer in layers[:-1] for j in range(len(slots[v]))]
            self.rate_order = [layer * n + v for v in range(n) for layer in layers]

        self._seed_sources()
        self._seed_fault_emissions()
        self._count_wave_left()
        if config.corruption is not None:
            plan = corrupt_initial_state(
                inputs.graph, config.corruption, config.corruption_seed, config.params
            )
            self._apply_corruption(plan)

    # -- construction -----------------------------------------------------

    def _machine(self, i: int):
        """Node i's state machine; None for faulty nodes and ideal emitters."""
        cfg = self.cfg
        layer, v = divmod(i, self.nv)
        if self.faulty[i]:
            return None
        if layer == 0:
            return ChainState(vertex=v) if cfg.source.kind == "chain" else None
        return GcsState(vertex=v, layer=layer, neighbors=cfg.base.adjacency[v])

    def _successors(self, width: int) -> list:
        """Receivers of each node's broadcast: the dag receivers in slot
        order, then, on a chain source, the chain hops."""
        cfg, n = self.cfg, self.nv
        slots = cfg.base.slots
        out = [[(i // n + 1, w, i * width + j) for j, w in enumerate(slots[i % n])]
               for i in range((cfg.layers - 1) * n)] + [[] for _ in range(n)]
        if cfg.source.kind == "chain":
            line = cfg.base.line_info.line
            for e, hop, w in self.chain:
                if hop:  # hop h >= 1 is sent by the line's h-th vertex
                    out[line[hop - 1]].append((0, w, e))
        return out

    def _push(self, time: float, rvertex: int, rlayer: int, kind: int,
              svertex: int, payload) -> None:
        heapq.heappush(self.heap,
                       (time, rlayer, rvertex, svertex, kind, self.next_seq(), payload))

    def _deliver(self, i: int, t: float, pulse_index: int,
                 recipients: tuple[int, ...] | None = None) -> None:
        """Send node i's pulse ``pulse_index``, emitted at real time t, to its
        receivers, or to those among ``recipients``."""
        layer, v = divmod(i, self.nv)
        heap, delay, next_seq = self.heap, self.delay, self.next_seq
        payload = (layer, pulse_index)
        for rlayer, rvertex, e in self.successors[i]:
            if recipients is None or rvertex in recipients:
                heapq.heappush(heap, (t + delay[e], rlayer, rvertex, v, _KIND_MESSAGE,
                                      next_seq(), payload))

    def _seed_sources(self) -> None:
        cfg = self.cfg
        base = cfg.base
        if cfg.source.kind == "ideal":
            times = ideal_source_times(
                base, self.params.lam, cfg.source.jitter, cfg.source.seed, cfg.pulses
            )
            for v in base.vertices:
                if self.faulty[v]:
                    continue
                clock_offset, clock_rate = self.offset[v], self.rate[v]
                for k, t in enumerate(times[v], start=1):
                    self.pulse_rows.append((0, v, k, t, clock_offset + clock_rate * t))
                    self._deliver(v, t, k)
                self.emitted[v] = cfg.pulses
        else:
            for k in range(1, cfg.pulses + 1):
                t = (k - 1) * self.params.lam
                for e, hop, target in self.chain:
                    if hop == 0:  # sent by the pulse source
                        self._push(t + self.delay[e], target, 0, _KIND_MESSAGE, -1, (-1, k))

    def _seed_fault_emissions(self) -> None:
        cfg = self.cfg
        for node in sorted(cfg.placement.members):
            behavior = cfg.placement.behaviors[node]
            nominal_times = None
            if behavior.needs_nominal:
                if self.nominal is None:
                    raise ProtocolError(
                        "offset-anchored behavior without a twin execution"
                    )
                nominal_times = self.nominal.pulse_times(*node)
            for k in range(1, cfg.pulses + 1):
                for t_emit, recipients in faulty_emissions(behavior, nominal_times, k):
                    v, layer = node
                    self._push(t_emit, v, layer, _KIND_FAULT_EMISSION, v, (recipients, k))

    def _apply_corruption(self, plan: CorruptionPlan) -> None:
        for patch in plan.node_patches:  # layers >= 1: correct nodes are GcsStates
            i = patch.layer * self.nv + patch.vertex
            st = self.machines[i]
            if st is None:
                continue
            st.iteration = patch.iteration
            st.last_accept = patch.last_accept
            if patch.phase == "listening":
                st.phase = Phase.LISTENING
                st.h_own = patch.h_own
                st.h_min = patch.h_min
                st.h_max = patch.h_max
                st.rmask = patch.extra_rbits & st.full_mask
                if st.h_min is None:
                    st.rmask = 0
                elif st.rmask == 0:
                    st.rmask = 1
                if st.rmask == st.full_mask and st.h_max is None:
                    st.h_max = st.h_min
            elif patch.phase == "waiting":
                st.phase = Phase.WAITING
                target = patch.pending_pulse_local
                if target is None:
                    target = 0.0
                st.pending_pulse_local = target
                st.pending_snapshot = IterationSnapshot("corrupted", None, None, None, None,
                                                        target)
                self.pulse_version[i] += 1
                self._push((target - self.offset[i]) / self.rate[i], patch.vertex, patch.layer,
                           _KIND_TIMER, patch.vertex, ("pulse", self.pulse_version[i], target))
        for msg in plan.spurious:
            self._push(msg.arrival_time, msg.receiver_vertex, msg.receiver_layer,
                       _KIND_MESSAGE, msg.sender_vertex, (msg.receiver_layer - 1, msg.pulse_index))

    # -- waves and perturbation ---------------------------------------------

    def _record_pulse(self, i: int, t: float, local_time: float) -> None:
        """Record node i's next pulse. Once every correct node has emitted
        pulse ``wave_next``, perturb; at most one wave advances per recorded
        pulse."""
        layer, v = divmod(i, self.nv)
        index = self.emitted[i] + 1
        self.emitted[i] = index
        self.pulse_rows.append((layer, v, index, t, local_time))
        if index == self.wave_next:
            self.wave_left -= 1
        st = self.machines[i]
        if st.__class__ is GcsState and st.pending_snapshot is not None:
            self.snapshot_rows.append((layer, v, index, *st.pending_snapshot))
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
        quiet, enforce_alignment = params.lam / QUIET_DIVISOR, self.enforce_alignment
        listening, waiting, inf = Phase.LISTENING, Phase.WAITING, math.inf
        events = messages = stale = filtered = stragglers = reopens = 0
        timeouts = early_exits = 0
        while heap:
            t, rlayer, rvertex, svertex, kind, _seq, payload = heappop(heap)
            events += 1
            i = rlayer * n + rvertex
            st = machines[i]
            if kind == _KIND_MESSAGE:
                messages += 1
                if st is None:
                    continue  # faulty or scripted receiver ignores input
                h = offset[i] + rate[i] * t
                if st.__class__ is GcsState:
                    slayer, pulse_index = payload
                    before_phase, before_accept = st.phase, st.last_accept
                    actions = gcs_step(st, None, svertex, slayer, h, params)
                    if st.last_accept != h:
                        filtered += 1
                    else:
                        if h - before_accept >= quiet:
                            reopens += 1
                        elif st.phase is not listening:
                            stragglers += 1
                        if enforce_alignment and pulse_index != st.iteration:
                            raise AlignmentError(
                                vertex=rvertex, layer=rlayer, got_index=pulse_index,
                                expected_index=st.iteration, time=t,
                            )
                else:
                    actions = layer0_step(st, None, h, params)
            elif kind == _KIND_TIMER:
                timer, version, h = payload
                if version != (threshold_version if timer == "threshold" else pulse_version)[i]:
                    stale += 1
                    continue
                if st is None:
                    continue
                if st.__class__ is GcsState:
                    before_phase = st.phase
                    actions = gcs_step(st, timer, None, None, h, params)
                else:
                    actions = layer0_step(st, timer, h, params)
            else:
                recipients, pulse_index = payload
                deliver(i, t, pulse_index, recipients)
                continue
            if (st.__class__ is GcsState and st.phase is waiting
                    and before_phase is not waiting):
                if st.exit_arm == "timeout":
                    timeouts += 1
                elif st.h_max is None:
                    early_exits += 1

            for act in actions:
                if act.__class__ is SetTimer:
                    timer, local_time = act
                    versions = threshold_version if timer == "threshold" else pulse_version
                    version = versions[i] = versions[i] + 1
                    if local_time != inf:  # inf cancels
                        heappush(heap, ((local_time - offset[i]) / rate[i], rlayer, rvertex,
                                        rvertex, _KIND_TIMER, next_seq(),
                                        (timer, version, local_time)))
                elif act.__class__ is Broadcast:
                    record_pulse(i, t, act.local_time)
                    deliver(i, t, act.pulse_index)
                else:
                    raise ProtocolError(f"unknown action {act!r}")

        incomplete = sorted(
            (i % n, i // n)
            for i, count in enumerate(self.emitted)
            if not self.faulty[i] and count < cfg.pulses
            and (cfg.source.kind == "ideal" or i < n)
        )
        diagnostics = Diagnostics(
            events=events, messages=messages, stale_timers=stale, rate_filtered=filtered,
            stragglers_dropped=stragglers, reopens=reopens, timeouts_first_arm=timeouts,
            early_second_arm_exits=early_exits, alignment_enforced=self.enforce_alignment,
        )
        return RunResult(
            config=cfg,
            **run_arrays(cfg.layers, n, cfg.pulses, self.pulse_rows, self.snapshot_rows),
            diagnostics=diagnostics,
            validation=self.validation,
            completed=not incomplete,
            incomplete_nodes=incomplete,
        )
