"""Deterministic discrete-event execution of the whole network.

One run is one event queue over real time: message deliveries and per-node
timers, popped in (time, receiver node id, sender vertex, kind, sequence)
order. Hardware-clock deadlines are converted to real time when armed
(clocks are affine), and the requested local time is carried on the timer
so targets are hit bit-exactly. Identical configurations, seeds
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
``i * width + j`` for slot j of node i, then the chain hops. A message
carries its receiver's slot for the sender (``BaseGraph.slots``) and the
pulse index. The main loop calls ``gcs_step`` and ``layer0_step`` with plain
arguments and applies the one value they return: a cancelled threshold
timer, an armed threshold or pulse timer, or, after a pulse timer, the pulse.
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
from .timing import Params, chain_edges, sample_clocks, sample_delays, validate_params
from .topology import BaseGraph, LayeredGraph, build_layered

__all__ = [
    "CorruptionSpec",
    "Diagnostics",
    "PerturbationSpec",
    "RunConfig",
    "RunResult",
    "SNAPSHOT_FIELDS",
    "empty_arrays",
    "incomplete_nodes",
    "run",
    "run_events",
]

MACHINES = ("full", "simplified")

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
        if self.pulses < 1:
            raise ConfigurationError("need at least one pulse")
        if self.layers < 1:
            raise ConfigurationError("need at least one layer")
        n = self.base.num_vertices
        for (v, layer), behavior in sorted(self.placement.behaviors.items()):
            if not (0 <= v < n and 0 <= layer < self.layers):
                raise ConfigurationError(
                    f"faulty node (v={v}, layer={layer}) is outside the grid of "
                    f"{n} vertices and {self.layers} layers")
            if not set(behavior.recipients or ()) <= set(self.base.slots[v]):
                raise ConfigurationError(
                    f"faulty node (v={v}, layer={layer}) has recipients "
                    f"{list(behavior.recipients)} outside its successors {self.base.slots[v]}")
        if self.machine not in MACHINES:
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
    validation: list[str]
    completed: bool
    incomplete_nodes: list

    def pulse_times(self, vertex: int, layer: int) -> list[float]:
        return self.times[layer, : self.counts[layer, vertex], vertex].tolist()


def incomplete_nodes(config: RunConfig, counts: np.ndarray) -> list:
    """The correct nodes, as sorted (vertex, layer) pairs, that emitted fewer
    than ``config.pulses`` pulses by the [layer, vertex] ``counts``; on a chain
    source only layer 0 is held to that count."""
    rows = config.layers if config.source.kind == "ideal" else 1
    members = config.placement.members
    return sorted((v, layer) for layer, v in np.argwhere(counts[:rows] < config.pulses).tolist()
                  if (v, layer) not in members)


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
    source_times: np.ndarray | None  # [pulse, vertex] ideal layer-0 times; None for a chain


def _sample_inputs(config: RunConfig) -> _Inputs:
    graph = build_layered(config.base, config.layers)
    validation = validate_params(config.params, config.base.diameter)
    dag, chain = sample_delays(graph, config.params, config.delay_strategy,
                               seed=config.delay_seed, custom=config.custom_delays)
    rate, offset = sample_clocks(graph, config.params, config.clock_strategy,
                                 seed=config.clock_seed)
    source = config.source
    times = (ideal_source_times(config.base, config.params.lam, source.jitter, source.seed,
                                config.pulses) if source.kind == "ideal" else None)
    return _Inputs(graph, validation, dag, chain, rate, offset, times)


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
    # (slot[v, j], l) feeds (v, l+1): the inputs of v are its own slots
    slot, real = base.padded_slots
    width = slot.shape[1]
    vertex = np.arange(n)[:, None]
    own_slot = (slot == vertex).argmax(axis=1)
    degree = real.sum(axis=1) - 1
    # delays[l, v, j]: the edge from (slot[v, j], l) to (v, l+1), read from the
    # sender's slot of v
    back = (slot[slot] == vertex[..., None]).argmax(axis=-1)
    delays = dag.reshape(L - 1, n * width)[:, slot * width + back]
    last_slot = np.broadcast_to(degree[:, None], (K, n, 1))
    quiet, kappa, theta = params.lam / QUIET_DIVISOR, params.kappa, params.theta

    arrays = empty_arrays(L, K, n)
    times, local_times = arrays["times"], arrays["local_times"]
    times[0] = inputs.source_times
    local_times[0] = offset[0] + rate[0] * times[0]
    pushes = pushed_waves = stragglers = early_exits = 0
    for layer in range(1, L):
        off, rt = offset[layer], rate[layer]
        arrival = np.where(real, times[layer - 1][:, slot] + delays[layer - 1], np.inf)
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
            own = listening & (order[..., j] == own_slot)
            neighbor = listening & ~own
            seen += neighbor
            h_own[own] = hj[own]
            h_min = np.where(neighbor & (seen == 1), hj, h_min)
            h_max = np.where(neighbor & (seen == degree), hj, h_max)
            if full:
                threshold = inner_loop_threshold_array(h_own, h_min, h_max, kappa, theta)
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
        correction = compute_correction_array(h_own, h_min, h_max, kappa, theta)
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
            arrays[name][layer] = value
    arrays["arm"][1:] = "corrected"

    waves = (L - 1) * n * K
    messages = (L - 1) * K * int(real.sum())
    diagnostics = Diagnostics(
        events=messages + pushes + waves, messages=messages,
        stale_timers=pushes - pushed_waves, stragglers_dropped=stragglers,
        reopens=waves, early_second_arm_exits=early_exits,
        alignment_enforced=_auto_alignment(config, validation),
    )
    return RunResult(
        config=config, counts=np.full((L, n), K, dtype=np.int64), **arrays,
        diagnostics=diagnostics, validation=validation,
        completed=True, incomplete_nodes=[],
    )


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
    if config.placement and _needs_twin(config.placement):
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
        self.slots = config.base.slots
        self.successors = self._successors(width)

        self.enforce_alignment = _auto_alignment(config, self.validation)
        self.heap: list = []
        self.next_seq = itertools.count(1).__next__
        self.machines = [self._machine(i) for i in range(nodes)]
        self.threshold_version = [0] * nodes
        self.pulse_version = [0] * nodes
        self.emitted = [0] * nodes
        self.arrays = empty_arrays(config.layers, config.pulses, n)  # the RunResult's
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
            nominal_times = None
            if behavior.needs_nominal:
                if self.nominal is None:
                    raise ProtocolError("offset-anchored behavior without a twin execution")
                nominal_times = self.nominal.pulse_times(v, layer)
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
                if st is None:
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

        counts = np.array(self.emitted, dtype=np.int64).reshape(cfg.layers, n)
        incomplete = incomplete_nodes(cfg, counts)
        diagnostics = Diagnostics(
            events=events, messages=messages, stale_timers=stale, rate_filtered=filtered,
            stragglers_dropped=stragglers, reopens=reopens, timeouts_first_arm=timeouts,
            early_second_arm_exits=early_exits, alignment_enforced=self.enforce_alignment,
        )
        return RunResult(
            config=cfg,
            counts=counts,
            **self.arrays,
            diagnostics=diagnostics,
            validation=self.validation,
            completed=not incomplete,
            incomplete_nodes=incomplete,
        )
