"""Deterministic discrete-event execution of the whole network.

One run is one event queue over real time: message deliveries and per-node
timers, popped in (time, receiver layer, receiver vertex, sender vertex,
kind, sequence) order. Hardware-clock deadlines are converted to real time
when armed (clocks are affine), and the requested local time is carried on
the timer so targets are hit bit-exactly. Identical configurations, seeds
included, yield bit-identical traces. The event queue runs the full machine;
``machine: simplified`` runs are computed in closed form, layer by layer.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AlignmentError, ConfigurationError, ProtocolError
from .faults import FaultPlacement, faulty_emissions, perturb_between_pulses, perturbation_caps
from .protocol import (
    QUIET_DIVISOR,
    Broadcast,
    ChainState,
    GcsState,
    IterationSnapshot,
    MessageArrival,
    Phase,
    SetTimer,
    SourceMode,
    TimerExpiry,
    compute_correction,
    gcs_step,
    ideal_source_times,
    layer0_step,
)
from .timing import Params, sample_clocks, sample_delays, validate_params
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
    "run_paired",
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
    chain_latch: float | None = None


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


def _simplified_run(config: RunConfig) -> RunResult:
    """The simplified machine in closed form, one layer at a time.

    A simplified node waits for its self copy and every neighbor, then
    pulses at max(h_own + lam - d - correction, last arrival). With static
    delays and clocks, an ideal source and no faults, pulse k of layer l is
    therefore a function of pulse k of layer l-1 alone. That holds while each
    wave is one listening phase of the node: its arrivals less than lam/10
    apart, at least lam/10 after the previous wave and strictly after the
    node's previous pulse. A run outside that regime raises ConfigurationError.
    """
    base, params = config.base, config.params
    graph = build_layered(base, config.layers)
    validation = validate_params(params, base.diameter)
    delays = sample_delays(graph, params, config.delay_strategy,
                           seed=config.delay_seed, custom=config.custom_delays).delays
    clocks = sample_clocks(graph, params, config.clock_strategy, seed=config.clock_seed)
    L, K, n = config.layers, config.pulses, base.num_vertices
    rate = np.array([[clocks[(v, layer)].rate for v in base.vertices] for layer in range(L)])
    offset = np.array([[clocks[(v, layer)].offset for v in base.vertices]
                       for layer in range(L)])
    # inputs[v] = (v, neighbors...), padded by repeating the first neighbor,
    # which changes no minimum, maximum or gap between sorted arrivals
    width = 1 + max(map(len, base.adjacency))
    inputs = np.array([(v, *nbrs) + nbrs[:1] * (width - 1 - len(nbrs))
                       for v, nbrs in enumerate(base.adjacency)])
    quiet = params.lam / QUIET_DIVISOR

    shape = (L, K, n)
    times = np.full(shape, np.nan)
    local_times = np.full(shape, np.nan)
    snap = {name: np.full(shape, np.nan) for name in SNAPSHOT_FIELDS}
    source = ideal_source_times(base, params.lam, config.source.jitter,
                                config.source.seed, K)
    times[0] = np.array([source[v] for v in base.vertices]).T
    local_times[0] = offset[0] + rate[0] * times[0]
    for layer in range(1, L):
        delay = np.array([[delays[("dag", w, layer - 1, v)] for w in inputs[v]]
                          for v in base.vertices])
        arrival = times[layer - 1][:, inputs] + delay  # [pulse, vertex, input]
        h = offset[layer][:, None] + rate[layer][:, None] * arrival
        h_sorted = np.sort(h, axis=-1)
        bad = (np.diff(h_sorted, axis=-1) >= quiet).any(axis=-1)
        bad[1:] |= h_sorted[1:, :, 0] - h_sorted[:-1, :, -1] < quiet
        if bad.any():
            raise ConfigurationError(
                f"machine 'simplified': the wave of {_first_bad(bad, layer)} is not one "
                f"listening phase (two arrivals lam/10 or more apart, or less than "
                f"lam/10 after the previous wave)")
        h_own, h_max = h[..., 0], h[..., 1:].max(axis=-1)
        h_min, exit_local = h[..., 1:].min(axis=-1), h_sorted[..., -1]
        correction = np.array([
            compute_correction(own, lo, hi, params.kappa, params.theta)
            for own, lo, hi in zip(h_own.ravel().tolist(), h_min.ravel().tolist(),
                                   h_max.ravel().tolist())
        ]).reshape(K, n)
        target = np.maximum(h_own + params.lam - params.d - correction, exit_local)
        times[layer] = (target - offset[layer]) / rate[layer]
        local_times[layer] = target
        early = np.zeros((K, n), dtype=bool)
        early[1:] = arrival.min(axis=-1)[1:] <= times[layer][:-1]
        if early.any():
            raise ConfigurationError(
                f"machine 'simplified': {_first_bad(early, layer)} receives an input "
                f"no later than its previous pulse")
        for name, value in zip(SNAPSHOT_FIELDS, (h_own, h_min, h_max, correction, exit_local)):
            snap[name][layer] = value
    arm = np.full(shape, "", dtype=object)
    arm[1:] = "corrected"

    wave_nodes = (L - 1) * n * K
    messages = (L - 1) * K * sum(len(nbrs) + 1 for nbrs in base.adjacency)
    diagnostics = Diagnostics(
        events=messages + wave_nodes, messages=messages,
        stragglers_dropped=wave_nodes, reopens=wave_nodes,
        alignment_enforced=_auto_alignment(config, validation),
    )
    return RunResult(
        config=config, counts=np.full((L, n), K, dtype=np.int64),
        times=times, local_times=local_times, **snap, arm=arm,
        diagnostics=diagnostics, validation=validation,
        completed=True, incomplete_nodes=[],
    )


def run(config: RunConfig) -> RunResult:
    """Execute a run; behaviors anchored to correct pulse times get them
    from a fault-free twin execution over the same delays and clocks."""
    if config.machine == "simplified":
        return _simplified_run(config)
    nominal: RunResult | None = None
    if config.placement and _needs_twin(config.placement):
        twin_cfg = replace(
            config,
            placement=FaultPlacement.empty(),
            corruption=None,
            perturbation=None,
        )
        nominal = _Engine(twin_cfg, nominal=None).execute()
    return _Engine(config, nominal=nominal).execute()


def run_paired(config: RunConfig, node_to_heal: tuple[int, int]) -> tuple[RunResult, RunResult]:
    """(faulty run, run with node_to_heal correct) over identical delays/clocks."""
    if node_to_heal not in config.placement.members:
        raise ConfigurationError(f"{node_to_heal} is not in the fault set")
    healed_behaviors = dict(config.placement.behaviors)
    del healed_behaviors[node_to_heal]
    healed = replace(
        config,
        placement=FaultPlacement(behaviors=healed_behaviors, strict=config.placement.strict),
    )
    return run(config), run(healed)


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
    def __init__(self, config: RunConfig, nominal: RunResult | None):
        self.cfg = config
        self.graph = build_layered(config.base, config.layers)
        self.params = config.params
        self.validation = validate_params(config.params, config.base.diameter)
        self.nominal = nominal

        base = config.base
        self.nv = base.num_vertices
        self.faulty = config.placement.members

        delays = sample_delays(
            self.graph, config.params, config.delay_strategy,
            seed=config.delay_seed, custom=config.custom_delays,
        )
        self.delays = delays.delays  # perturbations replace it, never mutate it

        clocks = sample_clocks(self.graph, config.params, config.clock_strategy,
                               seed=config.clock_seed)
        self.rate = {node: c.rate for node, c in clocks.items()}
        self.offset = {node: c.offset for node, c in clocks.items()}

        self.enforce_alignment = _auto_alignment(config, self.validation)

        self.diag = Diagnostics(alignment_enforced=self.enforce_alignment)
        self.heap: list = []
        self.seq = 0
        self.machines: dict = {}
        self.timer_version: dict = {}
        self.pulse_rows: list = []  # run_arrays rows, in emission order
        self.snapshot_rows: list = []
        self.emitted: dict = {}
        self.wave_next = 1
        if config.perturbation is not None:
            n = self.nv * config.layers
            self.caps = perturbation_caps(n, base.diameter, config.params)
            if (config.perturbation.delay_magnitude > self.caps[0]
                    or config.perturbation.rate_magnitude > self.caps[1]):
                raise ConfigurationError(
                    f"perturbation magnitudes exceed caps {self.caps}"
                )

        self._build_nodes()
        self._seed_sources()
        self._seed_fault_emissions()
        if config.corruption is not None:
            plan = corrupt_initial_state(
                self.graph, config.corruption, config.corruption_seed, config.params
            )
            self._apply_corruption(plan)

    # -- construction -----------------------------------------------------

    def _build_nodes(self) -> None:
        cfg = self.cfg
        base = cfg.base
        for layer in range(cfg.layers):
            for v in base.vertices:
                node = (v, layer)
                self.emitted[node] = 0
                self.timer_version[node] = [0, 0]  # threshold, pulse
                if node in self.faulty:
                    self.machines[node] = None
                elif layer == 0:
                    if cfg.source.kind == "chain":
                        self.machines[node] = ChainState(vertex=v)
                    else:
                        self.machines[node] = None  # ideal emitters are pre-scripted
                else:
                    self.machines[node] = GcsState(
                        vertex=v, layer=layer, neighbors=base.adjacency[v],
                    )

    def _push(self, time: float, rvertex: int, rlayer: int, kind: int,
              svertex: int, payload) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (time, rlayer, rvertex, svertex, kind, self.seq, payload))

    def _push_message(self, time: float, sender: tuple[int, int],
                      receiver: tuple[int, int], pulse_index: int) -> None:
        sv, slayer = sender
        rv, rlayer = receiver
        self._push(time, rv, rlayer, _KIND_MESSAGE, sv, (slayer, pulse_index))

    def _seed_sources(self) -> None:
        cfg = self.cfg
        base = cfg.base
        if cfg.source.kind == "ideal":
            times = ideal_source_times(
                base, self.params.lam, cfg.source.jitter, cfg.source.seed, cfg.pulses
            )
            for v in base.vertices:
                node = (v, 0)
                if node in self.faulty:
                    continue
                clock_offset, clock_rate = self.offset[node], self.rate[node]
                for k, t in enumerate(times[v], start=1):
                    self.pulse_rows.append((0, v, k, t, clock_offset + clock_rate * t))
                    self._deliver_broadcast(node, t, k)
                self.emitted[node] = cfg.pulses
        else:
            info = base.line_info
            first = info.line[0]
            for k in range(1, cfg.pulses + 1):
                t = (k - 1) * self.params.lam
                for target in sorted((first, *info.start_replicas)):
                    delay = self.delays[("chain", 0, target)]
                    self._push_message(t + delay, (-1, -1), (target, 0), k)

    def _seed_fault_emissions(self) -> None:
        cfg = self.cfg
        for node in sorted(self.faulty):
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
        for patch in plan.node_patches:
            node = (patch.vertex, patch.layer)
            st = self.machines.get(node)
            if st is None:
                continue
            if isinstance(st, ChainState):
                if patch.chain_latch is not None:
                    st.h_latch = patch.chain_latch
                if patch.pending_pulse_local is not None:
                    self._arm_timer(node, "pulse", patch.pending_pulse_local)
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
                st.pending_snapshot = IterationSnapshot(
                    h_own=None, h_min=None, h_max=None, correction=None,
                    arm="corrupted", exit_local=target,
                )
                self._arm_timer(node, "pulse", target)
        for msg in plan.spurious:
            self._push_message(
                msg.arrival_time,
                (msg.sender_vertex, msg.receiver_layer - 1),
                (msg.receiver_vertex, msg.receiver_layer),
                msg.pulse_index,
            )

    # -- helpers ------------------------------------------------------------

    def _local(self, node: tuple[int, int], t: float) -> float:
        return self.offset[node] + self.rate[node] * t

    def _real(self, node: tuple[int, int], h: float) -> float:
        return (h - self.offset[node]) / self.rate[node]

    def _arm_timer(self, node: tuple[int, int], kind: str, local_time: float) -> None:
        slot = 0 if kind == "threshold" else 1
        self.timer_version[node][slot] += 1
        if local_time == math.inf:
            return  # cancellation
        version = self.timer_version[node][slot]
        v, layer = node
        t = self._real(node, local_time)
        self._push(t, v, layer, _KIND_TIMER, v, (kind, version, local_time))

    def _successor_edges(self, node: tuple[int, int]):
        """(receiver, delay key) pairs reached by this node's broadcast."""
        v, layer = node
        base = self.cfg.base
        out = []
        if layer + 1 < self.cfg.layers:
            for w in sorted((v, *base.adjacency[v])):
                out.append(((w, layer + 1), ("dag", v, layer, w)))
        if layer == 0 and self.cfg.source.kind == "chain":
            info = base.line_info
            if v in info.line:
                pos = info.line.index(v) + 1  # chain position of this sender
                if pos < len(info.line):
                    out.append(((info.line[pos], 0), ("chain", pos, info.line[pos])))
                if pos == len(info.line) - 1:
                    for target in sorted(info.end_replicas):
                        out.append(((target, 0), ("chain", pos, target)))
        return out

    def _deliver_broadcast(self, node: tuple[int, int], t: float, pulse_index: int,
                           recipients: tuple[int, ...] | None = None) -> None:
        for receiver, key in self._successor_edges(node):
            if recipients is not None and receiver[0] not in recipients:
                continue
            self._push_message(t + self.delays[key], node, receiver, pulse_index)

    def _record_pulse(self, node: tuple[int, int], t: float, local_time: float) -> None:
        v, layer = node
        self.emitted[node] += 1
        index = self.emitted[node]
        self.pulse_rows.append((layer, v, index, t, local_time))
        st = self.machines[node]
        if isinstance(st, GcsState) and st.pending_snapshot is not None:
            snap = st.pending_snapshot
            self.snapshot_rows.append((
                layer, v, index, snap.arm,
                snap.h_own, snap.h_min, snap.h_max, snap.correction, snap.exit_local,
            ))
            st.pending_snapshot = None
        self._check_wave_completion()

    def _check_wave_completion(self) -> None:
        if self.cfg.perturbation is None:
            return
        k = self.wave_next
        for node, st in self.machines.items():
            if node in self.faulty:
                continue
            if self.emitted[node] < k:
                return
        self.wave_next += 1
        self._apply_perturbation(k)

    def _apply_perturbation(self, pulse_index: int) -> None:
        spec = self.cfg.perturbation
        self.delays, rates = perturb_between_pulses(
            self.delays, self.rate, (spec.delay_magnitude, spec.rate_magnitude),
            pulse_index, spec.seed, self.params, self.caps,
        )
        if spec.rate_magnitude > 0.0:
            t_now = self.now
            for node, new_rate in rates.items():
                # continuous local time across the rate switch
                h_now = self.offset[node] + self.rate[node] * t_now
                self.offset[node] = h_now - new_rate * t_now
            self.rate = rates

    # -- main loop ----------------------------------------------------------

    def execute(self) -> RunResult:
        cfg = self.cfg
        params = self.params
        self.now = -math.inf
        while self.heap:
            t, rlayer, rvertex, svertex, kind, _seq, payload = heapq.heappop(self.heap)
            self.now = t
            self.diag.events += 1
            node = (rvertex, rlayer)

            if kind == _KIND_FAULT_EMISSION:
                recipients, pulse_index = payload
                self._deliver_broadcast(node, t, pulse_index, recipients)
                continue

            st = self.machines.get(node)
            if kind == _KIND_TIMER:
                timer_kind, version, local_time = payload
                slot = 0 if timer_kind == "threshold" else 1
                if version != self.timer_version[node][slot]:
                    self.diag.stale_timers += 1
                    continue
                if st is None:
                    continue
                event = TimerExpiry(kind=timer_kind)
                h = local_time
            else:
                self.diag.messages += 1
                if st is None:
                    continue  # faulty or scripted receiver ignores input
                slayer, pulse_index = payload
                event = MessageArrival(
                    sender_vertex=svertex, sender_layer=slayer, pulse_index=pulse_index
                )
                h = self._local(node, t)

            if isinstance(st, ChainState):
                _, actions = layer0_step(st, event, h, params)
            else:
                before_phase = st.phase
                before_accept = st.last_accept
                _, actions = gcs_step(st, event, h, params)
                if kind == _KIND_MESSAGE:
                    self._track_message_diag(st, event, h, before_phase, before_accept, t)
                if st.phase is Phase.WAITING and before_phase is not Phase.WAITING:
                    if st.exit_arm == "timeout":
                        self.diag.timeouts_first_arm += 1
                    elif st.h_max is None:
                        self.diag.early_second_arm_exits += 1

            for act in actions:
                if isinstance(act, SetTimer):
                    self._arm_timer(node, act.kind, act.local_time)
                elif isinstance(act, Broadcast):
                    self._record_pulse(node, t, act.local_time)
                    self._deliver_broadcast(node, t, act.pulse_index)
                else:
                    raise ProtocolError(f"unknown action {act!r}")

        incomplete = sorted(
            node
            for node, count in self.emitted.items()
            if node not in self.faulty and count < cfg.pulses
            and (cfg.source.kind == "ideal" or node[1] == 0)
        )
        return RunResult(
            config=cfg,
            **run_arrays(cfg.layers, self.nv, cfg.pulses, self.pulse_rows, self.snapshot_rows),
            diagnostics=self.diag,
            validation=self.validation,
            completed=not incomplete,
            incomplete_nodes=incomplete,
        )

    def _track_message_diag(self, st: GcsState, event: MessageArrival, h: float,
                            before_phase, before_accept: float, t: float) -> None:
        accepted = st.last_accept == h
        if not accepted:
            self.diag.rate_filtered += 1
            return
        quiet = self.params.lam / QUIET_DIVISOR
        reopened = h - before_accept >= quiet
        if reopened:
            self.diag.reopens += 1
        elif st.phase is not Phase.LISTENING:
            self.diag.stragglers_dropped += 1
        if self.enforce_alignment and event.pulse_index != st.iteration:
            raise AlignmentError(
                vertex=st.vertex, layer=st.layer,
                got_index=event.pulse_index, expected_index=st.iteration, time=t,
            )
