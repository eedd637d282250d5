"""Per-node state machines and the shared correction kernel.

Two machines drive the event engine:

* the layer-0 chain forwarder relays the source pulse along the line,
  re-broadcasting a fixed local-time interval after each reception;
* the full synchronization node listens for its three kinds of inputs
  (the copy of itself plus first/last neighbor pulses), survives missing
  inputs via timeout arms, and schedules its pulse from a correction value.

Machines are transition functions over engine-owned state objects: each step
returns the state plus a list of actions (timers to arm, pulses to emit).
Only the owning engine may touch a state concurrently.

The event engine (``engine.run_events``) drives these machines and is the
reference semantics. Clean static ideal-source runs (no faults, corruption
or perturbation) are computed in closed form instead: ``engine.run`` replays
each wave's listening phase over sorted arrays with the same threshold and
``compute_correction``, and hands any wave it cannot reproduce back to the
event engine. The paper's simplified node, which waits for every input and
then applies the same correction, is the other branch of that closed form
(``machine: simplified``); it exists only for such runs, and any other
combination is a configuration error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigurationError, ProtocolError
from .timing import Params
from .topology import BaseGraph

__all__ = [
    "Broadcast",
    "ChainState",
    "GcsState",
    "IterationSnapshot",
    "MessageArrival",
    "Phase",
    "SetTimer",
    "SourceMode",
    "TimerExpiry",
    "QUIET_DIVISOR",
    "compute_correction",
    "correction_scan_oracle",
    "gcs_step",
    "ideal_source_times",
    "inner_loop_threshold",
    "layer0_step",
]

# Quiet period (and per-sender rate filter) is one tenth of the period.
QUIET_DIVISOR = 10.0


class Phase(Enum):
    LISTENING = "listening"
    WAITING = "waiting"
    GAP = "gap"


@dataclass(frozen=True)
class MessageArrival:
    sender_vertex: int
    sender_layer: int
    pulse_index: int


@dataclass(frozen=True)
class TimerExpiry:
    kind: str  # 'threshold' | 'pulse'


@dataclass(frozen=True)
class SetTimer:
    kind: str
    local_time: float


@dataclass(frozen=True)
class Broadcast:
    pulse_index: int
    local_time: float


@dataclass(frozen=True)
class IterationSnapshot:
    """Internal values frozen when a listening phase commits to a pulse time."""

    h_own: float | None
    h_min: float | None
    h_max: float | None
    correction: float | None
    arm: str  # 'corrected' | 'timeout'
    exit_local: float


@dataclass(frozen=True)
class SourceMode:
    """Layer-0 drive: 'ideal' well-synchronized emitters or the 'chain' forwarder."""

    kind: str
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("ideal", "chain"):
            raise ConfigurationError(f"unknown source kind {self.kind!r}")
        if self.jitter < 0.0:
            raise ConfigurationError("jitter bound must be >= 0")


def compute_correction(
    h_own: float | None,
    h_min: float | None,
    h_max: float | None,
    kappa: float,
    theta: float,
):
    """Correction value from the three reception timestamps.

    An absent last-neighbor timestamp drives the raw offset below zero for
    every discretization step, so only the catch-down branch can apply.
    Raises if the mandatory inputs are missing; the engine must not call it
    in such a state.
    """
    if h_own is None or h_min is None:
        raise ProtocolError("correction needs the self-copy and first-neighbor timestamps")
    if kappa <= 0:
        raise ProtocolError("kappa must be positive")
    if h_max is not None and h_max < h_min:
        raise ProtocolError("last-neighbor timestamp precedes first-neighbor timestamp")
    half = kappa / 2
    if h_max is None:
        return min(h_own - h_min + 3 * half, 0 * half)
    a = h_own - h_max
    b = h_own - h_min
    delta = _discretized_offset(a, b, kappa) - half
    if delta < 0:
        return min(h_own - h_min + 3 * half, 0 * half)
    if delta > theta * kappa:
        return max(h_own - h_max - 3 * half, theta * kappa)
    return delta


def _discretized_offset(a, b, kappa):
    """min over integer s >= 0 of max(a + 4*s*kappa, b - 4*s*kappa).

    The objective is the max of an increasing and a decreasing affine
    sequence, so the minimum sits at the crossing s* = (b - a) / (8*kappa);
    checking s in {0, floor(s*), ceil(s*)} is exact.
    """
    best = b if b >= a else a  # s = 0
    s_star = (b - a) / (8 * kappa)
    for s in (math.floor(s_star), math.ceil(s_star)):
        if s > 0:
            val = max(a + 4 * s * kappa, b - 4 * s * kappa)
            if val < best:
                best = val
    return best


def correction_scan_oracle(h_own, h_min, h_max, kappa, theta, extra: int = 2):
    """Brute-force reference: scan every s up to the crossing plus ``extra``."""
    if h_own is None or h_min is None:
        raise ProtocolError("correction needs the self-copy and first-neighbor timestamps")
    half = kappa / 2
    if h_max is None:
        return min(h_own - h_min + 3 * half, 0 * half)
    a = h_own - h_max
    b = h_own - h_min
    s_max = max(0, math.ceil((h_max - h_min) / (8 * kappa))) + extra
    delta = min(max(a + 4 * s * kappa, b - 4 * s * kappa) for s in range(s_max + 1)) - half
    if delta < 0:
        return min(h_own - h_min + 3 * half, 0 * half)
    if delta > theta * kappa:
        return max(h_own - h_max - 3 * half, theta * kappa)
    return delta


def inner_loop_threshold(
    h_own: float | None,
    h_min: float | None,
    h_max: float | None,
    kappa: float,
    theta: float,
) -> tuple[float, str | None]:
    """Local time at which the listening loop may exit, and the active arm.

    First arm: h_max + kappa/2 + theta*kappa (waits out a missing self-copy
    pulse). Second arm: 2*h_own - h_min + 2*kappa (waits out a missing last
    neighbor). An absent value makes its arm infinite; ties go to the first
    arm. With both arms infinite the node keeps listening.
    """
    if h_min is None:
        raise ProtocolError("threshold undefined before the first neighbor pulse")
    first = h_max + kappa / 2 + theta * kappa if h_max is not None else math.inf
    second = 2 * h_own - h_min + 2 * kappa if h_own is not None else math.inf
    if first == math.inf and second == math.inf:
        return math.inf, None
    if first <= second:
        return first, "first"
    return second, "second"


class GcsState:
    """Mutable per-node state of the full synchronization machine."""

    __slots__ = (
        "vertex", "layer", "iteration", "phase",
        "h_own", "h_min", "h_max", "rmask", "full_mask", "bit_of",
        "last_accept", "last_from", "pending_pulse_local", "pending_snapshot",
        "correction", "exit_arm",
    )

    def __init__(self, vertex: int, layer: int, neighbors: tuple[int, ...]):
        if layer < 1:
            raise ProtocolError("synchronization nodes live on layers >= 1")
        self.vertex = vertex
        self.layer = layer
        self.iteration = 1
        self.phase = Phase.GAP
        self.h_own: float | None = None
        self.h_min: float | None = None
        self.h_max: float | None = None
        self.rmask = 0
        self.bit_of = {w: 1 << i for i, w in enumerate(neighbors)}
        self.full_mask = (1 << len(neighbors)) - 1
        self.last_accept = -math.inf
        self.last_from: dict[int, float] = {}
        self.pending_pulse_local: float | None = None
        self.pending_snapshot: IterationSnapshot | None = None
        self.correction: float | None = None
        self.exit_arm: str | None = None


def _open_phase(state: GcsState, actions: list) -> None:
    state.phase = Phase.LISTENING
    state.h_own = None
    state.h_min = None
    state.h_max = None
    state.rmask = 0
    actions.append(SetTimer("threshold", math.inf))  # engine treats inf as cancel


def _record(state: GcsState, sender: int, h: float) -> None:
    if sender == state.vertex:
        if state.h_own is None:
            state.h_own = h
        return
    bit = state.bit_of[sender]
    if state.rmask & bit:
        return  # duplicate within the iteration
    if state.rmask == 0:
        state.h_min = h
    state.rmask |= bit
    if state.rmask == state.full_mask:
        state.h_max = h


def _commit(state: GcsState, h_exit: float, params: Params, actions: list) -> None:
    """Leave the listening loop and schedule the pulse."""
    h_min, h_max = state.h_min, state.h_max
    if h_max is not None and h_max < h_min:
        # remnant of a corrupted initial state; order the pair defensively
        # (never reachable from a clean start, where both are set within one
        # listening phase in arrival order)
        h_min, h_max = h_max, h_min
    if state.h_own is None:
        # Timed out waiting for the self-copy pulse; anchor on the last neighbor.
        correction = None
        arm = "timeout"
        target = h_max + 1.5 * params.kappa + params.lam - params.d
    else:
        correction = compute_correction(
            state.h_own, h_min, h_max, params.kappa, params.theta
        )
        arm = "corrected"
        target = state.h_own + params.lam - params.d - correction
    if target < h_exit:
        target = h_exit  # out-of-regime parameters only; never back-date a pulse
    state.correction = correction
    state.exit_arm = arm
    state.phase = Phase.WAITING
    state.pending_pulse_local = target
    state.pending_snapshot = IterationSnapshot(
        h_own=state.h_own, h_min=h_min, h_max=h_max,
        correction=correction, arm=arm, exit_local=h_exit,
    )
    actions.append(SetTimer("pulse", target))


def _evaluate_exit(state: GcsState, h: float, params: Params, actions: list) -> None:
    if state.h_min is None:
        return
    threshold, _arm = inner_loop_threshold(
        state.h_own, state.h_min, state.h_max, params.kappa, params.theta
    )
    if threshold is math.inf:
        return
    if h >= threshold:
        _commit(state, h, params, actions)
    else:
        actions.append(SetTimer("threshold", threshold))


def gcs_step(state: GcsState, event, h: float, params: Params):
    """Advance a synchronization node; returns (state, actions).

    Messages pass a per-sender rate filter; a message after a quiet gap of
    lam/10 opens a fresh listening phase (clearing reception state and the
    threshold timer but leaving any already-scheduled pulse to fire). The
    listening loop exits at its threshold; with the self-copy timestamp
    still missing this is a timeout that anchors the pulse on the last
    neighbor, otherwise the correction kernel sets the schedule.
    """
    actions: list = []
    if isinstance(event, MessageArrival):
        sender = event.sender_vertex
        if event.sender_layer != state.layer - 1 or (
            sender != state.vertex and sender not in state.bit_of
        ):
            raise ProtocolError(
                f"node (v={state.vertex}, layer={state.layer}) got a pulse from "
                f"non-predecessor (v={sender}, layer={event.sender_layer})"
            )
        quiet = params.lam / QUIET_DIVISOR
        last = state.last_from.get(sender)
        if last is not None and h - last < quiet:
            return state, actions  # rate-filtered
        state.last_from[sender] = h
        if h - state.last_accept >= quiet:
            _open_phase(state, actions)
        state.last_accept = h
        if state.phase is Phase.LISTENING:
            _record(state, sender, h)
            _evaluate_exit(state, h, params, actions)
        return state, actions

    if isinstance(event, TimerExpiry):
        if event.kind == "threshold":
            if state.phase is Phase.LISTENING:
                _evaluate_exit(state, h, params, actions)
            return state, actions
        if event.kind == "pulse":
            actions.append(Broadcast(pulse_index=state.iteration, local_time=h))
            state.iteration += 1
            state.h_own = None
            state.h_min = None
            state.h_max = None
            state.rmask = 0
            state.phase = Phase.GAP
            state.pending_pulse_local = None
            return state, actions
        raise ProtocolError(f"unknown timer kind {event.kind!r}")

    raise ProtocolError(f"unknown event {event!r}")


class ChainState:
    """Layer-0 chain forwarder: latch the reception time, pulse lam-d later."""

    __slots__ = ("vertex", "iteration", "h_latch")

    def __init__(self, vertex: int):
        self.vertex = vertex
        self.iteration = 1
        self.h_latch: float | None = None


def layer0_step(state: ChainState, event, h: float, params: Params):
    """Advance a chain node; a reception before the pending pulse reschedules it."""
    actions: list = []
    if isinstance(event, MessageArrival):
        state.h_latch = h
        actions.append(SetTimer("pulse", h + params.lam - params.d))
        return state, actions
    if isinstance(event, TimerExpiry):
        if event.kind != "pulse":
            raise ProtocolError(f"chain nodes only use pulse timers, got {event.kind!r}")
        actions.append(Broadcast(pulse_index=state.iteration, local_time=h))
        state.iteration += 1
        return state, actions
    raise ProtocolError(f"unknown event {event!r}")


def ideal_source_times(
    base: BaseGraph, lam: float, jitter: float, seed: int, pulses: int
) -> dict[int, list[float]]:
    """Well-synchronized layer-0 pulse times (k-1)*lam + j_v, j_v in [0, jitter].

    The per-vertex offsets are fixed for the whole run and reproducible from
    the seed. The jitter-vs-kappa admissibility check lives with the run
    configuration, where kappa is known.
    """
    if jitter < 0:
        raise ConfigurationError("jitter bound must be >= 0")
    if pulses < 1:
        raise ConfigurationError("need at least one pulse")
    rng = random.Random(seed)
    offsets = {v: (rng.uniform(0.0, jitter) if jitter > 0 else 0.0) for v in base.vertices}
    return {
        v: [(k - 1) * lam + offsets[v] for k in range(1, pulses + 1)]
        for v in base.vertices
    }
