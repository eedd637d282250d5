"""Per-node state machines and the shared correction kernel.

Two machines drive the event engine:

* the layer-0 chain forwarder relays the source pulse along the line,
  re-broadcasting a fixed local-time interval after each reception;
* the full synchronization node listens for its three kinds of inputs
  (the copy of itself plus first/last neighbor pulses), survives missing
  inputs via timeout arms, and schedules its pulse from a correction value.

Machines are transition functions over engine-owned state objects. A step
takes plain arguments: the timer that fired (None for a message, whose
input slot comes next: its index in ``BaseGraph.slots[v]``, the node's copy
or a neighbor one layer down) and the node's local time. It mutates the
state and returns what it did to the node's timers, as one plain value:
None (timers unchanged), ``math.inf`` (cancel the threshold timer: a
message opened a fresh listening phase) or the local time of the one timer
it armed, the pulse timer if the node is WAITING afterwards (always, for a
chain node) and the threshold timer otherwise. A pulse step returns None and
advances ``iteration``; the engine emits pulse ``iteration - 1``. Only the
owning engine may touch a state concurrently.

The event engine (``engine.run_events``) drives these machines and is the
reference semantics. Clean static ideal-source runs (no faults, corruption
or perturbation) are computed in closed form instead: ``engine.run`` replays
each wave's listening phase over sorted arrays with the whole-array twins
of the threshold and the correction (``inner_loop_threshold_array``,
``compute_correction_array``, bit-identical to the scalar forms), and hands
any wave it cannot reproduce back to the event engine. The paper's
simplified node, which waits for every input and then applies the same
correction, is the other branch of that closed form (``machine:
simplified``); it exists only for such runs, and any other combination is a
configuration error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .timing import Params
from .topology import BaseGraph

__all__ = [
    "ChainState",
    "GcsState",
    "IterationSnapshot",
    "Phase",
    "SourceMode",
    "QUIET_DIVISOR",
    "compute_correction",
    "compute_correction_array",
    "gcs_step",
    "ideal_source_times",
    "inner_loop_threshold",
    "inner_loop_threshold_array",
    "layer0_step",
]

# Quiet period (and per-slot rate filter) is one tenth of the period.
QUIET_DIVISOR = 10.0


class Phase(Enum):
    LISTENING = "listening"
    WAITING = "waiting"
    GAP = "gap"


# Enum members bound once: a lookup on the class is several times slower
# than a global, and the steps below run once per simulated event.
_LISTENING, _WAITING, _GAP = Phase.LISTENING, Phase.WAITING, Phase.GAP


class IterationSnapshot(NamedTuple):
    """Internal values frozen when a listening phase commits to a pulse time;
    each field is stored in the RunResult array of the same name."""

    arm: str  # 'corrected' | 'timeout' | 'corrupted'
    h_own: float | None
    h_min: float | None
    h_max: float | None
    correction: float | None
    exit_local: float


SOURCE_KINDS = ("ideal", "chain")


@dataclass(frozen=True)
class SourceMode:
    """Layer-0 drive: 'ideal' well-synchronized emitters or the 'chain' forwarder."""

    kind: str
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
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


def compute_correction_array(h_own: np.ndarray, h_min: np.ndarray, h_max: np.ndarray,
                             kappa: float, theta: float) -> np.ndarray:
    """``compute_correction`` over whole [pulse, vertex] float arrays, NaN for
    an absent ``h_max``; bit-identical to the scalar form element by element.

    Every branch is evaluated everywhere and selected by mask, in the scalar
    form's operation order, with Python's ``min``/``max`` tie rules (the first
    argument wins a tie, so signed zeros agree). Operands are finite or NaN.
    """
    if np.isnan(h_own).any() or np.isnan(h_min).any():
        raise ProtocolError("correction needs the self-copy and first-neighbor timestamps")
    if kappa <= 0:
        raise ProtocolError("kappa must be positive")
    if (h_max < h_min).any():
        raise ProtocolError("last-neighbor timestamp precedes first-neighbor timestamp")
    half = kappa / 2
    low = h_own - h_min + 3 * half
    catch_down = np.where(0 * half < low, 0 * half, low)
    a = h_own - h_max
    b = h_own - h_min
    # _discretized_offset: s = 0, then s in (floor(s*), ceil(s*)) when s > 0
    best = np.where(b >= a, b, a)
    s_star = (b - a) / (8 * kappa)
    for s in (np.floor(s_star), np.ceil(s_star)):
        up, down = a + 4 * s * kappa, b - 4 * s * kappa
        val = np.where(down > up, down, up)
        best = np.where((s > 0) & (val < best), val, best)
    delta = best - half
    high = h_own - h_max - 3 * half
    catch_up = np.where(theta * kappa > high, theta * kappa, high)
    return np.where(np.isnan(h_max) | (delta < 0), catch_down,
                    np.where(delta > theta * kappa, catch_up, delta))


def inner_loop_threshold(
    h_own: float | None,
    h_min: float | None,
    h_max: float | None,
    kappa: float,
    theta: float,
) -> float:
    """Local time at which the listening loop may exit: the earlier arm.

    First arm: h_max + kappa/2 + theta*kappa (waits out a missing self-copy
    pulse). Second arm: 2*h_own - h_min + 2*kappa (waits out a missing last
    neighbor). An absent value makes its arm infinite; with both arms
    infinite the node keeps listening.
    """
    if h_min is None:
        raise ProtocolError("threshold undefined before the first neighbor pulse")
    first = h_max + kappa / 2 + theta * kappa if h_max is not None else math.inf
    second = 2 * h_own - h_min + 2 * kappa if h_own is not None else math.inf
    return first if first <= second else second


def inner_loop_threshold_array(h_own: np.ndarray, h_min: np.ndarray, h_max: np.ndarray,
                               kappa: float, theta: float) -> np.ndarray:
    """``inner_loop_threshold`` over whole [pulse, vertex] float arrays, NaN
    for an absent value; ``inf`` where both arms are absent (which includes a
    missing ``h_min``)."""
    first = np.where(np.isnan(h_max), np.inf, h_max + kappa / 2 + theta * kappa)
    second = np.where(np.isnan(h_own) | np.isnan(h_min), np.inf, 2 * h_own - h_min + 2 * kappa)
    return np.where(first <= second, first, second)


class GcsState:
    """Mutable per-node state of the full synchronization machine, over
    ``inputs`` slots of which ``own`` is the node's copy; ``rmask`` has bit
    ``1 << slot`` set for each neighbor slot heard in the iteration."""

    __slots__ = (
        "own", "iteration", "phase",
        "h_own", "h_min", "h_max", "rmask", "full_mask",
        "last_accept", "last_from", "pending_snapshot",
    )

    def __init__(self, own: int, inputs: int):
        self.own = own
        self.iteration = 1
        self.phase = Phase.GAP
        self.h_own: float | None = None
        self.h_min: float | None = None
        self.h_max: float | None = None
        self.rmask = 0
        self.full_mask = ((1 << inputs) - 1) & ~(1 << own)
        self.last_accept = -math.inf
        self.last_from = [-math.inf] * inputs
        self.pending_snapshot: IterationSnapshot | None = None


def _clear(state: GcsState, phase: Phase) -> None:
    """Forget the iteration's receptions and enter ``phase``."""
    state.phase = phase
    state.h_own = state.h_min = state.h_max = None
    state.rmask = 0


def _record(state: GcsState, slot: int, h: float) -> None:
    if slot == state.own:
        if state.h_own is None:
            state.h_own = h
        return
    bit = 1 << slot
    if state.rmask & bit:
        return  # duplicate within the iteration
    if state.rmask == 0:
        state.h_min = h
    state.rmask |= bit
    if state.rmask == state.full_mask:
        state.h_max = h


def _commit(state: GcsState, h_exit: float, params: Params) -> float:
    """Leave the listening loop; returns the pulse's local time."""
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
    state.phase = _WAITING
    state.pending_snapshot = IterationSnapshot(arm, state.h_own, h_min, h_max, correction, h_exit)
    return target


def gcs_step(state: GcsState, timer: str | None, slot: int | None, h: float,
             params: Params) -> float | None:
    """Advance a synchronization node at local time ``h``; returns None,
    ``math.inf`` (cancel the threshold timer) or the local time of the timer
    it armed: the pulse timer if the node is now WAITING, else the threshold.

    ``timer`` is the kind of the timer that fired ('threshold' or 'pulse'),
    or None for a message on input ``slot``, which timers ignore. Messages
    pass a per-slot rate filter; a message after a quiet gap of lam/10 opens
    a fresh listening phase (clearing reception state and the threshold
    timer but leaving any already-scheduled pulse to fire). The listening loop exits at its
    threshold; with the self-copy timestamp still missing this is a timeout
    that anchors the pulse on the last neighbor, otherwise the correction
    kernel sets the schedule.
    """
    if timer is None:
        quiet = params.lam / QUIET_DIVISOR
        if h - state.last_from[slot] < quiet:
            return None  # rate-filtered
        state.last_from[slot] = h
        reopen = h - state.last_accept >= quiet
        state.last_accept = h
        if reopen:
            _clear(state, _LISTENING)
            _record(state, slot, h)
            # A phase's first input completes no threshold arm: every node has
            # at least two neighbors, so the first arm needs two neighbor
            # inputs and the second the self-copy and a neighbor. Cancelling
            # the old threshold timer is all this step does to the timers.
            return math.inf
        if state.phase is not _LISTENING:
            return None
        _record(state, slot, h)
    elif timer == "pulse":
        state.iteration += 1
        _clear(state, _GAP)
        return None
    elif timer != "threshold":
        raise ProtocolError(f"unknown timer kind {timer!r}")
    elif state.phase is not _LISTENING:
        return None
    # the listening loop's exit test, after an input or at the threshold timer
    if state.h_min is None:
        return None
    threshold = inner_loop_threshold(
        state.h_own, state.h_min, state.h_max, params.kappa, params.theta
    )
    if threshold == math.inf:
        return None
    return _commit(state, h, params) if h >= threshold else threshold


class ChainState:
    """Layer-0 chain forwarder: pulse lam-d after the latest reception."""

    __slots__ = ("iteration",)

    def __init__(self):
        self.iteration = 1


def layer0_step(state: ChainState, timer: str | None, h: float, params: Params) -> float | None:
    """Advance a chain node at local time ``h`` (``timer`` None for a
    message). A reception returns the local time of its pulse timer, which
    reschedules any pending pulse; the pulse step returns None."""
    if timer is None:
        return h + params.lam - params.d
    if timer != "pulse":
        raise ProtocolError(f"chain nodes only use pulse timers, got {timer!r}")
    state.iteration += 1
    return None


def ideal_source_times(
    base: BaseGraph, lam: float, jitter: float, seed: int, pulses: int
) -> np.ndarray:
    """Well-synchronized layer-0 pulse times (k-1)*lam + j_v, j_v in [0, jitter],
    as a [pulse, vertex] array.

    The per-vertex offsets are fixed for the whole run and reproducible from
    the seed. The jitter-vs-kappa admissibility check lives with the run
    configuration, where kappa is known.
    """
    if jitter < 0:
        raise ConfigurationError("jitter bound must be >= 0")
    if pulses < 1:
        raise ConfigurationError("need at least one pulse")
    rng = random.Random(seed)
    offsets = [rng.uniform(0.0, jitter) if jitter > 0 else 0.0 for _ in base.vertices]
    return np.arange(pulses)[:, None] * lam + np.array(offsets)
