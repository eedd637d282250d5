"""Engine: determinism, closed forms, fault routing, paired runs, corruption,
and the layer kernel against the event engine."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gridpulse import engine as engine_module
from gridpulse.engine import (
    SNAPSHOT_FIELDS,
    CorruptionSpec,
    PerturbationSpec,
    RunConfig,
    _layer_kernel,
    _sample_inputs,
    run,
    run_events,
)
from gridpulse.errors import ConfigurationError, ProtocolError
from gridpulse.faults import FaultBehavior, FaultPlacement, perturbation_caps
from gridpulse.protocol import QUIET_DIVISOR, SourceMode
from gridpulse.timing import (DELAY_STRATEGIES, Params, delay_keys, sample_clocks,
                              sample_delays, validate_params)
from gridpulse.topology import build_layered, build_line_with_replicated_ends, from_edges
from gridpulse import analysis

PARAMS = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
KAPPA = PARAMS.kappa


def base_config(m=8, layers=10, pulses=5, **kw):
    defaults = dict(
        base=build_line_with_replicated_ends(m),
        layers=layers,
        params=PARAMS,
        source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=3),
        pulses=pulses,
        delay_strategy="uniform-random",
        delay_seed=17,
        clock_strategy="uniform",
        clock_seed=19,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def times_of(result, vertex, layer):
    return result.pulse_times(vertex, layer)


def faulty_and_healed(cfg, node):
    """(faulty run, run with ``node`` healed) over identical delays and clocks."""
    behaviors = dict(cfg.placement.behaviors)
    del behaviors[node]
    healed = dataclasses.replace(
        cfg, placement=FaultPlacement(behaviors=behaviors, strict=cfg.placement.strict))
    return run(cfg), run(healed)


def same_pulses(a, b, keep=None) -> bool:
    """Equal pulse counts and times over the nodes keep[layer, vertex] (all by default)."""
    keep = np.ones(a.counts.shape, dtype=bool) if keep is None else keep
    return (np.array_equal(a.counts[keep], b.counts[keep])
            and np.array_equal(a.times.transpose(0, 2, 1)[keep],
                               b.times.transpose(0, 2, 1)[keep], equal_nan=True))


class TestClosedForm:
    def test_zero_uncertainty_grid(self):
        params = Params.derive(d=1.0, u=1e-9, theta=1.0 + 1e-12, lam=2.0)
        cfg = base_config(
            m=4, layers=4, pulses=3, params=params,
            source=SourceMode(kind="ideal", jitter=0.0),
            delay_strategy="all-max", clock_strategy="all-one",
        )
        res = run(cfg)
        assert res.completed
        for layer in range(4):
            for v in cfg.base.vertices:
                expected = [(k - 1) * 2.0 + layer * 2.0 for k in range(1, 4)]
                assert times_of(res, v, layer) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("execute", [run, run_events])
    @pytest.mark.parametrize("source", [SourceMode(kind="ideal", jitter=KAPPA / 4, seed=3),
                                        SourceMode(kind="chain")], ids=["ideal", "chain"])
    def test_pulses_follow_the_hardware_clocks(self, execute, source):
        """Every pulse sits on its node's sampled clock H(t) = offset + rate*t:
        ideal emitters convert their real times to local ones, and timers
        convert their local deadlines to real times, both bit for bit."""
        cfg = base_config(m=6, layers=4, pulses=4, source=source)
        res = execute(cfg)
        rate, offset = sample_clocks(build_layered(cfg.base, cfg.layers), PARAMS, "uniform",
                                     seed=cfg.clock_seed)
        rate, offset = rate[:, None, :], offset[:, None, :]
        timed = slice(1 if source.kind == "ideal" else 0, None)
        assert np.array_equal(res.times[timed],
                              (res.local_times[timed] - offset[timed]) / rate[timed])
        if source.kind == "ideal":
            assert np.array_equal(res.local_times[0], offset[0] + rate[0] * res.times[0])
        assert np.allclose(offset + rate * res.times, res.local_times, rtol=1e-15, atol=0.0)

    def test_correction_window_scan(self):
        """Internal corrections stay inside the window implied by the
        measured skew of the input layer."""
        cfg = base_config(m=8, layers=10, pulses=5)
        res = run(cfg)
        view = analysis.TraceView(res)
        skew = analysis.local_skew(view)
        for layer, k, v in zip(*np.nonzero(~np.isnan(res.correction))):
            lprev = skew.per_layer[layer - 1]
            assert -(lprev + KAPPA) <= res.correction[layer, k, v] <= lprev + 2 * KAPPA


class TestDeterminism:
    def test_identical_configs_identical_traces(self):
        cfg = base_config()
        a, b = run(cfg), run(cfg)
        assert same_pulses(a, b)
        assert np.array_equal(a.arm, b.arm)

    def test_seed_changes_trace(self):
        a = run(base_config())
        b = run(base_config(delay_seed=18))
        assert not same_pulses(a, b)


class TestValidationGate:
    def test_out_of_regime_reported(self):
        params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=1.01)
        cfg = base_config(params=params, source=SourceMode(kind="ideal", jitter=0.0))
        res = run(cfg)
        assert res.validation  # reported, not fatal

    def test_excess_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            base_config(source=SourceMode(kind="ideal", jitter=KAPPA))


class TestFaultRouting:
    def test_silent_fault_leaves_gap_in_trace(self):
        placement = FaultPlacement(behaviors={(5, 4): FaultBehavior(kind="silent")})
        cfg = base_config(placement=placement)
        res = run(cfg)
        assert res.counts[4, 5] == 0
        assert res.completed  # everyone else still pulses

    def test_envelope_holds_for_each_behavior(self):
        behaviors = [
            FaultBehavior(kind="silent"),
            FaultBehavior(kind="fixed_offset", offset=PARAMS.lam / 4),
            FaultBehavior(kind="fixed_offset", offset=-PARAMS.lam / 4),
            FaultBehavior(kind="burst", count=3, spacing=0.1),
        ]
        for beh in behaviors:
            placement = FaultPlacement(behaviors={(5, 4): beh})
            res = run(base_config(placement=placement))
            view = analysis.TraceView(res)
            assert analysis.check_fault_envelope(res, view) == []

    def test_point_to_point_misbehavior(self):
        beh = FaultBehavior(kind="scripted",
                            times=tuple(8.0 + 2.0 * k for k in range(5)),
                            recipients=(5,))
        placement = FaultPlacement(behaviors={(5, 4): beh})
        res = run(base_config(placement=placement))
        assert res.completed

    def test_faults_only_act_through_messages(self):
        """Healing a zero-offset fault leaves the trace bit-identical."""
        placement = FaultPlacement(behaviors={(5, 4): FaultBehavior(kind="fixed_offset", offset=0.0)})
        cfg = base_config(placement=placement)
        with_fault, healed = faulty_and_healed(cfg, (5, 4))
        others = np.ones(healed.counts.shape, dtype=bool)
        others[4, 5] = False
        assert same_pulses(with_fault, healed, keep=others)


class TestPairedRuns:
    def test_healing_bound_at_successors(self):
        placement = FaultPlacement(behaviors={(5, 4): FaultBehavior(kind="silent")})
        cfg = base_config(placement=placement)
        with_fault, healed = faulty_and_healed(cfg, (5, 4))
        base = cfg.base
        bound_b = 0.0
        for w in base.adjacency[5]:
            ta = times_of(healed, 5, 4)
            tb = times_of(healed, w, 4)
            bound_b = max(bound_b, max(abs(x - y) for x, y in zip(ta, tb)))
        for v in (5, *base.adjacency[5]):
            t1 = times_of(with_fault, v, 5)
            t2 = times_of(healed, v, 5)
            worst = max(abs(x - y) for x, y in zip(t1, t2))
            assert worst <= 2 * bound_b + 4 * KAPPA + 1e-12

    def test_difference_propagation_bounded(self):
        """Downstream difference never grows past the successor-layer shift
        plus the correction granularity."""
        placement = FaultPlacement(behaviors={(5, 3): FaultBehavior(kind="silent")})
        cfg = base_config(layers=12, pulses=6, placement=placement)
        with_fault, healed = faulty_and_healed(cfg, (5, 3))
        diffs = []
        for layer in range(4, 12):
            worst = 0.0
            for v in cfg.base.vertices:
                t1 = times_of(with_fault, v, layer)
                t2 = times_of(healed, v, layer)
                worst = max(worst, max(abs(x - y) for x, y in zip(t1, t2)))
            diffs.append(worst)
        ceiling = diffs[0] + 2 * KAPPA
        assert all(d <= ceiling + 1e-12 for d in diffs)


class TestCorruption:
    def test_empty_spec_is_clean_start(self):
        cfg = base_config()
        corrupted = dataclasses.replace(
            cfg, corruption=CorruptionSpec(node_fraction=0.0, max_spurious_messages=0)
        )
        a, b = run(cfg), run(corrupted)
        assert same_pulses(a, b)

    def test_single_spurious_message_absorbed_quickly(self):
        cfg = base_config(pulses=6)
        ref = run(cfg)
        corrupted = dataclasses.replace(
            cfg,
            corruption=CorruptionSpec(node_fraction=0.0, max_spurious_messages=1),
            corruption_seed=1,
        )
        res = run(corrupted)
        stab = analysis.stabilization_pulse(res, ref)
        assert stab <= 2

    def test_corruption_seed_reproducible(self):
        cfg = dataclasses.replace(
            base_config(m=6, layers=8),
            corruption=CorruptionSpec(node_fraction=0.5, max_spurious_messages=4),
            corruption_seed=3,
        )
        digest = run_digest(run(cfg))
        assert run_digest(run(cfg)) == digest
        assert run_digest(run(dataclasses.replace(cfg, corruption_seed=4))) != digest

    def test_full_corruption_stabilizes(self):
        cfg = base_config(m=8, layers=8, pulses=12)
        ref = run(cfg)
        corrupted = dataclasses.replace(
            cfg,
            corruption=CorruptionSpec(node_fraction=1.0, max_spurious_messages=8),
            corruption_seed=7,
        )
        res = run(corrupted)
        stab = analysis.stabilization_pulse(res, ref)
        n = cfg.base.num_vertices * cfg.layers
        assert stab <= 4 * math.sqrt(n)


class TestPerturbation:
    def test_within_cap_runs_and_reports(self):
        from gridpulse.faults import perturbation_caps

        cfg0 = base_config(pulses=6)
        n = cfg0.base.num_vertices * cfg0.layers
        caps = perturbation_caps(n, cfg0.base.diameter, PARAMS)
        cfg = dataclasses.replace(
            cfg0,
            perturbation=PerturbationSpec(
                delay_magnitude=caps[0] / 2, rate_magnitude=caps[1] / 2, seed=5
            ),
        )
        res = run(cfg)
        assert res.completed
        view = analysis.TraceView(res)
        # periodicity is intentionally broken between pulses
        assert analysis.period_consistency(res, view)

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationSpec(delay_magnitude=-1e-5)
        with pytest.raises(ConfigurationError):
            PerturbationSpec(delay_magnitude=-1e-5, rate_magnitude=-1e-7)

    def test_beyond_cap_rejected(self):
        from gridpulse.faults import perturbation_caps

        cfg0 = base_config()
        n = cfg0.base.num_vertices * cfg0.layers
        caps = perturbation_caps(n, cfg0.base.diameter, PARAMS)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(
                cfg0, perturbation=PerturbationSpec(delay_magnitude=caps[0] * 2)
            )


class TestChainMode:
    def test_chain_layer0_interval_bound(self):
        cfg = base_config(m=8, layers=2, pulses=6, source=SourceMode(kind="chain"))
        res = run(cfg)
        info = cfg.base.line_info
        for v in cfg.base.vertices:
            hop = info.hop(v)
            for index, t in enumerate(times_of(res, v, 0), start=1):
                lo = (index + hop - 1) * PARAMS.lam - hop * KAPPA / 2
                hi = (index + hop - 1) * PARAMS.lam
                assert lo - 1e-12 <= t <= hi + 1e-12

    def test_chain_zero_uncertainty_telescopes(self):
        params = Params.derive(d=1.0, u=1e-9, theta=1.0 + 1e-12, lam=2.0)
        cfg = base_config(
            m=4, layers=1, pulses=4, params=params,
            source=SourceMode(kind="chain"),
            delay_strategy="all-max", clock_strategy="all-one",
        )
        res = run(cfg)
        info = cfg.base.line_info
        for pos, v in enumerate(info.line, start=1):
            expected = [(k + pos - 1) * 2.0 for k in range(1, 5)]
            assert times_of(res, v, 0) == pytest.approx(expected, abs=1e-9)

    def test_chain_needs_line_topology(self):
        from gridpulse.topology import from_edges

        square = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ConfigurationError):
            base_config(base=square, source=SourceMode(kind="chain"))


class TestStructuredOutcomes:
    def test_deadlock_reported_not_crashed(self):
        """Two faulty predecessors of a degree-2 vertex starve it of neighbor
        pulses; the run drains and reports the hole instead of crashing."""
        placement = FaultPlacement(
            behaviors={
                (6, 4): FaultBehavior(kind="silent"),
                (8, 4): FaultBehavior(kind="silent"),
            },
            strict=False,  # deliberately violates the one-fault constraint
        )
        cfg = base_config(placement=placement, enforce_alignment=False)
        res = run(cfg)
        assert not res.completed
        assert (7, 5) in res.incomplete_nodes

    def test_causality_audit(self):
        """Every pulse postdates all reception timestamps of its iteration."""
        cfg = base_config()
        res = run(cfg)
        has = res.arm != ""
        assert has.any()
        exit_local = res.exit_local[has]
        assert np.all(exit_local <= res.local_times[has])
        for h in (res.h_own[has], res.h_min[has], res.h_max[has]):
            known = ~np.isnan(h)
            assert np.all(h[known] <= exit_local[known])

    def test_correction_upper_bound(self):
        """No correct node with correct predecessors corrects past lam - d."""
        cfg = base_config(m=8, layers=12, pulses=6)
        res = run(cfg)
        limit = PARAMS.lam - PARAMS.d
        assert np.nanmax(res.correction) <= limit


class TestAlignmentEnforcement:
    def test_chain_cross_layer_shift_trips_assertion(self):
        """Chain-driven layer 0 forms a diagonal wavefront, so forcing the
        per-index alignment assertion on it must abort with diagnostics."""
        from gridpulse.errors import AlignmentError

        cfg = base_config(
            m=8, layers=3, pulses=6,
            source=SourceMode(kind="chain"),
            enforce_alignment=True,
        )
        with pytest.raises(AlignmentError):
            run(cfg)

    def test_auto_enablement_rules(self):
        assert run(base_config()).diagnostics.alignment_enforced
        placement = FaultPlacement(behaviors={(5, 4): FaultBehavior(kind="silent")})
        assert not run(base_config(placement=placement)).diagnostics.alignment_enforced
        chain = base_config(m=8, layers=2, source=SourceMode(kind="chain"))
        assert not run(chain).diagnostics.alignment_enforced


@st.composite
def clean_configs(draw, machine="simplified", wide=False):
    """Fault-free static ideal-source configs: validated constants, or with
    ``wide`` also out-of-regime ones (u up to 0.3 d, lam down to 1.05 d)."""
    kind = draw(st.sampled_from(["line", "ring", "grid"]))
    if kind == "line":
        base = build_line_with_replicated_ends(draw(st.integers(2, 10)))
    elif kind == "ring":
        n = draw(st.integers(3, 10))
        base = from_edges([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    else:
        rows, cols = draw(st.integers(2, 3)), draw(st.integers(2, 4))
        at = lambda i, j: i * cols + j  # noqa: E731
        base = from_edges([(at(i, j), at(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
                          + [(at(i, j), at(i + 1, j)) for i in range(rows - 1)
                             for j in range(cols)])
    layers = draw(st.integers(2, 5))
    d = draw(st.floats(0.5, 2.0))
    params = Params.derive(d=d, u=d * draw(st.floats(1e-4, 0.3 if wide else 3e-3)),
                           theta=1.0 + draw(st.floats(1e-6, 1e-3)),
                           lam=d * draw(st.floats(1.05 if wide else 1.5, 3.0)))
    if not wide:
        assume(validate_params(params, base.diameter) == [])
    strategy = draw(st.sampled_from(DELAY_STRATEGIES))
    custom = None
    if strategy == "custom-map":
        keys = delay_keys(build_layered(base, layers))
        custom = {key: draw(st.floats(params.d - params.u, params.d)) for key in keys}
    return RunConfig(
        base=base, layers=layers, params=params,
        source=SourceMode(kind="ideal", jitter=draw(st.floats(0.0, 1.0)) * params.kappa / 4,
                          seed=draw(st.integers(0, 2**31))),
        pulses=draw(st.integers(1, 5)),
        delay_strategy=strategy, delay_seed=draw(st.integers(0, 2**31)), custom_delays=custom,
        clock_strategy=draw(st.sampled_from(["uniform", "all-one", "all-max"])),
        clock_seed=draw(st.integers(0, 2**31)),
        machine=machine,
    )


@st.composite
def spread_configs(draw):
    """Fault-free static ideal-source full-machine configs on the line with
    replicated ends, m up to 64 and up to 16 layers, with a delay spread u up
    to the lam/10 quiet window: deep and wide enough for skew to build up, so
    that some nodes commit before their last arrival."""
    d = draw(st.floats(0.5, 2.0))
    lam = d * draw(st.floats(1.5, 3.0))
    params = Params.derive(d=d, u=lam / QUIET_DIVISOR * draw(st.floats(1e-3, 1.0)),
                           theta=1.0 + draw(st.floats(1e-6, 1e-3)), lam=lam)
    return RunConfig(
        base=build_line_with_replicated_ends(draw(st.integers(2, 64))),
        layers=draw(st.integers(2, 16)), params=params,
        source=SourceMode(kind="ideal", jitter=draw(st.floats(0.0, 1.0)) * params.kappa / 4,
                          seed=draw(st.integers(0, 2**31))),
        pulses=draw(st.integers(1, 5)),
        delay_strategy=draw(st.sampled_from(["uniform-random", "per-layer-alternating"])),
        delay_seed=draw(st.integers(0, 2**31)),
        clock_strategy=draw(st.sampled_from(["uniform", "all-one", "all-max"])),
        clock_seed=draw(st.integers(0, 2**31)),
    )


def spread_config(m, seed, spread):
    """A run on the line of m with replicated ends, 16 layers and 5 pulses,
    whose delays spread over ``spread`` of the lam/10 quiet window."""
    params = Params.derive(d=1.0, u=spread * 2.0 / QUIET_DIVISOR, theta=1.0002, lam=2.0)
    return base_config(m=m, layers=16, pulses=5, params=params, delay_seed=seed,
                       clock_seed=seed + 7,
                       source=SourceMode(kind="ideal", jitter=params.kappa / 4, seed=seed))


# Fixed before any kernel mutant was run against it. Together these take
# every commit branch of COMMIT_BRANCHES in the kernel itself.
SPREAD_CORPUS = {
    "m64_seed1": (64, 1, 0.1),
    "m64_seed2": (64, 2, 0.3),
    "m64_seed3": (64, 3, 0.1),
    "m32_seed1": (32, 1, 0.3),
}

COMMIT_BRANCHES = ("timer_between_arrivals", "arrival_before_last", "last_arrival",
                   "last_threshold", "early_second_arm")


def commit_branches(cfg, result) -> Counter:
    """How each node-pulse of layers >= 1 committed, recomputed from the
    local times of its arrivals: at a threshold timer before its last
    arrival, at an arrival before the last, at the last arrival or at the
    last threshold; ``early_second_arm`` counts in addition the commits
    without h_max."""
    inputs, base = _sample_inputs(cfg), cfg.base
    branches = Counter()
    for layer, k, v in np.ndindex(cfg.layers - 1, cfg.pulses, base.num_vertices):
        heard = sorted(inputs.offset[layer + 1, v] + inputs.rate[layer + 1, v] * (
            result.times[layer, k, w] + inputs.dag[layer, w, base.slots[w].index(v)])
            for w in (v, *base.adjacency[v]))
        exit_local = result.exit_local[layer + 1, k, v]
        before_last = exit_local < heard[-1]
        if exit_local in heard:
            branches["arrival_before_last" if before_last else "last_arrival"] += 1
        else:
            branches["timer_between_arrivals" if before_last else "last_threshold"] += 1
        if np.isnan(result.h_max[layer + 1, k, v]):
            branches["early_second_arm"] += 1
    return branches


# The configs of TestLayerKernel.test_fallback_equals_event_engine, by id.
FALLBACK_CASES = {
    "tie": (PARAMS, ("all-max", "all-one")),
    "split_wave": (Params.derive(d=1.0, u=0.5, theta=1.0002, lam=2.0),
                   ("uniform-random", "uniform")),
    "input_before_previous_pulse": (Params.derive(d=0.15, u=0.15, theta=1.01, lam=2.76),
                                    ("uniform-random", "all-one")),
}


def fallback_config(name):
    params, (delays, clocks) = FALLBACK_CASES[name]
    return base_config(m=3, layers=3, pulses=3, params=params, delay_seed=1,
                       source=SourceMode(kind="ideal"), delay_strategy=delays,
                       clock_strategy=clocks)


def spied_steps(cfg):
    """(what ``_layer_kernel`` returns on cfg, the value of each layer step
    it took, in layer order)."""
    steps, step = [], engine_module._layer_step

    def spy(*args):
        steps.append(step(*args))
        return steps[-1]

    with mock.patch.object(engine_module, "_layer_step", spy):
        kernel = _layer_kernel(cfg, _sample_inputs(cfg))
    return kernel, steps


RUN_ARRAYS = ("counts", "times", "local_times", *SNAPSHOT_FIELDS, "arm")


def assert_same_run(a, b):
    """Equal in every RunResult array, floats bit for bit (sign bits and NaNs
    included), in the diagnostics and in the completion record."""
    for name in RUN_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype == float:
            x, y = x.view(np.int64), y.view(np.int64)
        assert np.array_equal(x, y), name
    assert dataclasses.asdict(a.diagnostics) == dataclasses.asdict(b.diagnostics)
    assert (a.completed, a.incomplete_nodes, a.validation) == (
        b.completed, b.incomplete_nodes, b.validation)


def a1_shaped(m, seed):
    """An acceptance-battery config: 40 layers x 20 pulses at the A1 constants."""
    return base_config(m=m, layers=40, pulses=20,
                       source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=seed + 20_000_033),
                       delay_seed=seed, clock_seed=seed + 10_000_019)


class TestLayerKernel:
    @settings(max_examples=150, deadline=None)
    @given(clean_configs(machine="full", wide=True))
    def test_equals_event_engine(self, cfg):
        """run() (the kernel, or the event engine where the kernel falls
        back) equals the event engine, or both raise the same error type."""
        outcomes = []
        for execute in (run, run_events):
            try:
                outcomes.append(execute(cfg))
            except (ConfigurationError, ProtocolError) as exc:
                outcomes.append(type(exc))
        kernel, engine = outcomes
        if isinstance(kernel, type) or isinstance(engine, type):
            assert kernel == engine
        else:
            assert_same_run(kernel, engine)

    @settings(max_examples=100, deadline=None)
    @given(spread_configs())
    def test_spread_equals_event_engine(self, cfg):
        """As ``test_equals_event_engine``, on deeper and wider runs whose
        delay spread reaches the quiet window."""
        assert_same_run(run(cfg), run_events(cfg))

    @pytest.mark.parametrize("name", sorted(SPREAD_CORPUS))
    def test_spread_corpus_in_closed_form(self, name):
        cfg = spread_config(*SPREAD_CORPUS[name])
        kernel = _layer_kernel(cfg, _sample_inputs(cfg))
        assert kernel is not None
        assert_same_run(kernel, run_events(cfg))

    def test_spread_corpus_takes_every_commit_branch(self):
        """The kernel itself, not the event engine, commits nodes at a timer
        between arrivals, at an arrival before the last (a straggler), on the
        second arm without h_max, and at the last threshold."""
        branches, stragglers, early_exits = Counter(), 0, 0
        for m, seed, spread in SPREAD_CORPUS.values():
            cfg = spread_config(m, seed, spread)
            kernel = _layer_kernel(cfg, _sample_inputs(cfg))
            assert kernel is not None
            branches += commit_branches(cfg, kernel)
            stragglers += kernel.diagnostics.stragglers_dropped
            early_exits += kernel.diagnostics.early_second_arm_exits
        assert set(branches) >= {"timer_between_arrivals", "arrival_before_last",
                                 "last_threshold", "early_second_arm"}
        assert early_exits == branches["early_second_arm"]
        assert stragglers >= branches["timer_between_arrivals"] + branches["arrival_before_last"]

    def test_early_second_arm_exits_at_m64(self):
        """At m=64 (seed 1) 20 nodes commit on the second arm before their
        last neighbor arrives, and 40 arrivals come after a commit. The
        kernel reproduces both without falling back."""
        cfg = a1_shaped(64, 1)
        kernel = _layer_kernel(cfg, _sample_inputs(cfg))
        assert kernel is not None
        assert kernel.diagnostics.early_second_arm_exits == 20
        assert kernel.diagnostics.stragglers_dropped == 40
        assert_same_run(kernel, run_events(cfg))

    @pytest.mark.parametrize("m, seed", [(8, 1), (8, 1001), (32, 1), (32, 1001)])
    def test_battery_configs_stay_in_closed_form(self, m, seed):
        """``test_equals_event_engine`` passes even when the kernel always
        falls back, so the acceptance battery's configs are pinned to the
        closed form."""
        cfg = a1_shaped(m, seed)
        kernel = _layer_kernel(cfg, _sample_inputs(cfg))
        assert kernel is not None
        assert_same_run(kernel, run_events(cfg))

    def test_threshold_timer_fires_between_arrivals(self):
        """Node (2, 7) commits at its second-arm timer in all four waves,
        before its last neighbor arrives; that arrival is a straggler."""
        cfg = base_config(m=7, layers=8, pulses=4,
                          source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=24),
                          delay_seed=42, clock_strategy="all-one", clock_seed=3)
        kernel = _layer_kernel(cfg, _sample_inputs(cfg))
        assert kernel is not None
        early = np.isnan(kernel.h_max) & (kernel.arm == "corrected")
        assert np.argwhere(early).tolist() == [[7, k, 2] for k in range(4)]
        h_own, h_min = kernel.h_own[7, :, 2], kernel.h_min[7, :, 2]
        assert np.array_equal(kernel.exit_local[7, :, 2], 2 * h_own - h_min + 2 * KAPPA)
        assert kernel.diagnostics.stragglers_dropped == 4
        assert_same_run(kernel, run_events(cfg))

    @pytest.mark.parametrize("params, strategies", [
        # all-max delays on all-one clocks: every arrival of a wave at one instant
        (PARAMS, ("all-max", "all-one")),
        # u = d/2 >= lam/10 splits a wave into two listening phases
        (Params.derive(d=1.0, u=0.5, theta=1.0002, lam=2.0), ("uniform-random", "uniform")),
        # d small against lam: a catch-down correction delays a pulse past
        # the next wave's first arrival
        (Params.derive(d=0.15, u=0.15, theta=1.01, lam=2.76), ("uniform-random", "all-one")),
    ], ids=["tie", "split_wave", "input_before_previous_pulse"])
    def test_fallback_equals_event_engine(self, params, strategies):
        cfg = base_config(m=3, layers=3, pulses=3, params=params, delay_seed=1,
                          source=SourceMode(kind="ideal"),
                          delay_strategy=strategies[0], clock_strategy=strategies[1])
        assert _layer_kernel(cfg, _sample_inputs(cfg)) is None
        assert_same_run(run(cfg), run_events(cfg))

    @settings(max_examples=150, deadline=None)
    @given(clean_configs(machine="full", wide=True))
    def test_mask_contract(self, cfg):
        """The kernel falls back exactly where a step marks a node out of
        regime. In that first marked layer, every vertex with no marked pulse
        has the event engine's times, local times and snapshot, bit for bit."""
        kernel, steps = spied_steps(cfg)
        marked = [bool(step[-1].any()) for step in steps]
        assert marked == [False] * (len(steps) - 1) + [kernel is None]
        if kernel is not None:
            return
        try:
            engine = run_events(cfg)
        except (ConfigurationError, ProtocolError):
            return
        times, local_times, snapshot, _, out = steps[-1]
        keep = ~out.any(axis=0)
        for name, value in zip(("times", "local_times", *SNAPSHOT_FIELDS),
                               (times, local_times, *snapshot)):
            expected = getattr(engine, name)[len(steps), : cfg.pulses][:, keep]
            assert np.array_equal(value[:, keep].view(np.int64), expected.view(np.int64)), name

    @pytest.mark.parametrize("m, seed", [(8, 1), (8, 1001), (32, 1), (32, 1001)])
    def test_mask_empty_on_battery_configs(self, m, seed):
        kernel, steps = spied_steps(a1_shaped(m, seed))
        assert kernel is not None and len(steps) == 39
        assert not any(step[-1].any() for step in steps)

    @pytest.mark.parametrize("name, layer, marked", [
        ("tie", 1, 21), ("split_wave", 1, 9), ("input_before_previous_pulse", 2, 2),
    ])
    def test_mask_marks_the_out_of_regime_cells(self, name, layer, marked):
        """A tie marks every node-pulse of layer 1; a split wave and an input
        before the previous pulse mark some of their layer's 21 cells."""
        kernel, steps = spied_steps(fallback_config(name))
        assert kernel is None and len(steps) == layer
        assert np.count_nonzero(steps[-1][-1]) == marked

    def test_timeout_is_marked_not_raised(self):
        """An own copy that arrives after the first arm's threshold makes a
        timeout, with no h_own to correct from: the step marks that cell and
        computes the layer without raising."""
        cfg = base_config(m=4, layers=2, pulses=2)
        steps, step = [], engine_module._layer_step

        def late_own_copy(tables, arrival, off, rt):
            arrival = arrival.copy()
            arrival[0, 3, cfg.base.slots[3].index(3)] += 3 * KAPPA
            steps.append(step(tables, arrival, off, rt))
            return steps[-1]

        with mock.patch.object(engine_module, "_layer_step", late_own_copy):
            assert _layer_kernel(cfg, _sample_inputs(cfg)) is None
        times, _, (h_own, *_), _, out = steps[0]
        assert np.argwhere(out).tolist() == [[0, 3]]
        assert np.isnan(h_own[0, 3]) and np.isfinite(np.delete(times, 3, axis=1)).all()

    @pytest.mark.parametrize("edit", [
        {"delay_strategy": "all-max", "clock_strategy": "all-one"},  # the tie config
        {"placement": FaultPlacement(behaviors={
            (2, 1): FaultBehavior(kind="fixed_offset", offset=PARAMS.lam / 8)})},
    ], ids=["kernel_falls_back", "fault_free_twin"])
    def test_samples_once(self, monkeypatch, edit):
        """A run samples its graph, delays, clocks and layer-0 times once,
        whether the kernel falls back to the event engine or a fault-free twin
        runs first. The config is built first: a strict placement builds the
        graph once more, to check the placement, before anything runs."""
        cfg = base_config(m=3, layers=3, pulses=3, delay_seed=1,
                          source=SourceMode(kind="ideal"), **edit)
        calls = Counter()
        for name in ("build_layered", "sample_delays", "sample_clocks", "ideal_source_times"):
            def counted(*args, _name=name, _sample=getattr(engine_module, name), **kwargs):
                calls[_name] += 1
                return _sample(*args, **kwargs)
            monkeypatch.setattr(engine_module, name, counted)
        run(cfg)
        assert calls == {"build_layered": 1, "sample_delays": 1, "sample_clocks": 1,
                         "ideal_source_times": 1}

    def test_event_engine_runs_only_the_full_machine(self):
        with pytest.raises(ConfigurationError, match="only machine 'full'"):
            run_events(base_config(machine="simplified"))


class TestSimplifiedKernel:
    @settings(max_examples=150, deadline=None)
    @given(clean_configs())
    def test_equals_full_machine(self, cfg):
        """On validated fault-free static runs the closed-form simplified
        machine and the full machine on the event engine agree bit for bit
        (the full machine exits at its threshold, so exit_local differs)."""
        simp = run(cfg)
        full = run_events(dataclasses.replace(cfg, machine="full"))
        assert full.completed and simp.completed
        assert np.array_equal(simp.counts, full.counts)
        for name in ("times", "local_times", "h_own", "h_min", "h_max", "correction"):
            assert np.array_equal(getattr(simp, name), getattr(full, name), equal_nan=True), name
        assert np.array_equal(simp.arm, full.arm)

    def test_exits_at_last_arrival(self):
        """exit_local is the last of the node's arrivals, recomputed here from
        the run's delays and clocks, and the pulse fires at the corrected
        target or at that exit, whichever is later. These out-of-regime
        constants (lam - d below the delay spread) make both arms occur."""
        params = Params.derive(d=1.0, u=0.1, theta=1.0002, lam=1.02)
        cfg = base_config(m=3, layers=4, pulses=3, params=params, delay_seed=1, clock_seed=1,
                          source=SourceMode(kind="ideal"), machine="simplified")
        res = run(cfg)
        graph = build_layered(cfg.base, cfg.layers)
        dag, _ = sample_delays(graph, params, "uniform-random", seed=1)
        slots = cfg.base.slots
        rate, offset = sample_clocks(graph, params, "uniform", seed=1)
        clamped = 0
        for layer in range(1, cfg.layers):
            for v in cfg.base.vertices:
                for k in range(cfg.pulses):
                    last = max(
                        offset[layer, v] + rate[layer, v] * (
                            res.times[layer - 1, k, w] + dag[layer - 1, w, slots[w].index(v)])
                        for w in (v, *cfg.base.adjacency[v])
                    )
                    assert res.exit_local[layer, k, v] == last
                    nominal = (res.h_own[layer, k, v] + params.lam - params.d
                               - res.correction[layer, k, v])
                    assert res.local_times[layer, k, v] == max(nominal, last)
                    clamped += nominal < last
        assert 0 < clamped < (cfg.layers - 1) * cfg.base.num_vertices * cfg.pulses

    def test_wave_outside_one_listening_phase_rejected(self):
        """Delays spread by u = d/2 >= lam/10 split a wave into two listening
        phases; an event-driven node would wait forever for its inputs."""
        params = Params.derive(d=1.0, u=0.5, theta=1.0002, lam=2.0)
        cfg = base_config(m=3, layers=3, pulses=2, params=params, delay_seed=1,
                          source=SourceMode(kind="ideal"), machine="simplified")
        with pytest.raises(ConfigurationError, match=r"node \(v=3, layer=1\) pulse 1 is not one"):
            run(cfg)

    def test_input_before_previous_pulse_rejected(self):
        """With d small against lam, a catch-down correction delays a pulse
        past the next wave's first arrival."""
        params = Params.derive(d=0.15, u=0.15, theta=1.01, lam=2.76)
        cfg = base_config(m=3, layers=3, pulses=3, params=params, delay_seed=1,
                          clock_strategy="all-one", source=SourceMode(kind="ideal"),
                          machine="simplified")
        with pytest.raises(ConfigurationError,
                           match=r"node \(v=6, layer=2\) pulse 2 receives an input"):
            run(cfg)

    @pytest.mark.parametrize("edit", [
        {"placement": FaultPlacement(behaviors={(4, 5): FaultBehavior(kind="silent")})},
        {"source": SourceMode(kind="chain")},
        {"corruption": CorruptionSpec(node_fraction=0.5)},
        {"perturbation": PerturbationSpec(delay_magnitude=1e-4)},
    ], ids=["silent_fault", "chain", "corrupted", "perturbed"])
    def test_needs_clean_ideal_static_run(self, edit):
        with pytest.raises(ConfigurationError, match="machine 'simplified' needs"):
            base_config(m=8, layers=12, pulses=8, machine="simplified", **edit)

    def test_diagnostics_count_the_event_engine_work(self):
        """messages = (L-1) K sum(deg+1), one pulse timer per node-pulse, and
        one reopen and one committing straggler per wave of every node."""
        cfg = base_config(m=8, layers=6, pulses=4, machine="simplified")
        diag = run(cfg).diagnostics
        waves = 5 * 12 * 4
        inputs = sum(len(cfg.base.adjacency[v]) + 1 for v in cfg.base.vertices)
        assert diag.messages == 5 * 4 * inputs
        assert diag.events == diag.messages + waves
        assert diag.reopens == diag.stragglers_dropped == waves
        assert diag.stale_timers == diag.rate_filtered == diag.timeouts_first_arm == 0
        assert diag.alignment_enforced


def engine_only_config(kind, seed):
    """Runs that only the event engine can do (chain source, corrupted
    start, perturbation, faults), on the inputs of one seed."""
    cfg = base_config(m=8, layers=8, pulses=8, delay_seed=seed, clock_seed=seed + 10_000_019,
                      source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=seed + 20_000_033))
    caps = perturbation_caps(cfg.base.num_vertices * cfg.layers, cfg.base.diameter, PARAMS)
    if kind == "chain":
        return dataclasses.replace(cfg, layers=4, source=SourceMode(kind="chain"))
    if kind == "chain_perturb":  # the chain hops come first in the perturbation draws
        return dataclasses.replace(
            cfg, layers=4, source=SourceMode(kind="chain"),
            perturbation=PerturbationSpec(delay_magnitude=caps[0] / 2,
                                          rate_magnitude=caps[1] / 2, seed=seed))
    if kind == "edge_list_perturb":  # degrees 3, 2, 3, 4, 2, 2: ragged delay rows
        base = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5), (5, 3)])
        caps = perturbation_caps(base.num_vertices * cfg.layers, base.diameter, PARAMS)
        return dataclasses.replace(
            cfg, base=base,
            perturbation=PerturbationSpec(delay_magnitude=caps[0] / 2,
                                          rate_magnitude=caps[1] / 2, seed=seed))
    if kind in ("corrupt_all", "corrupt_half"):
        spec = (CorruptionSpec(node_fraction=1.0, max_spurious_messages=8) if kind == "corrupt_all"
                else CorruptionSpec(node_fraction=0.5, max_spurious_messages=4))
        return dataclasses.replace(cfg, corruption=spec, corruption_seed=seed)
    if kind == "perturb_delay":
        return dataclasses.replace(
            cfg, perturbation=PerturbationSpec(delay_magnitude=caps[0] / 2, seed=seed))
    if kind == "perturb_faults":
        behaviors = {
            (5, 2): FaultBehavior(kind="fixed_offset", offset=PARAMS.lam / 8),
            (2, 4): FaultBehavior(kind="burst", count=3, spacing=0.05, recipients=(1, 3)),
            (8, 6): FaultBehavior(kind="scripted",
                                  times=tuple(PARAMS.lam * (k + 6) + 0.001 for k in range(6))),
            (4, 7): FaultBehavior(kind="per_pulse_offset",
                                  offsets=(0.0, PARAMS.lam / 8, -PARAMS.lam / 8)),
        }
        return dataclasses.replace(
            cfg, placement=FaultPlacement(behaviors=behaviors),
            perturbation=PerturbationSpec(delay_magnitude=caps[0] / 2,
                                          rate_magnitude=caps[1] / 2, seed=seed))
    assert kind == "silent_nonstrict"
    behaviors = {node: FaultBehavior(kind="silent") for node in ((6, 4), (8, 4), (3, 2))}
    return dataclasses.replace(cfg, placement=FaultPlacement(behaviors=behaviors, strict=False))


def run_digest(result) -> str:
    """SHA-256 over every RunResult array, the diagnostics and the completion record."""
    digest = hashlib.sha256()
    for name in RUN_ARRAYS:
        x = getattr(result, name)
        digest.update(f"{name}{x.shape}{x.dtype}".encode())
        digest.update(json.dumps(x.tolist()).encode() if x.dtype == object
                      else np.ascontiguousarray(x).tobytes())
    digest.update(json.dumps([dataclasses.asdict(result.diagnostics), result.completed,
                              result.incomplete_nodes]).encode())
    return digest.hexdigest()


# Recorded before the event engine moved to integer node ids and flat lists.
ENGINE_ONLY_DIGESTS = {
    ("chain", 1): "f48e461ec758c1c5791c69367a42565f002ac184bd2d02fc2a93bf0a34fd3ba2",
    ("chain", 2): "33f8852e76aecc11db6afd2732704ff5414d618d1949487c823383a5222abc1e",
    ("chain", 3): "f8560fb34b79f0d5dfc237de0ee3579983e493025c3a9a3f169b6780fb819177",
    ("corrupt_all", 1): "b3790f103746ba4b936779e1c82cb6ae1eebea0a8c82234c284202cdbbe4a171",
    ("corrupt_all", 2): "66940ddda2f8aa9818299ce99cf6d4bed01782d0cec053784f98a6499c2307fe",
    ("corrupt_all", 3): "9bd738adc8a564dd62313feda4a85752594862ac4f962ff33780c1027289af00",
    ("corrupt_half", 1): "70cd618f57d8df13c2e67451889a039e34a22c4d7cd14f09a9bca00ad2120fff",
    ("corrupt_half", 2): "0374ab1ec011bdabcc382a72ddeb55dc37e09a10e91395c1100f2e005d8190ea",
    ("corrupt_half", 3): "a1be17b5ded2611a37ad21a10fe16ea97c5a8b70e4cc9df156adbc579d769ff2",
    ("perturb_delay", 1): "c88ca9a4a2df88bcedeca77e2f82f89225e8e77bcb5de9bc02d095f3a30a351d",
    ("perturb_delay", 2): "119e5d76c4bb6cfbc77e1901743f1bdb2cdd74307a0e4a801badf68e0af55418",
    ("perturb_delay", 3): "6bdcf21f961500b243676ddd4445125e0b3216e381c79bfd5be4d180794820eb",
    ("perturb_faults", 1): "899f62ed45bf84279d0236149f4fe26e15b58a49a87414aa679bdbb8ca46f39d",
    ("perturb_faults", 2): "b73d703d2ab5ffd30776bc9a4271a90e8604102d128a6c188309dbc4fc8644a8",
    ("perturb_faults", 3): "b8e1b5730216390eded3979596752f748782e9c14c958a36a973808e98aba466",
    ("silent_nonstrict", 1): "e210ef65dee1a18cb2b6f1d4e7be1e72c0727eb4d7978179b124a327a4a522bc",
    ("silent_nonstrict", 2): "a9e2120397a132fe5fe79098b35e3a211bb5c7a3bfc435b5e9d5cd0eeb22bf07",
    ("silent_nonstrict", 3): "be8a06ed26e6844d7e6dabe68ba4e3b06c914539592fa5707e8d6a008ea06e15",
    # Recorded before the delays became dense [layer, vertex, slot] tables.
    ("chain_perturb", 1): "e65e2f570a039d291befcc7a4163e6fbf7a965f3d6973112e1fc19070148a5c1",
    ("chain_perturb", 2): "88f52ff00cf2d6cd2334c19c0437bb5ef76b22f9ef032acf0d4119f4bc7976ac",
    ("chain_perturb", 3): "7127affe0a272e4e95f8349a831d2a6905ad157e72e3139f392afe017325fb49",
    ("edge_list_perturb", 1): "b95ffd4059b2cc41fbe08698a53253d0f652201e7b18a9208fdf0eac2c7a81be",
    ("edge_list_perturb", 2): "336eaf48c84d9d66d84d83cf0eb8c86fbe69da6fbbe674c13ebf97b6ad78e309",
    ("edge_list_perturb", 3): "f0eef0a6863c9d37cb48f1b6691fce71188025385666f7f867de9fc8a7d1a723",
}


class TestEngineOnlyGolden:
    @pytest.mark.parametrize("kind, seed", sorted(ENGINE_ONLY_DIGESTS),
                             ids=[f"{k}-{s}" for k, s in sorted(ENGINE_ONLY_DIGESTS)])
    def test_digest_pinned(self, kind, seed):
        assert run_digest(run(engine_only_config(kind, seed))) == ENGINE_ONLY_DIGESTS[kind, seed]
