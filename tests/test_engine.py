"""Engine: determinism, closed forms, fault routing, paired runs, corruption."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gridpulse.engine import (
    CorruptionSpec,
    PerturbationSpec,
    RunConfig,
    corrupt_initial_state,
    run,
    run_paired,
)
from gridpulse.errors import ConfigurationError
from gridpulse.faults import FaultBehavior, FaultPlacement
from gridpulse.protocol import SourceMode
from gridpulse.timing import (DELAY_STRATEGIES, Params, sample_clocks, sample_delays,
                              validate_params)
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
        with_fault, healed = run_paired(cfg, (5, 4))
        others = np.ones(healed.counts.shape, dtype=bool)
        others[4, 5] = False
        assert same_pulses(with_fault, healed, keep=others)


class TestPairedRuns:
    def test_healing_bound_at_successors(self):
        placement = FaultPlacement(behaviors={(5, 4): FaultBehavior(kind="silent")})
        cfg = base_config(placement=placement)
        with_fault, healed = run_paired(cfg, (5, 4))
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
        with_fault, healed = run_paired(cfg, (5, 3))
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

    def test_heal_requires_membership(self):
        with pytest.raises(ConfigurationError):
            run_paired(base_config(), (5, 4))


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

    def test_plan_reproducible(self):
        graph = build_layered(build_line_with_replicated_ends(6), 8)
        spec = CorruptionSpec(node_fraction=0.5, max_spurious_messages=4)
        a = corrupt_initial_state(graph, spec, seed=3, params=PARAMS)
        b = corrupt_initial_state(graph, spec, seed=3, params=PARAMS)
        assert a == b
        c = corrupt_initial_state(graph, spec, seed=4, params=PARAMS)
        assert a != c

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
        cfg = dataclasses.replace(
            cfg0, perturbation=PerturbationSpec(delay_magnitude=caps[0] * 2)
        )
        with pytest.raises(ConfigurationError):
            run(cfg)


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
def simplified_configs(draw):
    """Validated fault-free static ideal-source configs for machine 'simplified'."""
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
    params = Params.derive(d=d, u=d * draw(st.floats(1e-4, 3e-3)),
                           theta=1.0 + draw(st.floats(1e-6, 1e-3)), lam=d * draw(st.floats(1.5, 3.0)))
    assume(validate_params(params, base.diameter) == [])
    strategy = draw(st.sampled_from(DELAY_STRATEGIES))
    custom = None
    if strategy == "custom-map":
        keys = sample_delays(build_layered(base, layers), params, "all-min").delays
        custom = {key: draw(st.floats(params.d - params.u, params.d)) for key in keys}
    return RunConfig(
        base=base, layers=layers, params=params,
        source=SourceMode(kind="ideal", jitter=draw(st.floats(0.0, 1.0)) * params.kappa / 4,
                          seed=draw(st.integers(0, 2**31))),
        pulses=draw(st.integers(1, 5)),
        delay_strategy=strategy, delay_seed=draw(st.integers(0, 2**31)), custom_delays=custom,
        clock_strategy=draw(st.sampled_from(["uniform", "all-one", "all-max"])),
        clock_seed=draw(st.integers(0, 2**31)),
        machine="simplified",
    )


class TestSimplifiedKernel:
    @settings(max_examples=150, deadline=None)
    @given(simplified_configs())
    def test_equals_full_machine(self, cfg):
        """On validated fault-free static runs the closed-form simplified
        machine and the event-driven full machine agree bit for bit (the
        full machine exits at its threshold, so exit_local differs)."""
        simp = run(cfg)
        full = run(dataclasses.replace(cfg, machine="full"))
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
        delays = sample_delays(graph, params, "uniform-random", seed=1)
        clocks = sample_clocks(graph, params, "uniform", seed=1)
        clamped = 0
        for layer in range(1, cfg.layers):
            for v in cfg.base.vertices:
                for k in range(cfg.pulses):
                    last = max(
                        clocks[(v, layer)].local(
                            res.times[layer - 1, k, w] + delays[("dag", w, layer - 1, v)])
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
