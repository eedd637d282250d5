"""Fault behaviors, placements, and perturbation sampling."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridpulse.errors import ConfigurationError
from gridpulse.faults import (
    FaultBehavior,
    faulty_emissions,
    perturbation_caps,
    perturb_between_pulses,
    sample_placement,
    validate_placement,
)
from gridpulse.timing import Params
from gridpulse.topology import build_layered, build_line_with_replicated_ends


class TestBehaviors:
    def test_silent_never_emits(self):
        b = FaultBehavior(kind="silent")
        for k in (1, 2, 7):
            assert faulty_emissions(b, [1.0, 2.0, 3.0], k) == []

    def test_fixed_offset(self):
        b = FaultBehavior(kind="fixed_offset", offset=0.4)
        assert faulty_emissions(b, [12.0], 1) == [(12.4, None)]

    def test_burst_spacing(self):
        b = FaultBehavior(kind="burst", count=3, spacing=0.1)
        times = [t for t, _ in faulty_emissions(b, [12.0], 1)]
        assert times == pytest.approx([12.0, 12.1, 12.2])

    def test_scripted_exhaustion_falls_silent(self):
        b = FaultBehavior(kind="scripted", times=(5.0, 7.0))
        assert faulty_emissions(b, None, 1) == [(5.0, None)]
        assert faulty_emissions(b, None, 2) == [(7.0, None)]
        assert faulty_emissions(b, None, 3) == []

    def test_per_pulse_offset_holds_last(self):
        b = FaultBehavior(kind="per_pulse_offset", offsets=(0.1, -0.2))
        assert faulty_emissions(b, [10.0, 12.0, 14.0], 3) == [(14.0 - 0.2, None)]

    def test_recipients_narrowing(self):
        b = FaultBehavior(kind="fixed_offset", offset=0.0, recipients=(3, 4))
        assert faulty_emissions(b, [9.0], 1) == [(9.0, (3, 4))]

    def test_decreasing_script_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultBehavior(kind="scripted", times=(5.0, 4.0))

    def test_zero_spacing_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultBehavior(kind="burst", count=2, spacing=0.0)


class TestPlacementValidation:
    def setup_method(self):
        self.base = build_line_with_replicated_ends(6)
        self.graph = build_layered(self.base, 10)

    def test_empty_placement_valid(self):
        assert validate_placement(self.graph, frozenset()) == []

    def test_adjacent_pair_lists_common_successors(self):
        # two adjacent line vertices on one layer poison their shared successors
        v, w = 4, 5
        bad = validate_placement(self.graph, {(v, 3), (w, 3)})
        common = sorted(
            (x, 4)
            for x in self.base.vertices
            if {v, w} <= set((x, *self.base.adjacency[x]))
        )
        assert bad == common
        assert bad  # the pair genuinely conflicts

    def test_last_layer_faults_never_violate(self):
        v, w = 4, 5
        assert validate_placement(self.graph, {(v, 9), (w, 9)}) == []

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30))
    def test_matches_per_node_count_oracle(self, seed):
        rng = random.Random(seed)
        members = {
            (v, layer)
            for layer in range(self.graph.num_layers)
            for v in self.base.vertices
            if rng.random() < 0.3
        }
        got = validate_placement(self.graph, members)
        expected = []
        for layer in range(1, self.graph.num_layers):
            for v in self.base.vertices:
                preds = {(w, layer - 1) for w in (v, *self.base.adjacency[v])}
                if len(preds & members) >= 2:
                    expected.append((v, layer))
        assert got == sorted(expected)


class TestSamplePlacement:
    def setup_method(self):
        self.graph = build_layered(build_line_with_replicated_ends(6), 10)

    def test_probability_zero_empty(self):
        assert len(sample_placement(self.graph, 0.0, seed=1)) == 0

    def test_probability_one_covers_all_but_layer_zero(self):
        placement = sample_placement(self.graph, 1.0, seed=1)
        nv = self.graph.base.num_vertices
        assert len(placement) == nv * (self.graph.num_layers - 1)
        assert all(layer >= 1 for _, layer in placement.members)

    def test_seed_reproducible(self):
        a = sample_placement(self.graph, 0.3, seed=9)
        b = sample_placement(self.graph, 0.3, seed=9)
        assert a.members == b.members


class TestPerturbation:
    def test_cap_reference_value(self):
        params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
        delay_cap, rate_cap = perturbation_caps(1000, 34, params)
        assert delay_cap == pytest.approx(params.u * math.log2(34) / math.sqrt(1000))
        assert delay_cap / params.u == pytest.approx(0.1609, abs=2e-4)
        assert rate_cap == pytest.approx((params.theta - 1) * math.log2(34) / math.sqrt(1000))

    def test_zero_magnitudes_identity(self):
        params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
        delays, rates = [0.999, float("nan"), 0.9995], [1.0001, 1.0]
        nd, nr = list(delays), list(rates)
        perturb_between_pulses(nd, nr, [0, 2], [0, 1], (0.0, 0.0), 1, 7, params)
        assert nd[::2] == delays[::2] and nr == rates

    def test_results_clamped_into_range(self):
        params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
        caps = perturbation_caps(1000, 34, params)
        delays, rates = [params.d, params.d - params.u], [params.theta, 1.0]
        perturb_between_pulses(delays, rates, [0, 1], [0, 1], caps, 2, 11, params)
        assert all(params.d - params.u <= v <= params.d for v in delays)
        assert all(1.0 <= v <= params.theta for v in rates)

    def test_draws_follow_the_given_order(self):
        """Delays in delay_order, then rates in rate_order, from one stream;
        entries outside the orders are not touched."""
        params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
        caps = perturbation_caps(1000, 34, params)
        forward, backward = [0.999, 0.999, -1.0], [0.999, 0.999, -1.0]
        rates = [1.0001, 1.0001]
        perturb_between_pulses(forward, list(rates), [0, 1], [0, 1], caps, 3, 5, params)
        perturb_between_pulses(backward, rates, [1, 0], [1, 0], caps, 3, 5, params)
        assert forward[:2] == backward[1::-1] and forward[2] == backward[2] == -1.0
        assert rates[0] != rates[1]

    def test_deterministic_per_seed_and_pulse(self):
        params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
        caps = perturbation_caps(1000, 34, params)

        def perturbed(pulse_index):
            delays = [0.999]
            perturb_between_pulses(delays, [], [0], [], caps, pulse_index, 5, params)
            return delays

        assert perturbed(3) == perturbed(3)
        assert perturbed(3) != perturbed(4)
