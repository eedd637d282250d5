"""Parameter derivation, validation, delays, and clocks."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridpulse.errors import ConfigurationError
from gridpulse.timing import (
    Params,
    derive_kappa,
    local_skew_budget,
    sample_clocks,
    sample_delays,
    validate_params,
)
from gridpulse.topology import build_layered, build_line_with_replicated_ends


class TestDeriveKappa:
    def test_reference_values(self):
        kap = derive_kappa(1.0, 0.002, 1.0002, 2.0)
        assert kap == pytest.approx(0.0043999200159968, abs=1e-15)

    def test_no_drift_term_when_period_equals_delay(self):
        assert derive_kappa(1.0, 0.002, 1.0002, 1.0) == pytest.approx(0.004)

    def test_rate_one_leaves_uncertainty_only(self):
        assert derive_kappa(1.0, 0.01, 1.0, 7.0) == pytest.approx(0.02)

    def test_zero_kappa_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_kappa(1.0, 0.0, 1.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=100),
        st.floats(min_value=1e-6, max_value=0.1),
        st.floats(min_value=1.0 + 1e-9, max_value=2.0),
        st.floats(min_value=0.0, max_value=100),
    )
    def test_component_lower_bounds(self, d, u, theta_, extra):
        lam = d + extra
        kap = derive_kappa(d, u, theta_, lam)
        assert kap >= 2 * u - 1e-15
        assert kap >= 2 * (1 - 1 / theta_) * (lam - d) - 1e-15


class TestParams:
    def test_factory_round_trip(self):
        p = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
        assert p.kappa == derive_kappa(1.0, 0.002, 1.0002, 2.0)

    def test_mismatched_kappa_rejected(self):
        with pytest.raises(ConfigurationError):
            Params(d=1.0, u=0.002, theta=1.0002, lam=2.0, kappa=0.123)

    def test_u_above_d_rejected(self):
        with pytest.raises(ConfigurationError):
            Params.derive(d=1.0, u=1.5, theta=1.1, lam=2.0)


class TestValidateParams:
    def test_reference_configuration_passes(self):
        p = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
        budget = local_skew_budget(p, 5)
        # independent recomputation of both constraint sides
        assert budget == pytest.approx(4 * p.kappa * (2 + math.log2(5)))
        need_lam = 2 * p.theta * (budget + p.u) + p.d
        need_d = 2 * (p.theta * (budget + p.u) + p.kappa)
        assert p.lam >= need_lam and p.d >= need_d
        assert validate_params(p, 5) == []

    def test_period_equal_delay_violates(self):
        p = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=1.0 + 1e-9)
        violations = validate_params(p, 5)
        assert any("period margin" in v for v in violations)

    def test_degenerate_constant_passes_vacuously(self):
        p = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0, validation_constant=0.0)
        assert validate_params(p, 1000) == []


@pytest.fixture(scope="module")
def small_world():
    base = build_line_with_replicated_ends(4)
    graph = build_layered(base, 3)
    params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
    return graph, params


class TestDelays:
    def test_all_max(self, small_world):
        graph, params = small_world
        a = sample_delays(graph, params, "all-max")
        assert all(v == params.d for v in a.delays.values())

    def test_all_min(self, small_world):
        graph, params = small_world
        a = sample_delays(graph, params, "all-min")
        assert all(v == params.d - params.u for v in a.delays.values())

    def test_uniform_deterministic(self, small_world):
        graph, params = small_world
        a = sample_delays(graph, params, "uniform-random", seed=9)
        b = sample_delays(graph, params, "uniform-random", seed=9)
        assert a.delays == b.delays
        c = sample_delays(graph, params, "uniform-random", seed=10)
        assert a.delays != c.delays

    def test_alternating_layers(self, small_world):
        graph, params = small_world
        a = sample_delays(graph, params, "per-layer-alternating")
        for key, value in a.delays.items():
            layer = key[2] if key[0] == "dag" else key[1]
            expected = params.d - params.u if layer % 2 == 0 else params.d
            assert value == expected

    def test_custom_out_of_range_rejected(self, small_world):
        graph, params = small_world
        good = sample_delays(graph, params, "all-max")
        bad = dict(good.delays)
        bad[next(iter(bad))] = params.d + 1.0
        with pytest.raises(ConfigurationError):
            sample_delays(graph, params, "custom-map", custom=bad)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["uniform-random", "all-min", "all-max", "per-layer-alternating"]),
           st.integers(min_value=0, max_value=2**30))
    def test_all_strategies_in_range(self, strategy, seed):
        base = build_line_with_replicated_ends(3)
        graph = build_layered(base, 3)
        params = Params.derive(d=1.0, u=0.25, theta=1.05, lam=3.0)
        a = sample_delays(graph, params, strategy, seed=seed)
        assert all(params.d - params.u <= v <= params.d for v in a.delays.values())

    def test_chain_edges_present(self, small_world):
        graph, params = small_world
        a = sample_delays(graph, params, "all-max")
        info = graph.base.line_info
        assert ("chain", 0, info.line[0]) in a.delays
        assert ("chain", 0, info.start_replicas[0]) in a.delays
        assert ("chain", len(info.line) - 1, info.end_replicas[0]) in a.delays


class TestClocks:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30))
    def test_rates_in_range(self, seed):
        base = build_line_with_replicated_ends(3)
        graph = build_layered(base, 3)
        params = Params.derive(d=1.0, u=0.1, theta=1.3, lam=3.0)
        rate, offset = sample_clocks(graph, params, "uniform", seed)
        assert rate.shape == offset.shape == (3, base.num_vertices)
        assert np.all((1.0 <= rate) & (rate <= params.theta))
        assert np.all((0.0 <= offset) & (offset <= params.lam))

    def test_uniform_draw_order(self, small_world):
        """A rate and then an offset per node, nodes in (layer, vertex) order."""
        graph, params = small_world
        rate, offset = sample_clocks(graph, params, "uniform", seed=5)
        rng = random.Random(5)
        for layer in range(graph.num_layers):
            for v in graph.base.vertices:
                assert rate[layer, v] == rng.uniform(1.0, params.theta)
                assert offset[layer, v] == rng.uniform(0.0, params.lam)

    def test_all_one_is_identity(self, small_world):
        graph, params = small_world
        rate, offset = sample_clocks(graph, params, "all-one", seed=0)
        assert np.all(rate == 1.0) and np.all(offset == 0.0)

    def test_all_max_runs_at_theta(self, small_world):
        graph, params = small_world
        rate, offset = sample_clocks(graph, params, "all-max", seed=0)
        assert np.all(rate == params.theta) and np.all(offset == 0.0)

    def test_unknown_strategy_rejected(self, small_world):
        graph, params = small_world
        with pytest.raises(ConfigurationError, match="unknown clock strategy"):
            sample_clocks(graph, params, "fast", seed=0)


class TestMeasurementErrorBound:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30))
    def test_interval_measurement_error(self, seed):
        """Reception-interval measurements stay within the derived error bound,
        which in turn is at most kappa/2 in the validated regime."""
        rng = random.Random(seed)
        p = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
        budget = local_skew_budget(p, 33)
        assert validate_params(p, 33) == []
        t1 = rng.uniform(0.0, 100.0)
        t2 = t1 + rng.uniform(-budget, budget)
        d1 = rng.uniform(p.d - p.u, p.d)
        d2 = rng.uniform(p.d - p.u, p.d)
        rate = rng.uniform(1.0, p.theta)
        measured = rate * ((t1 + d1) - (t2 + d2))
        true = t1 - t2
        bound = (p.theta - 1.0) * (budget + p.u) + p.u
        assert abs(measured - true) <= bound + 1e-12
        assert bound <= p.kappa / 2 + 1e-15
