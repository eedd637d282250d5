"""Parameter derivation, validation, delays, and clocks."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridpulse.engine import RunConfig
from gridpulse.errors import ConfigurationError
from gridpulse.protocol import SourceMode
from gridpulse.timing import (
    Params,
    chain_edges,
    delay_keys,
    derive_kappa,
    local_skew_budget,
    sample_clocks,
    sample_delays,
    validate_params,
)
from gridpulse.topology import build_layered, build_line_with_replicated_ends, from_edges


class TestDeriveKappa:
    def test_reference_values(self):
        kap = derive_kappa(1.0, 0.002, 1.0002, 2.0)
        assert kap == pytest.approx(0.0043999200159968, abs=1e-15)

    def test_no_drift_term_when_period_equals_delay(self):
        assert derive_kappa(1.0, 0.002, 1.0002, 1.0) == pytest.approx(0.004)

    def test_rate_one_leaves_uncertainty_only(self):
        assert derive_kappa(1.0, 0.01, 1.0, 7.0) == pytest.approx(0.02)

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

    def test_kappa_is_not_settable(self):
        with pytest.raises(TypeError):
            Params(d=1.0, u=0.002, theta=1.0002, lam=2.0, kappa=0.123)

    @pytest.mark.parametrize("message,edits", [
        ("need 0 < u <= d", ({"u": -0.001}, {"u": 0.0}, {"u": 1.5})),
        ("need theta > 1", ({"theta": 0.9}, {"theta": 1.0})),
        ("need lam > d", ({"lam": 0.5}, {"lam": 1.0})),
        ("validation constant must be >= 0",
         ({"validation_constant": -1.0}, {"validation_constant": -1e-12})),
    ], ids=["u", "theta", "lam", "validation_constant"])
    def test_each_timing_rule_has_one_message(self, message, edits):
        """Values on either side of where the kappa formula degenerates break
        the same rule, with the same message."""
        for edit in edits:
            with pytest.raises(ConfigurationError, match=rf"^{message}"):
                Params(**{"d": 1.0, "u": 0.002, "theta": 1.0002, "lam": 2.0, **edit})

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=100),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
        st.floats(min_value=1e-6, max_value=100),
    )
    def test_kappa_is_its_formula_and_positive(self, d, u_share, theta_, extra):
        p = Params(d=d, u=u_share * d, theta=theta_, lam=d + extra)
        assert p.kappa == derive_kappa(p.d, p.u, p.theta, p.lam)
        assert p.kappa > 0.0

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

    def test_budget_needs_a_diameter(self):
        p = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
        with pytest.raises(ConfigurationError, match="diameter must be >= 1, got 0"):
            local_skew_budget(p, 0)


@pytest.fixture(scope="module")
def small_world():
    base = build_line_with_replicated_ends(4)
    graph = build_layered(base, 3)
    params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
    return graph, params


def drawn(graph, params, strategy, **kw) -> dict:
    """sample_delays' tables as a dict keyed by delays.map key."""
    dag, chain = sample_delays(graph, params, strategy, **kw)
    return dict(zip(delay_keys(graph), [*dag[~np.isnan(dag)], *chain]))


class TestDelays:
    def test_all_max(self, small_world):
        graph, params = small_world
        assert all(v == params.d for v in drawn(graph, params, "all-max").values())

    def test_all_min(self, small_world):
        graph, params = small_world
        assert all(v == params.d - params.u for v in drawn(graph, params, "all-min").values())

    def test_uniform_deterministic(self, small_world):
        graph, params = small_world
        a = drawn(graph, params, "uniform-random", seed=9)
        assert a == drawn(graph, params, "uniform-random", seed=9)
        assert a != drawn(graph, params, "uniform-random", seed=10)
        rng = random.Random(9)  # one draw per edge, in delays.map key order
        assert list(a.values()) == [rng.uniform(params.d - params.u, params.d) for _ in a]

    def test_alternating_layers(self, small_world):
        graph, params = small_world
        for key, value in drawn(graph, params, "per-layer-alternating").items():
            layer = key[2] if key[0] == "dag" else key[1]
            expected = params.d - params.u if layer % 2 == 0 else params.d
            assert value == expected

    def test_unknown_strategy_rejected(self, small_world):
        graph, params = small_world
        with pytest.raises(ConfigurationError, match="unknown delay strategy 'fastest'"):
            sample_delays(graph, params, "fastest", seed=0)

    def test_custom_out_of_range_rejected(self, small_world):
        """The range of a custom map is checked when the config is built:
        sample_delays reads a map that RunConfig has accepted."""
        graph, params = small_world
        bad = drawn(graph, params, "all-max")
        bad[next(iter(bad))] = params.d + 1.0
        with pytest.raises(ConfigurationError, match=r"^delays.map\[0\]: .* outside"):
            RunConfig(base=graph.base, layers=graph.num_layers, params=params,
                      source=SourceMode(kind="ideal"), pulses=2, delay_strategy="custom-map",
                      custom_delays=bad)

    def test_custom_map_fills_the_slot_table(self):
        """Entry [l, v, j] is the edge from (v, l) to (slots[v][j], l+1); the
        padding past slot deg(v) is NaN. Degrees here are 3, 2, 3, 4, 2, 2."""
        base = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5), (5, 3)])
        graph = build_layered(base, 3)
        params = Params.derive(d=1.0, u=0.25, theta=1.05, lam=3.0)
        keys = delay_keys(graph)
        custom = {key: 0.75 + e / 1000 for e, key in enumerate(keys)}
        dag, chain = sample_delays(graph, params, "custom-map", custom=custom)
        assert dag.shape == (2, 6, 5) and chain.size == 0
        for layer in range(2):
            for v in base.vertices:
                row = base.slots[v]
                assert dag[layer, v, :len(row)].tolist() == [
                    custom["dag", v, layer, w] for w in row]
                assert np.isnan(dag[layer, v, len(row):]).all()

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["uniform-random", "all-min", "all-max", "per-layer-alternating"]),
           st.integers(min_value=0, max_value=2**30))
    def test_all_strategies_in_range(self, strategy, seed):
        base = build_line_with_replicated_ends(3)
        graph = build_layered(base, 3)
        params = Params.derive(d=1.0, u=0.25, theta=1.05, lam=3.0)
        a = drawn(graph, params, strategy, seed=seed)
        assert len(a) == len(delay_keys(graph))
        assert all(params.d - params.u <= v <= params.d for v in a.values())

    def test_chain_edges_present(self, small_world):
        graph, params = small_world
        a = drawn(graph, params, "all-max")
        info = graph.base.line_info
        assert ("chain", 0, info.line[0]) in a
        assert ("chain", 0, info.start_replicas[0]) in a
        assert ("chain", len(info.line) - 1, info.end_replicas[0]) in a
        assert sample_delays(graph, params, "all-max")[1].size == len(chain_edges(graph))


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


RING = from_edges([(i, (i + 1) % 5) for i in range(5)])


@pytest.mark.parametrize("base, layers, seed", [
    (build_line_with_replicated_ends(3), 1, 0),  # the chain source's hops alone
    (build_line_with_replicated_ends(8), 6, 1),
    (build_line_with_replicated_ends(33), 4, 2**31 - 1),
    (RING, 3, 1001),  # no chain hops
], ids=["line3-chain-only", "line8", "line33", "ring5"])
def test_uniform_strategies_pinned_to_random_uniform(base, layers, seed):
    """'uniform-random' delays and 'uniform' clocks are, bit for bit, the
    values of one ``Random(seed).uniform`` call each, in draw order."""
    graph = build_layered(base, layers)
    params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
    rng = random.Random(seed)
    expected = [rng.uniform(params.d - params.u, params.d) for _ in delay_keys(graph)]
    dag, chain = sample_delays(graph, params, "uniform-random", seed=seed)
    assert np.concatenate((dag[~np.isnan(dag)], chain)).tobytes() == np.array(expected).tobytes()
    assert (chain.size == 0) == (base is RING)
    rng = random.Random(seed)
    expected = [(rng.uniform(1.0, params.theta), rng.uniform(0.0, params.lam))
                for _ in range(layers * base.num_vertices)]
    rate, offset = sample_clocks(graph, params, "uniform", seed=seed)
    assert rate.tobytes() == np.array([r for r, _ in expected]).tobytes()
    assert offset.tobytes() == np.array([o for _, o in expected]).tobytes()
