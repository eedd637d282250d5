"""Config documents: run_document is the inverse of build_run_config, and
every key of a run document is either read or rejected with its key path."""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridpulse.config import build_run_config, run_document
from gridpulse.engine import CorruptionSpec, PerturbationSpec, RunConfig
from gridpulse.errors import ConfigurationError
from gridpulse.faults import FaultBehavior, FaultPlacement, validate_placement
from gridpulse.protocol import SourceMode
from gridpulse.timing import DELAY_STRATEGIES, Params, delay_keys
from gridpulse.topology import build_layered, build_line_with_replicated_ends, from_edges

DOC = {
    "schema": 1,
    "topology": {"kind": "line_replicated", "m": 3},
    "layers": 4,
    "pulses": 3,
    "params": {"d": 1.0, "u": 0.002, "theta": 1.0002, "Lambda": 2.0},
    "source": {"kind": "ideal", "jitter": 0.001, "seed": 3},
    "delays": {"strategy": "uniform-random", "seed": 11},
    "clocks": {"strategy": "uniform", "seed": 13},
}


def json_round_trip(cfg: RunConfig) -> RunConfig:
    return build_run_config(json.loads(json.dumps(run_document(cfg))))


finite = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def base_graphs(draw):
    if draw(st.booleans()):
        return build_line_with_replicated_ends(draw(st.integers(2, 5)))
    n = draw(st.integers(3, 7))  # a ring, so every vertex has degree >= 2, plus chords
    ring = {(i, (i + 1) % n) for i in range(n)}
    chords = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    edges = ring | {(a, b) for a, b in chords if a != b}
    return from_edges(sorted({(min(e), max(e)) for e in edges}))


@st.composite
def behaviors(draw, successors: tuple):
    recipients = draw(st.none() | st.lists(st.sampled_from(successors), max_size=3).map(tuple))
    kind = draw(st.sampled_from(["silent", "fixed_offset", "scripted", "burst",
                                 "per_pulse_offset"]))
    fields = {
        "silent": {},
        "fixed_offset": {"offset": draw(finite)},
        "scripted": {"times": tuple(sorted(draw(st.lists(finite, max_size=4))))},
        "burst": {"count": draw(st.integers(1, 4)),
                  "spacing": draw(st.floats(1e-6, 0.5, allow_nan=False))},
        "per_pulse_offset": {"offsets": tuple(draw(st.lists(finite, min_size=1, max_size=4)))},
    }[kind]
    return FaultBehavior(kind=kind, recipients=recipients, **fields)


@st.composite
def run_configs(draw):
    base = draw(base_graphs())
    layers = draw(st.integers(2, 5))
    d = draw(st.floats(0.5, 2.0))
    params = Params.derive(
        d=d, u=draw(st.floats(1e-4, 1.0)) * d, theta=draw(st.floats(1.00001, 1.01)),
        lam=d * draw(st.floats(1.01, 3.0)), validation_constant=draw(st.floats(0.0, 4.0)),
    )
    # the simplified machine runs only clean static ideal-source configs
    simplified = draw(st.booleans())
    chain = not simplified and base.line_info is not None and draw(st.booleans())
    source = SourceMode(
        kind="chain" if chain else "ideal",
        jitter=draw(st.floats(0.0, 1.0)) * params.kappa / 4,
        seed=draw(st.integers(0, 2**31)),
    )
    strategy = draw(st.sampled_from(DELAY_STRATEGIES))
    custom = None
    if strategy == "custom-map":
        keys = delay_keys(build_layered(base, layers))  # dag and chain
        custom = {key: draw(st.floats(params.d - params.u, params.d)) for key in keys}
    vertices = base.num_vertices
    nodes = [] if simplified else draw(st.lists(
        st.tuples(st.integers(0, vertices - 1), st.integers(1, layers - 1)),
        max_size=3, unique=True))
    placement = FaultPlacement(behaviors={node: draw(behaviors(base.slots[node[0]]))
                                          for node in nodes},
                               strict=draw(st.booleans()))
    if placement.strict:
        assume(not validate_placement(build_layered(base, layers), placement))
    corruption = None if simplified else draw(
        st.none() | st.builds(CorruptionSpec, st.floats(0.0, 1.0), st.integers(0, 8)))
    perturbation = None if simplified else draw(
        st.none() | st.builds(PerturbationSpec, st.floats(0.0, 1e-3), st.floats(0.0, 1e-5),
                              st.integers(0, 2**31)))
    return RunConfig(
        base=base, layers=layers, params=params, source=source,
        pulses=draw(st.integers(1, 6)),
        delay_strategy=strategy, delay_seed=draw(st.integers(0, 2**31)), custom_delays=custom,
        clock_strategy=draw(st.sampled_from(["uniform", "all-one", "all-max"])),
        clock_seed=draw(st.integers(0, 2**31)),
        placement=placement,
        machine="simplified" if simplified else "full",
        corruption=corruption, corruption_seed=draw(st.integers(0, 2**31)),
        perturbation=perturbation,
        enforce_alignment=draw(st.sampled_from([None, True, False])),
    )


@settings(max_examples=150, deadline=None)
@given(run_configs())
def test_run_document_is_the_inverse_of_build_run_config(cfg):
    assert json_round_trip(cfg) == cfg


def test_sampled_placement_echoes_as_its_list():
    doc = dict(DOC, faults={"p": 0.3, "seed": 5, "strict": False})
    cfg = build_run_config(doc)
    assert cfg.placement  # the draw is not empty
    echoed = run_document(cfg)["faults"]
    assert "p" not in echoed and len(echoed["placement"]) == len(cfg.placement)
    assert json_round_trip(cfg) == cfg


def test_document_keeps_yaml_defaults():
    """A document with every optional section absent builds the config whose
    explicit document it echoes."""
    cfg = build_run_config(DOC)
    echoed = run_document(cfg)
    assert echoed["topology"] == {"kind": "line_replicated", "m": 3}
    assert echoed["faults"] == {"strict": True, "placement": []}
    assert echoed["perturbation"] is None and echoed["corruption"]["enabled"] is False
    assert build_run_config(echoed) == cfg


@pytest.mark.parametrize("edit,path", [
    ({"perturbaton": {"delay_magnitude": 1e-4}}, "perturbaton"),
    ({"params": dict(DOC["params"], lambda_=2.0)}, "params.lambda_"),
    ({"topology": {"kind": "line_replicated", "m": 3, "edges": [[0, 1]]}}, "topology.edges"),
    ({"source": dict(DOC["source"], sed=1)}, "source.sed"),
    ({"delays": dict(DOC["delays"], mapp=[])}, "delays.mapp"),
    ({"clocks": dict(DOC["clocks"], rate=1)}, "clocks.rate"),
    ({"corruption": {"node_fraction": 1.0, "spurious": 3}}, "corruption.spurious"),
    ({"faults": {"strict": True, "placment": []}}, "faults.placment"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behaviour": {"kind": "silent"}}]}},
     r"faults.placement\[0\].behaviour"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1,
                                "behavior": {"kind": "fixed_offset", "ofset": 0.1}}]}},
     r"faults.placement\[0\].behavior.ofset"),
])
def test_unknown_key_rejected_with_its_path(edit, path):
    with pytest.raises(ConfigurationError, match=rf"^{path}: unknown key"):
        build_run_config(dict(DOC, **edit))


@pytest.mark.parametrize("edit,path", [
    ({"delays": {"strategy": "custom-map", "map": [["dag", 0, 0, 0, 0.999], ["dag", 0, 0]]}},
     r"delays.map\[1\]"),
    ({"delays": {"strategy": "custom-map", "map": [["tree", 0, 0, 0, 0.999]]}},
     r"delays.map\[0\]"),
    ({"topology": {"kind": "edge_list", "edges": [[0, 1], [1, "2"]]}}, r"topology.edges\[1\]"),
    ({"delays": {"strategy": "fastest"}}, "delays.strategy"),
    ({"layers": "four"}, "layers"),
    ({"faults": {"p": 0.1, "placement": []}}, "faults"),
    ({"params": {"d": 1.0, "u": 0.002, "theta": 1.0002}}, "params.Lambda"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {"kind": "burst"}}]}},
     r"faults.placement\[0\].behavior"),
    # delays.map names known edges, once each, and only under custom-map
    ({"delays": {"strategy": "custom-map", "map": [["dag", 99, 0, 0, 1.0]]}}, r"delays.map\[0\]"),
    ({"delays": {"strategy": "custom-map", "map": [["dag", 0, 0, 0, 0.999],
                                                    ["dag", 0, 0, 0, 0.999]]}},
     r"delays.map\[1\]"),
    ({"delays": {"strategy": "uniform-random", "map": [["dag", 0, 0, 0, 0.999]]}}, "delays.map"),
    ({"delays": {"strategy": "custom-map"}}, "delays.map"),
    # fault placements name a node of the grid: 7 vertices, 4 layers
    ({"faults": {"placement": [{"vertex": 99, "layer": 1,
                                "behavior": {"kind": "fixed_offset", "offset": 0.1}}]}},
     r"faults.placement\[0\]"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {"kind": "silent"}},
                               {"vertex": 2, "layer": 9, "behavior": {"kind": "silent"}}]}},
     r"faults.placement\[1\]"),
    ({"faults": {"placement": [{"vertex": -1, "layer": 1, "behavior": {"kind": "silent"}}]}},
     r"faults.placement\[0\]"),
    # and their recipients name successors of the node: (2, 1) feeds vertices 0-3
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "fixed_offset", "offset": 0.1, "recipients": [99]}}]}},
     r"faults.placement\[0\].behavior.recipients"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "fixed_offset", "offset": 0.1, "recipients": [-1]}}]}},
     r"faults.placement\[0\].behavior.recipients"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "fixed_offset", "offset": 0.1, "recipients": [6]}}]}},
     r"faults.placement\[0\].behavior.recipients"),
    # one entry per faulty node
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {"kind": "silent"}},
                               {"vertex": 2, "layer": 1, "behavior": {
                                   "kind": "fixed_offset", "offset": 0.1}}]}},
     r"faults.placement\[1\]"),
    ({"clocks": {"strategy": "bogus", "seed": 13}}, "clocks.strategy"),
    # booleans are YAML booleans, integers are integers
    ({"faults": {"strict": "no", "placement": []}}, "faults.strict"),
    ({"faults": {"strict": 0, "placement": []}}, "faults.strict"),
    ({"corruption": {"enabled": "no", "node_fraction": 1.0}}, "corruption.enabled"),
    ({"enforce_alignment": "no"}, "enforce_alignment"),
    ({"enforce_alignment": 1}, "enforce_alignment"),
    ({"pulses": 3.9}, "pulses"),
    ({"pulses": "3"}, "pulses"),
    ({"layers": True}, "layers"),
    ({"source": dict(DOC["source"], seed="3")}, "source.seed"),
    ({"delays": dict(DOC["delays"], seed=1.5)}, "delays.seed"),
    ({"clocks": dict(DOC["clocks"], seed=True)}, "clocks.seed"),
    ({"faults": {"p": 0.1, "seed": 2.0}}, "faults.seed"),
    ({"corruption": {"node_fraction": 1.0, "seed": "4"}}, "corruption.seed"),
    ({"corruption": {"node_fraction": 1.0, "max_spurious_messages": 2.5}},
     "corruption.max_spurious_messages"),
    ({"perturbation": {"delay_magnitude": 1e-4, "seed": 1.0}}, "perturbation.seed"),
    ({"faults": {"placement": [{"vertex": "2", "layer": 1, "behavior": {"kind": "silent"}}]}},
     r"faults.placement\[0\].vertex"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1.0, "behavior": {"kind": "silent"}}]}},
     r"faults.placement\[0\].layer"),
    # reals are YAML numbers, and choices come from their list
    ({"params": dict(DOC["params"], Lambda="2.0")}, "params.Lambda"),
    ({"params": dict(DOC["params"], Lambda=True)}, "params.Lambda"),
    ({"params": dict(DOC["params"], C="2")}, "params.C"),
    ({"source": dict(DOC["source"], jitter="0")}, "source.jitter"),
    ({"source": dict(DOC["source"], kind="ideel")}, "source.kind"),
    ({"machine": "fast"}, "machine"),
    ({"faults": {"p": "0.1"}}, "faults.p"),
    ({"corruption": {"node_fraction": "1.0"}}, "corruption.node_fraction"),
    ({"perturbation": {"delay_magnitude": "1e-4"}}, "perturbation.delay_magnitude"),
    ({"perturbation": {"rate_magnitude": False}}, "perturbation.rate_magnitude"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "burst", "count": 2, "spacing": "0.1"}}]}},
     r"faults.placement\[0\].behavior.spacing"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "burst", "count": 2.9, "spacing": 0.1}}]}},
     r"faults.placement\[0\].behavior.count"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "fixed_offset", "offset": "0.1"}}]}},
     r"faults.placement\[0\].behavior.offset"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "scripted", "times": ["1.0"]}}]}},
     r"faults.placement\[0\].behavior.times\[0\]"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "per_pulse_offset", "offsets": [0.1, True]}}]}},
     r"faults.placement\[0\].behavior.offsets\[1\]"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "fixed_offset", "offset": 0.1, "recipients": ["3", 2.0]}}]}},
     r"faults.placement\[0\].behavior.recipients\[0\]"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "fixed_offset", "offset": 0.1, "recipients": [3, 2.0]}}]}},
     r"faults.placement\[0\].behavior.recipients\[1\]"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "fixed_offset", "offset": 0.1, "recipients": 3}}]}},
     r"faults.placement\[0\].behavior.recipients"),
])
def test_malformed_entry_rejected_with_its_path(edit, path):
    with pytest.raises(ConfigurationError, match=rf"^{path}: "):
        build_run_config(dict(DOC, **edit))


def test_integer_reals_echo_as_floats():
    """A real written as a YAML integer loads and echoes as its float."""
    ints = dict(DOC, params={"d": 1, "u": 0.002, "theta": 1.0002, "Lambda": 2},
                source=dict(DOC["source"], jitter=0))
    echoed = run_document(build_run_config(ints))
    assert json.dumps(echoed) == json.dumps(run_document(build_run_config(
        dict(ints, params=dict(DOC["params"]), source=dict(DOC["source"], jitter=0.0)))))
    assert echoed["params"]["d"] == 1.0 and isinstance(echoed["params"]["d"], float)


@pytest.mark.parametrize("node", [(7, 1), (-1, 1), (2, 4), (2, -1)])
def test_run_config_rejects_a_fault_outside_the_grid(node):
    cfg = build_run_config(DOC)  # 7 vertices, 4 layers
    placement = FaultPlacement(behaviors={node: FaultBehavior(kind="silent")}, strict=False)
    with pytest.raises(ConfigurationError, match=rf"\(v={node[0]}, layer={node[1]}\)"):
        RunConfig(**{**vars(cfg), "placement": placement})


@pytest.mark.parametrize("recipients", [(7,), (1, -1), (6,)])
def test_run_config_rejects_recipients_outside_the_grid(recipients):
    cfg = build_run_config(DOC)  # 7 vertices; (2, 1) feeds vertices 0-3
    behavior = FaultBehavior(kind="fixed_offset", offset=0.1, recipients=recipients)
    placement = FaultPlacement(behaviors={(2, 1): behavior})
    with pytest.raises(ConfigurationError, match=r"\(v=2, layer=1\) has recipients"):
        RunConfig(**{**vars(cfg), "placement": placement})
