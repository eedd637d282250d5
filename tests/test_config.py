"""Config documents: run_document is the inverse of build_run_config, and
every key of a run document is either read or rejected with its key path."""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridpulse.config import MAX_GRID_CELLS, build_run_config, run_document
from gridpulse.engine import CorruptionSpec, PerturbationSpec, RunConfig, run
from gridpulse.errors import ConfigurationError
from gridpulse.faults import FaultBehavior, FaultPlacement, perturbation_caps, validate_placement
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
    # perturbation magnitudes are fractions of their caps, which need diameter >= 2
    perturbation = None
    if not simplified and base.diameter >= 2:
        caps = perturbation_caps(base.num_vertices * layers, base.diameter, params)
        perturbation = draw(st.none() | st.builds(
            PerturbationSpec, st.floats(0.0, 1.0).map(caps[0].__mul__),
            st.floats(0.0, 1.0).map(caps[1].__mul__), st.integers(0, 2**31)))
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
    # probabilities are in [0, 1]
    ({"faults": {"p": 1.5}}, "faults.p"),
    # two faulty predecessors of one node break a strict placement
    ({"topology": {"kind": "line_replicated", "m": 8}, "faults": {"placement": [
        {"vertex": 4, "layer": 2, "behavior": {"kind": "silent"}},
        {"vertex": 5, "layer": 2, "behavior": {"kind": "silent"}}]}}, "faults"),
    # perturbation magnitudes stay within their caps, which need diameter >= 2
    ({"perturbation": {"delay_magnitude": 1.0}}, "perturbation.delay_magnitude"),
    ({"perturbation": {"rate_magnitude": 1.0}}, "perturbation.rate_magnitude"),
    ({"topology": {"kind": "edge_list", "edges": [[0, 1], [1, 2], [0, 2]]},
      "perturbation": {"delay_magnitude": 0.0}}, "perturbation"),
    # the checks of the objects a section builds name the section
    ({"params": dict(DOC["params"], theta=0.9)}, "params"),
    ({"params": dict(DOC["params"], theta=1.0)}, "params"),
    ({"params": dict(DOC["params"], u=0.0)}, "params"),
    ({"params": dict(DOC["params"], Lambda=0.5)}, "params"),
    ({"source": dict(DOC["source"], jitter=-1.0)}, "source"),
    ({"source": dict(DOC["source"], jitter=1.0)}, "source.jitter"),
    ({"corruption": {"node_fraction": 1.5}}, "corruption"),
    ({"perturbation": {"delay_magnitude": -1.0}}, "perturbation"),
    ({"topology": {"kind": "edge_list", "edges": [[0, 1], [1, 2]]}}, "topology.edges"),
    ({"topology": {"kind": "edge_list", "edges": [[0, 0]]}}, "topology.edges"),
    ({"topology": {"kind": "line_replicated", "m": 1}}, "topology.m"),
    ({"topology": {"kind": "line_replicated"}}, "topology.m"),
    ({"layers": 0}, "layers"),
    ({"pulses": 0}, "pulses"),
    # a delay map is complete and in [d-u, d] when the config is built, not at run time
    ({"delays": {"strategy": "custom-map", "map": [["dag", 0, 0, 0, 0.999]]}}, "delays.map"),
    ({"delays": {"strategy": "custom-map", "map": [["dag", 0, 0, 0, 5.0]]}}, r"delays.map\[0\]"),
    # the rules that join keys name a key, whatever else the document holds
    ({"layers": 0, "faults": {"placement": [{"vertex": 2, "layer": 1,
                                             "behavior": {"kind": "silent"}}]}}, "layers"),
    ({"layers": 0, "faults": {"p": 0.1}}, "layers"),
    ({"layers": 0, "delays": {"strategy": "custom-map", "map": [["dag", 0, 0, 0, 0.999]]}},
     "layers"),
    ({"machine": "simplified", "faults": {"placement": [{"vertex": 2, "layer": 1,
                                                         "behavior": {"kind": "silent"}}]}},
     "machine"),
    ({"topology": {"kind": "edge_list", "edges": [[0, 1], [1, 2], [0, 2]]},
      "source": dict(DOC["source"], kind="chain")}, "source.kind"),
    # a disabled corruption section is read as strictly as an enabled one
    ({"corruption": {"enabled": False, "node_fraction": "x"}}, "corruption.node_fraction"),
    ({"corruption": {"enabled": False, "max_spurious_messages": -3}}, "corruption"),
    ({"corruption": {"enabled": False, "node_fraction": 1.5}}, "corruption"),
    # a fault behavior names a kind of the list, with the fields that kind needs
    ({"faults": {"placement": [{"vertex": 2, "layer": 1}]}},
     r"faults.placement\[0\].behavior.kind"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {"kind": "teleport"}}]}},
     r"faults.placement\[0\].behavior"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1,
                                "behavior": {"kind": "per_pulse_offset"}}]}},
     r"faults.placement\[0\].behavior"),
    ({"schema": 2}, "schema"),
    # a topology is one of the two kinds, and an edge list is a simple graph
    ({"topology": {"kind": "torus", "m": 3}}, "topology.kind"),
    ({"topology": {"kind": "edge_list", "edges": []}}, "topology.edges"),
    ({"topology": {"kind": "edge_list", "edges": [[0, 1], [1, -2], [0, -2]]}}, "topology.edges"),
    ({"topology": {"kind": "edge_list", "edges": [[0, 1], [1, 2], [2, 0], [1, 0]]}},
     "topology.edges"),
    # an integer beyond a double's range is a malformed number, wherever a real is read
    ({"params": dict(DOC["params"], d=10 ** 400)}, "params.d"),
    ({"source": dict(DOC["source"], jitter=10 ** 400)}, "source.jitter"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "per_pulse_offset", "offsets": [10 ** 400]}}]}},
     r"faults.placement\[0\].behavior.offsets\[0\]"),
    ({"delays": {"strategy": "custom-map", "map": [["dag", 0, 0, 0, 10 ** 400]]}},
     r"delays.map\[0\]"),
    # a grid of more than MAX_GRID_CELLS layers x pulses x vertices is refused before
    # anything is allocated, naming the key that takes it past the limit
    ({"pulses": 10 ** 51}, "pulses"),
    ({"pulses": 10 ** 400}, "pulses"),
    ({"layers": 10 ** 51}, "layers"),
    ({"layers": 10 ** 400}, "layers"),
    ({"topology": {"kind": "line_replicated", "m": 10 ** 51}}, "topology.m"),
    ({"topology": {"kind": "line_replicated", "m": 10 ** 400}}, "topology.m"),
    ({"layers": 10 ** 4, "pulses": 1429}, "pulses"),
    # so is a vertex id of an edge list, before the graph's adjacency lists are built
    ({"topology": {"kind": "edge_list", "edges": [[0, 1], [1, 10 ** 51]]}},
     r"topology.edges\[1\]"),
    ({"topology": {"kind": "edge_list", "edges": [[0, 1], [1, MAX_GRID_CELLS]]}},
     r"topology.edges\[1\]"),
    # a count that sizes a loop or a list is at most MAX_GRID_CELLS, checked before any draw
    ({"corruption": {"node_fraction": 1.0, "max_spurious_messages": 10 ** 51}},
     "corruption.max_spurious_messages"),
    ({"corruption": {"enabled": False, "max_spurious_messages": MAX_GRID_CELLS + 1}},
     "corruption.max_spurious_messages"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "burst", "count": 10 ** 51, "spacing": 0.01}}]}},
     r"faults.placement\[0\].behavior.count"),
    ({"faults": {"placement": [{"vertex": 2, "layer": 1, "behavior": {
        "kind": "burst", "count": MAX_GRID_CELLS + 1, "spacing": 0.01}}]}},
     r"faults.placement\[0\].behavior.count"),
    # a NaN jitter bound is not >= 0
    ({"source": dict(DOC["source"], jitter=float("nan"))}, "source"),
    # a boolean is no vertex id or map index
    ({"topology": {"kind": "edge_list", "edges": [[0, True], [1, 2], [2, 0]]}},
     r"topology.edges\[0\]"),
    ({"delays": {"strategy": "custom-map", "map": [["dag", 0, 0, True, 0.999]]}},
     r"delays.map\[0\]"),
])
def test_malformed_entry_rejected_with_its_path(edit, path):
    with pytest.raises(ConfigurationError, match=rf"^{path}: "):
        build_run_config(dict(DOC, **edit))


@pytest.mark.parametrize("edit,message", [
    ({"topology": {"kind": "edge_list", "edges": [[0, 1], [1, 2], [True, 0]]}},
     "topology.edges[2]: must be an integer, got True"),
    ({"delays": {"strategy": "custom-map", "map": [["dag", 0, 0, 0, 0.999],
                                                    ["chain", 1, False, 0.999]]}},
     "delays.map[1]: must be an integer, got False"),
])
def test_boolean_id_or_index_message(edit, message):
    with pytest.raises(ConfigurationError) as exc:
        build_run_config(dict(DOC, **edit))
    assert str(exc.value) == message


def test_grid_limit_admits_its_last_cell():
    """7 vertices x 10**4 layers x 1428 pulses is within MAX_GRID_CELLS; one
    pulse more is not (the row above). Building the config allocates no grid."""
    assert 7 * 10 ** 4 * 1428 <= MAX_GRID_CELLS < 7 * 10 ** 4 * 1429
    assert build_run_config(dict(DOC, layers=10 ** 4, pulses=1428)).pulses == 1428


def test_count_limit_admits_its_last_value():
    """A spurious-message bound and a burst count of MAX_GRID_CELLS are read;
    one more is not (the rows above). Building the config draws nothing."""
    cfg = build_run_config(dict(
        DOC, corruption={"node_fraction": 1.0, "max_spurious_messages": MAX_GRID_CELLS},
        faults={"placement": [{"vertex": 2, "layer": 1, "behavior": {
            "kind": "burst", "count": MAX_GRID_CELLS, "spacing": 0.01}}]}))
    assert cfg.corruption.max_spurious_messages == MAX_GRID_CELLS
    assert cfg.placement.behaviors[2, 1].count == MAX_GRID_CELLS


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


def test_run_config_enforces_a_strict_placement():
    """A library config is held to the strict rule as a document is: (4, 2)
    and (5, 2) both feed (4, 3) and (5, 3) on m = 8. Without strict the same
    placement runs."""
    cfg = build_run_config(dict(DOC, topology={"kind": "line_replicated", "m": 8}))
    behaviors = {(4, 2): FaultBehavior(kind="silent"), (5, 2): FaultBehavior(kind="silent")}
    with pytest.raises(ConfigurationError, match=r"^faults: strict placement violated; "
                                                 r"nodes with two faulty predecessors: "
                                                 r"\[\(4, 3\), \(5, 3\)\]"):
        RunConfig(**{**vars(cfg), "placement": FaultPlacement(behaviors=behaviors)})
    loose = RunConfig(**{**vars(cfg), "placement": FaultPlacement(behaviors, strict=False)})
    assert run(loose).counts.shape == (4, 12)


def test_run_config_holds_a_delay_map_to_its_strategy():
    """A map is given exactly under custom-map, and it names every edge."""
    cfg = build_run_config(DOC)  # uniform-random
    custom = {key: 1.0 for key in delay_keys(build_layered(cfg.base, cfg.layers))}
    with pytest.raises(ConfigurationError, match=r"^delays.map: read only under strategy"):
        RunConfig(**{**vars(cfg), "custom_delays": custom})
    with pytest.raises(ConfigurationError, match=r"^delays.map: required by strategy"):
        RunConfig(**{**vars(cfg), "delay_strategy": "custom-map"})
    del custom[("dag", 0, 0, 0)]
    with pytest.raises(ConfigurationError,
                       match=r"^delays.map: misses 1 edges, e.g. \('dag', 0, 0, 0\)"):
        RunConfig(**{**vars(cfg), "delay_strategy": "custom-map", "custom_delays": custom})


@pytest.mark.parametrize("field,path,value", [
    ("machine", "machine", "fast"),
    ("delay_strategy", "delays.strategy", "fastest"),
    ("clock_strategy", "clocks.strategy", "slow"),
])
def test_run_config_holds_each_choice_to_its_list(field, path, value):
    """A library config with an unknown machine or strategy fails when it is
    built, with the document's key path, not later inside a run."""
    cfg = build_run_config(DOC)
    with pytest.raises(ConfigurationError, match=rf"^{path}: '{value}' not one of \("):
        RunConfig(**{**vars(cfg), field: value})
