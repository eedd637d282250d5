"""Config documents: one YAML document is the sole input of a run.

Sections mirror the run configuration; numbers parse to IEEE doubles. All
outputs are deterministic functions of the config file bytes, so seeds and
every knob live here. ``build_run_config`` reads a document into a
RunConfig and ``run_document`` writes one back as plain JSON; run.json
stores that document so that ``verify`` rebuilds the run through the same
reader. Semantic errors and unknown keys carry the offending key path;
YAML syntax errors keep PyYAML's line/column marks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .engine import MACHINES, CorruptionSpec, PerturbationSpec, RunConfig
from .errors import ConfigurationError
from .faults import FaultBehavior, FaultPlacement, sample_placement, validate_placement
from .protocol import SOURCE_KINDS, SourceMode
from .timing import CLOCK_STRATEGIES, DELAY_STRATEGIES, Params, delay_keys
from .topology import BaseGraph, build_layered, build_line_with_replicated_ends, from_edges

__all__ = [
    "ExperimentSpec",
    "MC_BEHAVIORS",
    "build_run_config",
    "load_config",
    "load_document",
    "load_experiment",
    "run_document",
]

SCHEMA_VERSION = 1

# faults-mc behavior_mix names with a static behavior, built from the period;
# "per_pulse_offset" is also accepted and drawn per trial.
MC_BEHAVIORS = {
    "silent": lambda lam: FaultBehavior(kind="silent"),
    "fixed_offset_plus": lambda lam: FaultBehavior(kind="fixed_offset", offset=lam / 4),
    "fixed_offset_minus": lambda lam: FaultBehavior(kind="fixed_offset", offset=-lam / 4),
    "burst": lambda lam: FaultBehavior(kind="burst", count=3, spacing=lam / 20),
}

# The keys a run document accepts, per section.
RUN_KEYS = ("schema", "topology", "layers", "pulses", "params", "source", "delays", "clocks",
            "machine", "faults", "corruption", "perturbation", "enforce_alignment")
TOPOLOGY_KEYS = {"line_replicated": ("kind", "m"), "edge_list": ("kind", "edges")}
SECTION_KEYS = {
    "params": ("d", "u", "theta", "Lambda", "C"),
    "source": ("kind", "jitter", "seed"),
    "delays": ("strategy", "seed", "map"),
    "clocks": ("strategy", "seed"),
    "faults": ("strict", "placement", "p", "seed"),
    "corruption": ("enabled", "node_fraction", "max_spurious_messages", "seed"),
    "perturbation": ("delay_magnitude", "rate_magnitude", "seed"),
}
PLACEMENT_KEYS = ("vertex", "layer", "behavior")
BEHAVIOR_KEYS = tuple(f.name for f in fields(FaultBehavior))
EXPERIMENT_KEYS = ("run", "seeds", "sweep", "trials", "fault_probability", "behavior_mix",
                   "behavior_changes_per_pulse", "corruption")

_REQUIRED = object()


@dataclass(frozen=True)
class ExperimentSpec:
    """A base run plus sweep axes / seed list for the batch subcommands."""

    run: dict
    seeds: tuple[int, ...]
    axes: dict = field(default_factory=dict)
    trials: int = 0
    fault_probability: float = 0.0
    behavior_mix: tuple[str, ...] = ("silent",)
    behavior_changes_per_pulse: int = 1
    corruption: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigurationError("seeds: the seed list must be non-empty")
        if self.trials < 0:
            raise ConfigurationError(f"trials: must be >= 0, got {self.trials}")


def _mapping(node, path: str, keys) -> dict:
    """``node`` as a mapping, {} when absent; any key outside ``keys`` is an error."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigurationError(f"{path}: must be a mapping, got {node!r}")
    for key in node:
        if key not in keys:
            raise ConfigurationError(f"{path + '.' if path else ''}{key}: unknown key; "
                                     f"valid keys: {', '.join(keys)}")
    return node


def _list(node, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigurationError(f"{path}: must be a list, got {node!r}")
    return node


def _entries(node, path: str, kind) -> tuple:
    """The list ``node`` with each entry read as ``kind``; an error names ``path[i]``."""
    out = []
    for i, x in enumerate(_list(node, path)):
        try:
            out.append(kind(x))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}[{i}]: {exc}") from exc
    return tuple(out)


def _value(section: dict, path: str, kind, default=_REQUIRED):
    """The entry of ``section`` named by the last part of ``path``, as ``kind``."""
    key = path.rsplit(".", 1)[-1]
    if key not in section:
        if default is _REQUIRED:
            raise ConfigurationError(f"{path}: required")
        return default
    try:
        return kind(section[key])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _integer(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"must be an integer, got {x!r}")
    return x


def _real(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"must be a number, got {x!r}")
    return float(x)


def _boolean(x) -> bool:
    if not isinstance(x, bool):
        raise TypeError(f"must be true or false, got {x!r}")
    return x


def _choice(section: dict, path: str, choices: tuple, default: str) -> str:
    value = section.get(path.rsplit(".", 1)[-1], default)
    if value not in choices:
        raise ConfigurationError(f"{path}: {value!r} not one of {choices}")
    return value


def _base_graph(doc: dict) -> BaseGraph:
    section = _mapping(doc.get("topology"), "topology", ("kind", "m", "edges"))
    kind = section.get("kind", "line_replicated")
    if kind not in TOPOLOGY_KEYS:
        raise ConfigurationError(f"topology.kind: unknown kind {kind!r}")
    _mapping(section, "topology", TOPOLOGY_KEYS[kind])
    if kind == "line_replicated":
        m = section.get("m")
        if not isinstance(m, int) or m < 2:
            raise ConfigurationError("topology.m: need an integer >= 2")
        return build_line_with_replicated_ends(m)
    edges = _list(section.get("edges"), "topology.edges")
    for i, edge in enumerate(edges):
        if not (isinstance(edge, list) and len(edge) == 2
                and all(isinstance(v, int) for v in edge)):
            raise ConfigurationError(f"topology.edges[{i}]: expected [u, v] with integer "
                                     f"vertices, got {edge!r}")
    return from_edges([tuple(edge) for edge in edges])


def _params(doc: dict) -> Params:
    section = _mapping(doc.get("params"), "params", SECTION_KEYS["params"])
    return Params.derive(
        d=_value(section, "params.d", _real),
        u=_value(section, "params.u", _real),
        theta=_value(section, "params.theta", _real),
        lam=_value(section, "params.Lambda", _real),
        validation_constant=_value(section, "params.C", _real, 2.0),
    )


def _delay_map(rows, strategy: str, base: BaseGraph, layers: int) -> dict | None:
    """``delays.map`` rows [*edge key, delay], e.g. [dag, v, layer, w, delay]:
    read under custom-map only, at most one row per edge of the layered graph."""
    if strategy != "custom-map":
        if rows is not None:
            raise ConfigurationError(f"delays.map: read only under strategy custom-map, "
                                     f"not {strategy!r}")
        return None
    if rows is None:
        raise ConfigurationError("delays.map: required by strategy custom-map")
    edges = set(delay_keys(build_layered(base, layers)))
    delays = {}
    for i, row in enumerate(_list(rows, "delays.map")):
        if not (isinstance(row, list) and len(row) in (4, 5) and row[0] in ("dag", "chain")
                and all(isinstance(x, int) for x in row[1:-1])
                and isinstance(row[-1], (int, float))):
            raise ConfigurationError(f"delays.map[{i}]: expected [dag, v, layer, w, delay] or "
                                     f"[chain, hop, w, delay], got {row!r}")
        key = tuple(row[:-1])
        if key not in edges:
            raise ConfigurationError(f"delays.map[{i}]: the layered graph has no edge {key}")
        if key in delays:
            raise ConfigurationError(f"delays.map[{i}]: a second row for edge {key}")
        delays[key] = float(row[-1])
    return delays


def _behavior(node, path: str) -> FaultBehavior:
    spec = _mapping(node, path, BEHAVIOR_KEYS)
    recipients = spec.get("recipients")
    if recipients is not None:
        recipients = _entries(recipients, f"{path}.recipients", _integer)
    fields = dict(
        kind=spec.get("kind"),
        offset=_value(spec, f"{path}.offset", _real, 0.0),
        times=_entries(spec.get("times", []), f"{path}.times", _real),
        offsets=_entries(spec.get("offsets", []), f"{path}.offsets", _real),
        count=_value(spec, f"{path}.count", _integer, 0),
        spacing=_value(spec, f"{path}.spacing", _real, 0.0),
        recipients=recipients,
    )
    try:
        return FaultBehavior(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _placement(doc: dict, base: BaseGraph, layers: int) -> FaultPlacement:
    section = _mapping(doc.get("faults"), "faults", SECTION_KEYS["faults"])
    if not section:
        return FaultPlacement.empty()
    if "p" in section and "placement" in section:
        raise ConfigurationError("faults: give either p or placement, not both")
    strict = _value(section, "faults.strict", _boolean, True)
    graph = build_layered(base, layers)
    if "p" in section:
        placement = sample_placement(graph, _value(section, "faults.p", _real),
                                     _value(section, "faults.seed", _integer, 0))
        placement = FaultPlacement(behaviors=dict(placement.behaviors), strict=strict)
    else:
        behaviors = {}
        for i, entry in enumerate(_list(section.get("placement", []), "faults.placement")):
            path = f"faults.placement[{i}]"
            entry = _mapping(entry, path, PLACEMENT_KEYS)
            node = (_value(entry, f"{path}.vertex", _integer),
                    _value(entry, f"{path}.layer", _integer))
            if not (0 <= node[0] < base.num_vertices and 0 <= node[1] < layers):
                raise ConfigurationError(f"{path}: node (vertex, layer) = {node} is outside the "
                                         f"grid of {base.num_vertices} vertices and {layers} "
                                         f"layers")
            if node in behaviors:
                raise ConfigurationError(f"{path}: a second entry for node (vertex, layer) = "
                                         f"{node}")
            behavior = behaviors[node] = _behavior(entry.get("behavior"), f"{path}.behavior")
            if not set(behavior.recipients or ()) <= set(base.slots[node[0]]):
                raise ConfigurationError(f"{path}.behavior.recipients: {list(behavior.recipients)} "
                                         f"names a vertex outside the node's successors "
                                         f"{list(base.slots[node[0]])}")
        placement = FaultPlacement(behaviors=behaviors, strict=strict)
    if strict and placement:
        bad = validate_placement(graph, placement)
        if bad:
            raise ConfigurationError(
                f"faults: strict placement violated; nodes with two faulty "
                f"predecessors: {bad[:5]}{'...' if len(bad) > 5 else ''}"
            )
    return placement


def build_run_config(doc: dict) -> RunConfig:
    """Assemble and validate a RunConfig from a config document.

    This is the one reader of the run schema: ``run``, the batch rows and
    ``verify`` (through run.json) all build their RunConfig here.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a mapping")
    _mapping(doc, "", RUN_KEYS)
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigurationError(f"schema: unsupported version {schema!r}")
    base = _base_graph(doc)
    layers = _value(doc, "layers", _integer)
    source = _mapping(doc.get("source"), "source", SECTION_KEYS["source"])
    delays = _mapping(doc.get("delays"), "delays", SECTION_KEYS["delays"])
    strategy = _choice(delays, "delays.strategy", DELAY_STRATEGIES, "uniform-random")
    clocks = _mapping(doc.get("clocks"), "clocks", SECTION_KEYS["clocks"])

    corr = _mapping(doc.get("corruption"), "corruption", SECTION_KEYS["corruption"])
    corruption = None
    if corr and _value(corr, "corruption.enabled", _boolean, True):
        corruption = CorruptionSpec(
            node_fraction=_value(corr, "corruption.node_fraction", _real, 0.0),
            max_spurious_messages=_value(corr, "corruption.max_spurious_messages", _integer, 0),
        )

    pert = _mapping(doc.get("perturbation"), "perturbation", SECTION_KEYS["perturbation"])
    perturbation = None
    if pert:
        perturbation = PerturbationSpec(
            delay_magnitude=_value(pert, "perturbation.delay_magnitude", _real, 0.0),
            rate_magnitude=_value(pert, "perturbation.rate_magnitude", _real, 0.0),
            seed=_value(pert, "perturbation.seed", _integer, 0),
        )

    enforce = doc.get("enforce_alignment")
    if enforce is not None:
        enforce = _value(doc, "enforce_alignment", _boolean)
    return RunConfig(
        base=base,
        layers=layers,
        params=_params(doc),
        source=SourceMode(
            kind=_choice(source, "source.kind", SOURCE_KINDS, "ideal"),
            jitter=_value(source, "source.jitter", _real, 0.0),
            seed=_value(source, "source.seed", _integer, 0),
        ),
        pulses=_value(doc, "pulses", _integer),
        delay_strategy=strategy,
        delay_seed=_value(delays, "delays.seed", _integer, 0),
        custom_delays=_delay_map(delays.get("map"), strategy, base, layers),
        clock_strategy=_choice(clocks, "clocks.strategy", CLOCK_STRATEGIES, "uniform"),
        clock_seed=_value(clocks, "clocks.seed", _integer, 0),
        placement=_placement(doc, base, layers),
        machine=_choice(doc, "machine", MACHINES, "full"),
        corruption=corruption,
        corruption_seed=_value(corr, "corruption.seed", _integer, 0),
        perturbation=perturbation,
        enforce_alignment=enforce,
    )


def run_document(cfg: RunConfig) -> dict:
    """The normalized config document of ``cfg``: plain JSON, every key
    explicit, that ``build_run_config`` reads back to an equal RunConfig.
    Sampled fault placements appear as the list they expanded to."""
    base, params = cfg.base, cfg.params
    if base.line_info is not None:
        topology = {"kind": "line_replicated", "m": len(base.line_info.line)}
    else:
        topology = {"kind": "edge_list",
                    "edges": [[a, b] for a in base.vertices for b in base.adjacency[a] if a < b]}
    delay_map = None
    if cfg.custom_delays is not None:
        delay_map = [[*key, delay] for key, delay in sorted(cfg.custom_delays.items())]
    return {
        "schema": SCHEMA_VERSION,
        "topology": topology,
        "layers": cfg.layers,
        "pulses": cfg.pulses,
        "params": {"d": params.d, "u": params.u, "theta": params.theta, "Lambda": params.lam,
                   "C": params.validation_constant},
        "source": asdict(cfg.source),
        "delays": {"strategy": cfg.delay_strategy, "seed": cfg.delay_seed, "map": delay_map},
        "clocks": {"strategy": cfg.clock_strategy, "seed": cfg.clock_seed},
        "machine": cfg.machine,
        "faults": {
            "strict": cfg.placement.strict,
            "placement": [{"vertex": v, "layer": layer, "behavior": asdict(behavior)}
                          for (v, layer), behavior in sorted(cfg.placement.behaviors.items())],
        },
        "corruption": {"enabled": cfg.corruption is not None,
                       **asdict(cfg.corruption or CorruptionSpec()), "seed": cfg.corruption_seed},
        "perturbation": asdict(cfg.perturbation) if cfg.perturbation else None,
        "enforce_alignment": cfg.enforce_alignment,
    }


def load_document(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config {path}: top level must be a mapping")
    return doc


def load_config(path: str | Path) -> RunConfig:
    return build_run_config(load_document(path))


def _mc_behavior(name) -> str:
    if name not in MC_BEHAVIORS and name != "per_pulse_offset":
        raise ValueError(f"unknown behavior {name!r}; valid: "
                         f"{sorted([*MC_BEHAVIORS, 'per_pulse_offset'])}")
    return name


def load_experiment(path: str | Path) -> ExperimentSpec:
    """A batch config: the run document under ``run`` and the batch keys,
    each read strictly and rejected with its key path."""
    doc = _mapping(load_document(path), "", EXPERIMENT_KEYS)
    if not isinstance(doc.get("run"), dict):
        raise ConfigurationError(f"run: need a run config mapping, got {doc.get('run')!r}")
    seeds_spec = doc.get("seeds", [0])
    if isinstance(seeds_spec, dict):
        seeds_spec = _mapping(seeds_spec, "seeds", ("start", "count"))
        start = _value(seeds_spec, "seeds.start", _integer, 0)
        seeds = tuple(range(start, start + _value(seeds_spec, "seeds.count", _integer, 1)))
    else:
        seeds = _entries(seeds_spec, "seeds", _integer)
    axes = doc.get("sweep") or {}
    if not isinstance(axes, dict):
        raise ConfigurationError(f"sweep: must map axis names to value lists, got {axes!r}")
    return ExperimentSpec(
        run=doc["run"],
        seeds=seeds,
        axes={str(k): _list(v, f"sweep.{k}") for k, v in axes.items()},
        trials=_value(doc, "trials", _integer, 0),
        fault_probability=_value(doc, "fault_probability", _real, 0.0),
        behavior_mix=_entries(doc.get("behavior_mix", ["silent"]), "behavior_mix", _mc_behavior),
        behavior_changes_per_pulse=_value(doc, "behavior_changes_per_pulse", _integer, 1),
        corruption=_mapping(doc.get("corruption"), "corruption", SECTION_KEYS["corruption"]),
    )
