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

from .engine import CorruptionSpec, PerturbationSpec, RunConfig
from .errors import ConfigurationError
from .faults import FaultBehavior, FaultPlacement, sample_placement
from .protocol import SourceMode
from .timing import Params
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

# The most (layer, pulse, vertex) cells that layers x pulses x vertices may give:
# a run holds about 0.35 KiB a cell (m = 256 at 256 layers and 12 pulses, 0.8
# million cells, peaks near 290 MiB), so this is some 30 GiB. A larger grid is
# refused before anything is allocated. It is also the most that any other count
# which sizes a loop or a list may be: a vertex id of an edge list (plus one), a
# burst's count, corruption.max_spurious_messages, seeds.count and trials.
MAX_GRID_CELLS = 10 ** 8

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
        lists = {"seeds": self.seeds, "behavior_mix": self.behavior_mix,
                 **{f"sweep.{axis}": values for axis, values in self.axes.items()}}
        for path, values in lists.items():
            if not values:
                raise ConfigurationError(f"{path}: the list must be non-empty")
        if self.trials < 0:
            raise ConfigurationError(f"trials: must be >= 0, got {self.trials}")
        if not 0.0 <= self.fault_probability <= 1.0:
            raise ConfigurationError(f"fault_probability: must be in [0, 1], "
                                     f"got {self.fault_probability!r}")


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
        except (TypeError, ValueError, OverflowError) as exc:
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _integer(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"must be an integer, got {x!r}")
    return x


def _count(x) -> int:
    """An integer that sizes a loop or a list, at most MAX_GRID_CELLS."""
    if _integer(x) > MAX_GRID_CELLS:
        raise ValueError(f"must be at most {MAX_GRID_CELLS:,}")
    return x


def _edge(x) -> tuple[int, int]:
    if not (isinstance(x, list) and len(x) == 2):
        raise TypeError(f"expected [u, v] with integer vertices, got {x!r}")
    return _integer(x[0]), _integer(x[1])


def _real(x) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"must be a number, got {x!r}")
    return float(x)


def _boolean(x) -> bool:
    if not isinstance(x, bool):
        raise TypeError(f"must be true or false, got {x!r}")
    return x


def _cells(path: str, count: int) -> None:
    """Refuse a grid of ``count`` cells above MAX_GRID_CELLS, naming ``path``."""
    if count > MAX_GRID_CELLS:
        raise ConfigurationError(f"{path}: the grid of layers x pulses x vertices would exceed "
                                 f"{MAX_GRID_CELLS:,} cells")


def _built(path: str, make, **kwargs):
    """``make(**kwargs)``, with any ConfigurationError it raises prefixed by ``path``."""
    try:
        return make(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _base_graph(doc: dict) -> BaseGraph:
    section = _mapping(doc.get("topology"), "topology", ("kind", "m", "edges"))
    kind = section.get("kind", "line_replicated")
    if kind not in TOPOLOGY_KEYS:
        raise ConfigurationError(f"topology.kind: unknown kind {kind!r}")
    _mapping(section, "topology", TOPOLOGY_KEYS[kind])
    if kind == "line_replicated":
        m = _value(section, "topology.m", _integer)
        _cells("topology.m", m + 4)
        return _built("topology.m", build_line_with_replicated_ends, m=m)
    edges = _entries(section.get("edges"), "topology.edges", _edge)
    for i, edge in enumerate(edges):
        _cells(f"topology.edges[{i}]", max(edge) + 1)
    return _built("topology.edges", from_edges, edges=list(edges))


def _params(doc: dict) -> Params:
    section = _mapping(doc.get("params"), "params", SECTION_KEYS["params"])
    return _built(
        "params", Params,
        d=_value(section, "params.d", _real),
        u=_value(section, "params.u", _real),
        theta=_value(section, "params.theta", _real),
        lam=_value(section, "params.Lambda", _real),
        validation_constant=_value(section, "params.C", _real, 2.0),
    )


def _map_row(x) -> tuple[tuple, float]:
    """A row [dag, v, layer, w, delay] or [chain, hop, w, delay] as (edge key, delay)."""
    if not (isinstance(x, list) and len(x) in (4, 5) and x[0] in ("dag", "chain")):
        raise TypeError(f"expected [dag, v, layer, w, delay] or [chain, hop, w, delay], got {x!r}")
    return (x[0], *map(_integer, x[1:-1])), _real(x[-1])


def _delay_map(rows) -> dict | None:
    """``delays.map`` rows [*edge key, delay], at most one per edge, as a dict in row order."""
    if rows is None:
        return None
    delays = {}
    for i, (key, delay) in enumerate(_entries(rows, "delays.map", _map_row)):
        if key in delays:
            raise ConfigurationError(f"delays.map[{i}]: a second row for edge {key}")
        delays[key] = delay
    return delays


def _behavior(node, path: str) -> FaultBehavior:
    spec = _mapping(node, path, BEHAVIOR_KEYS)
    recipients = spec.get("recipients")
    if recipients is not None:
        recipients = _entries(recipients, f"{path}.recipients", _integer)
    fields = dict(
        kind=_value(spec, f"{path}.kind", str),
        offset=_value(spec, f"{path}.offset", _real, 0.0),
        times=_entries(spec.get("times", []), f"{path}.times", _real),
        offsets=_entries(spec.get("offsets", []), f"{path}.offsets", _real),
        count=_value(spec, f"{path}.count", _count, 0),
        spacing=_value(spec, f"{path}.spacing", _real, 0.0),
        recipients=recipients,
    )
    return _built(path, FaultBehavior, **fields)


def _placement(doc: dict, base: BaseGraph, layers: int) -> FaultPlacement:
    """The ``faults`` section in document order; ``RunConfig`` checks its nodes."""
    section = _mapping(doc.get("faults"), "faults", SECTION_KEYS["faults"])
    if not section:
        return FaultPlacement.empty()
    if "p" in section and "placement" in section:
        raise ConfigurationError("faults: give either p or placement, not both")
    strict = _value(section, "faults.strict", _boolean, True)
    if "p" in section:
        graph = _built("layers", build_layered, base=base, layers=layers)
        placement = _built("faults.p", sample_placement, graph=graph,
                           p=_value(section, "faults.p", _real),
                           seed=_value(section, "faults.seed", _integer, 0))
        return FaultPlacement(behaviors=dict(placement.behaviors), strict=strict)
    behaviors = {}
    for i, entry in enumerate(_list(section.get("placement", []), "faults.placement")):
        path = f"faults.placement[{i}]"
        entry = _mapping(entry, path, PLACEMENT_KEYS)
        node = (_value(entry, f"{path}.vertex", _integer), _value(entry, f"{path}.layer", _integer))
        if node in behaviors:
            raise ConfigurationError(f"{path}: a second entry for node (vertex, layer) = {node}")
        behaviors[node] = _behavior(entry.get("behavior"), f"{path}.behavior")
    return FaultPlacement(behaviors=behaviors, strict=strict)


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
    _cells("layers", base.num_vertices * layers)
    pulses = _value(doc, "pulses", _integer)
    _cells("pulses", base.num_vertices * max(layers, 1) * pulses)
    source = _mapping(doc.get("source"), "source", SECTION_KEYS["source"])
    delays = _mapping(doc.get("delays"), "delays", SECTION_KEYS["delays"])
    clocks = _mapping(doc.get("clocks"), "clocks", SECTION_KEYS["clocks"])

    # a disabled section is read as strictly as an enabled one, then dropped
    corr = _mapping(doc.get("corruption"), "corruption", SECTION_KEYS["corruption"])
    corruption = _built(
        "corruption", CorruptionSpec,
        node_fraction=_value(corr, "corruption.node_fraction", _real, 0.0),
        max_spurious_messages=_value(corr, "corruption.max_spurious_messages", _count, 0),
    )
    if not (corr and _value(corr, "corruption.enabled", _boolean, True)):
        corruption = None

    pert = _mapping(doc.get("perturbation"), "perturbation", SECTION_KEYS["perturbation"])
    perturbation = None
    if pert:
        perturbation = _built(
            "perturbation", PerturbationSpec,
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
        source=_built(
            "source", SourceMode,
            kind=source.get("kind", "ideal"),
            jitter=_value(source, "source.jitter", _real, 0.0),
            seed=_value(source, "source.seed", _integer, 0),
        ),
        pulses=pulses,
        delay_strategy=delays.get("strategy", "uniform-random"),
        delay_seed=_value(delays, "delays.seed", _integer, 0),
        custom_delays=_delay_map(delays.get("map")),
        clock_strategy=clocks.get("strategy", "uniform"),
        clock_seed=_value(clocks, "clocks.seed", _integer, 0),
        placement=_placement(doc, base, layers),
        machine=doc.get("machine", "full"),
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
        seeds = tuple(range(start, start + _value(seeds_spec, "seeds.count", _count, 1)))
    else:
        seeds = _entries(seeds_spec, "seeds", _integer)
    axes = {} if doc.get("sweep") is None else doc["sweep"]
    if not isinstance(axes, dict):
        raise ConfigurationError(f"sweep: must map axis names to value lists, got {axes!r}")
    return ExperimentSpec(
        run=doc["run"],
        seeds=seeds,
        axes={str(k): _list(v, f"sweep.{k}") for k, v in axes.items()},
        trials=_value(doc, "trials", _count, 0),
        fault_probability=_value(doc, "fault_probability", _real, 0.0),
        behavior_mix=_entries(doc.get("behavior_mix", ["silent"]), "behavior_mix", _mc_behavior),
        behavior_changes_per_pulse=_value(doc, "behavior_changes_per_pulse", _integer, 1),
        corruption=_mapping(doc.get("corruption"), "corruption", SECTION_KEYS["corruption"]),
    )
