"""Config file loading: one YAML document is the sole input of a run.

Sections mirror the run configuration; numbers parse to IEEE doubles. All
outputs are deterministic functions of the config file bytes, so seeds and
every knob live here. Semantic errors carry the offending key path; YAML
syntax errors keep PyYAML's line/column marks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .engine import CorruptionSpec, PerturbationSpec, RunConfig
from .errors import ConfigurationError
from .faults import FaultBehavior, FaultPlacement, sample_placement, validate_placement
from .protocol import SourceMode
from .timing import DELAY_STRATEGIES, Params
from .topology import BaseGraph, build_layered, build_line_with_replicated_ends, parse_edge_list

__all__ = ["ExperimentSpec", "MC_BEHAVIORS", "load_config", "load_experiment", "build_run_config"]

SCHEMA_VERSION = 1

# faults-mc behavior_mix names with a static behavior, built from the period;
# "per_pulse_offset" is also accepted and drawn per trial.
MC_BEHAVIORS = {
    "silent": lambda lam: FaultBehavior(kind="silent"),
    "fixed_offset_plus": lambda lam: FaultBehavior(kind="fixed_offset", offset=lam / 4),
    "fixed_offset_minus": lambda lam: FaultBehavior(kind="fixed_offset", offset=-lam / 4),
    "burst": lambda lam: FaultBehavior(kind="burst", count=3, spacing=lam / 20),
}


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
            raise ConfigurationError("seed list must be non-empty")


def _get(mapping: dict, path: str, default=None, required: bool = False):
    node = mapping
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigurationError(f"config key {path!r} is required")
            return default
        node = node[part]
    return node


def _base_graph(doc: dict) -> BaseGraph:
    kind = _get(doc, "topology.kind", default="line_replicated")
    if kind == "line_replicated":
        m = _get(doc, "topology.m", required=True)
        if not isinstance(m, int) or m < 2:
            raise ConfigurationError("topology.m: need an integer >= 2")
        return build_line_with_replicated_ends(m)
    if kind == "edge_list":
        path = _get(doc, "topology.path", required=True)
        return parse_edge_list(Path(path).read_text())
    raise ConfigurationError(f"topology.kind: unknown kind {kind!r}")


def _params(doc: dict) -> Params:
    section = _get(doc, "params", required=True)
    try:
        return Params.derive(
            d=float(section["d"]),
            u=float(section["u"]),
            theta=float(section["theta"]),
            lam=float(section["Lambda"]),
            validation_constant=float(section.get("C", 2.0)),
        )
    except KeyError as exc:
        raise ConfigurationError(f"params.{exc.args[0]}: missing") from exc


def _source(doc: dict) -> SourceMode:
    kind = _get(doc, "source.kind", default="ideal")
    return SourceMode(
        kind=kind,
        jitter=float(_get(doc, "source.jitter", default=0.0)),
        seed=int(_get(doc, "source.seed", default=0)),
    )


def _behavior(spec: dict) -> FaultBehavior:
    kind = spec.get("kind")
    recipients = spec.get("recipients")
    return FaultBehavior(
        kind=kind,
        offset=float(spec.get("offset", 0.0)),
        times=tuple(float(x) for x in spec.get("times", ())),
        offsets=tuple(float(x) for x in spec.get("offsets", ())),
        count=int(spec.get("count", 0)),
        spacing=float(spec.get("spacing", 0.0)),
        recipients=tuple(int(x) for x in recipients) if recipients is not None else None,
    )


def _placement(doc: dict, base: BaseGraph, layers: int) -> FaultPlacement:
    section = _get(doc, "faults")
    if not section:
        return FaultPlacement.empty()
    strict = bool(section.get("strict", True))
    if "p" in section:
        graph = build_layered(base, layers)
        placement = sample_placement(graph, float(section["p"]), int(section.get("seed", 0)))
        placement = FaultPlacement(behaviors=dict(placement.behaviors), strict=strict)
    else:
        behaviors = {}
        for i, entry in enumerate(section.get("placement", ())):
            try:
                node = (int(entry["vertex"]), int(entry["layer"]))
                behaviors[node] = _behavior(entry["behavior"])
            except (KeyError, TypeError) as exc:
                raise ConfigurationError(f"faults.placement[{i}]: {exc}") from exc
        placement = FaultPlacement(behaviors=behaviors, strict=strict)
    if strict and placement:
        graph = build_layered(base, layers)
        bad = validate_placement(graph, placement)
        if bad:
            raise ConfigurationError(
                f"faults: strict placement violated; nodes with two faulty "
                f"predecessors: {bad[:5]}{'...' if len(bad) > 5 else ''}"
            )
    return placement


def build_run_config(doc: dict) -> RunConfig:
    """Assemble and validate a RunConfig from a parsed config document."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a mapping")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigurationError(f"schema: unsupported version {schema!r}")
    base = _base_graph(doc)
    layers = _get(doc, "layers", required=True)
    pulses = _get(doc, "pulses", required=True)
    params = _params(doc)

    corruption = None
    corr = _get(doc, "corruption")
    if corr and corr.get("enabled", True):
        corruption = CorruptionSpec(
            node_fraction=float(corr.get("node_fraction", 0.0)),
            max_spurious_messages=int(corr.get("max_spurious_messages", 0)),
        )

    perturbation = None
    pert = _get(doc, "perturbation")
    if pert:
        perturbation = PerturbationSpec(
            delay_magnitude=float(pert.get("delay_magnitude", 0.0)),
            rate_magnitude=float(pert.get("rate_magnitude", 0.0)),
            seed=int(pert.get("seed", 0)),
        )

    enforce = _get(doc, "enforce_alignment")
    return RunConfig(
        base=base,
        layers=int(layers),
        params=params,
        source=_source(doc),
        pulses=int(pulses),
        delay_strategy=_get(doc, "delays.strategy", default="uniform-random"),
        delay_seed=int(_get(doc, "delays.seed", default=0)),
        custom_delays=_get(doc, "delays.map"),
        clock_strategy=_get(doc, "clocks.strategy", default="uniform"),
        clock_seed=int(_get(doc, "clocks.seed", default=0)),
        placement=_placement(doc, base, int(layers)),
        machine=_get(doc, "machine", default="full"),
        corruption=corruption,
        corruption_seed=int(corr.get("seed", 0)) if corr else 0,
        perturbation=perturbation,
        enforce_alignment=enforce if enforce is None else bool(enforce),
    )


def _check_delay_strategy(doc: dict) -> None:
    strategy = _get(doc, "delays.strategy", default="uniform-random")
    if strategy not in DELAY_STRATEGIES:
        raise ConfigurationError(
            f"delays.strategy: {strategy!r} not one of {DELAY_STRATEGIES}"
        )


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
    doc = load_document(path)
    _check_delay_strategy(doc)
    return build_run_config(doc)


def load_experiment(path: str | Path) -> ExperimentSpec:
    doc = load_document(path)
    run_doc = doc.get("run")
    if not isinstance(run_doc, dict):
        raise ConfigurationError("experiment config needs a 'run' section")
    seeds_spec = doc.get("seeds", [0])
    if isinstance(seeds_spec, dict):
        start = int(seeds_spec.get("start", 0))
        count = int(seeds_spec.get("count", 1))
        seeds = tuple(range(start, start + count))
    else:
        seeds = tuple(int(s) for s in seeds_spec)
    axes = doc.get("sweep", {}) or {}
    if not isinstance(axes, dict):
        raise ConfigurationError("'sweep' must map axis names to value lists")
    mix = tuple(str(b) for b in doc.get("behavior_mix", ["silent"]))
    for i, name in enumerate(mix):
        if name not in MC_BEHAVIORS and name != "per_pulse_offset":
            raise ConfigurationError(
                f"behavior_mix[{i}]: unknown behavior {name!r}; valid: "
                f"{sorted([*MC_BEHAVIORS, 'per_pulse_offset'])}"
            )
    return ExperimentSpec(
        run=run_doc,
        seeds=seeds,
        axes={str(k): list(v) for k, v in axes.items()},
        trials=int(doc.get("trials", 0)),
        fault_probability=float(doc.get("fault_probability", 0.0)),
        behavior_mix=mix,
        behavior_changes_per_pulse=int(doc.get("behavior_changes_per_pulse", 1)),
        corruption=doc.get("corruption", {}) or {},
    )
