"""The benchmark's span tracer can still wrap every gridpulse name it targets.

``perfbench/tracer.py`` patches module attributes such as
``gridpulse.engine.gcs_step`` for one pass and puts them back afterwards;
it raises on entry when a target is gone. The file is loaded by path and
only read here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from gridpulse import engine
from gridpulse.protocol import SourceMode
from gridpulse.timing import Params
from gridpulse.topology import build_line_with_replicated_ends

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target_attributes(targets) -> list:
    """(owner, attribute name, current value or None) of every target; the
    tracer itself reports a missing one by name on entry."""
    found = []
    for module, path, _name, _leaf in targets:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        found.append((owner, attr, vars(owner).get(attr)))
    return found


def test_enters_and_restores_every_target():
    tracer_mod = load_tracer()
    before = target_attributes(tracer_mod.TARGETS)
    params = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
    cfg = engine.RunConfig(base=build_line_with_replicated_ends(4), layers=3, params=params,
                           source=SourceMode(kind="chain"), pulses=3)
    with tracer_mod.Tracer() as tracer:
        assert all(getattr(owner, attr) is not value for owner, attr, value in before)
        result = engine.run(cfg)
    assert [value for _owner, _attr, value in target_attributes(tracer_mod.TARGETS)] == [
        value for _owner, _attr, value in before]
    assert tracer.counts["engine.runs"] == 1
    assert tracer.counts["engine.events"] == result.diagnostics.events
    steps = sum(calls for (_parent, name), (calls, _s) in tracer.leaves.items()
                if name == "protocol.step")
    assert 0 < steps <= result.diagnostics.events
