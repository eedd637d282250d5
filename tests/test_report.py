"""Stored runs: write_outputs then result_from_files reproduces the run arrays,
its config and its report."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gridpulse.engine import CorruptionSpec, PerturbationSpec, RunConfig, run
from gridpulse.faults import FaultBehavior, FaultPlacement
from gridpulse.protocol import SourceMode
from gridpulse.report import build_report, result_from_files, write_outputs
from gridpulse.timing import Params
from gridpulse.topology import build_line_with_replicated_ends

PARAMS = Params.derive(d=1.0, u=0.002, theta=1.0002, lam=2.0)
KAPPA = PARAMS.kappa

# exit_local is not written to snapshots.csv, so it reloads as NaN
STORED_ARRAYS = ("counts", "times", "local_times", "h_own", "h_min", "h_max", "correction")


def config(m, layers, pulses, seed, fault=None, corrupt=False, perturb=False) -> RunConfig:
    placement = FaultPlacement.empty()
    if fault is not None:
        v, layer, behavior = fault
        placement = FaultPlacement(behaviors={(v % (m + 4), layer % layers): behavior},
                                   strict=False)
    return RunConfig(
        base=build_line_with_replicated_ends(m), layers=layers, params=PARAMS,
        source=SourceMode(kind="ideal", jitter=KAPPA / 4, seed=seed), pulses=pulses,
        delay_seed=seed, clock_seed=seed + 1, placement=placement,
        corruption=CorruptionSpec(node_fraction=1.0, max_spurious_messages=8) if corrupt else None,
        corruption_seed=seed + 2,
        perturbation=PerturbationSpec(delay_magnitude=1e-5, rate_magnitude=1e-8, seed=seed)
        if perturb else None,
    )


def round_trip(result):
    """(report, reloaded run, report of the reloaded run)."""
    report = build_report(result)
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(result, report, Path(tmp))
        reloaded = result_from_files(Path(tmp))
    return report, reloaded, build_report(reloaded)


def assert_same_arrays(a, b) -> None:
    for name in STORED_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name  # bit for bit, NaN in the same places
    assert (a.arm == b.arm).all()


behaviors = st.sampled_from([
    FaultBehavior(kind="silent"),
    FaultBehavior(kind="fixed_offset", offset=0.3),
    FaultBehavior(kind="per_pulse_offset", offsets=(0.2, -0.1)),
])


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(2, 5),
    layers=st.integers(2, 5),
    pulses=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    fault=st.none() | st.tuples(st.integers(0, 8), st.integers(1, 4), behaviors),
    corrupt=st.booleans(),
    perturb=st.booleans(),
)
def test_stored_run_reloads_bit_for_bit(m, layers, pulses, seed, fault, corrupt, perturb):
    result = run(config(m, layers, pulses, seed, fault, corrupt, perturb))
    report, reloaded, reloaded_report = round_trip(result)
    assert_same_arrays(result, reloaded)
    assert reloaded.config == result.config
    assert json.dumps(reloaded_report, sort_keys=True) == json.dumps(report, sort_keys=True)


def test_overflow_pulses_round_trip():
    """A corrupted start emits more pulses than configured; all are stored."""
    result = run(config(3, 3, 4, seed=3, corrupt=True))
    assert result.counts.max() > 4 and result.times.shape[1] == result.counts.max()
    _, reloaded, _ = round_trip(result)
    assert_same_arrays(result, reloaded)
