"""Deterministic simulator and verification harness for fault-tolerant
pulse synchronization on layered grid graphs."""

from .engine import RunConfig, RunResult, run, run_events
from .errors import AlignmentError, ConfigurationError, ProtocolError
from .faults import FaultBehavior, FaultPlacement
from .protocol import SourceMode
from .timing import Params
from .topology import BaseGraph, LayeredGraph, build_layered, build_line_with_replicated_ends

__all__ = [
    "AlignmentError",
    "BaseGraph",
    "ConfigurationError",
    "FaultBehavior",
    "FaultPlacement",
    "LayeredGraph",
    "Params",
    "ProtocolError",
    "RunConfig",
    "RunResult",
    "SourceMode",
    "build_layered",
    "build_line_with_replicated_ends",
    "run",
    "run_events",
]

__version__ = "0.1.0"
