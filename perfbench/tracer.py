"""Spans around gridpulse's layers, recorded by wrappers that the benchmark
installs on module attributes for one pass and removes afterwards.

A span is (id, name, start, end, parent id, op id). Calls made once per
simulated event (the protocol steps and fault emissions) are leaves: they
are aggregated per enclosing span into a call count and a total time, so a
pass of a few million events keeps a few hundred records in memory.

A layer's self time is the duration of its spans minus the time covered by
their direct children, leaves included.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

_MISSING = object()

# (module, attribute path, span name, leaf). Attributes are patched where the
# caller looks them up: gridpulse.engine holds its own references to the
# protocol, timing, topology and fault functions, gridpulse.cli to run,
# build_report, write_outputs and load_config.
TARGETS = (
    ("gridpulse.engine", "run", "engine.run", False),
    ("gridpulse.cli", "run", "engine.run", False),
    ("gridpulse.engine", "gcs_step", "protocol.step", True),
    ("gridpulse.engine", "layer0_step", "protocol.step", True),
    ("gridpulse.engine", "sample_delays", "timing.sample", False),
    ("gridpulse.engine", "sample_clocks", "timing.sample", False),
    ("gridpulse.engine", "build_layered", "topology.build", False),
    ("gridpulse.topology", "build_layered", "topology.build", False),
    ("gridpulse.topology", "from_edges", "topology.build", False),
    ("gridpulse.config", "build_line_with_replicated_ends", "topology.build", False),
    ("gridpulse.engine", "faulty_emissions", "faults.emissions", True),
    ("gridpulse.analysis", "TraceView.__init__", "analysis.trace_view", False),
    *(("gridpulse.analysis", name, f"analysis.{name}", False) for name in (
        "local_skew", "potentials", "check_conditions", "check_drift", "check_estimates",
        "period_consistency", "check_fault_envelope", "psi_bound_violations",
        "skew_vs_potential_violations", "stabilization_pulse",
    )),
    ("gridpulse.report", "build_report", "report.build_report", False),
    ("gridpulse.cli", "build_report", "report.build_report", False),
    ("gridpulse.cli", "write_outputs", "report.write", False),
    ("gridpulse.report", "write_report_json", "report.write", False),
    ("gridpulse.report", "result_from_files", "report.read", False),
    ("gridpulse.cli", "load_config", "config.load", False),
    ("gridpulse.cli", "main", "cli.main", False),
)


def _count_run(counts: Counter, result) -> None:
    """Engine counters of the returned run; a fault-free twin that
    ``engine.run`` executes internally is not visible here."""
    diag = result.diagnostics
    cfg = result.config
    counts["engine.runs"] += 1
    counts["engine.events"] += diag.events
    counts["engine.messages"] += diag.messages
    counts["engine.stale_timers"] += diag.stale_timers
    counts["engine.reopens"] += diag.reopens
    counts["engine.node_pulses"] += cfg.layers * cfg.base.num_vertices * cfg.pulses


_ON_RETURN = {"engine.run": _count_run}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        self.leaves: dict = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, seconds]
        self.counts: Counter = Counter()
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, path, name, leaf in self.targets:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner).get(attr, _MISSING)
                if original is _MISSING:
                    raise AttributeError(f"{module}.{path} does not exist")
                self._saved.append((owner, attr, original))
                wrap = self._leaf if leaf else self._span
                setattr(owner, attr, wrap(original, name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every patched attribute, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name: str):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        on_return = _ON_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.op_id))
            if on_return is not None:
                on_return(self.counts, result)
            return result

        return wrapper

    def _leaf(self, fn, name: str):
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc = leaves[(stack[-1] if stack else None, name)]
                acc[0] += 1
                acc[1] += elapsed

        return wrapper

    # -- results --------------------------------------------------------------

    def layer_times(self) -> dict:
        """Per span name: 'self' (summed self time), 'span' (summed duration
        of spans not nested in a span of the same name) and 'calls'."""
        parent_of = {s[0]: s[4] for s in self.spans}
        name_of = {s[0]: s[1] for s in self.spans}
        child_time: Counter = Counter()
        for span_id, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(Counter)
        for (parent, name), (calls, seconds) in self.leaves.items():
            if parent is not None:
                child_time[parent] += seconds
            out[name]["self"] += seconds
            out[name]["span"] += seconds
            out[name]["calls"] += calls
        for span_id, name, start, end, parent, _op in self.spans:
            duration = end - start
            out[name]["self"] += duration - child_time[span_id]
            out[name]["calls"] += 1
            ancestor = parent
            while ancestor is not None and name_of[ancestor] != name:
                ancestor = parent_of[ancestor]
            if ancestor is None:
                out[name]["span"] += duration
        return out

    def records(self):
        """Spans and leaf aggregates as JSON-ready dicts."""
        for span_id, name, start, end, parent, op in self.spans:
            yield {"id": span_id, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op}
        for (parent, name), (calls, seconds) in self.leaves.items():
            yield {"leaf": name, "parent": parent, "calls": calls, "seconds": seconds}
