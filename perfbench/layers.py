"""Per-layer tracing for the benchmark's traced run.

The traced run wraps each layer's public entry points from outside the
library: every module-level name in ``repro.*`` that is bound to an entry
function (``repro.perf.engine.generate_tests``,
``repro.harness.experiments.select_effective_tests``, ...) is rebound to a
wrapper, and entry methods are replaced on their class.  A wrapper opens a
span when control passes into its layer from a different one; a call from a
layer into itself (``detects`` -> ``detect_mask``) stays inside the open
span.  Spans live in memory and are written once, as a Chrome trace
through :func:`repro.obs.trace.to_chrome`, when the run ends.

A layer's self time is its span's duration minus the durations of the
spans directly inside it.  The benchmark opens one ``engine`` span around
every operation, so the layer self times plus ``engine`` self time must
add up to the wall time the operations measure on their own clock
(:func:`self_time_problems`).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "ENGINE",
    "LAYERS",
    "Tracer",
    "install",
    "layer_metrics",
    "layer_targets",
    "per_layer_names",
    "self_time_problems",
    "span_cost_ns",
]

#: Root layer: the pipeline glue outside every other layer.
ENGINE = "engine"

#: Layers in report order, named after the modules they wrap.  Per
#: layer, besides ``self_s`` and ``calls``: ``(metric, unit, better,
#: numerator, denominator)`` over the layer's totals.  The denominator
#: ``self_s`` makes a rate; ``None`` reports the numerator as it is.
DERIVED: dict[str, list[tuple[str, str, str, str, str | None]]] = {
    "uio": [("states_per_s", "1/s", "higher", "states", "self_s")],
    "generator": [("transitions_per_s", "1/s", "higher", "transitions", "self_s")],
    "faultmodel": [("faults_per_s", "1/s", "higher", "faults", "self_s")],
    "synthesis": [],
    "sca": [("collapse_ratio", "ratio", "higher", "faults", "reps")],
    "detectability": [("cells_per_s", "1/s", "higher", "cells", "self_s")],
    "ppsfp": [("cells_per_s", "1/s", "higher", "cells", "self_s")],
    "compiled": [("fault_cycles_per_s", "1/s", "higher", "fault_cycles", "self_s")],
    "compaction": [("effective_ratio", "ratio", "lower", "effective", "tests")],
    "atpg": [("targets_per_s", "1/s", "higher", "targets", "self_s"),
             ("backtracks", "count", "lower", "backtracks", None),
             ("abort_ratio", "ratio", "lower", "aborted", "targets")],
    ENGINE: [],
}
LAYERS = tuple(DERIVED)

#: Allowed gap between the summed self times and the traced wall time.
SELF_TIME_SLACK_S = 1e-3
SELF_TIME_SLACK_REL = 0.01

WorkCounter = Callable[[tuple, dict, Any], dict[str, float]]


@dataclass
class Span:
    layer: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    #: summed duration of the spans directly inside this one
    child_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Tracer:
    """In-memory span stack with per-layer self time, calls and work."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.work: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )

    @property
    def current(self) -> str | None:
        return self.spans[self._open[-1]].layer if self._open else None

    def enter(self, layer: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(layer, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)

    def exit(self) -> None:
        span = self.spans[self._open.pop()]
        span.end_ns = self.clock()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.duration_ns

    def call(self, layer: str, function: Callable, args: tuple, kwargs: dict):
        """``function(*args, **kwargs)`` inside a ``layer`` span."""
        if self.current == layer:
            return function(*args, **kwargs)
        self.enter(layer)
        try:
            return function(*args, **kwargs)
        finally:
            self.exit()

    def add_work(self, layer: str, amounts: dict[str, float]) -> None:
        bucket = self.work[layer]
        for key, amount in amounts.items():
            bucket[key] += amount

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s``, ``calls`` and every work counter."""
        totals: dict[str, dict[str, float]] = {
            layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS
        }
        for span in self.spans:
            entry = totals.setdefault(span.layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += span.self_ns / 1e9
            entry["calls"] += 1
        for layer, bucket in self.work.items():
            totals.setdefault(layer, {"self_s": 0.0, "calls": 0}).update(bucket)
        return totals

    def records(self) -> list:
        """The spans as :class:`repro.obs.trace.SpanRecord` objects, each
        with its self time in ``attrs``, for :func:`repro.obs.trace.to_chrome`."""
        from repro.obs.trace import SpanRecord

        pid = os.getpid()
        return [
            SpanRecord(index + 1, span.parent + 1 if span.parent >= 0 else None,
                       span.layer, span.start_ns, span.duration_ns, pid,
                       {"self_us": span.self_ns / 1000.0})
            for index, span in enumerate(self.spans)
        ]


def self_time_problems(totals: dict[str, dict[str, float]], wall_s: float) -> list[str]:
    """A problem if the layer self times in ``totals`` do not add up to
    ``wall_s``, the wall time the operations measured on their own clock
    around their root spans.  Time spent outside every span, or lost by a
    wrapper, shows as a gap; up to ``SELF_TIME_SLACK_S`` plus
    ``SELF_TIME_SLACK_REL`` of ``wall_s`` is clock reads and call overhead.
    """
    summed = sum(entry["self_s"] for entry in totals.values())
    if abs(summed - wall_s) <= SELF_TIME_SLACK_S + SELF_TIME_SLACK_REL * wall_s:
        return []
    return [f"layer self times add up to {summed:.6f} s, "
            f"not the traced wall time {wall_s:.6f} s"]


def _wrap(tracer: Tracer, layer: str, function: Callable, count: WorkCounter | None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, function, args, kwargs)
        if count is not None:
            tracer.add_work(layer, count(args, kwargs, result))
        return result

    return wrapper


def install(tracer: Tracer, targets) -> Callable[[], None]:
    """Wrap every ``(layer, owner, attribute, count)`` target.

    A class attribute is replaced on the class.  A module function is
    replaced at every ``repro.*`` module-level name bound to it, which is
    the name each caller resolves at call time.  Returns a function that
    puts every original back.
    """
    undo: list[tuple[Any, str, Any]] = []
    for layer, owner, attribute, count in targets:
        original = getattr(owner, attribute)
        wrapper = _wrap(tracer, layer, original, count)
        if isinstance(owner, type):
            undo.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
            continue
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


def layer_targets() -> list[tuple[str, Any, str, WorkCounter | None]]:
    """The public entry points of every layer, with their work counters."""
    import repro.atpg.engine as atpg_engine
    import repro.core.compaction as compaction
    import repro.core.faultmodel as faultmodel
    import repro.core.generator as generator
    import repro.gatelevel.detectability as detectability
    import repro.gatelevel.synthesis as synthesis
    import repro.sca.analysis as sca_analysis
    import repro.uio.search as uio_search
    from repro.gatelevel.compiled import CompiledFaultSimulator
    from repro.gatelevel.ppsfp import PpsfpSimulator
    from repro.gatelevel.scan import ScanCircuit
    from repro.sca.analysis import ScaAnalysis

    def ppsfp_cells(args, kwargs, result):
        circuit, faults = args[1], args[3]
        bits = circuit.n_state_variables + circuit.n_primary_inputs
        return {"cells": len(faults) << bits}

    def sca_universe(args, kwargs, result):
        universe = result.universe
        return {"faults": universe.n_faults, "reps": universe.n_representatives}

    def atpg_run(args, kwargs, result):
        return {"targets": result.n_targets,
                "backtracks": result.total_backtracks,
                "aborted": len(result.aborted)}

    return [
        ("uio", uio_search, "compute_uio_table",
         lambda a, k, r: {"states": a[0].n_states}),
        ("generator", generator, "generate_tests",
         lambda a, k, r: {"transitions": a[0].n_transitions}),
        ("faultmodel", faultmodel, "simulate_functional_faults",
         lambda a, k, r: {"faults": r.n_faults}),
        ("synthesis", synthesis, "synthesize", None),
        ("synthesis", ScanCircuit, "verify_against", None),
        ("sca", sca_analysis, "analyze", None),
        ("sca", ScaAnalysis, "materialize", sca_universe),
        ("sca", ScaAnalysis, "verify", None),
        ("detectability", detectability, "detectable_faults",
         lambda a, k, r: {"cells": len(a[1]) << len(a[0].inputs)}),
        ("ppsfp", PpsfpSimulator, "__init__", ppsfp_cells),
        ("ppsfp", PpsfpSimulator, "detect_mask", None),
        ("ppsfp", PpsfpSimulator, "detect_masks", None),
        ("ppsfp", PpsfpSimulator, "detects", None),
        ("compiled", CompiledFaultSimulator, "__init__", None),
        ("compiled", CompiledFaultSimulator, "detect_mask",
         lambda a, k, r: {"fault_cycles": len(a[0].faults) * len(a[1].inputs)}),
        ("compiled", CompiledFaultSimulator, "detect_masks", None),
        ("compiled", CompiledFaultSimulator, "detects", None),
        ("compaction", compaction, "select_effective_tests",
         lambda a, k, r: {"tests": len(a[0].tests), "effective": r.n_effective}),
        ("atpg", atpg_engine, "generate_structural_tests", atpg_run),
    ]


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s", "lower"))
        names.append((f"{layer}.calls", "count", "lower"))
        names.extend((f"{layer}.{metric}", unit, better)
                     for metric, unit, better, _, _ in DERIVED[layer])
    names.append(("trace.overhead_pct", "%", "lower"))
    return names


def layer_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_pct``, from
    :meth:`Tracer.totals`.  A layer that was never entered reports 0."""
    values = {}
    for layer in LAYERS:
        entry = totals.get(layer, {})
        values[f"{layer}.self_s"] = entry.get("self_s", 0.0)
        values[f"{layer}.calls"] = entry.get("calls", 0)
        for metric, _, _, numerator, denominator in DERIVED[layer]:
            value = entry.get(numerator, 0)
            if denominator is not None:
                below = entry.get(denominator, 0)
                value = value / below if below else 0.0
            values[f"{layer}.{metric}"] = value
    return values


def span_cost_ns() -> float:
    """Measured cost of one wrapped call over a bare call, in ns."""
    samples = 20000
    tracer = Tracer()

    def bare():
        return None

    wrapped = _wrap(tracer, "uio", bare, None)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter_ns()
        for _ in range(samples):
            bare()
        middle = time.perf_counter_ns()
        for _ in range(samples):
            wrapped()
        end = time.perf_counter_ns()
        best = min(best, ((end - middle) - (middle - start)) / samples)
        tracer.spans.clear()
    return max(best, 0.0)
