"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that advances by a fixed step on every read."""

    def __init__(self, step: int = 10) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


def test_self_times_of_nested_calls_add_up_to_wall_time():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def leaf():
        clock.now += 1000

    def middle():
        clock.now += 500
        tracer.call("ppsfp", leaf, (), {})
        # a call into the layer it is already in opens no new span
        tracer.call("compaction", lambda: None, (), {})
        clock.now += 200

    def operation():
        tracer.call("compaction", middle, (), {})

    tracer.call(layers.ENGINE, operation, (), {})
    totals = tracer.totals()

    # every clock read advances 10 ns; the work inside a span counts for
    # the innermost layer, and so do the clock reads of its child's entry
    # and its own exit
    assert round(totals["ppsfp"]["self_s"] * 1e9) == 1000 + 10
    assert round(totals["compaction"]["self_s"] * 1e9) == 500 + 200 + 10 + 10
    assert round(totals[layers.ENGINE]["self_s"] * 1e9) == 10 + 10
    assert totals["compaction"]["calls"] == 1
    assert totals[layers.ENGINE]["calls"] == 1
    assert totals["uio"] == {"self_s": 0.0, "calls": 0}
    summed = sum(entry["self_s"] for entry in totals.values())
    assert round(summed * 1e9) == tracer.spans[0].duration_ns


def test_install_rebinds_every_caller_and_undoes_it():
    import repro.core.generator as generator
    import repro.harness.experiments as experiments
    import repro.perf.engine as engine

    original = generator.generate_tests
    tracer = layers.Tracer()
    uninstall = layers.install(tracer, layers.layer_targets())
    try:
        assert engine.generate_tests is experiments.generate_tests
        assert engine.generate_tests is not original
        assert engine.generate_tests.__wrapped__ is original
    finally:
        uninstall()
    assert engine.generate_tests is original
    assert experiments.generate_tests is original


def test_traced_lion_attributes_time_to_layers():
    tracer = layers.Tracer()
    uninstall = layers.install(tracer, layers.layer_targets())
    try:
        ops = workloads.build("grade_small", ("lion",))
        reference = workloads.load_reference()["grade_small"]
        rep = workloads.run_ops(
            ops, reference, lambda op: tracer.call(layers.ENGINE, op, (), {}))
    finally:
        uninstall()
    assert rep.failed == 0, rep.problems
    metrics = layers.layer_metrics(tracer.totals())
    names = {name for name, _, _ in layers.per_layer_names()}
    assert set(metrics) | {"trace.overhead_pct"} == names
    for layer in ("uio", "generator", "synthesis", "sca", "detectability",
                  "ppsfp", "compaction", layers.ENGINE):
        assert metrics[f"{layer}.calls"] >= 1, layer
    assert metrics["atpg.calls"] == 0
    assert metrics["sca.collapse_ratio"] > 1
    assert layers.self_time_problems(tracer.totals(), rep.wall_s) == []

    from repro.obs.trace import to_chrome, validate_chrome_trace

    assert validate_chrome_trace(to_chrome(tracer.records())) == []


def test_time_outside_the_spans_fails_the_self_time_check():
    tracer = layers.Tracer()
    ops = [workloads.Op("work", lambda: time.sleep(0.01), lambda result: {})]
    reference = {"work": {}}

    def traced(run):
        return tracer.call(layers.ENGINE, run, (), {})

    rep = workloads.run_ops(ops, reference, traced)
    assert layers.self_time_problems(tracer.totals(), rep.wall_s) == []

    def leaky(run):
        time.sleep(0.02)  # outside every span
        return traced(run)

    tracer = layers.Tracer()
    rep = workloads.run_ops(ops, reference, leaky)
    problems = layers.self_time_problems(tracer.totals(), rep.wall_s)
    assert len(problems) == 1 and "traced wall time" in problems[0]


def test_planted_wrong_output_raises_fail_ratio():
    reference = workloads.load_reference()["grade_small"]
    ops = workloads.build("grade_small", ("lion", "mc"))
    rep = workloads.run_ops(ops, reference)
    assert (rep.attempted, rep.failed) == (2, 0), rep.problems

    planted = copy.deepcopy(reference)
    planted["mc"]["sa_detected"] += 1
    rep = workloads.run_ops(workloads.build("grade_small", ("lion", "mc")), planted)
    assert (rep.attempted, rep.failed) == (2, 1)
    assert any("sa_detected" in problem for problem in rep.problems)


def test_lion_pin_and_missed_faults_are_checked_without_a_reference():
    outputs = {"tests": 9, "length": 27, "funct_cycles": 48, "sa_missed": 2}
    problems = workloads.check("lion", outputs, dict(outputs))
    assert len(problems) == 2


def test_raising_operation_and_atpg_aborts_count_as_failures():
    ops = [
        workloads.Op("boom", lambda: 1 / 0, lambda result: {}),
        workloads.Op("search", lambda: None,
                     lambda result: {"targets": 5, "aborted": 2}, weight=5),
    ]
    reference = {"search": {"targets": 5, "aborted": 2}}
    rep = workloads.run_ops(ops, reference)
    assert (rep.attempted, rep.failed) == (6, 3)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == layers.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]
