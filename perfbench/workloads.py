"""The benchmark's workloads, driven through the library's public API.

A workload is a list of operations.  Building the list is set-up: it
imports the library, loads the circuits and generates the inputs.  Each
operation is then timed on its own while a fixed reference kernel samples
the host's speed (:class:`HostSampler`), and its outputs are checked
against the reference values in ``reference.json`` after the clock
stops.

Every workload runs in one process with ``jobs=1`` and never touches the
artifact cache, the run ledger or the worker pool.  The inputs are the
committed benchmark circuits, visited in a fixed order, and transition-
fault samples drawn with a fixed seed, so every exact count (test counts,
clock cycles, coverage) and the peak memory, which grows with the studies
a run keeps, repeat from run to run.
"""

from __future__ import annotations

import contextlib
import json
import resource
import signal
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "HostSampler",
    "KERNEL_ITERATIONS",
    "Op",
    "RepResult",
    "WORKLOADS",
    "build",
    "check",
    "load_reference",
    "reference_kernel",
    "run_ops",
]

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Committed BENCH set: the 18 small-tier circuits plus bbara, ex4, mark1.
GRADE_SMALL = (
    "bbtas", "beecount", "dk14", "dk15", "dk16", "dk17", "dk27", "dk512",
    "ex2", "ex3", "ex5", "ex7", "lion", "lion9", "mc", "shiftreg", "tav",
    "train11", "bbara", "ex4", "mark1",
)
GRADE_LARGE = ("log",)
ATPG = ("bbara", "dk16")
#: Sampled single state-transition faults per small/medium circuit.
TF_SAMPLES = 200
#: Seed of the transition-fault samples.
TF_SEED = 0
#: The paper's worked example: lion gets 9 tests, length 28, 48 cycles.
LION_PIN = {"tests": 9, "length": 28, "funct_cycles": 48}

#: Iterations of the reference kernel (about 2.5 ms on a 2-core x86-64 VM).
KERNEL_ITERATIONS = 10000
#: Wall-clock period of the reference-kernel samples while operations run,
#: and while a repetition sets up (which takes well under a second).
SAMPLE_INTERVAL_S = 0.1
SETUP_SAMPLE_INTERVAL_S = 0.02
#: One reference-kernel sample during set-up on that VM at full speed.
NOMINAL_KERNEL_S = 0.0025


def reference_kernel() -> int:
    """Fixed pure-Python work: integer mixing plus dict and list traffic."""
    acc = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(KERNEL_ITERATIONS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        if not i & 7:
            items.append(acc >> 3)
    return acc + len(table) + len(items)


@dataclass
class Op:
    """One timed operation and the untimed summary of its result."""

    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], dict[str, Any]]
    #: operations it counts as in ``attempted`` (ATPG: one per target)
    weight: int = 1


# ----------------------------------------------------------------- summaries


def _generation(result) -> dict[str, Any]:
    return {
        "tests": result.n_tests,
        "length": result.total_length,
        "funct_cycles": result.clock_cycles(),
    }


def _detectability(prefix: str, partition) -> dict[str, Any]:
    detectable, undetectable = partition
    return {f"{prefix}_detectable": len(detectable),
            f"{prefix}_undetectable": len(undetectable)}


def _selection(prefix: str, selection, partition, scan_ratio: int) -> dict[str, Any]:
    detectable, _ = partition
    cycles = selection.effective.clock_cycles(scan_ratio)
    return {
        f"{prefix}_graded": selection.n_faults,
        f"{prefix}_detected": len(selection.detected),
        f"{prefix}_effective": selection.n_effective,
        f"{prefix}_cycles": cycles,
        f"{prefix}_missed": len(set(detectable) - selection.detected),
        "cycles": cycles,
        "graded": selection.n_faults,
        "detected": len(selection.detected),
    }


def _merge_counts(*parts: dict[str, Any]) -> dict[str, Any]:
    """Merge summaries, adding up the shared ``cycles``/``graded``/``detected``."""
    merged: dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            if key in ("cycles", "graded", "detected"):
                merged[key] = merged.get(key, 0) + value
            else:
                merged[key] = value
    return merged


# ----------------------------------------------------------------- workloads


def grade_small(circuits: tuple[str, ...]) -> list[Op]:
    """Table 6/7 pipeline, cold, one circuit per operation (CLI path)."""
    from repro.benchmarks import load_circuit, load_kiss_machine
    from repro.harness import experiments

    def operation(name: str) -> Op:
        def run():
            experiments.warm_studies([name], jobs=1)
            experiments.table6([name])
            experiments.table7([name])
            return experiments.get_study(name)

        def summarize(study):
            ratio = study.options.config.scan_ratio
            return _merge_counts(
                _generation(study.generation),
                _detectability("sa", study.stuck_at_detectability),
                _selection("sa", study.stuck_at_selection,
                           study.stuck_at_detectability, ratio),
                _detectability("br", study.bridging_detectability),
                _selection("br", study.bridging_selection,
                           study.bridging_detectability, ratio),
            )

        return Op(name, run, summarize)

    for name in circuits:
        load_circuit(name)
        load_kiss_machine(name)
    return [operation(name) for name in circuits]


def grade_large(circuits: tuple[str, ...]) -> list[Op]:
    """The same pipeline, one public ``CircuitStudy`` stage per operation."""
    from repro.benchmarks import load_circuit, load_kiss_machine
    from repro.harness import experiments

    def stages(name: str) -> list[Op]:
        study = experiments.get_study(name)
        ratio = study.options.config.scan_ratio

        def tables():
            return experiments.table6([name])[0], experiments.table7([name])[0]

        return [
            Op(f"{name}:uio", lambda: study.uio_table,
               lambda u: {"uio_found": u.n_found,
                          "uio_max_len": u.max_found_length}),
            Op(f"{name}:generation", lambda: study.generation, _generation),
            Op(f"{name}:synthesis", lambda: study.scan_circuit,
               lambda scan: {"gates": scan.netlist.n_gates}),
            Op(f"{name}:sca", lambda: (study.sca, study.stuck_at_faults),
               lambda r: {"representatives": r[0].universe.n_representatives,
                          "certificates": len(r[0].certificates)}),
            Op(f"{name}:sa_detectability", lambda: study.stuck_at_detectability,
               lambda p: _detectability("sa", p)),
            Op(f"{name}:sa_selection", lambda: study.stuck_at_selection,
               lambda sel: _selection(
                   "sa", sel, study.stuck_at_detectability, ratio)),
            Op(f"{name}:bridging_faults", lambda: study.bridging_faults,
               lambda faults: {"br_faults": len(faults)}),
            Op(f"{name}:br_detectability", lambda: study.bridging_detectability,
               lambda p: _detectability("br", p)),
            Op(f"{name}:br_selection", lambda: study.bridging_selection,
               lambda sel: _selection(
                   "br", sel, study.bridging_detectability, ratio)),
            Op(f"{name}:tables", tables,
               lambda rows: {"table6_sa_detected": rows[0].sa_detected,
                             "table6_br_detected": rows[0].bridge_detected,
                             "table7_sa_cycles": rows[1].sa_cycles,
                             "table7_br_cycles": rows[1].bridge_cycles}),
        ]

    ops: list[Op] = []
    for name in circuits:
        load_circuit(name)
        load_kiss_machine(name)
        ops.extend(stages(name))
    return ops


def functional(circuits: tuple[str, ...]) -> list[Op]:
    """UIO search, test generation and transition-fault grading.

    Small and medium circuits grade a sample of ``TF_SAMPLES`` single
    state-transition faults drawn with ``TF_SEED``; the large tier is not
    graded (nucpwr alone would take minutes).
    """
    import repro
    from repro.benchmarks import get_spec, load_circuit
    from repro.core import faultmodel
    from repro.core.config import GeneratorConfig

    config = GeneratorConfig()

    def operation(name: str) -> Op:
        table = load_circuit(name)
        faults = []
        if get_spec(name).tier != "large":
            faults = faultmodel.sample_faults(
                table, TF_SAMPLES, seed=f"{TF_SEED}:{name}")

        def run():
            length = config.resolved_uio_length(table.n_state_variables)
            uio = repro.compute_uio_table(table, length, config.uio_node_budget)
            generation = repro.generate_tests(table, config, uio)
            graded = None
            if faults:
                graded = faultmodel.simulate_functional_faults(
                    table, generation.test_set, faults)
            return uio, generation, graded

        def summarize(result):
            uio, generation, graded = result
            summary = {"uio_found": uio.n_found, **_generation(generation),
                       "cycles": generation.clock_cycles()}
            if graded is not None:
                summary.update(graded=graded.n_faults,
                               detected=len(graded.detected))
            return summary

        return Op(name, run, summarize)

    return [operation(name) for name in circuits]


def atpg(circuits: tuple[str, ...]) -> list[Op]:
    """PODEM with witness replay and certificate cross-check."""
    import repro.atpg
    from repro.benchmarks import load_circuit, load_kiss_machine
    from repro.harness.experiments import CircuitStudy

    def operation(name: str) -> Op:
        def run():
            study = CircuitStudy(name)
            scan, sca, table = study.scan_circuit, study.sca, study.table
            result = repro.atpg.generate_structural_tests(
                scan, table, study.stuck_at_faults, algorithm="podem",
                scoap=sca.scoap, certificates=sca.certificates, replay=True,
            )
            return table, study.options.config.scan_ratio, result

        def summarize(outcome):
            table, ratio, result = outcome
            tests = result.tests
            return {
                "targets": result.n_targets,
                "tests": len(tests),
                "untestable": len(result.untestable),
                "certified": sum(v.certified for v in result.untestable),
                "aborted": len(result.aborted),
                "backtracks": result.total_backtracks,
                "witness_failures": sum(v.witness is not True for v in tests),
                "cycles": result.test_set(table).clock_cycles(ratio),
                "graded": result.n_targets,
                "detected": len(tests),
            }

        return Op(name, run, summarize)

    for name in circuits:
        load_circuit(name)
        load_kiss_machine(name)
    return [operation(name) for name in circuits]


def _all_circuits() -> tuple[str, ...]:
    from repro.benchmarks import circuit_names

    return tuple(circuit_names())


#: name -> (operation builder, default circuits)
WORKLOADS: dict[str, tuple[Callable[[tuple[str, ...]], list[Op]],
                           Callable[[], tuple[str, ...]]]] = {
    "grade_small": (grade_small, lambda: GRADE_SMALL),
    "grade_large": (grade_large, lambda: GRADE_LARGE),
    "functional": (functional, _all_circuits),
    "atpg": (atpg, lambda: ATPG),
}


def load_reference() -> dict[str, dict[str, dict[str, Any]]]:
    return json.loads(REFERENCE_PATH.read_text())


def build(
    workload: str,
    circuits: tuple[str, ...] | None = None,
    reference: dict[str, dict[str, Any]] | None = None,
) -> list[Op]:
    """Set-up: the operations of ``workload`` over ``circuits``."""
    builder, default = WORKLOADS[workload]
    ops = builder(tuple(circuits) if circuits else default())
    for op in ops:
        expected = (reference or {}).get(op.name, {})
        if "targets" in expected:
            op.weight = expected["targets"]
    return ops


# ------------------------------------------------------------------- checks


def check(name: str, outputs: dict[str, Any],
          expected: dict[str, Any] | None) -> list[str]:
    """Problems with one operation's outputs (empty when correct)."""
    problems = []
    if expected is None:
        problems.append(f"{name}: no reference values")
    elif outputs != expected:
        diff = sorted(k for k in set(outputs) | set(expected)
                      if outputs.get(k) != expected.get(k))
        problems.append(f"{name}: outputs differ from the reference in {diff}")
    for key, value in outputs.items():
        if key.endswith("_missed") and value:
            problems.append(f"{name}: {value} detectable faults not detected")
    if outputs.get("witness_failures"):
        problems.append(f"{name}: ATPG tests without a replay witness")
    if name == "lion":
        pinned = {key: outputs.get(key) for key in LION_PIN}
        if pinned != LION_PIN:
            problems.append(f"lion: {pinned} differs from the paper's {LION_PIN}")
    return problems


# ------------------------------------------------------------------ running


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


class HostSampler:
    """The reference kernel, run from a ``SIGALRM`` timer every ``interval``
    seconds.

    The host this benchmark was tuned on changes speed by up to 60% for
    seconds at a time, so a few samples at operation boundaries miss most
    of what a long operation sees.  Samples at a fixed wall-clock rate
    follow the host through every operation; the mean sample is the
    denominator of ``wall_rel`` and ``cpu_rel``.  The time spent sampling
    is taken out of each operation's wall and CPU time.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        self.interval = interval
        self.samples = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def sample(self, *signal_args) -> None:
        """Time one run of the kernel (the ``SIGALRM`` handler)."""
        wall, cpu = time.perf_counter(), time.process_time()
        reference_kernel()
        self.wall_s += time.perf_counter() - wall
        self.cpu_s += time.process_time() - cpu
        self.samples += 1

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class RepResult:
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: reference-kernel samples taken while the operations ran
    kernel_samples: int = 0
    kernel_wall_s: float = 0.0
    kernel_cpu_s: float = 0.0
    clock_cycles: int = 0
    graded: int = 0
    detected: int = 0
    outputs: dict[str, dict[str, Any]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _timed(op: Op, call, sampler: HostSampler | None):
    """``(result, error, wall_s, cpu_s)`` of one operation, sampling excluded."""
    spent = (sampler.wall_s, sampler.cpu_s) if sampler else (0.0, 0.0)
    cpu = _cpu_s()
    start = time.perf_counter()
    result = error = None
    try:
        result = call(op.run) if call else op.run()
    except Exception:  # a raising operation is a failed operation
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu
    if sampler:
        wall -= sampler.wall_s - spent[0]
        cpu -= sampler.cpu_s - spent[1]
    return result, error, wall, cpu


def run_ops(
    ops: list[Op],
    reference: dict[str, dict[str, Any]],
    call: Callable[[Callable[[], Any]], Any] | None = None,
    sampler: HostSampler | None = None,
) -> RepResult:
    """Time and check every operation.

    ``call``, when given, runs each operation; the traced run passes one
    that opens the root ``engine`` span around it.  ``sampler``, when
    given, samples the host's speed while the operations run.
    """
    rep = RepResult()
    with sampler if sampler else contextlib.nullcontext():
        for op in ops:
            result, error, wall, cpu = _timed(op, call, sampler)
            rep.wall_s += wall
            rep.cpu_s += cpu
            rep.attempted += op.weight
            if error:
                rep.failed += op.weight
                rep.problems.append(f"{op.name}: raised\n{error}")
                continue
            outputs = op.summarize(result)
            rep.outputs[op.name] = outputs
            problems = check(op.name, outputs, reference.get(op.name))
            if problems:
                rep.failed += op.weight
                rep.problems.extend(problems)
            else:
                rep.failed += outputs.get("aborted", 0)
            rep.clock_cycles += outputs.get("cycles", 0)
            rep.graded += outputs.get("graded", 0)
            rep.detected += outputs.get("detected", 0)
    if sampler:
        rep.kernel_samples = sampler.samples
        rep.kernel_wall_s = sampler.wall_s
        rep.kernel_cpu_s = sampler.cpu_s
    return rep
