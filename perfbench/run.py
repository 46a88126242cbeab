"""Benchmark entry point.

    python3 perfbench/run.py --workload grade_small --seed 1 --seconds 20 --trace 0

Runs repetitions of one workload, each in a fresh interpreter
(``rep.py``), for about ``--seconds`` seconds (at least ``MIN_REPS``
repetitions), and prints one JSON line: ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones from a traced run.  Every
metric is the median over the repetitions; set-up is sampled after every
repetition and at least ``SETUP_SAMPLES`` times.

Each run gets its own scratch directory under ``.perfbench/`` in the
checkout; the artifact cache and the run ledger point into it, and the
run fails if either receives a file.  A record of the run with the host
fingerprint is left in ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Pinned for every repetition, so set and dict orders repeat.
PYTHONHASHSEED = "0"
#: Set-up is sampled at least this many times per run.
SETUP_SAMPLES = 5
#: Repetitions per run, however long they take.
MIN_REPS = 2
#: Every run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "peak_rss_mb": "MB",
    "clock_cycles": "count",
    "coverage": "ratio",
}


class RepError(RuntimeError):
    """A repetition did not produce a result."""


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded with the run; the inputs are fixed "
                        "(see workloads.py)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _env(scratch: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=PYTHONHASHSEED,
        REPRO_CACHE_DIR=str(scratch / "cache"),
        REPRO_LEDGER_DIR=str(scratch / "ledger"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _rep(args, scratch: Path, index: int, deadline: float,
         setup_only: bool = False) -> dict:
    out = scratch / f"rep{index}.json"
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", args.workload, "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        command.append("--setup-only")
    if args.trace:
        command += ["--chrome-trace",
                    str(STATE / "out" / f"trace-{args.workload}.json")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepError("no time left for another repetition")
    try:
        done = subprocess.run(command, env=_env(scratch), cwd=ROOT,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"repetition {index} timed out") from exc
    if done.returncode != 0 or not out.is_file():
        raise RepError(f"repetition {index} exited with {done.returncode}")
    return json.loads(out.read_text())


def _mean_kernel(rep: dict, clock: str) -> float:
    return rep[f"kernel_{clock}_s"] / rep["kernel_samples"]


def _end_to_end(reps: list[dict], setups: list[float]) -> dict[str, float]:
    median = statistics.median
    return {
        "setup_s": median(setups),
        "wall_rel": median(r["wall_s"] / _mean_kernel(r, "wall") for r in reps),
        "cpu_rel": median(r["cpu_s"] / _mean_kernel(r, "cpu") for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "clock_cycles": median(r["clock_cycles"] for r in reps),
        "coverage": median(r["detected"] / r["graded"] for r in reps),
    }


def _per_layer(reps: list[dict]) -> dict[str, float]:
    """Medians of the per-repetition layer metrics."""
    per_rep = []
    for rep in reps:
        values = layers.layer_metrics(rep["layers"])
        overhead_s = rep["spans"] * rep["span_cost_ns"] / 1e9
        values["trace.overhead_pct"] = 100.0 * overhead_s / rep["wall_s"]
        per_rep.append(values)
    return {name: statistics.median(values[name] for values in per_rep)
            for name in per_rep[0]}


def _units() -> dict[str, str]:
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in layers.per_layer_names())
    return units


def run(args) -> dict:
    """Run the repetitions and return the result line as a dict."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    scratch = STATE / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        reps: list[dict] = []
        setups: list[float] = []
        while True:
            reps.append(_rep(args, scratch, len(reps), deadline))
            setups.append(reps[-1]["setup_s"])
            if not args.trace:
                # spread the set-up samples over the run
                probe = _rep(args, scratch, 1000 + len(setups), deadline, True)
                setups.append(probe["setup_s"])
            elapsed = time.monotonic() - started
            if (len(reps) >= MIN_REPS
                    and elapsed + 0.5 * elapsed / len(reps) > args.seconds):
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            probe = _rep(args, scratch, 1000 + len(setups), deadline, True)
            setups.append(probe["setup_s"])
        problems = [p for rep in reps for p in rep["problems"]]
        for kind in ("cache", "ledger"):
            if any((scratch / kind).rglob("*")):
                problems.append(f"the run wrote to the {kind} directory")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    values = _per_layer(reps) if args.trace else _end_to_end(reps, setups)
    units = _units()
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pythonhashseed": PYTHONHASHSEED,
        "host": {"cpu_count": os.cpu_count(), **reps[0]["host"]},
        "elapsed_s": time.monotonic() - started,
        "repetitions": [
            {key: rep[key] for key in
             ("setup_s", "setup_raw_s", "host_slowdown", "wall_s", "cpu_s",
              "kernel_samples", "kernel_wall_s",
              "kernel_cpu_s", "peak_rss_mb", "attempted", "failed")}
            for rep in reps
        ],
        "setup_samples": setups,
        "problems": problems,
        "outputs": reps[0]["outputs"] if not args.trace else None,
        "result": result,
    }
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    out_dir = STATE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
