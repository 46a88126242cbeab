"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so nothing the library
memoizes (the ``CircuitStudy`` registry, ``lru_cache`` tables) carries over
from one repetition to the next.  The result is written as JSON to
``--out``.  Exit code 3 means the library could not be imported.

Set-up runs from the first line of this file to the first timed call,
with the reference kernel sampled every ``SETUP_SAMPLE_INTERVAL_S``.
``setup_s`` is the set-up wall time, sampling excluded, divided by the
host's slowdown: the mean sample over ``workloads.NOMINAL_KERNEL_S``.  On
a host whose speed drifts by 20% over minutes, raw set-up times of
identical code drift as much.  The raw time is reported beside it.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--chrome-trace", type=Path, default=None,
                        help="where the traced run writes its Chrome trace")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only setup_s")
    return parser


def _traced(out: dict, tracer: layers.Tracer, chrome_path: Path | None) -> None:
    from repro.obs.trace import to_chrome, validate_chrome_trace

    totals = tracer.totals()
    out["problems"].extend(layers.self_time_problems(totals, out["wall_s"]))
    chrome = to_chrome(tracer.records())
    for problem in validate_chrome_trace(chrome):
        out["problems"].append(f"chrome trace: {problem}")
    if chrome_path is not None:
        chrome_path.parent.mkdir(parents=True, exist_ok=True)
        chrome_path.write_text(json.dumps(chrome))
    out.update(
        layers=totals,
        spans=len(tracer.spans),
        span_cost_ns=layers.span_cost_ns(),
    )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    setup = workloads.HostSampler(workloads.SETUP_SAMPLE_INTERVAL_S)
    with setup:
        try:
            import numpy
            import repro  # noqa: F401
        except ImportError as exc:
            print(f"error: cannot import the library: {exc}", file=sys.stderr)
            return 3
        reference = workloads.load_reference().get(args.workload, {})
        ops = workloads.build(args.workload, reference=reference)
        tracer = call = None
        if args.trace:
            tracer = layers.Tracer()
            layers.install(tracer, layers.layer_targets())

            def call(run):
                return tracer.call(layers.ENGINE, run, (), {})

    setup_raw_s = time.perf_counter() - _STARTED - setup.wall_s
    if not setup.samples:
        setup.sample()
    slowdown = setup.wall_s / setup.samples / workloads.NOMINAL_KERNEL_S
    out: dict = {"setup_s": setup_raw_s / slowdown, "setup_raw_s": setup_raw_s,
                 "host_slowdown": slowdown, "problems": []}
    if not args.setup_only:
        # the traced run reports layer times only, so it skips the sampler,
        # whose kernel time would land in whichever span is open
        sampler = None if tracer else workloads.HostSampler()
        rep = workloads.run_ops(ops, reference, call, sampler)
        out.update(asdict(rep))
        if tracer is not None:
            _traced(out, tracer, args.chrome_trace)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["host"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
