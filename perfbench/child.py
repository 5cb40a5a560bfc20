"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

Usage: child.py WORKLOAD SEED MODE WORKDIR [--reduced]

MODE is ``setup`` (import and load inputs, then stop), ``plain`` (run the
workload's command lines through ``cnpchar.cli.main``) or ``traced`` (run
them the same way, with the layer calls spanned by ``spans.py``). The
machine-speed sampler of ``speed.py`` starts before ``cnpchar`` is imported
and runs to the end.
The pass writes ``result.json`` to WORKDIR and each command line's report
next to it. ``ready`` is read from ``time.monotonic``, the system-wide
CLOCK_MONOTONIC on Linux, so the parent can subtract its spawn time from
it; every other time is ``time.perf_counter`` in this process.
"""

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import speed


def main() -> int:
    sampler = speed.Sampler()
    sampler.start()
    try:
        result = run_pass(*sys.argv[1:5], reduced="--reduced" in sys.argv[5:])
    finally:
        sampler.stop()
    result["samples"] = sampler.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(sys.argv[4], "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def run_pass(workload: str, seed: str, mode: str, workdir: str, reduced: bool) -> dict:
    from cnpchar import cli

    import workloads

    if mode == "traced":
        import spans

    command_lines = [
        argv + ["--out", os.path.join(workdir, f"report-{i}.json")]
        for i, argv in enumerate(workloads.command_lines(workload, int(seed), reduced))
    ]
    result = {"ready": time.monotonic(), "start": time.perf_counter(), "command_lines": command_lines}
    if mode in ("plain", "traced"):
        tracer = spans.Tracer(pass_id=os.getpid()) if mode == "traced" else None
        outcomes = []
        with tracer.installed() if tracer else nullcontext():
            for argv in command_lines:
                outcome = {"error": None}
                if tracer:
                    tracer.argv, before = argv, tracer.mismatches
                try:
                    cli.main(argv)
                except Exception as exc:  # counted as a failed operation; the pass goes on
                    outcome["error"] = type(exc).__name__
                if tracer:
                    outcome["mismatches"] = tracer.mismatches - before
                outcomes.append(outcome)
        result["outcomes"] = outcomes
        if tracer:
            result.update(spans=tracer.spans, counts=tracer.counts)
    elif mode != "setup":
        raise ValueError(f"unknown mode {mode!r}")
    result["done"] = time.perf_counter()
    return result


if __name__ == "__main__":
    sys.exit(main())
