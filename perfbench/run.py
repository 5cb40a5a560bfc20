"""The cnpchar benchmark: run one workload, gate its outputs, print its metrics.

    python3 perfbench/run.py --workload {suite,sweep,wide} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src``.
Every pass runs in a fresh interpreter (``child.py``), because a command-line
user pays every import and cache fill on each run. Passes run one after
another, single-threaded Python with one BLAS thread, until ``--seconds``
have gone by.

``--trace 0`` prints the end-to-end metrics: the medians of ``wall_s`` (pass
time after set-up), ``peak_rss_mb`` (the pass process's own peak RSS) and
``setup_s`` (interpreter start until ``cnpchar`` is imported and the inputs
are loaded; sampled by set-up-only probes as well as by every pass).
``--trace 1`` alternates untraced passes with traced ones and prints the
per-layer metrics of ``metrics.py``, and writes the spans of its traced
passes to ``.bench_build/spans-<workload>.json``. Every time is scaled to a reference
machine speed by the sampler of ``speed.py``, which runs inside each pass;
the environment line gives the unscaled pass times and the scale factors.

Every report a pass writes is gated: validated against
``cnpchar.cli.REPORT_SCHEMA``, every suite and charfn verdict ``pass``, every
sweep certificate equal to its closed form (exactly, with ``Fraction``, in
traced passes). Traced verdicts must equal the untraced ones. A failed
check, certificate or exception counts as a failed operation and the run
goes on. The last line of output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
each metric by name with its unit, the failure classes and the environment.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import metrics
import speed
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
BLAS_THREADS = 1
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # a run must exit within 180 s


class Run:
    """The passes of one benchmark run and what their gates found."""

    def __init__(self, root: Path, workload: str, seed: int, reduced: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.reduced = reduced
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_build"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.env["PYTHONHASHSEED"] = "0"
        self.setup_samples: list[float] = []
        self.passes: dict[str, list[dict]] = {"plain": [], "traced": []}
        self.attempted = 0
        self.failures: list[str] = []
        self._spawned = 0
        from cnpchar.cli import REPORT_SCHEMA

        import jsonschema

        self._validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline

    def spawn(self, mode: str) -> dict | None:
        """Run one child pass; returns its result, or None if it failed."""
        self._spawned += 1
        workdir = self.workdir / f"pass-{self._spawned}"
        workdir.mkdir()
        cmd = [sys.executable, str(CHILD), self.workload, str(self.seed), mode, str(workdir)]
        if self.reduced:
            cmd.append("--reduced")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:
            self._failed_pass("TimeoutExpired")
            return None
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            print(f"{mode} pass exited {proc.returncode}: {lines[-1] if lines else ''}", file=sys.stderr)
            self._failed_pass(f"ChildExit{proc.returncode}")
            return None
        with open(workdir / "result.json") as fh:
            result = json.load(fh)
        samples = result["samples"]
        every = [d for _, d in samples]
        before = speed.within(samples, float("-inf"), result["start"])
        self.setup_samples.append((result["ready"] - start - sum(before)) * speed.factor(before, every))
        during = speed.within(samples, result["start"], result["done"])
        result["scale"] = speed.factor(during, every)
        result["unscaled_wall_s"] = result["done"] - result["start"]
        result["wall_s"] = (result["unscaled_wall_s"] - sum(during)) * result["scale"]
        if mode != "setup":
            result["verdicts"] = self._gate(result)
            self.passes[mode].append(result)
        return result

    def _failed_pass(self, name: str):
        self.attempted += 1
        self.failures.append(name)

    def _gate(self, result: dict) -> list:
        """Gate every report of a pass; returns its verdicts per command line."""
        verdicts = []
        for argv, outcome in zip(result["command_lines"], result["outcomes"]):
            if outcome["error"]:
                count = workloads.operations(argv)
                self.attempted += count
                self.failures += [outcome["error"]] * count
                verdicts.append(None)
                continue
            try:
                with open(workloads.flag(argv, "--out")) as fh:
                    report = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                self._failed_pass(type(exc).__name__)
                verdicts.append(None)
                continue
            attempted, failures = self._gate_report(argv, report)
            if not failures and outcome.get("mismatches"):
                failures = ["CertificateMismatch"] * outcome["mismatches"]
            self.attempted += attempted
            self.failures += failures
            verdicts.append([(c["name"], c["verdict"]) for c in report.get("checks", [])])
        return verdicts

    def _gate_report(self, argv: list[str], report: dict) -> tuple[int, list[str]]:
        """Operations one report attempted and the failure class of each failed one.

        A sweep report passes when its closed-form agreement check passes and
        its first violation is the one the closed form predicts; the report
        does not say which certificate was off, so a failing report fails all
        of its certificates.
        """
        errors = list(self._validator.iter_errors(report))
        if argv[0] == "impossibility":
            attempted = workloads.operations(argv)
            if errors:
                return attempted, ["SchemaError"] * attempted
            m, n, n_max = (int(workloads.flag(argv, f)) for f in ("--m", "--n", "--N-max"))
            checks = {c["name"]: c["verdict"] for c in report["checks"]}
            ok = (
                checks.get("closed_form_agreement") == "pass"
                and report["config"].get("first_violation") == workloads.expected_first_violation(m, n, n_max)
            )
            return attempted, [] if ok else ["CertificateMismatch"] * attempted
        if errors:
            return 1, ["SchemaError"]
        return len(report["checks"]), ["CheckFailed" for c in report["checks"] if c["verdict"] != "pass"]

    def compare_verdicts(self):
        """Traced passes must reproduce the verdicts of the untraced ones."""
        if not self.passes["plain"]:
            return
        reference = self.passes["plain"][0]["verdicts"]
        for result in self.passes["plain"][1:] + self.passes["traced"]:
            for want, got in zip(reference, result["verdicts"]):
                if want is None or got is None:
                    continue
                diff = sum(a != b for a, b in zip(want, got)) + abs(len(want) - len(got))
                self.attempted += diff
                self.failures += ["VerdictMismatch"] * diff


def end_to_end(run: Run) -> dict:
    plain = run.passes["plain"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(run.setup_samples),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(run: Run) -> dict:
    traced, plain = run.passes["traced"], run.passes["plain"]
    totals = [(metrics.span_totals(p["spans"], p["samples"]), p["scale"]) for p in traced]
    out = {}
    for name in metrics.SPANS:
        out[f"{name}_s"] = statistics.median(t.get(name, (0.0, 0))[0] * scale for t, scale in totals)
        out[f"{name}.calls"] = statistics.median(t.get(name, (0.0, 0))[1] for t, _ in totals)
    for name in metrics.COUNTS:
        out[name] = statistics.median(p["counts"].get(name, 0) for p in traced)
    out["cli.untraced_s"] = statistics.median(
        p["wall_s"] - metrics.top_level_time(p["spans"], p["samples"]) * p["scale"] for p in traced
    )
    out["bench.trace_overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    out["fail_share"] = len(run.failures) / run.attempted
    return out


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(run: Run, trace: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(run.root),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": run.workload,
        "seed": run.seed,
        "trace": trace,
        "reduced": run.reduced,
        "plain_passes": len(run.passes["plain"]),
        "traced_passes": len(run.passes["traced"]),
        "setup_samples": len(run.setup_samples),
        "unscaled_wall_s": [round(p["unscaled_wall_s"], 4) for p in run.passes["plain"]],
        "speed_factor": [round(p["scale"], 4) for p in run.passes["plain"]],
    }


def measure(run: Run, seconds: float, trace: int):
    run.spawn("setup")  # warm-up: byte-compiles and pages in the imports
    run.setup_samples.clear()
    start = time.monotonic()
    if not trace:
        for _ in range(SETUP_PROBES):
            run.spawn("setup")
    modes = ["plain", "traced"] if trace else ["plain"]
    turn = 0
    while not run.out_of_time():
        have_all = all(run.passes[m] for m in modes)
        if have_all and time.monotonic() - start >= seconds:
            break
        if run.spawn(modes[turn % len(modes)]) is None:
            break
        turn += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="shrunken inputs, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cnpchar" / "cli.py").is_file():
        print("error: run from the root of a cnpchar checkout (src/cnpchar not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    (root / ".bench_build").mkdir(exist_ok=True)
    run = Run(root, args.workload, args.seed, args.reduced)
    try:
        measure(run, args.seconds, args.trace)
        run.compare_verdicts()
        if not run.passes["plain"] or (args.trace and not run.passes["traced"]):
            print(f"error: no pass completed; failures: {dict(Counter(run.failures))}", file=sys.stderr)
            return 1
        env = environment(run, args.trace)
    finally:
        run.close()
    if args.trace:
        spans_file = root / ".bench_build" / f"spans-{args.workload}.json"
        with open(spans_file, "w") as fh:
            json.dump([span for p in run.passes["traced"] for span in p["spans"]], fh)
        print(f"spans of {len(run.passes['traced'])} traced passes written to {spans_file}")
    values = per_layer(run) if args.trace else end_to_end(run)
    units = metrics.per_layer() if args.trace else metrics.END_TO_END
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("failures", json.dumps(dict(Counter(run.failures))))
    print("environment", json.dumps(env, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
