"""Self-test of the benchmark: a reduced pass of every workload, every metric present.

    python3 perfbench/selftest.py

Run it from the root of a checkout. For each workload it runs ``run.py``
once untraced and twice traced on the reduced inputs, prints every metric by
name with its unit, and checks that the result line has exactly the keys
of the contract, that the gate passed, that the metric names and units are
those of ``BENCHMARK.json``, and that the work counts of the two traced
runs are identical. Last, it checks that ``run.py`` refuses to run, with a
nonzero exit and no result, in a directory without the package sources.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def bench(root: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--reduced"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok: bool, message: str):
    if not ok:
        raise SystemExit(f"FAIL {message}")


def check_result(result: dict, declared: list[dict], label: str):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: gate {result}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        moves = metrics.SPANS.get(name.removesuffix("_s"), "")
        print(f"  {name} {m['value']:.6g} {m['unit']}" + (f"  (should move {moves})" if moves else ""))


def refuses_without_sources(root: Path):
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=root / ".bench_build"))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / RUN.name), "--workload", "suite", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), f"bare directory: exit {proc.returncode}, {proc.stdout!r}")


def main() -> int:
    root = Path.cwd()
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names")
    (root / ".bench_build").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        print(f"{workload}, untraced:")
        check_result(bench(root, workload, 0), spec["end_to_end"], f"{workload} trace 0")
        print(f"{workload}, traced:")
        first = bench(root, workload, 1)
        check_result(first, spec["per_layer"], f"{workload} trace 1")
        second = bench(root, workload, 1)
        counts = [
            {name: m["value"] for name, m in r["metrics"].items() if m["unit"] == "count"}
            for r in (first, second)
        ]
        check(counts[0] == counts[1], f"{workload}: work counts differ between runs")
    refuses_without_sources(root)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
