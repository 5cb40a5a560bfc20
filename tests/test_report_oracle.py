"""The report oracle, pinned: verdicts and exact residuals of fixed command lines.

Each file in ``tests/golden/`` holds one ``cnpchar`` command line, the
``environment.caps`` its report echoes (the degree windows of a ``charfn``
run, integers that no BLAS can move), and, for every check its report
lists, the ``name``, ``verdict`` and ``exact`` fields, plus the ``residual``
of every check flagged exact. The suite's file pins its
255 checks this way, which gives its (name, verdict) pairs. The wide file
runs the benchmark's ``wide`` command line on the spec files under
``perfbench/specs``, read from the repository root. The scalar file runs
the non-nilpotent tuple [[0.5]] through the Szego kernel at truncation 64,
where the truncated operator series settle, on the spec files under
``tests/specs`` (outside ``tests/golden``, whose every file is a golden).
The two weighted files run the Jordan cell as a float and as an exact spec
on a weighted basis, which the run rescales to an orthonormal one; the
exact one then runs in exact mode, the one ``--tuple`` run with exact
residuals.
The ``--dump-theta`` file of the exact two_cells preset is pinned whole in
``tests/dumps``: every block and Taylor coefficient is a rational there.

Float residuals are not pinned: their last bits depend on the BLAS library
and its threading, so they are held only through their verdicts.

To re-pin after a deliberate report change, run the command line with
``--out`` and copy its caps and those fields of each check into its golden
file. ``tests/report_diff.py A B`` names every field, floats included, in
which two reports (or two directories of them) differ; ``tests/report_diff.py
--trees TREE_A TREE_B OUT`` runs every golden's command line, the suite and
the wide window at more seeds, the benchmark's impossibility sweep, exact
``kernel`` certificates and every demo script on two source trees and
compares those reports and what each run printed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cnpchar.cli import main

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def pinned(check: dict) -> dict:
    out = {key: check[key] for key in ("name", "verdict", "exact")}
    if check["exact"]:
        out["residual"] = check["residual"]
    return out


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_report_matches_golden(path, tmp_path, capsys):
    golden = json.loads(path.read_text())
    out = tmp_path / "report.json"
    assert main(golden["argv"] + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["environment"]["caps"] == golden["caps"]
    assert [pinned(c) for c in report["checks"]] == golden["checks"]


def test_golden_files_present():
    assert {p.stem for p in GOLDEN} == {
        "charfn_build_jordan_exact",
        "charfn_verify_jordan_exact",
        "charfn_verify_scalar_half_N64",
        "charfn_verify_two_cells_exact",
        "charfn_verify_weighted_exact",
        "charfn_verify_weighted_float",
        "charfn_verify_wide_seed_0",
        "impossibility_m3_n2_N50",
        "suite_seed_0",
    }


def test_exact_theta_dump_matches_golden(tmp_path, capsys):
    dump = tmp_path / "theta.json"
    argv = ["charfn", "build", "--preset", "two_cells", "--mode", "exact", "--dump-theta", str(dump)]
    assert main(argv) == 0
    golden = Path(__file__).parent / "dumps" / "theta_two_cells_exact.json"
    assert json.loads(dump.read_text()) == json.loads(golden.read_text())


def test_report_diff_names_exactly_the_moved_field(tmp_path):
    """Two runs of one command line differ in ``elapsed`` alone: exit 0. One residual one ulp up is the one line printed."""
    diff = Path(__file__).parent / "report_diff.py"
    left, right, moved = (tmp_path / side for side in ("left", "right", "moved"))
    for side in (left, right):
        side.mkdir()
        assert main(["charfn", "verify", "--preset", "jordan", "--out", str(side / "jordan.json")]) == 0
    same = subprocess.run([sys.executable, str(diff), str(left), str(right)], capture_output=True, text=True)
    assert same.returncode == 0 and same.stdout == ""

    report = json.loads((right / "jordan.json").read_text())
    i, check = next((i, c) for i, c in enumerate(report["checks"]) if c.get("residual"))
    ulp = math.ulp(check["residual"])
    check["residual"] += ulp
    shutil.copytree(right, moved)
    (moved / "jordan.json").write_text(json.dumps(report))
    for a, b, lead in ((left / "jordan.json", moved / "jordan.json", ""), (left, moved, "jordan.json: ")):
        run = subprocess.run([sys.executable, str(diff), str(a), str(b)], capture_output=True, text=True)
        lines = run.stdout.splitlines()
        assert run.returncode == 1 and len(lines) == 1
        assert lines[0].startswith(f"{lead}checks[{i} {check['name']}].residual: ") and f"|Δ| {ulp:.3e}" in lines[0]


def test_report_diff_runs_a_golden_on_two_trees(tmp_path):
    """A golden's command line, run by ``--trees`` on this source tree twice, writes both reports and finds no difference."""
    diff, root = Path(__file__).parent / "report_diff.py", Path(__file__).parent.parent
    trees = [sys.executable, str(diff), "--trees", str(root), str(root), str(tmp_path)]
    run = subprocess.run(trees + ["charfn_verify_jordan_exact"], capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout == ""
    assert all((tmp_path / side / "charfn_verify_jordan_exact.json").is_file() for side in ("a", "b"))
    unknown = subprocess.run(trees + ["no_such_command"], capture_output=True, text=True)
    assert unknown.returncode == 2 and "unknown command no_such_command" in unknown.stderr


def _stub_tree(root: Path, demo: str) -> Path:
    """A source tree with an empty ``cnpchar`` package and the one script ``demos/01_stub.py``."""
    (root / "src" / "cnpchar").mkdir(parents=True)
    (root / "src" / "cnpchar" / "__init__.py").write_text("")
    (root / "demos").mkdir()
    (root / "demos" / "01_stub.py").write_text(demo)
    return root


@pytest.mark.parametrize(
    "demos, lines",
    [
        (('print("a")\nprint("b")\n', 'print("a")\nprint("b")\n'), []),
        (('print("a")\nprint("b")\n', 'print("a")\nprint("c")\n'), ["demo_01_stub.txt: line 2: 'b' -> 'c'"]),
        (('print("a")\n', 'print("a")\nraise SystemExit(3)\n'), ["demo_01_stub: {b} exited 3: "]),
        (('print("a")\n', 'import sys\nprint("a")\nprint(\'Traceback (most recent call last):\', file=sys.stderr)\n'),
         ["demo_01_stub: {b} exited 0: Traceback (most recent call last):"]),
    ],
    ids=["same", "one_line_moved", "nonzero_exit", "traceback"],
)
def test_report_diff_compares_the_demos_line_by_line(tmp_path, demos, lines):
    """``--trees`` runs each demo script from its tree's root: a moved line is one difference, a failed run another."""
    diff = Path(__file__).parent / "report_diff.py"
    a, b = (_stub_tree(tmp_path / side, demo) for side, demo in zip("ab", demos))
    argv = [sys.executable, str(diff), "--trees", str(a), str(b), str(tmp_path / "out"), "demo_01_stub"]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.stdout.splitlines() == [line.format(b=b) for line in lines]
    assert run.returncode == (1 if lines else 0)
    assert (tmp_path / "out" / "b" / "demo_01_stub.txt").read_text().startswith("a\n")


def test_report_diff_runs_a_demo_on_two_trees(tmp_path):
    """Every demo of this tree is a ``--trees`` name; run on this tree twice, a demo prints the same lines."""
    diff, root = Path(__file__).parent / "report_diff.py", Path(__file__).parent.parent
    name = "demo_01_kernels_and_pick_certificates"
    run = subprocess.run([sys.executable, str(diff), "--trees", str(root), str(root), str(tmp_path), name], capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout == ""
    assert (tmp_path / "a" / f"{name}.txt").read_text() == (tmp_path / "b" / f"{name}.txt").read_text() != ""


@pytest.mark.parametrize(
    "body, last",
    [
        ('raise RuntimeError("stub crash")\n', "RuntimeError: stub crash"),
        ('import sys\nprint("no report", file=sys.stderr)\nsys.exit(1)\n', "no report"),
    ],
    ids=["traceback", "no_report"],
)
def test_report_diff_names_a_run_that_exits_one_without_finishing(tmp_path, body, last):
    """A tree whose ``cnpchar/cli.py`` crashes (exit 1, with a traceback) or exits 1 with no report fails on both sides."""
    diff = Path(__file__).parent / "report_diff.py"
    stub = tmp_path / "stub"
    (stub / "src" / "cnpchar").mkdir(parents=True)
    (stub / "src" / "cnpchar" / "__init__.py").write_text("")
    (stub / "src" / "cnpchar" / "cli.py").write_text(body)
    argv = [sys.executable, str(diff), "--trees", str(stub), str(stub), str(tmp_path / "out"), "charfn_verify_jordan_exact"]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stdout.splitlines() == [f"charfn_verify_jordan_exact: {stub} exited 1: {last}"] * 2
