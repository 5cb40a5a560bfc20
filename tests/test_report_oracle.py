"""The report oracle, pinned: verdicts and exact residuals of fixed command lines.

Each file in ``tests/golden/`` holds one ``cnpchar`` command line and, for
every check its report lists, the ``name``, ``verdict`` and ``exact`` fields,
plus the ``residual`` of every check flagged exact. The suite's file pins its
255 checks this way, which gives its (name, verdict) pairs. The wide file
runs the benchmark's ``wide`` command line on the spec files under
``perfbench/specs``, read from the repository root. The scalar file runs
the non-nilpotent tuple [[0.5]] through the Szego kernel at truncation 64,
where the truncated operator series settle, on the spec files under
``tests/specs`` (outside ``tests/golden``, whose every file is a golden).
The ``--dump-theta`` file of the exact two_cells preset is pinned whole in
``tests/dumps``: every block and Taylor coefficient is a rational there.

Float residuals are not pinned: their last bits depend on the BLAS library
and its threading, so they are held only through their verdicts.

To re-pin after a deliberate report change, run the command line with
``--out`` and copy those fields of each check into its golden file.
"""

import json
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
    assert [pinned(c) for c in report["checks"]] == golden["checks"]


def test_golden_files_present():
    assert {p.stem for p in GOLDEN} == {
        "charfn_build_jordan_exact",
        "charfn_verify_jordan_exact",
        "charfn_verify_scalar_half_N64",
        "charfn_verify_two_cells_exact",
        "charfn_verify_wide_seed_0",
        "suite_seed_0",
    }


def test_exact_theta_dump_matches_golden(tmp_path, capsys):
    dump = tmp_path / "theta.json"
    argv = ["charfn", "build", "--preset", "two_cells", "--mode", "exact", "--dump-theta", str(dump)]
    assert main(argv) == 0
    golden = Path(__file__).parent / "dumps" / "theta_two_cells_exact.json"
    assert json.loads(dump.read_text()) == json.loads(golden.read_text())
