"""Compare two cnpchar reports, or two directories of them, field by field, with every ``elapsed`` field blanked.

Usage: ``python tests/report_diff.py A B`` or ``python tests/report_diff.py --trees TREE_A TREE_B OUT [NAME ...]``

A and B are two JSON files, or two directories whose ``*.json`` and
``*.txt`` files are compared name by name; a name on one side only is a
difference. Every field that differs prints as one line: its path
(``checks[7 block_unitarity].residual``: a list index, with the item's
``name`` when it has one), both values, and for two numbers |Δ| and the
relative Δ, |Δ| / max(|a|, |b|). Two values are the same when they have
one JSON type and equal values, zeros of one sign and NaN against NaN, so a
one-ulp move and 0.0 against -0.0 both count. A ``*.txt`` file differs
line by line. Exits 0 when nothing differs, else 1.

With ``--trees``, TREE_A and TREE_B are two source trees of cnpchar. Each
command line of ``COMMANDS`` (or only those named) runs on each tree, from
the tree's root, with ``PYTHONPATH=<tree>/src``, no bytecode written and one
BLAS thread, its report going to ``OUT/a`` or ``OUT/b`` and its standard
output, with the report's path written ``<report>``, beside it as
``<name>.txt`` (the exact values that ``kernel info`` and ``kernel factor``
print are in no report); the two directories are then compared as above. A
failed run is a difference too, printed with its exit status and its last
line of standard error: one that exits with neither 0 nor 1, writes no
report or prints a traceback (an uncaught exception exits 1, as a failed
check does).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

_GOLDEN = {path.stem: json.loads(path.read_text())["argv"] for path in sorted((Path(__file__).parent / "golden").glob("*.json"))}
_DIRICHLET, _BERGMAN, _DA = "tests/specs/dirichlet_d1.json", "perfbench/specs/bergman_m2_d3.json", "perfbench/specs/drury_arveson_d3.json"
# report name -> command line: every golden's, the suite and the golden wide window (its last flag the seed) at
# more seeds, the benchmark's impossibility sweep, and the exact kernel certificates on Dirichlet (denominators
# above 1) and on the wide window's factorization
COMMANDS = {
    **_GOLDEN,
    **{f"suite_seed_{seed}": ["suite", "--seed", str(seed)] for seed in (3, 5, 7, 11)},
    **{f"wide_seed_{seed}": _GOLDEN["charfn_verify_wide_seed_0"][:-1] + [str(seed)] for seed in (67, 8123)},
    **{
        f"impossibility_m{m}_n{n}_N32": ["impossibility", "--m", str(m), "--n", str(n), "--N-max", "32"]
        for m in range(1, 5)
        for n in range(1, 5)
    },
    "kernel_info_dirichlet_d1": ["kernel", "info", "--spec", _DIRICHLET],
    "kernel_cnp_dirichlet_d1": ["kernel", "cnp", "--spec", _DIRICHLET],
    "kernel_factor_dirichlet_d1": ["kernel", "factor", "--spec", _DIRICHLET, "--cnp-factor", _DIRICHLET],
    "kernel_factor_bergman_m2_d3": ["kernel", "factor", "--spec", _BERGMAN, "--cnp-factor", _DA],
}


def _blank(value):
    """The value with every ``elapsed`` field, at any depth, set to 0."""
    if isinstance(value, dict):
        return {key: 0 if key == "elapsed" else _blank(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_blank(item) for item in value]
    return value


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a == b


def _moves(a, b) -> str:
    """`` |Δ| ... rel ...`` for two numbers, else nothing."""
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if not numbers:
        return ""
    delta = abs(a - b)
    scale = max(abs(a), abs(b))
    return f"  |Δ| {delta:.3e}  rel {delta / scale if scale else 0.0:.3e}"


def differences(a, b, path: str = "") -> list[str]:
    """One line for each field where the blanked values ``a`` and ``b`` differ, in document order."""
    if isinstance(a, dict) and isinstance(b, dict):
        lines = []
        for key in list(a) + [key for key in b if key not in a]:
            at = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                lines.append(f"{at}: {a.get(key, '<absent>')!r} -> {b.get(key, '<absent>')!r}")
            else:
                lines += differences(a[key], b[key], at)
        return lines
    if isinstance(a, list) and isinstance(b, list):
        lines = []
        for i in range(max(len(a), len(b))):
            item = a[i] if i < len(a) else b[i]
            name = f" {item['name']}" if isinstance(item, dict) and "name" in item else ""
            at = f"{path}[{i}{name}]"
            if i >= len(a) or i >= len(b):
                lines.append(f"{at}: {'<absent>' if i >= len(a) else a[i]!r} -> {'<absent>' if i >= len(b) else b[i]!r}")
            else:
                lines += differences(a[i], b[i], at)
        return lines
    if _same(a, b):
        return []
    return [f"{path}: {a!r} -> {b!r}{_moves(a, b)}"]


def _read(path: Path):
    return _blank(json.loads(path.read_text()))


def _line_differences(a: Path, b: Path) -> list[str]:
    pairs = itertools.zip_longest(a.read_text().splitlines(), b.read_text().splitlines(), fillvalue="<absent>")
    return [f"line {i}: {x!r} -> {y!r}" for i, (x, y) in enumerate(pairs, 1) if x != y]


def compare(a: Path, b: Path) -> list[str]:
    """The differing fields of two report files, or of two directories of them and their output files, each line led by its file name there."""
    if not (a.is_dir() and b.is_dir()):
        return differences(_read(a), _read(b))
    names_a, names_b = ({p.name for p in side.glob("*.json")} | {p.name for p in side.glob("*.txt")} for side in (a, b))
    lines = []
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            lines.append(f"{name}: only in {a if name in names_a else b}")
        elif name.endswith(".txt"):
            lines += [f"{name}: {line}" for line in _line_differences(a / name, b / name)]
        else:
            lines += [f"{name}: {line}" for line in differences(_read(a / name), _read(b / name))]
    return lines


def run_commands(tree: Path, out: Path, names) -> list[str]:
    """Run the named command lines on the source tree ``tree``, reports into ``out``; one line for each failed run."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for name in names:
        report = out.resolve() / f"{name}.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "cnpchar.cli", *COMMANDS[name], "--out", str(report)]
        run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        report.with_suffix(".txt").write_text(run.stdout.replace(str(report), "<report>"))
        # exit 1 is a failed check only with its report written; an uncaught exception exits 1 too
        crashed = not report.is_file() or "Traceback (most recent call last)" in run.stderr
        if run.returncode not in (0, 1) or crashed:
            lines.append(f"{name}: {tree} exited {run.returncode}: {(run.stderr.strip().splitlines() or [''])[-1]}")
    return lines


def compare_trees(tree_a: Path, tree_b: Path, out: Path, names=()) -> list[str]:
    """The failed runs and the differing fields of the named command lines (all by default) run on two trees."""
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        raise ValueError(f"unknown command {', '.join(unknown)}; known: {', '.join(COMMANDS)}")
    names = list(names) or list(COMMANDS)
    failed = run_commands(tree_a, out / "a", names) + run_commands(tree_b, out / "b", names)
    return failed + compare(out / "a", out / "b")


def main(argv: list[str]) -> int:
    trees = argv[:1] == ["--trees"]
    if (len(argv) < 4) if trees else len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    if trees:
        try:
            lines = compare_trees(Path(argv[1]), Path(argv[2]), Path(argv[3]), argv[4:])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        lines = compare(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
