"""Compare two cnpchar reports, or two directories of them, field by field, with every ``elapsed`` field blanked.

Usage: ``python tests/report_diff.py A B``

A and B are two JSON files, or two directories whose ``*.json`` files are
compared name by name; a name on one side only is a difference. Every
field that differs prints as one line: its path (``checks[7
block_unitarity].residual``: a list index, with the item's ``name`` when it
has one), both values, and for two numbers |Δ| and the relative Δ,
|Δ| / max(|a|, |b|). Two values are the same when they have one JSON type
and equal values, zeros of one sign and NaN against NaN, so a one-ulp move
and 0.0 against -0.0 both count. Exits 0 when nothing differs, else 1.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


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


def compare(a: Path, b: Path) -> list[str]:
    """The differing fields of two report files, or of two directories of them, each line led by its file name there."""
    if not (a.is_dir() and b.is_dir()):
        return differences(_read(a), _read(b))
    names_a, names_b = {p.name for p in a.glob("*.json")}, {p.name for p in b.glob("*.json")}
    lines = []
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            lines.append(f"{name}: only in {a if name in names_a else b}")
        else:
            lines += [f"{name}: {line}" for line in differences(_read(a / name), _read(b / name))]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    lines = compare(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
