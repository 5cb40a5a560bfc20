"""The three benchmark workloads: their command lines and closed forms.

Every workload is a list of ``cnpchar`` command lines, each run through
``cnpchar.cli.main`` exactly as a user would type it, with a ``--out`` report
path appended. The seed decides every input: the suite and the wide window
pass it on as ``--seed`` (it draws the sample points), the sweep uses it to
order its (m, n) pairs, whose certificates involve no randomness.

- ``suite``: the full verification matrix, 18 configurations plus alignment
  and coincidence (255 checks). Small matrices, so per-call overhead, exact
  coefficient lifts and point sampling dominate.
- ``sweep``: the exact impossibility sweep for every m, n in 1..4. Only exact
  ``Fraction`` work in ``operators.quadratic_form_certificate``; no ``charfn``.
  N-max is 32 rather than the 50 of the full sweep, so a pass takes a few
  seconds and a run holds several passes.
- ``wide``: ``charfn verify`` for the m = 2 Bergman kernel through
  Drury-Arveson in d = 3, model degree 1: the same ``charfn`` layer as the
  suite, as one large window. The degree cap is 12, the smallest at which
  every check passes for every seed tried: at cap 10 the pointwise Gram
  identity misses its 1e-8 tolerance for about one seed in five (seed 7:
  1.7e-8), at cap 11 for about one in fifty, because the truncated Taylor
  tail at the sample radius 0.5 is not yet below it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("suite", "sweep", "wide")

SPEC_DIR = Path("perfbench") / "specs"
WIDE_KERNEL = SPEC_DIR / "bergman_m2_d3.json"
WIDE_PICK = SPEC_DIR / "drury_arveson_d3.json"

SWEEP_N_MAX = 32
SWEEP_POWERS = range(1, 5)

WIDE_DEGREE_CAP = 12

# the reduced variants call the same layers with small sizes; the self-test
# runs them. The reduced wide window factors Drury-Arveson through itself,
# whose theta is a polynomial, so a small cap passes for every seed.
REDUCED_SUITE_CONFIGS = "jordan,k2_da_d1_n1"
REDUCED_SWEEP_PAIRS = ((1, 1), (2, 3))
REDUCED_SWEEP_N_MAX = 6
REDUCED_WIDE_DEGREE_CAP = 4


def command_lines(workload: str, seed: int, reduced: bool = False) -> list[list[str]]:
    """The cli argument lists of one pass, without ``--out``.

    Reads the kernel spec files of ``wide``, so a missing or malformed input
    fails here, during set-up.
    """
    if workload == "suite":
        argv = ["suite", "--seed", str(seed)]
        return [argv + ["--configs", REDUCED_SUITE_CONFIGS] if reduced else argv]
    if workload == "sweep":
        if reduced:
            pairs, n_max = list(REDUCED_SWEEP_PAIRS), REDUCED_SWEEP_N_MAX
        else:
            pairs, n_max = [(m, n) for m in SWEEP_POWERS for n in SWEEP_POWERS], SWEEP_N_MAX
        random.Random(seed).shuffle(pairs)
        return [
            ["impossibility", "--m", str(m), "--n", str(n), "--N-max", str(n_max)]
            for m, n in pairs
        ]
    if workload == "wide":
        for path in (WIDE_KERNEL, WIDE_PICK):
            with open(path) as fh:
                json.load(fh)
        kernel, cap = (WIDE_PICK, REDUCED_WIDE_DEGREE_CAP) if reduced else (WIDE_KERNEL, WIDE_DEGREE_CAP)
        return [[
            "charfn", "verify", "--kernel", str(kernel), "--cnp-factor", str(WIDE_PICK),
            "--d", "3", "--model-degree", "1", "--degree-cap", str(cap), "--seed", str(seed),
        ]]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def certificate_closed_form(m: int, n: int, base: int) -> Fraction:
    """The contraction form of (1 - <z,w>)^{-n} at z^(N+2) in the m-th window."""
    return Fraction(1) - Fraction(n * (base + 2), base + m + 1)


def expected_first_violation(m: int, n: int, n_max: int):
    return next((base for base in range(n_max + 1) if certificate_closed_form(m, n, base) < 0), None)


def operations(argv: list[str]) -> int:
    """Operations one command line attempts before its report is read.

    A sweep command line attempts one certificate per window base degree;
    the other commands attempt one check per report entry, so until their
    report is read they count as one operation.
    """
    if argv[0] == "impossibility":
        return int(flag(argv, "--N-max")) + 1
    return 1
