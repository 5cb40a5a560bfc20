"""Command-line driver: kernel certificates, construction runs, verification suites.

Every command writes a JSON run report (schema below) to --out when given
and prints one line per check. Exit codes: 0 all checks passed (or
certificate-only), 1 at least one verified failure, 2 malformed input, a
LAPACK step that fails on the input (numpy's ``LinAlgError``, its message
printed, followed by ``(in check <name>)`` when a check's block raised it,
or by ``(in configuration <name>)`` when building the configuration did)
or a usage error; ``main`` returns it, but a usage error leaves
``main`` as argparse's ``SystemExit(2)`` (--help as ``SystemExit(0)``).
The parser is built at the first ``main`` call and reused, so repeated
calls in one process do not depend on their order. --seed sets all
randomness and is recorded, so reports are byte-identical across runs but
for elapsed fields.

Before any check runs, exit 2 comes from a negative --seed or --N, a --tol
that is not finite and > 0, an output path that cannot be written, and a
flag that ``IGNORED`` lists for the command or for its tuple source:
--preset fixes the whole configuration, --tuple the tuple and its degree.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import presets
from ._linalg import ExactnessError
from .charfn import CharFnData, build_charfn, charfn_blocks_dict
from .dilation import WindowError
from .operators import (
    ConvergenceError,
    NotContractionError,
    OperatorTuple,
    defect_data,
    model_tuple,
    quadratic_form_certificate,
    tuple_from_spec,
)
from .presets import CheckResult, Configuration, run_configuration_checks
from .series import (
    KernelSeries,
    admissibility_report,
    factor_through_pick,
    FactorizationError,
    is_complete_pick,
    is_positive_quotient,
    kernel_from_spec,
    quotient,
    reciprocal_complement,
    _scalar_to_string,
)

SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "config", "environment", "checks"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "config": {"type": "object"},
        "environment": {
            "type": "object",
            "required": ["mode", "caps", "tolerances"],
            "properties": {
                "mode": {"enum": ["exact", "float"]},
                "caps": {"type": "object"},
                "tolerances": {"type": "object"},
                "seed": {"type": ["integer", "null"]},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "verdict", "elapsed"],
                "properties": {
                    "name": {"type": "string"},
                    "verdict": {"enum": ["pass", "fail", "certificate-only"]},
                    "residual": {"type": ["number", "null"]},
                    "exact": {"type": ["boolean", "null"]},
                    "elapsed": {"type": "number"},
                },
            },
        },
    },
}


class InputError(Exception):
    """Bad user input: malformed spec files, unknown presets (exit code 2)."""


# The flags each leaf command, and each tuple source of ``charfn``, ignores:
# ``main`` refuses any of them that is given, the command's row first.
IGNORED = {
    "kernel info": ("--tol", "--seed"),
    "kernel cnp": ("--seed",),
    "kernel quotient": ("--seed",),
    "kernel factor": ("--seed",),
    "charfn build": ("--tol", "--seed"),
    "charfn verify": (),
    "impossibility": ("--N", "--tol", "--seed"),
    "suite": ("--N",),
    "--preset": ("--N", "--degree-cap", "--d", "--model-degree", "--tuple", "--kernel", "--cnp-factor"),
    "--tuple": ("--d", "--model-degree"),
}


def _load_kernel(path: str, truncation: Optional[int]) -> KernelSeries:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read kernel spec {path}: {exc}") from exc
    if truncation is not None and isinstance(spec, dict):
        spec = dict(spec)
        if spec.get("kind") != "coeffs":
            spec["truncation"] = truncation
        elif isinstance(spec.get("a"), list):
            if len(spec["a"]) - 1 < truncation:
                raise InputError(f"coefficient spec too short for truncation {truncation}")
            spec["a"] = spec["a"][: truncation + 1]
    try:
        return kernel_from_spec(spec)
    except ValueError as exc:
        raise InputError(f"bad kernel spec {path}: {exc}") from exc


def _report(config: dict, environment: dict, checks: Sequence[CheckResult]) -> dict:
    names = [c.name for c in checks]
    if len(names) != len(set(names)):
        raise RuntimeError(f"duplicate check names in report: {names}")
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "environment": environment,
        "checks": [c.as_dict() for c in checks],
    }


def _finish(report: dict, out: Optional[str]) -> int:
    for check in report["checks"]:
        residual = check["residual"]
        residual_txt = "n/a" if residual is None else f"{residual:.3e}"
        exact_txt = " (exact)" if check.get("exact") else ""
        print(f"[{check['verdict'].upper():>16}] {check['name']}: residual {residual_txt}{exact_txt}")
    if out:
        _write(out, json.dumps(report, indent=2, sort_keys=True) + "\n", "report")
        print(f"report written to {out}")
    return 1 if any(c["verdict"] == "fail" for c in report["checks"]) else 0


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write the {what} to {path}: {exc}") from exc


def _check_writable(path: Optional[str], what: str) -> None:
    """InputError, before any check runs, for a ``path`` that is a directory or lies in no writable one."""
    if path and (os.path.isdir(path) or not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK)):
        raise InputError(f"cannot write the {what} to {path}: not a file in a writable directory")


def _environment(mode: str, seed: Optional[int] = None, **caps) -> dict:
    return {
        "mode": mode,
        "seed": seed,
        "caps": caps,
        "tolerances": {
            "single_step": presets.TOL_SINGLE,
            "composite": presets.TOL_COMPOSITE,
            "block": presets.TOL_BLOCK,
        },
    }


def _certificate(name: str, payload_ok: bool, exact=None) -> CheckResult:
    return CheckResult(name, "pass" if payload_ok else "fail", None, exact, 0.0)


# ---------------------------------------------------------------------------
# kernel subcommands


def cmd_kernel(args) -> int:
    k = _load_kernel(args.spec, args.N) if args.spec else None
    tol = presets.TOL_COMPOSITE if args.tol is None else args.tol
    config = {"command": f"kernel {args.kernel_cmd}", "spec": args.spec}
    if args.kernel_cmd == "info":
        b = reciprocal_complement(k)
        adm = admissibility_report(k)
        print("a:", [_scalar_to_string(c) for c in k.coefficients])
        print("b:", [_scalar_to_string(c) for c in b.coefficients])
        print(f"ratio_sup: {_scalar_to_string(adm.ratio_sup)}")
        print(f"partial_sum_bound: {_scalar_to_string(adm.partial_sum_bound)}")
        print(f"admissibility: {adm.verdict}")
        check = CheckResult("kernel_info", "certificate-only", None, k.exact, 0.0)
        exact, truncation = k.exact, k.truncation
    elif args.kernel_cmd == "cnp":
        cert = is_complete_pick(k, tol)
        print(
            f"complete Nevanlinna-Pick up to degree {cert.holds_up_to}: "
            f"{'yes' if cert.holds else f'no (first negative at n={cert.first_negative})'}"
        )
        config["first_negative"] = cert.first_negative
        check = _certificate("complete_pick", cert.holds, exact=k.exact)
        exact, truncation = k.exact, k.truncation
    elif args.kernel_cmd == "quotient":
        num = _load_kernel(args.num, args.N)
        den = _load_kernel(args.den, args.N)
        if num.dim != den.dim:
            raise InputError(f"kernel dimensions differ: {num.dim} and {den.dim}")
        q = quotient(num, den)
        cert = is_positive_quotient(num, den, tol)
        print("quotient:", [_scalar_to_string(c) for c in q.coefficients])
        print(
            f"non-negative up to degree {cert.holds_up_to}: "
            f"{'yes' if cert.holds else f'no (first negative at n={cert.first_negative})'}"
        )
        config = {"command": "kernel quotient", "num": args.num, "den": args.den,
                  "first_negative": cert.first_negative}
        check = _certificate("positive_quotient", cert.holds, exact=q.exact)
        exact, truncation = q.exact, cert.holds_up_to
    else:
        s = _load_kernel(args.cnp_factor, args.N)
        config["factor"] = args.cnp_factor
        exact = k.exact
        try:
            fac = factor_through_pick(k, s, tol)
        except (FactorizationError, ValueError) as exc:
            print(f"factorization failed: {exc}")
            config["error"] = str(exc)
            check, truncation = _certificate("factorization", False), k.truncation
        else:
            print("positive part:", [_scalar_to_string(c) for c in fac.positive_part.coefficients])
            check = _certificate("factorization", True, exact=k.exact and s.exact)
            truncation = fac.truncation
    environment = _environment("exact" if exact else "float", truncation=truncation)
    return _finish(_report(config, environment, [check]), args.out)


# ---------------------------------------------------------------------------
# charfn subcommands


def _configuration_from_args(args) -> Configuration:
    if args.preset:
        try:
            return presets.configuration(args.preset)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if args.tuple:
        if not (args.kernel and args.cnp_factor):
            raise InputError("--tuple needs --kernel and --cnp-factor")
    elif not (args.kernel and args.cnp_factor and args.d is not None and args.model_degree is not None):
        raise InputError(
            "either --preset, --tuple, or all of --kernel/--cnp-factor/--d/--model-degree are required"
        )
    elif args.d < 1 or args.model_degree < 0:
        raise InputError("--d must be >= 1 and --model-degree >= 0")
    kernel = _load_kernel(args.kernel, args.N)
    if not args.tuple and args.d != kernel.dim:
        raise InputError(f"--d is {args.d}, the kernel dimension is {kernel.dim}")
    if not args.tuple and args.model_degree > kernel.truncation:
        raise InputError(f"--model-degree {args.model_degree} exceeds the truncation {kernel.truncation}")
    pick = _load_kernel(args.cnp_factor, args.N)
    try:
        fac = factor_through_pick(kernel, pick)
    except (FactorizationError, ValueError) as exc:
        raise InputError(f"invalid factorization: {exc}") from exc
    if args.tuple:
        try:
            with open(args.tuple) as fh:
                t = tuple_from_spec(json.load(fh))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise InputError(f"cannot read tuple spec {args.tuple}: {exc}") from exc
        if t.num_vars != kernel.dim:
            raise InputError(f"the tuple has {t.num_vars} operators, the kernel dimension is {kernel.dim}")
        if t.weights is not None:
            t = t.to_float()
        name = "custom_tuple"
    else:
        name = f"custom_d{args.d}_n{args.model_degree}"
        with presets.phase(f"configuration {name}"):
            t = model_tuple(kernel, args.d, args.model_degree, mode="float")
    try:
        return Configuration(name=name, factorization=fac, ops=t, degree_cap=args.degree_cap)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_charfn(args) -> int:
    config = _configuration_from_args(args)
    if args.mode == "exact":
        config = _exact_variant(config)
    elif config.ops.exact:
        config = replace(config, ops=config.ops.to_float())
    seed = 0 if args.seed is None else args.seed
    environment = _environment(
        args.mode,
        seed=seed,
        support_cap=config.support_cap,
        constant_cap=config.constant_cap,
        source_degree=config.source_degree,
    )
    config_echo = {
        "command": f"charfn {args.charfn_cmd}",
        "configuration": config.name,
        "description": config.description,
    }
    try:
        if args.charfn_cmd == "verify":
            tol = presets.TOL_COMPOSITE if args.tol is None else args.tol
            checks, cfd = run_configuration_checks(config, seed=seed, composite_tol=tol)
        else:
            checks, cfd = _build_checks(config)
    except (ExactnessError, WindowError, NotContractionError, ConvergenceError) as exc:
        raise InputError(str(exc)) from exc
    if args.dump_theta and cfd is None:
        print(f"theta not written to {args.dump_theta}: the tuple is not pure")
    elif args.dump_theta:
        _write(args.dump_theta, json.dumps(charfn_blocks_dict(cfd), indent=2, sort_keys=True), "theta coefficients")
        print(f"theta coefficients written to {args.dump_theta}")
    return _finish(_report(config_echo, environment, checks), args.out)


def _exact_variant(config: Configuration) -> Configuration:
    """Re-express the configuration's tuple with exact scalars when possible."""
    t = config.ops
    if any(np.iscomplexobj(m) for m in t.mats):
        raise InputError("exact mode needs rational matrix entries")
    stack = np.asarray(t.mats, dtype=object)
    exact = np.frompyfunc(lambda x: Fraction(x).limit_denominator(10**9), 1, 1)(stack)
    if np.any(np.abs(exact.astype(float) - stack.astype(float)) > 1e-12):
        raise InputError("exact mode needs rational matrix entries")
    ops = OperatorTuple(tuple(exact), None, t.basis_labels, t.nilpotency_bound, t.kernel)
    return replace(config, ops=ops)


def _build_checks(config: Configuration) -> tuple[list[CheckResult], Optional[CharFnData]]:
    """The purity check and, for a pure tuple only, the construction identities and theta."""
    rec = presets._Recorder()
    with rec.timing("purity"):
        dd = defect_data(config.ops, config.kernel, config.pick_factor)
        rec.checks.append(CheckResult("purity", "pass" if dd.pure else "fail", dd.purity_residual, dd.purity_exact, 0.0))
    if not dd.pure:
        return rec.results(), None
    with rec.timing("construction_identities"):
        cfd = build_charfn(
            dd, config.factorization, support_cap=config.support_cap, constant_cap=config.constant_cap
        )
    block = max(v for v in cfd.diagnostics.values() if not isinstance(v, bool))
    verdict = "pass" if block <= presets.TOL_BLOCK else "fail"
    rec.checks.append(CheckResult("construction_identities", verdict, float(block), cfd.exact or None, 0.0))
    return rec.results(), cfd


# ---------------------------------------------------------------------------
# the impossibility sweep


def cmd_impossibility(args) -> int:
    m, n, n_max = args.m, args.n, args.N_max
    if m < 1 or n < 1:
        raise InputError("m and n must be >= 1")
    if n_max < 0:
        raise InputError("--N-max must be >= 0")
    from .series import bergman_kernel

    first_violation = None
    agreement = 0.0
    t0 = time.perf_counter()
    truncation = n_max + 4
    kernel = bergman_kernel(m, 1, truncation)
    form = bergman_kernel(n, 1, truncation)
    for base in range(n_max + 1):
        # the closed form 1 - n (N + 2) / (N + m + 1) as one Fraction; a difference is formed only when they differ
        closed = Fraction(base + m + 1 - n * (base + 2), base + m + 1)
        value = quadratic_form_certificate(kernel, form, base, [(base + 2,)], window_degree=base + 2)[0]
        if value != closed:
            agreement = max(agreement, abs(float(value - closed)))
        if value.numerator < 0 and first_violation is None:
            first_violation = base
    elapsed = time.perf_counter() - t0
    checks = [
        CheckResult("closed_form_agreement", "pass" if agreement <= 1e-12 else "fail", agreement, True, elapsed),
        CheckResult("first_violation", "certificate-only",
                    None if first_violation is None else float(first_violation), None, 0.0),
    ]
    if first_violation is None:
        print(f"m={m}, n={n}: no violation for any window base degree up to {n_max}")
    else:
        print(f"m={m}, n={n}: first violation at base degree N={first_violation}")
    config = {"command": "impossibility", "m": m, "n": n, "N_max": n_max, "first_violation": first_violation}
    return _finish(_report(config, _environment("exact", window=n_max + 2), checks), args.out)


# ---------------------------------------------------------------------------
# the suite


def _configuration_checks(name: str, seed: int, tol: float) -> list[CheckResult]:
    checks = run_configuration_checks(presets.configuration(name), seed=seed, composite_tol=tol)[0]
    return [replace(check, name=f"{name}/{check.name}") for check in checks]


def cmd_suite(args) -> int:
    """The named configurations (all by default, then alignment and coincidence), one unit each.

    ``presets.run_suite`` runs the units on the CPUs the process may use;
    the report and the printed lines do not depend on how many.
    """
    seed = 0 if args.seed is None else args.seed
    tol = presets.TOL_COMPOSITE if args.tol is None else args.tol
    names = list(presets.SUITE_CONFIGS) if args.configs is None else args.configs.split(",")
    if args.configs == "":
        raise InputError("--configs is empty: name at least one configuration")
    if "" in names:
        raise InputError(f"--configs has an empty configuration name: {args.configs!r}")
    unknown = [n for n in names if n not in presets.CONFIG_NAMES]
    if unknown:
        raise InputError(f"unknown configurations: {', '.join(unknown)}")
    twice = sorted({n for n in names if names.count(n) > 1})
    if twice:
        raise InputError(f"configurations named more than once: {', '.join(twice)}")

    units = [(name, functools.partial(_configuration_checks, name, seed, tol)) for name in names]
    if args.configs is None:
        units.append(("alignment", lambda: [presets.run_alignment_check(seed=seed)]))
        units.append(("coincidence", lambda: presets.run_coincidence_checks(seed=seed)))
    all_checks = presets.run_suite(units)
    passed = sum(1 for c in all_checks if c.verdict == "pass")
    failed = sum(1 for c in all_checks if c.verdict == "fail")
    report = _report(
        {"command": "suite", "configurations": names, "passed": passed, "failed": failed},
        _environment("float", seed=seed),
        all_checks,
    )
    code = _finish(report, args.out)
    print(f"suite: {passed} passed, {failed} failed")
    return code


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnpchar",
        description="characteristic functions for unit-ball kernels with a CNP factor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="coefficient certificates for kernel spec files")
    ksub = kernel.add_subparsers(dest="kernel_cmd", required=True)
    for name in ("info", "cnp"):
        p = ksub.add_parser(name)
        p.add_argument("--spec", required=True, help="kernel spec JSON file")
        _common_flags(p)
    pq = ksub.add_parser("quotient")
    pq.add_argument("--num", required=True, help="numerator kernel spec")
    pq.add_argument("--den", required=True, help="denominator kernel spec")
    pq.set_defaults(spec=None)
    _common_flags(pq)
    pf = ksub.add_parser("factor")
    pf.add_argument("--spec", required=True)
    pf.add_argument("--cnp-factor", required=True)
    _common_flags(pf)
    kernel.set_defaults(func=cmd_kernel)

    charfn = sub.add_parser("charfn", help="build or verify the characteristic function")
    charfn.add_argument("charfn_cmd", choices=["build", "verify"])
    charfn.add_argument("--preset", help=f"one of: {', '.join(presets.CONFIG_NAMES)}")
    charfn.add_argument("--kernel", help="kernel spec JSON (with --cnp-factor, --d, --model-degree)")
    charfn.add_argument("--cnp-factor")
    charfn.add_argument("--tuple", help="operator tuple spec JSON")
    charfn.add_argument("--d", type=int)
    charfn.add_argument("--model-degree", type=int)
    charfn.add_argument("--degree-cap", type=int)
    charfn.add_argument("--mode", choices=["exact", "float"], default="float")
    charfn.add_argument("--dump-theta")
    _common_flags(charfn)
    charfn.set_defaults(func=cmd_charfn)

    imp = sub.add_parser("impossibility", help="sweep the obstruction for k_m through k_n")
    imp.add_argument("--m", type=int, required=True)
    imp.add_argument("--n", type=int, required=True)
    imp.add_argument("--N-max", type=int, default=20)
    _common_flags(imp)
    imp.set_defaults(func=cmd_impossibility)

    suite = sub.add_parser("suite", help="run the full verification matrix")
    suite.add_argument("--configs", help="comma-separated configuration names (default: all)")
    _common_flags(suite)
    suite.set_defaults(func=cmd_suite)
    return parser


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--N", type=int, help="series truncation override")
    p.add_argument("--tol", type=float, help=f"composite tolerance (default {presets.TOL_COMPOSITE})")
    p.add_argument("--seed", type=int, help="seed of the sample points (default 0)")
    p.add_argument("--out", help="write the JSON run report here")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            raise InputError(f"--tol must be finite and > 0, got {args.tol}")
        if args.N is not None and args.N < 0:
            raise InputError(f"--N must be >= 0, got {args.N}")
        _check_writable(args.out, "report")
        _check_writable(getattr(args, "dump_theta", None), "theta coefficients")
        leaf = getattr(args, f"{args.command}_cmd", None)
        source = next((f for f in ("--preset", "--tuple") if getattr(args, f[2:], None)), None)
        for row in (f"{args.command} {leaf}" if leaf else args.command, source):
            given = [f for f in IGNORED.get(row, ()) if getattr(args, f[2:].replace("-", "_"), None) is not None]
            if given:
                raise InputError(f"{', '.join(given)} cannot be combined with {row}")
        return args.func(args)
    except (InputError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
