import contextlib
import functools
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpchar import _linalg, cli, presets
from cnpchar.cli import IGNORED, REPORT_SCHEMA, build_parser, main
from cnpchar.series import kernel_from_spec


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    for name, spec in {
        "bergman_m2": {"kind": "bergman", "m": 2, "d": 1, "truncation": 32},
        "k1": {"kind": "bergman", "m": 1, "d": 1, "truncation": 32},
        "k3": {"kind": "bergman", "m": 3, "d": 1, "truncation": 32},
        "dirichlet": {"kind": "dirichlet", "d": 1, "truncation": 50},
        "szego": {"kind": "szego", "d": 1, "truncation": 32},
        "geometric": {"kind": "coeffs", "a": [1, 0.5, 0.25, 0.125], "d": 1},
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        paths[name] = str(path)
    return paths


def read_report(path):
    with open(path) as fh:
        report = json.load(fh)
    jsonschema.validate(report, REPORT_SCHEMA)
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names)), "duplicate check names"
    return report


class TestKernelCommands:
    @pytest.mark.parametrize(
        "argv, code, config, caps, check",
        [
            (["info", "--spec", "dirichlet", "--N", "6"], 0,
             {"command": "kernel info", "spec": "dirichlet"},
             ("exact", 6), ("kernel_info", "certificate-only", True)),
            (["cnp", "--spec", "bergman_m2"], 1,
             {"command": "kernel cnp", "spec": "bergman_m2", "first_negative": 2},
             ("exact", 32), ("complete_pick", "fail", True)),
            (["cnp", "--spec", "geometric"], 0,
             {"command": "kernel cnp", "spec": "geometric", "first_negative": None},
             ("float", 3), ("complete_pick", "pass", False)),
            (["quotient", "--num", "k3", "--den", "k1"], 0,
             {"command": "kernel quotient", "num": "k3", "den": "k1", "first_negative": None},
             ("exact", 32), ("positive_quotient", "pass", True)),
            (["factor", "--spec", "bergman_m2", "--cnp-factor", "k1"], 0,
             {"command": "kernel factor", "spec": "bergman_m2", "factor": "k1"},
             ("exact", 32), ("factorization", "pass", True)),
            (["factor", "--spec", "dirichlet", "--cnp-factor", "k1"], 1,
             {"command": "kernel factor", "spec": "dirichlet", "factor": "k1",
              "error": "not a factorization: quotient coefficient at degree 1 is negative"},
             ("exact", 50), ("factorization", "fail", None)),
        ],
        ids=["info", "cnp_fail", "cnp_float", "quotient", "factor", "factor_fail"],
    )
    def test_report_is_pinned(self, specs, tmp_path, capsys, argv, code, config, caps, check):
        """The whole report of each kernel command, ``elapsed`` apart: config, environment and checks."""
        out = tmp_path / "r.json"
        argv = [specs.get(a, a) for a in argv]
        assert main(["kernel", *argv, "--out", str(out)]) == code
        report = read_report(out)
        assert report["checks"][0].pop("elapsed") == 0.0
        (mode, truncation), (name, verdict, exact) = caps, check
        assert report == {
            "schema_version": 1,
            "config": {key: specs.get(value, value) for key, value in config.items()},
            "environment": {
                "mode": mode,
                "seed": None,
                "caps": {"truncation": truncation},
                "tolerances": {"single_step": 1e-10, "composite": 1e-8, "block": 1e-9},
            },
            "checks": [{"name": name, "verdict": verdict, "residual": None, "exact": exact}],
        }

    def test_cnp_failure_exits_one(self, specs, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["kernel", "cnp", "--spec", specs["bergman_m2"], "--out", str(out)])
        assert code == 1
        report = read_report(out)
        assert report["config"]["first_negative"] == 2
        assert report["checks"][0]["verdict"] == "fail"

    def test_cnp_pass_exits_zero(self, specs, capsys):
        assert main(["kernel", "cnp", "--spec", specs["dirichlet"], "--N", "50"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_quotient_nonnegative(self, specs, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["kernel", "quotient", "--num", specs["k3"], "--den", specs["k1"], "--out", str(out)]
        )
        assert code == 0
        assert read_report(out)["checks"][0]["verdict"] == "pass"

    def test_quotient_negative(self, specs):
        assert main(["kernel", "quotient", "--num", specs["k1"], "--den", specs["bergman_m2"]]) == 1

    def test_factor(self, specs, capsys):
        assert main(["kernel", "factor", "--spec", specs["bergman_m2"], "--cnp-factor", specs["k1"]]) == 0
        assert main(["kernel", "factor", "--spec", specs["dirichlet"], "--cnp-factor", specs["k1"]]) == 1

    def test_info(self, specs, capsys):
        assert main(["kernel", "info", "--spec", specs["dirichlet"]]) == 0
        out = capsys.readouterr().out
        assert "ratio_sup: 2/1" in out

    def test_json_integer_coefficients_are_certified_exactly(self, tmp_path, capsys):
        """JSON integers print and certify as integer strings do: ratio_sup 3/4, not the float 0.75."""
        outputs = []
        for a in ([1, 2, 3, 4], ["1", "2", "3", "4"]):
            spec, out = tmp_path / "spec.json", tmp_path / "report.json"
            spec.write_text(json.dumps({"kind": "coeffs", "d": 1, "a": a}))
            assert main(["kernel", "info", "--spec", str(spec), "--out", str(out)]) == 0
            assert read_report(out)["environment"]["mode"] == "exact"
            outputs.append(capsys.readouterr().out.replace(str(out), "<out>"))
        assert outputs[0] == outputs[1]
        assert "ratio_sup: 3/4" in outputs[0] and "partial_sum_bound: 1/1" in outputs[0]

    def test_json_bool_coefficient_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "coeffs", "d": 1, "a": [True, 2, 3]}))
        assert main(["kernel", "info", "--spec", str(spec)]) == 2
        assert "bad scalar True" in capsys.readouterr().err

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["kernel", "cnp", "--spec", str(bad)]) == 2
        missing = tmp_path / "missing.json"
        assert main(["kernel", "cnp", "--spec", str(missing)]) == 2
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"kind": "nope"}))
        assert main(["kernel", "cnp", "--spec", str(wrong)]) == 2
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"kind": "coeffs", "a": ["1/1", "1/0"], "d": 1}))
        assert main(["kernel", "cnp", "--spec", str(zero)]) == 2

    @pytest.mark.parametrize("command", ["info", "cnp"])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_coefficient_exits_two(self, tmp_path, capsys, command, bad):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "coeffs", "a": ["1", bad, "1"], "d": 1}))
        assert main(["kernel", command, "--spec", str(spec)]) == 2
        assert f"a_1 = {bad} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [{"kind": "coeffs", "d": 1}, {"kind": "coeffs", "a": 5, "d": 1}, [1, 2]])
    def test_malformed_spec_with_truncation_exits_two(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["kernel", "info", "--spec", str(path), "--N", "3"]) == 2
        assert "bad kernel spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "a, named", [(["1", "1/2/3"], "'1/2/3'"), (["1", None], "None"), ("12", "'a' must be a list")]
    )
    def test_bad_coefficients_are_named(self, tmp_path, capsys, a, named):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "coeffs", "a": a, "d": 1}))
        assert main(["kernel", "info", "--spec", str(spec)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"kind": "szego", "d": 2.9, "truncation": 3.7}, "'truncation'"),
            ({"kind": "szego", "d": 2.9}, "'d'"),
            ({"kind": "bergman", "m": 2.5, "d": 1}, "'m'"),
            ({"kind": "bergman", "m": True, "d": 1}, "'m'"),
            ({"kind": "dirichlet", "d": "2"}, "'d'"),
            ({"kind": "szego", "d": 1, "truncation": 8.0}, "'truncation'"),
            ({"kind": "coeffs", "a": ["1", "1"], "d": 1.0}, "'d'"),
        ],
        ids=["float_truncation", "float_d", "float_m", "bool_m", "string_d", "integral_float", "coeffs_float_d"],
    )
    def test_non_integer_fields_exit_two(self, tmp_path, capsys, spec, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["kernel", "info", "--spec", str(path)]) == 2
        assert f"field {field} must be an integer" in capsys.readouterr().err


class TestCharFnCommands:
    def test_jordan_verify_and_theta_dump(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        dump = tmp_path / "theta.json"
        code = main(
            ["charfn", "verify", "--preset", "jordan", "--out", str(out), "--dump-theta", str(dump)]
        )
        assert code == 0
        report = read_report(out)
        assert all(c["verdict"] == "pass" for c in report["checks"])
        theta = json.loads(dump.read_text())
        assert list(theta["taylor"]) == ["2"]
        assert theta["taylor"]["2"] == {"shape": [1, 1], "entries": [[1.0]]}
        assert theta["fiber_dim"] == 1 and theta["domain_dim"] == 1
        assert theta["b_block"]["shape"] == [2, 1]

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_theta_dump_builds_theta_once(self, tmp_path, monkeypatch, command):
        """The dump writes the theta of the check run instead of building another."""
        from cnpchar import charfn, cli, presets

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return charfn.build_charfn(*args, **kwargs)

        monkeypatch.setattr(cli, "build_charfn", counted)
        monkeypatch.setattr(presets, "build_charfn", counted)
        out, dump = tmp_path / "r.json", tmp_path / "theta.json"
        args = ["charfn", command, "--preset", "two_cells", "--out", str(out), "--dump-theta", str(dump)]
        assert main(args) == 0
        assert len(calls) == 1
        assert json.loads(dump.read_text())["fiber_dim"] == 2

    def test_build_times_purity_apart_from_the_construction(self, tmp_path, monkeypatch):
        """Purity's elapsed excludes build_charfn's time; construction_identities' includes it."""
        import time

        from cnpchar import charfn, cli

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return charfn.build_charfn(*args, **kwargs)

        monkeypatch.setattr(cli, "build_charfn", slow)
        out = tmp_path / "r.json"
        assert main(["charfn", "build", "--preset", "jordan", "--out", str(out)]) == 0
        elapsed = {c["name"]: c["elapsed"] for c in read_report(out)["checks"]}
        assert elapsed["purity"] < 0.05 <= elapsed["construction_identities"]

    @pytest.mark.parametrize("preset", ["jordan", "two_cells"])
    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_exact_mode_jordan(self, tmp_path, command, preset):
        out = tmp_path / "r.json"
        code = main(["charfn", command, "--preset", preset, "--mode", "exact", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert all(c["verdict"] == "pass" for c in report["checks"])
        assert any(c.get("exact") for c in report["checks"])
        if command == "verify":
            exact = {c["name"]: c["exact"] for c in report["checks"]}
            for name in ("purity", "defect_embedding_gram", "projection_partition"):
                assert exact[name] is True, name

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_exact_mode_irrational_defect_exits_two(self, command, capsys):
        code = main(["charfn", command, "--preset", "k2_da_d1_n1", "--mode", "exact"])
        assert code == 2
        assert "defect roots are not rational" in capsys.readouterr().err

    def test_custom_model_build(self, specs, tmp_path):
        code = main(
            [
                "charfn",
                "build",
                "--kernel",
                specs["bergman_m2"],
                "--cnp-factor",
                specs["k1"],
                "--d",
                "1",
                "--model-degree",
                "2",
            ]
        )
        assert code == 0

    def test_tuple_spec_build(self, specs, tmp_path):
        import numpy as np

        from cnpchar.operators import OperatorTuple, model_tuple, tuple_to_spec
        from cnpchar.series import bergman_kernel

        # J2 (+) J3 through Szego: the defect eigenvalue 1 is repeated, so the
        # dilation and theta agree only if they share one basis of Ran Defect
        cells = np.zeros((5, 5))
        cells[1, 0] = cells[3, 2] = cells[4, 3] = 1.0
        cases = [
            (model_tuple(bergman_kernel(2, 1, 32), 1, 2, mode="float"), "bergman_m2", "k1"),
            (OperatorTuple((cells,), nilpotency_bound=2), "szego", "szego"),
        ]
        spec = tmp_path / "tuple.json"
        for t, kernel, factor in cases:
            spec.write_text(json.dumps(tuple_to_spec(t)))
            code = main(
                [
                    "charfn",
                    "verify",
                    "--kernel",
                    specs[kernel],
                    "--cnp-factor",
                    specs[factor],
                    "--tuple",
                    str(spec),
                ]
            )
            assert code == 0

    def test_complex_tuple_spec(self, specs, tmp_path):
        """A float tuple spec may carry complex entries as strings: Szego at 0.3+0.4j."""
        spec, out = tmp_path / "tuple.json", tmp_path / "r.json"
        spec.write_text(json.dumps({"mode": "float", "matrices": [[["0.3+0.4j"]]]}))
        args = ["--kernel", specs["szego"], "--cnp-factor", specs["szego"], "--tuple", str(spec)]
        code = main(["charfn", "verify", *args, "--N", "64", "--degree-cap", "40", "--out", str(out)])
        assert code == 0
        checks = read_report(out)["checks"]
        assert len(checks) == 14 and all(c["verdict"] == "pass" for c in checks)

    def test_complex_tuple_spec_round_trip(self):
        import numpy as np

        from cnpchar.operators import OperatorTuple, tuple_from_spec, tuple_to_spec

        t = OperatorTuple((np.array([[0.3 + 0.4j, 0.0], [0.25, -0.5j]]),), nilpotency_bound=None)
        back = tuple_from_spec(json.loads(json.dumps(tuple_to_spec(t))))
        assert back.mats[0].dtype == complex and np.array_equal(back.mats[0], t.mats[0])
        real = tuple_from_spec({"mode": "float", "matrices": [[["0.5", 0.25], [0, "-1e-3+0j"]]]})
        assert real.mats[0].dtype == float
        assert np.array_equal(real.mats[0], [[0.5, 0.25], [0.0, -1e-3]])

    @pytest.mark.parametrize(
        "matrices",
        [[[[{}]]], 5, [5], [[[None]]], [[["nan"]]], [[[1e400]]], [[[10**400]]], [[["abc"]]]],
        ids=["dict", "number", "flat", "null", "nan", "inf", "huge_int", "bad_string"],
    )
    def test_malformed_float_tuple_exits_two(self, specs, tmp_path, matrices):
        spec = tmp_path / "tuple.json"
        spec.write_text(json.dumps({"mode": "float", "matrices": matrices}))
        args = ["--kernel", specs["szego"], "--cnp-factor", specs["szego"], "--tuple", str(spec)]
        assert main(["charfn", "verify", *args]) == 2

    @pytest.mark.parametrize(
        "matrices",
        [[[[{}]]], 5, [[1, 2]], [[[0], [0, 1]]], [[[None]]], [[["nan"]]], [[[1e400]]], [[[10**400]]], [[["abc"]]]],
        ids=["dict", "number", "one_d", "ragged", "null", "nan", "inf", "huge_int", "bad_string"],
    )
    def test_malformed_exact_tuple_exits_two(self, specs, tmp_path, capsys, matrices):
        spec = tmp_path / "tuple.json"
        spec.write_text(json.dumps({"mode": "exact", "matrices": matrices}))
        args = ["--kernel", specs["szego"], "--cnp-factor", specs["szego"], "--tuple", str(spec)]
        assert main(["charfn", "verify", *args]) == 2
        assert "cannot read tuple spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, mode, message",
        [
            ({"mode": "exact", "matrices": [[[0]], [[0]]]}, "float", "the tuple has 2 operators"),
            ({"mode": "float", "matrices": [[[2.0]]]}, "float", "not a 1/k-contraction"),
            ({"mode": "float", "matrices": [[["0.3+0.4j"]]]}, "exact", "exact mode needs rational"),
        ],
        ids=["dimension", "not_contraction", "complex_in_exact_mode"],
    )
    def test_tuple_the_run_cannot_use_exits_two(self, specs, tmp_path, capsys, spec, mode, message):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(spec))
        args = ["--kernel", specs["szego"], "--cnp-factor", specs["szego"], "--tuple", str(path), "--mode", mode]
        assert main(["charfn", "verify", *args, "--N", "24", "--degree-cap", "4"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [[{"mode": "float", "matrices": [[[0.5]]]}], "float", 5], ids=["list", "string", "number"])
    def test_tuple_spec_that_is_no_object_exits_two(self, specs, tmp_path, capsys, spec):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(spec))
        args = ["--kernel", specs["szego"], "--cnp-factor", specs["szego"], "--tuple", str(path)]
        assert main(["charfn", "verify", *args]) == 2
        err = capsys.readouterr().err
        assert "tuple spec must be an object with 'mode' and 'matrices' fields" in err
        assert "list indices" not in err and "Traceback" not in err

    def test_unsettled_series_exits_two(self, tmp_path, capsys):
        """T = 0.9 is not nilpotent, and its purity sum has not settled by --N 48: an error, not a failed check."""
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"mode": "float", "matrices": [[[0.9]]]}))
        kernel = str(Path(__file__).parent / "specs" / "szego_d1.json")
        args = ["--kernel", kernel, "--cnp-factor", kernel, "--tuple", str(path), "--N", "48", "--degree-cap", "20"]
        assert main(["charfn", "verify", *args]) == 2
        err = capsys.readouterr().err
        assert "did not settle" in err and "by degree 48" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nilpotency_bound", "x"),
            ("nilpotency_bound", -1),
            ("nilpotency_bound", True),
            ("weights", 5),
            ("weights", ["0"]),
            ("weights", [1, 2]),
            ("basis_labels", 5),
            ("basis_labels", [[-1]]),
            ("basis_labels", [[0, 0]]),
            # T = 0.5 is not nilpotent of degree 0: no truncated sum may stop there
            ("nilpotency_bound", 0),
        ],
    )
    def test_malformed_optional_field_exits_two(self, specs, tmp_path, capsys, field, value):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"mode": "float", "matrices": [[[0.5]]], field: value}))
        args = ["--kernel", specs["szego"], "--cnp-factor", specs["szego"], "--tuple", str(path)]
        assert main(["charfn", "verify", *args]) == 2
        assert f"tuple spec field {field!r}" in capsys.readouterr().err

    def test_exact_tuple_spec_runs_in_float_mode(self, specs, tmp_path):
        """An exact spec whose defect root is irrational runs when float mode is asked for."""
        spec, out = tmp_path / "tuple.json", tmp_path / "r.json"
        spec.write_text(json.dumps({"mode": "exact", "matrices": [[["1/3"]]]}))
        args = ["--kernel", specs["szego"], "--cnp-factor", specs["szego"], "--tuple", str(spec)]
        assert main(["charfn", "verify", *args, "--mode", "float", "--out", str(out)]) == 0
        assert read_report(out)["environment"]["mode"] == "float"

    def test_weighted_tuple_specs_agree(self, tmp_path):
        """The Jordan cell on the basis with squared norms 1, 4, as a float and as an exact spec: the same passing checks."""
        here = Path(__file__).parent / "specs"
        args = ["--kernel", str(here / "szego_d1.json"), "--cnp-factor", str(here / "szego_d1.json")]
        verdicts = []
        for mode in ("float", "exact"):
            out = tmp_path / f"{mode}.json"
            assert main(["charfn", "verify", *args, "--tuple", str(here / f"jordan_weighted_{mode}.json"), "--out", str(out)]) == 0
            verdicts.append([(c["name"], c["verdict"]) for c in read_report(out)["checks"]])
        assert verdicts[0] == verdicts[1] and len(verdicts[0]) == 14

    def test_empty_k_inner_space_is_a_failed_check(self, specs, tmp_path):
        # T = 0.6 is not nilpotent, so the default window is too shallow for
        # theta to reach a unit Gram eigenvalue: the check fails, the run goes on
        spec, out = tmp_path / "tuple.json", tmp_path / "r.json"
        spec.write_text(json.dumps({"mode": "float", "matrices": [[[0.6]]]}))
        args = ["--kernel", specs["szego"], "--cnp-factor", specs["szego"], "--tuple", str(spec)]
        assert main(["charfn", "verify", *args, "--out", str(out)]) == 1
        checks = {c["name"]: c for c in read_report(out)["checks"]}
        assert len(checks) == 14
        assert checks["k_inner_space"]["verdict"] == "fail"
        assert checks["k_inner_space"]["residual"] is None

    def test_nonpure_exits_one(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["charfn", "build", "--preset", "nonpure", "--out", str(out)])
        assert code == 1
        report = read_report(out)
        assert report["checks"][0]["name"] == "purity"
        assert report["checks"][0]["verdict"] == "fail"
        assert report["checks"][0]["residual"] == pytest.approx(1.0)

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_nonpure_theta_dump_skipped(self, tmp_path, capsys, command):
        out, dump = tmp_path / "r.json", tmp_path / "theta.json"
        code = main(
            ["charfn", command, "--preset", "nonpure", "--dump-theta", str(dump), "--out", str(out)]
        )
        assert code == 1
        assert read_report(out)["checks"][0]["verdict"] == "fail"
        assert not dump.exists()
        assert "not pure" in capsys.readouterr().out

    def test_unknown_preset_exits_two(self):
        assert main(["charfn", "build", "--preset", "nope"]) == 2

    def test_missing_arguments_exit_two(self):
        assert main(["charfn", "build"]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--d", "1", "--model-degree", "-1"], "--model-degree >= 0"),
            (["--d", "1", "--model-degree", "1", "--degree-cap", "40"], "degree caps 40, 40 outside 1..32"),
            (["--d", "1", "--model-degree", "1", "--N", "16"], "exceeds the kernel truncation 16"),
            (["--d", "1", "--model-degree", "2", "--N", "1"], "--model-degree 2 exceeds the truncation 1"),
            (["--d", "1", "--model-degree", "2", "--N", "4"], "degree caps 5, 16 outside 1..4"),
            (["--d", "2", "--model-degree", "1"], "--d is 2, the kernel dimension is 1"),
            (["--d", "0", "--model-degree", "0"], "--d must be >= 1"),
        ],
        ids=["negative_model_degree", "degree_cap_beyond_truncation", "window_beyond_truncation",
             "model_degree_beyond_truncation", "plan_beyond_truncation", "dimension_other_than_the_kernel",
             "zero_dimension"],
    )
    def test_bad_model_flags_exit_two(self, specs, flags, message, capsys):
        args = ["charfn", "verify", "--kernel", specs["bergman_m2"], "--cnp-factor", specs["k1"]]
        assert main(args + flags) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, flags",
        [
            (["--preset", "jordan"], ["--N", "16", "--d", "1"]),
            (["--preset", "jordan"], ["--degree-cap", "3"]),
            (["--preset", "jordan"], ["--tuple", str(Path(__file__).parent / "specs" / "scalar_half.json")]),
            (["--preset", "jordan"], ["--kernel", "szego_d1.json", "--cnp-factor", "szego_d1.json"]),
            (["--tuple", str(Path(__file__).parent / "specs" / "scalar_half.json")], ["--model-degree", "2"]),
        ],
        ids=["preset_truncation_and_dimension", "preset_degree_cap", "preset_tuple", "preset_kernel",
             "tuple_model_degree"],
    )
    def test_flags_a_source_fixes_exit_two(self, source, flags, capsys):
        szego = str(Path(__file__).parent / "specs" / "szego_d1.json")
        kernel = ["--kernel", szego, "--cnp-factor", szego] if source[0] == "--tuple" else []
        assert main(["charfn", "verify"] + source + kernel + flags) == 2
        named = [f for f in flags if f.startswith("--")]
        assert f"{', '.join(named)} cannot be combined with {source[0]}" in capsys.readouterr().err


class TestCommonFlags:
    SZEGO = str(Path(__file__).parent / "specs" / "szego_d1.json")

    @pytest.mark.parametrize(
        "flag",
        [["--seed", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--tol", "0"], ["--N", "-1"]],
        ids=["negative_seed", "nan_tol", "inf_tol", "negative_tol", "zero_tol", "negative_truncation"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--configs", "jordan"],
            ["charfn", "verify", "--preset", "jordan"],
            ["kernel", "factor", "--spec", SZEGO, "--cnp-factor", SZEGO],
        ],
        ids=["suite", "charfn", "kernel_factor"],
    )
    def test_out_of_range_exits_two(self, argv, flag, capsys):
        assert main(argv + flag) == 2
        assert f"{flag[0]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["suite", "--configs", "jordan"], "--out"),
            (["charfn", "verify", "--preset", "jordan"], "--out"),
            (["charfn", "verify", "--preset", "jordan"], "--dump-theta"),
            (["impossibility", "--m", "2", "--n", "2", "--N-max", "2"], "--out"),
            (["kernel", "info", "--spec", SZEGO], "--out"),
        ],
        ids=["suite_out", "charfn_out", "charfn_dump_theta", "impossibility_out", "kernel_out"],
    )
    def test_unwritable_output_exits_two(self, argv, flag, tmp_path, capsys):
        """An output path in a missing directory exits 2 before the first check prints its line."""
        path = tmp_path / "missing" / "x.json"
        assert main(argv + [flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: cannot write the ") and str(path) in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["impossibility", "--m", "2", "--n", "2", "--N-max", "2"], ["--tol", "0.5", "--seed", "7"]),
            (["kernel", "info", "--spec", SZEGO], ["--tol", "0.5"]),
            (["kernel", "info", "--spec", SZEGO], ["--seed", "7"]),
            (["kernel", "cnp", "--spec", SZEGO], ["--seed", "7"]),
            (["kernel", "quotient", "--num", SZEGO, "--den", SZEGO], ["--seed", "7"]),
            (["kernel", "factor", "--spec", SZEGO, "--cnp-factor", SZEGO], ["--seed", "7"]),
            (["charfn", "build", "--preset", "jordan"], ["--tol", "0.5", "--seed", "7"]),
        ],
        ids=["impossibility", "info_tol", "info_seed", "cnp", "quotient", "factor", "charfn_build"],
    )
    def test_seed_and_tol_where_unused_exit_two(self, argv, flags, capsys):
        assert main(argv + flags) == 2
        named = [f for f in flags if f.startswith("--")]
        source = " ".join(argv[:2]) if argv[0] in ("kernel", "charfn") else argv[0]
        assert f"{', '.join(named)} cannot be combined with {source}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["suite", "--configs", "jordan"], ["impossibility", "--m", "2", "--n", "2", "--N-max", "2"]],
        ids=["suite", "impossibility"],
    )
    def test_truncation_where_unused_exits_two(self, argv, capsys):
        assert main(argv + ["--N", "5"]) == 2
        assert f"--N cannot be combined with {argv[0]}" in capsys.readouterr().err

    def test_every_leaf_command_has_a_row(self):
        """A command added to the parser without a row of ignored flags fails here."""

        def leaves(parser, prefix=""):
            (action,) = [a for a in parser._actions if a.choices and not a.option_strings]
            if isinstance(action.choices, dict):
                for name, child in action.choices.items():
                    has_leaves = any(a.choices and not a.option_strings for a in child._actions)
                    yield from leaves(child, f"{prefix}{name} ") if has_leaves else [prefix + name]
            else:
                yield from (prefix + name for name in action.choices)

        assert sorted(leaves(build_parser())) == sorted(set(IGNORED) - {"--preset", "--tuple"})

    def test_command_row_before_source_row(self, capsys):
        assert main(["charfn", "build", "--preset", "jordan", "--tol", "0.5", "--N", "4"]) == 2
        assert "error: --tol cannot be combined with charfn build" in capsys.readouterr().err


class TestImpossibility:
    def test_first_violation_m2_n2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["impossibility", "--m", "2", "--n", "2", "--N-max", "10", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["config"]["first_violation"] == 0
        agreement = next(c for c in report["checks"] if c["name"] == "closed_form_agreement")
        assert agreement["verdict"] == "pass" and agreement["residual"] == 0.0

    def test_no_violation_for_n_one(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["impossibility", "--m", "5", "--n", "1", "--N-max", "50", "--out", str(out)]) == 0
        assert read_report(out)["config"]["first_violation"] is None

    def test_negative_n_max_exits_two(self):
        assert main(["impossibility", "--m", "2", "--n", "2", "--N-max", "-3"]) == 2

    def test_boundary_case_m3_n2(self, tmp_path):
        # at N=0 the form value is exactly 0 (not a violation); first violation at N=1
        out = tmp_path / "r.json"
        assert main(["impossibility", "--m", "3", "--n", "2", "--N-max", "5", "--out", str(out)]) == 0
        assert read_report(out)["config"]["first_violation"] == 1


class TestSuite:
    CONFIGS = "jordan,k2_da_d1_n1"

    def _run(self, tmp_path, name):
        out = tmp_path / name
        code = main(["suite", "--configs", self.CONFIGS, "--seed", "5", "--out", str(out)])
        return code, read_report(out)

    def test_subset_passes(self, tmp_path):
        code, report = self._run(tmp_path, "a.json")
        assert code == 0
        assert report["config"]["failed"] == 0
        assert {c["name"].split("/")[0] for c in report["checks"]} == {"jordan", "k2_da_d1_n1"}

    def test_deterministic_reports(self, tmp_path):
        _, r1 = self._run(tmp_path, "a.json")
        _, r2 = self._run(tmp_path, "b.json")
        for r in (r1, r2):
            for c in r["checks"]:
                c.pop("elapsed")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_unknown_configuration_exits_two(self):
        assert main(["suite", "--configs", "nope"]) == 2

    @pytest.mark.parametrize(
        "configs, message",
        [
            ("", "--configs is empty"),
            ("jordan,", "--configs has an empty configuration name: 'jordan,'"),
        ],
        ids=["empty_list", "empty_name"],
    )
    def test_empty_configuration_exits_two(self, configs, message, monkeypatch, capsys):
        """An empty list, or an empty name in one, exits 2 with a message that says so before any configuration runs."""
        from cnpchar import cli

        monkeypatch.setattr(cli, "run_configuration_checks", lambda *a, **k: pytest.fail("a configuration ran"))
        assert main(["suite", "--configs", configs]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_repeated_configuration_exits_two(self, monkeypatch, capsys):
        """A name given twice exits 2 before any configuration runs."""
        from cnpchar import cli

        monkeypatch.setattr(cli, "run_configuration_checks", lambda *a, **k: pytest.fail("a configuration ran"))
        assert main(["suite", "--configs", "jordan,k2_da_d1_n1,jordan"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "configurations named more than once: jordan" in err


@functools.cache
def _serial_suite(seed):
    """(name, verdict, residual repr, exact) of every suite check, from the three runners called in order."""
    checks = [
        (f"{name}/{c.name}", c) for name in presets.SUITE_CONFIGS
        for c in presets.run_configuration_checks(presets.configuration(name), seed=seed)[0]
    ]
    checks.append(("alignment_two_factorizations", presets.run_alignment_check(seed=seed)))
    checks += [(c.name, c) for c in presets.run_coincidence_checks(seed=seed)]
    return [(name, c.verdict, repr(c.residual), c.exact) for name, c in checks]


class TestSuiteAcrossWorkers:
    """``presets.run_suite`` splits the suite's units across forked workers; nothing the suite prints or
    writes depends on how many, a failure is the one a serial loop would raise, and no worker outlives the run.

    ``os.sched_getaffinity`` is patched so that the split happens on any host.
    """

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        """Each test ends within a minute, and afterwards this process has no child, not even an unreaped one."""

        def late(signum, frame):
            raise TimeoutError("the suite hung")

        previous = signal.signal(signal.SIGALRM, late)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    @staticmethod
    def _fail_in(monkeypatch, names, error):
        """``error(name)`` raised inside the configuration runs of ``names``, in whichever process runs them."""
        real = cli.run_configuration_checks

        def run(config, **kwargs):
            if config.name in names:
                raise error(config.name)
            return real(config, **kwargs)

        monkeypatch.setattr(cli, "run_configuration_checks", run)

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("seed, cpus", [(0, 2), (7, 2), (0, 1), (7, 3)], ids=lambda x: str(x))
    def test_checks_are_the_serial_runners(self, seed, cpus, monkeypatch, tmp_path):
        """Every check's name, verdict, residual (bit for bit) and exactness, in order, as the three runners give them."""
        self._cpus(monkeypatch, cpus)
        out = tmp_path / "suite.json"
        code, stdout, _ = self._main(["suite", "--seed", str(seed), "--out", str(out)])
        report = read_report(out)
        got = [(c["name"], c["verdict"], repr(c["residual"]), c["exact"]) for c in report["checks"]]
        assert code == 0 and got == _serial_suite(seed)
        assert stdout.splitlines()[-1] == "suite: 255 passed, 0 failed"

    def test_workers_send_what_the_serial_loop_reports(self, monkeypatch, tmp_path):
        """Reports and printed lines at P = 1, 2 and 4, ``elapsed`` apart, byte for byte."""
        runs = []
        for cpus in (1, 2, 4):
            self._cpus(monkeypatch, cpus)
            out = tmp_path / f"p{cpus}.json"
            code, stdout, _ = self._main(["suite", "--configs", "jordan,nonpure,two_cells,k2_da_d1_n1", "--out", str(out)])
            report = read_report(out)
            for check in report["checks"]:
                check["elapsed"] = 0.0
            runs.append((code, stdout.replace(str(out), "<report>"), json.dumps(report)))
        assert runs[0][0] == 1 and runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_lapack_failure_in_either_share_reads_the_same(self, cpus, monkeypatch):
        """``np.linalg.svd`` fails only while two_cells is built: exit 2 and one ``error:`` line, whether
        two_cells is the second unit (a worker's share at P = 2) or the first (this process's)."""
        self._cpus(monkeypatch, cpus)
        current = {}
        real_configuration, real_svd = presets.configuration, np.linalg.svd

        def configuration(name):
            current["name"] = name
            return real_configuration(name)

        def svd(*args, **kwargs):
            if current.get("name") == "two_cells":
                raise np.linalg.LinAlgError("svd did not converge")
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(presets, "configuration", configuration)
        monkeypatch.setattr(np.linalg, "svd", svd)
        for configs in ("jordan,two_cells", "two_cells,jordan"):
            assert self._main(["suite", "--configs", configs]) == (
                2, "", "error: svd did not converge (in configuration two_cells)\n"
            )

    @pytest.mark.parametrize(
        "configs, cpus, first",
        [
            ("jordan,two_cells,k2_da_d1_n1", 2, "two_cells"),  # a worker's failure before this process's
            ("jordan,k2_da_d1_n1,two_cells", 2, "k2_da_d1_n1"),
            ("two_cells,k2_da_d1_n1", 2, "two_cells"),  # this process's failure first: the worker is killed
            ("jordan,two_cells,k2_da_d1_n1", 3, "two_cells"),  # two workers fail
        ],
    )
    def test_the_lowest_failing_unit_wins(self, configs, cpus, first, monkeypatch):
        self._cpus(monkeypatch, cpus)
        self._fail_in(monkeypatch, {"two_cells", "k2_da_d1_n1"}, lambda name: np.linalg.LinAlgError(f"{name} failed"))
        assert self._main(["suite", "--configs", configs]) == (2, "", f"error: {first} failed\n")

    def test_a_worker_that_exits_without_its_checks_is_an_error(self, monkeypatch):
        """A worker that ends with ``os._exit(3)`` ends the run with a RuntimeError naming its configurations."""
        self._cpus(monkeypatch, 2)
        parent, real = os.getpid(), cli.run_configuration_checks

        def run(config, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real(config, **kwargs)

        monkeypatch.setattr(cli, "run_configuration_checks", run)
        with pytest.raises(RuntimeError, match="^the suite worker for two_cells, nonpure ended with status 3 "):
            self._main(["suite", "--configs", "jordan,two_cells,k2_da_d1_n1,nonpure"])

    def test_an_uncaught_worker_exception_keeps_its_traceback(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        self._fail_in(monkeypatch, {"two_cells"}, lambda name: ValueError(f"{name} broke"))
        with pytest.raises(ValueError, match="^two_cells broke$") as info:
            self._main(["suite", "--configs", "jordan,two_cells"])
        cause = info.value.__cause__
        assert isinstance(cause, presets.WorkerTraceback)
        assert "in run\n" in str(cause) and str(cause).rstrip().endswith("ValueError: two_cells broke")

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, KeyboardInterrupt])
    def test_a_failure_in_this_process_kills_later_workers(self, error, monkeypatch):
        """The worker's unit would run for a minute; the failure of the first unit, here, ends the run at once."""
        self._cpus(monkeypatch, 2)
        real = cli.run_configuration_checks

        def run(config, **kwargs):
            if config.name == "jordan":
                raise error("jordan failed")
            time.sleep(60)
            return real(config, **kwargs)

        monkeypatch.setattr(cli, "run_configuration_checks", run)
        start = time.perf_counter()
        with contextlib.suppress(KeyboardInterrupt):
            self._main(["suite", "--configs", "jordan,two_cells"])
        assert time.perf_counter() - start < 10

    def test_each_line_is_printed_once(self, monkeypatch, capfd):
        self._cpus(monkeypatch, 2)
        print("before the suite")
        assert main(["suite", "--configs", "jordan,two_cells"]) == 0
        lines = capfd.readouterr().out.splitlines()
        assert len(lines) == len(set(lines)) == 1 + 2 * 14 + 1
        assert lines[0] == "before the suite" and lines[-1] == "suite: 28 passed, 0 failed"

    def test_a_block_buffered_stdout_prints_each_line_once(self):
        """Standard output to a pipe, with a line buffered before the fork."""
        code = "import sys; print('before the suite'); from cnpchar.cli import main; sys.exit(main(sys.argv[1:]))"
        run = subprocess.run(
            [sys.executable, "-c", code, "suite", "--configs", "jordan,two_cells"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )
        lines = run.stdout.splitlines()
        assert run.returncode == 0 and len(lines) == len(set(lines)) == 30 and lines[0] == "before the suite"

    def test_the_process_count(self, monkeypatch):
        """The CPUs the process may use, at most the units; the CPU count without affinity; 1 without fork."""
        self._cpus(monkeypatch, 3)
        assert [presets._process_count(units) for units in (1, 2, 3, 20)] == [1, 2, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert presets._process_count(20) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert presets._process_count(20) == 4
        monkeypatch.delattr(os, "fork")
        assert presets._process_count(20) == 1


def _blanked_report(argv, out):
    """The report of one ``main`` run with every ``elapsed`` field set to 0."""
    main(argv + ["--out", str(out)])
    report = read_report(out)
    for check in report["checks"]:
        check["elapsed"] = 0.0
    return report


@pytest.mark.parametrize(
    "argv",
    [
        json.loads((Path(__file__).parent / "golden" / "charfn_verify_wide_seed_0.json").read_text())["argv"],
        ["charfn", "verify", "--preset", "two_cells", "--mode", "exact"],
    ],
    ids=["wide_seed_0", "two_cells_exact"],
)
def test_the_form_of_a_sum_moves_no_report_byte(argv, tmp_path, capsys):
    """Every ordered sum dense (an infinite position floor), or as slot entries wherever they are smaller (no floor):
    the same exit code and, ``elapsed`` apart, the same report bytes, multiplier Gram and factorization residual
    included, and the same ``--dump-theta`` bytes, whose zeros print unsigned."""
    runs = []
    for floor in (math.inf, 0):
        out, dump = tmp_path / f"floor-{floor}.json", tmp_path / f"theta-{floor}.json"
        with mock.patch.object(_linalg, "SLOT_POSITIONS", floor):
            code = main(argv + ["--out", str(out), "--dump-theta", str(dump)])
        report = read_report(out)
        for check in report["checks"]:
            check["elapsed"] = 0.0
        runs.append((code, json.dumps(report), dump.read_bytes()))
    assert runs[0] == runs[1]
    assert re.search(rb"-0\.0[,\]\s]", runs[0][2]) is None


class TestSharedParser:
    """``main`` builds its parser once per process; later calls reuse it and do not depend on their order."""

    def test_three_command_lines_build_one_parser(self, monkeypatch, capsys):
        import argparse

        build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        spec = Path(__file__).parent / "specs" / "szego_d1.json"
        for argv in (
            ["impossibility", "--m", "2", "--n", "2", "--N-max", "5"],
            ["kernel", "info", "--spec", str(spec)],
            ["charfn", "build", "--preset", "jordan"],
        ):
            assert main(argv) == 0
        assert len(built) == 9  # the top parser, kernel and its 4 leaves, charfn, impossibility, suite
        assert build_parser() is build_parser()

    def test_reports_do_not_depend_on_call_order(self, specs, tmp_path, capsys):
        """Usage errors, --help and other commands between calls leave every report as its golden or lone run."""
        from test_report_oracle import GOLDEN, pinned

        quotient = ["kernel", "quotient", "--num", specs["k3"], "--den", specs["k1"]]
        build_parser.cache_clear()
        alone = _blanked_report(quotient, tmp_path / "alone.json")
        build_parser.cache_clear()
        shared = build_parser()
        assert _blanked_report(quotient, tmp_path / "first.json") == alone
        with pytest.raises(SystemExit) as usage:
            main(["impossibility", "--m", "x"])
        assert usage.value.code == 2
        with pytest.raises(SystemExit) as help_:
            main(["--help"])
        assert help_.value.code == 0
        for path in GOLDEN:
            golden = json.loads(path.read_text())
            report = _blanked_report(golden["argv"], tmp_path / f"{path.stem}.json")
            assert report["environment"]["caps"] == golden["caps"], path.stem
            assert [pinned(c) for c in report["checks"]] == golden["checks"], path.stem
        assert _blanked_report(quotient, tmp_path / "last.json") == alone
        assert build_parser() is shared

    def test_sweep_in_one_process_matches_each_line_alone(self, monkeypatch, tmp_path, capsys):
        """The benchmark's 16 sweep command lines give the same reports on one parser as each on its own."""
        import importlib

        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            lines = importlib.import_module("workloads").command_lines("sweep", 0)
        finally:
            sys.modules.pop("workloads", None)
        assert len(lines) == 16
        build_parser.cache_clear()
        together = [_blanked_report(argv, tmp_path / f"together-{i}.json") for i, argv in enumerate(lines)]
        for i, argv in enumerate(lines):
            build_parser.cache_clear()
            assert _blanked_report(argv, tmp_path / f"alone-{i}.json") == together[i], argv


def test_cli_import_leaves_scipy_unloaded():
    """Importing the command line loads no scipy module, whose import alone outweighs a small run."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, cnpchar.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_charfn_verify_never_imports_numpy_ma(tmp_path):
    """A plain ``np.unique`` imports ``numpy.ma`` on its first call, about 9 ms of a short run; no code path of a run calls one."""
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["charfn", "verify", "--preset", "jordan", "--out", str(tmp_path / "report.json")]
    probe = f"import sys; from cnpchar.cli import main; code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


# coefficient strings a spec file may hold, well-formed or not
_SCALARS = ["1", "1/1", "1/2", "3/4", "2", "0.5", "1e3", "inf", "-inf", "nan", "1/0", "-1", "0", "1/2/3", "x"]


def _coeffs_spec():
    entry = st.one_of(st.sampled_from(_SCALARS), st.integers(-2, 3), st.floats(-1, 4), st.none())
    rest = st.lists(entry, max_size=6)
    first = st.sampled_from(["1", "1/1", 1, 1.0, "2", "nan"])
    return st.fixed_dictionaries(
        {
            "kind": st.just("coeffs"),
            "a": st.one_of(st.builds(lambda a0, a: [a0] + a, first, rest), st.sampled_from(["12", 5, None])),
            "d": st.one_of(st.integers(0, 3), st.none()),
        }
    )


class TestFuzzKernelCommands:
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["info", "cnp", "quotient", "factor"]),
        first=_coeffs_spec(),
        second=_coeffs_spec(),
        truncation=st.one_of(st.none(), st.integers(-1, 6)),
    )
    def test_exit_code_and_no_traceback(self, command, first, second, truncation):
        """Generated coefficient specs end in exit 0, 1 or 2, never in a traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, spec in (("first", first), ("second", second)):
                paths.append(Path(tmp) / f"{name}.json")
                paths[-1].write_text(json.dumps(spec))
            if command == "quotient":
                argv = ["kernel", "quotient", "--num", str(paths[0]), "--den", str(paths[1])]
            else:
                argv = ["kernel", command, "--spec", str(paths[0])]
                if command == "factor":
                    argv += ["--cnp-factor", str(paths[1])]
            if truncation is not None:
                argv += ["--N", str(truncation)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


# tuple entries a spec file may hold: rationals, floats, complex strings, non-finite values, junk
_ENTRIES = ["1/2", "-1/3", "0", "1", "0.25", "0.3+0.4j", "nan", "inf", "1e400", "1/0", "x"]


def _tuple_spec():
    entry = st.one_of(
        st.sampled_from(_ENTRIES),
        st.integers(-2, 2),
        st.floats(-1.5, 1.5),
        st.sampled_from([float("nan"), float("inf"), None, {}, []]),
    )
    square = st.integers(1, 2).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    matrices = st.one_of(
        st.lists(square, min_size=1, max_size=2),
        st.recursive(entry, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
    )
    # the optional fields, each valid or not: null, a count, a list of the wrong length or of junk
    weight = st.one_of(st.sampled_from(["1/2", "2", "0", "-1/3", "1/0", "x", True, None, 1e400]), st.integers(-1, 3), st.floats(0.1, 4))
    optional = {
        "nilpotency_bound": st.one_of(st.none(), st.integers(-1, 3), st.sampled_from(["x", True, 1.5, 2.0, []])),
        "weights": st.one_of(st.none(), st.lists(weight, max_size=3), st.sampled_from([5, "1/2", {}])),
        "basis_labels": st.one_of(
            st.none(),
            st.lists(st.lists(st.integers(-1, 3), max_size=2), max_size=3),
            st.sampled_from([5, [5], [["0"]], [[True]], [[0.0]]]),
        ),
    }
    return st.fixed_dictionaries(
        {"mode": st.sampled_from(["exact", "float", "bogus"]), "matrices": matrices}, optional=optional
    )


class TestFuzzTupleSpecs:
    @settings(max_examples=40, deadline=None)
    @given(spec=_tuple_spec(), mode=st.sampled_from(["float", "exact"]))
    def test_exit_code_and_no_traceback(self, spec, mode):
        """Generated tuple specs for ``charfn verify`` end in exit 0, 1 or 2, never in a traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tuple.json"
            path.write_text(json.dumps(spec))
            kernel = str(Path(__file__).parent / "specs" / "szego_d1.json")
            argv = ["charfn", "verify", "--kernel", kernel, "--cnp-factor", kernel, "--tuple", str(path)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--mode", mode, "--N", "24", "--degree-cap", "4"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestFuzzCharfnFlags:
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["build", "verify"]),
        preset=st.sampled_from(["jordan", "two_cells", None]),
        d=st.one_of(st.none(), st.integers(-1, 3)),
        model_degree=st.one_of(st.none(), st.integers(-1, 2)),
        degree_cap=st.one_of(st.none(), st.integers(-1, 8)),
        truncation=st.one_of(st.none(), st.integers(-1, 16)),
        tol=st.one_of(st.none(), st.sampled_from(["1e-8", "1e-30", "0.5", "0", "-1", "nan", "inf"])),
        seed=st.one_of(st.none(), st.integers(-2, 3)),
    )
    def test_exit_code_and_no_traceback(self, command, preset, d, model_degree, degree_cap, truncation, tol, seed):
        """Generated ``charfn`` flags end in exit 0, 1 or 2, never in a traceback.

        Without a preset the run builds the model tuple of the Szego kernel in
        d = 1 from ``--d`` and ``--model-degree``. A negative seed, a tolerance
        that is not finite and > 0, and a dimension other than 1 exit 2, and
        so does a preset given with ``--d``, ``--model-degree``,
        ``--degree-cap`` or ``--N``. ``build`` reads neither ``--tol`` nor
        ``--seed`` and exits 2 on either.
        """
        if preset is None:
            kernel = str(Path(__file__).parent / "specs" / "szego_d1.json")
            argv = ["charfn", command, "--kernel", kernel, "--cnp-factor", kernel]
        else:
            argv = ["charfn", command, "--preset", preset]
        for flag, value in (
            ("--d", d), ("--model-degree", model_degree), ("--degree-cap", degree_cap),
            ("--N", truncation), ("--tol", tol), ("--seed", seed),
        ):
            if value is not None:
                argv += [flag, str(value)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if (seed is not None and seed < 0) or tol in ("0", "-1", "nan", "inf"):
            assert code == 2
        if preset is not None and (d, model_degree, degree_cap, truncation) != (None,) * 4:
            assert code == 2
        if preset is None and d != 1:
            assert code == 2
        if command == "build" and (tol, seed) != (None, None):
            assert code == 2


def _written(c: Fraction) -> str:
    """A rational coefficient as a user writes it: an integer plainly, any other as p/q."""
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _product_specs(c, g, d, terms=32):
    """Coefficient specs of k = s g and of s = 1 / (1 - c(t)), with c = c_1 t + c_2 t^2 + ..., ``terms`` coefficients each."""
    s = [Fraction(1)]
    for n in range(1, terms):
        s.append(sum(c[j - 1] * s[n - j] for j in range(1, min(n, len(c)) + 1)))
    k = [sum(g[j] * s[n - j] for j in range(min(n, len(g) - 1) + 1)) for n in range(terms)]
    return [{"kind": "coeffs", "a": [_written(x) for x in series], "d": d} for series in (k, s)]


def _verify_run(tmp, kernel, factor, d, model_degree):
    """(exit code, report or None, stderr) of ``charfn verify`` of ``kernel`` through ``factor`` on its model tuple."""
    paths = [Path(tmp) / "kernel.json", Path(tmp) / "factor.json", Path(tmp) / "report.json"]
    for path, spec in zip(paths, (kernel, factor)):
        path.write_text(json.dumps(spec))
    argv = ["charfn", "verify", "--kernel", str(paths[0]), "--cnp-factor", str(paths[1])]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--d", str(d), "--model-degree", str(model_degree), "--out", str(paths[2])])
    return code, read_report(paths[2]) if code != 2 else None, err.getvalue()


# c_1 > 0 keeps every coefficient of s, and so of k, positive, as a kernel on the ball needs
_LEADING = st.fractions(Fraction(1, 12), 1, max_denominator=12)
_COEFFICIENT = st.one_of(st.just(Fraction(0)), st.fractions(0, 2, max_denominator=12))


class TestKernelsOutsideTheFamilies:
    """Kernels k = s g, s = 1 / (1 - c(t)) with c >= 0 (so b = c) and g >= 0, with their integers written plainly."""

    def test_integer_strings_read_exactly(self, tmp_path):
        """A plain "1" beside "p/q" coefficients is exact: s = 1 / (1 - 3t/8 - t^2/12) through itself passes all 14 checks."""
        _, s = _product_specs([Fraction(3, 8), Fraction(1, 12)], [Fraction(1)], 1)
        assert s["a"][:3] == ["1", "3/8", "43/192"]
        code, report, _ = _verify_run(tmp_path, s, s, 1, 1)
        assert code == 0 and len(report["checks"]) == 14 and all(c["verdict"] == "pass" for c in report["checks"])

    def test_a_failed_lapack_step_exits_two(self, monkeypatch):
        """A LAPACK call that raises ``LinAlgError`` ends the run with exit 2 and numpy's message, no traceback."""

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["charfn", "verify", "--preset", "jordan"])
        assert code == 2 and "error: Eigenvalues did not converge" in err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize(
        "argv, call, phase",
        [
            (["charfn", "verify", "--preset", "jordan"], "eigh", "check purity"),
            (["charfn", "build", "--preset", "jordan"], "eigh", "check purity"),
            (["charfn", "verify", "--preset", "jordan"], "eigvalsh", "check pointwise_gram_identity"),
            (["suite", "--configs", "jordan"], "norm", "check kernel_vector_identity"),
            (["charfn", "verify", "--preset", "jordan"], "svd", "configuration jordan"),
            (["charfn", "build", "--preset", "jordan"], "svd", "configuration jordan"),
            (["suite", "--configs", "jordan"], "svd", "configuration jordan"),
            (["charfn", "verify", "--kernel", "tests/specs/szego_d1.json", "--cnp-factor", "tests/specs/szego_d1.json",
              "--d", "1", "--model-degree", "1"], "svd", "configuration custom_d1_n1"),
        ],
        ids=[
            "verify_purity", "build_purity", "verify_gram", "suite_kernel_vector",
            "verify_configuration", "build_configuration", "suite_configuration", "custom_configuration",
        ],
    )
    def test_a_failed_lapack_step_names_its_check(self, monkeypatch, argv, call, phase):
        """The ``error:`` line keeps numpy's message and names the check whose block raised it, or the
        configuration being built (the first SVD is the commutation check of its model tuple)."""
        monkeypatch.chdir(Path(__file__).resolve().parents[1])

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{call} did not converge")

        monkeypatch.setattr(np.linalg, call, fail)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2 and err.getvalue() == f"error: {call} did not converge (in {phase})\n"

    def test_a_failed_lapack_step_in_the_construction_names_it(self, monkeypatch):
        """In ``charfn build``, a LAPACK failure after purity is named by the construction check."""
        import cnpchar.cli

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cnpchar.cli, "build_charfn", fail)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["charfn", "build", "--preset", "jordan"])
        assert code == 2 and err.getvalue() == "error: SVD did not converge (in check construction_identities)\n"

    def test_a_float_entry_reads_as_the_all_float_spelling(self, tmp_path):
        """s with its second coefficient written "0.375" is a float series: the coefficients and the
        ``charfn verify`` output of s written with every entry a float."""
        _, mixed = _product_specs([Fraction(3, 8), Fraction(1, 12)], [Fraction(1)], 1)
        mixed["a"][1] = "0.375"
        spelled = {**mixed, "a": [repr(float(Fraction(x))) for x in mixed["a"]]}
        kernels = [kernel_from_spec(spec) for spec in (mixed, spelled)]
        assert all(type(c) is float for k in kernels for c in k.coefficients)
        assert [c.hex() for c in kernels[0].coefficients] == [c.hex() for c in kernels[1].coefficients]
        outputs = []
        for spec in (mixed, spelled):
            path = tmp_path / "s.json"
            path.write_text(json.dumps(spec))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["charfn", "verify", "--kernel", str(path), "--cnp-factor", str(path), "--d", "1", "--model-degree", "1"])
            assert code == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1] and outputs[0].count("PASS") == 14

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model_degree", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["float", "mixed"])
    def test_float_specs_take_no_root_of_rounding_noise(self, tmp_path, kind, model_degree):
        """Float and mixed specs through themselves pass all 14 checks, with no RuntimeWarning.

        a_n = 0.3^n, and s = 1 / (1 - 3t/8 - t^2/12) with its second coefficient
        written "0.375": both float b hold rounding noise where the exact b is
        zero, which a coefficient at most the factorization's tolerance keeps
        out of the row and E labels.
        """
        if kind == "float":
            spec = {"kind": "coeffs", "a": [0.3**n for n in range(32)], "d": 1}
        else:
            _, spec = _product_specs([Fraction(3, 8), Fraction(1, 12)], [Fraction(1)], 1)
            spec["a"][1] = "0.375"
        code, report, _ = _verify_run(tmp_path, spec, spec, 1, model_degree)
        assert code == 0 and len(report["checks"]) == 14 and all(c["verdict"] == "pass" for c in report["checks"])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        c=st.builds(lambda first, rest: [first] + rest, _LEADING, st.lists(_COEFFICIENT, max_size=2)).filter(lambda c: sum(c) <= 1),
        g=st.lists(_COEFFICIENT, max_size=3),
        d=st.sampled_from([1, 2]),
        model_degree=st.integers(1, 3),
    )
    def test_every_product_kernel_passes_or_exits_two(self, c, g, d, model_degree):
        """Each kernel passes all 14 checks, or exits 2 with an ``error:`` line and no traceback."""
        kernel, factor = _product_specs(c, [Fraction(1)] + g, d)
        with tempfile.TemporaryDirectory() as tmp:
            code, report, err = _verify_run(tmp, kernel, factor, d, model_degree)
        if code == 2:
            assert any(line.startswith("error: ") for line in err.splitlines()) and "Traceback" not in err
        else:
            assert code == 0 and len(report["checks"]) == 14
            assert all(check["verdict"] == "pass" for check in report["checks"])
