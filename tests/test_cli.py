import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpchar.cli import REPORT_SCHEMA, main


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    for name, spec in {
        "bergman_m2": {"kind": "bergman", "m": 2, "d": 1, "truncation": 32},
        "k1": {"kind": "bergman", "m": 1, "d": 1, "truncation": 32},
        "k3": {"kind": "bergman", "m": 3, "d": 1, "truncation": 32},
        "dirichlet": {"kind": "dirichlet", "d": 1, "truncation": 50},
        "szego": {"kind": "szego", "d": 1, "truncation": 32},
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
            (["--d", "2", "--model-degree", "1"], "--d is 2, the kernel dimension is 1"),
            (["--d", "0", "--model-degree", "0"], "--d must be >= 1"),
        ],
        ids=["negative_model_degree", "degree_cap_beyond_truncation", "window_beyond_truncation",
             "model_degree_beyond_truncation", "dimension_other_than_the_kernel", "zero_dimension"],
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
            (["--tuple", str(Path(__file__).parent / "specs" / "scalar_half.json")], ["--model-degree", "2"]),
        ],
        ids=["preset_truncation_and_dimension", "preset_degree_cap", "tuple_model_degree"],
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
        [["--seed", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--tol", "0"]],
        ids=["negative_seed", "nan_tol", "inf_tol", "negative_tol", "zero_tol"],
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
        ],
        ids=["impossibility", "info_tol", "info_seed", "cnp", "quotient", "factor"],
    )
    def test_seed_and_tol_where_unused_exit_two(self, argv, flags, capsys):
        assert main(argv + flags) == 2
        named = [f for f in flags if f.startswith("--")]
        source = " ".join(argv[:2]) if argv[0] == "kernel" else argv[0]
        assert f"{', '.join(named)} cannot be combined with {source}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["suite", "--configs", "jordan"], ["impossibility", "--m", "2", "--n", "2", "--N-max", "2"]],
        ids=["suite", "impossibility"],
    )
    def test_truncation_where_unused_exits_two(self, argv, capsys):
        assert main(argv + ["--N", "5"]) == 2
        assert f"--N cannot be combined with {argv[0]}" in capsys.readouterr().err


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


def test_cli_import_leaves_scipy_unloaded():
    """Importing the command line loads no scipy module, whose import alone outweighs a small run."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, cnpchar.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        ``--degree-cap`` or ``--N``.
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
