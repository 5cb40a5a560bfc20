import contextlib
import io
import json
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
        "flags",
        [
            ["--d", "1", "--model-degree", "-1"],
            ["--d", "1", "--model-degree", "1", "--degree-cap", "40"],
            ["--d", "1", "--model-degree", "1", "--N", "16"],
        ],
        ids=["negative_model_degree", "degree_cap_beyond_truncation", "window_beyond_truncation"],
    )
    def test_bad_model_flags_exit_two(self, specs, flags):
        args = ["charfn", "verify", "--kernel", specs["bergman_m2"], "--cnp-factor", specs["k1"]]
        assert main(args + flags) == 2


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
