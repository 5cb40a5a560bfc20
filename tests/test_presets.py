"""The configuration checks: what each computes once, and how a failed partition is reported."""

import json
from dataclasses import replace

import numpy as np
import pytest

from cnpchar import charfn, presets, series
from cnpchar.cli import main
from cnpchar.dilation import MonomialWindow
from cnpchar.operators import OperatorTuple


@pytest.fixture(scope="module")
def config():
    return presets.configuration("k2_da_d1_n1")


def _checks(results):
    return {c.name: c for c in results}


def test_partition_computed_once(config, monkeypatch):
    calls = []
    real = charfn.factorization_residual

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(presets, "factorization_residual", counted)
    monkeypatch.setattr(charfn, "factorization_residual", counted)
    results = _checks(presets.run_configuration_checks(config)[0])
    assert len(calls) == 1
    assert results["multiplier_contraction"].verdict == "pass"
    assert results["functional_model"].verdict == "pass"


def test_kernel_vector_once_per_sample(config, monkeypatch):
    calls = []
    real = MonomialWindow.kernel_vector

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(MonomialWindow, "kernel_vector", counted)
    presets.run_configuration_checks(config)
    # one batched call whose stack holds each of the samples once
    assert len(calls) == 1
    points, fibers = calls[0]
    assert len(points) == len(fibers) == presets.POINT_COUNT


@pytest.mark.parametrize("name", ["k2_da_d1_n1", "k2_da_d2_n2_c", "two_cells"])
def test_one_window_per_configuration(name, monkeypatch):
    """The dilation's window is the multiplier's target too: one MonomialWindow per run."""
    built = []
    real = MonomialWindow.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(MonomialWindow, "__init__", counted)
    results = presets.run_configuration_checks(presets.configuration(name))[0]
    assert all(c.verdict == "pass" for c in results)
    assert len(built) == 1


def test_theta_cross_check_reports_its_gap(config):
    check = _checks(presets.run_configuration_checks(config)[0])["theta_taylor_cross_check"]
    assert check.verdict == "pass"
    assert 0.0 < check.residual <= presets.TOL_SINGLE


def test_failed_partition_is_a_failed_check(tmp_path, monkeypatch):
    real = charfn.factorization_residual

    def broken(*args):
        return replace(real(*args), restricted=1e-3)

    monkeypatch.setattr(presets, "factorization_residual", broken)
    monkeypatch.setattr(charfn, "factorization_residual", broken)
    out = tmp_path / "report.json"
    assert main(["charfn", "verify", "--preset", "k2_da_d1_n1", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["projection_partition"]["verdict"] == "fail"
    assert checks["functional_model"]["verdict"] == "fail"
    assert checks["functional_model"]["residual"] == 1e-3


def test_one_factorization_per_kernel_pair(monkeypatch):
    """The suite's 18 configurations, alignment and coincidence share 8 factorizations, each checked once."""
    calls, checked = [], []
    real_factor, real_check = presets.factor_through_pick, series.KernelFactorization.__post_init__

    def counted(k, s, *args):
        calls.append((k, s))
        return real_factor(k, s, *args)

    def counted_check(self):
        checked.append(self)
        real_check(self)

    presets._factorization.cache_clear()
    monkeypatch.setattr(presets, "factor_through_pick", counted)
    monkeypatch.setattr(series.KernelFactorization, "__post_init__", counted_check)
    for name in presets.SUITE_CONFIGS:
        presets.configuration(name)
    presets.run_alignment_check()
    presets.run_coincidence_checks()
    assert len(calls) == 8
    assert len({(id(k), id(s)) for k, s in calls}) == 8
    assert len(checked) == 8


def test_configurations_of_one_pair_share_the_factorization():
    assert presets.configuration("k2_da_d1_n1").factorization is presets.configuration("k2_da_d1_n3").factorization


def _sample_points_reference(rng, count, dim, scale):
    """The per-point loop: two normal draws, np.linalg.norm and the scaling, one point at a time."""
    pts = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pts.append(v / np.linalg.norm(v) * scale * rng.uniform(0.3, 1.0))
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sample_points_match_the_per_point_loop_bitwise(dim):
    """The stacked scaling draws the same stream and gives the per-point loop's points bit for bit."""
    for seed in range(20):
        for count in (0, 1, 20, 50):
            got = presets.sample_points(presets.config_rng(seed, "points"), count, dim, 0.4)
            expected = _sample_points_reference(presets.config_rng(seed, "points"), count, dim, 0.4)
            assert len(got) == count
            assert all(p.shape == (dim,) and p.tobytes() == q.tobytes() for p, q in zip(got, expected))


# name -> (support_cap, constant_cap, source_degree, sample_scale, dim). The model rows are the windows the
# suite has always used; the Szego presets read the same rule, so their constant window is the deep one.
WINDOWS = {
    "jordan": (4, 16, 3, 0.5, 1),
    "two_cells": (4, 16, 3, 0.5, 1),
    "nonpure": (12, 16, 11, 0.5, 1),
    "k2_da_d1_n1": (4, 16, 3, 0.48, 1),
    "k2_da_d1_n2": (5, 16, 4, 0.48, 1),
    "k2_da_d1_n3": (6, 16, 5, 0.48, 1),
    "k2_da_d2_n1": (4, 14, 3, 0.45, 2),
    "k2_da_d2_n2": (5, 14, 4, 0.45, 2),
    "k2_da_d2_n3": (6, 14, 5, 0.45, 2),
    "k3_da_d1_n1": (4, 16, 3, 0.48, 1),
    "k3_da_d1_n2": (5, 16, 4, 0.48, 1),
    "k3_da_d2_n1": (4, 14, 3, 0.45, 2),
    "dadir_da_d1_n2": (5, 16, 4, 0.48, 1),
    "dadir_da_d2_n1": (4, 14, 3, 0.45, 2),
    "dadir_dir_d1_n1": (16, 16, 3, 0.48, 1),
    "k2_da_d1_n3_c": (6, 16, 5, 0.48, 1),
    "k2_da_d2_n2_c": (5, 14, 4, 0.45, 2),
    "k3_da_d1_n2_c": (5, 16, 4, 0.48, 1),
    "dadir_da_d1_n2_c": (5, 16, 4, 0.48, 1),
}


def _windows(config):
    return config.support_cap, config.constant_cap, config.source_degree, config.sample_scale, config.dim


def test_window_table_names_every_configuration():
    assert tuple(WINDOWS) == presets.CONFIG_NAMES


@pytest.mark.parametrize("name", presets.CONFIG_NAMES)
def test_windows_of_each_configuration(name):
    assert _windows(presets.configuration(name)) == WINDOWS[name]


@pytest.mark.parametrize("name", ["jordan", "k2_da_d2_n2", "dadir_dir_d1_n1"])
def test_degree_cap_replaces_both_caps(name):
    config = replace(presets.configuration(name), degree_cap=7)
    assert _windows(config) == (7, 7) + WINDOWS[name][2:]


def test_boundless_tuple_is_sized_at_the_assumed_degree():
    fac = presets._factorization("szego", "szego", 1)
    t = OperatorTuple((np.array([[0.5]]),))
    config = presets.Configuration("scalar_half", fac, t)
    assert presets.ASSUMED_DEGREE == 9
    assert _windows(config) == (12, 16, 11, 0.5, 1)


@pytest.mark.parametrize("name", ["two_cells", "k2_da_d2_n2_c"])
@pytest.mark.parametrize("degree_cap", [None, 6])
def test_new_tuple_keeps_the_cap_and_the_rule(name, degree_cap):
    """``replace(config, ops=...)``, as the command line does for another arithmetic, reruns the one rule."""
    config = replace(presets.configuration(name), degree_cap=degree_cap)
    moved = replace(config, ops=replace(config.ops))
    assert moved.ops is not config.ops
    assert moved.degree_cap == degree_cap
    assert _windows(moved) == _windows(config)
    assert _windows(moved)[2:] == WINDOWS[name][2:]


@pytest.mark.parametrize("degree_cap", [0, 49])
def test_cap_outside_the_truncation_raises(degree_cap):
    with pytest.raises(ValueError, match=f"degree caps {degree_cap}, {degree_cap} outside 1..48, the series truncation"):
        replace(presets.configuration("jordan"), degree_cap=degree_cap)
