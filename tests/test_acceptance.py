"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Desk scale throughout: dimensions d <= 2, model degrees N <= 3, series
truncations <= 50. Exact-mode identities are asserted with no tolerance at
all; float identities at the stated tolerances.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from cnpchar import _linalg
from cnpchar._linalg import Entries, exact_zeros, is_exactly_zero
from cnpchar.charfn import (
    build_charfn,
    build_multiplier,
    coincidence_residual,
    factorization_residual,
    functional_model,
    k_inner_subspace,
    pointwise_identity_residual,
    theta_taylor_at,
)
from cnpchar.dilation import build_dilation, intertwining_residuals, kernel_vector_gap
from cnpchar.operators import (
    OperatorTuple,
    conjugated_sum,
    defect_data,
    model_tuple,
    quadratic_form_certificate,
)
from cnpchar.presets import (
    SUITE_CONFIGS,
    config_rng,
    configuration,
    run_alignment_check,
    run_coincidence_checks,
    sample_points,
)
from cnpchar.series import (
    bergman_kernel,
    cauchy_product,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    is_complete_pick,
    reciprocal_complement,
    szego_kernel,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:>2}: PASS - {description}")


@pytest.fixture(scope="module")
def matrix():
    """Every float configuration of the verification matrix, fully built."""
    bundles = {}
    for name in SUITE_CONFIGS:
        config = configuration(name)
        dd = defect_data(config.ops, config.kernel, config.pick_factor)
        cfd = build_charfn(
            dd, config.factorization, support_cap=config.support_cap, constant_cap=config.constant_cap
        )
        dil = build_dilation(dd, config.source_degree + cfd.taylor.max_degree)
        mult = build_multiplier(cfd, dil, config.source_degree)
        bundles[name] = (config, dd, cfd, dil, mult)
    return bundles


def test_criterion_01_bergman_b_closed_form():
    with criterion(1, "b-series of the power kernels matches (-1)^(n+1) binom(m, n) exactly"):
        for m in range(1, 7):
            b = reciprocal_complement(bergman_kernel(m, 1, 20))
            for n in range(1, 21):
                expected = (-1) ** (n + 1) * math.comb(m, n) if n <= m else 0
                assert b.coefficients[n] == expected, (m, n)


def test_criterion_02_complete_pick_verdicts():
    with criterion(2, "CNP certificates: DA at N=200, power kernels fail at n=2, Dirichlet at N=50"):
        assert is_complete_pick(drury_arveson_kernel(1, 200)).holds
        for m in range(2, 7):
            cert = is_complete_pick(bergman_kernel(m, 1, 20))
            assert not cert.holds and cert.first_negative == 2
        cert = is_complete_pick(dirichlet_kernel(1, 50))
        assert cert.holds and cert.tolerance == 0.0


def _exact_model_grid():
    for m in (1, 2, 3):
        for d in (1, 2):
            for degree_cut in (1, 2, 3):
                k = bergman_kernel(m, d, 12)
                yield k, model_tuple(k, d, degree_cut, mode="exact")


def test_criterion_03_defect_is_constants_projection():
    with criterion(3, "I - b-weighted sum equals the constants projection, exact rationals"):
        for k, t in _exact_model_grid():
            b = reciprocal_complement(k)
            total, exact_stop = conjugated_sum(t, b)
            assert exact_stop
            gap = t.identity() - total
            expected = exact_zeros((t.size, t.size))
            expected[0, 0] = Fraction(1)
            assert all(x == y for x, y in zip(gap.flat, expected.flat))


def test_criterion_04_purity_exact():
    with criterion(4, "a-weighted conjugation of the squared defect is the identity, exact"):
        for k, t in _exact_model_grid():
            dd = defect_data(t, k)
            assert dd.purity_exact and dd.purity_residual == 0.0


def test_criterion_05_dilation_identities(matrix):
    with criterion(5, "dilation isometry, intertwining, and kernel-vector identity at 1e-10"):
        for name, (config, dd, cfd, dil, mult) in matrix.items():
            assert dil.isometry_residual <= 1e-10, name
            assert max(intertwining_residuals(dil)) <= 1e-10, name
            rng = config_rng(202, name)
            for point in sample_points(rng, 20, config.dim, config.sample_scale):
                fiber = rng.standard_normal(dil.fiber_dim)
                fiber /= np.linalg.norm(fiber)
                vec = dil.window.kernel_vector(point, fiber)
                lhs = np.asarray(dil.matrix, dtype=complex).conj().T @ vec
                rhs, gap = kernel_vector_gap(dil, point, fiber)
                assert gap <= 1e-10 and np.linalg.norm(lhs - rhs) <= 1e-10, name


def test_criterion_06_embedding_gram_exact():
    with criterion(6, "g-weighted conjugation equals the squared pick defect, exact rationals"):
        da1 = drury_arveson_kernel(1, 16)
        da2 = drury_arveson_kernel(2, 16)
        cases = [
            (bergman_kernel(2, 1, 16), da1),
            (bergman_kernel(2, 2, 16), da2),
            (cauchy_product(da1, dirichlet_kernel(1, 16)), da1),
            (cauchy_product(da2, dirichlet_kernel(2, 16)), da2),
        ]
        for k, s in cases:
            fac = factor_through_pick(k, s)
            for degree_cut in (1, 2):
                t = model_tuple(k, k.dim, degree_cut, mode="exact")
                dd = defect_data(t, k, pick_factor=s)
                lhs, exact_stop = conjugated_sum(t, fac.positive_part, middle=dd.defect_sq)
                assert exact_stop
                assert is_exactly_zero(lhs - dd.pick_defect_sq)


def test_criterion_07_block_unitarity(matrix):
    with criterion(7, "the three block relations of the colligation at 1e-9"):
        for name, (config, dd, cfd, dil, mult) in matrix.items():
            for key in ("block_relation_row", "block_relation_cross", "block_relation_e"):
                assert cfd.diagnostics[key] <= 1e-9, (name, key)


def test_criterion_08_pointwise_identity(matrix):
    with criterion(8, "pointwise Gram identity at 1e-8 (50 pairs) and 1e-12 for the Jordan cell"):
        for name, (config, dd, cfd, dil, mult) in matrix.items():
            rng = config_rng(808, name)
            pairs = list(
                zip(
                    sample_points(rng, 50, config.dim, config.sample_scale),
                    sample_points(rng, 50, config.dim, config.sample_scale),
                )
            )
            assert pointwise_identity_residual(cfd, pairs) <= 1e-8, name
        # Jordan cell against the closed form theta(z) = z^2
        _, _, cfd, _, _ = matrix["jordan"]
        rng = config_rng(808, "jordan-closed-form")
        pairs = list(zip(sample_points(rng, 50, 1), sample_points(rng, 50, 1)))
        assert pointwise_identity_residual(cfd, pairs) <= 1e-12
        for z in sample_points(rng, 20, 1):
            value = complex(theta_taylor_at(cfd, z)[0, 0])
            assert abs(value - complex(z[0]) ** 2) <= 1e-12


def test_criterion_09_projection_partition(matrix):
    with criterion(9, "V V* + M M* = I restricted residual at 1e-8; exact 0 for the Jordan cell"):
        for name, (config, dd, cfd, dil, mult) in matrix.items():
            fr = factorization_residual(cfd, dil, mult)
            assert fr.restricted <= 1e-8, (name, fr.restricted)
        # rational cross-check of the squared projections
        k = szego_kernel(1, 24)
        t = model_tuple(k, 1, 1, mode="exact")
        t = OperatorTuple(t.mats, None, t.basis_labels, t.nilpotency_bound, t.kernel)
        fac = factor_through_pick(k, k)
        dd = defect_data(t, k, k)
        cfd = build_charfn(dd, fac, support_cap=4, constant_cap=4)
        dil = build_dilation(dd, 5)
        for floor in (math.inf, 0):  # the Gram as the dense array, then as slot entries
            with mock.patch.object(_linalg, "SLOT_POSITIONS", floor):
                mult = build_multiplier(cfd, dil, 3)
            assert isinstance(mult.gram, Entries) == (floor == 0)
            assert factorization_residual(cfd, dil, mult).restricted_exact
            gram = mult.gram.matrix if isinstance(mult.gram, Entries) else mult.gram
            assert is_exactly_zero(dil.matrix @ dil.matrix.conj().T + gram - dil.window.scalars.eye(dil.window.dim))


def test_criterion_10_impossibility_sweep():
    with criterion(10, "closed form 1 - n(N+2)/(N+m+1) equals the matrix form; violations located"):
        for m in range(1, 5):
            kernel = bergman_kernel(m, 1, 26)
            for n in range(1, 5):
                form = bergman_kernel(n, 1, 26)
                for base in range(0, 21):
                    value = quadratic_form_certificate(
                        kernel, form, base, [((base + 2),)], window_degree=base + 2
                    )[0]
                    closed = Fraction(1) - Fraction(n * (base + 2), base + m + 1)
                    assert value == closed, (m, n, base)
        # first violation for (m, n) = (2, 2) at N = 0
        value = quadratic_form_certificate(
            bergman_kernel(2, 1, 26), bergman_kernel(2, 1, 26), 0, [(2,)], window_degree=2
        )[0]
        assert value == Fraction(-1, 3)
        # no violation for n = 1 up to N = 50
        da = bergman_kernel(1, 1, 56)
        for m in range(1, 5):
            kernel = bergman_kernel(m, 1, 56)
            for base in range(0, 51):
                value = quadratic_form_certificate(
                    kernel, da, base, [((base + 2),)], window_degree=base + 2
                )[0]
                assert value >= 0, (m, base)


def test_criterion_11_k_inner_space(matrix):
    with criterion(11, "isometric constant subspace nonempty; shift orthogonality at 1e-9"):
        for name, (config, dd, cfd, dil, mult) in matrix.items():
            ki = k_inner_subspace(cfd)
            assert ki.dim >= 1, name
            assert ki.shift_residual <= 1e-9, name


def test_criterion_12_functional_model_and_coincidence(matrix):
    with criterion(12, "functional model at 1e-9; coincidence for conjugates, not across structures"):
        for name, (config, dd, cfd, dil, mult) in matrix.items():
            _, equality = functional_model(cfd, dil, factorization_residual(cfd, dil, mult))
            assert equality <= 1e-9, name
            assert max(intertwining_residuals(dil)) <= 1e-9, name
        results = {c.name: c for c in run_coincidence_checks(seed=0)}
        conj = results["coincidence_conjugated"]
        assert conj.verdict == "pass" and conj.residual <= 1e-6
        distinct = results["coincidence_distinct"]
        assert distinct.residual >= 1e-3


def test_criterion_13_alignment():
    with criterion(13, "Gram alignment of the two CNP factorizations at 1e-8, 30 samples"):
        check = run_alignment_check()
        assert check.verdict == "pass"
        assert check.residual <= 1e-8
