import dataclasses
import functools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from cnpchar import _linalg, charfn
from cnpchar._linalg import (
    Entries,
    adjoint,
    connected_blocks,
    is_exactly_zero,
    max_abs,
    point_stack,
    polar_orthogonal,
    to_float_array,
)
from cnpchar.charfn import (
    CharFnBuildError,
    EmptyKInnerError,
    TaylorCoefficients,
    align_factorizations,
    build_charfn,
    build_multiplier,
    coincidence_residual,
    evaluation_gap,
    factorization_residual,
    functional_model,
    inverse_identity_residual,
    k_inner_subspace,
    pointwise_identity_residual,
    row_symbol_margin,
    theta_taylor_at,
)
from cnpchar.dilation import MonomialWindow, build_dilation, intertwining_residuals
from cnpchar.multiindex import BlockSpace, add, degree, enumerate_up_to_degree, graded_space
from cnpchar.operators import (
    NotContractionError,
    NotPureError,
    OperatorTuple,
    defect_data,
    model_tuple,
    random_coinvariant_compression,
)
from cnpchar.presets import SUITE_CONFIGS, config_rng, configuration, run_configuration_checks
from cnpchar.series import (
    KernelSeries,
    RealSeries,
    bergman_kernel,
    cauchy_product,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    reciprocal_complement,
    szego_kernel,
)


def _forms_of_sums(build):
    """(``build()``, the form of each ordered sum it ran, in call order: True for slot entries, False for dense)."""
    forms, ordered_sum = [], _linalg.ordered_sum

    def recorded(*args):
        out = ordered_sum(*args)
        forms.append(isinstance(out, Entries))
        return out

    with mock.patch.object(_linalg, "ordered_sum", recorded), mock.patch.object(charfn, "ordered_sum", recorded):
        return build(), forms


def charfn_of(t, fac, **caps):
    """The characteristic function of t built from its own defect data."""
    return build_charfn(defect_data(t, fac.kernel, fac.pick_factor), fac, **caps)


def multiplier_on(cfd, target_degree):
    """(M_theta into the window of the dilation at ``target_degree``, that dilation): source degree target - top."""
    dil = build_dilation(cfd.defect, target_degree)
    return build_multiplier(cfd, dil), dil


def sample_points(rng, count, dim, scale=0.5):
    out = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(v / np.linalg.norm(v) * scale * rng.uniform(0.3, 1.0))
    return out


@pytest.fixture(scope="module")
def jordan_exact():
    """The 2x2 nilpotent Jordan cell over the Hardy-space kernel, exact scalars."""
    k = szego_kernel(1, 24)
    t = model_tuple(k, 1, 1, mode="exact")
    t = OperatorTuple(t.mats, None, t.nilpotency_bound)
    fac = factor_through_pick(k, k)
    return charfn_of(t, fac, support_cap=4, constant_cap=4), t, k, fac


@pytest.fixture(scope="module")
def k2_da():
    k = bergman_kernel(2, 1, 48)
    s = drury_arveson_kernel(1, 48)
    fac = factor_through_pick(k, s)
    t = model_tuple(k, 1, 2, mode="float")
    cfd = charfn_of(t, fac, support_cap=5, constant_cap=14)
    return cfd, t, k, fac


class TestJordanCell:
    def test_theta_is_z_squared(self, jordan_exact):
        cfd, _, _, _ = jordan_exact
        assert set(cfd.taylor) == {(2,)}
        assert cfd.taylor[(2,)][0][0] == 1
        assert cfd.fiber_dim == 1 and cfd.domain_dim == 1

    def test_matches_classical_defect_formula(self, jordan_exact):
        """Cross-oracle: the one-variable formula -T + z D_{T*} (I - z T*)^{-1} D_T
        restricted to the defect spaces gives exactly z^2 for the Jordan cell."""
        cfd, t, _, _ = jordan_exact
        mat = to_float_array(t.mats[0])
        d_t = np.diag([0.0, 1.0])  # (I - T*T)^(1/2)
        d_t_star = np.diag([1.0, 0.0])  # (I - TT*)^(1/2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)) / 2
            classical = -mat + z * d_t_star @ np.linalg.inv(np.eye(2) - z * mat.conj().T) @ d_t
            # restrict to the one-dimensional defect spaces: e_1 -> e_0 entry
            value = classical[0, 1]
            ours = complex(theta_taylor_at(cfd, [z])[0, 0])
            assert abs(value - z**2) < 1e-14
            assert abs(ours - z**2) < 1e-14

    def test_outer_space_vanishes_for_pick_kernel(self, jordan_exact):
        cfd, _, _, _ = jordan_exact
        assert cfd.complement_basis.shape[1] == 0
        assert max_abs(np.asarray(cfd.d_block.matrix, dtype=float)) == 0

    def test_block_identities_exact(self, jordan_exact):
        cfd, _, _, _ = jordan_exact
        for name in (
            "embedding_gram_residual",
            "block_relation_row",
            "block_relation_cross",
            "block_relation_e",
            "unitary_gram",
            "unitary_cogram",
        ):
            assert cfd.diagnostics[name] == 0.0

    def test_evaluation_at_rational_point(self, jordan_exact):
        cfd, _, _, _ = jordan_exact
        value, gap = evaluation_gap(cfd, [Fraction(1, 2)])
        assert gap == 0.0
        assert value[0][0] == Fraction(1, 4)
        assert all(isinstance(x, Fraction) for x in np.asarray(value).flat)

    def test_pointwise_identity_closed_form(self, jordan_exact):
        """With theta = z^2 and k = s the Hardy kernel, the identity reduces to
        (z w̄)^2 / (1 - z w̄) = 1/(1 - z w̄) - (1 + z w̄); checked at 50 pairs."""
        cfd, _, _, _ = jordan_exact
        rng = np.random.default_rng(3)
        pairs = list(zip(sample_points(rng, 50, 1), sample_points(rng, 50, 1)))
        assert pointwise_identity_residual(cfd, pairs) < 1e-12

    def test_multiplier_is_double_shift(self, jordan_exact):
        cfd, _, _, _ = jordan_exact
        mult, _ = multiplier_on(cfd, 5)
        m = np.asarray(mult.matrix, dtype=float)
        expected = np.zeros((6, 4))
        for j in range(4):
            expected[j + 2, j] = 1.0
        assert np.array_equal(m, expected)

    def test_projection_partition_exact(self, jordan_exact):
        cfd, t, k, _ = jordan_exact
        mult, dil = multiplier_on(cfd, 5)
        fr = factorization_residual(cfd, dil, mult)
        assert fr.restricted_exact and fr.restricted == 0.0
        # on the whole window too: the double shift loses no mass
        total = dil.matrix @ dil.matrix.conj().T + _gram_matrix(mult) - dil.window.scalars.eye(dil.window.dim)
        assert is_exactly_zero(total)

    def test_k_inner_full_space(self, jordan_exact):
        cfd, _, _, _ = jordan_exact
        ki = k_inner_subspace(cfd)
        assert ki.dim == 1
        assert ki.shift_residual == 0.0

    def test_functional_model_is_the_cell(self, jordan_exact):
        cfd, t, k, _ = jordan_exact
        mult, dil = multiplier_on(cfd, 5)
        model, equality = functional_model(cfd, dil, factorization_residual(cfd, dil, mult))
        assert equality < 1e-14
        assert max(intertwining_residuals(dil)) < 1e-14
        assert max_abs(model.mats[0] - to_float_array(t.mats[0])) < 1e-14


class TestDegenerateCase:
    def test_pick_kernel_equal_to_kernel_collapses_e(self):
        """k = s forces g = (1, 0, ...), a single copy of the defect range in E
        and no outer summand."""
        k = drury_arveson_kernel(2, 24)
        fac = factor_through_pick(k, k)
        t = model_tuple(k, 2, 2, mode="float")
        cfd = charfn_of(t, fac, support_cap=5, constant_cap=5)
        assert [lab for lab in cfd.g_support.labels] == [(0, 0)]
        assert cfd.complement_basis.shape[1] == 0
        assert cfd.g_support.dim == cfd.fiber_dim


class TestBuildDiagnostics:
    def test_block_relations_small(self, k2_da):
        cfd, _, _, _ = k2_da
        for name in (
            "embedding_gram_residual",
            "range_unitary_residual",
            "row_defect_intertwining",
            "row_gram_vs_pick_defect",
            "block_relation_row",
            "block_relation_cross",
            "block_relation_e",
            "unitary_gram",
            "unitary_cogram",
        ):
            assert cfd.diagnostics[name] < 1e-10, name

    @pytest.mark.parametrize("name", ["wide", "k2_da_d2_n2_c", "dadir_dir_d1_n1", "two_cells", "two_cells_exact"])
    def test_slot_grams_give_the_dense_bits(self, name):
        """The block-unitarity norms and the k-inner space read from slot entries equal the dense path's, bit for bit.

        Every sum is dense under an infinite position floor; with none, each
        takes slots when they are smaller, and some sum does.
        """
        def build():
            cfd = _wide_charfn.__wrapped__() if name == "wide" else _preset_charfn(name)
            return cfd, k_inner_subspace(cfd)

        runs = []
        for floor in (math.inf, 0):
            with mock.patch.object(_linalg, "SLOT_POSITIONS", floor):
                (cfd, ki), forms = _forms_of_sums(build)
            assert forms and any(forms) == (floor == 0)
            runs.append((cfd.diagnostics, ki.basis.tobytes(order="A"), ki.gram_eigenvalues.tobytes(), ki.shift_residual))
        assert runs[0] == runs[1]

    def test_sums_take_the_form_of_their_size(self):
        """Suite builds keep every sparse sum dense; wide's five products and its multiplier Gram take slot
        entries, and its D and theta hold only their nonzero entries; the dense stack's multiplier Gram stays dense."""
        for name in ("k2_da_d2_n3", "dadir_da_d1_n2_c"):
            cfd, forms = _forms_of_sums(lambda: _preset_charfn(name))
            _, more = _forms_of_sums(lambda: k_inner_subspace(cfd))
            assert more and not any(forms + more), name

        def wide():
            cfd = _wide_charfn.__wrapped__()
            k_inner_subspace(cfd)
            return cfd, multiplier_on(cfd, 3 + cfd.taylor.max_degree)[0]

        (cfd, mult), forms = _forms_of_sums(wide)
        assert forms == [True] * 6 and mult.gram.shape == (816, 816)
        assert (cfd.d_block.shape, len(cfd.d_block.values)) == ((455, 463), 454)
        assert (cfd.taylor.entries.shape, len(cfd.taylor.entries.values)) == ((454, 463), 463)
        cfd = _dense_stack_charfn()
        mult, forms = _forms_of_sums(lambda: multiplier_on(cfd, 4 + cfd.taylor.max_degree)[0])
        assert forms == [False] and isinstance(mult.gram, np.ndarray)
        assert len(cfd.taylor.entries.values) == np.count_nonzero(cfd.taylor.coefficients)

    def test_wide_build_forms_no_dense_d(self):
        """On wide, build_charfn's traced peak and the CharFnData it returns stay below the bytes of one dense
        455 x 463 float D, and evaluation_gap's traced peak below D's complex cast."""
        k, s = bergman_kernel(2, 3, 32), drury_arveson_kernel(3, 32)
        fac = factor_through_pick(k, s)
        dd = defect_data(model_tuple(k, 3, 1, mode="float"), k, s)
        points = sample_points(np.random.default_rng(0), 5, 3)
        tracemalloc.start()
        try:
            cfd = build_charfn(dd, fac, support_cap=12, constant_cap=12)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            evaluation_gap(cfd, points)
            gap_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        dense_d = 8 * 455 * 463
        assert (cfd.g_support.dim, cfd.domain_dim) == (455, 463)
        assert peak < dense_d and held < dense_d
        assert gap_peak < 2 * dense_d

    @pytest.mark.parametrize("name", ["wide", "k2_da_d2_n2", "two_cells_exact", "dadir_dir_d1_n1"])
    def test_e_space_shares_the_graded_tables_when_g_has_no_zero(self, name):
        cfd = _wide_charfn() if name == "wide" else _preset_charfn(name)
        g = cfd.factorization.positive_part
        graded = graded_space(cfd.ops.num_vars, cfd.constant_cap)
        full = all(g.coeff_1d(k) != 0 for k in range(cfd.constant_cap + 1))
        assert list(cfd.g_support.labels) == _supports_reference(cfd)[1]
        assert cfd.g_support.block_dim == cfd.fiber_dim
        assert (cfd.g_support.index is graded.index and cfd.g_support.degrees is graded.degrees) == full
        assert full == (name != "two_cells_exact")  # g = 1 through Szego

    def test_rejects_impure(self):
        k = szego_kernel(1, 24)
        fac = factor_through_pick(k, k)
        t = OperatorTuple((np.array([[1.0]]),))
        dd = defect_data(t, k, k)  # the defects exist; only purity fails
        with pytest.raises(NotPureError):
            build_charfn(dd, fac, support_cap=4, constant_cap=4)

    def test_row_contraction_failure_detected(self):
        # a non-contraction cannot be a 1/s-contraction either: defect_data
        # rejects it, so build_charfn never reaches the row construction
        k = szego_kernel(1, 24)
        t = OperatorTuple((np.array([[1.5]]),))
        with pytest.raises(NotContractionError):
            defect_data(t, k, k)


def jordan_pair():
    """J2 (+) J3 through the Szego kernel: the defect has rank 2 and a repeated eigenvalue."""
    k = szego_kernel(1, 48)
    mat = np.zeros((5, 5))
    mat[1, 0] = mat[3, 2] = mat[4, 3] = 1.0
    return OperatorTuple((mat,), None, 2), factor_through_pick(k, k), {"support_cap": 5, "constant_cap": 5}


def preset_inputs(name):
    config = configuration(name)
    caps = {"support_cap": config.support_cap, "constant_cap": config.constant_cap}
    return config.ops, config.factorization, caps


class TestSharedDefectCoordinates:
    """The dilation and theta must use one orthonormal basis of Ran Defect."""

    @pytest.mark.parametrize(
        "inputs", [jordan_pair, lambda: preset_inputs("k2_da_d1_n3_c")], ids=["j2_j3", "k2_da_d1_n3_c"]
    )
    def test_dilation_and_theta_share_ran_defect_basis(self, inputs):
        t, fac, caps = inputs()
        dd = defect_data(t, fac.kernel, fac.pick_factor)
        cfd = build_charfn(dd, fac, **caps)
        dil = build_dilation(dd, cfd.taylor.max_degree + 4)
        assert cfd.defect is dd and dil.defect is dd
        mult = build_multiplier(cfd, dil)
        assert mult.window is dil.window
        assert factorization_residual(cfd, dil, mult).restricted < 1e-12

    @pytest.mark.parametrize("case", ["other_kernel", "other_pick_factor", "no_pick_factor"])
    def test_rejects_defect_data_of_another_factorization(self, two_factorizations, case):
        t, k, cfd1, cfd2 = two_factorizations
        da, dirichlet = cfd1.pick_factor, cfd2.pick_factor
        dd = {
            "other_kernel": lambda: defect_data(t, da, da),
            "other_pick_factor": lambda: defect_data(t, k, dirichlet),
            "no_pick_factor": lambda: defect_data(t, k),
        }[case]()
        with pytest.raises(ValueError, match="defect data"):
            build_charfn(dd, cfd1.factorization, support_cap=14, constant_cap=14)


class TestThetaEvaluation:
    def test_value_at_origin_is_constant_block(self, k2_da):
        cfd, _, _, _ = k2_da
        value = np.asarray(evaluation_gap(cfd, [0.0])[0], dtype=complex)
        expected = cfd.taylor.get((0,))
        if expected is None:
            expected = np.zeros((cfd.fiber_dim, cfd.domain_dim))
        assert max_abs(value - expected) < 1e-14

    def test_outer_columns_carry_only_constant_part(self, k2_da):
        """On the outer summand the weighted-power row is annihilated, so theta
        restricted to those columns is the pure coefficient part."""
        cfd, _, _, _ = k2_da
        p = cfd.row_defect_basis.shape[1]
        rng = np.random.default_rng(5)
        for z in sample_points(rng, 5, 1):
            total = np.asarray(theta_taylor_at(cfd, z), dtype=complex)
            outer = total[:, p:]
            direct = np.zeros_like(outer)
            g = cfd.factorization.positive_part
            for lab in cfd.g_support.labels:
                block = np.asarray(cfd.d_block.matrix, dtype=float)[cfd.g_support.block(lab), p:]
                direct += np.sqrt(float(g.coeff(lab))) * complex(z[0]) ** lab[0] * block
            assert max_abs(outer - direct) < 1e-12

    def test_taylor_cross_check_runs(self, k2_da):
        cfd, _, _, _ = k2_da
        rng = np.random.default_rng(7)
        for z in sample_points(rng, 5, 1):
            assert evaluation_gap(cfd, z)[1] <= 1e-10

    def test_gap_is_the_cross_check_threshold(self, k2_da):
        """evaluation_gap returns the Taylor sum with its rounding-level gap to the direct formula."""
        cfd, _, _, _ = k2_da
        z = sample_points(np.random.default_rng(7), 1, 1)[0]
        taylor_sum, gap = evaluation_gap(cfd, z)
        assert 0.0 < gap <= 1e-10
        assert np.array_equal(taylor_sum, theta_taylor_at(cfd, z))

    @pytest.mark.parametrize("name", ["k2_da_d2_n2_c", "wide", "jordan_exact"])
    def test_taylor_sum_is_the_per_label_sum_bit_for_bit(self, name, request):
        """theta at a stack and at each point alone equals the label-by-label sum, sign bits included (equal Fractions exactly)."""
        if name == "jordan_exact":
            cfd = request.getfixturevalue("jordan_exact")[0]
            points = [[Fraction(1, 3)], [Fraction(-2, 5)], [Fraction(0)], [Fraction(7, 9)]]
        else:
            cfd = _wide_charfn() if name == "wide" else _preset_charfn(name)
            points = sample_points(np.random.default_rng(41), 12, cfd.kernel.dim)
        _, r, dom = cfd.taylor.coefficients.shape
        nonzero = np.count_nonzero(cfd.taylor.coefficients)
        if name == "k2_da_d2_n2_c":  # several parts of r x dom entries, and slots with many labels each
            per_slot = np.count_nonzero(cfd.taylor.coefficients, axis=0)
            assert (nonzero, np.count_nonzero(per_slot), per_slot.max()) == (205, 124, 10) and nonzero > r * dom
        want = _theta_reference(cfd, points)
        got = theta_taylor_at(cfd, points)
        assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
        singles = np.stack([theta_taylor_at(cfd, z) for z in points])
        for value in (got, singles):
            if cfd.exact:
                assert all(type(x) is type(y) and x == y for x, y in zip(value.flat, want.flat))
            else:
                assert value.tobytes() == want.tobytes()

    def test_cap_stability(self):
        """Taylor coefficients do not move when the windows grow; new domain
        columns attached by a larger window are zero at retained degrees."""
        k = cauchy_product(drury_arveson_kernel(1, 48), dirichlet_kernel(1, 48))
        s = drury_arveson_kernel(1, 48)
        fac = factor_through_pick(k, s)
        t = model_tuple(k, 1, 2, mode="float")
        small = charfn_of(t, fac, support_cap=6, constant_cap=8)
        large = charfn_of(t, fac, support_cap=8, constant_cap=12)
        dom_small = small.domain_dim
        for gamma, coeff in small.taylor.items():
            bigger = large.taylor[gamma]
            assert max_abs(np.asarray(bigger)[:, :dom_small] - np.asarray(coeff)) < 1e-12
            assert max_abs(np.asarray(bigger)[:, dom_small:]) < 1e-12


def _theta_reference(cfd, points):
    """theta as a label-by-label sum: at each point, the nonzero coefficients in ascending label order, from zero."""
    pts = point_stack(points)[0]
    sp = cfd.taylor.scalars.at(pts)
    monomials = sp.monomial(cfd.taylor.space.monomials(pts))
    coeffs = cfd.taylor.coefficients
    out = sp.zeros((len(pts), *coeffs.shape[1:]), complex)
    for label, coeff in enumerate(coeffs):
        rows, cols = np.nonzero(coeff)
        out[:, rows, cols] += monomials[:, label, None] * sp.array(coeff[rows, cols])
    return out


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__",
)


class TestFloatPaths:
    def test_complex_points_lift_no_exact_coefficient(self, monkeypatch):
        """After theta, the dilation and the multiplier are built, no evaluation
        at complex points lifts an exact coefficient or does Fraction arithmetic.

        dadir_da_d1_n2 has non-dyadic coefficients (Dirichlet and harmonic
        numbers), so a float lift that went through Fraction would show."""
        config = configuration("dadir_da_d1_n2")
        dd = defect_data(config.ops, config.kernel, config.pick_factor)
        cfd = build_charfn(
            dd, config.factorization, support_cap=config.support_cap, constant_cap=config.constant_cap
        )
        dil = build_dilation(dd, config.source_degree + cfd.taylor.max_degree)
        build_multiplier(cfd, dil)

        lift = RealSeries.coeff

        def float_only(series, alpha):
            assert not series.exact, f"exact lift at {alpha}"
            return lift(series, alpha)

        def refuse(*args):
            raise AssertionError("Fraction arithmetic on a float path")

        monkeypatch.setattr(RealSeries, "coeff", float_only)
        for name in FRACTION_ARITHMETIC:
            monkeypatch.setattr(Fraction, name, refuse)
        z, w = np.array([0.3 + 0.1j]), np.array([-0.2 + 0.25j])
        assert theta_taylor_at(cfd, z).shape == (cfd.fiber_dim, cfd.domain_dim)
        evaluation_gap(cfd, z)
        assert pointwise_identity_residual(cfd, [(z, w)]) < 1e-8
        assert inverse_identity_residual(cfd, [z, w]) < 1e-10
        assert row_symbol_margin(cfd, [z, w])[0] > 0
        dil.window.kernel_vector(z, np.ones(dil.fiber_dim))
        config.kernel.evaluate(z, w)
        k_inner_subspace(cfd)


class TestPointwiseIdentity:
    def test_k2_da_residual(self, k2_da):
        cfd, _, _, _ = k2_da
        rng = np.random.default_rng(11)
        pairs = list(zip(sample_points(rng, 50, 1), sample_points(rng, 50, 1)))
        assert pointwise_identity_residual(cfd, pairs) < 1e-8

    def test_inverse_identity(self, k2_da):
        cfd, _, _, _ = k2_da
        rng = np.random.default_rng(13)
        assert inverse_identity_residual(cfd, sample_points(rng, 20, 1)) < 1e-10

    def test_row_symbol_strictness(self, k2_da):
        cfd, _, _, _ = k2_da
        rng = np.random.default_rng(13)
        margin, mismatch = row_symbol_margin(cfd, sample_points(rng, 20, 1))
        assert margin > 0
        assert mismatch < 1e-8


def _taylor_reference(cfd):
    """theta's Taylor coefficients summed into a dict label by label, from the blocks of ``cfd``.

    The dict adds each label's terms in the order build_charfn does and keeps
    the first term of a label as it is, so its values must equal the stack
    bit for bit, sign of zero included, with the same labels in the same order.
    """
    t, sc = cfd.ops, cfd.ops.scalars
    qd = cfd.defect.ran_defect_basis.conj().T @ cfd.defect.defect
    bound = t.nilpotency_bound
    beta_cap = bound if bound is not None else max(cfd.support_cap, cfd.constant_cap)
    betas, powers = t.powers(min(beta_cap, cfd.kernel.truncation))
    e, row = cfd.g_support, cfd.b_support
    root_g = [sc.sqrt(c) for c in e.lift(cfd.factorization.positive_part, sc)]
    root_b = [sc.sqrt(c) for c in row.lift(reciprocal_complement(cfd.pick_factor), sc)]
    taylor = {lab: scale * cfd.d_block.matrix[e.block(lab)] for lab, scale in zip(e.labels, root_g)}
    for alpha, scale in zip(row.labels, root_b):
        block = cfd.b_block[row.block(alpha)]
        for beta, a_beta, p in zip(betas.labels, betas.lift(cfd.kernel, sc), powers):
            gamma, term = add(alpha, beta), (a_beta * scale) * (qd @ adjoint(p) @ block)
            taylor[gamma] = taylor[gamma] + term if gamma in taylor else term
    return {lab: m for lab, m in taylor.items() if any(x != 0 for x in np.asarray(m).flat)}


def _supports_reference(cfd):
    """(b labels, g labels) as build_charfn picked them by a loop reading one coefficient per label, in graded order."""
    b_s, g = reciprocal_complement(cfd.pick_factor), cfd.factorization.positive_part
    labels = enumerate_up_to_degree(cfd.ops.num_vars, max(cfd.support_cap, cfd.constant_cap))
    b = [lab for lab in labels if 1 <= degree(lab) <= cfd.support_cap and b_s.coeff_1d(degree(lab))]
    return b, [lab for lab in labels if degree(lab) <= cfd.constant_cap and g.coeff_1d(degree(lab))]


def test_an_exact_b_coefficient_below_the_float_tolerance_keeps_its_label():
    """An exact CNP factor with b_1 = 10^-15 under a float kernel (tolerance 1e-12): b_1 is compared with 0.

    The factor is 1 / (1 - 10^-15 z), so b_1 = 10^-15 is its one nonzero b coefficient.
    """
    eps = Fraction(1, 10**15)
    s = KernelSeries(tuple(eps**n for n in range(9)), 1)
    fac = factor_through_pick(s.floats, s)
    assert fac.tolerance == 1e-12 and s.b.coefficients[1] == eps
    t = OperatorTuple((np.array([[0.0, 0.0], [1.0, 0.0]]),), None, 1)
    cfd = charfn_of(t, fac, support_cap=4, constant_cap=4)
    assert list(cfd.b_support.labels) == [(1,)]
    assert (list(cfd.b_support.labels), list(cfd.g_support.labels)) == _supports_reference(cfd)


# non-nilpotent scalar points in d = 2, real and complex: (kernel, CNP factor, point), at truncation 48 and caps 8
SCALAR_POINTS = {
    "dadir_dir_d2_point": (
        lambda: cauchy_product(drury_arveson_kernel(2, 48), dirichlet_kernel(2, 48)),
        lambda: dirichlet_kernel(2, 48),
        [0.3, 0.4],
    ),
    "bergman2_da_d2_point_c": (
        lambda: bergman_kernel(2, 2, 48),
        lambda: drury_arveson_kernel(2, 48),
        [0.2 + 0.1j, 0.3 - 0.2j],
    ),
}


def _scalar_point_charfn(name):
    kernel, pick, point = SCALAR_POINTS[name]
    k = kernel()
    t = OperatorTuple(tuple(np.array([[x]]) for x in point))
    return charfn_of(t, factor_through_pick(k, pick()), support_cap=8, constant_cap=8)


class TestTaylorCoefficients:
    @pytest.mark.parametrize(
        "name", ["two_cells_exact", "two_cells", "k2_da_d2_n2", "dadir_dir_d1_n1", "k2_da_d1_n3_c", *SCALAR_POINTS]
    )
    def test_stack_equals_label_by_label_sums(self, name):
        cfd = _scalar_point_charfn(name) if name in SCALAR_POINTS else _preset_charfn(name)
        assert cfd.exact == name.endswith("_exact")
        assert (list(cfd.b_support.labels), list(cfd.g_support.labels)) == _supports_reference(cfd)
        reference = _taylor_reference(cfd)
        assert list(cfd.taylor) == list(reference)
        assert len(cfd.taylor) == len(reference)
        for gamma, coeff in reference.items():
            got = cfd.taylor[gamma]
            assert got.dtype == coeff.dtype
            assert np.array_equal(got, coeff), gamma
            if not cfd.exact:
                assert np.array_equal(np.signbit(got.view(float)), np.signbit(coeff.view(float))), gamma

    def test_read_only_and_shaped(self, k2_da):
        cfd = k2_da[0]
        stack = cfd.taylor.coefficients
        assert stack.shape == (len(cfd.taylor), cfd.fiber_dim, cfd.domain_dim)
        assert cfd.taylor.max_degree == max(sum(g) for g in cfd.taylor)
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1.0


class TestMultiplier:
    def test_constant_isometry_stays_isometric(self, k2_da):
        """A constant isometric symbol induces an isometry on constants,
        independent of the kernels involved. The symbol maps into Ran Defect,
        so the tuple is doubled to give the defect rank 2."""
        _, t, k, fac = k2_da
        doubled = OperatorTuple((np.kron(np.eye(2), t.mats[0]),), None, t.nilpotency_bound)
        cfd = charfn_of(doubled, fac, support_cap=5, constant_cap=14)
        assert cfd.fiber_dim == 2
        theta = {(0,): np.array([[1.0, 0.0], [0.0, 1.0]])}
        mult, _ = multiplier_on(_clone_with_taylor(cfd, theta), 3)
        m = np.asarray(mult.matrix, dtype=float)
        constants = m[:, :2]
        assert max_abs(constants.T @ constants - np.eye(2)) < 1e-14

    def test_norm_is_at_most_one(self, k2_da):
        cfd, _, _, _ = k2_da
        mult, _ = multiplier_on(cfd, 4 + cfd.taylor.max_degree)
        assert np.linalg.norm(np.asarray(mult.matrix, dtype=float), 2) <= 1 + 1e-10

    def test_window_below_top_degree_rejected(self, k2_da):
        """A window below theta's top degree leaves no source window: ValueError naming both degrees."""
        cfd, _, _, _ = k2_da
        top = cfd.taylor.max_degree
        with pytest.raises(ValueError, match=f"degree {top - 1} is below theta's top degree {top}"):
            multiplier_on(cfd, top - 1)
        mult, _ = multiplier_on(cfd, top)
        assert mult.source_degree == 0 and mult.source.labels == ((0,),)


class TestProjectionPartition:
    def test_k2_da(self, k2_da):
        cfd, t, k, _ = k2_da
        mult, dil = multiplier_on(cfd, 4 + cfd.taylor.max_degree)
        fr = factorization_residual(cfd, dil, mult)
        assert fr.restricted < 1e-8

    def test_corrupted_taylor_fails(self, k2_da):
        """Zeroing the largest Taylor coefficient inside the exact degree range
        removes mass the partition identity needs."""
        cfd, t, k, _ = k2_da
        victim = max(
            (g for g, m in cfd.taylor.items() if sum(g) <= 4 and max_abs(np.asarray(m)) > 0.5),
            key=sum,
        )
        broken = dict(cfd.taylor)
        del broken[victim]
        mult, dil = multiplier_on(_clone_with_taylor(cfd, broken), 4 + cfd.taylor.max_degree)
        fr = factorization_residual(cfd, dil, mult)
        assert fr.restricted >= 1e-3

    def test_multiplier_norm_k2_da(self, k2_da):
        cfd, _, _, _ = k2_da
        mult, dil = multiplier_on(cfd, 4 + cfd.taylor.max_degree)
        fr = factorization_residual(cfd, dil, mult)
        assert abs(fr.multiplier_norm - np.linalg.norm(mult.matrix, 2)) <= 1e-14

    def test_multiplier_norm_jordan_exact(self, jordan_exact):
        cfd, _, _, _ = jordan_exact
        mult, dil = multiplier_on(cfd, 5)
        fr = factorization_residual(cfd, dil, mult)
        assert abs(fr.multiplier_norm - np.linalg.norm(to_float_array(mult.matrix), 2)) <= 1e-14

    def test_window_mismatch_rejected(self, k2_da):
        """The windows are compared by identity: an equal window of another dilation is not the multiplier's."""
        cfd, t, k, _ = k2_da
        top = cfd.taylor.max_degree
        mult, _ = multiplier_on(cfd, top + 3)
        for other in (build_dilation(cfd.defect, top + 3), build_dilation(cfd.defect, top + 2)):
            with pytest.raises(ValueError, match="window"):
                factorization_residual(cfd, other, mult)

    def test_dilation_of_other_defect_data_rejected(self, k2_da):
        cfd, t, k, fac = k2_da
        other = build_dilation(defect_data(t, k, fac.pick_factor), 7)
        with pytest.raises(ValueError, match="defect data"):
            build_multiplier(cfd, other)


def _dense_multiplier_reference(cfd, target_degree):
    """M_theta as one dense window x source matrix, filled pair by pair.

    The source window holds the labels of degree <= ``target_degree`` less
    theta's top degree. Every (source label, Taylor label) pair is visited in
    a Python loop: beta lands at target beta + gamma, inside the window, with
    weight sqrt(a_beta^(s) / a_(beta+gamma)^(k)).
    """
    taylor, pick, kernel = cfd.taylor, cfd.pick_factor, cfd.kernel
    _, r, dom = taylor.coefficients.shape
    scalars = taylor.scalars
    source = BlockSpace(enumerate_up_to_degree(kernel.dim, target_degree - taylor.max_degree), dom)
    window = MonomialWindow(kernel, r, target_degree, scalars)
    matrix = scalars.zeros((window.dim, source.dim), taylor.coefficients.dtype)
    a_s, a_k = source.lift(pick, scalars), window.coefficients
    terms = list(zip(taylor.space.labels, taylor.coefficients))
    for i, beta in enumerate(source.labels):
        cols = source.block(beta)
        for gamma, coeff in terms:
            target = add(beta, gamma)
            j = window.index[target]
            rows = window.block(target)
            matrix[rows, cols] = matrix[rows, cols] + scalars.sqrt(a_s[i] / a_k[j]) * coeff
    return matrix


def _gram_matrix(mult):
    """M_theta M_theta^* as a dense array: ``mult.gram`` itself, or the matrix of its slot entries."""
    return mult.gram.matrix if isinstance(mult.gram, Entries) else mult.gram


def _per_source_gram(mult):
    """M_theta M_theta^* from ``mult``'s plan, one dense block of Theta Theta^* per source label.

    Each source gathers the rows and columns of its Taylor labels, weights the
    block by the outer product of its weights and adds it at its targets.
    """
    coeffs = mult.taylor.coefficients
    n_terms, r, dom = coeffs.shape
    fiber = np.arange(r)
    rows = (mult.targets[:, None] * r + fiber).ravel()
    cols = (mult.terms[:, None] * r + fiber).ravel()
    scale = np.repeat(mult.weights, r)
    theta = coeffs.reshape(n_terms * r, dom)
    products = theta @ theta.conj().T
    gram = mult.taylor.scalars.zeros((mult.window.dim, mult.window.dim), products.dtype)
    cuts = r * np.searchsorted(mult.sources, np.arange(1, len(mult.source.labels)))
    for at_rows, at_cols, w in zip(np.split(rows, cuts), np.split(cols, cuts), np.split(scale, cuts)):
        block = products[np.ix_(at_cols, at_cols)]
        block *= np.multiply.outer(w, w)
        gram[np.ix_(at_rows, at_rows)] += block
    return gram


@functools.cache
def _wide_charfn():
    """Theta of the wide window: Bergman m = 2 through Drury-Arveson in d = 3, model degree 1, caps 12."""
    k, s = bergman_kernel(2, 3, 32), drury_arveson_kernel(3, 32)
    return charfn_of(model_tuple(k, 3, 1, mode="float"), factor_through_pick(k, s), support_cap=12, constant_cap=12)


@functools.cache
def _dense_stack_charfn():
    """Theta of DA * Dirichlet through Dirichlet at the scalar point (0.3, 0.4), N 32, caps 8: a dense Taylor stack."""
    k, s = cauchy_product(drury_arveson_kernel(2, 32), dirichlet_kernel(2, 32)), dirichlet_kernel(2, 32)
    t = OperatorTuple((np.array([[0.3]]), np.array([[0.4]])))
    return charfn_of(t, factor_through_pick(k, s), support_cap=8, constant_cap=8)


def _windows(cfd, source_degree):
    """The window degree for ``source_degree``, and a smaller one: the top half of theta's degrees cut, but not below it.

    The multiplier's source degree on each is the window degree less theta's top degree.
    """
    top = cfd.taylor.max_degree
    return [source_degree + top, max(top, source_degree + top // 2)]


class TestMultiplierPlan:
    """The Gram of the index plan against M M* of the dense pair-by-pair reference."""

    @pytest.mark.parametrize("name", SUITE_CONFIGS)
    def test_float_gram_matches_dense_reference(self, name):
        cfd = _preset_charfn(name)
        assert not cfd.exact
        for target_degree in _windows(cfd, configuration(name).source_degree):
            mult, _ = multiplier_on(cfd, target_degree)
            dense = _dense_multiplier_reference(cfd, target_degree)
            assert max_abs(_gram_matrix(mult) - dense @ dense.conj().T) <= 1e-15
            assert mult.matrix.dtype == dense.dtype and np.array_equal(mult.matrix, dense)

    @pytest.mark.parametrize("name", ["jordan", "two_cells"])
    def test_exact_gram_equals_dense_reference(self, name):
        cfd = _preset_charfn(f"{name}_exact")
        assert cfd.exact
        for target_degree in _windows(cfd, configuration(name).source_degree):
            mult, _ = multiplier_on(cfd, target_degree)
            dense = _dense_multiplier_reference(cfd, target_degree)
            assert _gram_matrix(mult).dtype == object
            assert np.array_equal(_gram_matrix(mult), dense @ dense.conj().T)
            assert np.array_equal(mult.matrix, dense)

    def test_wide_window(self):
        """Bergman m = 2 through Drury-Arveson in d = 3 at cap 12: 816 x 9,260 when dense."""
        cfd = _wide_charfn()
        mult, _ = multiplier_on(cfd, 3 + cfd.taylor.max_degree)
        dense = _dense_multiplier_reference(cfd, 3 + cfd.taylor.max_degree)
        assert dense.shape == (816, 9260)
        assert max_abs(_gram_matrix(mult) - dense @ dense.T) <= 1e-15
        assert np.array_equal(mult.matrix, dense)

    @pytest.mark.parametrize("name", ["k2_da_d2_n2_c", "wide", "two_cells_exact", "dense_stack"])
    def test_gram_equals_per_source_blocks_bit_for_bit(self, name):
        """The Gram from the nonzero Taylor products equals the one from a dense block per source, sign bits included."""
        special = {"wide": (_wide_charfn, 3), "dense_stack": (_dense_stack_charfn, 4)}
        if name in special:
            cfd, source_degree = special[name][0](), special[name][1]
        else:
            cfd, source_degree = _preset_charfn(name), configuration(name.removesuffix("_exact")).source_degree
        for target_degree in _windows(cfd, source_degree):
            mult, _ = multiplier_on(cfd, target_degree)
            expected, gram = _per_source_gram(mult), _gram_matrix(mult)
            assert gram.dtype == expected.dtype
            if cfd.exact:
                assert all(x == y and type(x) is type(y) for x, y in zip(gram.flat, expected.flat))
                continue
            assert np.array_equal(gram, expected)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(gram)), np.signbit(part(expected)))
        if name == "k2_da_d2_n2_c":
            theta = to_float_array(cfd.taylor.coefficients).reshape(-1, cfd.domain_dim)
            assert max(len(b[0]) for b in connected_blocks(Entries.of(theta @ theta.conj().T))) > 1

    def test_wide_gram_forms_no_window_square(self):
        """On wide, build_multiplier's traced peak stays below the bytes of one dense 816 x 816 float Gram.

        What is left is Theta Theta^*, kept as one BLAS product for its bits (454^2 floats, 1.6 MB).
        """
        cfd = _wide_charfn()
        dil = build_dilation(cfd.defect, 3 + cfd.taylor.max_degree)
        tracemalloc.start()
        try:
            build_multiplier(cfd, dil)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * dil.window.dim**2

    def test_dense_matrix_built_only_on_request(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense multiplier built")

        monkeypatch.setattr(charfn.MultiplierMatrix, "matrix", property(refuse))
        for name in ("jordan", "k2_da_d2_n2"):
            assert all(c.verdict == "pass" for c in run_configuration_checks(configuration(name))[0])


class TestKInner:
    def test_nontrivial_and_orthogonal(self, k2_da):
        cfd, _, _, _ = k2_da
        ki = k_inner_subspace(cfd)
        assert ki.dim >= 1
        assert ki.shift_residual < 1e-9
        assert ki.gram_excess < 1e-10

    def test_corrupted_theta_has_no_unit_vector(self, k2_da):
        cfd, _, _, _ = k2_da
        shrunk = {g: 0.9 * np.asarray(m, dtype=float) for g, m in cfd.taylor.items()}
        fake = _clone_with_taylor(cfd, shrunk)
        with pytest.raises(EmptyKInnerError):
            k_inner_subspace(fake)

    def test_empty_message_names_the_gap(self, jordan_exact):
        short = {(0,): np.array([[np.sqrt(1.0 - 4e-9)]])}
        with pytest.raises(EmptyKInnerError, match=r"1 - 4\.000e-09 is below 1 - 1e-09"):
            k_inner_subspace(_clone_with_taylor(jordan_exact[0], short))

    def test_shift_residual_closed_form(self, jordan_exact):
        # theta(z) = 0.6 + 0.8 z over Szego: the Gram is 0.36 + 0.64 = 1 and the
        # first shift pairs theta_0 with theta_1, so the residual is 0.6 * 0.8
        ki = k_inner_subspace(_clone_with_taylor(jordan_exact[0], _LINEAR_THETA))
        assert ki.dim == 1
        assert ki.shift_residual == pytest.approx(0.48, abs=1e-15)

    @pytest.mark.parametrize(
        "theta",
        [
            lambda request: request.getfixturevalue("k2_da")[0],
            lambda request: _preset_charfn("k2_da_d2_n2_c"),
            lambda request: _clone_with_taylor(request.getfixturevalue("jordan_exact")[0], _LINEAR_THETA),
        ],
        ids=["k2_da", "k2_da_d2_n2_c", "linear_szego"],
    )
    def test_matches_dense_reference(self, request, theta):
        cfd = theta(request)
        ki = k_inner_subspace(cfd)
        vals, dim, shift = _dense_k_inner_reference(cfd)
        assert ki.dim == dim
        assert np.max(np.abs(ki.gram_eigenvalues - vals)) < 1e-12
        assert abs(ki.shift_residual - shift) < 1e-14


_LINEAR_THETA = {(0,): np.array([[0.6]]), (1,): np.array([[0.8]])}


def _preset_charfn(name):
    """The theta of a preset; a name ending in _exact re-expresses its integer tuple in Fractions."""
    t, fac, caps = preset_inputs(name.removesuffix("_exact"))
    if name.endswith("_exact"):
        mats = tuple(np.vectorize(Fraction, otypes=[object])(m.astype(int)) for m in t.mats)
        t = OperatorTuple(mats, None, t.nilpotency_bound)
    return charfn_of(t, fac, **caps)


def _dense_k_inner_reference(cfd, check_degree=3, eig_tol=1e-9):
    """The k-inner check with one dense domain x domain matrix per Taylor term.

    Returns the Gram eigenvalues, the k-inner dimension and the largest entry
    of basis^* S_alpha basis over 1 <= |alpha| <= check_degree.
    """
    dom = cfd.domain_dim
    gram = np.zeros((dom, dom), dtype=complex)
    for gamma, coeff in cfd.taylor.items():
        c = to_float_array(np.asarray(coeff))
        gram += (c.conj().T @ c) / float(cfd.kernel.coeff(gamma))
    vals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    basis = vecs[:, vals >= 1.0 - eig_tol]
    worst = 0.0
    for alpha in enumerate_up_to_degree(cfd.kernel.dim, check_degree):
        if degree(alpha) == 0:
            continue
        shift = np.zeros((dom, dom), dtype=complex)
        for gamma, coeff in cfd.taylor.items():
            upper = add(gamma, alpha)
            if upper in cfd.taylor:
                c = to_float_array(np.asarray(coeff))
                o = to_float_array(np.asarray(cfd.taylor[upper]))
                shift += (c.conj().T @ o) / float(cfd.kernel.coeff(upper))
        worst = max(worst, max_abs(basis.conj().T @ shift @ basis))
    return vals, basis.shape[1], worst


def _clone_with_taylor(cfd, terms):
    """``cfd`` with the Taylor coefficients of a label -> matrix dict."""
    stack = np.array(list(terms.values()))
    return dataclasses.replace(cfd, taylor=TaylorCoefficients.of(BlockSpace(list(terms), stack.shape[1]), stack))


@pytest.fixture(scope="module")
def two_factorizations():
    da = drury_arveson_kernel(1, 48)
    dirichlet = dirichlet_kernel(1, 48)
    k = cauchy_product(da, dirichlet)
    t = model_tuple(k, 1, 1, mode="float")
    cfd1 = charfn_of(t, factor_through_pick(k, da), support_cap=14, constant_cap=14)
    cfd2 = charfn_of(t, factor_through_pick(k, dirichlet), support_cap=14, constant_cap=14)
    return t, k, cfd1, cfd2


def correspondence_residuals(cfd1, cfd2, points, source_degree):
    """(||C F1 - F2||, ||P^2 - P||) for the partial isometry C matching the sampled families.

    F_i has the columns s_{i,z} (x) theta_i(z)^* e_a; C = F2 W W^* F1^* with W
    whitening the mean Gram, and P = C^* C.
    """

    def family(cfd):
        window = MonomialWindow(cfd.pick_factor, cfd.domain_dim, source_degree)
        fibers = np.asarray(theta_taylor_at(cfd, points), dtype=complex).conj().reshape(-1, cfd.domain_dim)
        return window.kernel_vector([z for z in points for _ in range(cfd.fiber_dim)], fibers).T

    fam1, fam2 = family(cfd1), family(cfd2)
    gram = (fam1.conj().T @ fam1 + fam2.conj().T @ fam2) / 2
    vals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    keep = vals > 1e-8 * max(1.0, float(vals.max(initial=0.0)))
    whiten = vecs[:, keep] / np.sqrt(vals[keep])
    correspondence = (fam2 @ whiten) @ (fam1 @ whiten).conj().T
    p = correspondence.conj().T @ correspondence
    return max_abs(correspondence @ fam1 - fam2), max_abs(p @ p - p)


class TestAlignment:
    def test_same_factor_aligns_identically(self, two_factorizations):
        t, k, cfd1, _ = two_factorizations
        points = sample_points(np.random.default_rng(23), 10, 1)
        out = align_factorizations(cfd1, cfd1, points, source_degree=16)
        assert out.gram_residual == 0.0
        assert out.reference_residual < 1e-8
        assert correspondence_residuals(cfd1, cfd1, points, 16)[1] < 1e-6

    def test_distinct_factors_share_grams(self, two_factorizations):
        t, k, cfd1, cfd2 = two_factorizations
        points = sample_points(np.random.default_rng(29), 30, 1)
        out = align_factorizations(cfd1, cfd2, points, source_degree=18)
        assert out.gram_residual < 1e-8
        assert out.reference_residual < 1e-8
        map_residual, idempotency_residual = correspondence_residuals(cfd1, cfd2, points, 18)
        assert map_residual < 1e-4
        assert idempotency_residual < 1e-6

    def test_mismatched_tuples_rejected(self, two_factorizations):
        t, k, cfd1, _ = two_factorizations
        other = model_tuple(k, 1, 2, mode="float")
        fac = factor_through_pick(k, drury_arveson_kernel(1, 48))
        cfd_other = charfn_of(other, fac, support_cap=14, constant_cap=14)
        with pytest.raises(ValueError, match="mismatched"):
            align_factorizations(cfd1, cfd_other, [[0.1]], source_degree=8)

    def test_points_on_or_outside_the_sphere_rejected(self, two_factorizations):
        """|z|^2 = 1 exactly, from a complex, a real and a rational point, and beyond it; no points at all pass."""
        _, _, cfd1, _ = two_factorizations
        for points in ([[0.3], [0.6 + 0.8j]], [[1.0]], [[Fraction(-1)]], [[1.5j]]):
            with pytest.raises(ValueError, match="^sample point on or outside the unit sphere$"):
                align_factorizations(cfd1, cfd1, points, source_degree=8)
        assert align_factorizations(cfd1, cfd1, [], source_degree=8).gram_residual == 0.0

    def test_gram_mismatch_rejected(self, two_factorizations):
        t, k, cfd1, cfd2 = two_factorizations
        shrunk = {g: 0.7 * np.asarray(m, dtype=float) for g, m in cfd2.taylor.items()}
        broken = _clone_with_taylor(cfd2, shrunk)
        with pytest.raises(ValueError, match="Gram mismatch"):
            align_factorizations(cfd1, broken, [[0.3], [0.1 + 0.2j]], source_degree=12)


def _coincidence_reference(cfd_a, cfd_b, iterations=60):
    """``coincidence_residual`` with each label sum a Python ``sum`` of per-label products or SVDs."""
    space = BlockSpace(sorted(set(cfd_a.taylor) | set(cfd_b.taylor), key=lambda g: (degree(g), g)), 1)
    r, dom = cfd_a.fiber_dim, cfd_a.domain_dim

    def stack(cfd):
        coeffs = to_float_array(cfd.taylor.coefficients)
        out = np.zeros((len(space.labels), r, dom), dtype=coeffs.dtype)
        out[[space.index[g] for g in cfd.taylor]] = coeffs
        return list(np.sqrt(1.0 / space.lift(cfd.kernel))[:, None, None] * out)

    stack_a, stack_b = stack(cfd_a), stack(cfd_b)
    scale = max(np.sqrt(sum(np.linalg.norm(m) ** 2 for m in stack_a)), 1e-30)

    def residual(u2, u1):
        total = 0.0
        for ma, mb in zip(stack_a, stack_b):
            total += np.linalg.norm(u2 @ ma @ u1 - mb) ** 2
        return float(np.sqrt(total)) / scale

    total = 0.0
    for ma, mb in zip(stack_a, stack_b):
        total += np.linalg.norm(np.linalg.svd(ma, compute_uv=False) - np.linalg.svd(mb, compute_uv=False)) ** 2
    lower = float(np.sqrt(total)) / scale
    candidates = [np.eye(r)]
    guess = sum(mb @ ma.conj().T for ma, mb in zip(stack_a, stack_b))
    if np.linalg.norm(guess) > 1e-12:
        candidates.append(polar_orthogonal(guess))
    best = float("inf")
    for u2 in candidates:
        u1 = np.eye(dom)
        for _ in range(iterations):
            u1 = polar_orthogonal(sum((u2 @ ma).conj().T @ mb for ma, mb in zip(stack_a, stack_b)))
            u2 = polar_orthogonal(sum(mb @ (ma @ u1).conj().T for ma, mb in zip(stack_a, stack_b)))
            best = min(best, residual(u2, u1))
            if best - lower < 1e-13:
                return lower, best
    return lower, best


def _conjugated_pair(w):
    """The charfns of the Bergman 2 model tuple in d = 1 and of its conjugate by ``w``, both through DA."""
    k = bergman_kernel(2, 1, 48)
    fac = factor_through_pick(k, drury_arveson_kernel(1, 48))
    t = model_tuple(k, 1, 2, mode="float")
    conj = OperatorTuple(tuple(w.T @ m @ w for m in t.mats), None, t.nilpotency_bound)
    return charfn_of(t, fac, support_cap=5, constant_cap=10), charfn_of(conj, fac, support_cap=5, constant_cap=10)


class TestFunctionalModelAndCoincidence:
    def test_model_reproduces_tuple(self, k2_da):
        cfd, t, k, _ = k2_da
        mult, dil = multiplier_on(cfd, 4 + cfd.taylor.max_degree)
        model, equality = functional_model(cfd, dil, factorization_residual(cfd, dil, mult))
        assert equality < 1e-9
        assert max(intertwining_residuals(dil)) < 1e-9

    def test_conjugated_tuples_coincide(self):
        """A random conjugation and the suite's at seeds 0, 3 and 5: a small upper bound above the certified lower one."""
        rngs = [np.random.default_rng(19)] + [config_rng(seed, "coincidence") for seed in (0, 3, 5)]
        for rng in rngs:
            lower, upper = coincidence_residual(*_conjugated_pair(np.linalg.qr(rng.standard_normal((3, 3)))[0]))
            assert lower <= upper + 1e-15
            assert upper < 1e-6

    def test_stacked_label_sums_match_the_per_label_loop(self):
        """On the two_cells pair of the suite, the stacked sums give the per-label loop's bounds bit for bit."""
        jordan = configuration("two_cells")
        chain = np.zeros((4, 4))
        chain[1, 0] = chain[2, 1] = 1.0
        other = OperatorTuple((chain,), None, 3)
        cfd_a, cfd_b = (charfn_of(t, jordan.factorization, support_cap=6, constant_cap=6) for t in (jordan.ops, other))
        lower, upper = coincidence_residual(cfd_a, cfd_b)
        assert (lower, upper) == _coincidence_reference(cfd_a, cfd_b)
        assert lower >= 1e-3

    def test_distinct_jordan_structures_do_not_coincide(self):
        k = szego_kernel(1, 24)
        fac = factor_through_pick(k, k)
        two_cells = np.zeros((4, 4))
        two_cells[1, 0] = 1.0
        two_cells[3, 2] = 1.0
        chain = np.zeros((4, 4))
        chain[1, 0] = 1.0
        chain[2, 1] = 1.0
        t_a = OperatorTuple((two_cells,), None, 3)
        t_b = OperatorTuple((chain,), None, 3)
        cfd_a = charfn_of(t_a, fac, support_cap=6, constant_cap=6)
        cfd_b = charfn_of(t_b, fac, support_cap=6, constant_cap=6)
        lower, upper = coincidence_residual(cfd_a, cfd_b)
        assert 1e-3 <= lower <= upper + 1e-15

    def test_equal_singular_values_certify_neither_verdict(self):
        """Each label's singular values agree, so the lower bound is 0; no unitary pair matches both labels.

        A_1 + A_2 = I is unitary, but B_1 + B_2 is not, and U2 (A_1 + A_2) U1 is
        always unitary; so the upper bound stays well above 0.
        """
        jordan = configuration("two_cells")
        cfd = charfn_of(jordan.ops, jordan.factorization, support_cap=6, constant_cap=6)
        e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        a = _clone_with_taylor(cfd, {(1,): e11, (2,): e22})
        b = _clone_with_taylor(cfd, {(1,): e11, (2,): np.full((2, 2), 0.5)})
        lower, upper = coincidence_residual(a, b)
        assert lower < 1e-3 and upper > 1e-6
        assert lower <= upper + 1e-15
        # the search runs to its end here, so this also pins the stacked sums of every iteration
        assert (lower, upper) == _coincidence_reference(a, b)
