import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from cnpchar._linalg import max_abs, to_float_array
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
from cnpchar.dilation import build_dilation
from cnpchar.multiindex import BlockSpace, add, degree, enumerate_up_to_degree
from cnpchar.operators import (
    NotContractionError,
    NotPureError,
    OperatorTuple,
    defect_data,
    model_tuple,
    random_coinvariant_compression,
)
from cnpchar.presets import configuration
from cnpchar.series import (
    RealSeries,
    bergman_kernel,
    cauchy_product,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    reciprocal_complement,
    szego_kernel,
)


def charfn_of(t, fac, **caps):
    """The characteristic function of t built from its own defect data."""
    return build_charfn(defect_data(t, fac.kernel, fac.pick_factor), fac, **caps)


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
    t = OperatorTuple(t.mats, None, t.basis_labels, t.nilpotency_bound, t.kernel)
    fac = factor_through_pick(k, k)
    return charfn_of(t, fac), t, k, fac


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
        assert max_abs(np.asarray(cfd.d_block, dtype=float)) == 0

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
        mult = build_multiplier(cfd, 3, 5)
        m = np.asarray(mult.matrix, dtype=float)
        expected = np.zeros((6, 4))
        for j in range(4):
            expected[j + 2, j] = 1.0
        assert np.array_equal(m, expected)

    def test_projection_partition_exact(self, jordan_exact):
        cfd, t, k, _ = jordan_exact
        dil = build_dilation(cfd.defect, 5)
        mult = build_multiplier(cfd, 3, 5)
        fr = factorization_residual(cfd, dil, mult)
        assert fr.restricted_exact
        assert fr.restricted == 0.0 and fr.unrestricted == 0.0

    def test_k_inner_full_space(self, jordan_exact):
        cfd, _, _, _ = jordan_exact
        ki = k_inner_subspace(cfd)
        assert ki.dim == 1
        assert ki.shift_residual == 0.0

    def test_functional_model_is_the_cell(self, jordan_exact):
        cfd, t, k, _ = jordan_exact
        dil = build_dilation(cfd.defect, 5)
        mult = build_multiplier(cfd, 3, 5)
        model, report = functional_model(cfd, dil, factorization_residual(cfd, dil, mult))
        assert report.equality_residual < 1e-14
        assert max(report.intertwining_residuals) < 1e-14
        assert max_abs(model.mats[0] - to_float_array(t.mats[0])) < 1e-14


class TestDegenerateCase:
    def test_pick_kernel_equal_to_kernel_collapses_e(self):
        """k = s forces g = (1, 0, ...), a single copy of the defect range in E
        and no outer summand."""
        k = drury_arveson_kernel(2, 24)
        fac = factor_through_pick(k, k)
        t = model_tuple(k, 2, 2, mode="float")
        cfd = charfn_of(t, fac)
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

    def test_rejects_impure(self):
        k = szego_kernel(1, 24)
        fac = factor_through_pick(k, k)
        t = OperatorTuple((np.array([[1.0]]),), None, None, None, k)
        dd = defect_data(t, k, k)  # the defects exist; only purity fails
        with pytest.raises(NotPureError):
            build_charfn(dd, fac, support_cap=4, constant_cap=4)

    def test_requires_caps_without_nilpotency(self):
        k = szego_kernel(1, 24)
        fac = factor_through_pick(k, k)
        t = OperatorTuple((np.array([[0.5]]),), None, None, None, k)
        with pytest.raises(ValueError, match="caps"):
            charfn_of(t, fac)

    def test_row_contraction_failure_detected(self):
        # a non-contraction cannot be a 1/s-contraction either: defect_data
        # rejects it, so build_charfn never reaches the row construction
        k = szego_kernel(1, 24)
        t = OperatorTuple((np.array([[1.5]]),), None, None, None, k)
        with pytest.raises(NotContractionError):
            defect_data(t, k, k)


def jordan_pair():
    """J2 (+) J3 through the Szego kernel: the defect has rank 2 and a repeated eigenvalue."""
    k = szego_kernel(1, 48)
    mat = np.zeros((5, 5))
    mat[1, 0] = mat[3, 2] = mat[4, 3] = 1.0
    return OperatorTuple((mat,), None, None, 2, k), factor_through_pick(k, k), {}


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
        dil = build_dilation(dd, cfd.max_taylor_degree + 4)
        assert cfd.defect is dd and dil.defect is dd
        mult = build_multiplier(cfd, 4, cfd.max_taylor_degree + 4)
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
                block = np.asarray(cfd.d_block, dtype=float)[cfd.g_support.block(lab), p:]
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
        target_degree = config.source_degree + cfd.max_taylor_degree
        dil = build_dilation(dd, target_degree)
        build_multiplier(cfd, config.source_degree, target_degree)

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
    betas = BlockSpace(enumerate_up_to_degree(t.num_vars, min(beta_cap, cfd.kernel.truncation)), 1)
    e, row = cfd.g_support, cfd.b_support
    root_g = [sc.sqrt(c) for c in e.lift(cfd.factorization.positive_part, sc)]
    root_b = [sc.sqrt(c) for c in row.lift(reciprocal_complement(cfd.pick_factor), sc)]
    taylor = {lab: scale * cfd.d_block[e.block(lab)] for lab, scale in zip(e.labels, root_g)}
    for alpha, scale in zip(row.labels, root_b):
        block = cfd.b_block[row.block(alpha)]
        for beta, a_beta in zip(betas.labels, betas.lift(cfd.kernel, sc)):
            gamma, term = add(alpha, beta), (a_beta * scale) * (qd @ t.power_adjoint(beta) @ block)
            taylor[gamma] = taylor[gamma] + term if gamma in taylor else term
    return {lab: m for lab, m in taylor.items() if any(x != 0 for x in np.asarray(m).flat)}


class TestTaylorCoefficients:
    @pytest.mark.parametrize(
        "name", ["two_cells_exact", "two_cells", "k2_da_d2_n2", "dadir_dir_d1_n1", "k2_da_d1_n3_c"]
    )
    def test_stack_equals_label_by_label_sums(self, name):
        t, fac, caps = preset_inputs(name.removesuffix("_exact"))
        if name.endswith("_exact"):
            mats = tuple(np.vectorize(Fraction, otypes=[object])(m.astype(int)) for m in t.mats)
            t = OperatorTuple(mats, None, None, t.nilpotency_bound, t.kernel)
        cfd = charfn_of(t, fac, **caps)
        assert cfd.exact == name.endswith("_exact")
        reference = _taylor_reference(cfd)
        assert list(cfd.taylor) == list(reference)
        assert len(cfd.taylor) == len(reference)
        for gamma, coeff in reference.items():
            got = cfd.taylor[gamma]
            assert got.dtype == coeff.dtype
            assert np.array_equal(got, coeff), gamma
            if not cfd.exact:
                assert np.array_equal(np.signbit(got), np.signbit(coeff)), gamma

    def test_read_only_and_shaped(self, k2_da):
        cfd = k2_da[0]
        stack = cfd.taylor.coefficients
        assert stack.shape == (len(cfd.taylor), cfd.fiber_dim, cfd.domain_dim)
        assert cfd.taylor.max_degree == max(sum(g) for g in cfd.taylor) == cfd.max_taylor_degree
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1.0


class TestMultiplier:
    def test_constant_isometry_stays_isometric(self, k2_da):
        """A constant isometric symbol induces an isometry on constants,
        independent of the kernels involved."""
        theta = {(0,): np.array([[1.0, 0.0], [0.0, 1.0]])}
        mult = build_multiplier(_clone_with_taylor(k2_da[0], theta), 3, 3)
        m = np.asarray(mult.matrix, dtype=float)
        constants = m[:, :2]
        assert max_abs(constants.T @ constants - np.eye(2)) < 1e-14

    def test_norm_is_at_most_one(self, k2_da):
        cfd, _, _, _ = k2_da
        mult = build_multiplier(cfd, 4, 4 + cfd.max_taylor_degree)
        assert np.linalg.norm(np.asarray(mult.matrix, dtype=float), 2) <= 1 + 1e-10

    def test_discarded_mass_reported(self, k2_da):
        cfd, _, _, _ = k2_da
        tight = build_multiplier(cfd, 4, 5)
        assert not tight.exact_window
        assert tight.discarded_mass > 0
        full = build_multiplier(cfd, 4, 4 + cfd.max_taylor_degree)
        assert full.exact_window and full.discarded_mass == 0


class TestProjectionPartition:
    def test_k2_da(self, k2_da):
        cfd, t, k, _ = k2_da
        target = 4 + cfd.max_taylor_degree
        dil = build_dilation(cfd.defect, target)
        mult = build_multiplier(cfd, 4, target)
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
        target = 4 + cfd.max_taylor_degree
        dil = build_dilation(cfd.defect, target)
        mult = build_multiplier(_clone_with_taylor(cfd, broken), 4, target)
        fr = factorization_residual(cfd, dil, mult)
        assert fr.restricted >= 1e-3

    def test_multiplier_norm_k2_da(self, k2_da):
        cfd, _, _, _ = k2_da
        target = 4 + cfd.max_taylor_degree
        mult = build_multiplier(cfd, 4, target)
        fr = factorization_residual(cfd, build_dilation(cfd.defect, target), mult)
        assert abs(fr.multiplier_norm - np.linalg.norm(mult.matrix, 2)) <= 1e-14

    def test_multiplier_norm_jordan_exact(self, jordan_exact):
        cfd, _, _, _ = jordan_exact
        mult = build_multiplier(cfd, 3, 5)
        fr = factorization_residual(cfd, build_dilation(cfd.defect, 5), mult)
        assert abs(fr.multiplier_norm - np.linalg.norm(to_float_array(mult.matrix), 2)) <= 1e-14

    def test_window_mismatch_rejected(self, k2_da):
        cfd, t, k, _ = k2_da
        dil = build_dilation(cfd.defect, 6)
        mult = build_multiplier(cfd, 4, 7)
        with pytest.raises(ValueError, match="window"):
            factorization_residual(cfd, dil, mult)


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
        with pytest.raises(EmptyKInnerError, match=r"1 - 4\.000e-09 is below 1 - eig_tol \(1e-09\)"):
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
    t, fac, caps = preset_inputs(name)
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
    return dataclasses.replace(cfd, taylor=TaylorCoefficients(BlockSpace(list(terms), stack.shape[1]), stack))


@pytest.fixture(scope="module")
def two_factorizations():
    da = drury_arveson_kernel(1, 48)
    dirichlet = dirichlet_kernel(1, 48)
    k = cauchy_product(da, dirichlet)
    t = model_tuple(k, 1, 1, mode="float")
    cfd1 = charfn_of(t, factor_through_pick(k, da), support_cap=14, constant_cap=14)
    cfd2 = charfn_of(t, factor_through_pick(k, dirichlet), support_cap=14, constant_cap=14)
    return t, k, cfd1, cfd2


class TestAlignment:
    def test_same_factor_aligns_identically(self, two_factorizations):
        t, k, cfd1, _ = two_factorizations
        rng = np.random.default_rng(23)
        out = align_factorizations(cfd1, cfd1, sample_points(rng, 10, 1), source_degree=16)
        assert out.gram_residual == 0.0
        assert out.idempotency_residual < 1e-6

    def test_distinct_factors_share_grams(self, two_factorizations):
        t, k, cfd1, cfd2 = two_factorizations
        rng = np.random.default_rng(29)
        dil = build_dilation(cfd1.defect, 4)
        out = align_factorizations(
            cfd1, cfd2, sample_points(rng, 30, 1), source_degree=18, dil=dil
        )
        assert out.gram_residual < 1e-8
        assert out.reference_residual < 1e-8
        assert out.map_residual < 1e-4
        assert out.idempotency_residual < 1e-6

    def test_mismatched_tuples_rejected(self, two_factorizations):
        t, k, cfd1, _ = two_factorizations
        other = model_tuple(k, 1, 2, mode="float")
        fac = factor_through_pick(k, drury_arveson_kernel(1, 48))
        cfd_other = charfn_of(other, fac, support_cap=14, constant_cap=14)
        with pytest.raises(ValueError, match="mismatched"):
            align_factorizations(cfd1, cfd_other, [[0.1]], source_degree=8)

    def test_gram_mismatch_rejected(self, two_factorizations):
        t, k, cfd1, cfd2 = two_factorizations
        shrunk = {g: 0.7 * np.asarray(m, dtype=float) for g, m in cfd2.taylor.items()}
        broken = _clone_with_taylor(cfd2, shrunk)
        with pytest.raises(ValueError, match="Gram mismatch"):
            align_factorizations(cfd1, broken, [[0.3], [0.1 + 0.2j]], source_degree=12)


class TestFunctionalModelAndCoincidence:
    def test_model_reproduces_tuple(self, k2_da):
        cfd, t, k, _ = k2_da
        target = 4 + cfd.max_taylor_degree
        dil = build_dilation(cfd.defect, target)
        mult = build_multiplier(cfd, 4, target)
        model, report = functional_model(cfd, dil, factorization_residual(cfd, dil, mult))
        assert report.equality_residual < 1e-9
        assert max(report.intertwining_residuals) < 1e-9

    def test_conjugated_tuples_coincide(self):
        k = bergman_kernel(2, 1, 48)
        fac = factor_through_pick(k, drury_arveson_kernel(1, 48))
        t = model_tuple(k, 1, 2, mode="float")
        w = np.linalg.qr(np.random.default_rng(19).standard_normal((3, 3)))[0]
        conj = OperatorTuple(
            tuple(w.T @ m @ w for m in t.mats), None, None, t.nilpotency_bound, k
        )
        cfd_a = charfn_of(t, fac, support_cap=5, constant_cap=10)
        cfd_b = charfn_of(conj, fac, support_cap=5, constant_cap=10)
        res = coincidence_residual(cfd_a, cfd_b, np.random.default_rng(0))
        assert res < 1e-6

    def test_distinct_jordan_structures_do_not_coincide(self):
        k = szego_kernel(1, 24)
        fac = factor_through_pick(k, k)
        two_cells = np.zeros((4, 4))
        two_cells[1, 0] = 1.0
        two_cells[3, 2] = 1.0
        chain = np.zeros((4, 4))
        chain[1, 0] = 1.0
        chain[2, 1] = 1.0
        t_a = OperatorTuple((two_cells,), None, None, 3, k)
        t_b = OperatorTuple((chain,), None, None, 3, k)
        cfd_a = charfn_of(t_a, fac, support_cap=6, constant_cap=6)
        cfd_b = charfn_of(t_b, fac, support_cap=6, constant_cap=6)
        res = coincidence_residual(cfd_a, cfd_b, np.random.default_rng(0))
        assert res >= 1e-3
