import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cnpchar._linalg import adjoint, exact_zeros, is_exactly_zero, max_abs
from cnpchar.multiindex import (
    add,
    compositions,
    count_up_to_degree,
    degree,
    enumerate_up_to_degree,
    monomial_value,
    unit,
)
from cnpchar.operators import (
    STOP_TOL,
    ConvergenceError,
    NotContractionError,
    OperatorTuple,
    compress,
    conjugated_sum,
    defect_data,
    model_tuple,
    operator_series,
    purity_check,
    quadratic_form_certificate,
    random_coinvariant_compression,
    tuple_from_spec,
)
from cnpchar.series import (
    bergman_kernel,
    cauchy_product,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    reciprocal_complement,
    szego_kernel,
)


def jordan_cell():
    return model_tuple(szego_kernel(1, 24), 1, 1, mode="float")


def exact_identity_matrix(n):
    out = exact_zeros((n, n))
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


class TestModelTuple:
    def test_szego_jordan_cell(self):
        t = jordan_cell()
        assert np.allclose(t.mats[0], [[0, 0], [1, 0]])
        te = model_tuple(szego_kernel(1, 24), 1, 1, mode="exact")
        assert te.mats[0][1, 0] == 1 and te.mats[0][0, 0] == 0
        assert list(te.weights) == [Fraction(1), Fraction(1)]

    def test_bergman_two_entry(self):
        t = model_tuple(bergman_kernel(2, 1, 10), 1, 1, mode="float")
        # ||z|| / ||1|| = sqrt(1/2) in the weighted space
        assert abs(t.mats[0][1, 0] - 1 / math.sqrt(2)) < 1e-15

    def test_two_variables_structure(self):
        t = model_tuple(drury_arveson_kernel(2, 10), 2, 1, mode="float")
        assert t.size == 3
        image_one = t.mats[0][:, 0]
        image_two = t.mats[1][:, 0]
        assert abs(np.vdot(image_one, image_two)) < 1e-15  # orthogonal ranges
        assert np.linalg.norm(image_one) > 0 and np.linalg.norm(image_two) > 0

    def test_requires_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            model_tuple(szego_kernel(1, 3), 1, 5)

    @pytest.mark.parametrize("d, degree_cut", [(1, 0), (1, 4), (2, 3), (3, 2)])
    @pytest.mark.parametrize("kind", ["bergman", "dirichlet"])
    def test_matches_label_loop(self, d, degree_cut, kind):
        """Both modes equal the label-by-label construction: exactly, and bit for bit in floats."""
        kernel = bergman_kernel(3, d, 8) if kind == "bergman" else dirichlet_kernel(d, 8)
        labels = enumerate_up_to_degree(d, degree_cut)
        a = {lab: kernel.coeff(lab) for lab in labels}
        for mode in ("exact", "float"):
            t = model_tuple(kernel, d, degree_cut, mode=mode)
            for i, got in enumerate(t.mats):
                expected = exact_zeros(got.shape) if mode == "exact" else np.zeros(got.shape)
                for src, lab in enumerate(labels):
                    if degree(lab) < degree_cut:
                        dst = labels.index(add(lab, unit(d, i)))
                        expected[dst, src] = Fraction(1) if mode == "exact" else np.sqrt(float(a[lab] / a[labels[dst]]))
                entries = (lambda m: [float.hex(x) for x in m.flat]) if mode == "float" else (lambda m: list(m.flat))
                assert got.dtype == expected.dtype and entries(got) == entries(expected)

    def test_commutation_enforced(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="commute"):
            OperatorTuple((a, b))


def _product_power(t, alpha):
    """T_1^a1 ... T_d^ad, multiplied onto the identity from the left, T_d first: the order of ``powers``."""
    p = t.identity()
    for i in reversed(range(t.num_vars)):
        for _ in range(alpha[i]):
            p = t.mats[i] @ p
    return p


class TestPowers:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["exact", "float", "complex"])
    def test_stack_equals_products(self, mode, d):
        """Every T^alpha equals the product, bit for bit, and so does its weighted adjoint.

        The exact model carries its basis weights; the complex tuple is a
        scalar point with no nilpotency bound.
        """
        if mode == "complex":
            t = OperatorTuple(tuple(np.array([[x]]) for x in [0.3 + 0.1j, 0.2, -0.4j][:d]))
        else:
            t = model_tuple(bergman_kernel(2, d, 8), d, 2, mode=mode)
        labels, stack = t.powers(4)
        assert labels.labels == tuple(enumerate_up_to_degree(d, 4))
        assert stack.shape == (len(labels.labels), t.size, t.size)
        adjoints = adjoint(stack, t.weights)
        for i, alpha in enumerate(labels.labels):
            expected = _product_power(t, alpha)
            _same(stack[i], expected)
            _same(adjoints[i], adjoint(expected, t.weights))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_zero_above_the_bound(self, mode):
        """Above the nilpotency bound a power is zero, whatever the product of the matrices is."""
        t = dataclasses.replace(model_tuple(bergman_kernel(2, 2, 8), 2, 3, mode=mode), nilpotency_bound=1)
        labels, stack = t.powers(4)
        zero = t.scalars.zeros((t.size, t.size), t.dtype)
        for i, alpha in enumerate(labels.labels):
            _same(stack[i], _product_power(t, alpha) if degree(alpha) <= 1 else zero)
        assert not is_exactly_zero(_product_power(t, (1, 1)))

    def test_zero_index_is_identity(self):
        labels, stack = jordan_cell().powers(0)
        assert labels.labels == ((0,),) and np.array_equal(stack[0], np.eye(2))

    def test_nilpotent_powers_vanish(self):
        labels, stack = model_tuple(bergman_kernel(2, 2, 10), 2, 2, mode="float").powers(4)
        assert max_abs(stack[labels.index[(3, 0)]]) == 0
        assert max_abs(stack[labels.index[(2, 2)]]) == 0

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_kept_stack_serves_every_top_as_a_fresh_tuple_would(self, mode):
        """Tops above, at and below the nilpotency bound (2), in any order, read the stack a fresh tuple builds."""
        t = model_tuple(bergman_kernel(2, 2, 10), 2, 2, mode=mode)
        for top in (4, 1, 2, 0, 3, 6, 5):
            labels, stack = t.powers(top)
            fresh_labels, fresh = model_tuple(bergman_kernel(2, 2, 10), 2, 2, mode=mode).powers(top)
            assert labels.labels == fresh_labels.labels
            _same(stack, fresh)
            assert not stack.flags.writeable

    def test_matrices_are_read_only_copies(self):
        """An edit of the caller's array never reaches the tuple, and the tuple's own arrays refuse edits."""
        m = np.array([[0.0, 0.0], [0.5, 0.0]])
        t = OperatorTuple((m,), nilpotency_bound=1)
        before = t.powers(2)[1].copy()
        m[1, 0] = 0.25
        assert t.mats[0][1, 0] == 0.5 and np.array_equal(t.powers(2)[1], before)
        with pytest.raises(ValueError):
            t.mats[0][1, 0] = 0.25
        with pytest.raises(ValueError):
            t.powers(1)[1][0, 0, 0] = 1.0

    def test_power_respects_commutation(self):
        t = model_tuple(bergman_kernel(2, 2, 10), 2, 2, mode="float")
        labels, stack = t.powers(2)
        direct = t.mats[0] @ t.mats[1]
        swapped = t.mats[1] @ t.mats[0]
        assert np.allclose(stack[labels.index[(1, 1)]], direct)
        assert np.allclose(direct, swapped)


class TestDefect:
    def test_jordan_defect(self):
        t = jordan_cell()
        dd = defect_data(t, szego_kernel(1, 24))
        assert np.allclose(dd.defect_sq, np.diag([1.0, 0.0]))
        assert np.allclose(dd.defect, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("degree_cut", [1, 2, 3])
    def test_model_defect_is_constants_projection_exact(self, m, d, degree_cut):
        k = bergman_kernel(m, d, 12)
        t = model_tuple(k, d, degree_cut, mode="exact")
        dd = defect_data(t, k)
        expected = exact_zeros((t.size, t.size))
        expected[0, 0] = Fraction(1)
        assert all(x == y for x, y in zip(dd.defect_sq.flat, expected.flat))

    def test_pick_defect_for_bergman_two(self):
        # with the DA factor, b_s is supported in degree 1, so the pick defect
        # squared is I - sum_i T_i T_i^*
        k = bergman_kernel(2, 2, 12)
        t = model_tuple(k, 2, 2, mode="float")
        dd = defect_data(t, k, pick_factor=drury_arveson_kernel(2, 12))
        direct = np.eye(t.size) - sum(m @ m.conj().T for m in t.mats)
        assert max_abs(dd.pick_defect_sq - direct) < 1e-14
        assert np.linalg.eigvalsh(dd.pick_defect_sq).min() > -1e-12

    def test_non_contraction_rejected(self):
        t = OperatorTuple((np.array([[2.0]]),), None, None, None, None)
        with pytest.raises(NotContractionError):
            defect_data(t, szego_kernel(1, 24))


class TestPurity:
    def test_jordan_pure(self):
        t = jordan_cell()
        dd = defect_data(t, szego_kernel(1, 24))
        assert dd.purity_residual < 1e-15

    def test_models_pure_exactly(self):
        for m, d, n in [(1, 1, 3), (2, 1, 3), (3, 2, 2)]:
            k = bergman_kernel(m, d, 12)
            t = model_tuple(k, d, n, mode="exact")
            dd = defect_data(t, k)
            assert dd.purity_exact and dd.purity_residual == 0.0

    def test_isometry_not_pure(self):
        t = OperatorTuple((np.array([[1.0]]),), None, None, None, None)
        dd = defect_data(t, szego_kernel(1, 24))
        assert max_abs(dd.defect_sq) < 1e-15
        assert abs(dd.purity_residual - 1.0) < 1e-15

    def test_purity_check_for_pick_factor(self):
        """The model of k is a pure 1/s-contraction: the a^(s)-weighted sum of
        the squared pick defect reproduces the identity."""
        k = bergman_kernel(2, 1, 24)
        s = drury_arveson_kernel(1, 24)
        t = model_tuple(k, 1, 3, mode="float")
        dd = defect_data(t, k, pick_factor=s)
        report = purity_check(t, s, dd.pick_defect_sq)
        assert report.residual < 1e-13


class TestOperatorSeries:
    def test_at_origin(self):
        t = jordan_cell()
        out = operator_series(t, szego_kernel(1, 24), [0.0])
        assert np.allclose(out, np.eye(2))

    def test_jordan_linear(self):
        t = jordan_cell()
        w = 0.3 + 0.4j
        out = operator_series(t, szego_kernel(1, 24), [w])
        assert np.allclose(out, np.eye(2) + np.conjugate(w) * t.mats[0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_geometric_inverse_identity(self, seed):
        """(I - sum b_alpha conj(w^alpha) T^alpha) s_w(T) = I at random points."""
        k = bergman_kernel(2, 2, 24)
        s = drury_arveson_kernel(2, 24)
        t = model_tuple(k, 2, 2, mode="float")
        b = reciprocal_complement(s)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w = w / np.linalg.norm(w) * 0.6 * rng.uniform(0.2, 1.0)
            lhs = np.eye(t.size) - operator_series(t, b, w)
            s_w = operator_series(t, s, w)
            assert max_abs(lhs @ s_w - np.eye(t.size)) < 1e-12

    def test_exact_rational_point(self):
        t = model_tuple(szego_kernel(1, 8), 1, 1, mode="exact")
        t = OperatorTuple(t.mats, None, t.basis_labels, t.nilpotency_bound, t.kernel)
        out = operator_series(t, szego_kernel(1, 8), [Fraction(1, 2)])
        assert out.dtype == object and out[1, 0] == Fraction(1, 2)


class TestCompress:
    def test_full_space(self):
        t = model_tuple(bergman_kernel(2, 1, 10), 1, 2, mode="float")
        tc = compress(t, np.eye(3))
        assert np.allclose(tc.mats[0], t.mats[0])
        assert tc.nilpotency_bound == t.nilpotency_bound

    def test_lower_degrees_recover_smaller_model(self):
        k = bergman_kernel(2, 1, 10)
        big = model_tuple(k, 1, 3, mode="float")
        small = model_tuple(k, 1, 2, mode="float")
        basis = np.eye(4)[:, :3]
        tc = compress(big, basis)
        assert max_abs(tc.mats[0] - small.mats[0]) < 1e-15

    def test_constants_give_zero_tuple(self):
        t = model_tuple(bergman_kernel(2, 2, 10), 2, 2, mode="float")
        basis = np.zeros((t.size, 1))
        basis[0, 0] = 1.0
        tc = compress(t, basis)
        assert max_abs(tc.mats[0]) == 0 and max_abs(tc.mats[1]) == 0

    def test_weighted_float_tuple_is_rescaled_first(self):
        """A float tuple given on a weighted basis is compressed as its orthonormal form, not as its raw matrices."""
        with open(Path(__file__).parent / "specs" / "jordan_weighted_float.json") as fh:
            t = tuple_from_spec(json.load(fh))
        assert t.weights is not None
        tc = compress(t, np.eye(2))
        assert tc.weights is None
        assert np.array_equal(tc.mats[0], t.to_float().mats[0])

    def test_rejects_non_orthonormal(self):
        t = jordan_cell()
        with pytest.raises(ValueError, match="orthonormal"):
            compress(t, np.array([[1.0], [1.0]]))

    def test_warns_on_non_coinvariant(self):
        t = model_tuple(szego_kernel(1, 10), 1, 2, mode="float")
        basis = np.zeros((3, 1))
        basis[2, 0] = 1.0  # top-degree line is invariant but not co-invariant
        with pytest.warns(UserWarning, match="co-invariant"):
            compress(t, basis)

    def test_random_coinvariant_compressions_stay_pure(self):
        """Compressions to co-invariant subspaces of pure tuples are pure,
        both for the kernel and for its CNP factor."""
        k = bergman_kernel(2, 2, 24)
        s = drury_arveson_kernel(2, 24)
        for seed in range(4):
            tc = random_coinvariant_compression(
                model_tuple(k, 2, 2, mode="float"), np.random.default_rng(seed)
            )
            dd = defect_data(tc, k, pick_factor=s)
            assert dd.purity_residual < 1e-12
            assert np.linalg.eigvalsh(dd.pick_defect_sq.astype(float)).min() > -1e-12
            assert purity_check(tc, s, dd.pick_defect_sq).residual < 1e-12


class TestQuadraticForm:
    def test_closed_form_violation(self):
        value = quadratic_form_certificate(
            bergman_kernel(2, 1, 32), bergman_kernel(2, 1, 32), 0, [(2,)], window_degree=2
        )[0]
        assert value == Fraction(-1, 3)

    def test_drury_arveson_form_stays_nonnegative(self):
        da = drury_arveson_kernel(1, 40)
        for m in (2, 3, 4):
            k = bergman_kernel(m, 1, 40)
            for base in range(6):
                value = quadratic_form_certificate(k, da, base, [((base + 2),)], window_degree=base + 2)[0]
                expected = 1 - Fraction(base + 2, base + m + 1)
                assert value == expected
                assert value >= 0

    def test_vector_below_cut_gives_one(self):
        value = quadratic_form_certificate(
            bergman_kernel(2, 1, 32), bergman_kernel(2, 1, 32), 5, [(2,)], window_degree=7
        )[0]
        assert value == 1

    def test_vector_outside_window(self):
        with pytest.raises(ValueError, match="window"):
            quadratic_form_certificate(
                bergman_kernel(2, 1, 32), bergman_kernel(2, 1, 32), 0, [(9,)], window_degree=4
            )

    def test_float_coefficients_agree(self):
        """Float coefficients give float values, within 1e-12 of the exact ones."""
        exact = quadratic_form_certificate(
            bergman_kernel(3, 1, 32), bergman_kernel(2, 1, 32), 1, [(3,)], window_degree=3
        )[0]
        approx = quadratic_form_certificate(
            bergman_kernel(3, 1, 32).floats, bergman_kernel(2, 1, 32).floats, 1, [(3,)], window_degree=3
        )[0]
        assert isinstance(approx, float)
        assert abs(float(exact) - approx) < 1e-12

    @pytest.mark.parametrize("base", range(4), ids=lambda b: f"base{b}")
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 2)], ids=lambda x: f"{x}")
    @pytest.mark.parametrize("dim", [1, 2], ids=lambda d: f"d{d}")
    def test_matches_dense_reference(self, dim, m, n, base):
        """Every label of the window gets the dense form's value exactly."""
        kernel, form = bergman_kernel(m, dim, 8), bergman_kernel(n, dim, 8)
        window = base + 2
        labels = enumerate_up_to_degree(dim, window)
        values = quadratic_form_certificate(kernel, form, base, labels, window_degree=window)
        assert all(isinstance(v, Fraction) for v in values)
        assert values == _dense_certificate_reference(kernel, form, base, labels, window)

    @pytest.mark.parametrize("dtype", ["exact", "float"])
    def test_zero_vector_rejected(self, dtype):
        """A coordinate vector, here zero, is not a label."""
        k = bergman_kernel(2, 1, 8)
        zero = np.zeros(4, dtype=object if dtype == "exact" else float)
        with pytest.raises(ValueError, match="^test vector array.* is not a label of the window of degree 3$"):
            quadratic_form_certificate(k, k, 0, [zero], window_degree=3)

    def test_window_beyond_truncation_rejected(self):
        k = bergman_kernel(2, 1, 8)
        with pytest.raises(ValueError, match="^model degree exceeds the kernel truncation$"):
            quadratic_form_certificate(k, k, 0, [(2,)], window_degree=9)

    @pytest.mark.parametrize("window", [3, 2], ids=["window3", "window2"])
    def test_non_labels_rejected(self, window):
        """Whatever is not a multi-index of the kernel's dimension is a ValueError naming it."""
        k = bergman_kernel(2, 1, 8)
        for v in (np.ones(4), [2], (2, 0), (-1,), (1.5,), ("2",), (None,), "2", None):
            with pytest.raises(ValueError, match="is not a label of the window") as info:
                quadratic_form_certificate(k, k, 0, [(1,), v], window_degree=window)
            assert repr(v) in str(info.value)


def _dense_certificate_reference(kernel, form_kernel, base_degree, labels, window_degree):
    """The contraction form at each label through the dense exact model tuple and lowered copies of z^gamma.

    For each label gamma it subtracts b_alpha <P (M^alpha)^* z^gamma, (M^alpha)^* z^gamma>
    from <z^gamma, z^gamma>, lowering one variable at a time with the dense adjoints.
    """
    t = model_tuple(kernel, kernel.dim, window_degree, mode="exact")
    index = {lab: i for i, lab in enumerate(t.basis_labels)}
    mask = np.array([degree(lab) > base_degree for lab in t.basis_labels])
    adjoints = [adjoint(m, t.weights) for m in t.mats]
    b = reciprocal_complement(form_kernel)
    support = max(n for n, c in enumerate(b.coefficients) if c != 0)

    def inner(x, y):
        return (t.weights * x * np.conjugate(y)).sum()

    values = []
    for gamma in labels:
        vec = t.scalars.zeros(t.size)
        vec[index[gamma]] = 1
        total = inner(vec, vec)
        value = total
        lowered = {(0,) * kernel.dim: vec}
        for deg in range(1, min(window_degree, support) + 1):
            next_lowered = {}
            for alpha in compositions(deg, kernel.dim):
                i = next(j for j, a in enumerate(alpha) if a > 0)
                w = adjoints[i] @ lowered[tuple(a - (j == i) for j, a in enumerate(alpha))]
                next_lowered[alpha] = w
                value = value - b.coeff(alpha) * inner(np.where(mask, w, 0 * w), w)
            lowered = next_lowered
        values.append(value / total)
    return values


def _conjugated_sum_reference(t, series, middle=None, include_zero=False):
    """The conjugated sum as its own loop up to the truncation, with an optional degree-0 term added up front.

    A float tuple reads the coefficients of the series' float view.
    Returns (total, increment_norms, stop_degree, exact_stop).
    """
    n, sc, dtype = t.size, t.scalars, t.mats[0].dtype
    lifted = series if sc.exact else series.floats
    total = sc.zeros((n, n), dtype)
    if include_zero:
        term = middle if middle is not None else t.identity()
        total = total + lifted.coeff_1d(0) * term
    bound = t.nilpotency_bound
    top = series.truncation if bound is None else min(series.truncation, bound)
    support_max = max((i for i, c in enumerate(series.coefficients) if i >= 1 and c != 0), default=0)
    loop_top = min(top, support_max)
    increments = []
    for deg in range(1, loop_top + 1):
        inc = sc.zeros((n, n), dtype)
        for alpha in compositions(deg, t.num_vars):
            c = lifted.coeff(alpha)
            if c == 0:
                continue
            p = _product_power(t, alpha)
            conj = adjoint(p, t.weights)
            inc = inc + c * (p @ middle @ conj if middle is not None else p @ conj)
        total = total + inc
        increments.append(max_abs(inc))
    if bound is None:
        if loop_top == top and increments and increments[-1] > STOP_TOL:
            raise ConvergenceError("conjugated series did not settle")
        exact_stop = False
    else:
        exact_stop = series.truncation >= bound
    return total, increments, top, exact_stop


def _operator_series_reference(t, series, point):
    """The operator series as its own loop over every degree up to the truncation, at the point's complex128 view."""
    if not all(isinstance(x, (Fraction, int)) for x in point):
        point = np.array(point, dtype=complex)
    sc = t.scalars.at(point)
    series = series if sc.exact else series.floats
    n = t.size
    total = sc.zeros((n, n), complex)
    bound = t.nilpotency_bound
    top = series.truncation if bound is None else min(series.truncation, bound)
    prev = None
    for deg in range(0, top + 1):
        inc = sc.zeros((n, n), complex)
        for alpha in compositions(deg, t.num_vars):
            c = series.coeff(alpha)
            if c == 0:
                continue
            scalar = c * monomial_value(point, alpha).conjugate()
            inc = inc + sc.monomial(scalar) * sc.array(_product_power(t, alpha))
        total = total + inc
        prev = max_abs(inc)
    if bound is None and top > 0 and prev > STOP_TOL:
        raise ConvergenceError("operator series did not settle")
    return total


def _same(a, b):
    """Exact arrays entry by entry with ==, float arrays bit for bit."""
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert all(x == y for x, y in zip(a.flat, b.flat))
    else:
        assert np.array_equal(a, b)


def _assert_walker_matches_references(t, kernel, points):
    """The b-sum, the purity sum and k_z(T)*, b_z(T)* agree with the reference loops."""
    b = reciprocal_complement(kernel)
    total, exact_stop = conjugated_sum(t, b)
    ref, _, _, ref_exact = _conjugated_sum_reference(t, b)
    _same(total, ref)
    assert exact_stop == ref_exact
    defect_sq = t.identity() - total
    total, exact_stop = conjugated_sum(t, kernel, middle=defect_sq)
    ref, _, _, ref_exact = _conjugated_sum_reference(t, kernel, middle=defect_sq, include_zero=True)
    _same(total, ref)
    assert exact_stop == ref_exact
    for point in points:
        for series in (kernel, b):
            _same(operator_series(t, series, point), _operator_series_reference(t, series, point))


class TestGradedWalker:
    """conjugated_sum and operator_series against the loops they replaced."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("degree_cut", [1, 2, 3])
    def test_exact_weighted_models(self, dim, degree_cut):
        k = bergman_kernel(2, dim, 12)
        t = model_tuple(k, dim, degree_cut, mode="exact")
        assert t.weights is not None
        _assert_walker_matches_references(t, k, [(0.3 + 0.1j,) * dim])

    def test_float_model_and_compression(self):
        k = bergman_kernel(2, 2, 24)
        t = model_tuple(k, 2, 2, mode="float")
        tc = random_coinvariant_compression(t, np.random.default_rng(5))
        for ops in (t, tc):
            _assert_walker_matches_references(ops, k, [np.array([0.2 - 0.3j, 0.1j]), np.array([0.3, -0.2])])

    def test_rational_point(self):
        k = szego_kernel(1, 8)
        t = model_tuple(k, 1, 2, mode="exact")
        t = OperatorTuple(t.mats, None, t.basis_labels, t.nilpotency_bound, t.kernel)
        _assert_walker_matches_references(t, k, [[Fraction(1, 2)], [Fraction(-2, 3)]])

    def test_float_model_with_non_integral_coefficients(self):
        """DA*Dirichlet in d = 2: the float lifts are the float view's, one ulp off the float of the exact lift."""
        k = cauchy_product(drury_arveson_kernel(2, 12), dirichlet_kernel(2, 12))
        # from degree 5 on, some lifts of k and b differ from the float of the exact lift
        t = model_tuple(k, 2, 6, mode="float")
        tc = random_coinvariant_compression(t, np.random.default_rng(7))
        for ops in (t, tc):
            _assert_walker_matches_references(ops, k, [np.array([0.2 - 0.3j, 0.1j]), np.array([0.3, -0.2])])

    @pytest.mark.parametrize("truncation", [40, 80])
    @pytest.mark.parametrize("kernel", [szego_kernel, dirichlet_kernel])
    def test_non_nilpotent_scalar(self, kernel, truncation):
        t = OperatorTuple((np.array([[0.5]]),), None, None, None, None)
        _assert_walker_matches_references(t, kernel(1, truncation), [[0.6], [0.3 + 0.4j]])

    def test_operator_series_convergence_error(self):
        t = OperatorTuple((np.array([[0.999]]),), None, None, None, None)
        dirichlet = dirichlet_kernel(1, 80)
        with pytest.raises(ConvergenceError):
            operator_series(t, dirichlet, [0.9])
        with pytest.raises(ConvergenceError):
            _operator_series_reference(t, dirichlet, [0.9])


class TestSerialization:
    def test_float_round_trip(self):
        from cnpchar.operators import tuple_from_spec, tuple_to_spec

        t = model_tuple(bergman_kernel(2, 2, 10), 2, 2, mode="float")
        back = tuple_from_spec(tuple_to_spec(t))
        assert all(max_abs(a - b) == 0 for a, b in zip(t.mats, back.mats))
        assert back.basis_labels == t.basis_labels
        assert back.nilpotency_bound == t.nilpotency_bound
        assert back.kernel.coefficients == t.kernel.coefficients

    def test_exact_round_trip(self):
        from cnpchar.operators import tuple_from_spec, tuple_to_spec

        t = model_tuple(bergman_kernel(2, 1, 10), 1, 2, mode="exact")
        spec = tuple_to_spec(t)
        assert spec["mode"] == "exact"
        assert spec["weights"][1] == "1/2"
        back = tuple_from_spec(spec)
        assert all(x == y for a, b in zip(t.mats, back.mats) for x, y in zip(a.flat, b.flat))
        assert list(back.weights) == list(t.weights)

    def test_json_compatible(self):
        import json

        from cnpchar.operators import tuple_from_spec, tuple_to_spec

        t = model_tuple(dirichlet_kernel(1, 8), 1, 1, mode="exact")
        wire = json.dumps(tuple_to_spec(t))
        back = tuple_from_spec(json.loads(wire))
        assert back.weights[1] == Fraction(2)

    def test_malformed_rejected(self):
        from cnpchar.operators import tuple_from_spec

        with pytest.raises(ValueError):
            tuple_from_spec({"matrices": [[[0.0]]]})
        with pytest.raises(ValueError):
            tuple_from_spec({"mode": "nope", "matrices": [[[0.0]]]})

    def test_nilpotency_bound_is_checked(self):
        """T^alpha at every |alpha| = bound + 1 must vanish: exactly for exact tuples, to rounding for float ones."""
        from cnpchar.operators import tuple_from_spec, tuple_to_spec

        k = bergman_kernel(2, 2, 12)
        for mode in ("exact", "float"):
            spec = tuple_to_spec(model_tuple(k, 2, 2, mode=mode))
            assert tuple_from_spec(spec).nilpotency_bound == 2
            with pytest.raises(ValueError, match="^tuple spec field 'nilpotency_bound': T\\^\\(2, 0\\) is not zero"):
                tuple_from_spec({**spec, "nilpotency_bound": 1})
        # a co-invariant compression of a model tuple: its powers at bound + 1 are rounding dust
        tc = random_coinvariant_compression(model_tuple(k, 2, 3, mode="float"), np.random.default_rng(3))
        back = tuple_from_spec(tuple_to_spec(tc))
        assert back.nilpotency_bound == tc.nilpotency_bound == 3
        dust = max(max_abs(back.mats[i] @ back.mats[j] @ back.mats[0] @ back.mats[0]) for i in (0, 1) for j in (0, 1))
        assert 0 < dust < 1e-12
        assert tuple_from_spec({"mode": "exact", "matrices": [[[0, 0], [1, 0]]], "nilpotency_bound": 1}).size == 2
        with pytest.raises(ValueError, match="nilpotency_bound"):
            tuple_from_spec({"mode": "exact", "matrices": [[["1/2"]]], "nilpotency_bound": 3})


class TestPickFactorPurityExact:
    def test_s_weighted_conjugation_is_identity_exactly(self):
        """The model of k is a pure 1/s-contraction in exact arithmetic: the
        s-weighted conjugation of the squared pick defect is the identity."""
        from cnpchar.operators import conjugated_sum

        k = bergman_kernel(2, 1, 16)
        s = drury_arveson_kernel(1, 16)
        for degree_cut in (1, 2, 3):
            t = model_tuple(k, 1, degree_cut, mode="exact")
            dd = defect_data(t, k, pick_factor=s)
            total, exact_stop = conjugated_sum(t, s, middle=dd.pick_defect_sq)
            assert exact_stop
            gap = total - t.identity()
            assert all(x == 0 for x in gap.flat)


class TestConvergenceHandling:
    def test_no_convergence_error(self):
        # a non-nilpotent contraction against a kernel with slowly decaying b
        t = OperatorTuple((np.array([[0.999]]),), None, None, None, None)
        with pytest.raises(ConvergenceError, match="by degree 10"):
            defect_data(t, dirichlet_kernel(1, 10))

    def test_unsettled_at_truncation_48(self):
        """Below degree 64 too, a sum that reaches the truncation unsettled is an error, not a verdict."""
        t = OperatorTuple((np.array([[0.999]]),), None, None, None, None)
        with pytest.raises(ConvergenceError, match="by degree 48"):
            defect_data(t, dirichlet_kernel(1, 48))

    def test_scalar_contraction_converges(self):
        t = OperatorTuple((np.array([[0.5]]),), None, None, None, None)
        dd = defect_data(t, szego_kernel(1, 40))
        assert abs(dd.defect_sq[0, 0] - 0.75) < 1e-14


class TestOperatorSeriesStack:
    """operator_series over a (P, d) stack of points: one walk, one stopping rule."""

    def test_one_unsettled_point_raises(self):
        t = OperatorTuple((np.array([[0.999]]),), None, None, None, None)
        dirichlet = dirichlet_kernel(1, 80)
        operator_series(t, dirichlet, [0.1])
        with pytest.raises(ConvergenceError):
            operator_series(t, dirichlet, [[0.1], [0.9]])

    def test_stack_equals_points(self):
        k = bergman_kernel(2, 2, 24)
        t = random_coinvariant_compression(model_tuple(k, 2, 2, mode="float"), np.random.default_rng(5))
        points = [np.array([0.2 - 0.3j, 0.1j]), np.array([0.3 + 0.1j, -0.2]), np.array([0.0, 0.4j])]
        stack = operator_series(t, k, points)
        assert stack.shape == (3, t.size, t.size)
        for got, z in zip(stack, points):
            assert np.array_equal(got, operator_series(t, k, z))
