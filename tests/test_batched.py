"""The batched pointwise checks against the per-point loops they replaced.

Every identity the suite checks at sample points is evaluated over the whole
stack of points at once. The functions below are the per-point loops from
before that change, kept as test-only references: monomials from
``monomial_value``, kernel values by scalar Horner, theta by a sum over the
nonzero Taylor entries per point and one spectral norm per point. The
batched residuals must equal them bit for bit.
"""

from fractions import Fraction

import numpy as np
import pytest

from cnpchar._linalg import adjoint, max_abs, point_stack, to_float_array
from cnpchar.charfn import (
    align_factorizations,
    build_charfn,
    evaluation_gap,
    inverse_identity_residual,
    pointwise_identity_residual,
    row_symbol_margin,
    theta_taylor_at,
)
from cnpchar.dilation import MonomialWindow, build_dilation, kernel_vector_gap
from cnpchar.multiindex import BlockSpace, monomial_value
from cnpchar.operators import defect_data, model_tuple, operator_series
from cnpchar.presets import config_rng, configuration, sample_points
from cnpchar.series import (
    cauchy_product,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    reciprocal_complement,
)

# d = 1 and d = 2, graded models and their co-invariant compressions, and a
# pick factor with infinitely many nonzero b coefficients (Dirichlet)
CONFIGS = (
    "jordan",
    "two_cells",
    "k2_da_d1_n2",
    "k2_da_d2_n2",
    "k3_da_d2_n1",
    "dadir_dir_d1_n1",
    "k2_da_d1_n3_c",
    "k2_da_d2_n2_c",
)


def _spectral_norm_reference(a):
    if a.size == 0:
        return 0.0
    a = to_float_array(a)
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.conj().T):
        return float(np.abs(np.linalg.eigvalsh(a)).max())
    return float(np.linalg.norm(a, 2))


def _monomials_reference(space, point):
    return np.array([monomial_value(point, lab) for lab in space.labels])


def _kernel_value_reference(kernel, z, w):
    t = sum(zi * wi.conjugate() for zi, wi in zip(z, w))
    coeffs = kernel.floats.coefficients
    value = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        value = value * t + a
    return value


def _theta_reference(cfd, point):
    """theta at one point: each entry sums monomial x coefficient over its nonzero coefficients, labels ascending."""
    sp = cfd.ops.scalars.at(point)
    monomials = sp.monomial(_monomials_reference(cfd.taylor.space, point))
    coeffs = sp.array(cfd.taylor.coefficients)
    out = sp.zeros(coeffs.shape[1:], complex)
    for label, i, j in zip(*np.nonzero(coeffs)):
        out[i, j] += monomials[label] * coeffs[label, i, j]
    return out


def _theta_tensordot(cfd, point):
    """theta at one point as one dense vector-matrix ``tensordot``, the form before the sums over nonzero entries."""
    sp = cfd.ops.scalars.at(point)
    monomials = _monomials_reference(cfd.taylor.space, point)
    return np.tensordot(sp.monomial(monomials), sp.array(cfd.taylor.coefficients), axes=1)


def _scaled_blocks_reference(space, series, point, blocks, sp):
    monomials = sp.monomial(_monomials_reference(space, point))
    lifted = series if sp.exact else series.floats
    weights = [sp.sqrt(lifted.coeff(lab)) * m for lab, m in zip(space.labels, monomials)]
    stack = sp.array(blocks).reshape(len(space.labels), space.block_dim, blocks.shape[1])
    return np.tensordot(np.array(weights), stack, axes=1)


def _evaluation_gap_reference(cfd, point):
    t = cfd.ops
    sp = t.scalars.at(point)
    direct = _scaled_blocks_reference(cfd.g_support, cfd.factorization.positive_part, point, cfd.d_block.matrix, sp)
    kz_adj = operator_series(t, cfd.kernel, point).conj().T
    b = reciprocal_complement(cfd.pick_factor)
    zb = _scaled_blocks_reference(cfd.b_support, b, point, cfd.b_block, sp)
    qd_adj = sp.array(cfd.defect.ran_defect_basis.conj().T)
    direct = direct + qd_adj @ sp.array(cfd.defect.defect) @ kz_adj @ zb
    taylor_sum = _theta_reference(cfd, point)
    return taylor_sum, max_abs(np.asarray(direct) - np.asarray(taylor_sum))


def _pointwise_identity_reference(cfd, pairs):
    t = cfd.ops
    q = to_float_array(cfd.defect.ran_defect_basis)
    delta = to_float_array(cfd.defect.defect)
    eye = np.eye(cfd.fiber_dim)
    worst = 0.0
    for z, w in pairs:
        tz = np.asarray(_theta_reference(cfd, z), dtype=complex)
        tw = np.asarray(_theta_reference(cfd, w), dtype=complex)
        s_val = complex(_kernel_value_reference(cfd.pick_factor, z, w))
        k_val = complex(_kernel_value_reference(cfd.kernel, z, w))
        kz_adj = operator_series(t, cfd.kernel, z).conj().T
        kw = operator_series(t, cfd.kernel, w)
        mid = q.conj().T @ delta @ kz_adj @ kw @ delta @ q
        gap = s_val * (tz @ tw.conj().T) - k_val * eye + mid
        worst = max(worst, _spectral_norm_reference(gap))
    return worst


def _inverse_identity_reference(cfd, points):
    t = cfd.ops
    space = cfd.b_support
    b = space.lift(reciprocal_complement(cfd.pick_factor).floats)
    labels, stack = t.powers(max(sum(alpha) for alpha in space.labels))
    powers = [to_float_array(adjoint(stack[labels.index[alpha]])) for alpha in space.labels]
    worst = 0.0
    for z in points:
        g_adj = operator_series(t, cfd.factorization.positive_part, z).conj().T
        k_adj = operator_series(t, cfd.kernel, z).conj().T
        zr = sum(c * p for c, p in zip(b * _monomials_reference(space, z).astype(complex), powers))
        gap = g_adj - k_adj @ (np.eye(t.size) - zr)
        worst = max(worst, _spectral_norm_reference(gap))
    return worst


def _row_symbol_margin_reference(cfd, points):
    space = cfd.b_support
    b = space.lift(reciprocal_complement(cfd.pick_factor).floats)
    margin = np.inf
    mismatch = 0.0
    for z in points:
        value = 1.0 - sum(c * abs(complex(m)) ** 2 for c, m in zip(b, _monomials_reference(space, z)))
        margin = min(margin, value)
        s_val = _kernel_value_reference(cfd.pick_factor, z, z)
        mismatch = max(mismatch, abs(value - 1.0 / float(abs(complex(s_val)))))
    return margin, mismatch


def _kernel_vector_reference(window, point, fiber):
    scaled = window._root_coefficients * np.conjugate(_monomials_reference(window, point))
    return np.multiply.outer(scaled, fiber).reshape(window.dim).astype(complex)


def _kernel_vector_gap_reference(dil, point, fiber):
    vec = _kernel_vector_reference(dil.window, point, fiber)
    lhs = np.asarray(dil.matrix, dtype=complex).conj().T @ vec
    dd = dil.defect
    series = operator_series(dd.ops, dd.kernel, point)
    rhs = series @ to_float_array(dd.defect) @ (to_float_array(dd.ran_defect_basis) @ fiber)
    return rhs, float(np.linalg.norm(lhs - rhs))


@pytest.fixture(scope="module", params=CONFIGS)
def built(request):
    config = configuration(request.param)
    dd = defect_data(config.ops, config.kernel, config.pick_factor)
    cfd = build_charfn(dd, config.factorization, support_cap=config.support_cap, constant_cap=config.constant_cap)
    dil = build_dilation(dd, config.source_degree + cfd.taylor.max_degree)
    rng = config_rng(3, config.name)
    points = sample_points(rng, 12, config.dim, config.sample_scale)
    others = sample_points(rng, 12, config.dim, config.sample_scale)
    return cfd, dil, points, others


class TestBatchedEqualsPerPoint:
    def test_pointwise_identity(self, built):
        cfd, _, points, others = built
        pairs = list(zip(points, others))
        assert pointwise_identity_residual(cfd, pairs) == _pointwise_identity_reference(cfd, pairs)

    def test_inverse_identity(self, built):
        cfd, _, points, _ = built
        assert inverse_identity_residual(cfd, points) == _inverse_identity_reference(cfd, points)

    def test_row_symbol_margin(self, built):
        cfd, _, points, _ = built
        assert row_symbol_margin(cfd, points) == _row_symbol_margin_reference(cfd, points)

    def test_evaluation_gap(self, built):
        cfd, _, points, _ = built
        taylor, gap = evaluation_gap(cfd, points[:5])
        refs = [_evaluation_gap_reference(cfd, z) for z in points[:5]]
        assert gap == max(g for _, g in refs)
        for got, (ref, _), z in zip(taylor, refs, points):
            assert np.array_equal(got, ref)
            dense = np.asarray(_theta_tensordot(cfd, z), dtype=complex)
            assert max_abs(np.asarray(ref, dtype=complex) - dense) <= 1e-15 * max_abs(dense)

    def test_kernel_vector_gap(self, built):
        _, dil, points, _ = built
        rng = np.random.default_rng(11)
        fibers = rng.standard_normal((len(points), dil.fiber_dim))
        rhs, gap = kernel_vector_gap(dil, points, fibers)
        refs = [_kernel_vector_gap_reference(dil, z, f) for z, f in zip(points, fibers)]
        assert gap == max(g for _, g in refs)
        for got, (ref, _) in zip(rhs, refs):
            assert np.array_equal(got, ref)
        vecs = dil.window.kernel_vector(points, fibers)
        for got, z, f in zip(vecs, points, fibers):
            assert np.array_equal(got, _kernel_vector_reference(dil.window, z, f))

    def test_typed_stacks_equal_their_rows_and_their_points(self, built):
        """An ndarray stack, the same rows as a list and each point alone give the same bits, complex or real."""
        cfd, dil, points, _ = built
        fibers = np.random.default_rng(5).standard_normal((len(points), dil.fiber_dim))
        for stack in (points, points.real.copy()):
            assert isinstance(stack, np.ndarray) and stack.shape == (12, cfd.ops.num_vars)
            for form in (lambda p: operator_series(cfd.ops, cfd.kernel, p), lambda p: theta_taylor_at(cfd, p)):
                got = form(stack)
                assert got.tobytes() == form(list(stack)).tobytes()
                assert got.tobytes() == np.array([form(p) for p in stack]).tobytes()
            got = dil.window.kernel_vector(stack, fibers)
            assert got.tobytes() == dil.window.kernel_vector(list(stack), fibers).tobytes()
            assert got.tobytes() == np.array([dil.window.kernel_vector(p, f) for p, f in zip(stack, fibers)]).tobytes()

    def test_single_point_forms(self, built):
        """A (d,) point gives the unstacked result of a stack of one."""
        cfd, dil, points, others = built
        z, w = points[0], others[0]
        assert np.array_equal(evaluation_gap(cfd, z)[0], evaluation_gap(cfd, [z])[0][0])
        fiber = np.ones(dil.fiber_dim)
        assert np.array_equal(kernel_vector_gap(dil, z, fiber)[0], kernel_vector_gap(dil, [z], [fiber])[0][0])
        value = cfd.kernel.evaluate(z, w, truncated=True).value
        assert value == cfd.kernel.evaluate([z], [w], truncated=True).value[0]
        assert value == _kernel_value_reference(cfd.kernel, z, w)


def test_alignment_matches_per_point_families():
    """The alignment family and the reference Gram, against their per-point forms."""
    da, dirichlet = drury_arveson_kernel(1, 48), dirichlet_kernel(1, 48)
    kernel = cauchy_product(da, dirichlet)
    t = model_tuple(kernel, 1, 1, mode="float")
    dd = defect_data(t, kernel, da)
    cfd1 = build_charfn(dd, factor_through_pick(kernel, da), support_cap=14, constant_cap=14)
    cfd2 = build_charfn(
        defect_data(t, kernel, dirichlet), factor_through_pick(kernel, dirichlet), support_cap=14, constant_cap=14
    )
    points = sample_points(config_rng(0, "alignment"), 9, 1, 0.5)
    got = align_factorizations(cfd1, cfd2, points, source_degree=18)

    def family(cfd):
        window = MonomialWindow(cfd.pick_factor, cfd.domain_dim, 18)
        cols = []
        for z in points:
            theta_adj = np.asarray(_theta_reference(cfd, z), dtype=complex).conj().T
            for a in range(cfd.fiber_dim):
                cols.append(_kernel_vector_reference(window, z, theta_adj[:, a]))
        return np.array(cols).T

    fam1, fam2 = family(cfd1), family(cfd2)
    gram1, gram2 = fam1.conj().T @ fam1, fam2.conj().T @ fam2
    assert got.gram_residual == max_abs(gram1 - gram2)
    r = cfd1.fiber_dim
    dq = to_float_array(dd.defect) @ to_float_array(dd.ran_defect_basis)
    series = [operator_series(t, kernel, z).astype(complex) @ dq for z in points]
    gram_ref = np.zeros((len(points) * r, len(points) * r), dtype=complex)
    for i, zi in enumerate(points):
        for j, zj in enumerate(points):
            k_val = complex(_kernel_value_reference(kernel, zi, zj))
            gram_ref[i * r : (i + 1) * r, j * r : (j + 1) * r] = k_val * np.eye(r) - series[i].conj().T @ series[j]
    assert got.reference_residual == max(max_abs(gram1 - gram_ref), max_abs(gram2 - gram_ref))


def test_rational_stack_stays_exact():
    """A stack of rational points keeps Fraction arithmetic in every batched form."""
    config = configuration("jordan")
    k = config.kernel
    t = model_tuple(k, 1, 2, mode="exact")
    points = [[Fraction(1, 2)], [Fraction(-1, 3)], [0]]
    stack = operator_series(t, k, points)
    assert stack.dtype == object and all(isinstance(x, (Fraction, int)) for x in stack.flat)
    for got, z in zip(stack, points):
        assert all(x == y for x, y in zip(got.flat, operator_series(t, k, z).flat))
    values = k.evaluate(points, points, truncated=True).value
    assert all(isinstance(v, Fraction) for v in values)
    assert list(values) == [k.evaluate(z, z, truncated=True).value for z in points]
    monomials = BlockSpace(t.basis_labels, 1).monomials(points)
    assert monomials.dtype == object
    assert [list(row) for row in monomials] == [[monomial_value(z, lab) for lab in t.basis_labels] for z in points]


def test_sample_points_are_the_complex_stack_they_run_as():
    """sample_points gives complex128; point_stack hands the array back uncopied and stacks the pairs' rows unconverted."""
    rng = config_rng(5, "k2_da_d2_n2")
    points, others = sample_points(rng, 6, 2), sample_points(rng, 6, 2)
    assert points.dtype == complex and point_stack(points)[0] is points
    rows = [p for side in zip(*zip(points, others)) for p in side]  # as pointwise_identity_residual builds them
    both = point_stack(rows)[0]
    assert both.dtype == complex and both.tobytes() == np.concatenate([points, others]).tobytes()


def test_real_and_python_points_run_as_their_complex_view(built):
    """Float64 stacks, rows of Python floats and mixed float/complex rows give their complex128 view's bits.

    Rational stacks stay exact: their monomials and kernel values are Fractions.
    """
    cfd, _, points, _ = built
    real = points.real.copy()
    python = [[float(x) for x in row] for row in real]
    mixed = list(real[:6]) + list(points[6:])
    space, t, k = cfd.taylor.space, cfd.ops, cfd.kernel
    for stack in (real, python, mixed):
        view = np.array(stack, dtype=complex)
        assert space.monomials(stack).tobytes() == space.monomials(view).tobytes()
        assert operator_series(t, k, stack).tobytes() == operator_series(t, k, view).tobytes()
        got, want = k.evaluate(stack, stack[::-1]), k.evaluate(view, view[::-1])
        assert got.value.tobytes() == want.value.tobytes() and got.tail_bound.tobytes() == want.tail_bound.tobytes()
        assert theta_taylor_at(cfd, stack).tobytes() == theta_taylor_at(cfd, view).tobytes()
    rational = [[Fraction(1, 4)] * t.num_vars, [Fraction(-1, 3)] + [0] * (t.num_vars - 1)]
    assert all(isinstance(x, (Fraction, int)) for x in space.monomials(rational).flat)
    assert all(isinstance(v, Fraction) for v in k.evaluate(rational, rational, truncated=True).value)
