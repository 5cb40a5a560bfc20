import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpchar.multiindex import degree, enumerate_up_to_degree
from cnpchar.series import (
    FactorizationError,
    KernelFactorization,
    KernelSeries,
    RealSeries,
    admissibility_report,
    bergman_kernel,
    cauchy_product,
    contraction_diagonal,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    is_complete_pick,
    is_positive_quotient,
    kernel_from_coefficients,
    kernel_from_spec,
    kernel_to_spec,
    quotient,
    reciprocal_complement,
    szego_kernel,
    _sign_certificate,
)


def newton_series_inverse(a, order):
    """Independent oracle: invert a power series by Newton doubling.

    Solves q = 1/a mod t^(order+1) via q <- q (2 - a q), a different
    algorithmic route than the forward recurrence under test.
    """
    q = [Fraction(1, 1) / a[0]]
    precision = 1
    while precision <= order:
        precision = min(2 * precision, order + 1)
        aq = [sum(a[i] * q[m - i] for i in range(min(m, len(a) - 1) + 1) if m - i < len(q)) for m in range(precision)]
        two_minus = [2 - aq[0]] + [-c for c in aq[1:]]
        q = [sum(q[i] * two_minus[m - i] for i in range(min(m, len(q) - 1) + 1)) for m in range(precision)]
    return q[: order + 1]


rational_kernels = st.lists(
    st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8)), min_size=3, max_size=9
).map(lambda tail: kernel_from_coefficients([Fraction(1)] + tail, 1))


class TestReciprocalComplement:
    def test_szego(self):
        b = reciprocal_complement(szego_kernel(1, 12))
        assert b.coefficients[1] == 1
        assert all(c == 0 for c in b.coefficients[2:])

    def test_bergman_two(self):
        # 1 - (1-t)^2 = 2t - t^2
        b = reciprocal_complement(bergman_kernel(2, 1, 12))
        assert b.coefficients[1] == 2
        assert b.coefficients[2] == -1
        assert all(c == 0 for c in b.coefficients[3:])

    def test_dirichlet_against_newton_inverse(self):
        k = dirichlet_kernel(1, 16)
        b = reciprocal_complement(k)
        inverse = newton_series_inverse(list(k.coefficients), 16)
        expected = [Fraction(0)] + [-c for c in inverse[1:]]
        assert list(b.coefficients) == expected
        assert b.coefficients[1] == Fraction(1, 2)
        assert b.coefficients[2] == Fraction(1, 12)
        assert b.coefficients[3] == Fraction(1, 24)

    @given(rational_kernels)
    @settings(max_examples=40)
    def test_matches_newton_inverse(self, k):
        b = reciprocal_complement(k)
        inverse = newton_series_inverse(list(k.coefficients), k.truncation)
        assert list(b.coefficients[1:]) == [-c for c in inverse[1:]]

    @given(rational_kernels)
    @settings(max_examples=40)
    def test_reciprocal_round_trip(self, k):
        """(1 - sum b) * k = 1 exactly up to truncation."""
        b = reciprocal_complement(k)
        one_minus_b = RealSeries(tuple(1 - c if n == 0 else -c for n, c in enumerate(b.coefficients)), 1)
        prod = cauchy_product(one_minus_b, k)
        assert prod.coefficients[0] == 1
        assert all(c == 0 for c in prod.coefficients[1:])


class TestCachedReciprocalComplement:
    def test_computed_once_per_kernel(self):
        k = bergman_kernel(3, 2, 16)
        assert reciprocal_complement(k) is reciprocal_complement(k)

    def test_float_copy_has_its_own_float_b(self):
        k = dirichlet_kernel(1, 24)
        exact = reciprocal_complement(k)
        approx = reciprocal_complement(k.floats)
        assert approx is not exact
        assert all(isinstance(c, float) for c in approx.coefficients)
        for e, f in zip(exact.coefficients[1:], approx.coefficients[1:]):
            assert math.isclose(f, float(e), rel_tol=1e-12)

    def test_cache_leaves_equality_hash_and_repr_alone(self):
        filled, fresh = bergman_kernel(2, 2, 12), bergman_kernel(2, 2, 12)
        reciprocal_complement(filled)
        assert "b" in vars(filled) and "b" not in vars(fresh)
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)


class TestCompletePick:
    def test_drury_arveson_holds(self):
        assert is_complete_pick(drury_arveson_kernel(3, 40)).holds

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_bergman_fails_at_two(self, m):
        cert = is_complete_pick(bergman_kernel(m, 1, 20))
        assert not cert.holds
        assert cert.first_negative == 2

    def test_dirichlet_holds_exactly(self):
        cert = is_complete_pick(dirichlet_kernel(1, 50))
        assert cert.holds and cert.first_negative is None and cert.tolerance == 0.0

    def test_drury_arveson_holds_at_every_truncation(self):
        for truncation in range(1, 51):
            assert is_complete_pick(drury_arveson_kernel(2, truncation)).holds


class TestCauchyProduct:
    def test_szego_squared_is_bergman_two(self):
        prod = cauchy_product(szego_kernel(1, 20), szego_kernel(1, 20))
        # (1-t)^(-2) = sum (n+1) t^n
        assert all(c == n + 1 for n, c in enumerate(prod.coefficients))
        assert isinstance(prod, KernelSeries)

    def test_identity_element(self):
        k = dirichlet_kernel(1, 10)
        one = RealSeries((Fraction(1),) + (Fraction(0),) * 10, 1)
        assert cauchy_product(k, one).coefficients == k.coefficients

    def test_against_brute_force(self):
        p = dirichlet_kernel(1, 8)
        q = bergman_kernel(2, 1, 8)
        prod = cauchy_product(p, q)
        for m in range(9):
            expected = Fraction(0)
            for i in range(m + 1):
                expected += p.coefficients[i] * q.coefficients[m - i]
            assert prod.coefficients[m] == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cauchy_product(szego_kernel(1, 5), szego_kernel(2, 5))


class TestQuotient:
    def test_bergman_ladder(self):
        q = quotient(bergman_kernel(2, 1, 15), bergman_kernel(1, 1, 15))
        assert all(c == 1 for c in q.coefficients)

    def test_self_quotient(self):
        q = quotient(dirichlet_kernel(1, 10), dirichlet_kernel(1, 10))
        assert q.coefficients[0] == 1 and all(c == 0 for c in q.coefficients[1:])

    def test_inverted_ladder_goes_negative(self):
        q = quotient(bergman_kernel(1, 1, 15), bergman_kernel(2, 1, 15))
        assert q.coefficients[0] == 1
        assert q.coefficients[1] == -1
        assert all(c == 0 for c in q.coefficients[2:])
        cert = is_positive_quotient(bergman_kernel(1, 1, 15), bergman_kernel(2, 1, 15))
        assert not cert.holds and cert.first_negative == 1

    @given(rational_kernels, rational_kernels)
    @settings(max_examples=40)
    def test_round_trip(self, k, l):
        n = min(k.truncation, l.truncation)
        q = quotient(k, l)
        back = cauchy_product(l, q)
        assert back.coefficients[: n + 1] == k.coefficients[: n + 1]

    def test_positive_quotient_examples(self):
        assert is_positive_quotient(bergman_kernel(3, 1, 20), bergman_kernel(1, 1, 20)).holds
        assert is_positive_quotient(bergman_kernel(2, 1, 20), bergman_kernel(2, 1, 20)).holds


class TestFactorization:
    def test_bergman_two_through_drury_arveson(self):
        fac = factor_through_pick(bergman_kernel(2, 1, 20), drury_arveson_kernel(1, 20))
        assert all(c == 1 for c in fac.positive_part.coefficients)

    def test_dirichlet_square_recovers_factor(self):
        d = dirichlet_kernel(1, 16)
        k = cauchy_product(d, d)
        fac = factor_through_pick(k, d)
        assert fac.positive_part.coefficients == d.coefficients

    def test_non_pick_factor_rejected(self):
        with pytest.raises(ValueError, match="Nevanlinna-Pick"):
            factor_through_pick(bergman_kernel(1, 1, 20), bergman_kernel(2, 1, 20))

    def test_negative_quotient_rejected(self):
        # dirichlet / DA has a negative coefficient, so DA is not a factor
        with pytest.raises(FactorizationError, match="not a factorization"):
            factor_through_pick(dirichlet_kernel(1, 20), drury_arveson_kernel(1, 20))

    def test_coefficient_monotonicity(self):
        k = cauchy_product(drury_arveson_kernel(2, 16), dirichlet_kernel(2, 16))
        fac = factor_through_pick(k, drury_arveson_kernel(2, 16))
        for n in range(fac.truncation + 1):
            assert fac.pick_factor.coefficients[n] <= k.coefficients[n]
            assert fac.positive_part.coefficients[n] <= k.coefficients[n]

    def test_product_identity_enforced(self):
        k = bergman_kernel(2, 1, 10)
        s = drury_arveson_kernel(1, 10)
        bad = RealSeries((Fraction(1),) * 11, 1)
        wrong = RealSeries((Fraction(1), Fraction(2)) + (Fraction(1),) * 9, 1)
        KernelFactorization(k, s, bad)  # correct one passes
        with pytest.raises(FactorizationError):
            KernelFactorization(k, s, wrong)


def _cauchy_reference(pa, qa):
    """The loop of ``cauchy_product`` over the scalars it is given."""
    return tuple(sum(pa[i] * qa[m - i] for i in range(m + 1)) for m in range(min(len(pa), len(qa))))


def _quotient_reference(a, l):
    """The loop of ``quotient`` over the scalars it is given."""
    q = []
    for m in range(min(len(a), len(l))):
        q.append(a[m] - sum(q[i] * l[m - i] for i in range(m)))
    return tuple(q)


def _b_reference(a):
    """The b recurrence of ``KernelSeries.b`` over the scalars it is given."""
    inv = [a[0] ** 0]
    for n in range(1, len(a)):
        inv.append(-sum(a[i] * inv[n - i] for i in range(1, n + 1)))
    return tuple([0 * inv[0]] + [-c for c in inv[1:]])


def _same(got, expected):
    """Equal entry by entry, scalar type included."""
    return tuple(got) == tuple(expected) and [type(c) for c in got] == [type(c) for c in expected]


def _assert_matches_reference(k, l):
    assert _same(cauchy_product(k, l).coefficients, _cauchy_reference(k.coefficients, l.coefficients))
    assert _same(quotient(k, l).coefficients, _quotient_reference(k.coefficients, l.coefficients))
    assert _same(k.b.coefficients, _b_reference(k.coefficients))


# kernels whose coefficients are integers, stored as Fraction(n) or as int
integral_kernels = st.tuples(
    st.lists(st.integers(1, 60), min_size=1, max_size=12), st.sampled_from([Fraction, int])
).map(lambda drawn: kernel_from_coefficients([drawn[1](c) for c in [1] + drawn[0]], 1))


class TestIntegerPath:
    """Exact sequences run over their scaled views' ints and must equal the scalar loops exactly, type included."""

    @given(integral_kernels, integral_kernels)
    @settings(max_examples=60)
    def test_integral_kernels_match_the_reference(self, k, l):
        # Fraction(n) and plain-int input alike are held as Fractions, over ints with the denominator 1
        for kernel in (k, l):
            assert all(type(c) is Fraction for c in kernel.coefficients)
            assert all(type(c) is int for c in kernel.scaled.ints) and kernel.scaled.den == 1
        _assert_matches_reference(k, l)

    def test_integral_fractions_run_over_ints(self):
        k = bergman_kernel(3, 1, 6)
        ints, den = k.scaled
        assert all(type(c) is int for c in ints) and den == 1
        assert _same(tuple(map(Fraction, ints)), k.coefficients)

    @pytest.mark.parametrize("floats", [False, True], ids=["fraction", "float"])
    def test_other_kernels_take_the_reference_path(self, floats):
        k, s = dirichlet_kernel(1, 12), drury_arveson_kernel(1, 12)
        if floats:
            k, s = k.floats, s.floats
            assert k.scaled is None and s.scaled is None
        else:
            # Fractions run over ints times their common denominator, lcm(1..13) for Dirichlet
            den = math.lcm(*range(1, 14))
            assert k.scaled == ([den // (n + 1) for n in range(13)], den) and s.scaled == ([1] * 13, 1)
            assert _same(tuple(Fraction(c, den) for c in k.scaled.ints), k.coefficients)
        _assert_matches_reference(k, s)

    def test_dirichlet_type_kernels_match_the_reference_at_truncation_48(self):
        """The common-denominator path on DA*Dirichlet, Dirichlet and DA: the scalar loops' Fractions exactly."""
        da, dirichlet = drury_arveson_kernel(1, 48), dirichlet_kernel(1, 48)
        dadir = cauchy_product(da, dirichlet)
        assert _same(dadir.coefficients, _cauchy_reference(da.coefficients, dirichlet.coefficients))
        for k in (dadir, dirichlet, da):
            for l in (dadir, dirichlet, da):
                _assert_matches_reference(k, l)

    @given(rational_kernels, rational_kernels)
    @settings(max_examples=30)
    def test_rational_kernels_match_the_reference(self, k, l):
        _assert_matches_reference(k, l)

    def test_cauchy_check_catches_an_integral_part_off_by_one(self):
        k, s = bergman_kernel(2, 1, 10), drury_arveson_kernel(1, 10)
        g = [Fraction(1)] * 11
        KernelFactorization(k, s, RealSeries(tuple(g), 1))
        g[5] += 1
        with pytest.raises(FactorizationError, match="at degree 5:"):
            KernelFactorization(k, s, RealSeries(tuple(g), 1))


class TestAdmissibility:
    def test_szego_ratio(self):
        assert admissibility_report(szego_kernel(1, 20)).ratio_sup == 1

    def test_bergman_two_ratio(self):
        report = admissibility_report(bergman_kernel(2, 1, 20))
        # a_n / a_{n+1} = (n+1)/(n+2) increases toward 1; max at n = 19
        assert report.ratio_sup == Fraction(20, 21)
        assert report.verdict == "certified up to 20"

    def test_dirichlet_ratio(self):
        # (n+2)/(n+1) peaks at n = 0
        assert admissibility_report(dirichlet_kernel(1, 20)).ratio_sup == 2

    def test_partial_sum_bound_szego(self):
        report = admissibility_report(szego_kernel(1, 20))
        assert report.partial_sum_bound == 1

    @pytest.mark.parametrize("name", ["bergman2", "dirichlet", "da_dirichlet", "float_coeffs"])
    def test_matches_the_double_loop(self, name):
        """Both fields equal, value and type, those of the scalar double loop kept in ``_admissibility_reference``."""
        k = _diagonal_kernels(1, 16)[name] if name != "float_coeffs" else kernel_from_coefficients(
            [1.0, 0.2, 0.9, 0.05, 0.7, 0.3, 0.45], 2
        )
        report = admissibility_report(k)
        for got, want in zip((report.ratio_sup, report.partial_sum_bound), _admissibility_reference(k)):
            assert got == want and type(got) is type(want)
        if name == "float_coeffs":
            assert report.partial_sum_bound > 1


def _admissibility_reference(k):
    """(ratio_sup, partial_sum_bound) by the scalar double loop over n and d."""
    a = k.coefficients
    n_max = k.truncation
    ratio_sup = max((a[n] / a[n + 1] for n in range(n_max)), default=a[0] / a[0])
    b = reciprocal_complement(k).coefficients
    bound = 0 * a[0]
    for n in range(n_max + 1):
        partial = 0 * a[0]
        for d in range(0, n + 1):
            if d >= 1:
                partial += b[d] * a[n - d]
            value = 1 - partial / a[n]
            bound = max(bound, abs(value))
    return ratio_sup, bound


def _diagonal_kernels(dim, truncation):
    return {
        "bergman2": bergman_kernel(2, dim, truncation),
        "dirichlet": dirichlet_kernel(dim, truncation),
        "da_dirichlet": cauchy_product(drury_arveson_kernel(dim, truncation), dirichlet_kernel(dim, truncation)),
    }


class TestContractionDiagonal:
    @pytest.mark.parametrize("dim", [1, 2, 3], ids=lambda d: f"d{d}")
    def test_equals_the_multi_index_sum(self, dim):
        """At every label gamma with |gamma| <= 5, the value at d is
        1 - sum_{1 <= |alpha| <= d, alpha <= gamma} b_alpha a_{gamma-alpha} / a_gamma, exactly,
        for a and b from any two of Bergman 2, Dirichlet and DA*Dirichlet."""
        kernels = _diagonal_kernels(dim, 8).values()
        for k in kernels:
            for l in kernels:
                b = reciprocal_complement(l)
                for gamma in enumerate_up_to_degree(dim, 5):
                    n = degree(gamma)
                    values = contraction_diagonal(k, l, n, n)
                    assert len(values) == n + 1
                    for d, value in enumerate(values):
                        lowered = sum(
                            b.coeff(alpha) * k.coeff(tuple(g - a for g, a in zip(gamma, alpha)))
                            for alpha in itertools.product(*(range(g + 1) for g in gamma))
                            if 1 <= degree(alpha) <= d
                        )
                        assert value == 1 - lowered / k.coeff(gamma), (gamma, d)
                        assert isinstance(value, Fraction)

    def test_plain_int_kernel_is_exact(self):
        """A kernel of plain ints is exact, so its values are ``Fraction``s, as a kernel of Fractions' are."""
        k = KernelSeries((1, 2, 3, 4), 1)
        assert k.exact
        values = contraction_diagonal(k, k, 3, 3)
        assert values == [1, Fraction(-1, 2), 0, 0] and all(type(v) is Fraction for v in values)

    def test_partial_values_stop_at_top(self):
        k = bergman_kernel(2, 1, 8)
        assert contraction_diagonal(k, k, 6, 2) == contraction_diagonal(k, k, 6, 6)[:3]
        assert contraction_diagonal(k, k, 3, 0) == [1]

    @pytest.mark.parametrize("n, top", [(3, 4), (3, -1), (9, 1)], ids=["top_above_n", "negative_top", "n_beyond_truncation"])
    def test_out_of_range_rejected(self, n, top):
        k = bergman_kernel(2, 1, 8)
        with pytest.raises(ValueError, match="^need 0 <= top"):
            contraction_diagonal(k, k, n, top)


def _diagonal_reference(k, l, n, top):
    """The contraction diagonal by the literal loop: over ``Fraction``s for two exact kernels, else over the coefficients as they are."""
    a, b = k.coefficients, reciprocal_complement(l).coefficients
    if k.exact and l.exact:
        a, b = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    partial = 0 * a[0]
    values = [1 - partial / a[n]]
    for j in range(1, top + 1):
        partial += b[j] * a[n - j]
        values.append(1 - partial / a[n])
    return values


def _typed(values):
    """Each value with its type and repr, so that two lists compare in value, in type and, for floats, bit for bit."""
    return [(type(v), repr(v)) for v in values]


# kernels of each scalar kind: Fractions with denominators above 1 (Dirichlet-like), integral
# Fractions, plain ints and floats
_KINDS = {
    "rational": st.fractions(Fraction(1, 12), 8, max_denominator=12),
    "integral": st.integers(1, 40).map(Fraction),
    "int": st.integers(1, 40),
    "float": st.floats(0.05, 8.0),
}
any_kernels = st.sampled_from(sorted(_KINDS)).flatmap(
    lambda kind: st.lists(_KINDS[kind], min_size=1, max_size=8).map(
        lambda tail: kernel_from_coefficients([1.0 if kind == "float" else 1] + tail, 1)
    )
)


class TestScaledCertificates:
    """Exact certificates run over the scaled views' ints and must give what the literal loops give.

    Each test is derandomized with a fixed budget; together they take about 1.2 s of Tier-1.
    """

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(k=any_kernels, l=any_kernels, data=st.data())
    def test_contraction_diagonal_is_the_literal_loop(self, k, l, data):
        """Equal to the ``Fraction`` loop in value and type for exact input, to the float loop bit for bit otherwise."""
        n = data.draw(st.integers(0, k.truncation))
        top = data.draw(st.integers(0, min(n, l.truncation)))
        assert _typed(contraction_diagonal(k, l, n, top)) == _typed(_diagonal_reference(k, l, n, top))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        good=st.lists(st.fractions(Fraction(1, 12), 8, max_denominator=12), max_size=5),
        bad=st.one_of(st.just(Fraction(0)), st.fractions(-8, 0, max_denominator=12), st.integers(-5, 0)),
        at=st.integers(0, 5),
    )
    def test_a_non_positive_coefficient_is_refused_by_name(self, good, bad, at):
        """Zero and negative exact coefficients are refused with the message the ``a > 0`` test gave."""
        a = [Fraction(1)] + good
        a.insert(min(at, len(good)) + 1, bad)
        n = a.index(bad, 1)
        with pytest.raises(ValueError) as caught:
            KernelSeries(tuple(a), 1)
        assert str(caught.value) == f"coefficient a_{n} = {bad} is not strictly positive"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        coeffs=st.lists(
            st.one_of(st.fractions(-4, 4, max_denominator=12), st.integers(-3, 3), st.floats(-1e-11, 1e-11), st.floats(-4, 4)),
            min_size=1,
            max_size=10,
        ),
        start=st.integers(0, 2),
        tol=st.sampled_from([0.0, 1e-12]),
    )
    def test_sign_certificate_finds_the_same_first_negative(self, coeffs, start, tol):
        """The first negative index is the one of the literal ``c < 0`` (exact) or ``c < -tol`` (float) scan."""
        first = next(
            (n for n in range(start, len(coeffs)) if (coeffs[n] < 0 if isinstance(coeffs[n], (Fraction, int)) else coeffs[n] < -tol)),
            None,
        )
        cert = _sign_certificate(coeffs, start, tol)
        assert cert.first_negative == first and cert.holds == (first is None)

    def test_cauchy_check_names_a_rational_deviation(self):
        """Denominators above 1: a positive part off by 1/7 at degree 4 is named with the product's value, as a ``Fraction``."""
        k, s = cauchy_product(drury_arveson_kernel(1, 10), dirichlet_kernel(1, 10)), dirichlet_kernel(1, 10)
        g = [Fraction(1)] * 11
        KernelFactorization(k, s, RealSeries(tuple(g), 1))
        g[4] += Fraction(1, 7)
        product = cauchy_product(s, RealSeries(tuple(g), 1)).coefficients[4]
        with pytest.raises(FactorizationError, match=f"^product deviates from kernel at degree 4: {product} != {k.coefficients[4]}$"):
            KernelFactorization(k, s, RealSeries(tuple(g), 1))

    def test_scaled_view_is_built_once(self):
        k = dirichlet_kernel(1, 6)
        assert k.scaled is k.scaled
        assert k.scaled.den == 420 and k.scaled.ints == [420 // (n + 1) for n in range(7)]
        assert KernelSeries((1, 2, 3), 1).scaled == ([1, 2, 3], 1)
        assert KernelSeries((1.0, 0.5), 1).scaled is None and KernelSeries((Fraction(1), 0.5), 1).scaled is None


class TestScalarType:
    """Each series holds one scalar type, fixed at construction: Fractions, or floats once any coefficient is a float."""

    def test_plain_ints_are_held_as_fractions(self):
        k = KernelSeries((1, 2, 3, 4), 1)
        assert k.exact and k.coefficients == (1, 2, 3, 4)
        assert all(type(c) is Fraction for c in k.coefficients)
        assert all(type(c) is Fraction for c in k.b.coefficients)

    def test_one_float_makes_every_coefficient_a_float(self):
        k = KernelSeries((Fraction(1), 0.5), 1)
        assert k.coefficients == (1.0, 0.5) and all(type(c) is float for c in k.coefficients)
        assert not k.exact and k.floats is k

    def test_a_mixed_spec_is_its_all_float_spelling(self):
        """A "p/q" beside "0.375" is converted as ``float`` converts it: the kernel and its b bit for bit."""
        mixed = {"kind": "coeffs", "a": ["1", "1/3", "0.375", "2/7"], "d": 1}
        spelled = {**mixed, "a": [repr(float(Fraction(x))) for x in mixed["a"]]}
        assert spelled["a"] == ["1.0", "0.3333333333333333", "0.375", "0.2857142857142857"]
        k, f = kernel_from_spec(mixed), kernel_from_spec(spelled)
        assert _typed(k.coefficients) == _typed(f.coefficients) and _typed(k.b.coefficients) == _typed(f.b.coefficients)
        assert all(type(c) is float for c in k.b.coefficients)


class TestEvaluate:
    def test_szego_origin(self):
        value, tail = szego_kernel(2, 20).evaluate([0, 0], [0, 0])
        assert value == 1 and tail == 0

    def test_bergman_two_closed_form(self):
        value, tail = bergman_kernel(2, 1, 40).evaluate([Fraction(1, 2)], [Fraction(1, 2)])
        assert abs(float(value) - 16.0 / 9.0) <= tail + 1e-15
        assert tail < 1e-6

    def test_dirichlet_log_closed_form(self):
        value, _ = dirichlet_kernel(1, 30).evaluate([0.5], [0.5])
        t = 0.25
        assert abs(value - (-math.log(1 - t) / t)) < 1e-10

    def test_rejects_boundary_points(self):
        with pytest.raises(ValueError, match="sphere"):
            szego_kernel(1, 10).evaluate([1.0], [0.5])

    def test_truncated_semantics(self):
        value, tail = szego_kernel(1, 10).evaluate([0.5], [0.5], truncated=True)
        assert tail == 0.0
        assert abs(value - sum(0.25**n for n in range(11))) < 1e-15


def _fraction_horner_reference(kernel, z, w):
    """The truncated kernel sum by Horner's rule over the stored (exact) coefficients."""
    t = sum(zi * wi.conjugate() for zi, wi in zip(z, w))
    value = kernel.coefficients[-1]
    for a in reversed(kernel.coefficients[:-1]):
        value = value * t + a
    return value


def _bits(x) -> tuple:
    x = complex(x)
    return x.real.hex(), x.imag.hex()


class TestEvaluateOracle:
    KERNELS = (
        bergman_kernel(2, 2, 48),
        dirichlet_kernel(3, 48),
        cauchy_product(drury_arveson_kernel(2, 48), dirichlet_kernel(2, 48)),
    )

    @pytest.mark.parametrize("kernel", KERNELS, ids=["bergman2", "dirichlet", "da*dirichlet"])
    def test_float_points_match_fraction_horner_bitwise(self, kernel):
        rng = np.random.default_rng(7)
        d = kernel.dim
        for _ in range(50):
            u, v = rng.standard_normal((2, d)) * 0.3 / np.sqrt(d)
            zc = 0.3 * (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2 * d)
            wc = 0.3 * (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2 * d)
            python_floats = (list(map(float, u)), list(map(float, v)))
            python_complex = (list(map(complex, zc)), list(wc))
            for z, w in (python_floats, (u, v), (zc, wc), python_complex):
                got = kernel.evaluate(z, w, truncated=True).value
                assert _bits(got) == _bits(_fraction_horner_reference(kernel, z, w))

    @pytest.mark.parametrize("kernel", KERNELS, ids=["bergman2", "dirichlet", "da*dirichlet"])
    def test_rational_points_stay_exact(self, kernel):
        z = [Fraction(1, 3)] + [Fraction(-1, 5)] * (kernel.dim - 1)
        w = [Fraction(1, 4)] * kernel.dim
        got = kernel.evaluate(z, w, truncated=True).value
        assert isinstance(got, Fraction)
        assert got == _fraction_horner_reference(kernel, z, w)


class TestLifts:
    def test_szego_lift(self):
        assert szego_kernel(2, 10).coeff((1, 1)) == 2

    def test_bergman_b_lift(self):
        b = reciprocal_complement(bergman_kernel(2, 2, 10))
        # b_2 * binom(2, (1,1)) with b_2 = -1
        assert b.coeff((1, 1)) == -2

    def test_zero_index(self):
        assert dirichlet_kernel(3, 10).coeff((0, 0, 0)) == 1

    def test_off_cone_and_truncation(self):
        k = szego_kernel(2, 4)
        with pytest.raises(ValueError, match="negative entry"):
            k.coeff((-1, 2))
        with pytest.raises(ValueError, match="beyond truncation"):
            k.coeff((3, 2))


class TestBergmanKernels:
    def test_m_one_is_drury_arveson(self):
        assert bergman_kernel(1, 2, 15).coefficients == drury_arveson_kernel(2, 15).coefficients

    def test_one_variable_weights(self):
        k = bergman_kernel(2, 1, 10)
        assert [int(c) for c in k.coefficients] == list(range(1, 12))

    def test_lift_matches_factorial_formula(self):
        # (m + |alpha| - 1)! / (alpha! (m-1)!) at m=3, alpha=(2,1): 5!/(2!*1!*2!) = 30
        k = bergman_kernel(3, 2, 10)
        assert k.coeff((2, 1)) == 30
        for alpha in [(0, 0), (1, 0), (2, 2), (3, 1)]:
            n = sum(alpha)
            expected = math.factorial(3 + n - 1)
            for a in alpha:
                expected //= math.factorial(a)
            expected //= math.factorial(2)
            assert k.coeff(alpha) == expected

    def test_bergman_b_closed_form(self):
        for m in range(1, 7):
            b = reciprocal_complement(bergman_kernel(m, 1, 20))
            for n in range(1, 21):
                expected = (-1) ** (n + 1) * math.comb(m, n) if n <= m else 0
                assert b.coefficients[n] == expected, (m, n)

    def test_validates_m(self):
        with pytest.raises(ValueError):
            bergman_kernel(0, 1, 5)


class TestConstructionInvariants:
    def test_rejects_wrong_leading_coefficient(self):
        with pytest.raises(ValueError, match="a_0"):
            KernelSeries((Fraction(2), Fraction(1)), 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            KernelSeries((Fraction(1), Fraction(0)), 1)


class TestSpecFiles:
    def test_round_trip(self):
        k = dirichlet_kernel(2, 12)
        spec = kernel_to_spec(k)
        back = kernel_from_spec(json.loads(json.dumps(spec)))
        assert back.coefficients == k.coefficients and back.dim == 2

    def test_named_kinds(self):
        k = kernel_from_spec({"kind": "bergman", "m": 2, "d": 1, "truncation": 8})
        assert k.coefficients == bergman_kernel(2, 1, 8).coefficients
        s = kernel_from_spec({"kind": "szego", "d": 2, "truncation": 6})
        assert all(c == 1 for c in s.coefficients)
        d = kernel_from_spec({"kind": "dirichlet", "d": 1, "truncation": 6})
        assert d.coefficients[3] == Fraction(1, 4)

    def test_rational_strings(self):
        k = kernel_from_spec({"kind": "coeffs", "a": ["1/1", "2/3", "1/2"], "d": 1})
        assert k.coefficients == (Fraction(1), Fraction(2, 3), Fraction(1, 2))

    def test_json_integers_are_exact(self):
        """JSON integers read as ``Fraction``s, as integer strings do, so their certificates are exact."""
        k = kernel_from_spec({"kind": "coeffs", "a": [1, 2, 3, 4], "d": 1})
        assert k == kernel_from_spec({"kind": "coeffs", "a": ["1", "2", "3", "4"], "d": 1})
        assert all(type(c) is Fraction for c in k.coefficients)
        report = admissibility_report(k)
        assert (report.ratio_sup, report.partial_sum_bound) == (Fraction(3, 4), 1)
        assert type(report.ratio_sup) is Fraction and type(report.partial_sum_bound) is Fraction

    @pytest.mark.parametrize("entry", [True, False])
    def test_json_bools_are_no_coefficients(self, entry):
        with pytest.raises(ValueError, match=f"^bad scalar {entry}: expected a number or p/q$"):
            kernel_from_spec({"kind": "coeffs", "a": [entry, 2, 3], "d": 1})

    def test_an_exact_entry_beyond_the_float_range_in_a_float_spec_is_malformed(self):
        """A float entry makes every entry a float, and an integer of 401 digits has none."""
        with pytest.raises(ValueError, match="^malformed kernel spec: "):
            kernel_from_spec({"kind": "coeffs", "a": ["1", "1" + "0" * 400, "0.5"], "d": 1})

    def test_malformed(self):
        with pytest.raises(ValueError):
            kernel_from_spec({"kind": "unknown"})
        with pytest.raises(ValueError):
            kernel_from_spec({"no": "kind"})
        with pytest.raises(ValueError):
            kernel_from_spec({"kind": "bergman", "d": 1})


class TestEvaluateStack:
    def test_pairwise_values_equal_single_pairs(self):
        kernel = cauchy_product(drury_arveson_kernel(2, 48), dirichlet_kernel(2, 48))
        rng = np.random.default_rng(5)
        zs = 0.3 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        ws = 0.3 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        values, tails = kernel.evaluate(zs, ws)
        assert values.shape == tails.shape == (6,)
        for value, tail, z, w in zip(values, tails, zs, ws):
            single = kernel.evaluate(z, w)
            assert _bits(value) == _bits(single.value) == _bits(_fraction_horner_reference(kernel, z, w))
            assert tail == single.tail_bound

    def test_typed_stacks_equal_their_rows_and_their_pairs_bitwise(self):
        """An ndarray stack, the same rows as a list and each pair alone give the same bits, value and tail."""
        kernel = cauchy_product(drury_arveson_kernel(2, 48), dirichlet_kernel(2, 48))
        rng = np.random.default_rng(9)
        zs = 0.15 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        ws = 0.15 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        for z_stack, w_stack in ((zs, ws), (zs.real.copy(), ws.real.copy()), (zs.real.copy(), ws)):
            got = kernel.evaluate(z_stack, w_stack)
            rows = kernel.evaluate(list(z_stack), list(w_stack))
            pairs = [kernel.evaluate(z, w) for z, w in zip(z_stack, w_stack)]
            assert got.value.tobytes() == rows.value.tobytes()
            assert got.value.tobytes() == np.array([p.value for p in pairs], dtype=got.value.dtype).tobytes()
            assert got.tail_bound.tobytes() == rows.tail_bound.tobytes()
            assert got.tail_bound.tobytes() == np.array([p.tail_bound for p in pairs]).tobytes()

    def test_empty_stacks_give_empty_values(self):
        kernel = szego_kernel(2, 10)
        for empty in ([], np.zeros((0, 2), dtype=complex)):
            value, tail = kernel.evaluate(empty, empty)
            assert value.shape == tail.shape == (0,)

    def test_rejects_stacks_of_different_lengths(self):
        with pytest.raises(ValueError, match="length"):
            szego_kernel(1, 10).evaluate([[0.1], [0.2]], [[0.1]])
