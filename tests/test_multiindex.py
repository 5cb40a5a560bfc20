import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cnpchar._linalg import EXACT, FLOAT, complex_array, point_stack
from cnpchar.multiindex import (
    BlockSpace,
    _column_powers,
    add,
    compositions,
    count_up_to_degree,
    degree,
    enumerate_up_to_degree,
    graded_space,
    monomial_value,
    multinomial,
    unit,
)
from cnpchar.series import bergman_kernel, cauchy_product, dirichlet_kernel, drury_arveson_kernel


def test_enumerate_single_variable():
    assert enumerate_up_to_degree(1, 2) == [(0,), (1,), (2,)]


def test_enumerate_graded_lex_order():
    assert enumerate_up_to_degree(2, 1) == [(0, 0), (1, 0), (0, 1)]


def test_enumerate_count_matches_stars_and_bars():
    # binom(3+2, 2) = 10 by stars and bars
    out = enumerate_up_to_degree(2, 3)
    assert len(out) == math.comb(5, 2) == 10


@given(st.integers(1, 4), st.integers(0, 6))
def test_enumerate_properties(d, n):
    out = enumerate_up_to_degree(d, n)
    assert len(out) == count_up_to_degree(d, n) == math.comb(n + d, d)
    assert len(set(out)) == len(out)
    assert all(degree(a) <= n and len(a) == d for a in out)
    degrees = [degree(a) for a in out]
    assert degrees == sorted(degrees)


def test_enumerate_validates():
    with pytest.raises(ValueError):
        enumerate_up_to_degree(0, 3)
    with pytest.raises(ValueError):
        enumerate_up_to_degree(2, -1)


def test_multinomial_examples():
    assert multinomial((2, 1)) == 3  # 3!/2!
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((2, 2)) == math.factorial(4) // (math.factorial(2) * math.factorial(2)) == 6


@given(st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_multinomial_matches_factorial_formula(alpha):
    alpha = tuple(alpha)
    denominator = 1
    for a in alpha:
        denominator *= math.factorial(a)
    assert multinomial(alpha) == math.factorial(degree(alpha)) // denominator


def test_add_and_unit():
    assert add((1, 2), (0, 3)) == (1, 5)
    assert unit(3, 1) == (0, 1, 0)


def _difference(beta, alpha):
    """beta - alpha when alpha <= beta componentwise, else None."""
    return None if any(a > b for a, b in zip(alpha, beta)) else tuple(b - a for a, b in zip(alpha, beta))


def test_monomial_value():
    assert monomial_value((2.0, 3.0), (2, 1)) == 12.0
    assert monomial_value((2.0, 3.0), (0, 0)) == 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lift_convolution_identity(d):
    """The multinomial lift turns products of diagonal kernels into 1-d convolutions.

    Brute-force check that for every beta with |beta| <= 6 and every split
    i + j = |beta|, sum over alpha <= beta with |alpha| = i of
    multinomial(alpha) * multinomial(beta - alpha) equals multinomial(beta);
    this is exactly what licenses the one-variable Cauchy-product calculus.
    """
    for beta in enumerate_up_to_degree(d, 6):
        n = degree(beta)
        for i in range(n + 1):
            total = 0
            for alpha in compositions(i, d):
                rest = _difference(beta, alpha)
                if rest is None:
                    continue
                total += multinomial(alpha) * multinomial(rest)
            assert total == multinomial(beta), (beta, i)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lifted_series_products_match_convolution(d):
    """Lifted coefficient products summed over the cone reproduce the 1-d convolution."""
    c1 = [1, 2, -1, 3, 0, 1, -2]
    c2 = [1, -1, 4, 1, 2, -3, 1]
    conv = [sum(c1[i] * c2[m - i] for i in range(m + 1)) for m in range(7)]
    for beta in enumerate_up_to_degree(d, 6):
        total = 0
        for alpha in enumerate_up_to_degree(d, degree(beta)):
            rest = _difference(beta, alpha)
            if rest is None:
                continue
            total += (c1[degree(alpha)] * multinomial(alpha)) * (c2[degree(rest)] * multinomial(rest))
        assert total == conv[degree(beta)] * multinomial(beta), beta


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["bergman", "dirichlet", "da*dirichlet"])
def test_block_space_lift_matches_coeff(d, kind):
    """EXACT lifts equal coeff exactly, type included; FLOAT lifts equal the float view's coeff bit for bit.

    The float view's lift float(c_n) * multinomial(gamma) is within one ulp
    of the float of the exact lift, and equal to it when c_n is integral.
    """
    kernel = {
        "bergman": bergman_kernel(2, d, 12),
        "dirichlet": dirichlet_kernel(d, 12),
        "da*dirichlet": cauchy_product(drury_arveson_kernel(d, 12), dirichlet_kernel(d, 12)),
    }[kind]
    space = BlockSpace(enumerate_up_to_degree(d, 12), 2)
    for series in (kernel, kernel.b):
        exact = [series.coeff(lab) for lab in space.labels]
        lifted = space.lift(series, EXACT)
        assert list(lifted) == exact and [type(x) for x in lifted] == [type(c) for c in exact]
        floats = space.lift(series, FLOAT)
        assert floats.dtype == float
        assert [x.hex() for x in floats] == [series.floats.coeff(lab).hex() for lab in space.labels]
        rounded = np.array([float(c) for c in exact])
        assert np.all(np.abs(floats - rounded) <= np.spacing(np.abs(rounded)))
        if kind == "bergman":
            assert np.array_equal(floats, rounded)
    point = [0.3 + 0.1j, -0.2, 0.1j][:d]
    view = np.array(point, dtype=complex)
    assert list(space.monomials(point)) == [monomial_value(view, lab) for lab in space.labels]


def test_block_space_lift_rejects_other_dimensions_and_deep_labels():
    k = dirichlet_kernel(2, 4)
    for scalars in (EXACT, FLOAT):
        with pytest.raises(ValueError, match="dimension 3 != 2"):
            BlockSpace([(1, 0, 0)], 1).lift(k, scalars)
        with pytest.raises(ValueError, match="degree 5 beyond truncation 4"):
            BlockSpace(enumerate_up_to_degree(2, 5), 1).lift(k, scalars)
        assert len(BlockSpace([], 1).lift(k, scalars)) == 0
        assert len(BlockSpace(enumerate_up_to_degree(2, 4), 1).lift(k, scalars)) == 15


def test_only_the_lift_reads_series_coefficients_by_label():
    """In src/cnpchar only series.py and multiindex.py read ``.floats`` or call ``.coeff(``.

    Every other module takes a series' coefficients over labels from
    ``BlockSpace.lift``, so there is one float definition of the lift. The
    sweep's certificate reads the one-variable ``series.contraction_diagonal``.
    """
    src = Path(__file__).parents[1] / "src" / "cnpchar"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("series.py", "multiindex.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            reads_floats = isinstance(node, ast.Attribute) and node.attr == "floats"
            calls_coeff = isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "coeff"
            if reads_floats or calls_coeff:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_space_monomials_of_a_stack(d):
    """A (P, d) stack gives one row per point, each equal to monomial_value at the point's complex128 view."""
    space = BlockSpace(enumerate_up_to_degree(d, 9), 1)
    points = [[0.3 + 0.1j, -0.2, 0.1j][:d], [0.5, 0.25, -0.125][:d], [-0.4j, 0.3 - 0.2j, 0.0][:d]]
    stack = space.monomials(points)
    assert stack.shape == (3, len(space.labels))
    for row, point in zip(stack, points):
        assert list(row) == [monomial_value(np.array(point, dtype=complex), lab) for lab in space.labels]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_space_monomials_of_numpy_points_match_monomial_value_bitwise(d):
    """Column powers give monomial_value bit for bit, for numpy complex points and the complex view of real ones.

    Adding 0.0 clears the sign of zero imaginary parts: the real-arithmetic
    products can leave -0.0 where the scalar product leaves 0.0.
    """
    rng = np.random.default_rng(d)
    space = BlockSpace(enumerate_up_to_degree(d, 16), 1)
    complex_points = list(0.4 * (rng.standard_normal((25, d)) + 1j * rng.standard_normal((25, d))) / d)
    real_points = list(0.5 * rng.standard_normal((25, d)) / math.sqrt(d))
    for points in (complex_points, real_points, complex_points[:3] + real_points[:3]):
        stack = space.monomials(points)
        view = [p.astype(complex) for p in points]
        expected = np.array([[monomial_value(p, lab) for lab in space.labels] for p in view], dtype=complex)
        assert stack.dtype == complex and (stack + 0.0).tobytes() == (expected + 0.0).tobytes()
    single = np.array([monomial_value(complex_points[0], lab) for lab in space.labels], dtype=complex)
    assert (space.monomials(complex_points[0]) + 0.0).tobytes() == (single + 0.0).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_space_monomials_of_a_typed_stack_equal_its_rows_and_its_points_bitwise(d):
    """An ndarray stack, the same rows as a list and each point alone give the same bits."""
    rng = np.random.default_rng(20 + d)
    space = BlockSpace(enumerate_up_to_degree(d, 12), 1)
    cplx = 0.4 * (rng.standard_normal((15, d)) + 1j * rng.standard_normal((15, d))) / d
    for stack in (cplx, cplx.real.copy()):
        got = space.monomials(stack)
        assert got.dtype == complex and got.shape == (15, len(space.labels))
        assert got.tobytes() == space.monomials(list(stack)).tobytes()
        assert got.tobytes() == np.array([space.monomials(p) for p in stack]).tobytes()


def _monomial_product_reference(space, points):
    """The product over coordinates as one expression per step, each step allocating fresh temporaries."""
    pts = point_stack(points)[0]
    re, im = np.ones((len(pts), len(space.labels))), np.zeros((len(pts), len(space.labels)))
    for j, e in enumerate(space.exponents.T):
        x = _column_powers(pts[:, j], int(e.max(initial=0)))[:, e]
        re, im = re * x.real - im * x.imag, re * x.imag + im * x.real
    return complex_array(re, im)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_in_place_monomial_product_matches_the_fresh_temporaries_bitwise(d):
    """The in-place product gives the expression's bits, signed zeros included, on every kind of input.

    Real and Python-scalar rows run as their complex128 view; a power with
    real part -0.0 and imaginary part +0.5 leaves -0.0 even in d = 1.
    """
    rng = np.random.default_rng(40 + d)
    space = BlockSpace(enumerate_up_to_degree(d, 9), 1)
    cplx = 0.4 * (rng.standard_normal((12, d)) + 1j * rng.standard_normal((12, d))) / d
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), -0.5, 0.5j, -0.5j, complex(-0.0, 0.5)]
    cplx[: len(zeros), 0], cplx[: len(zeros), -1] = zeros, zeros[::-1]
    real = cplx.real.copy()
    python = [[complex(x) for x in row] for row in cplx[:4]] + [[float(x) for x in row] for row in real[:4]]
    signed = 0
    for points in (cplx, real, list(cplx[:3]) + list(real[:3]), python):
        got = space.monomials(points)
        assert got.tobytes() == _monomial_product_reference(space, points).tobytes()
        parts = np.concatenate([got.real.ravel(), got.imag.ravel()])
        signed += np.count_nonzero(np.signbit(parts[parts == 0]))
    assert signed > 0


@st.composite
def _labels_and_shift(draw):
    """A random subset of Z^d_+ labels up to degree 4 (d from 1 to 3), in random order, and a shift alpha."""
    d = draw(st.integers(1, 3))
    labels = draw(st.lists(st.sampled_from(enumerate_up_to_degree(d, 4)), unique=True, max_size=20))
    alpha = tuple(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    return labels, alpha


@given(_labels_and_shift())
def test_positions_and_shift_match_brute_force(case):
    labels, alpha = case
    space = BlockSpace(labels, 2)
    d = len(alpha)
    rows = enumerate_up_to_degree(d, 5)
    expected = [labels.index(row) if row in labels else -1 for row in rows]
    assert space.positions(np.array(rows, dtype=int)).tolist() == expected
    pairs = [(i, labels.index(add(lab, alpha))) for i, lab in enumerate(labels) if add(lab, alpha) in labels]
    low, high = space.shift(alpha)
    assert list(zip(low.tolist(), high.tolist())) == pairs


@pytest.mark.parametrize("d, top, block_dim", [(1, 7, 1), (2, 4, 3), (3, 5, 2)])
def test_shared_graded_tables_equal_a_fresh_space(d, top, block_dim):
    """A space over ``graded_space`` reads the tables of a fresh space over the same labels, shared and read-only."""
    shared, fresh = BlockSpace(graded_space(d, top), block_dim), BlockSpace(enumerate_up_to_degree(d, top), block_dim)
    assert shared.labels == fresh.labels and shared.index == fresh.index
    assert (shared.block_dim, shared.dim) == (fresh.block_dim, fresh.dim) == (block_dim, len(fresh.labels) * block_dim)
    for name in ("degrees", "exponents", "_multinomials"):
        got, want = getattr(shared, name), getattr(fresh, name)
        assert got is getattr(graded_space(d, top), name) and not got.flags.writeable
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [type(m) for m in shared._multinomials] == [int] * len(shared.labels)
    assert shared._multinomials.tolist() == [multinomial(lab) for lab in shared.labels]
    rows = np.array(enumerate_up_to_degree(d, top + 2), dtype=int)
    assert np.array_equal(shared.positions(rows), fresh.positions(rows))
    assert graded_space(d, top) is graded_space(d, top)


def test_positions_miss_rows_past_the_labels_and_rows_that_are_not_labels():
    space = BlockSpace([(2, 0), (0, 1), (1, 1)], 1)  # exponents up to (2, 1)
    rows = np.array([[0, 1], [3, 0], [0, 2], [1, 0], [1, 1], [2, 0], [9, 9], [2, 1], [0, 0]])
    assert space.positions(rows).tolist() == [1, -1, -1, -1, 2, 0, -1, -1, -1]
    assert space.positions(np.zeros((0, 2), dtype=int)).tolist() == []
    graded = graded_space(2, 2)
    assert graded.positions(np.array([[3, 0], [1, 2], [2, 0]])).tolist() == [-1, -1, graded.index[(2, 0)]]


def test_enumerate_up_to_degree_returns_a_fresh_list():
    """Editing the list it returns changes neither the next list nor the shared graded labels."""
    first = enumerate_up_to_degree(2, 3)
    assert isinstance(first, list) and first == list(graded_space(2, 3).labels)
    first[0] = (9, 9)
    first.append((4, 4))
    graded = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    assert enumerate_up_to_degree(2, 3) == list(graded_space(2, 3).labels) == graded
