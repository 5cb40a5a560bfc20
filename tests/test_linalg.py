"""The spectral norm helper (max |eigenvalue| on Hermitian input, the top singular value otherwise), the block helpers and the sparse product.

Also the exact spectral steps on coordinate matrices, ``minus_identity``,
the complement of a range and the point stacks whose dtype decides their
arithmetic. The norm, the blocks and the eigendecomposition, which read a
matrix's entries, and the slot entries of a sparse product are checked bit
for bit against the dense versions they replaced.
"""

import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpchar import _linalg
from cnpchar._linalg import (
    EXACT,
    FLOAT,
    ExactnessError,
    Entries,
    above,
    beside,
    block_eigh,
    connected_blocks,
    exact_zeros,
    frac_sqrt,
    hermitian_part,
    holds_complex,
    is_coordinate,
    minus_identity,
    nonzero_index,
    ordered_sum,
    point_stack,
    psd_root,
    range_complement,
    scatter_add,
    single_term_product,
    sparse_product,
    spectral_norm,
    to_float_array,
)

RNG = np.random.default_rng(11)
_REAL = RNG.standard_normal((7, 7))
_COMPLEX = RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))
_TALL = RNG.standard_normal((8, 3))

HERMITIAN = {
    "real_symmetric": _REAL + _REAL.T,
    "complex_hermitian": _COMPLEX + _COMPLEX.conj().T,
    "rank_deficient_psd": _TALL @ _TALL.T,
    "zero": np.zeros((5, 5)),
    "one_by_one": np.array([[-2.5]]),
}

NOT_HERMITIAN = {
    "real_square": _REAL,
    "complex_square": _COMPLEX,
    "rectangular": _TALL,
}


@pytest.mark.parametrize("name", HERMITIAN)
def test_hermitian_matches_svd_norm(name):
    a = HERMITIAN[name]
    assert np.array_equal(a, a.conj().T)
    expected = np.linalg.norm(a, 2)
    assert abs(spectral_norm(a) - expected) <= 4 * np.finfo(float).eps * expected


@pytest.mark.parametrize("name", NOT_HERMITIAN)
def test_other_input_is_the_svd_norm(name):
    a = NOT_HERMITIAN[name]
    assert spectral_norm(a) == np.linalg.norm(a, 2)


def test_empty_is_zero():
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_stack_takes_the_largest_norm_with_each_branch():
    """A stack of square matrices gives the largest per-matrix norm, each by its own branch."""
    square = [m for m in {**HERMITIAN, **NOT_HERMITIAN}.values() if m.shape == (7, 7)]
    stack = np.array(square)
    assert spectral_norm(stack) == max(spectral_norm(m) for m in square)
    assert spectral_norm(stack[:1]) == spectral_norm(square[0])


def test_mixed_stack_matches_the_per_matrix_maximum():
    """A stack mixing Hermitian and other matrices gives the per-matrix maximum bit for bit."""
    rng = np.random.default_rng(5)
    for scale in (1.0, 3.0):
        square = [scale * m for m in {**HERMITIAN, **NOT_HERMITIAN}.values() if m.shape == (7, 7)]
        extra = rng.standard_normal((4, 7, 7))
        stack = np.concatenate([np.array(square), extra, extra + extra.swapaxes(-1, -2)])
        herm = [np.array_equal(m, m.conj().T) for m in stack]
        assert any(herm) and not all(herm)
        assert spectral_norm(stack) == max(spectral_norm(m) for m in stack)
        imag = np.concatenate([np.zeros((len(square), 7, 7)), extra, extra - extra.swapaxes(-1, -2)])
        complex_stack = stack + 1j * imag  # Hermitian where stack is symmetric and imag antisymmetric
        assert spectral_norm(complex_stack) == max(spectral_norm(m) for m in complex_stack)


def _planted_blocks(rng, sizes, dtype):
    """(a Hermitian matrix, its blocks as sorted index tuples): random Hermitian blocks of ``sizes`` under a random permutation."""
    n = sum(sizes)
    perm = rng.permutation(n)
    a = np.zeros((n, n), dtype=dtype)
    blocks, start = [], 0
    for size in sizes:
        idx = perm[start:start + size]
        m = rng.standard_normal((size, size)) + (1j * rng.standard_normal((size, size)) if dtype == complex else 0)
        a[np.ix_(idx, idx)] = m + m.conj().T + (size == 1)  # a 1 x 1 block is nonzero
        blocks.append(tuple(sorted(idx)))
        start += size
    return a, blocks


@pytest.mark.parametrize("dtype", [float, complex])
def test_connected_blocks_find_permuted_blocks(dtype):
    """A permuted block-diagonal Hermitian matrix gives back its blocks, grouped by size, indices ascending."""
    a, planted = _planted_blocks(np.random.default_rng(2), [3, 1, 4, 1, 3, 2], dtype)
    found = connected_blocks(Entries.of(a))
    assert [g.shape[1] for g in found] == [1, 2, 3, 4]
    assert sorted(tuple(row) for g in found for row in g.tolist()) == sorted(planted)
    for g in found:
        assert np.all(np.diff(g, axis=1) > 0) and np.all(np.diff(g[:, 0]) > 0)
    assert abs(spectral_norm(a) - np.linalg.norm(a, 2)) <= 4 * np.finfo(float).eps * np.linalg.norm(a, 2)
    assert spectral_norm(a) == max(np.abs(np.linalg.eigvalsh(a[np.ix_(b, b)])).max() for b in planted)


def test_connected_blocks_link_through_chains_and_one_sided_entries():
    """A path is one block however its indices are ordered, and an entry on one side links its pair."""
    n = 9
    order = np.random.default_rng(4).permutation(n)
    path = np.zeros((n, n))
    path[order[:-1], order[1:]] = 1.0
    assert [g.tolist() for g in connected_blocks(Entries.of(path))] == [[list(range(n))]]
    assert [g.tolist() for g in connected_blocks(Entries.of(np.zeros((3, 3))))] == [[[0], [1], [2]]]
    assert connected_blocks(Entries.of(np.zeros((0, 0)))) == []


@pytest.mark.parametrize("dtype", [float, complex])
def test_diagonal_norm_is_eigvalsh_bit_for_bit(dtype):
    rng = np.random.default_rng(3)
    d = rng.standard_normal(40)
    d[::7] = 0.0
    a = np.diag(d).astype(dtype)
    assert [g.shape for g in connected_blocks(Entries.of(a))] == [(40, 1)]
    assert spectral_norm(a) == np.abs(np.linalg.eigvalsh(a)).max()


@pytest.mark.parametrize("name", ["real_symmetric", "complex_hermitian", "rank_deficient_psd"])
def test_single_block_norm_is_eigvalsh_bit_for_bit(name):
    a = HERMITIAN[name]
    assert [g.tolist() for g in connected_blocks(Entries.of(a))] == [[list(range(a.shape[0]))]]
    assert spectral_norm(a) == np.abs(np.linalg.eigvalsh(a)).max()


@pytest.mark.parametrize("dtype", [float, complex])
def test_block_eigh_is_an_ascending_eigendecomposition(dtype):
    a, _ = _planted_blocks(np.random.default_rng(6), [2, 1, 3, 2, 1, 4], dtype)
    w, v = block_eigh(a, -np.inf)
    n = a.shape[0]
    assert w.shape == (n,) and v.shape == (n, n) and np.all(np.diff(w) >= 0)
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-14
    assert np.abs((v * w) @ v.conj().T - a).max() <= 1e-14
    assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-14


def _loop_is_diagonal_rectangular(a):
    """Every row holds at most one nonzero entry and no two rows share its column, read entry by entry."""
    seen = set()
    for i in range(a.shape[0]):
        nz = [j for j in range(a.shape[1]) if a[i, j] != 0]
        if len(nz) > 1 or (nz and nz[0] in seen):
            return False
        seen.update(nz)
    return True


def test_exact_diagonal_tests_match_entry_by_entry_loops():
    """The coordinate-matrix test agrees with the entry loop on Fraction arrays."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        shape = tuple(rng.integers(1, 5, size=2))
        dense = rng.integers(-1, 2, size=shape) * (rng.random(shape) < 0.3)
        a = np.vectorize(Fraction, otypes=[object])(dense)
        assert is_coordinate(a) == _loop_is_diagonal_rectangular(a)


def _fractions(rows):
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object).reshape(len(rows), -1)


def _coordinate(rng, m, n):
    """A random m x n Fraction coordinate matrix: nonzeros at a random matching of rows to columns."""
    k = int(rng.integers(0, min(m, n) + 1))
    a = exact_zeros((m, n))
    values = [Fraction(int(rng.integers(-8, 9)) or 1, int(rng.integers(1, 9))) for _ in range(k)]
    a[rng.permutation(m)[:k], rng.permutation(n)[:k]] = values
    return a


def _complement_reference(a):
    """The exact complement as it was before coordinate matrices: a rank by Gaussian elimination, then the zero rows."""
    m = a.shape[0]
    rows, rank = [list(r) for r in a.tolist()], 0
    for col in range(a.shape[1]):
        pivot = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, m):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    if rank == m:
        return exact_zeros((m, 0))
    if not _loop_is_diagonal_rectangular(a):
        raise ExactnessError("exact complement needs full rank or diagonal structure")
    free = [i for i in range(m) if all(x == 0 for x in a[i])]
    out = exact_zeros((m, len(free)))
    for j, i in enumerate(free):
        out[i, j] = Fraction(1)
    return out


def _same_fractions(got, want):
    return got.shape == want.shape and all(type(x) is type(y) and x == y for x, y in zip(got.flat, want.flat))


def test_exact_complement_is_a_unit_column_per_zero_row():
    a = _fractions([[0, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 0], [3, 0, 0]])
    want = _fractions([[1, 0], [0, 0], [0, 1], [0, 0]])
    assert _same_fractions(range_complement(a).matrix, want)
    assert _same_fractions(range_complement(exact_zeros((2, 0))).matrix, EXACT.eye(2))


@pytest.mark.parametrize(
    "a",
    [
        _fractions([[0, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 0], [3, 0, 0]]),
        np.vstack([np.eye(3) * [1.0, -2.0, 0.5], np.zeros((4, 3))]),
        np.vstack([np.eye(2) * 1j + 0.5, np.zeros((3, 2))]),
        np.zeros((3, 0)),
    ],
    ids=["exact", "float_prefix", "complex_prefix", "no_columns"],
)
def test_unit_complements_come_as_their_entries(a):
    """Unit columns are Entries, one 1 a column in a's arithmetic, whose matrix is those identity columns bit for bit."""
    got = range_complement(a)
    zero_rows = np.flatnonzero(~(a != 0).any(axis=1))
    assert isinstance(got, Entries)
    assert np.array_equal(got.rows, zero_rows) and np.array_equal(got.cols, np.arange(got.shape[1]))
    if a.dtype == object:
        assert _same_fractions(got.matrix, EXACT.eye(a.shape[0])[:, zero_rows])
    else:
        eye = np.eye(a.shape[0], dtype=np.result_type(a.dtype, float))[:, zero_rows]
        assert got.matrix.dtype == eye.dtype and got.matrix.tobytes() == eye.tobytes()


def test_other_complements_keep_the_svd_columns():
    a = np.zeros((5, 2))
    a[[1, 3]] = [[1.0, 2.0], [3.0, -1.0]]  # nonzero rows that are not the first two
    got = range_complement(a)
    u = np.linalg.svd(a, full_matrices=True)[0]
    assert isinstance(got, Entries) and got.shape == (5, 3)
    assert got.matrix.tobytes() == u[:, 2:].tobytes()


def test_exact_complement_of_a_full_rank_coordinate_matrix_is_empty():
    a = _fractions([[0, 0, 2, 0], [-1, 0, 0, 0], [0, 0, 0, Fraction(1, 3)]])
    assert range_complement(a).matrix.shape == (3, 0)


@pytest.mark.parametrize("rows", [[[1, 1]], [[1], [1]], [[1, 1], [0, 1]]])
def test_exact_complement_refuses_other_patterns(rows):
    """Full row rank is not enough: [[1, 1]] is refused like every other matrix that is not a coordinate one."""
    with pytest.raises(ExactnessError):
        range_complement(_fractions(rows))


def test_exact_complement_matches_the_elimination():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = _coordinate(rng, int(rng.integers(0, 6)), int(rng.integers(0, 6)))
        assert _same_fractions(range_complement(a).matrix, _complement_reference(a))


def _psd_root_reference(a_sq):
    """The exact root, pseudo-inverse, basis and minimum eigenvalue of a diagonal matrix, entry by entry."""
    n = a_sq.shape[0]
    root, pinv = exact_zeros((n, n)), exact_zeros((n, n))
    cols = [i for i in range(n) if a_sq[i, i] > 0]
    basis = exact_zeros((n, len(cols)))
    for j, i in enumerate(cols):
        r = frac_sqrt(a_sq[i, i])
        root[i, i], pinv[i, i], basis[i, j] = r, 1 / r, Fraction(1)
    return root, pinv, basis, min((float(a_sq[i, i]) for i in range(n)), default=float("inf"))


def test_exact_psd_root_matches_the_entry_loop():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(0, 7))
        a_sq = exact_zeros((n, n))
        sign = rng.choice([0, 1, 1, -1], size=n)  # zeros, and negatives that the root skips
        a_sq[np.diag_indices(n)] = [Fraction(int(rng.integers(0, 6)), int(rng.integers(1, 6))) ** 2 * int(x) for x in sign]
        got, (root, pinv, basis, lo) = psd_root(a_sq), _psd_root_reference(a_sq)
        assert all(_same_fractions(x, y) for x, y in [(got.root, root), (got.pinv, pinv), (got.basis, basis)])
        assert got.min_eigenvalue == lo


@pytest.mark.parametrize("rows", [[[2, 0], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 0]]])
def test_exact_psd_root_refuses_non_squares_and_off_diagonal_entries(rows):
    with pytest.raises(ExactnessError):
        psd_root(_fractions(rows))


def _bits(a):
    """Each entry's type and its real and imaginary parts with their signs, so that 0.0 and -0.0 differ."""
    parts = [(type(x), complex(x)) for x in a.flat]
    return [(t, z.real, z.imag, math.copysign(1, z.real), math.copysign(1, z.imag)) for t, z in parts]


def test_minus_identity_is_a_minus_eye_bit_for_bit():
    rng = np.random.default_rng(12)
    real = rng.standard_normal((5, 5)) * (rng.random((5, 5)) < 0.5)
    real[rng.random((5, 5)) < 0.5] *= -1.0  # flips the sign of some zeros
    real[0, 0], real[1, 1], real[2, 3] = -0.0, 0.0, -0.0
    cplx = real + 1j * real[::-1]
    cplx[3, 3] = complex(-0.0, -0.0)
    mixed = np.vectorize(Fraction, otypes=[object])(rng.integers(-3, 4, (4, 4)))
    mixed[0, 1], mixed[2, 2], mixed[3, 3] = -0.0, 0.0, -0.0
    for a, eye in [(real, np.eye(5)), (cplx, np.eye(5)), (mixed, EXACT.eye(4))]:
        before = _bits(a)
        got = minus_identity(a)
        assert got.dtype == (a - eye).dtype and _bits(got) == _bits(a - eye)
        assert _bits(a) == before


def _connected_blocks_reference(a):
    """connected_blocks as it was before isolated indices were set aside: the contraction loop over every index."""
    n = a.shape[0]
    linked = a != 0
    linked |= linked.T
    np.fill_diagonal(linked, True)
    label = np.arange(n)
    while linked.size:
        parent = np.argmax(linked, axis=1)
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        root = parent == np.arange(len(parent))
        if root.all():
            break
        group = (np.cumsum(root) - 1)[parent]
        label = group[label]
        order = np.argsort(group, kind="stable")
        starts = np.searchsorted(group[order], np.arange(np.count_nonzero(root)))
        linked = np.logical_or.reduceat(linked[order], starts, axis=0)
        linked = np.logical_or.reduceat(linked[:, order], starts, axis=1)
    sizes = np.bincount(label)
    members = np.argsort(label, kind="stable")
    firsts = np.cumsum(sizes) - sizes
    return [members[firsts[sizes == size][:, None] + np.arange(size)] for size in np.flatnonzero(np.bincount(sizes))]


@pytest.mark.parametrize("density", [0.0, 0.002, 0.02, 0.1, 0.4, 1.0])
def test_connected_blocks_match_the_contraction_over_every_index(density):
    """Same blocks, order and dtype as the loop over every index, down to patterns where almost every index is isolated."""
    rng = np.random.default_rng(int(density * 1000))
    for _ in range(60):
        n = int(rng.integers(0, 60))
        a = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
        if rng.random() < 0.5:
            a[np.diag_indices(n)] = rng.standard_normal(n) * (rng.random(n) < 0.5)
        got, want = connected_blocks(Entries.of(a)), _connected_blocks_reference(a)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def _sparse(rng, shape, density, dtype):
    a = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if dtype == complex else 0)
    return a * (rng.random(shape) < density)


@pytest.mark.parametrize("dtype", [float, complex])
def test_sparse_product_matches_matmul_within_rounding(dtype):
    """Sparse factors, plain and adjoint, agree with ``@`` to a few ulps of |a| @ |b|."""
    rng = np.random.default_rng(21)
    eps = np.finfo(float).eps
    for m, k, n, density in [(40, 30, 50, 0.05), (60, 60, 60, 0.02), (25, 80, 10, 0.1), (1, 1, 1, 1.0)]:
        a, b = _sparse(rng, (m, k), density, dtype), _sparse(rng, (k, n), density, dtype)
        ea, eb = Entries.of(a), Entries.of(b)
        assert int((np.abs(a) > 0).sum(axis=0) @ (np.abs(b) > 0).sum(axis=1)) <= m * n  # the pair side
        for got, want, bound in [
            (sparse_product(ea, eb), a @ b, np.abs(a) @ np.abs(b)),
            (sparse_product(ea.adjoint, ea), a.conj().T @ a, np.abs(a).T @ np.abs(a)),
            (sparse_product(ea, ea.adjoint), a @ a.conj().T, np.abs(a) @ np.abs(a).T),
        ]:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.all(np.abs(got - want) <= 4 * eps * bound)


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_factors_take_matmul_bit_for_bit(dtype):
    """Beyond the pair bound the product is ``a @ b`` of the dense factors themselves, as in a 300 x 300 dense product."""
    rng = np.random.default_rng(22)
    for m, k, n in [(300, 300, 300), (7, 5, 6)]:
        a, b = _sparse(rng, (m, k), 1.0, dtype), _sparse(rng, (k, n), 1.0, dtype)
        assert sparse_product(a, b).tobytes() == (a @ b).tobytes()
        assert sparse_product(a.conj().T, a).tobytes() == (a.conj().T @ a).tobytes()
        assert np.array_equal(sparse_product(Entries.of(a), Entries.of(b)), a @ b)


def test_exact_factors_give_equal_fractions():
    rng = np.random.default_rng(23)
    to_fraction = np.vectorize(lambda x: Fraction(int(x), 3), otypes=[object])
    for density in (0.1, 1.0):
        a = to_fraction(rng.integers(-4, 5, (9, 7)) * (rng.random((9, 7)) < density))
        b = to_fraction(rng.integers(-4, 5, (7, 8)) * (rng.random((7, 8)) < density))
        ea = Entries.of(a)
        for got, want in [(sparse_product(ea, Entries.of(b)), a @ b), (sparse_product(ea.adjoint, ea), a.T @ a)]:
            assert got.dtype == object and got.shape == want.shape
            assert all(isinstance(x, Fraction) and x == y for x, y in zip(got.flat, want.flat))


@pytest.mark.parametrize("shapes", [((0, 3), (3, 4)), ((3, 0), (0, 4)), ((3, 4), (4, 0)), ((4, 5), (5, 6))])
def test_empty_and_zero_factors(shapes):
    a, b = np.zeros(shapes[0]), np.zeros(shapes[1])
    got = sparse_product(Entries.of(a), Entries.of(b))
    assert got.shape == (shapes[0][0], shapes[1][1]) and not got.any()


def test_nonzero_index_is_np_nonzero():
    rng = np.random.default_rng(24)
    for shape in [(0,), (5,), (4, 6), (3, 1, 7), (0, 4)]:
        a = rng.standard_normal(shape) * (rng.random(shape) < 0.3)
        got, want = nonzero_index(a), np.nonzero(a)
        assert len(got) == len(want) and all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


class TestPointStack:
    """One (P, d) array per stack, of two kinds: exact when every coordinate is rational, else complex128."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_typed_array_is_the_stack(self, dtype):
        """A complex128 array is the stack itself, a float64 one its complex128 view."""
        a = np.arange(6, dtype=dtype).reshape(3, 2)
        pts, single = point_stack(a)
        assert pts.dtype == complex and pts.tobytes() == a.astype(complex).tobytes() and not single
        assert (pts is a) == (dtype is complex)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rows_of_one_dtype_stack_in_it(self, dtype):
        rows = [np.arange(2, dtype=dtype), -np.ones(2, dtype=dtype)]
        pts, single = point_stack(rows)
        assert pts.dtype == complex and pts.shape == (2, 2) and not single
        assert pts.tobytes() == np.array(rows, dtype=complex).tobytes()

    def test_anything_not_rational_is_one_complex128_array(self):
        """Mixed rows, Python scalars, a Fraction beside a float and int64 arrays convert once, value by value."""
        cases = [
            [np.array([0.5, -0.25]), np.array([0.5j, 1 - 2j])],
            [[0.5, 1j], [Fraction(1, 3), 2]],
            [[Fraction(1, 3), -0.0]],
            np.array([[1, 2]]),
            np.array([[Fraction(1, 2), 0.5]], dtype=object),
        ]
        for points in cases:
            pts, single = point_stack(points)
            want = np.array([[complex(x) for x in row] for row in points])
            assert pts.dtype == complex and not single and pts.tobytes() == want.tobytes()

    def test_rational_points_stay_exact(self):
        pts, single = point_stack([[Fraction(1, 3), 2], [0, Fraction(-1, 2)]])
        assert pts.dtype == object and not single
        assert [type(x) for x in pts.flat] == [Fraction, int, int, Fraction]

    def test_a_single_point_is_a_flagged_stack_of_one(self):
        pts, single = point_stack(np.array([0.5, 0.25j]))
        assert single and pts.shape == (1, 2) and pts.dtype == complex
        pts, single = point_stack([Fraction(1, 2), 0.25])
        assert single and pts.shape == (1, 2) and pts.dtype == complex
        pts, single = point_stack([Fraction(1, 2), 3])
        assert single and pts.shape == (1, 2) and pts.dtype == object

    def test_empty_stacks(self):
        pts, single = point_stack([])
        assert pts.shape == (0, 0) and pts.dtype == object and not single
        pts, single = point_stack(np.zeros((0, 3), dtype=complex))
        assert pts.shape == (0, 3) and pts.dtype == complex and not single

    def test_the_dtype_decides_the_arithmetic(self):
        assert EXACT.at([[Fraction(1, 2), 3]]) is EXACT and EXACT.at([Fraction(1, 2)]) is EXACT
        assert FLOAT.at([[Fraction(1, 2), 3]]) is FLOAT
        for points in (np.array([[0.5]]), np.array([[1]]), [[Fraction(1, 2), 0.5]], [np.float64(0.5)]):
            assert EXACT.at(points) is FLOAT
        assert not holds_complex(np.zeros((2, 2))) and holds_complex(np.zeros((2, 2), dtype=complex))
        assert holds_complex(point_stack([[0.5, 1]])[0]) and not holds_complex(point_stack([[Fraction(1, 2), 1]])[0])


def _dense_connected_blocks(a):
    """connected_blocks as it was before it read the entry list: label propagation on a dense boolean copy of the pattern."""
    n = a.shape[0]
    linked = a != 0
    linked |= linked.T
    np.fill_diagonal(linked, False)
    rest = np.flatnonzero(linked.any(axis=1))
    if len(rest) < n:
        linked = linked[rest[:, None], rest]
    np.fill_diagonal(linked, True)
    label, head = np.arange(len(rest)), rest
    while linked.size:
        parent = np.argmax(linked, axis=1)
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        root = parent == np.arange(len(parent))
        if root.all():
            break
        group = (np.cumsum(root) - 1)[parent]
        label, head = group[label], head[root]
        order = np.argsort(group, kind="stable")
        starts = np.searchsorted(group[order], np.arange(np.count_nonzero(root)))
        linked = np.logical_or.reduceat(linked[order], starts, axis=0)
        linked = np.logical_or.reduceat(linked[:, order], starts, axis=1)
    key = np.arange(n)
    key[rest] = head[label]
    sizes = np.bincount(key, minlength=n)
    members = np.argsort(key, kind="stable")
    firsts = np.cumsum(sizes) - sizes
    return [members[firsts[sizes == size][:, None] + np.arange(size)] for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1]


def _dense_spectral_norm(a):
    """spectral_norm as it was before it read the entry list: a dense Hermitian test, then LAPACK on the dense blocks."""
    if a.size == 0:
        return 0.0
    stack = a.reshape(-1, *a.shape[-2:])
    herm = a.shape[-1] == a.shape[-2] and np.all(stack == stack.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.all(herm) and a.ndim == 2:
        m = stack[0]
        return max(float(np.abs(np.linalg.eigvalsh(m[b[:, :, None], b[:, None, :]])).max()) for b in _dense_connected_blocks(m))
    if np.all(herm):
        return float(np.abs(np.linalg.eigvalsh(stack)).max())
    if not np.any(herm):
        return float(np.linalg.svd(stack, compute_uv=False).max())
    return max(float(np.abs(np.linalg.eigvalsh(stack[herm])).max()), float(np.linalg.svd(stack[~herm], compute_uv=False).max()))


def _same_float(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


_SIGNED_ZERO_AND_INF = st.sampled_from([0.0, -0.0, math.inf, -math.inf])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_SIGNED_ZERO_AND_INF, _FINITE), min_size=1, max_size=12), st.lists(st.sampled_from([0.0, -0.0]), min_size=12, max_size=12), st.booleans())
def test_zero_and_diagonal_norms_match_the_dense_norm_bit_for_bit(diagonal, imag_zeros, cplx):
    """A real diagonal (zeros of either sign and infinities included) skips LAPACK and keeps eigvalsh's bits."""
    d = np.array(diagonal) + (np.array(imag_zeros[: len(diagonal)]) * 1j if cplx else 0)
    for a in (np.diag(d), np.zeros_like(np.diag(d))):
        assert _same_float(spectral_norm(a), _dense_spectral_norm(a))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12), st.integers(0, 11), st.floats(-1e3, 1e3).filter(bool))
def test_complex_diagonal_with_imaginary_parts_is_the_dense_svd_norm(real, at, imag):
    """A diagonal entry with a nonzero imaginary part makes the matrix non-Hermitian: it keeps the svd norm."""
    d = np.array(real, dtype=complex)
    d[at % len(d)] += 1j * imag
    assert _same_float(spectral_norm(np.diag(d)), _dense_spectral_norm(np.diag(d)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8), st.integers(0, 2**32 - 1), st.sampled_from([float, complex]))
def test_permuted_blocks_non_hermitian_and_stacked_norms_match_the_dense_norm(sizes, seed, dtype):
    rng = np.random.default_rng(seed)
    a, _ = _planted_blocks(rng, sizes, dtype)
    skew = a * (rng.random(a.shape) < 0.5)  # drops one side of some pairs: not Hermitian
    for m in (a, skew, np.stack([a, skew]), np.stack([a, a.T.conj()])):
        assert _same_float(spectral_norm(m), _dense_spectral_norm(m))


@given(st.lists(_FINITE, min_size=1, max_size=8), st.integers(0, 7))
def test_nan_diagonal_still_raises(diagonal, at):
    d = np.array(diagonal)
    d[at % len(d)] = math.nan
    for norm in (spectral_norm, _dense_spectral_norm):
        with pytest.raises(np.linalg.LinAlgError):
            norm(np.diag(d))


@st.composite
def _patterns(draw):
    """A random square pattern up to 40 x 40 (symmetric or not), its density drawn too, with random values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, density = draw(st.integers(0, 40)), draw(st.sampled_from([0.0, 0.01, 0.03, 0.08, 0.3, 1.0]))
    a = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    return a + a.T if draw(st.booleans()) else a


@settings(max_examples=200, deadline=None)
@given(_patterns())
def test_connected_blocks_from_the_entries_match_the_dense_blocks(a):
    got, want = connected_blocks(Entries.of(a)), _dense_connected_blocks(a)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@settings(max_examples=100, deadline=None)
@given(_patterns())
def test_block_eigh_matches_the_dense_blocks(a):
    """block_eigh over the entry-list blocks gives what it gave over the dense blocks, bit for bit."""
    a = a + a.T
    got = block_eigh(a, -np.inf)
    with mock.patch.object(_linalg, "connected_blocks", lambda entries: _dense_connected_blocks(entries.matrix)):
        want = block_eigh(a, -np.inf)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _dense_sparse_product(a, b):
    """sparse_product as it was before slot entries: the pairs added into a dense zero matrix in order, or a @ b beyond m * n pairs."""
    (m, inner), n = a.shape, b.shape[1]
    a_rows, a_cols = np.nonzero(a)
    b_rows, b_cols = np.nonzero(b)
    per_row = np.bincount(b_rows, minlength=inner)
    counts = per_row[a_cols]
    total = int(counts.sum())
    if total > m * n:
        return a @ b
    left = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right = np.argsort(b_rows, kind="stable")[(np.cumsum(per_row) - per_row)[a_cols[left]] + offsets]
    out = exact_zeros((m, n)) if a.dtype == object else np.zeros((m, n), dtype=np.result_type(a, b))
    np.add.at(out.reshape(-1), a_rows[left] * n + b_cols[right], a[a_rows, a_cols][left] * b[b_rows, b_cols][right])
    return out


def _dense_block_eigh(a):
    """block_eigh as it was before it kept only some columns: every eigenvector scattered into an n x n array."""
    n = a.shape[0]
    parts = [(idx, *np.linalg.eigh(a[idx[:, :, None], idx[:, None, :]])) for idx in _dense_connected_blocks(a)]
    vals = np.concatenate([w.ravel() for _, w, _ in parts]) if parts else np.zeros(0)
    order = np.argsort(vals, kind="stable")
    column = np.empty(n, dtype=int)
    column[order] = np.arange(n)
    vecs = np.zeros((n, n), dtype=np.result_type(a.dtype, float))
    start = 0
    for idx, _, v in parts:
        vecs[idx[:, :, None], column[start:start + idx.size].reshape(idx.shape)[:, None, :]] = v
        start += idx.size
    return vals[order], vecs


def _norm_or_error(norm, a):
    try:
        return np.float64(norm(a)).tobytes()
    except np.linalg.LinAlgError:
        return "LinAlgError"


def _slots_when_smaller():
    """``ordered_sum`` with no position floor: a sum of any size takes slots when they take less memory."""
    return mock.patch.object(_linalg, "SLOT_POSITIONS", 0)


@st.composite
def _factors(draw, square=False):
    """(a, b): sparse real, complex or Fraction factors of one inner size; some pair sums cancel to zero and NaN is drawn too.

    A copy of one column of ``a`` with its sign flipped, over a copy of the
    matching row of ``b``, makes those pairs cancel exactly; tiny values
    make products that round to zero.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["real", "complex", "fraction"]))
    m, inner = draw(st.integers(1, 14)), draw(st.integers(1, 10))
    n = m if square else draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]))

    def sparse(shape):
        x = rng.standard_normal(shape) * (rng.random(shape) < density)
        if kind == "complex":
            x = x + 1j * rng.standard_normal(shape) * (rng.random(shape) < 0.5) * (x != 0)
        if kind == "fraction":
            x = np.vectorize(lambda v: Fraction(int(round(4 * v.real))) / 3, otypes=[object])(x)
        return x

    a, b = sparse((m, inner)), sparse((inner, n))
    if inner > 1 and draw(st.booleans()):
        a[:, -1], b[-1] = -a[:, 0], b[0]
    if kind != "fraction" and draw(st.booleans()):
        a[rng.integers(m), rng.integers(inner)] = 1e-200
        b[rng.integers(inner), rng.integers(n)] = -1e-200
    if kind != "fraction" and draw(st.integers(0, 9)) == 0:
        a[rng.integers(m), rng.integers(inner)] = math.nan
    return a, b


def _same_entries(got, want):
    """The same dtype and, entry by entry, equal Fractions or the same float bits, signs of zeros included."""
    if want.dtype == object:
        return got.dtype == object and _same_fractions(got, want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _pairs(a, b):
    """How many pairs of nonzero entries a[i, k], b[k, j] there are."""
    return int(((a != 0).astype(int) @ (b != 0).astype(int)).sum())


def _factors_of(a, b, ea, eb):
    """The factors to pass: the dense arrays past the pair bound, where the product is their ``a @ b``, else the entries."""
    return (a, b) if _pairs(a, b) > a.shape[0] * b.shape[1] else (ea, eb)


@settings(max_examples=200, deadline=None)
@given(_factors())
def test_slot_entries_hold_the_dense_product_bits(factors):
    """Every slot holds what the dense accumulation holds there; the positions without a slot hold +0 there.

    The product takes slots exactly when there are at most as many pairs as
    positions and 16 bytes a pair is less than the itemsize of each position.
    """
    a, b = factors
    with _slots_when_smaller():
        got = sparse_product(*_factors_of(a, b, Entries.of(a), Entries.of(b)))
    want = _dense_sparse_product(a, b)
    pairs, positions = _pairs(a, b), want.size
    assert isinstance(got, Entries) == (pairs <= positions and 16 * pairs < want.dtype.itemsize * positions)
    if isinstance(got, np.ndarray):  # the dense product: a @ b, or the pairs added into a dense array
        assert _same_entries(got, want) if a.dtype == object else _same_bits_or_nan(got, want)
        return
    keys = got.rows * got.shape[1] + got.cols
    assert np.all(np.diff(keys) > 0)
    reached = (to_float_array(a) != 0).astype(int) @ (to_float_array(b) != 0).astype(int) > 0
    assert np.array_equal(np.flatnonzero(reached), keys)
    assert _same_entries(got.matrix, want)


@settings(max_examples=200, deadline=None)
@given(_factors(square=True))
def test_entry_norms_match_the_dense_norm_bit_for_bit(factors):
    """spectral_norm(minus_identity(...)) of products, Grams and sums as slot entries, against the dense chain.

    Products of two factors are mostly not Hermitian (the svd of the dense
    matrix); Grams are, unless a NaN entered (svd, which raises).
    """
    a, b = factors
    ea, eb = Entries.of(a), Entries.of(b)
    cases = [
        (_factors_of(a, b, ea, eb), _dense_sparse_product(a, b)),
        (_factors_of(a, a.conj().T, ea, ea.adjoint), _dense_sparse_product(a, a.conj().T)),
        (_factors_of(b.conj().T, b, eb.adjoint, eb), _dense_sparse_product(b.conj().T, b)),
    ]
    with _slots_when_smaller():
        got = [sparse_product(*pair) for pair, _ in cases]
        got.append(got[1] + got[2] if got[1].shape == got[2].shape else got[1])
    want = [dense for _, dense in cases]
    want.append(want[1] + want[2] if want[1].shape == want[2].shape else want[1])
    for g, w in zip(got, want):
        assert _same_entries(minus_identity(g).matrix if isinstance(g, Entries) else minus_identity(g), minus_identity(w))
        assert _norm_or_error(spectral_norm, minus_identity(g)) == _norm_or_error(
            _dense_spectral_norm, to_float_array(minus_identity(w))
        )


@settings(max_examples=200, deadline=None)
@given(_factors(), st.floats(0.0, 1.0))
def test_entry_eigh_matches_the_dense_eigh_bit_for_bit(factors, quantile):
    """block_eigh of the Hermitian part of a slot Gram gives the dense eigenvalues and the kept dense eigenvectors, bits and layout."""
    a = to_float_array(factors[0])
    assert a.dtype != object
    if np.isnan(a).any():
        return
    ea = Entries.of(a)
    with _slots_when_smaller():
        gram = sparse_product(ea.adjoint, ea)
    dense = hermitian_part(_dense_sparse_product(a.conj().T, a))
    sym = hermitian_part(gram)
    assert _same_entries(sym.matrix if isinstance(sym, Entries) else sym, dense)
    want_vals, want_vecs = _dense_block_eigh(dense)
    floor = float(np.quantile(want_vals, quantile))
    vals, vecs = block_eigh(sym, floor)
    kept = want_vecs[:, want_vals >= floor]
    assert vals.tobytes() == want_vals.tobytes()
    assert vecs.shape == kept.shape and vecs.tobytes(order="A") == kept.tobytes(order="A")
    assert vecs.flags.f_contiguous == kept.flags.f_contiguous


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermitian_part_of_entries_is_the_dense_one_bit_for_bit(dtype):
    """Mirrors that are absent enter as the conjugate of +0, so imaginary parts of -0.0 keep their sign as they do densely."""
    rng = np.random.default_rng(35)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        a = _sparse(rng, (n, n), 0.3, dtype) + 0.0  # no -0.0 off the pattern
        if dtype is complex:
            a.imag[(a.real != 0) & (rng.random((n, n)) < 0.5)] = -0.0
        got = hermitian_part(Entries.of(a))
        assert isinstance(got, Entries) and _same_entries(got.matrix, hermitian_part(a))


def _permutation_like(rng, n, extra, dtype):
    """A signed permutation matrix plus ``extra`` small entries: the pattern of the block unitary U."""
    u = np.zeros((n, n), dtype=dtype)
    u[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], n)
    u[rng.integers(0, n, extra), rng.integers(0, n, extra)] += 0.1 * rng.standard_normal(extra)
    return u


@pytest.mark.parametrize("dtype", [float, complex])
def test_large_sparse_grams_stay_entries_and_small_ones_dense(dtype):
    """At 300 x 300 with one entry per row the Grams are slot entries, at 17 x 17 dense arrays; both norms are the dense ones."""
    rng = np.random.default_rng(31)
    for n, kind in [(300, Entries), (17, np.ndarray)]:
        u = _permutation_like(rng, n, 6, dtype)
        eu = Entries.of(u)
        for got, want in [
            (sparse_product(eu.adjoint, eu), _dense_sparse_product(u.conj().T, u)),
            (sparse_product(eu, eu.adjoint), _dense_sparse_product(u, u.conj().T)),
        ]:
            assert isinstance(got, kind)
            assert _norm_or_error(spectral_norm, minus_identity(got)) == _norm_or_error(_dense_spectral_norm, minus_identity(want))
            vals, vecs = block_eigh(hermitian_part(got), 1.0 - 1e-9)
            want_vals, want_vecs = _dense_block_eigh(hermitian_part(want))
            assert vals.tobytes() == want_vals.tobytes()
            assert vecs.tobytes(order="A") == want_vecs[:, want_vals >= 1.0 - 1e-9].tobytes(order="A")


def test_blocks_beside_and_above_are_the_block_matrix():
    """One to three rows of one to four blocks, empty blocks included: the entries of the dense block matrix, in order."""
    rng = np.random.default_rng(32)
    grid = [[_sparse(rng, (3, 4), 0.3, float), _sparse(rng, (3, 2), 0.5, complex)], [_sparse(rng, (5, 4), 0.2, float), np.zeros((5, 2))]]
    wide = [_sparse(rng, (6, 3), 0.4, float), np.zeros((6, 0)), _sparse(rng, (6, 5), 0.3, float), _sparse(rng, (6, 1), 0.9, float)]
    column = [[_sparse(rng, (2, 3), 0.5, float)], [np.zeros((0, 3))], [_sparse(rng, (4, 3), 0.5, complex)]]
    for blocks in (grid, [wide], column, [wide[:1]]):
        got = functools.reduce(above, [functools.reduce(beside, [Entries.of(x) for x in row]) for row in blocks])
        want = Entries.of(np.vstack([np.hstack(row) for row in blocks]))
        assert got.shape == want.shape
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in [(got.rows, want.rows), (got.cols, want.cols), (got.values, want.values)])


def test_sums_with_dense_arrays_are_dense():
    rng = np.random.default_rng(33)
    a = _permutation_like(rng, 200, 3, float)
    ea = Entries.of(a)
    slots = sparse_product(ea, ea.adjoint)
    dense = a @ a.T
    assert isinstance(slots, Entries)
    for got in (slots + dense, dense + slots):
        assert isinstance(got, np.ndarray) and np.array_equal(got, slots.matrix + dense)


def _refuse(*args, **kwargs):
    raise AssertionError("LAPACK called")


@pytest.mark.parametrize("shape", [(455, 4), (455, 12), (20, 4, 4), (6, 6), (3, 1, 5), (4, 4, 4, 4)])
@pytest.mark.parametrize("dtype", [float, complex, object])
def test_zero_input_norm_is_zero_without_lapack(shape, dtype):
    a = exact_zeros(shape) if dtype == object else np.zeros(shape, dtype=dtype)
    if dtype is float:
        a[..., 0] = -0.0
    with mock.patch.object(np.linalg, "svd", _refuse), mock.patch.object(np.linalg, "eigvalsh", _refuse):
        assert _same_float(spectral_norm(a), 0.0)
    assert _same_float(_dense_spectral_norm(to_float_array(a)), 0.0)


def _full_svd_complement(a):
    """The complement as the full SVD gives it: LAPACK's U past the rank."""
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    return u[:, int(np.sum(s > _linalg.RANK_CUTOFF * max(1.0, s[0] if s.size else 0.0))):]


def _counting_svd(calls):
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(kwargs.get("full_matrices", True) and kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    return counted


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 6), st.sampled_from([float, complex]))
def test_prefix_complement_is_the_svd_complement_bit_for_bit(seed, m, cols, dtype):
    """Nonzero rows that are the first k = min(m, cols), of rank k: the unit columns e_k ... e_{m-1}, LAPACK's full U there, with no full SVD."""
    rng = np.random.default_rng(seed)
    k = min(m, cols)
    a = np.zeros((m, cols), dtype=dtype)
    a[:k] = _sparse(rng, (k, cols), 1.0, dtype)
    calls = []
    with mock.patch.object(np.linalg, "svd", _counting_svd(calls)):
        got = range_complement(a).matrix
    want = _full_svd_complement(a)
    assert not any(calls) and want.shape == (m, m - k)
    assert got.dtype == want.dtype and got.tobytes(order="A") == want.tobytes(order="A")
    assert got.flags.c_contiguous and got.flags.owndata  # formed at its own size, not a view of an m x m identity


@pytest.mark.parametrize("case", ["gap", "rank_deficient", "late_row", "more_columns", "zero"])
def test_other_complements_take_the_full_svd(case):
    rng = np.random.default_rng(34)
    a = np.zeros((9, 3))
    a[:3] = rng.standard_normal((3, 3))
    if case == "gap":
        a[1] = 0.0  # nonzero rows 0 and 2: not a prefix
    elif case == "rank_deficient":
        a[2] = a[0] + a[1]
    elif case == "late_row":
        a[8, 1] = 1e-300
    elif case == "more_columns":
        a[2] = 0.0  # two nonzero rows under three columns: LAPACK may rotate e_2 with the null space
    else:
        a[:] = 0.0
    calls = []
    with mock.patch.object(np.linalg, "svd", _counting_svd(calls)):
        got = range_complement(a).matrix
    assert any(calls)
    assert got.tobytes(order="A") == _full_svd_complement(a).tobytes(order="A")


# signed zeros, inf, NaN and terms whose sum depends on its order, (1e16 + 1) - 1e16 against (1e16 - 1e16) + 1
_SCATTER_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, 1e16, -1e16, 0.1, 0.2, 0.3]), st.floats(-1e300, 1e300)
)


@st.composite
def _scatter_cases(draw):
    """(out, parts of (slots, values)) with repeated slots, empty parts, signed zeros, inf and NaN, in one arithmetic."""
    kind = draw(st.sampled_from(["float", "complex", "fraction"]))
    rows, tail = draw(st.integers(1, 6)), draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    if kind == "fraction":
        scalar = st.fractions(max_denominator=50).map(lambda f: Fraction(f.numerator, f.denominator))
    elif kind == "float":
        scalar = _SCATTER_FLOATS
    else:
        scalar = st.builds(complex, _SCATTER_FLOATS, _SCATTER_FLOATS)

    def array(count):
        values = draw(st.lists(scalar, min_size=count * math.prod(tail), max_size=count * math.prod(tail)))
        return np.array(values, dtype={"float": float, "complex": complex, "fraction": object}[kind]).reshape(count, *tail)

    out = array(rows)
    slots = draw(st.lists(st.integers(0, rows - 1), max_size=12))
    values = array(len(slots))
    cuts = sorted(draw(st.lists(st.integers(0, len(slots)), max_size=4)))
    bounds = list(zip([0] + cuts, cuts + [len(slots)]))
    return out, [(np.array(slots[a:b], dtype=int), values[a:b]) for a, b in bounds]


def _same_bits_or_nan(got, want):
    """The same dtype and float bits, signs of zeros included, and NaN at the same places: IEEE leaves a NaN's sign
    and payload open, and numpy's array and scalar loops pick them differently (inf + -inf + nan gives either)."""
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    parts = [(got.real, want.real), (got.imag, want.imag)] if got.dtype == complex else [(got, want)]
    for x, y in parts:
        nan = np.isnan(x)
        if not np.array_equal(nan, np.isnan(y)) or x[~nan].tobytes() != y[~nan].tobytes():
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(_scatter_cases())
def test_scatter_add_is_the_ordered_loop_bit_for_bit(case):
    """Parts in turn add each value into its row in list order, as the loop ``out[s] += v`` does, from the row's own value."""
    out, parts = case
    want = out.copy()
    for slots, values in parts:
        for slot, value in zip(slots, values):
            want[slot] += value
    for slots, values in parts:
        assert scatter_add(out, slots, values) is out
    assert _same_fractions(out, want) if want.dtype == object else _same_bits_or_nan(out, want)


def test_scatter_add_refuses_a_strided_output():
    """A strided view would take the sums in a flat copy and lose them."""
    with pytest.raises(ValueError):
        scatter_add(np.zeros((5, 4)).T, np.array([3, 0]), np.ones((2, 5)))


@st.composite
def _ordered_sum_cases(draw):
    """((m, n), dtype, parts of (flat positions, values)): repeated positions, empty parts, signed zeros, inf, NaN.

    The positions come from a pool of at most three, so they repeat; the shape
    ranges from fewer positions than keys to many more, so that with no
    position floor either form can be taken.
    """
    kind = draw(st.sampled_from(["float", "complex", "fraction"]))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    if kind == "fraction":
        scalar = st.fractions(max_denominator=50).map(lambda f: Fraction(f.numerator, f.denominator))
    elif kind == "float":
        scalar = _SCATTER_FLOATS
    else:
        scalar = st.builds(complex, _SCATTER_FLOATS, _SCATTER_FLOATS)
    dtype = {"float": np.dtype(float), "complex": np.dtype(complex), "fraction": np.dtype(object)}[kind]
    pool = draw(st.lists(st.integers(0, shape[0] * shape[1] - 1), min_size=1, max_size=3))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        positions = draw(st.lists(st.sampled_from(pool), max_size=8))
        values = draw(st.lists(scalar, min_size=len(positions), max_size=len(positions)))
        parts.append((np.array(positions, dtype=np.intp), np.array(values, dtype=dtype)))
    return shape, dtype, parts


@settings(max_examples=300, deadline=None)
@given(_ordered_sum_cases())
def test_ordered_sum_is_the_ordered_loop_bit_for_bit(case):
    """Both forms add every part's values at its positions in list order, part after part, from zeros of the dtype.

    With no position floor the sum takes slots exactly when 16 bytes a key
    is less than the itemsize of each position; the slots are one per
    position some key reaches, row-major, and +0 is everywhere else. With an
    infinite floor it is the dense array.
    """
    shape, dtype, parts = case
    want = exact_zeros(shape) if dtype == object else np.zeros(shape, dtype=dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        for positions, values in parts:
            for at, value in zip(positions, values):
                want.flat[at] += value
    sizes = [len(positions) for positions, _ in parts]
    same = _same_fractions if dtype == object else _same_bits_or_nan
    for floor, slots in ((math.inf, False), (0, 16 * sum(sizes) < dtype.itemsize * want.size)):
        with mock.patch.object(_linalg, "SLOT_POSITIONS", floor), np.errstate(invalid="ignore", over="ignore"):
            got = ordered_sum(shape, dtype, sizes, lambda i: parts[i][0], lambda i: parts[i][1])
        assert isinstance(got, Entries) == slots
        if slots:
            reached = np.unique(np.concatenate([positions for positions, _ in parts]))
            assert np.array_equal(got.rows * shape[1] + got.cols, reached)
            got = got.matrix
        assert same(got, want)


@pytest.mark.parametrize(
    "shape, keys, dtype, slots",
    [
        ((128, 256), 1, float, True),  # SLOT_POSITIONS positions exactly
        ((127, 256), 1, float, False),
        ((256, 256), 32767, float, True),  # 16 bytes a key against 8 a position
        ((256, 256), 32768, float, False),
        ((256, 256), 65535, complex, True),  # against 16 a position
        ((256, 256), 65536, complex, False),
        ((256, 256), 32767, object, True),  # a pointer a position
        ((256, 256), 32768, object, False),
    ],
)
def test_ordered_sum_takes_slots_on_large_matrices_when_they_are_smaller(shape, keys, dtype, slots):
    """Slots when the matrix has at least SLOT_POSITIONS positions and 16 bytes a key is less than its itemsize a position."""
    dtype = np.dtype(dtype)
    positions = np.arange(keys, dtype=np.intp) % (shape[0] * shape[1])
    terms = _linalg._zeros(keys, dtype)
    got = ordered_sum(shape, dtype, [keys], lambda _: positions, lambda _: terms)
    assert isinstance(got, Entries) == slots and got.shape == shape


@pytest.mark.parametrize("left, right", [(float, float), (float, complex), (complex, float)])
@pytest.mark.parametrize("m, k, n", [(40, 30, 5), (455, 463, 12), (7, 463, 1), (120, 130, 33)])
def test_single_term_product_is_the_blas_product_bit_for_bit(left, right, m, k, n):
    """Real rows of one entry or none: each output is one term, with the value of ``@``, and on a real ``b`` its bits.

    Complex rows are refused: a complex times a complex entry is a sum of two
    products, and BLAS fuses them otherwise than numpy's scalar product.
    """
    rng = np.random.default_rng(m + k + n)
    a = np.zeros((m, k), dtype=left)
    rows = rng.choice(m, size=m // 2, replace=False)
    a[rows, rng.integers(0, k, len(rows))] = _sparse(rng, (len(rows),), 1.0, left)
    b = _sparse(rng, (k, n), 0.7, right)
    want = a @ b
    for entries in (Entries.of(a), Entries.of(a).adjoint.adjoint):
        got = single_term_product(entries, b)
        if left == complex:
            assert got is None
        elif right == float:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_single_term_product_refuses_a_row_of_two_entries_and_keeps_fractions():
    a = _fractions([[0, Fraction(1, 2), 0], [0, 0, 0], [3, 0, 0]])
    b = _fractions([[1, 2], [Fraction(2, 3), 0], [5, 5]])
    assert _same_fractions(single_term_product(Entries.of(a), b), a @ b)
    a[0, 2] = Fraction(1)
    assert single_term_product(Entries.of(a), b) is None


@pytest.mark.parametrize("slots", [False, True])
def test_ordered_sum_reads_the_parts_in_turn(slots):
    """Dense sums read each part's keys with its terms; slot sums read every key first, then the terms part by part."""
    calls = []

    def keys(i):
        calls.append(("keys", i))
        return np.array([i, 0])

    def terms(i):
        calls.append(("terms", i))
        return np.array([1.0, 2.0])

    with mock.patch.object(_linalg, "SLOT_POSITIONS", 0 if slots else math.inf):
        got = ordered_sum((4, 4), np.dtype(float), [2, 2, 2], keys, terms)  # 96 bytes of keys, 128 of positions
    assert isinstance(got, Entries) == slots
    if slots:
        assert calls == [("keys", 0), ("keys", 1), ("keys", 2), ("terms", 0), ("terms", 1), ("terms", 2)]
        got = got.matrix
    else:
        assert calls == [("keys", 0), ("terms", 0), ("keys", 1), ("terms", 1), ("keys", 2), ("terms", 2)]
    assert np.array_equal(got, [[7.0, 1.0, 1.0, 0.0], [0.0] * 4, [0.0] * 4, [0.0] * 4])


@pytest.mark.parametrize("dtype", [float, object])
def test_entries_with_no_slots_read_zeros(dtype):
    """An empty ordered sum or sparse product taken as slots holds +0 everywhere, read at any positions or at none."""
    dtype = np.dtype(dtype)
    zero = _linalg._zeros(1, dtype)
    with _slots_when_smaller():
        empty = [
            ordered_sum((3, 4), dtype, [0], lambda _: np.zeros(0, dtype=np.intp), lambda _: np.zeros(0, dtype=dtype)),
            sparse_product(Entries.of(_linalg._zeros(6, dtype).reshape(3, 2)), Entries.of(_linalg._zeros(8, dtype).reshape(2, 4))),
        ]
    for entries in empty:
        assert isinstance(entries, Entries) and len(entries.values) == 0 and entries.values.dtype == dtype
        rows, cols = np.arange(3)[:, None], np.array([0, 3])[None, :]
        for at in [(rows, cols), (np.array([2]), np.array([1])), (np.zeros(0, dtype=int), np.zeros(0, dtype=int))]:
            got, want = entries.at(*at), entries.matrix[at]
            assert got.shape == want.shape and got.dtype == dtype
            assert _same_fractions(got, want) if dtype == object else got.tobytes() == want.tobytes()
