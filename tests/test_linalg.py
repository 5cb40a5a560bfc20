"""The spectral norm helper (max |eigenvalue| on Hermitian input, the top singular value otherwise) and the block helpers."""

from fractions import Fraction

import numpy as np
import pytest

from cnpchar._linalg import block_eigh, connected_blocks, is_diagonal, is_diagonal_rectangular, spectral_norm

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
    found = connected_blocks(a)
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
    assert [g.tolist() for g in connected_blocks(path)] == [[list(range(n))]]
    assert [g.tolist() for g in connected_blocks(np.zeros((3, 3)))] == [[[0], [1], [2]]]
    assert connected_blocks(np.zeros((0, 0))) == []


@pytest.mark.parametrize("dtype", [float, complex])
def test_diagonal_norm_is_eigvalsh_bit_for_bit(dtype):
    rng = np.random.default_rng(3)
    d = rng.standard_normal(40)
    d[::7] = 0.0
    a = np.diag(d).astype(dtype)
    assert [g.shape for g in connected_blocks(a)] == [(40, 1)]
    assert spectral_norm(a) == np.abs(np.linalg.eigvalsh(a)).max()


@pytest.mark.parametrize("name", ["real_symmetric", "complex_hermitian", "rank_deficient_psd"])
def test_single_block_norm_is_eigvalsh_bit_for_bit(name):
    a = HERMITIAN[name]
    assert [g.tolist() for g in connected_blocks(a)] == [[list(range(a.shape[0]))]]
    assert spectral_norm(a) == np.abs(np.linalg.eigvalsh(a)).max()


@pytest.mark.parametrize("dtype", [float, complex])
def test_block_eigh_is_an_ascending_eigendecomposition(dtype):
    a, _ = _planted_blocks(np.random.default_rng(6), [2, 1, 3, 2, 1, 4], dtype)
    w, v = block_eigh(a)
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
    """The array forms of is_diagonal and is_diagonal_rectangular agree with the entry loops on Fraction arrays."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        shape = tuple(rng.integers(1, 5, size=2))
        dense = rng.integers(-1, 2, size=shape) * (rng.random(shape) < 0.3)
        a = np.vectorize(Fraction, otypes=[object])(dense)
        square = a.shape[0] == a.shape[1]
        assert is_diagonal(a) == (square and all(a[i, j] == 0 for i in range(shape[0]) for j in range(shape[1]) if i != j))
        assert is_diagonal_rectangular(a) == _loop_is_diagonal_rectangular(a)
