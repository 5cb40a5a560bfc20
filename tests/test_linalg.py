"""The spectral norm helper: max |eigenvalue| on Hermitian input, the top singular value otherwise."""

import numpy as np
import pytest

from cnpchar._linalg import spectral_norm

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
