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
