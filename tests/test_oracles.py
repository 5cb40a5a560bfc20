"""Closed-form oracles for theta at a scalar point, real and complex.

For the 1 x 1 tuple T_i = [[lambda_i]] the pointwise identity of theta reads

    theta(z) theta(w)^* = (k(z,w) - k(z,lambda) k(lambda,w) / k(lambda,lambda)) / s(z,w)

for every kernel k with a CNP factor s. Here k and s are summed in closed
form, (1 - <z,w>)^(-m), not from their truncated series, and theta comes from
its Taylor coefficients at kernel truncation 64 and caps 40. A complex
point also checks that no step of the construction drops imaginary parts.
"""

import numpy as np
import pytest

from cnpchar.charfn import (
    build_charfn,
    build_multiplier,
    factorization_residual,
    k_inner_subspace,
    theta_taylor_at,
)
from cnpchar.dilation import build_dilation
from cnpchar.operators import OperatorTuple, defect_data
from cnpchar.series import bergman_kernel, drury_arveson_kernel, factor_through_pick, szego_kernel

N, CAP, TOL = 64, 40, 1e-12


def szego():
    return szego_kernel(1, N)


def da2():
    return drury_arveson_kernel(2, N)


def bergman2():
    return bergman_kernel(2, 1, N)


# name -> (kernel k = (1 - t)^(-m), CNP factor s = (1 - t)^(-1), m, lambda)
CASES = {
    "szego_half": (szego, szego, 1, [0.5]),
    "szego_complex": (szego, szego, 1, [0.3 + 0.4j]),
    "da2_real": (da2, da2, 1, [0.3, 0.4]),
    "da2_complex": (da2, da2, 1, [0.3j, 0.4 - 0.1j]),
    # a real T_1 beside a complex T_2
    "da2_mixed": (da2, da2, 1, [0.3, 0.4j]),
    "bergman2_szego_half": (bergman2, szego, 2, [0.5]),
}


def power_kernel(m, z, w):
    """(1 - <z, w>)^(-m), with <z, w> = sum z_i conj(w_i)."""
    return (1 - np.vdot(w, z)) ** (-m)


def scalar_point(mats, k, s):
    t = OperatorTuple(tuple(np.asarray(m) for m in mats), None, None, None, k)
    dd = defect_data(t, k, s)
    return dd, build_charfn(dd, factor_through_pick(k, s), support_cap=CAP, constant_cap=CAP)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    kernel, pick, m, lam = CASES[request.param]
    dd, cfd = scalar_point([[[x]] for x in lam], kernel(), pick())
    return dd, cfd, m, np.array(lam)


def test_pointwise_identity_closed_form(case):
    _, cfd, m, lam = case
    rng = np.random.default_rng(0)
    d = len(lam)

    def points():
        v = rng.standard_normal((20, d)) + 1j * rng.standard_normal((20, d))
        return 0.3 * v / np.linalg.norm(v, axis=1, keepdims=True)

    zs, ws = points(), points()
    for z, w, tz, tw in zip(zs, ws, theta_taylor_at(cfd, zs), theta_taylor_at(cfd, ws)):
        k_zl = power_kernel(m, z, lam) * power_kernel(m, lam, w) / power_kernel(m, lam, lam)
        expected = (power_kernel(m, z, w) - k_zl) / power_kernel(1, z, w)
        assert (tz @ tw.conj().T).shape == (1, 1)
        assert abs((tz @ tw.conj().T)[0, 0] - expected) <= TOL


def test_dilation_isometry_and_block_unitarity(case):
    dd, cfd, _, _ = case
    assert build_dilation(dd, CAP).isometry_residual <= TOL
    assert cfd.diagnostics["unitary_gram"] <= TOL
    assert cfd.diagnostics["unitary_cogram"] <= TOL


def test_projection_partition_at_a_complex_point():
    dd, cfd = scalar_point([[[0.3 + 0.4j]]], szego(), szego())
    target = 4 + cfd.max_taylor_degree
    mult = build_multiplier(cfd, 4, target)
    assert np.iscomplexobj(mult.matrix)
    assert factorization_residual(cfd, build_dilation(dd, target), mult).restricted <= TOL


def test_k_inner_space_of_a_conjugated_complex_pair():
    """W diag(0.5, 0.3+0.4j) W^* is unitarily a sum of two scalar points, each inner."""
    k, s = bergman2(), szego()
    rng = np.random.default_rng(1)
    w = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    _, cfd = scalar_point([w @ np.diag([0.5, 0.3 + 0.4j]) @ w.conj().T], k, s)
    ki = k_inner_subspace(cfd)
    assert ki.dim == 2
    assert ki.shift_residual <= 1e-9
