"""Closed-form oracles for theta at a scalar point, real and complex.

For the 1 x 1 tuple T_i = [[lambda_i]] the pointwise identity of theta reads

    theta(z) theta(w)^* = (k(z,w) - k(z,lambda) k(lambda,w) / k(lambda,lambda)) / s(z,w)

for every kernel k with a CNP factor s. Here k and s are summed in closed
form as functions of t = <z,w>: (1 - t)^(-m) for Bergman m, -log(1 - t)/t
for Dirichlet and their product for DA*Dirichlet, not from their truncated
series; theta comes from its Taylor coefficients at kernel truncation 64 and
caps 40. A complex point also checks that no step of the construction drops
imaginary parts.

For a 2 x 2 Jordan block J = lambda I + c N, with N^2 = 0 and k summed as
f(<z, w>), the partition V V^* + M_theta M_theta^* = I reads

    Q theta(z) theta(w)^* Q^* = (k(z,w) P - Defect f(conj(z) J)^* f(conj(w) J) Defect) / s(z,w)

in the basis Q of Ran Defect, with P = Q Q^* and
f(x J) = f(x lambda) I + x c f'(x lambda) N. The defect has rank 2 there,
so these are the oracles for a non-normal tuple beyond a scalar point.

The same identity holds for the direct sum T = diag(lambda_1, lambda_2) of
two scalar points, with f(x T) = diag(f(x lambda_1), f(x lambda_2)), and
its defect is diagonal of rank 2. In d variables x J reads sum_i x_i T_i:
for the commuting Drury-Arveson pair T_i = lambda_i I + c_i N,
f(sum_i x_i T_i) = f(mu) I + eta f'(mu) N with mu = sum_i x_i lambda_i and
eta = sum_i x_i c_i.
"""

import numpy as np
import pytest

from cnpchar._linalg import Entries
from cnpchar.charfn import (
    build_charfn,
    build_multiplier,
    factorization_residual,
    k_inner_subspace,
    theta_taylor_at,
)
from cnpchar.dilation import build_dilation
from cnpchar.operators import OperatorTuple, defect_data
from cnpchar.series import (
    bergman_kernel,
    cauchy_product,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    szego_kernel,
)

N, CAP, TOL = 64, 40, 1e-12


def szego():
    return szego_kernel(1, N)


def da2():
    return drury_arveson_kernel(2, N)


def da1():
    return drury_arveson_kernel(1, N)


def da3():
    return drury_arveson_kernel(3, N)


def bergman2():
    return bergman_kernel(2, 1, N)


def bergman2_d2():
    return bergman_kernel(2, 2, N)


def bergman3():
    return bergman_kernel(3, 1, N)


def dirichlet1():
    return dirichlet_kernel(1, N)


def dadir1():
    return cauchy_product(da1(), dirichlet1())


def dadir2():
    return cauchy_product(da2(), dirichlet_kernel(2, N))


def power(m):
    """t -> (1 - t)^(-m)."""
    return lambda t: (1 - t) ** (-m)


def power_slope(m):
    """t -> m (1 - t)^(-m - 1), the derivative of power(m)."""
    return lambda t: m * (1 - t) ** (-m - 1)


def dirichlet_sum(t):
    """-log(1 - t)/t; every t these tests pass has |t| > 0.01, where the quotient loses little to cancellation."""
    return -np.log(1 - t) / t


def dadir_sum(t):
    return dirichlet_sum(t) / (1 - t)


# name -> (kernel k, CNP factor s, k and s summed in closed form, lambda)
CASES = {
    "szego_half": (szego, szego, power(1), power(1), [0.5]),
    "szego_complex": (szego, szego, power(1), power(1), [0.3 + 0.4j]),
    "da2_real": (da2, da2, power(1), power(1), [0.3, 0.4]),
    "da2_complex": (da2, da2, power(1), power(1), [0.3j, 0.4 - 0.1j]),
    # a real T_1 beside a complex T_2
    "da2_mixed": (da2, da2, power(1), power(1), [0.3, 0.4j]),
    "bergman2_szego_half": (bergman2, szego, power(2), power(1), [0.5]),
    "da3_real": (da3, da3, power(1), power(1), [0.3, -0.2, 0.4]),
    "da3_complex": (da3, da3, power(1), power(1), [0.3j, 0.2 - 0.1j, -0.4]),
    "bergman2_da2": (bergman2_d2, da2, power(2), power(1), [0.3, 0.4]),
    "bergman2_da2_complex": (bergman2_d2, da2, power(2), power(1), [0.3j, 0.4 - 0.1j]),
    "bergman3_da1_half": (bergman3, da1, power(3), power(1), [0.5]),
    "dadir_da1_half": (dadir1, da1, dadir_sum, power(1), [0.5]),
    "dadir_da1_complex": (dadir1, da1, dadir_sum, power(1), [0.3 + 0.4j]),
    "dadir_da2_real": (dadir2, da2, dadir_sum, power(1), [0.3, 0.4]),
    "dadir_dir1_half": (dadir1, dirichlet1, dadir_sum, dirichlet_sum, [0.5]),
    "dadir_dir1_complex": (dadir1, dirichlet1, dadir_sum, dirichlet_sum, [0.3 + 0.4j]),
}


def inner(z, w):
    """<z, w> = sum z_i conj(w_i)."""
    return np.vdot(w, z)


def scalar_point(mats, k, s):
    t = OperatorTuple(tuple(np.asarray(m) for m in mats))
    dd = defect_data(t, k, s)
    return dd, build_charfn(dd, factor_through_pick(k, s), support_cap=CAP, constant_cap=CAP)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    kernel, pick, k_sum, s_sum, lam = CASES[request.param]
    dd, cfd = scalar_point([[[x]] for x in lam], kernel(), pick())
    return dd, cfd, k_sum, s_sum, np.array(lam)


def test_pointwise_identity_closed_form(case):
    _, cfd, k_sum, s_sum, lam = case
    rng = np.random.default_rng(0)
    d = len(lam)

    def points():
        v = rng.standard_normal((20, d)) + 1j * rng.standard_normal((20, d))
        return 0.3 * v / np.linalg.norm(v, axis=1, keepdims=True)

    zs, ws = points(), points()
    for z, w, tz, tw in zip(zs, ws, theta_taylor_at(cfd, zs), theta_taylor_at(cfd, ws)):
        k_zl = k_sum(inner(z, lam)) * k_sum(inner(lam, w)) / k_sum(inner(lam, lam))
        expected = (k_sum(inner(z, w)) - k_zl) / s_sum(inner(z, w))
        assert (tz @ tw.conj().T).shape == (1, 1)
        assert abs((tz @ tw.conj().T)[0, 0] - expected) <= TOL


def test_dilation_isometry_and_block_unitarity(case):
    dd, cfd = case[:2]
    assert build_dilation(dd, CAP).isometry_residual <= TOL
    assert cfd.diagnostics["unitary_gram"] <= TOL
    assert cfd.diagnostics["unitary_cogram"] <= TOL


# name -> (kernel k, CNP factor s, k summed in closed form, its derivative, s summed, lambda, c)
JORDAN_CASES = {
    "szego_jordan": (szego, szego, power(1), power_slope(1), power(1), 0.3, 0.5),
    "szego_jordan_complex": (szego, szego, power(1), power_slope(1), power(1), 0.3 + 0.4j, 0.4),
    "bergman2_szego_jordan": (bergman2, szego, power(2), power_slope(2), power(1), 0.3, 0.3),
    "bergman2_szego_jordan_complex": (bergman2, szego, power(2), power_slope(2), power(1), 0.2 + 0.2j, 0.2),
}


def _assert_defect_identity(mats, kernel, pick, k_sum, s_sum, f):
    """Q theta(z) theta(w)^* Q^* = (k(z,w) P - Defect f(conj(z) T)^* f(conj(w) T) Defect) / s(z,w) at 20 pairs.

    ``f(x)`` is k's closed form at the operator sum_i x_i T_i, for the tuple
    ``mats`` of d commuting 2 x 2 matrices, whose defect must have rank 2;
    it receives the conjugated point x = conj(z).
    """
    dd, cfd = scalar_point(mats, kernel, pick)
    q, defect = dd.ran_defect_basis, dd.defect
    assert q.shape == (2, 2)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((2, 20, len(mats))) + 1j * rng.standard_normal((2, 20, len(mats)))
    zs, ws = 0.3 * v / np.linalg.norm(v, axis=-1, keepdims=True)
    for z, w, tz, tw in zip(zs, ws, theta_taylor_at(cfd, zs), theta_taylor_at(cfd, ws)):
        t = inner(z, w)
        expected = (k_sum(t) * q @ q.conj().T - defect @ f(np.conj(z)).conj().T @ f(np.conj(w)) @ defect) / s_sum(t)
        assert np.abs(q @ tz @ tw.conj().T @ q.conj().T - expected).max() <= TOL


@pytest.mark.parametrize("name", sorted(JORDAN_CASES))
def test_jordan_block_identity_closed_form(name):
    kernel, pick, k_sum, k_slope, s_sum, lam, c = JORDAN_CASES[name]
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])

    def f(x):
        return k_sum(x[0] * lam) * np.eye(2) + x[0] * c * k_slope(x[0] * lam) * nil

    _assert_defect_identity([lam * np.eye(2) + c * nil], kernel(), pick(), k_sum, s_sum, f)


# name -> (kernel k, CNP factor s, k summed in closed form, s summed, (lambda_1, lambda_2))
DIAGONAL_CASES = {
    "szego_diagonal": (szego, szego, power(1), power(1), (0.5, 0.3 + 0.4j)),
    "bergman2_szego_diagonal": (bergman2, szego, power(2), power(1), (0.3, -0.2j)),
}


@pytest.mark.parametrize("name", sorted(DIAGONAL_CASES))
def test_direct_sum_of_scalar_points_closed_form(name):
    kernel, pick, k_sum, s_sum, lam = DIAGONAL_CASES[name]
    lam = np.array(lam)
    _assert_defect_identity([np.diag(lam)], kernel(), pick(), k_sum, s_sum, lambda x: np.diag(k_sum(x[0] * lam)))


# name -> (lambda, c) of the commuting pair T_i = lambda_i I + c_i N through DA_2 (k = s = DA)
DA_PAIR_CASES = {
    "da2_jordan_pair": ((0.3, 0.4), (0.3, 0.2)),
    "da2_jordan_pair_complex": ((0.3j, 0.4 - 0.1j), (0.2, 0.3j)),
}


@pytest.mark.parametrize("name", sorted(DA_PAIR_CASES))
def test_commuting_da_jordan_pair_closed_form(name):
    """f(sum x_i T_i) = f(mu) I + eta f'(mu) N, with mu = sum x_i lambda_i and eta = sum x_i c_i."""
    lam, c = (np.array(v) for v in DA_PAIR_CASES[name])
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    k_sum, k_slope = power(1), power_slope(1)

    def f(x):
        mu, eta = x @ lam, x @ c
        return k_sum(mu) * np.eye(2) + eta * k_slope(mu) * nil

    _assert_defect_identity([l * np.eye(2) + ci * nil for l, ci in zip(lam, c)], da2(), da2(), k_sum, k_sum, f)


def test_projection_partition_at_a_complex_point():
    dd, cfd = scalar_point([[[0.3 + 0.4j]]], szego(), szego())
    dil = build_dilation(dd, 4 + cfd.taylor.max_degree)
    mult = build_multiplier(cfd, dil)
    gram = mult.gram.matrix if isinstance(mult.gram, Entries) else mult.gram
    assert np.iscomplexobj(gram) and np.iscomplexobj(mult.matrix)
    assert factorization_residual(cfd, dil, mult).restricted <= TOL


def test_k_inner_space_of_a_conjugated_complex_pair():
    """W diag(0.5, 0.3+0.4j) W^* is unitarily a sum of two scalar points, each inner."""
    k, s = bergman2(), szego()
    rng = np.random.default_rng(1)
    w = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    _, cfd = scalar_point([w @ np.diag([0.5, 0.3 + 0.4j]) @ w.conj().T], k, s)
    ki = k_inner_subspace(cfd)
    assert ki.dim == 2
    assert ki.shift_residual <= 1e-9
