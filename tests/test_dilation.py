import numpy as np
import pytest

from cnpchar._linalg import max_abs
from cnpchar.dilation import (
    MonomialWindow,
    associated_tuple_test,
    build_dilation,
    intertwining_residuals,
    kernel_vector_gap,
)
from cnpchar.operators import (
    NotPureError,
    OperatorTuple,
    defect_data,
    model_tuple,
    random_coinvariant_compression,
)
from cnpchar.series import (
    bergman_kernel,
    drury_arveson_kernel,
    is_positive_quotient,
    szego_kernel,
)


def jordan_dilation(target=5):
    k = szego_kernel(1, 24)
    t = model_tuple(k, 1, 1, mode="float")
    dd = defect_data(t, k)
    return build_dilation(dd, target), t, k


class TestBuild:
    def test_jordan_rows_by_hand(self):
        # defect = projection onto constants; T^* e_1 = e_0; so V maps
        # e_0 -> (1 tensor delta), e_1 -> (z tensor delta)
        dil, _, _ = jordan_dilation()
        v = dil.matrix
        assert np.allclose(v[:2, :2], np.eye(2))
        assert max_abs(v[2:]) < 1e-15
        assert dil.isometry_residual < 1e-15

    def test_model_tuple_isometry_onto_window(self):
        k = bergman_kernel(2, 2, 16)
        t = model_tuple(k, 2, 2, mode="float")
        dd = defect_data(t, k)
        dil = build_dilation(dd, 2)
        # V is then square and unitary: the model is its own functional model
        assert dil.matrix.shape[0] == dil.matrix.shape[1]
        assert max_abs(dil.matrix @ dil.matrix.conj().T - np.eye(t.size)) < 1e-12

    def test_zero_tuple_maps_to_constants(self):
        k = szego_kernel(1, 16)
        t = model_tuple(k, 1, 0, mode="float")
        dd = defect_data(t, k)
        dil = build_dilation(dd, 4)
        v = dil.matrix
        assert abs(v[0, 0] - 1) < 1e-15 and max_abs(v[1:]) < 1e-15

    def test_rejects_impure(self):
        k = szego_kernel(1, 16)
        t = OperatorTuple((np.array([[1.0]]),), None, None, None, k)
        dd = defect_data(t, k)
        with pytest.raises(NotPureError):
            build_dilation(dd, 4)

    def test_isometry_across_matrix(self):
        for m, d, n in [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1)]:
            k = bergman_kernel(m, d, 16)
            t = model_tuple(k, d, n, mode="float")
            dd = defect_data(t, k)
            dil = build_dilation(dd, n + 2)
            assert dil.isometry_residual < 1e-12

    def test_exact_isometry_for_jordan_cell(self):
        k = szego_kernel(1, 16)
        t = model_tuple(k, 1, 1, mode="exact")
        t = OperatorTuple(t.mats, None, t.basis_labels, t.nilpotency_bound, t.kernel)
        dd = defect_data(t, k)
        dil = build_dilation(dd, 4)
        gram = dil.matrix.conj().T @ dil.matrix
        assert gram.dtype == object
        assert all(gram[i, j] == (1 if i == j else 0) for i in range(2) for j in range(2))


class TestIntertwining:
    def test_jordan(self):
        dil, _, _ = jordan_dilation()
        assert max(intertwining_residuals(dil)) < 1e-14

    def test_models_and_compressions(self):
        for d in (1, 2):
            k = bergman_kernel(2, d, 16)
            t = model_tuple(k, d, 2, mode="float")
            dd = defect_data(t, k)
            dil = build_dilation(dd, 4)
            assert max(intertwining_residuals(dil)) < 1e-12
            tc = random_coinvariant_compression(t, np.random.default_rng(3))
            ddc = defect_data(tc, k)
            dilc = build_dilation(ddc, 4)
            assert max(intertwining_residuals(dilc)) < 1e-12

    def test_detects_corruption(self):
        dil, _, _ = jordan_dilation()
        dil.matrix[1, 1] += 1e-3
        assert max(intertwining_residuals(dil)) >= 1e-4


class TestKernelVectorAction:
    def test_at_origin_gives_defect(self):
        dil, t, k = jordan_dilation()
        out, gap = kernel_vector_gap(dil, [0.0], np.array([1.0]))
        assert np.allclose(out, [1.0, 0.0]) and gap <= 1e-10

    def test_jordan_hand_value(self):
        dil, t, k = jordan_dilation()
        out, gap = kernel_vector_gap(dil, [0.5], np.array([1.0]))
        # k_w(T) defect delta = (I + w T) e_0 = e_0 + w e_1
        assert np.allclose(out, [1.0, 0.5]) and gap <= 1e-10

    def test_zero_fiber(self):
        dil, _, _ = jordan_dilation()
        out, gap = kernel_vector_gap(dil, [0.3], np.array([0.0]))
        assert max_abs(out) == 0 and gap == 0

    def test_detects_truncation_mismatch(self):
        dil, _, _ = jordan_dilation()
        dil.matrix[0, 0] += 1e-3
        assert kernel_vector_gap(dil, [0.5], np.array([1.0]))[1] >= 1e-4

    @pytest.mark.parametrize("m,d,n", [(2, 1, 2), (2, 2, 2), (3, 1, 1)])
    def test_seeded_agreement(self, m, d, n):
        k = bergman_kernel(m, d, 24)
        t = model_tuple(k, d, n, mode="float")
        dd = defect_data(t, k)
        dil = build_dilation(dd, n + 2)
        rng = np.random.default_rng(17)
        for _ in range(20):
            w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            w = w / np.linalg.norm(w) * 0.5 * rng.uniform(0.2, 1.0)
            fiber = rng.standard_normal(dil.fiber_dim)
            vec = dil.window.kernel_vector(w, fiber)
            lhs = dil.matrix.conj().T.astype(complex) @ vec
            rhs, gap = kernel_vector_gap(dil, w, fiber)
            assert np.linalg.norm(lhs - rhs) < 1e-10 and gap < 1e-10


class TestAssociatedTuple:
    def test_bergman_through_drury_arveson_holds(self):
        k = bergman_kernel(2, 1, 32)
        da = drury_arveson_kernel(1, 32)
        t = model_tuple(k, 1, 2, mode="float")
        cert = associated_tuple_test(t, k, da, window_degree=5)
        assert cert.holds and not cert.vacuous

    def test_bergman_through_itself_fails_with_known_witness(self):
        k = bergman_kernel(2, 1, 32)
        t = model_tuple(k, 1, 0, mode="float")
        cert = associated_tuple_test(t, k, k, window_degree=3)
        assert not cert.holds
        assert abs(cert.min_eigenvalue + 1 / 3) < 1e-10

    def test_model_window_is_vacuous(self):
        k = bergman_kernel(2, 1, 32)
        t = model_tuple(k, 1, 2, mode="float")
        cert = associated_tuple_test(t, k, k, window_degree=2)
        assert cert.vacuous and cert.holds

    def test_window_below_nilpotency_rejected(self):
        k = bergman_kernel(2, 1, 32)
        t = model_tuple(k, 1, 3, mode="float")
        with pytest.raises(ValueError, match="window"):
            associated_tuple_test(t, k, k, window_degree=2)

    def test_consistency_with_cnp_positive_quotients(self):
        """When k/l has non-negative coefficients AND l is CNP, every
        compression's associated tuple passes the 1/l form: the form's terms
        b_alpha M^alpha P M^{alpha*} are then all dominated termwise."""
        pairs = [(2, 1), (3, 1)]
        for m, n in pairs:
            k = bergman_kernel(m, 1, 32)
            l = bergman_kernel(n, 1, 32)
            assert is_positive_quotient(k, l).holds
            for seed in range(3):
                t = random_coinvariant_compression(
                    model_tuple(k, 1, 2, mode="float"), np.random.default_rng(seed)
                )
                cert = associated_tuple_test(t, k, l, window_degree=4)
                assert cert.holds, (m, n, seed, cert.min_eigenvalue)

    def test_positive_quotient_does_not_transfer_without_cnp(self):
        """k3/k2 is non-negative, so the full multiplication tuple is a
        1/k2-contraction; but the associated tuple of its degree-2 model is
        not, because k2 is not CNP and the kernel of V^* is only invariant.
        The negative witness matches the window-degree-4 form value -1/3."""
        k = bergman_kernel(3, 1, 32)
        l = bergman_kernel(2, 1, 32)
        assert is_positive_quotient(k, l).holds
        t = model_tuple(k, 1, 2, mode="float")
        cert = associated_tuple_test(t, k, l, window_degree=4)
        assert not cert.holds
        assert abs(cert.min_eigenvalue + 1 / 3) < 1e-10


class TestMonomialWindow:
    def test_block_layout(self):
        k = bergman_kernel(2, 2, 10)
        win = MonomialWindow(k, 2, 1)
        assert win.dim == 6
        assert win.block((0, 0)) == slice(0, 2)
        assert win.block((0, 1)) == slice(4, 6)

    def test_multiplication_matrix_shifts(self):
        k = szego_kernel(1, 10)
        win = MonomialWindow(k, 1, 3)
        m = win.multiplication_matrix(0)
        expected = np.zeros((4, 4))
        for i in range(3):
            expected[i + 1, i] = 1.0
        assert np.allclose(m, expected)

    def test_degree_mask(self):
        k = szego_kernel(1, 10)
        win = MonomialWindow(k, 2, 2)
        assert list(win.degree_mask(1)) == [True] * 4 + [False] * 2
