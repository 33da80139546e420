import numpy as np
import pytest

from ethsim.errors import DimensionMismatch, NotHermitian
from ethsim.linalg import (
    SIGMA_X,
    SIGMA_Z,
    embed_site_operator,
    hermitian_eig,
    kron_all,
    operator_norm,
    partial_trace,
    random_density,
    random_unitary,
)


class TestHermitianEig:
    def test_diagonal(self):
        es = hermitian_eig(np.diag([0.0, 1.0]).astype(complex))
        assert es.eigenvalues == (0.0, 1.0)
        np.testing.assert_allclose(es.projections[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(es.projections[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_identity_clusters_to_one_projection(self):
        es = hermitian_eig(np.eye(3, dtype=complex))
        assert len(es.projections) == 1
        np.testing.assert_allclose(es.projections[0], np.eye(3), atol=1e-12)

    def test_pauli_x(self):
        es = hermitian_eig(np.array(SIGMA_X))
        np.testing.assert_allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            es.projections[0], (np.eye(2) - SIGMA_X) / 2, atol=1e-12
        )
        np.testing.assert_allclose(
            es.projections[1], (np.eye(2) + SIGMA_X) / 2, atol=1e-12
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_resolution_and_disjointness_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = (g + g.conj().T) / 2
            es = hermitian_eig(h)
            total = sum(es.projections)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-9)
            for i, p in enumerate(es.projections):
                for j, q in enumerate(es.projections):
                    expect = p if i == j else np.zeros((dim, dim))
                    np.testing.assert_allclose(p @ q, expect, atol=1e-9)
            recon = sum(lam * p for lam, p in zip(es.eigenvalues, es.projections))
            np.testing.assert_allclose(recon, h, atol=1e-8)

    def test_near_degenerate_levels_merge(self):
        h = np.diag([0.5, 0.5 + 1e-12, 1.0]).astype(complex)
        es = hermitian_eig(h)
        assert len(es.projections) == 2
        assert round(float(np.trace(es.projections[0]).real)) == 2


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = random_unitary(4, rng)
            assert abs(operator_norm(u) - 1.0) < 1e-10

    def test_diagonal(self):
        assert abs(operator_norm(np.diag([3.0, -5.0]).astype(complex)) - 5.0) < 1e-12

    def test_multiplicative_over_kron(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = operator_norm(np.kron(a, b))
            rhs = operator_norm(a) * operator_norm(b)
            assert abs(lhs - rhs) <= 1e-9 * (1 + rhs)


class TestEmbedSiteOperator:
    def test_left_factor(self):
        out = embed_site_operator(SIGMA_Z, 0, [2, 2])
        np.testing.assert_allclose(out, np.kron(SIGMA_Z, np.eye(2)), atol=1e-14)

    def test_identity_any_site(self):
        out = embed_site_operator(np.eye(3, dtype=complex), 1, [2, 3, 2])
        np.testing.assert_allclose(out, np.eye(12), atol=1e-14)

    def test_against_hand_expanded_kron(self):
        # brute-force expansion of 1 (x) sigma_x
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                for bp in range(2):
                    expected[2 * a + b, 2 * a + bp] = SIGMA_X[b, bp]
        out = embed_site_operator(SIGMA_X, 1, [2, 2])
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_distinct_sites_commute(self):
        rng = np.random.default_rng(3)
        dims = [2, 3, 2]
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ea = embed_site_operator(a, 0, dims)
            eb = embed_site_operator(b, 1, dims)
            assert operator_norm(ea @ eb - eb @ ea) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            embed_site_operator(SIGMA_X, 1, [2, 3])


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        a = random_density(2, rng)
        b = random_density(3, rng)
        rho = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(rho, [2, 3], [0]), a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, [2, 3], [1]), b, atol=1e-12)

    def test_keep_middle(self):
        rng = np.random.default_rng(2)
        parts = [random_density(2, rng) for _ in range(3)]
        rho = kron_all(parts)
        np.testing.assert_allclose(
            partial_trace(rho, [2, 2, 2], [1]), parts[1], atol=1e-12
        )
