import numpy as np
import pytest
from scipy.stats import unitary_group

from ethsim import algebra as alg
from ethsim.algebra import (
    center,
    commutant,
    contains,
    from_span,
    full_matrix_algebra,
    generate_algebra,
    includes,
    intersect_spans,
    minimal_projections,
    minimal_projections_retry,
    relative_commutant,
    scalar_algebra,
    span_equal,
)
from ethsim.errors import DimensionMismatch, NotAbelian
from ethsim.linalg import SIGMA_X, SIGMA_Z, embed_site_operator, operator_norm
from ethsim.scenario import build_model, resolve_scenario
from ethsim.states import centralizer_of_state


def random_generated_algebra(rng, dim=None, n_gens=None):
    dim = int(rng.integers(2, 9)) if dim is None else dim
    n_gens = int(rng.integers(1, 4)) if n_gens is None else n_gens
    gens = []
    for _ in range(n_gens):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if rng.random() < 0.5:
            g = g + g.conj().T  # Hermitian generators give richer structure
        gens.append(g)
    return generate_algebra(gens, dim)


def stacked_commutator_null_space(algebra):
    """Independent commutant oracle: explicit kron-stacked map + SVD null space."""
    import scipy.linalg

    d = algebra.ambient_dim
    blocks = [
        np.kron(np.eye(d), b.T) - np.kron(b, np.eye(d)) for b in algebra.basis
    ]
    mat = np.concatenate(blocks, axis=0)
    null = scipy.linalg.null_space(mat, rcond=1e-11)
    return [null[:, k].reshape(d, d) for k in range(null.shape[1])]


class TestGenerateAlgebra:
    def test_single_involution(self):
        a = generate_algebra([SIGMA_X], 2)
        assert a.dim == 2
        assert contains(a, np.eye(2, dtype=complex))
        assert contains(a, np.array(SIGMA_X))

    def test_two_paulis_generate_everything(self):
        a = generate_algebra([SIGMA_X, SIGMA_Z], 2)
        assert a.dim == 4

    def test_empty_generators(self):
        a = generate_algebra([], 2)
        assert a.dim == 1
        assert contains(a, np.eye(2, dtype=complex))

    def test_basis_orthonormal_and_closed(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = random_generated_algebra(rng)
            gram = a.stack.conj() @ a.stack.T
            np.testing.assert_allclose(gram, np.eye(a.dim), atol=1e-9)
            for b in a.basis:
                assert contains(a, b.conj().T, 1e-9)
            for b1 in a.basis[:4]:
                for b2 in a.basis[:4]:
                    assert contains(a, b1 @ b2, 1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            generate_algebra([SIGMA_X], 3)


class TestCommutant:
    def test_full_algebra_gives_scalars(self):
        assert commutant(full_matrix_algebra(2)).dim == 1

    def test_diagonal_algebra_self_commutant(self):
        diag = generate_algebra([np.array(SIGMA_Z)], 2)
        c = commutant(diag)
        assert c.dim == 2
        assert span_equal(c, diag)

    def test_tensor_factor(self):
        gens = [
            embed_site_operator(SIGMA_X, 1, [2, 2]),
            embed_site_operator(SIGMA_Z, 1, [2, 2]),
        ]
        right = generate_algebra(gens, 4)
        c = commutant(right)
        assert c.dim == 4
        left = generate_algebra(
            [embed_site_operator(SIGMA_X, 0, [2, 2]), embed_site_operator(SIGMA_Z, 0, [2, 2])],
            4,
        )
        assert span_equal(c, left)

    def test_elementwise_commutation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_generated_algebra(rng)
            c = commutant(a)
            for x in c.basis:
                for b in a.basis:
                    assert operator_norm(x @ b - b @ x) < 1e-9

    def test_against_stacked_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = random_generated_algebra(rng)
            c = commutant(a)
            oracle = stacked_commutator_null_space(a)
            assert c.dim == len(oracle)
            for x in oracle:
                assert contains(c, x, 1e-8)

    def test_zero_commutator_blocks_skip_the_svd(self, monkeypatch):
        # Abelian algebras (one Hermitian generator) make every commutator
        # block vanish; random algebras make most of them vanish once the
        # commutant has shrunk.  The result must still match the oracle.
        calls = []
        real = alg._null_columns

        def counted(mat):
            calls.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(alg, "_null_columns", counted)
        rng = np.random.default_rng(33)
        algebras = []
        for dim in (3, 5):
            h = rng.standard_normal((dim, dim))
            algebras.append(generate_algebra([h + h.T], dim))
        algebras += [random_generated_algebra(rng) for _ in range(4)]
        for a in algebras:
            calls.clear()
            c = commutant(a)
            oracle = stacked_commutator_null_space(a)
            assert c.dim == len(oracle)
            for x in oracle:
                assert contains(c, x, 1e-8)
            assert len(calls) < a.dim + 1  # one SVD per element without the skip
        for a in algebras[:2]:
            calls.clear()
            alg._commutant(a)  # the memoised commutant would call nothing
            assert calls == []

    def test_double_commutant(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = random_generated_algebra(rng)
            assert span_equal(commutant(commutant(a)), a)


class TestRelativeCommutantAndCenter:
    def test_full_against_itself(self):
        full = full_matrix_algebra(3)
        assert relative_commutant(full, full).dim == 1

    def test_scalars_inside_full(self):
        full = full_matrix_algebra(3)
        rel = relative_commutant(scalar_algebra(3), full)
        assert span_equal(rel, full)

    def test_center_of_full_is_scalars(self):
        assert center(full_matrix_algebra(4)).dim == 1

    def test_abelian_equals_own_center(self):
        diag = generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)], 3)
        assert span_equal(center(diag), diag)

    def test_block_algebra_center(self):
        blocks = []
        for m in (SIGMA_X, SIGMA_Z):
            top = np.zeros((4, 4), dtype=complex)
            top[:2, :2] = m
            bot = np.zeros((4, 4), dtype=complex)
            bot[2:, 2:] = m
            blocks.extend([top, bot])
        algebra = generate_algebra(blocks, 4)
        assert algebra.dim == 8
        z = center(algebra)
        assert z.dim == 2
        assert contains(z, np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), 1e-8)

    def test_center_dim_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = random_generated_algebra(rng)
            z = center(a)
            c = commutant(a)
            assert z.dim <= min(a.dim, c.dim)

    def test_intersection_basic(self):
        full = full_matrix_algebra(2)
        diag = generate_algebra([np.array(SIGMA_Z)], 2)
        inter = intersect_spans(full, diag)
        assert span_equal(inter, diag)


def block_algebra(blocks, u):
    """The direct sum of M_n (x) 1_mu over ``blocks`` [(n, mu), ...],
    conjugated by the unitary ``u``."""
    d = u.shape[0]
    mats = []
    offset = 0
    for n, mu in blocks:
        size = n * mu
        for unit in np.eye(n * n).reshape(n * n, n, n):
            x = np.zeros((d, d), dtype=complex)
            x[offset : offset + size, offset : offset + size] = np.kron(unit, np.eye(mu))
            mats.append(u @ x @ u.conj().T)
        offset += size
    return from_span(mats, d)


def reference_relative_commutant(a, b):
    """The formula every relative commutant used to take: the whole
    commutant of ``a``, intersected with the span of ``b``."""
    return intersect_spans(commutant(a), b)


def small_route(a, b):
    """Whether ``relative_commutant`` shrinks b's own basis: span(b) is no
    larger than the commutant of a's generic Hermitian element."""
    sizes = np.bincount(a._generic[3])
    return b.dim <= int(sizes @ sizes)


def assert_same_relative_commutant(a, b):
    got = relative_commutant(a, b)
    ref = reference_relative_commutant(a, b)
    assert got.dim == ref.dim
    assert span_equal(got, ref)
    np.testing.assert_allclose(got.stack.conj() @ got.stack.T, np.eye(got.dim), atol=1e-9)


class TestRelativeCommutantKernel:
    def test_random_block_algebras_match_the_old_formula(self):
        rng = np.random.default_rng(41)
        routes = set()
        for _ in range(30):
            blocks = [
                (int(rng.integers(1, 4)), int(rng.integers(1, 3)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            d = sum(n * mu for n, mu in blocks)
            u = unitary_group.rvs(d, random_state=rng)
            a = block_algebra(blocks, u)
            # every block made full contains a; a second Haar unitary gives
            # an algebra in general position
            whole_blocks = block_algebra([(n * mu, 1) for n, mu in blocks], u)
            other = block_algebra(blocks, unitary_group.rvs(d, random_state=rng))
            pairs = [
                (a, a),
                (a, full_matrix_algebra(d)),
                (a, whole_blocks),
                (whole_blocks, a),
                (a, other),
            ]
            for x, y in pairs:
                assert_same_relative_commutant(x, y)
                routes.add(small_route(x, y))
            assert center(a).dim == len(blocks)
        assert routes == {True, False}

    @pytest.mark.parametrize("name", ["cnot", "cnot_t3", "commuting", "epr", "partial_swap"])
    def test_bundled_chains_match_the_old_formula(self, name):
        model = build_model(resolve_scenario(name))
        algebras = [model.algebra_at(t) for t in range(model.horizon + 1)]
        routes = set()
        for outer, inner in zip(algebras, algebras[1:]):
            assert_same_relative_commutant(inner, outer)
            routes.add(small_route(inner, outer))
        assert routes == {True, False}
        for m in algebras[1:]:
            c = centralizer_of_state(model.initial_state, m)
            assert_same_relative_commutant(c, c)

    def test_basis_entries_are_read_only_views_of_one_stack(self):
        rng = np.random.default_rng(2)
        for a in (random_generated_algebra(rng), full_matrix_algebra(3), scalar_algebra(2)):
            assert not a.tensor.flags.writeable
            assert np.shares_memory(a.stack, a.tensor)
            for i, b in enumerate(a.basis):
                assert not b.flags.writeable
                assert np.shares_memory(b, a.tensor)
                np.testing.assert_array_equal(b, a.tensor[i])
                with pytest.raises(ValueError):
                    b[0, 0] = 1.0


class TestMinimalProjections:
    def test_diagonal_pair(self):
        diag = generate_algebra([np.array(SIGMA_Z)], 2)
        projs = minimal_projections(diag, 0)
        assert len(projs) == 2
        got = sorted(np.round(np.diag(p).real, 9).tolist() for p in projs)
        assert got == [[0.0, 1.0], [1.0, 0.0]]

    def test_scalars(self):
        projs = minimal_projections(scalar_algebra(3), 0)
        assert len(projs) == 1
        np.testing.assert_allclose(projs[0], np.eye(3), atol=1e-9)

    def test_diagonal_four(self):
        diag = generate_algebra([np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)], 4)
        projs = minimal_projections_retry(diag, 0)
        assert len(projs) == 4
        for p in projs:
            assert abs(np.trace(p).real - 1.0) < 1e-9

    def test_family_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            vals = np.sort(rng.random(d)) + np.arange(d)  # distinct
            diag = generate_algebra([np.diag(vals).astype(complex)], d)
            projs = minimal_projections_retry(diag, int(rng.integers(0, 100)))
            total = sum(projs)
            np.testing.assert_allclose(total, np.eye(d), atol=1e-9)
            for i, p in enumerate(projs):
                np.testing.assert_allclose(p, p.conj().T, atol=1e-9)
                np.testing.assert_allclose(p @ p, p, atol=1e-9)
                for j, q in enumerate(projs):
                    if i != j:
                        assert operator_norm(p @ q) < 1e-9

    def test_rejects_non_abelian(self):
        with pytest.raises(NotAbelian):
            minimal_projections(full_matrix_algebra(2), 0)


class TestContains:
    def test_basis_members(self):
        a = generate_algebra([SIGMA_X], 2)
        for b in a.basis:
            assert contains(a, b)

    def test_rejects_outsider(self):
        diag = generate_algebra([np.array(SIGMA_Z)], 2)
        assert not contains(diag, np.array(SIGMA_X))

    def test_linear_combination(self):
        diag = generate_algebra([np.array(SIGMA_Z)], 2)
        assert contains(diag, (np.eye(2) + SIGMA_Z) / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(full_matrix_algebra(2), np.eye(3, dtype=complex))

    def test_includes_matches_elementwise_contains(self):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(10):
            a = random_generated_algebra(rng, dim=4)
            b = random_generated_algebra(rng, dim=4)
            for outer, inner in ((a, b), (b, a), (a, center(a)), (center(a), a)):
                expect = all(contains(outer, x) for x in inner.basis)
                assert includes(outer, inner) == expect
                seen.add(expect)
        assert seen == {True, False}
        with pytest.raises(DimensionMismatch):
            includes(full_matrix_algebra(2), full_matrix_algebra(3))


class TestNullColumns:
    @staticmethod
    def full_svd_null(mat):
        _, s, vh = np.linalg.svd(mat, full_matrices=True)
        rank = int(np.sum(s > alg._svd_threshold(s)))
        return vh[rank:].conj().T

    @pytest.mark.parametrize(
        "rows, cols, rank",
        [(40, 6, 6), (40, 6, 3), (7, 7, 7), (7, 7, 4), (3, 9, 3), (5, 9, 2), (16, 1, 0)],
    )
    def test_matches_full_svd(self, rows, cols, rank):
        rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
        left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        mat = left @ right
        got = alg._null_columns(mat)
        ref = self.full_svd_null(mat)
        assert got.shape == ref.shape == (cols, cols - rank)
        np.testing.assert_allclose(got.conj().T @ got, np.eye(cols - rank), atol=1e-12)
        np.testing.assert_allclose(mat @ got, 0.0, atol=1e-9)
        np.testing.assert_allclose(
            got @ got.conj().T, ref @ ref.conj().T, atol=1e-12
        )
