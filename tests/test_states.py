import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ethsim import algebra as alg
from ethsim import states
from ethsim.algebra import (
    StarAlgebra,
    center,
    contains,
    from_span,
    full_matrix_algebra,
    generate_algebra,
    scalar_algebra,
    span_equal,
)
from ethsim.errors import (
    ClosureFailure,
    DegenerateWeightWarning,
    DimensionMismatch,
    NotMember,
    ZeroProbability,
)
from ethsim.linalg import (
    MEMBER_TOL,
    SIGMA_X,
    SIGMA_Z,
    SVD_TOL,
    embed_site_operator,
    operator_norm,
    random_density,
    random_unitary,
)
from ethsim.scenario import build_model, resolve_scenario
from ethsim.states import (
    EventFamily,
    State,
    born_weights,
    centralizer_of_state,
    center_of_centralizer,
    collapse,
    conditional_expectation,
    detect_event,
    dist_to_event_algebra,
    nearest_projection_in_event,
)


def diag_state(*vals):
    return State(np.diag(vals).astype(complex))


def diag_family(dim, t=0):
    projs, labels = [], []
    for k in range(dim):
        p = np.zeros((dim, dim), dtype=complex)
        p[k, k] = 1.0
        projs.append(p)
        labels.append(f"t{t}:e{k}")
    return EventFamily(tuple(projs), tuple(labels), time_index=t)


class TestState:
    def test_valid(self):
        s = diag_state(0.3, 0.7)
        assert s.dim == 2
        assert abs(s.expect(np.array(SIGMA_Z)).real - (0.3 - 0.7)) < 1e-12

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            State(np.diag([0.5, 0.6]).astype(complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            State(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            State(np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex))


class TestCentralizer:
    def test_tracial_state_full_centralizer(self):
        m = full_matrix_algebra(2)
        c = centralizer_of_state(State(np.eye(2, dtype=complex) / 2), m)
        assert span_equal(c, m)

    def test_nondegenerate_diag_state(self):
        m = full_matrix_algebra(2)
        c = centralizer_of_state(diag_state(0.3, 0.7), m)
        assert c.dim == 2
        assert contains(c, np.array(SIGMA_Z))
        assert not contains(c, np.array(SIGMA_X))

    def test_tracial_on_factor(self):
        m = generate_algebra(
            [np.kron(SIGMA_X, np.eye(2)), np.kron(SIGMA_Z, np.eye(2))], 4
        )
        c = centralizer_of_state(State(np.eye(4, dtype=complex) / 4), m)
        assert span_equal(c, m)

    def test_brute_force_oracle_small(self):
        """Independent oracle: scan a dense coefficient grid of the algebra
        and keep the elements annihilating all commutator functionals."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            m = full_matrix_algebra(dim)
            omega = State(random_density(dim, rng))
            c = centralizer_of_state(omega, m)
            # oracle: Y in centralizer iff [rho, Y] = 0 for the full algebra
            rho = omega.density
            for x in c.basis:
                assert operator_norm(rho @ x - x @ rho) < 1e-8
            # dimension check from the spectral multiplicities of rho
            vals = np.linalg.eigvalsh(rho)
            mult = []
            for v in vals:
                for grp in mult:
                    if abs(grp[0] - v) < 1e-8:
                        grp.append(v)
                        break
                else:
                    mult.append([v])
            assert c.dim == sum(len(g) ** 2 for g in mult)

    def test_characterization_property(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            m = full_matrix_algebra(dim)
            omega = State(random_density(dim, rng))
            c = centralizer_of_state(omega, m)
            rho = omega.density
            for y in c.basis:
                for x in m.basis:
                    val = np.trace(rho @ (y @ x - x @ y))
                    assert abs(val) < 1e-9


class TestCenterOfCentralizer:
    def test_tracial_gives_scalars(self):
        z = center_of_centralizer(
            State(np.eye(2, dtype=complex) / 2), full_matrix_algebra(2)
        )
        assert z.dim == 1

    def test_diag_state_gives_diagonal(self):
        z = center_of_centralizer(diag_state(0.3, 0.7), full_matrix_algebra(2))
        assert z.dim == 2
        assert contains(z, np.diag([1.0, 0.0]).astype(complex))

    def test_scalar_algebra(self):
        z = center_of_centralizer(diag_state(0.2, 0.8), scalar_algebra(2))
        assert z.dim == 1

    def test_contains_center_of_algebra(self):
        # Z(M) is contained in the center of the centralizer for every state
        blocks = []
        for m2 in (SIGMA_X, SIGMA_Z):
            top = np.zeros((4, 4), dtype=complex)
            top[:2, :2] = m2
            bot = np.zeros((4, 4), dtype=complex)
            bot[2:, 2:] = m2
            blocks.extend([top, bot])
        m = generate_algebra(blocks, 4)
        zm = center(m)
        rng = np.random.default_rng(3)
        for _ in range(5):
            omega = State(random_density(4, rng))
            z_omega = center_of_centralizer(omega, m)
            for b in zm.basis:
                assert contains(z_omega, b, 1e-8)


class TestClosureCheck:
    @pytest.mark.parametrize("qubits", [2, 4])
    def test_outer_sigma_x_span_is_flagged(self, qubits):
        # span{1, sx (x) 1.., ..1 (x) sx} is *-closed but holds neither
        # product sx (x) .. (x) sx; with no certificate the product test
        # decides, and the subspace is flagged rather than shrunk
        dims = [2] * qubits
        d = 2**qubits
        sub = from_span(
            [
                np.eye(d, dtype=complex),
                embed_site_operator(SIGMA_X, 0, dims),
                embed_site_operator(SIGMA_X, qubits - 1, dims),
            ],
            d,
        )
        assert sub.dim == 3
        assert not states._product_closed(sub)
        with pytest.raises(ClosureFailure):
            states._require_closed(sub, math.inf)

    def test_direction_dropped_by_the_cut_is_flagged(self):
        # omega([E01 + E10, .]) is nonzero, but with its singular value
        # pushed under the cut it joins the diagonal centralizer; E00 times
        # it leaves that span, the certificate cannot vouch for a cut moved
        # by the whole singular value, and the product test flags it
        omega = diag_state(0.2, 0.3, 0.5)
        m = full_matrix_algebra(3)
        t = states._commutator_map(omega.density, m)
        v = np.zeros(9, dtype=complex)
        v[[1, 3]] = 1.0 / np.sqrt(2.0)  # E01 and E10 in the matrix-unit basis
        tv = t @ v
        sigma = np.linalg.norm(tv)
        threshold = SVD_TOL * (1.0 + np.linalg.norm(t, 2))
        shift = (1.0 - 0.5 * threshold / sigma) * np.outer(tv, v.conj())
        assert states._closed_null_space(t, m, 0.0).dim == 3
        with pytest.raises(ClosureFailure):
            states._closed_null_space(t - shift, m, np.linalg.norm(shift, 2))

    @pytest.mark.parametrize("name", ["cnot", "cnot_t3", "partial_swap", "epr"])
    def test_certificate_decides_every_bundled_centralizer(self, name, monkeypatch):
        def unexpected(sub):
            raise AssertionError("closure fell back to the product test")

        monkeypatch.setattr(states, "_product_closed", unexpected)
        model = build_model(resolve_scenario(name))
        for t in range(model.horizon + 1):
            detect_event(model.initial_state, model.algebra_at(t), t)


def random_subfactor(rng, a, b):
    """U (B(C^a) (x) 1_b) U* for a Haar-random unitary U: a *-algebra that is
    not the full matrix algebra when b > 1."""
    d = a * b
    u = random_unitary(d, rng)
    units = [
        u @ np.kron(e, np.eye(b) / np.sqrt(b)) @ u.conj().T
        for e in np.eye(a * a, dtype=complex).reshape(a * a, a, a)
    ]
    return from_span(units, d)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)]),
    st.integers(1, 6),
    st.sampled_from(["none", "kept", "dropped"]),
    st.floats(0.25, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_certificate_never_passes_an_open_span(shape, rank, which, factor, seed):
    # Random states, rank-deficient ones included, on random algebras; then
    # one singular value of T is moved to ``factor`` times the cut, from above
    # (a kept one) or from below (a dropped one).  Whatever the cut keeps,
    # a certificate within MEMBER_TOL must mean the span is product-closed.
    rng = np.random.default_rng(seed)
    m = random_subfactor(rng, *shape)
    d = m.ambient_dim
    rho = random_density(d, rng, rank=min(rank, d))
    t = states._commutator_map(rho, m)
    error = states._commutator_map_rounding(rho, m.dim)
    if which != "none":
        u, s, vh = np.linalg.svd(t)
        threshold = SVD_TOL * (1.0 + s[0])
        rank_t = int(np.sum(s > threshold))
        pool = range(rank_t) if which == "kept" else range(rank_t, len(s))
        assume(len(pool) > 0)
        j = pool[int(rng.integers(len(pool)))]
        moved = s.copy()
        moved[j] = factor * threshold
        perturbed = (u * moved) @ vh
        error += np.linalg.norm(perturbed - t, 2)
        t = perturbed
    cols, kept = alg._null_space(t)
    vecs = np.tensordot(cols.T, m.tensor, axes=(1, 0))
    sub = StarAlgebra(d, tuple(vecs))
    if states._closure_bound(t, cols, kept, error) <= MEMBER_TOL:
        assert states._product_closed(sub)


class TestIncoherenceResidual:
    @staticmethod
    def basis_loop(omega, m, event):
        rho = omega.density
        worst = 0.0
        for x in m.basis:
            direct = np.trace(rho @ x)
            diag = sum(np.trace(rho @ (p @ x @ p)) for p in event.projections)
            worst = max(worst, abs(direct - diag) / (1.0 + operator_norm(x)))
        return worst

    def test_matches_basis_loop_on_cnot_events(self):
        model = build_model(resolve_scenario("cnot"))
        omega = model.initial_state
        rng = np.random.default_rng(41)
        h = rng.standard_normal((model.dim, model.dim))
        _, vecs = np.linalg.eigh(h + h.T)
        tilted = EventFamily(
            tuple(np.outer(v, v.conj()) for v in vecs.T),
            tuple(f"k{k}" for k in range(model.dim)),
        )
        for t in range(1, model.horizon + 1):
            m = model.algebra_at(t)
            event = model.detect_event_reduced(omega, t).event
            for family in (event, tilted):
                got = states.incoherence_residual(omega, m, family)
                assert abs(got - self.basis_loop(omega, m, family)) <= 1e-15
            # a family the state does not commute with leaves a residual
            assert states.incoherence_residual(omega, m, tilted) > 1e-3


class TestDetectEvent:
    def test_diag_state_actual(self):
        det = detect_event(diag_state(0.3, 0.7), full_matrix_algebra(2), t=1)
        assert det.actual
        assert det.event.labels == ("t1:e0", "t1:e1")
        np.testing.assert_allclose(det.weights, [0.7, 0.3], atol=1e-9)
        np.testing.assert_allclose(
            det.event.projections[0], np.diag([0.0, 1.0]), atol=1e-9
        )
        assert det.incoherence_residual <= 1e-10

    def test_maximally_mixed_no_event(self):
        det = detect_event(
            State(np.eye(2, dtype=complex) / 2), full_matrix_algebra(2), t=1
        )
        assert not det.actual
        assert det.center_of_centralizer.dim == 1

    def test_pure_state_single_positive_weight(self):
        det = detect_event(diag_state(1.0, 0.0), full_matrix_algebra(2), t=1)
        assert not det.actual
        assert det.center_of_centralizer.dim == 2
        np.testing.assert_allclose(det.weights, [1.0, 0.0], atol=1e-9)

    def test_incoherence_identity_holds_when_actual(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            omega = State(random_density(dim, rng))
            det = detect_event(omega, full_matrix_algebra(dim), t=0)
            if det.actual:
                assert det.incoherence_residual <= 1e-8

    def test_weight_eps_gate(self):
        with pytest.raises(ValueError):
            detect_event(diag_state(0.5, 0.5), full_matrix_algebra(2), 0, weight_eps=0.7)


class TestCollapse:
    def test_singlet_projection(self):
        v = np.zeros(4, dtype=complex)
        v[1], v[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        singlet = State(np.outer(v, v.conj()))
        pi = np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex)
        post = collapse(singlet, pi)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        np.testing.assert_allclose(post.density, expected, atol=1e-12)

    def test_identity_is_noop(self):
        s = diag_state(0.3, 0.7)
        post = collapse(s, np.eye(2, dtype=complex))
        np.testing.assert_allclose(post.density, s.density, atol=1e-14)

    def test_diag_collapse(self):
        post = collapse(diag_state(0.3, 0.7), np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(post.density, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_probability(self):
        with pytest.raises(ZeroProbability):
            collapse(diag_state(1.0, 0.0), np.diag([0.0, 1.0]).astype(complex))

    def test_output_valid_state(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            omega = State(random_density(3, rng))
            det = detect_event(omega, full_matrix_algebra(3), t=0)
            for pi, w in zip(det.event.projections, det.weights):
                if w > 1e-8:
                    post = collapse(omega, pi)  # State validates itself
                    assert abs(np.trace(post.density) - 1.0) < 1e-10

    def test_valid_branch_runs_no_svd(self, monkeypatch):
        """The projection and State checks of a valid d=32 collapse pass on
        their Frobenius bounds, so no SVD runs."""
        rng = np.random.default_rng(32)
        omega = State(random_density(32, rng))
        block = np.asarray(random_unitary(32, rng))[:, :8]
        pi = block @ block.conj().T
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        # np.linalg.norm(m, 2) reaches svd through the implementation module
        impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(impl, "svd", counting_svd)
        post = collapse(omega, pi)
        assert calls == []
        assert abs(np.trace(post.density) - 1.0) < 1e-10


class TestBornWeights:
    def test_uniform_state(self):
        fam = diag_family(4)
        w = born_weights(State(np.eye(4, dtype=complex) / 4), fam)
        np.testing.assert_allclose(w, [0.25] * 4, atol=1e-12)

    def test_diag(self):
        fam = diag_family(2)
        w = born_weights(diag_state(0.25, 0.75), fam)
        np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-12)

    def test_single_projection(self):
        fam = EventFamily((np.eye(2, dtype=complex),), ("t0:e0",), 0)
        assert born_weights(diag_state(0.6, 0.4), fam) == [1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            born_weights(diag_state(1.0, 0.0), diag_family(3))


class TestConditionalExpectation:
    def setup_method(self):
        self.omega = diag_state(0.3, 0.7)
        self.m = full_matrix_algebra(2)
        self.z = diag_family(2)

    def test_fixed_point_on_span(self):
        x = 0.2 * self.z.projections[0] + 0.9 * self.z.projections[1]
        out = conditional_expectation(self.omega, self.m, self.z, x)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_off_diagonal_annihilated(self):
        out = conditional_expectation(self.omega, self.m, self.z, np.array(SIGMA_X))
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-12)

    def test_unitality(self):
        out = conditional_expectation(self.omega, self.m, self.z, np.eye(2, dtype=complex))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-12)

    def test_not_member(self):
        diag = generate_algebra([np.array(SIGMA_Z)], 2)
        with pytest.raises(NotMember):
            conditional_expectation(self.omega, diag, self.z, np.array(SIGMA_X))

    def test_zero_weight_sector_warns(self):
        omega = diag_state(1.0, 0.0)
        with pytest.warns(DegenerateWeightWarning):
            out = conditional_expectation(omega, self.m, self.z, np.eye(2, dtype=complex))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_conditional_expectation_axioms_random(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            m = full_matrix_algebra(dim)
            omega = State(random_density(dim, rng))
            det = detect_event(omega, m, t=0)
            fam = det.event
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            eps_x = conditional_expectation(omega, m, fam, x)
            # (i) norm contraction
            assert operator_norm(eps_x) <= operator_norm(x) + 1e-9
            # (ii) fixed point on the span of the family
            coeffs = rng.standard_normal(len(fam.projections))
            span_elem = sum(c * p for c, p in zip(coeffs, fam.projections))
            np.testing.assert_allclose(
                conditional_expectation(omega, m, fam, span_elem), span_elem, atol=1e-9
            )
            # (iii) state preservation
            lhs = omega.expect(eps_x)
            rhs = omega.expect(x)
            assert abs(lhs - rhs) < 1e-9
            # (iv) bimodule property
            a = sum(rng.standard_normal() * p for p in fam.projections)
            b = sum(rng.standard_normal() * p for p in fam.projections)
            np.testing.assert_allclose(
                conditional_expectation(omega, m, fam, a @ x @ b),
                a @ eps_x @ b,
                atol=1e-9,
            )
            # (v) positivity
            pos = conditional_expectation(omega, m, fam, x.conj().T @ x)
            assert np.linalg.eigvalsh((pos + pos.conj().T) / 2)[0] >= -1e-9


class TestDistance:
    def test_zero_on_span(self):
        omega = diag_state(0.3, 0.7)
        fam = diag_family(2)
        assert dist_to_event_algebra(omega, None, fam, fam.projections[0]) < 1e-12

    def test_sigma_x_distance_one(self):
        omega = diag_state(0.3, 0.7)
        fam = diag_family(2)
        assert abs(dist_to_event_algebra(omega, None, fam, np.array(SIGMA_X)) - 1.0) < 1e-12

    def test_tilted_projection(self):
        theta = 0.1
        omega = diag_state(0.3, 0.7)
        fam = diag_family(2)
        x = np.cos(theta) * np.diag([1.0, 0.0]) + np.sin(theta) * np.array(SIGMA_X)
        d = dist_to_event_algebra(omega, None, fam, x)
        assert abs(d - np.sin(theta)) < 1e-10


class TestNearestProjection:
    def test_member_of_lattice(self):
        fam = diag_family(3)
        q = fam.projections[0] + fam.projections[2]
        p, d = nearest_projection_in_event(q, fam)
        assert d < 1e-12
        np.testing.assert_allclose(p, q, atol=1e-12)

    def test_rotated_projection(self):
        theta = 0.05
        c, s = np.cos(theta), np.sin(theta)
        r = np.array([[c, -s], [s, c]], dtype=complex)
        q = r @ np.diag([1.0, 0.0]).astype(complex) @ r.conj().T
        fam = diag_family(2)
        p, d = nearest_projection_in_event(q, fam)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)
        assert abs(d - np.sin(theta)) < 1e-10

    def test_zero_projection(self):
        fam = diag_family(2)
        p, d = nearest_projection_in_event(np.zeros((2, 2), dtype=complex), fam)
        assert d < 1e-12
        np.testing.assert_allclose(p, np.zeros((2, 2)), atol=1e-12)
