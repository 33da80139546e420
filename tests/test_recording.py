import numpy as np
import pytest

from ethsim.chain import ChainModel, build_gate, chain_initial_state
from ethsim.errors import (
    AmbiguousPointer,
    NotInFutureAlgebra,
    RecordingConditionsFailed,
    ValidationError,
)
from ethsim.linalg import operator_norm
from ethsim.recording import (
    PhysicalQuantity,
    check_recording_conditions,
    probe_pointer_quantity,
    record_event,
    represent_at,
    verify_result_dichotomy,
)
from ethsim.states import State, detect_event, nearest_projection_in_event
from ethsim.algebra import full_matrix_algebra


def detection_with_diag_event(weights):
    dim = len(weights)
    omega = State(np.diag(weights).astype(complex))
    return omega, detect_event(omega, full_matrix_algebra(dim), t=1)


def rotated(projections, delta, seed=0):
    """Conjugate a projection family by exp(i delta K), K a fixed Hermitian."""
    rng = np.random.default_rng(seed)
    dim = projections[0].shape[0]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    k = (g + g.conj().T) / 2
    k /= operator_norm(k)
    vals, vecs = np.linalg.eigh(k)
    u = vecs @ np.diag(np.exp(1j * delta * vals)) @ vecs.conj().T
    return [u @ p @ u.conj().T for p in projections]


class TestPhysicalQuantity:
    def test_probe_pointer(self):
        q = probe_pointer_quantity(2, 2)
        assert q.size == 2
        assert q.spectrum == (0.0, 1.0)
        np.testing.assert_allclose(sum(q.projections), np.eye(4), atol=1e-12)

    def test_rejects_overlapping(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            PhysicalQuantity("bad", (0.0, 1.0), (p, p), 1)

    def test_rejects_duplicate_spectrum(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValidationError):
            PhysicalQuantity("bad", (1.0, 1.0), (p0, p1), 1)


class TestRepresentAt:
    def make_model(self, horizon=2):
        theta = 0.6
        v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        g = build_gate("cnot", 2, 2)
        init = chain_initial_state(np.outer(v, v.conj()), 2, 2, horizon)
        return ChainModel(2, 2, horizon, [g] * horizon, init)

    def test_trivial_dynamics_unchanged(self):
        g = build_gate("identity", 2, 2)
        init = chain_initial_state(np.eye(2, dtype=complex) / 2, 2, 2, 2)
        m = ChainModel(2, 2, 2, [g, g], init)
        q = probe_pointer_quantity(2, 2, site=2)
        reps = represent_at(q, m, 1)
        from ethsim.chain import embed_system_probe

        for rep, proj in zip(reps, q.projections):
            np.testing.assert_allclose(
                rep, embed_system_probe(proj, 2, 2, 2, 2), atol=1e-12
            )

    def test_unitary_covariance(self):
        m = self.make_model()
        q = probe_pointer_quantity(2, 2, site=2)
        reps0 = represent_at(q, m, 0)
        reps1 = represent_at(q, m, 1)
        u = m.propagator(1, 0)
        for r0, r1 in zip(reps0, reps1):
            np.testing.assert_allclose(r1, u.conj().T @ r0 @ u, atol=1e-10)

    def test_membership_in_future_algebra(self):
        m = self.make_model()
        q = probe_pointer_quantity(2, 2, site=2)
        represent_at(q, m, 1)

    def test_emitted_site_rejected(self):
        m = self.make_model()
        q = probe_pointer_quantity(2, 2, site=1)
        with pytest.raises(NotInFutureAlgebra):
            represent_at(q, m, 1)


class TestRecordingConditions:
    def test_perfect_recorder(self):
        omega, det = detection_with_diag_event([0.3, 0.25, 0.2, 0.15, 0.1])
        q_reps = [np.zeros((5, 5), dtype=complex)] + list(det.event.projections)
        rep = check_recording_conditions(omega, q_reps, det, delta=1e-6)
        assert rep.passed
        assert rep.N == 5
        assert rep.M == 5
        assert abs(rep.resolution - (1.0 - 1e-6)) < 1e-9

    def test_rotated_recorder_fails_condition_c(self):
        angle = 0.3
        omega, det = detection_with_diag_event([0.6, 0.4])
        q = rotated(list(det.event.projections), angle)
        q_reps = [np.zeros((2, 2), dtype=complex)] + q
        rep = check_recording_conditions(omega, q_reps, det, delta=0.01)
        assert not rep.passed
        assert rep.condition_c_max_dist > 0.01

    def test_resolution_formula(self):
        omega, det = detection_with_diag_event([0.4, 0.3, 0.2, 0.1])
        # N = 2 coarse pointers covering two branches each
        q1 = det.event.projections[0] + det.event.projections[1]
        q2 = det.event.projections[2] + det.event.projections[3]
        q_reps = [np.zeros((4, 4), dtype=complex), q1, q2]
        rep = check_recording_conditions(omega, q_reps, det, delta=0.1)
        assert rep.N == 2
        assert rep.M == 4  # no three branches reach weight 0.9
        assert abs(rep.resolution - (2 / 4) * 0.9) < 1e-12

    def test_resolution_zero_for_single_pointer(self):
        omega, det = detection_with_diag_event([0.6, 0.4])
        q_reps = [np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)]
        rep = check_recording_conditions(omega, q_reps, det, delta=0.05)
        assert rep.N == 1
        assert rep.resolution == 0.0


class TestRecordEvent:
    def test_perfect_recorder_bijection(self):
        omega, det = detection_with_diag_event([0.4, 0.35, 0.25])
        q_reps = [np.zeros((3, 3), dtype=complex)] + list(det.event.projections)
        seen = {}
        for seed in range(40):
            alpha, label, post = record_event(omega, q_reps, det, 1e-6, seed=seed)
            seen.setdefault(label, set()).add(alpha)
            k = det.event.labels.index(label)
            np.testing.assert_allclose(
                post.density,
                det.event.projections[k] / det.weights[k] * det.weights[k]
                @ omega.density
                @ det.event.projections[k]
                / det.weights[k],
                atol=1e-9,
            )
        for label, alphas in seen.items():
            assert len(alphas) == 1  # each branch maps to exactly one pointer
            assert det.event.labels.index(label) + 1 == alphas.pop()

    def test_coarse_recorder(self):
        omega, det = detection_with_diag_event([0.4, 0.3, 0.2, 0.1])
        q1 = det.event.projections[0] + det.event.projections[1]
        q2 = det.event.projections[2] + det.event.projections[3]
        q_reps = [np.zeros((4, 4), dtype=complex), q1, q2]
        hits = set()
        for seed in range(30):
            alpha, label, _ = record_event(omega, q_reps, det, 0.02, seed=seed)
            k = det.event.labels.index(label)
            hits.add((k, alpha))
            assert alpha == (1 if k < 2 else 2)
        assert len(hits) >= 2

    def test_perturbed_recorder_keeps_assignment(self):
        omega, det = detection_with_diag_event([0.4, 0.35, 0.25])
        delta = 1e-3
        q = rotated(list(det.event.projections), delta)
        q_reps = [np.zeros((3, 3), dtype=complex)] + q
        for seed in range(20):
            alpha, label, _ = record_event(omega, q_reps, det, 20 * delta, seed=seed)
            assert alpha == det.event.labels.index(label) + 1
        # the dichotomy quantities stay O(delta)
        for pi, qa in zip(det.event.projections, q):
            assert operator_norm(pi @ qa - pi) <= 10 * delta

    def test_requires_actual_event(self):
        omega, det = detection_with_diag_event([1.0, 0.0])
        q_reps = [np.zeros((2, 2), dtype=complex)] + list(det.event.projections)
        with pytest.raises(RecordingConditionsFailed):
            record_event(omega, q_reps, det, 1e-3, seed=0)

    def test_rejects_weight_eps_above_every_weight(self):
        omega, det = detection_with_diag_event([0.4, 0.35, 0.25])
        q_reps = [np.zeros((3, 3), dtype=complex)] + list(det.event.projections)
        with pytest.raises(RecordingConditionsFailed, match="no Born weight"):
            record_event(omega, q_reps, det, 1e-6, seed=0, weight_eps=0.5)

    def test_ambiguous_pointer(self):
        omega, det = detection_with_diag_event([0.6, 0.4])
        # pointer family unrelated to the event: both dichotomy tests fail
        h = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        q_reps = [np.zeros((2, 2), dtype=complex), h, np.eye(2) - h]
        with pytest.raises((AmbiguousPointer, RecordingConditionsFailed)):
            record_event(omega, q_reps, det, 0.05, seed=0)


class TestResolutionMonotonicity:
    def test_formula_monotone(self):
        def resolution(n, m, delta):
            return (n / m) * (1.0 - delta) if 2 <= n <= m else 0.0

        for n in range(2, 6):
            for m in range(n, 8):
                for delta in (0.0, 0.01, 0.1):
                    r = resolution(n, m, delta)
                    assert resolution(n, m + 1, delta) <= r  # coarser event
                    assert resolution(n, m, delta + 0.05) <= r  # sloppier recorder
                    if n + 1 <= m:
                        assert resolution(n + 1, m, delta) >= r  # finer pointer


class TestResultDichotomy:
    def test_exact_recorder_minima_zero(self):
        omega, det = detection_with_diag_event([0.5, 0.3, 0.2])
        q_reps = [np.zeros((3, 3), dtype=complex)] + list(det.event.projections)
        rep = verify_result_dichotomy(det, q_reps, delta=0.0)
        assert rep.max_minimum < 1e-9
        assert rep.ok

    def test_lattice_recorder_delta_zero(self):
        omega, det = detection_with_diag_event([0.4, 0.3, 0.2, 0.1])
        q1 = det.event.projections[0] + det.event.projections[2]
        q2 = det.event.projections[1] + det.event.projections[3]
        q_reps = [np.zeros((4, 4), dtype=complex), q1, q2]
        rep = verify_result_dichotomy(det, q_reps, delta=0.0)
        assert rep.max_minimum < 1e-9

    def test_minima_scale_linearly(self):
        omega, det = detection_with_diag_event([0.4, 0.35, 0.25])
        deltas = [1e-2, 1e-3, 1e-4]
        maxima = []
        for delta in deltas:
            worst = 0.0
            for trial in range(20):
                q = rotated(list(det.event.projections), delta, seed=trial)
                q_reps = [np.zeros((3, 3), dtype=complex)] + q
                rep = verify_result_dichotomy(det, q_reps, delta)
                worst = max(worst, rep.max_minimum)
            maxima.append(worst)
        slope = np.polyfit(np.log(deltas), np.log(maxima), 1)[0]
        assert abs(slope - 1.0) < 0.2

    def test_incoherent_superposition_bound(self):
        # |omega(X) - sum_alpha omega(Q_a X Q_a)| <= C N delta ||X||
        omega, det = detection_with_diag_event([0.4, 0.35, 0.25])
        delta = 1e-3
        q = rotated(list(det.event.projections), delta)
        n = len(q)
        rho = omega.density
        basis = full_matrix_algebra(3).basis
        for x in basis:
            direct = np.trace(rho @ x)
            folded = sum(np.trace(rho @ qa @ x @ qa) for qa in q)
            assert abs(direct - folded) <= 16 * n * delta * operator_norm(x) + 1e-12


class TestNearestProjectionLemma:
    def test_close_quantity_close_lattice_point(self):
        omega, det = detection_with_diag_event([0.4, 0.35, 0.25])
        delta = 1e-3
        q = rotated(list(det.event.projections), delta)
        for qa in q:
            p, dist = nearest_projection_in_event(qa, det.event)
            assert dist <= 16 * delta
