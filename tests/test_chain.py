import numpy as np
import pytest

from ethsim.algebra import contains
from ethsim.chain import (
    ChainModel,
    build_gate,
    chain_initial_state,
    embed_system_probe,
    gate_cnot,
    gate_cphase,
    gate_partial_swap,
    plus_density,
    system_density,
)
from ethsim.errors import OutOfRange, ValidationError
from ethsim.linalg import SIGMA_X, SIGMA_Z, embed_site_operator, operator_norm
from ethsim.states import detect_event


def cnot_model(theta=0.6, horizon=2):
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    rho = np.outer(v, v.conj())
    g = gate_cnot(2, 2)
    init = chain_initial_state(rho, 2, 2, horizon)
    return ChainModel(2, 2, horizon, [g] * horizon, init)


class TestGates:
    def test_cnot_truth_table(self):
        g = gate_cnot(2, 2)
        for a in range(2):
            for b in range(2):
                src = np.zeros(4)
                src[2 * a + b] = 1.0
                out = g @ src
                assert abs(out[2 * a + (b ^ a)] - 1.0) < 1e-12

    def test_cphase_at_pi_is_controlled_z(self):
        g = gate_cphase(2, 2, np.pi)
        np.testing.assert_allclose(g, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-15)

    def test_partial_swap_unitary_and_interpolation(self):
        g0 = gate_partial_swap(2, 2, 0.0)
        np.testing.assert_allclose(g0, np.eye(4), atol=1e-12)
        g = gate_partial_swap(2, 2, 0.7)
        np.testing.assert_allclose(g @ g.conj().T, np.eye(4), atol=1e-12)

    def test_partial_swap_requires_equal_dims(self):
        with pytest.raises(ValidationError):
            gate_partial_swap(2, 3, 0.3)

    def test_readout_rotation_composition(self):
        g = build_gate("cnot", 2, 2, {"readout_phi": 0.5})
        base = gate_cnot(2, 2)
        rot = np.array(
            [
                [np.cos(0.25), -np.sin(0.25)],
                [np.sin(0.25), np.cos(0.25)],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(g, np.kron(np.eye(2), rot) @ base, atol=1e-12)

    def test_unknown_gate(self):
        with pytest.raises(ValidationError):
            build_gate("warp", 2, 2)


class TestChainModel:
    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            chain_initial_state(np.eye(2, dtype=complex) / 2, 2, 2, 12)

    def test_step_unitaries_act_locally(self):
        m = cnot_model(horizon=3)
        # U_1 must commute with everything on probes 2 and 3
        u1 = m.propagator(1, 0)
        for site in (2, 3):
            op = embed_site_operator(SIGMA_X, site, m.site_dims)
            assert operator_norm(u1 @ op - op @ u1) < 1e-9

    def test_propagator_group_law(self):
        m = cnot_model(horizon=3)
        assert operator_norm(m.propagator(0, 0) - np.eye(m.dim)) < 1e-12
        u20 = m.propagator(2, 0)
        u1, u2 = (embed_system_probe(gate_cnot(2, 2), k, 2, 2, 3) for k in (1, 2))
        np.testing.assert_allclose(u20, u2 @ u1, atol=1e-12)
        dev = operator_norm(
            m.propagator(3, 0) - m.propagator(3, 1) @ m.propagator(1, 0)
        )
        assert dev < 1e-12

    def test_propagator_range(self):
        m = cnot_model()
        with pytest.raises(OutOfRange):
            m.propagator(3, 0)


class TestFiltration:
    def test_dimension_sequence(self):
        for horizon in (2, 3):
            m = cnot_model(horizon=horizon)
            dims = [m.algebra_at(t).dim for t in range(horizon + 1)]
            assert dims == [4 * 4 ** (horizon - t) for t in range(horizon + 1)]

    def test_final_algebra_is_system_image(self):
        m = cnot_model(horizon=2)
        algebra = m.algebra_at(2)
        assert algebra.dim == 4
        c = m.propagator(2, 0)
        for op in (SIGMA_X, SIGMA_Z):
            emb = embed_site_operator(op, 0, m.site_dims)
            assert contains(algebra, c.conj().T @ emb @ c, 1e-8)

    def test_trivial_dynamics_literal_product(self):
        g = build_gate("identity", 2, 2)
        init = chain_initial_state(np.eye(2, dtype=complex) / 2, 2, 2, 2)
        m = ChainModel(2, 2, 2, [g, g], init)
        algebra = m.algebra_at(1)
        assert contains(algebra, embed_site_operator(SIGMA_X, 0, [2, 2, 2]), 1e-9)
        assert contains(algebra, embed_site_operator(SIGMA_Z, 2, [2, 2, 2]), 1e-9)
        assert not contains(algebra, embed_site_operator(SIGMA_X, 1, [2, 2, 2]), 1e-6)

    def test_nesting_report(self):
        m = cnot_model(horizon=3)
        rep = m.nesting_report()
        assert rep.all_ok
        assert rep.dims == (256, 64, 16, 4)
        assert all(s.relative_commutant_dim == 4 for s in rep.steps)

    def test_nesting_report_flags_a_missing_inclusion(self):
        m = cnot_model(horizon=3)
        e1, e2 = m.algebra_at(1), m.algebra_at(2)
        m._algebra_cache[1] = e2
        m._algebra_cache[2] = e1
        rep = m.nesting_report()
        assert [s.inclusion_ok for s in rep.steps] == [True, False, True]
        assert not all(contains(e2, b, 1e-8) for b in e1.basis)
        assert not rep.all_ok

    def test_covariance_against_trivial_model(self):
        # E(t) equals the propagator conjugate of the trivial-dynamics algebra
        m = cnot_model(horizon=2)
        g = build_gate("identity", 2, 2)
        trivial = ChainModel(
            2, 2, 2, [g, g], chain_initial_state(np.eye(2, dtype=complex) / 2, 2, 2, 2)
        )
        for t in range(3):
            c = m.propagator(t, 0)
            conj = [c.conj().T @ b @ c for b in trivial.algebra_at(t).basis]
            algebra = m.algebra_at(t)
            for x in conj:
                assert contains(algebra, x, 1e-8)

    def test_nested_future_algebra_inside_earlier(self):
        m = cnot_model(horizon=3)
        for t in range(3):
            outer = m.algebra_at(t)
            inner = m.algebra_at(t + 1)
            for b in inner.basis:
                assert contains(outer, b, 1e-8)


class TestReducedDetection:
    def test_agrees_with_generic(self):
        m = cnot_model(horizon=2)
        for t in (1, 2):
            fast = m.detect_event_reduced(m.initial_state, t)
            gen = detect_event(m.initial_state, m.algebra_at(t), t)
            assert fast.actual == gen.actual
            assert fast.event.labels == gen.event.labels
            np.testing.assert_allclose(fast.weights, gen.weights, atol=1e-9)
            for pf, pg in zip(fast.event.projections, gen.event.projections):
                np.testing.assert_allclose(pf, pg, atol=1e-8)

    def test_agrees_on_partial_swap(self):
        g = gate_partial_swap(2, 2, 0.7)
        init = chain_initial_state(np.diag([0.7, 0.3]).astype(complex), 2, 2, 2)
        m = ChainModel(2, 2, 2, [g, g], init)
        for t in (1, 2):
            fast = m.detect_event_reduced(m.initial_state, t)
            gen = detect_event(m.initial_state, m.algebra_at(t), t)
            assert fast.actual == gen.actual
            np.testing.assert_allclose(fast.weights, gen.weights, atol=1e-9)

    def test_cnot_weights(self):
        theta = 0.6
        m = cnot_model(theta)
        det = m.detect_event_reduced(m.initial_state, 1)
        assert det.actual
        np.testing.assert_allclose(
            det.weights[:2], [np.cos(theta) ** 2, np.sin(theta) ** 2], atol=1e-12
        )

    def test_plus_state_merges_to_no_event(self):
        g = gate_cnot(2, 2)
        init = chain_initial_state(plus_density(2), 2, 2, 2)
        m = ChainModel(2, 2, 2, [g, g], init)
        det = m.detect_event_reduced(m.initial_state, 1)
        assert not det.actual

    def test_maximally_mixed_passive(self):
        g = gate_cnot(2, 2)
        init = chain_initial_state(system_density("maximally_mixed", 2), 2, 2, 2)
        m = ChainModel(2, 2, 2, [g, g], init)
        for t in (1, 2):
            assert not m.detect_event_reduced(m.initial_state, t).actual


class TestDegenerateFiltration:
    def test_probe_dim_one_never_shrinks(self):
        g = np.eye(2, dtype=complex)
        init = chain_initial_state(np.diag([0.6, 0.4]).astype(complex), 2, 1, 2)
        m = ChainModel(2, 1, 2, [g, g], init)
        rep = m.nesting_report()
        assert not rep.all_ok
        assert all(not s.strict for s in rep.steps)
