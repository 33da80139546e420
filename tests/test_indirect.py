import math
from fractions import Fraction

import numpy as np
import pytest

from ethsim import indirect
from ethsim.chain import ChainModel, build_gate, chain_initial_state, embed_system_probe
from ethsim.errors import (
    EmptyProtocol,
    NoEventError,
    OutOfRange,
    SeparationFailure,
    ValidationError,
    ZeroProbability,
)
from ethsim.indirect import (
    MeasurementProtocol,
    NdmScenario,
    frequencies,
    ndm_experiment,
    purification_metric,
    run_ndm_protocol,
    run_protocol,
    sector_transition_matrix,
    weak_measurement_trajectories,
    weak_measurement_trajectory,
    _branch_stage,
    _measurement_step,
    _ndm_runs,
)
from ethsim.linalg import CERTAIN_TOL, DEFAULT_TOL, SIGMA_Z, WEIGHT_EPS, dagger, partial_trace
from ethsim.recording import probe_pointer_quantity
from ethsim.scenario import build_model, build_ndm, resolve_scenario
from ethsim.states import State, inverse_cdf, positive_weights

THETA = 0.6


def system_state(theta=THETA):
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    return State(np.outer(v, v.conj()))


def cnot_scenario(theta=THETA, runs=50, steps=20, readout_phi=None):
    params = {} if readout_phi is None else {"readout_phi": readout_phi}
    gate = build_gate("cnot", 2, 2, params)
    return NdmScenario(
        system_dim=2,
        probe_dim=2,
        gate=gate,
        conserved=np.array(SIGMA_Z),
        quantity=probe_pointer_quantity(2, 2),
        initial_system=system_state(theta),
        runs=runs,
        steps=steps,
    )


class TestProtocolBasics:
    def test_frequencies(self):
        p = MeasurementProtocol((0, 1, 1, 0), (1, 2, 3, 4), 0)
        f = frequencies(p, 1)
        assert f == [Fraction(1, 2), Fraction(1, 2)]
        assert sum(f) == 1

    def test_constant_protocol(self):
        p = MeasurementProtocol((1, 1, 1), (1, 2, 3), 0)
        assert frequencies(p, 1) == [Fraction(0), Fraction(1)]

    def test_mixed(self):
        p = MeasurementProtocol((0, 1, 1, 0, 1), (1, 2, 3, 4, 5), 0)
        assert frequencies(p, 1)[1] == Fraction(3, 5)

    def test_bincount_gives_the_exact_frequencies_rounded(self):
        # _ndm_run_list classifies on np.bincount(values) / n: both divisions
        # are correctly rounded, so the doubles are those of the rationals
        rng = np.random.default_rng(0)
        for n in (1, 3, 7, 49, 400, 1001):
            values = rng.integers(0, 3, n)
            p = MeasurementProtocol(tuple(values.tolist()), tuple(range(1, n + 1)), 0)
            exact = [float(f) for f in frequencies(p, 2)]
            assert (np.bincount(values, minlength=3) / n).tolist() == exact

    def test_empty(self):
        with pytest.raises(EmptyProtocol):
            frequencies(MeasurementProtocol((), (), 0), 1)

    def test_window_estimates_equal_one_window_at_a_time(self):
        # [0.5, 0.5] ties the two sectors: it keeps the window before it
        p_exact = np.array([[0.9, 0.1], [0.1, 0.9]])
        runs = [
            [[0.5, 0.5], [0.8, 0.2], [0.5, 0.5], [0.2, 0.8], [0.5, 0.5], [0.5, 0.5]],
            [[0.2, 0.8], [0.5, 0.5], [0.5, 0.5], [0.8, 0.2], [0.3, 0.7], [0.5, 0.5]],
        ]
        want = []
        for freqs in runs:
            estimates, prev = [], None
            for freq in np.array(freqs):
                prev = indirect.classify_frequencies(freq, p_exact, prev)
                estimates.append(prev)
            want.append(estimates)
        assert want == [[0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 1, 1]]
        assert indirect._window_estimates(np.array(runs), p_exact) == want


class TestScenarioValidation:
    def test_conservation_enforced(self):
        # a gate rotating the system does not conserve sigma_z
        rot = np.kron(
            np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]),
            np.eye(2),
        ).astype(complex)
        with pytest.raises(ValidationError):
            NdmScenario(
                2, 2, rot, np.array(SIGMA_Z), probe_pointer_quantity(2, 2),
                system_state(), runs=1, steps=1,
            )

    def test_exact_pointer_distributions(self):
        scn = cnot_scenario()
        p = scn.exact_pointer_distributions()
        # sector order follows ascending eigenvalues of A: -1 (|1>) then +1 (|0>)
        np.testing.assert_allclose(p, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_noisy_pointer_distributions(self):
        phi = 0.5
        scn = cnot_scenario(readout_phi=phi)
        p = scn.exact_pointer_distributions()
        s2, c2 = np.sin(phi / 2) ** 2, np.cos(phi / 2) ** 2
        np.testing.assert_allclose(p[1], [c2, s2], atol=1e-12)
        np.testing.assert_allclose(p[0], [s2, c2], atol=1e-12)

    @pytest.mark.parametrize("runs, steps", [(0, 5), (-1, 5), (3, 0), (3, -2)])
    def test_non_positive_runs_or_steps_rejected(self, runs, steps):
        gate = build_gate("cnot", 2, 2)
        with pytest.raises(ValidationError, match="must be >= 1"):
            NdmScenario(
                2, 2, gate, np.array(SIGMA_Z), probe_pointer_quantity(2, 2),
                system_state(), runs=runs, steps=steps,
            )

    def test_separation_failure(self):
        gate = build_gate("identity", 2, 2)
        scn = NdmScenario(
            2, 2, gate, np.array(SIGMA_Z), probe_pointer_quantity(2, 2),
            system_state(), runs=1, steps=5,
        )
        with pytest.raises(SeparationFailure):
            scn.check_separation()


def light_sectors_scenario():
    """s=3, p=2: the probe turns by 0, pi and pi/2 on the three system
    levels, A = diag(1, 2, 3), and no sector of the start diag(0.32, 0.33,
    0.35) weighs more than weight_eps 0.4."""
    def turn(angle):
        c, s_ = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -s_], [s_, c]], dtype=complex)

    levels = np.eye(3)
    gate = sum(
        np.kron(np.diag(levels[k]), turn(angle))
        for k, angle in enumerate((0.0, np.pi, np.pi / 2))
    )
    return NdmScenario(
        3, 2, gate, np.diag([1.0, 2.0, 3.0]).astype(complex),
        probe_pointer_quantity(3, 2), State(np.diag([0.32, 0.33, 0.35]).astype(complex)),
        runs=2, steps=5, weight_eps=0.4,
    )


class TestNdmRuns:
    def test_no_sector_above_weight_eps_raises(self):
        scn = light_sectors_scenario()
        scn.check_separation()  # the sectors are told apart; only the weights fail
        for run in (lambda: run_ndm_protocol(scn, 0), lambda: ndm_experiment(scn)):
            with pytest.raises(ZeroProbability, match="weight_eps 0.4: the largest is 0.35"):
                run()

    def test_eigenstate_deterministic(self):
        scn = cnot_scenario()
        up = NdmScenario(
            2, 2, scn.gate, scn.conserved, scn.quantity,
            State(np.diag([0.0, 1.0]).astype(complex)), runs=5, steps=10,
        )
        for seed in range(5):
            run = run_ndm_protocol(up, seed)
            assert run.protocol.values == (1,) * 10

    def test_superposition_purifies_after_first_step(self):
        scn = cnot_scenario()
        for seed in range(20):
            run = run_ndm_protocol(scn, seed)
            vals = run.protocol.values
            assert all(v == vals[0] for v in vals)
            assert run.first_event_step == 1
            assert run.purification.max() <= 1e-9

    def test_purification_monotone(self):
        scn = cnot_scenario(readout_phi=0.5)
        for seed in range(10):
            run = run_ndm_protocol(scn, seed)
            diffs = np.diff(run.purification)
            assert (diffs <= 1e-10).all()

    def test_born_statistics(self):
        scn = cnot_scenario(runs=2000, steps=5)
        report = ndm_experiment(scn, master_seed=11)
        frac_up = report.classified_counts[1] / scn.runs  # sector +1 = |0>
        p = np.cos(THETA) ** 2
        se = math.sqrt(p * (1 - p) / scn.runs)
        assert abs(frac_up - p) < 3 * se
        np.testing.assert_allclose(
            report.born_exact, [np.sin(THETA) ** 2, np.cos(THETA) ** 2], atol=1e-12
        )

    def test_noisy_frequency_convergence(self):
        phi = 0.5
        n = 400
        scn = cnot_scenario(readout_phi=phi, runs=40, steps=n)
        report = ndm_experiment(scn, master_seed=3)
        for run in report.runs:
            f = np.array(
                [float(x) for x in frequencies(run.protocol, 1)]
            )
            target = report.p_exact[run.classified]
            assert np.abs(f - target).max() <= 5 / math.sqrt(n)


class TestPurificationMetric:
    def test_eigenstate_zero(self):
        s = State(np.diag([1.0, 0.0]).astype(complex))
        assert purification_metric(s, np.array(SIGMA_Z)) < 1e-12

    def test_even_mixture_half(self):
        s = State(np.eye(2, dtype=complex) / 2)
        assert abs(purification_metric(s, np.array(SIGMA_Z)) - 0.5) < 1e-12

    def test_reduces_over_probes(self):
        rho = np.kron(np.diag([1.0, 0.0]), np.eye(4) / 4).astype(complex)
        s = State(rho)
        assert purification_metric(s, np.array(SIGMA_Z)) < 1e-12


class TestChainProtocol:
    def make_model(self, theta=THETA, horizon=3):
        g = build_gate("cnot", 2, 2)
        init = chain_initial_state(
            np.outer(
                np.array([np.cos(theta), np.sin(theta)]),
                np.array([np.cos(theta), np.sin(theta)]),
            ).astype(complex),
            2, 2, horizon,
        )
        return ChainModel(2, 2, horizon, [g] * horizon, init)

    def test_eigenstate_up_all_ones(self):
        g = build_gate("cnot", 2, 2)
        init = chain_initial_state(np.diag([0.0, 1.0]).astype(complex), 2, 2, 3)
        m = ChainModel(2, 2, 3, [g] * 3, init)
        p = run_protocol(m, probe_pointer_quantity(2, 2), 3, seed=0)
        assert p.values == (1, 1, 1)

    def test_decoupled_probes_null(self):
        g = build_gate("identity", 2, 2)
        init = chain_initial_state(
            np.outer([np.cos(0.6), np.sin(0.6)], [np.cos(0.6), np.sin(0.6)]).astype(
                complex
            ),
            2, 2, 3,
        )
        m = ChainModel(2, 2, 3, [g] * 3, init)
        p = run_protocol(m, probe_pointer_quantity(2, 2), 3, seed=0)
        assert p.values == (0, 0, 0)

    def test_superposition_repeats_first(self):
        m = self.make_model()
        seen = set()
        for seed in range(20):
            p = run_protocol(m, probe_pointer_quantity(2, 2), 3, seed=seed)
            assert all(v == p.values[0] for v in p.values)
            seen.add(p.values[0])
        assert seen == {0, 1}

    def test_matches_factorized_distribution(self):
        m = self.make_model()
        n_runs = 1500
        ones = sum(
            run_protocol(m, probe_pointer_quantity(2, 2), 2, seed=s).values[0]
            for s in range(n_runs)
        )
        p = np.sin(THETA) ** 2
        se = math.sqrt(p * (1 - p) / n_runs)
        assert abs(ones / n_runs - p) < 3 * se

    def test_no_weight_above_weight_eps_leaves_the_state_uncollapsed(self):
        """Every Born weight at or below weight_eps: no branch is drawn, and
        each step only reads its pointer from the uncollapsed state."""
        m = self.make_model()
        for seed in range(10):
            p = run_protocol(m, probe_pointer_quantity(2, 2), 3, seed=seed, weight_eps=0.9)
            u = np.random.default_rng(seed).random(3)
            assert p.values == tuple(int(x >= np.cos(THETA) ** 2) for x in u)

    def test_one_sector_step_records_zero_and_draws_nothing(self, monkeypatch):
        # identity gates on a maximally mixed system: at t = 2 = horizon the
        # reduced state is the system's, 1/2, one sector over the whole space
        g = build_gate("identity", 2, 2)
        init = chain_initial_state(np.eye(2, dtype=complex) / 2, 2, 2, 2)
        m = ChainModel(2, 2, 2, [g] * 2, init)
        assert len(m.detect_event_reduced(m.initial_state, 2).weights) == 1
        drawn = []
        make_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def random(self):
                drawn.append(1)
                return self.rng.random()

        monkeypatch.setattr(indirect.np.random, "default_rng", CountingRng)
        assert run_protocol(m, probe_pointer_quantity(2, 2), 1, seed=0).values == (0,)
        assert len(drawn) == 1  # step 1 has no event: its pointer draw only
        drawn.clear()
        assert run_protocol(m, probe_pointer_quantity(2, 2), 2, seed=0).values == (0, 0)
        assert len(drawn) == 1  # step 2 draws nothing

    def test_horizon_guard(self):
        m = self.make_model(horizon=2)
        with pytest.raises(OutOfRange):
            run_protocol(m, probe_pointer_quantity(2, 2), 5, seed=0)


def reference_protocol(model, quantity, n, seed=0, weight_eps=WEIGHT_EPS):
    """The per-run loop ``run_protocol`` ran before it shared the history
    walkers' node step: collapse inline by the reduced route's weight, call a
    step trivial when its one positive projection is the identity, and read
    the pointer through a dense Heisenberg observable per projection."""
    rng = np.random.default_rng(seed)
    state = model.initial_state
    values = []
    for j in range(1, n + 1):
        det = model.detect_event_reduced(state, j, weight_eps)
        masked, total, last = positive_weights(det.weights, weight_eps)
        positive = np.count_nonzero(masked)
        trivial = positive == 1 and (
            np.abs(det.event.projections[last] - np.eye(model.dim)).max() < DEFAULT_TOL
        )
        if trivial:
            values.append(0)
            continue
        if positive >= 2:
            chosen = int(inverse_cdf(masked, rng.random() * total, last))
            pi = det.event.projections[chosen]
            rho = pi @ state.density @ pi / det.weights[chosen]
            state = State((rho + dagger(rho)) / 2.0)
        c = model.propagator(j, 0)
        dist = []
        for q in quantity.projections:
            emb = embed_system_probe(q, j, model.s, model.p, model.horizon)
            heis = c.conj().T @ emb @ c
            dist.append(float(state.expect(heis).real))
        dist = np.clip(np.array(dist), 0.0, None)
        dist /= dist.sum()
        values.append(int(inverse_cdf(dist, rng.random(), len(dist) - 1)))
    return MeasurementProtocol(tuple(values), tuple(range(1, n + 1)), seed)


@pytest.mark.parametrize("name", ["cnot", "cnot_t3", "cnot_t4", "partial_swap"])
def test_run_protocol_matches_reference_loop(name):
    model = build_model(resolve_scenario(name))
    quantity = probe_pointer_quantity(model.s, model.p)
    for seed in range(200):
        got = run_protocol(model, quantity, model.horizon, seed=seed)
        assert got == reference_protocol(model, quantity, model.horizon, seed=seed), seed


class TestWeakMeasurement:
    def test_zero_drift_constant(self):
        scn = NdmScenario(
            2, 2, build_gate("cnot", 2, 2), np.array(SIGMA_Z),
            probe_pointer_quantity(2, 2),
            State(np.diag([1.0, 0.0]).astype(complex)), runs=1, steps=500,
        )
        traj = weak_measurement_trajectory(scn, 0.0, 500, 25, seed=4)
        assert traj.jump_count == 0
        assert len(set(traj.window_estimates)) == 1

    def test_transition_matrix_matches_sin_squared(self):
        scn = cnot_scenario()
        eps = 0.05
        drift = np.array(
            [[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]], dtype=complex
        )
        t = sector_transition_matrix(scn, drift)
        flip = np.sin(eps) ** 2
        np.testing.assert_allclose(
            t, [[1 - flip, flip], [flip, 1 - flip]], atol=1e-12
        )

    def test_jumps_happen(self):
        scn = NdmScenario(
            2, 2, build_gate("cnot", 2, 2), np.array(SIGMA_Z),
            probe_pointer_quantity(2, 2),
            State(np.diag([1.0, 0.0]).astype(complex)), runs=1, steps=2000,
        )
        jump_counts = [
            traj.jump_count
            for traj in weak_measurement_trajectories(scn, 0.05, 2000, 25, range(20))
        ]
        assert sum(1 for j in jump_counts if j >= 2) >= 10

    def test_decoupled_raises(self):
        scn = NdmScenario(
            2, 2, build_gate("identity", 2, 2), np.array(SIGMA_Z),
            probe_pointer_quantity(2, 2),
            State(np.diag([1.0, 0.0]).astype(complex)), runs=1, steps=100,
        )
        with pytest.raises((NoEventError, SeparationFailure)):
            weak_measurement_trajectory(scn, 0.05, 100, 25, seed=0)

    def test_drift_cap(self):
        scn = cnot_scenario()
        with pytest.raises(ValidationError):
            weak_measurement_trajectory(scn, 0.5, 100, 25, seed=0)


class TestConservationAlongRuns:
    def test_conserved_expectation_jumps_only_at_branches(self):
        # weak drift makes branches rare, so most steps must keep tr(rho A)
        scn = cnot_scenario(readout_phi=0.3, steps=40)
        for seed in range(8):
            run = run_ndm_protocol(scn, seed)
            vals = np.concatenate(
                [[float(np.trace(scn.initial_system.density @ SIGMA_Z).real)],
                 run.conserved_expectation]
            )
            for j in range(1, len(vals)):
                if j not in run.branch_steps:
                    assert abs(vals[j] - vals[j - 1]) <= 1e-10

    def test_expectation_constant_between_events(self):
        # between collapses the conserved expectation is carried by the
        # unconditional channel, which commutes with A
        scn = cnot_scenario(readout_phi=0.3)
        rng = np.random.default_rng(0)
        rho = np.asarray(scn.initial_system.density)
        a = np.array(SIGMA_Z)
        from ethsim.indirect import _measurement_step

        for _ in range(10):
            before = float(np.trace(rho @ a).real)
            out = _measurement_step(rho, scn, rng)
            sigma_uncond = scn.gate @ np.kron(rho, scn.probe_density) @ scn.gate.conj().T
            from ethsim.linalg import partial_trace

            rho_uncond = partial_trace(sigma_uncond, [2, 2], keep=[0])
            after_uncond = float(np.trace(rho_uncond @ a).real)
            assert abs(after_uncond - before) < 1e-10
            rho = out.new_system


class TestBatchedKernel:
    """All runs of an experiment advance in one driver call; each must be the
    run a lone ``run_ndm_protocol`` call with its seed gives, bit for bit."""

    @pytest.mark.parametrize(
        "theta, readout_phi",
        [(THETA, None), (THETA, 0.3), (THETA, 1.0), (0.0, None), (0.0, 0.3), (math.pi / 4, 0.3)],
    )
    def test_experiment_runs_equal_lone_runs(self, theta, readout_phi):
        scn = cnot_scenario(theta=theta, runs=12, steps=30, readout_phi=readout_phi)
        report = ndm_experiment(scn, master_seed=4)
        seeds = np.random.SeedSequence(4).generate_state(scn.runs)
        for run, seed in zip(report.runs, seeds):
            lone = run_ndm_protocol(scn, int(seed))
            assert run.protocol == lone.protocol
            assert run.classified == lone.classified
            assert run.first_event_step == lone.first_event_step
            assert run.branch_steps == lone.branch_steps
            assert np.array_equal(run.purification, lone.purification)
            assert np.array_equal(run.conserved_expectation, lone.conserved_expectation)

    def test_lone_steps_draw_their_stage_uniforms(self):
        # starts that branch at step 1 (superposition), never branch (the
        # theta=0 eigenstate) and have no sector structure (maximally mixed)
        scn = cnot_scenario(readout_phi=0.3)
        starts = [
            np.asarray(system_state(THETA).density),
            np.asarray(system_state(0.0).density),
            np.eye(2, dtype=complex) / 2,
            np.asarray(system_state(THETA).density),
        ]
        first = [_branch_stage(rho, scn) for rho in starts]
        assert [br.branched for br in first] == [True, False, False, True]
        assert [br.draws for br in first] == [2, 1, 0, 2]
        for seed, rho in enumerate(starts):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(12):
                br = _branch_stage(rho, scn)
                out = _measurement_step(rho, scn, rng)
                assert out.branched == br.branched
                ref.random(br.draws)
                rho = out.new_system
            assert rng.random() == ref.random()

    def test_long_runs_keep_their_draws(self):
        # runs of many steps: each must keep drawing the doubles its own
        # generator would give a lone run
        scn = cnot_scenario(readout_phi=0.3, runs=3, steps=192)
        report = ndm_experiment(scn, master_seed=9)
        seeds = np.random.SeedSequence(9).generate_state(scn.runs)
        for run, seed in zip(report.runs, seeds):
            rng = np.random.default_rng(int(seed))
            rho = np.asarray(scn.initial_system.density)
            values = []
            for _ in range(scn.steps):
                out = _measurement_step(rho, scn, rng)
                values.append(out.eta)
                rho = out.new_system
            assert run.protocol.values == tuple(values)


def drift_rotation(angle):
    c, s_ = np.cos(angle), np.sin(angle)
    return np.array([[c, -s_], [s_, c]], dtype=np.complex128)


def lone_steps(scn, seed, steps, drift=None):
    """One run as a loop of lone ``_measurement_step`` calls: its pointer
    values, branch flags, weights and post-step states."""
    rng = np.random.default_rng(seed)
    rho = np.asarray(scn.initial_system.density)
    outs = []
    for _ in range(steps):
        if drift is not None:
            rho = drift @ rho @ dagger(drift)
        out = _measurement_step(rho, scn, rng)
        outs.append(out)
        rho = out.new_system
    return outs


def assert_runs_equal_lone_steps(scn, seeds, rec, drift=None):
    """Each run of the driver's records ``rec`` is the loop of lone steps
    with its seed: values, branch flags, purification, tr(rho A), light and
    event flags, bit for bit."""
    a = np.asarray(scn.conserved)
    sectors = np.asarray(scn.sector_projections)
    for r, seed in enumerate(seeds):
        outs = lone_steps(scn, seed, scn.steps, drift)
        assert rec.values[r].tolist() == [out.eta for out in outs]
        assert rec.branched[r].tolist() == [out.branched for out in outs]
        rho = np.stack([out.new_system for out in outs])
        expect = np.trace(rho @ a, axis1=1, axis2=2).real
        assert np.array_equal(rec.conserved_expectation[r], expect)
        in_sector = np.trace(rho[:, None] @ sectors[None], axis1=2, axis2=3).real
        assert np.array_equal(rec.purification[r], 1.0 - in_sector.max(axis=1))
        light = any(out.branch_weight < 1.0 - CERTAIN_TOL for out in outs)
        assert rec.light[r] == light
        assert rec.events[r] == (light or any(out.branched for out in outs))


def never_revisiting_scenario(runs, steps, psi=None):
    """s=3, A = diag(1, 1, -1).  The gate rotates the 2-dimensional sector of
    A by an angle incommensurate with pi and clicks the probe on sector {2},
    so every step of a run in {0, 1} makes a new state.  The start is the
    pure state ``psi``, (|0> + |2>) / sqrt(2) by default."""
    angle = 0.7
    c, s_ = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s_, 0], [s_, c, 0], [0, 0, 0]], dtype=complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    gate = np.kron(rot, np.eye(2)) + np.kron(p2, flip)
    if psi is None:
        psi = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
    return NdmScenario(
        3, 2, gate, np.diag([1.0, 1.0, -1.0]).astype(complex),
        probe_pointer_quantity(3, 2), State(np.outer(psi, psi.conj())),
        runs=runs, steps=steps,
    )


def returning_scenario(steps, angle=0.6):
    """s=3, A = diag(1, -1, -1); the probe clicks on level 0.  The drift
    maps |1> to |2> and |2> to cos|0> + sin|1>: a run on |1> takes one
    step that does not branch, to |2>, and one that branches back onto |1>
    or onto |0>, so a node that does not branch recurs after a branch."""
    c, s_ = np.cos(angle), np.sin(angle)
    drift = np.array([[-s_, 0, c], [c, 0, s_], [0, 1, 0]], dtype=complex)
    p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    gate = np.kron(p0, flip) + np.kron(np.eye(3) - p0, np.eye(2))
    start = State(np.diag([0.0, 1.0, 0.0]).astype(complex))
    scn = NdmScenario(
        3, 2, gate, np.diag([1.0, -1.0, -1.0]).astype(complex),
        probe_pointer_quantity(3, 2), start, runs=1, steps=steps,
    )
    return scn, drift


def count_graphs(monkeypatch):
    """The state graphs the driver makes, collected as they are made."""
    graphs = []
    graph_class = indirect._StateGraph

    def made(*args):
        graph = graph_class(*args)
        graphs.append(graph)
        return graph

    monkeypatch.setattr(indirect, "_StateGraph", made)
    return graphs


def reference_trajectory(scn, drift_angle, n, window, seed):
    """``weak_measurement_trajectory`` as a per-step loop of lone steps."""
    p_exact = scn.check_separation()
    drift = drift_rotation(drift_angle)
    outs = lone_steps(scn, seed, n, drift)
    etas = [out.eta for out in outs]
    assert drift_angle == 0.0 or any(
        out.branched or out.branch_weight < 1.0 - CERTAIN_TOL for out in outs
    )
    k = scn.quantity.size
    estimates, prev = [], None
    for w0 in range(0, n - window + 1, window):
        chunk = etas[w0 : w0 + window]
        freq = np.array([chunk.count(e) / window for e in range(k)])
        prev = indirect.classify_frequencies(freq, p_exact, prev)
        estimates.append(prev)
    n_sec = p_exact.shape[0]
    return dict(
        etas=tuple(etas),
        window_estimates=tuple(estimates),
        jump_count=sum(1 for a, b in zip(estimates, estimates[1:]) if a != b),
        dwell_fractions=np.array([estimates.count(a) / len(estimates) for a in range(n_sec)]),
        transition_matrix=sector_transition_matrix(scn, drift),
    )


def jumps_scenario(steps=2000, initial=None):
    scn = build_ndm(resolve_scenario("jumps"), runs=1, steps=steps)
    if initial is None:
        return scn
    return NdmScenario(
        2, 2, scn.gate, scn.conserved, scn.quantity, initial, runs=1, steps=steps
    )


class TestDriver:
    """One driver, ``_ndm_runs``, advances every indirect-measurement run; it
    computes each step once per distinct system state.  Each run must be the
    loop of lone ``_measurement_step`` calls with its seed, bit for bit."""

    @pytest.mark.parametrize("drift_angle", [0.0, 0.05])
    def test_trajectories_equal_lone_step_loops(self, drift_angle):
        n = 209
        scn = jumps_scenario(n)
        seeds = list(range(6))
        batch = weak_measurement_trajectories(scn, drift_angle, n, 25, seeds)
        assert [t.seed for t in batch] == seeds
        for traj, seed in zip(batch, seeds):
            ref = reference_trajectory(scn, drift_angle, n, 25, seed)
            for field, want in ref.items():
                assert np.array_equal(getattr(traj, field), want), (seed, field)
            lone = weak_measurement_trajectory(scn, drift_angle, n, 25, seed=seed)
            assert lone.etas == traj.etas
            assert np.array_equal(lone.dwell_fractions, traj.dwell_fractions)

    @pytest.mark.parametrize(
        "start",
        [
            system_state(THETA).density,  # branches at step 1
            system_state(0.0).density,  # an eigenstate: never branches
            np.eye(2, dtype=complex) / 2,  # one sector, the whole space
            system_state(1e-5).density,  # one sector weighs 1e-10: no draw, yet an event
        ],
        ids=["branched", "never-branching", "no-sector-structure", "light-sector"],
    )
    @pytest.mark.parametrize("drift_angle", [0.0, 0.05])
    def test_runs_equal_lone_steps(self, start, drift_angle):
        scn = cnot_scenario(readout_phi=0.3)
        scn = NdmScenario(
            2, 2, scn.gate, scn.conserved, scn.quantity, State(np.asarray(start)),
            runs=1, steps=80,
        )
        drift = drift_rotation(drift_angle) if drift_angle else None
        seeds = list(range(5))
        assert_runs_equal_lone_steps(scn, seeds, _ndm_runs(scn, seeds, scn.steps, drift), drift)

    def test_runs_equal_lone_steps_across_graph_restarts(self, monkeypatch):
        # every step makes new states, so the state graph fills and starts
        # again from the runs' current states several times
        graphs = count_graphs(monkeypatch)
        scn = never_revisiting_scenario(runs=6, steps=60)
        seeds = list(range(6))
        rec = _ndm_runs(scn, seeds, scn.steps)
        assert len(graphs) >= 2
        assert_runs_equal_lone_steps(scn, seeds, rec)

    @pytest.mark.parametrize("steps", [49, 50, 51])
    def test_cycles_cut_mid_tile_equal_lone_steps(self, steps):
        # after its first step an ndm_noisy run cycles through three states
        # that do not branch; the step counts leave every remainder of the
        # cycle, so the tiled tail is cut mid-cycle
        scn = build_ndm(resolve_scenario("ndm_noisy"), runs=6, steps=steps)
        seeds = list(range(6))
        assert_runs_equal_lone_steps(scn, seeds, _ndm_runs(scn, seeds, steps))

    def test_drifted_light_sector_start_equal_lone_steps(self):
        # the drift turns the start onto a sector weighing 1e-10: the first
        # step does not branch, and every later one does
        angle = 0.05
        scn = cnot_scenario(readout_phi=0.3)
        scn = NdmScenario(
            2, 2, scn.gate, scn.conserved, scn.quantity, system_state(1e-5 - angle),
            runs=1, steps=60,
        )
        drift, seeds = drift_rotation(angle), list(range(5))
        rec = _ndm_runs(scn, seeds, scn.steps, drift)
        assert not rec.branched[:, 0].any() and rec.branched[:, 1:].all()
        assert rec.light.all()
        assert_runs_equal_lone_steps(scn, seeds, rec, drift)

    def test_node_recurring_after_a_branch_is_no_cycle(self):
        scn, drift = returning_scenario(steps=40)
        seeds = list(range(6))
        rec = _ndm_runs(scn, seeds, scn.steps, drift)
        assert not rec.branched[:, 0].any()
        assert (rec.branched[:, :-1] & ~rec.branched[:, 1:]).any()
        assert_runs_equal_lone_steps(scn, seeds, rec, drift)

    def test_restart_while_runs_stand_at_different_steps(self, monkeypatch):
        # the start branches: runs in sector {2} then finish at once, by
        # the tiled one-state cycle, while the others make a new state at
        # every step and fill the graph
        stops = []
        record = indirect._StateGraph.record

        def spy(graph, rec, taken, first, stop, uniforms, mark):
            stops.append(stop.tolist())
            record(graph, rec, taken, first, stop, uniforms, mark)

        monkeypatch.setattr(indirect._StateGraph, "record", spy)
        psi = np.array([0.8, 0.0, 0.6], dtype=complex)
        scn = never_revisiting_scenario(runs=6, steps=60, psi=psi)
        seeds = list(range(6))
        rec = _ndm_runs(scn, seeds, scn.steps)
        restarts = stops[:-1]
        assert any(len(set(stop)) > 1 for stop in restarts)
        assert_runs_equal_lone_steps(scn, seeds, rec)

    def test_no_sector_structure_has_no_event(self):
        scn = jumps_scenario(100, State(np.eye(2, dtype=complex) / 2))
        with pytest.raises(NoEventError):
            weak_measurement_trajectories(scn, 0.05, 100, 25, [0, 1])
        traj = weak_measurement_trajectories(scn, 0.0, 100, 25, [0, 1])
        assert all(t.etas == (0,) * 100 for t in traj)

    def test_negative_drift_angles_are_checked(self):
        # the weak-drift bound and the event check both hold for |drift_angle|
        with pytest.raises(ValidationError, match="weak drift"):
            weak_measurement_trajectories(jumps_scenario(100), -3.0, 100, 25, [0])
        scn = jumps_scenario(100, State(np.eye(2, dtype=complex) / 2))
        with pytest.raises(NoEventError):
            weak_measurement_trajectories(scn, -0.05, 100, 25, [0, 1])

    def test_transition_matrix_is_shared_and_read_only(self):
        batch = weak_measurement_trajectories(jumps_scenario(100), 0.05, 100, 25, [0, 1])
        assert batch[0].transition_matrix is batch[1].transition_matrix
        assert not batch[0].transition_matrix.flags.writeable

    def test_lone_step_is_only_a_reference(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_measurement_step called")

        monkeypatch.setattr(indirect, "_measurement_step", refuse)
        ndm_experiment(cnot_scenario(runs=5, steps=10), master_seed=1)
        weak_measurement_trajectories(jumps_scenario(100), 0.05, 100, 25, [0])


def count_branch_rows(monkeypatch):
    """One entry per branch stage the driver runs, each a single state."""
    rows = []
    stage = indirect._branch_stage

    def counted(rho, scn):
        rows.append(1)
        return stage(rho, scn)

    monkeypatch.setattr(indirect, "_branch_stage", counted)
    return rows


class TestDriverCost:
    """The branch stage runs once per distinct system state, and the state
    graph holds at most four nodes per run."""

    def test_jumps_trajectory_branches_few_states(self, monkeypatch):
        rows = count_branch_rows(monkeypatch)
        weak_measurement_trajectory(jumps_scenario(2000), 0.05, 2000, 25, seed=0)
        assert sum(rows) <= 4

    def test_noisy_experiment_branches_few_states(self, monkeypatch):
        rows = count_branch_rows(monkeypatch)
        scn = build_ndm(resolve_scenario("ndm_noisy"), runs=100, steps=400)
        ndm_experiment(scn, master_seed=6)
        assert sum(rows) <= 12

    def test_states_never_revisited_hold_bounded_nodes(self, monkeypatch):
        sizes = []
        add = indirect._StateGraph.add

        def counted(graph, rhos):
            ids = add(graph, rhos)
            sizes.append(len(graph))
            return ids

        monkeypatch.setattr(indirect._StateGraph, "add", counted)
        graphs = count_graphs(monkeypatch)
        runs, steps = 20, 500
        rec = _ndm_runs(never_revisiting_scenario(runs, steps), list(range(runs)), steps)
        assert set(rec.values[:, 0].tolist()) == {0, 1}  # both sectors taken
        assert sum(len(graph) for graph in graphs) >= steps  # a new state at every step
        assert max(sizes) <= 4 * runs


def collapse_calls(monkeypatch):
    """Every ``_StateGraph.collapse`` call the driver makes, as (graph, slot)."""
    calls = []
    collapse = indirect._StateGraph.collapse

    def spy(graph, slot):
        calls.append((graph, slot))
        return collapse(graph, slot)

    monkeypatch.setattr(indirect._StateGraph, "collapse", spy)
    return calls


class TestWalk:
    """Each run walks to its end, and a (node, sector) slot is collapsed the
    first time any run takes it."""

    @pytest.mark.parametrize("shape", ["ndm_noisy", "jumps"])
    def test_each_call_collapses_one_new_slot(self, shape, monkeypatch):
        calls = collapse_calls(monkeypatch)
        if shape == "ndm_noisy":
            scn = build_ndm(resolve_scenario("ndm_noisy"), runs=100, steps=400)
            _ndm_runs(scn, list(range(100)), 400)
        else:
            weak_measurement_trajectory(jumps_scenario(2000), 0.05, 2000, 25, seed=0)
        assert calls
        assert all(type(slot) is int for _, slot in calls)
        assert len({(id(graph), slot) for graph, slot in calls}) == len(calls)

    def test_batched_runs_equal_lone_calls_across_a_restart(self, monkeypatch):
        # a lone ndm_noisy run meets more states than one graph holds for
        # one run, so it restarts; twenty runs share one graph
        graphs = count_graphs(monkeypatch)
        scn = build_ndm(resolve_scenario("ndm_noisy"), runs=20, steps=400)
        seeds = [int(seed) for seed in np.random.SeedSequence(11).generate_state(20)]
        batch = _ndm_runs(scn, seeds, 400)
        assert len(graphs) == 1
        for r, seed in enumerate(seeds):
            del graphs[:]
            lone = _ndm_runs(scn, [seed], 400)
            assert len(graphs) == 2
            for name in ("values", "branched", "purification", "conserved_expectation", "light"):
                assert np.array_equal(getattr(batch, name)[r], getattr(lone, name)[0]), (r, name)

    def test_runs_started_after_a_restart_keep_the_bound(self, monkeypatch):
        # a restart leaves runs to start from the initial state; the new
        # graph holds it already, so no run's start grows a full graph
        sizes = []
        add = indirect._StateGraph.add

        def counted(graph, rho):
            node = add(graph, rho)
            sizes.append(len(graph))
            return node

        monkeypatch.setattr(indirect._StateGraph, "add", counted)
        graphs = count_graphs(monkeypatch)
        rec = _ndm_runs(never_revisiting_scenario(3, 500), [0, 1, 2], 500)
        assert len(graphs) >= 2
        assert max(sizes) <= 4 * 3
        assert_runs_equal_lone_steps(never_revisiting_scenario(3, 500), [0, 1, 2], rec)
