import math
from fractions import Fraction

import numpy as np
import pytest

from ethsim import indirect
from ethsim.chain import ChainModel, build_gate, chain_initial_state
from ethsim.errors import (
    EmptyProtocol,
    NoEventError,
    OutOfRange,
    SeparationFailure,
    ValidationError,
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
    _collapse_stage,
    _measurement_step,
    _ndm_runs,
)
from ethsim.linalg import CERTAIN_TOL, SIGMA_Z, dagger, partial_trace
from ethsim.recording import probe_pointer_quantity
from ethsim.scenario import build_ndm, resolve_scenario
from ethsim.states import State

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

    def test_empty(self):
        with pytest.raises(EmptyProtocol):
            frequencies(MeasurementProtocol((), (), 0), 1)


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


class TestNdmRuns:
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

    def test_horizon_guard(self):
        m = self.make_model(horizon=2)
        with pytest.raises(OutOfRange):
            run_protocol(m, probe_pointer_quantity(2, 2), 5, seed=0)


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
    """All runs of an experiment advance as one stack; each must be the run a
    lone ``run_ndm_protocol`` call with its seed gives, bit for bit."""

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

    def test_mixed_stack_rows_equal_lone_steps(self):
        # rows that branch at step 1 (superposition), never branch (the
        # theta=0 eigenstate) and have no sector structure (maximally mixed)
        scn = cnot_scenario(readout_phi=0.3)
        starts = [
            np.asarray(system_state(THETA).density),
            np.asarray(system_state(0.0).density),
            np.eye(2, dtype=complex) / 2,
            np.asarray(system_state(THETA).density),
        ]
        rngs = [np.random.default_rng(seed) for seed in range(len(starts))]
        lone_rngs = [np.random.default_rng(seed) for seed in range(len(starts))]
        rho, lone = np.stack(starts), list(starts)
        for step in range(12):
            br = _branch_stage(rho, scn)
            if step == 0:
                assert br.branched.tolist() == [True, False, False, True]
                assert br.draws.tolist() == [2, 1, 0, 2]
            u = np.zeros((len(starts), 2))
            for r, k in enumerate(br.draws):
                if k:
                    u[r, 2 - k :] = rngs[r].random(k)
            eta, weight, rho = _collapse_stage(br, scn, u)
            for r in range(len(starts)):
                out = _measurement_step(lone[r], scn, lone_rngs[r])
                assert out.eta == eta[r]
                assert out.branched == br.branched[r]
                assert out.branch_weight == weight[r]
                assert np.array_equal(out.new_system, rho[r])
                lone[r] = out.new_system
        for a, b in zip(rngs, lone_rngs):
            assert a.random() == b.random()

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


def never_revisiting_scenario(runs, steps):
    """s=3, A = diag(1, 1, -1).  The gate rotates the 2-dimensional sector of
    A by an angle incommensurate with pi and clicks the probe on sector {2},
    so every step of a run in {0, 1} makes a new state."""
    angle = 0.7
    c, s_ = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s_, 0], [s_, c, 0], [0, 0, 0]], dtype=complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    gate = np.kron(rot, np.eye(2)) + np.kron(p2, flip)
    psi = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
    return NdmScenario(
        3, 2, gate, np.diag([1.0, 1.0, -1.0]).astype(complex),
        probe_pointer_quantity(3, 2), State(np.outer(psi, psi.conj())),
        runs=runs, steps=steps,
    )


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

    def test_no_sector_structure_has_no_event(self):
        scn = jumps_scenario(100, State(np.eye(2, dtype=complex) / 2))
        with pytest.raises(NoEventError):
            weak_measurement_trajectories(scn, 0.05, 100, 25, [0, 1])
        traj = weak_measurement_trajectories(scn, 0.0, 100, 25, [0, 1])
        assert all(t.etas == (0,) * 100 for t in traj)

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
    rows = []
    stage = indirect._branch_stage

    def counted(rho, scn):
        rows.append(len(rho))
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
