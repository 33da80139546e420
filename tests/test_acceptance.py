"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
from scipy import stats

from ethsim.algebra import commutant, full_matrix_algebra, generate_algebra
from ethsim.histories import (
    check_sum_rule,
    enumerate_tree,
    epr_demo,
    history_measure,
    relative_entropy_vs_reversed,
    sample_histories,
)
from ethsim.indirect import frequencies, ndm_experiment, weak_measurement_trajectories
from ethsim.linalg import operator_norm, random_density
from ethsim.recording import record_event, verify_result_dichotomy
from ethsim.scenario import build_model, build_ndm, resolve_scenario
from ethsim.states import (
    State,
    conditional_expectation,
    detect_event,
)
from ethsim.trace import TraceRecord


def report(number, description):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {number}: FAIL - {description}: {exc}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


def _random_generated_algebra(rng):
    dim = int(rng.integers(2, 9))
    gens = []
    for _ in range(int(rng.integers(1, 4))):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if rng.random() < 0.5:
            g = g + g.conj().T
        gens.append(g)
    return generate_algebra(gens, dim)


def _stacked_null_space_oracle(algebra):
    """Independent commutant computation: explicit kron-stacked commutator
    map, one global economy SVD, threshold on singular values."""
    d = algebra.ambient_dim
    blocks = [np.kron(np.eye(d), b.T) - np.kron(b, np.eye(d)) for b in algebra.basis]
    mat = np.concatenate(blocks, axis=0)
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    tol = 1e-9 * (1.0 + (float(s[0]) if len(s) else 0.0))
    keep = [vh[k].conj() for k in range(len(s)) if s[k] <= tol]
    return [v.reshape(d, d) for v in keep]


class TestCriterion1:
    def test_algebra_kernel(self):
        @report(1, "double commutant + commutant oracle on 200 random algebras")
        def check():
            rng = np.random.default_rng(2024)
            start = time.monotonic()
            worst = 0.0
            for _ in range(200):
                a = _random_generated_algebra(rng)
                c = commutant(a)
                oracle = _stacked_null_space_oracle(a)
                assert c.dim == len(oracle), "commutant dimension disagrees with oracle"
                for x in oracle:
                    resid = np.linalg.norm(x - c.project(x))
                    worst = max(worst, resid)
                cc = commutant(c)
                assert cc.dim == a.dim, "double commutant changed the dimension"
                for x in a.basis:
                    worst = max(worst, np.linalg.norm(x - cc.project(x)))
                for x in cc.basis:
                    worst = max(worst, np.linalg.norm(x - a.project(x)))
            elapsed = time.monotonic() - start
            assert worst <= 1e-8, f"max span deviation {worst}"
            assert elapsed <= 30.0, f"runtime {elapsed:.1f}s exceeds 30s"

        check()


class TestCriterion2:
    def test_event_calculus(self):
        @report(2, "event detection matches analytic families on diagonal states")
        def check():
            cases = [
                (np.diag([0.3, 0.7]), [0.7, 0.3]),
                (np.diag([0.5, 0.3, 0.2]), [0.5, 0.3, 0.2]),
                (np.diag([0.4, 0.3, 0.2, 0.1]), [0.4, 0.3, 0.2, 0.1]),
            ]
            for rho, expected in cases:
                dim = rho.shape[0]
                omega = State(rho.astype(complex))
                det = detect_event(omega, full_matrix_algebra(dim), t=1)
                assert det.actual, "expected an actual event"
                got = sorted(det.weights, reverse=True)
                for w, e in zip(got, sorted(expected, reverse=True)):
                    assert abs(w - e) <= 1e-9, f"weight {w} vs {e}"
                for pi, w in zip(det.event.projections, det.weights):
                    k = int(np.argmin([abs(w - v) for v in expected]))
                    target = np.zeros((dim, dim))
                    target[
                        list(rho.diagonal()).index(expected[k]),
                        list(rho.diagonal()).index(expected[k]),
                    ] = 1.0
                    assert operator_norm(pi - target) <= 1e-9, "projection mismatch"
                assert det.incoherence_residual <= 1e-8

        check()


class TestCriterion3:
    def test_conditional_expectation(self):
        @report(3, "conditional expectation axioms on 100 random instances")
        def check():
            rng = np.random.default_rng(77)
            for _ in range(100):
                dim = int(rng.integers(2, 6))
                m = full_matrix_algebra(dim)
                omega = State(random_density(dim, rng))
                det = detect_event(omega, m, t=0)
                fam = det.event
                x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
                    (dim, dim)
                )
                eps_x = conditional_expectation(omega, m, fam, x)
                assert operator_norm(eps_x) <= operator_norm(x) + 1e-9, "(i)"
                span_elem = sum(
                    rng.standard_normal() * p for p in fam.projections
                )
                fixed = conditional_expectation(omega, m, fam, span_elem)
                assert operator_norm(fixed - span_elem) <= 1e-9, "(ii)"
                assert abs(omega.expect(eps_x) - omega.expect(x)) <= 1e-9, "(iii)"
                a = sum(rng.standard_normal() * p for p in fam.projections)
                b = sum(rng.standard_normal() * p for p in fam.projections)
                lhs = conditional_expectation(omega, m, fam, a @ x @ b)
                assert operator_norm(lhs - a @ eps_x @ b) <= 1e-9, "(iv)"
                pos = conditional_expectation(omega, m, fam, x.conj().T @ x)
                low = np.linalg.eigvalsh((pos + pos.conj().T) / 2)[0]
                assert low >= -1e-9, "(v)"

        check()


class TestCriterion4:
    def test_filtration_nesting(self):
        @report(4, "strict filtration shrinkage with exact dimension sequence")
        def check():
            for name, horizon in (("cnot", 2), ("cnot_t3", 3), ("cnot_t4", 4)):
                model = build_model(resolve_scenario(name))
                rep = model.nesting_report()
                expected = tuple(
                    4 * 4 ** (horizon - t) for t in range(horizon + 1)
                )
                assert rep.dims == expected, f"{name}: dims {rep.dims} != {expected}"
                assert rep.all_ok, f"{name}: inclusion or strictness failed"

        check()


class TestCriterion5:
    def test_histories(self):
        @report(5, "tree mass, path measure, sum rule, relative entropy")
        def check():
            start = time.monotonic()
            rng = np.random.default_rng(4)
            scenarios = ["cnot", "commuting", "partial_swap"]
            for name in scenarios:
                model = build_model(resolve_scenario(name))
                tree = enumerate_tree(model)
                for depth, total in enumerate(tree.depth_weights()):
                    assert abs(total - 1.0) <= 1e-9, f"{name}: depth {depth} mass"
                for path in tree.step_paths():
                    mu = history_measure(model.initial_state, [s[2] for s in path])
                    w = 1.0
                    for s in path:
                        w *= s[3]
                    assert abs(mu - w) <= 1e-10, f"{name}: measure vs path weight"
                assert check_sum_rule(tree, model.initial_state) <= 1e-9, name
                raw = rng.standard_normal((model.dim, model.dim)) + (
                    1j * rng.standard_normal((model.dim, model.dim))
                )
                x = model.algebra_at(model.horizon).project(raw)
                assert check_sum_rule(tree, model.initial_state, x) <= 1e-9, name
                for n in range(1, model.horizon + 1):
                    s_n = relative_entropy_vs_reversed(model.initial_state, tree, n)
                    assert s_n >= -1e-9, f"{name}: S_{n} = {s_n}"
            commuting = build_model(resolve_scenario("commuting"))
            tree = enumerate_tree(commuting)
            for n in (1, 2):
                s_n = relative_entropy_vs_reversed(commuting.initial_state, tree, n)
                assert abs(s_n) <= 1e-10, f"commuting S_{n} = {s_n}"
            elapsed = time.monotonic() - start
            assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"

        check()


class TestCriterion6:
    def test_sampling(self):
        @report(6, "10^4 histories match tree probabilities; reruns byte-identical")
        def check():
            model = build_model(resolve_scenario("cnot"))
            tree = enumerate_tree(model)
            expected = {
                tuple(s[1] for s in p): float(np.prod([s[3] for s in p]))
                for p in tree.step_paths()
            }

            def run_all(master_seed):
                seeds = np.random.SeedSequence(master_seed).generate_state(10_000)
                counts = {k: 0 for k in expected}
                lines = []
                for h in sample_histories(model, [int(s) for s in seeds]):
                    key = tuple(step.chosen_label for step in h.steps)
                    counts[key] += 1
                    for step in h.steps:
                        rec = TraceRecord(
                            t=step.t,
                            event_labels=step.event.labels if step.event else (),
                            weights=step.weights,
                            chosen_label=step.chosen_label,
                            entropy=step.entropy,
                            state_fingerprint=step.post_state_fingerprint,
                        )
                        lines.append(rec.to_line())
                return counts, "\n".join(lines).encode()

            counts, blob1 = run_all(99)
            obs = np.array([counts[k] for k in expected])
            exp = np.array([expected[k] * 10_000 for k in expected])
            _, p_value = stats.chisquare(obs, exp)
            assert p_value > 0.001, f"chi-square p = {p_value}"
            _, blob2 = run_all(99)
            assert blob1 == blob2, "rerun with the same master seed differed"

        check()


class TestCriterion7:
    def test_recording(self):
        @report(7, "perfect recorder bijection, O(delta) scaling, superposition bound")
        def check():
            omega = State(np.diag([0.4, 0.35, 0.25]).astype(complex))
            det = detect_event(omega, full_matrix_algebra(3), t=1)
            exact = [np.zeros((3, 3), dtype=complex)] + list(det.event.projections)
            seen = {}
            for seed in range(60):
                alpha, label, _ = record_event(omega, exact, det, 1e-9, seed=seed)
                seen.setdefault(label, set()).add(alpha)
            assert len(seen) == 3, "not every branch sampled"
            for label, alphas in seen.items():
                assert alphas == {det.event.labels.index(label) + 1}, "bijection broken"

            def rotated(projections, delta, seed):
                inner = np.random.default_rng(seed)
                g = inner.standard_normal((3, 3)) + 1j * inner.standard_normal((3, 3))
                k = (g + g.conj().T) / 2
                k /= operator_norm(k)
                vals, vecs = np.linalg.eigh(k)
                u = vecs @ np.diag(np.exp(1j * delta * vals)) @ vecs.conj().T
                return [u @ p @ u.conj().T for p in projections]

            deltas = [1e-2, 1e-3, 1e-4]
            maxima = []
            for delta in deltas:
                worst = 0.0
                for trial in range(30):
                    q = rotated(list(det.event.projections), delta, trial)
                    rep = verify_result_dichotomy(det, [exact[0]] + q, delta)
                    worst = max(worst, rep.max_minimum)
                maxima.append(worst)
            slope = np.polyfit(np.log(deltas), np.log(maxima), 1)[0]
            assert abs(slope - 1.0) <= 0.2, f"dichotomy scaling slope {slope}"

            delta = 1e-3
            q = rotated(list(det.event.projections), delta, 0)
            n = len(q)
            rho = omega.density
            for x in full_matrix_algebra(3).basis:
                direct = np.trace(rho @ x)
                folded = sum(np.trace(rho @ qa @ x @ qa) for qa in q)
                bound = 16 * n * delta * operator_norm(x)
                assert abs(direct - folded) <= bound, "superposition residual"

        check()


class TestCriterion8:
    def test_ndm(self):
        @report(8, "NDM Born statistics, purification, noisy-readout convergence")
        def check():
            start = time.monotonic()
            theta = 0.6
            scn = build_ndm(resolve_scenario("ndm"), runs=10_000, steps=25)
            report_ = ndm_experiment(scn, master_seed=5)
            # sector index 1 is the +1 eigenvalue of sigma_z, i.e. |0>
            frac = report_.classified_counts[1] / 10_000
            p = math.cos(theta) ** 2
            assert abs(p - 0.6816) < 5e-4, "scenario mismatch"
            se = math.sqrt(p * (1 - p) / 10_000)
            assert abs(frac - p) <= 3 * se, f"classified fraction {frac} vs {p}"
            for run in report_.runs[:2000]:
                if run.first_event_step is not None:
                    tail = run.purification[run.first_event_step - 1 :]
                    assert tail.max() <= 1e-9, "purification after first event"

            n = 400
            noisy = build_ndm(resolve_scenario("ndm_noisy"), runs=100, steps=n)
            noisy_report = ndm_experiment(noisy, master_seed=6)
            for run in noisy_report.runs:
                f = np.array([float(v) for v in frequencies(run.protocol, 1)])
                target = noisy_report.p_exact[run.classified]
                err = np.abs(f - target).max()
                assert err <= 5 / math.sqrt(n), f"frequency error {err}"
            elapsed = time.monotonic() - start
            assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"

        check()


class TestCriterion9:
    def test_weak_measurement(self):
        @report(9, "quantum jumps: jump counts and dwell match the Markov oracle")
        def check():
            eps, w, n, n_runs = 0.05, 25, 2000, 100
            scn = build_ndm(resolve_scenario("jumps"), runs=1, steps=n)
            trajectories = weak_measurement_trajectories(scn, eps, n, w, range(n_runs))
            trans = trajectories[-1].transition_matrix
            jump_counts = [traj.jump_count for traj in trajectories]
            dwell0 = [traj.dwell_fractions[0] for traj in trajectories]
            frac_with_jumps = sum(1 for j in jump_counts if j >= 2) / n_runs
            assert frac_with_jumps >= 0.5, f"jump fraction {frac_with_jumps}"

            # independent oracle: simulate the 2-state chain with the exact
            # per-step flip probability, windowed the same way
            flip = trans[0, 1]
            assert abs(flip - math.sin(eps) ** 2) <= 1e-12
            rng = np.random.default_rng(12345)
            oracle_runs = 1000
            oracle_dwell0 = []
            start_state = 1  # ground system = +1 eigenvalue sector (index 1)
            for _ in range(oracle_runs):
                state = start_state
                window_states = []
                chunk = []
                for _ in range(n):
                    if rng.random() < flip:
                        state = 1 - state
                    chunk.append(state)
                    if len(chunk) == w:
                        counts = [chunk.count(0), chunk.count(1)]
                        window_states.append(int(np.argmax(counts)))
                        chunk = []
                oracle_dwell0.append(
                    sum(1 for v in window_states if v == 0) / len(window_states)
                )
            mean_sim = float(np.mean(dwell0))
            mean_orc = float(np.mean(oracle_dwell0))
            se = math.sqrt(
                np.var(dwell0) / n_runs + np.var(oracle_dwell0) / oracle_runs
            )
            assert abs(mean_sim - mean_orc) <= 3 * se, (
                f"dwell {mean_sim} vs oracle {mean_orc} (se {se})"
            )

        check()


class TestCriterion10:
    def test_epr(self):
        @report(10, "filter demo: unitary marginal zero, branch correlation -1")
        def check():
            rep = epr_demo(0.0, seed=8, samples=10_000)
            assert max(abs(v) for v in rep.unitary_marginals) <= 1e-10
            np.testing.assert_allclose(rep.conditional_spin, [-1.0, 1.0], atol=1e-10)
            assert rep.incoherence_residual <= 1e-10
            assert abs(rep.empirical_correlation - (-1.0)) <= 0.03

        check()
