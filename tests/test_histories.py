import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import block_diag

from ethsim import histories as hist
from ethsim.chain import ChainModel, build_gate, chain_initial_state
from ethsim.errors import DepthExceeded, OutOfRange, TreeTooLarge
from ethsim.histories import (
    History,
    HistoryStep,
    check_sum_rule,
    enumerate_tree,
    epr_demo,
    history_measure,
    missing_information,
    missing_information_per_event,
    relative_entropy_vs_reversed,
    reversed_measure,
    sample_histories,
    sample_history,
)
from ethsim.linalg import WEIGHT_EPS, random_density, random_unitary
from ethsim.scenario import build_model, resolve_scenario
from ethsim.states import collapse, inverse_cdf, positive_weights
from ethsim.trace import fingerprint

THETA = 0.6


def cnot_model(horizon=2, theta=THETA):
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    rho = np.outer(v, v.conj())
    g = build_gate("cnot", 2, 2)
    init = chain_initial_state(rho, 2, 2, horizon)
    return ChainModel(2, 2, horizon, [g] * horizon, init)


def pswap_model(horizon=3, theta=0.7):
    g = build_gate("partial_swap", 2, 2, {"theta": theta})
    init = chain_initial_state(np.diag([0.7, 0.3]).astype(complex), 2, 2, horizon)
    return ChainModel(2, 2, horizon, [g] * horizon, init)


def trivial_model(horizon=2):
    g = build_gate("identity", 2, 2)
    init = chain_initial_state(np.eye(2, dtype=complex) / 2, 2, 2, horizon)
    return ChainModel(2, 2, horizon, [g] * horizon, init)


def haar_model(seed=3, horizon=4):
    """s=2, p=2 chain (d=32) with Haar-random gates: 16 leaves."""
    rng = np.random.default_rng(seed)
    gates = [random_unitary(4, rng) for _ in range(horizon)]
    init = chain_initial_state(random_density(2, rng), 2, 2, horizon)
    return ChainModel(2, 2, horizon, gates, init)


def reference_history(model, horizon=None, seed=0, weight_eps=WEIGHT_EPS, engine="reduced"):
    """The per-run sampling loop ``sample_history`` ran before the runs of a
    batch shared their tree nodes: detect, draw, collapse and fingerprint at
    every step of every run."""
    horizon = model.horizon if horizon is None else horizon
    rng = np.random.default_rng(seed)
    state = model.initial_state
    steps = []
    for t in range(1, horizon + 1):
        det = hist._detect(model, state, t, weight_eps, engine)
        if det.actual:
            u = float(rng.random())
            masked, total, last = positive_weights(det.weights, weight_eps)
            k = int(inverse_cdf(masked / total, u, last))
            state = collapse(state, det.event.projections[k], weight_eps)
            steps.append(
                HistoryStep(
                    t=t,
                    event=det.event,
                    weights=det.weights,
                    chosen_label=det.event.labels[k],
                    weight=det.weights[k],
                    entropy=missing_information(det.weights),
                    post_state_fingerprint=fingerprint(state.density),
                )
            )
        else:
            steps.append(
                HistoryStep(
                    t=t,
                    event=None,
                    weights=(),
                    chosen_label=None,
                    weight=1.0,
                    entropy=0.0,
                    post_state_fingerprint=fingerprint(state.density),
                )
            )
    return History(tuple(steps), state, seed)


def assert_same_history(got, want):
    # dataclass == would compare the events' projection arrays elementwise
    assert got.seed == want.seed
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        assert (a.t, a.chosen_label, a.weights, a.weight, a.entropy) == (
            b.t,
            b.chosen_label,
            b.weights,
            b.weight,
            b.entropy,
        )
        assert a.post_state_fingerprint == b.post_state_fingerprint
        assert (a.event is None) == (b.event is None)
        if a.event is not None:
            assert a.event.labels == b.event.labels
            assert a.event.time_index == b.event.time_index
            assert len(a.event.projections) == len(b.event.projections)
            for p, q in zip(a.event.projections, b.event.projections):
                assert np.array_equal(p, q)
    assert np.array_equal(got.final_state.density, want.final_state.density)


def label_paths(histories):
    return [tuple(s.chosen_label for s in h.steps) for h in histories]


class TestMissingInformation:
    def test_fair_coin(self):
        assert abs(missing_information([0.5, 0.5]) - math.log(2)) < 1e-12

    def test_certain(self):
        assert missing_information([1.0]) == 0.0

    def test_uniform_four(self):
        assert abs(missing_information([0.25] * 4) - math.log(4)) < 1e-12

    def test_zero_weight_convention(self):
        assert abs(missing_information([0.5, 0.5, 0.0]) - math.log(2)) < 1e-12


class TestSampleHistory:
    def test_passive_state_no_events(self):
        m = trivial_model()
        h = sample_history(m, seed=0)
        assert all(s.event is None for s in h.steps)
        np.testing.assert_allclose(
            h.final_state.density, m.initial_state.density, atol=1e-12
        )

    def test_single_step_branch_and_collapse(self):
        m = cnot_model()
        h = sample_history(m, seed=1)
        first = h.steps[0]
        assert first.event is not None
        assert first.chosen_label in ("t1:e0", "t1:e1")
        assert set(np.round(first.weights[:2], 9)) == {
            round(np.cos(THETA) ** 2, 9),
            round(np.sin(THETA) ** 2, 9),
        }
        # the second step is deterministic given the first
        assert h.steps[1].event is None

    def test_engines_agree(self):
        m = cnot_model()
        h1 = sample_history(m, seed=7, engine="reduced")
        h2 = sample_history(m, seed=7, engine="generic")
        assert [s.chosen_label for s in h1.steps] == [s.chosen_label for s in h2.steps]
        assert [s.post_state_fingerprint for s in h1.steps] == [
            s.post_state_fingerprint for s in h2.steps
        ]

    def test_branch_frequencies_match_born(self):
        m = cnot_model()
        n = 4000
        count0 = sum(
            1
            for seed in range(n)
            if sample_history(m, seed=seed).steps[0].chosen_label == "t1:e0"
        )
        p = np.cos(THETA) ** 2
        se = math.sqrt(p * (1 - p) / n)
        assert abs(count0 / n - p) < 3 * se


class TestSampleHistories:
    @pytest.mark.parametrize(
        "make, kwargs, seeds",
        [
            (cnot_model, {}, range(40)),
            (lambda: build_model(resolve_scenario("commuting")), {}, range(40)),
            (trivial_model, {}, range(5)),
            (cnot_model, {"engine": "generic"}, range(40)),
            (pswap_model, {"horizon": 2}, range(40)),
            (pswap_model, {}, range(40)),
            (pswap_model, {}, [3, 3, 5, 3, 5]),
            # d=32, 16 leaves: the runs rarely share a node below t=1
            (haar_model, {}, [11, 12, 13]),
        ],
        ids=[
            "cnot",
            "commuting",
            "trivial",
            "generic",
            "short-horizon",
            "pswap",
            "repeated-seeds",
            "haar",
        ],
    )
    def test_batch_equals_lone_runs(self, make, kwargs, seeds):
        model = make()
        batch = sample_histories(model, seeds, **kwargs)
        assert len(batch) == len(seeds)
        for seed, h in zip(seeds, batch):
            assert_same_history(h, reference_history(model, seed=seed, **kwargs))

    def test_cnot_runs_split_at_the_first_step(self):
        paths = set(label_paths(sample_histories(cnot_model(), range(40))))
        assert {p[0] for p in paths} == {"t1:e0", "t1:e1"}
        assert all(p[1] is None for p in paths)

    def test_no_seeds_and_horizon_guard(self):
        model = cnot_model()
        assert sample_histories(model, []) == []
        with pytest.raises(OutOfRange):
            sample_histories(model, [0], horizon=model.horizon + 1)

    @pytest.mark.parametrize("make", [pswap_model, haar_model])
    def test_each_node_detected_and_each_branch_collapsed_once(self, make, monkeypatch):
        model = make()
        detected, collapsed = [], []
        detect, fold = hist._detect, hist.collapse

        def counting_detect(model, state, t, *args, **kwargs):
            detected.append(t)
            return detect(model, state, t, *args, **kwargs)

        def counting_collapse(*args, **kwargs):
            collapsed.append(1)
            return fold(*args, **kwargs)

        monkeypatch.setattr(hist, "_detect", counting_detect)
        monkeypatch.setattr(hist, "collapse", counting_collapse)
        paths = label_paths(sample_histories(model, range(30)))
        horizon = model.horizon
        # nodes at depths 0..T-1 are the distinct label prefixes of those lengths
        nodes = {p[:n] for p in paths for n in range(horizon)}
        branches = {p[:n] for p in paths for n in range(1, horizon + 1) if p[n - 1] is not None}
        assert len(detected) == len(nodes)
        assert len(collapsed) == len(branches)
        # with 30 runs the per-run loop would detect 30 times per depth
        assert len(detected) < 30 * horizon


class TestEnumerateTree:
    def test_passive_tree_is_chain(self):
        tree = enumerate_tree(trivial_model())
        assert tree.node_count == 3
        assert [len(p) for p in tree.step_paths()] == [2]

    def test_cnot_tree(self):
        tree = enumerate_tree(cnot_model())
        paths = tree.step_paths()
        assert len(paths) == 2
        weights = sorted(
            float(np.prod([s[3] for s in p])) for p in paths
        )
        np.testing.assert_allclose(
            weights, sorted([np.cos(THETA) ** 2, np.sin(THETA) ** 2]), atol=1e-12
        )

    def test_leaf_mass_every_depth(self):
        for model in (cnot_model(), pswap_model()):
            tree = enumerate_tree(model)
            for d, total in enumerate(tree.depth_weights()):
                assert abs(total - 1.0) < 1e-9, f"depth {d}"

    def test_prune_above_all_weights(self):
        tree = enumerate_tree(cnot_model(), prune_eps=0.99)
        assert abs(tree.pruned_mass - 1.0) < 1e-9
        assert not tree.root.children

    def test_node_guard(self):
        with pytest.raises(TreeTooLarge):
            enumerate_tree(pswap_model(), max_nodes=3)
        count = enumerate_tree(pswap_model()).node_count
        assert enumerate_tree(pswap_model(), max_nodes=count).node_count == count
        with pytest.raises(TreeTooLarge):
            enumerate_tree(pswap_model(), max_nodes=count - 1)

    @pytest.mark.parametrize("make", [pswap_model, haar_model])
    def test_each_node_detected_and_each_kept_branch_collapsed_once(self, make, monkeypatch):
        model = make()
        detected, collapsed = [], []
        detect, fold = hist._detect, hist.collapse

        def counting_detect(*args, **kwargs):
            detected.append(1)
            return detect(*args, **kwargs)

        def counting_collapse(*args, **kwargs):
            collapsed.append(1)
            return fold(*args, **kwargs)

        monkeypatch.setattr(hist, "_detect", counting_detect)
        monkeypatch.setattr(hist, "collapse", counting_collapse)
        tree = enumerate_tree(model)
        inner = [n for d in range(model.horizon) for n in tree.nodes_at_depth(d)]
        assert len(detected) == len(inner)
        assert len(collapsed) == sum(len(n.children) for n in inner if n.event is not None)
        assert len(collapsed) > 0

    def test_tree_engines_agree(self):
        model = pswap_model()
        fast = enumerate_tree(model, engine="reduced")
        generic = enumerate_tree(model, engine="generic")
        paths_fast = {
            tuple(s[1] for s in p): float(np.prod([s[3] for s in p]))
            for p in fast.step_paths()
        }
        paths_generic = {
            tuple(s[1] for s in p): float(np.prod([s[3] for s in p]))
            for p in generic.step_paths()
        }
        assert paths_fast.keys() == paths_generic.keys()
        for key in paths_fast:
            assert abs(paths_fast[key] - paths_generic[key]) < 1e-9


class TestHistoryMeasure:
    def test_empty_sequence(self):
        m = cnot_model()
        assert abs(history_measure(m.initial_state, []) - 1.0) < 1e-12

    def test_single_projection(self):
        m = cnot_model()
        det = m.detect_event_reduced(m.initial_state, 1)
        pi = det.event.projections[0]
        mu = history_measure(m.initial_state, [pi])
        assert abs(mu - det.weights[0]) < 1e-12

    def test_path_weights_on_all_models(self):
        for model in (cnot_model(), pswap_model(), trivial_model()):
            tree = enumerate_tree(model)
            for path in tree.step_paths():
                mu = history_measure(model.initial_state, [s[2] for s in path])
                w = float(np.prod([s[3] for s in path]))
                assert abs(mu - w) < 1e-10


class TestSumRule:
    def test_unconditioned(self):
        for model in (cnot_model(), pswap_model()):
            tree = enumerate_tree(model)
            assert check_sum_rule(tree, model.initial_state) <= 1e-10

    def test_with_random_conditioning(self):
        rng = np.random.default_rng(5)
        for model in (cnot_model(), pswap_model()):
            tree = enumerate_tree(model)
            raw = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal(
                (model.dim, model.dim)
            )
            x = model.algebra_at(model.horizon).project(raw)
            assert check_sum_rule(tree, model.initial_state, x) <= 1e-9

    def test_kolmogorov_marginalization(self):
        # child-weight sums reproduce parent weights: the m = n, X = 1 case
        model = pswap_model()
        tree = enumerate_tree(model)
        paths = tree.step_paths()
        n = len(paths[0])
        for k in range(1, n):
            partial = {}
            for p in paths:
                labels = tuple(s[1] for s in p[:k])
                mu = history_measure(model.initial_state, [s[2] for s in p])
                partial[labels] = partial.get(labels, 0.0) + mu
            for labels, total in partial.items():
                prefix = next(
                    p[:k] for p in paths if tuple(s[1] for s in p[:k]) == labels
                )
                parent = history_measure(model.initial_state, [s[2] for s in prefix])
                assert abs(total - parent) < 1e-10


class TestEntropies:
    def test_sigma_matches_hand_sum(self):
        model = cnot_model()
        tree = enumerate_tree(model)
        p0 = np.cos(THETA) ** 2
        expected = -(p0 * math.log(p0) + (1 - p0) * math.log(1 - p0)) / 2
        got = missing_information_per_event(tree, model.initial_state, 2)
        assert abs(got - expected) < 1e-10

    def test_sigma_zero_on_passive(self):
        model = trivial_model()
        tree = enumerate_tree(model)
        assert missing_information_per_event(tree, model.initial_state, 2) == 0.0

    def test_depth_guard(self):
        model = cnot_model()
        tree = enumerate_tree(model)
        with pytest.raises(DepthExceeded):
            missing_information_per_event(tree, model.initial_state, 5)

    def test_relative_entropy_nonnegative(self):
        for model in (cnot_model(), pswap_model(), trivial_model()):
            tree = enumerate_tree(model)
            for n in range(1, model.horizon + 1):
                s_n = relative_entropy_vs_reversed(model.initial_state, tree, n)
                assert s_n >= -1e-9

    def test_relative_entropy_zero_when_commuting(self):
        # events at one level plus trivial steps: all projections commute
        model = cnot_model()
        tree = enumerate_tree(model)
        for n in (1, 2):
            s_n = relative_entropy_vs_reversed(model.initial_state, tree, n)
            assert abs(s_n) < 1e-10

    def test_relative_entropy_positive_on_noncommuting(self):
        model = pswap_model()
        tree = enumerate_tree(model)
        s_2 = relative_entropy_vs_reversed(model.initial_state, tree, 2)
        assert s_2 > 1e-3
        # cross-check one path by direct two-term evaluation
        paths = tree.step_paths()
        total = 0.0
        for p in paths:
            projs = [s[2] for s in p[:2]]
            mu = history_measure(model.initial_state, projs)
            opp = reversed_measure(model.initial_state, projs)
            if mu > 1e-15:
                total += mu * (math.log(mu) - math.log(opp))
        seen = {}
        for p in paths:  # deduplicate depth-2 prefixes
            key = tuple(s[1] for s in p[:2])
            seen.setdefault(key, p[:2])
        total = 0.0
        for key, p in seen.items():
            projs = [s[2] for s in p]
            mu = history_measure(model.initial_state, projs)
            opp = reversed_measure(model.initial_state, projs)
            if mu > 1e-15:
                total += mu * (math.log(mu) - math.log(opp))
        assert abs(total - s_2) < 1e-12


# The path formulas that read flattened leaf paths before each tree node
# carried its own path: every depth-n label prefix was found by rescanning all
# paths.  The node-based functions must return exactly what these return.


def ref_step_paths(tree):
    paths = []
    eye = np.eye(tree.root.state.dim, dtype=np.complex128)
    stack = [(tree.root, [])]
    while stack:
        node, acc = stack.pop()
        if not node.children:
            paths.append(acc)
            continue
        if node.event is None:
            child = next(iter(node.children.values()))
            stack.append((child, acc + [(node.t + 1, None, eye, 1.0)]))
            continue
        branches = []
        for label, child in node.children.items():
            k = node.event.labels.index(label)
            step = (node.t + 1, label, node.event.projections[k], node.weights[k])
            branches.append((child, acc + [step]))
        stack.extend(reversed(branches))
    return paths


def ref_nodes_at_depth(tree, depth):
    level = [tree.root]
    for _ in range(depth):
        level = [c for n in level for c in n.children.values()]
    return level


def ref_unique_prefixes(paths, length, match=None):
    seen = {}
    for p in paths:
        if len(p) < length:
            continue
        labels = tuple(step[1] for step in p[:length])
        if match is not None and labels[: len(match)] != match:
            continue
        seen.setdefault(labels, p[:length])
    return seen


def ref_check_sum_rule(tree, root, x=None):
    paths = ref_step_paths(tree)
    n = len(paths[0])
    worst = 0.0
    for labels, path in ref_unique_prefixes(paths, n).items():
        projs = [step[2] for step in path]
        for m in range(1, n + 1):
            tail = np.eye(root.dim, dtype=np.complex128)
            for p in projs[m:]:
                tail = tail @ p
            x_cond = tail if x is None else tail @ np.asarray(x, dtype=np.complex128)
            for k in range(1, m + 1):
                rhs = history_measure(root, projs[:k], x_cond)
                lhs = 0.0
                for mid_path in ref_unique_prefixes(paths, m, match=labels[:k]).values():
                    lhs += history_measure(root, [s[2] for s in mid_path], x_cond)
                worst = max(worst, abs(lhs - rhs))
    return worst


def ref_depth_measures(tree, root, n):
    """(sigma_n, S_n) over the depth-n label prefixes."""
    sigma, rel = 0.0, 0.0
    for path in ref_unique_prefixes(ref_step_paths(tree), n).values():
        projs = [s[2] for s in path]
        mu = history_measure(root, projs)
        if mu > 0.0:
            sigma -= mu * math.log(mu)
        if mu > hist.MEASURE_FLOOR and rel != math.inf:
            opp = reversed_measure(root, projs)
            rel = math.inf if opp <= hist.MEASURE_FLOOR else rel + mu * (math.log(mu) - math.log(opp))
    return sigma / n, rel


def mixed_depth_model(rows):
    """s=3, p=3, T=2 (d=27): step 1 records the system level k (weights 0.4,
    0.36, 0.24) in probe 1, and step 2 then branches sector k with the Born
    weights ``rows[k]``.  Pruned at 0.345, a sector whose weights all lie at
    or below that keeps no child: its leaf is one step deep, its sibling's
    two."""
    shift = np.roll(np.eye(3), 1, axis=0)
    record = block_diag(*(np.linalg.matrix_power(shift, k) for k in range(3)))
    blocks = []
    for q in rows:
        m = np.eye(3)
        m[:, 0] = np.sqrt(q)
        u, r = np.linalg.qr(m)
        blocks.append(u * np.sign(r[0, 0]))  # first column sqrt(q)
    # |k, j> -> |j, j + k>: the probe keeps k, the system takes the outcome
    perm = np.zeros((9, 9))
    for k in range(3):
        for j in range(3):
            perm[3 * j + (j + k) % 3, 3 * k + j] = 1.0
    gates = [record.astype(complex), (perm @ block_diag(*blocks)).astype(complex)]
    init = chain_initial_state(np.diag([0.4, 0.36, 0.24]).astype(complex), 3, 3, 2)
    return ChainModel(3, 3, 2, gates, init)


FLAT, STEEP, MIDDLE = (0.34, 0.335, 0.325), (0.9, 0.06, 0.04), (0.5, 0.3, 0.2)
TREE_MODELS = {
    "cnot": lambda: build_model(resolve_scenario("cnot")),
    "cnot_t3": lambda: build_model(resolve_scenario("cnot_t3")),
    "partial_swap": lambda: build_model(resolve_scenario("partial_swap")),
    "commuting": lambda: build_model(resolve_scenario("commuting")),
    "epr": lambda: build_model(resolve_scenario("epr")),
    "haar": haar_model,
    "shallow_first": lambda: mixed_depth_model([FLAT, STEEP, MIDDLE]),
    "deep_first": lambda: mixed_depth_model([STEEP, FLAT, MIDDLE]),
}
# every model at three prunings, and the two mixed-depth trees
TREES = [(name, prune) for name in list(TREE_MODELS)[:6] for prune in (None, 0.3, 0.45)]
TREES += [("shallow_first", 0.345), ("deep_first", 0.345)]


@pytest.fixture(scope="module")
def trees():
    models = {name: make() for name, make in TREE_MODELS.items()}
    return {
        (name, prune): (models[name], enumerate_tree(models[name], prune_eps=prune))
        for name, prune in TREES
    }


def test_mixed_depth_trees_have_mixed_leaf_depths(trees):
    for name, depths in (("shallow_first", [1, 2]), ("deep_first", [2, 1])):
        _, tree = trees[name, 0.345]
        assert [len(leaf.steps) for leaf in tree.leaves()] == depths


@pytest.mark.parametrize("name, prune", TREES)
class TestNodePathsMatchPrefixRescans:
    def test_step_paths_and_levels(self, trees, name, prune):
        model, tree = trees[name, prune]
        got, want = tree.step_paths(), ref_step_paths(tree)
        assert [[s[:2] + s[3:] for s in p] for p in got] == [[s[:2] + s[3:] for s in p] for p in want]
        for p, q in zip(got, want):
            assert all(np.array_equal(a[2], b[2]) for a, b in zip(p, q))
        assert [leaf.path_weight for leaf in tree.leaves()] == [
            math.prod([s[3] for s in p], start=1.0) for p in want
        ]
        for d in range(model.horizon + 3):
            assert [id(n) for n in tree.nodes_at_depth(d)] == [
                id(n) for n in ref_nodes_at_depth(tree, d)
            ]

    def test_sum_rule(self, trees, name, prune):
        model, tree = trees[name, prune]
        root = model.initial_state
        assert check_sum_rule(tree, root) == ref_check_sum_rule(tree, root)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal((model.dim, model.dim))
        assert check_sum_rule(tree, root, x) == ref_check_sum_rule(tree, root, x)

    def test_depth_measures(self, trees, name, prune):
        model, tree = trees[name, prune]
        root = model.initial_state
        depth = len(ref_step_paths(tree)[0])
        for n in range(1, depth + 1):
            got = (
                missing_information_per_event(tree, root, n),
                relative_entropy_vs_reversed(root, tree, n),
            )
            assert got == ref_depth_measures(tree, root, n)
        with pytest.raises(DepthExceeded):
            missing_information_per_event(tree, root, depth + 1)
        with pytest.raises(DepthExceeded):
            relative_entropy_vs_reversed(root, tree, depth + 1)


class TestMonteCarloConsistency:
    def test_chi_square_against_tree(self):
        model = cnot_model()
        tree = enumerate_tree(model)
        paths = tree.step_paths()
        expected = {
            tuple(s[1] for s in p): float(np.prod([s[3] for s in p])) for p in paths
        }
        n = 3000
        counts = {k: 0 for k in expected}
        for seed in range(n):
            h = sample_history(model, seed=seed)
            key = tuple(s.chosen_label for s in h.steps)
            counts[key] += 1
        obs = np.array([counts[k] for k in expected])
        exp = np.array([expected[k] * n for k in expected])
        _, p_value = stats.chisquare(obs, exp)
        assert p_value > 0.001


class TestEprDemo:
    def test_sigma_z_filter(self):
        rep = epr_demo(0.0, seed=2, samples=5000)
        assert max(abs(v) for v in rep.unitary_marginals) < 1e-10
        assert not rep.strict_actual  # exact singlet: degenerate branches merge
        np.testing.assert_allclose(rep.filter_weights, [0.5, 0.5], atol=1e-10)
        assert rep.incoherence_residual < 1e-10
        np.testing.assert_allclose(rep.conditional_spin, [-1.0, 1.0], atol=1e-10)
        assert abs(rep.empirical_correlation + 1.0) < 0.03

    def test_rotated_filter(self):
        theta = 0.4
        rep = epr_demo(theta, seed=3, samples=2000)
        np.testing.assert_allclose(rep.filter_weights, [0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(
            rep.conditional_spin, [-np.cos(theta), np.cos(theta)], atol=1e-10
        )

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.1])
    def test_draws_match_the_scalar_loop(self, theta, monkeypatch):
        # the per-sample loop that drew the branch, then the click, as two
        # scalar uniforms of one stream
        def scalar_loop(weights, branch_click, seed, samples):
            rng = np.random.default_rng(seed)
            counts = [0, 0]
            f_vals, m_vals = np.empty(samples), np.empty(samples)
            for i in range(samples):
                b = 0 if rng.random() < weights[0] else 1
                counts[b] += 1
                f_vals[i] = 1.0 - 2.0 * b
                m_vals[i] = 1.0 - 2.0 * (rng.random() < branch_click[b])
            if samples and counts[0] and counts[1]:
                return tuple(counts), float(np.corrcoef(f_vals, m_vals)[0, 1])
            return tuple(counts), math.nan

        calls = []
        draws = hist._filter_draws
        monkeypatch.setattr(hist, "_filter_draws", lambda *a: calls.append(a) or draws(*a))
        for seed in range(4):
            rep = epr_demo(theta, seed=seed, samples=1500)
            counts, corr = scalar_loop(*calls[-1])
            assert rep.branch_counts == counts
            assert repr(rep.empirical_correlation) == repr(corr)
        # lopsided and one-sided weights, and no samples at all
        for args in (((0.9, 0.1), (0.25, 0.75), 7, 400), ((0.0, 1.0), (0.5, 0.5), 1, 50),
                     ((0.5, 0.5), (1.0, 0.0), 2, 0)):
            counts, corr = hist._filter_draws(*args)
            want = scalar_loop(*args)
            assert counts == want[0] and repr(corr) == repr(want[1])

    def test_decoupled_filter_no_branching(self):
        # with no interaction the particle sectors stay coherent: the family
        # fails the incoherent-superposition identity and nothing branches
        from ethsim.chain import gate_cnot, singlet_pair_density
        from ethsim.histories import _qubit_axis_projections
        from ethsim.linalg import kron_all
        from ethsim.states import EventFamily, incoherence_residual

        s, p, horizon = 4, 2, 2
        g_id = build_gate("identity", s, p)
        g2 = gate_cnot(s, p, control_states=[1, 3])
        init = chain_initial_state(singlet_pair_density(), s, p, horizon)
        model = ChainModel(s, p, horizon, [g_id, g2], init)
        det = model.detect_event_reduced(model.initial_state, 1)
        assert not det.actual
        plus, minus = _qubit_axis_projections(0.0)
        c1 = model.propagator(1, 0)
        projs = []
        from ethsim.linalg import embed_site_operator

        for pr in (plus, minus):
            emb = embed_site_operator(kron_all([pr, np.eye(2)]), 0, [4, 2, 2])
            projs.append(c1.conj().T @ emb @ c1)
        family = EventFamily(tuple(projs), ("t1:e0", "t1:e1"), 1)
        res = incoherence_residual(
            model.initial_state, model.algebra_at(1), family
        )
        assert res > 0.1  # far from an incoherent superposition
