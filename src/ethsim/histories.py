"""The stochastic branching process of states.

A history samples one branch per actual event with Born probabilities; a tree
enumerates all of them.  Sibling branches carry different (generally
non-commuting) future event families, which is what separates this process
from a classical branching process: each node's event is computed from that
node's own collapsed state.  Every walker of the process (``sample_histories``,
``enumerate_tree`` and ``indirect.run_protocol``) expands a node through the
one step ``_expand``: detect the node's event, then collapse a child onto
the branch the walker takes.  The walkers differ only in which branches they
take.

The path measure assigns to an ordered event sequence the weight

    mu(xi_1..xi_n | X) = omega(pi_1 ... pi_n  X X*  pi_n ... pi_1),

which reproduces tree path weights for X = 1 and satisfies a marginalization
sum rule (Kolmogorov consistency) because every projection lies in the
centralizer of the state it acts on.  Reversing the operator order gives a
second measure; the relative entropy between the two is non-negative and
vanishes when all event projections commute across times, so it serves as an
irreversibility diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    ChainModel,
    chain_initial_state,
    gate_cnot,
    gate_controlled_projection_flip,
    singlet_pair_density,
)
from .errors import DepthExceeded, OutOfRange, TreeTooLarge
from .linalg import MEASURE_FLOOR, NEGATIVE_WEIGHT_TOL, SIGMA_X, SIGMA_Z, WEIGHT_EPS, WEIGHT_SUM_TOL
from .linalg import embed_site_operator, kron_all
from .states import (
    EventDetection,
    EventFamily,
    State,
    collapse,
    detect_event,
    incoherence_residual,
    inverse_cdf,
    positive_weights,
)
from .trace import fingerprint


def _detect(model: ChainModel, state: State, t: int, weight_eps: float, engine: str) -> EventDetection:
    if engine == "reduced":
        return model.detect_event_reduced(state, t, weight_eps)
    if engine == "generic":
        return detect_event(state, model.algebra_at(t), t, weight_eps)
    raise ValueError(f"unknown detection engine '{engine}'")


def _born_cdf(weights, weight_eps: float):
    """A node's Born weights, normalised over those above ``weight_eps``
    (the rest zeroed), and the last index kept.

    For the n runs that stand on the node, with their uniforms in ``u``,
    ``inverse_cdf(np.broadcast_to(born, (n, born.size)), u, last)`` is then
    every run's branch in one call: each broadcast row has the running sums
    of the lone row, so run i takes the branch ``inverse_cdf(born, u[i],
    last)`` would give it.  Zero-weight branches are never chosen.
    """
    masked, total, last = positive_weights(weights, weight_eps)
    return masked / total, last


@dataclass(frozen=True)
class _Node:
    """A state expanded at step t: its event detection and each branch's
    (label, weight).  Without an actual event, ``event`` is None, ``weights``
    () and ``entropy`` 0, and the one branch (None, 1.0) keeps the state."""

    state: State
    detection: EventDetection
    event: object | None
    weights: tuple[float, ...]
    entropy: float  # the event's missing information
    branches: tuple[tuple[str | None, float], ...]
    weight_eps: float

    def child(self, k: int) -> State:
        """The state on branch k, collapsed on demand."""
        if self.event is None:
            return self.state
        return collapse(self.state, self.event.projections[k], self.weight_eps)


def _expand(model: ChainModel, state: State, t: int, weight_eps: float, engine: str) -> _Node:
    """Detect the event of ``state`` at step ``t``: the node step of every walker."""
    det = _detect(model, state, t, weight_eps, engine)
    if not det.actual:
        return _Node(state, det, None, (), 0.0, ((None, 1.0),), weight_eps)
    branches = tuple(zip(det.event.labels, det.weights))
    return _Node(
        state, det, det.event, det.weights, missing_information(det.weights), branches, weight_eps
    )


# ---------------------------------------------------------------------------
# single histories


@dataclass(frozen=True)
class HistoryStep:
    t: int
    event: object | None  # EventFamily when an actual event happened
    weights: tuple[float, ...]
    chosen_label: str | None
    weight: float
    entropy: float
    post_state_fingerprint: str


@dataclass(frozen=True)
class History:
    steps: tuple[HistoryStep, ...]
    final_state: State
    seed: int


def missing_information(weights) -> float:
    """Shannon entropy -sum w ln w of an event's Born weights, 0 ln 0 = 0."""
    total = 0.0
    s = 0.0
    for w in weights:
        if w < -NEGATIVE_WEIGHT_TOL:
            raise ValueError(f"negative weight {w}")
        s += w
        if w > 0.0:
            total -= w * math.log(w)
    if s > 1.0 + WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {s} > 1")
    return total


def sample_history(
    model: ChainModel,
    horizon: int | None = None,
    seed: int = 0,
    weight_eps: float = WEIGHT_EPS,
    engine: str = "reduced",
) -> History:
    """One Born-rule sample of the branching process up to ``horizon``.

    Steps without an actual event leave the state untouched; the state only
    changes through collapse.
    """
    return sample_histories(model, [seed], horizon, weight_eps, engine)[0]


def sample_histories(
    model: ChainModel,
    seeds,
    horizon: int | None = None,
    weight_eps: float = WEIGHT_EPS,
    engine: str = "reduced",
) -> list[History]:
    """One history per seed, each equal to ``sample_history`` with that seed.

    A history's state after step t depends only on the branches chosen so
    far, so the runs are advanced breadth-first, one depth at a time, grouped
    by the tree node they stand on.  Each distinct node is expanded once, and
    each distinct branch of it collapsed and fingerprinted once into a step
    that every run taking that branch shares.  Each run draws its uniforms
    from its own ``default_rng(seed)``, one per actual event, on the
    normalised Born weights, as a lone run does; the branches of all the
    runs on one node are then chosen by one ``inverse_cdf`` call.  Only the
    states of the current depth are held.
    """
    horizon = model.horizon if horizon is None else horizon
    if horizon > model.horizon:
        raise OutOfRange("horizon exceeds the model horizon")
    seeds = list(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    steps = [[] for _ in seeds]
    # the nodes of the current depth: (state, indices of the runs on it)
    level = [(model.initial_state, range(len(seeds)))] if seeds else []
    for t in range(1, horizon + 1):
        below = []
        for state, runs in level:
            node = _expand(model, state, t, weight_eps, engine)
            if node.event is None:
                taken = {0: runs}
            else:
                # each run's uniform from its own stream, in run order, then
                # every run's branch from one draw on the broadcast Born row
                u = np.array([rngs[r].random() for r in runs])
                born, last = _born_cdf(node.weights, weight_eps)
                chosen = inverse_cdf(np.broadcast_to(born, (len(runs), born.size)), u, last)
                taken: dict[int, list[int]] = {}
                for r, k in zip(runs, chosen.tolist()):
                    taken.setdefault(k, []).append(r)
            for k, rs in taken.items():
                child = node.child(k)
                label, weight = node.branches[k]
                step = HistoryStep(
                    t=t,
                    event=node.event,
                    weights=node.weights,
                    chosen_label=label,
                    weight=weight,
                    entropy=node.entropy,
                    post_state_fingerprint=fingerprint(child.density),
                )
                for r in rs:
                    steps[r].append(step)
                below.append((child, rs))
        level = below
    final = [None] * len(seeds)
    for state, runs in level:
        for r in runs:
            final[r] = state
    return [History(tuple(s), f, seed) for s, f, seed in zip(steps, final, seeds)]


# ---------------------------------------------------------------------------
# exhaustive trees


@dataclass
class TreeNode:
    """One node of a ``HistoryTree``.  ``steps`` is its path from the root,
    one (t, label, projection, conditional_weight) per step; a step without
    an actual event is (t, None, identity, 1.0), the trivial partition, which
    leaves every measure value unchanged.  Nodes below a node share its step
    objects, and ``path_weight`` is the product of the steps' weights."""

    t: int
    state: State
    path_weight: float
    steps: tuple = ()
    event: object | None = None
    weights: tuple[float, ...] = ()
    entropy: float = 0.0
    children: dict = field(default_factory=dict)


@dataclass
class HistoryTree:
    root: TreeNode
    levels: list  # the nodes of each depth 0..horizon, in depth-first order
    horizon: int
    prune_eps: float
    pruned_mass: float
    node_count: int

    def nodes_at_depth(self, depth: int):
        return self.levels[depth] if depth < len(self.levels) else []

    def depth_weights(self):
        """Total unpruned path weight at every depth (1.0 minus pruned mass)."""
        return [sum(n.path_weight for n in level) for level in self.levels]

    def leaves(self):
        """The nodes without children, depth first in the children's order."""
        leaves, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children.values()))
            else:
                leaves.append(node)
        return leaves

    def step_paths(self):
        """Every root-to-leaf path, one (t, label, projection,
        conditional_weight) entry per step (see ``TreeNode``)."""
        return [list(leaf.steps) for leaf in self.leaves()]


def enumerate_tree(
    model: ChainModel,
    horizon: int | None = None,
    prune_eps: float | None = None,
    weight_eps: float = WEIGHT_EPS,
    engine: str = "reduced",
    max_nodes: int = 100_000,
) -> HistoryTree:
    """Every branch with weight above ``prune_eps``, expanded one depth at a
    time.

    Each node's event family is recomputed from that node's collapsed state;
    pruned probability mass is tracked, never silently dropped.  A step
    without an actual event has one child, which is never pruned.
    """
    horizon = model.horizon if horizon is None else horizon
    if horizon > model.horizon:
        raise OutOfRange("horizon exceeds the model horizon")
    if prune_eps is None:
        prune_eps = weight_eps
    root = TreeNode(t=0, state=model.initial_state, path_weight=1.0)
    eye = np.eye(root.state.dim, dtype=np.complex128)
    count = 1
    pruned = 0.0
    levels = [[root]]
    for t in range(1, horizon + 1):
        below = []
        for parent in levels[-1]:
            node = _expand(model, parent.state, t, weight_eps, engine)
            parent.event, parent.weights, parent.entropy = node.event, node.weights, node.entropy
            for k, (label, w) in enumerate(node.branches):
                if node.event is not None and w <= prune_eps:
                    pruned += parent.path_weight * max(w, 0.0)
                    continue
                proj = eye if node.event is None else node.event.projections[k]
                child = TreeNode(
                    t=t,
                    state=node.child(k),
                    path_weight=parent.path_weight * w,
                    steps=parent.steps + ((t, label, proj, w),),
                )
                parent.children[label] = child
                below.append(child)
                count += 1
                if count > max_nodes:
                    raise TreeTooLarge(f"tree exceeded {max_nodes} nodes")
        levels.append(below)
    return HistoryTree(root, levels, horizon, prune_eps, pruned, count)


# ---------------------------------------------------------------------------
# the path measure and its diagnostics


def history_measure(root: State, projections, x: np.ndarray | None = None) -> float:
    """mu(xi_1..xi_n | X) = omega(pi_1...pi_n XX* pi_n...pi_1), ordered as given."""
    d = root.dim
    m = np.eye(d, dtype=np.complex128)
    for p in projections:
        if p.shape != (d, d):
            raise ValueError("projection dimension mismatch")
        m = m @ p
    if x is None:
        cond = np.eye(d, dtype=np.complex128)
    else:
        cond = np.asarray(x, dtype=np.complex128) @ np.asarray(x, dtype=np.complex128).conj().T
    val = np.trace(root.density @ m @ cond @ m.conj().T)
    return float(val.real)


def reversed_measure(root: State, projections) -> float:
    """Same sequence with the events applied in reversed order."""
    d = root.dim
    m = np.eye(d, dtype=np.complex128)
    for p in projections:
        m = m @ p
    val = np.trace(root.density @ m.conj().T @ m)
    return float(val.real)


def _path_depth(tree: HistoryTree) -> int:
    """The number of steps on the tree's first root-to-leaf path."""
    node = tree.root
    while node.children:
        node = next(iter(node.children.values()))
    return len(node.steps)


def _depth_nodes(tree: HistoryTree, n: int):
    """The depth-n nodes: one per label sequence the depth-n measures sum over."""
    depth = _path_depth(tree)
    if n > depth:
        raise DepthExceeded(f"tree has depth {depth}, requested {n}")
    return tree.levels[n]


def check_sum_rule(tree: HistoryTree, root: State, x: np.ndarray | None = None) -> float:
    """Largest violation of the marginalization identity over the tree.

    For every path and every 1 <= k <= m <= n, summing the measure over the
    middle labels xi_{k+1}..xi_m (with the fixed tail folded into the
    conditioning operator) must reproduce the length-k marginal.  Labels
    outside a node's own event space carry zero projections and drop out by
    construction of the enumeration.  A depth-m node extends a path's first
    k labels exactly when it holds that path's k-th step object.
    """
    n = _path_depth(tree)
    worst = 0.0
    for node in tree.levels[n]:
        projs = [step[2] for step in node.steps]
        for m in range(1, n + 1):
            tail = np.eye(root.dim, dtype=np.complex128)
            for p in projs[m:]:
                tail = tail @ p
            x_cond = tail if x is None else tail @ np.asarray(x, dtype=np.complex128)
            for k in range(1, m + 1):
                rhs = history_measure(root, projs[:k], x_cond)
                lhs = 0.0
                for mid in tree.levels[m]:
                    if mid.steps[k - 1] is node.steps[k - 1]:
                        lhs += history_measure(root, [s[2] for s in mid.steps], x_cond)
                worst = max(worst, abs(lhs - rhs))
    return worst


def missing_information_per_event(tree: HistoryTree, root: State, n: int) -> float:
    """sigma_n = -(1/n) sum over depth-n label sequences of mu ln mu."""
    if n <= 0:
        return 0.0
    total = 0.0
    for node in _depth_nodes(tree, n):
        mu = history_measure(root, [s[2] for s in node.steps])
        if mu > 0.0:
            total -= mu * math.log(mu)
    return total / n


def relative_entropy_vs_reversed(root: State, tree: HistoryTree, n: int) -> float:
    """S_n(mu || mu_reversed) over depth-n label sequences; +inf if the
    reversed measure vanishes on the support of mu."""
    if n <= 0:
        return 0.0
    total = 0.0
    for node in _depth_nodes(tree, n):
        projs = [s[2] for s in node.steps]
        mu = history_measure(root, projs)
        if mu <= MEASURE_FLOOR:
            continue
        opp = reversed_measure(root, projs)
        if opp <= MEASURE_FLOOR:
            return math.inf
        total += mu * (math.log(mu) - math.log(opp))
    return total


# ---------------------------------------------------------------------------
# the two-particle filter demonstration


@dataclass(frozen=True)
class EprReport:
    """Unitary-only versus branch-conditional description of the spin pair."""

    theta_filter: float
    unitary_marginals: tuple[float, ...]
    strict_actual: bool
    strict_weights: tuple[float, ...]
    filter_weights: tuple[float, ...]
    incoherence_residual: float
    conditional_spin: tuple[float, ...]
    samples: int
    empirical_correlation: float
    branch_counts: tuple[int, ...]


def _qubit_axis_projections(theta: float):
    n = np.sin(theta) * SIGMA_X + np.cos(theta) * SIGMA_Z
    plus = (np.eye(2) + n) / 2.0
    minus = (np.eye(2) - n) / 2.0
    return plus, minus


def _filter_draws(weights, branch_click, seed: int, samples: int):
    """The filter branch counts and the filter/click correlation of
    ``samples`` draws from ``default_rng(seed)``.

    Per sample, one uniform picks the filter branch on the Born row and the
    next decides the click in that branch: two scalar draws in turn.
    """
    u = np.random.default_rng(seed).random((samples, 2))
    b = inverse_cdf(np.broadcast_to(np.array(weights), (samples, 2)), u[:, 0], 1)
    counts = tuple(np.bincount(b, minlength=2).tolist())
    if not (counts[0] and counts[1]):
        return counts, math.nan
    clicks = u[:, 1] < np.array(branch_click)[b]
    return counts, float(np.corrcoef(1.0 - 2.0 * b, 1.0 - 2.0 * clicks)[0, 1])


def epr_demo(theta_filter: float = 0.0, seed: int = 0, samples: int = 10_000) -> EprReport:
    """Spin-singlet pair with a filter probe on one particle.

    The Heisenberg-picture expectation of the other particle's spin-z stays
    exactly zero for all times, yet conditioning on the filter branch gives
    spin values of +-1 that are perfectly anticorrelated with the filter
    outcome.  Both descriptions are reported side by side.

    The exact singlet makes the two filter branches carry weight 1/2 each, a
    degenerate spectrum, so the strict center-of-centralizer criterion merges
    them into one sector and reports no actual event.  The filter-sector
    family still satisfies the incoherent-superposition identity on the
    future algebra (residual reported, numerically zero), and branching is
    sampled from that family.
    """
    s, p, big_t = 4, 2, 2
    plus, minus = _qubit_axis_projections(theta_filter)
    ctrl = kron_all([plus, np.eye(2)])  # filter reads the first particle
    gate1 = gate_controlled_projection_flip(s, p, ctrl)
    gate2 = gate_cnot(s, p, control_states=[1, 3])  # probe 2 records P's z-bit
    init = chain_initial_state(singlet_pair_density(), s, p, big_t)
    model = ChainModel(s, p, big_t, [gate1, gate2], init)

    site_dims = [s, p, p]
    sz_p = embed_site_operator(kron_all([np.eye(2), SIGMA_Z]), 0, site_dims)
    marginals = []
    for t in range(big_t + 1):
        u = model.propagator(t, 0)
        heis = u.conj().T @ sz_p @ u
        marginals.append(float(np.trace(init.density @ heis).real))

    strict = model.detect_event_reduced(init, 1)

    c1 = model.propagator(1, 0)
    branch_projs = []
    for pr in (plus, minus):
        emb = embed_site_operator(kron_all([pr, np.eye(2)]), 0, site_dims)
        branch_projs.append(c1.conj().T @ emb @ c1)
    family = EventFamily(tuple(branch_projs), ("t1:e0", "t1:e1"), time_index=1)
    residual = incoherence_residual(init, model.algebra_at(1), family)
    weights = tuple(float(init.expect(pi).real) for pi in family.projections)

    cond_spin = []
    branch_states = []
    for pi in family.projections:
        st = collapse(init, pi)
        branch_states.append(st)
        cond_spin.append(float(st.expect(sz_p).real))

    # Probability that the second probe clicks (records P's z-bit 1) inside
    # each filter branch; for the z-aligned filter it is exactly 0 or 1.
    c2 = model.propagator(2, 0)
    pointer1 = c2.conj().T @ embed_site_operator(
        np.diag([0.0, 1.0]).astype(np.complex128), 2, site_dims
    ) @ c2
    branch_click = [float(st.expect(pointer1).real) for st in branch_states]

    counts, corr = _filter_draws(weights, branch_click, seed, samples)
    return EprReport(
        theta_filter=theta_filter,
        unitary_marginals=tuple(marginals),
        strict_actual=strict.actual,
        strict_weights=strict.weights,
        filter_weights=weights,
        incoherence_residual=residual,
        conditional_spin=tuple(cond_spin),
        samples=samples,
        empirical_correlation=corr,
        branch_counts=counts,
    )
