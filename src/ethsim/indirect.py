"""Indirect measurement: protocols, non-demolition statistics, quantum jumps.

A conserved system quantity A (commuting with the interaction) is measured
indirectly by letting fresh probes interact one per step and reading each
probe's pointer after its interaction.  Restricted to the shrinking future
algebras, each step branches the system over the clustered spectral sectors
of its unconditional post-step state; the collapsed branch fixes the probe's
conditional pointer distribution, which is what the detector samples.

Because A commutes with every step, the sector never changes after the first
collapse ("purification"), the pointer frequencies converge to the
sector-conditional distributions p(.|alpha), and the sector itself is Born
distributed with respect to the initial state.  A slow drift that fails to
commute with A turns the sector into a Markov jump process.

Long protocols never materialize the full chain: one fresh probe at a time is
mathematically identical to the chain construction as long as probes start
pure, and it has no horizon cap.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyProtocol,
    NoEventError,
    OutOfRange,
    SeparationFailure,
    ValidationError,
)
from .chain import ChainModel, embed_system_probe, ground_density
from .linalg import (
    CERTAIN_TOL,
    DEFAULT_TOL,
    SEPARATION_TOL,
    TIE_TOL,
    WEIGHT_EPS,
    _norm_within,
    clustered_eigh,
    dagger,
    freeze,
    hermitian_eig,
    partial_trace,
)
from .recording import PhysicalQuantity
from .states import State, inverse_cdf, positive_weights


@dataclass(frozen=True)
class MeasurementProtocol:
    """Sequence of recorded pointer values (spectrum indices) and their times."""

    values: tuple[int, ...]
    times: tuple[int, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.values)


def frequencies(protocol: MeasurementProtocol, k: int) -> list[Fraction]:
    """f_eta = (1/n) sum_j [eta_j == eta] for eta = 0..k, as exact rationals."""
    n = len(protocol.values)
    if n == 0:
        raise EmptyProtocol("protocol has no recorded values")
    counts = [0] * (k + 1)
    for v in protocol.values:
        if not 0 <= v <= k:
            raise ValueError(f"value {v} outside spectrum 0..{k}")
        counts[v] += 1
    return [Fraction(c, n) for c in counts]


@dataclass(frozen=True)
class NdmScenario:
    """Repeated indirect measurement of a conserved system quantity."""

    system_dim: int
    probe_dim: int
    gate: np.ndarray  # unitary on system x probe
    conserved: np.ndarray  # Hermitian A on the system, [gate, A x 1] = 0
    quantity: PhysicalQuantity  # pointer family on the system x probe factor
    initial_system: State
    runs: int = 100
    steps: int = 25
    probe_density: np.ndarray | None = None
    weight_eps: float = WEIGHT_EPS

    def __post_init__(self):
        if self.runs < 1:
            raise ValidationError(f"runs must be >= 1, got {self.runs}")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        s, p = self.system_dim, self.probe_dim
        gate = np.asarray(self.gate, dtype=np.complex128)
        if gate.shape != (s * p, s * p):
            raise DimensionMismatch("gate must act on system x probe")
        if not _norm_within(gate @ dagger(gate) - np.eye(s * p), DEFAULT_TOL):
            raise ValidationError("gate is not unitary")
        a = np.asarray(self.conserved, dtype=np.complex128)
        if a.shape != (s, s):
            raise DimensionMismatch("conserved quantity must act on the system")
        if not _norm_within(a - dagger(a), DEFAULT_TOL):
            raise ValidationError("conserved quantity must be Hermitian")
        a_p = np.kron(a, np.eye(p))
        if not _norm_within(gate @ a_p - a_p @ gate, DEFAULT_TOL):
            raise ValidationError("gate does not conserve the quantity")
        if self.initial_system.dim != s:
            raise DimensionMismatch("initial system state dimension mismatch")
        if self.quantity.projections[0].shape != (s * p, s * p):
            raise DimensionMismatch("quantity must live on the system x probe factor")
        object.__setattr__(self, "gate", freeze(gate))
        object.__setattr__(self, "conserved", freeze(a))
        probe = self.probe_density
        if probe is None:
            probe = ground_density(p)
        object.__setattr__(self, "probe_density", freeze(np.asarray(probe, complex)))

    @property
    def sector_projections(self) -> tuple[np.ndarray, ...]:
        return hermitian_eig(self.conserved).projections

    def exact_pointer_distributions(self) -> np.ndarray:
        """p(eta | alpha): exact per-sector pointer distributions.

        Computed by sector conditioning: with the system pinned in sector
        alpha (maximally mixed within it), one interaction fixes the pointer
        statistics, and conservation makes them stationary.
        """
        sectors = self.sector_projections
        k = self.quantity.size
        out = np.zeros((len(sectors), k))
        for a_idx, p_a in enumerate(sectors):
            rho = p_a / np.trace(p_a).real
            sigma = self.gate @ np.kron(rho, self.probe_density) @ dagger(self.gate)
            for e_idx, q in enumerate(self.quantity.projections):
                out[a_idx, e_idx] = float(np.trace(sigma @ q).real)
        return out

    def check_separation(self) -> np.ndarray:
        p = self.exact_pointer_distributions()
        n = p.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if np.abs(p[i] - p[j]).sum() < SEPARATION_TOL:
                    raise SeparationFailure(
                        f"sectors {i} and {j} share one pointer distribution"
                    )
        return p


# A state graph holds at most this many nodes per run; one that would grow
# past it starts again from the runs' current states.
NODES_PER_RUN = 4


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of each matrix in the stack ``a`` (R, m, m) with ``b`` (n, n)."""
    r, m, n = a.shape[0], a.shape[1], b.shape[0]
    return (a[:, :, None, :, None] * b[None, None, :, None, :]).reshape(r, m * n, m * n)


@dataclass
class _Branches:
    """Branch stage of one probe step for a stack of R system states.

    The sectors are the clustered eigenspaces of the unconditional post-step
    system state, in ascending eigenvalue order; ``labels`` gives each
    eigenvector's sector, and sector slots past the last one weigh zero.
    """

    sigma: np.ndarray  # (R, sp, sp) joint state G (rho x probe) G*
    rho_post: np.ndarray  # (R, s, s) unconditional post-step system state
    vecs: np.ndarray  # (R, s, s) eigenvectors of rho_post
    labels: np.ndarray  # (R, s) sector of each eigenvector
    positive: np.ndarray  # (R, s) weight above weight_eps
    weights: np.ndarray  # (R, s) sector weights, zero where not positive
    total: np.ndarray  # (R,) sum of the weights
    last: np.ndarray  # (R,) last positive sector, where a draw past the total lands
    fixed: np.ndarray  # (R,) first positive sector, taken when the row does not branch
    branched: np.ndarray  # (R,) two or more positive sectors: a Born draw
    trivial: np.ndarray  # (R,) one sector, the whole space: no event, no click

    @property
    def draws(self) -> np.ndarray:
        """Uniforms each run consumes: one per branch draw, one per pointer draw."""
        return self.branched.astype(np.intp) + ~self.trivial

    def take(self, rows: np.ndarray) -> _Branches:
        """The rows ``rows`` of every field."""
        return _Branches(*(getattr(self, f.name)[rows] for f in fields(self)))

    def extend(self, more: _Branches) -> _Branches:
        """These rows followed by those of ``more``."""
        return _Branches(
            *(np.concatenate([getattr(self, f.name), getattr(more, f.name)]) for f in fields(self))
        )


def _branch_stage(rho: np.ndarray, scn: NdmScenario) -> _Branches:
    s, p = scn.system_dim, scn.probe_dim
    sigma = scn.gate @ _kron_stack(rho, scn.probe_density) @ dagger(scn.gate)
    rho_post = partial_trace(sigma, [s, p], keep=[0])
    vals, vecs, labels = clustered_eigh(rho_post)
    # (R, sector, eigenvector).  Adding the other sectors' zeros is exact, so
    # each weight sums its sector's eigenvalues in ascending order, as
    # np.sum over the sector's slice does (sequentially, below 8 terms)
    slots = np.arange(s)
    members = labels[:, None, :] == slots[:, None]
    weights = np.maximum(np.where(members, vals[:, None, :], 0.0).sum(axis=2), 0.0)
    positive = (weights > scn.weight_eps) & (slots <= labels[:, -1:])
    weights = np.where(positive, weights, 0.0)
    return _Branches(
        sigma=sigma,
        rho_post=rho_post,
        vecs=vecs,
        labels=labels,
        positive=positive,
        weights=weights,
        total=weights.sum(axis=1),
        last=s - 1 - positive[:, ::-1].argmax(axis=1),
        fixed=positive.argmax(axis=1),
        branched=positive.sum(axis=1) >= 2,
        trivial=labels[:, -1] == 0,
    )


def _sector_projection(vecs: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Projection onto each run's member eigenvectors, a contiguous column range.

    Runs sharing a range are stacked into one product with the same inner
    dimension a lone run uses, so every projection keeps its bits.
    """
    first = members.argmax(axis=1)
    size = members.sum(axis=1)
    ranges = set(zip(first.tolist(), size.tolist()))
    out = np.empty(vecs.shape, dtype=vecs.dtype)
    for a, m in ranges:
        runs = slice(None) if len(ranges) == 1 else np.flatnonzero((first == a) & (size == m))
        block = vecs[runs, :, a : a + m]
        out[runs] = block @ dagger(block)
    return out


def _collapse_onto(br: _Branches, scn: NdmScenario, sectors: np.ndarray):
    """Collapse each row onto its sector in ``sectors``.

    Returns the sectors' weights, the pointer distributions of the collapsed
    joint states and the post-step system states.  A trivial row keeps its
    unconditional post-step state, with weight one, and clicks nothing: its
    pointer distribution is all on value 0.
    """
    s, p = scn.system_dim, scn.probe_dim
    w = br.weights[np.arange(len(sectors)), sectors]
    pi = _kron_stack(_sector_projection(br.vecs, br.labels == sectors[:, None]), np.eye(p))
    sigma_branch = pi @ br.sigma @ pi / w[:, None, None]
    q = np.asarray(scn.quantity.projections)
    pointer = (sigma_branch[:, None] @ q[None]).trace(axis1=2, axis2=3).real.clip(0.0, None)
    pointer /= pointer.sum(axis=1, keepdims=True)
    new_rho = partial_trace(sigma_branch, [s, p], keep=[0])
    trivial = br.trivial
    return (
        np.where(trivial, 1.0, w),
        np.where(trivial[:, None], np.eye(pointer.shape[1])[0], pointer),
        np.where(trivial[:, None, None], br.rho_post, new_rho),
    )


def _collapse_stage(br: _Branches, scn: NdmScenario, u: np.ndarray):
    """Born-choose a sector, collapse onto it and sample the pointer.

    ``u`` holds each run's uniforms, (R, 2): column 0 feeds the branch draw,
    column 1 the pointer draw; entries a run does not draw are ignored.
    Returns the pointer values, the chosen sectors' weights and the
    post-step system states.  Part of the lone-step reference below.
    """
    born = inverse_cdf(br.weights, u[:, 0] * br.total, br.last)
    weight, pointer, new_rho = _collapse_onto(br, scn, np.where(br.branched, born, br.fixed))
    return inverse_cdf(pointer, u[:, 1], pointer.shape[1] - 1), weight, new_rho


@dataclass
class StepOutcome:
    eta: int
    branched: bool
    branch_weight: float
    new_system: np.ndarray


def _measurement_step(
    rho_s: np.ndarray,
    scn: NdmScenario,
    rng: np.random.Generator,
) -> StepOutcome:
    """One probe interaction: branch on the post-step system sectors, then
    sample the pointer from the collapsed joint state.  Draws from ``rng``
    exactly the uniforms the step uses, branch draw first.

    The lone-step reference: the tests check that every run of the driver
    ``_ndm_runs`` equals a loop of these calls.  Nothing in the package
    calls it; it stays here because ``bench/spans.py`` patches it by name.
    """
    br = _branch_stage(np.asarray(rho_s)[None], scn)
    k = int(br.draws[0])
    u = np.zeros((1, 2))
    if k:
        u[0, 2 - k :] = rng.random(k)
    eta, weight, new_rho = _collapse_stage(br, scn, u)
    return StepOutcome(
        eta=int(eta[0]),
        branched=bool(br.branched[0]),
        branch_weight=float(weight[0]),
        new_system=new_rho[0],
    )


def purification_metric(state: State, conserved: np.ndarray, system_dim: int | None = None) -> float:
    """1 - max_alpha tr(rho_S P_alpha); zero once one sector holds everything."""
    a = np.asarray(conserved, dtype=np.complex128)
    s = a.shape[0] if system_dim is None else system_dim
    rho = state.density
    if state.dim != s:
        if state.dim % s != 0:
            raise DimensionMismatch("state does not factor over the system")
        rho = partial_trace(rho, [s, state.dim // s], keep=[0])
    best = max(float(np.trace(rho @ p).real) for p in hermitian_eig(a).projections)
    return 1.0 - best


@dataclass
class NdmRun:
    protocol: MeasurementProtocol
    first_event_step: int | None
    branch_steps: tuple[int, ...]
    purification: np.ndarray  # per-step metric
    conserved_expectation: np.ndarray  # per-step tr(rho A), jumps only at branches
    classified: int


@dataclass
class NdmReport:
    scenario: NdmScenario
    p_exact: np.ndarray  # (sectors, pointer values)
    born_exact: np.ndarray  # Born weights of the sectors in the initial state
    runs: list[NdmRun]
    classified_counts: np.ndarray
    frequency_curves: list[np.ndarray]  # running frequencies for sampled runs

    @property
    def empirical_distribution(self) -> np.ndarray:
        return self.classified_counts / self.classified_counts.sum()


def classify_frequencies(freq: np.ndarray, p_exact: np.ndarray, prev: int | None = None) -> int:
    """Nearest sector by L1 distance; exact ties keep the previous value."""
    dists = np.abs(p_exact - freq[None, :]).sum(axis=1)
    best = int(np.argmin(dists))
    if prev is not None:
        tied = np.flatnonzero(np.abs(dists - dists[best]) < TIE_TOL)
        if len(tied) > 1 and prev in tied:
            return prev
    return best


# ---------------------------------------------------------------------------
# the driver: one state graph of the distinct system states


@dataclass
class _Runs:
    """What the driver records for R runs of n steps."""

    values: np.ndarray  # (R, n) pointer values
    branched: np.ndarray  # (R, n) the step made a Born draw
    purification: np.ndarray  # (R, n) metric of the post-step state
    conserved_expectation: np.ndarray  # (R, n) tr(rho A) of the post-step state
    light: np.ndarray  # (R,) some step collapsed onto a sector weighing less than one

    @property
    def events(self) -> np.ndarray:
        """(R,) the run branched or collapsed onto a light sector somewhere."""
        return self.branched.any(axis=1) | self.light


class _StateGraph:
    """The distinct system states the runs reach, as nodes of flat tables.

    Given the state, a probe step's sectors, weights and collapses are
    deterministic; only a run's uniforms are random.  So a node's branch
    stage runs once, when the node is added, and its collapse onto sector a
    once, the first time a run takes slot ``node * s + a``; every run on the
    node shares them.  Nodes are keyed by the bytes of their state.
    """

    def __init__(self, scn: NdmScenario, drift: np.ndarray | None):
        s, k = scn.system_dim, scn.quantity.size
        self.scn = scn
        self.drift = drift  # rotates a node's state before its branch stage
        self.sectors = np.asarray(scn.sector_projections)
        self.ids: dict[bytes, int] = {}
        # per node
        self.rho = np.empty((0, s, s), dtype=np.complex128)
        self.br: _Branches | None = None  # branch stage rows
        self.draws = np.empty(0, dtype=np.intp)  # uniforms a step from the node takes
        self.purification = np.empty(0)  # 1 - max_alpha tr(rho P_alpha)
        self.expectation = np.empty(0)  # tr(rho A)
        # per slot
        self.pointer = np.empty((0, k))  # pointer distribution of the collapsed joint state
        self.light = np.empty(0, dtype=bool)  # the sector weighs less than 1 - CERTAIN_TOL
        self.child = np.empty(0, dtype=np.intp)  # the post-step state's node, -1 until collapsed

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, rhos: np.ndarray) -> np.ndarray:
        """The node of each state in the stack ``rhos``, added where there is none."""
        keys = [rho.tobytes() for rho in rhos]
        new = []  # the first row of each state not seen before
        for i, key in enumerate(keys):
            if key not in self.ids:
                self.ids[key] = len(self.ids)
                new.append(i)
        if new:
            rows = rhos[new]
            d = self.drift
            br = _branch_stage(
                rows if d is None else np.stack([d @ rho @ dagger(d) for rho in rows]), self.scn
            )
            in_sector = np.trace(rows[:, None] @ self.sectors[None], axis1=2, axis2=3).real
            expectation = np.trace(rows @ self.scn.conserved, axis1=1, axis2=2).real
            n = len(rows) * self.scn.system_dim
            self.rho = np.concatenate([self.rho, rows])
            self.br = br if self.br is None else self.br.extend(br)
            self.draws = np.concatenate([self.draws, br.draws])
            self.purification = np.concatenate([self.purification, 1.0 - in_sector.max(axis=1)])
            self.expectation = np.concatenate([self.expectation, expectation])
            self.pointer = np.concatenate([self.pointer, np.zeros((n, self.pointer.shape[1]))])
            self.light = np.concatenate([self.light, np.zeros(n, dtype=bool)])
            self.child = np.concatenate([self.child, np.full(n, -1, dtype=np.intp)])
        return np.array([self.ids[key] for key in keys], dtype=np.intp)

    def collapse(self, slots: np.ndarray) -> None:
        """One stacked collapse for the slots in ``slots`` not collapsed yet."""
        s = self.scn.system_dim
        new = np.unique(slots[self.child[slots] < 0])
        weight, pointer, rho = _collapse_onto(self.br.take(new // s), self.scn, new % s)
        self.pointer[new] = pointer
        self.light[new] = weight < 1.0 - CERTAIN_TOL
        child = self.add(rho)
        self.child[new] = child

    def record(
        self, rec: _Runs, slots: np.ndarray, steps: slice, uniforms: np.ndarray, mark: np.ndarray
    ) -> None:
        """Fill the records of ``steps``, at which the runs took ``slots``.

        Run r's uniforms for these steps start at ``uniforms[mark[r]]``; a
        step's pointer draw takes the last of its uniforms.
        """
        nodes, child = slots // self.scn.system_dim, self.child[slots]
        rec.branched[:, steps] = self.br.branched[nodes]
        rec.purification[:, steps] = self.purification[child]
        rec.conserved_expectation[:, steps] = self.expectation[child]
        rec.light |= self.light[slots].any(axis=1)
        u = uniforms[mark[:, None] + self.draws[nodes].cumsum(axis=1) - 1]
        k = self.pointer.shape[1]
        values = inverse_cdf(self.pointer[slots].reshape(-1, k), u.reshape(-1), k - 1)
        rec.values[:, steps] = values.reshape(slots.shape)


def _ndm_runs(
    scn: NdmScenario,
    seeds,
    steps: int,
    drift: np.ndarray | None = None,
) -> _Runs:
    """Independent runs advanced together, one probe step at a time.

    ``drift``, a unitary on the system, rotates the state before each step.
    Each run stands on a node of one ``_StateGraph``, its current system
    state; a step gathers the runs' rows by node id and collapses the
    (node, sector) slots no run took before in one stacked call.  Run r
    draws its uniforms up front, ``default_rng(seeds[r]).random(2 * steps)``
    (a step takes at most two), and uses them in the order a lone run
    would, so every run is the one a loop of ``_measurement_step`` calls
    gives.  The records are gathered from the taken slots at the end.  A
    graph about to hold more than ``NODES_PER_RUN`` nodes per run starts
    again from the runs' current states, so a chain that never revisits a
    state holds O(runs) nodes, not O(runs * steps).
    """
    n_runs, s = len(seeds), scn.system_dim
    uniforms = np.concatenate([np.random.default_rng(seed).random(2 * steps) for seed in seeds])
    cursor = np.arange(n_runs) * (2 * steps)  # each run's next uniform
    graph = _StateGraph(scn, drift)
    at = graph.add(np.asarray(scn.initial_system.density)[None]).repeat(n_runs)
    taken = np.zeros((n_runs, steps), dtype=np.intp)  # each step's slots
    first, mark = 0, cursor.copy()  # the first step not recorded, and its cursor
    rec = _Runs(
        values=np.zeros((n_runs, steps), dtype=np.intp),
        branched=np.zeros((n_runs, steps), dtype=bool),
        purification=np.zeros((n_runs, steps)),
        conserved_expectation=np.zeros((n_runs, steps)),
        light=np.zeros(n_runs, dtype=bool),
    )
    for j in range(steps):
        br = graph.br
        chosen = br.fixed[at]
        branched = br.branched[at]
        if branched.any():
            born = inverse_cdf(br.weights[at], uniforms[cursor] * br.total[at], br.last[at])
            chosen = np.where(branched, born, chosen)
        slots = at * s + chosen
        child = graph.child[slots]
        if (child < 0).any():
            if len(graph) + n_runs > NODES_PER_RUN * n_runs:
                graph.record(rec, taken[:, first:j], slice(first, j), uniforms, mark)
                first, mark = j, cursor.copy()
                rho = graph.rho[at]
                graph = _StateGraph(scn, drift)
                at = graph.add(rho)
                slots = at * s + chosen
            graph.collapse(slots)
            child = graph.child[slots]
        cursor += graph.draws[at]
        taken[:, j] = slots
        at = child
    graph.record(rec, taken[:, first:], slice(first, steps), uniforms, mark)
    return rec


def _ndm_run_list(scn: NdmScenario, seeds, steps: int, p_exact: np.ndarray) -> list[NdmRun]:
    """One ``NdmRun`` per seed, all advanced by one driver call."""
    rec = _ndm_runs(scn, seeds, steps)
    times = tuple(range(1, steps + 1))
    runs = []
    for r, seed in enumerate(seeds):
        protocol = MeasurementProtocol(tuple(rec.values[r].tolist()), times, seed)
        freq = np.array([float(f) for f in frequencies(protocol, scn.quantity.size - 1)])
        branch_steps = tuple((np.flatnonzero(rec.branched[r]) + 1).tolist())
        runs.append(
            NdmRun(
                protocol=protocol,
                first_event_step=branch_steps[0] if branch_steps else None,
                branch_steps=branch_steps,
                purification=rec.purification[r],
                conserved_expectation=rec.conserved_expectation[r],
                classified=classify_frequencies(freq, p_exact),
            )
        )
    return runs


def run_ndm_protocol(scn: NdmScenario, seed: int, steps: int | None = None) -> NdmRun:
    """One full indirect-measurement run of ``steps`` probe interactions."""
    steps = scn.steps if steps is None else steps
    p_exact = scn.exact_pointer_distributions()
    return _ndm_run_list(scn, [seed], steps, p_exact)[0]


def ndm_experiment(
    scn: NdmScenario,
    master_seed: int = 0,
    curve_samples: int = 20,
) -> NdmReport:
    """Independent runs, classified against the exact sector distributions.

    Reports per-run convergence curves (for the first ``curve_samples`` runs),
    the empirical distribution of classified sectors, the exact Born weights
    of the sectors for comparison, and per-run purification trajectories.
    All runs advance as one batch; run r is ``run_ndm_protocol`` with the
    r-th seed spawned from ``master_seed``.
    """
    p_exact = scn.check_separation()
    sectors = scn.sector_projections
    born = np.array(
        [float(np.trace(scn.initial_system.density @ p).real) for p in sectors]
    )
    seeds = np.random.SeedSequence(master_seed).generate_state(scn.runs)
    runs = _ndm_run_list(scn, [int(seed) for seed in seeds], scn.steps, p_exact)
    counts = np.zeros(len(sectors), dtype=np.int64)
    curves = []
    for r, run in enumerate(runs):
        counts[run.classified] += 1
        if r < curve_samples:
            vals = np.array(run.protocol.values)
            k = scn.quantity.size
            running = np.zeros((len(vals), k))
            for eta in range(k):
                running[:, eta] = np.cumsum(vals == eta) / np.arange(1, len(vals) + 1)
            curves.append(running)
    return NdmReport(
        scenario=scn,
        p_exact=p_exact,
        born_exact=born,
        runs=runs,
        classified_counts=counts,
        frequency_curves=curves,
    )


# ---------------------------------------------------------------------------
# chain-backed protocols (finite horizon, the full filtration machinery)


def run_protocol(
    model: ChainModel,
    quantity: PhysicalQuantity,
    n: int,
    seed: int = 0,
    weight_eps: float = WEIGHT_EPS,
) -> MeasurementProtocol:
    """Repeated projective recording along a chain model.

    Per step: detect the event on the shrinking future algebra; on a branch,
    collapse with Born probability.  The recorded value is the pointer of the
    step's probe read after its interaction, i.e. sampled from the collapsed
    state's distribution over U(j,0)* Q_eta U(j,0).  Steps with no sector
    structure record the null outcome 0.
    """
    if n > model.horizon:
        raise OutOfRange("protocol length exceeds the model horizon")
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
        # single proper positive branch: collapse is the identity on the state
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


# ---------------------------------------------------------------------------
# weak measurement / quantum jumps


@dataclass
class JumpTrajectory:
    etas: tuple[int, ...]
    window: int
    window_estimates: tuple[int, ...]
    jump_count: int
    dwell_fractions: np.ndarray
    transition_matrix: np.ndarray  # exact per-step sector transition probabilities
    seed: int


def sector_transition_matrix(scn: NdmScenario, drift: np.ndarray) -> np.ndarray:
    """Exact one-step sector transition probabilities under drift + branching.

    Entry [a, b] is the probability that a system pinned in sector a lands in
    sector b after one drift rotation and one measurement step.
    """
    sectors = scn.sector_projections
    s, p = scn.system_dim, scn.probe_dim
    n = len(sectors)
    out = np.zeros((n, n))
    for a_idx, p_a in enumerate(sectors):
        rho = p_a / np.trace(p_a).real
        rho = drift @ rho @ dagger(drift)
        sigma = scn.gate @ np.kron(rho, scn.probe_density) @ dagger(scn.gate)
        rho_post = partial_trace(sigma, [s, p], keep=[0])
        for b_idx, p_b in enumerate(sectors):
            out[a_idx, b_idx] = float(np.trace(rho_post @ p_b).real)
    return out


def weak_measurement_trajectories(
    scn: NdmScenario,
    drift_angle: float,
    n: int,
    window: int,
    seeds,
) -> list[JumpTrajectory]:
    """Slow coherent drift interleaved with repeated probe measurements.

    The drift rotates the system by ``drift_angle`` per step in a plane that
    fails to commute with the conserved quantity; the repeated measurements
    pin the state to a sector, producing a piecewise-constant trajectory with
    occasional jumps.  The per-window estimate is the classification of the
    window's pointer frequencies, ties keeping the previous value.  One
    trajectory per seed; all of them advance as one batch, and each is the
    one ``weak_measurement_trajectory`` gives for its seed.
    """
    if drift_angle > 0.2:
        raise ValidationError("drift_angle must satisfy <= 0.2 (weak drift)")
    if window < 10:
        raise ValidationError("window must be at least 10")
    if n < window:
        raise ValidationError(f"steps must be >= the window ({window}), got {n}")
    if scn.system_dim != 2:
        raise ValidationError("the built-in drift requires a two-level system")
    p_exact = scn.check_separation()
    c, s_ = np.cos(drift_angle), np.sin(drift_angle)
    drift = np.array([[c, -s_], [s_, c]], dtype=np.complex128)
    rec = _ndm_runs(scn, seeds, n, drift)
    if drift_angle > 0.0 and not rec.events.all():
        raise NoEventError("no events occurred along the trajectory")
    transition = sector_transition_matrix(scn, drift)
    transition.flags.writeable = False  # one matrix, shared by the batch
    k = scn.quantity.size
    n_sec = p_exact.shape[0]
    out = []
    for seed, values in zip(seeds, rec.values):
        etas = values.tolist()
        estimates = []
        prev = None
        for w0 in range(0, n - window + 1, window):
            chunk = etas[w0 : w0 + window]
            freq = np.array([chunk.count(e) / window for e in range(k)])
            est = classify_frequencies(freq, p_exact, prev)
            estimates.append(est)
            prev = est
        jumps = sum(1 for a, b in zip(estimates, estimates[1:]) if a != b)
        dwell = np.array([estimates.count(a) / len(estimates) for a in range(n_sec)])
        out.append(
            JumpTrajectory(
                etas=tuple(etas),
                window=window,
                window_estimates=tuple(estimates),
                jump_count=jumps,
                dwell_fractions=dwell,
                transition_matrix=transition,
                seed=seed,
            )
        )
    return out


def weak_measurement_trajectory(
    scn: NdmScenario,
    drift_angle: float,
    n: int,
    window: int,
    seed: int = 0,
) -> JumpTrajectory:
    """One weak-measurement trajectory: ``weak_measurement_trajectories``
    with the single seed ``seed``."""
    return weak_measurement_trajectories(scn, drift_angle, n, window, [seed])[0]
