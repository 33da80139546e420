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

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyProtocol,
    NoEventError,
    OutOfRange,
    SeparationFailure,
    ValidationError,
    ZeroProbability,
)
from .chain import ChainModel, ground_density
from .histories import _expand
from .linalg import (
    CERTAIN_TOL,
    DEFAULT_TOL,
    SEPARATION_TOL,
    TIE_TOL,
    WEIGHT_EPS,
    _norm_within,
    cluster_slices,
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
    """Repeated indirect measurement of a conserved system quantity.

    Every probe starts in its ground level, as the chain's probes do; that
    pure start is what makes one fresh probe per step the chain itself.
    """

    system_dim: int
    probe_dim: int
    gate: np.ndarray  # unitary on system x probe
    conserved: np.ndarray  # Hermitian A on the system, [gate, A x 1] = 0
    quantity: PhysicalQuantity  # pointer family on the system x probe factor
    initial_system: State
    runs: int = 100
    steps: int = 25
    weight_eps: float = WEIGHT_EPS
    probe_density: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "probe_density", freeze(ground_density(p)))

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
            sigma = _joint(p_a / np.trace(p_a).real, self)
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

# ``_StateGraph.record`` gathers the records of this many runs at a time.
RECORD_BLOCK = 16


def _joint(rho: np.ndarray, scn: NdmScenario) -> np.ndarray:
    """G (rho x probe) G*: the joint state after the system, in ``rho``,
    interacts with a fresh probe."""
    return scn.gate @ np.kron(rho, scn.probe_density) @ dagger(scn.gate)


@dataclass
class _Branches:
    """Branch stage of one probe step from one system state.

    The sectors are the clustered eigenspaces of the unconditional post-step
    system state, in ascending eigenvalue order.
    """

    sigma: np.ndarray  # (sp, sp) joint state G (rho x probe) G*
    rho_post: np.ndarray  # (s, s) unconditional post-step system state
    blocks: list[np.ndarray]  # each sector's eigenvectors of rho_post, as columns
    weights: np.ndarray  # sector weights, zero at or below weight_eps
    total: float  # sum of the weights
    last: int  # last positive sector, where a draw past the total lands
    fixed: int  # first positive sector, taken when the step does not branch
    branched: bool  # two or more positive sectors: a Born draw
    trivial: bool  # one sector, the whole space: no event, no click

    @property
    def draws(self) -> int:
        """Uniforms the step consumes: one per branch draw, one per pointer draw."""
        return self.branched + (not self.trivial)


def _branch_stage(rho: np.ndarray, scn: NdmScenario) -> _Branches:
    s, p = scn.system_dim, scn.probe_dim
    sigma = _joint(rho, scn)
    rho_post = partial_trace(sigma, [s, p], keep=[0])
    vals, vecs, labels = clustered_eigh(rho_post)
    # each sector's weight sums its eigenvalues in ascending order
    sector_weights = np.bincount(labels, weights=vals)
    weights, total, last = positive_weights(sector_weights, scn.weight_eps)
    if last < 0:
        raise ZeroProbability(
            f"no sector weight exceeds weight_eps {scn.weight_eps}: "
            f"the largest is {sector_weights.max():.6g}"
        )
    kept = np.flatnonzero(weights)
    blocks = [vecs[:, level] for level in cluster_slices(labels)]
    return _Branches(
        sigma=sigma,
        rho_post=rho_post,
        blocks=blocks,
        weights=weights,
        total=float(total),
        last=last,
        fixed=int(kept[0]),
        branched=len(kept) >= 2,
        trivial=len(blocks) == 1,
    )


def _collapse_onto(br: _Branches, scn: NdmScenario, sector: int):
    """Collapse the step onto ``sector``.

    Returns the sector's weight, the pointer distribution of the collapsed
    joint state and the post-step system state.  A trivial step keeps its
    unconditional post-step state, with weight one, and clicks nothing: its
    pointer distribution is all on value 0.
    """
    if br.trivial:
        return 1.0, np.eye(scn.quantity.size)[0], br.rho_post
    s, p = scn.system_dim, scn.probe_dim
    w = br.weights[sector]
    block = br.blocks[sector]
    pi = np.kron(block @ dagger(block), np.eye(p))
    sigma_branch = pi @ br.sigma @ pi / w
    q = np.asarray(scn.quantity.projections)
    pointer = np.trace(sigma_branch @ q, axis1=1, axis2=2).real.clip(0.0, None)
    pointer /= pointer.sum()
    return w, pointer, partial_trace(sigma_branch, [s, p], keep=[0])


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
    br = _branch_stage(np.asarray(rho_s), scn)
    sector = br.fixed
    if br.branched:
        sector = int(inverse_cdf(br.weights, rng.random() * br.total, br.last))
    weight, pointer, new_rho = _collapse_onto(br, scn, sector)
    eta = 0 if br.trivial else int(inverse_cdf(pointer, rng.random(), len(pointer) - 1))
    return StepOutcome(
        eta=eta,
        branched=br.branched,
        branch_weight=float(weight),
        new_system=new_rho,
    )


def purification_metric(state: State, conserved: np.ndarray) -> float:
    """1 - max_alpha tr(rho_S P_alpha); zero once one sector holds everything.

    A state on more than the system is first reduced to the system factor,
    whose dimension is that of ``conserved``.
    """
    a = np.asarray(conserved, dtype=np.complex128)
    s = a.shape[0]
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


def _window_estimates(freqs: np.ndarray, p_exact: np.ndarray) -> list[list[int]]:
    """``classify_frequencies`` of each run's consecutive windows, (R, W, k).

    A window's previous value is the estimate of the window before it.  The
    distances of all windows are one array operation; only a window where
    two sectors tie goes through ``classify_frequencies``, since elsewhere
    the nearest sector is its estimate.
    """
    dists = np.abs(p_exact - freqs[..., None, :]).sum(axis=-1)
    out = dists.argmin(axis=-1).tolist()
    tied = (np.abs(dists - dists.min(axis=-1, keepdims=True)) < TIE_TOL).sum(axis=-1) > 1
    for r, w in np.argwhere(tied).tolist():
        out[r][w] = classify_frequencies(freqs[r, w], p_exact, out[r][w - 1] if w else None)
    return out


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
    node shares them.  Nodes are keyed by the bytes of their state.  The
    tables are Python lists, which the driver's walk reads directly.
    """

    def __init__(self, scn: NdmScenario, drift: np.ndarray | None):
        self.scn = scn
        self.drift = drift  # rotates a node's state before its branch stage
        self.sectors = np.asarray(scn.sector_projections)
        self.no_pointer = np.zeros(scn.quantity.size)  # stands in until a slot collapses
        self.ids: dict[bytes, int] = {}
        # per node
        self.rho: list[np.ndarray] = []
        self.br: list[_Branches] = []  # branch stage
        self.branched: list[bool] = []  # a step from the node makes a Born draw
        self.fixed: list[int] = []  # the sector taken when it does not
        self.last: list[int] = []  # where a branch draw past the total lands
        self.total: list[float] = []  # sum of the sector weights
        self.cum: list[list[float]] = []  # running sums of the sector weights
        self.draws: list[int] = []  # uniforms a step from the node takes
        self.purification: list[float] = []  # 1 - max_alpha tr(rho P_alpha)
        self.expectation: list[float] = []  # tr(rho A)
        # per slot
        self.pointer: list[np.ndarray] = []  # pointer distribution of the collapsed joint state
        self.light: list[bool] = []  # the sector weighs less than 1 - CERTAIN_TOL
        self.child: list[int] = []  # the post-step state's node, -1 until collapsed

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, rho: np.ndarray) -> int:
        """The node of the state ``rho``, added if there is none."""
        key = rho.tobytes()
        node = self.ids.get(key)
        if node is not None:
            return node
        node = self.ids[key] = len(self.ids)
        d = self.drift
        br = _branch_stage(rho if d is None else d @ rho @ dagger(d), self.scn)
        in_sector = np.trace(rho @ self.sectors, axis1=1, axis2=2).real
        s = self.scn.system_dim
        self.rho.append(rho)
        self.br.append(br)
        self.branched.append(br.branched)
        self.fixed.append(br.fixed)
        self.last.append(br.last)
        self.total.append(br.total)
        self.cum.append(br.weights.cumsum().tolist())
        self.draws.append(br.draws)
        self.purification.append(1.0 - in_sector.max())
        self.expectation.append(np.trace(rho @ self.scn.conserved).real)
        self.pointer += [self.no_pointer] * s
        self.light += [False] * s
        self.child += [-1] * s
        return node

    def collapse(self, slots) -> None:
        """Collapse each slot in ``slots`` once, in slot order; none is collapsed yet."""
        s = self.scn.system_dim
        for slot in sorted(set(slots)):
            weight, pointer, rho = _collapse_onto(self.br[slot // s], self.scn, slot % s)
            self.pointer[slot] = pointer
            self.light[slot] = weight < 1.0 - CERTAIN_TOL
            self.child[slot] = self.add(rho)

    def record(
        self,
        rec: _Runs,
        taken: np.ndarray,
        first: np.ndarray,
        stop: np.ndarray,
        uniforms: np.ndarray,
        mark: np.ndarray,
    ) -> None:
        """Fill run r's records of steps ``first[r]`` to ``stop[r] - 1``, at
        which it took the slots ``taken[r]``.

        Run r's uniforms for these steps start at ``uniforms[mark[r]]``; a
        step's pointer draw takes the last of its uniforms.  The runs are
        gathered ``RECORD_BLOCK`` at a time, over the steps any of them
        walked; slot 0 stands in for the steps a run did not.
        """
        s, k = self.scn.system_dim, self.scn.quantity.size
        draws, branched = np.array(self.draws), np.array(self.branched)
        purification, expectation = np.array(self.purification), np.array(self.expectation)
        pointer, light, child = np.array(self.pointer), np.array(self.light), np.array(self.child)
        for b in range(0, len(first), RECORD_BLOCK):
            runs = slice(b, b + RECORD_BLOCK)
            lo, hi = first[runs].min(), stop[runs].max()
            steps = np.arange(lo, hi)
            walked = (first[runs, None] <= steps) & (steps < stop[runs, None])
            slots = np.where(walked, taken[runs, lo:hi], 0)
            nodes, children = slots // s, child[slots]
            used = np.where(walked, draws[nodes], 0)
            u = uniforms[mark[runs, None] + used.cumsum(axis=1) - 1]
            values = inverse_cdf(pointer[slots].reshape(-1, k), u.reshape(-1), k - 1)
            for out, new in (
                (rec.values, values.reshape(slots.shape)),
                (rec.branched, branched[nodes]),
                (rec.purification, purification[children]),
                (rec.conserved_expectation, expectation[children]),
            ):
                out[runs, lo:hi][walked] = new[walked]
            rec.light[runs] |= (light[slots] & walked).any(axis=1)


def _ndm_runs(
    scn: NdmScenario,
    seeds,
    steps: int,
    drift: np.ndarray | None = None,
) -> _Runs:
    """Independent runs, walked one at a time through one shared state graph.

    ``drift``, a unitary on the system, rotates the state before each step.
    Each round, every unfinished run walks on its own, in Python scalars read
    from the ``_StateGraph`` tables, until it finishes or takes a (node,
    sector) slot no run took before; the round's blocked slots are then
    collapsed, each once.  A node that does not branch has one next slot, so
    a stretch of such nodes that comes back to a node repeats until the run
    ends: the rest of the run is that cycle, tiled.

    Run r draws its uniforms up front,
    ``default_rng(seeds[r]).random(2 * steps)`` (a step takes at most two),
    and uses them in the order a lone run would.  A branch draw is
    ``inverse_cdf`` on one row in the same arithmetic: ``bisect_right`` counts
    the running weights at or below ``u * total``.  So every run is the one a
    loop of ``_measurement_step`` calls gives.  The records are gathered from
    the taken slots.  A graph about to hold more than ``NODES_PER_RUN`` nodes
    per run starts again from the runs' current states, so a chain that never
    revisits a state holds O(runs) nodes, not O(runs * steps).
    """
    n_runs, s = len(seeds), scn.system_dim
    uniforms = np.concatenate([np.random.default_rng(seed).random(2 * steps) for seed in seeds])
    u = memoryview(uniforms)
    graph = _StateGraph(scn, drift)
    at = [graph.add(np.asarray(scn.initial_system.density))] * n_runs
    step = [0] * n_runs  # each run's next step
    cursor = list(range(0, 2 * steps * n_runs, 2 * steps))  # each run's next uniform
    first, mark = np.array(step), np.array(cursor)  # where each run stood when the graph began
    taken = np.zeros((n_runs, steps), dtype=np.intp)  # each step's slot
    rec = _Runs(
        values=np.zeros((n_runs, steps), dtype=np.intp),
        branched=np.zeros((n_runs, steps), dtype=bool),
        purification=np.zeros((n_runs, steps)),
        conserved_expectation=np.zeros((n_runs, steps)),
        light=np.zeros(n_runs, dtype=bool),
    )
    live = list(range(n_runs))
    while live:
        branched, fixed, last, total = graph.branched, graph.fixed, graph.last, graph.total
        cum, draws, child = graph.cum, graph.draws, graph.child
        blocked = []  # the slot each unfinished run waits on
        for r in live:
            j, node, c = step[r], at[r], cursor[r]
            path, seen = [], {}  # seen: non-branching nodes of this stretch, by path index
            while j < steps:
                if branched[node]:
                    a = min(bisect_right(cum[node], u[c] * total[node]), last[node])
                    if seen:
                        seen = {}
                else:
                    start = seen.get(node)
                    if start is not None:  # the rest of the run repeats path[start:]
                        cycle = path[start:]
                        taken[r, j:] = np.tile(cycle, (steps - j) // len(cycle) + 1)[: steps - j]
                        j = steps
                        break
                    seen[node] = len(path)
                    a = fixed[node]
                slot = node * s + a
                if child[slot] < 0:
                    blocked.append(slot)
                    break
                path.append(slot)
                c += draws[node]
                node = child[slot]
                j += 1
            taken[r, step[r] : step[r] + len(path)] = path
            step[r], at[r], cursor[r] = j, node, c
        live = [r for r in live if step[r] < steps]
        if not live:
            break
        if len(graph) + len(set(blocked)) > NODES_PER_RUN * n_runs:
            graph.record(rec, taken, first, np.array(step), uniforms, mark)
            first, mark = np.array(step), np.array(cursor)
            old, graph = graph, _StateGraph(scn, drift)
            for r in live:
                at[r] = graph.add(old.rho[at[r]])
            # every unfinished run waits on one slot, in the order of ``live``
            blocked = [at[r] * s + slot % s for r, slot in zip(live, blocked)]
        graph.collapse(blocked)
    graph.record(rec, taken, first, np.array(step), uniforms, mark)
    return rec


def _ndm_run_list(scn: NdmScenario, seeds, steps: int, p_exact: np.ndarray) -> list[NdmRun]:
    """One ``NdmRun`` per seed, all advanced by one driver call."""
    rec = _ndm_runs(scn, seeds, steps)
    times = tuple(range(1, steps + 1))
    runs = []
    for r, seed in enumerate(seeds):
        protocol = MeasurementProtocol(tuple(rec.values[r].tolist()), times, seed)
        freq = np.bincount(rec.values[r], minlength=scn.quantity.size) / steps
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


def ndm_experiment(scn: NdmScenario, master_seed: int = 0) -> NdmReport:
    """Independent runs, classified against the exact sector distributions.

    Reports the empirical distribution of classified sectors, the exact Born
    weights of the sectors for comparison, and per-run purification
    trajectories.
    All runs share one ``_ndm_runs`` call; run r is ``run_ndm_protocol`` with the
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
    for run in runs:
        counts[run.classified] += 1
    return NdmReport(
        scenario=scn,
        p_exact=p_exact,
        born_exact=born,
        runs=runs,
        classified_counts=counts,
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

    Per step: expand the node as the history walkers do (``histories._expand``);
    on an actual event, draw ``u * total`` on the unnormalised Born weights
    and collapse onto that branch.  The recorded value is the pointer of the
    step's probe read after its interaction: sampled from the distribution of
    ``quantity`` in the system x probe j reduction of U(j,0) Omega U(j,0)*.
    Steps whose event has one sector, the whole space, record the null
    outcome 0 and draw nothing.
    """
    if n > model.horizon:
        raise OutOfRange("protocol length exceeds the model horizon")
    rng = np.random.default_rng(seed)
    s, p, big_t = model.s, model.p, model.horizon
    state = model.initial_state
    values = []
    for j in range(1, n + 1):
        node = _expand(model, state, j, weight_eps, "reduced")
        if len(node.detection.weights) == 1:
            values.append(0)
            continue
        if node.event is not None:
            masked, total, last = positive_weights(node.weights, weight_eps)
            state = node.child(int(inverse_cdf(masked, rng.random() * total, last)))
        rho = partial_trace(
            model.rotated_density(state, j), [s, p ** (j - 1), p, p ** (big_t - j)], keep=[0, 2]
        )
        dist = np.array([np.trace(rho @ q).real for q in quantity.projections]).clip(0.0, None)
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
        rho = drift @ (p_a / np.trace(p_a).real) @ dagger(drift)
        rho_post = partial_trace(_joint(rho, scn), [s, p], keep=[0])
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
    trajectory per seed; all of them share one ``_ndm_runs`` call, and each is the
    one ``weak_measurement_trajectory`` gives for its seed.
    """
    if abs(drift_angle) > 0.2:
        raise ValidationError("drift_angle must satisfy |drift_angle| <= 0.2 (weak drift)")
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
    if drift_angle != 0.0 and not rec.events.all():
        raise NoEventError("no events occurred along the trajectory")
    transition = sector_transition_matrix(scn, drift)
    transition.flags.writeable = False  # one matrix, shared by the batch
    k, n_sec = scn.quantity.size, p_exact.shape[0]
    windows = rec.values[:, : n - n % window].reshape(len(rec.values), -1, window)
    freqs = (windows[..., None] == np.arange(k)).sum(axis=2) / window
    out = []
    for seed, values, estimates in zip(seeds, rec.values, _window_estimates(freqs, p_exact)):
        jumps = sum(1 for a, b in zip(estimates, estimates[1:]) if a != b)
        dwell = np.array([estimates.count(a) / len(estimates) for a in range(n_sec)])
        out.append(
            JumpTrajectory(
                etas=tuple(values.tolist()),
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
