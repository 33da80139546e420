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

from dataclasses import dataclass
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
    DEFAULT_TOL,
    SEPARATION_TOL,
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


# Uniforms pre-drawn per run and topped up in blocks of this size; a step
# consumes at most two, so the buffer does not grow with the step count.
DRAW_BLOCK = 64


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
    branched: np.ndarray  # (R,) two or more positive sectors: a Born draw
    trivial: np.ndarray  # (R,) one sector, the whole space: no event, no click

    @property
    def draws(self) -> np.ndarray:
        """Uniforms each run consumes: one per branch draw, one per pointer draw."""
        return self.branched.astype(np.intp) + ~self.trivial


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
    return _Branches(
        sigma=sigma,
        rho_post=rho_post,
        vecs=vecs,
        labels=labels,
        positive=positive,
        weights=np.where(positive, weights, 0.0),
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


def _collapse_stage(br: _Branches, scn: NdmScenario, u: np.ndarray):
    """Born-choose a sector, collapse onto it and sample the pointer.

    ``u`` holds each run's uniforms, (R, 2): column 0 feeds the branch draw,
    column 1 the pointer draw; entries a run does not draw are ignored.
    Returns the pointer values, the chosen sectors' weights and the
    post-step system states.
    """
    s, p = scn.system_dim, scn.probe_dim
    weights, positive = br.weights, br.positive
    last_positive = s - 1 - positive[:, ::-1].argmax(axis=1)
    born = inverse_cdf(weights, u[:, 0] * weights.sum(axis=1), last_positive)
    chosen = np.where(br.branched, born, positive.argmax(axis=1))
    w = weights[np.arange(len(chosen)), chosen]
    pi = _kron_stack(_sector_projection(br.vecs, br.labels == chosen[:, None]), np.eye(p))
    sigma_branch = pi @ br.sigma @ pi / w[:, None, None]
    q = np.asarray(scn.quantity.projections)
    pointer = (sigma_branch[:, None] @ q[None]).trace(axis1=2, axis2=3).real.clip(0.0, None)
    pointer /= pointer.sum(axis=1, keepdims=True)
    eta = inverse_cdf(pointer, u[:, 1], pointer.shape[1] - 1)
    new_rho = partial_trace(sigma_branch, [s, p], keep=[0])
    trivial = br.trivial
    return (
        np.where(trivial, 0, eta),
        np.where(trivial, 1.0, w),
        np.where(trivial[:, None, None], br.rho_post, new_rho),
    )


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
    exactly the uniforms the step uses, branch draw first."""
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
        tied = np.flatnonzero(np.abs(dists - dists[best]) < 1e-12)
        if len(tied) > 1 and prev in tied:
            return prev
    return best


def _ndm_runs(
    scn: NdmScenario,
    seeds,
    steps: int,
    p_exact: np.ndarray,
) -> list[NdmRun]:
    """Independent runs advanced together, one stacked probe step at a time.

    Run r draws its uniforms from ``default_rng(seeds[r])`` in the order a
    lone run would, so every run is the one ``run_ndm_protocol`` returns.
    """
    n_runs, s = len(seeds), scn.system_dim
    sectors = np.asarray(scn.sector_projections)
    a = np.asarray(scn.conserved)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    uniforms = np.stack([g.random(DRAW_BLOCK) for g in rngs])
    cursor = np.zeros(n_runs, dtype=np.intp)
    rows = np.arange(n_runs)
    rho = np.broadcast_to(np.asarray(scn.initial_system.density), (n_runs, s, s))
    values = np.zeros((n_runs, steps), dtype=np.intp)
    branched = np.zeros((n_runs, steps), dtype=bool)
    purif = np.zeros((n_runs, steps))
    a_expect = np.zeros_like(purif)
    for j in range(steps):
        for r in np.flatnonzero(cursor > DRAW_BLOCK - 2):
            used = cursor[r]
            uniforms[r, : DRAW_BLOCK - used] = uniforms[r, used:]
            uniforms[r, DRAW_BLOCK - used :] = rngs[r].random(used)
            cursor[r] = 0
        br = _branch_stage(rho, scn)
        k = br.draws
        u = np.stack([uniforms[rows, cursor], uniforms[rows, cursor + k - 1]], axis=1)
        cursor += k
        values[:, j], _, rho = _collapse_stage(br, scn, u)
        branched[:, j] = br.branched
        in_sector = np.trace(rho[:, None] @ sectors[None], axis1=2, axis2=3).real
        purif[:, j] = 1.0 - in_sector.max(axis=1)
        a_expect[:, j] = np.trace(rho @ a, axis1=1, axis2=2).real
    times = tuple(range(1, steps + 1))
    runs = []
    for r, seed in enumerate(seeds):
        protocol = MeasurementProtocol(tuple(values[r].tolist()), times, seed)
        freq = np.array([float(f) for f in frequencies(protocol, scn.quantity.size - 1)])
        branch_steps = tuple((np.flatnonzero(branched[r]) + 1).tolist())
        runs.append(
            NdmRun(
                protocol=protocol,
                first_event_step=branch_steps[0] if branch_steps else None,
                branch_steps=branch_steps,
                purification=purif[r],
                conserved_expectation=a_expect[r],
                classified=classify_frequencies(freq, p_exact),
            )
        )
    return runs


def run_ndm_protocol(scn: NdmScenario, seed: int, steps: int | None = None) -> NdmRun:
    """One full indirect-measurement run of ``steps`` probe interactions."""
    steps = scn.steps if steps is None else steps
    p_exact = scn.exact_pointer_distributions()
    return _ndm_runs(scn, [seed], steps, p_exact)[0]


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
    runs = _ndm_runs(scn, [int(seed) for seed in seeds], scn.steps, p_exact)
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


def weak_measurement_trajectory(
    scn: NdmScenario,
    drift_angle: float,
    n: int,
    window: int,
    seed: int = 0,
) -> JumpTrajectory:
    """Slow coherent drift interleaved with repeated probe measurements.

    The drift rotates the system by ``drift_angle`` per step in a plane that
    fails to commute with the conserved quantity; the repeated measurements
    pin the state to a sector, producing a piecewise-constant trajectory with
    occasional jumps.  The per-window estimate is the classification of the
    window's pointer frequencies, ties keeping the previous value.
    """
    if drift_angle > 0.2:
        raise ValidationError("drift_angle must satisfy <= 0.2 (weak drift)")
    if window < 10:
        raise ValidationError("window must be at least 10")
    if scn.system_dim != 2:
        raise ValidationError("the built-in drift requires a two-level system")
    p_exact = scn.check_separation()
    c, s_ = np.cos(drift_angle), np.sin(drift_angle)
    drift = np.array([[c, -s_], [s_, c]], dtype=np.complex128)
    rng = np.random.default_rng(seed)
    rho = np.asarray(scn.initial_system.density)
    etas = []
    any_event = False
    for _ in range(n):
        rho = drift @ rho @ dagger(drift)
        out = _measurement_step(rho, scn, rng)
        rho = out.new_system
        etas.append(out.eta)
        any_event = any_event or out.branched or out.branch_weight < 1.0 - 1e-12
    if not any_event and drift_angle > 0.0:
        raise NoEventError("no events occurred along the trajectory")
    k = scn.quantity.size
    estimates = []
    prev = None
    for w0 in range(0, n - window + 1, window):
        chunk = etas[w0 : w0 + window]
        freq = np.array([chunk.count(e) / window for e in range(k)])
        est = classify_frequencies(freq, p_exact, prev)
        estimates.append(est)
        prev = est
    jumps = sum(1 for a, b in zip(estimates, estimates[1:]) if a != b)
    n_sec = p_exact.shape[0]
    dwell = np.array([estimates.count(a) / len(estimates) for a in range(n_sec)])
    return JumpTrajectory(
        etas=tuple(etas),
        window=window,
        window_estimates=tuple(estimates),
        jump_count=jumps,
        dwell_fractions=dwell,
        transition_matrix=sector_transition_matrix(scn, drift),
        seed=seed,
    )
