"""Recording events through projective measurements of physical quantities.

A physical quantity is an abelian family of disjoint projections on an
abstract reference factor (system x one probe site), representable inside
every future algebra whose time precedes that site.  It records an event when

  (a) its time-t representations partition unity,
  (b) the null outcome Q_0 carries weight at most delta, and
  (c) every Q_alpha, alpha >= 1, is delta-close in operator norm to the
      event algebra (distance measured through the conditional expectation).

Under (a)-(c) the state is, up to O(N delta), an incoherent superposition of
the Q_alpha sectors, each Q_alpha is O(delta)-close to a projection in the
event lattice, and for every branch pi and pointer alpha one of
||pi Q_alpha - pi|| or ||pi Q_alpha|| is O(delta).  The dichotomy is what ties
a pointer value to the branch that actually happened.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainModel, embed_system_probe
from .algebra import contains as algebra_contains
from .errors import (
    AmbiguousPointer,
    DimensionMismatch,
    NotInFutureAlgebra,
    OutOfRange,
    RecordingConditionsFailed,
    ValidationError,
)
from .linalg import DEFAULT_TOL, WEIGHT_EPS, _norm_within, freeze, is_projection, operator_norm
from .states import (
    EventDetection,
    State,
    collapse,
    dist_to_event_algebra,
    inverse_cdf,
    positive_weights,
)

# Aggregate constant for the O(delta) bounds in the recording chain; each step
# of the derivation contributes a small factor.  Acceptance checks use the
# observed scaling, not this constant.
RESULT_CONSTANT = 16.0


@dataclass(frozen=True)
class PhysicalQuantity:
    """Finite-spectrum quantity on the system x probe reference factor.

    Index 0 is the null outcome ("none of the detectors clicks") by
    convention.
    """

    name: str
    spectrum: tuple[float, ...]
    projections: tuple[np.ndarray, ...]
    site: int = 1

    def __post_init__(self):
        if len(self.spectrum) != len(self.projections):
            raise ValidationError("spectrum and projections must align")
        if len(set(self.spectrum)) != len(self.spectrum):
            raise ValidationError("spectrum values must be distinct")
        object.__setattr__(
            self, "projections", tuple(freeze(p) for p in self.projections)
        )
        dim = self.projections[0].shape[0]
        total = np.zeros((dim, dim), dtype=np.complex128)
        for i, p in enumerate(self.projections):
            if p.shape != (dim, dim):
                raise DimensionMismatch("projections must share one dimension")
            if not is_projection(p):
                raise ValidationError(f"member {i} is not an orthogonal projection")
            total += p
        if not _norm_within(total - np.eye(dim), DEFAULT_TOL):
            raise ValidationError("projections must partition unity")

    @property
    def size(self) -> int:
        return len(self.projections)


def probe_pointer_quantity(system_dim: int, probe_dim: int, site: int = 1) -> PhysicalQuantity:
    """Pointer basis of one probe: value k <-> probe level k, 0 = no click."""
    projections = []
    for k in range(probe_dim):
        p = np.zeros((probe_dim, probe_dim), dtype=np.complex128)
        p[k, k] = 1.0
        projections.append(np.kron(np.eye(system_dim), p))
    return PhysicalQuantity(
        name="probe_z",
        spectrum=tuple(float(k) for k in range(probe_dim)),
        projections=tuple(projections),
        site=site,
    )


def represent_at(quantity: PhysicalQuantity, model: ChainModel, t: int) -> list[np.ndarray]:
    """Heisenberg representation of the quantity inside E(t).

    Q_alpha(t) = U(t,0)* embed(Q_alpha) U(t,0); requires the designated probe
    site to still lie in the future (site > t).  Each representation is
    checked to lie in E(t).
    """
    if not 0 <= t <= model.horizon:
        raise OutOfRange(f"time {t} outside 0..{model.horizon}")
    if quantity.site <= t:
        raise NotInFutureAlgebra(
            f"probe site {quantity.site} was emitted at or before time {t}"
        )
    c = model.propagator(t, 0)
    reps = []
    for q in quantity.projections:
        emb = embed_system_probe(q, quantity.site, model.s, model.p, model.horizon)
        reps.append(c.conj().T @ emb @ c)
    future = model.algebra_at(t)
    for k, rep in enumerate(reps):
        if not algebra_contains(future, rep):
            raise NotInFutureAlgebra(f"representation of member {k} left the future algebra")
    return reps


@dataclass(frozen=True)
class RecordingReport:
    delta: float
    condition_a: bool
    condition_b: bool
    condition_c_max_dist: float
    N: int
    M: int
    resolution: float
    matches: tuple[tuple[int, str, float], ...]

    @property
    def passed(self) -> bool:
        return (
            self.condition_a
            and self.condition_b
            and self.condition_c_max_dist < self.delta
        )


def _significant_branch_count(weights, delta: float) -> int:
    """Smallest number of branches (by descending weight) covering 1 - delta."""
    total = 0.0
    for count, w in enumerate(sorted(weights, reverse=True), start=1):
        total += w
        if total >= 1.0 - delta:
            return count
    return len(weights)


def check_recording_conditions(
    omega: State,
    q_reps,
    detection: EventDetection,
    delta: float,
) -> RecordingReport:
    """Evaluate conditions (a)-(c) and the resolution of the recorder.

    ``q_reps`` lists the represented projections with the null outcome at
    index 0.  M is the significant-branch count of the event at level delta;
    the resolution (N/M)(1 - delta) applies for 2 <= N <= M and is zero
    otherwise (N = 1 resolves nothing; N > M is a configuration error and is
    reported as resolution zero).
    """
    if detection.event is None:
        raise RecordingConditionsFailed("detection carries no event family")
    dim = omega.dim
    total = np.zeros((dim, dim), dtype=np.complex128)
    for q in q_reps:
        total += q
    condition_a = _norm_within(total - np.eye(dim), DEFAULT_TOL)
    w0 = float(omega.expect(q_reps[0]).real)
    condition_b = w0 <= delta
    max_dist = 0.0
    for q in q_reps[1:]:
        max_dist = max(
            max_dist, dist_to_event_algebra(omega, None, detection.event, q)
        )
    n = len(q_reps) - 1
    m = _significant_branch_count(detection.weights, delta)
    resolution = (n / m) * (1.0 - delta) if 2 <= n <= m else 0.0
    matches = []
    for alpha, q in enumerate(q_reps[1:], start=1):
        best_label, best_norm = None, np.inf
        for label, pi in zip(detection.event.labels, detection.event.projections):
            val = operator_norm(pi @ q - pi)
            if val < best_norm:
                best_label, best_norm = label, val
        matches.append((alpha, best_label, float(best_norm)))
    return RecordingReport(
        delta=delta,
        condition_a=condition_a,
        condition_b=condition_b,
        condition_c_max_dist=float(max_dist),
        N=n,
        M=m,
        resolution=resolution,
        matches=tuple(matches),
    )


def record_event(
    omega: State,
    q_reps,
    detection: EventDetection,
    delta: float,
    seed: int = 0,
    weight_eps: float = WEIGHT_EPS,
) -> tuple[int, str, State]:
    """Sample the actual branch and read off the pointer that recorded it.

    The pointer is the unique alpha with ||pi Q_alpha - pi|| < 1/2 for the
    sampled branch pi; by the O(delta) dichotomy any threshold separated from
    0 and 1 works, and 1/2 maximizes the margin.
    """
    if not detection.actual:
        raise RecordingConditionsFailed("no actual event to record")
    n = len(q_reps) - 1
    if n * delta >= 0.1:
        raise RecordingConditionsFailed(f"N*delta = {n * delta} too large")
    report = check_recording_conditions(omega, q_reps, detection, delta)
    if not report.passed:
        raise RecordingConditionsFailed(
            f"conditions failed: a={report.condition_a} b={report.condition_b} "
            f"c_max={report.condition_c_max_dist}"
        )
    rng = np.random.default_rng(seed)
    masked, total, last = positive_weights(detection.weights, weight_eps)
    if last < 0:
        raise RecordingConditionsFailed(f"no Born weight above weight_eps={weight_eps}")
    chosen = int(inverse_cdf(masked, rng.random() * total, last))
    pi = detection.event.projections[chosen]
    label = detection.event.labels[chosen]
    hits = [
        alpha
        for alpha, q in enumerate(q_reps[1:], start=1)
        if operator_norm(pi @ q - pi) < 0.5
    ]
    if len(hits) != 1:
        raise AmbiguousPointer(
            f"branch {label} matched pointers {hits}; delta too large"
        )
    return hits[0], label, collapse(omega, pi, weight_eps)


@dataclass(frozen=True)
class DichotomyReport:
    minima: tuple[tuple[float, ...], ...]  # [branch][alpha]
    max_minimum: float
    bound: float
    ok: bool


def verify_result_dichotomy(
    detection: EventDetection, q_reps, delta: float
) -> DichotomyReport:
    """For every (branch, pointer) pair record min(||pi Q - pi||, ||pi Q||).

    Each minimum must be O(delta); the report asserts the aggregate bound
    RESULT_CONSTANT * delta (with a small absolute floor for delta = 0).
    """
    minima = []
    worst = 0.0
    for pi in detection.event.projections:
        row = []
        for q in q_reps[1:]:
            val = min(operator_norm(pi @ q - pi), operator_norm(pi @ q))
            row.append(float(val))
            worst = max(worst, val)
        minima.append(tuple(row))
    bound = RESULT_CONSTANT * delta + 1e-9
    return DichotomyReport(
        minima=tuple(minima), max_minimum=float(worst), bound=bound, ok=worst <= bound
    )
