"""States, centralizers, event detection, collapse and conditional expectations.

A state is a density matrix Omega with evaluation omega(X) = tr(Omega X).  An
event is a family of disjoint orthogonal projections summing to the identity.
A potential event becomes actual when its projections span the center of the
centralizer of the current state on the future algebra and at least two
branches carry strictly positive weight; the state then collapses onto one
branch with Born probability.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import algebra as alg
from .algebra import StarAlgebra, contains
from .errors import (
    ClosureFailure,
    DegenerateWeightWarning,
    DimensionMismatch,
    NotMember,
    ZeroProbability,
)
from .linalg import (
    COLLAPSE_EPS,
    MEMBER_TOL,
    NEAREST_GAIN_TOL,
    NEAREST_INPUT_TOL,
    STATE_TOL,
    WEIGHT_EPS,
    WEIGHT_RANGE_TOL,
    WEIGHT_SUM_TOL,
    _norm_within,
    dagger,
    freeze,
    is_projection,
    operator_norm,
)


@dataclass(frozen=True)
class State:
    """Density matrix: Hermitian, positive semidefinite, unit trace."""

    density: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.density, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionMismatch(f"density must be square, got {rho.shape}")
        eigs = np.linalg.eigvalsh((rho + dagger(rho)) / 2)
        # the Hermitian part's spectral norm is a lower bound on ||rho||_2
        lower = float(np.abs(eigs).max(initial=0.0))
        if not _norm_within(rho - dagger(rho), STATE_TOL, rho, lower):
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(rho)
        if not _norm_within(abs(tr - 1.0), STATE_TOL, rho, lower):
            raise ValueError(f"density trace {tr} is not 1")
        min_eig = float(eigs[0])
        if not _norm_within(-min_eig, STATE_TOL, rho, lower):
            raise ValueError(f"density has negative eigenvalue {min_eig}")
        object.__setattr__(self, "density", freeze(rho))

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    def expect(self, x: np.ndarray) -> complex:
        """omega(X) = tr(Omega X)."""
        return complex(np.trace(self.density @ x))


@dataclass(frozen=True)
class EventFamily:
    """Disjoint orthogonal projections with labels; a partition of unity."""

    projections: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    time_index: int = -1

    def __post_init__(self):
        if len(self.projections) != len(self.labels):
            raise ValueError("labels and projections must align")
        object.__setattr__(
            self, "projections", tuple(freeze(p) for p in self.projections)
        )

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    def __len__(self) -> int:
        return len(self.projections)


@dataclass(frozen=True)
class EventDetection:
    """Outcome of event detection on a state over an algebra.

    ``actual`` is true iff the center of the centralizer is non-trivial and
    at least two branch weights exceed the positivity threshold.
    ``incoherence_residual`` is the largest violation of the incoherent
    superposition identity over the algebra basis (diagnostic only).
    """

    centralizer: StarAlgebra | None
    center_of_centralizer: StarAlgebra | None
    event: EventFamily | None
    weights: tuple[float, ...]
    actual: bool
    incoherence_residual: float = 0.0


def born_weights(omega: State, event: EventFamily) -> list[float]:
    """w_xi = omega(pi_xi); nonnegative up to tolerance, summing to one."""
    if event.dim != omega.dim:
        raise DimensionMismatch("event and state dimensions differ")
    weights = [float(omega.expect(p).real) for p in event.projections]
    for w in weights:
        if w < -WEIGHT_RANGE_TOL or w > 1.0 + WEIGHT_RANGE_TOL:
            raise ValueError(f"Born weight {w} outside [0, 1]")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"Born weights sum to {sum(weights)}")
    return weights


def positive_weights(weights, weight_eps: float) -> tuple[np.ndarray, float, int]:
    """Born weights with those at or below ``weight_eps`` set to zero, their
    total summed in branch order, and the index of the last weight kept (-1
    when none is kept)."""
    masked = [w if w > weight_eps else 0.0 for w in weights]
    last = max((k for k, w in enumerate(masked) if w), default=-1)
    return np.array(masked), sum(masked), last


def inverse_cdf(weights: np.ndarray, u, last):
    """The Born draw: the first index whose running weight exceeds ``u``, or
    ``last`` when none does (``u`` rounded up to the total).

    ``weights`` is one weight vector with a scalar ``u``, or a stack of rows
    with one ``u`` per row.  Weights are non-negative, so the running sums
    never decrease and the first index past ``u`` is the number of running
    sums at or below it; that index always carries positive weight.
    """
    # transposed, a stack's running sums meet their own row's u by broadcasting
    passed = (weights.cumsum(axis=-1).T <= u).sum(axis=0)
    return np.minimum(passed, last)


def collapse(omega: State, projection: np.ndarray, weight_eps: float = COLLAPSE_EPS) -> State:
    """State conditioned on one branch: pi Omega pi / tr(Omega pi)."""
    p = np.asarray(projection, dtype=np.complex128)
    if p.shape != (omega.dim, omega.dim):
        raise DimensionMismatch("projection and state dimensions differ")
    if not is_projection(p):
        raise ValueError("collapse requires an orthogonal projection")
    prob = float(omega.expect(p).real)
    if prob <= weight_eps:
        raise ZeroProbability(f"branch probability {prob} below threshold")
    rho = p @ omega.density @ p / prob
    return State((rho + dagger(rho)) / 2.0)


def centralizer_of_state(omega: State, m: StarAlgebra) -> StarAlgebra:
    """{Y in M : omega([Y, X]) = 0 for all X in M}, for a *-algebra ``m``.

    Computed as the null space of the map Y -> (tr([Omega, Y] B_i))_i over the
    span of M.  For any state that null space is an algebra: if Y and Y'
    centralize omega, so does YY', because omega([YY', X]) = omega([Y, Y'X])
    + omega([Y', XY]).  Numerically the rank cut decides the subspace, so its
    closure is certified (``_closure_bound``), else tested product by product;
    a subspace that fails both raises ClosureFailure rather than being
    shrunk.
    """
    if m.ambient_dim != omega.dim:
        raise DimensionMismatch("state and algebra dimensions differ")
    rho = omega.density
    error = _commutator_map_rounding(rho, m.dim)
    return _closed_null_space(_commutator_map(rho, m), m, error)


def _commutator_map(rho: np.ndarray, m: StarAlgebra) -> np.ndarray:
    """T[i, a] = tr([Omega, B_a] B_i) = omega([B_a, B_i]) over m's basis."""
    basis = m.tensor
    k, d = basis.shape[0], rho.shape[0]
    comms = rho @ basis - basis @ rho  # [Omega, B_a] stacked over a
    # sum over (m, n) of comms[a, m, n] B_i[n, m]: one matrix product
    return basis.transpose(0, 2, 1).reshape(k, d * d) @ comms.reshape(k, d * d).T


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff of float64."""
    nu = n * np.finfo(np.float64).eps / 2.0
    return nu / (1.0 - nu)


def _commutator_map_rounding(rho: np.ndarray, k: int) -> float:
    """Bound on ||T_computed - T||_2 for the commutator map of the density
    ``rho`` (d x d) over a k-dimensional HS-orthonormal basis.

    Each [Omega, B_a] entry sums d complex products, twice, and one
    subtraction: HS error <= (2 gamma_{d+2} + 2 gamma_1) ||Omega||_HS.  Each
    T[i, a] sums d^2 products of that against B_i: error <= 2 gamma_{d^2+2}
    ||Omega||_HS plus the propagated HS error (Cauchy-Schwarz with the unit
    B_i).  The k^2 entries then bound the 2-norm by k times the largest.
    """
    d = rho.shape[0]
    per_entry = 2.0 * (_gamma(d * d + 2) + _gamma(d + 2) + _gamma(1))
    return k * per_entry * float(np.linalg.norm(rho))


def _closure_bound(t: np.ndarray, cols: np.ndarray, kept: float, error: float) -> float:
    """Bound on the HS distance from span(cols) to the product of any two
    HS-unit elements of that span, for an exact commutator map within
    ``error`` (2-norm) of ``t``.

    With r = ||t cols||_2 + error, each unit Y in the span has
    ||T y||_2 <= r, so the identity in ``centralizer_of_state`` (YY' and Y'X
    lie in the algebra m) gives ||T (YY')||_2 <= 2r and ||t (YY')||_2 <=
    2r + error.  The part of YY' inside span(cols) adds at most ||t cols||_2
    to that, and the part outside lies in t's kept right singular space,
    where t stretches by at least ``kept``: its norm is at most 3r / kept.
    """
    k_m, k = cols.shape
    residual = float(np.linalg.norm(t @ cols))
    # rounding in forming t @ cols: sums of k_m products of unit-scale entries
    residual += _gamma(k_m + 2) * float(np.linalg.norm(t)) * np.sqrt(k)
    return 3.0 * (residual + error) / kept


def _closed_null_space(t: np.ndarray, m: StarAlgebra, error: float) -> StarAlgebra:
    """The span in ``m`` of the null space of ``t``, checked to be closed
    under products.  ``error`` bounds ||t - T||_2 for the exact map T."""
    cols, kept = alg._null_space(t)
    vecs = np.tensordot(cols.T, m.tensor, axes=(1, 0))
    sub = StarAlgebra(m.ambient_dim, vecs)
    _require_closed(sub, _closure_bound(t, cols, kept, error))
    return sub


def _require_closed(sub: StarAlgebra, bound: float) -> None:
    """Accept ``sub`` when the certificate ``bound`` on its product residual
    is within MEMBER_TOL, else when every product of basis elements stays in
    the span; raise ClosureFailure otherwise."""
    if bound <= MEMBER_TOL or _product_closed(sub):
        return
    raise ClosureFailure(
        f"a {sub.dim}-dimensional centralizer is not closed under products "
        f"(certificate bound {bound:.3g}): its rank cut is near-degenerate"
    )


def _product_closed(sub: StarAlgebra) -> bool:
    basis = sub.tensor
    k = len(basis)
    if k == 0:
        return True
    # chunked over left factors to bound peak memory on large centralizers
    chunk = max(1, (1 << 22) // max(1, k * basis.shape[1] ** 2))
    conj = sub.stack.conj()
    for start in range(0, k, chunk):
        left = basis[start : start + chunk]
        prods = (left[:, None] @ basis[None]).reshape(len(left) * k, -1)
        proj = (conj @ prods.T).T @ sub.stack
        if float(np.abs(prods - proj).max()) > MEMBER_TOL:
            return False
    return True


def center_of_centralizer(omega: State, m: StarAlgebra) -> StarAlgebra:
    return alg.center(centralizer_of_state(omega, m))


def event_labels(t: int, count: int) -> list[str]:
    return [f"t{t}:e{k}" for k in range(count)]


def _order_event(projections, weights, t: int) -> tuple[EventFamily, tuple[float, ...]]:
    """Canonical branch order: descending weight, ascending trace, then input order."""
    idx = sorted(
        range(len(projections)),
        key=lambda i: (
            -round(weights[i], 12),
            round(float(np.trace(projections[i]).real), 6),
            i,
        ),
    )
    projs = tuple(projections[i] for i in idx)
    ws = tuple(weights[i] for i in idx)
    family = EventFamily(projs, tuple(event_labels(t, len(projs))), time_index=t)
    return family, ws


def incoherence_residual(omega: State, m: StarAlgebra, event: EventFamily) -> float:
    """max over basis X of |omega(X) - sum_xi omega(pi_xi X pi_xi)|.

    omega(X) - sum_xi omega(pi_xi X pi_xi) = tr(D X) with
    D = Omega - sum_xi pi_xi Omega pi_xi, so D is formed once for the basis.
    """
    if m.dim == 0:
        return 0.0
    rho = omega.density
    dephased = rho - sum(p @ rho @ p for p in event.projections)
    gaps = np.abs(m.stack @ dephased.T.reshape(-1))
    norms = np.linalg.norm(m.tensor, 2, axis=(1, 2))
    return float(np.max(gaps / (1.0 + norms)))


def detect_event(
    omega: State,
    future_algebra: StarAlgebra,
    t: int,
    weight_eps: float = WEIGHT_EPS,
) -> EventDetection:
    """Find the event that starts to happen at time ``t``, if any.

    Computes the center of the centralizer of the state on the future algebra,
    extracts its minimal projections, evaluates Born weights, and applies the
    actuality criterion: a non-trivial center and at least two weights above
    ``weight_eps``.
    """
    if not 0.0 < weight_eps < 0.5:
        raise ValueError("weight_eps must lie in (0, 0.5)")
    centralizer = centralizer_of_state(omega, future_algebra)
    z = alg.center(centralizer)
    projections = alg.minimal_projections_retry(z)
    weights = [max(0.0, float(omega.expect(p).real)) for p in projections]
    family, ws = _order_event(list(projections), weights, t)
    positive = sum(1 for w in ws if w > weight_eps)
    actual = z.dim >= 2 and positive >= 2
    residual = incoherence_residual(omega, future_algebra, family) if actual else 0.0
    return EventDetection(
        centralizer=centralizer,
        center_of_centralizer=z,
        event=family,
        weights=ws,
        actual=actual,
        incoherence_residual=residual,
    )


def conditional_expectation(
    omega: State,
    m: StarAlgebra | None,
    event: EventFamily,
    x: np.ndarray,
    weight_eps: float = WEIGHT_EPS,
) -> np.ndarray:
    """Project ``x`` onto the abelian event algebra, weighted by the state.

    eps(X) = sum_xi [omega(pi_xi X) / omega(pi_xi)] pi_xi.  Zero-weight
    projections contribute nothing (the state does not see that sector); they
    are flagged with DegenerateWeightWarning.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (omega.dim, omega.dim):
        raise DimensionMismatch("operator and state dimensions differ")
    if m is not None and not contains(m, x):
        raise NotMember("operator lies outside the reference algebra")
    rho = omega.density
    out = np.zeros_like(x)
    degenerate = False
    for p in event.projections:
        w = float(np.trace(rho @ p).real)
        if w <= weight_eps:
            degenerate = True
            continue
        out += (np.trace(rho @ p @ x) / w) * p
    if degenerate:
        warnings.warn(
            "zero-weight sector met in conditional expectation; term set to 0",
            DegenerateWeightWarning,
            stacklevel=2,
        )
    return out


def dist_to_event_algebra(
    omega: State,
    m: StarAlgebra | None,
    event: EventFamily,
    x: np.ndarray,
    weight_eps: float = WEIGHT_EPS,
) -> float:
    """dist(X, Z) = ||X - eps(X)|| in operator norm."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateWeightWarning)
        eps = conditional_expectation(omega, m, event, x, weight_eps)
    return operator_norm(x - eps)


def nearest_projection_in_event(q: np.ndarray, event: EventFamily) -> tuple[np.ndarray, float]:
    """Closest projection (operator norm) in the lattice of sums of branches.

    Exhaustive subset search up to 20 branches; beyond that a greedy rule
    includes each branch pi with ||pi q - pi|| < 1/2.
    """
    q = np.asarray(q, dtype=np.complex128)
    if not is_projection(q, NEAREST_INPUT_TOL):
        raise ValueError("nearest_projection_in_event requires a projection")
    n = len(event.projections)
    if n <= 20:
        d = event.dim
        best_p = np.zeros((d, d), dtype=np.complex128)
        best = operator_norm(q - best_p)
        for r in range(1, n + 1):
            for subset in combinations(range(n), r):
                p = sum(event.projections[i] for i in subset)
                dist = operator_norm(q - p)
                if dist < best - NEAREST_GAIN_TOL:
                    best, best_p = dist, p
        return freeze(best_p), float(best)
    p = np.zeros((event.dim, event.dim), dtype=np.complex128)
    for pi in event.projections:
        if operator_norm(pi @ q - pi) < 0.5:
            p = p + pi
    return freeze(p), float(operator_norm(q - p))
