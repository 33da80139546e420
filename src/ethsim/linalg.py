"""Dense complex matrix kernel.

Everything in the package runs on square ``numpy`` arrays of ``complex128``.
Matrices handed out by this module are frozen (``writeable=False``) so they can
be shared safely between concurrent runs.  Tolerances follow an
absolute-plus-relative convention ``tol * (1 + scale)`` so behaviour does not
depend on the overall size of a scenario.

The tolerances of the package's decisions are the constants below, one per
decision; a scenario can override only ``WEIGHT_EPS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian

# Hermitian, projection, unitarity and partition-of-unity checks (operator
# norm; a check passes on the Frobenius bound, else the spectral norm decides)
DEFAULT_TOL = 1e-9
# eigenvalues closer than CLUSTER_TOL * (1 + max|eigenvalue|) form one level
CLUSTER_TOL = 1e-8
# singular values at or below SVD_TOL * (1 + largest) count as zero
SVD_TOL = 1e-9
# HS residual of an algebra membership test, relative to 1 + ||x||_HS
MEMBER_TOL = 1e-8
# principal angles with cosine >= 1 - COS_TOL lie in a span intersection
COS_TOL = 1e-8
# a Born weight counts as strictly positive above WEIGHT_EPS
WEIGHT_EPS = 1e-8
# collapse refuses branches whose probability is at or below COLLAPSE_EPS
COLLAPSE_EPS = 1e-12
# density matrices: Hermitian, unit trace and positive up to STATE_TOL (decided
# as DEFAULT_TOL's checks are)
STATE_TOL = 1e-10
# two sectors' pointer distributions closer than this in L1 are not separated
SEPARATION_TOL = 1e-9
# L1 distances to two sectors closer than TIE_TOL tie; a window estimate then
# keeps the previous window's sector
TIE_TOL = 1e-12
# a collapse whose weight is within CERTAIN_TOL of one is no event along a
# weak-measurement trajectory
CERTAIN_TOL = 1e-12
# missing_information rejects a Born weight below -NEGATIVE_WEIGHT_TOL, or
# weights summing past 1 + WEIGHT_SUM_TOL; born_weights rejects weights whose
# sum is further than WEIGHT_SUM_TOL from one
NEGATIVE_WEIGHT_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-9
# born_weights rejects a weight outside [-WEIGHT_RANGE_TOL, 1 + WEIGHT_RANGE_TOL]
WEIGHT_RANGE_TOL = 1e-10
# nearest_projection_in_event takes q as a projection within NEAREST_INPUT_TOL
# (is_projection), and its subset search keeps a sum only when it is closer
# than the best so far by more than NEAREST_GAIN_TOL
NEAREST_INPUT_TOL = 1e-8
NEAREST_GAIN_TOL = 1e-15
# path-measure values at or below MEASURE_FLOOR count as zero in the relative
# entropy against the reversed measure
MEASURE_FLOOR = 1e-15
# the bounds of ``ethsim verify``: the reduced and generic detection routes'
# Born weights differ by less than VERIFY_WEIGHT_TOL and the generic event's
# incoherence residual is at most it; each tree depth's mass, the sum rule's
# deviation and each relative entropy's negative part are at most
# VERIFY_SUM_TOL; each path measure is within VERIFY_MEASURE_TOL of the
# product of the path's branch weights
VERIFY_WEIGHT_TOL = 1e-8
VERIFY_SUM_TOL = 1e-9
VERIFY_MEASURE_TOL = 1e-10


def freeze(m: np.ndarray) -> np.ndarray:
    """Return a read-only complex128 copy-if-needed view of ``m``."""
    out = np.ascontiguousarray(m, dtype=np.complex128)
    if out is m:
        out = out.copy()
    out.flags.writeable = False
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def identity(dim: int) -> np.ndarray:
    return freeze(np.eye(dim, dtype=np.complex128))


SIGMA_X = freeze(np.array([[0, 1], [1, 0]], dtype=np.complex128))
SIGMA_Y = freeze(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
SIGMA_Z = freeze(np.array([[1, 0], [0, -1]], dtype=np.complex128))


def _norm_within(a, tol: float, m: np.ndarray | None = None, lower: float | None = None) -> bool:
    """Decide ``||a||_2 <= tol * (1 + ||m||_2)``, or ``||a||_2 <= tol`` without ``m``.

    Every operator-norm tolerance check goes through here.  Since
    ``||a||_2 <= ||a||_F`` and any ``lower <= ||m||_2`` (by default
    ``||m||_F / sqrt(n)`` for an n x n ``m``) only shrinks the right-hand side,
    ``||a||_F <= tol * (1 + lower)`` proves the check passes without an SVD.
    Otherwise the exact spectral norms decide, as an SVD-only check would.
    ``a`` may also be a scalar deviation, compared as it is.
    """
    scalar = np.ndim(a) == 0
    if m is None:
        lower = 0.0
    elif lower is None:
        lower = hs_norm(m) / math.sqrt(min(m.shape)) if m.size else 0.0
    upper = float(a) if scalar else hs_norm(a)
    if upper <= tol * (1.0 + lower):
        return True
    exact = upper if scalar else operator_norm(a)
    return exact <= tol * (1.0 + (0.0 if m is None else operator_norm(m)))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return _norm_within(m - dagger(m), tol, m)


def is_projection(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return _norm_within(m - dagger(m), tol, m) and _norm_within(m @ m - m, tol, m)


@dataclass(frozen=True)
class HermitianEigensystem:
    """Clustered spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are ascending cluster representatives (weighted means);
    ``projections`` are the orthogonal projections onto the clustered
    eigenspaces.  They are mutually disjoint and sum to the identity.
    """

    eigenvalues: tuple[float, ...]
    projections: tuple[np.ndarray, ...]


def clustered_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian part of ``m`` with clustered levels.

    ``m`` is one matrix or a stack.  Returns the ascending eigenvalues, the
    eigenvectors (columns) and each eigenvalue's cluster label: labels start
    at 0 and step up wherever two neighbouring eigenvalues are more than
    ``CLUSTER_TOL * (1 + max|eigenvalue|)`` apart.  The threshold must be
    generous enough that numerically split degeneracies stay one level,
    otherwise centre detection downstream breaks.
    """
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2.0)
    gap = CLUSTER_TOL * (1.0 + np.abs(vals).max(axis=-1, keepdims=True))
    labels = np.zeros(vals.shape, dtype=np.intp)
    labels[..., 1:] = (vals[..., 1:] - vals[..., :-1] > gap).cumsum(axis=-1)
    return vals, vecs, labels


def cluster_slices(labels: np.ndarray) -> list[slice]:
    """The index range of each cluster of one spectrum's labels, in order."""
    ends = np.bincount(labels).cumsum().tolist()
    return [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]


def hermitian_eig(m: np.ndarray, tol: float = DEFAULT_TOL) -> HermitianEigensystem:
    """Spectral decomposition with near-degenerate eigenvalues merged.

    ``m`` must be Hermitian within ``tol * (1 + ||m||)``; its levels are the
    clusters of ``clustered_eigh``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if not is_hermitian(m, tol):
        raise NotHermitian(f"matrix is not Hermitian within {tol}")
    vals, vecs, labels = clustered_eigh(m)
    eigenvalues: list[float] = []
    projections: list[np.ndarray] = []
    for level in cluster_slices(labels):
        block = vecs[:, level]
        projections.append(freeze(block @ block.conj().T))
        eigenvalues.append(float(np.mean(vals[level])))
    return HermitianEigensystem(tuple(eigenvalues), tuple(projections))


def kron_all(factors) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def embed_site_operator(op: np.ndarray, site: int, site_dims) -> np.ndarray:
    """Embed ``op`` at ``site`` of a tensor chain, identity elsewhere.

    Site 0 is the leftmost (most significant) Kronecker factor.
    """
    site_dims = list(site_dims)
    if site < 0 or site >= len(site_dims):
        raise DimensionMismatch(f"site {site} outside chain of length {len(site_dims)}")
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (site_dims[site], site_dims[site]):
        raise DimensionMismatch(
            f"operator shape {op.shape} does not match site dimension {site_dims[site]}"
        )
    factors = [np.eye(d, dtype=np.complex128) for d in site_dims]
    factors[site] = op
    return freeze(kron_all(factors))


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all factors except ``keep`` (indices into ``dims``, order kept).

    ``rho`` is one matrix or a stack of them (leading axes are kept).
    """
    dims = list(dims)
    keep = sorted(keep)
    n = len(dims)
    rho = np.asarray(rho)
    batch = list(rho.shape[:-2])
    # einsum label layout: row axes 0..n-1, column axes n..2n-1
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out_labels = keep + [i + n for i in keep]
    out = np.einsum(
        rho.reshape(batch + dims + dims), [Ellipsis, *row, *col], [Ellipsis, *out_labels]
    )
    d = math.prod(dims[i] for i in keep)
    return out.reshape(batch + [d, d])


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full-rank (or fixed-rank) density matrix, Haar-ish."""
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = g @ g.conj().T
    return freeze(rho / np.trace(rho).real)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return freeze(q)
