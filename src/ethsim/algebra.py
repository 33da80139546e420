"""Finite-dimensional *-algebras of matrices.

An algebra is stored as an orthonormal basis under the Hilbert-Schmidt inner
product <A,B> = tr(A*B).  All algebras handled here are unital and *-closed;
commutants, relative commutants, centers and the minimal projections of
abelian algebras are computed numerically with SVD rank decisions.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    GenericityFailure,
    NonConvergence,
    NotAbelian,
)
from .linalg import (
    COS_TOL,
    MEMBER_TOL,
    SVD_TOL,
    cluster_slices,
    clustered_eigh,
    freeze,
    hs_norm,
    identity,
)

CLOSURE_ROUNDS = 64

# minimal_projections_retry draws this many generic combinations, one seed
# after another, before it gives up
GENERIC_ATTEMPTS = 8

# Internal seed for the generic elements used to accelerate commutant
# computations.  Fixed so that results are reproducible across runs.
_GENERIC_SEED = 0x5EED


def _svd_threshold(singular_values: np.ndarray) -> float:
    top = float(singular_values[0]) if len(singular_values) else 0.0
    return SVD_TOL * (1.0 + top)


def orthonormalize(mats, ambient_dim: int) -> np.ndarray:
    """Orthonormal basis (stacked as (k, D, D)) of the span of ``mats``."""
    if len(mats) == 0:
        return np.zeros((0, ambient_dim, ambient_dim), dtype=np.complex128)
    stack = np.stack([np.asarray(m, dtype=np.complex128).reshape(-1) for m in mats])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > _svd_threshold(s)))
    return vh[:rank].reshape(rank, ambient_dim, ambient_dim)


def _null_space(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthonormal columns spanning the right null space of ``mat``, and the
    smallest singular value kept above the rank cut (inf when none is kept).

    Only ``vh`` is read, so ``U`` is never formed in full.  A tall input is
    first reduced to the triangular factor of its QR decomposition, which has
    the same singular values and null space at a fraction of the SVD's cost.
    A wide input keeps the full ``vh``: its null space lies in the rows beyond
    ``min(m, n)``.
    """
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=np.complex128), math.inf
    if mat.shape[0] > mat.shape[1]:
        mat = np.linalg.qr(mat, mode="r")
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    rank = int(np.sum(s > _svd_threshold(s)))
    kept = float(s[rank - 1]) if rank else math.inf
    return vh[rank:].conj().T, kept


def _null_columns(mat: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the right null space of ``mat``."""
    return _null_space(mat)[0]


class StarAlgebra:
    """A unital *-closed span of matrices with an HS-orthonormal basis.

    The basis is held once, as one read-only (k, D, D) array: ``tensor`` is
    that array, ``stack`` and each entry of ``basis`` are views of it.  A
    contiguous complex128 array passed in is held without a copy, so the
    caller must not write to it afterwards; a sequence of matrices is
    stacked.
    """

    def __init__(self, ambient_dim: int, basis) -> None:
        tensor = np.ascontiguousarray(basis, dtype=np.complex128)
        tensor = tensor.reshape(len(tensor), ambient_dim, ambient_dim)
        tensor.flags.writeable = False
        self.ambient_dim = ambient_dim
        self.tensor = tensor

    @property
    def dim(self) -> int:
        return self.tensor.shape[0]

    @cached_property
    def basis(self) -> tuple[np.ndarray, ...]:
        """The basis elements, as read-only views of ``tensor``."""
        return tuple(self.tensor)

    @property
    def stack(self) -> np.ndarray:
        """Basis as rows of length ambient_dim**2 (a view of ``tensor``)."""
        return self.tensor.reshape(self.dim, -1)

    @cached_property
    def commutant(self) -> StarAlgebra:
        """{X : [X, B] = 0 for every basis element B}, computed once.

        The result is a new instance with its own cache, so a bicommutant is
        always computed, never read back as this algebra.
        """
        return _commutant(self)

    @cached_property
    def _generic(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The Hermitian part h and the anti-Hermitian part of one fixed
        generic element, and h's clustered eigenvectors and labels.

        One eigendecomposition, shared by the commutant and every relative
        commutant of this algebra.
        """
        rng = np.random.default_rng(_GENERIC_SEED)
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        g = np.tensordot(c, self.tensor, axes=(0, 0))
        h = (g + g.conj().T) / 2.0
        _, vecs, labels = clustered_eigh(h)
        return h, (g - g.conj().T) / 2.0j, vecs, labels

    def project(self, x: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection of ``x`` onto the span."""
        v = np.asarray(x, dtype=np.complex128).reshape(-1)
        # the HS coefficients tr(B_i* x), without a conjugated copy of the stack
        coeffs = (self.stack @ v.conj()).conj()
        return (self.stack.T @ coeffs).reshape(self.ambient_dim, self.ambient_dim)


def from_span(mats, ambient_dim: int) -> StarAlgebra:
    return StarAlgebra(ambient_dim, orthonormalize(mats, ambient_dim))


def contains(algebra: StarAlgebra, x: np.ndarray, tol: float = MEMBER_TOL) -> bool:
    """Membership up to ``tol * (1 + ||x||_HS)`` in HS norm."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (algebra.ambient_dim, algebra.ambient_dim):
        raise DimensionMismatch(
            f"operator of shape {x.shape} against ambient dimension {algebra.ambient_dim}"
        )
    return hs_norm(x - algebra.project(x)) <= tol * (1.0 + hs_norm(x))


def includes(outer: StarAlgebra, inner: StarAlgebra) -> bool:
    """``contains(outer, x)`` for every basis element x of ``inner``.

    All elements are projected onto ``outer`` with one matrix product.
    """
    if outer.ambient_dim != inner.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    x = inner.stack
    # HS coefficients on outer's basis, conjugating inner's stack, not outer's
    coeffs = (x.conj() @ outer.stack.T).conj()
    residual = np.linalg.norm(x - coeffs @ outer.stack, axis=1)
    return bool(np.all(residual <= MEMBER_TOL * (1.0 + np.linalg.norm(x, axis=1))))


def span_equal(a: StarAlgebra, b: StarAlgebra) -> bool:
    if a.ambient_dim != b.ambient_dim:
        return False
    if a.dim != b.dim:
        return False
    return includes(b, a) and includes(a, b)


def generate_algebra(generators, ambient_dim: int) -> StarAlgebra:
    """Smallest unital *-algebra containing ``generators``.

    Alternates adjoint and pairwise-product closure with HS
    re-orthonormalization until the dimension stabilizes.
    """
    mats = [identity(ambient_dim)]
    for g in generators:
        g = np.asarray(g, dtype=np.complex128)
        if g.shape != (ambient_dim, ambient_dim):
            raise DimensionMismatch(
                f"generator shape {g.shape} against ambient dimension {ambient_dim}"
            )
        mats.append(g)
        mats.append(g.conj().T)
    basis = orthonormalize(mats, ambient_dim)
    for _ in range(CLOSURE_ROUNDS):
        k = len(basis)
        products = np.einsum("aij,bjk->abik", basis, basis).reshape(
            k * k, ambient_dim, ambient_dim
        )
        adjoints = basis.conj().transpose(0, 2, 1)
        new_basis = orthonormalize(
            np.concatenate([basis, adjoints, products]), ambient_dim
        )
        if len(new_basis) == k:
            return StarAlgebra(ambient_dim, new_basis)
        basis = new_basis
    raise NonConvergence(
        f"algebra closure did not stabilize in {CLOSURE_ROUNDS} rounds"
    )


def _commutant_of_hermitian(vecs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Orthonormal basis (r, D, D) of {X : [X, h] = 0} for the Hermitian h
    whose clustered eigenvectors and labels (``clustered_eigh``) are given.

    The commutant of a Hermitian matrix is the block algebra over its
    clustered eigenspaces, so it comes straight from one eigendecomposition.
    """
    d = vecs.shape[0]
    blocks = []
    for level in cluster_slices(labels):
        v = vecs[:, level]
        m = v.shape[1]
        blocks.append(np.einsum("ai,bj->ijab", v, v.conj()).reshape(m * m, d, d))
    return np.concatenate(blocks, axis=0)


def _commuting_part(current: np.ndarray, elems) -> np.ndarray:
    """The elements of span(``current``) that commute with every matrix in
    ``elems``, as an orthonormal (r, D, D) basis; ``current`` is an
    HS-orthonormal (k, D, D) basis.

    The null space of the stacked commutator map is computed by sequential
    intersection: the span shrinks against one element at a time with small
    SVD rank decisions.
    """
    d = current.shape[-1]
    for b in elems:
        if len(current) == 0:
            break
        comms = current @ b
        comms -= b @ current
        # The Frobenius norm bounds the largest singular value s0, so here
        # s0 <= SVD_TOL <= SVD_TOL * (1 + s0): the SVD below would find rank 0
        # and keep every column.  Skipping it changes no basis.
        if np.linalg.norm(comms) <= SVD_TOL:
            continue
        mat = comms.reshape(len(current), d * d).T
        cols = _null_columns(mat)
        if cols.shape[1] == len(current):
            continue
        current = np.tensordot(cols.T, current, axes=(1, 0))
    return current


def commutant(algebra: StarAlgebra) -> StarAlgebra:
    """{X : [X, B] = 0 for every basis element B}, memoised on ``algebra``."""
    return algebra.commutant


def _commutant(algebra: StarAlgebra) -> StarAlgebra:
    """{X : [X, B] = 0 for every basis element B}, computed afresh.

    Starts from the commutant of the Hermitian part of one generic element of
    the algebra (cheap, via its eigenblocks) and shrinks it against the
    anti-Hermitian part and every basis element.
    """
    _, anti, vecs, labels = algebra._generic
    start = _commutant_of_hermitian(vecs, labels)
    return StarAlgebra(algebra.ambient_dim, _commuting_part(start, (anti, *algebra.tensor)))


def intersect_spans(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    """Intersection of the two HS subspaces via principal angles."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    d = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return StarAlgebra(d, ())
    # m is the conjugate of the cosine matrix <b_i, a_j>, so its right
    # singular vectors are the conjugates of that matrix's
    m = b.stack @ a.stack.conj().T
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s >= 1.0 - COS_TOL
    vecs = vh[keep] @ a.stack
    return StarAlgebra(d, orthonormalize(vecs.reshape(-1, d, d), d))


def relative_commutant(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    """commutant(a) intersected with the span of ``b``.

    The answer lies in span(b) and in {h}', h the Hermitian part of a's
    generic element.  When span(b) is no larger than {h}', b's own basis is
    shrunk against h, the anti-Hermitian part and a's basis, so the commutant
    of a is never formed; otherwise the memoised commutant of a is
    intersected with span(b).
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    h, anti, _, labels = a._generic
    sizes = np.bincount(labels)
    if b.dim <= int(sizes @ sizes):
        return StarAlgebra(a.ambient_dim, _commuting_part(b.tensor, (h, anti, *a.tensor)))
    return intersect_spans(commutant(a), b)


def center(algebra: StarAlgebra) -> StarAlgebra:
    return relative_commutant(algebra, algebra)


def is_abelian(algebra: StarAlgebra) -> bool:
    basis = algebra.tensor
    comms = np.einsum("aij,bjk->abik", basis, basis) - np.einsum(
        "bij,ajk->abik", basis, basis
    )
    return float(np.max(np.abs(comms))) <= MEMBER_TOL


def _canonical_projection_order(projections):
    """Descending rank (trace), ties broken by rounded-entry lexicographic order."""

    def key(p):
        tr = round(float(np.trace(p).real), 6)
        flat = np.round(p.reshape(-1), 9)
        return (-tr, tuple(zip(flat.real.tolist(), flat.imag.tolist())))

    return sorted(projections, key=key)


def minimal_projections(algebra: StarAlgebra, rng_seed: int = 0) -> tuple[np.ndarray, ...]:
    """The unique family of disjoint projections spanning an abelian algebra.

    Spectrally decomposes a random Hermitian combination of the basis with
    generic, seed-dependent coefficients: its clustered eigenspaces
    (``clustered_eigh``) give the projections.  A draw with fewer levels than
    the algebra's dimension, or a projection that leaves the algebra, is not
    generic and raises GenericityFailure so the caller can retry with a new
    seed.
    """
    if not is_abelian(algebra):
        raise NotAbelian("minimal projections require an abelian algebra")
    rng = np.random.default_rng(rng_seed)
    k = algebra.dim
    c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    g = np.tensordot(c, algebra.tensor, axes=(0, 0))
    _, vecs, labels = clustered_eigh((g + g.conj().T) / 2.0)
    levels = cluster_slices(labels)
    if len(levels) != k:
        raise GenericityFailure(
            f"random combination produced {len(levels)} levels for a "
            f"{k}-dimensional algebra"
        )
    projections = [freeze(vecs[:, lv] @ vecs[:, lv].conj().T) for lv in levels]
    for p in projections:
        if not contains(algebra, p):
            raise GenericityFailure("an eigenprojection left the algebra span")
    return tuple(_canonical_projection_order(projections))


def minimal_projections_retry(algebra: StarAlgebra, rng_seed: int = 0) -> tuple[np.ndarray, ...]:
    last: Exception | None = None
    for k in range(GENERIC_ATTEMPTS):
        try:
            return minimal_projections(algebra, rng_seed + k)
        except GenericityFailure as exc:  # non-generic draw, try the next seed
            last = exc
    raise GenericityFailure(f"no generic draw in {GENERIC_ATTEMPTS} attempts: {last}")


def full_matrix_algebra(dim: int) -> StarAlgebra:
    """M_dim with its matrix units E_ij as the basis, row by row."""
    return StarAlgebra(dim, np.eye(dim * dim, dtype=np.complex128))


def scalar_algebra(dim: int) -> StarAlgebra:
    return StarAlgebra(dim, np.eye(dim, dtype=np.complex128)[None] / np.sqrt(dim))
