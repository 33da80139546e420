"""The shared Born draw, the shared clustered eigendecomposition and the
shared operator-norm check.

Histories, chain protocols, recording and the NDM kernel draw branches and
pointers through ``states.inverse_cdf``; every clustering site takes its
levels from ``linalg.clustered_eigh``; every operator-norm tolerance check
goes through ``linalg._norm_within``, which decides by the Frobenius norm
first.  The reference functions below are the code those call sites used
before, kept here verbatim in behaviour so the shared rule can be checked
against them on exact cumulative boundaries, on weights at or below the
positivity threshold, and on matrices on either side of a norm threshold.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ethsim import algebra as alg
from ethsim.linalg import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    STATE_TOL,
    WEIGHT_EPS,
    cluster_slices,
    clustered_eigh,
    hermitian_eig,
    is_hermitian,
    is_projection,
    random_density,
    random_unitary,
)
from ethsim.states import State, inverse_cdf, is_actual, positive_weights

# ---------------------------------------------------------------------------
# reference loops


def ref_protocol_branch(weights, weight_eps, v):
    """Chain protocols: ``v`` is the uniform already scaled by the total."""
    positive = [k for k, w in enumerate(weights) if w > weight_eps]
    acc, chosen = 0.0, positive[-1]
    for k in positive:
        acc += weights[k]
        if v < acc:
            chosen = k
            break
    return chosen


def ref_recording_branch(weights, weight_eps, v):
    """record_event: ``v`` is the uniform already scaled by the total."""
    acc, chosen = 0.0, None
    for k, w in enumerate(weights):
        if w <= weight_eps:
            continue
        acc += w
        chosen = k
        if v < acc:
            break
    return chosen


def ref_pointer(dist, u):
    """Chain protocols' pointer draw over a normalised distribution."""
    acc, eta = 0.0, len(dist) - 1
    for k, q in enumerate(dist):
        acc += q
        if u < acc:
            eta = k
            break
    return eta


# ---------------------------------------------------------------------------
# the Born draw


def boundary_points(cumulative):
    """Every running sum, one ulp either side of it, and zero."""
    points = [0.0]
    for c in cumulative:
        points += [c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)]
    return [p for p in points if p >= 0.0]


def running(values):
    acc, out = 0.0, []
    for v in values:
        acc += v
        out.append(acc)
    return out


# Mixes ordinary weights with exact zeros and weights at, just below and just
# above the positivity threshold.
weight_values = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, WEIGHT_EPS, WEIGHT_EPS / 2, math.nextafter(WEIGHT_EPS, 1.0)]),
    st.floats(0.0, WEIGHT_EPS),
)
weight_vectors = st.lists(weight_values, min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(weight_vectors)
def test_scaled_draw_matches_protocol_and_recording_loops(weights):
    assume(any(w > WEIGHT_EPS for w in weights))
    masked, total, last = positive_weights(weights, WEIGHT_EPS)
    assert total == sum(w for w in weights if w > WEIGHT_EPS)
    for v in boundary_points(running([w for w in weights if w > WEIGHT_EPS])):
        got = int(inverse_cdf(masked, v, last))
        assert got == ref_protocol_branch(weights, WEIGHT_EPS, v)
        assert got == ref_recording_branch(weights, WEIGHT_EPS, v)
        assert weights[got] > WEIGHT_EPS


@pytest.mark.parametrize(
    "weights, actual",
    [
        ([0.5, 0.5], True),
        (np.array([0.5, 0.5]), True),
        (np.array([1.0, WEIGHT_EPS]), False),
        (np.array([0.4, 0.6, WEIGHT_EPS / 2]), True),
        ([1.0], False),
        ([], False),
    ],
)
def test_actuality_rule_is_a_python_bool(weights, actual):
    # _Branches.draws adds the rule's answer to an int
    got = is_actual(weights, WEIGHT_EPS)
    assert type(got) is bool
    assert got == actual


@given(st.lists(st.floats(0.0, WEIGHT_EPS), min_size=1, max_size=12))
def test_no_weight_kept_gives_no_last_index(weights):
    masked, total, last = positive_weights(weights, WEIGHT_EPS)
    assert masked.tolist() == [0.0] * len(weights)
    assert total == 0.0
    assert last == -1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_pointer_draw_matches_reference(values):
    dist = np.clip(np.array(values), 0.0, None)
    assume(dist.sum() > 0.0)
    dist /= dist.sum()
    for u in boundary_points(running(dist.tolist())):
        assert int(inverse_cdf(dist, u, len(dist) - 1)) == ref_pointer(dist, u)


@settings(max_examples=100, deadline=None)
@given(st.lists(weight_vectors, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_stacked_draw_matches_rows(rows, rnd):
    """One call on a stack picks, row by row, what a call per row picks."""
    n = max(len(r) for r in rows)
    weights = np.array([r + [0.0] * (n - len(r)) for r in rows])
    u = np.array([rnd.random() * sum(r) for r in rows])
    stacked = inverse_cdf(weights, u, n - 1)
    assert stacked.tolist() == [int(inverse_cdf(w, x, n - 1)) for w, x in zip(weights, u)]


@settings(max_examples=300, deadline=None)
@given(weight_vectors, st.lists(st.floats(0.0, 1.0), max_size=8))
def test_broadcast_born_row_matches_scalar_draws(weights, uniforms):
    """The node draw of sampled histories: one call on the masked Born row
    broadcast to one row per run, each uniform scaled by the total, picks
    what the chain protocols' and record_event's loops pick."""
    assume(any(w > WEIGHT_EPS for w in weights))
    masked, total, last = positive_weights(weights, WEIGHT_EPS)
    # every running sum exactly, one ulp either side, zero, and free uniforms
    # scaled by the total
    vs = boundary_points(masked.cumsum().tolist()) + [u * total for u in uniforms]
    batched = inverse_cdf(np.broadcast_to(masked, (len(vs), masked.size)), np.array(vs), last)
    for v, k in zip(vs, batched.tolist()):
        assert k == int(inverse_cdf(masked, v, last))
        assert k == ref_protocol_branch(weights, WEIGHT_EPS, v)
        assert k == ref_recording_branch(weights, WEIGHT_EPS, v)
        # a branch zeroed at or below WEIGHT_EPS is never chosen
        assert weights[k] > WEIGHT_EPS


# ---------------------------------------------------------------------------
# the clustered eigendecomposition


def planted_hermitian(levels, rng):
    d = len(levels)
    u = np.asarray(random_unitary(d, rng))
    return u @ np.diag(levels).astype(np.complex128) @ u.conj().T


def planted_spectrum(sizes, base, spacing_within, spacing_between):
    """Clusters of the given sizes: neighbours inside a cluster sit
    ``spacing_within`` gaps apart, neighbouring clusters ``spacing_between``
    gaps apart, where a gap is CLUSTER_TOL * (1 + max|eigenvalue|)."""
    # the largest |eigenvalue| differs from |base| by well under a micro-unit,
    # which moves the gap by a relative 1e-6 at most
    gap = CLUSTER_TOL * (1.0 + abs(base))
    levels, labels, x = [], [], base
    for label, size in enumerate(sizes):
        if label:
            x += spacing_between * gap
        for k in range(size):
            if k:
                x += spacing_within * gap
            levels.append(x)
            labels.append(label)
    return np.array(levels), labels


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=5),
    st.floats(-1.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_clusters_split_at_twice_and_merge_at_half_the_gap(sizes, base, seed):
    # conjugating by a random unitary moves eigenvalues by ~1e-15, far
    # inside the 0.5x and 2x margins
    levels, expect = planted_spectrum(sizes, base, 0.5, 2.0)
    h = planted_hermitian(levels, np.random.default_rng(seed))
    _, _, labels = clustered_eigh(h)
    assert labels.tolist() == expect
    eig = hermitian_eig(h)
    assert [round(float(np.trace(p).real)) for p in eig.projections] == sizes


def test_cluster_slices_cover_each_level_in_order():
    labels = np.array([0, 0, 1, 2, 2, 2])
    assert cluster_slices(labels) == [slice(0, 2), slice(2, 3), slice(3, 6)]
    assert cluster_slices(np.array([0])) == [slice(0, 1)]


@pytest.mark.parametrize("sizes", [[1], [2, 1], [1, 3, 2]])
def test_commutant_of_hermitian_is_the_block_algebra(sizes):
    # exact degeneracies, so members commute with h to rounding
    levels, _ = planted_spectrum(sizes, 0.3, 0.0, 2.0)
    h = planted_hermitian(levels, np.random.default_rng(len(sizes)))
    _, vecs, labels = clustered_eigh(h)
    basis = alg._commutant_of_hermitian(vecs, labels)
    assert len(basis) == sum(m * m for m in sizes)
    for x in basis:
        assert np.abs(x @ h - h @ x).max() < 1e-12


# ---------------------------------------------------------------------------
# the operator-norm checks


def svd_norm(m):
    return float(np.linalg.norm(m, 2))


def ref_is_hermitian(m, tol=DEFAULT_TOL):
    return svd_norm(m - m.conj().T) <= tol * (1.0 + svd_norm(m))


def ref_is_projection(m, tol=DEFAULT_TOL):
    scale = 1.0 + svd_norm(m)
    return svd_norm(m - m.conj().T) <= tol * scale and svd_norm(m @ m - m) <= tol * scale


def ref_state_error(rho):
    """The message ``State`` raised with SVD-only checks, or None."""
    scale = 1.0 + svd_norm(rho)
    if svd_norm(rho - rho.conj().T) > STATE_TOL * scale:
        return "density matrix is not Hermitian"
    tr = np.trace(rho)
    if abs(tr - 1.0) > STATE_TOL * scale:
        return f"density trace {tr} is not 1"
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if min_eig < -STATE_TOL * scale:
        return f"density has negative eigenvalue {min_eig}"
    return None


STATE_ERRORS = {
    "hermitian": "density matrix is not Hermitian",
    "trace": "density trace",
    "negative": "density has negative eigenvalue",
}


def state_error(rho):
    try:
        State(rho)
    except ValueError as exc:
        return str(exc)
    return None


def unit_vector(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    return h / svd_norm(h)


def straddle(base, direction, deviation, tol, factor):
    """``base + c * direction`` with ``deviation(c) = factor * tol * (1 + ||base||)``.

    Deviations are linear in ``c`` up to terms of order ``c**2`` (about
    1e-18 here), far below the margin a factor at least 1e-3 from 1 leaves.
    """
    c0 = tol
    ratio = deviation(base + c0 * direction) / (tol * (1.0 + svd_norm(base)))
    return base + (c0 * factor / ratio) * direction


# factors of the threshold on either side of it; a rank-one deviation has
# equal Frobenius and spectral norms, a full-rank one a Frobenius norm up to
# sqrt(n) times larger, so the Frobenius test fails and the SVD decides
factors = st.one_of(st.floats(0.25, 0.999), st.floats(1.001, 4.0))
dims = st.integers(2, 12)
scales = st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3])
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(dims, scales, factors, st.booleans(), seeds)
def test_is_hermitian_matches_the_svd_check(n, scale, factor, rank_one, seed):
    rng = np.random.default_rng(seed)
    h = scale * random_hermitian(n, rng)
    if rank_one:
        v = unit_vector(n, rng)
        k = 1j * np.outer(v, v.conj())
    else:
        k = 1j * random_hermitian(n, rng)
    m = straddle(h, k, lambda x: svd_norm(x - x.conj().T), DEFAULT_TOL, factor)
    assert ref_is_hermitian(m) == (factor < 1.0)
    assert is_hermitian(m) == ref_is_hermitian(m)


@settings(max_examples=200, deadline=None)
@given(dims, factors, st.sampled_from(["skew", "hermitian"]), st.booleans(), seeds)
def test_is_projection_matches_the_svd_check(n, factor, kind, rank_one, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, n + 1))
    block = np.asarray(random_unitary(n, rng))[:, :rank]
    p = block @ block.conj().T
    if rank_one:
        # inside the range of p both deviations are rank one
        v = block @ unit_vector(rank, rng)
        direction = np.outer(v, v.conj())
    else:
        direction = random_hermitian(n, rng)
    if kind == "skew":
        direction = 1j * direction

    def deviation(x):
        return max(svd_norm(x - x.conj().T), svd_norm(x @ x - x))

    m = straddle(p, direction, deviation, DEFAULT_TOL, factor)
    assert ref_is_projection(m) == (factor < 1.0)
    assert is_projection(m) == ref_is_projection(m)


@settings(max_examples=200, deadline=None)
@given(dims, factors, st.sampled_from(["hermitian", "trace", "negative"]), st.booleans(), seeds)
def test_state_raises_what_the_svd_checks_raised(n, factor, kind, rank_one, seed):
    rng = np.random.default_rng(seed)
    if kind == "negative":
        # a zero eigenvalue pushed below zero, trace kept at 1
        u = np.asarray(random_unitary(n, rng))
        levels = rng.uniform(0.1, 1.0, n)
        levels[0] = 0.0
        levels /= levels.sum()
        rho = (u * levels) @ u.conj().T
        v, w = u[:, 0], u[:, 1]
        direction = np.outer(w, w.conj()) - np.outer(v, v.conj())

        def deviation(x):
            return -float(np.linalg.eigvalsh((x + x.conj().T) / 2)[0])

    else:
        rho = np.asarray(random_density(n, rng))
        if kind == "trace":
            direction = rho

            def deviation(x):
                return abs(np.trace(x) - 1.0)

        else:
            if rank_one:
                v = unit_vector(n, rng)
                direction = 1j * np.outer(v, v.conj())
            else:
                direction = 1j * random_hermitian(n, rng)

            def deviation(x):
                return svd_norm(x - x.conj().T)

    m = straddle(rho, direction, deviation, STATE_TOL, factor)
    expected = ref_state_error(m)
    assert (expected or "").startswith(STATE_ERRORS[kind]) == (factor > 1.0)
    assert state_error(m) == expected


def test_full_rank_deviation_under_the_threshold_is_decided_by_the_svd(monkeypatch):
    """Frobenius norm above the threshold, spectral norm below it: the check
    falls back to the SVD and passes, as the SVD-only check did."""
    n = 16
    rng = np.random.default_rng(3)
    h = random_hermitian(n, rng)
    k = 1j * np.eye(n)  # spectral norm 1, Frobenius norm 4
    m = h + (0.5 * DEFAULT_TOL / 2.0) * (1.0 + svd_norm(h)) * k
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    # np.linalg.norm(m, 2) reaches svd through the implementation module
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(impl, "svd", counting_svd)
    assert is_hermitian(m) and ref_is_hermitian(m)
    assert calls
