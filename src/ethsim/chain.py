"""Repeated-interaction chain models with strictly shrinking future algebras.

The Hilbert space is system x probe_1 x ... x probe_T.  Step unitary U_k acts
on the system and probe k only and maps time k-1 to time k.  The future
algebra at time t is the Heisenberg image of everything that can still be
observed at or after t:

    E(t) = U(t,0)* [ B(system) x 1_{probes <= t} x B(probes > t) ] U(t,0)

Probes with site <= t have been emitted and can no longer be recorded, so the
dimension drops strictly at every step: dim E(t) = s^2 p^(2(T-t)).  That
strict nesting is exactly what lets events happen at all; on a fixed full
matrix algebra the center of any state's centralizer over the whole algebra
would have to come from the state alone and the filtration would be constant.

Event detection on these models has a fast route: restricted to E(t), the
state is the reduced density matrix over (system + future probes), and the
center of its centralizer is spanned by the clustered spectral projections of
that reduced matrix.  The generic algebra-level route in ``states`` computes
the same family; both are exposed and cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import StarAlgebra
from .errors import DimensionMismatch, OutOfRange, ValidationError
from .linalg import (
    DEFAULT_TOL,
    WEIGHT_EPS,
    _norm_within,
    cluster_slices,
    clustered_eigh,
    freeze,
    kron_all,
    partial_trace,
)
from .states import EventDetection, State, _order_event, is_actual

DIMENSION_CAP = 4096


# ---------------------------------------------------------------------------
# gate library (system x probe operators, system factor first)


def _shift_matrix(p: int) -> np.ndarray:
    x = np.zeros((p, p), dtype=np.complex128)
    for k in range(p):
        x[(k + 1) % p, k] = 1.0
    return x


def _probe_rotation(phi: float, p: int) -> np.ndarray:
    if p != 2:
        raise ValidationError("readout rotation requires probe_dim = 2")
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def gate_identity(s: int, p: int) -> np.ndarray:
    return np.eye(s * p, dtype=np.complex128)


def _controlled(control: np.ndarray, block: np.ndarray) -> np.ndarray:
    """kron(1 - control, 1_p) + kron(control, block): ``block`` on the probe
    where the system projection ``control`` holds, the identity elsewhere."""
    s, p = control.shape[0], block.shape[0]
    return np.kron(np.eye(s) - control, np.eye(p)) + np.kron(control, block)


def _basis_control(s: int, control_states) -> np.ndarray:
    """Projection onto the system basis states ``control_states``; by default
    every nonzero index."""
    if control_states is None:
        control_states = range(1, s)
    return np.diag([1.0 if a in control_states else 0.0 for a in range(s)]).astype(np.complex128)


def gate_cnot(s: int, p: int, control_states=None) -> np.ndarray:
    """Probe shift conditioned on the system basis state.

    ``control_states`` lists the system basis indices that trigger the shift;
    by default every nonzero index does, so for s = 2 this is the textbook
    controlled-NOT with the system as control.
    """
    return _controlled(_basis_control(s, control_states), _shift_matrix(p))


def gate_cphase(s: int, p: int, phi: float = np.pi, control_states=None) -> np.ndarray:
    """Probe phase e^{i phi k} on level k, conditioned on the system state."""
    phases = np.diag(np.exp(1j * phi * np.arange(p)))
    return _controlled(_basis_control(s, control_states), phases)


def gate_partial_swap(s: int, p: int, theta: float = np.pi / 4) -> np.ndarray:
    """exp(i theta SWAP) between system and probe; requires s = p."""
    if s != p:
        raise ValidationError("partial swap requires system_dim = probe_dim")
    swap = np.zeros((s * p, s * p), dtype=np.complex128)
    for a in range(s):
        for b in range(p):
            swap[b * s + a, a * p + b] = 1.0
    return np.cos(theta) * np.eye(s * p) + 1j * np.sin(theta) * swap


def gate_controlled_projection_flip(
    s: int, p: int, control_projection: np.ndarray
) -> np.ndarray:
    """Probe shift conditioned on a system projection (not just basis states)."""
    pi = np.asarray(control_projection, dtype=np.complex128)
    if pi.shape != (s, s):
        raise DimensionMismatch("control projection must act on the system factor")
    return _controlled(pi, _shift_matrix(p))


GATE_BUILDERS = {
    "identity": gate_identity,
    "cnot": gate_cnot,
    "cphase": gate_cphase,
    "partial_swap": gate_partial_swap,
}


def build_gate(name: str, s: int, p: int, params: dict | None = None) -> np.ndarray:
    """Named gate, optionally composed with a probe readout rotation."""
    params = dict(params or {})
    phi = params.pop("readout_phi", None)
    if name == "explicit":
        u = np.asarray(params.pop("entries"), dtype=np.complex128)
        if u.shape != (s * p, s * p):
            raise ValidationError("explicit gate has the wrong shape")
    else:
        if name not in GATE_BUILDERS:
            raise ValidationError(f"unknown gate '{name}'")
        u = GATE_BUILDERS[name](s, p, **params)
    if phi is not None:
        u = np.kron(np.eye(s), _probe_rotation(float(phi), p)) @ u
    return u


# ---------------------------------------------------------------------------
# embeddings on the chain


def embed_system_probe(op_sp: np.ndarray, site: int, s: int, p: int, t_max: int) -> np.ndarray:
    """Embed an operator on system x probe_site into the full chain space."""
    if not 1 <= site <= t_max:
        raise OutOfRange(f"probe site {site} outside 1..{t_max}")
    op = np.asarray(op_sp, dtype=np.complex128).reshape(s, p, s, p)
    before = p ** (site - 1)
    after = p ** (t_max - site)
    full = np.einsum(
        "apbq,uv,wx->aupwbvqx",
        op,
        np.eye(before, dtype=np.complex128),
        np.eye(after, dtype=np.complex128),
    )
    d = s * p**t_max
    return full.reshape(d, d)


def embed_future_block(block: np.ndarray, s: int, p: int, t: int, t_max: int) -> np.ndarray:
    """Embed an operator on system x (probes > t) with identity on probes <= t."""
    used = p**t
    fut = p ** (t_max - t)
    b = np.asarray(block, dtype=np.complex128).reshape(s, fut, s, fut)
    full = np.einsum("ikjl,uv->iukjvl", b, np.eye(used, dtype=np.complex128))
    d = s * p**t_max
    return full.reshape(d, d)


# ---------------------------------------------------------------------------
# the model


@dataclass(frozen=True)
class NestingStep:
    t: int
    dim_before: int
    dim_after: int
    inclusion_ok: bool
    strict: bool
    relative_commutant_dim: int


@dataclass(frozen=True)
class NestingReport:
    steps: tuple[NestingStep, ...]
    dims: tuple[int, ...]

    @property
    def all_ok(self) -> bool:
        return all(s.inclusion_ok and s.strict for s in self.steps)


class ChainModel:
    """System coupled to a finite chain of probes, one interaction per step.

    ``initial_state`` holds the probes' start as well as the system's;
    ``chain_initial_state`` builds it with every probe in its ground state.
    """

    def __init__(
        self,
        system_dim: int,
        probe_dim: int,
        horizon: int,
        gates,
        initial_state: State,
    ):
        if system_dim < 1 or probe_dim < 1 or horizon < 1:
            raise ValidationError("system_dim, probe_dim and horizon must be >= 1")
        full_dim = system_dim * probe_dim**horizon
        if full_dim > DIMENSION_CAP:
            raise ValidationError(
                f"full dimension {full_dim} exceeds the cap {DIMENSION_CAP}"
            )
        if len(gates) != horizon:
            raise ValidationError("one gate per step is required")
        self.s = system_dim
        self.p = probe_dim
        self.horizon = horizon
        self.dim = full_dim
        gates = [np.asarray(g, dtype=np.complex128) for g in gates]
        for k, g in enumerate(gates):
            if g.shape != (system_dim * probe_dim, system_dim * probe_dim):
                raise DimensionMismatch(f"gate {k + 1} has shape {g.shape}")
            if not _norm_within(g @ g.conj().T - np.eye(g.shape[0]), DEFAULT_TOL):
                raise ValidationError(f"gate {k + 1} is not unitary")
        if initial_state.dim != full_dim:
            raise DimensionMismatch("initial state dimension does not match the chain")
        self.initial_state = initial_state
        # cumulative products C_t = U_t ... U_1, so U(t, t') = C_t C_t'^*; each
        # step unitary U_k is embedded only for its product
        cumulative = [np.eye(full_dim, dtype=np.complex128)]
        for k, g in enumerate(gates):
            u = embed_system_probe(g, k + 1, self.s, self.p, horizon)
            cumulative.append(u @ cumulative[-1])
        self._cumulative = tuple(freeze(c) for c in cumulative)
        self._algebra_cache: dict[int, StarAlgebra] = {}

    @property
    def site_dims(self) -> list[int]:
        return [self.s] + [self.p] * self.horizon

    def propagator(self, t: int, t_prime: int) -> np.ndarray:
        """Unitary mapping time t' to time t; group law exact by construction."""
        for x in (t, t_prime):
            if not 0 <= x <= self.horizon:
                raise OutOfRange(f"time {x} outside 0..{self.horizon}")
        return self._cumulative[t] @ self._cumulative[t_prime].conj().T

    def algebra_at(self, t: int) -> StarAlgebra:
        """E(t) with an explicitly conjugated product basis, built once per t."""
        if not 0 <= t <= self.horizon:
            raise OutOfRange(f"time {t} outside 0..{self.horizon}")
        if t not in self._algebra_cache:
            s, p, big_t = self.s, self.p, self.horizon
            used = p**t
            fut = p ** (big_t - t)
            units_s = np.eye(s * s, dtype=np.complex128).reshape(s * s, s, s)
            units_f = np.eye(fut * fut, dtype=np.complex128).reshape(fut * fut, fut, fut)
            middle = np.eye(used, dtype=np.complex128) / np.sqrt(used)
            raw = np.einsum("mab,uv,nkl->mnaukbvl", units_s, middle, units_f)
            raw = raw.reshape(s * s * fut * fut, self.dim, self.dim)
            c = self._cumulative[t]
            # the conjugated basis overwrites the raw one: two stacks alive, not three
            np.matmul(c.conj().T @ raw, c, out=raw)
            self._algebra_cache[t] = StarAlgebra(self.dim, raw)
        return self._algebra_cache[t]

    # -- reduced-state route ------------------------------------------------

    def rotated_density(self, state: State, t: int) -> np.ndarray:
        """U(t,0) Omega U(t,0)*: the state as seen by the unconjugated algebra."""
        c = self._cumulative[t]
        return c @ state.density @ c.conj().T

    def reduced_future_density(self, state: State, t: int) -> np.ndarray:
        """Restriction of the state to E(t): reduce over the emitted probes."""
        rot = self.rotated_density(state, t)
        dims = [self.s, self.p**t, self.p ** (self.horizon - t)]
        return partial_trace(rot, dims, keep=[0, 2])

    def detect_event_reduced(
        self, state: State, t: int, weight_eps: float = WEIGHT_EPS
    ) -> EventDetection:
        """Event detection through the reduced state's spectral sectors.

        Restricted to E(t) the algebra is a full matrix factor, so the
        centralizer of the state is the commutant of the reduced density
        matrix and the minimal projections of its center are the clustered
        spectral projections.  Returns the same family, weights and actuality
        flag as the generic route, without materializing the algebras.
        """
        if not 0 <= t <= self.horizon:
            raise OutOfRange(f"time {t} outside 0..{self.horizon}")
        vals, vecs, labels = clustered_eigh(self.reduced_future_density(state, t))
        c = self._cumulative[t]
        projections = []
        weights = []
        for level in cluster_slices(labels):
            block = vecs[:, level]
            p_red = block @ block.conj().T
            p_full = embed_future_block(p_red, self.s, self.p, t, self.horizon)
            projections.append(c.conj().T @ p_full @ c)
            weights.append(max(0.0, float(np.sum(vals[level]))))
        family, ws = _order_event(projections, weights, t)
        return EventDetection(
            centralizer=None,
            center_of_centralizer=None,
            event=family,
            weights=ws,
            actual=is_actual(ws, weight_eps),
        )

    # -- filtration checks ----------------------------------------------------

    def nesting_report(self) -> NestingReport:
        """Inclusion, strictness and relative-commutant dimension per step."""
        algebras = [self.algebra_at(t) for t in range(self.horizon + 1)]
        steps = []
        for t in range(self.horizon):
            outer, inner = algebras[t], algebras[t + 1]
            rel = alg.relative_commutant(inner, outer)
            steps.append(
                NestingStep(
                    t=t,
                    dim_before=outer.dim,
                    dim_after=inner.dim,
                    inclusion_ok=alg.includes(outer, inner),
                    strict=inner.dim < outer.dim,
                    relative_commutant_dim=rel.dim,
                )
            )
        return NestingReport(tuple(steps), tuple(a.dim for a in algebras))


# ---------------------------------------------------------------------------
# initial states


def ground_density(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    return rho


def plus_density(dim: int) -> np.ndarray:
    v = np.ones(dim, dtype=np.complex128) / np.sqrt(dim)
    return np.outer(v, v.conj())


def singlet_pair_density() -> np.ndarray:
    """Two-qubit spin singlet (|01> - |10>)/sqrt(2) as a density matrix."""
    v = np.zeros(4, dtype=np.complex128)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


SYSTEM_STATES = {
    "ground": ground_density,
    "plus": plus_density,
    "maximally_mixed": lambda dim: np.eye(dim, dtype=np.complex128) / dim,
}


def system_density(name: str, dim: int) -> np.ndarray:
    if name == "singlet_pair":
        if dim != 4:
            raise ValidationError("singlet_pair requires system_dim = 4")
        return singlet_pair_density()
    if name not in SYSTEM_STATES:
        raise ValidationError(f"unknown initial state '{name}'")
    return SYSTEM_STATES[name](dim)


def chain_initial_state(system_rho: np.ndarray, s: int, p: int, horizon: int) -> State:
    """System state with every probe in its ground level."""
    if s * p**horizon > DIMENSION_CAP:
        raise ValidationError(
            f"full dimension {s * p ** horizon} exceeds the cap {DIMENSION_CAP}"
        )
    probes = [ground_density(p)] * horizon
    return State(kron_all([system_rho] + probes))
