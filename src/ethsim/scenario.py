"""Scenario files: strict JSON, unknown keys rejected, complex entries as
[re, im] pairs.  A scenario pins everything a run needs: chain dimensions,
step gates, the initial system state, the recorded quantity, thresholds and
the seed, so identical files reproduce identical traces with one NumPy and
BLAS build (across machines, only up to the rounding of BLAS results).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .chain import (
    ChainModel,
    DIMENSION_CAP,
    build_gate,
    chain_initial_state,
    system_density,
)
from .errors import ParseError, ValidationError
from .indirect import NdmScenario
from .linalg import DEFAULT_TOL, SIGMA_Z, WEIGHT_EPS, _norm_within, dagger
from .recording import PhysicalQuantity, probe_pointer_quantity
from .states import State

_TOP_KEYS = {
    "name",
    "system_dim",
    "probe_dim",
    "horizon",
    "gates",
    "initial_state",
    "quantity",
    "conserved",
    "thresholds",
    "seed",
    "runs",
    "steps",
    "jumps",
    "theta_filter",
}
# the keys each gate takes besides "name" and "readout_phi"
_GATE_KEYS = {
    "identity": set(),
    "cnot": {"control_states"},
    "cphase": {"phi", "control_states"},
    "partial_swap": {"theta"},
    "explicit": {"entries"},
}
_THRESHOLD_KEYS = {"weight_eps"}
_JUMPS_KEYS = {"drift_angle", "window"}
_QUANTITY_KEYS = {"name", "site", "spectrum", "projections"}


@dataclass(frozen=True)
class Thresholds:
    weight_eps: float = WEIGHT_EPS


@dataclass(frozen=True)
class Scenario:
    name: str
    system_dim: int
    probe_dim: int
    horizon: int
    gates: tuple[dict, ...]
    initial_state: object  # named string or system density entries
    quantity: dict
    conserved: object
    thresholds: Thresholds
    seed: int
    runs: int = 100
    steps: int | None = None
    jumps: dict = field(default_factory=dict)
    theta_filter: float = 0.0


def _reject_unknown(mapping: dict, allowed: set, where: str):
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _count(value, what: str) -> int:
    if _integer(value, what) < 1:
        raise ValidationError(f"{what} must be >= 1")
    return value


def _real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _entries(mapping: dict, key: str, where: str) -> np.ndarray:
    """The required complex matrix ``mapping[key]``."""
    if key not in mapping:
        raise ValidationError(f"{where} needs '{key}'")
    return _parse_complex_matrix(mapping[key], where)


def _parse_complex_matrix(entries, what: str) -> np.ndarray:
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: entries must be [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValidationError(f"{what}: expected an NxNx2 nest of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def parse_scenario_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")
    for key in ("name", "system_dim", "probe_dim", "horizon", "gates"):
        if key not in doc:
            raise ValidationError(f"missing required key '{key}'")
    s, p, horizon = (_count(doc[key], key) for key in ("system_dim", "probe_dim", "horizon"))
    if s * p**horizon > DIMENSION_CAP:
        raise ValidationError(
            f"full dimension {s * p ** horizon} exceeds the cap {DIMENSION_CAP}"
        )
    gates = []
    raw_gates = doc["gates"]
    if not isinstance(raw_gates, list) or len(raw_gates) != horizon:
        raise ValidationError("gates must list one entry per step")
    for k, g in enumerate(raw_gates):
        if not isinstance(g, dict) or not isinstance(g.get("name"), str):
            raise ValidationError(f"gate {k + 1} must be an object with a 'name'")
        if g["name"] not in _GATE_KEYS:
            raise ValidationError(f"gate {k + 1}: unknown gate '{g['name']}'")
        where = f"gate {k + 1} ({g['name']})"
        _reject_unknown(g, {"name", "readout_phi"} | _GATE_KEYS[g["name"]], where)
        _gate(g, s, p, where)  # every value is checked by building the gate once
        gates.append(dict(g))
    initial = doc.get("initial_state", "ground")
    if isinstance(initial, dict):
        _reject_unknown(initial, {"system_entries"}, "initial_state")
        rho = _entries(initial, "system_entries", "initial_state")
        if rho.shape != (s, s):
            raise ValidationError(f"initial_state must be {s}x{s}, got {rho.shape}")
        try:
            State(rho)
        except ValueError as exc:
            raise ValidationError(f"initial_state: {exc}") from exc
    elif isinstance(initial, str):
        system_density(initial, s)  # checked by building it once, as the gates are
    else:
        raise ValidationError("initial_state must be a name or explicit entries")
    quantity = doc.get("quantity", {"name": "probe_z", "site": 1})
    if _quantity_name(quantity) != "probe_z":
        _quantity(quantity, s, p)  # checked by building it once, as the gates are
    conserved = doc.get("conserved", "system_z")
    if "conserved" in doc:
        _conserved(conserved, s)
    raw_thr = doc.get("thresholds", {})
    _reject_unknown(raw_thr, _THRESHOLD_KEYS, "thresholds")
    thresholds = Thresholds(**{k: _real(v, k) for k, v in raw_thr.items()})
    if not 0.0 < thresholds.weight_eps < 0.5:
        raise ValidationError(f"weight_eps must lie in (0, 0.5), got {thresholds.weight_eps}")
    seed = _integer(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    jumps = doc.get("jumps", {})
    _reject_unknown(jumps, _JUMPS_KEYS, "jumps")
    for key, number in (("drift_angle", _real), ("window", _integer)):
        if key in jumps:
            number(jumps[key], key)
    return Scenario(
        name=str(doc["name"]),
        system_dim=s,
        probe_dim=p,
        horizon=horizon,
        gates=tuple(gates),
        initial_state=initial,
        quantity=dict(quantity),
        conserved=conserved,
        thresholds=thresholds,
        seed=seed,
        runs=_count(doc.get("runs", 100), "runs"),
        steps=_count(doc["steps"], "steps") if "steps" in doc else None,
        jumps=dict(jumps),
        theta_filter=_real(doc.get("theta_filter", 0.0), "theta_filter"),
    )


def parse_scenario(path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    try:
        return parse_scenario_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def emit_scenario(scn: Scenario) -> dict:
    doc = {
        "name": scn.name,
        "system_dim": scn.system_dim,
        "probe_dim": scn.probe_dim,
        "horizon": scn.horizon,
        "gates": [dict(g) for g in scn.gates],
        "initial_state": scn.initial_state
        if isinstance(scn.initial_state, str)
        else {"system_entries": scn.initial_state["system_entries"]},
        "quantity": dict(scn.quantity),
        "thresholds": {"weight_eps": scn.thresholds.weight_eps},
        "seed": scn.seed,
        "runs": scn.runs,
    }
    if scn.conserved != "system_z":
        doc["conserved"] = scn.conserved
    if scn.steps is not None:
        doc["steps"] = scn.steps
    if scn.jumps:
        doc["jumps"] = dict(scn.jumps)
    if scn.theta_filter:
        doc["theta_filter"] = scn.theta_filter
    return doc


# ---------------------------------------------------------------------------
# builders


def _gate(g: dict, s: int, p: int, where: str) -> np.ndarray:
    """The unitary on system x probe of one gate entry of a scenario."""
    params = {}
    if g["name"] == "explicit":
        params["entries"] = _entries(g, "entries", where)
    for key, value in g.items():
        if key == "control_states":
            if not isinstance(value, list):
                raise ValidationError(f"{where}: control_states must be a list")
            params[key] = [_integer(a, f"{where}: a control state") for a in value]
            if not all(0 <= a < s for a in params[key]):
                raise ValidationError(f"{where}: control states must lie in 0..{s - 1}")
        elif key not in ("name", "entries"):
            params[key] = _real(value, f"{where}: {key}")
    return build_gate(g["name"], s, p, params)


def system_state_of(scn: Scenario) -> np.ndarray:
    if isinstance(scn.initial_state, str):
        return system_density(scn.initial_state, scn.system_dim)
    return _parse_complex_matrix(
        scn.initial_state["system_entries"], "initial_state"
    )


def _conserved(value, s: int) -> np.ndarray:
    """The conserved system quantity of a ``conserved`` entry: ``system_z``
    on a qubit, or explicit s x s Hermitian entries."""
    if isinstance(value, str):
        if value != "system_z":
            raise ValidationError(f"unknown conserved quantity '{value}'")
        if s != 2:
            raise ValidationError("system_z requires system_dim = 2")
        return np.array(SIGMA_Z)
    if not isinstance(value, dict):
        raise ValidationError("conserved must be a name or explicit entries")
    _reject_unknown(value, {"entries"}, "conserved")
    a = _entries(value, "entries", "conserved")
    if a.shape != (s, s):
        raise ValidationError(f"conserved must be {s}x{s}, got {a.shape}")
    if not _norm_within(a - dagger(a), DEFAULT_TOL):
        raise ValidationError("conserved quantity must be Hermitian")
    return a


def conserved_of(scn: Scenario) -> np.ndarray:
    return _conserved(scn.conserved, scn.system_dim)


def _quantity_name(q) -> str:
    """The name of a ``quantity`` entry, once its keys and site are checked.

    ``probe_z`` (the default name) takes only a ``site``; any other name
    also needs its ``spectrum`` and ``projections``.
    """
    if not isinstance(q, dict):
        raise ValidationError("quantity must be an object")
    name = q.get("name", "probe_z")
    if not isinstance(name, str):
        raise ValidationError(f"quantity name must be a string, got {name!r}")
    where = f"quantity ({name})"
    if name == "probe_z":
        _reject_unknown(q, {"name", "site"}, where)
    else:
        _reject_unknown(q, _QUANTITY_KEYS, where)
        for key in ("projections", "spectrum"):
            if key not in q:
                raise ValidationError(f"{where} needs '{key}'")
    _count(q.get("site", 1), f"{where}: site")
    return name


def _quantity(q: dict, s: int, p: int) -> PhysicalQuantity:
    """The recorded quantity of a ``quantity`` entry, on system x probe."""
    name = _quantity_name(q)
    site = q.get("site", 1)
    if name == "probe_z":
        return probe_pointer_quantity(s, p, site)
    where = f"quantity ({name})"
    spectrum, projections = q["spectrum"], q["projections"]
    if not isinstance(spectrum, list) or not isinstance(projections, list) or not projections:
        raise ValidationError(f"{where}: spectrum and projections must be non-empty lists")
    values = tuple(_real(v, f"{where}: a spectrum value") for v in spectrum)
    matrices = tuple(_parse_complex_matrix(m, f"{where}: projection") for m in projections)
    if any(m.shape != (s * p, s * p) for m in matrices):
        raise ValidationError(f"{where}: projections must be {s * p}x{s * p}, on system x probe")
    try:
        return PhysicalQuantity(name=name, spectrum=values, projections=matrices, site=site)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def quantity_of(scn: Scenario) -> PhysicalQuantity:
    return _quantity(scn.quantity, scn.system_dim, scn.probe_dim)


def build_model(scn: Scenario) -> ChainModel:
    gates = [
        _gate(g, scn.system_dim, scn.probe_dim, f"gate {k + 1}")
        for k, g in enumerate(scn.gates)
    ]
    rho_s = system_state_of(scn)
    init = chain_initial_state(rho_s, scn.system_dim, scn.probe_dim, scn.horizon)
    return ChainModel(scn.system_dim, scn.probe_dim, scn.horizon, gates, init)


def build_ndm(scn: Scenario, runs: int | None = None, steps: int | None = None) -> NdmScenario:
    return NdmScenario(
        system_dim=scn.system_dim,
        probe_dim=scn.probe_dim,
        gate=_gate(scn.gates[0], scn.system_dim, scn.probe_dim, "gate 1"),
        conserved=conserved_of(scn),
        quantity=quantity_of(scn),
        initial_system=State(system_state_of(scn)),
        runs=scn.runs if runs is None else runs,
        steps=(scn.steps or 25) if steps is None else steps,
        weight_eps=scn.thresholds.weight_eps,
    )


def bundled_scenario_path(name: str) -> Path:
    """Resolve a shipped scenario by bare name (e.g. 'cnot')."""
    pkg = resources.files("ethsim") / "scenarios" / f"{name}.json"
    if not pkg.is_file():
        raise ValidationError(f"no bundled scenario named '{name}'")
    return Path(str(pkg))


def resolve_scenario(spec: str) -> Scenario:
    path = Path(spec)
    if path.is_file():
        return parse_scenario(path)
    if spec.endswith(".json"):
        raise ParseError(f"scenario file not found: {spec}")
    return parse_scenario(bundled_scenario_path(spec))
