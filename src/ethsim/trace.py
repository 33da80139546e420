"""Deterministic trace records.

One JSON object per line, numbers with 17 significant digits, so identical
scenario + seed reproduces byte-identical files on any platform.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np


def fingerprint(density: np.ndarray) -> str:
    """16-byte hash of the density matrix rounded to 1e-10."""
    arr = np.round(np.ascontiguousarray(density, dtype=np.complex128), 10) + 0.0
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.shape[0]).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_fmt(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)}")


def json_line(record: dict) -> str:
    return _fmt(record)


@dataclass(frozen=True)
class TraceRecord:
    t: int
    event_labels: tuple[str, ...]
    weights: tuple[float, ...]
    chosen_label: str | None
    entropy: float
    state_fingerprint: str

    def to_line(self) -> str:
        return json_line(
            {
                "t": self.t,
                "event_labels": list(self.event_labels),
                "weights": list(self.weights),
                "chosen_label": self.chosen_label,
                "entropy": self.entropy,
                "state_fingerprint": self.state_fingerprint,
            }
        )
