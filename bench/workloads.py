"""Workload definitions for the ethsim benchmark.

Each workload is one ``ethsim`` CLI command line, a unit of work, and the
checks its outputs must pass.  Inputs are made from the workload seed only;
the program receives the generated files and the ``--seed`` value.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Chain shape of the generated ``histories`` scenario: s=2, p=2, T=4, d=32.
GEN_SYSTEM_DIM = 2
GEN_PROBE_DIM = 2
GEN_HORIZON = 4

# Invocation sizes.  ``histories`` and ``jumps`` take about half a second
# per invocation.  ``ndm`` uses the width that ``ndm_noisy`` declares as its
# default and that the acceptance test runs (100 runs x 400 steps, about
# 12 s), so a run-batched kernel sees a batch of 100.
HISTORY_RUNS = 50
NDM_RUNS = 100
NDM_STEPS = 400
# The Born check runs once per benchmark run, untimed, on many short runs:
# at 400 runs a 6-SE bound catches a sector weight off by 0.14.  At 25 steps
# the classified counts equal those at 100 steps (seeds 0-3).
BORN_RUNS = 400
BORN_STEPS = 25
JUMP_STEPS = 2000
# cnot_t4 (d=32) takes about 45 s per verify, longer than a whole run;
# cnot_t3 (d=16) exercises the same generic algebra route in about 0.5 s.
ORACLE_SCENARIO = "cnot_t3"
ORACLE_SUITES = 8

# Binomial deviations beyond this many standard errors fail a check.  At six
# the false-alarm chance per compared count is about 2e-9, negligible over
# every count of every run the benchmark makes.
CHECK_Z = 6.0


class CheckFailed(Exception):
    """An invocation's outputs are wrong."""


# ---------------------------------------------------------------------------
# seeded scenario generator (plain numpy, independent of ethsim.linalg)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _full_rank_density(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def chain_scenario_text(seed: int) -> str:
    """Strict scenario JSON: Haar-random explicit gates, random full-rank state."""
    rng = np.random.default_rng(seed)
    sp = GEN_SYSTEM_DIM * GEN_PROBE_DIM
    gates = [
        {"name": "explicit", "entries": _pairs(_haar_unitary(sp, rng))}
        for _ in range(GEN_HORIZON)
    ]
    doc = {
        "name": f"bench_chain_seed{seed}",
        "system_dim": GEN_SYSTEM_DIM,
        "probe_dim": GEN_PROBE_DIM,
        "horizon": GEN_HORIZON,
        "gates": gates,
        "initial_state": {"system_entries": _pairs(_full_rank_density(GEN_SYSTEM_DIM, rng))},
        "seed": seed,
    }
    return json.dumps(doc, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# output checks


def _binomial_ok(count: int, n: int, p: float) -> bool:
    """``count`` of ``n`` draws is consistent with probability ``p``."""
    return abs(count - n * p) <= CHECK_Z * math.sqrt(n * p * (1.0 - p)) + 1.0


def _printed(stdout: str, key: str) -> str:
    m = re.search(rf"^{re.escape(key)}\s*=\s*(.*)$", stdout, re.MULTILINE)
    if m is None:
        raise CheckFailed(f"'{key}' missing from the output")
    return m.group(1)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _take_text(path: Path) -> str:
    """Read an output file and remove it, so the next check cannot see it."""
    text = path.read_text()
    path.unlink()
    return text


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


@dataclass
class Invocation:
    """What one ``ethsim.cli.main`` call left behind."""

    code: int
    stdout: str


class Workload:
    """One CLI command line, its unit of work and its output checks.

    ``prepare`` writes the inputs into ``work`` from the workload seed and
    fixes ``argv``; ``check`` raises ``CheckFailed`` on wrong outputs and
    returns a digest of the discrete outputs, which must repeat exactly
    across the invocations of one run.
    """

    name = ""
    unit = ""
    builder = "model"  # setup_s builds the chain model or the NDM scenario
    units = 1
    warmed_by_prepare = False  # prepare already ran the same code untimed
    argv: list[str]
    scenario: str

    def prepare(self, seed: int, work: Path, cli_main) -> None:
        raise NotImplementedError

    def check(self, inv: Invocation) -> str:
        raise NotImplementedError

    def actual_event_ratio(self) -> float:
        return 0.0


class Histories(Workload):
    name = "histories"
    unit = "history"
    runs = HISTORY_RUNS

    @property
    def units(self):
        return self.runs

    def prepare(self, seed, work, cli_main):
        self.scenario = str(work / "chain.json")
        Path(self.scenario).write_text(chain_scenario_text(seed))
        self._trace = work / "trace.jsonl"
        self.argv = [
            "simulate", "--scenario", self.scenario, "--seed", str(seed),
            "--runs", str(self.runs), "--trace", str(self._trace),
        ]
        tree_csv = work / "tree.csv"
        inv = call(cli_main, ["tree", "--scenario", self.scenario, "--out", str(tree_csv)])
        if inv.code != 0:
            raise CheckFailed(f"tree exited with {inv.code}")
        self.exact = {row["path"]: float(row["weight"]) for row in _csv_rows(_take_text(tree_csv))}
        # The generator's promise: an actual event at every step.
        if len(self.exact) != GEN_PROBE_DIM**GEN_HORIZON or any(
            "-" in path.split("/") for path in self.exact
        ):
            raise CheckFailed(f"generated chain does not branch at every step: {sorted(self.exact)}")
        self._events = 0.0

    def check(self, inv):
        if inv.code != 0:
            raise CheckFailed(f"simulate exited with {inv.code}")
        records = []
        for line in _take_text(self._trace).splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"trace line does not parse: {exc}") from exc
        if len(records) != self.runs * GEN_HORIZON:
            raise CheckFailed(f"{len(records)} trace lines for {self.runs} runs")
        labels = [r["chosen_label"] for r in records]
        counts: dict[str, int] = {}
        for k in range(0, len(labels), GEN_HORIZON):
            path = "/".join(lab or "-" for lab in labels[k : k + GEN_HORIZON])
            counts[path] = counts.get(path, 0) + 1
        unknown = set(counts) - set(self.exact)
        if unknown:
            raise CheckFailed(f"sampled paths absent from the exact tree: {sorted(unknown)}")
        for path, weight in self.exact.items():
            if not _binomial_ok(counts.get(path, 0), self.runs, weight):
                raise CheckFailed(
                    f"path {path}: {counts.get(path, 0)} of {self.runs} vs weight {weight:.4f}"
                )
        self._events = sum(lab is not None for lab in labels) / len(labels)
        return _digest(labels, [r["state_fingerprint"] for r in records])

    def actual_event_ratio(self):
        return self._events


class Ndm(Workload):
    name = "ndm"
    unit = "probe step"
    builder = "ndm"
    scenario = "ndm_noisy"
    runs = NDM_RUNS
    steps = NDM_STEPS
    born_runs = BORN_RUNS
    born_steps = BORN_STEPS
    warmed_by_prepare = True

    @property
    def units(self):
        return self.runs * self.steps

    def _argv(self, seed, runs, steps):
        return [
            "ndm", "--scenario", self.scenario, "--seed", str(seed),
            "--runs", str(runs), "--steps", str(steps),
        ]

    def prepare(self, seed, work, cli_main):
        self._out = work / "ndm.csv"
        self.argv = self._argv(seed, self.runs, self.steps) + ["--out", str(self._out)]
        inv = call(cli_main, self._argv(seed, self.born_runs, self.born_steps))
        if inv.code != 0:
            raise CheckFailed(f"ndm exited with {inv.code}")
        self.check_born(inv, self.born_runs)

    @staticmethod
    def check_born(inv, runs):
        """The classified sectors of ``runs`` runs follow ``born_exact``."""
        counts = json.loads(_printed(inv.stdout, "classified_counts"))
        born = json.loads(_printed(inv.stdout, "born_exact"))
        if sum(counts) != runs or len(counts) != len(born):
            raise CheckFailed(f"classified_counts {counts} for {runs} runs")
        for c, p in zip(counts, born):
            if not _binomial_ok(c, runs, p):
                raise CheckFailed(f"classified {counts} of {runs} vs Born {born}")

    def check(self, inv):
        if inv.code != 0:
            raise CheckFailed(f"ndm exited with {inv.code}")
        counts = json.loads(_printed(inv.stdout, "classified_counts"))
        if sum(counts) != self.runs:
            raise CheckFailed(f"classified_counts {counts} for {self.runs} runs")
        rows = _csv_rows(_take_text(self._out))
        if len(rows) != self.units:
            raise CheckFailed(f"{len(rows)} CSV rows for {self.runs}x{self.steps} steps")
        return _digest(counts, [(r["eta"], r["estimated_alpha"]) for r in rows])


class Jumps(Workload):
    name = "jumps"
    unit = "step"
    builder = "ndm"
    scenario = "jumps"
    steps = JUMP_STEPS

    @property
    def units(self):
        return self.steps

    def prepare(self, seed, work, cli_main):
        self._out = work / "jumps.csv"
        self.argv = [
            "jumps", "--scenario", self.scenario, "--seed", str(seed),
            "--steps", str(self.steps), "--out", str(self._out),
        ]

    def check(self, inv):
        if inv.code != 0:
            raise CheckFailed(f"jumps exited with {inv.code}")
        flip = np.array(json.loads(_printed(inv.stdout, "flip_matrix")))
        # printed rounded to 8 digits, so rows sum to 1 within a few 1e-9
        if flip.ndim != 2 or np.any(flip < 0.0) or np.abs(flip.sum(axis=1) - 1.0).max() > 1e-6:
            raise CheckFailed(f"flip_matrix is not row-stochastic: {flip.tolist()}")
        window = int(_printed(inv.stdout, "window"))
        estimates = [r["estimated_alpha"] for r in _csv_rows(_take_text(self._out))]
        if len(estimates) != self.steps // window:
            raise CheckFailed(f"{len(estimates)} window estimates for {self.steps} steps")
        return _digest(estimates, _printed(inv.stdout, "jumps"))


class Oracle(Workload):
    name = "oracle"
    unit = "verification"
    scenario = ORACLE_SCENARIO

    def prepare(self, seed, work, cli_main):
        self.argv = ["verify", "--scenario", self.scenario]

    def check(self, inv):
        passed = [line for line in inv.stdout.splitlines() if line.startswith("PASS ")]
        if inv.code != 0 or len(passed) != ORACLE_SUITES:
            raise CheckFailed(f"verify exited with {inv.code} after {len(passed)} PASS lines")
        return _digest(inv.stdout)


WORKLOADS = {w.name: w for w in (Histories, Ndm, Jumps, Oracle)}


def call(cli_main, argv) -> Invocation:
    """Run one CLI command in-process, capturing what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return Invocation(code, buf.getvalue())
