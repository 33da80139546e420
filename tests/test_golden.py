"""Golden outputs: SHA-256 digests of CLI outputs.

``GOLDEN`` was pinned before the NDM runs were batched, ``CHAIN_GOLDEN``
before the clustering and Born-draw rules were merged into one function each,
``HAAR_GOLDEN`` before the operator-norm checks were first decided by the
Frobenius norm, ``GOLDEN["ndm_noisy_seed7"]`` and ``TRACE_GOLDEN`` before the
``ndm`` CSV was written from shared string pieces, and ``GOLDEN["jumps_seed7"]``,
``GOLDEN["ndm_noisy_lone_run"]`` and ``WEAK_BATCH_GOLDEN`` before each run was
walked through the state graph in Python scalars, and ``SVG_GOLDEN`` before
the ``ndm --svg`` frequency curve moved from the report into the CLI.  These changes altered how
outputs are computed, not what they are, so these files must stay
byte-identical.  The digests depend on the exact floating-point results of
NumPy and its BLAS (CSVs and traces print weights and the purification metric
to 17 digits).
"""

import hashlib
import json

import numpy as np
import pytest

from ethsim.cli import main
from ethsim.indirect import weak_measurement_trajectories
from ethsim.scenario import build_ndm, resolve_scenario
from ethsim.trace import TraceRecord

GOLDEN = {
    "ndm_noisy": (
        ["ndm", "--scenario", "ndm_noisy", "--seed", "0", "--runs", "100", "--steps", "400"],
        "11c35cab5494ec61aa95e345c974ea67fe2009baa17152dafb4e46cb789c1699",
        "8d8b22274367ce2f55a6085e620fb6fd3e5b0e2c4aef80af51ec03098e77de96",
    ),
    "ndm": (
        ["ndm", "--scenario", "ndm", "--seed", "5", "--runs", "200", "--steps", "25"],
        "c0b85b0c692e1438444d2379990b40c1ddd1bf84b1392b7fe770921471dac7e3",
        None,
    ),
    "jumps": (
        ["jumps", "--scenario", "jumps", "--seed", "0", "--steps", "2000"],
        "8cc34fbafbfa8562597b5d40f1df9718684c9259218ad02876fa6b3cd606f395",
        "591efbe512a8f7b099e50ae1f7ff7d46a18c7a8dafde0068b63ea8a755455250",
    ),
    "ndm_noisy_seed7": (
        ["ndm", "--scenario", "ndm_noisy", "--seed", "7", "--runs", "100", "--steps", "400"],
        "e7e9ac0f4cf24f69033e6916f285d57cc4957adea2fa4aded87643a4f20a8ec4",
        "8d8b22274367ce2f55a6085e620fb6fd3e5b0e2c4aef80af51ec03098e77de96",
    ),
    "jumps_seed7": (
        ["jumps", "--scenario", "jumps", "--seed", "7", "--steps", "2000"],
        "3f09b736319706009487a1d6b0aca97e848175aeb64b48991b71f6ff0639aa02",
        "c100efd4121a6ddab505c2b4eb8775cc34c6393dc859232876e1abd8ae17abe4",
    ),
    # a lone run meets 7 states, so its state graph fills and starts again
    "ndm_noisy_lone_run": (
        ["ndm", "--scenario", "ndm_noisy", "--seed", "1", "--runs", "1", "--steps", "400"],
        "2abec8205721d372ae12b3f40dbae171e1ae93813620b002c42429ec47819a68",
        "66f98711b6abdff38df591527dfee7138821c41a9383c50079aa9e88aa7a5d8a",
    ),
}

# name -> (argv, digest of the --trace JSONL)
TRACE_GOLDEN = {
    "ndm_noisy": (
        ["ndm", "--scenario", "ndm_noisy", "--seed", "0", "--runs", "100", "--steps", "400"],
        "d146f4eaa65b5528d4e9a053cb5601b17daacdcd9e608c6cf57e87da4785f9e5",
    ),
}


# name -> (argv, digest of the --svg chart): run 0's running pointer frequencies
SVG_GOLDEN = {
    "ndm_noisy": (
        ["ndm", "--scenario", "ndm_noisy", "--seed", "0", "--runs", "100", "--steps", "400"],
        "85f0ef54947d54d36ddd2d58627818fa30f694b2145df06bc8344494eae8d917",
    ),
    "ndm": (
        ["ndm", "--scenario", "ndm", "--seed", "5", "--runs", "200", "--steps", "25"],
        "9c5a84d9e6dad6cc854e085a1ed8e10ebd0808f8ab955eb49b02f873f2ce8019",
    ),
}


@pytest.mark.parametrize("name", sorted(SVG_GOLDEN))
def test_cli_svg_charts_match_pinned_digests(name, tmp_path):
    argv, svg_digest = SVG_GOLDEN[name]
    svg = tmp_path / f"{name}.svg"
    assert main(argv + ["--svg", str(svg)]) == 0
    assert sha256(svg.read_bytes()) == svg_digest


# (command, scenario) -> digests of the --out CSV, the --trace JSONL and
# stdout; None where the command writes no such file.  simulate runs 50
# histories from the scenario's seed.
CHAIN_GOLDEN = {
    ("simulate", "cnot"): (
        "8b0b0204a89749d9eaafde5c20ac6116325ff48a59010ef6b062f66a9a264fc4",
        "d3cb6e95e4ef0bbe3973c1fcb6fa186606c48294e08a90525cb79081046b11fd",
        "d527af635804f3f0dbbbd9483158adafd21239fe8ebcdcce857bdc42c525f01e",
    ),
    ("tree", "cnot"): (
        "31440090244bf01444923ca3184ab8f09a5420c318062cb1f065eb104bfe202a",
        "882e87ca97dcf95da883949fb8e311704696d73a8d22553dc8211bd038025536",
        "c45bea93eb2a83da6d7d0ed2cfc513f341d71faa3b61ba2bc10a005d7809cf7d",
    ),
    ("verify", "cnot"): (
        None,
        None,
        "27bf73bf56ad4011ee0a1cdcc6cd6dfa3d70c4943faf7fca213aeee69c9007e6",
    ),
    ("simulate", "cnot_t3"): (
        "308dcdbb586563c8f0ba1682a4dbf8e651e434921943775e8bca48ed5ab3a1e6",
        "a0aec1187d0f605e84c1bfb570d1805b21d26836d00b073a62572ded48a34e11",
        "d527af635804f3f0dbbbd9483158adafd21239fe8ebcdcce857bdc42c525f01e",
    ),
    ("tree", "cnot_t3"): (
        "dd08181561a9ebc27ea28fbba721a6db99faa5f6d3359c8bb82a0242f0f904bf",
        "fef59b2241dd9f6a716f804c984294b800afd497d8c78b793b28aba4af96b942",
        "e5ee12fff487103f403a195f728086f66b6b0bddfaae9dbfcc718e241d2f3c38",
    ),
    ("verify", "cnot_t3"): (
        None,
        None,
        "27bf73bf56ad4011ee0a1cdcc6cd6dfa3d70c4943faf7fca213aeee69c9007e6",
    ),
    ("simulate", "partial_swap"): (
        "5af5fc3a2ce2d0319ddc8096df6901a93c17573a2a2480212feb81e7e0778733",
        "4adcf8363be804a8695f318d1b145400b10c2541491d11405edbb4573c25c4c9",
        "215bfb24e6202232ec9a5e962fa81264c22c98ce333ef4d1a3aff5fd14354ae8",
    ),
    ("tree", "partial_swap"): (
        "c17893e4f9d8438e21823c12e20afbdabe25e834d75457fad85079d75dd86885",
        "96444be28ac1ccffa7242687fd4a1b307b9c81731c1ff61f60c6d676bc3211bb",
        "19313f90f6de11a176847a46dbdc581731ead38356d7fc46abcd2362b4573d19",
    ),
    ("verify", "partial_swap"): (
        None,
        None,
        "27bf73bf56ad4011ee0a1cdcc6cd6dfa3d70c4943faf7fca213aeee69c9007e6",
    ),
    ("simulate", "commuting"): (
        "dfcf617a0815e13b086845f8759a06f8a452a44cbf8f44b1fd4a498bf301c633",
        "4cf8ca6a97aea8124de9c76e5dc1fb4283609db535134d633443eb5df3efd48b",
        "d527af635804f3f0dbbbd9483158adafd21239fe8ebcdcce857bdc42c525f01e",
    ),
    ("tree", "commuting"): (
        "0f8ec3bd3f45b1a353804319e8aaef9fdcc0074f0d25666b1f78444ce47b8a1e",
        "4086016d58c3421adc7cb11b6ac198570866219c6415162dc8e759c23987e05c",
        "c45bea93eb2a83da6d7d0ed2cfc513f341d71faa3b61ba2bc10a005d7809cf7d",
    ),
    ("verify", "commuting"): (
        None,
        None,
        "27bf73bf56ad4011ee0a1cdcc6cd6dfa3d70c4943faf7fca213aeee69c9007e6",
    ),
    ("simulate", "epr"): (
        "a21b0eeadc493831d8c94b1cbc9e50c02748fc287a59be1b8a072fc0763a44b7",
        "00515211f4e38ed8f5e9d09dfebbea2d4aaac48e3cad10cc81e73287d12cd9a4",
        "44e37e54f27efd1e4a7652d8f627a27cd47ea8c9637e57430e1f6014b8889703",
    ),
    ("tree", "epr"): (
        "17db644c4580a3a40eaecf6a1cc1ddc99cfddb33c97fb15ee92171e2361e1eee",
        "d9c66447f4cb15be20fd01eccf5cf9fab55c7aa6d5ce80b4cbf5dfac666b140a",
        "117633b6bb68fc36b3040841ab403347bcf66feb82cdbba7e223ec91fb9011ab",
    ),
    ("verify", "epr"): (
        None,
        None,
        "27bf73bf56ad4011ee0a1cdcc6cd6dfa3d70c4943faf7fca213aeee69c9007e6",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_outputs_match_pinned_digests(name, tmp_path, capsys):
    argv, csv_digest, stdout_digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == csv_digest
    if stdout_digest is not None:
        assert sha256(capsys.readouterr().out.encode()) == stdout_digest


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_cli_traces_match_pinned_digests(name, tmp_path):
    argv, trace_digest = TRACE_GOLDEN[name]
    trace = tmp_path / f"{name}.jsonl"
    assert main(argv + ["--trace", str(trace)]) == 0
    assert sha256(trace.read_bytes()) == trace_digest


# The batch of the weak-measurement acceptance test: 100 trajectories of
# 2000 steps, drift 0.05, window 25, seeds 0..99.  Digests of the JSON list
# of each trajectory's pointer values and of its window estimates.
WEAK_BATCH_GOLDEN = (
    "b50a2cced7a948736c6825654d917270624830a1b590f30bd5bf8d8ff11be899",
    "25fcd9acafdc496e7c44f8367eaf0e6d83b1e72490a1cdbdf2fee72b2373e87b",
)


def test_weak_measurement_batch_matches_pinned_digests():
    scn = build_ndm(resolve_scenario("jumps"), runs=1, steps=2000)
    batch = weak_measurement_trajectories(scn, 0.05, 2000, 25, range(100))
    etas_digest, estimates_digest = WEAK_BATCH_GOLDEN
    assert sha256(json.dumps([t.etas for t in batch]).encode()) == etas_digest
    assert sha256(json.dumps([t.window_estimates for t in batch]).encode()) == estimates_digest


@pytest.mark.parametrize(
    "command, scenario", sorted(CHAIN_GOLDEN), ids=lambda v: v
)
def test_chain_outputs_match_pinned_digests(command, scenario, tmp_path, capsys):
    csv_digest, trace_digest, stdout_digest = CHAIN_GOLDEN[command, scenario]
    argv = [command, "--scenario", scenario]
    if command == "simulate":
        argv += ["--runs", "50"]
    out, trace = tmp_path / "out.csv", tmp_path / "trace.jsonl"
    if csv_digest is not None:
        argv += ["--out", str(out), "--trace", str(trace)]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest
    if csv_digest is not None:
        assert sha256(out.read_bytes()) == csv_digest
        assert sha256(trace.read_bytes()) == trace_digest


# A generic spectrum: a d=32 chain (s=2, p=2, T=4) with Haar-random explicit
# gates and a random full-rank system state, built from a fixed seed.  The
# bundled scenarios have structured gates, so only this one pins the sampled
# path on a spectrum without symmetries.
HAAR_SEED = 20191905


def _haar_chain_text(seed: int) -> str:
    rng = np.random.default_rng(seed)

    def unitary(n):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    def pairs(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    doc = {
        "name": "haar_chain",
        "system_dim": 2,
        "probe_dim": 2,
        "horizon": 4,
        "gates": [{"name": "explicit", "entries": pairs(unitary(4))} for _ in range(4)],
        "initial_state": {"system_entries": pairs(rho / np.trace(rho).real)},
        "seed": seed,
    }
    return json.dumps(doc, sort_keys=True)


# command -> digests of the --out CSV, the --trace JSONL and stdout
HAAR_GOLDEN = {
    "simulate": (
        "f8f783a740c83a90e417a0b76110c41799584f174a30ff79ae1461c7c4d478e9",
        "b8bc5403cfacb3029c41fc22075ba6018f538e88fe0421ca4af578d752815ede",
        "b1ac87f969da01a90660cc390bac4eb8b07d494e896c218f7a8fe0eeae51b29d",
    ),
    "tree": (
        "d27cfe60e4b82aaad799a9124206f8b8ee8e98d61245be78f425a1dc970ca238",
        "c22ea3ffc253bdee9fca963fc6713cc602391892cc7894727bb1548fee42cb32",
        "c2b7a6c78d44b4fe37ecfb1d502d03b229e6dc0478c76de5881010e27b049171",
    ),
}


@pytest.mark.parametrize("command", sorted(HAAR_GOLDEN))
def test_haar_chain_outputs_match_pinned_digests(command, tmp_path, capsys):
    csv_digest, trace_digest, stdout_digest = HAAR_GOLDEN[command]
    scenario = tmp_path / "haar_chain.json"
    scenario.write_text(_haar_chain_text(HAAR_SEED))
    out, trace = tmp_path / "out.csv", tmp_path / "trace.jsonl"
    argv = [command, "--scenario", str(scenario), "--out", str(out), "--trace", str(trace)]
    if command == "simulate":
        argv += ["--runs", "50"]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest
    assert sha256(out.read_bytes()) == csv_digest
    assert sha256(trace.read_bytes()) == trace_digest


# simulate formats each distinct history step once, so an output asked for
# alone must match the one written beside the other
@pytest.mark.parametrize("flag", ["--trace", "--out"])
@pytest.mark.parametrize("scenario", ["partial_swap", "haar"])
def test_simulate_output_alone_matches_combined_digest(flag, scenario, tmp_path, capsys):
    if scenario == "haar":
        path = tmp_path / "haar_chain.json"
        path.write_text(_haar_chain_text(HAAR_SEED))
        csv_digest, trace_digest, stdout_digest = HAAR_GOLDEN["simulate"]
        scenario = str(path)
    else:
        csv_digest, trace_digest, stdout_digest = CHAIN_GOLDEN["simulate", scenario]
    written = tmp_path / "written"
    argv = ["simulate", "--scenario", scenario, "--runs", "50", flag, str(written)]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest
    expected = trace_digest if flag == "--trace" else csv_digest
    assert sha256(written.read_bytes()) == expected


def test_simulate_formats_each_distinct_step_once(tmp_path, monkeypatch, capsys):
    calls = []
    to_line = TraceRecord.to_line

    def counted(record):
        calls.append(record)
        return to_line(record)

    monkeypatch.setattr(TraceRecord, "to_line", counted)
    trace = tmp_path / "trace.jsonl"
    assert main(["simulate", "--scenario", "cnot_t3", "--runs", "50", "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 150
    assert len(set(lines)) == 6
    assert len(calls) == 6
