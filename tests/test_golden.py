"""Golden outputs: SHA-256 digests of CLI outputs pinned before the NDM runs
were batched.  Batching changed how the runs are computed, not what they
are, so these files must stay byte-identical.  The digests depend on the
exact floating-point results of NumPy and its BLAS (the CSV prints the
purification metric to 17 digits).
"""

import hashlib

import pytest

from ethsim.cli import main

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
