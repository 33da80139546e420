import csv
import dataclasses
import gc
import json

import numpy as np
import pytest

from ethsim.algebra import StarAlgebra
from ethsim.chain import ChainModel
from ethsim.cli import main
from ethsim.errors import ParseError, ValidationError
from ethsim.scenario import (
    build_model,
    build_ndm,
    emit_scenario,
    parse_scenario,
    parse_scenario_dict,
    resolve_scenario,
)

MINIMAL = {
    "name": "minimal",
    "system_dim": 2,
    "probe_dim": 2,
    "horizon": 2,
    "gates": [{"name": "cnot"}, {"name": "cnot"}],
}


class TestParsing:
    def test_minimal_defaults(self):
        scn = parse_scenario_dict(dict(MINIMAL))
        assert [f.name for f in dataclasses.fields(scn.thresholds)] == ["weight_eps"]
        assert scn.thresholds.weight_eps == 1e-8
        assert scn.seed == 0
        assert scn.initial_state == "ground"

    def test_probe_dim_zero_rejected(self):
        doc = dict(MINIMAL, probe_dim=0)
        with pytest.raises(ValidationError, match="probe_dim must be >= 1"):
            parse_scenario_dict(doc)

    def test_dimension_cap_rejected(self):
        doc = dict(MINIMAL, horizon=12, gates=[{"name": "cnot"}] * 12)
        with pytest.raises(ValidationError, match="cap"):
            parse_scenario_dict(doc)

    @pytest.mark.parametrize("key, value", [("runs", 0), ("runs", -3), ("steps", 0)])
    def test_non_positive_runs_or_steps_rejected(self, key, value):
        with pytest.raises(ValidationError, match=f"{key} must be >= 1"):
            parse_scenario_dict(dict(MINIMAL, **{key: value}))

    def test_unknown_key_rejected(self):
        doc = dict(MINIMAL, flux_capacitor=1)
        with pytest.raises(ValidationError, match="unknown keys"):
            parse_scenario_dict(doc)

    @pytest.mark.parametrize("key", ["svd_tol", "delta"])
    def test_unread_threshold_keys_rejected(self, key):
        # No computation reads these, so a file setting them is refused.
        doc = dict(MINIMAL, thresholds={"weight_eps": 1e-8, key: 1e-3})
        match = f"unknown keys in thresholds: \\['{key}'\\]"
        with pytest.raises(ValidationError, match=match):
            parse_scenario_dict(doc)

    def test_unknown_gate_key_rejected(self):
        doc = dict(MINIMAL, gates=[{"name": "cnot", "speed": 3}, {"name": "cnot"}])
        with pytest.raises(ValidationError, match="unknown keys"):
            parse_scenario_dict(doc)

    def test_parse_error_carries_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n  broken\n}')
        with pytest.raises(ParseError, match="bad.json:2"):
            parse_scenario(bad)

    def test_round_trip(self):
        for name in ("cnot", "partial_swap", "ndm", "epr", "jumps"):
            scn = resolve_scenario(name)
            again = parse_scenario_dict(emit_scenario(scn))
            assert again == scn

    def test_explicit_state_entries(self):
        doc = dict(
            MINIMAL,
            initial_state={
                "system_entries": [[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.75, 0.0]]]
            },
        )
        scn = parse_scenario_dict(doc)
        m = build_model(scn)
        det = m.detect_event_reduced(m.initial_state, 1)
        assert det.actual
        np.testing.assert_allclose(det.weights[:2], [0.75, 0.25], atol=1e-12)

    def test_bundled_scenarios_build(self):
        for name in ("cnot", "cnot_t3", "cnot_t4", "commuting", "partial_swap", "epr"):
            model = build_model(resolve_scenario(name))
            assert model.dim >= 4
        for name in ("ndm", "ndm_noisy", "jumps"):
            build_ndm(resolve_scenario(name))


class TestCliCommands:
    def test_simulate_deterministic_traces(self, tmp_path):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["simulate", "--scenario", "cnot", "--trace", str(t1)]) == 0
        assert main(["simulate", "--scenario", "cnot", "--trace", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()
        rec = json.loads(t1.read_text().splitlines()[0])
        assert set(rec) == {
            "t",
            "event_labels",
            "weights",
            "chosen_label",
            "entropy",
            "state_fingerprint",
        }

    def test_simulate_seed_changes_nothing_structural(self, tmp_path):
        out = tmp_path / "s.csv"
        assert (
            main(
                ["simulate", "--scenario", "cnot", "--runs", "5", "--seed", "9",
                 "--out", str(out)]
            )
            == 0
        )
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 10  # 5 runs x horizon 2
        assert {r["run"] for r in rows} == {"0", "1", "2", "3", "4"}

    def test_tree_prune_reports_mass(self, tmp_path, capsys):
        assert main(["tree", "--scenario", "cnot", "--prune", "0.99"]) == 0
        out = capsys.readouterr().out
        assert "pruned_mass = 1" in out

    def test_tree_csv(self, tmp_path):
        out = tmp_path / "tree.csv"
        assert main(["tree", "--scenario", "cnot", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        total = sum(float(r["weight"]) for r in rows)
        assert abs(total - 1.0) < 1e-9

    def test_verify_ok(self, capsys):
        for name in ("cnot", "cnot_t4"):
            assert main(["verify", "--scenario", name]) == 0
            out = capsys.readouterr().out
            assert out.count("PASS") == 8
            assert "FAIL" not in out

    def test_verify_frees_its_model_without_gc(self, capsys):
        # Reference cycles would keep the model and its cached future
        # algebras alive until a full collection; DEBUG_SAVEALL keeps every
        # object such a collection finds so the test can look at them.
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(["verify", "--scenario", "cnot"]) == 0
            gc.collect()
            leaked = [
                type(o).__name__
                for o in gc.garbage
                if isinstance(o, (StarAlgebra, ChainModel))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []

    def test_verify_all_bundled(self):
        for name in ("commuting", "partial_swap"):
            assert main(["verify", "--scenario", name]) == 0

    def test_ndm_csv_schema(self, tmp_path):
        out = tmp_path / "ndm.csv"
        assert (
            main(
                ["ndm", "--scenario", "ndm", "--runs", "20", "--steps", "10",
                 "--out", str(out)]
            )
            == 0
        )
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 200
        assert set(rows[0]) == {
            "run",
            "step",
            "eta",
            "estimated_alpha",
            "purification_metric",
        }

    def test_jumps_runs(self, tmp_path):
        out = tmp_path / "jumps.csv"
        assert (
            main(["jumps", "--scenario", "jumps", "--steps", "500", "--out", str(out)])
            == 0
        )
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 500 // 25

    def test_epr_demo(self, capsys):
        assert main(["epr-demo", "--runs", "2000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "empirical_correlation" in out

    def test_delta_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scenario", "cnot", "--delta", "0.01"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --delta" in capsys.readouterr().err

    def test_missing_scenario_is_error(self, capsys):
        assert main(["simulate"]) == 1

    def test_bad_scenario_path(self, capsys):
        assert main(["simulate", "--scenario", "/nope/missing.json"]) == 1

    def test_svg_output(self, tmp_path):
        svg = tmp_path / "chart.svg"
        assert (
            main(
                ["ndm", "--scenario", "ndm", "--runs", "5", "--steps", "10",
                 "--svg", str(svg)]
            )
            == 0
        )
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    REJECTED = [
        (["ndm", "--scenario", "ndm", "--runs", "-1"], "--runs must be >= 1"),
        (["ndm", "--scenario", "ndm", "--runs", "0"], "--runs must be >= 1"),
        (["ndm", "--scenario", "ndm", "--steps", "0"], "--steps must be >= 1"),
        (["simulate", "--scenario", "cnot", "--runs", "-2"], "--runs must be >= 1"),
        (["jumps", "--scenario", "jumps", "--steps", "-5"], "--steps must be >= 1"),
        # fewer steps than one window leave no window to classify
        (["jumps", "--scenario", "jumps", "--steps", "20"], "steps must be >= the window (25)"),
    ]

    @pytest.mark.parametrize(
        "argv, message", REJECTED, ids=[f"argv{i}" for i in range(len(REJECTED))]
    )
    def test_non_positive_runs_or_steps_rejected(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""


class TestTraceFormat:
    def test_seventeen_digit_floats(self, tmp_path):
        t = tmp_path / "t.jsonl"
        main(["simulate", "--scenario", "cnot", "--trace", str(t)])
        line = t.read_text().splitlines()[0]
        assert "0.68117887723833681" in line

    def test_fingerprint_stability(self):
        from ethsim.trace import fingerprint

        rho = np.diag([0.3, 0.7]).astype(complex)
        f1 = fingerprint(rho)
        f2 = fingerprint(rho + 1e-13)  # below the rounding grid
        assert f1 == f2
        f3 = fingerprint(rho + 1e-6)
        assert f1 != f3
