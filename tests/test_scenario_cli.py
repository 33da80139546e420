import csv
import dataclasses
import gc
import io
import json

import numpy as np
import pytest

from ethsim import algebra as alg
from ethsim import histories as hist
from ethsim.algebra import StarAlgebra
from ethsim.chain import GATE_BUILDERS, ChainModel, build_gate, embed_system_probe
from ethsim.cli import _ndm_csv, main
from ethsim.errors import ParseError, ValidationError
from ethsim.indirect import MeasurementProtocol, NdmRun
from ethsim.scenario import (
    _GATE_KEYS,
    build_model,
    build_ndm,
    bundled_scenario_path,
    emit_scenario,
    parse_scenario,
    parse_scenario_dict,
    quantity_of,
    resolve_scenario,
)

MINIMAL = {
    "name": "minimal",
    "system_dim": 2,
    "probe_dim": 2,
    "horizon": 2,
    "gates": [{"name": "cnot"}, {"name": "cnot"}],
}


def _real_pairs(diagonal):
    return [[[float(v) if i == j else 0.0, 0.0] for j in range(len(diagonal))] for i, v in enumerate(diagonal)]


# two projections on system x probe (d = 4) that partition unity
HALVES = [_real_pairs([1, 1, 0, 0]), _real_pairs([0, 0, 1, 1])]

# (keys replacing those of MINIMAL, the start of the error message): each a
# value that no run can take, rejected when the scenario is parsed
MALFORMED = [
    ({"gates": [{"name": "cnot", "theta": 0.3}] * 2}, "unknown keys in gate 1 (cnot): ['theta']"),
    (
        {"gates": [{"name": "partial_swap", "control_states": [1]}] * 2},
        "unknown keys in gate 1 (partial_swap): ['control_states']",
    ),
    ({"gates": [{"name": "explicit"}] * 2}, "gate 1 (explicit) needs 'entries'"),
    ({"gates": [{"name": "warp"}] * 2}, "gate 1: unknown gate 'warp'"),
    ({"gates": [{"name": "cnot", "control_states": [2]}] * 2}, "gate 1 (cnot): control states"),
    ({"gates": [{"name": "cphase", "phi": "pi"}] * 2}, "gate 1 (cphase): phi must be a number"),
    ({"initial_state": {}}, "initial_state needs 'system_entries'"),
    ({"initial_state": {"system_entries": [[[2.0, 0.0]]]}}, "initial_state must be 2x2"),
    (
        {"initial_state": {"system_entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}},
        "initial_state: density trace",
    ),
    ({"conserved": {}}, "conserved needs 'entries'"),
    ({"system_dim": "two"}, "system_dim must be an integer, got 'two'"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"thresholds": {"weight_eps": 0.7}}, "weight_eps must lie in (0, 0.5)"),
    ({"thresholds": {"weight_eps": 0.0}}, "weight_eps must lie in (0, 0.5)"),
    ({"thresholds": {"weight_eps": "small"}}, "weight_eps must be a number"),
    ({"jumps": {"window": 2.5}}, "window must be an integer"),
    ({"quantity": {"name": "custom", "projections": HALVES}}, "quantity (custom) needs 'spectrum'"),
    ({"quantity": {"name": "probe_z", "site": "one"}}, "quantity (probe_z): site must be an integer, got 'one'"),
    ({"quantity": {"name": "probe_x", "site": 1}}, "quantity (probe_x) needs 'projections'"),
    ({"quantity": {"name": "probe_z", "site": 0}}, "quantity (probe_z): site must be >= 1"),
    ({"quantity": {"site": 1, "spectrum": [0, 1]}}, "unknown keys in quantity (probe_z): ['spectrum']"),
    ({"quantity": "probe_z"}, "quantity must be an object"),
    (
        {"quantity": {"name": "custom", "spectrum": [0, 1, 2], "projections": HALVES}},
        "quantity (custom): spectrum and projections must align",
    ),
    (
        {"quantity": {"name": "custom", "spectrum": [0, 1], "projections": [_real_pairs([1, 0]), _real_pairs([0, 1])]}},
        "quantity (custom): projections must be 4x4",
    ),
    (
        {"quantity": {"name": "custom", "spectrum": [0, "one"], "projections": HALVES}},
        "quantity (custom): a spectrum value must be a number",
    ),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"thresholds": 5}, "thresholds must be an object"),
    ({"thresholds": ["weight_eps"]}, "thresholds must be an object"),
    ({"jumps": 5}, "jumps must be an object"),
    ({"jumps": ["window"]}, "jumps must be an object"),
    ({"conserved": 5}, "conserved must be a name or explicit entries"),
    ({"conserved": "bogus"}, "unknown conserved quantity 'bogus'"),
    ({"conserved": {"entries": _real_pairs([1, 2, 3])}}, "conserved must be 2x2, got (3, 3)"),
    (
        {"conserved": {"entries": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}},
        "conserved quantity must be Hermitian",
    ),
    ({"system_dim": 4, "conserved": "system_z"}, "system_z requires system_dim = 2"),
    ({"initial_state": "bogus"}, "unknown initial state 'bogus'"),
    ({"initial_state": "singlet_pair"}, "singlet_pair requires system_dim = 4"),
]


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

    @pytest.mark.parametrize(
        "change, message", MALFORMED, ids=[f"doc{i}" for i in range(len(MALFORMED))]
    )
    def test_malformed_values_rejected(self, change, message):
        with pytest.raises(ValidationError) as exc:
            parse_scenario_dict(dict(MINIMAL, **change))
        assert str(exc.value).startswith(message)

    def test_custom_quantity_is_read_as_given(self):
        doc = dict(MINIMAL, quantity={"name": "custom", "spectrum": [0, 2], "projections": HALVES, "site": 2})
        q = quantity_of(parse_scenario_dict(doc))
        assert (q.name, q.spectrum, q.site) == ("custom", (0.0, 2.0), 2)
        np.testing.assert_array_equal(q.projections[0], np.diag([1, 1, 0, 0]))
        assert quantity_of(parse_scenario_dict(dict(MINIMAL))).name == "probe_z"

    def test_each_named_gate_has_its_keys(self):
        assert set(_GATE_KEYS) == set(GATE_BUILDERS) | {"explicit"}

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

    @pytest.mark.parametrize("prune", ["-1", "nan", "0", "5e-9"])
    def test_tree_prune_below_weight_eps_is_one_error_line(self, prune, capsys):
        assert main(["tree", "--scenario", "cnot", "--prune", prune]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: prune_eps must be >= weight_eps 1e-08, got ")
        assert err.count("\n") == 1

    def test_tree_prune_at_weight_eps_is_the_default(self, capsys):
        assert main(["tree", "--scenario", "cnot"]) == 0
        default = capsys.readouterr().out
        assert main(["tree", "--scenario", "cnot", "--prune", "1e-8"]) == 0
        assert capsys.readouterr().out == default

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

    def test_verify_computes_each_commutant_once(self, monkeypatch, capsys):
        # nesting_report and the double-commutant suite both need the
        # commutant of E(T); the memo on the algebra computes it once, and
        # the bicommutant is still computed rather than read back as E(T)
        calls = []
        real = alg._commutant

        def counted(a):
            c = real(a)
            calls.append((a, c))  # holding both keeps their ids distinct
            return c

        monkeypatch.setattr(alg, "_commutant", counted)
        assert main(["verify", "--scenario", "cnot_t3"]) == 0
        capsys.readouterr()
        inputs = [id(a) for a, _ in calls]
        assert len(inputs) == len(set(inputs))
        outputs = {id(c) for _, c in calls}
        assert sum(id(a) in outputs for a, _ in calls) == 1

    def test_verify_catches_a_broken_commutant(self, monkeypatch, capsys):
        # a commutant one element short on the filtration algebras leaves
        # the bicommutant test passing; the relative-commutant dimension
        # of each nesting step does not
        model = build_model(resolve_scenario("cnot"))
        filtration_dims = {model.algebra_at(t).dim for t in range(model.horizon + 1)}
        real = alg._commutant

        def broken(a):
            c = real(a)
            if a.dim in filtration_dims:
                return StarAlgebra(c.ambient_dim, c.basis[:-1])
            return c

        monkeypatch.setattr(alg, "_commutant", broken)
        assert main(["verify", "--scenario", "cnot"]) == 2
        out = capsys.readouterr().out
        assert "FAIL filtration-nesting: relative commutant dim 3 != 4" in out
        assert "PASS double-commutant" in out

    def test_verify_catches_a_short_relative_commutant(self, monkeypatch, capsys):
        # relative commutants taken inside a filtration algebra's own span,
        # the route that never forms the commutant, come out one element
        # short: the nesting step at t=1, where E(1) is no larger than the
        # commutant of a generic element of E(2)
        spans = []
        real_at = ChainModel.algebra_at

        def recorded(model, t):
            a = real_at(model, t)
            spans.append(a.tensor)
            return a

        real = alg._commuting_part

        def short(current, elems):
            out = real(current, elems)
            if any(current is s for s in spans):
                return out[:-1]
            return out

        monkeypatch.setattr(ChainModel, "algebra_at", recorded)
        monkeypatch.setattr(alg, "_commuting_part", short)
        assert main(["verify", "--scenario", "cnot"]) == 2
        out = capsys.readouterr().out
        assert "FAIL filtration-nesting: relative commutant dim 3 != 4 at t=1" in out
        assert out.count("FAIL") == 2  # the suite and the summary line

    def test_verify_draws_from_the_seed_flag(self, monkeypatch, capsys):
        seeds = []
        real = hist.sample_history

        def recorded(model, seed, **kwargs):
            seeds.append(seed)
            return real(model, seed=seed, **kwargs)

        monkeypatch.setattr(hist, "sample_history", recorded)
        assert main(["verify", "--scenario", "cnot", "--seed", "3"]) == 0
        assert seeds == [3, 3]
        seeds.clear()
        assert main(["verify", "--scenario", "cnot"]) == 0
        assert seeds == [resolve_scenario("cnot").seed] * 2
        capsys.readouterr()

    def test_ndm_with_no_sector_above_weight_eps_is_one_error_line(self, tmp_path, capsys):
        # the probe turns by 0, pi and pi/2 on the three system levels; no
        # sector of the start weighs more than weight_eps
        def entries(m):
            return [[[float(x.real), float(x.imag)] for x in row] for row in m]

        gate = np.zeros((6, 6))
        for k, angle in enumerate((0.0, np.pi, np.pi / 2)):
            c, s_ = np.cos(angle / 2), np.sin(angle / 2)
            gate[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s_], [s_, c]]
        g = {"name": "explicit", "entries": entries(gate)}
        doc = {
            "name": "light_sectors",
            "system_dim": 3,
            "probe_dim": 2,
            "horizon": 2,
            "gates": [g, g],
            "initial_state": {"system_entries": entries(np.diag([0.32, 0.33, 0.35]))},
            "conserved": {"entries": entries(np.diag([1.0, 2.0, 3.0]))},
            "thresholds": {"weight_eps": 0.4},
            "seed": 0,
        }
        path = tmp_path / "light_sectors.json"
        path.write_text(json.dumps(doc))
        assert main(["ndm", "--scenario", str(path), "--runs", "2", "--steps", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no sector weight exceeds weight_eps 0.4")
        assert err.count("\n") == 1

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

    def test_verify_compares_both_routes_at_the_scenario_weight_eps(self, tmp_path, capsys):
        # at weight_eps 0.4 the 0.32 branch of cnot's first event is not
        # positive, so neither detection route may call that event actual
        doc = json.loads(bundled_scenario_path("cnot").read_text())
        doc["thresholds"] = {"weight_eps": 0.4}
        path = tmp_path / "cnot_eps.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8
        assert out.endswith("verification OK\n")

    def test_cphase_scenario_parses_builds_and_verifies(self, tmp_path, capsys):
        # no bundled scenario uses cphase, so one is written here
        gates = [
            {"name": "cphase", "phi": 0.9, "control_states": [1], "readout_phi": 0.5},
            {"name": "cphase"},
        ]
        path = tmp_path / "cphase.json"
        path.write_text(json.dumps(dict(MINIMAL, gates=gates, initial_state="plus")))
        model = build_model(parse_scenario(path))
        first = build_gate("cphase", 2, 2, {"phi": 0.9, "control_states": [1], "readout_phi": 0.5})
        np.testing.assert_allclose(
            model.propagator(1, 0), embed_system_probe(first, 1, 2, 2, 2), atol=1e-15
        )
        assert main(["verify", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8
        assert out.endswith("verification OK\n")

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

    def test_epr_filter_prints_exact_zero_residual(self, tmp_path, capsys):
        # the residual is 0 in exact arithmetic; theta_filter 0.7 leaves
        # rounding noise of about 1e-16 that must not be printed
        doc = {
            "name": "epr_filtered",
            "system_dim": 4,
            "probe_dim": 2,
            "horizon": 2,
            "gates": [
                {"name": "cnot", "control_states": [2, 3]},
                {"name": "cnot", "control_states": [1, 3]},
            ],
            "initial_state": "singlet_pair",
            "theta_filter": 0.7,
            "seed": 0,
        }
        path = tmp_path / "epr_filtered.json"
        path.write_text(json.dumps(doc))
        assert main(["epr-demo", "--scenario", str(path), "--runs", "200"]) == 0
        out = capsys.readouterr().out
        assert "theta_filter            = 0.7\n" in out
        assert "incoherence_residual    = 0.000e+00\n" in out

    def test_epr_filter_prints_unsigned_zero_marginals(self, tmp_path, capsys):
        # the marginals are 0 in exact arithmetic; with theta_filter 0.7 two
        # of them round to -0.0, whose sign is noise
        doc = {
            "name": "epr_filtered",
            "system_dim": 4,
            "probe_dim": 2,
            "horizon": 2,
            "gates": [
                {"name": "cnot", "control_states": [2, 3]},
                {"name": "cnot", "control_states": [1, 3]},
            ],
            "initial_state": "singlet_pair",
            "theta_filter": 0.7,
            "seed": 0,
        }
        path = tmp_path / "epr_filtered.json"
        path.write_text(json.dumps(doc))
        assert main(["epr-demo", "--scenario", str(path), "--runs", "200"]) == 0
        assert "unitary_marginals       = [0.0, 0.0, 0.0]\n" in capsys.readouterr().out

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
        # a seed is a SeedSequence entropy, which must not be negative
        (["simulate", "--scenario", "cnot", "--seed", "-1"], "--seed must be >= 0"),
        (["ndm", "--scenario", "ndm", "--seed", "-1"], "--seed must be >= 0"),
        (["jumps", "--scenario", "jumps", "--seed", "-3"], "--seed must be >= 0"),
        (["verify", "--scenario", "cnot", "--seed", "-1"], "--seed must be >= 0"),
        (["epr-demo", "--seed", "-1"], "--seed must be >= 0"),
    ]

    @pytest.mark.parametrize(
        "argv, message", REJECTED, ids=[f"argv{i}" for i in range(len(REJECTED))]
    )
    def test_non_positive_runs_or_steps_rejected(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "change, message", MALFORMED, ids=[f"doc{i}" for i in range(len(MALFORMED))]
    )
    def test_malformed_scenario_files_rejected(self, change, message, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(dict(MINIMAL, **change)))
        assert main(["simulate", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: {message}")
        assert captured.out == ""


def _ndm_run(values, purification, classified):
    return NdmRun(
        protocol=MeasurementProtocol(tuple(values), tuple(range(1, len(values) + 1)), 0),
        first_event_step=None,
        branch_steps=(),
        purification=np.array(purification, dtype=float),
        conserved_expectation=np.zeros(len(values)),
        classified=classified,
    )


def _csv_writer_text(runs):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["run", "step", "eta", "estimated_alpha", "purification_metric"])
    writer.writerows(
        [r, j, eta, run.classified, f"{x:.17g}"]
        for r, run in enumerate(runs)
        for j, (eta, x) in enumerate(zip(run.protocol.values, run.purification.tolist()), start=1)
    )
    return buf.getvalue()


class TestNdmCsv:
    """``cli._ndm_csv`` writes what ``csv.writer`` writes for the same rows."""

    SIGNED_ZEROS = [0.0, -0.0, -2.220446049250313e-16, 1e-300]

    def test_one_step_runs(self):
        runs = [_ndm_run([eta], [x], c) for eta, x, c in [(0, 0.0, 1), (1, -0.0, 0), (1, 0.5, 2)]]
        assert _ndm_csv(runs) == _csv_writer_text(runs)

    def test_values_differing_only_in_bits(self):
        runs = [
            _ndm_run([0, 1, 0, 1], self.SIGNED_ZEROS, 0),
            _ndm_run([1, 1, 0, 0], self.SIGNED_ZEROS[::-1], 1),
            _ndm_run([0, 0, 0, 0], [0.0, 0.0, 0.0, 0.0], 1),
        ]
        text = _ndm_csv(runs)
        assert text == _csv_writer_text(runs)
        assert "0,2,1,0,-0\r\n" in text and "0,1,0,0,0\r\n" in text

    def test_many_runs_steps_and_values(self):
        rng = np.random.default_rng(3)
        runs = [
            _ndm_run(rng.integers(0, 12, 15).tolist(), rng.standard_normal(15) * 10.0 ** rng.integers(-300, 300), c)
            for c in rng.integers(0, 3, 13).tolist()
        ]
        assert _ndm_csv(runs) == _csv_writer_text(runs)


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
