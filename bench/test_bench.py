"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ethsim.cli as cli  # noqa: E402
import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ethsim import chain, indirect, linalg, scenario  # noqa: E402
from ethsim.states import State  # noqa: E402


def tiny(name: str, work: Path, seed: int = 3):
    wl = workloads.WORKLOADS[name]()
    if name == "histories":
        wl.runs = 40
    elif name == "ndm":
        wl.runs, wl.steps, wl.born_runs, wl.born_steps = 2, 60, 20, 10
    elif name == "jumps":
        wl.steps = 200
    wl.prepare(seed, work, cli.main)
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_has_no_failures_and_tracing_keeps_outputs(name, tmp_path):
    wl = tiny(name, tmp_path)
    tracer = spans.Tracer()
    runner = run.Runner(wl, cli, tracer)
    assert runner.invoke() is not None
    untraced = runner.reference
    assert runner.invoke(traced=True) is not None
    assert runner.invoke() is not None
    # every invocation is compared with the first invocation's discrete outputs
    assert (runner.attempted, runner.failed) == (3, 0)
    assert runner.reference == untraced
    assert tracer.spans and all(s.invocation == 1 for s in tracer.spans)
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "scenario.resolve_scenario"} <= names


def test_host_speed_sampler_is_taken_out_of_the_invocation_times(tmp_path):
    wl = workloads.WORKLOADS["oracle"]()
    wl.prepare(1, tmp_path, cli.main)
    runner = run.Runner(wl, cli)
    runner.invoke()
    runner.sampler = hostspeed.Sampler()
    wall, cpu = runner.invoke()
    sampler = runner.sampler
    assert (runner.attempted, runner.failed) == (2, 0)
    assert sampler.samples >= 2 and 0.0 < sampler.wall < wall
    assert 0.1 < sampler.slowdown() < 10.0
    # the timer is disarmed between invocations, and a late tick does nothing
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    sampler._tick(signal.SIGALRM, None)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_check_rejects_wrong_outputs(tmp_path):
    wl = tiny("jumps", tmp_path)
    good = workloads.call(cli.main, wl.argv)
    wl.check(good)
    bad = workloads.Invocation(0, good.stdout.replace("flip_matrix = [[0.9", "flip_matrix = [[0.8"))
    with pytest.raises(workloads.CheckFailed):
        wl.check(bad)
    oracle = tiny("oracle", tmp_path)
    with pytest.raises(workloads.CheckFailed):
        oracle.check(workloads.Invocation(2, "PASS a\nFAIL b\n"))


def test_histories_sampling_check_catches_a_skewed_sample(tmp_path):
    wl = tiny("histories", tmp_path)
    wl.check(workloads.call(cli.main, wl.argv))
    # every run takes the least likely exact path
    rare = min(wl.exact, key=wl.exact.get).split("/")
    record = {"chosen_label": None, "state_fingerprint": "0"}
    lines = [json.dumps(dict(record, chosen_label=lab)) for lab in rare] * wl.runs
    wl._trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed, match="path"):
        wl.check(workloads.Invocation(0, ""))


def test_ndm_born_check_catches_skewed_counts(tmp_path):
    wl = tiny("ndm", tmp_path)
    born = "born_exact          = [0.318821, 0.681179]\n"
    fair = workloads.Invocation(0, "classified_counts   = [130, 270]\n" + born)
    wl.check_born(fair, 400)
    skewed = workloads.Invocation(0, "classified_counts   = [200, 200]\n" + born)
    with pytest.raises(workloads.CheckFailed, match="Born"):
        wl.check_born(skewed, 400)
    with pytest.raises(workloads.CheckFailed, match="for 401 runs"):
        wl.check_born(fair, 401)


def test_generator_is_seeded_strict_and_branches_at_every_step(tmp_path):
    for seed in range(3):
        text = workloads.chain_scenario_text(seed)
        assert text == workloads.chain_scenario_text(seed)
        path = tmp_path / f"g{seed}.json"
        path.write_text(text)
        scn = scenario.parse_scenario(path)
        assert all(g["name"] == "explicit" for g in scn.gates)
        wl = workloads.Histories()
        wl.prepare(seed, tmp_path, cli.main)  # raises unless 16 leaves, all actual
        assert len(wl.exact) == 16
        assert abs(sum(wl.exact.values()) - 1.0) < 1e-9
    assert workloads.chain_scenario_text(0) != workloads.chain_scenario_text(1)


def span(sid, parent, start, end, name="x"):
    return spans.Span(sid, name, parent, 1, start, end, True)


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 6.5),
        span(4, None, 20.0, 21.0),
    ]
    got = spans.self_times(tree)
    assert got[0] == pytest.approx(10.0 - (3.0 + 1.5))
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(1.5)
    assert got[4] == pytest.approx(1.0)


def test_tail_percentile_ladder():
    assert spans.tail_percentile([]) == (0.0, 0.0)
    level, _ = spans.tail_percentile(list(range(1000)))
    assert level == 99.0
    level, _ = spans.tail_percentile(list(range(100)))
    assert level == 90.0
    assert spans.tail_percentile([1.0, 3.0]) == (50.0, 2.0)


def test_rebinding_covers_every_consumer_module():
    originals = {}
    for _, module, attr in spans.TARGETS:
        if "." not in attr:
            originals[(module, attr)] = getattr(sys.modules[module], attr)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in spans.consumer_modules():
            for key, value in vars(mod).items():
                assert not any(value is f for f in originals.values()), (mod.__name__, key)
        # one partial_trace span per call, from indirect and from chain
        rho = np.kron(np.diag([0.25, 0.75]), np.diag([1.0, 0.0])).astype(complex)
        indirect.purification_metric(State(rho), np.diag([1.0, -1.0]))
        gates = [chain.build_gate("cnot", 2, 2)] * 2
        model = chain.ChainModel(
            2, 2, 2, gates, chain.chain_initial_state(np.diag([0.5, 0.5]), 2, 2, 2)
        )
        model.reduced_future_density(model.initial_state, 1)
        model.algebra_at(1)
        model.algebra_at(1)
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans].count("linalg.partial_trace") == 2
    assert tracer.algebra_at_calls == 2 and tracer.algebra_at_hits == 1
    assert linalg.partial_trace is originals[("ethsim.linalg", "partial_trace")]
    assert indirect.partial_trace is linalg.partial_trace
    assert chain.partial_trace is linalg.partial_trace
    assert not hasattr(State.__post_init__, "__wrapped__")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = spans.per_layer_metrics(spans.Tracer(), 0, {"actual_event_ratio": 0.0, "trace_overhead": 0.0})
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[k] == u for k, (_, u) in layer.items())
    assert all(units[k] == u for k, u in run.END_TO_END_UNITS.items())


def test_command_prints_a_result_line_and_fails_without_sources(tmp_path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "oracle", "--seed", "1"]
    out = subprocess.run(
        cmd + ["--seconds", "0.1", "--trace", "0"], capture_output=True, text=True, timeout=170
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert "fail_share" in out.stdout
    # a tree holding only the benchmark must fail without printing a result
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    bare = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert bare.returncode != 0 and bare.stdout == ""
