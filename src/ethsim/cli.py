"""Command line front end.

    ethsim <command> --scenario FILE [--seed N] [--runs N] [--steps N]
           [--trace FILE] [--out FILE] [--prune X] [--svg FILE]

Commands: simulate, tree, verify, ndm, jumps, epr-demo.  Traces are
line-delimited JSON records, summaries are CSV.  Exit codes: 0 ok, 1 error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import histories as hist
from . import indirect
from .algebra import commutant, span_equal
from .errors import EthsimError, ValidationError
from .linalg import VERIFY_MEASURE_TOL, VERIFY_SUM_TOL, VERIFY_WEIGHT_TOL
from .scenario import Scenario, build_model, build_ndm, resolve_scenario
from .states import detect_event
from .trace import TraceRecord, json_line


def _write_lines(path, lines):
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _ndm_csv(runs: list[indirect.NdmRun]) -> str:
    """The ``ndm --out`` CSV, byte for byte what ``csv.writer`` writes.

    The purification values come from a few state-graph nodes, so each
    distinct one is formatted once, keyed by its bits (``0.0`` and ``-0.0``
    compare equal but print differently).  The ``r,`` run prefixes, ``j,``
    step strings and ``eta,classified,`` pieces are built once each too, and
    one join puts the rows together.  No field needs quoting.  The runs all
    have the same number of steps.
    """
    purification = np.stack([run.purification for run in runs])
    values = np.array([run.protocol.values for run in runs])
    classified = np.array([run.classified for run in runs])
    bits, inverse = np.unique(purification.view(np.int64), return_inverse=True)
    metric = [f"{x:.17g}\r\n" for x in bits.view(np.float64).tolist()]
    pair = [
        [f"{eta},{c}," for eta in range(values.max() + 1)]
        for c in range(classified.max() + 1)
    ]
    n_runs, n = values.shape
    rows = np.empty((n_runs, n, 4), dtype=object)
    rows[..., 0] = np.array([f"{r}," for r in range(n_runs)], dtype=object)[:, None]
    rows[..., 1] = np.array([f"{j}," for j in range(1, n + 1)], dtype=object)
    rows[..., 2] = np.array(pair, dtype=object)[classified[:, None], values]
    rows[..., 3] = np.array(metric, dtype=object)[inverse.reshape(n_runs, n)]
    header = "run,step,eta,estimated_alpha,purification_metric\r\n"
    return header + "".join(rows.ravel().tolist())


def _write_svg(path, title, series: dict):
    """Minimal line chart: one polyline per labelled series."""
    width, height, pad = 640, 360, 40
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{pad}" y="20" font-size="14">{title}</text>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" fill="none" stroke="black"/>',
    ]
    all_vals = [v for vals in series.values() for v in vals]
    if all_vals:
        lo, hi = min(all_vals), max(all_vals)
        if hi - lo < 1e-12:
            hi = lo + 1.0
        colors = ["steelblue", "firebrick", "seagreen", "darkorange", "purple"]
        for idx, (label, vals) in enumerate(series.items()):
            if len(vals) < 2:
                continue
            pts = []
            for i, v in enumerate(vals):
                x = pad + (width - 2 * pad) * i / (len(vals) - 1)
                y = height - pad - (height - 2 * pad) * (v - lo) / (hi - lo)
                pts.append(f"{x:.2f},{y:.2f}")
            color = colors[idx % len(colors)]
            lines.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}"/>'
            )
            lines.append(
                f'<text x="{pad + 6}" y="{pad + 16 + 14 * idx}" font-size="12" fill="{color}">{label}</text>'
            )
    lines.append("</svg>")
    _write_lines(path, lines)


def _step_texts(step: hist.HistoryStep, trace: bool, csv_cells: bool):
    """One history step's trace line and its CSV cells after the run index,
    each None unless asked for."""
    line = cells = None
    if trace:
        line = TraceRecord(
            t=step.t,
            event_labels=step.event.labels if step.event is not None else (),
            weights=step.weights,
            chosen_label=step.chosen_label,
            entropy=step.entropy,
            state_fingerprint=step.post_state_fingerprint,
        ).to_line()
    if csv_cells:
        cells = [
            step.t,
            step.chosen_label or "",
            f"{step.weight:.17g}",
            f"{step.entropy:.17g}",
            step.post_state_fingerprint,
        ]
    return line, cells


def cmd_simulate(scn: Scenario, args) -> int:
    model = build_model(scn)
    runs = args.runs if args.runs is not None else 1
    seed = args.seed if args.seed is not None else scn.seed
    seeds = np.random.SeedSequence(seed).generate_state(runs)
    histories = hist.sample_histories(
        model, [int(s) for s in seeds], weight_eps=scn.thresholds.weight_eps
    )
    # every run that takes a branch shares its HistoryStep, so each distinct
    # step is formatted once, keyed by identity, into the outputs asked for
    memo = {}
    for h in histories:
        for step in h.steps:
            if id(step) not in memo:
                memo[id(step)] = _step_texts(step, bool(args.trace), bool(args.out))
    if args.trace:
        _write_lines(args.trace, [memo[id(s)][0] for h in histories for s in h.steps])
    if args.out:
        rows = [[r, *memo[id(s)][1]] for r, h in enumerate(histories) for s in h.steps]
        _write_csv(args.out, ["run", "t", "chosen_label", "weight", "entropy", "fingerprint"], rows)
    events = sum(1 for h in histories for s in h.steps if s.event is not None)
    print(f"runs        = {runs}")
    print(f"event_steps = {events}")
    if args.svg:
        entropies = [s.entropy for h in histories[:1] for s in h.steps]
        _write_svg(args.svg, "per-step missing information (run 0)", {"entropy": entropies})
    return 0


def cmd_tree(scn: Scenario, args) -> int:
    model = build_model(scn)
    prune = args.prune if args.prune is not None else scn.thresholds.weight_eps
    tree = hist.enumerate_tree(model, prune_eps=prune, weight_eps=scn.thresholds.weight_eps)
    leaves = tree.leaves()
    if args.out:
        rows = [
            ["/".join(s[1] or "-" for s in leaf.steps), f"{leaf.path_weight:.17g}"]
            for leaf in leaves
        ]
        _write_csv(args.out, ["path", "weight"], rows)
    if args.trace:
        lines = [
            json_line({"t": t, "chosen_label": label, "weight": w})
            for leaf in leaves
            for t, label, _, w in leaf.steps
        ]
        _write_lines(args.trace, lines)
    print(f"nodes       = {tree.node_count}")
    print(f"leaves      = {len(leaves)}")
    print(f"pruned_mass = {tree.pruned_mass:.17g}")
    return 0


def cmd_verify(scn: Scenario, args) -> int:
    model = build_model(scn)
    weight_eps = scn.thresholds.weight_eps
    seed = args.seed if args.seed is not None else scn.seed
    failures = []

    def suite(name, fn):
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures.append(name)
            print(f"FAIL {name}: {exc}")

    def filtration():
        rep = model.nesting_report()
        expect = [
            model.s**2 * model.p ** (2 * (model.horizon - t))
            for t in range(model.horizon + 1)
        ]
        assert list(rep.dims) == expect, f"dims {rep.dims} != {expect}"
        assert rep.all_ok, "inclusion or strictness failed"
        # E(t+1)' within E(t) is the full matrix algebra of the probe emitted
        # at t+1, whatever the gate
        for step in rep.steps:
            assert step.relative_commutant_dim == model.p**2, (
                f"relative commutant dim {step.relative_commutant_dim} != "
                f"{model.p**2} at t={step.t}"
            )

    def detection_agreement():
        for t in range(1, model.horizon + 1):
            fast = model.detect_event_reduced(model.initial_state, t, weight_eps)
            gen = detect_event(model.initial_state, model.algebra_at(t), t, weight_eps)
            assert fast.actual == gen.actual, f"actuality differs at t={t}"
            assert len(fast.weights) == len(gen.weights), f"branch count differs at t={t}"
            for wf, wg in zip(fast.weights, gen.weights):
                assert abs(wf - wg) < VERIFY_WEIGHT_TOL, f"weights differ at t={t}"
            assert gen.incoherence_residual <= VERIFY_WEIGHT_TOL, "incoherent superposition violated"

    def tree_probability():
        for d, total in enumerate(tree.depth_weights()):
            assert abs(total - 1.0) <= VERIFY_SUM_TOL, f"depth {d} mass {total}"

    def path_measure():
        for leaf in tree.leaves():
            mu = hist.history_measure(model.initial_state, [s[2] for s in leaf.steps])
            w = leaf.path_weight
            assert abs(mu - w) <= VERIFY_MEASURE_TOL, f"mu {mu} vs path weight {w}"

    def sum_rule():
        dev = hist.check_sum_rule(tree, model.initial_state)
        assert dev <= VERIFY_SUM_TOL, f"deviation {dev}"
        rng = np.random.default_rng(seed)
        x_raw = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal(
            (model.dim, model.dim)
        )
        x = model.algebra_at(model.horizon).project(x_raw)
        dev = hist.check_sum_rule(tree, model.initial_state, x)
        assert dev <= VERIFY_SUM_TOL, f"conditioned deviation {dev}"

    def entropies():
        for n in range(1, model.horizon + 1):
            s_n = hist.relative_entropy_vs_reversed(model.initial_state, tree, n)
            assert s_n >= -VERIFY_SUM_TOL, f"S_{n} = {s_n}"

    def double_commutant():
        a = model.algebra_at(model.horizon)
        assert span_equal(commutant(commutant(a)), a), "bicommutant differs"

    def determinism():
        h1 = hist.sample_history(model, seed=seed, weight_eps=weight_eps)
        h2 = hist.sample_history(model, seed=seed, weight_eps=weight_eps)
        f1 = [s.post_state_fingerprint for s in h1.steps]
        f2 = [s.post_state_fingerprint for s in h2.steps]
        assert f1 == f2, "same seed produced different histories"

    suite("filtration-nesting", filtration)
    suite("detection-agreement", detection_agreement)
    # one tree shared by the four suites below; none of them changes it
    tree = hist.enumerate_tree(model, weight_eps=weight_eps)
    suite("tree-total-probability", tree_probability)
    suite("path-measure-consistency", path_measure)
    suite("marginalization-sum-rule", sum_rule)
    suite("relative-entropy-positivity", entropies)
    suite("double-commutant", double_commutant)
    suite("determinism", determinism)
    if failures:
        print(f"verification FAILED: {failures}")
        return 2
    print("verification OK")
    return 0


def cmd_ndm(scn: Scenario, args) -> int:
    runs = args.runs if args.runs is not None else scn.runs
    steps = args.steps if args.steps is not None else (scn.steps or 25)
    ndm = build_ndm(scn, runs=runs, steps=steps)
    seed = args.seed if args.seed is not None else scn.seed
    report = indirect.ndm_experiment(ndm, master_seed=seed)
    if args.trace:
        lines = []
        for r, run in enumerate(report.runs):
            lines.append(
                json_line(
                    {
                        "run": r,
                        "values": list(run.protocol.values),
                        "classified": run.classified,
                        "first_event_step": run.first_event_step,
                    }
                )
            )
        _write_lines(args.trace, lines)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(_ndm_csv(report.runs))
    print(f"runs                = {runs}")
    print(f"steps               = {steps}")
    print(f"classified_counts   = {report.classified_counts.tolist()}")
    print(f"empirical           = {np.round(report.empirical_distribution, 6).tolist()}")
    print(f"born_exact          = {np.round(report.born_exact, 6).tolist()}")
    if args.svg:
        # run 0's running pointer frequencies after each step
        values = np.array(report.runs[0].protocol.values)
        done = np.arange(1, len(values) + 1)
        curves = {
            f"eta={k}": (np.cumsum(values == k) / done).tolist() for k in range(ndm.quantity.size)
        }
        _write_svg(args.svg, "pointer frequency convergence (run 0)", curves)
    return 0


def cmd_jumps(scn: Scenario, args) -> int:
    steps = args.steps if args.steps is not None else (scn.steps or 2000)
    drift = float(scn.jumps.get("drift_angle", 0.05))
    window = int(scn.jumps.get("window", 25))
    ndm = build_ndm(scn, runs=1, steps=steps)
    seed = args.seed if args.seed is not None else scn.seed
    traj = indirect.weak_measurement_trajectory(ndm, drift, steps, window, seed=seed)
    if args.out:
        rows = [
            [k, est] for k, est in enumerate(traj.window_estimates)
        ]
        _write_csv(args.out, ["window", "estimated_alpha"], rows)
    print(f"steps       = {steps}")
    print(f"window      = {window}")
    print(f"jumps       = {traj.jump_count}")
    print(f"dwell       = {np.round(traj.dwell_fractions, 6).tolist()}")
    print(f"flip_matrix = {np.round(traj.transition_matrix, 8).tolist()}")
    if args.svg:
        _write_svg(
            args.svg,
            "sector trajectory (window estimates)",
            {"sector": [float(e) for e in traj.window_estimates]},
        )
    return 0


def cmd_epr(scn: Scenario | None, args) -> int:
    theta = scn.theta_filter if scn is not None else 0.0
    seed = args.seed if args.seed is not None else (scn.seed if scn else 0)
    samples = args.runs if args.runs is not None else (scn.runs if scn else 10_000)
    rep = hist.epr_demo(theta, seed=seed, samples=samples)
    print(f"theta_filter            = {rep.theta_filter}")
    print(f"unitary_marginals       = {[round(v, 12) + 0.0 for v in rep.unitary_marginals]}")
    print(f"strict_detection_actual = {rep.strict_actual} (weights {np.round(rep.strict_weights, 6).tolist()})")
    print(f"filter_weights          = {np.round(rep.filter_weights, 6).tolist()}")
    print(f"incoherence_residual    = {round(rep.incoherence_residual, 12):.3e}")
    print(f"conditional_spin        = {np.round(rep.conditional_spin, 9).tolist()}")
    print(f"samples                 = {rep.samples} (branch counts {list(rep.branch_counts)})")
    print(f"empirical_correlation   = {rep.empirical_correlation:.6f}")
    if args.out:
        _write_csv(
            args.out,
            ["branch", "weight", "conditional_spin"],
            [
                [k, f"{rep.filter_weights[k]:.17g}", f"{rep.conditional_spin[k]:.17g}"]
                for k in range(len(rep.filter_weights))
            ],
        )
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ethsim", description=__doc__)
    parser.add_argument(
        "command",
        choices=["simulate", "tree", "verify", "ndm", "jumps", "epr-demo"],
    )
    parser.add_argument("--scenario", help="scenario file or bundled name")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--trace", help="line-delimited JSON trace output")
    parser.add_argument("--out", help="CSV summary output")
    parser.add_argument("--prune", type=float, default=None)
    parser.add_argument("--svg", help="optional line-chart output")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        for flag, least in (("runs", 1), ("steps", 1), ("seed", 0)):
            value = getattr(args, flag)
            if value is not None and value < least:
                raise ValidationError(f"--{flag} must be >= {least}, got {value}")
        scn = None
        if args.scenario:
            scn = resolve_scenario(args.scenario)
        if args.command != "epr-demo" and scn is None:
            print("a scenario is required", file=sys.stderr)
            return 1
        if args.command == "simulate":
            return cmd_simulate(scn, args)
        if args.command == "tree":
            return cmd_tree(scn, args)
        if args.command == "verify":
            return cmd_verify(scn, args)
        if args.command == "ndm":
            return cmd_ndm(scn, args)
        if args.command == "jumps":
            return cmd_jumps(scn, args)
        return cmd_epr(scn, args)
    except (EthsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
