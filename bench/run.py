"""ethsim benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py``): ``histories``, ``ndm``, ``jumps`` and
``oracle``, each driving ``ethsim.cli.main(argv)`` in-process, one thread.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over fresh processes of import + scenario + build, spread over the
run), ``units_per_s`` (units done ÷ wall time over the timed invocations,
after one untimed warm-up), ``cpu_s_per_unit`` (process CPU time over the
same invocations ÷ units) and ``peak_rss_mb``.  The three time metrics are
scaled to the reference host speed of ``hostspeed.py``, measured beside
them; the unscaled figures are printed too.  With ``--trace 1`` it alternates untraced and traced
invocations and reports the per-layer metrics of ``spans.py``, per traced
invocation, plus the tracing overhead.  Every invocation's outputs are
checked outside the timed region; the last line printed is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# Set-up probes per run, spread evenly over the measured window so that
# their median does not rest on one stretch of host speed.
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
# A run whose first invocations all fail stops after this many.
GIVE_UP = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "cpu_s_per_unit": "s",
    "peak_rss_mb": "MB",
}


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas() -> dict:
    """OpenBLAS build string and thread count from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            try:
                config = getattr(lib, f"{prefix}get_config{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return {"config": config().decode(), "threads": threads()}
    return {"config": "unknown", "threads": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "env": {
            k: os.environ.get(k)
            for k in ("ETHSIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def setup_sample(wl) -> float:
    """Set-up time of one fresh process."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), wl.scenario, wl.builder]
    out = subprocess.run(probe, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    """Invokes one workload repeatedly and checks every invocation."""

    def __init__(self, wl, cli, tracer=None):
        self.wl = wl
        self.cli = cli
        self.tracer = tracer
        self.sampler = None  # a hostspeed.Sampler, active in untraced invocations
        self.attempted = 0
        self.failed = 0
        self.reference = None  # discrete-output digest of the first invocation

    def invoke(self, traced: bool = False):
        """One checked invocation; returns (wall_s, cpu_s), or None if it failed.

        The times leave out what the host-speed sampler spent.
        """
        inv, error = None, None
        if traced:
            self.tracer.invocation += 1
            self.tracer.install()
        sampler = None if traced else self.sampler
        if sampler is not None:
            sampled = sampler.wall, sampler.cpu
        c0 = process_time()
        w0 = perf_counter()
        try:
            with sampler or contextlib.nullcontext():
                inv = workloads.call(self.cli.main, self.wl.argv)
        except Exception:  # a crash is a failed invocation; the run goes on
            error = traceback.format_exc()
        finally:
            wall = perf_counter() - w0
            cpu = process_time() - c0
            if sampler is not None:
                wall -= sampler.wall - sampled[0]
                cpu -= sampler.cpu - sampled[1]
            if traced:
                self.tracer.uninstall()
                self.tracer.end_invocation()
        self.attempted += 1
        try:
            if error is not None:
                raise workloads.CheckFailed(error)
            digest = self.wl.check(inv)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                raise workloads.CheckFailed("discrete outputs differ from the first invocation's")
        except workloads.CheckFailed as exc:
            self.failed += 1
            print(f"invocation {self.attempted} failed: {exc}", file=sys.stderr)
            return None
        return wall, cpu


def run(args, cli, work: Path) -> tuple[dict, dict]:
    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(args.seed, work, cli.main)
    metrics = {}
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(wl, cli, tracer)
    if not wl.warmed_by_prepare:
        runner.invoke()  # untimed warm-up
    if not args.trace:
        runner.sampler = hostspeed.Sampler()
    probes = 0 if args.trace else SETUP_SAMPLES
    setup, untraced, traced = [], [], []

    def enough():
        return bool(untraced) and (bool(traced) or not args.trace)

    start = perf_counter()
    deadline = start + args.seconds
    last = i = 0
    # Stop where the next invocation would end further past the deadline
    # than short of it, so a run measures close to --seconds even when one
    # invocation takes many seconds.
    while (not enough() and i < GIVE_UP) or perf_counter() + last / 2 < deadline:
        while len(setup) < probes and perf_counter() >= start + len(setup) * args.seconds / probes:
            setup.append(setup_sample(wl))
        is_traced = bool(args.trace) and i % 2 == 1
        t0 = perf_counter()
        sample = runner.invoke(traced=is_traced)
        last = perf_counter() - t0
        if sample is not None:
            (traced if is_traced else untraced).append(sample)
        i += 1
    while len(setup) < probes:
        setup.append(setup_sample(wl))

    # Work done over time spent, not a median of per-invocation rates: the
    # host's speed moves between plateaus lasting seconds to minutes, and a
    # run's median follows whichever plateau holds most of its invocations,
    # so it spreads more from run to run (see README.md).
    def throughput(samples):
        return wl.units * len(samples) / sum(w for w, _ in samples) if samples else 0.0

    if args.trace:
        extra = {
            "actual_event_ratio": wl.actual_event_ratio(),
            "trace_overhead": (
                1.0 - throughput(traced) / throughput(untraced) if untraced and traced else 0.0
            ),
        }
        layer = spans.per_layer_metrics(tracer, len(traced), extra)
        metrics = {k: v for k, (v, _) in layer.items()}
        units = {k: u for k, (_, u) in layer.items()}
    else:
        # The probes are spread over the same window as the kernel samples.
        slow = runner.sampler.slowdown()
        metrics["setup_s"] = statistics.median(setup) / slow
        metrics["units_per_s"] = throughput(untraced) * slow
        done = wl.units * len(untraced)
        metrics["cpu_s_per_unit"] = sum(c for _, c in untraced) / done / slow if untraced else 0.0
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    result = {
        "correct": runner.failed == 0 and enough(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }
    walls = [1e3 * w for w, _ in untraced]
    level, tail = spans.tail_percentile(walls)
    info = {
        "unit": wl.unit,
        "units_per_invocation": wl.units,
        "argv": wl.argv,
        "timed_invocations": len(untraced),
        "invocation_ms": {"p50": statistics.median(walls) if walls else 0.0, f"p{level:g}": tail},
        "traced_invocations": len(traced),
    }
    if not args.trace:
        info["unscaled"] = {
            "host_slowdown": slow,
            "host_samples": runner.sampler.samples,
            "setup_s": statistics.median(setup),
            "units_per_s": throughput(untraced),
        }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ethsim" / "__init__.py").is_file():
        print(f"ethsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ethsim.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "ethsim").resolve():
        print(f"ethsim imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        result, info = run(args, cli, Path(tmp))

    print(f"workload       = {args.workload}  seed {args.seed}  {info}")
    for name, m in result["metrics"].items():
        print(f"{name:<14} = {m['value']:.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"fail_share     = {share:.6g} ratio ({result['failed']} of {result['attempted']} attempted)")
    print("env            = " + json.dumps(environment(args.seed), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
