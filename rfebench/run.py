"""Benchmark driver for rfe: four closed-loop workloads, untraced or traced.

Run from the repository root:

    python3 rfebench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced steps: the traced steps give the
per-layer metrics from spans (written to .bench_out/spans-<workload>.csv),
and the two kinds of step together give the tracing overhead.

rfe is imported from ``src/`` next to this directory and nowhere else.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the seed and the workload's side numbers.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

# Fresh interpreters timed per run for setup_s, and -X importtime probes per
# traced run; each reports the median.
SETUP_PROBES = 7
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "step_ms.p90": "ms",
}

# Run in a fresh interpreter: import rfe, build the workload (its plans), and
# print the monotonic clock, which every process on the machine shares.
_SETUP_CODE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
print(time.monotonic())
"""


def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter start until rfe is imported and the plans are built."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.split()[-1]) - start


def import_ms() -> tuple[float, float]:
    """Import time in ms of rfe (cumulative) and of scipy, from -X importtime.

    The scipy figure is the self time of every module imported under a scipy
    module, except numpy's own import, which rfe needs without scipy too.
    """
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import rfe", str(SRC)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    entries = []
    for line in done.stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header, or another line on stderr
        own, cumulative, raw = fields
        entries.append(((len(raw) - len(raw.lstrip()) - 1) // 2, int(own), int(cumulative),
                        raw.strip()))
    rfe_us = scipy_us = 0
    ancestors: list[str] = []
    # importtime prints children before their parent; reversed, each entry
    # follows its ancestors.
    for depth, own, cumulative, name in reversed(entries):
        ancestors[depth:] = [name]
        if name == "rfe":
            rfe_us = cumulative
        elif "numpy" not in ancestors and any(
                a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy_us += own
    return rfe_us / 1e3, scipy_us / 1e3


def calibrate_ms() -> float:
    """Machine-speed probe: median time of a fixed numpy sort + FFT loop."""
    import numpy as np

    data = np.random.default_rng(12345).random(1 << 16)
    np.fft.fft(data)  # the first call builds the FFT plan
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(4):
            np.sort(data)
            np.fft.fft(data)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def closed_loop(wl, seconds: float, tracer=None):
    """Step ``wl`` back to back for ``seconds`` after one warm-up step, and
    for at least two untraced steps.

    With a tracer, untraced and traced steps alternate, starting untraced.
    Returns the untraced and traced step latencies, ops, failed ops, and the
    seconds each campaign family spent in untraced steps.
    """
    wl.step()  # warm-up: caches, lazy imports, the process pool's first start
    plain, traced = [], []
    family_seconds: dict[str, float] = {}
    ops = failed = 0
    loop_start = time.perf_counter()
    while (time.perf_counter() - loop_start < seconds or len(plain) < 2
           or (tracer and not traced)):
        use_trace = tracer is not None and len(plain) > len(traced)
        start = time.perf_counter()
        if use_trace:
            step_ops, step_failed = tracer.traced_op(len(traced), wl.step)
        else:
            step_ops, step_failed = wl.step()
        (traced if use_trace else plain).append(time.perf_counter() - start)
        ops += step_ops
        failed += step_failed
        if not use_trace:
            for name, spent in getattr(wl, "last_family_seconds", {}).items():
                family_seconds[name] = family_seconds.get(name, 0.0) + spent
    return plain, traced, ops, failed, family_seconds


def run_untraced(wl, seconds: float, workload: str, seed: int):
    """End-to-end metrics from a closed loop with nothing wrapped."""
    setup = statistics.median(setup_seconds(workload, seed) for _ in range(SETUP_PROBES))
    latencies, _, ops, failed, family_seconds = closed_loop(wl, seconds)
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": ops / sum(latencies),
        "step_ms.p90": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
    }
    # Reported but not gated: on a box whose speed flips between two levels,
    # the median falls between them and follows the share of slow time.
    side = {"steps": len(latencies), "step_ms.p50": statistics.median(latencies) * 1e3}
    if family_seconds:
        side["trials_per_s"] = {name: len(latencies) * wl.block / spent
                                for name, spent in family_seconds.items()}
    return metrics, ops, failed, side


def run_traced(wl, seconds: float, workload: str):
    """Per-layer metrics: traced steps alternate with untraced ones."""
    import tracing

    imports = [import_ms() for _ in range(IMPORT_PROBES)]
    tracer = tracing.Tracer()
    plain, traced, ops, failed, family_seconds = closed_loop(wl, seconds, tracer)
    with tracing.AllocProbe() as probe:
        step_ops, step_failed = wl.step()
    ops += step_ops
    failed += step_failed

    metrics = dict.fromkeys(tracing.LAYERS, 0.0)
    metrics.update(tracing.layer_metrics(tracer.spans, tracer.counters, len(traced)))
    metrics["import.rfe_ms"] = statistics.median(rfe for rfe, _ in imports)
    metrics["import.scipy_ms"] = statistics.median(scipy for _, scipy in imports)
    for name, spent in family_seconds.items():
        metrics[f"harness.trials_per_s.{name}"] = len(plain) * wl.block / spent
    metrics["estimator.peak_alloc_mb"] = probe.peak_mb()
    metrics["trace.overhead_pct"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
    tracer.write(SPANS_DIR / f"spans-{workload}.csv")
    side = {"steps": len(plain) + len(traced), "traced_steps": len(traced),
            "spans": len(tracer.spans)}
    return metrics, ops, failed, side


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "deep_samples", "fine_grid", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "rfe" / "__init__.py").is_file():
        print(f"error: no rfe sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rfe

    if Path(rfe.__file__).resolve().parent != SRC / "rfe":
        print(f"error: imported rfe from {rfe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    calib = [calibrate_ms()]
    wl = workloads.WORKLOADS[args.workload](args.seed)
    for line in wl.mismatches:
        print(f"error: {line}", file=sys.stderr)
    if args.trace:
        metrics, ops, failed, side = run_traced(wl, args.seconds, args.workload)
        units = {name: unit for name, (unit, *_) in tracing.LAYERS.items()}
    else:
        metrics, ops, failed, side = run_untraced(wl, args.seconds, args.workload, args.seed)
        units = END_TO_END
    calib.append(calibrate_ms())
    if args.trace:
        metrics["machine.calib_ms"] = statistics.median(calib)

    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "seconds": args.seconds, "env": environment(args.seed),
                      "ops": ops, "failed_ops": failed, "plans_ok": not wl.mismatches,
                      "machine.calib_ms": calib, **side}))
    print(json.dumps({
        "correct": not wl.mismatches and failed == 0 and ops > 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
