"""Spans around rfe's public functions, and the per-layer metrics built from them.

The traced run wraps each function listed in PATCHES in every module that
looks it up by name (``rfe.estimator.sample_pairs``, ``rfe.harness.trial_rng``,
``rfe.verify.suite_lemmas``, ...).  A span records its name, start, end,
parent span and op id; spans stay in memory and are written out when the run
ends.  Calls made in other processes (the verify suites' process pool) run
the original function untraced.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from workloads import VERIFY_SUITES, WORKLOADS, campaign_families

ALL_WORKLOADS = tuple(WORKLOADS)

# Span name -> (function name, modules whose global of that name is wrapped).
PATCHES = {
    "bounds.bounds_report": ("bounds_report", ("rfe.bounds", "rfe.estimator", "rfe.harness")),
    "estimator.estimate_phase": ("estimate_phase", ("rfe.estimator", "rfe.harness")),
    "estimator.run_rfe": ("run_rfe", ("rfe.estimator", "rfe.harness", "rfe.verify")),
    "noise.draw_run_noise": ("draw_run_noise", ("rfe.estimator",)),
    "noise.bias_table": ("bias_table", ("rfe.estimator",)),
    "sampler.sample_pairs": ("sample_pairs", ("rfe.estimator",)),
    "estimator.winning_frequency": ("winning_frequency", ("rfe.estimator",)),
    "harness.trial_rng": ("trial_rng", ("rfe.harness",)),
    "harness.monte_carlo_success": ("monte_carlo_success", ("rfe.harness", "rfe.verify")),
    "harness.exact_estimator_expectation": ("exact_estimator_expectation", ("rfe.verify",)),
    "harness.lemma_bound_scan": ("lemma_bound_scan", ("rfe.verify",)),
    "harness.gaussian_shift_variance": ("gaussian_shift_variance", ("rfe.verify",)),
    "spectrum.dirichlet_kernel": ("dirichlet_kernel", ("rfe.spectrum", "rfe.harness")),
    "spectrum.expected_spectrum": ("expected_spectrum", ("rfe.spectrum", "rfe.verify")),
    **{f"verify.suite_{s}": (f"suite_{s}", ("rfe.verify",)) for s in VERIFY_SUITES},
}

ROOT_SPAN = "op"

# Per-layer metric -> (unit, better, end-to-end metric it should move, workloads
# on which it should move it).  A layer a workload does not reach reads 0.
_CAMPAIGN = ("campaign",)
_VERIFY = ("verify",)
LAYERS = {
    "import.rfe_ms": ("ms", "lower", "setup_s", ALL_WORKLOADS),
    "import.scipy_ms": ("ms", "lower", "setup_s", ALL_WORKLOADS),
    "bounds.plan_us": ("us", "lower", "ops_per_s", _CAMPAIGN),
    "bounds.plans_per_trial": ("count", "lower", "ops_per_s", _CAMPAIGN),
    "harness.trial_overhead_us": ("us", "lower", "ops_per_s", _CAMPAIGN),
    "harness.trial_rng_us": ("us", "lower", "ops_per_s", _CAMPAIGN),
    **{f"harness.trials_per_s.{f}": ("1/s", "higher", "ops_per_s", _CAMPAIGN)
       for f in campaign_families()},
    "harness.campaign_ms": ("ms", "lower", "ops_per_s", ("campaign", "verify")),
    "harness.oracle_ms": ("ms", "lower", "ops_per_s", _VERIFY),
    "harness.lemma_scan_ms": ("ms", "lower", "ops_per_s", _VERIFY),
    "harness.shift_variance_ms": ("ms", "lower", "ops_per_s", _VERIFY),
    "spectrum.kernel_ms": ("ms", "lower", "ops_per_s", _VERIFY),
    "spectrum.expected_ms": ("ms", "lower", "ops_per_s", _VERIFY),
    **{f"verify.suite_ms.{s}": ("ms", "lower", "ops_per_s", _VERIFY) for s in VERIFY_SUITES},
    "noise.draw_us": ("us", "lower", "ops_per_s", ("fine_grid", "campaign")),
    "noise.bias_table_us": ("us", "lower", "ops_per_s", ("fine_grid", "campaign")),
    "sampler.draw_us": ("us", "lower", "ops_per_s", ("deep_samples", "campaign")),
    "sampler.ns_per_sample": ("ns", "lower", "ops_per_s", ("deep_samples", "campaign")),
    "sampler.samples_per_run": ("count", "lower", "ops_per_s", ("deep_samples",)),
    "sampler.clamp_rate": ("ratio", "lower", "ops_per_s", _CAMPAIGN),
    "sampler.bytes_per_run": ("B", "lower", "peak_rss_mb", ("deep_samples",)),
    "estimator.run_us": ("us", "lower", "ops_per_s", ("deep_samples", "fine_grid")),
    "estimator.self_us": ("us", "lower", "ops_per_s", ("deep_samples", "fine_grid")),
    "estimator.peak_pick_us": ("us", "lower", "ops_per_s", ("fine_grid",)),
    "estimator.peak_alloc_mb": ("MB", "lower", "peak_rss_mb", ("deep_samples",)),
    "machine.calib_ms": ("ms", "lower", "ops_per_s", ALL_WORKLOADS),
    "trace.overhead_pct": ("%", "lower", "ops_per_s", ALL_WORKLOADS),
}

# Index, time-index gather (x2), outcome and clamp-flag arrays at the sampler
# boundary: 8 + 16 + 16 + 1 bytes per sample.  Temporaries inside are ignored.
_INDEX_BYTES = 8

# Span fields.
NAME, START, END, PARENT, OP, WORK = range(6)


def _count_samples(counters: Counter, span: list, args, result) -> None:
    c, s, clamped = result
    span[WORK] = c.shape[0]
    counters["samples"] += c.shape[0]
    counters["clamped"] += int(clamped.sum())
    counters["bytes"] += (args[0].nbytes + args[1].nbytes + c.nbytes + s.nbytes
                          + clamped.nbytes + _INDEX_BYTES * c.shape[0])


def _count_trials(counters: Counter, span: list, args, result) -> None:
    span[WORK] = result.trials


_COUNTERS = {
    "sampler.sample_pairs": _count_samples,
    "harness.monte_carlo_success": _count_trials,
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patches = []
        for span_name, (attr, modules) in PATCHES.items():
            for module_name in modules:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    wrapped = self._wrap(span_name, original, _COUNTERS.get(span_name))
                    self._patches.append((module, attr, original, wrapped))

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else None,
                self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:  # a pool worker: untraced
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counters, span, args, result)
            return result
        return traced

    def traced_op(self, op: int, fn):
        """Install the wrappers, run ``fn`` under a root span, uninstall."""
        self.op = op
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)
        span = self._open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self._close(span)
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_ns", "end_ns", "parent", "op", "work"])
            for index, span in enumerate(self.spans):
                out.writerow([index, *span])


def children_of(spans: list) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            kids[span[PARENT]].append(index)
    return kids


def self_times(spans: list, kids: list[list[int]] | None = None) -> list[int]:
    """Each span's duration minus the union of its children's intervals
    clipped to it."""
    if kids is None:
        kids = children_of(spans)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        intervals = sorted((max(spans[c][START], start), min(spans[c][END], end))
                           for c in kids[index])
        covered = 0
        run_start = run_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list, counters: Counter, steps: int) -> dict:
    """Per-layer numbers from the spans of ``steps`` traced steps.

    ``*_us`` metrics are the mean per call; ``*_ms`` metrics are the total
    per traced step.  The trial metrics count only campaigns that ran in this
    process (a campaign span with traced children) and the workload's own
    ``estimate_phase`` calls.
    """
    kids = children_of(spans)
    selfs = self_times(spans, kids)
    calls: Counter = Counter()
    total: Counter = Counter()
    self_total: Counter = Counter()
    for span, own in zip(spans, selfs):
        calls[span[NAME]] += 1
        total[span[NAME]] += span[END] - span[START]
        self_total[span[NAME]] += own

    def mean_us(name):
        return total[name] / calls[name] / 1e3 if calls[name] else 0.0

    def per_step_ms(name):
        return total[name] / steps / 1e6 if steps else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    in_process = set()
    trials = overhead_ns = 0
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if span[NAME] == "harness.monte_carlo_success" and kids[index]:
            in_process.add(index)
            trials += span[WORK]
            overhead_ns += span[END] - span[START] - sum(
                spans[c][END] - spans[c][START] for c in kids[index]
                if spans[c][NAME] == "estimator.estimate_phase")
        elif (span[NAME] == "estimator.estimate_phase" and parent is not None
              and spans[parent][NAME] == ROOT_SPAN):
            in_process.add(index)
            trials += 1
    plans = 0
    for span in spans:
        if span[NAME] != "bounds.bounds_report":
            continue
        parent = span[PARENT]
        while parent is not None and parent not in in_process:
            parent = spans[parent][PARENT]
        plans += parent is not None

    samples = counters["samples"]
    sampler_calls = calls["sampler.sample_pairs"]
    return {
        "bounds.plan_us": mean_us("bounds.bounds_report"),
        "bounds.plans_per_trial": ratio(plans, trials),
        "harness.trial_overhead_us": ratio(overhead_ns, trials) / 1e3,
        "harness.trial_rng_us": mean_us("harness.trial_rng"),
        "harness.campaign_ms": per_step_ms("harness.monte_carlo_success"),
        "harness.oracle_ms": per_step_ms("harness.exact_estimator_expectation"),
        "harness.lemma_scan_ms": per_step_ms("harness.lemma_bound_scan"),
        "harness.shift_variance_ms": per_step_ms("harness.gaussian_shift_variance"),
        "spectrum.kernel_ms": per_step_ms("spectrum.dirichlet_kernel"),
        "spectrum.expected_ms": per_step_ms("spectrum.expected_spectrum"),
        **{f"verify.suite_ms.{s}": per_step_ms(f"verify.suite_{s}") for s in VERIFY_SUITES},
        "noise.draw_us": mean_us("noise.draw_run_noise"),
        "noise.bias_table_us": mean_us("noise.bias_table"),
        "sampler.draw_us": mean_us("sampler.sample_pairs"),
        "sampler.ns_per_sample": ratio(total["sampler.sample_pairs"], samples),
        "sampler.samples_per_run": ratio(samples, sampler_calls),
        "sampler.clamp_rate": ratio(counters["clamped"], samples),
        "sampler.bytes_per_run": ratio(counters["bytes"], sampler_calls),
        "estimator.run_us": mean_us("estimator.run_rfe"),
        "estimator.self_us": ratio(self_total["estimator.run_rfe"],
                                   calls["estimator.run_rfe"]) / 1e3,
        "estimator.peak_pick_us": mean_us("estimator.winning_frequency"),
    }


class AllocProbe:
    """Tracemalloc peak of every ``run_rfe`` call while installed.

    Tracing starts at the call and stops at its return, so the peak counts
    only what the run itself allocates.
    """

    _MODULES = PATCHES["estimator.run_rfe"][1]

    def __init__(self):
        self.peaks: list[int] = []
        self._saved = []
        self._pid = os.getpid()

    def __enter__(self):
        for module_name in self._MODULES:
            module = importlib.import_module(module_name)
            original = module.run_rfe
            self._saved.append((module, original))
            module.run_rfe = self._wrap(original)
        return self

    def __exit__(self, *exc):
        for module, original in self._saved:
            module.run_rfe = original
        self._saved.clear()
        return False

    def _wrap(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if os.getpid() != self._pid:  # a pool worker: unmeasured
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured

    def peak_mb(self) -> float:
        return max(self.peaks, default=0) / 2 ** 20
