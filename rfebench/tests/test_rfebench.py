"""Tests of the benchmark itself: its declared metrics, the layer map, the
self-time arithmetic and the correctness gate.

Run from the repository root: python3 -m pytest -q rfebench/tests
"""

import json
import re
from collections import Counter

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_counts():
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = end_to_end + per_layer + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    for name in names:
        assert NAME.fullmatch(name), name


def test_declared_metrics_match_run_and_tracing():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == {name: (unit, better)
                        for name, (unit, better, _, _) in tracing.LAYERS.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_layer_names_its_end_to_end_metric_and_workload():
    for name, (_, _, end_to_end, on) in tracing.LAYERS.items():
        assert end_to_end in run.END_TO_END, name
        assert on and set(on) <= set(workloads.WORKLOADS), name


def test_layer_metrics_cover_every_traced_layer_on_an_empty_trace():
    computed = tracing.layer_metrics([], Counter(), steps=0)
    # run.py fills in the rest from its probes and untraced steps.
    filled_by_run = {"import.rfe_ms", "import.scipy_ms", "estimator.peak_alloc_mb",
                     "machine.calib_ms", "trace.overhead_pct",
                     *(f"harness.trials_per_s.{f}" for f in workloads.campaign_families())}
    assert set(computed) | filled_by_run == set(tracing.LAYERS)
    assert all(value == 0.0 for value in computed.values())


def span(name, start, end, parent=None, work=0):
    return [name, start, end, parent, 0, work]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("op", 0, 100),
        span("a", 10, 40, parent=0),
        span("b", 30, 60, parent=0),    # overlaps a: the union 10..60 counts once
        span("c", 90, 120, parent=0),   # runs past its parent: clipped to 90..100
        span("d", 15, 20, parent=1),
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 30, 5]


def test_layer_metrics_on_a_synthetic_campaign():
    spans = [
        span("op", 0, 1000),
        span("harness.monte_carlo_success", 0, 1000, parent=0, work=2),
        span("harness.trial_rng", 0, 100, parent=1),
        span("estimator.estimate_phase", 100, 500, parent=1),
        span("bounds.bounds_report", 100, 150, parent=3),
        span("estimator.run_rfe", 150, 500, parent=3),
        span("sampler.sample_pairs", 200, 400, parent=5, work=100),
        span("estimator.estimate_phase", 500, 900, parent=1),
        span("bounds.bounds_report", 500, 550, parent=7),
        span("estimator.run_rfe", 550, 900, parent=7),
        span("sampler.sample_pairs", 600, 800, parent=9, work=100),
    ]
    counters = Counter(samples=200, clamped=10, bytes=8200)
    m = tracing.layer_metrics(spans, counters, steps=1)
    assert m["bounds.plans_per_trial"] == 1.0
    assert m["harness.trial_overhead_us"] == pytest.approx((1000 - 800) / 2 / 1e3)
    assert m["estimator.run_us"] == pytest.approx(350 / 1e3)
    assert m["estimator.self_us"] == pytest.approx(150 / 1e3)
    assert m["sampler.ns_per_sample"] == pytest.approx(2.0)
    assert m["sampler.samples_per_run"] == 100
    assert m["sampler.clamp_rate"] == pytest.approx(0.05)
    assert m["harness.campaign_ms"] == pytest.approx(1000 / 1e6)


def test_a_campaign_in_a_worker_pool_counts_no_trials():
    spans = [span("op", 0, 1000),
             span("harness.monte_carlo_success", 0, 900, parent=0, work=500),
             span("bounds.bounds_report", 900, 950, parent=0)]
    m = tracing.layer_metrics(spans, Counter(), steps=1)
    assert m["bounds.plans_per_trial"] == 0.0
    assert m["harness.trial_overhead_us"] == 0.0


def test_gate_counts_a_wrong_estimate_as_failed():
    theta, epsilon = 1.0, 0.1
    assert not workloads.op_failed(lambda: theta + 0.5 * epsilon, theta, epsilon)
    assert workloads.op_failed(lambda: theta + 2.0 * epsilon, theta, epsilon)

    def crash():
        raise ValueError("broken estimator")

    assert workloads.op_failed(crash, theta, epsilon)


def test_single_run_step_fails_when_the_estimator_is_wrong(monkeypatch):
    wl = workloads.fine_grid(seed=3)
    assert wl.mismatches == []
    real = workloads.estimator.estimate_phase

    def off_by_two_bins(epsilon, delta, noise, theta, seed=0):
        result = real(epsilon, delta, noise, theta, seed=seed)
        return type(result)(theta_hat=result.theta_hat + 2 * epsilon,
                            winning_index=result.winning_index, spectrum=result.spectrum)

    assert wl.step() == (1, 0)
    monkeypatch.setattr(workloads.estimator, "estimate_phase", off_by_two_bins)
    assert wl.step() == (1, 1)


def test_tracer_records_nested_spans_and_restores_the_functions():
    import rfe.estimator

    original = rfe.estimator.sample_pairs
    tracer = tracing.Tracer()
    wl = workloads.fine_grid(seed=5)
    assert tracer.traced_op(0, wl.step) == (1, 0)
    assert rfe.estimator.sample_pairs is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == tracing.ROOT_SPAN
    run_index = names.index("estimator.run_rfe")
    sampler = tracer.spans[names.index("sampler.sample_pairs")]
    assert sampler[tracing.PARENT] == run_index
    assert tracer.counters["samples"] == 6169
