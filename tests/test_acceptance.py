"""Acceptance battery: every quantitative exit criterion at its tolerance.

Each test is marked so the conftest hook prints one PASS/FAIL line per
criterion at the end of the run.  The dephasing clause of criterion 8 is
arithmetically unattainable as stated (see the strict-xfail test and
test notes in its docstring); the attainable limit form is asserted instead.
"""

import json
import math
import time

import numpy as np
import pytest

from rfe import bounds, verify
from rfe.bounds import BAN_THRESHOLD, DEPHASING_RATIO_NOMINAL, DEPHASING_RATIO_REDERIVED
from rfe.harness import BoundsQuery, FixedTheta, monte_carlo_success
from rfe.noise import (
    AdversaryStrategy,
    Ban,
    Dephasing,
    Gaussian,
    Ideal,
    biases_at,
)

TWO_PI = 2.0 * math.pi


@pytest.mark.acceptance(label="criterion 1: oracle equivalence, 1e-12 over 100 pairs, < 10 s")
def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    result = verify.suite_oracle()
    elapsed = time.perf_counter() - start
    assert result.details["max_abs_error"] <= 1e-12
    assert elapsed < 10.0
    assert result.passed


@pytest.mark.acceptance(label="criterion 2: kernel bounds certified for every K in [4, 2**22], zero violations, < 30 s")
def test_criterion_2_kernel_bounds():
    start = time.perf_counter()
    result = verify.suite_lemmas()
    elapsed = time.perf_counter() - start
    assert result.details["violation_count"] == 0
    assert result.details["min_close_magnitude"] >= 2 / math.pi - 1e-12
    assert result.details["max_non_adjacent_magnitude"] <= 10 / (9 * math.pi) + 1e-12
    assert result.details["max_non_adjacent_magnitude"] <= 1 / (2 * math.sqrt(2)) + 1e-12
    assert elapsed < 30.0
    assert result.passed


@pytest.mark.acceptance(label="criterion 3: noiseless desk-scale, K=63 M=3130, rate >= 0.90 over 500 trials, < 2 min")
def test_criterion_3_noiseless_guarantee():
    start = time.perf_counter()
    plan = bounds.bounds_report(0.1, 0.1, Ideal())
    assert (plan.grid_size, plan.samples) == (63, 3130)
    result = verify.suite_noiseless(trials=500)
    elapsed = time.perf_counter() - start
    assert result.details["stats"]["trials"] >= 500
    assert result.details["stats"]["rate"] >= 0.90
    assert elapsed < 120.0
    assert result.passed


@pytest.mark.acceptance(label="criterion 4: adversarial desk-scale, M=12510, inflation 3.997+-0.001, rate >= 0.90, divergence")
def test_criterion_4_adversarial_guarantee():
    plan = bounds.bounds_report(0.1, 0.1, Ban(0.05, AdversaryStrategy.SIGN_FLIP))
    assert plan.samples == 12510
    assert abs(plan.inflation_factor - 3.997) <= 1e-3
    result = verify.suite_adversarial(trials=300)
    assert result.details["stats"]["trials"] >= 300
    assert result.details["stats"]["rate"] >= 0.90
    ladder = result.details["divergence_ladder"]
    assert all(a < b for a, b in zip(ladder, ladder[1:]))
    assert result.details["rejects_threshold"]
    assert result.passed


@pytest.mark.acceptance(label="criterion 5: gaussian desk-scale, rate >= 0.90, exact clipped-normal coefficient law (variance within 5.5 z, mean within 4.13 z, sigma_k as written) on 1e3 runs per model")
def test_criterion_5_gaussian_guarantee():
    assert bounds.bounds_report(0.1, 0.1, Gaussian(0.1)).samples == 3559
    result = verify.suite_gaussian(trials=300)
    assert result.details["stats"]["trials"] >= 300
    assert result.details["stats"]["rate"] >= 0.90
    assert [law["model"]["kind"] for law in result.details["laws"]] == [
        "gaussian", "gaussian_linear"]
    for law in result.details["laws"]:
        assert law["scale_max_abs_dev"] <= 1e-12
        assert law["variance_max_abs_z"] <= 5.5
        assert abs(law["variance_pooled_z"]) <= 5.5
        assert law["mean_max_z"] <= 4.13
    assert result.passed


@pytest.mark.acceptance(label="criterion 6: threshold constants 0.100035/0.916/0.223 and discrepancy report emitted")
def test_criterion_6_threshold_constants(tmp_path):
    assert abs(BAN_THRESHOLD - 0.100035) <= 1e-6
    assert abs(DEPHASING_RATIO_NOMINAL - 0.916) <= 1e-3
    assert abs(DEPHASING_RATIO_REDERIVED - 0.223) <= 1e-3
    # the discrepancy is emitted as a report, never asserted away
    report = bounds.derivation_report()
    path = tmp_path / "derivation_report.json"
    path.write_text(json.dumps(report, indent=2))
    emitted = json.loads(path.read_text())
    section = emitted["dephasing_ratio"]
    assert section["nominal"] != pytest.approx(section["rederived"], abs=0.1)
    assert {"nominal", "rederived", "strict", "bisection_check"} <= set(section)
    assert verify.suite_thresholds().passed


@pytest.mark.acceptance(label="criterion 7: depth accounting, mean 31 +- 0.3 over 1e5 draws; budget within 2%")
def test_criterion_7_depth_accounting():
    result = verify.suite_depth()
    assert abs(result.details["mean_depth"] - 31.0) <= 0.3
    assert result.details["budget_3130_63"] == 97030.0
    assert result.details["relative_budget_dev"] <= 0.02
    assert result.passed


@pytest.mark.acceptance(label="criterion 8: noiseless-limit reductions (exact sample equality; zero-parameter biases)")
def test_criterion_8_noiseless_reductions():
    """The sample-count equality and the BAN/Gaussian zero-parameter
    reductions hold exactly.  For dephasing, the stated instantiation
    (T2 = 1e9 within 1e-12) is arithmetically unattainable for any time
    index k >= 1 — the deviation is (1 - exp(-k/T2))|cos(k theta)| ~ k/T2,
    up to ~6.2e-8 at k = 62 — so the reduction is asserted in its attainable
    forms (exact at T2 = inf, within 1e-12 at T2 = 1e18) and the T2 = 1e9
    deviation is checked against its true envelope.  The literal clause is
    kept as a strict xfail below."""
    result = verify.suite_reductions()
    assert result.details["samples_equal"]
    assert result.details["ban_dev"] <= 1e-12
    assert result.details["gaussian_dev"] <= 1e-12
    assert result.details["dephasing_inf_dev"] == 0.0
    assert result.details["dephasing_1e18_dev"] <= 1e-12
    measured = result.details["dephasing_1e9_dev"]
    envelope = result.details["dephasing_1e9_envelope"]
    assert measured <= envelope * (1 + 1e-9)
    assert measured > 1e-12  # the literal tolerance really is out of reach
    assert result.passed


@pytest.mark.acceptance(label="criterion 8 (literal dephasing clause): T2=1e9 biases equal ideal within 1e-12")
@pytest.mark.xfail(strict=True,
                   reason="unattainable as stated: the T2=1e9 bias deviation is "
                          "~k/1e9 (6.2e-8 at k=62), 4+ orders above 1e-12")
def test_criterion_8_literal_dephasing_clause():
    worst = 0.0
    for theta in (0.3, 1.0, 2.0, 3.0):
        bx, by = biases_at(Dephasing(1e9), theta, np.arange(63))
        ix, iy = biases_at(Ideal(), theta, np.arange(63))
        worst = max(worst, float(np.max(np.abs(bx - ix))),
                    float(np.max(np.abs(by - iy))))
    assert worst <= 1e-12


@pytest.mark.acceptance(label="criterion 9: demo-scale spectrum, eps=0.08 theta=2.25 K=79 M=80, CSV + rate over 200 seeds (report only)")
def test_criterion_9_demo_report(tmp_path):
    result = verify.suite_demo(trials=200, outdir=str(tmp_path))
    assert result.details["grid_size"] == 79
    csv_lines = (tmp_path / "demo_spectrum.csv").read_text().splitlines()
    assert csv_lines[0] == "j,re,im,abs"
    assert len(csv_lines) == 80
    rate = result.details["stats"]["rate"]
    assert 0.0 <= rate <= 1.0  # reported, deliberately not thresholded
    assert result.details["delta_backsolved_for_3200"] == pytest.approx(0.1048, abs=1e-3)
    assert result.passed


@pytest.mark.acceptance(label="cross-check: certified estimate lands within epsilon for a seeded fixed-phase campaign")
def test_fixed_phase_campaign_smoke():
    stats = monte_carlo_success(BoundsQuery(0.1, 0.1, Gaussian(0.1)), 50,
                                FixedTheta(2.25), master_seed=424242)
    assert stats.rate >= 0.90
