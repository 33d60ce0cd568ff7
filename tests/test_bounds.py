"""Resource formulas: frozen values, monotonicity, thresholds, reports."""

import math
from dataclasses import replace

import pytest
from scipy.optimize import brentq

from rfe.bounds import (
    BAN_THRESHOLD,
    MAX_GRID_SIZE,
    MAX_SAMPLES,
    BoundsReport,
    BoundsUnachievable,
    bounds_report,
    bisect,
    derivation_report,
    expected_total_depth,
    grid_size,
    sigma_max,
)
from rfe.noise import (
    Ban,
    Dephasing,
    Gaussian,
    GaussianLinear,
    HighCoherence,
    Ideal,
)

TWO_PI = 2.0 * math.pi


class TestGridSize:
    def test_frozen_values(self):
        assert grid_size(0.1) == 63
        assert grid_size(0.08) == 79
        assert grid_size(math.pi / 2) == 4
        assert grid_size(0.0004) == 15708

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                grid_size(bad)

    def test_rejects_epsilons_too_small_for_a_grid(self):
        # 2 pi / epsilon overflows to inf, which has no ceiling
        for tiny in (5e-324, 1e-320):
            with pytest.raises(ValueError, match="too small"):
                grid_size(tiny)

    def test_plans_reject_underflowing_delta_epsilon(self):
        # delta * epsilon underflows to 0 or overflows 16 pi / (delta epsilon)
        for epsilon, delta in ((5e-324, 0.1), (1e-300, 1e-10)):
            with pytest.raises(ValueError, match="too small"):
                bounds_report(epsilon, delta)


def samples(epsilon, delta, noise=Ideal()):
    return bounds_report(epsilon, delta, noise).samples


def in_spec_failure_bound(samples, grid_size, inflation=1.0):
    """4 K exp(-2 M / (81 pi^2 inflation)), capped at 1: the union bound that
    one of K coefficient estimates from M samples lands more than 4/(9 pi)
    from its expectation; adversarial noise shrinks the exponent by the
    inflation factor."""
    return min(1.0, 4.0 * grid_size * math.exp(
        -2.0 * samples / (inflation * 81.0 * math.pi ** 2)))


class TestSampleCounts:
    def test_noiseless_frozen(self):
        assert samples(0.1, 0.1) == 3130

    def test_noiseless_monotonicity(self):
        assert samples(0.1, 0.05) > samples(0.1, 0.1)
        assert samples(0.05, 0.1) > samples(0.1, 0.1)

    def test_ban_frozen(self):
        report = bounds_report(0.1, 0.1, Ban(0.05))
        assert report.samples == 12510
        assert report.inflation_factor == pytest.approx(3.9971907692598534, abs=1e-12)

    def test_ban_reduces_to_noiseless_on_grid(self):
        pairs = [(eps, delta)
                 for eps in (0.05, 0.1, 0.15, 0.2, 0.3)
                 for delta in (0.01, 0.05, 0.1, 0.2)]
        assert len(pairs) == 20
        for eps, delta in pairs:
            noiseless = math.ceil(81 * math.pi ** 2 / 2 * math.log(8 * math.pi / (delta * eps)))
            assert samples(eps, delta, Ban(0.0)) == samples(eps, delta, Ideal()) == noiseless

    def test_ban_monotone_and_divergent(self):
        grid = [0.0, 0.02, 0.04, 0.06, 0.08, 0.098]
        counts = [samples(0.1, 0.1, Ban(e)) for e in grid]
        assert all(a < b for a, b in zip(counts, counts[1:]))
        ladder = [samples(0.1, 0.1, Ban(BAN_THRESHOLD * (1 - 10.0 ** -t)))
                  for t in range(1, 7)]
        assert all(a < b for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] > 10 ** 12  # diverging toward the threshold

    def test_ban_threshold_rejected(self):
        with pytest.raises(BoundsUnachievable) as info:
            bounds_report(0.1, 0.1, Ban(BAN_THRESHOLD))
        assert "0.100035" in str(info.value)
        with pytest.raises(BoundsUnachievable):
            bounds_report(0.1, 0.1, Ban(0.15))

    def test_gaussian_frozen(self):
        assert samples(0.1, 0.1, Gaussian(0.0)) == 3407
        assert samples(0.1, 0.1, Gaussian(1.0)) == 5543
        assert samples(0.1, 0.1, Gaussian(0.1)) == 3559
        assert bounds_report(0.1, 0.1, Gaussian(1.0)).inflation_factor == pytest.approx(
            1.6269066469004698, abs=1e-12)

    def test_gaussian_exceeds_noiseless_at_zero(self):
        # the half failure budget spent on the draw costs ~ln 2 extra
        assert samples(0.1, 0.1, Gaussian(0.0)) > samples(0.1, 0.1)

    def test_gaussian_monotone_in_sigma(self):
        counts = [samples(0.1, 0.1, Gaussian(s)) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_gaussian_threshold_rejected(self):
        with pytest.raises(BoundsUnachievable) as info:
            bounds_report(0.1, 0.1, Gaussian(5.0))
        assert "4.6297" in str(info.value)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            bounds_report(0.1, 0.0)
        with pytest.raises(ValueError):
            bounds_report(-0.1, 0.5)
        with pytest.raises(ValueError):
            bounds_report(0.1, 1.5, Ban(0.01))


class TestSigmaMax:
    def test_frozen_value(self):
        assert sigma_max(0.1, 0.1) == pytest.approx(4.629731027503124, abs=1e-12)

    def test_scaling_with_epsilon(self):
        # ~ eps^(-1/2) up to the log correction
        ratio = sigma_max(0.05, 0.1) / sigma_max(0.1, 0.1)
        assert math.sqrt(2) <= ratio <= math.sqrt(2) * 1.05

    def test_finite_at_wide_targets(self):
        value = sigma_max(1.5, 0.999)
        assert math.isfinite(value) and value > 0.0

    def test_divergence_point_matches_sigma_max(self):
        # the gaussian inflation blows up exactly at sigma_max
        limit = sigma_max(0.1, 0.1)
        assert bounds_report(0.1, 0.1, Gaussian(limit * (1 - 1e-7))).inflation_factor > 1e13
        with pytest.raises(BoundsUnachievable, match="at or above sigma_max"):
            bounds_report(0.1, 0.1, Gaussian(limit))


class TestInspecFailureBound:
    """The certified M keeps every coefficient estimate in spec with
    probability 1 - delta, up to the ceiling slack on K."""

    def test_generic_grid_provable_cap(self):
        # bound <= delta * K eps/(2 pi): the ceiling slack on K costs at most
        # that factor over delta
        for eps in (0.05, 0.08, 0.1, 0.15, 0.2, 0.3):
            for delta in (0.01, 0.05, 0.1, 0.2):
                plan = bounds_report(eps, delta)
                bound = in_spec_failure_bound(plan.samples, plan.grid_size)
                cap = delta * plan.grid_size * eps / TWO_PI
                assert bound <= cap * (1 + 1e-9)

    def test_exact_construction_grid(self):
        # with eps marginally above 2 pi/K the construction is exact and the
        # bound stays below delta
        for K in (8, 16, 32, 63, 100, 128, 200, 256, 400, 512):
            for delta in (0.05, 0.1):
                eps = TWO_PI / K * (1 + 1e-9)
                assert grid_size(eps) == K
                assert in_spec_failure_bound(samples(eps, delta), K) <= delta

    def test_ban_variant_needs_valid_eta(self):
        # the adversarial M pays for the shrunk exponent in full; past the
        # threshold there is no plan
        for eta in (0.01, 0.05, 0.09):
            plan = bounds_report(0.1, 0.1, Ban(eta))
            bound = in_spec_failure_bound(plan.samples, 63, plan.inflation_factor)
            assert bound <= 0.1 * 63 * 0.1 / TWO_PI * (1 + 1e-9)
        with pytest.raises(BoundsUnachievable):
            bounds_report(0.1, 0.1, Ban(0.2))


class TestExpectedTotalDepth:
    def test_frozen_value(self):
        assert expected_total_depth(3130, 63) == 97030.0

    def test_single_point_grid(self):
        assert expected_total_depth(500, 1) == 0.0

    def test_budget_matches_pi_over_epsilon(self):
        # (K-1)/2 vs pi/eps at eps = 0.1, K = 63: within 2%
        assert abs((63 - 1) / 2 / (math.pi / 0.1) - 1) <= 0.02


class TestBoundsReport:
    def test_ideal(self):
        report = bounds_report(0.1, 0.1, Ideal())
        assert (report.grid_size, report.samples) == (63, 3130)
        assert report.inflation_factor == 1.0
        assert report.expected_total_depth == 97030.0
        assert report.thresholds["ban_eta_bar"] == BAN_THRESHOLD

    def test_ban(self):
        report = bounds_report(0.1, 0.1, Ban(0.05))
        assert report.samples == 12510
        assert report.inflation_factor == pytest.approx(3.9972, abs=1e-4)

    def test_gaussian(self):
        report = bounds_report(0.1, 0.1, Gaussian(0.1))
        assert report.samples == 3559

    @pytest.mark.parametrize("epsilon,delta,model,plan", [
        (0.1, 0.1, Dephasing(6300.0), (63, 3860)),
        (0.1, 0.1, HighCoherence(6300.0), (63, 3864)),
        (0.1, 0.1, Dephasing(630.0), (63, 1319077)),
        (1e-4, 0.1, Gaussian(0.01), (62832, 6169)),
        (0.08, 0.105, Ideal(), (79, 3200)),
    ], ids=["dephasing_6300", "high_coherence_6300", "dephasing_630",
            "gaussian_fine_grid", "demo_ideal"])
    def test_benchmarked_plans(self, epsilon, delta, model, plan):
        # the campaign, deep-sample and fine-grid runs and rfe verify's demo
        # run at these (K, M)
        report = bounds_report(epsilon, delta, model)
        assert (report.grid_size, report.samples) == plan

    def test_dephasing_embedding(self):
        # K = 63, ratio K/T2 = 0.1 -> implied eta_bar = 1 - exp(-0.1)
        report = bounds_report(0.1, 0.1, Dephasing(630.0))
        implied = -math.expm1(-63 / 630.0)
        assert report.thresholds["implied_eta_bar"] == pytest.approx(implied, rel=1e-12)
        assert report.samples == samples(0.1, 0.1, Ban(implied))

    def test_dephasing_past_threshold(self):
        # ratio 0.2 implies eta_bar ~ 0.181 > threshold
        with pytest.raises(BoundsUnachievable):
            bounds_report(0.1, 0.1, Dephasing(63 / 0.2))

    def test_infinite_envelope_is_past_the_threshold(self):
        # K/T2 overflows to inf: past the threshold, not a malformed eta_bar
        with pytest.raises(BoundsUnachievable, match="eta_bar=inf is at or above"):
            bounds_report(0.1, 0.1, HighCoherence(5e-324))

    def test_high_coherence_embedding(self):
        report = bounds_report(0.1, 0.1, HighCoherence(6300.0))
        assert report.thresholds["implied_eta_bar"] == pytest.approx(0.01, rel=1e-12)
        assert report.samples == samples(0.1, 0.1, Ban(0.01))

    def test_gaussian_linear_rejected(self):
        with pytest.raises(BoundsUnachievable):
            bounds_report(0.1, 0.1, GaussianLinear(0.01))

    def test_trivial_regime(self):
        report = bounds_report(2.0, 0.1, Ideal())
        assert (report.samples, report.grid_size) == (0, 4)
        assert report.grid_size >= grid_size(2.0)
        assert report.inflation_factor == 1.0

    def test_replaced_plan_reports_its_own_depth(self):
        # an uncertified plan built by replace keeps the certified K and the
        # thresholds, but its depth follows its own M
        report = replace(bounds_report(0.1, 0.1, Ideal()), samples=80)
        assert report.expected_total_depth == 2480.0
        assert report.to_dict()["expected_total_depth"] == 2480.0

    def test_sample_count_past_int64_guard_rejected(self):
        # the formula alone certifies ~3e27 samples this close to the threshold
        eta = BAN_THRESHOLD * (1 - 1e-12)
        with pytest.raises(BoundsUnachievable, match=r"sample count 3\.130e\+27 exceeds"):
            bounds_report(0.1, 0.1, Ban(eta))
        assert bounds_report(0.1, 0.1, Ban(0.0999)).samples <= MAX_SAMPLES

    def test_grid_past_the_cap_rejected(self):
        # epsilon = 1e-10 needs K = 62,831,853,072, which no run accepts; the
        # epsilon of the largest runnable grid still plans
        for model in (Ideal(), Ban(0.05), Gaussian(0.1)):
            with pytest.raises(BoundsUnachievable, match="grid size 62831853072"):
                bounds_report(1e-10, 0.1, model)
        epsilon = TWO_PI / MAX_GRID_SIZE * (1 + 1e-9)
        assert bounds_report(epsilon, 0.1, Ideal()).grid_size == MAX_GRID_SIZE
        with pytest.raises(BoundsUnachievable):
            bounds_report(TWO_PI / (MAX_GRID_SIZE + 1), 0.1, Ideal())

    def test_round_trip_dict(self):
        report = bounds_report(0.1, 0.1, Ban(0.05))
        data = report.to_dict()
        assert data["K"] == 63 and data["M"] == 12510
        assert data["noise"]["kind"] == "ban"
        assert set(data["thresholds"]) >= {"ban_eta_bar", "sigma_max",
                                           "dephasing_ratio_nominal",
                                           "dephasing_ratio_rederived"}
        assert isinstance(report, BoundsReport)


class TestDerivationReport:
    def test_sections_present(self):
        report = derivation_report()
        assert set(report) == {"ban", "dephasing_ratio", "gaussian_inflation",
                               "high_coherence_depth_budget"}

    def test_dephasing_candidates(self):
        section = derivation_report()["dephasing_ratio"]
        assert section["nominal"] == pytest.approx(0.9164, abs=1e-4)
        assert section["rederived"] == pytest.approx(0.2232, abs=1e-4)
        assert section["strict"] == pytest.approx(0.10539956779777171, abs=1e-12)
        assert section["bisection_check"] == pytest.approx(section["rederived"], abs=1e-10)

    def test_five_times_candidates(self):
        section = derivation_report()["high_coherence_depth_budget"]
        assert section["grid_size"] == 15708
        assert section["t2_over_max_depth_strict"] == pytest.approx(9.9965, abs=1e-3)
        assert section["t2_over_max_depth_halved_deviation"] == pytest.approx(4.9982, abs=1e-3)
        assert section["t2_over_expected_depth"] == pytest.approx(19.993, abs=1e-2)

    def test_gaussian_factor_discrepancy_reported(self):
        section = derivation_report()["gaussian_inflation"]
        assert section["nominal_factor"] == pytest.approx(1.0446400979155872, rel=1e-12)
        assert section["rederived_factor"] > section["nominal_factor"]
        assert "sqrt(sigma^2/(4K) ln(8K/delta))" in section["note"]


class TestBisect:
    def test_matches_brentq(self):
        # brentq is the independent reference root finder
        for f, lo, hi in ((math.cos, 0.0, 3.0),
                          (lambda x: x ** 3 - 2.0, 0.0, 2.0),
                          (lambda x: (1.0 - math.exp(-x)) / 2.0 - 0.1, 1e-12, 5.0),
                          (lambda x: 1.0 - x, 0.0, 1e6)):
            assert bisect(f, lo, hi) == pytest.approx(brentq(f, lo, hi, xtol=1e-15),
                                                      rel=1e-14, abs=1e-15)

    def test_root_at_bracket_end(self):
        assert bisect(lambda x: x, 0.0, 1.0) == 0.0
        assert bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0
        assert bisect(lambda x: 1.0 - x, 0.0, 1.0) == 1.0

    def test_unbracketed_root_rejected(self):
        with pytest.raises(ValueError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)
