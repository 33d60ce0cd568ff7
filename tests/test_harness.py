"""Oracle spectra, Wilson intervals, Monte Carlo campaigns, scans, sweeps."""

import itertools
import json
import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rfe import cli, harness
from rfe.bounds import MAX_GRID_SIZE, BoundsQuery, bounds_report
from rfe.estimator import run_rfe
from rfe.harness import (
    FixedTheta,
    UniformTheta,
    block_rng,
    exact_estimator_expectation,
    lemma_bound_scan,
    monte_carlo_success,
    noise_sweep,
    pool_size,
    thread_map,
    wilson_interval,
)
from rfe.noise import AdversaryStrategy, Ban, DeviationTable, Gaussian, GaussianLinear, Ideal
from rfe.spectrum import (
    CLOSE_MAGNITUDE_MIN,
    NON_ADJACENT_ENVELOPE_MAX,
    NON_ADJACENT_MAGNITUDE_MAX,
    dirichlet_kernel,
    expected_spectrum,
)

TWO_PI = 2.0 * math.pi


class TestExactOracle:
    def test_matches_closed_form_random_pairs(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(30):
            K = int(rng.integers(1, 129))
            theta = float(rng.uniform(0.0, TWO_PI))
            oracle = exact_estimator_expectation(theta, K)
            closed = expected_spectrum(theta, K)
            worst = max(worst, float(np.max(np.abs(oracle - closed))))
        assert worst < 1e-12

    def test_zero_deviations_zero_shift(self):
        table = DeviationTable(eta1=np.zeros(16), eta2=np.zeros(16))
        oracle = exact_estimator_expectation(1.3, 16, deviations=table)
        assert np.array_equal(oracle, exact_estimator_expectation(1.3, 16))

    def test_constant_deviation_shift_is_dc_indicator(self):
        # a constant table shifts only coefficient 0, by exactly a + i b;
        # K theta < 2.1 keeps every bias inside [-1, 1], so nothing is clamped
        a, b, K, theta = -0.04, -0.02, 8, 0.3
        table = DeviationTable(eta1=np.full(K, a), eta2=np.full(K, b))
        oracle = exact_estimator_expectation(theta, K, deviations=table)
        expected = expected_spectrum(theta, K)
        expected[0] += a + 1j * b
        assert np.max(np.abs(oracle - expected)) < 1e-12

    def test_noisy_expectation_decomposes(self):
        # with all biases inside [-1, 1] the oracle equals tone + shift
        rng = np.random.default_rng(22)
        for _ in range(10):
            K = int(rng.integers(4, 64))
            theta = float(rng.uniform(0.0, TWO_PI))
            table = DeviationTable(eta1=rng.uniform(-0.04, 0.04, K),
                                   eta2=rng.uniform(-0.04, 0.04, K))
            # keep every bias physical so no clamping perturbs the algebra
            bx = np.cos(np.arange(K) * theta) + table.eta1
            by = np.sin(np.arange(K) * theta) + table.eta2
            if np.max(np.abs(bx)) > 1.0 or np.max(np.abs(by)) > 1.0:
                continue
            oracle = exact_estimator_expectation(theta, K, deviations=table)
            tone = expected_spectrum(theta, K)
            shift = np.fft.fft(table.eta1 + 1j * table.eta2) / K
            assert np.max(np.abs(oracle - (tone + shift))) < 1e-12

    def test_clamping_breaks_plain_decomposition(self):
        # biases pushed past 1 get clamped, so the linear split must fail
        K = 8
        table = DeviationTable(eta1=np.full(K, 0.8), eta2=np.zeros(K))
        oracle = exact_estimator_expectation(0.0, K, deviations=table)  # bias 1.8 at k=0
        tone = expected_spectrum(0.0, K)
        shift = np.fft.fft(table.eta1 + 1j * table.eta2) / K
        assert np.max(np.abs(oracle)) <= math.sqrt(2) + 1e-12
        assert np.max(np.abs(oracle - (tone + shift))) > 1e-3

    @pytest.mark.parametrize("K", [1, 255, 256, 257, 1024])
    def test_direct_dft_blocks_match_one_block(self, K):
        # every row's sum is the same whichever block of rows it is in
        rng = np.random.default_rng(K)
        values = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        k = np.arange(K)
        roots = np.exp(-2j * np.pi * k / K)
        reference = (roots[k[:, None] * k % K] * values).sum(axis=1)
        assert np.array_equal(harness._direct_dft(values), reference)

    @pytest.mark.parametrize("K", [1, 7, 255, 256])
    def test_direct_dft_matches_a_long_double_dft(self, K):
        # an 80-bit reference, with each angle reduced exactly mod K first
        rng = np.random.default_rng(K)
        values = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        k = np.arange(K)
        angle = (k[:, None] * k % K).astype(np.longdouble)
        angle *= -2 * np.longdouble("3.14159265358979323846264338327950288") / K
        re = values.real.astype(np.longdouble)
        im = values.imag.astype(np.longdouble)
        ref_re = (np.cos(angle) * re - np.sin(angle) * im).sum(axis=1)
        ref_im = (np.cos(angle) * im + np.sin(angle) * re).sum(axis=1)
        got = harness._direct_dft(values)
        error = np.hypot((got.real - ref_re).astype(float), (got.imag - ref_im).astype(float))
        assert np.max(error) < 5e-14

    def test_grid_size_cap(self):
        with pytest.raises(ValueError):
            exact_estimator_expectation(1.0, 5000)

    def test_deviation_table_must_cover(self):
        table = DeviationTable(eta1=np.zeros(4), eta2=np.zeros(4))
        with pytest.raises(ValueError):
            exact_estimator_expectation(1.0, 8, deviations=table)

    def test_deviation_table_must_be_one_run(self):
        with pytest.raises(ValueError):
            table = DeviationTable(eta1=np.zeros((8, 8)), eta2=np.zeros((8, 8)))
            exact_estimator_expectation(1.0, 8, deviations=table)


class TestWilson:
    def test_frozen_values(self):
        assert wilson_interval(90, 100) == pytest.approx(
            (0.8256343384950865, 0.9447708629393249), abs=1e-12)
        assert wilson_interval(50, 100) == pytest.approx(
            (0.4038315303659956, 0.5961684696340044), abs=1e-12)

    def test_edge_cases(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(20, 20)
        assert hi == 1.0 and lo < 1.0

    def test_contains_rate(self):
        for successes, trials in ((3, 7), (450, 500), (1, 1000)):
            lo, hi = wilson_interval(successes, trials)
            assert lo <= successes / trials <= hi

    def test_coverage_fair_coin(self):
        # 100 repetitions of 1e4 flips: the 95% interval should cover 0.5
        # almost every time (>= 93 of 100)
        rng = np.random.default_rng(404)
        covered = 0
        for _ in range(100):
            heads = int(rng.binomial(10 ** 4, 0.5))
            lo, hi = wilson_interval(heads, 10 ** 4)
            covered += lo <= 0.5 <= hi
        assert covered >= 93

    def test_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestBlockSeeding:
    def test_distinct_blocks_distinct_streams(self):
        draws = [block_rng(7, b).random(4) for b in range(50)]
        assert len({tuple(d) for d in draws}) == 50
        assert np.array_equal(block_rng(7, 3).random(4), draws[3])

    def test_blocks_draw_distinct_phases(self, monkeypatch):
        # every block of a campaign draws its own phases: record them
        seen = []
        original = harness.run_block

        def recording(thetas, *args):
            seen.append(np.array(thetas))
            return original(thetas, *args)

        monkeypatch.setattr(harness, "run_block", recording)
        K = harness.BLOCK_CELLS // 4  # four trials per block
        plan = replace(bounds_report(0.4, 0.2, Ideal()), samples=20, grid_size=K)
        monte_carlo_success(plan, 10, UniformTheta(), 3)
        assert [t.size for t in seen] == [4, 4, 2]
        assert len(np.unique(np.concatenate(seen))) == 10


class TestThreadMap:
    def test_at_most_threads_calls_run_at_once(self):
        lock, full = threading.Lock(), threading.Event()
        running, peak = [0], [0]

        def call(item):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                if running[0] == 3:
                    full.set()
            assert full.wait(5)
            with lock:
                running[0] -= 1
            return item

        assert sorted(thread_map(call, range(20), 3)) == list(range(20))
        assert peak[0] == 3

    def test_one_thread_is_map_in_the_calling_thread(self):
        calls = []

        def call(item):
            calls.append((item, threading.get_ident()))
            return item * item

        assert list(thread_map(call, range(5), 1)) == [0, 1, 4, 9, 16]
        assert calls == [(item, threading.get_ident()) for item in range(5)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_huge_range_stops_at_the_first_error(self, threads):
        calls = itertools.count()

        def call(item):
            next(calls)
            if item == 3:
                raise RuntimeError("item broke")
            return item

        with pytest.raises(RuntimeError, match="item broke"):
            list(thread_map(call, range(10 ** 15), threads))
        assert next(calls) <= 3 + threads

    def test_workers_are_capped_at_the_cores(self):
        assert pool_size(10 ** 6) == pool_size(0) == (os.cpu_count() or 1)
        assert pool_size(1) == 1

    def test_a_huge_worker_count_asks_for_a_pool_of_the_cores(self, monkeypatch):
        # eight blocks of one trial: even uncapped, no more than eight threads
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sizes = []

        class Recording(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        def stub(thetas, samples, grid, noise, rng):
            return np.zeros((len(thetas), grid), dtype=complex), None, None

        monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(harness, "run_block", stub)
        plan = replace(bounds_report(0.4, 0.2, Ideal()), samples=1,
                       grid_size=harness.BLOCK_CELLS)
        stats = monte_carlo_success(plan, 8, FixedTheta(0.0), master_seed=1, workers=10 ** 6)
        assert sizes == [2]
        assert stats.successes == 8


class TestErrorMetric:
    def test_campaign_error_is_taken_on_the_line(self):
        # 63 (2 pi - 0.02) / (2 pi) = 62.80 bins peaks at bin 0, so theta_hat
        # = 0: the line error 2 pi - 0.02 fails epsilon = 0.1, where the
        # circular error 0.02 would pass
        stats = monte_carlo_success(bounds_report(0.1, 0.1, Ideal()), 20,
                                    FixedTheta(TWO_PI - 0.02), 1)
        assert stats.successes == 0


class TestMonteCarlo:
    def test_inline_campaign(self):
        stats = monte_carlo_success(BoundsQuery(0.4, 0.2, Ideal()), 32,
                                    UniformTheta(), master_seed=99)
        assert stats.trials == 32
        assert stats.rate >= 0.9
        assert stats.wilson_ci_95[0] <= stats.rate <= stats.wilson_ci_95[1]
        assert stats.epsilon_used == 0.4 and stats.delta_used == 0.2

    def test_worker_count_does_not_change_stats(self, monkeypatch):
        # 2,000 trials at K = 63 span 16 blocks of 130, split over the pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        plan = replace(bounds_report(0.1, 0.1, Gaussian(0.1)), samples=60)
        inline = monte_carlo_success(plan, 2000, UniformTheta(), 99, workers=1)
        pooled = monte_carlo_success(plan, 2000, UniformTheta(), 99, workers=2)
        assert inline == pooled
        assert 0 < inline.successes < 2000

    @pytest.mark.parametrize("K,M,eps", [(79, 14, 0.08), (8, 9, 0.8)],
                             ids=["sparse", "dense"])
    def test_batched_campaign_follows_the_single_run_law(self, K, M, eps):
        # Under-sampled plans (success rates about 0.76 and 0.82) on both
        # sampler paths, so any fault that mixes trials inside a block moves
        # the rate.  The batched count and the count of independent run_rfe
        # calls at phases drawn the same way must agree as two binomial
        # samples of one rate.
        n = 3000
        sampling = UniformTheta()
        plan = replace(bounds_report(eps, 0.1, Ideal()), samples=M, grid_size=K)
        stats = monte_carlo_success(plan, n, sampling, master_seed=2024)
        thetas = sampling.draw(np.random.default_rng(2024), n)
        single = sum(abs(run_rfe(samples=M, grid_size=K, theta=theta,
                                 seed=seed).theta_hat - theta) <= eps
                     for seed, theta in enumerate(thetas))
        pooled = (stats.successes + single) / (2 * n)
        assert 0.5 < pooled < 0.95
        z = (stats.successes - single) / n / math.sqrt(2 * pooled * (1 - pooled) / n)
        assert abs(z) <= 4

    def test_fine_grid_campaign_memory_stays_bounded(self):
        # K = 62,832 gives blocks of one trial: each run's arrays are O(K),
        # and a campaign keeps no more than one block alive at a time.  Twenty
        # runs in one block would hold 20 MB of complex sums alone.
        tracemalloc.start()
        try:
            stats = monte_carlo_success(BoundsQuery(1e-4, 0.1, Gaussian(0.01)), 20,
                                        UniformTheta(), master_seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.successes == 20
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_huge_campaign_stops_at_the_first_error(self, monkeypatch, workers):
        # 10**15 trials are about 2e12 blocks of 512: the campaign must hold
        # neither a list of their sizes nor a future per block, and the block
        # that raises must stop it, with one block per thread in flight
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        calls = itertools.count()
        original = harness.run_block

        def failing(*args):
            if next(calls) >= 3:
                raise RuntimeError("block broke")
            return original(*args)

        monkeypatch.setattr(harness, "run_block", failing)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="block broke"):
                monte_carlo_success(BoundsQuery(0.4, 0.2, Ideal()), 10 ** 15, UniformTheta(),
                                    master_seed=3, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert next(calls) <= 3 + workers

    def test_fixed_theta_sampling(self):
        stats = monte_carlo_success(BoundsQuery(0.4, 0.2, Ideal()), 16,
                                    FixedTheta(1.234), master_seed=5)
        assert stats.rate >= 0.9

    def test_an_uncertified_plan_runs(self):
        # GaussianLinear has no certified count, but an explicit plan runs fine
        plan = replace(bounds_report(0.4, 0.2, Ideal()), noise=GaussianLinear(0.001),
                       samples=2000, grid_size=16)
        stats = monte_carlo_success(plan, 8, FixedTheta(1.0), master_seed=6)
        assert stats.trials == 8

    def test_plan_resolved_once_per_campaign(self, monkeypatch):
        calls = []
        original = harness.bounds_report

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "bounds_report", counting)
        stats = monte_carlo_success(BoundsQuery(0.4, 0.2, Ideal()), 12,
                                    UniformTheta(), master_seed=7)
        assert stats.trials == 12 and len(calls) == 1

    def test_resolved_plan_runs_as_its_query(self, monkeypatch):
        query = BoundsQuery(0.4, 0.2, Ban(0.03))
        plan = bounds_report(query.epsilon, query.delta, query.noise)
        from_query = monte_carlo_success(query, 40, UniformTheta(), master_seed=8)
        monkeypatch.setattr(harness, "bounds_report", None)  # a plan is not planned again
        assert monte_carlo_success(plan, 40, UniformTheta(), master_seed=8) == from_query

    def test_wide_target_needs_no_samples(self):
        # epsilon >= pi/2: every trial answers pi/2, within epsilon of any
        # phase UniformTheta draws
        stats = monte_carlo_success(BoundsQuery(2.0, 0.1, Ideal()), 10,
                                    UniformTheta(), master_seed=8)
        assert stats.successes == 10

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            monte_carlo_success(BoundsQuery(0.4, 0.2, Ideal()), 0, FixedTheta(1.0), 1)
        plan = bounds_report(0.4, 0.2, Ideal())
        for bad in ({"samples": -1}, {"samples": 2 ** 62 + 1},
                    {"grid_size": 0}, {"grid_size": MAX_GRID_SIZE + 1}):
            with pytest.raises(ValueError, match="(samples|grid size) must lie in"):
                monte_carlo_success(replace(plan, **bad), 4, FixedTheta(1.0), 1)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            monte_carlo_success(BoundsQuery(0.4, 0.2, Ideal()), 4, FixedTheta(1.0), 1,
                                workers=-1)

    def test_phase_samplers_validated(self):
        for make in (lambda: FixedTheta(TWO_PI), lambda: FixedTheta(math.nan),
                     lambda: UniformTheta(-0.1, 1.0), lambda: UniformTheta(2.0, 1.0),
                     lambda: UniformTheta(0.0, 7.0)):
            with pytest.raises(ValueError):
                make()


def _full_mask_scan(k_values, n_theta, magnitude):
    """lemma_bound_scan's report as the scan first computed it: every
    point's violation mask on every K, and the extremes by boolean
    indexing, NaN-propagating across K."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    tol = harness.SCAN_TOLERANCE
    violations, count, points = [], 0, 0
    min_close, max_nonadj = math.inf, 0.0
    for K in k_values:
        x = np.arange(K)[:, None] - (K * thetas / TWO_PI)[None, :]
        mags = magnitude(x, K)
        d = np.minimum(np.abs(x), K - np.abs(x))
        points += mags.size
        close, nonadj = d <= 0.5, d >= 1.0
        if np.any(close):
            min_close = float(np.minimum(min_close, mags[close].min()))
        if np.any(nonadj):
            max_nonadj = float(np.maximum(max_nonadj, mags[nonadj].max()))
        # a NaN magnitude fails every comparison, so it is a violation
        bad = ((close & ~(mags >= CLOSE_MAGNITUDE_MIN - tol))
               | (nonadj & ~(mags <= NON_ADJACENT_MAGNITUDE_MAX + tol))
               | (nonadj & ~(mags <= NON_ADJACENT_ENVELOPE_MAX + tol)))
        j_bad, t_bad = np.nonzero(bad)
        count += j_bad.size
        for j, t in zip(j_bad[:5], t_bad[:5]):
            if len(violations) < 20:
                violations.append({"K": K, "j": int(j), "theta": float(thetas[t]),
                                   "magnitude": float(mags[j, t]),
                                   "distance": float(d[j, t])})
    return {"k_values": list(k_values), "n_theta": n_theta, "tolerance": tol,
            "points_checked": points, "violation_count": count,
            "violations": violations, "min_close_magnitude": min_close,
            "max_non_adjacent_magnitude": max_nonadj,
            "close_margin": min_close - CLOSE_MAGNITUDE_MIN,
            "non_adjacent_margin": NON_ADJACENT_MAGNITUDE_MAX - max_nonadj,
            "envelope_margin": NON_ADJACENT_ENVELOPE_MAX - max_nonadj,
            "passed": count == 0}


def _full_mask_tones(tone, K, magnitude):
    """_scan_tones's result at the tones ``tone`` as the full-mask scan
    computes it for one K: the close minimum, the non-adjacent maximum, the
    violation count and the first five offenders (j, column, magnitude,
    distance)."""
    x = np.arange(K)[:, None] - tone
    mags = magnitude(x, K)
    d = np.minimum(np.abs(x), K - np.abs(x))
    close, nonadj = d <= 0.5, d >= 1.0
    tol = harness.SCAN_TOLERANCE
    cap = min(NON_ADJACENT_MAGNITUDE_MAX, NON_ADJACENT_ENVELOPE_MAX) + tol
    j_bad, t_bad = np.nonzero((close & ~(mags >= CLOSE_MAGNITUDE_MIN - tol))
                              | (nonadj & ~(mags <= cap)))
    return (float(np.min(mags[close], initial=math.inf)),
            float(np.max(mags[nonadj], initial=0.0)), j_bad.size,
            [(int(j), int(t), float(mags[j, t]), float(d[j, t]))
             for j, t in zip(j_bad[:5], t_bad[:5])])


def _boundary_tones(K):
    """Every integer and half-integer tone in [0, K/2], and tones 1e-13
    either side of each integer."""
    ints = np.arange(0.0, math.floor(K / 2) + 1.0)
    tones = np.concatenate([ints, np.arange(0.5, K / 2 + 0.5), ints[1:] - 1e-13,
                            ints + 1e-13])
    return tones[tones <= K / 2]


def _nan_equal(a, b):
    """a == b over nested dicts and lists, with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_nan_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_nan_equal, a, b))
    return a == b


class TestLemmaScan:
    def test_small_scan_passes(self):
        report = lemma_bound_scan(range(4, 33), 300)
        assert report.passed
        assert report.violation_count == 0
        assert report.min_close_magnitude >= 2 / math.pi - 1e-12
        assert report.max_non_adjacent_magnitude <= 10 / (9 * math.pi) + 1e-12
        assert report.close_margin >= -1e-12
        assert report.envelope_margin >= -1e-12

    def test_default_scan_is_pinned(self):
        # the scan rfe verify runs; the extremes are the values the kernel
        # gave when it still reduced with np.mod at every step
        report = lemma_bound_scan(range(4, 129), 1000)
        assert report.points_checked == 8_250_000
        assert report.violation_count == 0
        assert report.min_close_magnitude == float.fromhex("0x1.45f527836f61ep-1")
        assert report.max_non_adjacent_magnitude == float.fromhex("0x1.16b28e944a588p-2")

    def test_default_scan_matches_the_full_mask_scan(self):
        def signed_kernel(x, K):
            return np.abs(dirichlet_kernel(x, K))

        assert lemma_bound_scan(range(4, 129), 1000).to_dict() == \
            _full_mask_scan(range(4, 129), 1000, signed_kernel)

    @pytest.mark.parametrize("scale", [0.9, 2.0])
    def test_a_scaled_kernel_reports_the_full_mask_violations(self, monkeypatch, scale):
        # 0.9 breaks the close floor, 2.0 both non-adjacent caps.  At 200
        # thetas every K is one block; at 1,000 each K from 96 to 104 takes
        # seven, so one K's offenders come from several blocks.  At 10,000 the
        # first block ends below tone 1, where 2.0's offenders are all at
        # j = K - 1, so they sort after those at j = 0 from later blocks.
        scan_block = harness._scan_block

        def scaled(tone, K):
            mags, d = scan_block(tone, K)
            return scale * mags, d

        monkeypatch.setattr(harness, "_scan_block", scaled)
        for k_values, n_theta in ((range(4, 41), 200), (range(96, 105), 1000),
                                  (range(100, 102), 10_000)):
            report = lemma_bound_scan(k_values, n_theta).to_dict()
            # x[0] = 0 - tone is -tone exactly
            reference = _full_mask_scan(k_values, n_theta,
                                        lambda x, K: scaled(-x[0], K)[0])
            assert reference["violation_count"] > len(reference["violations"]) > 5
            assert report["violation_count"] == reference["violation_count"]
            assert report["violations"] == reference["violations"]
            assert report == reference

    def test_a_nan_in_the_last_block_stays_within_the_column_budget(self, monkeypatch):
        # K = 100 walks its 1,000 thetas in blocks of 153 columns; theta = pi
        # is in the last one, and j = 50 is its close index.  A NaN there must
        # build that block's violation mask without a wider array, count as
        # one violation and reach the report's close extreme, and the report
        # must equal the full-mask scan's.
        scan_block = harness._scan_block
        shapes = []

        def one_nan(tone, K):
            mags, d = scan_block(tone, K)
            shapes.append(mags.shape)
            if K == 100:
                mags[50, tone == K * math.pi / TWO_PI] = np.nan
            return mags, d

        monkeypatch.setattr(harness, "_scan_block", one_nan)
        report = lemma_bound_scan(range(96, 105), 1000).to_dict()
        widths = [columns for K, columns in shapes if K == 100]
        assert len(widths) == 7 and max(widths) == 153
        assert report["passed"] is False and report["violation_count"] == 1
        assert math.isnan(report["min_close_magnitude"])
        assert _nan_equal(report, _full_mask_scan(range(96, 105), 1000,
                                                  lambda x, K: one_nan(-x[0], K)[0]))

    @pytest.mark.parametrize("magnitude", ["kernel", "kernel x 0.9", "kernel x 2",
                                           "kernel, 0.5 at j = t + 1", "scattered"])
    def test_boundary_tones_match_the_full_mask(self, monkeypatch, magnitude):
        # An integer tone puts row F at d = 0 and row F + 1 at d = 1, so that
        # row is non-adjacent; a half-integer puts both near rows at d = 1/2,
        # both close; a tone 1e-13 from an integer puts a near row just past
        # each boundary.  The magnitudes replace the scan's with the kernel's:
        # scaled to break the floor (0.9) or the caps (2); or breaking a cap
        # only at row F + 1 of an integer tone, which no far row sees; or with
        # values scattered over [0, 1) by each point's j - t, which break a
        # bound at about half of all points.  Either way the near rows must
        # classify as the full masks do, to the last offender.
        scan_block = harness._scan_block

        def replaced(tone, K):
            x = np.arange(K)[:, None] - tone
            if magnitude == "scattered":
                mags = np.abs(x) * 1414.2135623730951 % 1.0
            else:
                scale = {"kernel x 0.9": 0.9, "kernel x 2": 2.0}.get(magnitude, 1.0)
                mags = scale * np.abs(dirichlet_kernel(x, K))
                if magnitude == "kernel, 0.5 at j = t + 1":
                    mags[x == 1.0] = 0.5
            return mags, scan_block(tone, K)[1]

        monkeypatch.setattr(harness, "_scan_block", replaced)
        for K in range(4, 129):
            tones = _boundary_tones(K)
            low, high, count, offenders = harness._scan_tones(tones, K)
            reference = _full_mask_tones(tones, K, lambda x, K: replaced(-x[0], K)[0])
            assert (float(low), float(high), count, offenders) == reference, K
            assert (count == 0) == (magnitude == "kernel"), K

    def test_boundary_tones_pass_with_the_scan_magnitudes(self):
        for K in range(4, 129):
            tones = _boundary_tones(K)
            low, high, count, offenders = harness._scan_tones(tones, K)
            reference = _full_mask_tones(tones, K,
                                         lambda x, K: np.abs(dirichlet_kernel(x, K)))
            assert count == reference[2] == 0 and offenders == []
            assert abs(low - reference[0]) < 1e-13 and abs(high - reference[1]) < 1e-13

    def test_doubled_far_rows_fail_the_scan(self, monkeypatch):
        # entries at d >= 2 lie outside both near rows, so only the far rows'
        # maximum sees them; doubled, they pass the caps at K = 5
        scan_block = harness._scan_block

        def doubled_far(tone, K):
            mags, near = scan_block(tone, K)
            x = np.abs(np.arange(K)[:, None] - tone)
            mags[np.minimum(x, K - x) >= 2.0] *= 2.0
            return mags, near

        monkeypatch.setattr(harness, "_scan_block", doubled_far)
        report = lemma_bound_scan(range(4, 129), 1000).to_dict()
        reference = _full_mask_scan(range(4, 129), 1000, lambda x, K: doubled_far(-x[0], K)[0])
        assert reference["violation_count"] > 5
        assert report["passed"] is False
        assert report == reference

    def test_a_nan_at_a_far_point_fails_the_scan(self, monkeypatch):
        # K = 101's first block starts at theta = 0, where j = 50 is the
        # farthest index: a NaN there reaches only the far rows' maximum
        scan_block = harness._scan_block

        def one_nan(tone, K):
            mags, near = scan_block(tone, K)
            if K == 101:
                mags[50, tone == 0.0] = np.nan
            return mags, near

        monkeypatch.setattr(harness, "_scan_block", one_nan)
        report = lemma_bound_scan(range(96, 105), 1000).to_dict()
        assert report["passed"] is False and report["violation_count"] == 1
        assert math.isnan(report["max_non_adjacent_magnitude"])
        assert report["violations"][0]["distance"] == 50.0
        assert _nan_equal(report, _full_mask_scan(range(96, 105), 1000,
                                                  lambda x, K: one_nan(-x[0], K)[0]))

    def test_memory_stays_under_one_mib(self):
        # the scan rfe verify runs; one (128, 1000) float array is 1 MB
        lemma_bound_scan(range(4, 129), 1000)
        tracemalloc.start()
        try:
            lemma_bound_scan(range(4, 129), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_memory_stays_under_one_mib_when_every_k_fails(self, monkeypatch):
        # a kernel scaled by 2.0 breaks the caps at every K, and each failing
        # block builds its violation mask
        scan_block = harness._scan_block

        def doubled(tone, K):
            mags, d = scan_block(tone, K)
            return 2.0 * mags, d

        monkeypatch.setattr(harness, "_scan_block", doubled)
        assert lemma_bound_scan(range(4, 129), 1000).violation_count > 0
        tracemalloc.start()
        try:
            lemma_bound_scan(range(4, 129), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_report_serializes(self):
        report = lemma_bound_scan((4, 8, 16), 50)
        data = report.to_dict()
        assert data["passed"] is True
        assert data["points_checked"] == (4 + 8 + 16) * 50

    def test_range_validation(self):
        with pytest.raises(ValueError):
            lemma_bound_scan((2, 8), 100)  # K < 4 not covered by the caps
        with pytest.raises(ValueError):
            lemma_bound_scan((4, 2048), 100)
        with pytest.raises(ValueError):
            lemma_bound_scan((4, 8), 1)


def sweep_points(capsys, *argv):
    """The JSON points of an ``rfe sweep`` run through :func:`rfe.cli.main`."""
    assert cli.main(["sweep", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["points"]


def spawn_seed(master_seed, index):
    return int(np.random.SeedSequence(master_seed, spawn_key=(index,))
               .generate_state(1, np.uint64)[0])


class TestNoiseSweep:
    """``noise_sweep`` maps campaigns over plans; the sweep families, which
    turn a --grid value into a plan, live in :mod:`rfe.cli`."""

    def test_ban_predictions_strictly_increase(self, capsys):
        points = sweep_points(capsys, "--family", "ban", "--grid", "0.0,0.04,0.08",
                              "--epsilon", "0.1", "--delta", "0.1", "--trials", "6",
                              "--seed", "11")
        predicted = [p["predicted_samples"] for p in points]
        assert all(a < b for a, b in zip(predicted, predicted[1:]))
        assert all(p["achievable"] and p["stats"]["trials"] == 6 for p in points)
        # formula-level monotonicity across the full grid, without running
        full = [bounds_report(0.1, 0.1, Ban(e)).samples
                for e in (0.0, 0.02, 0.04, 0.06, 0.08, 0.098)]
        assert all(a < b for a, b in zip(full, full[1:]))

    def test_dephasing_marks_threshold_points(self, capsys):
        points = sweep_points(capsys, "--family", "dephasing", "--grid", "0.05,0.1,0.2",
                              "--epsilon", "0.2", "--delta", "0.2", "--trials", "4",
                              "--seed", "12")
        assert [p["achievable"] for p in points] == [True, True, False]
        assert points[2]["stats"] is None and points[2]["predicted_samples"] is None
        for p, ratio in zip(points, (0.05, 0.1, 0.2)):
            assert p["extras"]["implied_eta_bar"] == pytest.approx(
                -math.expm1(-ratio), rel=1e-12)

    def test_ideal_sweep_over_epsilon(self, capsys):
        points = sweep_points(capsys, "--family", "ideal", "--grid", "0.2,0.3",
                              "--delta", "0.2", "--trials", "16", "--seed", "13")
        for p in points:
            assert p["stats"]["rate"] >= 1 - 0.2
            assert p["stats"]["epsilon_used"] == p["parameter"]

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["sweep", "--family", "thermal", "--grid", "0.1", "--epsilon", "0.1"])
        assert info.value.code == 2

    def test_point_past_the_sample_guard_is_unachievable(self, capsys):
        # eta_bar = 0.100035145 is below the threshold, but certifies M ~ 2e19
        points = sweep_points(capsys, "--family", "ban", "--grid", "0.05,0.100035145",
                              "--epsilon", "0.1", "--delta", "0.1", "--trials", "3",
                              "--seed", "14")
        assert [p["achievable"] for p in points] == [True, False]
        assert points[0]["predicted_samples"] == 12510 and points[0]["stats"]["trials"] == 3
        assert points[1]["predicted_samples"] is None and points[1]["stats"] is None

    def test_each_point_is_planned_once(self, capsys, monkeypatch):
        calls = []
        original = cli.bounds_report

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "bounds_report", counting)
        points = sweep_points(capsys, "--family", "ban", "--grid", "0.02,0.05",
                              "--epsilon", "0.2", "--delta", "0.2", "--trials", "4",
                              "--seed", "18")
        assert [p["stats"]["trials"] for p in points] == [4, 4]
        assert len(calls) == 2

    @pytest.mark.parametrize("family", ["dephasing", "high_coherence"])
    @pytest.mark.parametrize("ratio", [0.0, -0.1, math.inf, math.nan])
    def test_bad_ratio_rejected_before_any_trial(self, capsys, monkeypatch, family, ratio):
        calls = []
        monkeypatch.setattr(harness, "monte_carlo_success",
                            lambda *args, **kwargs: calls.append(args))
        assert cli.main(["sweep", "--family", family, "--grid", f"0.05,{ratio}",
                         "--epsilon", "0.2", "--delta", "0.2", "--trials", "2"]) == 2
        assert "ratio K/T2 must be finite and > 0" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("trials", [0, -3])
    def test_bad_trials_rejected_when_no_point_runs(self, trials):
        # a None plan (one the planner rejected) runs no campaign to check trials
        with pytest.raises(ValueError, match="trials must be >= 1"):
            noise_sweep([None], trials, 15)

    def test_ideal_sweep_needs_no_samples_past_half_pi(self, capsys):
        [point] = sweep_points(capsys, "--family", "ideal", "--grid", "2.0",
                               "--delta", "0.2", "--trials", "8", "--seed", "16")
        assert point["achievable"] and point["predicted_samples"] == 0
        assert point["stats"]["trials"] == 8 and point["stats"]["rate"] == 1.0

    def test_ideal_sweep_rejects_nonpositive_epsilon_before_any_trial(self, capsys,
                                                                      monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "monte_carlo_success",
                            lambda *args, **kwargs: calls.append(args))
        for bad in ("0.0", "-0.3"):
            assert cli.main(["sweep", "--family", "ideal", "--grid", f"0.3,{bad}",
                             "--delta", "0.2", "--trials", "2"]) == 2
            assert "epsilon must be > 0" in capsys.readouterr().err
        assert calls == []

    def test_csv_layout_and_determinism(self, capsys):
        argv = ["sweep", "--family", "dephasing", "--grid", "0.05,0.2", "--epsilon", "0.2",
                "--delta", "0.2", "--trials", "4", "--seed", "12"]
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[0] == "parameter,M_predicted,trials,successes,rate,ci_lo,ci_hi"
        assert len(lines) == 3
        assert lines[2] == "0.2,,0,0,,,"  # unachievable row
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == text

    def test_plan_i_runs_on_the_seed_spawned_from_i(self):
        # under-sampled plans, so that a wrong seed shows in the counts
        plans = [replace(bounds_report(0.1, 0.1, Ideal()), samples=10), None,
                 replace(bounds_report(0.1, 0.1, Ban(0.05)), samples=20)]
        sampling = UniformTheta()
        stats = noise_sweep(plans, 200, 21, sampling)
        assert stats == [None if plan is None else
                         monte_carlo_success(plan, 200, sampling, spawn_seed(21, i))
                         for i, plan in enumerate(plans)]
        assert all(0.0 < s.rate < 1.0 for s in (stats[0], stats[2]))

    def test_gaussian_certificate_misses_its_rate(self):
        """A known defect of the quoted Gaussian certificate, recorded as it
        stands and not a target: at epsilon = delta = 0.1 it certifies
        sigma = 2 with K = 63 and M = 10,559, yet about 61% of uniform-phase
        runs succeed (seed 0: 2,440 of 4,000), against the 90% promised.  The
        run noise is fixed for a whole run, so more samples do not average it
        away.  Do not loosen this to pass a future fix: a fix that changes the
        certificate re-pins this test and says so."""
        plan = bounds_report(0.1, 0.1, Gaussian(2.0))
        assert (plan.grid_size, plan.samples) == (63, 10559)
        [stats] = noise_sweep([plan], 4000, 0)
        assert stats.rate < 0.7
