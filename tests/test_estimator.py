"""End-to-end estimation runs: determinism, invariants, plan selection."""

import math
import time
import tracemalloc

import numpy as np
import pytest

import rfe.estimator
from rfe.bounds import MAX_GRID_SIZE, BoundsUnachievable, bounds_report
from rfe.estimator import (
    SPLIT_MIN_GRID,
    estimate_phase,
    grid_split,
    run_block,
    run_rfe,
    spectrum_csv_chunks,
    sum_slots,
    time_order,
    trial_to_dict,
    winning_frequency,
)
from rfe.noise import (
    AdversaryStrategy,
    Ban,
    Dephasing,
    Gaussian,
    GaussianLinear,
    HighCoherence,
    Ideal,
    NoiseModel,
    biases_at,
)
from rfe.sampler import sample_outcome_sums, sample_pairs

TWO_PI = 2.0 * math.pi


class TestRunConfigValidation:
    """The checks run_rfe makes before it draws anything."""

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            run_rfe(samples=0, grid_size=8, theta=1.0)
        with pytest.raises(ValueError):
            run_rfe(samples=10, grid_size=0, theta=1.0)
        with pytest.raises(ValueError):
            run_rfe(samples=10, grid_size=8, theta=-0.5)
        with pytest.raises(ValueError):
            run_rfe(samples=10, grid_size=8, theta=1.0, seed=-1)
        with pytest.raises(ValueError):
            run_rfe(samples=10, grid_size=8, theta=1.0, seed=2 ** 64)


    def test_rejects_samples_past_int64_guard(self):
        run_rfe(samples=2 ** 62, grid_size=8, theta=1.0)
        with pytest.raises(ValueError):
            run_rfe(samples=2 ** 62 + 1, grid_size=8, theta=1.0)

    def test_rejects_grids_past_the_cap(self):
        run_rfe(samples=6169, grid_size=62832, theta=1.0)  # the epsilon = 1e-4 plan
        for K in (MAX_GRID_SIZE + 1, 62831853072):
            with pytest.raises(ValueError, match="2\\*\\*22"):
                run_rfe(samples=10, grid_size=K, theta=1.0)

    def test_checks_run_in_order(self):
        # samples, then the grid size, the phase and the seed
        bad = dict(samples=0, grid_size=0, theta=-0.5, seed=-1)
        for field, match in [("samples", "samples"), ("grid_size", "grid size"),
                             ("theta", "phase"), ("seed", "seed")]:
            with pytest.raises(ValueError, match=match):
                run_rfe(**bad)
            bad[field] = dict(samples=10, grid_size=8, theta=1.0, seed=0)[field]


class TestDeterminism:
    @pytest.mark.parametrize("noise", [Ideal(), Gaussian(0.3),
                                       Ban(0.05, AdversaryStrategy.SIGN_FLIP)])
    def test_equal_config_equal_result(self, noise):
        config = dict(samples=2000, grid_size=31, theta=1.7, noise=noise, seed=99)
        a = run_rfe(**config)
        b = run_rfe(**config)
        assert a.theta_hat == b.theta_hat
        assert a.winning_index == b.winning_index
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.total_depth == b.total_depth
        assert a.clamp_count == b.clamp_count

    def test_different_seeds_differ(self):
        base = dict(samples=2000, grid_size=31, theta=1.7, noise=Gaussian(0.3))
        a = run_rfe(seed=1, **base)
        b = run_rfe(seed=2, **base)
        assert not np.array_equal(a.coefficients, b.coefficients)


class TestOnGridRuns:
    def test_large_sample_peak(self):
        result = run_rfe(samples=10 ** 5, grid_size=8,
                         theta=TWO_PI * 3 / 8, seed=1)
        assert result.winning_index == 3
        assert result.theta_hat == pytest.approx(3 * math.pi / 4, abs=1e-15)

    def test_on_grid_succeeds_over_100_seeds(self):
        hits = 0
        for seed in range(100):
            result = run_rfe(samples=10 ** 5, grid_size=8,
                             theta=TWO_PI * 3 / 8, seed=seed)
            hits += result.winning_index == 3
        assert hits == 100

    def test_constant_signal(self):
        result = run_rfe(samples=10 ** 4, grid_size=8, theta=0.0, seed=5)
        assert result.winning_index == 0
        assert result.theta_hat == 0.0


class TestResultInvariants:
    def test_theta_hat_matches_index(self):
        for seed in range(10):
            result = run_rfe(samples=50, grid_size=13, theta=2.0, seed=seed)
            assert 0 <= result.winning_index < 13
            assert result.theta_hat == TWO_PI * result.winning_index / 13

    def test_magnitudes_bounded_by_sqrt2(self):
        result = run_rfe(samples=400, grid_size=17, theta=0.9, seed=3)
        assert np.max(np.abs(result.coefficients)) <= math.sqrt(2) + 1e-9

    def test_depth_range_and_counts(self):
        M, K = 3000, 21
        result = run_rfe(samples=M, grid_size=K, theta=1.0, seed=4)
        assert 0 <= result.total_depth <= M * (K - 1)
        assert result.samples_used == M
        assert result.clamp_count == 0  # ideal model never clamps

    def test_mean_depth_over_runs(self):
        # mean of total_depth / M approaches (K-1)/2 within 2%
        M, K = 2000, 63
        means = [run_rfe(samples=M, grid_size=K, theta=1.3,
                         seed=s).total_depth / M
                 for s in range(50)]
        assert np.mean(means) == pytest.approx((K - 1) / 2, rel=0.02)

    def test_clamp_counting_under_overdriven_noise(self):
        # k/T2 beyond 2 pushes the +1 probability past 1 for most times
        result = run_rfe(samples=500, grid_size=16, theta=1.0,
                         noise=HighCoherence(4.0), seed=6)
        assert result.clamp_count > 0


class TestWinningFrequency:
    def test_plain_argmax(self):
        assert winning_frequency(np.array([0.1, 0.9, 0.5])) == 1

    def test_tie_breaks_to_smallest_index(self):
        assert winning_frequency(np.array([0.7, 0.7, 0.7])) == 0
        assert winning_frequency(np.array([0.1, 0.7, 0.7])) == 1
        assert winning_frequency(np.array([1 + 1j, 1 - 1j, -1 - 1j])) == 0


class TestEstimatePhase:
    def test_trivial_wide_target(self):
        result = estimate_phase(2.0, 0.1, Ideal(), theta=1.0, seed=0)
        assert result.theta_hat == math.pi / 2
        assert result.samples_used == 0
        assert result.total_depth == 0
        assert result.winning_index == 1
        assert result.theta_hat == TWO_PI * result.winning_index / len(
            result.coefficients)

    def test_certified_plan_is_used(self):
        result = estimate_phase(0.1, 0.1, Ideal(), theta=1.3, seed=11)
        assert result.samples_used == 3130
        assert len(result.coefficients) == 63

    def test_threshold_violation_raises(self):
        with pytest.raises(BoundsUnachievable):
            estimate_phase(0.1, 0.1, Ban(0.15), theta=1.0, seed=0)

    def test_accuracy_at_certified_count(self):
        result = estimate_phase(0.1, 0.1, Ideal(), theta=1.3, seed=11)
        assert abs(result.theta_hat - 1.3) <= 0.1

    @pytest.mark.parametrize("noise,certified", [(Ban(0.0999), 1.71e9),
                                                 (Dephasing(600.0), 2.4e8)])
    def test_near_threshold_plans_run_in_constant_memory(self, noise, certified):
        M = bounds_report(0.1, 0.1, noise).samples
        assert M == pytest.approx(certified, rel=0.01)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            result = estimate_phase(0.1, 0.1, noise, theta=1.3, seed=12)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 2 ** 20
        assert result.samples_used == M
        assert abs(result.theta_hat - 1.3) <= 0.1
        assert result.total_depth == pytest.approx(M * 31, rel=1e-3)

    def test_depth_past_int64_does_not_wrap(self):
        # M (K - 1) / 2 = 3.5 * 2**62: an int64 depth sum would wrap
        result = run_rfe(samples=2 ** 62, grid_size=8, theta=1.0, seed=3)
        assert 2 ** 63 < result.total_depth <= 2 ** 62 * 7
        assert result.winning_index == round(1.0 * 8 / TWO_PI)


def sparse_reference(thetas, M, K, sigma, seed):
    """The (B, K) coefficients and sums of B Gaussian runs with M <= K,
    written out in the documented draw order: the (B, M) times, the normals
    at the distinct (run, time) cells (eta1 at every cell, then eta2), then
    the c and s uniforms of each sample."""
    rng = np.random.default_rng(seed)
    B = len(thetas)
    ks = rng.integers(0, K, size=(B, M))
    flat = (ks + K * np.arange(B)[:, None]).ravel()
    cells, inverse = np.unique(flat, return_inverse=True)
    runs, times = cells // K, cells % K
    eta = rng.standard_normal((2, cells.size)) * sigma
    phase = times * np.asarray(thetas)[runs]
    bx, by = np.cos(phase) + eta[0], np.sin(phase) + eta[1]
    c, s, clamped = sample_pairs(bx[inverse], by[inverse], rng)
    z = np.zeros(B * K, dtype=complex)
    np.add.at(z, flat, c + 1j * s)
    z = z.reshape(B, K)
    return np.fft.fft(z, axis=1) / M, z, ks.sum(axis=1), clamped.reshape(B, M).sum(axis=1)


class TestRunBlock:
    @pytest.mark.parametrize("M", [40, 5000], ids=["sparse", "dense"])
    def test_run_noise_past_the_float_range_is_refused(self, M):
        # k * 1e308 overflows to infinity for k >= 2, so the biases are not
        # finite and the sampler refuses them before drawing any outcome
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            run_block([1.0], M, 63, GaussianLinear(1e308), np.random.default_rng(0))

    @pytest.mark.parametrize("M", [5000])
    def test_block_of_one_keeps_the_unbatched_stream(self, M):
        # M > K.  The reference is one unbatched run from one generator: a
        # 1-d noise table, 1-d biases, the sums of their one row and a 1-d FFT.
        K, theta, noise = 63, 1.7, Gaussian(0.1)
        rng = np.random.default_rng(31)
        table = noise.draw_run_noise(np.arange(K), rng)
        bx, by = biases_at(noise, theta, np.arange(K), table)
        sums, depth, clamps = sample_outcome_sums(bx[None], by[None], M, rng)
        result = run_rfe(samples=M, grid_size=K, theta=theta, noise=noise, seed=31)
        assert np.array_equal(result.coefficients, np.fft.fft(sums[0, 0] + 1j * sums[1, 0]) / M)
        assert result.total_depth == depth[0]
        assert result.clamp_count == clamps[0]

    @pytest.mark.parametrize("M", [1, 40, 63])
    def test_sparse_run_follows_the_documented_draw_order(self, M, drawn_sums):
        # M <= K: one run and a block of three match the written-out order
        # bit for bit; sigma = 0.5 clamps some samples.
        K, sigma = 63, 0.5
        coefficients, z, depth, clamps = sparse_reference([1.7], M, K, sigma, 31)
        result = run_rfe(samples=M, grid_size=K, theta=1.7,
                         noise=Gaussian(sigma), seed=31)
        assert np.array_equal(result.coefficients, coefficients[0])
        assert result.total_depth == depth[0]
        assert result.clamp_count == clamps[0]
        thetas = [0.4, 1.7, 2.9]
        coefficients, z, depth, clamps = sparse_reference(thetas, M, K, sigma, 32)
        block, block_depth, block_clamps = run_block(thetas, M, K, Gaussian(sigma),
                                                     np.random.default_rng(32))
        assert np.array_equal(block, coefficients) and np.array_equal(drawn_sums[-1], z)
        assert list(block_depth) == list(depth)
        assert list(block_clamps) == list(clamps)

    def test_sparse_run_touches_only_sampled_times(self, monkeypatch, drawn_sums):
        # The fine_grid grid with 10 samples: the run noise holds at most 2M
        # normals and the biases are built at no more than M times; only the
        # sums, the FFT and the peak pick are K long.
        K, M = 62832, 10
        normals, bias_sizes = [], []

        class CountingGenerator:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def standard_normal(self, size):
                normals.append(int(np.prod(size)))
                return self._rng.standard_normal(size)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        biases = NoiseModel.biases

        def recording(model, cos_k, sin_k, ks):
            bias_sizes.append(np.size(cos_k))
            return biases(model, cos_k, sin_k, ks)

        monkeypatch.setattr(NoiseModel, "biases", recording)
        for noise in (Gaussian(0.01), GaussianLinear(1e-6)):
            normals.clear()
            bias_sizes.clear()
            coefficients = run_block([1.3], M, K, noise, CountingGenerator(5))[0]
            assert coefficients.shape == drawn_sums[-1].shape == (1, K)
            assert 0 < sum(normals) <= 2 * M
            assert bias_sizes and max(bias_sizes) <= M
            assert np.count_nonzero(drawn_sums[-1]) <= M

    @pytest.mark.parametrize("K,M", [(63, 5), (63, 5000), (62832, 5), (62832, 70000)],
                             ids=["sparse", "dense", "split-sparse", "split-dense"])
    def test_coefficients_overwrite_the_sum_buffer(self, monkeypatch, K, M):
        # the transform writes over the (B, K) sum buffer, so a run holds one
        # K-long complex array, not a second one for its coefficients
        buffers = []
        transform = rfe.estimator.transform_sums

        def recording(z, twiddles):
            buffers.append(z)
            return transform(z, twiddles)

        monkeypatch.setattr(rfe.estimator, "transform_sums", recording)
        coefficients = run_block([0.4, 1.7], M, K, Gaussian(0.1), np.random.default_rng(4))[0]
        [z] = buffers
        assert coefficients.shape == z.shape == (2, K) and z.dtype == complex
        assert np.shares_memory(coefficients, z)

    @pytest.mark.parametrize("M", [1, 7, 63, 64, 5000], ids=lambda M: f"M{M}")
    @pytest.mark.parametrize("K", [1, 2, 4, 63, 64])
    def test_scaling_by_one_over_m_is_numpys_division(self, drawn_sums, K, M):
        # the coefficients are the FFT of the sums divided by M, bit for bit
        # and zero signs included, in both regimes; phases on the grid and
        # at pi make some sums and coefficients cancel to exactly zero
        thetas = [0.0, 0.4, math.pi, 1.7, TWO_PI * (K - 1) / K, 2.9]
        for seed, noise in enumerate((Ideal(), Gaussian(0.1), Ban(0.05))):
            coefficients = run_block(thetas, M, K, noise, np.random.default_rng(seed))[0]
            reference = np.fft.fft(drawn_sums[-1], axis=1)
            reference /= M
            assert np.array_equal(coefficients.view(np.int64), reference.view(np.int64))

    def test_fine_grid_run_peaks_under_two_grid_long_arrays(self):
        # epsilon = 1e-4, Gaussian sigma = 0.01: K = 62,832 and M = 6,169.  The
        # 1 MB sum buffer becomes the coefficients and the peak pick's |f|
        # adds 0.5 MB; a separate FFT output would add another 1 MB.
        noise = Gaussian(0.01)
        estimate_phase(1e-4, 0.1, noise, theta=1.3, seed=1)  # first-call setup
        tracemalloc.start()
        try:
            result = estimate_phase(1e-4, 0.1, noise, theta=1.3, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.coefficients.size == 62832
        assert peak < 1.7 * 2 ** 20

    def test_rejects_grids_past_the_cap(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="2\\*\\*22"):
            run_block([1.0], 10, MAX_GRID_SIZE + 1, Gaussian(0.1), rng)
        with pytest.raises(ValueError, match="2\\*\\*22"):
            run_block([1.0], 10 ** 9, 62831853072, Ideal(), rng)

    def test_gaussian_rows_draw_independent_noise(self):
        # 200 runs at one phase with M = 1e6 samples each: sampling moves a
        # coefficient by about sqrt(2/M) = 0.0014, the run noise by about
        # sqrt(2 sigma^2 / K) = 0.025.  Rows sharing one noise draw would
        # agree to the sampling scale.
        B, K, sigma, M = 200, 8, 0.05, 10 ** 6
        coefficients = run_block(np.full(B, 1.0), M, K, Gaussian(sigma),
                                 np.random.default_rng(5))[0]
        spread = coefficients.var(axis=0).mean()  # mean over j of E|f_j - mean f_j|^2
        assert 0.7 < spread / (2 * sigma ** 2 / K) < 1.3

    def test_rows_follow_their_own_phases(self):
        thetas = TWO_PI * np.array([1, 5, 2, 7]) / 8
        coefficients, depth, clamps = run_block(thetas, 10 ** 4, 8, Ideal(),
                                                np.random.default_rng(6))
        assert list(winning_frequency(coefficients)) == [1, 5, 2, 7]
        assert coefficients.shape == (4, 8) and depth.shape == clamps.shape == (4,)

    @pytest.mark.parametrize("M", [5, 5000], ids=["sparse", "dense"])
    @pytest.mark.parametrize("noise", [Ideal(), Gaussian(0.1)], ids=["ideal", "gaussian"])
    def test_empty_block(self, noise, M):
        coefficients, depth, clamps = run_block([], M, 63, noise, np.random.default_rng(9))
        assert coefficients.shape == (0, 63) and depth.shape == clamps.shape == (0,)

    @pytest.mark.parametrize("noise,M,calls", [
        (Ideal(), 5000, {"multinomial": 1, "binomial": 1}),
        (Dephasing(630.0), 5000, {"multinomial": 1, "binomial": 1}),
        (Gaussian(0.1), 5000, {"standard_normal": 1, "multinomial": 1, "binomial": 1}),
        (Ideal(), 5, {"integers": 1, "random": 1}),
        (Gaussian(0.1), 5, {"integers": 1, "standard_normal": 1, "random": 1}),
    ], ids=["dense-ideal", "dense-dephasing", "dense-gaussian", "sparse-ideal",
            "sparse-gaussian"])
    def test_one_generator_call_per_draw(self, noise, M, calls):
        # a block of three runs draws each kind of variate in one call, so a
        # return to per-run or per-axis draws shows as a count, not a time
        class CountingGenerator:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)
                self.calls = {}

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def counted(*args, **kwargs):
                    self.calls[name] = self.calls.get(name, 0) + 1
                    return method(*args, **kwargs)
                return counted

        rng = CountingGenerator(3)
        run_block([0.4, 1.7, 2.9], M, 63, noise, rng)
        assert rng.calls == calls

    def test_rejects_bad_phases_and_counts(self):
        rng = np.random.default_rng(7)
        for thetas in ([1.0, math.nan], [[1.0]], 1.0):
            with pytest.raises(ValueError):
                run_block(thetas, 10, 8, Ideal(), rng)
        with pytest.raises(ValueError):
            run_block([1.0], 0, 8, Ideal(), rng)


def natural_order(z, K):
    """The (B, K) sums of the sum buffer ``z``, recorded from run_block,
    with time k at column k."""
    return time_order(z, grid_split(K)).reshape(len(z), K)


def fft_rounding_bound(z, transform):
    """A bound on max_j |two-pass - np.fft.fft| for each row of the sums z
    with the transform X: eps log2(K) (||z||_2 + max_j |X_j|), the rounding
    the log2(K) stages of either FFT can gather, relative to the data and to
    the largest output (the worst seen, over runs of both regimes up to
    K = 2**20, is 0.12 of it).  For a fine_grid row it is near 2e-11, about
    5e-12 max|z|."""
    K = z.shape[1]
    scale = np.linalg.norm(z, axis=1) + np.max(np.abs(transform), axis=1)
    return np.finfo(float).eps * math.log2(K) * scale


class TestTransform:
    """run_block's length-K DFT: the two-pass transform from SPLIT_MIN_GRID
    up, against np.fft.fft of the same sums, and the fallback to np.fft.fft
    itself."""

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    @pytest.mark.parametrize("K", [2 ** 14, 62832, 65536, 100000, 65528])
    def test_two_pass_matches_numpy_within_rounding(self, drawn_sums, K, dense, B):
        # 65,528 = 8 x 8191 splits into 8191-point rows, a large prime
        split = grid_split(K)
        assert split is not None and split.shape[0] > 1
        M = K + 1 if dense else 500
        thetas = np.linspace(0.4, 2.9, B)
        coefficients = run_block(thetas, M, K, Gaussian(0.05), np.random.default_rng(K + B))[0]
        z = natural_order(drawn_sums[-1], K)
        reference = np.fft.fft(z, axis=1) / M
        gap = np.max(np.abs(coefficients - reference), axis=1)
        assert np.all(gap <= fft_rounding_bound(z, reference * M) / M)
        assert list(winning_frequency(coefficients)) == list(winning_frequency(reference))

    def test_sparse_split_run_follows_the_documented_draw_order(self, drawn_sums):
        # the written-out draws at the fine_grid K: the same sums, time k
        # at the slot sum_slots gives, and coefficients within rounding
        K, M, thetas = 62832, 3000, [0.4, 1.7, 2.9]
        coefficients, z, depth, clamps = sparse_reference(thetas, M, K, 0.3, 33)
        block, block_depth, block_clamps = run_block(thetas, M, K, Gaussian(0.3),
                                                     np.random.default_rng(33))
        assert np.array_equal(natural_order(drawn_sums[-1], K), z)
        assert np.all(np.max(np.abs(block - coefficients), axis=1)
                      <= fft_rounding_bound(z, coefficients * M) / M)
        assert list(block_depth) == list(depth) and list(block_clamps) == list(clamps)

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    @pytest.mark.parametrize("K", [SPLIT_MIN_GRID - 2, 65521], ids=["below", "prime"])
    def test_unsplit_grids_are_numpys_fft_bit_for_bit(self, drawn_sums, K, dense):
        # just below the crossover, and a prime K, which has no divisor in
        # (1, sqrt K]: np.fft.fft over the sums in natural order
        assert grid_split(K) is None
        M = 3 * K if dense else 500
        coefficients = run_block([0.4, 1.7, 2.9], M, K, Gaussian(0.05),
                                 np.random.default_rng(8))[0]
        reference = np.fft.fft(drawn_sums[-1], axis=1)
        reference /= M
        assert np.array_equal(coefficients.view(np.int64), reference.view(np.int64))

    @pytest.mark.parametrize("K", [62, 62832, 65528])
    def test_time_order_view_reads_the_slots(self, K):
        split = grid_split(K)
        z = np.arange(2 * K, dtype=complex).reshape(2, K)
        ordered = time_order(z, split)
        assert np.shares_memory(ordered, z)
        assert np.array_equal(ordered.reshape(2, K), z[:, sum_slots(np.arange(K), split)])

    @pytest.mark.parametrize("M", [5, 70000], ids=["sparse", "dense"])
    def test_empty_split_block(self, M):
        coefficients, depth, clamps = run_block([], M, 62832, Gaussian(0.1),
                                                np.random.default_rng(9))
        assert coefficients.shape == (0, 62832) and depth.shape == clamps.shape == (0,)

    def test_fine_grid_winners_match_numpys_fft(self, monkeypatch):
        # 200 seeds of the fine_grid plan, through the two passes and, with
        # the crossover past the grid cap, through np.fft.fft
        plan = bounds_report(1e-4, 0.1, Gaussian(0.01))
        assert (plan.grid_size, plan.samples) == (62832, 6169)
        thetas = np.random.default_rng(2024).uniform(0.0, math.pi, 200)

        def winners():
            runs = [run_rfe(plan.samples, plan.grid_size, theta, Gaussian(0.01), seed)
                    for seed, theta in enumerate(thetas)]
            return [run.winning_index for run in runs], np.array([run.coefficients[0]
                                                                  for run in runs])

        split, split_first = winners()
        monkeypatch.setattr(rfe.estimator, "SPLIT_MIN_GRID", MAX_GRID_SIZE + 1)
        assert grid_split(plan.grid_size) is None
        unsplit, unsplit_first = winners()
        assert split == unsplit
        # f_0 = (1/M) sum of all the sums: both transforms add the same terms
        assert np.max(np.abs(split_first - unsplit_first)) < 1e-15

    def test_twiddle_cache_is_bounded_and_read_only(self):
        sizes = [62832, 2 ** 14, 65536, 100000, 65528, 3 * 2 ** 13, 62832]
        for K in sizes:
            twiddles = grid_split(K)
            n1, n2 = twiddles.shape
            assert n1 * n2 == K and n1 <= math.isqrt(K)
            assert all(K % d for d in range(n1 + 1, math.isqrt(K) + 1))
            assert twiddles.nbytes <= 16 * K
            assert not twiddles.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                twiddles[0, 0] = 2.0
            k1, j2 = n1 - 1, n2 - 1
            assert twiddles[k1, j2] == pytest.approx(
                np.exp(-2j * math.pi * (k1 * j2 % K) / K), abs=1e-15)
        assert grid_split(62832).shape == (238, 264)
        info = rfe.estimator._cached_split.cache_info()
        assert info.maxsize == 1 and info.currsize == 1


class TestSerialization:
    def test_trial_dict_shape(self):
        result = run_rfe(samples=100, grid_size=9, theta=0.4, seed=2)
        data = trial_to_dict(result)
        assert set(data) == {"theta_hat", "winning_index", "spectrum"}
        assert len(data["spectrum"]["coefficients"]) == 9
        assert data["spectrum"]["samples_used"] == 100

    def test_spectrum_csv_layout(self):
        result = run_rfe(samples=100, grid_size=9, theta=0.4, seed=2)
        text = "".join(spectrum_csv_chunks(result.coefficients))
        lines = text.splitlines()
        assert lines[0] == "j,re,im,abs"
        assert len(lines) == 10
        j, re, im, mag = lines[3].split(",")
        value = complex(float(re), float(im))
        assert j == "2"
        assert abs(value) == pytest.approx(float(mag), rel=1e-12)
        assert text.endswith("\n")
