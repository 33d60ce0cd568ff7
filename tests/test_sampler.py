"""Outcome sampling: distribution, clamping, input checks and determinism.

The laws of whole runs (multinomial counts, binomial per-time sums, depth
moments) are tested in test_distribution.py.
"""

import math

import numpy as np
import pytest

from rfe.sampler import sample_outcome_sums, sample_pairs


class TestDeterministicCases:
    def test_certain_plus_outcome(self):
        rng = np.random.default_rng(0)
        c, s, clamped = sample_pairs(np.ones(1000), np.zeros(1000), rng)
        assert np.all(c == 1.0)
        assert not clamped.any()
        # s is a fair coin at by = 0
        assert abs(s.mean()) < 0.1
        for M in (5, 1000):  # M <= K and M > K
            sums = sample_outcome_sums(np.ones(8), np.zeros(8), M, rng)
            assert sums.z.real.sum() == M and sums.clamp_count == 0

    def test_certain_minus_outcome(self):
        rng = np.random.default_rng(1)
        c, s, _ = sample_pairs(np.zeros(1000), np.full(1000, -1.0), rng)
        assert np.all(s == -1.0)
        for M in (5, 1000):
            sums = sample_outcome_sums(np.zeros(8), np.full(8, -1.0), M, rng)
            assert sums.z.imag.sum() == -M


class TestDistribution:
    def test_binomial_mean_spot(self):
        # at bx = 0.5 the mean of c over 1e6 draws sits within 0.0015
        rng = np.random.default_rng(2024)
        c, s, clamped = sample_pairs(np.full(10 ** 6, 0.5), np.zeros(10 ** 6), rng)
        assert abs(c.mean() - 0.5) <= 0.0015
        assert abs(s.mean()) <= 3.0 / math.sqrt(10 ** 6)
        assert not clamped.any()

    def test_pair_unbiased(self):
        # E[c + i s] = bx + i by, within 3 sigma of the binomial noise
        rng = np.random.default_rng(55)
        n = 200_000
        for bx, by in ((0.0, 0.0), (0.3, -0.8), (-0.99, 0.5), (0.7071, 0.7071)):
            c, s, _ = sample_pairs(np.full(n, bx), np.full(n, by), rng)
            tol_x = 3.0 * math.sqrt(max(1e-12, 1.0 - bx * bx) / n)
            tol_y = 3.0 * math.sqrt(max(1e-12, 1.0 - by * by) / n)
            assert abs(c.mean() - bx) <= tol_x
            assert abs(s.mean() - by) <= tol_y

    def test_outcomes_are_plus_minus_one(self):
        rng = np.random.default_rng(3)
        c, s, _ = sample_pairs(np.full(100, 0.2), np.full(100, -0.4), rng)
        assert set(np.unique(c)) <= {-1.0, 1.0}
        assert set(np.unique(s)) <= {-1.0, 1.0}


class TestClamping:
    def test_overrange_bias_clamps_and_flags(self):
        rng = np.random.default_rng(4)
        c, s, clamped = sample_pairs(np.full(500, 1.2), np.zeros(500), rng)
        assert clamped.all()
        assert np.all(c == 1.0)

    def test_underrange_bias(self):
        rng = np.random.default_rng(5)
        c, s, clamped = sample_pairs(np.zeros(500), np.full(500, -1.5), rng)
        assert clamped.all()
        assert np.all(s == -1.0)

    def test_boundary_bias_not_flagged(self):
        rng = np.random.default_rng(6)
        c, s, clamped = sample_pairs(np.array([1.0]), np.array([-1.0]), rng)
        assert (c[0], s[0], clamped[0]) == (1.0, -1.0, False)

    def test_tiny_overrange_flagged(self):
        rng = np.random.default_rng(7)
        assert sample_pairs(np.array([1.0 + 1e-10]), np.zeros(1), rng)[2][0]

    @pytest.mark.parametrize("M", [3, 600])  # M <= K and M > K
    def test_clamp_count_counts_samples_at_clamped_times(self, M):
        # times 0 and 1 are clamped; c at times 0 and 2 and s at time 1 are
        # certain, so those sums are +-(the count at that time)
        bx = np.array([1.5, 0.0, 1.0])
        by = np.array([0.0, -1.2, 1.0])
        sums = sample_outcome_sums(bx, by, M, np.random.default_rng(8))
        c, s = sums.z.real, sums.z.imag
        assert sums.clamp_count == c[0] - s[1] == M - c[2]


class TestInputChecks:
    def test_non_finite_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            sample_pairs(np.array([math.nan]), np.zeros(1), rng)
        with pytest.raises(ValueError):
            sample_pairs(np.zeros(1), np.array([math.inf]), rng)
        with pytest.raises(ValueError):
            sample_pairs(np.array([0.0, math.nan]), np.zeros(2), rng)
        for M in (1, 100):
            with pytest.raises(ValueError):
                sample_outcome_sums(np.array([0.0, math.nan]), np.zeros(2), M, rng)

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError):
            sample_outcome_sums(np.zeros(4), np.zeros(4), -1, np.random.default_rng(9))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            sample_pairs(np.zeros(3), np.zeros(4), rng)
        with pytest.raises(ValueError):
            sample_outcome_sums(np.zeros(3), np.zeros(4), 10, rng)
        with pytest.raises(ValueError):
            sample_outcome_sums(np.zeros(0), np.zeros(0), 10, rng)


class TestDeterminism:
    def test_same_seed_same_outcomes(self):
        bx = np.linspace(-0.9, 0.9, 257)
        by = np.linspace(0.9, -0.9, 257)
        a = sample_pairs(bx, by, np.random.default_rng(77))
        b = sample_pairs(bx, by, np.random.default_rng(77))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_few_samples_follow_the_per_sample_path(self):
        # M <= K draws indices, then sample_pairs on the gathered biases: the
        # per-time sums match that reference bit for bit on the same seed
        bx = np.linspace(-0.8, 1.2, 50)
        by = np.linspace(0.5, -1.5, 50)
        for M in (1, 17, 50):
            rng = np.random.default_rng(123)
            ks = rng.integers(0, 50, size=M)
            c, s, clamped = sample_pairs(bx[ks], by[ks], rng)
            sums = sample_outcome_sums(bx, by, M, np.random.default_rng(123))
            assert np.array_equal(sums.z.real, np.bincount(ks, weights=c, minlength=50))
            assert np.array_equal(sums.z.imag, np.bincount(ks, weights=s, minlength=50))
            assert sums.total_depth == int(ks.sum())
            assert sums.clamp_count == int(clamped.sum())

    @pytest.mark.parametrize("M", [0, 20, 2000])
    def test_same_seed_same_sums(self, M):
        bx = np.linspace(-0.9, 0.9, 40)
        a = sample_outcome_sums(bx, -bx, M, np.random.default_rng(5))
        b = sample_outcome_sums(bx, -bx, M, np.random.default_rng(5))
        assert np.array_equal(a.z, b.z)
        assert (a.total_depth, a.clamp_count) == (b.total_depth, b.clamp_count)


class TestBlocks:
    @pytest.mark.parametrize("M", [30, 400])
    def test_block_of_one_matches_one_run(self, M):
        bx = np.linspace(-0.8, 1.2, 50)
        by = np.linspace(0.5, -1.5, 50)
        one = sample_outcome_sums(bx, by, M, np.random.default_rng(4))
        block = sample_outcome_sums(bx[None], by[None], M, np.random.default_rng(4))
        assert block.z.shape == (1, 50)
        assert np.array_equal(block.z[0], one.z)
        assert (block.total_depth[0], block.clamp_count[0]) == (one.total_depth, one.clamp_count)

    @pytest.mark.parametrize("M", [30, 400])
    def test_rows_draw_from_their_own_tables(self, M):
        # row 0 is certain +1 for c and -1 for s, row 1 the reverse, row 2
        # clamps everywhere: each row's sums and clamp count say which table
        # it drew from
        K = 40
        bx = np.stack([np.ones(K), -np.ones(K), np.full(K, 1.5)])
        by = -bx
        sums = sample_outcome_sums(bx, by, M, np.random.default_rng(5))
        assert sums.z.shape == (3, K)
        assert list(sums.z.real.sum(axis=1)) == [M, -M, M]
        assert list(sums.z.imag.sum(axis=1)) == [-M, M, -M]
        assert list(sums.clamp_count) == [0, 0, M]
        assert np.all(sums.total_depth <= M * (K - 1))

    def test_rejects_three_dimensions(self):
        with pytest.raises(ValueError):
            sample_outcome_sums(np.zeros((1, 2, 4)), np.zeros((1, 2, 4)), 10,
                                np.random.default_rng(6))


class TestHugeSampleCounts:
    def test_depth_past_int64_does_not_wrap(self):
        # the expected depth M (K - 1) / 2 = 3.5 * 2**62 is past int64
        M, K = 2 ** 62, 8
        sums = sample_outcome_sums(np.zeros(K), np.full(K, 0.5), M, np.random.default_rng(11))
        assert isinstance(sums.total_depth, int)
        assert 2 ** 63 < sums.total_depth <= M * (K - 1)
        assert sums.total_depth == pytest.approx(M * (K - 1) / 2, rel=1e-6)
        assert np.all(np.abs(sums.z.real) <= M) and abs(sums.z.imag.sum() - M / 2) < M / 10 ** 6

    def test_block_depths_past_int64_do_not_wrap(self):
        M, K = 2 ** 62, 8
        sums = sample_outcome_sums(np.zeros((3, K)), np.zeros((3, K)), M,
                                   np.random.default_rng(12))
        assert all(isinstance(d, int) and 2 ** 63 < d <= M * (K - 1) for d in sums.total_depth)
