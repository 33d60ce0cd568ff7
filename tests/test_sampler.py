"""Outcome sampling: distribution, clamping, input checks and determinism.

The laws of whole runs (multinomial counts, binomial per-time sums, depth
moments) are tested in test_distribution.py.
"""

import math

import numpy as np
import pytest

from rfe.noise import AdversaryStrategy, Ban, Dephasing, Gaussian, HighCoherence, Ideal, biases_at
from rfe.sampler import (
    CLAMP_TOLERANCE,
    draw_times,
    sample_outcome_sums,
    sample_pairs,
    sums_at_times,
)


def sparse_sums(bx, by, samples, rng):
    """The M <= K draw of the (B, K) tables: times first, then one outcome
    pair per sample read at the tables' entries for the drawn cells.  Its
    per-cell sums are spread to (2, B, K), as sample_outcome_sums returns
    them."""
    B, K = np.shape(bx)
    cells, inverse, depth = draw_times(B, K, samples, rng)
    cell_sums, clamps = sums_at_times(inverse, np.ravel(bx)[cells], np.ravel(by)[cells], rng)
    sums = np.zeros((2, B * K))
    sums[:, cells] = cell_sums
    return sums.reshape(2, B, K), depth, clamps


def reference_likelihoods(bx, by):
    """Clamped Pr(+1) of c and of s, and where either needed clamping, with
    every clamp pass run."""
    p_c_raw = (1.0 + bx) / 2.0
    p_s_raw = (1.0 + by) / 2.0
    p_c = np.minimum(np.maximum(p_c_raw, 0.0), 1.0)
    p_s = np.minimum(np.maximum(p_s_raw, 0.0), 1.0)
    clamped = (np.abs(p_c - p_c_raw) > CLAMP_TOLERANCE) | (np.abs(p_s - p_s_raw) > CLAMP_TOLERANCE)
    return p_c, p_s, clamped


def reference_dense(bx, by, samples, rng):
    """The M > K draw of (B, K) tables in the documented order: the counts
    of every row, then two binomial calls, every c sum before every s sum."""
    p_c, p_s, clamped = reference_likelihoods(bx, by)
    n = rng.multinomial(samples, np.full(bx.shape[1], 1.0 / bx.shape[1]), size=bx.shape[0])
    c = 2 * rng.binomial(n, p_c) - n
    s = 2 * rng.binomial(n, p_s) - n
    return np.stack((c, s)), n @ np.arange(bx.shape[1]), (n * clamped).sum(axis=1)


def reference_pairs(bx, by, rng):
    """One outcome pair per entry of the 1-d tables: a c then an s uniform."""
    p_c, p_s, clamped = reference_likelihoods(bx, by)
    u = rng.random((bx.shape[0], 2))
    return np.where(u[:, 0] < p_c, 1.0, -1.0), np.where(u[:, 1] < p_s, 1.0, -1.0), clamped


# Exact edges, in-range neighbours, overshoots within CLAMP_TOLERANCE of the
# edge once halved (not flagged) and beyond it (flagged).
EDGE_BIASES = np.array([1.0, -1.0, 1 - 1e-16, -1 + 1e-16, 1 + 1e-15, -1 - 1e-15,
                        1 + 3e-15, -1 - 3e-15])
TABLE_MODELS = {
    "ideal": Ideal(),
    **{f"ban-{strategy.value}": Ban(0.05, strategy) for strategy in AdversaryStrategy},
    "ban-clamping": Ban(0.09, AdversaryStrategy.CONSTANT_PLUS),
    "dephasing": Dephasing(630.0),
    "high-coherence": HighCoherence(2000.0),
    "gaussian": Gaussian(0.5),
}
CLAMPING_TABLES = {"ban-clamping", "gaussian", "edges"}


def bias_tables(kind, runs, grid_size, seed):
    """(B, K) c and s bias tables of one noise model at B random phases, or
    of edge values for ``kind`` "edges"."""
    rng = np.random.default_rng(seed)
    if kind == "edges":
        return rng.choice(EDGE_BIASES, (runs, grid_size)), rng.choice(EDGE_BIASES, (runs, grid_size))
    model, ks = TABLE_MODELS[kind], np.arange(grid_size)
    thetas = rng.uniform(0.0, 2.0 * math.pi, runs)
    return biases_at(model, thetas[:, None], ks, model.draw_run_noise(ks, rng, runs))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDeterministicCases:
    def test_certain_plus_outcome(self):
        rng = np.random.default_rng(0)
        c, s, clamped = sample_pairs(np.ones(1000), np.zeros(1000), rng)
        assert np.all(c == 1.0)
        assert not clamped.any()
        # s is a fair coin at by = 0
        assert abs(s.mean()) < 0.1
        for draw, M in ((sample_outcome_sums, 5), (sample_outcome_sums, 1000), (sparse_sums, 5)):
            sums, _, clamps = draw(np.ones((1, 8)), np.zeros((1, 8)), M, rng)
            assert sums[0].sum() == M and clamps[0] == 0

    def test_certain_minus_outcome(self):
        rng = np.random.default_rng(1)
        c, s, _ = sample_pairs(np.zeros(1000), np.full(1000, -1.0), rng)
        assert np.all(s == -1.0)
        for draw, M in ((sample_outcome_sums, 5), (sample_outcome_sums, 1000), (sparse_sums, 5)):
            sums = draw(np.zeros((1, 8)), np.full((1, 8), -1.0), M, rng)[0]
            assert sums[1].sum() == -M


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
        bx = np.array([[1.5, 0.0, 1.0]])
        by = np.array([[0.0, -1.2, 1.0]])
        draws = (sample_outcome_sums, sparse_sums) if M <= 3 else (sample_outcome_sums,)
        for draw in draws:
            sums, _, clamps = draw(bx, by, M, np.random.default_rng(8))
            c, s = sums[:, 0]
            assert clamps[0] == c[0] - s[1] == M - c[2]


class TestInputChecks:
    def test_non_finite_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            sample_pairs(np.array([math.nan]), np.zeros(1), rng)
        with pytest.raises(ValueError):
            sample_pairs(np.zeros(1), np.array([math.inf]), rng)
        with pytest.raises(ValueError):
            sample_pairs(np.array([0.0, math.nan]), np.zeros(2), rng)
        for draw, M in ((sample_outcome_sums, 1), (sample_outcome_sums, 100), (sparse_sums, 2)):
            with pytest.raises(ValueError):
                draw(np.array([[0.0, math.nan]]), np.zeros((1, 2)), M, rng)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("table", [0, 1], ids=["c", "s"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_non_finite_entry_raises_before_any_draw(self, bad, table, where):
        # one bad entry of a (3, 63) table, for both regimes and sample_pairs;
        # the generator is left as it was
        rng = np.random.default_rng(13)
        drawn, inverse, _ = draw_times(3, 63, 63, rng)
        tables = np.zeros((2, 3, 63))
        cells = np.zeros((2, drawn.size))
        for values in (tables[table].reshape(-1), cells[table]):
            values[{"first": 0, "middle": values.size // 2, "last": -1}[where]] = bad
        state = rng.bit_generator.state
        draws = [lambda M=M: sample_outcome_sums(tables[0], tables[1], M, rng)
                 for M in (64, 10 ** 6)]
        draws += [lambda: sums_at_times(inverse, cells[0], cells[1], rng),
                  lambda: sample_pairs(tables[0].ravel(), tables[1].ravel(), rng)]
        for draw in draws:
            with pytest.raises(ValueError, match="finite"):
                draw()
            assert rng.bit_generator.state == state

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError):
            sample_outcome_sums(np.zeros((1, 4)), np.zeros((1, 4)), -1, np.random.default_rng(9))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            sample_pairs(np.zeros(3), np.zeros(4), rng)
        with pytest.raises(ValueError):
            sample_outcome_sums(np.zeros((1, 3)), np.zeros((1, 4)), 10, rng)
        with pytest.raises(ValueError):
            sample_outcome_sums(np.zeros((1, 0)), np.zeros((1, 0)), 10, rng)


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
            sums, depth, clamps = sparse_sums(bx[None], by[None], M, np.random.default_rng(123))
            assert np.array_equal(sums[0, 0], np.bincount(ks, weights=c, minlength=50))
            assert np.array_equal(sums[1, 0], np.bincount(ks, weights=s, minlength=50))
            assert depth[0] == int(ks.sum())
            assert clamps[0] == int(clamped.sum())

    @pytest.mark.parametrize("M", [0, 20, 2000])
    def test_same_seed_same_sums(self, M):
        bx = np.linspace(-0.9, 0.9, 40)[None]
        a = sample_outcome_sums(bx, -bx, M, np.random.default_rng(5))
        b = sample_outcome_sums(bx, -bx, M, np.random.default_rng(5))
        for field_a, field_b in zip(a, b, strict=True):  # sums, depths, clamp counts
            assert np.array_equal(field_a, field_b)


class TestBlocks:
    @pytest.mark.parametrize("M", [30, 400])  # the law holds at M <= K too
    def test_block_of_one_matches_one_run(self, M):
        # the reference is one run drawn in the documented order: counts,
        # then the c sums, then the s sums, from 1-d tables
        bx = np.linspace(-0.8, 1.2, 50)
        by = np.linspace(0.5, -1.5, 50)
        rng = np.random.default_rng(4)
        n = rng.multinomial(M, np.full(50, 1 / 50))
        p_c, p_s = np.clip((1 + bx) / 2, 0, 1), np.clip((1 + by) / 2, 0, 1)
        c = 2 * rng.binomial(n, p_c) - n
        s = 2 * rng.binomial(n, p_s) - n
        sums, depth, clamps = sample_outcome_sums(bx[None], by[None], M, np.random.default_rng(4))
        assert sums.shape == (2, 1, 50)
        assert np.array_equal(sums[0, 0], c) and np.array_equal(sums[1, 0], s)
        assert depth[0] == int(n @ np.arange(50))
        assert clamps[0] == int(n[(bx > 1) | (by < -1)].sum())

    @pytest.mark.parametrize("kind", [*TABLE_MODELS, "edges"])
    @pytest.mark.parametrize("B", [1, 3, 130])
    def test_stream_matches_the_two_call_reference(self, kind, B):
        # bit for bit, and the generator left in the reference's state, from
        # the smallest dense count to the deep_samples plan's; sample_pairs
        # on the same tables matches the per-sample reference the same way
        K = 63
        bx, by = bias_tables(kind, B, K, seed=B)
        clamp_total = 0
        for M in (K + 1, 3130, 1_319_077):
            rng, ref = np.random.default_rng(M), np.random.default_rng(M)
            drawn = sample_outcome_sums(bx, by, M, rng)
            reference = reference_dense(bx, by, M, ref)
            for got, want in zip(drawn, reference, strict=True):  # sums, depths, clamp counts
                assert same_bits(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state
            clamp_total += reference[2].sum()
        assert clamp_total > 0 or kind not in CLAMPING_TABLES
        rng, ref = np.random.default_rng(B), np.random.default_rng(B)
        pairs = sample_pairs(bx.ravel(), by.ravel(), rng)
        for got, want in zip(pairs, reference_pairs(bx.ravel(), by.ravel(), ref)):
            assert same_bits(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("M", [30, 400])
    def test_rows_draw_from_their_own_tables(self, M):
        # row 0 is certain +1 for c and -1 for s, row 1 the reverse, row 2
        # clamps everywhere: each row's sums and clamp count say which table
        # it drew from
        K = 40
        bx = np.stack([np.ones(K), -np.ones(K), np.full(K, 1.5)])
        by = -bx
        sums, depth, clamps = sample_outcome_sums(bx, by, M, np.random.default_rng(5))
        assert sums.shape == (2, 3, K)
        assert list(sums[0].sum(axis=1)) == [M, -M, M]
        assert list(sums[1].sum(axis=1)) == [-M, M, -M]
        assert list(clamps) == [0, 0, M]
        assert np.all(depth <= M * (K - 1))

    def test_rejects_three_dimensions(self):
        with pytest.raises(ValueError):
            sample_outcome_sums(np.zeros((1, 2, 4)), np.zeros((1, 2, 4)), 10,
                                np.random.default_rng(6))
        with pytest.raises(ValueError, match="2 dimension"):
            sample_outcome_sums(np.zeros(4), np.zeros(4), 10, np.random.default_rng(6))


class TestHugeSampleCounts:
    def test_depth_past_int64_does_not_wrap(self):
        # the expected depth M (K - 1) / 2 = 3.5 * 2**62 is past int64
        M, K = 2 ** 62, 8
        sums, depths, _ = sample_outcome_sums(np.zeros((1, K)), np.full((1, K), 0.5), M,
                                              np.random.default_rng(11))
        depth = depths[0]
        assert isinstance(depth, int)
        assert 2 ** 63 < depth <= M * (K - 1)
        assert depth == pytest.approx(M * (K - 1) / 2, rel=1e-6)
        assert np.all(np.abs(sums[0]) <= M) and abs(sums[1].sum() - M / 2) < M / 10 ** 6

    def test_block_depths_past_int64_do_not_wrap(self):
        M, K = 2 ** 62, 8
        depths = sample_outcome_sums(np.zeros((3, K)), np.zeros((3, K)), M,
                                     np.random.default_rng(12))[1]
        assert all(isinstance(d, int) and 2 ** 63 < d <= M * (K - 1) for d in depths)
