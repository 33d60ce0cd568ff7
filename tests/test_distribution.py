"""Distribution tests of whole runs: they pin laws, not random streams.

A run's coefficients are the DFT of its per-time outcome sums, so the sums
are read back exactly with an inverse FFT.  Every test goes through
``run_rfe``, or ``run_block`` where runs of one block are compared, and
holds for any correct way of drawing the outcomes:

* per-time counts n ~ Multinomial(M, 1/K);
* per-time sums 2 Binomial(n_k, p_k) - n_k with p_k the clamped likelihood;
* total_depth = sum_k k n_k with mean M(K-1)/2 and variance M(K^2-1)/12;
* the mean coefficient vector equals the exact enumeration oracle;
* a Gaussian run's deviation at a time is shared by all its samples there,
  and independent between runs.

Each Pearson statistic is gated by a z-bound built from its exact mean and
variance, once summed over runs (which sees dependence inside a run) and
once on the counts pooled over runs (which sees small shifts of the law).
Both sampling regimes are covered: M > K and M <= K.  The exact law of
``rfe.spectrum.expected_coefficients`` is checked against the same
hand-written oracle tables, without runs.
"""

import math

import numpy as np
import pytest

from rfe.estimator import run_block, run_rfe
from rfe.harness import exact_estimator_expectation
from rfe.noise import (
    AdversaryStrategy,
    Ban,
    Dephasing,
    DeviationTable,
    Gaussian,
    HighCoherence,
    Ideal,
)
from rfe.spectrum import expected_coefficients

# |z| bound for one gated statistic: a two-sided normal tail of about 7e-6.
Z_MAX = 4.5
# Per-coefficient bound of the oracle-mean test.  A complex deviation beyond
# Z_ORACLE total standard deviations needs one component beyond Z_ORACLE of
# its own, so each coefficient fails with probability at most 2 P(|Z| > 5).
Z_ORACLE = 5.0
RUNS = 400

# (grid size K, samples M): one plan with M > K, one with M <= K.
PLANS = {"dense": (16, 200), "sparse": (64, 40)}


def per_time_sums(result):
    """Per-time outcome sums (sum c_k, sum s_k) recovered from the spectrum."""
    z = np.fft.ifft(result.coefficients) * result.samples_used
    return np.rint(z.real).astype(np.int64), np.rint(z.imag).astype(np.int64)


def runs(K, M, noise, theta=0.0, count=RUNS, seed0=0):
    return [run_rfe(samples=M, grid_size=K, theta=theta, noise=noise,
                    seed=seed0 + i) for i in range(count)]


def z_score(total, mean, variance):
    return (total - mean) / math.sqrt(variance)


def pearson_uniform(n):
    """Pearson statistic of counts n ~ Multinomial(sum n, 1/K), with its
    exact mean K - 1 and variance 2 (K - 1)(1 - 1/M)."""
    K, M = n.size, int(n.sum())
    return float(((n - M / K) ** 2).sum() / (M / K)), K - 1, 2 * (K - 1) * (1 - 1 / M)


def pearson_binomial(plus, n, p):
    """Pearson statistic of independent cells plus_i ~ Binomial(n_i, p_i),
    with its exact mean (one per cell) and variance 2 + (1 - 6pq)/(npq) per
    cell."""
    npq = n * p * (1.0 - p)
    stat = float(((plus - n * p) ** 2 / npq).sum())
    return stat, plus.size, float((2.0 + (1.0 - 6.0 * p * (1.0 - p)) / npq).sum())


def assert_pearson(parts):
    """Gate the sum of independent Pearson statistics (stat, mean, var)."""
    stat, mean, variance = (sum(column) for column in zip(*parts))
    assert abs(z_score(stat, mean, variance)) <= Z_MAX


@pytest.mark.parametrize("plan", sorted(PLANS))
class TestPerTimeLaws:
    def test_counts_are_multinomial(self, plan):
        # At theta = 0 every c outcome is +1, so sum c_k is the count n_k.
        K, M = PLANS[plan]
        counts = np.array([per_time_sums(result)[0] for result in runs(K, M, Ideal())])
        assert np.all(counts.sum(axis=1) == M) and counts.min() >= 0
        assert_pearson([pearson_uniform(n) for n in counts])
        assert_pearson([pearson_uniform(counts.sum(axis=0))])

    @pytest.mark.parametrize("channel", ["c", "s"])
    def test_sums_are_binomial_given_counts(self, plan, channel):
        # One channel is pinned to bias 1 and yields the counts; the other
        # carries biases that cover the open range, both edges and clamping.
        K, M = PLANS[plan]
        rng = np.random.default_rng(17)
        target = rng.uniform(-0.8, 0.8, K)
        target[:4] = (1.0, -1.0, 1.3, -1.6)
        clamped = np.abs(target) > 1.0
        p = np.clip((1.0 + target) / 2.0, 0.0, 1.0)
        if channel == "c":
            table = DeviationTable(eta1=target - 1.0, eta2=np.ones(K))
        else:
            table = DeviationTable(eta1=np.zeros(K), eta2=target)
        noise = Ban(eta_bar=table.max_abs(), strategy=table)
        random = (p > 0.0) & (p < 1.0)
        cells, pooled_plus, pooled_n = [], 0, 0
        for result in runs(K, M, noise):
            c_sums, s_sums = per_time_sums(result)
            n, sums = (s_sums, c_sums) if channel == "c" else (c_sums, s_sums)
            assert n.sum() == M
            assert result.clamp_count == int(n[clamped].sum())
            assert np.array_equal(sums[~random], np.where(p[~random] == 1.0, 1, -1) * n[~random])
            assert np.all(np.abs(sums) <= n) and np.all((sums + n) % 2 == 0)
            plus = (sums + n) // 2
            live = random & (n > 0)
            cells.append(pearson_binomial(plus[live], n[live], p[live]))
            pooled_plus, pooled_n = pooled_plus + plus, pooled_n + n
        assert_pearson(cells)
        assert_pearson([pearson_binomial(pooled_plus[random], pooled_n[random], p[random])])

    def test_total_depth_moments(self, plan):
        K, M = PLANS[plan]
        depths = np.array([r.total_depth for r in runs(K, M, Ideal(), theta=1.1)],
                          dtype=float)
        mu = M * (K - 1) / 2.0
        var_u = (K * K - 1) / 12.0
        sigma2 = M * var_u
        mu4 = M * (K * K - 1) * (3 * K * K - 7) / 240.0 + 3 * M * (M - 1) * var_u ** 2
        assert abs(z_score(depths.sum(), RUNS * mu, RUNS * sigma2)) <= Z_MAX
        var_of_var = (mu4 - sigma2 ** 2 * (RUNS - 3) / (RUNS - 1)) / RUNS
        assert abs(z_score(depths.var(ddof=1), sigma2, var_of_var)) <= Z_MAX


# --- mean coefficient vector against the enumeration oracle -----------------------

ORACLE_K = 32
ORACLE_THETA = 1.3
ORACLE_RUNS = 200
ETA_BAR = 0.09
DEPHASING_T2 = 40.0
HIGH_COHERENCE_T2 = 200.0


def _oracle_cases():
    """(label, noise model, deviations written out independently of rfe.noise)."""
    k = np.arange(ORACLE_K, dtype=float)
    cos_k, sin_k = np.cos(k * ORACLE_THETA), np.sin(k * ORACLE_THETA)
    zero = np.zeros(ORACLE_K)
    ban_tables = {
        AdversaryStrategy.ZERO: (zero, zero),
        AdversaryStrategy.CONSTANT_PLUS: (zero + ETA_BAR, zero + ETA_BAR),
        AdversaryStrategy.CONSTANT_MINUS: (zero - ETA_BAR, zero - ETA_BAR),
        AdversaryStrategy.SIGN_FLIP: (-ETA_BAR * np.sign(cos_k), -ETA_BAR * np.sign(sin_k)),
    }
    decay = np.exp(-k / DEPHASING_T2) - 1.0
    drift = k / HIGH_COHERENCE_T2
    cases = [("ideal", Ideal(), None)]
    cases += [(f"ban-{s.value}", Ban(ETA_BAR, s), DeviationTable(*ban_tables[s]))
              for s in AdversaryStrategy]
    cases += [("dephasing", Dephasing(DEPHASING_T2),
               DeviationTable(eta1=decay * cos_k, eta2=decay * sin_k)),
              ("high_coherence", HighCoherence(HIGH_COHERENCE_T2),
               DeviationTable(eta1=drift, eta2=drift))]
    return cases


@pytest.mark.parametrize("plan", ["dense", "sparse"])
@pytest.mark.parametrize("label,noise,deviations", _oracle_cases(),
                         ids=[case[0] for case in _oracle_cases()])
def test_mean_coefficients_match_oracle(plan, label, noise, deviations):
    M = 1000 if plan == "dense" else ORACLE_K
    expected = exact_estimator_expectation(ORACLE_THETA, ORACLE_K, deviations)
    mean = np.mean([r.coefficients for r in
                    runs(ORACLE_K, M, noise, theta=ORACLE_THETA, count=ORACLE_RUNS)], axis=0)
    # One sample (c + i s) e^{-2 pi i k j / K} has E|.|^2 = 2, so each
    # coefficient has total variance (2 - |E f_j|^2) / M per run.
    sd = np.sqrt((2.0 - np.abs(expected) ** 2) / (M * ORACLE_RUNS))
    assert np.max(np.abs(mean - expected) / sd) <= Z_ORACLE


@pytest.mark.parametrize("label,noise,deviations", _oracle_cases(),
                         ids=[case[0] for case in _oracle_cases()])
def test_expected_coefficients_match_oracle(label, noise, deviations):
    mean, var_mu = expected_coefficients(noise, ORACLE_THETA, ORACLE_K)
    expected = exact_estimator_expectation(ORACLE_THETA, ORACLE_K, deviations)
    assert np.max(np.abs(mean - expected)) < 1e-12
    assert var_mu == 0.0


# --- Gaussian run noise: one deviation per run and time -----------------------

RUN_NOISE_BLOCK = 400
# At this scale |cos(k theta) + eta| <= 1 has probability about 1e-9 per
# cell, so every likelihood clamps to 0 or 1 and each outcome is the sign of
# its deviation.
HUGE_SIGMA = 1e9


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_gaussian_deviation_is_shared_within_a_run_and_fresh_between_runs(plan, drawn_sums):
    K, M = PLANS[plan]
    _, _, clamp_count = run_block(np.full(RUN_NOISE_BLOCK, 1.1), M, K, Gaussian(HUGE_SIGMA),
                                  np.random.default_rng(23))
    [z] = drawn_sums
    c, s = np.rint(z.real).astype(np.int64), np.rint(z.imag).astype(np.int64)
    assert np.all(clamp_count == M)
    # Samples of one run at one time share its deviation, so they agree:
    # |sum c_k| = |sum s_k| = n_k, and the counts add up to M.
    n = np.abs(c)
    assert np.array_equal(np.abs(s), n)
    assert np.all(n.sum(axis=1) == M)
    # Runs draw their own deviations: pairing the runs that sampled a time
    # two by two, their signs agree as fair coins do, in both channels.
    agree, pairs = 0, 0
    for channel in (c, s):
        for column in channel.T:
            signs = np.sign(column[column != 0])
            signs = signs[: signs.size // 2 * 2].reshape(-1, 2)
            agree += int(np.count_nonzero(signs[:, 0] == signs[:, 1]))
            pairs += signs.shape[0]
    assert pairs > 1000
    assert abs(z_score(agree, pairs / 2, pairs / 4)) <= Z_MAX
