"""Kernel and closed-form spectrum checks against brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from rfe.bounds import BAN_THRESHOLD, MAX_GRID_SIZE
from rfe.harness import exact_estimator_expectation
from rfe.noise import (
    Ban,
    DeviationTable,
    Dephasing,
    Gaussian,
    GaussianLinear,
    Ideal,
    biases_at,
)
from rfe.spectrum import (
    CLOSE_MAGNITUDE_MIN,
    NON_ADJACENT_ENVELOPE_MAX,
    NON_ADJACENT_MAGNITUDE_MAX,
    clipped_normal_moments,
    dirichlet_kernel,
    expected_coefficients,
    expected_spectrum,
    validate_phase,
)

TWO_PI = 2.0 * math.pi


def direct_sum_coefficient(theta, j, K):
    """Independent oracle: the defining K-term average, summed literally."""
    k = np.arange(K)
    return np.mean(np.exp(1j * k * theta) * np.exp(-2j * np.pi * j * k / K))


class TestDirichletKernel:
    def test_limit_at_zero(self):
        assert dirichlet_kernel(0.0, 8) == 1.0

    def test_integer_zeros(self):
        assert abs(dirichlet_kernel(1.0, 8)) < 1e-15
        assert abs(dirichlet_kernel(3.0, 8)) < 1e-15
        assert abs(dirichlet_kernel(-5.0, 8)) < 1e-15

    def test_limits_at_multiples_of_k(self):
        # (-1)^(m (K-1)): odd K-1 alternates, even K-1 stays at +1
        assert dirichlet_kernel(8.0, 8) == -1.0
        assert dirichlet_kernel(16.0, 8) == 1.0
        assert dirichlet_kernel(-8.0, 8) == -1.0
        assert dirichlet_kernel(9.0, 9) == 1.0

    def test_large_k_asymptote(self):
        value = dirichlet_kernel(0.5, 1000)
        assert value == pytest.approx(0.6366200341670445, abs=1e-14)
        assert abs(value - 2.0 / math.pi) < 1e-4

    def test_near_singularity_accuracy(self):
        # tiny offsets from 0 and from K previously hit sine cancellation
        for K in (8, 26, 63, 104):
            for x in (1e-15, -1.7763568394002505e-15, K - 3e-15, K + 2e-15):
                assert abs(abs(dirichlet_kernel(x, K)) - 1.0) < 1e-12, (K, x)

    def test_magnitude_periodicity(self):
        rng = np.random.default_rng(31)
        xs = np.concatenate([rng.uniform(-50.0, 50.0, 2000),
                             [1e-16, -1e-16, 12.999999999999998]])
        for K in (4, 7, 26, 63, 128):
            a = np.abs(dirichlet_kernel(xs, K))
            b = np.abs(dirichlet_kernel(xs + K, K))
            assert np.max(np.abs(a - b)) < 1e-12

    def test_monotone_decrease_on_close_interval(self):
        for K in (4, 16, 63, 256):
            xs = np.linspace(0.0, 0.5, 200)
            vals = dirichlet_kernel(xs, K)
            assert np.all(np.diff(vals) < 1e-15)
            assert vals[-1] >= 2.0 / math.pi - 1e-15

    def test_matches_unreduced_formula_at_safe_points(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            K = int(rng.integers(2, 200))
            x = float(rng.uniform(0.3, K - 0.3))
            if abs(x - round(x)) < 1e-3:
                continue
            naive = math.sin(math.pi * x) / (K * math.sin(math.pi * x / K))
            assert dirichlet_kernel(x, K) == pytest.approx(naive, abs=1e-12)

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            dirichlet_kernel(0.5, 0)


def _reference_sinpi(v):
    """sin(pi v) as the kernel first computed it, with a floor-mod parity."""
    n = np.rint(v)
    f = v - n
    return np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0) * np.sin(np.pi * f)


def _reference_kernel(x, K):
    """The kernel as first written, with np.mod at every step: a frozen copy
    whose bits the kernel must keep."""
    xs = np.asarray(x, dtype=float)
    r = np.mod(xs, K)
    m = np.rint((xs - r) / K)
    folded = r > K / 2.0
    r = np.where(folded, r - K, r)
    m = m + folded
    sign = np.where(np.mod(m * (K - 1), 2.0) == 0.0, 1.0, -1.0)
    den = np.where(r == 0.0, 1.0, K * np.sin(np.pi * r / K))
    vals = np.where(r == 0.0, 1.0, _reference_sinpi(r) / den)
    out = sign * vals
    if np.ndim(x) == 0:
        return float(out)
    return out


def _bits(values):
    """int64 view of float64 values: signed zeros and NaN payloads count."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _kernel_inputs(K, rng):
    """Random, lattice and edge inputs for grid size K."""
    lattice = np.concatenate([np.arange(-3 * K, 3 * K + 1, max(1, K // 200)),
                              K * np.arange(-3, 4)]).astype(float)
    edges = [0.0, -0.0, K / 2.0, -K / 2.0, np.nextafter(K, 0.0),
             -np.nextafter(K, 0.0), 1e15, -1e15, math.nan, math.inf, -math.inf]
    return np.concatenate([rng.uniform(-3.0 * K, 3.0 * K, 4000),
                           rng.uniform(-K, K, 4000),
                           lattice, lattice + 0.5, lattice + 1e-13,
                           lattice - 1e-13, edges])


BIT_IDENTITY_GRID_SIZES = list(range(1, 140)) + [1000, 62832, 62833]


def _assert_magnitude_is_the_distance_kernel(tones, K, tol):
    """|S_K(j - t)| is the kernel's abs at the circular distance
    d = min(|j - t|, K - |j - t|) <= K/2, at every index j and tone t, to
    ``tol``: the magnitude depends on K and d alone, which the lemma
    certificate relies on."""
    x = np.arange(K)[:, None] - tones
    d = np.minimum(np.abs(x), K - np.abs(x))
    assert np.all(d <= K / 2.0), K
    gap = np.abs(np.abs(dirichlet_kernel(x, K)) - np.abs(dirichlet_kernel(d, K)))
    assert np.max(gap) < tol, K


class TestKernelBitIdentity:
    """The kernel must keep the reference's bits; it has no shortcuts, so a
    change that moves one is a change of behaviour.  Its magnitude at index j
    must depend on the circular distance from j to the tone alone."""

    @pytest.mark.parametrize("K", BIT_IDENTITY_GRID_SIZES)
    def test_matches_reference_kernel(self, K):
        rng = np.random.default_rng(K)
        xs = _kernel_inputs(K, rng)
        inner = xs[np.abs(xs) < K]
        with np.errstate(invalid="ignore"):
            for values in (xs, inner):
                assert np.array_equal(_bits(dirichlet_kernel(values, K)),
                                      _bits(_reference_kernel(values, K)))
            for x in xs[::97].tolist() + [0.0, -0.0, K / 2.0, math.nan, -math.inf]:
                got = dirichlet_kernel(x, K)
                assert isinstance(got, float)
                assert _bits(got) == _bits(_reference_kernel(x, K)), x

    @pytest.mark.parametrize("K", BIT_IDENTITY_GRID_SIZES)
    def test_magnitude_is_the_kernel_abs(self, K):
        # j - t and K - |j - t| round at ulp(K), so the two agree to about
        # K eps
        rng = np.random.default_rng(K)
        half = K / 2.0
        ints = np.arange(0.0, math.floor(half) + 1.0, max(1, K // 8))
        tones = np.concatenate([rng.uniform(0.0, half, 8), [0.0, half], ints + 1e-13,
                                np.maximum(ints - 1e-13, 0.0), np.minimum(ints + 0.5, half),
                                rng.uniform(half, K, 4)])
        _assert_magnitude_is_the_distance_kernel(tones, K, 1e-15 * max(K, 100))

    def test_magnitude_is_the_kernel_abs_on_the_scan_grid(self):
        # the grid of the lemma certificate's brute-force reference: every K
        # from 4 to 128 at 200 phases in [0, pi]
        thetas = np.linspace(0.0, math.pi, 200)
        for K in range(4, 129):
            _assert_magnitude_is_the_distance_kernel(K * thetas / TWO_PI, K, 1e-13)

    @pytest.mark.parametrize("K", BIT_IDENTITY_GRID_SIZES)
    def test_mod_period_matches_floor_mod(self, K):
        # |S_K| is K-periodic and the kernel folds by floor mod, so the value
        # at x and at np.mod(x, K) have the same magnitude, exactly
        rng = np.random.default_rng(K)
        xs = _kernel_inputs(K, rng)
        inner = xs[np.abs(xs) < K]
        with np.errstate(invalid="ignore"):
            for values in (xs, inner, inner[:1].reshape(()), np.empty(0)):
                assert np.array_equal(np.abs(dirichlet_kernel(values, K)),
                                      np.abs(dirichlet_kernel(np.mod(values, K), K)),
                                      equal_nan=True)


def expected_coefficient(theta, j, K):
    """Coefficient j of the closed-form expected spectrum."""
    return expected_spectrum(theta, K)[j]


class TestExpectedCoefficient:
    def test_on_grid_peak(self):
        value = expected_coefficient(TWO_PI * 3 / 8, 3, 8)
        assert abs(value - 1.0) < 1e-12

    def test_grid_orthogonality(self):
        assert abs(expected_coefficient(TWO_PI * 3 / 8, 5, 8)) < 1e-12

    def test_coefficient_is_the_kernel_abs_spot(self):
        value = expected_coefficient(2.25, 28, 79)
        kernel = dirichlet_kernel(28 - 79 * 2.25 / TWO_PI, 79)
        assert abs(abs(value) - abs(kernel)) < 1e-12

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(300):
            K = int(rng.integers(1, 257))
            j = int(rng.integers(0, K))
            theta = float(rng.uniform(0.0, TWO_PI))
            worst = max(worst, abs(expected_coefficient(theta, j, K)
                                   - direct_sum_coefficient(theta, j, K)))
        assert worst < 1e-12

    def test_coefficient_is_the_kernel_abs_random(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            K = int(rng.integers(1, 257))
            j = int(rng.integers(0, K))
            theta = float(rng.uniform(0.0, TWO_PI))
            value = abs(expected_coefficient(theta, j, K))
            kernel = abs(dirichlet_kernel(j - K * theta / TWO_PI, K))
            assert abs(value - kernel) < 1e-12


class TestExpectedSpectrum:
    def test_rejects_grids_past_the_cap(self):
        with pytest.raises(ValueError, match="2\\*\\*22"):
            expected_spectrum(1.0, MAX_GRID_SIZE + 1)

    def test_constant_signal_peaks_at_zero(self):
        coefficients = expected_spectrum(0.0, 8)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.max(np.abs(coefficients - expected)) < 1e-12

    def test_on_grid_indicator(self):
        coefficients = expected_spectrum(TWO_PI * 3 / 8, 8)
        expected = np.zeros(8, dtype=complex)
        expected[3] = 1.0
        assert np.max(np.abs(coefficients - expected)) < 1e-12

    def test_off_grid_argmax(self):
        # 79 * 2.25 / (2 pi) ~ 28.29, so the peak bin is 28
        coefficients = expected_spectrum(2.25, 79)
        assert int(np.argmax(np.abs(coefficients))) == 28

    def test_matches_elementwise_coefficients(self):
        # the product form exp(-i pi x (K-1)/K) S_K(x), one scalar kernel
        # call per index
        coefficients = expected_spectrum(1.234, 31)
        per_element = []
        for j in range(31):
            x = j - 31 * 1.234 / TWO_PI
            per_element.append(np.exp(-1j * np.pi * x * 30 / 31) * dirichlet_kernel(x, 31))
        assert np.max(np.abs(coefficients - np.array(per_element))) < 1e-14

    def test_magnitudes_bounded_by_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            K = int(rng.integers(1, 300))
            theta = float(rng.uniform(0.0, TWO_PI))
            mags = np.abs(expected_spectrum(theta, K))
            assert np.all(mags <= 1.0 + 1e-12)


def quadrature_moments(b, sigma):
    """Mean and variance of clip(b + eta, -1, 1), eta ~ N(0, sigma^2), by
    the trapezoid rule over +-12 sigma, independently of rfe.spectrum."""
    eta = np.linspace(-12.0 * sigma, 12.0 * sigma, 400_001)
    density = np.exp(-0.5 * (eta / sigma) ** 2) / (sigma * math.sqrt(TWO_PI))
    x = np.clip(b + eta, -1.0, 1.0)
    mean = np.trapezoid(x * density, eta)
    return mean, np.trapezoid((x - mean) ** 2 * density, eta)


class TestExpectedCoefficients:
    @pytest.mark.parametrize("theta,K", [(0.0, 8), (1.0, 63), (2.25, 79), (3.0, 256)])
    def test_ideal_is_the_closed_form(self, theta, K):
        mean, var_mu = expected_coefficients(Ideal(), theta, K)
        assert np.max(np.abs(mean - expected_spectrum(theta, K))) < 1e-12
        assert var_mu == 0.0

    @pytest.mark.parametrize("theta", [0.0, 0.05, math.pi / 2, 3.1])
    def test_a_clamping_adversary_matches_enumeration(self, theta):
        # deviations of +-(threshold - 1e-6), signed so most biases are
        # pushed past +-1 and clamp
        K = 40
        k = np.arange(K)
        e = BAN_THRESHOLD - 1e-6
        table = DeviationTable(eta1=e * np.where(np.cos(k * theta) >= 0.0, 1.0, -1.0),
                               eta2=e * np.where(np.sin(k * theta) >= 0.0, 1.0, -1.0))
        bx = np.cos(k * theta) + table.eta1
        assert np.count_nonzero(np.abs(bx) > 1.0) > 0
        mean, var_mu = expected_coefficients(Ban(BAN_THRESHOLD, table), theta, K)
        assert np.max(np.abs(mean - exact_estimator_expectation(theta, K, table))) < 1e-12
        assert var_mu == 0.0

    @pytest.mark.parametrize("sigma", [1e-3, 0.1, 1.0])
    def test_clipped_moments_match_quadrature(self, sigma):
        b = np.array([-1.0, -0.99, 0.0, 0.99, 1.0])
        mean, variance = clipped_normal_moments(b, sigma)
        for i, value in enumerate(b):
            q_mean, q_variance = quadrature_moments(value, sigma)
            assert mean[i] == pytest.approx(q_mean, rel=1e-7, abs=1e-12)
            assert variance[i] == pytest.approx(q_variance, rel=1e-6)

    def test_zero_sigma_is_the_clip(self):
        b = np.array([-1.5, -1.0, -0.3, 0.0, 0.7, 1.0, 1.2])
        mean, variance = clipped_normal_moments(b, 0.0)
        assert np.array_equal(mean, np.clip(b, -1.0, 1.0))
        assert np.array_equal(variance, np.zeros(b.size))
        mean, var_mu = expected_coefficients(Gaussian(0.0), 1.0, 63)
        assert np.array_equal(mean, expected_coefficients(Ideal(), 1.0, 63)[0])
        assert var_mu == 0.0

    def test_gaussian_law_is_below_the_unclipped_one(self):
        # clipping is 1-Lipschitz, so it cannot raise a variance:
        # Var_eta mu <= 2 sum_k sigma_k^2 / K^2, the law without the clip,
        # with sigma_k written out (a wrong model.scale fails here)
        K = 63
        for model, unclipped in [
                (Gaussian(0.1), 2 * 0.1 ** 2 / K),
                (GaussianLinear(0.01), 2 * 0.01 ** 2 * (62 * 63 * 125 / 6) / K ** 2)]:
            var_mu = expected_coefficients(model, 1.0, K)[1]
            assert 0.5 * unclipped < var_mu < unclipped

    @pytest.mark.parametrize("model", [Ideal(), Gaussian(0.1), GaussianLinear(1e-5),
                                       Dephasing(630.0)], ids=lambda m: m.kind)
    def test_blocks_give_the_whole_grid_bits(self, model):
        # K = 40,000 spans three blocks; the reference builds the moments of
        # every time at once
        K, theta = 40_000, 1.0
        ks = np.arange(K)
        bx, by = biases_at(model, theta, ks)
        mean_x, var_x = clipped_normal_moments(bx, model.scale(ks))
        mean_y, var_y = clipped_normal_moments(by, model.scale(ks))
        mean, var_mu = expected_coefficients(model, theta, K)
        assert np.array_equal(mean.view(np.int64),
                              (np.fft.fft(mean_x + 1j * mean_y) / K).view(np.int64))
        assert var_mu == float(np.sum(var_x + var_y)) / (K * K)

    @pytest.mark.parametrize("model", [Ideal(), Gaussian(0.1)], ids=lambda m: m.kind)
    def test_working_memory_is_o_of_k(self, model):
        # one complex and one float array of length K, 24 bytes per index,
        # plus a block's moments; the whole grid's moments at once take 88
        # and 169 bytes per index
        K = 2 ** 18
        expected_coefficients(model, 1.0, 64)  # first-call setup
        tracemalloc.start()
        try:
            expected_coefficients(model, 1.0, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / K < 64

    def test_rejects_bad_grids_and_phases(self):
        with pytest.raises(ValueError, match="2\\*\\*22"):
            expected_coefficients(Ideal(), 1.0, MAX_GRID_SIZE + 1)
        with pytest.raises(ValueError, match="phase"):
            expected_coefficients(Gaussian(0.1), TWO_PI, 63)


class TestMagnitudeBounds:
    def test_close_floor_and_non_adjacent_caps(self):
        # independent of the harness scan: take each index's circular
        # distance d to the tone, in bins, and check the closed-form
        # magnitude against the landmarks: close is d <= 1/2, non-adjacent
        # d >= 1
        thetas = np.linspace(0.0, math.pi, 101)
        for K in range(4, 21):
            for theta in thetas:
                mags = np.abs(expected_spectrum(float(theta), K))
                for j in range(K):
                    r = (j - K * theta / TWO_PI) % K
                    d = min(r, K - r)
                    if d <= 0.5:
                        assert mags[j] >= CLOSE_MAGNITUDE_MIN - 1e-12
                    elif d >= 1.0:
                        assert mags[j] <= NON_ADJACENT_MAGNITUDE_MAX + 1e-12
                        assert mags[j] <= NON_ADJACENT_ENVELOPE_MAX + 1e-12

    def test_on_grid_close_magnitude_is_one(self):
        # K = 4, theta = pi/2 sits exactly on bin 1
        coefficients = expected_spectrum(math.pi / 2.0, 4)
        assert abs(coefficients[1]) == pytest.approx(1.0, abs=1e-12)


class TestPhaseValidation:
    def test_range(self):
        assert validate_phase(0.0) == 0.0
        assert validate_phase(6.28) == 6.28
        for bad in (-0.1, TWO_PI, 7.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                validate_phase(bad)
