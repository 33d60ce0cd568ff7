"""The suite table of rfe.verify: order, aliases, options, threads, planning,
the oracle suite's pinned result, expectation check and memory, the lemma
suite's failure on a mutant kernel, the gaussian suite's failure on a broken
noise path or an off-pin plan, the reductions suite's failure on a wrong
count, and the checks that rfebench's tracer wraps by name."""

import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rfe import bounds, estimator, harness, spectrum, verify
from rfe.noise import Gaussian, Ideal

CANONICAL = ["oracle", "lemmas", "thresholds", "reductions", "depth",
             "noiseless", "adversarial", "gaussian", "demo"]
QUICK = CANONICAL[:5]
# the longest suites start first; results still come in canonical order
START = ["gaussian", "oracle", "noiseless", "adversarial", "demo", "reductions",
         "lemmas", "depth", "thresholds"]


@pytest.fixture
def stub_suites(monkeypatch):
    """Replace every suite with a stub recording its name and options."""
    calls = []
    for name in CANONICAL:
        def stub(name=name, **options):
            calls.append((name, options))
            return verify.SuiteResult(name=name, passed=True, summary="", details={})
        monkeypatch.setattr(verify, f"suite_{name}", stub)
    return calls


class TestRunSuites:
    def test_runs_in_canonical_order(self):
        results = verify.run_suites(["demo", "oracle"])
        assert [r.name for r in results] == ["oracle", "demo"]
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("names,expected", [
        (["quick"], QUICK),
        (["all"], CANONICAL),
        (["demo", "quick", "oracle"], QUICK + ["demo"]),
    ])
    def test_aliases_expand_in_canonical_order(self, stub_suites, names, expected):
        assert [r.name for r in verify.run_suites(names)] == expected
        # one thread calls the suites in start order
        assert [name for name, _ in stub_suites] == [n for n in START if n in expected]

    def test_start_order_lists_every_suite_once(self):
        assert list(verify._START_ORDER) == START
        assert sorted(START) == sorted(CANONICAL)

    def test_unknown_name_raises(self, stub_suites):
        with pytest.raises(ValueError, match="unknown suite 'laws'"):
            verify.run_suites(["oracle", "laws"])
        assert stub_suites == []

    @pytest.mark.parametrize("names,campaign_workers", [
        (CANONICAL, 1),      # beside other suites: blocks in the suite's own thread
        (["noiseless"], 2),  # alone: blocks on the workers
    ], ids=["beside_other_suites", "alone"])
    def test_campaign_options_reach_only_the_campaign_suites(self, stub_suites, monkeypatch,
                                                             names, campaign_workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        verify.run_suites(names, workers=2, trials=7, outdir="out")
        campaign = {"workers": campaign_workers, "trials": 7}
        expected = {**dict.fromkeys(QUICK, {}),
                    **dict.fromkeys(("noiseless", "adversarial", "gaussian"), campaign),
                    "demo": {**campaign, "outdir": "out"}}
        assert dict(stub_suites) == {name: expected[name] for name in names}

    def test_default_trials_are_left_to_each_suite(self, stub_suites):
        verify.run_suites(["noiseless", "demo"])
        assert dict(stub_suites) == {"noiseless": {"workers": 1},
                                     "demo": {"workers": 1, "outdir": None}}

    @pytest.mark.parametrize("options", [{"workers": -1}, {"trials": 0}])
    def test_bad_options_raise_before_any_suite_runs(self, stub_suites, options):
        with pytest.raises(ValueError):
            verify.run_suites(["all"], **options)
        assert stub_suites == []


def _masked(value):
    """A suite report with its wall-clock readings taken out."""
    if isinstance(value, dict):
        return {key: _masked(item) for key, item in value.items() if key != "elapsed_s"}
    if isinstance(value, list):
        return [_masked(item) for item in value]
    return value


class TestThreads:
    def test_suites_run_side_by_side(self, monkeypatch):
        # each stub returns only once the other has started too
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        barrier = threading.Barrier(2, timeout=5)
        for name in ("oracle", "lemmas"):
            def stub(name=name):
                barrier.wait()
                return verify.SuiteResult(name=name, passed=True, summary="", details={})
            monkeypatch.setattr(verify, f"suite_{name}", stub)
        results = verify.run_suites(["lemmas", "oracle"], workers=2)
        assert [r.name for r in results] == ["oracle", "lemmas"]

    def test_every_suite_that_runs_long_reports_its_time(self):
        results = verify.run_suites(["all"], trials=10)
        timed = {r.name for r in results if r.details.get("elapsed_s", -1.0) >= 0.0}
        assert timed == {"oracle", "lemmas", "noiseless", "adversarial", "gaussian", "demo"}

    def test_worker_count_does_not_change_the_report(self):
        inline = verify.run_suites(["all"], workers=1, trials=30)
        threaded = verify.run_suites(["all"], workers=2, trials=30)
        assert [_masked(r.to_dict()) for r in threaded] == \
            [_masked(r.to_dict()) for r in inline]
        assert [r.name for r in threaded] == CANONICAL

    def test_pool_threads_never_exceed_the_cores(self, monkeypatch):
        # 131 trials make two blocks at K = 63 and at K = 79, so every
        # campaign suite would open a pool of its own if it could
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        lock = threading.Lock()
        alive, peak = [0], [0]

        class Recording(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                self.threads = max_workers
                with lock:
                    alive[0] += max_workers
                    peak[0] = max(peak[0], alive[0])
                super().__init__(max_workers)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                with lock:
                    alive[0] -= self.threads

        monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
        verify.run_suites(["all"], workers=2, trials=131)
        assert peak[0] == 2

    def test_a_failing_suite_raises_from_its_thread(self, monkeypatch):
        def broken():
            raise RuntimeError("suite broke")
        monkeypatch.setattr(verify, "suite_depth", broken)
        with pytest.raises(RuntimeError, match="suite broke"):
            verify.run_suites(["quick"], workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_first_error_starts_no_further_suite(self, stub_suites, monkeypatch,
                                                     workers):
        # gaussian starts first and raises.  On two threads oracle runs next
        # to it, held until run_suites has seen the error, so no thread
        # comes free for noiseless before then.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        seen_error = threading.Event()
        real_wait = harness.wait

        def watching(futures, return_when):
            finished = real_wait(futures, return_when=return_when)
            if any(future.exception() for future in finished.done):
                seen_error.set()
            return finished

        def gaussian(**options):
            raise RuntimeError("gaussian broke")

        def oracle():
            stub_suites.append(("oracle", {}))
            assert seen_error.wait(5)
            return verify.SuiteResult(name="oracle", passed=True, summary="", details={})

        monkeypatch.setattr(harness, "wait", watching)
        monkeypatch.setattr(verify, "suite_gaussian", gaussian)
        monkeypatch.setattr(verify, "suite_oracle", oracle)
        with pytest.raises(RuntimeError, match="gaussian broke"):
            verify.run_suites(["all"], workers=workers)
        assert [name for name, _ in stub_suites] == START[1:workers]


def test_the_traced_checks_are_the_harness_functions():
    # rfebench/tracing.py wraps it by name in rfe.verify for harness.oracle_ms;
    # after a rename that reads 0
    assert verify.exact_estimator_expectation is harness.exact_estimator_expectation


def _without_twiddles(z, split):
    """The two passes of rfe.estimator.transform_sums without the twiddle
    product between them."""
    grid = z.reshape(z.shape[0], *split.shape)
    np.fft.fft(grid, axis=2, out=grid)
    np.fft.fft(grid, axis=1, out=grid)
    return z


def _one_fft(z, split):
    """np.fft.fft over the buffer as laid out for the two passes."""
    return np.fft.fft(z, axis=1, out=z)


class TestOracleSuite:
    def test_worst_error_is_pinned(self):
        # a change to the direct DFT that alters its rounding moves these bits
        result = verify.suite_oracle()
        assert result.details["max_abs_error"] == float.fromhex("0x1.0da68b85989a1p-43")

    def test_memory_stays_under_512_kib(self):
        # a 256 x 256 complex phase matrix alone is 1 MB
        verify.suite_oracle()
        tracemalloc.start()
        try:
            verify.suite_oracle()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2 ** 10


    def test_the_noise_free_expectation_is_checked(self):
        # the path rfe spectrum prints, on the first 20 pairs
        details = verify.suite_oracle().details
        assert details["expectation_pairs"] == 20
        assert details["expectation_max_abs_error"] < 1e-15

    def test_the_two_pass_transform_is_checked(self):
        # one seeded vector at a grid the estimator splits, within rounding
        details = verify.suite_oracle().details
        assert estimator.grid_split(details["transform_grid"]).shape[0] == 86
        assert details["transform_max_abs_error"] <= details["transform_tolerance"] < 1e-11

    @pytest.mark.parametrize("transform", [_without_twiddles, _one_fft],
                             ids=["without_twiddles", "one_fft_over_the_split_layout"])
    def test_a_wrong_transform_fails(self, monkeypatch, transform):
        monkeypatch.setattr(verify, "transform_sums", transform)
        result = verify.suite_oracle()
        assert result.details["transform_max_abs_error"] > 1.0
        assert result.passed is False

    def test_a_conjugated_expectation_fails(self, monkeypatch):
        def conjugated(model, theta, K):
            mean, variance = spectrum.expected_coefficients(model, theta, K)
            return np.conj(mean), variance

        monkeypatch.setattr(verify, "expected_coefficients", conjugated)
        result = verify.suite_oracle()
        assert result.details["expectation_max_abs_error"] > 0.1
        assert result.passed is False


def _kernel_over_sin(x, grid_size):
    """rfe.spectrum.dirichlet_kernel with sin(pi r / K) in place of
    K sin(pi r / K) in its denominator."""
    K = grid_size
    xs = np.asarray(x, dtype=float)
    r = np.mod(xs, K)
    folded = r > K / 2.0
    m = np.rint((xs - r) / K) + folded
    r = np.where(folded, r - K, r)
    sign = np.where(np.mod(m * (K - 1), 2.0) == 0.0, 1.0, -1.0)
    n = np.rint(r)
    numerator = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0) * np.sin(np.pi * (r - n))
    zero = r == 0.0
    den = np.where(zero, 1.0, np.sin(np.pi * r / K))
    out = sign * np.where(zero, 1.0, numerator / den)
    return float(out) if out.ndim == 0 else out


def _off_peak_scaled(x, grid_size):
    """The kernel with its values at circular distance >= 1 scaled by 1.4."""
    values = spectrum.dirichlet_kernel(x, grid_size)
    d = np.abs(np.asarray(x))
    return np.where(np.minimum(d, grid_size - d) >= 1.0, 1.4 * values, values)


def _far_doubled(x, grid_size):
    """The kernel with its values at circular distance >= 2 doubled: on the
    K = 4 grid of [1, 2] it is the kernel."""
    values = spectrum.dirichlet_kernel(x, grid_size)
    d = np.abs(np.asarray(x))
    return np.where(np.minimum(d, grid_size - d) >= 2.0, 2.0 * values, values)


class TestLemmaSuite:
    def test_the_suite_covers_every_grid_size(self):
        result = verify.suite_lemmas()
        assert result.passed
        assert result.details["k_range"] == [4, bounds.MAX_GRID_SIZE]

    @pytest.mark.parametrize("kernel", [_kernel_over_sin, _off_peak_scaled],
                             ids=["denominator_without_K", "off_peak_x_1.4"])
    def test_a_mutant_kernel_fails_the_suite(self, monkeypatch, kernel):
        monkeypatch.setattr(harness, "dirichlet_kernel", kernel)
        result = verify.suite_lemmas()
        assert result.passed is False
        assert result.details["violation_count"] > 0
        assert result.summary.startswith(f"{result.details['violation_count']} violations")

    def test_a_kernel_doubled_past_distance_two_fails_the_suite(self, monkeypatch):
        # the cap for d >= 2 is 1/(2d): at K = 16, d = 2.5 this kernel reads
        # 0.265 against 0.2, and at d = 2**i + 1/2 and K/2 - 1/2 of every K
        # past 4 it reads above 1/(2d) too
        assert abs(_far_doubled(2.5, 16)) == pytest.approx(0.2652, abs=1e-4)
        monkeypatch.setattr(harness, "dirichlet_kernel", _far_doubled)
        result = verify.suite_lemmas()
        assert result.passed is False
        far = sum(harness.lemma_far_distances(K).size for K in harness.LEMMA_GRID_SIZES)
        assert result.details["violation_count"] == far == 81


class TestGaussianSuite:
    """The exact clipped-normal law is checked on run_block's own rows, and
    each model's scale against sigma_k written out in the suite, so the
    suite fails when the noise is drawn or scaled wrong or the run path
    drops it."""

    @staticmethod
    def law_failed(result):
        return [law["model"]["kind"] for law in result.details["laws"] if not law["passed"]]

    def test_passes(self):
        result = verify.suite_gaussian(trials=30)
        assert result.passed
        assert self.law_failed(result) == []
        for law in result.details["laws"]:
            assert law["scale_max_abs_dev"] <= verify.LAW_SCALE_TOL
            assert law["variance_max_abs_z"] <= verify.LAW_Z_MAX
            assert abs(law["variance_pooled_z"]) <= verify.LAW_Z_MAX
            assert law["mean_max_z"] <= verify.LAW_MEAN_Z_MAX

    def test_a_wrong_scale_fails(self, monkeypatch):
        # the law and the draws both read model.scale, so they still agree;
        # the sigma_k written out in the suite does not
        monkeypatch.setattr(Gaussian, "scale", lambda self, ks: 3.0 * self.sigma)
        result = verify.suite_gaussian(trials=30)
        assert not result.passed
        assert self.law_failed(result) == ["gaussian"]
        law = result.details["laws"][0]
        assert law["scale_max_abs_dev"] == pytest.approx(2.0 * verify.GAUSSIAN_SIGMA)
        assert law["variance_max_abs_z"] <= verify.LAW_Z_MAX

    def test_tripled_draws_fail(self, monkeypatch):
        original = Gaussian.draw_run_noise

        def tripled(self, ks, rng, size=None):
            return 3.0 * original(self, ks, rng, size)

        monkeypatch.setattr(Gaussian, "draw_run_noise", tripled)
        result = verify.suite_gaussian(trials=30)
        assert not result.passed
        assert self.law_failed(result) == ["gaussian", "gaussian_linear"]
        assert min(law["variance_pooled_z"] for law in result.details["laws"]) > verify.LAW_Z_MAX

    def test_zero_run_noise_fails(self, monkeypatch):
        def zeros(self, ks, rng, size=None):
            return np.zeros((2, len(ks)) if size is None else (size, 2, len(ks)))

        monkeypatch.setattr(Gaussian, "draw_run_noise", zeros)
        result = verify.suite_gaussian(trials=30)
        assert not result.passed
        assert self.law_failed(result) == ["gaussian", "gaussian_linear"]
        assert max(law["variance_pooled_z"] for law in result.details["laws"]) < -verify.LAW_Z_MAX

    def test_a_run_path_that_ignores_the_noise_fails(self, monkeypatch):
        # the noise is drawn as before, but run_block builds ideal biases
        original = estimator.biases_at

        def ideal_biases(model, theta, ks, run_noise=None):
            return original(Ideal(), theta, ks)

        monkeypatch.setattr(estimator, "biases_at", ideal_biases)
        result = verify.suite_gaussian(trials=30)
        assert not result.passed
        assert self.law_failed(result) == ["gaussian", "gaussian_linear"]

    def test_a_small_bias_offset_fails_on_the_mean(self, monkeypatch):
        # 0.0055 on every b_x moves E f_0 by about 4.8 standard errors: the
        # mean gate sees it, the variance gates do not, and a mean gate at
        # LAW_Z_MAX would not either
        original = estimator.biases_at

        def offset(model, theta, ks, run_noise=None):
            bx, by = original(model, theta, ks, run_noise)
            return bx + 0.0055, by

        monkeypatch.setattr(estimator, "biases_at", offset)
        result = verify.suite_gaussian(trials=30)
        assert not result.passed
        assert self.law_failed(result) == ["gaussian", "gaussian_linear"]
        for law in result.details["laws"]:
            assert verify.LAW_MEAN_Z_MAX < law["mean_max_z"] <= verify.LAW_Z_MAX
            assert law["variance_max_abs_z"] <= verify.LAW_Z_MAX

    def test_a_plan_off_the_pinned_grid_fails(self, monkeypatch):
        # M stays 3559 and every law passes: only the K pin can see it
        original = bounds.bounds_report
        monkeypatch.setattr(bounds, "bounds_report",
                            lambda *args: replace(original(*args), grid_size=64))
        result = verify.suite_gaussian(trials=30)
        assert not result.passed
        assert result.details["plan"]["K"] == 64 and result.details["plan"]["M"] == 3559
        assert self.law_failed(result) == []
        assert result.details["stats"]["rate"] == 1.0

    def test_a_model_without_run_noise_follows_its_law(self):
        law = verify._law_check(Ideal(), np.zeros(31), 100, np.random.default_rng(1))
        assert law["passed"], law

    @pytest.mark.parametrize("index", range(len(verify.LAW_MODELS)),
                             ids=[model.kind for model, _ in verify.LAW_MODELS])
    def test_the_gate_never_trips_over_twenty_seeds(self, index):
        model, sigma_k = verify.LAW_MODELS[index]
        for seed in range(20):
            law = verify._law_check(model, sigma_k, 3559, np.random.default_rng(900 + seed))
            assert law["passed"], (seed, law)

    def test_memory_stays_under_one_mib(self):
        # blocks of 121 runs at K = 63 keep every array under 120 KiB
        model, sigma_k = verify.LAW_MODELS[0]
        verify._law_check(model, sigma_k, 3559, np.random.default_rng(1))
        tracemalloc.start()
        try:
            verify._law_check(model, sigma_k, 3559, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestReductionsSuite:
    def test_passes(self):
        result = verify.suite_reductions()
        assert result.passed and result.details["samples_equal"]

    def test_a_wrong_base_constant_fails(self, monkeypatch):
        # Ban(0) and Ideal share one branch of bounds_report, so comparing
        # them alone cannot see this; the written-out count does
        monkeypatch.setattr(bounds, "_BASE", bounds._BASE * 1.01)
        result = verify.suite_reductions()
        assert not result.passed
        assert not result.details["samples_equal"]


class TestPlanning:
    @pytest.mark.parametrize("suite", ["noiseless", "adversarial", "gaussian"])
    def test_each_certified_campaign_plans_once(self, monkeypatch, suite):
        calls = []
        original = bounds.bounds_report

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bounds, "bounds_report", counting)
        monkeypatch.setattr(harness, "bounds_report", counting)
        result = getattr(verify, f"suite_{suite}")(trials=20)
        assert result.details["plan"]["K"] == 63
        # the adversarial suite's divergence ladder plans other models too
        campaign = [args for args in calls
                    if args[2].to_dict() == result.details["plan"]["noise"]]
        assert len(campaign) == 1

    def test_thresholds_bisect_once(self, monkeypatch):
        # the suite reads the derivation report's bisection, not one of its own
        calls = []
        original = bounds.bisect

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bounds, "bisect", counting)
        result = verify.suite_thresholds()
        assert result.passed and len(calls) == 1


class TestBenchmarkHooks:
    """Names a tracer wraps by module global; without them a traced
    benchmark run crashes, or its layer metrics read 0.  The run_rfe
    bindings are checked in test_imports."""

    def test_every_table_entry_has_its_suite_function(self):
        for name in verify._SUITES:
            assert callable(getattr(verify, f"suite_{name}")), name

    def test_a_wrapped_suite_sees_the_call(self, monkeypatch):
        seen = []
        original = verify.suite_thresholds

        def wrapped():
            seen.append("thresholds")
            return original()

        monkeypatch.setattr(verify, "suite_thresholds", wrapped)
        assert verify.run_suites(["thresholds"])[0].passed
        assert seen == ["thresholds"]
