"""Noise model algebra, thresholds, draws, and the JSON wire format."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import rfe.noise
from rfe import verify
from rfe.bounds import BAN_THRESHOLD, DEPHASING_RATIO_NOMINAL, DEPHASING_RATIO_REDERIVED
from rfe.noise import (
    AdversaryStrategy,
    Ban,
    Dephasing,
    DeviationTable,
    Gaussian,
    GaussianLinear,
    HighCoherence,
    Ideal,
    MODELS,
    NoiseModel,
    biases_at,
    noise_from_dict,
)
from rfe.spectrum import expected_coefficients


def bias_at(model, theta, k, run_noise=None):
    """Entry k of the model's biases over the grid of k + 1 times."""
    bx, by = biases_at(model, theta, np.arange(k + 1), run_noise)
    return float(bx[k]), float(by[k])


class TestBias:
    def test_ideal_time_zero(self):
        for theta in (0.0, 1.0, 2.7):
            assert bias_at(Ideal(), theta, 0) == (1.0, 0.0)

    def test_ideal_is_pure_tone(self):
        bx, by = bias_at(Ideal(), 0.7, 5)
        assert bx == pytest.approx(math.cos(3.5), abs=1e-15)
        assert by == pytest.approx(math.sin(3.5), abs=1e-15)

    def test_dephasing_matches_likelihood_algebra(self):
        # the decayed likelihood p = exp(-k/T2)(1+cos)/2 + (1-exp(-k/T2))/2
        # rearranges to bias = 2p - 1 = exp(-k/T2) cos(k theta)
        t2, theta, k = 10.0, 1.0, 5
        p = (math.exp(-k / t2) * (1 + math.cos(k * theta)) / 2
             + (1 - math.exp(-k / t2)) / 2)
        bx, by = bias_at(Dephasing(t2), theta, k)
        assert bx == pytest.approx(2 * p - 1, abs=1e-15)
        assert bx == pytest.approx(math.exp(-0.5) * math.cos(5.0), abs=1e-15)
        assert by == pytest.approx(math.exp(-0.5) * math.sin(5.0), abs=1e-15)

    def test_dephasing_fully_decayed(self):
        bx, by = bias_at(Dephasing(1e-3), 1.0, 100)
        assert abs(bx) < 1e-12 and abs(by) < 1e-12

    def test_high_coherence_drift(self):
        bx, by = bias_at(HighCoherence(100.0), 0.9, 7)
        assert bx == pytest.approx(math.cos(6.3) + 0.07, abs=1e-15)
        assert by == pytest.approx(math.sin(6.3) + 0.07, abs=1e-15)

    def test_ban_constant_plus(self):
        bx, by = bias_at(Ban(0.05, AdversaryStrategy.CONSTANT_PLUS), 0.9, 3)
        assert bx == pytest.approx(math.cos(2.7) + 0.05, abs=1e-15)
        assert by == pytest.approx(math.sin(2.7) + 0.05, abs=1e-15)

    def test_sign_flip_pulls_toward_zero(self):
        bx, by = bias_at(Ban(0.05, AdversaryStrategy.SIGN_FLIP), 0.9, 3)
        assert bx == pytest.approx(math.cos(2.7) + 0.05, abs=1e-15)  # cos(2.7) < 0
        assert by == pytest.approx(math.sin(2.7) - 0.05, abs=1e-15)  # sin(2.7) > 0

    def test_every_builtin_strategy_respects_budget(self):
        eta_bar, K = 0.08, 200
        for strategy in AdversaryStrategy:
            for theta in (0.3, 1.7, 3.0):
                bx, by = biases_at(Ban(eta_bar, strategy), theta, np.arange(K))
                ix, iy = biases_at(Ideal(), theta, np.arange(K))
                assert np.max(np.abs(bx - ix)) <= eta_bar + 1e-15
                assert np.max(np.abs(by - iy)) <= eta_bar + 1e-15

    def test_custom_table_used_and_bounded(self):
        table = DeviationTable(eta1=np.full(16, 0.03), eta2=np.full(16, -0.03))
        model = Ban(0.05, table)
        bx, by = bias_at(model, 1.1, 4)
        assert bx == pytest.approx(math.cos(4.4) + 0.03, abs=1e-15)
        assert by == pytest.approx(math.sin(4.4) - 0.03, abs=1e-15)
        with pytest.raises(ValueError):
            Ban(0.02, table)  # 0.03 > 0.02

    def test_custom_table_must_cover_time(self):
        model = Ban(0.05, DeviationTable(eta1=np.zeros(4), eta2=np.zeros(4)))
        with pytest.raises(ValueError):
            biases_at(model, 1.0, np.arange(5))  # needs time index 4

    def test_gaussian_without_run_noise_is_ideal(self):
        # no run noise means the Gaussian models' mean biases: the ideal ones
        ks = np.arange(64)
        for theta in (0.0, 1.0, 2.7, np.array([[0.4], [3.1]])):
            ix, iy = biases_at(Ideal(), theta, ks)
            for model in (Gaussian(0.1), GaussianLinear(0.1)):
                bx, by = biases_at(model, theta, ks)
                assert bx.tobytes() == ix.tobytes() and by.tobytes() == iy.tobytes()

    def test_gaussian_run_noise_cover(self):
        table = Gaussian(0.1).draw_run_noise(np.arange(4), np.random.default_rng(0))
        with pytest.raises(ValueError):
            biases_at(Gaussian(0.1), 1.0, np.arange(10), table)

    def test_gaussian_uses_supplied_table(self):
        eta = np.array([[0.0, 0.2], [0.0, -0.2]])
        bx, by = bias_at(Gaussian(1.0), 0.5, 1, run_noise=eta)
        assert bx == pytest.approx(math.cos(0.5) + 0.2, abs=1e-15)
        assert by == pytest.approx(math.sin(0.5) - 0.2, abs=1e-15)

    def test_phase_array_gives_one_row_per_phase(self):
        thetas = np.array([0.4, 1.3, 2.9])
        ks = np.arange(16)
        rows = Gaussian(0.2).draw_run_noise(ks, np.random.default_rng(9), size=3)
        for model, noise in ((Ban(0.04, AdversaryStrategy.SIGN_FLIP), None),
                             (Dephasing(50.0), None),
                             (Gaussian(0.2), rows)):
            bx, by = biases_at(model, thetas[:, None], ks, noise)
            assert bx.shape == by.shape == (3, 16)
            for b, theta in enumerate(thetas):
                one = None if noise is None else noise[b]
                ox, oy = biases_at(model, theta, ks, one)
                assert np.array_equal(bx[b], ox) and np.array_equal(by[b], oy)

    def test_biases_at_sampled_times_match_the_table(self):
        # a sparse run evaluates the biases only at its cells, each with its
        # own phase; those entries are the whole grid's
        K = 40
        ks = np.array([0, 3, 3, 17, 39])
        thetas = np.array([0.4, 0.4, 2.1, 1.3, 2.1])
        custom = DeviationTable(eta1=np.linspace(-0.04, 0.04, K), eta2=np.full(K, 0.02))
        for model in (Ideal(), Ban(0.04, AdversaryStrategy.SIGN_FLIP), Ban(0.04, custom),
                      Dephasing(30.0), HighCoherence(300.0)):
            bx, by = biases_at(model, thetas, ks)
            for i, (k, theta) in enumerate(zip(ks, thetas)):
                tx, ty = biases_at(model, theta, np.arange(K))
                assert bx[i] == pytest.approx(tx[k], abs=1e-15)
                assert by[i] == pytest.approx(ty[k], abs=1e-15)


class TestZeroParameterReductions:
    def test_all_models_reduce_to_ideal(self):
        K = 63
        rng = np.random.default_rng(1)
        ks = np.arange(K)
        zero_table = Gaussian(0.0).draw_run_noise(ks, rng)
        for theta in (0.3, 1.0, 2.0, 3.0):
            ix, iy = biases_at(Ideal(), theta, ks)
            for model, noise in ((Ban(0.0, AdversaryStrategy.SIGN_FLIP), None),
                                 (Ban(0.0, AdversaryStrategy.CONSTANT_PLUS), None),
                                 (Gaussian(0.0), zero_table),
                                 (GaussianLinear(0.0), zero_table),
                                 (Dephasing(math.inf), None)):
                bx, by = biases_at(model, theta, ks, noise)
                assert np.max(np.abs(bx - ix)) <= 1e-12
                assert np.max(np.abs(by - iy)) <= 1e-12

    def test_dephasing_decay_past_the_float_range_is_zero(self):
        # k / T2 overflows for T2 = 5e-323, once with a RuntimeWarning on
        # stderr; the decay is its limit, 0, past k = 0
        bx, by = biases_at(Dephasing(5e-323), 1.0, np.arange(63))
        assert bx[0] == 1.0 and by[0] == 0.0
        assert not bx[1:].any() and not by[1:].any()

    def test_dephasing_deviation_envelope(self):
        # |bias - ideal| <= 1 - exp(-K/T2) for every k <= K
        for t2 in (20.0, 100.0, 1e6):
            K = 63
            envelope = -math.expm1(-K / t2)
            assert Dephasing(t2).envelope(K) == pytest.approx(envelope, rel=1e-15)
            for theta in (0.4, 1.9):
                bx, by = biases_at(Dephasing(t2), theta, np.arange(K + 1))
                ix, iy = biases_at(Ideal(), theta, np.arange(K + 1))
                assert np.max(np.abs(bx - ix)) <= envelope * (1 + 1e-12)
                assert np.max(np.abs(by - iy)) <= envelope * (1 + 1e-12)

    def test_implied_eta_bar_values(self):
        assert Ideal().envelope(63) == 0.0
        assert Ban(0.07).envelope(63) == 0.07
        assert HighCoherence(630.0).envelope(63) == pytest.approx(0.1, rel=1e-15)
        assert Gaussian(0.1).envelope(63) is None
        assert GaussianLinear(0.1).envelope(63) is None


class TestGaussianDraws:
    def test_zero_sigma_zero_table(self):
        table = Gaussian(0.0).draw_run_noise(np.arange(16), np.random.default_rng(3))
        assert table.shape == (2, 16) and np.all(table == 0.0)

    def test_entry_scale(self):
        rng = np.random.default_rng(8)
        draws = np.array([Gaussian(0.5).draw_run_noise(np.arange(64), rng)[0]
                          for _ in range(500)])
        assert draws.std() == pytest.approx(0.5, rel=0.05)
        assert abs(draws.mean()) < 0.01

    def test_spectral_variance_flat_model(self):
        # at sigma = 1 most deviations clip: the exact law sits far below the
        # unclipped 2 sigma^2 / K, and runs of either regime follow it
        sigma, K = 1.0, 63
        var_mu = expected_coefficients(Gaussian(sigma), 1.0, K)[1]
        assert var_mu < 0.5 * 2 * sigma ** 2 / K
        for M, seed in ((200, 99), (40, 98)):
            law = verify._law_check(Gaussian(sigma), np.full(K, sigma), M,
                                   np.random.default_rng(seed))
            assert law["passed"], law

    def test_spectral_variance_linear_model(self):
        # below the unclipped 2 sum_k (k sigma)^2 / K^2 = (K-1)(2K-1) sigma^2
        # / (3K), and runs of either regime follow it
        sigma, K = 0.01, 30
        var_mu = expected_coefficients(GaussianLinear(sigma), 1.0, K)[1]
        assert var_mu < (K - 1) * (2 * K - 1) * sigma ** 2 / (3 * K)
        for M, seed in ((200, 100), (20, 101)):
            law = verify._law_check(GaussianLinear(sigma), sigma * np.arange(K), M,
                                   np.random.default_rng(seed))
            assert law["passed"], law

    def test_linear_scale_starts_at_zero(self):
        table = GaussianLinear(0.3).draw_run_noise(np.arange(8), np.random.default_rng(4))
        assert table[0, 0] == 0.0 and table[1, 0] == 0.0

    def test_draw_run_noise_dispatch(self):
        rng = np.random.default_rng(5)
        ks = np.arange(8)
        assert Ideal().draw_run_noise(ks, rng) is None
        assert Ban(0.05).draw_run_noise(ks, rng) is None
        assert Dephasing(10.0).draw_run_noise(ks, rng) is None
        assert isinstance(Gaussian(0.1).draw_run_noise(ks, rng), np.ndarray)
        assert isinstance(GaussianLinear(0.1).draw_run_noise(ks, rng), np.ndarray)

    def test_rows_extend_the_one_run_stream(self):
        # a block of one draws exactly the one-run table; larger blocks draw
        # fresh rows, run by run (eta1 then eta2)
        ks = np.arange(8)
        one = Gaussian(0.1).draw_run_noise(ks, np.random.default_rng(2))
        block = Gaussian(0.1).draw_run_noise(ks, np.random.default_rng(2), size=3)
        assert block.shape == (3, 2, 8) and one.shape == (2, 8)
        assert np.array_equal(block[0, 0], one[0])
        assert np.array_equal(block[0, 1], one[1])
        assert not np.array_equal(block[1, 0], block[0, 0])
        rows = GaussianLinear(0.1).draw_run_noise(ks, np.random.default_rng(2), size=4)
        assert rows.shape == (4, 2, 8) and np.all(rows[:, :, 0] == 0.0)
        assert Ideal().draw_run_noise(ks, np.random.default_rng(2), size=4) is None

    def test_run_noise_at_given_times(self):
        # one normal pair per given time, scaled at that time: GaussianLinear
        # draws exactly 0 at k = 0 wherever it sits
        ks = np.array([7, 0, 7, 2])
        for model in (Gaussian(0.5), GaussianLinear(0.5)):
            table = model.draw_run_noise(ks, np.random.default_rng(3))
            assert table.shape == (2, 4)
            normals = np.random.default_rng(3).standard_normal((2, 4))
            scale = 0.5 if type(model) is Gaussian else 0.5 * ks
            assert np.array_equal(table[0], normals[0] * scale)
            assert np.array_equal(table[1], normals[1] * scale)
        assert GaussianLinear(0.5).draw_run_noise(ks, np.random.default_rng(3))[0, 1] == 0.0
        with pytest.raises(ValueError):
            Gaussian(0.5).draw_run_noise(np.zeros((2, 2), dtype=int), np.random.default_rng(3))

    def test_misaligned_run_noise_rejected(self):
        table = Gaussian(0.1).draw_run_noise(np.array([1, 5]), np.random.default_rng(4))
        with pytest.raises(ValueError, match="aligned"):
            biases_at(Gaussian(0.1), 1.0, np.array([1, 5, 6]), table)
        bx, _ = biases_at(Gaussian(0.1), 1.0, np.array([1, 5]), table)
        assert np.array_equal(bx, np.cos(np.array([1.0, 5.0])) + table[0])

    def test_custom_adversary_needs_one_table(self):
        with pytest.raises(ValueError, match="1-d"):
            Ban(0.05, DeviationTable(eta1=np.zeros((2, 4)), eta2=np.zeros((2, 4))))

    def test_table_immutable(self):
        table = Ban(0.05, DeviationTable(eta1=np.zeros(8), eta2=np.zeros(8))).strategy
        with pytest.raises(ValueError):
            table.eta1[0] = 1.0
        with pytest.raises(ValueError):
            table.eta2[0] = 1.0


class TestThresholds:
    def test_ban_threshold_frozen(self):
        assert BAN_THRESHOLD == pytest.approx(0.10003514623967846, abs=1e-15)
        assert BAN_THRESHOLD == pytest.approx(2 * math.sqrt(2) / (9 * math.pi), abs=0)

    def test_dephasing_nominal_frozen(self):
        value = DEPHASING_RATIO_NOMINAL
        assert value == pytest.approx(0.9163786013337591, abs=1e-12)
        assert value == pytest.approx(-math.log(0.5 - BAN_THRESHOLD), abs=0)

    def test_dephasing_rederived_frozen(self):
        value = DEPHASING_RATIO_REDERIVED
        assert value == pytest.approx(0.2232314207738138, abs=1e-12)

    def test_rederived_matches_root_solve(self):
        # independent oracle: bisect the constraint (1 - exp(-x))/2 = c
        root = brentq(lambda x: (1 - math.exp(-x)) / 2 - BAN_THRESHOLD, 1e-12, 5.0)
        assert DEPHASING_RATIO_REDERIVED == pytest.approx(root, abs=1e-10)

    def test_nominal_and_rederived_disagree(self):
        # the discrepancy is real and must stay visible
        assert abs(DEPHASING_RATIO_NOMINAL - DEPHASING_RATIO_REDERIVED) > 0.5


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Ban(-0.1)
        for sigma in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                Gaussian(sigma)
        with pytest.raises(ValueError):
            GaussianLinear(math.nan)
        with pytest.raises(ValueError):
            Dephasing(0.0)
        with pytest.raises(ValueError):
            HighCoherence(-5.0)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            DeviationTable(eta1=np.zeros(3), eta2=np.zeros(4))
        with pytest.raises(ValueError):
            DeviationTable(eta1=np.array([np.inf]), eta2=np.array([0.0]))


class TestJsonWireFormat:
    def test_round_trip_simple_kinds(self):
        for model in (Ideal(), Gaussian(0.1), GaussianLinear(0.01),
                      Dephasing(630.0), HighCoherence(6300.0)):
            assert noise_from_dict(model.to_dict()) == model

    def test_round_trip_ban_builtin(self):
        model = Ban(0.05, AdversaryStrategy.SIGN_FLIP)
        parsed = noise_from_dict(model.to_dict())
        assert isinstance(parsed, Ban)
        assert parsed.eta_bar == model.eta_bar
        assert parsed.strategy is AdversaryStrategy.SIGN_FLIP

    def test_round_trip_ban_custom(self):
        table = DeviationTable(eta1=np.array([0.01, -0.02]), eta2=np.array([0.0, 0.02]))
        parsed = noise_from_dict(Ban(0.05, table).to_dict())
        assert isinstance(parsed.strategy, DeviationTable)
        assert np.array_equal(parsed.strategy.eta1, table.eta1)
        assert np.array_equal(parsed.strategy.eta2, table.eta2)

    def test_default_strategy_is_sign_flip(self):
        parsed = noise_from_dict({"kind": "ban", "eta_bar": 0.05})
        assert parsed.strategy is AdversaryStrategy.SIGN_FLIP

    def test_malformed_rejected(self):
        for bad in ({}, {"kind": "bogus"}, {"kind": "ban"},
                    {"kind": "ban", "eta_bar": 0.05, "strategy": "nope"},
                    {"kind": "ban", "eta_bar": 0.05, "strategy": {"name": "x"}},
                    {"kind": "gaussian"}, {"kind": ["ban"]}, "not a dict",
                    # unknown keys, in the model and in a custom strategy
                    {"kind": "ban", "eta_bar": 0.05, "stratgy": "zero"},
                    {"kind": "gaussian", "sigma": 0.1, "junk": 2},
                    {"kind": "ideal", "sigma": 0.1},
                    {"kind": "ban", "eta_bar": 0.05,
                     "strategy": {"name": "custom", "eta1": [0.0], "eta2": [0.0], "eta3": [0.0]}},
                    # a boolean, a string or an integer past float range as a number
                    {"kind": "gaussian", "sigma": True}, {"kind": "ban", "eta_bar": False},
                    {"kind": "dephasing", "t2": "100"}, {"kind": "gaussian", "sigma": 10 ** 400},
                    {"kind": "ban", "eta_bar": 0.05,
                     "strategy": {"name": "custom", "eta1": [0.0, False], "eta2": [0.0, 0.0]}},
                    {"kind": "ban", "eta_bar": 0.05,
                     "strategy": {"name": "custom", "eta1": 0.0, "eta2": [0.0]}}):
            with pytest.raises(ValueError):
                noise_from_dict(bad)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_numbers_are_refused(self, bad):
        # Dephasing(inf) is ideal noise, but JSON has no Infinity: read from
        # the wire, it once wrote back a config that no strict parser reads
        for data in ({"kind": "dephasing", "t2": bad}, {"kind": "high_coherence", "t2": bad},
                     {"kind": "gaussian", "sigma": bad}, {"kind": "ban", "eta_bar": bad},
                     {"kind": "ban", "eta_bar": 0.05,
                      "strategy": {"name": "custom", "eta1": [bad], "eta2": [0.0]}}):
            with pytest.raises(ValueError, match="finite"):
                noise_from_dict(data)

    def test_wire_format_literals(self):
        table = DeviationTable(eta1=np.array([0.01, -0.02]), eta2=np.array([0.0, 0.02]))
        cases = [
            (Ideal(), {"kind": "ideal"}),
            (Ban(0.05, AdversaryStrategy.CONSTANT_MINUS),
             {"kind": "ban", "eta_bar": 0.05, "strategy": "constant_minus"}),
            (Ban(0.05, table),
             {"kind": "ban", "eta_bar": 0.05,
              "strategy": {"name": "custom", "eta1": [0.01, -0.02], "eta2": [0.0, 0.02]}}),
            (Gaussian(0.1), {"kind": "gaussian", "sigma": 0.1}),
            (GaussianLinear(0.01), {"kind": "gaussian_linear", "sigma": 0.01}),
            (Dephasing(630.0), {"kind": "dephasing", "t2": 630.0}),
            (HighCoherence(6300.0), {"kind": "high_coherence", "t2": 6300.0}),
        ]
        for model, wire in cases:
            assert model.to_dict() == wire
            assert list(model.to_dict()) == list(wire)  # key order too
            assert noise_from_dict(wire).to_dict() == wire

    def test_registry_covers_every_model_class(self):
        classes = {obj for obj in vars(rfe.noise).values()
                   if isinstance(obj, type) and issubclass(obj, NoiseModel)
                   and obj is not NoiseModel}
        assert set(MODELS.values()) == classes
        assert len(classes) == 6
        for kind, model_class in MODELS.items():
            assert model_class.kind == kind
