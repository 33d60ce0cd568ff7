"""CLI contract: subcommands, exit codes, formats, reproducibility."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfe.cli
import rfe.estimator
import rfe.verify
from rfe.cli import CliConfig, build_parser, main
from rfe.estimator import spectrum_csv_chunks
from rfe.harness import UniformTheta
from rfe.noise import MODELS, noise_from_dict
from rfe.spectrum import expected_coefficients, expected_spectrum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_ban_bounds_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--epsilon", "0.1", "--delta", "0.1",
            "--noise", '{"kind":"ban","eta_bar":0.05,"strategy":"sign_flip"}')
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["M"] == 12510
        assert payload["report"]["K"] == 63
        assert payload["report"]["inflation_factor"] == pytest.approx(3.9972, abs=1e-4)

    def test_config_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--epsilon", "0.1", "--delta", "0.1")
        payload = json.loads(out)
        config = CliConfig(**payload["config"])
        assert config.to_dict() == payload["config"]
        assert config.epsilon == 0.1 and config.subcommand == "bounds"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--epsilon", "0.1",
                               "--delta", "0.1", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "epsilon,delta,kind,K,M,inflation_factor,expected_total_depth"
        cells = lines[1].split(",")
        assert cells[2] == "ideal" and cells[3] == "63" and cells[4] == "3130"


class TestSpectrum:
    def test_simulated_spectrum_csv(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--theta", "2.25",
                               "--epsilon", "0.08", "--samples", "80", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "j,re,im,abs"
        assert len(lines) == 80  # header + K = 79 rows
        for line in lines[1:]:
            j, re, im, mag = line.split(",")
            assert abs(complex(float(re), float(im))) == pytest.approx(float(mag), rel=1e-12)

    def test_exact_spectrum_constant_tone(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--theta", "0.0",
                               "--epsilon", "0.5")
        lines = out.splitlines()
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[3]) == pytest.approx(1.0, abs=1e-12)
        assert all(float(line.split(",")[3]) < 1e-12 for line in lines[2:])

    @pytest.mark.parametrize("noise", [{"kind": "dephasing", "t2": 2.0},
                                       {"kind": "gaussian", "sigma": 0.5}],
                             ids=["dephasing", "gaussian"])
    def test_exact_spectrum_follows_the_noise(self, capsys, noise):
        code, out, _ = run_cli(capsys, "spectrum", "--grid", "8", "--theta", "1",
                               "--noise", json.dumps(noise))
        assert code == 0
        exact = expected_coefficients(noise_from_dict(noise), 1.0, 8)[0]
        assert out == "".join(spectrum_csv_chunks(exact))
        assert out != "".join(spectrum_csv_chunks(expected_spectrum(1.0, 8)))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--theta", "1.0",
                               "--epsilon", "0.5", "--format", "json")
        payload = json.loads(out)
        assert payload["grid_size"] == 13
        assert len(payload["coefficients"]) == 13

    def test_csv_is_written_in_chunks(self, capsys, monkeypatch, tmp_path):
        # three rows a piece, so K = 8 spans three chunks after the header;
        # stdout and the file hold the text one join of all rows gives
        monkeypatch.setattr(rfe.estimator, "CSV_CHUNK_ROWS", 3)
        pieces = []

        def recording(coefficients):
            for piece in spectrum_csv_chunks(coefficients):
                pieces.append(piece)
                yield piece

        monkeypatch.setattr(rfe.cli, "spectrum_csv_chunks", recording)
        code, out, _ = run_cli(capsys, "spectrum", "--grid", "8", "--theta", "1")
        assert code == 0
        assert [piece.count("\n") for piece in pieces] == [1, 3, 3, 2]
        rows = [f"{j},{v.real!r},{v.imag!r},{abs(v)!r}"
                for j, v in enumerate(map(complex, expected_coefficients(
                    noise_from_dict({"kind": "ideal"}), 1.0, 8)[0]))]
        assert out == "\n".join(["j,re,im,abs"] + rows) + "\n"
        path = tmp_path / "spectrum.csv"
        code, _, _ = run_cli(capsys, "spectrum", "--grid", "8", "--theta", "1",
                             "--output", str(path))
        assert code == 0 and path.read_bytes() == out.encode()

    def test_grid_needs_no_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--grid", "50", "--theta", "1.0")
        assert code == 0
        _, with_epsilon, _ = run_cli(capsys, "spectrum", "--epsilon", "0.2", "--grid", "50",
                                     "--theta", "1.0")
        assert out == with_epsilon
        assert len(out.splitlines()) == 51

    def test_neither_epsilon_nor_grid_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--theta", "1.0")
        assert code == 2
        assert out == "" and "--epsilon or --grid" in err

    def test_epsilon_help_names_the_grid(self, capsys):
        with pytest.raises(SystemExit):
            main(["spectrum", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "unless --grid is given" in text
        assert "every family but ideal" not in text


class TestRun:
    def test_fixed_theta_json(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--epsilon", "0.3", "--delta", "0.2",
                               "--theta", "1.1", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["theta_true"] == 1.1
        assert payload["success"] is True
        assert payload["result"]["spectrum"]["samples_used"] > 0
        assert CliConfig(**payload["config"]).to_dict() == payload["config"]

    def test_random_theta_deterministic(self, capsys):
        _, out_a, _ = run_cli(capsys, "run", "--epsilon", "0.3", "--delta", "0.2",
                              "--theta", "random", "--seed", "9")
        _, out_b, _ = run_cli(capsys, "run", "--epsilon", "0.3", "--delta", "0.2",
                              "--theta", "random", "--seed", "9")
        assert out_a == out_b
        theta = json.loads(out_a)["theta_true"]
        assert 0.2 <= theta <= math.pi - 0.2

    @pytest.mark.parametrize("seed", [0, 1, 9, 2 ** 64 - 1])
    def test_random_theta_comes_from_the_seed_spawned_at_zero(self, seed):
        # the phase, then the run seed, drawn from SeedSequence(seed) spawned at (0,)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        theta = float(UniformTheta().draw(rng, 1)[0])
        run_seed = int.from_bytes(rng.bytes(8), "little")
        assert rfe.cli._resolve_theta("random", seed) == (theta, run_seed)

    def test_samples_override(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--epsilon", "0.1", "--theta", "1.0",
                               "--samples", "200", "--seed", "3")
        payload = json.loads(out)
        assert payload["result"]["spectrum"]["samples_used"] == 200
        assert len(payload["result"]["spectrum"]["coefficients"]) == 63

    def test_override_allows_unguaranteed_models(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--epsilon", "0.2", "--theta", "1.0",
                               "--samples", "500", "--seed", "3",
                               "--noise", '{"kind":"gaussian_linear","sigma":0.001}')
        assert code == 0

    def test_byte_identical_output_files(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "run", "--epsilon", "0.3", "--delta", "0.2", "--theta",
                "random", "--seed", "21", "--output", str(f1))
        run_cli(capsys, "run", "--epsilon", "0.3", "--delta", "0.2", "--theta",
                "random", "--seed", "21", "--output", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        _, baseline, _ = run_cli(capsys, "run", "--epsilon", "0.3", "--delta", "0.2",
                                 "--theta", "random", "--seed", "33")
        monkeypatch.setenv("RFE_SEED", "33")
        _, overridden, _ = run_cli(capsys, "run", "--epsilon", "0.3", "--delta",
                                   "0.2", "--theta", "random", "--seed", "1")
        # strip the echoed seed field before comparing the physics
        a, b = json.loads(baseline), json.loads(overridden)
        assert a["theta_true"] == b["theta_true"]
        assert a["result"] == b["result"]

    def test_csv_dumps_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--epsilon", "0.3", "--delta", "0.2",
                               "--theta", "1.1", "--seed", "5", "--format", "csv")
        assert out.splitlines()[0] == "j,re,im,abs"


# SHA-256 of the whole stdout of four seeded commands and four plans: any
# change to a run's draws, its coefficients, a plan or their formatting shows
# here
PINNED_OUTPUTS = [
    (("run", "--epsilon", "0.3", "--delta", "0.2", "--theta", "1.1", "--seed", "5"),
     "f38bf7ac0fae66a3bc37c1eabda95b7558488da09f0e8c938264e3eb34ce60a0"),
    (("run", "--epsilon", "0.3", "--delta", "0.2", "--theta", "1.1", "--seed", "5",
      "--format", "csv"),
     "a13eb0be3be88657d26a4a6175c0ddf47f1a58f8426015baf43f567ce1761527"),
    (("spectrum", "--grid", "64", "--samples", "200", "--theta", "1.0", "--seed", "3"),
     "47d25047335a9cd7cd61bdfc625d19ce2580d6e5c6c5ac72d3733e1644bcb9f9"),
    (("spectrum", "--grid", "64", "--samples", "200", "--theta", "1.0", "--seed", "3",
      "--format", "json"),
     "47b7642deabf2eb5a855881ed3b3449eb315235a27e9b4183b488cbb8f74218f"),
    (("bounds", "--epsilon", "0.1", "--noise", '{"kind":"gaussian","sigma":0.1}'),
     "e86a780f9247358ef4fd238df71d0bed2ce25408c5bcd3c8a4edf00fbb93728b"),
    (("bounds", "--epsilon", "0.1", "--noise", '{"kind":"dephasing","t2":6300}'),
     "3159ac3779932d77fd76304d2ca502bf846f89558100a6baf3c9a2506e03f320"),
    (("bounds", "--epsilon", "0.1", "--noise", '{"kind":"high_coherence","t2":6300}',
      "--format", "csv"),
     "b62d6d7ac4b29fc4c89026e833a07b4ffc3ae146b7f21dfab21bc6a6736e850d"),
    (("bounds", "--epsilon", "2.0"),
     "6a8baf7b2f7dfac165fc1379a1cf44ea1b3b38e9e72a30357b395e91ac328f54"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS,
                         ids=["run-json", "run-csv", "spectrum-csv", "spectrum-json",
                              "bounds-gaussian-json", "bounds-dephasing-json",
                              "bounds-high-coherence-csv", "bounds-no-sample-json"])
def test_output_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("RFE_SEED", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestSweep:
    def test_ban_sweep_csv(self, capsys, tmp_path):
        args = ("sweep", "--family", "ban", "--grid", "0.0,0.04", "--epsilon",
                "0.2", "--delta", "0.2", "--trials", "4", "--seed", "2",
                "--workers", "1")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "parameter,M_predicted,trials,successes,rate,ci_lo,ci_hi"
        assert len(lines) == 3
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run_cli(capsys, *args, "--output", str(f1))
        run_cli(capsys, *args, "--output", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_json_format_carries_extras(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "dephasing", "--grid",
                               "0.05,0.2", "--epsilon", "0.2", "--delta", "0.2",
                               "--trials", "3", "--seed", "2", "--workers", "1",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["points"][0]["extras"]["implied_eta_bar"] == pytest.approx(
            -math.expm1(-0.05), rel=1e-12)
        assert payload["points"][1]["achievable"] is False

    def test_point_past_the_sample_guard_is_unachievable(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "ban", "--grid",
                               "0.05,0.100035145", "--epsilon", "0.1", "--trials", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("0.05,12510,3,")
        assert lines[2] == "0.100035145,,0,0,,,"

    def test_point_past_the_grid_cap_is_unachievable(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "ideal", "--grid", "0.1,1e-10",
                               "--trials", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("0.1,3130,5,")
        assert lines[2] == "1e-10,,0,0,,,"

    def test_ideal_point_past_half_pi_needs_no_samples(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "ideal", "--grid", "2.0",
                               "--trials", "3")
        assert code == 0
        assert out.splitlines()[1].startswith("2.0,0,3,3,1.0,")

    def test_ideal_sweep_takes_its_epsilons_from_the_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "ideal", "--grid", "0.3",
                               "--trials", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["epsilon"] is None
        assert payload["points"][0]["parameter"] == 0.3
        assert payload["points"][0]["predicted_samples"] == 2691


class TestExitCodes:
    def test_malformed_noise_json(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--epsilon", "0.1",
                               "--delta", "0.1", "--noise", "{not json")
        assert code == 2
        assert "error:" in err

    def test_unknown_noise_kind(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--epsilon", "0.1",
                               "--delta", "0.1", "--noise", '{"kind":"bogus"}')
        assert code == 2

    @pytest.mark.parametrize("noise", [
        '{"kind":"ban","eta_bar":0.05,"stratgy":"zero"}',
        '{"kind":"gaussian","sigma":0.1,"junk":2}',
        '{"kind":"gaussian","sigma":true}',
        '{"kind":"ban","eta_bar":0.05,"strategy":{"name":"custom","eta1":[false],"eta2":[0]}}',
    ])
    def test_misspelled_or_mistyped_noise_json_exits_2(self, capsys, noise):
        # a misspelled key would otherwise plan the default sign_flip adversary
        code, out, err = run_cli(capsys, "bounds", "--epsilon", "0.1",
                                 "--delta", "0.1", "--noise", noise)
        assert code == 2
        assert out == "" and "error:" in err

    def test_threshold_violation(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--epsilon", "0.1", "--delta", "0.1", "--theta", "1.0",
            "--noise", '{"kind":"ban","eta_bar":0.15,"strategy":"sign_flip"}')
        assert code == 2
        assert "0.100035" in err

    def test_samples_past_int64_guard(self, capsys):
        code, _, err = run_cli(capsys, "run", "--epsilon", "0.1", "--theta", "1.0",
                               "--samples", str(2 ** 62 + 1))
        assert code == 2
        assert "2**62" in err

    def test_certified_count_past_int64_guard(self, capsys):
        eta = 2 * math.sqrt(2) / (9 * math.pi) * (1 - 1e-12)
        code, _, err = run_cli(
            capsys, "run", "--epsilon", "0.1", "--theta", "1.0",
            "--noise", json.dumps({"kind": "ban", "eta_bar": eta}))
        assert code == 2
        assert "2**62" in err

    NON_FINITE_NOISE = pytest.mark.parametrize("noise", [
        '{"kind":"high_coherence","t2":1e-320}',
        '{"kind":"gaussian_linear","sigma":1e308}',
    ], ids=["infinite_bias", "infinite_scale"])

    @NON_FINITE_NOISE
    def test_non_finite_spectrum_exits_2(self, capsys, recwarn, noise):
        # refused as a run refuses it, not printed as a spectrum of NaN, and
        # the overflow warns of nothing before the error line
        code, out, err = run_cli(capsys, "spectrum", "--grid", "8", "--theta", "1.0",
                                 "--noise", noise)
        assert code == 2
        assert out == "" and err == "error: bias values must be finite\n"
        assert not recwarn.list

    @NON_FINITE_NOISE
    def test_non_finite_run_exits_2(self, capsys, recwarn, noise):
        code, out, err = run_cli(capsys, "run", "--epsilon", "0.1", "--samples", "10",
                                 "--grid", "8", "--theta", "1.0", "--noise", noise)
        assert code == 2
        assert out == "" and err == "error: bias values must be finite\n"
        assert not recwarn.list

    @pytest.mark.parametrize("args", [
        ("run", "--epsilon", "1e-10", "--theta", "1.0"),
        ("spectrum", "--epsilon", "1e-10", "--theta", "1.0"),
        ("run", "--epsilon", "0.1", "--samples", "10", "--grid", "10000000000"),
        ("spectrum", "--epsilon", "0.1", "--samples", "10", "--grid", str(2 ** 22 + 1)),
    ])
    def test_grid_past_the_cap_exits_2(self, capsys, args):
        # refused before anything K long is allocated: by the planner for a
        # certified run, by the grid check otherwise
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "2**22" in err

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"],
                             ids=["2**64", "negative"])
    @pytest.mark.parametrize("args", [
        ("run", "--epsilon", "0.1"),
        ("run", "--epsilon", "0.1", "--theta", "1"),
        ("spectrum", "--epsilon", "0.1", "--samples", "5"),
        ("sweep", "--family", "ideal", "--grid", "0.1", "--trials", "2"),
    ], ids=["run-random-theta", "run", "spectrum", "sweep"])
    def test_seed_outside_64_bits_exits_2(self, capsys, args, seed):
        code, out, err = run_cli(capsys, *args, "--seed", seed)
        assert code == 2
        assert out == "" and err == (f"error: seed must be a 64-bit unsigned "
                                     f"integer, got {seed}\n")

    def test_env_seed_outside_64_bits_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("RFE_SEED", str(2 ** 64))
        code, out, err = run_cli(capsys, "run", "--epsilon", "0.1", "--seed", "1")
        assert code == 2
        assert out == "" and "seed must be a 64-bit unsigned integer" in err

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--epsilon", "0.3", "--delta", "0.2",
                               "--seed", str(2 ** 64 - 1))
        assert code == 0 and json.loads(out)["config"]["seed"] == 2 ** 64 - 1

    def test_bounds_refuses_a_plan_past_the_grid_cap(self, capsys):
        # no run accepts K = 62,831,853,072, so the planner does not certify it
        code, out, err = run_cli(capsys, "bounds", "--epsilon", "1e-10")
        assert code == 2
        assert out == "" and "certified grid size 62831853072" in err

    @pytest.mark.parametrize("samples", ["40", "5000"], ids=["sparse", "dense"])
    def test_run_noise_past_the_float_range_exits_2(self, capsys, samples):
        with np.errstate(over="ignore"):
            code, out, err = run_cli(capsys, "run", "--epsilon", "0.1", "--theta", "1.0",
                                     "--samples", samples,
                                     "--noise", '{"kind":"gaussian_linear","sigma":1e308}')
        assert code == 2
        assert out == "" and err.startswith("error: ") and "finite" in err

    def test_run_grid_needs_samples(self, capsys):
        code, out, err = run_cli(capsys, "run", "--epsilon", "0.1", "--grid", "100",
                                 "--theta", "1.0")
        assert code == 2
        assert out == "" and "--grid needs --samples" in err
        # on spectrum, --grid alone sets the exact spectrum's K
        code, out, _ = run_cli(capsys, "spectrum", "--epsilon", "0.1", "--grid", "100",
                               "--theta", "1.0")
        assert code == 0 and len(out.splitlines()) == 101

    @pytest.mark.parametrize("where", ["missing", "under_a_file", "a_directory"])
    @pytest.mark.parametrize("args", [
        ("bounds", "--epsilon", "0.1"),
        ("bounds", "--epsilon", "0.1", "--format", "csv"),
        ("run", "--epsilon", "0.3", "--theta", "1.0"),
        ("run", "--epsilon", "0.3", "--theta", "1.0", "--format", "csv"),
        ("spectrum", "--epsilon", "0.3", "--theta", "1.0"),
        ("sweep", "--family", "ideal", "--grid", "0.3", "--trials", "2"),
        ("verify", "--suite", "thresholds"),
    ], ids=["bounds", "bounds-csv", "run", "run-csv", "spectrum", "sweep", "verify"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, args, where):
        # exit 1 means a failed verification; an output path that cannot be
        # written is bad input, reported in one line.  verify refuses it
        # before its battery runs, so it prints no suite lines.
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        target = {"missing": tmp_path / "missing" / "out",
                  "under_a_file": tmp_path / "file" / "out",
                  "a_directory": tmp_path / "dir"}[where]
        code, out, err = run_cli(capsys, *args, "--output", str(target))
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert str(target if where == "a_directory" else target.parent) in err

    def test_verify_outdir_under_a_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(capsys, "verify", "--suite", "demo",
                                 "--outdir", str(blocker / "artifacts"))
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("outdir", [".", "artifacts", "artifacts/deeper"])
    def test_verify_refuses_an_outdir_at_or_under_a_file_before_any_suite(
            self, capsys, monkeypatch, tmp_path, outdir):
        calls = []
        for name in rfe.verify._SUITES:
            def stub(name=name, **options):
                calls.append(name)
                return rfe.verify.SuiteResult(name=name, passed=True, summary="",
                                              details={})
            monkeypatch.setattr(rfe.verify, f"suite_{name}", stub)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(capsys, "verify", "--outdir", str(blocker / outdir))
        assert code == 2 and calls == []
        assert out == "" and err == f"error: [Errno 20] not a directory: '{blocker}'\n"
        # a directory that does not exist yet is made by the demo suite
        code, out, _ = run_cli(capsys, "verify", "--outdir", str(tmp_path / "new" / "dir"))
        assert code == 0 and len(calls) == len(rfe.verify._SUITES)

    def test_epsilon_too_small_to_plan_exits_2(self, capsys):
        for args in (("run", "--epsilon", "5e-324", "--theta", "1.0"),
                     ("run", "--epsilon", "1e-320", "--samples", "3", "--theta", "1.0"),
                     ("bounds", "--epsilon", "1e-300", "--delta", "1e-10")):
            code, out, err = run_cli(capsys, *args)
            assert code == 2
            assert out == "" and "too small" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--epsilon", "0.1", "--frobnicate"])
        assert info.value.code == 2

    def test_bad_grid_values(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--family", "ban", "--grid",
                               "a,b", "--epsilon", "0.2", "--delta", "0.2")
        assert code == 2

    @pytest.mark.parametrize("family", ["dephasing", "high_coherence"])
    def test_zero_ratio_exits_2(self, capsys, family):
        code, out, err = run_cli(capsys, "sweep", "--family", family, "--grid", "0.05,0",
                                 "--epsilon", "0.2")
        assert code == 2
        assert out == "" and "error:" in err

    def test_nonpositive_ideal_epsilon_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--family", "ideal", "--grid", "0.3,0")
        assert code == 2
        assert out == "" and "error:" in err

    @pytest.mark.parametrize("family", ["ban", "gaussian", "dephasing", "high_coherence"])
    def test_sweep_without_epsilon_exits_2(self, capsys, family):
        code, out, err = run_cli(capsys, "sweep", "--family", family, "--grid", "0.05",
                                 "--trials", "2")
        assert code == 2
        assert out == "" and f"--family {family} needs --epsilon" in err

    @pytest.mark.parametrize("grid", ["0.0", "0.5"], ids=["runs", "unachievable"])
    def test_negative_workers_exits_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", "--family", "ban", "--epsilon", "0.2",
                                 "--grid", grid, "--trials", "4", "--workers", "-3")
        assert code == 2
        assert out == "" and "workers must be >= 0" in err

    def test_ideal_sweep_with_epsilon_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--family", "ideal", "--grid", "0.3",
                                 "--epsilon", "0.1", "--trials", "2")
        assert code == 2
        assert out == "" and "the --grid values are the epsilons" in err


class TestHelp:
    @pytest.mark.parametrize("command", ["run", "spectrum", "bounds"])
    def test_noise_help_lists_every_kind(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for kind in MODELS:
            assert kind in text, kind
        example = text[text.index('e.g. {') + len("e.g. "):]
        noise_from_dict(json.loads(example[:example.index("}") + 1]))


class TestDefaults:
    def test_one_worker_by_default(self):
        # verify runs its suites on every core by default; a sweep on one
        parser = build_parser()
        assert parser.parse_args(["verify"]).workers == 0
        assert parser.parse_args(["sweep", "--family", "ban", "--grid", "0.0",
                                  "--epsilon", "0.2"]).workers == 1

    def test_verify_takes_no_seed(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--seed", "1"])
        assert info.value.code == 2

    def test_import_does_not_load_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import rfe.cli; "
                "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
        subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=60)

    def test_import_does_not_load_multiprocessing(self):
        # campaigns and verify suites run on threads, never a process pool
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import rfe, rfe.cli; "
                "assert not [m for m in sys.modules "
                "if m.split('.')[0] == 'multiprocessing']")
        subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=60)


class TestModuleEntryPoint:
    @staticmethod
    def python_m_rfe(*argv):
        src = Path(__file__).resolve().parent.parent / "src"
        return subprocess.run([sys.executable, "-m", "rfe", *argv], cwd=src,
                              capture_output=True, text=True, timeout=60)

    def test_python_m_rfe_prints_what_main_prints(self, capsys):
        child = self.python_m_rfe("bounds", "--epsilon", "0.1")
        assert child.returncode == main(["bounds", "--epsilon", "0.1"]) == 0
        assert child.stdout == capsys.readouterr().out

    def test_python_m_rfe_exits_with_mains_code(self):
        child = self.python_m_rfe("sweep", "--family", "ideal", "--grid", "0.3,0")
        assert child.returncode == 2
        assert child.stdout == "" and "epsilon must be > 0" in child.stderr


class TestVerify:
    def test_lemmas_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas")
        assert code == 0
        assert out.startswith("PASS lemmas:")

    def test_lemmas_line_is_pinned(self, capsys):
        # the certificate's range, extremes and margins, to the printed digits
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas")
        assert code == 0
        assert out == ("PASS lemmas: 0 violations over 4186 kernel values, for every K in "
                       "[4, 4194304]: min close |f| = 0.636620 (2/pi + 1.5e-14), max "
                       "non-adjacent |f| <= 0.272349 (10/(9 pi) - 8.1e-02)\n")

    def test_report_written(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--suite", "thresholds",
                               "--suite", "depth", "--output", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert [s["name"] for s in payload["suites"]] == ["thresholds", "depth"]

    @pytest.mark.parametrize("suite", ["noiseless", "demo", "quick"])
    def test_zero_trials_exits_2(self, capsys, suite):
        # refused before any suite runs, not replaced by the default count
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", "0")
        assert code == 2
        assert out == "" and "trials must be >= 1, got 0" in err

    @pytest.mark.parametrize("suite", ["oracle", "noiseless", "demo", "quick"])
    def test_negative_workers_exits_2(self, capsys, suite):
        # refused before any suite runs, whether or not a suite uses workers
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--workers", "-1")
        assert code == 2
        assert out == "" and "workers must be >= 0" in err
