"""Command-line interface: run, sweep, bounds, spectrum, verify.

All commands are seeded and deterministic: identical invocations (including
the seed) produce byte-identical output.  The environment variable
``RFE_SEED`` overrides ``--seed`` when set.  Output goes to stdout or to
``--output`` as JSON or CSV (comma-separated, UTF-8, LF, mandatory header).

Exit codes: 0 success, 1 verification failure, 2 invalid input (bad flags,
malformed noise JSON or an unknown key in it, noise past its threshold, an
output path that cannot be written).

Noise models are passed as one JSON object in the wire format of
:mod:`rfe.noise`, e.g. ``{"kind": "ban", "eta_bar": 0.05, "strategy": "sign_flip"}``.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from .bounds import BoundsUnachievable, bounds_report, check_seed, grid_size
from .estimator import estimate_phase, run_rfe, spectrum_csv_chunks, trial_to_dict
from .harness import FixedTheta, UniformTheta, block_rng, noise_sweep
from .noise import MODELS, AdversaryStrategy, Ban, noise_from_dict
from .spectrum import expected_coefficients
from .verify import SUITE_NAMES, run_suites

_DEFAULT_NOISE = '{"kind": "ideal"}'
# Built from the registry and a model's own to_dict, so it cannot drift from
# the wire format of rfe.noise.
_NOISE_HELP = (f"noise model as one JSON object; kind is one of {', '.join(MODELS)} "
               f"(default {_DEFAULT_NOISE}), e.g. "
               f"{json.dumps(Ban(eta_bar=0.05).to_dict())}")


@dataclass(frozen=True)
class CliConfig:
    """Resolved invocation, embedded in JSON outputs as :meth:`to_dict`."""

    subcommand: str
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    theta: Optional[object] = None  # float or the string "random"
    noise: Optional[dict] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    workers: Optional[int] = None
    samples: Optional[int] = None
    grid: Optional[int] = None
    family: Optional[str] = None
    values: Optional[tuple] = None
    strategy: Optional[str] = None
    output: Optional[str] = None
    format: str = "json"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["values"] = list(self.values) if self.values is not None else None
        return d


def _finite_float(text: str) -> float:
    """A float flag; not NaN or infinite, which the JSON echo cannot spell."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_theta(text: str):
    if text == "random":
        return "random"
    return float(text)


def _parse_values(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ValueError(f"--grid wants comma-separated numbers, got {text!r}") from exc


def _emit(text: Union[str, Iterable[str]], output: Optional[str]) -> None:
    """Write ``text``, or each of its pieces in turn, to ``output`` or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _resolve_theta(theta, seed: int):
    """The phase and run seed of one run.  A "random" theta is a UniformTheta
    draw from :func:`rfe.harness.block_rng` (seed, 0), which then draws the
    run seed; a given theta runs with ``seed`` itself."""
    if theta == "random":
        rng = block_rng(seed, 0)
        value = float(UniformTheta().draw(rng, 1)[0])
        run_seed = int.from_bytes(rng.bytes(8), "little")
        return value, run_seed
    return float(theta), seed


def _cmd_run(args) -> int:
    if args.grid is not None and args.samples is None:
        raise ValueError("--grid needs --samples: a certified run uses the grid of its plan")
    noise = noise_from_dict(json.loads(args.noise))
    config = CliConfig(subcommand="run", epsilon=args.epsilon, delta=args.delta,
                       theta=args.theta, noise=noise.to_dict(), seed=args.seed,
                       samples=args.samples, grid=args.grid,
                       format=args.format)
    theta, run_seed = _resolve_theta(args.theta, args.seed)
    if args.samples is not None:
        K = args.grid if args.grid is not None else grid_size(args.epsilon)
        result = run_rfe(args.samples, K, theta, noise, run_seed)
    else:
        result = estimate_phase(args.epsilon, args.delta, noise, theta, seed=run_seed)
    if args.format == "csv":
        _emit(spectrum_csv_chunks(result.coefficients), args.output)
        return 0
    error = abs(result.theta_hat - theta)
    payload = {
        "config": config.to_dict(),
        "theta_true": theta,
        "error": error,
        "success": bool(error <= args.epsilon),
        "result": trial_to_dict(result),
    }
    _emit(_json_text(payload), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    if args.epsilon is None and args.grid is None:
        raise ValueError("spectrum needs --epsilon or --grid to set the grid size K")
    noise = noise_from_dict(json.loads(args.noise))
    theta, run_seed = _resolve_theta(args.theta, args.seed)
    K = args.grid if args.grid is not None else grid_size(args.epsilon)
    config = CliConfig(subcommand="spectrum", epsilon=args.epsilon, theta=args.theta,
                       noise=noise.to_dict(), seed=args.seed, samples=args.samples,
                       grid=args.grid, format=args.format)
    if args.samples is not None:
        result = run_rfe(args.samples, K, theta, noise, run_seed)
        coefficients = result.coefficients
        extra = trial_to_dict(result)
    else:
        coefficients = expected_coefficients(noise, theta, K)[0]
        extra = None
    if args.format == "csv":
        _emit(spectrum_csv_chunks(coefficients), args.output)
        return 0
    payload = {"config": config.to_dict(), "theta_true": theta, "grid_size": K,
               "coefficients": [[float(v.real), float(v.imag)] for v in coefficients]}
    if extra is not None:
        payload["result"] = extra
    _emit(_json_text(payload), args.output)
    return 0


def _cmd_bounds(args) -> int:
    noise = noise_from_dict(json.loads(args.noise))
    report = bounds_report(args.epsilon, args.delta, noise)
    config = CliConfig(subcommand="bounds", epsilon=args.epsilon, delta=args.delta,
                       noise=noise.to_dict(), format=args.format)
    if args.format == "csv":
        d = report.to_dict()
        header = "epsilon,delta,kind,K,M,inflation_factor,expected_total_depth"
        row = (f"{d['epsilon']!r},{d['delta']!r},{d['noise']['kind']},{d['K']},"
               f"{d['M']},{d['inflation_factor']!r},{d['expected_total_depth']!r}")
        _emit(header + "\n" + row + "\n", args.output)
        return 0
    payload = {"config": config.to_dict(), "report": report.to_dict()}
    _emit(_json_text(payload), args.output)
    return 0


def _sweep_point(args, value: float) -> tuple:
    """One ``rfe sweep`` point: its plan, None when unachievable, and extras.

    The swept ``value`` is epsilon for ``ideal``, eta_bar for ``ban`` (with
    ``--strategy``) and sigma for ``gaussian``.  For ``dephasing`` and
    ``high_coherence`` it is the ratio K/T2 at the grid size K of
    ``--epsilon``, finite and > 0: the model gets t2 = K / value, and the
    extras its envelope as ``implied_eta_bar``.  A bad value raises ValueError.
    """
    family, epsilon, extras = args.family, args.epsilon, {}
    if family == "ideal":
        model, epsilon = MODELS[family](), value
    elif family == "ban":
        model = MODELS[family](eta_bar=value, strategy=AdversaryStrategy(args.strategy))
    elif family == "gaussian":
        model = MODELS[family](sigma=value)
    else:
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"the {family} ratio K/T2 must be finite and > 0, got {value!r}")
        K = grid_size(epsilon)
        model = MODELS[family](t2=K / value)
        extras["implied_eta_bar"] = model.envelope(K)
    try:
        return bounds_report(epsilon, args.delta, model), extras
    except BoundsUnachievable:
        return None, extras


def _cmd_sweep(args) -> int:
    if args.family == "ideal" and args.epsilon is not None:
        raise ValueError("--epsilon does not apply to --family ideal: "
                         "the --grid values are the epsilons")
    if args.family != "ideal" and args.epsilon is None:
        raise ValueError(f"--family {args.family} needs --epsilon")
    values = _parse_values(args.grid)
    if not values:
        raise ValueError("--grid must list at least one parameter value")
    sampling = FixedTheta(float(args.theta)) if args.theta != "random" else UniformTheta()
    # every point is planned before any campaign runs
    plans, extras = zip(*(_sweep_point(args, value) for value in values))
    stats = noise_sweep(plans, args.trials, args.seed, sampling, args.workers)
    if args.format == "csv":
        # an unachievable point keeps empty numeric cells
        rows = [f"{value!r},,0,0,,,\n" if point is None else
                f"{value!r},{plan.samples},{point.trials},{point.successes},{point.rate!r},"
                f"{point.wilson_ci_95[0]!r},{point.wilson_ci_95[1]!r}\n"
                for value, plan, point in zip(values, plans, stats)]
        _emit(["parameter,M_predicted,trials,successes,rate,ci_lo,ci_hi\n", *rows], args.output)
        return 0
    config = CliConfig(subcommand="sweep", epsilon=args.epsilon, delta=args.delta,
                       theta=args.theta, trials=args.trials, seed=args.seed,
                       workers=args.workers, family=args.family, values=values,
                       strategy=args.strategy, format=args.format)
    points = [{"family": args.family, "parameter": value,
               "predicted_samples": None if plan is None else plan.samples,
               "achievable": plan is not None,
               "stats": None if point is None else point.to_dict(), "extras": point_extras}
              for value, plan, point_extras, point in zip(values, plans, extras, stats)]
    _emit(_json_text({"config": config.to_dict(), "points": points}), args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.output:
        # a report that cannot be written fails before the battery runs
        target = Path(args.output)
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, "is a directory", str(target))
        if not target.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "no such directory", str(target.parent))
    if args.outdir is not None:
        # so does an artifact directory that is, or lies under, a file
        outdir = Path(args.outdir)
        existing = next((path for path in (outdir, *outdir.parents) if path.exists()), outdir)
        if not existing.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, "not a directory", str(existing))
    results = run_suites(args.suite, workers=args.workers, trials=args.trials,
                         outdir=args.outdir)
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.summary}")
    if args.output:
        report = {"suites": [r.to_dict() for r in results],
                  "passed": all(r.passed for r in results)}
        Path(args.output).write_text(_json_text(report), encoding="utf-8", newline="\n")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfe",
        description=("Randomized Fourier estimation of a phase: simulate runs, "
                     "sweep noise parameters, compute guaranteed resource counts, "
                     "dump spectra, and verify the quantitative claims."))
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *, epsilon_needed_for=None, delta=True, theta=None, noise=True,
               seed=True, trials=None, workers=False):
        # --epsilon is required unless epsilon_needed_for says when it is needed
        p.add_argument("--epsilon", type=_finite_float, required=epsilon_needed_for is None,
                       help="target accuracy in radians" + (
                           "" if epsilon_needed_for is None else
                           f" ({epsilon_needed_for})"))
        if delta:
            p.add_argument("--delta", type=_finite_float, default=0.1,
                           help="failure probability budget (default 0.1)")
        if theta is not None:
            p.add_argument("--theta", type=_parse_theta, default=theta,
                           help='true phase in [0, 2*pi), or "random"')
        if noise:
            p.add_argument("--noise", default=_DEFAULT_NOISE, help=_NOISE_HELP)
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="master seed (RFE_SEED env var overrides)")
        if trials is not None:
            p.add_argument("--trials", type=int, default=trials,
                           help=f"number of trials per point (default {trials}; no "
                                "cap: run time grows with the count)")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="worker threads (default 1; 0 for all cores; "
                                "capped at the cores); never changes results")
        p.add_argument("--output", default=None, help="write to this path "
                       "instead of stdout")

    p_run = sub.add_parser("run", help="one estimation run")
    common(p_run, theta="random")
    p_run.add_argument("--samples", type=int, default=None,
                       help="override the certified sample count")
    p_run.add_argument("--grid", type=int, default=None,
                       help="override the grid size K (with --samples)")
    p_run.add_argument("--format", choices=("json", "csv"), default="json",
                       help="csv dumps the estimated spectrum")
    p_run.set_defaults(func=_cmd_run)

    p_spec = sub.add_parser("spectrum", help="dump an estimated or exact spectrum")
    common(p_spec, epsilon_needed_for="sets K = ceil(2 pi/epsilon) unless --grid is given",
           delta=False, theta="random")
    p_spec.add_argument("--samples", type=int, default=None,
                        help="simulate with this many samples (omit for the "
                             "exact expected spectrum under --noise)")
    p_spec.add_argument("--grid", type=int, default=None,
                        help="override the grid size K")
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_bounds = sub.add_parser("bounds", help="grid size, sample count, inflation "
                                             "for a target and a noise model")
    common(p_bounds, theta=None, seed=False)
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="success-rate sweep over a noise grid")
    common(p_sweep, epsilon_needed_for="every family but ideal, whose --grid values "
           "are the epsilons", theta="random", noise=False, trials=100, workers=True)
    p_sweep.add_argument("--family", required=True,
                         choices=("ideal", "ban", "gaussian", "dephasing",
                                  "high_coherence"),
                         help="swept parameter: epsilon (ideal), eta_bar (ban), "
                              "sigma (gaussian), K/T2 (dephasing, high_coherence)")
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated parameter values")
    p_sweep.add_argument("--strategy", default="sign_flip",
                         choices=[s.value for s in AdversaryStrategy],
                         help="adversary strategy for the ban family")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", action="append", default=None,
                          choices=list(SUITE_NAMES),
                          help="suite name (repeatable; default: all)")
    p_verify.add_argument("--trials", type=int, default=None,
                          help="override trial counts of the Monte Carlo suites (no "
                               "cap: run time grows with the count)")
    p_verify.add_argument("--workers", type=int, default=0,
                          help="worker threads in all, suites and their blocks "
                               "together (default 0: all cores; capped at the "
                               "cores); never changes results")
    p_verify.add_argument("--outdir", default=None,
                          help="directory for emitted artifacts (demo spectrum CSV)")
    p_verify.add_argument("--output", default=None,
                          help="write the full JSON report to this path")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed"):
        env_seed = os.environ.get("RFE_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                print(f"error: RFE_SEED must be an integer, got {env_seed!r}",
                      file=sys.stderr)
                return 2
    if args.subcommand == "verify" and args.suite is None:
        args.suite = ["all"]
    try:
        # one range for every subcommand, whichever generator the seed feeds
        if hasattr(args, "seed"):
            check_seed(args.seed)
        return args.func(args)
    except BoundsUnachievable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError, OSError) as exc:
        # the only files a command opens are the outputs it writes
        print(f"error: {exc}", file=sys.stderr)
        return 2

